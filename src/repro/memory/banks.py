"""Bank-conflict models for the partitioned and unified designs.

This module implements the paper's simplified conflict model
(Section 6.1): for each warp instruction, count the accesses each memory
bank receives and charge one extra cycle per access beyond the first to
the most-contended bank.  The counting differs per design:

**Partitioned** (Section 2.1). Three separate structures:

* MRF: 4 banks per cluster, register ``r`` lives in bank ``r % 4``
  (replicated across clusters, so conflicts are cluster-independent).
  An instruction reading several MRF registers in one bank serialises.
* Shared memory: 32 independent 4-byte-wide banks, word address
  ``% 32``; distinct words in one bank serialise (the classic shared
  bank conflict).
* Cache: 128-byte lines span all 32 banks, so line reads are
  conflict-free, but the single tag port serialises multi-line
  (uncoalesced) accesses.

Register and memory structures have independent ports, so the
instruction's penalty is the *maximum* of the two.

**Unified** (Sections 4.2-4.3). One pool of 32 x 16-byte banks (4 per
cluster).  Register mapping is unchanged (``r % 4``, replicated per
cluster).  Shared memory interleaves 16-byte rows across clusters then
banks; cache lines stripe one 16-byte chunk per cluster into bank
``line_index % 4``.  Three effects now interact:

* a 16-byte row access serves every thread reading that row, but
  distinct rows in the same bank serialise;
* *arbitration conflicts*: register and memory accesses to the same
  bank serialise (register access has priority, Section 4.3);
* the tag port still serialises multi-line accesses.

The default :class:`UnifiedBanks` counts conflicts per *bank*, which is
exactly the simplified model the paper evaluates in Section 6.1 and
reports in Table 5 ("count the bank accesses across the 32 threads in
the warp ... penalty of 1 cycle for each access beyond the first to the
most-accessed bank").  :class:`ClusterPortUnifiedBanks` additionally
enforces the literal Section 4.2 restriction that only one bank per
cluster reaches the crossbar per cycle -- the difference between the two
is the paper's "simple vs. enhanced scatter/gather" design choice
(measured there at 0.5% average), exposed here as an ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.compiled import CompiledOp
from repro.core.partition import (
    BANK_WIDTH,
    BANKS_PER_CLUSTER,
    CACHE_LINE,
    NUM_BANKS,
    NUM_CLUSTERS,
    DesignStyle,
    MemoryPartition,
)
from repro.compiler.precompute import hist_bucket as _hist_bucket
from repro.isa.opcodes import MemSpace


@dataclass(frozen=True, slots=True)
class BankAccess:
    """Outcome of presenting one warp instruction to the banks."""

    penalty: int
    max_bank_accesses: int
    data_row_accesses: int

    @property
    def is_conflicted(self) -> bool:
        """Whether the access stalls the pipeline at all."""
        return self.penalty > 0


@dataclass(slots=True)
class ConflictHistogram:
    """Table 5: warp instructions by max accesses to a single bank."""

    at_most_1: int = 0
    exactly_2: int = 0
    exactly_3: int = 0
    exactly_4: int = 0
    over_4: int = 0

    def record(self, max_accesses: int) -> None:
        """Count one warp instruction whose busiest bank saw ``max_accesses``."""
        if max_accesses <= 1:
            self.at_most_1 += 1
        elif max_accesses == 2:
            self.exactly_2 += 1
        elif max_accesses == 3:
            self.exactly_3 += 1
        elif max_accesses == 4:
            self.exactly_4 += 1
        else:
            self.over_4 += 1

    def merge(self, other: "ConflictHistogram") -> None:
        """Add ``other``'s bucket counts into this histogram in place."""
        self.at_most_1 += other.at_most_1
        self.exactly_2 += other.exactly_2
        self.exactly_3 += other.exactly_3
        self.exactly_4 += other.exactly_4
        self.over_4 += other.over_4

    @property
    def total(self) -> int:
        """All warp instructions recorded so far."""
        return self.at_most_1 + self.exactly_2 + self.exactly_3 + self.exactly_4 + self.over_4

    def fractions(self) -> dict[str, float]:
        """Bucket shares of all recorded instructions (Table 5's columns)."""
        n = self.total or 1
        return {
            "<=1": self.at_most_1 / n,
            "2": self.exactly_2 / n,
            "3": self.exactly_3 / n,
            "4": self.exactly_4 / n,
            ">4": self.over_4 / n,
        }

    def to_dict(self) -> dict[str, int]:
        """Raw bucket counts, for metrics/profile JSON export."""
        return {
            "at_most_1": self.at_most_1,
            "exactly_2": self.exactly_2,
            "exactly_3": self.exactly_3,
            "exactly_4": self.exactly_4,
            "over_4": self.over_4,
        }


def _reg_bank_counts(regs: tuple[int, ...]) -> list[int]:
    counts = [0] * BANKS_PER_CLUSTER
    for r in regs:
        counts[r % BANKS_PER_CLUSTER] += 1
    return counts


class PartitionedBanks:
    """Conflict model for the hard-partitioned baseline (and Fermi-like).

    Exposes two equivalent interfaces: :meth:`access` computes one warp
    instruction's outcome from scratch (and records the histogram), and
    the ``planned_*`` methods resolve the same outcome through a
    precomputed :class:`~repro.compiler.precompute.OpPlan`, memoising
    per-op results so repeat simulations of a kernel become table
    lookups.  The planned paths do *not* touch :attr:`histogram`; the
    simulator accumulates buckets itself and merges once per run.
    """

    #: Key prefix for plan-level memos (one entry space per model family).
    _plan_tag = "P"

    def __init__(self, partition: MemoryPartition) -> None:
        self.partition = partition
        self.histogram = ConflictHistogram()
        #: Shared-memory banks are 4 bytes wide in the baseline.
        self.shared_bank_width = 4

    def access(
        self,
        op: CompiledOp,
        shared_base: int = 0,
        segments: list[int] | None = None,
    ) -> BankAccess:
        """Resolve one warp instruction's bank conflicts from scratch.

        Register and memory banks are separate structures in this
        design, so the stall is simply the busiest port: the MRF bank
        with the most operand reads, the shared-memory word bank with
        the most distinct words, or the cache tag port serialising
        multi-line accesses (Section 6.1's counting).

        Args:
            op: The compiled instruction (MRF operands + addresses).
            shared_base: The CTA's scratchpad allocation offset; shared
                addresses are relative to it.
            segments: Pre-coalesced 128-byte line bases for global or
                local ops (``None`` means one line).

        Returns:
            The ``(penalty, max_bank, data_rows)`` outcome; also records
            ``max_bank`` into :attr:`histogram` (Table 5).
        """
        reg_counts = _reg_bank_counts(op.mrf_reads)
        reg_max = max(reg_counts) if op.mrf_reads else 0
        mem_max = 0
        rows = 0
        if op.op.space is MemSpace.SHARED:
            words = {(shared_base + a) // self.shared_bank_width for a in op.addrs}
            bank_counts: dict[int, int] = {}
            for w in words:
                b = w % NUM_BANKS
                bank_counts[b] = bank_counts.get(b, 0) + 1
            mem_max = max(bank_counts.values(), default=0)
            rows = len({(shared_base + a) // BANK_WIDTH for a in op.addrs})
        elif op.op.is_memory:  # global / local through the cache
            n_lines = len(segments) if segments is not None else 1
            mem_max = n_lines  # every line sweeps all 32 banks once
            rows = n_lines * (CACHE_LINE // BANK_WIDTH)
        penalty = max(reg_max - 1, mem_max - 1, 0)
        max_bank = max(reg_max, mem_max)
        self.histogram.record(max_bank)
        return BankAccess(penalty, max_bank, rows)

    # -- plan-driven fast path --------------------------------------------
    def planned_shared(self, pl, addrs, shared_base: int):
        """Shared-memory outcome via the op's plan memo.

        Returns ``(penalty, histogram_bucket, data_row_accesses, 0)``
        exactly as :meth:`access` would compute it (the trailing 0 is
        the arbitration-conflict flag, which the partitioned design
        cannot have).  Word banks repeat every ``4 * NUM_BANKS`` bytes,
        so the memo key is the CTA base offset modulo 128: shifting the
        base by 128 shifts every word index by 32 banks (identity) and
        every 16-byte row index by 8 (bijective), leaving penalty,
        busiest-bank count, and row count unchanged.
        """
        sw = self.shared_bank_width
        key = ("P", shared_base % 128) if sw == 4 else ("P", sw, shared_base)
        cached = pl.shared_cache.get(key)
        if cached is None:
            words = {(shared_base + a) // sw for a in addrs}
            bank_counts: dict[int, int] = {}
            for w in words:
                b = w % NUM_BANKS
                bank_counts[b] = bank_counts.get(b, 0) + 1
            mem_max = max(bank_counts.values(), default=0)
            rows = len({(shared_base + a) // BANK_WIDTH for a in addrs})
            reg_max = pl.reg_max
            penalty = max(reg_max - 1, mem_max - 1, 0)
            cached = (penalty, _hist_bucket(max(reg_max, mem_max)), rows, 0)
            pl.shared_cache[key] = cached
        return cached

    def planned_global(self, pl):
        """Global/local outcome: fully precomputed on the plan."""
        penalty, bucket, rows = pl.part_mem
        return penalty, bucket, rows, 0

    def plan_key(self, shared_base: int):
        """Everything a CTA's bank outcomes depend on beyond the plans.

        Identical to the :meth:`planned_shared` memo key (global
        outcomes are partition-independent here), so two CTA bases with
        equal keys resolve every access identically -- the columnar
        compiler keys whole warp programs on this.
        """
        sw = self.shared_bank_width
        return ("P", shared_base % 128) if sw == 4 else ("P", sw, shared_base)


class UnifiedBanks:
    """Conflict model for the unified design (Sections 4.2-4.3).

    Like :class:`PartitionedBanks`, exposes both the from-scratch
    :meth:`access` interface and plan-driven ``planned_*`` lookups (see
    :mod:`repro.compiler.precompute`); the planned paths skip histogram
    and arbitration-counter updates, returning the would-be increments
    for the simulator to accumulate.
    """

    _plan_tag = "U"

    def __init__(self, partition: MemoryPartition) -> None:
        if partition.style is not DesignStyle.UNIFIED:
            raise ValueError("UnifiedBanks requires a unified partition")
        self.partition = partition
        self.histogram = ConflictHistogram()
        #: Shared region follows the register region within each bank.
        self.shared_region_base = partition.rf_bytes
        self.arbitration_conflicts = 0

    # -- address mapping --------------------------------------------------
    def shared_row_location(self, addr: int) -> tuple[int, int, int]:
        """(cluster, bank-in-cluster, row) of a shared-memory byte."""
        g = (self.shared_region_base + addr) // BANK_WIDTH
        return g % NUM_CLUSTERS, (g // NUM_CLUSTERS) % BANKS_PER_CLUSTER, g

    @staticmethod
    def line_bank(line_addr: int) -> int:
        """Bank-in-cluster holding a cache line (same in all clusters)."""
        return (line_addr // CACHE_LINE) % BANKS_PER_CLUSTER

    # -- conflict accounting ----------------------------------------------
    def _cluster_term(self, per_cluster_bank_rows: dict[int, dict[int, int]]) -> int:
        """Cycles a cluster needs to feed the crossbar.

        Default (paper Section 6.1 model): banks within a cluster operate
        independently, so the cluster is done when its busiest bank is.
        """
        return max(
            (
                max(banks.values())
                for banks in per_cluster_bank_rows.values()
                if banks
            ),
            default=0,
        )

    def access(
        self,
        op: CompiledOp,
        shared_base: int = 0,
        segments: list[int] | None = None,
    ) -> BankAccess:
        """Resolve one warp instruction's bank conflicts from scratch.

        In the unified pool every access — register operand, shared
        row, cache line — competes for the same 32 banks, so beyond the
        per-port terms of the partitioned model this adds the *combined*
        per-bank load (registers plus memory on the same physical bank)
        and counts an arbitration conflict when that combination, not
        any single port, is what stalls the access (Section 4.2).

        Args:
            op: The compiled instruction (MRF operands + addresses).
            shared_base: The CTA's scratchpad allocation offset within
                the shared region (which itself follows the register
                region in each bank).
            segments: Pre-coalesced 128-byte line bases for global or
                local ops (``None`` means one line).

        Returns:
            The ``(penalty, max_bank, data_rows)`` outcome; also records
            the histogram bucket and any arbitration conflict.
        """
        reg_counts = _reg_bank_counts(op.mrf_reads)
        reg_max = max(reg_counts) if op.mrf_reads else 0
        cluster_cycles = 0
        tag_serial = 0
        rows = 0
        # per-bank memory access counts, cluster-resolved:
        # combined[k] = worst-cluster count for bank-in-cluster k.
        combined_max = reg_max
        max_bank = reg_max
        if op.op.space is MemSpace.SHARED:
            per_cluster: dict[int, dict[int, int]] = {}
            seen_rows: set[int] = set()
            for a in op.addrs:
                c, k, g = self.shared_row_location(shared_base + a)
                if g in seen_rows:
                    continue  # same 16-byte row: one bank access serves all
                seen_rows.add(g)
                per_cluster.setdefault(c, {}).setdefault(k, 0)
                per_cluster[c][k] += 1
            rows = len(seen_rows)
            cluster_cycles = self._cluster_term(per_cluster)
            for banks in per_cluster.values():
                for k, n in banks.items():
                    total = n + reg_counts[k]
                    if total > combined_max:
                        combined_max = total
                    if total > max_bank:
                        max_bank = total
        elif op.op.is_memory:  # global / local through the cache
            lines = segments if segments is not None else [0]
            tag_serial = len(lines)
            rows = len(lines) * (CACHE_LINE // BANK_WIDTH)
            lines_per_bank = [0] * BANKS_PER_CLUSTER
            for la in lines:
                lines_per_bank[self.line_bank(la)] += 1
            cluster_cycles = len(lines)  # each line occupies every cluster once
            for k in range(BANKS_PER_CLUSTER):
                if lines_per_bank[k] == 0:
                    continue
                total = lines_per_bank[k] + reg_counts[k]
                if total > combined_max:
                    combined_max = total
                if total > max_bank:
                    max_bank = total
        penalty = max(reg_max - 1, cluster_cycles - 1, combined_max - 1, tag_serial - 1, 0)
        if combined_max > max(reg_max, cluster_cycles, tag_serial):
            self.arbitration_conflicts += 1
        self.histogram.record(max_bank)
        return BankAccess(penalty, max_bank, rows)

    # -- plan-driven fast path --------------------------------------------
    def planned_shared(self, pl, addrs, shared_base: int):
        """Shared-memory outcome via the op's plan memo.

        Returns ``(penalty, histogram_bucket, data_row_accesses,
        arbitration_flag)``, exactly :meth:`access`'s outcome.  The
        16-byte-row-to-(cluster, bank) mapping repeats every
        ``NUM_BANKS * BANK_WIDTH = 512`` bytes of effective offset
        (shifting the row index by 32 preserves ``row % 8`` and
        ``(row // 8) % 4``), so the memo key is the effective base --
        register-region size plus CTA offset -- modulo 512, namespaced
        by the model variant (the cluster-port ablation counts cluster
        cycles differently).
        """
        key = (self._plan_tag, (self.shared_region_base + shared_base) % 512)
        cached = pl.shared_cache.get(key)
        if cached is None:
            reg_counts = pl.reg_counts
            reg_max = pl.reg_max
            per_cluster: dict[int, dict[int, int]] = {}
            seen_rows: set[int] = set()
            base = self.shared_region_base + shared_base
            for a in addrs:
                g = (base + a) // BANK_WIDTH
                if g in seen_rows:
                    continue
                seen_rows.add(g)
                c = g % NUM_CLUSTERS
                k = (g // NUM_CLUSTERS) % BANKS_PER_CLUSTER
                per_cluster.setdefault(c, {}).setdefault(k, 0)
                per_cluster[c][k] += 1
            rows = len(seen_rows)
            cluster_cycles = self._cluster_term(per_cluster)
            combined_max = reg_max
            max_bank = reg_max
            for banks in per_cluster.values():
                for k, n in banks.items():
                    total = n + reg_counts[k]
                    if total > combined_max:
                        combined_max = total
                    if total > max_bank:
                        max_bank = total
            penalty = max(
                reg_max - 1, cluster_cycles - 1, combined_max - 1, 0
            )
            arb = 1 if combined_max > max(reg_max, cluster_cycles, 0) else 0
            cached = (penalty, _hist_bucket(max_bank), rows, arb)
            pl.shared_cache[key] = cached
        return cached

    def planned_global(self, pl):
        """Global/local outcome, memoised on the plan.

        Partition-independent in the unified design: the line-to-bank
        stripe (``(line // CACHE_LINE) % 4``) and the register operand
        counts do not involve the partition split, and the tag-port and
        cluster terms are plain line counts.  Both unified variants
        share the slot because the global path never calls
        :meth:`_cluster_term`.
        """
        cached = pl.uni_mem
        if cached is None:
            lines = pl.segments
            n = pl.n_segments
            reg_counts = pl.reg_counts
            reg_max = pl.reg_max
            lines_per_bank = [0] * BANKS_PER_CLUSTER
            for la in lines:
                lines_per_bank[(la // CACHE_LINE) % BANKS_PER_CLUSTER] += 1
            combined_max = reg_max
            max_bank = reg_max
            for k in range(BANKS_PER_CLUSTER):
                lp = lines_per_bank[k]
                if lp == 0:
                    continue
                total = lp + reg_counts[k]
                if total > combined_max:
                    combined_max = total
                if total > max_bank:
                    max_bank = total
            # cluster_cycles == tag_serial == n on this path.
            penalty = max(reg_max - 1, n - 1, combined_max - 1, 0)
            arb = 1 if combined_max > max(reg_max, n) else 0
            rows = n * (CACHE_LINE // BANK_WIDTH)
            cached = (penalty, _hist_bucket(max_bank), rows, arb)
            pl.uni_mem = cached
        return cached

    def plan_key(self, shared_base: int):
        """Everything a CTA's bank outcomes depend on beyond the plans.

        Matches the :meth:`planned_shared` memo key -- the model tag
        distinguishes the cluster-port ablation, and the effective base
        modulo the 512-byte bank pattern period pins the shared
        outcomes; global outcomes are partition-independent.
        """
        return (self._plan_tag, (self.shared_region_base + shared_base) % 512)


class ClusterPortUnifiedBanks(UnifiedBanks):
    """The literal "simple design" of Section 4.2.

    Only one bank per cluster may reach the crossbar per cycle, so a
    cluster's cycle count is the *sum* of rows across its banks.  The
    paper found the relaxed (enhanced scatter/gather) design only 0.5%
    faster on average and published results with the simplified per-bank
    conflict model of Section 6.1 -- which is why the relaxed counting in
    :class:`UnifiedBanks` is our default and this class is the ablation.
    """

    _plan_tag = "UC"

    def _cluster_term(self, per_cluster_bank_rows: dict[int, dict[int, int]]) -> int:
        return max(
            (sum(banks.values()) for banks in per_cluster_bank_rows.values()),
            default=0,
        )


def make_bank_model(partition: MemoryPartition, cluster_port: bool = False):
    """Bank model matching a partition's design style.

    Args:
        partition: The memory split.
        cluster_port: Enforce the strict one-bank-per-cluster crossbar
            port (Section 4.2 "simple design") instead of the paper's
            per-bank conflict model.
    """
    if partition.style is DesignStyle.UNIFIED:
        cls = ClusterPortUnifiedBanks if cluster_port else UnifiedBanks
        return cls(partition)
    return PartitionedBanks(partition)

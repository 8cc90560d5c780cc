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

Each model states its counting rule for memory instructions once, in
``conflicts()``: a pure function of one warp instruction's MRF reads
and memory access that returns ``(penalty, max_bank, data_rows,
arbitration)``.  An instruction that reaches no memory bank conflicts
only on its register banks, the same way under every model
(:func:`register_conflicts`).  ``access()`` is the rule plus the
bookkeeping (the Table 5 histogram and the arbitration count), and is
what the per-op reference loop (:func:`repro.sm.core.run_event`) calls.
The columnar lowering (:mod:`repro.compiler.columnar`) memoises
``conflicts()`` on interned op plans: ``plan_key()`` names everything a
shared-memory outcome depends on beyond the op, and a global/local
outcome depends on nothing beyond the op and the model's class.
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
from repro.isa.opcodes import MemSpace

#: Baseline shared-memory banks are 4 bytes wide (Section 2.1).
SHARED_WORD = 4
#: 16-byte bank rows a cache line spans.
ROWS_PER_LINE = CACHE_LINE // BANK_WIDTH


def hist_bucket(max_bank: int) -> int:
    """Table 5 histogram bucket index (0: <=1, 1: 2, 2: 3, 3: 4, 4: >4)."""
    if max_bank <= 1:
        return 0
    return max_bank - 1 if max_bank <= 4 else 4


#: :class:`ConflictHistogram` fields, by :func:`hist_bucket` index.
_BUCKET_FIELDS = ("at_most_1", "exactly_2", "exactly_3", "exactly_4", "over_4")


@dataclass(frozen=True, slots=True)
class BankAccess:
    """Outcome of presenting one warp instruction to the banks."""

    penalty: int
    max_bank_accesses: int
    data_row_accesses: int


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
        name = _BUCKET_FIELDS[hist_bucket(max_accesses)]
        setattr(self, name, getattr(self, name) + 1)

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


def register_conflicts(mrf_reads: tuple[int, ...]) -> tuple[int, int]:
    """``(penalty, max_bank)`` of an instruction that reaches no memory bank.

    Both designs place register ``r`` in bank ``r % 4`` of every cluster
    and serialise reads of one bank, so an ALU, SFU or texture op
    conflicts the same way under every model.
    """
    reg_max = max(_reg_bank_counts(mrf_reads))
    return max(reg_max - 1, 0), reg_max


class _BankModel:
    """What both designs share: the bookkeeping around ``conflicts()``."""

    def __init__(self, partition: MemoryPartition) -> None:
        self.partition = partition
        self.histogram = ConflictHistogram()
        #: Instructions stalled by register/memory bank arbitration
        #: (Section 4.3); always 0 in the partitioned design.
        self.arbitration_conflicts = 0

    def conflicts(
        self,
        mrf_reads: tuple[int, ...],
        shared_addrs: tuple[int, ...] | None = None,
        shared_base: int = 0,
        lines=None,
    ) -> tuple[int, int, int, int]:
        """One memory instruction's bank outcome, without recording it.

        Args:
            mrf_reads: The instruction's MRF operand registers.
            shared_addrs: Per-thread addresses of a shared-memory
                access, relative to ``shared_base``.
            shared_base: The CTA's scratchpad allocation offset.
            lines: Coalesced line bases of a global or local access.

        Returns:
            ``(penalty, max_bank, data_rows, arbitration)``: stall
            cycles, the busiest bank's access count (Table 5), 16-byte
            data rows read or written, and 1 if register/memory
            arbitration is what stalls the instruction.
        """
        raise NotImplementedError

    def access(
        self,
        op: CompiledOp,
        shared_base: int = 0,
        segments: list[int] | None = None,
    ) -> BankAccess:
        """Resolve one warp instruction and record it.

        Args:
            op: The compiled instruction (MRF operands + addresses).
            shared_base: The CTA's scratchpad allocation offset; shared
                addresses are relative to it.
            segments: Pre-coalesced 128-byte line bases for global or
                local ops (``None`` means one line).

        Returns:
            The ``(penalty, max_bank, data_rows)`` outcome; also records
            ``max_bank`` into :attr:`histogram` (Table 5) and any
            arbitration conflict.
        """
        if op.op.space is MemSpace.SHARED:
            penalty, max_bank, rows, arb = self.conflicts(op.mrf_reads, op.addrs, shared_base)
        elif op.op.is_memory:  # global / local through the cache
            penalty, max_bank, rows, arb = self.conflicts(
                op.mrf_reads, lines=[0] if segments is None else segments
            )
        else:
            penalty, max_bank = register_conflicts(op.mrf_reads)
            rows = arb = 0
        self.histogram.record(max_bank)
        self.arbitration_conflicts += arb
        return BankAccess(penalty, max_bank, rows)


class PartitionedBanks(_BankModel):
    """Conflict model for the hard-partitioned baseline (and Fermi-like)."""

    def conflicts(self, mrf_reads, shared_addrs=None, shared_base=0, lines=None):
        """Register and memory banks are separate structures in this
        design, so the stall is simply the busiest port: the MRF bank
        with the most operand reads, the shared-memory word bank with
        the most distinct words, or the cache tag port serialising
        multi-line accesses (Section 6.1's counting).  See
        :meth:`_BankModel.conflicts` for the arguments.
        """
        reg_max = max(_reg_bank_counts(mrf_reads))
        mem_max = rows = 0
        if shared_addrs is not None:
            bank_counts = [0] * NUM_BANKS
            for word in {(shared_base + a) // SHARED_WORD for a in shared_addrs}:
                bank_counts[word % NUM_BANKS] += 1
            mem_max = max(bank_counts)
            rows = len({(shared_base + a) // BANK_WIDTH for a in shared_addrs})
        elif lines is not None:
            mem_max = len(lines)  # every line sweeps all 32 banks once
            rows = mem_max * ROWS_PER_LINE
        return max(reg_max - 1, mem_max - 1, 0), max(reg_max, mem_max), rows, 0

    def plan_key(self, shared_base: int):
        """Everything a CTA's shared-memory outcomes depend on beyond the op.

        Word banks repeat every ``SHARED_WORD * NUM_BANKS`` (128) bytes:
        shifting the base by 128 shifts every word index by 32 banks
        (identity) and every 16-byte row index by 8 (bijective), leaving
        penalty, busiest-bank count, and row count unchanged.  Two CTA
        bases with equal keys resolve every access identically.
        """
        return (type(self), shared_base % (SHARED_WORD * NUM_BANKS))


class UnifiedBanks(_BankModel):
    """Conflict model for the unified design (Sections 4.2-4.3)."""

    def __init__(self, partition: MemoryPartition) -> None:
        if partition.style is not DesignStyle.UNIFIED:
            raise ValueError("UnifiedBanks requires a unified partition")
        super().__init__(partition)
        #: Shared region follows the register region within each bank.
        self.shared_region_base = partition.rf_bytes

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

    def conflicts(self, mrf_reads, shared_addrs=None, shared_base=0, lines=None):
        """In the unified pool every access -- register operand, shared
        row, cache line -- competes for the same 32 banks, so beyond the
        per-port terms of the partitioned model this adds the *combined*
        per-bank load (registers plus memory on the same physical bank)
        and counts an arbitration conflict when that combination, not
        any single port, is what stalls the access (Section 4.2).
        Shared addresses are relative to ``shared_base`` within the
        shared region, which itself follows the register region in each
        bank.  See :meth:`_BankModel.conflicts` for the arguments.
        """
        reg_counts = _reg_bank_counts(mrf_reads)
        reg_max = max(reg_counts)
        # serial: cycles a single port needs -- a cluster feeding the
        # crossbar, or the tag port, which serialises the same lines.
        serial = rows = 0
        # The busiest physical bank, registers and memory combined.
        combined_max = reg_max
        if shared_addrs is not None:
            per_cluster: dict[int, dict[int, int]] = {}
            seen_rows: set[int] = set()
            for a in shared_addrs:
                c, k, g = self.shared_row_location(shared_base + a)
                if g in seen_rows:
                    continue  # same 16-byte row: one bank access serves all
                seen_rows.add(g)
                banks = per_cluster.setdefault(c, {})
                banks[k] = banks.get(k, 0) + 1
            rows = len(seen_rows)
            serial = self._cluster_term(per_cluster)
            for banks in per_cluster.values():
                for k, n in banks.items():
                    combined_max = max(combined_max, n + reg_counts[k])
        elif lines is not None:
            # Each line occupies every cluster once and one tag lookup.
            serial = len(lines)
            rows = serial * ROWS_PER_LINE
            lines_per_bank = [0] * BANKS_PER_CLUSTER
            for la in lines:
                lines_per_bank[self.line_bank(la)] += 1
            for k, n in enumerate(lines_per_bank):
                if n:
                    combined_max = max(combined_max, n + reg_counts[k])
        penalty = max(reg_max - 1, serial - 1, combined_max - 1, 0)
        arb = 1 if combined_max > max(reg_max, serial) else 0
        return penalty, combined_max, rows, arb

    def plan_key(self, shared_base: int):
        """Everything a CTA's shared-memory outcomes depend on beyond the op.

        The 16-byte-row-to-(cluster, bank) mapping repeats every
        ``NUM_BANKS * BANK_WIDTH`` (512) bytes of effective offset
        (shifting the row index by 32 preserves ``row % 8`` and
        ``(row // 8) % 4``), so the key is the effective base --
        register-region size plus CTA offset -- modulo 512, with the
        model's class (the cluster-port ablation counts cluster cycles
        differently).
        """
        return (type(self), (self.shared_region_base + shared_base) % (NUM_BANKS * BANK_WIDTH))


class ClusterPortUnifiedBanks(UnifiedBanks):
    """The literal "simple design" of Section 4.2.

    Only one bank per cluster may reach the crossbar per cycle, so a
    cluster's cycle count is the *sum* of rows across its banks.  The
    paper found the relaxed (enhanced scatter/gather) design only 0.5%
    faster on average and published results with the simplified per-bank
    conflict model of Section 6.1 -- which is why the relaxed counting in
    :class:`UnifiedBanks` is our default and this class is the ablation.
    """

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

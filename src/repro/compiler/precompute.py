"""Once-per-kernel precomputation of per-op simulation invariants.

The timing simulator visits every dynamic warp instruction exactly once
per :func:`~repro.sm.simulator.simulate` call, but the paper's sweeps
(Sections 5-7) run each :class:`CompiledKernel` through *many* memory
partitions.  The quantities the hot loop used to recompute per access --
coalesced line segments and DRAM sectors from ``op.addrs``, per-bank
MRF operand counts, per-space dispatch -- are invariants of the op (or
of the op plus a small partition-layout offset), so this pass computes
them once and attaches them to the kernel:

* **Partition-independent** facts are computed eagerly per op:
  instruction *kind* (a dense int replacing the ``op.op.space`` /
  ``is_load`` branch chain), MRF per-bank read counts and the resulting
  register-conflict penalty, 128-byte line segments, 32-byte sector
  count, and the per-line sector grouping of the write-through store
  path.
* **Partition-dependent** bank outcomes are memoised lazily on the
  plan, keyed by the small set of values they actually depend on: the
  unified global/local outcome is partition-independent (one slot), and
  shared-memory outcomes depend only on the CTA's shared-base offset
  modulo the bank pattern period (see :mod:`repro.memory.banks` for the
  exactness argument), so re-simulating a kernel under a new partition
  resolves bank accesses with table lookups.
* Plans are **interned** (:func:`intern_plan`, the one definition of
  the key): ops with identical timing-relevant fields share one plan
  object (and its memos), so loop-heavy kernels build 10-60x fewer
  plans than they have ops and keep the live heap small.

Two passes plan through the same table.  The columnar lowering
(:mod:`repro.compiler.columnar`) plans a register shape's non-memory
ops once and each warp's memory ops from that warp's addresses, so
replay never builds per-op records; :func:`plan_kernel` plans every
:class:`~repro.compiler.compiled.CompiledOp` of a kernel for the per-op
reference loop the tests compare replay against.

Cycle identity: plans carry no new modelling.  Every cached value is
definitionally equal to what :meth:`repro.memory.banks.PartitionedBanks.
access` / :meth:`~repro.memory.banks.UnifiedBanks.access` computes, and
the golden tests (``tests/integration/test_golden_results.py``) pin the
end-to-end equality.

Related work motivates the shape of this optimisation: compiler-assisted
register-file caching (Abaie Shoushtary et al.) and software/hardware
cooperative RF management (Sadrosadati et al.) both hoist per-access
decisions into a once-per-kernel analysis; here the same move is applied
to the simulator itself.
"""

from __future__ import annotations

from repro.compiler.compiled import CompiledKernel
from repro.core.partition import BANK_WIDTH, CACHE_LINE
from repro.isa.opcodes import OpClass
from repro.memory.coalescer import coalesce_lines, coalesce_sectors

#: Dense instruction kinds the simulator dispatches on.  The first three
#: index ``(alu, sfu, tex)`` latency tables, so their order is load-bearing.
K_ALU = 0
K_SFU = 1
K_TEX = 2
K_SHARED_LOAD = 3
K_SHARED_STORE = 4
K_GLOBAL_LOAD = 5  # global or local space, through the cache
K_GLOBAL_STORE = 6
K_BARRIER = 7

_KIND_BY_OPCLASS = {
    OpClass.ALU: K_ALU,
    OpClass.SFU: K_SFU,
    OpClass.TEX: K_TEX,
    OpClass.LOAD_SHARED: K_SHARED_LOAD,
    OpClass.STORE_SHARED: K_SHARED_STORE,
    OpClass.LOAD_GLOBAL: K_GLOBAL_LOAD,
    OpClass.STORE_GLOBAL: K_GLOBAL_STORE,
    OpClass.LOAD_LOCAL: K_GLOBAL_LOAD,
    OpClass.STORE_LOCAL: K_GLOBAL_STORE,
    OpClass.BARRIER: K_BARRIER,
}


def hist_bucket(max_bank: int) -> int:
    """Table 5 histogram bucket index (0: <=1, 1: 2, 2: 3, 3: 4, 4: >4)."""
    if max_bank <= 1:
        return 0
    return max_bank - 1 if max_bank <= 4 else 4


class OpPlan:
    """Precomputed invariants of one op, built from the four fields of a
    :class:`~repro.compiler.compiled.CompiledOp` that timing reads: its
    op class, MRF read registers, MRF write count and addresses.

    Attributes:
        kind: One of the ``K_*`` dispatch constants.
        n_mrf_reads: ``len(op.mrf_reads)`` (MRF read-energy increment).
        n_mrf_writes: ``len(op.mrf_writes)``.
        addrs: The op's per-thread addresses (``None`` for non-memory
            ops); part of the interning key, so one plan has one tuple.
        reg_counts: MRF reads per register bank (length 4).
        reg_max: Busiest-bank MRF read count.
        reg_penalty: ``max(reg_max - 1, 0)`` -- the full bank penalty of
            a non-memory op, identical under every bank model.
        reg_bucket: Histogram bucket of a non-memory op (``reg_max``).
        segments: Sorted 128-byte line bases (global/local ops only).
        n_segments: ``len(segments)``.
        n_sectors: Distinct 32-byte DRAM sectors of the access; ``-1``
            until :meth:`sector_info` computes it (cached loads never
            need sectors, so the work is deferred to first use).
        per_line_sectors: Sector count per touched line, in ascending
            line order -- the cached store path's DRAM burst sizes.
            ``None`` until :meth:`sector_info` runs.
        part_mem: Partitioned-model outcome ``(penalty, bucket, rows)``
            for global/local ops (partition-independent).
        uni_mem: Unified-model outcome ``(penalty, bucket, rows, arb)``
            for global/local ops, filled lazily by the bank model (also
            partition-independent; shared by both unified variants).
        shared_cache: Lazy memo for shared-memory ops, keyed by
            ``(model tag, effective base offset mod period)``.
    """

    __slots__ = (
        "kind",
        "n_mrf_reads",
        "n_mrf_writes",
        "addrs",
        "reg_counts",
        "reg_max",
        "reg_penalty",
        "reg_bucket",
        "segments",
        "n_segments",
        "n_sectors",
        "per_line_sectors",
        "part_mem",
        "uni_mem",
        "shared_cache",
    )

    def __init__(
        self, op_class: OpClass, mrf_reads, n_mrf_writes: int, addrs, line_bytes: int
    ) -> None:
        try:
            self.kind = _KIND_BY_OPCLASS[op_class]
        except KeyError:
            raise ValueError(
                f"op class {op_class!r} cannot be timed by the SM simulator"
            ) from None
        counts = [0, 0, 0, 0]
        for r in mrf_reads:
            counts[r & 3] += 1  # BANKS_PER_CLUSTER == 4
        self.n_mrf_reads = len(mrf_reads)
        self.n_mrf_writes = n_mrf_writes
        self.addrs = addrs
        self.reg_counts = counts
        reg_max = max(counts) if mrf_reads else 0
        self.reg_max = reg_max
        self.reg_penalty = reg_max - 1 if reg_max > 1 else 0
        self.reg_bucket = hist_bucket(reg_max)
        self.segments = None
        self.n_segments = 0
        self.n_sectors = 0
        self.per_line_sectors = None
        self.part_mem = None
        self.uni_mem = None
        self.shared_cache = None
        kind = self.kind
        if kind == K_SHARED_LOAD or kind == K_SHARED_STORE:
            self.shared_cache = {}
        elif kind == K_GLOBAL_LOAD or kind == K_GLOBAL_STORE:
            segments = coalesce_lines(addrs, line_bytes)
            self.segments = segments
            n = len(segments)
            self.n_segments = n
            self.n_sectors = -1  # deferred to sector_info()
            # Partitioned model, global path: every line sweeps all 32
            # banks once, the tag port serialises multi-line accesses.
            mem_max = n
            penalty = reg_max - 1 if reg_max > mem_max else mem_max - 1
            if penalty < 0:
                penalty = 0
            max_bank = reg_max if reg_max > mem_max else mem_max
            # The bank models size rows by the architectural CACHE_LINE
            # constant, not the simulation's line_bytes -- match exactly.
            rows = n * (CACHE_LINE // BANK_WIDTH)
            self.part_mem = (penalty, hist_bucket(max_bank), rows)

    def sector_info(self, addrs, line_bytes: int) -> tuple[int, tuple[int, ...]]:
        """Compute (and cache) the sector-granular facts on first use.

        Only stores and uncached loads consume DRAM-sector counts, so
        this is deferred out of the constructor; cached loads -- the
        common case -- never pay for it.

        Args:
            addrs: The op's per-thread byte addresses.
            line_bytes: Cache line size (must match the plan's).

        Returns:
            ``(n_sectors, per_line_sectors)``, also stored on the plan.
        """
        sectors = coalesce_sectors(addrs)
        self.n_sectors = len(sectors)
        per_line: dict[int, int] = {}
        for sector in sectors:
            line = sector - sector % line_bytes
            per_line[line] = per_line.get(line, 0) + 1
        # dict preserves insertion order and sectors are ascending, so
        # values() replays the unplanned store path's DRAM order.
        self.per_line_sectors = tuple(per_line.values())
        return self.n_sectors, self.per_line_sectors


#: Interned plans, ``_interned[line_bytes][key] -> OpPlan``.  A plan is a
#: pure function of ``(kind, mrf_reads, len(mrf_writes), addrs)`` at a
#: given line size -- including every lazily-filled field (sector facts
#: and bank memos depend only on those inputs plus memo keys) -- so ops
#: with equal keys share one plan object.  Loop-heavy kernels repeat a
#: small set of operand/address patterns (10-60x dedup on the Table 1
#: suite), which keeps the live-object population small (a large tracked
#: heap slows every CPython GC pass in long suite runs) and lets a
#: plan's memos warm up across ops, warps, CTAs, and even recompiles of
#: the same trace under a different register budget.
_interned: dict[int, dict[tuple, OpPlan]] = {}


def clear_plan_cache() -> None:
    """Drop all interned plans (test isolation / memory release).

    Kernels that were already planned keep referencing their existing
    plan objects; only future :func:`plan_kernel` calls re-intern.
    """
    _interned.clear()


def intern_plan(op_class: OpClass, mrf_reads, n_mrf_writes: int, addrs, line_bytes: int) -> OpPlan:
    """The plan of one op, shared with every op of equal key.

    The one definition of the interning key: :func:`plan_kernel` and the
    columnar lowering (:mod:`repro.compiler.columnar`) both plan through
    here, so a kernel planned both ways shares its plan objects.
    """
    table = _interned.get(line_bytes)
    if table is None:
        table = _interned[line_bytes] = {}
    key = (_KIND_BY_OPCLASS.get(op_class, -1), mrf_reads, n_mrf_writes, addrs)
    pl = table.get(key)
    if pl is None:
        pl = table[key] = OpPlan(op_class, mrf_reads, n_mrf_writes, addrs, line_bytes)
    return pl


def plan_kernel(kernel: CompiledKernel, line_bytes: int) -> list[list[list[OpPlan]]]:
    """Plans for every op of ``kernel``, cached on the kernel.

    The per-op reference loop (:func:`repro.sm.core.run_event`) reads
    these; replay lowers from register shapes instead and never builds
    this table.

    Args:
        kernel: The compiled kernel about to be simulated.
        line_bytes: Cache line size the simulation uses (plans embed the
            line-granular coalescing, so each line size gets its own
            table).

    Returns:
        ``plans[cta][warp][pc]`` aligned with ``kernel.ctas``; repeated
        calls with the same ``line_bytes`` return the cached table.
        Plans are interned: ops with identical timing-relevant fields
        share one :class:`OpPlan` (see :func:`intern_plan`).
    """
    cache = kernel._plan_cache
    plans = cache.get(line_bytes)
    if plans is None:
        plans = [
            [
                [
                    intern_plan(op.op, op.mrf_reads, len(op.mrf_writes), op.addrs, line_bytes)
                    for op in warp.ops
                ]
                for warp in cta.warps
            ]
            for cta in kernel.ctas
        ]
        cache[line_bytes] = plans
    return plans

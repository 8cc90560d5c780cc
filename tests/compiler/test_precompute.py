"""Equivalence tests for the once-per-kernel precompute pass.

These pin the cycle-identity contract at the unit level: every value a
plan caches, and every outcome a ``planned_*`` bank-model method
returns, must equal what the from-scratch :meth:`access` interface
computes -- across both designs, both unified variants, and unaligned
CTA shared-memory base offsets (the first-fit allocator guarantees no
alignment).  The end-to-end counterpart is
``tests/integration/test_golden_results.py``.
"""

import pytest

from repro.compiler.compiled import CompiledOp
from repro.compiler.precompute import (
    K_ALU,
    K_BARRIER,
    K_GLOBAL_LOAD,
    K_GLOBAL_STORE,
    K_SHARED_LOAD,
    K_SHARED_STORE,
    K_SFU,
    K_TEX,
    OpPlan,
    hist_bucket,
    plan_kernel,
)
from repro.core import partitioned_baseline
from repro.core.allocator import allocate_unified
from repro.core.partition import KB
from repro.isa.opcodes import OpClass
from repro.memory.banks import (
    ClusterPortUnifiedBanks,
    PartitionedBanks,
    UnifiedBanks,
)
from repro.memory.coalescer import coalesce_lines, coalesce_sectors

#: CTA shared-base offsets covering aligned, word-, and byte-unaligned
#: layouts plus values past each model's memo period (128 / 512 bytes).
SHARED_BASES = (0, 4, 12, 100, 128, 132, 512, 516, 1000)


def _op(opclass, *, dst=None, srcs=(), mrf_reads=(), addrs=None, mrf_writes=()):
    return CompiledOp(
        op=opclass,
        dst=dst,
        srcs=srcs,
        mrf_reads=mrf_reads,
        mrf_writes=mrf_writes,
        lrf_reads=0,
        orf_reads=0,
        lrf_writes=0,
        orf_writes=0,
        addrs=addrs,
        active=32,
    )


def _plan(op, line_bytes=128):
    return OpPlan(op.op, op.mrf_reads, len(op.mrf_writes), op.addrs, line_bytes)


def _models():
    part = partitioned_baseline()
    uni = allocate_unified(
        384 * KB, regs_per_thread=21, threads_per_cta=256, smem_bytes_per_cta=2048
    ).partition
    return [PartitionedBanks(part), UnifiedBanks(uni), ClusterPortUnifiedBanks(uni)]


# ---------------------------------------------------------------------------
# kind mapping and eager plan facts
# ---------------------------------------------------------------------------


def test_kind_mapping_covers_timed_opclasses():
    expected = {
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
    for opclass, kind in expected.items():
        addrs = tuple(range(0, 128, 4)) if opclass.is_memory else None
        assert _plan(_op(opclass, addrs=addrs)).kind == kind


def test_untimeable_opclass_rejected():
    with pytest.raises(ValueError, match="cannot be timed"):
        _plan(_op(OpClass.EXIT))


def test_register_facts_match_access():
    op = _op(OpClass.ALU, mrf_reads=(0, 4, 8, 1), mrf_writes=(2,))
    pl = _plan(op)
    assert pl.reg_counts == [3, 1, 0, 0]
    assert pl.reg_max == 3
    assert pl.reg_penalty == 2
    assert pl.reg_bucket == hist_bucket(3)
    assert pl.n_mrf_reads == 4
    assert pl.n_mrf_writes == 1
    for m in _models():
        ba = m.access(op)
        assert (pl.reg_penalty, pl.reg_bucket) == (
            ba.penalty,
            hist_bucket(ba.max_bank_accesses),
        )
        assert ba.data_row_accesses == 0


def test_global_plan_matches_coalescer():
    addrs = tuple((7919 * lane * lane) % (1 << 16) for lane in range(32))
    pl = _plan(_op(OpClass.LOAD_GLOBAL, addrs=addrs))
    assert pl.segments == coalesce_lines(addrs, 128)
    assert pl.n_segments == len(pl.segments)
    # sector facts are deferred until a store/uncached-load needs them
    assert pl.n_sectors == -1
    assert pl.per_line_sectors is None
    sectors = coalesce_sectors(addrs)
    n_sectors, per_line_sectors = pl.sector_info(addrs, 128)
    assert n_sectors == pl.n_sectors == len(sectors)
    assert sum(per_line_sectors) == len(sectors)
    # per-line grouping replays the store path's ascending-line order
    per_line: dict[int, int] = {}
    for s in sectors:
        per_line[s - s % 128] = per_line.get(s - s % 128, 0) + 1
    assert pl.per_line_sectors == tuple(per_line.values())


def test_empty_addrs_memory_op_plans_cleanly():
    pl = _plan(_op(OpClass.STORE_GLOBAL, addrs=()))
    assert pl.n_segments == 0
    assert pl.sector_info((), 128) == (0, ())
    assert pl.part_mem == (0, hist_bucket(0), 0)
    for m in _models():
        got = m.planned_global(pl)
        ba = m.access(_op(OpClass.STORE_GLOBAL, addrs=()), segments=[])
        assert got == (ba.penalty, hist_bucket(ba.max_bank_accesses), 0, 0)


# ---------------------------------------------------------------------------
# planned_* equivalence over real kernels
# ---------------------------------------------------------------------------


def _kernel_ops(kernel_name):
    from repro.experiments.runner import Runner

    ck = Runner("tiny").compiled(kernel_name)
    return [op for cta in ck.ctas[:2] for warp in cta.warps for op in warp.ops]


@pytest.mark.parametrize("kernel_name", ["matrixmul", "needle", "bfs"])
def test_planned_equals_access_on_kernel(kernel_name):
    ops = _kernel_ops(kernel_name)
    models = _models()
    checked = 0
    for op in ops:
        pl = _plan(op)
        for m in models:
            for shared_base in SHARED_BASES:
                if pl.kind in (K_SHARED_LOAD, K_SHARED_STORE):
                    before = getattr(m, "arbitration_conflicts", 0)
                    ba = m.access(op, shared_base=shared_base)
                    arb = getattr(m, "arbitration_conflicts", 0) - before
                    got = m.planned_shared(pl, op.addrs, shared_base)
                elif pl.kind in (K_GLOBAL_LOAD, K_GLOBAL_STORE):
                    segs = coalesce_lines(op.addrs, 128)
                    before = getattr(m, "arbitration_conflicts", 0)
                    ba = m.access(op, segments=segs)
                    arb = getattr(m, "arbitration_conflicts", 0) - before
                    got = m.planned_global(pl)
                else:
                    before = getattr(m, "arbitration_conflicts", 0)
                    ba = m.access(op)
                    arb = getattr(m, "arbitration_conflicts", 0) - before
                    got = (pl.reg_penalty, pl.reg_bucket, 0, 0)
                assert got == (
                    ba.penalty,
                    hist_bucket(ba.max_bank_accesses),
                    ba.data_row_accesses,
                    arb,
                ), (kernel_name, type(m).__name__, op.op, shared_base)
                checked += 1
    assert checked > 0


def test_shared_memo_keys_distinguish_models():
    """The two unified variants must not share a shared-memory memo slot."""
    addrs = tuple(4 * lane for lane in range(32))
    op = _op(OpClass.LOAD_SHARED, addrs=addrs, mrf_reads=(0, 4))
    pl = _plan(op)
    part, uni, uni_cp = _models()
    part.planned_shared(pl, addrs, 4)
    uni.planned_shared(pl, addrs, 4)
    uni_cp.planned_shared(pl, addrs, 4)
    tags = {key[0] for key in pl.shared_cache}
    assert tags == {"P", "U", "UC"}


def test_plan_kernel_caches_per_line_size():
    from repro.experiments.runner import Runner

    ck = Runner("tiny").compiled("vectoradd")
    plans_a = plan_kernel(ck, 128)
    plans_b = plan_kernel(ck, 128)
    assert plans_a is plans_b  # cached on the kernel
    plans_c = plan_kernel(ck, 64)
    assert plans_c is not plans_a  # line size changes the coalescing
    assert len(plans_a) == len(ck.ctas)
    for cta, cta_plans in zip(ck.ctas, plans_a):
        assert [len(wp) for wp in cta_plans] == [len(w.ops) for w in cta.warps]


def test_plan_kernel_interns_identical_ops():
    from repro.compiler.precompute import clear_plan_cache
    from repro.experiments.runner import Runner

    clear_plan_cache()
    runner = Runner("tiny")
    ck = runner.compiled("matrixmul")
    plans = plan_kernel(ck, 128)
    by_key: dict[tuple, OpPlan] = {}
    total = 0
    for cta, cta_plans in zip(ck.ctas, plans):
        for warp, warp_plans in zip(cta.warps, cta_plans):
            for op, pl in zip(warp.ops, warp_plans):
                total += 1
                key = (pl.kind, op.mrf_reads, len(op.mrf_writes), op.addrs)
                assert by_key.setdefault(key, pl) is pl  # equal key -> same plan
    assert len(by_key) < total  # loop-heavy kernels repeat patterns

    # A second compile of the same trace shares plan objects (and their
    # warmed memos) with the first -- the sweep-recompile fast path.
    from repro.compiler.pipeline import compile_kernel

    ck2 = compile_kernel(runner.trace("matrixmul"))
    assert ck2 is not ck
    plans2 = plan_kernel(ck2, 128)
    assert plans2[0][0][0] is plans[0][0][0]
    clear_plan_cache()

"""Unit tests for the op plans columnar lowering precomputes.

These pin the cycle-identity contract at the unit level: every value a
plan (:class:`repro.compiler.columnar.OpPlan`) caches, and every bank
outcome it memoises, must equal what the bank model's from-scratch
:meth:`access` interface computes -- across both designs, both unified
variants, and unaligned CTA shared-memory base offsets (the first-fit
allocator guarantees no alignment).  The end-to-end counterparts are
``tests/sm/test_engine_equivalence.py`` and
``tests/integration/test_golden_results.py``.
"""

import pytest

from repro.compiler.columnar import (
    K_ALU,
    K_BARRIER,
    K_GLOBAL_LOAD,
    K_GLOBAL_STORE,
    K_SHARED_LOAD,
    K_SHARED_STORE,
    K_SFU,
    K_TEX,
    R_GLOBAL_LOAD,
    R_GLOBAL_LOAD_NOCACHE,
    R_GLOBAL_STORE,
    R_GLOBAL_STORE_NOCACHE,
    OpPlan,
    _sig_table,
    clear_plan_cache,
)
from repro.compiler.compiled import CompiledOp
from repro.core import partitioned_baseline
from repro.core.allocator import allocate_unified
from repro.core.partition import KB
from repro.isa.opcodes import OpClass
from repro.memory.banks import (
    ClusterPortUnifiedBanks,
    PartitionedBanks,
    UnifiedBanks,
    hist_bucket,
    register_conflicts,
)
from repro.memory.coalescer import coalesce_lines, coalesce_sectors, sectors_per_line

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
    return OpPlan(op.op, op.mrf_reads, op.addrs, line_bytes)


def _outcome(model, pl, shared_base):
    """``pl``'s memoised outcome under the key lowering resolves it by."""
    key = model.plan_key(shared_base) if pl.segments is None else type(model)
    return pl.outcome(model, key, shared_base)


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
    # Bank 0 holds registers 0, 4 and 8: three reads, two stall cycles.
    assert register_conflicts(op.mrf_reads) == (2, 3)
    assert pl.reg_penalty == 2
    assert pl.reg_bucket == hist_bucket(3)
    assert pl.mrf_reads == (0, 4, 8, 1)
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
    # a cached load's row: the segments and their cache line indices,
    # built once; sector facts wait for a row that needs them
    row = pl.replay(True, 128)
    assert row == (R_GLOBAL_LOAD, (pl.segments, tuple(s // 128 for s in pl.segments)))
    assert pl.replay(True, 128) is row
    assert pl.uncached is None
    sectors = coalesce_sectors(addrs)
    assert pl.replay(False, 128) == (R_GLOBAL_LOAD_NOCACHE, len(sectors))
    # per-line grouping replays the store path's ascending-line order
    per_line: dict[int, int] = {}
    for s in sectors:
        per_line[s - s % 128] = per_line.get(s - s % 128, 0) + 1
    st = _plan(_op(OpClass.STORE_GLOBAL, addrs=addrs))
    kind, (segments, _, bursts) = st.replay(True, 128)
    assert (kind, segments) == (R_GLOBAL_STORE, st.segments)
    assert bursts == tuple(per_line.values()) == sectors_per_line(addrs, 128)
    assert st.replay(False, 128) == (R_GLOBAL_STORE_NOCACHE, len(sectors))


def test_empty_addrs_memory_op_plans_cleanly():
    pl = _plan(_op(OpClass.STORE_GLOBAL, addrs=()))
    assert pl.segments == []
    assert pl.replay(True, 128) == (R_GLOBAL_STORE, ([], (), ()))
    assert pl.replay(False, 128) == (R_GLOBAL_STORE_NOCACHE, 0)
    part = _models()[0]
    assert _outcome(part, pl, 0) == (0, hist_bucket(0), 0, 0)
    for m in _models():
        got = _outcome(m, pl, 0)
        ba = m.access(_op(OpClass.STORE_GLOBAL, addrs=()), segments=[])
        assert got == (ba.penalty, hist_bucket(ba.max_bank_accesses), 0, 0)


# ---------------------------------------------------------------------------
# memoised outcomes against access() over real kernels
# ---------------------------------------------------------------------------


def _kernel_ops(kernel_name):
    from repro.experiments.runner import Runner

    ck = Runner("tiny").compiled(kernel_name)
    return [op for cta in ck.ctas[:2] for warp in cta.warps for op in warp.ops]


@pytest.mark.parametrize("kernel_name", ["matrixmul", "needle", "bfs"])
def test_planned_equals_access_on_kernel(kernel_name):
    """Memo hits across :data:`SHARED_BASES` check each model's period."""
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
                    got = _outcome(m, pl, shared_base)
                elif pl.kind in (K_GLOBAL_LOAD, K_GLOBAL_STORE):
                    segs = coalesce_lines(op.addrs, 128)
                    before = getattr(m, "arbitration_conflicts", 0)
                    ba = m.access(op, segments=segs)
                    arb = getattr(m, "arbitration_conflicts", 0) - before
                    got = _outcome(m, pl, shared_base)
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
    """Each model gets its own memo slot: the two unified variants must
    not share one, and a global outcome has one slot per model too."""
    addrs = tuple(4 * lane for lane in range(32))
    op = _op(OpClass.LOAD_SHARED, addrs=addrs, mrf_reads=(0, 4))
    pl = _plan(op)
    gpl = _plan(_op(OpClass.LOAD_GLOBAL, addrs=addrs, mrf_reads=(0, 4)))
    models = _models()
    for m in models:
        _outcome(m, pl, 4)
        _outcome(m, gpl, 4)
    classes = {PartitionedBanks, UnifiedBanks, ClusterPortUnifiedBanks}
    assert len(pl.outcomes) == 3
    assert {key[0] for key in pl.outcomes} == classes
    assert set(gpl.outcomes) == classes


def test_lowering_interns_identical_ops():
    from repro.experiments.runner import Runner

    clear_plan_cache()
    runner = Runner("tiny")
    ck = runner.compiled("matrixmul")
    sigs, rows = _sig_table(ck, 128)
    by_key: dict[tuple, OpPlan] = {}
    total = 0
    for cta, row in zip(ck.ctas, rows):
        for warp, (low, mem_plans) in zip(cta.warps, (sigs[n] for n in row)):
            plans = list(low.plans)
            for (pc, *_), pl in zip(low.mem, mem_plans):
                plans[pc] = pl
            assert None not in plans
            for op, pl in zip(warp.ops, plans):
                total += 1
                key = (pl.kind, op.mrf_reads, op.addrs)
                assert by_key.setdefault(key, pl) is pl  # equal key -> same plan
    assert len(by_key) < total  # loop-heavy kernels repeat patterns

    # A second compile of the same trace shares plan objects (and their
    # warmed memos) with the first -- the sweep-recompile fast path.
    from repro.compiler.pipeline import compile_kernel

    ck2 = compile_kernel(runner.trace("matrixmul"))
    assert ck2 is not ck
    sigs2, rows2 = _sig_table(ck2, 128)
    (low, mem_plans), (low2, mem_plans2) = sigs[rows[0][0]], sigs2[rows2[0][0]]
    assert low2 is not low  # shape lowerings are per kernel
    assert mem_plans2[0] is mem_plans[0]
    assert next(p for p in low2.plans if p) is next(p for p in low.plans if p)
    clear_plan_cache()

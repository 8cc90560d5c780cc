"""Integration tests for the compile pipeline (trace -> CompiledKernel)."""

import pytest

from repro.compiler import compile_kernel, compile_warp, pipeline
from repro.compiler.compiled import CompiledOp, RFTrafficCounts
from repro.compiler.pipeline import LOCAL_BASE, SLOT_BYTES
from repro.experiments.runner import Runner
from repro.isa import CTATrace, KernelTrace, LaunchConfig, OpClass, WarpBuilder
from repro.kernels import all_benchmarks

TABLE1 = [bm.name for bm in all_benchmarks()]
LOCAL_OPS = (OpClass.LOAD_LOCAL, OpClass.STORE_LOCAL)


def _pressure_warp(pool_size=10, rounds=4, lds=False, base=0, active=32):
    """A warp with tunable register pressure and optional memory ops.

    ``base`` and ``active`` change only its global addresses and lane
    count, never its register shape.
    """
    b = WarpBuilder(active=active)
    pool = [b.iconst() for _ in range(pool_size)]
    for r in range(rounds):
        x = b.load_global([base + 1024 * r + 4 * t for t in range(32)], pool[0])
        for acc in pool:
            b.alu_into(acc, x)
        if lds:
            b.store_shared([4 * t for t in range(32)], x)
            b.barrier()
    out = b.alu(pool[0], pool[1])
    b.store_global([base + 4 * t for t in range(32)], out)
    return b.ops


def _kernel(num_ctas=2, warps=2, **kw):
    lc = LaunchConfig(threads_per_cta=warps * 32, num_ctas=num_ctas, smem_bytes_per_cta=256)
    ctas = [CTATrace([_pressure_warp(**kw) for _ in range(warps)]) for _ in range(num_ctas)]
    return KernelTrace("pressure", lc, ctas)


class TestCompileWarp:
    def test_no_spill_budget_preserves_op_count(self):
        ops = _pressure_warp()
        cw = compile_warp(ops, num_regs=64)
        assert cw.num_ops == len(ops)
        assert cw.spill_slots == 0

    def test_tight_budget_inserts_spill_code(self):
        ops = _pressure_warp(pool_size=16)
        cw = compile_warp(ops, num_regs=8)
        assert cw.num_ops > len(ops)
        assert cw.spill_slots > 0
        locals_ = [o for o in cw.ops if o.op in (OpClass.LOAD_LOCAL, OpClass.STORE_LOCAL)]
        assert locals_, "expected spill instructions"
        for o in locals_:
            assert o.addrs is not None
            assert all(a >= LOCAL_BASE for a in o.addrs)
            # One slot per warp: lane addresses are consecutive words.
            assert list(o.addrs) == list(range(o.addrs[0], o.addrs[0] + 4 * o.active, 4))

    def test_spill_addresses_distinct_across_warps(self):
        ops = _pressure_warp(pool_size=16)
        a = compile_warp(ops, num_regs=8, warp_uid=0)
        b = compile_warp(ops, num_regs=8, warp_uid=1)
        addrs_a = {x for o in a.ops if o.op.space and o.op.space.name == "LOCAL" for x in o.addrs}
        addrs_b = {x for o in b.ops if o.op.space and o.op.space.name == "LOCAL" for x in o.addrs}
        assert addrs_a and addrs_b
        assert addrs_a.isdisjoint(addrs_b)


class TestCompileKernel:
    def test_default_budget_is_max_live(self):
        trace = _kernel()
        ck = compile_kernel(trace)
        assert ck.regs_per_thread == ck.max_live
        assert ck.total_ops == trace.total_ops
        assert ck.spill_slots == 0

    def test_dynamic_instruction_overhead_decreases_with_regs(self):
        trace = _kernel(pool_size=20, rounds=6)
        base = compile_kernel(trace)
        ratios = []
        for regs in (8, 12, 18, 24, 64):
            ck = compile_kernel(trace, regs_per_thread=regs)
            ratios.append(ck.dynamic_instruction_ratio(base.total_ops))
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] == 1.0

    def test_rf_traffic_reduction_near_paper_value(self):
        # The prior-work hierarchy cuts MRF reads by ~60% for typical
        # instruction mixes, which contain dependent ALU chains between
        # memory operations (unlike the pathological accumulator-only
        # kernel above, which is intentionally MRF-heavy).
        b = WarpBuilder()
        state = [b.iconst() for _ in range(4)]
        for r in range(8):
            x = b.load_global([512 * r + 4 * t for t in range(32)])
            for _ in range(6):  # dependent chain: LRF/ORF hits
                x = b.alu(x, state[r % 4])
            y = b.sfu(x)
            z = b.alu(x, y)
            b.alu_into(state[r % 4], z)
        b.store_global([4 * t for t in range(32)], state[0])
        lc = LaunchConfig(threads_per_cta=32, num_ctas=1)
        ck = compile_kernel(KernelTrace("mix", lc, [CTATrace([b.ops])]))
        frac = ck.rf_traffic().mrf_read_fraction
        assert 0.1 < frac < 0.6

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            compile_kernel(_kernel(), regs_per_thread=0)

    @pytest.mark.parametrize(
        "compile_fn",
        [
            lambda orf: compile_kernel(_kernel(), orf_entries=orf),
            lambda orf: compile_warp(_pressure_warp(), num_regs=16, orf_entries=orf),
        ],
        ids=["compile_kernel", "compile_warp"],
    )
    def test_negative_orf_entries_rejected(self, compile_fn):
        with pytest.raises(ValueError, match="orf_entries"):
            compile_fn(-1)

    def test_stats_aggregation(self):
        ck = compile_kernel(_kernel())
        s = ck.stats()
        assert s.total_ops == ck.total_ops
        assert s.global_loads > 0 and s.global_stores > 0

    def test_shape_cache_shares_work_across_identical_warps(self):
        # All warps share a shape; spill slots must agree everywhere.
        trace = _kernel(num_ctas=3, warps=4, pool_size=16)
        ck = compile_kernel(trace, regs_per_thread=8)
        slot_counts = {w.spill_slots for cta in ck.ctas for w in cta.warps}
        assert len(slot_counts) == 1

    def test_local_regions_do_not_overlap(self):
        trace = _kernel(num_ctas=2, warps=2, pool_size=16)
        ck = compile_kernel(trace, regs_per_thread=8)
        regions = []
        for cta in ck.ctas:
            for w in cta.warps:
                addrs = [
                    a
                    for o in w.ops
                    if o.op in (OpClass.LOAD_LOCAL, OpClass.STORE_LOCAL)
                    for a in o.addrs
                ]
                if addrs:
                    regions.append((min(addrs), max(addrs)))
        regions.sort()
        for (lo1, hi1), (lo2, _) in zip(regions, regions[1:]):
            assert hi1 < lo2

    def test_warps_sharing_a_shape_keep_their_own_data(self):
        # One register shape, but every warp has its own addresses and
        # lane count; at a spilling budget they share one compilation.
        lc = LaunchConfig(threads_per_cta=64, num_ctas=2, smem_bytes_per_cta=256)
        ctas = [
            CTATrace(
                [
                    _pressure_warp(pool_size=16, base=(2 * c + w) << 20, active=32 - 8 * w)
                    for w in range(2)
                ]
            )
            for c in range(2)
        ]
        trace = KernelTrace("shared-shape", lc, ctas)
        ck = compile_kernel(trace, regs_per_thread=8)
        assert len({id(w.shape) for cta in ck.ctas for w in cta.warps}) == 1
        stride = ck.spill_slots * SLOT_BYTES
        assert stride > 0
        pairs = [
            (w, own)
            for cta, tcta in zip(ck.ctas, trace.ctas)
            for w, own in zip(cta.warps, tcta.warps)
        ]
        for uid, (w, own) in enumerate(pairs):
            assert [(o.addrs, o.active) for o in w.ops if o.op not in LOCAL_OPS] == [
                (op.addrs, op.active) for op in own
            ]
            lo = LOCAL_BASE + uid * stride
            local = [a for o in w.ops if o.op in LOCAL_OPS for a in o.addrs]
            assert local and all(lo <= a < lo + stride for a in local)


def _spill_regs(max_live):
    return max(6, 3 * max_live // 4)


@pytest.fixture(scope="module")
def table1_runner():
    return Runner("tiny")


class TestShapeLevelCompile:
    @pytest.mark.parametrize("name", TABLE1)
    def test_shape_facts_equal_materialised_ops(self, table1_runner, name):
        nospill = table1_runner.compiled(name)
        for ck in (nospill, table1_runner.compiled(name, _spill_regs(nospill.max_live))):
            warps = [w for cta in ck.ctas for w in cta.warps]
            assert ck.total_ops == sum(len(w.ops) for w in warps)
            recount = RFTrafficCounts()
            for o in (o for w in warps for o in w.ops):
                recount.mrf_reads += len(o.mrf_reads)
                recount.mrf_writes += len(o.mrf_writes)
                recount.orf_reads += o.orf_reads
                recount.orf_writes += o.orf_writes
                recount.lrf_reads += o.lrf_reads
                recount.lrf_writes += o.lrf_writes
            assert ck.rf_traffic() == recount

    def test_summaries_build_no_per_op_records(self, monkeypatch):
        rn = Runner("tiny")
        traces = {name: rn.trace(name) for name in TABLE1}
        built, live_calls = [], []
        op_init, max_live = CompiledOp.__init__, pipeline.max_live_registers

        def counting_init(self, *args, **kwargs):
            built.append(1)
            op_init(self, *args, **kwargs)

        def counting_max_live(ops):
            live_calls.append(1)
            return max_live(ops)

        monkeypatch.setattr(CompiledOp, "__init__", counting_init)
        monkeypatch.setattr(pipeline, "max_live_registers", counting_max_live)
        for name, trace in traces.items():
            shapes = {
                tuple((op.op, op.dst, op.srcs) for op in w) for cta in trace.ctas for w in cta.warps
            }
            live_calls.clear()
            nospill = rn.summary(name)
            assert len(live_calls) == len(shapes)
            live_calls.clear()
            rn.summary(name, _spill_regs(nospill.max_live))
            assert len(live_calls) == len(shapes)
        assert not built

    def test_summaries_never_regroup_warps(self, monkeypatch):
        # Shape numbers come with the trace: compile derives a register
        # shape from each shape's first warp only, never from every warp.
        rn = Runner("tiny")
        traces = {name: rn.trace(name) for name in TABLE1}
        seen = []
        shape_of = pipeline.register_shape

        def spying_shape(ops):
            seen.append(ops)
            return shape_of(ops)

        monkeypatch.setattr(pipeline, "register_shape", spying_shape)
        for name, trace in traces.items():
            nospill = rn.summary(name)
            rn.summary(name, _spill_regs(nospill.max_live))
            firsts = {id(w) for w in trace.shape_warps}
            assert len(seen) == 2 * len(firsts), name
            assert all(id(ops) in firsts for ops in seen), name
            seen.clear()


class TestSlotLayout:
    def test_slot_stride_constant(self):
        assert SLOT_BYTES == 128  # 32 lanes x 4 bytes: one cache line

"""The lowering contract of :mod:`repro.compiler.columnar`.

Replay lowers from register shapes: each shape once per kernel, and per
warp only its memory ops, from that warp's own addresses.  No per-op
:class:`~repro.compiler.compiled.CompiledOp` record is built on the way.
Cycle identity of the result is pinned elsewhere
(``tests/sm/test_engine_equivalence.py``); these tests pin the work.
"""

from dataclasses import replace

from repro.chip.config import ChipConfig
from repro.chip.simulator import simulate_chip
from repro.compiler import compile_kernel, pipeline
from repro.compiler.columnar import ShapeLowering, _sig_table, cta_plan
from repro.core import fermi_like, partitioned_baseline, partitioned_design
from repro.experiments.runner import Runner
from repro.isa import WarpBuilder
from repro.memory.banks import make_bank_model
from repro.obs import ChipCollector, Collector
from repro.sm import SMConfig
from repro.sm.simulator import simulate
from tests.util import multi_warp_kernel, reference_loop, warp_streaming_loads


def _spilled(rn, name):
    return rn.compiled(name, max(6, 5 * rn.compiled(name).max_live // 8))


def test_simulation_never_materialises_per_op_records(monkeypatch):
    calls = []
    real = pipeline._ShapeCompilation.materialise

    def spy(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(pipeline._ShapeCompilation, "materialise", spy)
    # A fresh runner: every kernel below is lowered for the first time.
    rn = Runner("tiny")
    part = partitioned_baseline()
    chip = ChipConfig(num_sms=4, dram_bytes_per_cycle=32.0, dram_channels=2, sm=rn.config)
    simulate(rn.compiled("needle"), part, rn.config)
    col = Collector(metrics_window=500, trace=True)
    simulate(_spilled(rn, "dgemm"), part, rn.config, collector=col)
    simulate_chip(_spilled(rn, "lu"), part, chip)
    cc = ChipCollector(4, 2, metrics_window=500, trace=True)
    simulate_chip(rn.compiled("vectoradd"), part, chip, chip_collector=cc)
    assert col.warps and cc.warps
    assert calls == [], f"simulation built per-op records {len(calls)} times"


def test_each_shape_is_lowered_once_per_kernel(monkeypatch):
    built = []
    real_init = ShapeLowering.__init__

    def counting_init(self, comp, *args):
        built.append(id(comp))
        real_init(self, comp, *args)

    monkeypatch.setattr(ShapeLowering, "__init__", counting_init)
    rn = Runner("tiny")
    other_cfg = replace(rn.config, mshr_entries=4, dram_banks=8)
    for ck in (rn.compiled("bfs"), _spilled(rn, "lu")):
        warps = [w for cta in ck.ctas for w in cta.warps]
        shapes = {id(w.shape) for w in warps}
        assert len(shapes) < len(warps)
        built.clear()
        simulate(ck, partitioned_baseline(), rn.config)
        assert sorted(built) == sorted(shapes)
        # Another partition and memory config reuse the lowerings.
        simulate(ck, fermi_like(1), other_cfg)
        assert sorted(built) == sorted(shapes)


def _pressure_warp():
    b = WarpBuilder()
    pool = [b.iconst() for _ in range(8)]
    x = b.load_global([4 * t for t in range(32)], pool[0])
    for acc in pool:
        b.alu_into(acc, x)
    b.store_global([4 * t for t in range(32)], b.alu(pool[0], pool[1]))
    return b.ops


def test_warps_with_equal_addresses_share_a_program():
    same = warp_streaming_loads(4)
    moved = warp_streaming_loads(4, base=1 << 20)  # same shape, other lines
    ck = compile_kernel(multi_warp_kernel([same, same, moved], num_ctas=2))
    banks = make_bank_model(partitioned_baseline())
    cfg = SMConfig()
    progs = cta_plan(ck, banks, 0, cfg, True, 0)
    assert progs[0] is progs[1]
    assert progs[2] is not progs[0]
    assert progs[2].shape is progs[0].shape
    # Equal CTAs at an equal bank key resolve to the same programs.
    again = cta_plan(ck, banks, 0, cfg, True, 1)
    assert len(again) == len(progs)
    assert all(p is q for p, q in zip(again, progs))


def test_spill_addresses_are_per_warp():
    # Equal trace addresses, but each warp spills to its own region.
    ck = compile_kernel(multi_warp_kernel([_pressure_warp()] * 2), regs_per_thread=4)
    assert ck.spill_slots > 0
    progs = cta_plan(ck, make_bank_model(partitioned_baseline()), 0, SMConfig(), True, 0)
    assert progs[0].shape is progs[1].shape
    assert progs[0] is not progs[1]
    assert progs[0].rows != progs[1].rows


def test_kernel_caches_signatures_and_programs_only():
    """One cache per fact: a kernel keeps its signatures and programs.

    A memory row's replay kind and ``aux`` are its plan's, so programs
    holding one plan share one ``aux`` object, and no program depends
    on the DRAM transaction size.
    """
    rn = Runner("tiny")
    ck = rn.compiled("matrixmul")
    line = rn.config.cache_line_bytes
    other_cfg = replace(rn.config, mshr_entries=4, dram_transaction_bytes=64)
    for part in (partitioned_baseline(), partitioned_design(256, 128, 0)):
        for cfg in (rn.config, other_cfg):
            simulate(ck, part, cfg)
    assert set(ck._plan_cache) == {("colsig", line), ("colprog", line)}
    with reference_loop():
        expected = simulate(ck, partitioned_baseline(), other_cfg)
    assert simulate(ck, partitioned_baseline(), other_cfg) == expected

    sigs, _ = _sig_table(ck, line)
    holders: dict[tuple, int] = {}
    for (*_, cache_enabled), progs in ck._plan_cache[("colprog", line)].items():
        for (low, plans), prog in zip(sigs, progs):
            if prog is None:
                continue
            for (pc, *_), pl in zip(low.mem, plans):
                if pl.segments is None:  # shared memory: no aux
                    continue
                assert prog.rows[pc][3] is pl.replay(cache_enabled, line)[1]
                key = (id(pl), cache_enabled)
                holders[key] = holders.get(key, 0) + 1
    assert {cache_enabled for _, cache_enabled in holders} == {False, True}
    assert max(holders.values()) > 1

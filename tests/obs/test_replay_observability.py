"""Replay-path observability: the columnar loop's instrumented contract.

The replayer earned its speed by being bit-identical to the per-op
reference loop *uninstrumented*; this sweep pins the instrumented half
of the contract.  With a :class:`~repro.obs.Collector` (or
:class:`~repro.obs.ChipCollector`) attached, the replay loop must
reproduce the reference loop's observability byte for byte: the same
per-cause stall attribution, the same interval samples, the same trace
events -- and observability must stay neutral (collectors on/off change
no simulated number).  The conservation invariant
(``issue + stalls == warps x cycles``, exact ``fsum`` equality) is
re-checked on every run.  The ``@spill`` arms compile a kernel at 5/8
of its peak liveness, so instrumented runs see fills and spills.
"""

import json
from dataclasses import replace

import pytest

from repro.chip.config import ChipConfig
from repro.chip.simulator import simulate_chip
from repro.core import partitioned_baseline
from repro.experiments.runner import Runner
from repro.obs import ChipCollector, Collector
from repro.sm.simulator import simulate
from tests.util import reference_loop

KERNELS = ("vectoradd", "matrixmul", "needle", "bfs")
SPILL_KERNELS = ("dgemm@spill", "lu@spill")
PARTITIONS = ("baseline", "unified384")
MSHRS = (0, 4)
#: Trace bound no arm overflows.  The truncating arms (``-trunc<N>``
#: ids) bound the buffer far below a run's event count, so they pin
#: which events a full buffer keeps and its ``droppedEvents`` count.
ROOMY = 500_000
TRUNC_KERNELS = ("needle", "bfs", "lu@spill")


@pytest.fixture(scope="module")
def runner():
    return Runner("tiny")


def _compiled(runner, kernel):
    """The kernel at its no-spill budget, or at 5/8 of it for ``@spill``."""
    name, _, arm = kernel.partition("@")
    ck = runner.compiled(name)
    if arm == "spill":
        ck = runner.compiled(name, max(6, 5 * ck.max_live // 8))
    return ck


def _partition(runner, kernel, name):
    if name == "baseline":
        return partitioned_baseline()
    try:
        return runner.allocation(kernel.partition("@")[0]).partition
    except Exception:
        pytest.skip(f"{kernel} has no unified-384 allocation at this scale")


def _config(runner, mshr):
    cfg = runner.config
    if mshr:
        # Banked open-page timing alongside the MSHRs -- the replayer's
        # hardest instrumented arm (bank/MSHR stall splitting).
        return replace(
            cfg, mshr_entries=mshr, dram_banks=8, dram_row_hit_latency=160
        )
    return replace(cfg, mshr_entries=0)


def _dumps(payload):
    return json.dumps(payload, sort_keys=True)


def _arm(*values, bound):
    """One parameter set; a truncating trace ``bound`` tags its id."""
    ident = "-".join(str(v) for v in values)
    if bound < ROOMY:
        ident += f"-trunc{bound}"
    return pytest.param(*values, bound, id=ident)


# -- per-cause attribution equality, SM scope -----------------------------
@pytest.mark.parametrize(
    "kernel,part_name,mshr,max_events",
    [
        _arm(kernel, part_name, mshr, bound=ROOMY)
        for kernel in KERNELS + SPILL_KERNELS
        for part_name in PARTITIONS
        for mshr in MSHRS
    ]
    + [
        _arm(kernel, part_name, mshr, bound=300)
        for kernel in TRUNC_KERNELS
        for part_name in PARTITIONS
        for mshr in MSHRS
    ],
)
def test_instrumented_engines_identical(runner, kernel, part_name, mshr, max_events):
    ck = _compiled(runner, kernel)
    part = _partition(runner, kernel, part_name)
    cfg = _config(runner, mshr)
    obs_e = Collector(metrics_window=500, trace=True, max_trace_events=max_events)
    obs_c = Collector(metrics_window=500, trace=True, max_trace_events=max_events)
    with reference_loop():
        event = simulate(ck, part, cfg, collector=obs_e)
    columnar = simulate(ck, part, cfg, collector=obs_c)
    assert columnar == event
    # Per cause, not just totals: every cause the reference loop charged,
    # the replayer must charge identically (and vice versa).
    assert obs_c.stall_totals() == obs_e.stall_totals()
    assert obs_c.issue_cycles == obs_e.issue_cycles
    # Conservation holds exactly on both sides.
    assert obs_e.conservation_errors() == []
    assert obs_c.conservation_errors() == []
    # Full payload byte-identity: stall report, interval metrics, trace.
    assert _dumps(obs_c.report()) == _dumps(obs_e.report())
    assert _dumps(obs_c.metrics_payload()) == _dumps(obs_e.metrics_payload())
    trace = obs_c.trace_payload()
    assert _dumps(trace) == _dumps(obs_e.trace_payload())
    assert (trace["otherData"]["droppedEvents"] > 0) == (max_events < ROOMY)


# -- per-cause attribution equality, chip scope ---------------------------
@pytest.mark.parametrize(
    "kernel,mshr,part_dram,max_events",
    [
        _arm(kernel, mshr, part_dram, bound=ROOMY)
        for kernel in ("vectoradd", "needle", "lu@spill")
        for mshr in MSHRS
        for part_dram in (False, True)
    ]
    + [
        _arm(kernel, mshr, part_dram, bound=2_000)
        for kernel in TRUNC_KERNELS
        for mshr in MSHRS
        for part_dram in (False, True)
    ],
)
def test_instrumented_chip_engines_identical(
    runner, kernel, mshr, part_dram, max_events
):
    """Shared or private DRAM, 4 SMs, DRAM-window and CTA taps live."""
    ck = _compiled(runner, kernel)
    part = partitioned_baseline()
    nch = 4 if part_dram else 2
    chip = ChipConfig(
        num_sms=4, dram_bytes_per_cycle=32.0, dram_channels=2,
        dram_partitioned=part_dram, sm=_config(runner, mshr),
    )
    mk = lambda: ChipCollector(  # noqa: E731
        4, nch, metrics_window=500, trace=True, max_trace_events=max_events,
        dram_partitioned=part_dram,
    )
    obs_e, obs_c = mk(), mk()
    with reference_loop():
        event = simulate_chip(ck, part, chip, chip_collector=obs_e)
    columnar = simulate_chip(ck, part, chip, chip_collector=obs_c)
    assert columnar.cycles == event.cycles
    assert columnar.per_sm == event.per_sm
    assert columnar.ctas_per_sm == event.ctas_per_sm
    assert columnar.dram_channel_bytes == event.dram_channel_bytes
    assert columnar.notes == event.notes
    assert obs_c.stall_totals() == obs_e.stall_totals()
    assert obs_e.conservation_errors() == []
    assert obs_c.conservation_errors() == []
    assert _dumps(obs_c.report()) == _dumps(obs_e.report())
    assert _dumps(obs_c.chipmetrics_payload()) == _dumps(
        obs_e.chipmetrics_payload()
    )
    trace = obs_c.trace_payload()
    assert _dumps(trace) == _dumps(obs_e.trace_payload())
    assert (trace["otherData"]["droppedEvents"] > 0) == (max_events < ROOMY)


@pytest.mark.parametrize("part_dram", (False, True))
@pytest.mark.parametrize("mshr", MSHRS)
@pytest.mark.parametrize("kernel", ("vectoradd", "lu@spill"))
def test_mixed_collectors_match_reference(runner, kernel, mshr, part_dram):
    """Collectors on SMs 0 and 2 only: the observed SMs' payloads are
    the reference loop's, the unobserved SMs report no stalls, and no SM
    simulates differently from a run with no collector at all."""
    ck = _compiled(runner, kernel)
    part = partitioned_baseline()
    chip = ChipConfig(
        num_sms=4, dram_bytes_per_cycle=32.0, dram_channels=2,
        dram_partitioned=part_dram, sm=_config(runner, mshr),
    )
    mk = lambda: [  # noqa: E731
        Collector(metrics_window=500, trace=True, max_trace_events=200_000),
        None,
        Collector(metrics_window=500, trace=True, max_trace_events=200_000),
        None,
    ]
    obs_e, obs_c = mk(), mk()
    with reference_loop():
        event = simulate_chip(ck, part, chip, collectors=obs_e)
    columnar = simulate_chip(ck, part, chip, collectors=obs_c)
    bare = simulate_chip(ck, part, chip)
    assert columnar.cycles == event.cycles == bare.cycles
    assert columnar.per_sm == event.per_sm
    assert columnar.ctas_per_sm == event.ctas_per_sm
    assert columnar.dram_channel_bytes == event.dram_channel_bytes
    assert columnar.notes == event.notes
    for c, e in zip(obs_c, obs_e):
        if c is None:
            continue
        assert c.warps
        assert c.conservation_errors() == []
        assert _dumps(c.report()) == _dumps(e.report())
        assert _dumps(c.metrics_payload()) == _dumps(e.metrics_payload())
        assert _dumps(c.trace_payload()) == _dumps(e.trace_payload())
    assert [r.stall_cycles == {} for r in columnar.per_sm] == [
        False, True, False, True
    ]
    assert [replace(r, stall_cycles={}) for r in columnar.per_sm] == list(
        bare.per_sm
    )


# -- neutrality: collectors on/off on the replay loop ---------------------
@pytest.mark.parametrize("mshr", MSHRS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_columnar_observability_is_neutral(runner, kernel, mshr):
    ck = runner.compiled(kernel)
    part = partitioned_baseline()
    cfg = _config(runner, mshr)
    bare = simulate(ck, part, cfg)
    col = Collector(metrics_window=500, trace=True)
    instrumented = simulate(ck, part, cfg, collector=col)
    # A live collector fills result.stall_cycles (per contract); every
    # simulated number must be untouched by instrumentation.
    assert replace(instrumented, stall_cycles={}) == bare
    assert set(instrumented.stall_cycles)  # and the attribution is there
    assert col.warps  # the collector really observed the run


@pytest.mark.parametrize("mshr", MSHRS)
def test_columnar_chip_observability_is_neutral(runner, mshr):
    ck = runner.compiled("needle")
    part = partitioned_baseline()
    cfg = _config(runner, mshr)
    chip = ChipConfig(
        num_sms=4, dram_bytes_per_cycle=32.0, dram_channels=2, sm=cfg
    )
    bare = simulate_chip(ck, part, chip)
    cc = ChipCollector(4, 2, metrics_window=500, trace=True)
    instrumented = simulate_chip(ck, part, chip, chip_collector=cc)
    assert instrumented.cycles == bare.cycles
    # Per-SM results match modulo the stall attribution the collector
    # deliberately fills in.
    assert [replace(r, stall_cycles={}) for r in instrumented.per_sm] == list(
        bare.per_sm
    )
    assert instrumented.ctas_per_sm == bare.ctas_per_sm
    assert instrumented.dram_channel_bytes == bare.dram_channel_bytes
    assert instrumented.notes == bare.notes
    assert cc.warps


# -- the replay path is really taken (no silent fallback) -----------------
def test_instrumented_run_uses_replay_path(monkeypatch):
    """A kernel's first simulation, plain or instrumented, replays.

    Each one enters ``run_columnar`` exactly once, on one SM or many,
    on shared or private DRAM, and with a collector on only some SMs;
    the module keeps no second frame for instrumented runs.
    """
    import repro.sm.replay as replay_mod

    for gone in ("_run_inlined", "make_warp_runner_obs"):
        assert not hasattr(replay_mod, gone), gone
    calls = []
    real = replay_mod.run_columnar

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(replay_mod, "run_columnar", spy)
    # A fresh runner compiles kernels no other test has simulated.
    fresh = Runner("tiny")
    part = partitioned_baseline()
    simulate(fresh.compiled("vectoradd"), part, fresh.config)
    assert calls == [1], "a kernel's first plain run skipped the replay loop"
    col = Collector(metrics_window=500, trace=True)
    simulate(fresh.compiled("needle"), part, fresh.config, collector=col)
    assert calls == [1, 1], (
        "a kernel's first instrumented run skipped the replay loop"
    )
    assert col.warps and col.conservation_errors() == []

    for num_sms in (1, 2, 4):
        for part_dram in (False, True):
            fresh = Runner("tiny")
            chip = ChipConfig(
                num_sms=num_sms, dram_bytes_per_cycle=32.0, dram_channels=2,
                dram_partitioned=part_dram, sm=fresh.config,
            )
            calls.clear()
            simulate_chip(fresh.compiled("vectoradd"), part, chip)
            assert calls == [1], (num_sms, part_dram)
            mixed = [Collector()] + [None] * (num_sms - 1)
            simulate_chip(fresh.compiled("needle"), part, chip, collectors=mixed)
            assert calls == [1, 1], (num_sms, part_dram)
            assert mixed[0].warps and mixed[0].conservation_errors() == []

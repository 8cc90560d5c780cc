"""Cross-run diff engine: zero-delta self-compare, conservation
re-checks, tiered alignment, CTA slowdowns, trace pivoting."""

import pytest

from repro.compiler import compile_kernel
from repro.core import partitioned_baseline
from repro.experiments.runner import Runner
from repro.kernels import get_benchmark
from repro.obs import Collector
from repro.obs.compare import (
    DIFF_SCHEMA,
    TRACE_PIVOT_SCHEMA,
    build_diff,
    conservation_violated,
    cta_slowdowns,
    diff_results,
    format_diff,
    payload_kind,
    pivot_traces,
    recheck_conservation,
    validate_diff,
)
from repro.obs.trace import validate_trace
from repro.sm import SMConfig
from repro.sm.simulator import simulate

BENCH = ("vectoradd", "scalarprod")


@pytest.fixture(scope="module")
def profile_payload():
    col = Collector()
    ck = compile_kernel(get_benchmark("vectoradd").build("tiny"))
    simulate(ck, partitioned_baseline(), collector=col)
    return col.report()


@pytest.fixture(scope="module")
def metrics_payloads():
    """Two run-metrics payloads: blocking vs non-blocking memory."""
    out = []
    for config in (SMConfig(), SMConfig(mshr_entries=4)):
        rn = Runner("tiny", config)
        for name in BENCH:
            rn.baseline(name)
        out.append(rn.sim_metrics())
    return out


class TestDiffResults:
    def test_kernel_mismatch_rejected(self):
        rn = Runner("tiny")
        a = rn.baseline("vectoradd")
        b = rn.baseline("scalarprod")
        with pytest.raises(ValueError, match="different kernels"):
            diff_results(a, b)

    def test_self_compare_is_exactly_zero(self):
        r = Runner("tiny").baseline("vectoradd")
        d = diff_results(r, r)
        assert d["cycles"]["delta"] == 0.0
        assert d["cycles"]["speedup"] == 1.0
        assert d["instructions"]["delta"] == 0
        assert d["dram_bytes"]["delta"] == 0

    def test_speedup_matches_speedup_over(self):
        rn = Runner("tiny")
        base = rn.baseline("vectoradd")
        uni, _ = rn.unified("vectoradd", total_kb=384)
        d = diff_results(base, uni)
        assert d["cycles"]["speedup"] == uni.speedup_over(base)
        assert d["cycles"]["delta"] == uni.cycles - base.cycles


class TestConservationRecheck:
    def test_real_profile_passes_exactly(self, profile_payload):
        check = recheck_conservation(profile_payload)
        assert check == {"checked": 1, "ok": True, "violations": []}

    def test_tampered_profile_fails(self, profile_payload):
        bad = dict(profile_payload)
        bad["issue_cycles"] = profile_payload["issue_cycles"] + 1.0
        check = recheck_conservation(bad)
        assert not check["ok"]
        assert "attributed" in check["violations"][0]

    def test_run_metrics_have_nothing_to_check(self, metrics_payloads):
        check = recheck_conservation(metrics_payloads[0])
        assert check["checked"] == 0
        assert check["ok"]


class TestProfileDiff:
    def test_self_compare_zero_and_valid(self, profile_payload):
        d = build_diff(profile_payload, profile_payload,
                       label_a="x", label_b="y")
        assert d["schema"] == DIFF_SCHEMA
        assert d["kind"] == "profile"
        assert not validate_diff(d)
        assert d["cycles"]["delta"] == 0.0
        assert d["conservation"]["a"]["ok"]
        assert d["conservation"]["b"]["ok"]
        assert all(row["delta"] == 0.0 for row in d["attribution"])
        assert not conservation_violated(d)
        text = format_diff(d)
        assert "speedup 1.000x" in text
        assert "re-verified exactly" in text

    def test_tampered_side_flags_violation(self, profile_payload):
        bad = dict(profile_payload)
        bad["issue_cycles"] = profile_payload["issue_cycles"] + 1.0
        d = build_diff(profile_payload, bad)
        assert not d["conservation"]["a"]["violations"]
        assert d["conservation"]["b"]["violations"]
        assert conservation_violated(d)
        assert "VIOLATED" in format_diff(d)


class TestRunMetricsDiff:
    def test_self_compare_aligns_everything_at_strictest_tier(
        self, metrics_payloads
    ):
        m = metrics_payloads[0]
        d = build_diff(m, m)
        sims = d["simulations"]
        assert sims["matched"] == len(m["simulations"])
        assert sims["alignment"] == "kernel+regs+threads+partition+config"
        assert not sims["only_a"] and not sims["only_b"]
        assert d["cycles"]["delta"] == 0.0
        assert all(r["cycles"]["delta"] == 0.0 for r in sims["per_sim"])

    def test_cross_config_falls_back_a_tier_and_attributes(
        self, metrics_payloads
    ):
        blocking, nonblocking = metrics_payloads
        d = build_diff(blocking, nonblocking,
                       label_a="blocking", label_b="mshr4")
        sims = d["simulations"]
        # Different SMConfigs: the config-digest tier matches nothing,
        # the partition tier pairs every simulation.
        assert sims["alignment"] == "kernel+regs+threads+partition"
        assert sims["matched"] == len(blocking["simulations"])
        assert not validate_diff(d)
        assert "matched" in format_diff(d)

    def test_disjoint_runs_report_only_sides(self, metrics_payloads):
        m = metrics_payloads[0]
        other = Runner("tiny")
        other.baseline("matrixmul")
        d = build_diff(m, other.sim_metrics())
        sims = d["simulations"]
        assert sims["matched"] == 0
        assert len(sims["only_a"]) == len(BENCH)
        assert len(sims["only_b"]) == 1


class TestKindDetection:
    def test_known_kinds(self, profile_payload, metrics_payloads):
        assert payload_kind(profile_payload) == "profile"
        assert payload_kind(metrics_payloads[0]) == "run_metrics"
        assert payload_kind({"traceEvents": []}) == "trace"
        assert payload_kind({"chip_version": 1}) == "chip_result"

    def test_unknown_payload_rejected(self):
        with pytest.raises(ValueError, match="unrecognised"):
            payload_kind({"schema": "something/9"})

    def test_mixed_kinds_rejected(self, profile_payload, metrics_payloads):
        with pytest.raises(ValueError, match="cannot diff"):
            build_diff(profile_payload, metrics_payloads[0])


def _cta_trace(durations: dict[str, float]) -> dict:
    events = [
        {"ph": "X", "cat": "cta", "name": name, "pid": 1, "tid": 0,
         "ts": 0.0, "dur": dur}
        for name, dur in durations.items()
    ]
    return {"traceEvents": events, "otherData": {"schema": "repro.obs.trace/2",
                                                 "droppedEvents": 0}}


class TestCtaSlowdowns:
    def test_matches_by_name_and_ranks_by_delta(self):
        a = _cta_trace({"cta0": 100.0, "cta1": 200.0, "cta2": 50.0})
        b = _cta_trace({"cta0": 150.0, "cta1": 200.0, "cta3": 10.0})
        out = cta_slowdowns(a, b)
        assert out["matched"] == 2
        assert out["only_a"] == ["cta2"]
        assert out["only_b"] == ["cta3"]
        top = out["slowdowns"][0]
        assert top["cta"] == "cta0"
        assert top["slowdown"] == 1.5
        assert top["cycles"]["delta"] == 50.0

    def test_trace_kind_diff_embeds_slowdowns(self):
        a = _cta_trace({"cta0": 100.0})
        b = _cta_trace({"cta0": 120.0})
        d = build_diff(a, b)
        assert d["kind"] == "trace"
        assert d["cycles"]["delta"] == 20.0  # makespan delta
        assert d["ctas"]["slowdowns"][0]["slowdown"] == 1.2
        assert not validate_diff(d)
        assert "slowdowns" in format_diff(d) or "1.200x" in format_diff(d)


class TestPivotTraces:
    def test_offsets_pids_and_prefixes_labels(self):
        a = {"traceEvents": [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": "warps"}},
            {"ph": "X", "pid": 0, "tid": 0, "name": "w0", "cat": "warp",
             "ts": 0.0, "dur": 5.0},
        ], "otherData": {"schema": "repro.obs.trace/1", "droppedEvents": 0}}
        pivot = pivot_traces(a, a, label_a="old", label_b="new")
        assert pivot["otherData"]["schema"] == TRACE_PIVOT_SCHEMA
        pids = {e["pid"] for e in pivot["traceEvents"]}
        assert pids == {0, 1}
        names = {e["args"]["name"] for e in pivot["traceEvents"]
                 if e.get("name") == "process_name"}
        assert names == {"old: warps", "new: warps"}
        assert not validate_trace(pivot)


class TestValidateDiff:
    def test_broken_delta_arithmetic_caught(self, profile_payload):
        d = build_diff(profile_payload, profile_payload)
        d["cycles"]["delta"] = 123.0
        problems = validate_diff(d)
        assert any("delta" in p for p in problems)

    def test_wrong_schema_and_kind_caught(self):
        problems = validate_diff({"schema": "nope", "kind": "nope"})
        assert any("schema" in p for p in problems)
        assert any("kind" in p for p in problems)

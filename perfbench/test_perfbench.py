"""Tests of the benchmark itself.

Run from the root of a checkout::

    python -m pytest perfbench

Workloads run here at ``tiny`` scale, where each pass takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as driver  # noqa: E402
from spantree import NullRecorder, Span, SpanRecorder, self_times  # noqa: E402
from workloads import BALANCED_CONTROLS, SWEEP_KERNELS, WORKLOADS, Pass  # noqa: E402

from repro.core.allocator import AllocationError  # noqa: E402
from repro.kernels import BENEFIT_SET, Category, get_benchmark  # noqa: E402
from repro.kernels.irregular import all_irregular  # noqa: E402

REDUCED = "tiny"
SEED = 2

DIGESTS_SCRIPT = f"""
import json, sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(HERE)!r}]
from spantree import NullRecorder
from workloads import WORKLOADS, Pass
out = {{}}
for name, cls in WORKLOADS.items():
    wl = cls({SEED}, scale={REDUCED!r})
    p = Pass(NullRecorder())
    wl.run_pass(wl.build_inputs(), p)
    out[name] = p.digests
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def reduced():
    """name -> (workload, inputs, untraced pass, traced pass)."""
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(SEED, scale=REDUCED)
        inputs = wl.build_inputs()
        t = time.perf_counter()
        plain = Pass(NullRecorder())
        wl.run_pass(inputs, plain)
        plain.wall_s = time.perf_counter() - t
        spanned = Pass(SpanRecorder())
        with spanned.tracer.span("pass", "perfbench") as root:
            wl.run_pass(inputs, spanned)
        spanned.wall_s = root.end - root.start
        out[name] = (wl, inputs, plain, spanned)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_selection_follows_the_seed(name):
    cls = WORKLOADS[name]
    assert cls(3).selection() == cls(3).selection()
    assert cls(3).selection() != cls(4).selection()


def test_each_workload_completes_in_seconds_at_reduced_size(reduced):
    for name, (_, _, plain, _) in reduced.items():
        assert not plain.errors, (name, plain.errors)
        assert plain.digests, name
        assert plain.wall_s < 30, (name, plain.wall_s)


def test_passes_reproduce_each_other(reduced):
    for name, (_, _, plain, spanned) in reduced.items():
        assert plain.digests == spanned.digests, name
        assert plain.counts == spanned.counts, name


def test_digests_do_not_depend_on_pythonhashseed(reduced):
    runs = [
        subprocess.run(
            [sys.executable, "-c", DIGESTS_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": hashseed},
            capture_output=True,
            text=True,
            timeout=600,
            check=True,
        )
        for hashseed in ("0", "4242")
    ]
    first, second = (json.loads(r.stdout) for r in runs)
    assert first == second
    assert first == {name: r[2].digests for name, r in reduced.items()}


def test_perturbed_digest_fails_the_operation(reduced):
    plain = reduced["capacity-sweep"][2]
    committed = dict(plain.digests)
    assert driver.check(committed, [plain]) == (len(committed), 0)
    committed[min(committed)] = "0" * 20
    assert driver.check(committed, [plain, plain]) == (2 * len(committed), 2)
    del committed[max(committed)]
    assert driver.check(committed, [plain]) == (len(plain.digests), 2)


def test_exceptions_fail_and_refusals_pass():
    p = Pass(NullRecorder())
    with p.op("boom"):
        raise RuntimeError("unexpected")
    with p.op("too-big"):
        raise AllocationError("one CTA does not fit")
    assert set(p.errors) == {"boom"}
    assert p.refused == 1
    assert driver.check(None, [p]) == (2, 1)


def test_profiled_chip_runs_conserve_and_match_their_twins(reduced):
    wl, _, plain, _ = reduced["chip-profile"]
    profiled = [op for op in plain.digests if op.endswith("/profiled")]
    assert len(profiled) == sum(len(shapes) for shapes in wl.shapes.values())
    assert not plain.errors
    assert plain.counts["trace_events"] > 0
    assert plain.counts["conservation_errors"] == 0
    assert plain.counts["profiled_insts"] == plain.counts["chip_insts"]


@pytest.mark.parametrize("seed", range(11))
def test_chip_shapes_of_a_kernel_differ(seed):
    for shapes in WORKLOADS["chip-profile"](seed).shapes.values():
        assert len({json.dumps(s, sort_keys=True) for s in shapes}) == len(shapes)


def test_recorder_links_spans_to_their_operation():
    rec = SpanRecorder()
    with rec.span("pass", "perfbench"):
        with rec.span("k/op", "perfbench", op=True):
            with rec.span("compile", "repro.compiler"):
                pass
    p, o, c = rec.spans
    assert (p.parent, o.parent, c.parent) == (None, p.id, o.id)
    assert (p.op, o.op, c.op) == (None, o.id, o.id)
    assert sum(self_times(rec.spans).values()) == pytest.approx(p.end - p.start)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "pass", "perfbench", 0.0, 10.0, None, None),
        Span(1, "op", "perfbench", 1.0, 9.0, 0, 1),
        Span(2, "compile", "repro.compiler", 2.0, 5.0, 1, 1),
        # Overlaps its sibling by 1 s, which is covered only once.
        Span(3, "simulate", "repro.sm", 4.0, 8.0, 1, 1),
        # Ends past its parent: only [8.5, 9.0] is covered.
        Span(4, "late", "repro.sm", 8.5, 12.0, 1, 1),
    ]
    st = self_times(spans)
    # pass: 10 - 8 (op); op: 8 - |[2, 8] + [8.5, 9]| = 8 - 6.5
    assert st["perfbench"] == pytest.approx(2.0 + 1.5)
    assert st["repro.compiler"] == pytest.approx(3.0)
    assert st["repro.sm"] == pytest.approx(4.0 + 3.5)


def test_printed_metrics_are_those_of_benchmark_json(reduced):
    units = driver.metric_units()
    workloads = json.loads(driver.SPEC_PATH.read_text())["workloads"]
    for name in (w["name"] for w in workloads):
        wl, inputs, plain, spanned = reduced[name]
        e2e = driver.end_to_end([plain], 1.5)
        assert e2e.keys() == units["end_to_end"].keys(), name
        assert all(v > 0 for v in e2e.values()), name
        m = driver.per_layer(wl, inputs, [plain], [spanned], {"import_s": 0.5, "build_s": 1.0})
        assert m.keys() == units["per_layer"].keys(), name
        assert m["compiler.ops"] > 0, name
        traced = sum(v for k, v in m.items() if k.startswith("self."))
        assert traced == pytest.approx(spanned.wall_s), name


def test_table1_compile_includes_the_irregular_kernels(reduced):
    wl, inputs, plain, _ = reduced["table1-compile"]
    assert set(inputs.irregular) == {w.name for w in all_irregular()}
    assert {f"{k}/nospill" for k in inputs.irregular} <= plain.digests.keys()
    assert len(wl.traces(inputs)) == len(wl.kernels) + len(inputs.irregular)


def test_sweep_kernels_are_benefit_kernels_with_a_balanced_control():
    assert set(SWEEP_KERNELS) <= set(BENEFIT_SET)
    assert len({get_benchmark(k).category for k in SWEEP_KERNELS}) == len(SWEEP_KERNELS)
    for k in BALANCED_CONTROLS:
        assert get_benchmark(k).category is Category.BALANCED
        assert k not in BENEFIT_SET


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "capacity-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode != 0
    assert r.stdout == ""

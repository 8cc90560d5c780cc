"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload capacity-sweep --seed 1 --seconds 25 --trace 0

One client, one process, one thread.  Set-up (interpreter start,
``import repro``, the seeded selection and trace building) is measured
first; the selection and trace building are repeated and their median
is reported.  The timed phase then runs passes over the workload's
operations until the next pass would end past ``--seconds`` (at least
one pass).  ``--trace 1`` alternates untraced and traced passes and
reports per-layer metrics from the traced ones; the difference between
the two is the tracing overhead.

Human-readable diagnostics go to standard error; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import time

_T_TOP = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from digests import load_committed, mismatches  # noqa: E402
from spantree import (  # noqa: E402
    BENCH_LAYER,
    NullRecorder,
    SpanRecorder,
    self_times,
    total_by_name,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
#: Set-ups per run; setup_s reports their median.
SETUP_REPEATS = 5

SPEC_PATH = ROOT / "BENCHMARK.json"


def metric_units() -> dict[str, dict[str, str]]:
    """``{"end_to_end" | "per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads(SPEC_PATH.read_text())
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def since_process_start() -> float:
    """Seconds since this process started (10 ms resolution; 0.0 if unknown)."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return max(0.0, now - started)


def steal_ticks() -> int | None:
    try:
        return int(Path("/proc/stat").read_text().split("\n", 1)[0].split()[8])
    except (OSError, ValueError, IndexError):
        return None


def tree_sha() -> dict:
    """Identify the measured tree: git HEAD when present, and a hash of src/."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    out = {"src_sha256": h.hexdigest()[:16], "git_head": None}
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        out["git_head"] = ref
    except OSError:
        pass
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Run one perfbench workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_passes(wl, inputs, seconds: float, traced: bool):
    """Timed phase: returns (untraced passes, traced passes)."""
    from workloads import Pass

    plain, spanned = [], []
    start = time.perf_counter()
    while True:
        trace_this = traced and len(plain) > len(spanned)
        p = Pass(SpanRecorder() if trace_this else NullRecorder())
        # A Runner refers to itself (its journal host), so the previous
        # pass's runners and compiled kernels wait for the cycle collector.
        # Collecting here starts every pass from the same heap.
        gc.collect()
        t = time.perf_counter()
        with p.tracer.span("pass", BENCH_LAYER):
            wl.run_pass(inputs, p)
        p.wall_s = time.perf_counter() - t
        (spanned if trace_this else plain).append(p)
        walls = [q.wall_s for q in plain + spanned]
        done = time.perf_counter() - start + statistics.median(walls) > seconds
        if done and (not traced or spanned):
            return plain, spanned


def check(committed: dict[str, str] | None, passes) -> tuple[int, int]:
    """Attempted and failed operations over all passes.

    Every pass must reproduce the committed digests of the seed when it
    has them, else the first pass's.  An unexpected exception, a digest
    mismatch and a missing operation each fail that operation.
    """
    reference = committed if committed is not None else passes[0].digests
    log(
        f"checking {len(reference)} operations per pass against "
        + ("the committed digests" if committed is not None else "the first pass")
    )
    attempted = failed = 0
    for i, p in enumerate(passes):
        bad = mismatches(reference, p.digests) | p.errors.keys()
        attempted += len(reference.keys() | p.digests.keys())
        failed += len(bad)
        for op in sorted(bad)[:5]:
            log(f"pass {i}: FAILED {op}")
            if op in p.errors:
                print(p.errors[op], file=sys.stderr)
    return attempted, failed


def end_to_end(plain, setup_s: float) -> dict[str, float]:
    """End-to-end metrics from the untraced passes."""
    return {
        "wall_s": statistics.median(p.wall_s for p in plain),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "compile_ops_per_s": statistics.median(
            p.counts["compile_ops"] / p.wall_s for p in plain
        ),
    }


def per_layer(wl, inputs, plain, spanned, setup: dict) -> dict[str, float]:
    """Per-layer metrics: times from traced passes, counts from the first."""
    from workloads import LAYERS, shape_share, warp_ops

    from repro.obs import STALL_CAUSES

    names = [total_by_name(p.tracer.spans) for p in spanned]
    selfs = [self_times(p.tracer.spans) for p in spanned]

    def span_s(name):
        return statistics.median(n.get(name, 0.0) for n in names)

    c = spanned[0].counts
    traces = wl.traces(inputs)
    sim_s = span_s("simulate.first") + span_s("simulate.warm")
    plain_wall = statistics.median(p.wall_s for p in plain)
    m = {
        "setup.import_s": setup["import_s"],
        "kernels.build_s": setup["build_s"],
        "kernels.warp_ops": warp_ops(traces),
        "compiler.compile_s": span_s("compile"),
        "compiler.ops": c["compile_ops"],
        "compiler.spill_ops": c["spill_ops"],
        "compiler.shape_share": shape_share(traces),
        "compiler.host_us_per_op": 1e6 * span_s("compile") / c["compile_ops"],
        "core.allocate_s": span_s("allocate"),
        "core.refused": spanned[0].refused,
        "sm.first_s": span_s("simulate.first"),
        "sm.warm_s": span_s("simulate.warm"),
        "sm.sims": c["sims"],
        "sm.warp_insts": c["sim_insts"],
        "sm.host_us_per_inst": 1e6 * sim_s / c["sim_insts"] if c["sim_insts"] else 0.0,
        "sim_inst_per_s": (
            (c["sim_insts"] + c["chip_insts"] + c["profiled_insts"]) / plain_wall
        ),
        "chip.plain_s": span_s("chip.plain"),
        "chip.sims": c["chip_sims"],
        "chip.host_us_per_inst": (
            1e6 * span_s("chip.plain") / c["chip_insts"] if c["chip_insts"] else 0.0
        ),
        "obs.overhead_s": span_s("chip.profiled") - span_s("chip.plain"),
        "obs.payload_s": span_s("obs.payload"),
        "obs.trace_events": c["trace_events"],
        "obs.conservation_errors": c["conservation_errors"],
        "energy.evaluate_s": span_s("price"),
        "memory.cache_hit_rate": (
            c["cache_hits"] / c["cache_accesses"] if c["cache_accesses"] else 0.0
        ),
        "memory.bank_conflict_cycles": c["bank_conflict_cycles"],
        "memory.dram_bytes": c["dram_bytes"],
        "memory.mshr_merges": c["mshr_merges"],
        "memory.dram_row_hit_rate": (
            c["row_hits"] / (c["row_hits"] + c["row_misses"])
            if c["row_hits"] + c["row_misses"]
            else 0.0
        ),
        "sm.sim_cycles": c["sim_cycles"],
        "paper_speedup_err": (
            statistics.fmean(spanned[0].paper_errors) if spanned[0].paper_errors else 0.0
        ),
        "trace.overhead_s": statistics.median(p.wall_s for p in spanned) - plain_wall,
        "trace.spans": len(spanned[0].tracer.spans),
    }
    for cause in STALL_CAUSES:
        m[f"obs.stall.{cause}"] = c[f"stall.{cause}"]
    for layer in LAYERS:
        m[f"self.{layer}"] = statistics.median(s.get(layer, 0.0) for s in selfs)
    return m


def print_self_table(m: dict, wall: float) -> None:
    rows = [(k[len("self."):], v) for k, v in m.items() if k.startswith("self.")]
    traced = sum(s for _, s in rows)
    print(f"{'layer':16s} {'self s':>9s} {'share':>7s}", file=sys.stderr)
    for layer, s in rows:
        share = s / traced if traced else 0.0
        print(f"{layer:16s} {s:9.3f} {share:7.1%}", file=sys.stderr)
    print(
        f"{'traced pass':16s} {traced:9.3f}   tracing overhead "
        f"{m['trace.overhead_s']:+.3f} s vs untraced {wall:.3f} s",
        file=sys.stderr,
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no repro package under {SRC}; run from the root of a repository checkout")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    import_s = since_process_start() or (time.perf_counter() - _T_TOP)
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        return 2
    load0, steal0 = os.getloadavg(), steal_ticks()

    build_s = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous set-up's traces first
        t = time.perf_counter()
        wl = WORKLOADS[args.workload](args.seed)
        inputs = wl.build_inputs()
        build_s.append(time.perf_counter() - t)
    setup = {"import_s": import_s, "build_s": statistics.median(build_s)}
    setup_s = setup["import_s"] + setup["build_s"]

    plain, spanned = run_passes(wl, inputs, args.seconds, bool(args.trace))
    committed = load_committed().get(args.workload, {}).get(str(args.seed))
    attempted, failed = check(committed, plain + spanned)

    steal1 = steal_ticks()
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "tree": tree_sha(),
        "loadavg_start": load0,
        "loadavg_end": os.getloadavg(),
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "setup_builds_s": build_s,
        "pass_walls_s": [p.wall_s for p in plain],
        "traced_pass_walls_s": [p.wall_s for p in spanned],
        "refused_per_pass": plain[0].refused,
        "selection": wl.selection(),
    }
    print(json.dumps({"diagnostics": diagnostics}), file=sys.stderr)

    if args.trace:
        values = per_layer(wl, inputs, plain, spanned, setup)
        units = metric_units()["per_layer"]
        print_self_table(values, statistics.median(p.wall_s for p in plain))
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps([p.tracer.to_json() for p in spanned]))
        log(f"wrote {sum(len(p.tracer.spans) for p in spanned)} spans to {out}")
    else:
        values = end_to_end(plain, setup_s)
        units = metric_units()["end_to_end"]
    if values.keys() != units.keys():
        log(f"metrics differ from {SPEC_PATH.name}: {sorted(values.keys() ^ units.keys())}")
        return 3
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    The benchmark suite with Table 1 metadata.
``run BENCH``
    Simulate one benchmark under a design (baseline / fermi / unified)
    and print timing, traffic, and energy against the baseline.
``chip BENCH``
    Simulate one benchmark across N SMs sharing arbitrated DRAM
    (``--sms``, ``--total-bw``, ``--channels``, ``--partitioned-dram``)
    and print the per-SM table plus a measured chip energy summary.
``profile BENCH``
    Simulate one benchmark with the observability layer attached and
    print the per-cause stall-cycle attribution (plus optional interval
    metrics / trace JSON).  With ``--sms N`` the run happens at chip
    scope: the roll-up sums every SM, ``--metrics-out`` switches to the
    ``repro.obs.chipmetrics/1`` time series.
``trace BENCH``
    Write a Chrome trace-event file of one simulation, viewable in
    Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  With
    ``--sms N`` the file is the merged chip timeline
    (``repro.obs.trace/2``): a process per SM plus DRAM-channel and
    CTA-dispatcher tracks.  ``trace --compare A B`` instead pivots two
    previously written trace files into one side-by-side timeline.
``compare A B``
    Cross-run diff engine: align two run payloads of the same kind
    (``--metrics-out`` metrics, ``profile`` stall reports, chip
    profiles/metrics/results, traces, manifests) and attribute the
    cycle delta -- stall-cause deltas with the conservation invariant
    re-verified on both sides, per-SM/per-channel deltas, per-CTA
    slowdowns.  Exits 1 if either side's conservation fails.
``experiment ID``
    Regenerate one of the paper's tables/figures (``table1``,
    ``figure2`` ... ``figure11``, ``ablation-cluster-port``,
    ``ablation-no-hierarchy``).
``suite``
    Regenerate every table/figure in one go, with per-experiment
    wall-clock timing.
``autotune BENCH``
    Sweep thread targets under a unified capacity (Section 4.5 remark).
``sweep BENCH``
    Capacity sweep (Table 6 style) for one benchmark.
``bench``
    Performance benchmarks of the simulator hot paths; writes a
    schema-versioned ``BENCH_<date>.json``, and ``--compare OLD NEW``
    flags wall-clock regressions between two payloads.

The ``experiment``, ``suite``, and ``validate`` commands accept
``--jobs N`` (fan independent simulations over N worker processes),
``--cache-dir PATH`` (persist traces and simulation results across runs
in a content-addressed on-disk cache), and ``--metrics-out PATH``
(deterministic simulation-metrics JSON, byte-identical across ``--jobs``
settings).  When a cache dir is armed, every run also writes a
provenance manifest under ``<cache-dir>/manifests/``.

Diagnostics go through :mod:`logging` (logger ``repro``) to stderr;
``-v/--verbose`` and ``-q/--quiet`` adjust the level per command.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

from repro.core.partition import KB

log = logging.getLogger("repro")


def _configure_logging(args: argparse.Namespace) -> None:
    """(Re)bind the ``repro`` logger to the current stderr.

    Recreated on every :func:`main` call so test harnesses that swap
    ``sys.stderr`` between invocations capture the stream they expect.
    """
    verbosity = getattr(args, "verbose", 0) - getattr(args, "quiet", 0)
    if verbosity > 0:
        level = logging.DEBUG
    elif verbosity < 0:
        level = logging.WARNING
    else:
        level = logging.INFO
    for handler in list(log.handlers):
        log.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.addHandler(handler)
    log.setLevel(level)
    log.propagate = False


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _add_executor_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                   help="worker processes for independent simulations "
                        "(default 1 = serial; results are identical)")
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="persist traces/results in a content-addressed "
                        "cache reused across runs and workers; also "
                        "writes a run manifest under manifests/")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write deterministic simulation metrics JSON "
                        "(identical for any --jobs value)")
    p.add_argument("--spans", action="store_true",
                   help="record fleet-scope executor spans (submit/queue/"
                        "run per job, worker id, cache disposition); "
                        "summary on stderr, log persisted under "
                        "<cache-dir>/spans/ when a cache dir is armed")
    p.add_argument("--spans-out", default=None, metavar="PATH",
                   help="write the repro.obs.spans/1 span log to PATH "
                        "(implies --spans)")
    p.add_argument("--spans-trace-out", default=None, metavar="PATH",
                   help="write a Perfetto timeline of the whole sweep to "
                        "PATH (implies --spans)")


def _sm_config(args: argparse.Namespace):
    """The SMConfig an invocation's memory-system flags denote.

    Commands without the flag group (``experiment``, ``suite``, ...)
    fall through to the Table 2 defaults, i.e. the blocking model.
    Flag values each valid alone can still combine into a config
    SMConfig rejects (a row-hit latency above the DRAM latency); that
    is a usage error, reported the way argparse reports one.
    """
    from repro.sm.config import SMConfig

    try:
        return SMConfig(
            mshr_entries=getattr(args, "mshr_entries", 0),
            dram_banks=getattr(args, "dram_banks", 1),
            dram_row_bytes=getattr(args, "dram_row_bytes", 2048),
            dram_row_hit_latency=getattr(args, "dram_row_hit_latency", None),
        )
    except ValueError as e:
        log.error("repro %s: error: %s", args.command, e)
        raise SystemExit(2) from e


def _make_executor(args: argparse.Namespace):
    from repro.experiments.artifacts import DiskCache
    from repro.experiments.executor import Executor
    from repro.experiments.runner import Runner

    try:
        cache = DiskCache(args.cache_dir) if args.cache_dir else None
    except OSError as e:
        log.error("cannot use cache dir %r: %s", args.cache_dir, e)
        raise SystemExit(2) from e
    runner = Runner(args.scale, _sm_config(args), cache=cache)
    spans = None
    if (
        getattr(args, "spans", False)
        or getattr(args, "spans_out", None)
        or getattr(args, "spans_trace_out", None)
    ):
        from repro.obs.spans import SpanRecorder

        spans = SpanRecorder(command=getattr(args, "_cmdline", args.command))
    return Executor(runner, jobs=args.jobs, progress=args.jobs > 1, spans=spans)


def _finish_run(
    args: argparse.Namespace,
    executor,
    experiments: list[dict] | None = None,
    per_experiment: list[dict] | None = None,
    chip_summary: dict | None = None,
) -> None:
    """Post-run observability: ``--metrics-out`` file and run manifest.

    The metrics payload holds only simulation-derived numbers (sorted
    deterministically, no wall-clock), so it is byte-identical between
    ``--jobs 1`` and ``--jobs N``.  Wall-clock and cache statistics live
    in the manifest, which is written only when a cache dir is armed.
    """
    runner = executor.runner
    if getattr(args, "metrics_out", None):
        payload = runner.sim_metrics()
        if per_experiment is not None:
            payload["experiments"] = per_experiment
        Path(args.metrics_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True)
        )
        log.info("wrote metrics to %s", args.metrics_out)
    if runner.cache is not None:
        from repro.obs.manifest import build_run_manifest

        manifest = build_run_manifest(
            command=getattr(args, "_cmdline", args.command),
            scale=args.scale,
            config=runner.config,
            jobs=args.jobs,
            experiments=experiments,
            executor=executor,
            chip=chip_summary,
        )
        path = runner.cache.put_manifest(manifest)
        log.info("wrote run manifest to %s", path)
    spans = getattr(executor, "spans", None)
    if spans is not None and spans.spans:
        log.info("%s", spans.format_summary())
        payload = spans.to_payload()
        if getattr(args, "spans_out", None):
            Path(args.spans_out).write_text(
                json.dumps(payload, indent=2, sort_keys=True)
            )
            log.info("wrote span log to %s", args.spans_out)
        if getattr(args, "spans_trace_out", None):
            from repro.obs import write_trace

            write_trace(spans.trace_payload(), args.spans_trace_out)
            log.info("wrote sweep timeline to %s", args.spans_trace_out)
        if runner.cache is not None:
            path = runner.cache.put_spans(payload)
            log.info("persisted span log to %s", path)


def _build_parser() -> argparse.ArgumentParser:
    # Parent parser: attached to every subcommand so `repro CMD -v`
    # works (defining -v on the top-level parser instead would let the
    # subparser's default clobber an already-parsed value).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="more diagnostics on stderr")
    common.add_argument("-q", "--quiet", action="count", default=0,
                        help="warnings and errors only")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unified GPU local memory (MICRO 2012), reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite", parents=[common])

    def _add_design_flags(
        p: argparse.ArgumentParser, benchmark_optional: bool = False
    ) -> None:
        if benchmark_optional:
            p.add_argument("benchmark", nargs="?", default=None)
        else:
            p.add_argument("benchmark")
        p.add_argument("--design", choices=("baseline", "fermi", "unified"),
                       default="unified")
        p.add_argument("--capacity", type=_positive_int, default=384, metavar="KB",
                       help="unified pool capacity in KB (default 384)")
        p.add_argument("--scale", default="small",
                       choices=("tiny", "small", "paper"))
        p.add_argument("--threads", type=_positive_int, default=None,
                       help="thread target (default: occupancy decides)")
        p.add_argument("--regs", type=_positive_int, default=None,
                       help="registers/thread (default: no-spill budget)")

    def _add_memsys_flags(p: argparse.ArgumentParser) -> None:
        """Non-blocking memory-system knobs shared by run/chip/profile."""
        g = p.add_argument_group("memory system")
        g.add_argument("--mshr-entries", type=_nonnegative_int, default=0,
                       metavar="N",
                       help="per-SM MSHR entries: >0 enables non-blocking "
                            "misses with secondary-miss merging (default 0 "
                            "= legacy blocking model)")
        g.add_argument("--dram-banks", type=_positive_int, default=1,
                       metavar="N",
                       help="DRAM banks per channel for open-page "
                            "row-buffer timing (default 1 = flat FCFS)")
        g.add_argument("--dram-row-bytes", type=_positive_int, default=2048,
                       metavar="BYTES",
                       help="row-buffer (DRAM page) size per bank "
                            "(default 2048)")
        g.add_argument("--dram-row-hit-latency", type=_nonnegative_int,
                       default=None, metavar="CYCLES",
                       help="latency of a request hitting a bank's open "
                            "row (default: the full DRAM latency, i.e. "
                            "row buffers never help)")

    run = sub.add_parser("run", help="simulate one benchmark", parents=[common])
    _add_design_flags(run)
    _add_memsys_flags(run)
    run.add_argument("--show-layout", action="store_true",
                     help="render the design's bank layout (paper Figs 5-6)")
    run.add_argument("--chip", action="store_true",
                     help="scale the result to the 32-SM, 130 W chip (paper 5.2)")

    def _add_chip_flags(p: argparse.ArgumentParser, default_sms=None) -> None:
        """The chip topology group shared by ``chip``/``profile``/``trace``.

        ``chip`` always runs at chip scope (``default_sms=32``);
        ``profile`` and ``trace`` stay single-SM unless ``--sms`` is
        given, and reject the chip-only flags without it (see
        :func:`_chip_mode`).
        """
        g = p.add_argument_group("chip topology")
        if default_sms is None:
            g.add_argument("--sms", type=_positive_int, default=None, metavar="N",
                           help="run at chip scope across N SMs "
                                "(default: single SM)")
        else:
            g.add_argument("--sms", type=_positive_int, default=default_sms,
                           metavar="N",
                           help=f"SMs on the chip (default {default_sms}, "
                                "the paper's)")
        g.add_argument("--total-bw", type=_positive_float, default=None,
                       metavar="B_PER_CYC",
                       help="total chip DRAM bandwidth in bytes/cycle "
                            "(default 256, shared by all SMs)")
        g.add_argument("--channels", type=_positive_int, default=None,
                       help="shared DRAM channels (default 8)")
        g.add_argument("--partitioned-dram", action="store_true",
                       help="give each SM a private bandwidth slice (the "
                            "paper's fixed-slice methodology) instead of "
                            "shared arbitrated channels")

    ch = sub.add_parser("chip", parents=[common],
                        help="simulate N SMs sharing arbitrated DRAM")
    _add_design_flags(ch)
    _add_chip_flags(ch, default_sms=32)
    _add_memsys_flags(ch)
    ch.add_argument("--profile", action="store_true",
                    help="attach chip-scope collectors: per-SM top stall "
                         "cause in the table plus the chip roll-up")
    _add_executor_flags(ch)

    prof = sub.add_parser("profile", parents=[common],
                          help="stall-cycle attribution for one benchmark")
    _add_design_flags(prof)
    _add_chip_flags(prof)
    _add_memsys_flags(prof)
    prof.add_argument("--window", type=_positive_int, default=1000, metavar="CYCLES",
                      help="interval-metrics window width (default 1000)")
    prof.add_argument("--metrics-out", default=None, metavar="PATH",
                      help="write interval time-series metrics JSON "
                           "(chipmetrics schema under --sms)")
    prof.add_argument("--trace-out", default=None, metavar="PATH",
                      help="also write a Chrome trace-event file")
    prof.add_argument("--profile-out", default=None, metavar="PATH",
                      help="write the stall-attribution payload "
                           "(repro.obs.profile/1; chip_profile/1 under "
                           "--sms) for use with `repro compare`")

    tr = sub.add_parser("trace", parents=[common],
                        help="write a Perfetto-compatible warp trace")
    _add_design_flags(tr, benchmark_optional=True)
    _add_chip_flags(tr)
    tr.add_argument("--out", default=None, metavar="PATH",
                    help="trace file path (default <benchmark>.trace.json)")
    tr.add_argument("--max-events", type=_positive_int, default=1_000_000,
                    help="trace buffer bound (default 1000000)")
    tr.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None,
                    help="pivot two previously written trace files into "
                         "one side-by-side timeline instead of simulating")

    cp = sub.add_parser("compare", parents=[common],
                        help="diff two run payloads and attribute the "
                             "cycle delta")
    cp.add_argument("a", help="baseline payload: metrics/profile/"
                              "chipmetrics/chip/trace/manifest JSON")
    cp.add_argument("b", help="candidate payload (same kind as A)")
    cp.add_argument("--label-a", default=None, metavar="NAME",
                    help="display name for A (default: its path)")
    cp.add_argument("--label-b", default=None, metavar="NAME",
                    help="display name for B (default: its path)")
    cp.add_argument("--json-out", default=None, metavar="PATH",
                    help="also write the repro.obs.diff/1 payload")

    exp = sub.add_parser("experiment", help="regenerate a table/figure",
                         parents=[common])
    exp.add_argument("id", help="table1, figure2..figure11, table4..table6, "
                                "gating, memsys, ablation-cluster-port, "
                                "ablation-no-hierarchy")
    exp.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    exp.add_argument("--plot", action="store_true",
                     help="also render ASCII line plots (figure4 / figure11)")
    _add_executor_flags(exp)

    st = sub.add_parser("suite", help="regenerate every table/figure",
                        parents=[common])
    st.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    st.add_argument("--only", default=None, metavar="IDS",
                    help="comma-separated experiment ids (default: all)")
    _add_executor_flags(st)

    at = sub.add_parser("autotune", help="thread-count autotuning",
                        parents=[common])
    at.add_argument("benchmark")
    at.add_argument("--capacity", type=_positive_int, default=384, metavar="KB")
    at.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))

    val = sub.add_parser("validate", help="run the reproduction scorecard",
                         parents=[common])
    val.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    _add_executor_flags(val)

    sw = sub.add_parser("sweep", help="capacity sweep for one benchmark",
                        parents=[common])
    sw.add_argument("benchmark")
    sw.add_argument("--capacities", default="128,192,256,320,384,512",
                    help="comma-separated KB values")
    sw.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))

    bn = sub.add_parser("bench", parents=[common],
                        help="performance benchmarks (BENCH_*.json)")
    bn.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    bn.add_argument("--repeats", type=_positive_int, default=None,
                    help="runs per microbenchmark, best kept (default 3; "
                         "5 under --update-baseline)")
    bn.add_argument("--out", default=None, metavar="PATH",
                    help="payload path (default BENCH_<date>.json in cwd)")
    bn.add_argument("--update-baseline", action="store_true",
                    help="bless this run as the committed baseline: write "
                         "BENCH_<date>.json in the cwd with full provenance "
                         "(git sha, interpreter, machine) and higher default "
                         "repeats; incompatible with --out")
    bn.add_argument("--only", default=None, metavar="PREFIXES",
                    help="comma-separated benchmark-id prefixes to run "
                         "(e.g. 'micro.banks,sim'); default: everything")
    bn.add_argument("--no-suite", action="store_true",
                    help="skip the suite-level wall-clock benchmark")
    bn.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
                    help="compare two payloads instead of benchmarking; "
                         "exits 1 on regression")
    bn.add_argument("--threshold", type=float, default=1.15, metavar="RATIO",
                    help="max tolerated new/old time ratio for --compare "
                         "(default 1.15)")
    bn.add_argument("--validate", default=None, metavar="FILE",
                    help="validate a payload against the schema and exit")
    return parser


def _cmd_list() -> int:
    from repro.experiments.report import format_table
    from repro.kernels import all_benchmarks

    rows = [
        [
            bm.name,
            bm.category.value,
            bm.paper_regs,
            bm.paper_smem_bytes_per_thread,
            "yes" if bm.benefits else "no",
            bm.description,
        ]
        for bm in all_benchmarks()
    ]
    print(
        format_table(
            ["benchmark", "category", "regs", "smem B/t", "benefits", "description"],
            rows,
            title="Benchmark suite (paper Table 1)",
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.energy import EnergyModel
    from repro.experiments.runner import Runner

    rn = Runner(args.scale, _sm_config(args))
    base = rn.baseline(args.benchmark, regs=args.regs)
    if args.design == "baseline":
        result = base
    elif args.design == "fermi":
        result = rn.fermi_best(args.benchmark)
    else:
        result, alloc = rn.unified(
            args.benchmark, total_kb=args.capacity, thread_target=args.threads
        )
        print(f"allocation: {alloc.partition.describe()}")
    if args.show_layout:
        from repro.core.diagram import bank_layout

        print(bank_layout(result.partition))
    print(result.summary())
    memsys = result.notes.get("memsys")
    if memsys:
        m = memsys["mshr"]
        line = (f"memsys: {m['entries']} MSHRs, {m['primary_misses']} primary "
                f"misses, {m['secondary_merges']} merged, {m['full_stalls']} "
                f"full-stalls ({m['full_stall_cycles']:.0f} cycles)")
        if "dram_row_hits" in memsys:
            total = memsys["dram_row_hits"] + memsys["dram_row_misses"]
            if total:
                line += (f", row hits {memsys['dram_row_hits']}/{total} "
                         f"({100.0 * memsys['dram_row_hits'] / total:.0f}%)")
        print(line)
    if args.chip:
        from repro.energy.chip import ChipModel

        print(ChipModel().evaluate(result, baseline_cycles=base.cycles).summary())
    if result is not base:
        model = EnergyModel()
        e_base = model.evaluate(base).total_j
        e = model.evaluate(result, baseline_cycles=base.cycles).total_j
        print(
            f"vs baseline: speedup {result.speedup_over(base):.3f}x, "
            f"energy {e / e_base:.3f}x, "
            f"DRAM {result.dram_traffic_ratio(base):.3f}x"
        )
    return 0


def _chip_mode(args: argparse.Namespace) -> bool:
    """Whether this ``profile``/``trace`` invocation runs at chip scope.

    The chip-only flags are meaningless on a single SM, so combining
    them with single-SM mode is a usage error, not a silent ignore.
    """
    if args.sms is not None:
        return True
    offending = [
        flag
        for flag, given in (
            ("--total-bw", args.total_bw is not None),
            ("--channels", args.channels is not None),
            ("--partitioned-dram", args.partitioned_dram),
        )
        if given
    ]
    if offending:
        log.error(
            "%s only apply to chip runs; add --sms N to run at chip "
            "scope, or drop the flag(s) for a single-SM run",
            "/".join(offending),
        )
        raise SystemExit(2)
    return False


def _chip_config(rn, args: argparse.Namespace):
    """The ChipConfig an invocation's chip flags denote."""
    from repro.chip import ChipConfig

    return ChipConfig(
        num_sms=args.sms,
        dram_bytes_per_cycle=args.total_bw if args.total_bw is not None else 256.0,
        dram_channels=args.channels if args.channels is not None else 8,
        dram_partitioned=args.partitioned_dram,
        sm=rn.config,
    )


def _top_stall(stalls: dict) -> str:
    """``cause xx%`` for the dominant attributed cause (table cell)."""
    total = sum(stalls.values())
    if not total:
        return "-"
    cause = max(stalls, key=stalls.get)
    return f"{cause} {100.0 * stalls[cause] / total:.0f}%"


def _print_chip_rollup(cc) -> None:
    """The chip-wide stall roll-up line under the per-SM table."""
    from repro.obs import STALL_CAUSES

    totals = cc.stall_totals()
    warp_cycles = cc.warps * (cc.total_cycles or 1.0)
    issue = cc.issue_cycles
    parts = [f"issue {100.0 * issue / warp_cycles:.1f}%"]
    parts += [
        f"{cause} {100.0 * totals[cause] / warp_cycles:.1f}%"
        for cause in STALL_CAUSES
        if totals[cause]
    ]
    print(
        f"chip stall roll-up ({cc.warps} warps x {cc.total_cycles:.0f} "
        f"cycles): " + ", ".join(parts)
    )


def _cmd_chip(args: argparse.Namespace) -> int:
    from repro.chip import chip_result_to_dict
    from repro.energy.chip import ChipModel
    from repro.experiments.report import format_table
    from repro.memory.dram import channel_utilisation

    executor = _make_executor(args)
    rn = executor.runner
    partition = _resolve_partition(rn, args)
    chip = _chip_config(rn, args)
    cc = None
    if args.profile:
        from repro.obs import ChipCollector

        cc = ChipCollector.for_chip(chip)
    t0 = time.perf_counter()
    cr = rn.simulate_chip(
        args.benchmark,
        partition,
        chip=chip,
        regs=args.regs,
        thread_target=args.threads,
        chip_collector=cc,
    )
    dt = time.perf_counter() - t0
    profiled = any(r.stall_cycles for r in cr.per_sm)
    rows = [
        [
            i,
            cr.ctas_per_sm[i],
            f"{r.cycles:.0f}",
            r.instructions,
            f"{r.ipc:.3f}",
            r.dram_accesses,
            r.dram_bytes,
        ]
        + ([_top_stall(r.stall_cycles)] if profiled else [])
        for i, r in enumerate(cr.per_sm)
    ]
    headers = ["sm", "ctas", "cycles", "instructions", "ipc", "dram acc", "dram B"]
    if profiled:
        headers.append("top stall")
    print(
        format_table(
            headers,
            rows,
            title=f"Per-SM results: {args.benchmark} ({args.design}), "
                  f"{cr.num_sms} SMs",
        )
    )
    print(cr.summary())
    if cc is not None:
        errors = cc.conservation_errors()
        if errors:
            log.error("chip stall attribution lost cycles:\n%s",
                      "\n".join(errors[:5]))
            return 1
        _print_chip_rollup(cc)
    if not chip.dram_partitioned:
        per_ch_bw = chip.dram_bytes_per_cycle / chip.dram_channels
        per_channel = ", ".join(
            # channel_utilisation reports the true (possibly >1.0)
            # ratio; clamp only here, at presentation.
            f"ch{i} {min(1.0, channel_utilisation(b, per_ch_bw, cr.cycles)):.1%}"
            for i, b in enumerate(cr.dram_channel_bytes)
        )
        print(f"channel utilisation: {per_channel}")
    memsys = cr.notes.get("memsys")
    if memsys:
        line = (f"memsys: {memsys['mshr_entries']} MSHRs/SM, "
                f"{memsys['primary_misses']} primary misses, "
                f"{memsys['secondary_merges']} merged, "
                f"{memsys['full_stalls']} full-stalls")
        total = memsys["dram_row_hits"] + memsys["dram_row_misses"]
        if total:
            line += (f", row hits {memsys['dram_row_hits']}/{total} "
                     f"({100.0 * memsys['dram_row_hits'] / total:.0f}%)")
        print(line)
    # Measured pricing: per-SM counters, not the analytic NxSM scale-up.
    summary = ChipModel(num_sms=chip.num_sms).evaluate_chip(cr)
    print("energy (measured per-SM): " + summary.summary())
    log.info("[chip] %s: %.2fs", args.benchmark, dt)
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(chip_result_to_dict(cr), indent=2, sort_keys=True)
        )
        log.info("wrote chip metrics to %s", args.metrics_out)
        args.metrics_out = None  # _finish_run owns only the manifest
    _finish_run(
        args,
        executor,
        experiments=[{"id": f"chip-{args.benchmark}", "seconds": dt}],
        chip_summary=(
            {"channels": cc.channel_summary(), "dispatcher": cc.dispatcher_summary()}
            if cc is not None
            else None
        ),
    )
    return 0


def _resolve_partition(rn, args: argparse.Namespace):
    """The partition a ``--design`` choice denotes for one benchmark."""
    from repro.core import partitioned_baseline

    if args.design == "baseline":
        return partitioned_baseline()
    if args.design == "fermi":
        return rn.fermi_best(args.benchmark, regs=args.regs).partition
    alloc = rn.allocation(
        args.benchmark,
        total_kb=args.capacity,
        thread_target=args.threads,
        regs=args.regs,
    )
    log.info("allocation: %s", alloc.partition.describe())
    return alloc.partition


def _instrumented_run(args: argparse.Namespace, window: int, want_trace: bool,
                      max_trace_events: int = 1_000_000):
    """Simulate one benchmark with a Collector attached."""
    from repro.experiments.runner import Runner
    from repro.obs import Collector
    from repro.sm.simulator import simulate

    rn = Runner(args.scale, _sm_config(args))
    partition = _resolve_partition(rn, args)
    ck = rn.compiled(args.benchmark, regs=args.regs)
    col = Collector(metrics_window=window, trace=want_trace,
                    max_trace_events=max_trace_events)
    result = simulate(ck, partition, rn.config,
                      thread_target=args.threads, collector=col)
    return result, col


def _instrumented_chip_run(args: argparse.Namespace, window: int,
                           want_trace: bool,
                           max_trace_events: int = 1_000_000):
    """Simulate one benchmark at chip scope with a ChipCollector attached."""
    from repro.experiments.runner import Runner
    from repro.obs import ChipCollector

    rn = Runner(args.scale, _sm_config(args))
    partition = _resolve_partition(rn, args)
    chip = _chip_config(rn, args)
    cc = ChipCollector.for_chip(chip, metrics_window=window, trace=want_trace,
                                max_trace_events=max_trace_events)
    cr = rn.simulate_chip(args.benchmark, partition, chip=chip,
                          regs=args.regs, thread_target=args.threads,
                          chip_collector=cc)
    return cr, cc


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.obs import STALL_CAUSES, write_trace

    window = args.window if args.metrics_out else 0
    if _chip_mode(args):
        return _cmd_profile_chip(args, window)
    result, col = _instrumented_run(args, window, bool(args.trace_out))
    print(result.summary())
    report = col.report()
    warp_cycles = len(col.warps) * (col.total_cycles or 1.0)
    rows = [["issue", float(report["issue_cycles"]),
             100.0 * report["issue_cycles"] / warp_cycles]]
    rows += [
        [cause, report["stall_cycles"][cause],
         100.0 * report["stall_cycles"][cause] / warp_cycles]
        for cause in STALL_CAUSES
    ]
    print(
        format_table(
            ["cause", "warp-cycles", "% of warp-cycles"],
            rows,
            title=f"Stall attribution: {args.benchmark} ({args.design}), "
                  f"{report['warps']} warps x {result.cycles:.0f} cycles",
        )
    )
    errors = col.conservation_errors()
    if errors:
        log.error("stall attribution lost cycles:\n%s", "\n".join(errors[:5]))
        return 1
    log.info("conservation: issue + stalls == %d warps x %.0f cycles exactly",
             report["warps"], col.total_cycles)
    if args.profile_out:
        Path(args.profile_out).write_text(
            json.dumps(report, indent=2, sort_keys=True)
        )
        log.info("wrote stall profile to %s", args.profile_out)
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(col.metrics_payload(), indent=2, sort_keys=True)
        )
        log.info("wrote interval metrics to %s", args.metrics_out)
    if args.trace_out:
        write_trace(col.trace_payload(), args.trace_out)
        log.info("wrote trace to %s", args.trace_out)
    return 0


def _cmd_profile_chip(args: argparse.Namespace, window: int) -> int:
    from repro.experiments.report import format_table
    from repro.obs import STALL_CAUSES, write_trace

    cr, cc = _instrumented_chip_run(args, window, bool(args.trace_out))
    print(cr.summary())
    totals = cc.stall_totals()
    warp_cycles = cc.warps * (cc.total_cycles or 1.0)
    rows = [["issue", float(cc.issue_cycles),
             100.0 * cc.issue_cycles / warp_cycles]]
    rows += [
        [cause, totals[cause], 100.0 * totals[cause] / warp_cycles]
        for cause in STALL_CAUSES
    ]
    print(
        format_table(
            ["cause", "warp-cycles", "% of warp-cycles"],
            rows,
            title=f"Chip stall attribution: {args.benchmark} ({args.design}), "
                  f"{cc.num_sms} SMs, {cc.warps} warps x {cr.cycles:.0f} cycles",
        )
    )
    for i, col in enumerate(cc.collectors):
        print(f"  sm{i}: {len(col.warps)} warps, "
              f"top stall {_top_stall(col.stall_totals())}")
    errors = cc.conservation_errors()
    if errors:
        log.error("chip stall attribution lost cycles:\n%s",
                  "\n".join(errors[:5]))
        return 1
    log.info("conservation: sum_sm(issue + stalls) == %d warps x %.0f "
             "cycles exactly", cc.warps, cc.total_cycles)
    if args.profile_out:
        Path(args.profile_out).write_text(
            json.dumps(cc.report(), indent=2, sort_keys=True)
        )
        log.info("wrote chip stall profile to %s", args.profile_out)
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(cc.chipmetrics_payload(), indent=2, sort_keys=True)
        )
        log.info("wrote chip interval metrics to %s", args.metrics_out)
    if args.trace_out:
        write_trace(cc.trace_payload(), args.trace_out)
        log.info("wrote merged chip trace to %s", args.trace_out)
    return 0


def _load_json(path: str) -> dict:
    """Read a JSON payload or exit 2 with a usage-style diagnostic."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        log.error("cannot read %s: %s", path, e)
        raise SystemExit(2) from e
    if not isinstance(payload, dict):
        log.error("%s: expected a JSON object", path)
        raise SystemExit(2)
    return payload


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import validate_trace, write_trace

    if args.compare is not None:
        from repro.obs.compare import pivot_traces

        path_a, path_b = args.compare
        pivot = pivot_traces(
            _load_json(path_a), _load_json(path_b),
            label_a=path_a, label_b=path_b,
        )
        errors = validate_trace(pivot)
        if errors:
            log.error("invalid pivoted trace:\n%s", "\n".join(errors[:5]))
            return 1
        out = args.out or "compare.trace.json"
        write_trace(pivot, out)
        print(f"pivoted {path_a} vs {path_b}: "
              f"{len(pivot['traceEvents'])} trace events -> {out}")
        print("open in https://ui.perfetto.dev or chrome://tracing "
              "(both runs share one clock; A's processes first)")
        return 0
    if args.benchmark is None:
        log.error("trace needs a BENCHMARK to simulate, or --compare A B "
                  "to pivot two existing trace files")
        raise SystemExit(2)
    if _chip_mode(args):
        cr, cc = _instrumented_chip_run(args, 0, True,
                                        max_trace_events=args.max_events)
        payload = cc.trace_payload()
        cycles = cr.cycles
        scope = f" ({cc.num_sms} SMs, {cc.num_channels} DRAM channels)"
    else:
        result, col = _instrumented_run(args, 0, True,
                                        max_trace_events=args.max_events)
        payload = col.trace_payload()
        cycles = result.cycles
        scope = ""
    errors = validate_trace(payload)
    if errors:
        log.error("invalid trace payload:\n%s", "\n".join(errors[:5]))
        return 1
    out = args.out or f"{args.benchmark}.trace.json"
    write_trace(payload, out)
    dropped = payload["otherData"]["droppedEvents"]
    print(f"{args.benchmark}{scope}: {cycles:.0f} cycles, "
          f"{len(payload['traceEvents'])} trace events -> {out}"
          + (f" ({dropped} dropped; raise --max-events)" if dropped else ""))
    print("open in https://ui.perfetto.dev or chrome://tracing "
          "(1 us rendered = 1 SM cycle)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.obs.compare import (
        build_diff,
        conservation_violated,
        format_diff,
        validate_diff,
    )

    a = _load_json(args.a)
    b = _load_json(args.b)
    try:
        diff = build_diff(
            a, b,
            label_a=args.label_a or args.a,
            label_b=args.label_b or args.b,
        )
    except ValueError as e:
        log.error("%s", e)
        return 2
    problems = validate_diff(diff)
    if problems:
        log.error("internal: diff payload failed validation:\n%s",
                  "\n".join(problems[:5]))
        return 2
    print(format_diff(diff))
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(diff, indent=2, sort_keys=True))
        log.info("wrote diff to %s", args.json_out)
    return 1 if conservation_violated(diff) else 0


def _experiment_registry(scale: str) -> dict:
    """Experiment id -> run callable taking an ``executor=`` keyword.

    ``table4`` (analytic, no simulation) and ``irregular`` (own trace
    builders) run serially and simply ignore the executor.
    """
    from repro.experiments import (
        ablations,
        figure2,
        figure3,
        figure4,
        figure7,
        figure8,
        figure9,
        figure10,
        figure11,
        gating,
        memsys,
        table1,
        table4,
        table5,
        table6,
    )

    def _table4(executor=None):
        return table4.run()

    def _irregular(executor=None):
        from repro.experiments import irregular as irr

        return irr.run(scale)

    return {
        "table1": table1.run,
        "figure2": figure2.run,
        "figure3": figure3.run,
        "figure4": figure4.run,
        "table4": _table4,
        "table5": table5.run,
        "figure7": figure7.run,
        "figure8": figure8.run,
        "figure9": figure9.run,
        "figure10": figure10.run,
        "table6": table6.run,
        "figure11": figure11.run,
        "gating": gating.run,
        "memsys": memsys.run,
        "ablation-cluster-port": ablations.run_cluster_port,
        "ablation-no-hierarchy": ablations.run_no_hierarchy,
        "irregular": _irregular,
    }


def _cmd_experiment(args: argparse.Namespace) -> int:
    registry = _experiment_registry(args.scale)
    if args.id not in registry:
        log.error("unknown experiment %r; choose from: %s",
                  args.id, ", ".join(sorted(registry)))
        return 2
    executor = _make_executor(args)
    before = executor.runner.sim_keys()
    t0 = time.perf_counter()
    result = registry[args.id](executor=executor)
    dt = time.perf_counter() - t0
    delta = executor.runner.sim_keys() - before
    print(result.format())
    if getattr(args, "plot", False):
        from repro.experiments import plots

        if args.id == "figure4":
            for bench in sorted({p.benchmark for p in result.points}):
                print()
                print(plots.plot_figure4(result, bench))
        elif args.id == "figure11":
            print()
            print(plots.plot_figure11(result))
    log.info("%s", executor.summary())
    _finish_run(
        args,
        executor,
        experiments=[{"id": args.id, "seconds": dt}],
        per_experiment=[
            {"id": args.id, **executor.runner.sim_metrics(keys=delta)["totals"]}
        ],
    )
    return 0


# Suite order: cheap single-point experiments first, big sweeps last, so
# the shared runner's memo tables are warm before the grids hit them.
SUITE_ORDER = (
    "table1", "table4", "figure7", "figure8", "figure9", "figure10",
    "table5", "table6", "gating", "figure2", "figure3", "figure4",
    "figure11", "ablation-cluster-port", "ablation-no-hierarchy",
)


def _cmd_suite(args: argparse.Namespace) -> int:
    registry = _experiment_registry(args.scale)
    if args.only is None:
        ids = SUITE_ORDER
    else:
        ids = tuple(tok.strip() for tok in args.only.split(",") if tok.strip())
    unknown = [i for i in ids if i not in registry]
    if unknown:
        log.error("unknown experiment(s): %s", ", ".join(unknown))
        return 2
    if not ids:
        log.error("--only %r selects no experiments; choose from: %s",
                  args.only, ", ".join(sorted(registry)))
        return 2
    executor = _make_executor(args)
    runner = executor.runner
    timings: list[tuple[str, float]] = []
    per_experiment: list[dict] = []
    for exp_id in ids:
        before = runner.sim_keys()
        t0 = time.perf_counter()
        result = registry[exp_id](executor=executor)
        dt = time.perf_counter() - t0
        timings.append((exp_id, dt))
        delta = runner.sim_keys() - before
        per_experiment.append(
            {"id": exp_id, **runner.sim_metrics(keys=delta)["totals"]}
        )
        print(result.format())
        print()
        log.info("[suite] %s: %.2fs", exp_id, dt)
    total = sum(dt for _, dt in timings)
    log.info("[suite] %d experiments in %.2fs (slowest: %s)",
             len(ids), total, max(timings, key=lambda t: t[1])[0])
    log.info("%s", executor.summary())
    _finish_run(
        args,
        executor,
        experiments=[{"id": i, "seconds": dt} for i, dt in timings],
        per_experiment=per_experiment,
    )
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    from repro.core import autotune_threads
    from repro.experiments.runner import Runner

    rn = Runner(args.scale)
    res = autotune_threads(rn.compiled(args.benchmark), args.capacity * KB)
    print(f"{'threads':>8} {'cycles':>10} {'cache KB':>9}")
    for p in sorted(res.points, key=lambda p: p.threads):
        marker = "  <-- best" if p is res.best else ""
        print(
            f"{p.threads:>8} {p.result.cycles:>10.0f} "
            f"{p.allocation.partition.cache_kb:>9.1f}{marker}"
        )
    print(f"gain over max-threads: {res.gain_over_max_threads:.3f}x")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core import AllocationError
    from repro.energy import EnergyModel
    from repro.experiments.runner import Runner

    rn = Runner(args.scale)
    base = rn.baseline(args.benchmark)
    model = EnergyModel()
    e_base = model.evaluate(base).total_j
    print(f"{'KB':>5} {'speedup':>8} {'energy':>7} {'dram':>6}")
    for cap in (int(c) for c in args.capacities.split(",")):
        try:
            result, _ = rn.unified(args.benchmark, total_kb=cap)
        except AllocationError:
            print(f"{cap:>5} {'(does not fit)':>20}")
            continue
        e = model.evaluate(result, baseline_cycles=base.cycles).total_j
        print(
            f"{cap:>5} {result.speedup_over(base):>8.3f} {e / e_base:>7.3f} "
            f"{result.dram_traffic_ratio(base):>6.3f}"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import report

    if args.validate is not None:
        try:
            report.load_payload(args.validate)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            log.error("%s", e)
            return 1
        print(f"{args.validate}: valid {report.SCHEMA} payload")
        return 0
    if args.compare is not None:
        old_path, new_path = args.compare
        try:
            old = report.load_payload(old_path)
            new = report.load_payload(new_path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            log.error("%s", e)
            return 2
        cmp = report.compare_payloads(old, new, threshold=args.threshold)
        print(cmp.format())
        return 0 if cmp.ok else 1

    from repro.bench.micro import run_micro
    from repro.bench.suite import run_suite

    if args.update_baseline and args.out:
        log.error("--update-baseline writes BENCH_<date>.json; drop --out")
        return 2
    # A blessed baseline is read by every future compare, so it gets
    # more repeats than an ad-hoc run (min-of-N tightens with N).
    repeats = args.repeats or (5 if args.update_baseline else 3)
    prefixes = (
        tuple(p.strip() for p in args.only.split(",") if p.strip())
        if args.only else None
    )

    def selected(bench_id: str) -> bool:
        return prefixes is None or any(bench_id.startswith(p) for p in prefixes)

    entries = [e for e in run_micro(args.scale, repeats) if selected(e.id)]
    run_suite_bench = not args.no_suite and (
        prefixes is None or any(p.startswith("suite") for p in prefixes)
    )
    if run_suite_bench:
        log.info("running suite benchmark at scale %r (cold, single job)...",
                 args.scale)
        entries += [e for e in run_suite(args.scale) if selected(e.id)]
    if not entries:
        log.error("--only %r selects no benchmarks", args.only)
        return 2
    payload = report.make_payload(entries, scale=args.scale, repeats=repeats)
    out = report.write_payload(payload, args.out or report.default_path())
    for e in sorted(entries, key=lambda e: e.id):
        print(f"{e.id:<34} {e.seconds:>10.4f} s")
    print(f"wrote {len(entries)} benchmarks to {out}")
    if args.update_baseline:
        prov = payload["provenance"]
        print(f"new baseline: {out} "
              f"(git {prov.get('git_sha', 'unknown')[:12]}, "
              f"python {prov['python']}, repeats {repeats}) -- commit it and "
              "point CI/--compare at it")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments import validate

    executor = _make_executor(args)
    card = validate.run(executor=executor)
    print(card.format())
    log.info("%s", executor.summary())
    _finish_run(args, executor)
    return 0 if card.passed else 1


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(raw)
    args._cmdline = "repro " + " ".join(raw)
    _configure_logging(args)
    dispatch = {
        "list": lambda: _cmd_list(),
        "run": lambda: _cmd_run(args),
        "chip": lambda: _cmd_chip(args),
        "profile": lambda: _cmd_profile(args),
        "trace": lambda: _cmd_trace(args),
        "compare": lambda: _cmd_compare(args),
        "experiment": lambda: _cmd_experiment(args),
        "suite": lambda: _cmd_suite(args),
        "autotune": lambda: _cmd_autotune(args),
        "sweep": lambda: _cmd_sweep(args),
        "bench": lambda: _cmd_bench(args),
        "validate": lambda: _cmd_validate(args),
    }
    try:
        return dispatch[args.command]()
    except BrokenPipeError:  # e.g. `python -m repro list | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

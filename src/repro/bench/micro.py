"""Deterministic microbenchmarks of the simulator's component models.

Each benchmark exercises one hot path -- the bank-conflict models, the
coalescer, the data cache, trace generation and loading, columnar
lowering, a full :func:`repro.sm.simulate` call, or a plain four-SM
:func:`repro.chip.simulate_chip` run -- on a fixed synthetic or compiled
workload, so timing differences between two revisions reflect code
changes, not input drift.  The returned metadata pins deterministic
facts (op counts, simulated cycles) that must agree between payloads of
behaviour-identical revisions.
"""

from __future__ import annotations

from repro.bench.report import BenchEntry, timed

#: Kernels covered by the per-kernel ``sim.*`` benchmarks: one regular
#: compute kernel, one shared-memory-heavy, one spill-heavy at its paper
#: budget, and one irregular/divergent.
SIM_KERNELS = ("vectoradd", "matrixmul", "needle", "bfs")

#: Kernels covered by the trace-layer and lowering benchmarks: a padded
#: partial-warp wavefront, a divergent graph walk, and a register-blocked
#: GEMM.
TRACE_KERNELS = ("needle", "bfs", "dgemm")

#: Iterations chosen so each micro entry runs for tens of milliseconds.
_BANK_ROUNDS = 20
_COALESCE_ROUNDS = 200
_CACHE_ROUNDS = 5


def _bank_workload(scale: str):
    """A mixed compiled-op stream plus per-op line segments.

    Built from the matrixmul kernel (ALU + shared + global mix); the
    compile is deterministic, so every revision benches the same ops.
    """
    from repro.experiments.runner import Runner
    from repro.memory.coalescer import coalesce_lines

    ck = Runner(scale).compiled("matrixmul")
    ops = [op for cta in ck.ctas[:2] for warp in cta.warps for op in warp.ops]
    segments = [
        coalesce_lines(op.addrs, 128) if (op.op.is_memory and op.addrs) else None
        for op in ops
    ]
    return ops, segments


def bench_banks(scale: str, repeats: int) -> list[BenchEntry]:
    """Time the partitioned and unified bank-conflict models.

    ``meta`` sums the models' answers -- penalty cycles, data rows,
    Table 5 buckets and (unified) arbitration conflicts -- so two
    revisions that agree on it resolved every access identically.
    """
    from repro.core import partitioned_baseline
    from repro.core.allocator import allocate_unified
    from repro.core.partition import KB
    from repro.isa.opcodes import MemSpace
    from repro.memory.banks import make_bank_model

    ops, segments = _bank_workload(scale)
    part = partitioned_baseline()
    uni = allocate_unified(
        384 * KB, regs_per_thread=21, threads_per_cta=256, smem_bytes_per_cta=2048
    ).partition

    def run(partition, unified):
        def body():
            banks = make_bank_model(partition)
            penalty = rows = 0
            for _ in range(_BANK_ROUNDS):
                for op, segs in zip(ops, segments):
                    if op.op.space is MemSpace.SHARED:
                        out = banks.access(op, shared_base=0)
                    elif op.op.is_memory:
                        out = banks.access(op, segments=segs)
                    else:
                        out = banks.access(op)
                    penalty += out.penalty
                    rows += out.data_row_accesses
            meta = {"accesses": _BANK_ROUNDS * len(ops), "penalty": penalty,
                    "rows": rows, "buckets": banks.histogram.to_dict()}
            if unified:
                meta["arbitration"] = banks.arbitration_conflicts
            return meta

        return body

    return [
        timed("micro.banks.partitioned", run(part, False), repeats),
        timed("micro.banks.unified", run(uni, True), repeats),
    ]


def bench_coalescer(scale: str, repeats: int) -> list[BenchEntry]:
    """Time line/sector coalescing over synthetic warp address patterns."""
    from repro.memory.coalescer import coalesce_lines, coalesce_sectors

    # Unit-stride, strided, and scattered warps -- the three shapes the
    # suite's kernels produce.
    patterns = [
        tuple(4096 + 4 * lane for lane in range(32)),
        tuple(4096 + 64 * lane for lane in range(32)),
        tuple((4096 + 977 * lane * lane) % (1 << 20) for lane in range(32)),
    ]

    def lines():
        n = 0
        for _ in range(_COALESCE_ROUNDS):
            for addrs in patterns:
                n += len(coalesce_lines(addrs))
        return {"segments": n}

    def sectors():
        n = 0
        for _ in range(_COALESCE_ROUNDS):
            for addrs in patterns:
                n += len(coalesce_sectors(addrs))
        return {"sectors": n}

    return [
        timed("micro.coalescer.lines", lines, repeats),
        timed("micro.coalescer.sectors", sectors, repeats),
    ]


def bench_cache(scale: str, repeats: int) -> list[BenchEntry]:
    """Time the data cache on a mixed hit/miss/evict line stream."""
    from repro.memory.cache import DataCache

    # 4 of 5 accesses hit a 256-line hot set (fits the 512-line cache);
    # the rest scan cold lines, forcing misses and LRU evictions.
    lines = [
        (i % 256) * 128 if i % 5 else ((i * 977) % 4096 + 4096) * 128
        for i in range(8192)
    ]

    def body():
        cache = DataCache(64 * 1024)
        hits = 0
        for _ in range(_CACHE_ROUNDS):
            for la in lines:
                if cache.read_line(la):
                    hits += 1
            for la in lines[::7]:
                cache.write_line(la)
        return {"reads": _CACHE_ROUNDS * len(lines), "read_hits": hits}

    return [timed("micro.cache.readwrite", body, repeats)]


def _trace_meta(traces) -> dict:
    """Warp-op count and a digest of every warp's ops, in kernel order."""
    import hashlib

    h = hashlib.sha256()
    for trace in traces:
        for cta in trace.ctas:
            for warp in cta.warps:
                h.update(repr([
                    (op.op.name, op.dst, op.srcs, op.addrs, op.active) for op in warp
                ]).encode())
    return {"warp_ops": sum(t.total_ops for t in traces), "digest": h.hexdigest()[:16]}


def bench_trace(scale: str, repeats: int) -> list[BenchEntry]:
    """Time trace generation and reading the same traces from ``.npz``.

    Loading is what a warm artefact cache does instead of generating,
    so the two entries must agree on their metadata.
    """
    import tempfile
    from pathlib import Path

    from repro.isa.io import load_trace, save_trace
    from repro.kernels import get_benchmark

    built: dict = {}
    loaded: dict = {}

    def build():
        for name in TRACE_KERNELS:
            built[name] = get_benchmark(name).build(scale)

    build_entry = timed("micro.trace.build", build, repeats)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.npz" for name in TRACE_KERNELS}
        for name, path in paths.items():
            save_trace(built[name], path)

        def load():
            for name, path in paths.items():
                loaded[name] = load_trace(path)

        load_entry = timed("micro.trace.load", load, repeats)
    build_entry.meta.update(_trace_meta(built.values()))
    load_entry.meta.update(_trace_meta(loaded.values()))
    return [build_entry, load_entry]


def bench_lower(scale: str, repeats: int) -> list[BenchEntry]:
    """Time columnar lowering of every CTA, separate from replay.

    The kernels compile untimed.  Each repeat drops their lowering
    caches and lowers them again: shape lowerings and warp signatures
    (``_sig_table``), then every CTA's programs against the baseline
    bank model at shared base 0 (``cta_plan``).  Interned plans outlive
    a kernel, so they are built by the first repeat only; ``runs``
    keeps that cold time visible.
    """
    from repro.compiler.columnar import _sig_table, cta_plan
    from repro.core import partitioned_baseline
    from repro.experiments.runner import Runner
    from repro.memory.banks import make_bank_model

    rn = Runner(scale)
    cfg = rn.config
    line_bytes = cfg.cache_line_bytes
    kernels = [rn.compiled(name) for name in TRACE_KERNELS]
    banks = make_bank_model(partitioned_baseline())
    # Dropped caches stay referenced until timing ends, so freeing them
    # is not timed.
    dropped: list[dict] = []

    def plan_all(ck):
        return [cta_plan(ck, banks, 0, cfg, True, ci) for ci in range(len(ck.ctas))]

    def lower():
        for ck in kernels:
            dropped.append(ck._plan_cache)
            ck._plan_cache = {}
            _sig_table(ck, line_bytes)
            plan_all(ck)

    entry = timed("micro.lower", lower, repeats)
    dropped.clear()
    programs = {id(p): p for ck in kernels for progs in plan_all(ck) for p in progs}
    entry.meta.update(
        warps=sum(len(cta.warps) for ck in kernels for cta in ck.ctas),
        shapes=len({id(p.shape) for p in programs.values()}),
        signatures=sum(len(_sig_table(ck, line_bytes)[0]) for ck in kernels),
        programs=len(programs),
    )
    return [entry]


def bench_simulate(scale: str, repeats: int) -> list[BenchEntry]:
    """Time full ``simulate()`` calls per kernel under two designs, and
    four-SM ``simulate_chip()`` runs, plain and profiled.

    Each entry's first run is cold (pays any per-kernel precomputation);
    subsequent runs re-simulate the same :class:`CompiledKernel`, which
    is the common case inside a capacity sweep.  ``seconds`` is the
    best run; the ``runs`` list keeps the cold time visible.
    """
    from dataclasses import replace

    from repro.chip.config import ChipConfig
    from repro.chip.simulator import simulate_chip
    from repro.core import partitioned_baseline
    from repro.experiments.runner import Runner
    from repro.sm.simulator import simulate

    rn = Runner(scale)
    baseline = partitioned_baseline()
    entries: list[BenchEntry] = []
    for name in SIM_KERNELS:
        ck = rn.compiled(name)

        def run_base(ck=ck):
            r = simulate(ck, baseline, rn.config)
            return {"cycles": r.cycles, "instructions": r.instructions}

        entries.append(timed(f"sim.{name}.baseline", run_base, repeats))
        try:
            uni = rn.allocation(name).partition
        except Exception:
            continue

        def run_uni(ck=ck, uni=uni):
            r = simulate(ck, uni, rn.config)
            return {"cycles": r.cycles, "instructions": r.instructions}

        entries.append(timed(f"sim.{name}.unified384", run_uni, repeats))

    # One non-blocking point: the MSHR + banked-DRAM hot-loop arm has its
    # own cost profile (per-segment MSHR lookups, row decode), so time it
    # separately from the blocking baseline it must not slow down.
    nb_cfg = replace(
        rn.config, mshr_entries=16, dram_banks=8, dram_row_hit_latency=160
    )
    ck = rn.compiled("matrixmul")

    def run_nonblocking(ck=ck):
        r = simulate(ck, baseline, nb_cfg)
        return {"cycles": r.cycles, "instructions": r.instructions}

    entries.append(timed("sim.matrixmul.nonblocking", run_nonblocking, repeats))

    # Plain multi-SM replay: four SMs with the paper's per-SM bandwidth
    # slice in total, on shared arbitrated channels and on private
    # slices (the fast-DRAM path), so the plain frame's core swaps are
    # timed too.
    for suffix, part_dram in (("", False), (".partitioned", True)):
        chip = ChipConfig(
            num_sms=4, dram_bytes_per_cycle=4 * rn.config.dram_bytes_per_cycle,
            dram_channels=2, dram_partitioned=part_dram, sm=rn.config,
        )

        def run_chip(chip=chip):
            r = simulate_chip(ck, baseline, chip)
            return {"cycles": r.cycles, "instructions": r.instructions,
                    "sms": r.num_sms}

        entries.append(timed(f"sim.matrixmul.chip4{suffix}", run_chip, repeats))

    # Instrumented run: the replay loop driving the full observability
    # stack (collector + stall attribution) on the non-blocking banked
    # config, the hardest attribution arm (bank/MSHR splitting).  The
    # id keeps its ``.columnar`` suffix so committed baselines still
    # gate this path.
    def run_profiled():
        from repro.obs import Collector

        col = Collector()
        r = simulate(ck, baseline, nb_cfg, collector=col)
        assert col.conservation_errors() == []
        return {"cycles": r.cycles, "instructions": r.instructions,
                "warps": len(col.warps)}

    entries.append(timed("sim.matrixmul.columnar.profiled", run_profiled, repeats))

    # Instrumented four-SM replay as a chip profile runs it: shared
    # channels, a chip collector with interval metrics and chip-profile's
    # trace bound, which a small-scale run overflows.
    chip = ChipConfig(
        num_sms=4, dram_bytes_per_cycle=4 * rn.config.dram_bytes_per_cycle,
        dram_channels=2, sm=rn.config,
    )

    def run_chip_profiled():
        from repro.obs import ChipCollector

        cc = ChipCollector.for_chip(
            chip, metrics_window=2000, trace=True, max_trace_events=20_000
        )
        r = simulate_chip(ck, baseline, chip, chip_collector=cc)
        assert cc.conservation_errors() == []
        return {"cycles": r.cycles, "instructions": r.instructions,
                "sms": r.num_sms,
                "trace_events": len(cc.trace_payload()["traceEvents"])}

    entries.append(timed("sim.matrixmul.chip4.profiled", run_chip_profiled, repeats))
    return entries


def run_micro(scale: str, repeats: int) -> list[BenchEntry]:
    """Run every microbenchmark group at ``scale``."""
    entries: list[BenchEntry] = []
    entries += bench_coalescer(scale, repeats)
    entries += bench_cache(scale, repeats)
    entries += bench_banks(scale, repeats)
    entries += bench_trace(scale, repeats)
    entries += bench_lower(scale, repeats)
    entries += bench_simulate(scale, repeats)
    return entries

"""The benchmark's workloads: seeded choices, set-up and one timed pass.

A workload object is its seeded selection: constructing one draws every
choice (register budgets, design points, memory configs, chip shapes,
the capacity sweep's control kernel) from
``random.Random(f"{name}/{seed}")``, which hashes the string with
SHA-512 and so does not depend on ``PYTHONHASHSEED``.  ``build_inputs``
is set-up: it builds the kernel traces, the paper's Ocelot step.
``run_pass`` is the timed phase: compile, allocate, simulate, observe
and price, every call wrapped in a span of the layer it enters.

Passes never reuse each other's work.  Each pass makes fresh
:class:`~repro.experiments.runner.Runner` objects, so every compile,
lowering and simulation runs again; only the set-up traces are shared,
through :class:`TraceStore`.
"""

from __future__ import annotations

import itertools
import math
import random
import traceback
from collections import Counter
from contextlib import contextmanager

from digests import chip_fields, digest, sim_fields
from spantree import BENCH_LAYER

from repro.chip import ChipConfig
from repro.compiler import compile_kernel
from repro.core import fermi_like, partitioned_baseline
from repro.core.allocator import AllocationError
from repro.experiments.runner import CompiledSummary, Runner
from repro.kernels import all_benchmarks, get_benchmark
from repro.kernels.irregular import all_irregular
from repro.obs import STALL_CAUSES, ChipCollector
from repro.sm import SMConfig
from repro.sm.cta_scheduler import LaunchError

COMPILER = "repro.compiler"
CORE = "repro.core"
SM = "repro.sm"
CHIP = "repro.chip"
OBS = "repro.obs"
ENERGY = "repro.energy"
#: Layers of the self-time table, in call order.
LAYERS = (BENCH_LAYER, COMPILER, CORE, SM, CHIP, OBS, ENERGY)

#: Expected outcomes: a design point the kernel does not fit.  They are
#: part of the correct output (their messages are digested).
REFUSALS = (LaunchError, AllocationError)

#: The capacity sweep's kernels: one benefit-set kernel (Fig 9, Table 6)
#: from each category that has one, plus a balanced-category control the
#: seed draws from no-benefit kernels of similar host cost.  Drawing from
#: all 26 kernels made the work per pass depend on the seed.
SWEEP_KERNELS = ("needle", "bfs", "dgemm")
BALANCED_CONTROLS = ("aes", "hotspot", "sad", "sgemv")
#: chip-profile's kernels, each over seeded chip shapes: a cache-limited
#: and a balanced kernel of about 30k warp instructions at small scale.
CHIP_KERNELS = ("bfs", "hotspot")

#: Scale of the emulator-traced irregular kernels (section 8) that
#: table1-compile also compiles.  At ``small`` scale their 160 warps
#: have 78 register shapes, against 44 shapes across 1,454 warps for the
#: 26 Table 1 kernels at ``tiny`` scale.
IRREGULAR_SCALE = "small"

#: Smallest register budget a spill point may use.
MIN_SPILL_REGS = 6
#: Seeded unified points of the capacity sweep (Table 6, Fig 11).
SWEEP_CAPACITIES_KB = (128, 192, 256, 320)
SWEEP_THREAD_TARGETS = (512, 768, 1024)
#: Chip shapes drawn by chip-profile: every combination of these, drawn
#: without replacement per kernel.
CHIP_SHAPES = tuple(
    {"num_sms": sms, "dram_partitioned": part, "mshr_entries": mshrs,
     "dram_banks": banks, "design": design}
    for sms, part, mshrs, banks, design in itertools.product(
        (2, 4, 8, 16, 32), (False, True), (0, 8, 32), (1, 4, 8), ("baseline", "unified384")
    )
)  # fmt: skip
CHIP_SHAPES_PER_KERNEL = 3
#: Interval-metrics window and trace bound of a profiled chip run.
CHIP_METRICS_WINDOW = 2000
CHIP_TRACE_EVENTS = 20_000


class CheckFailed(Exception):
    """An output violated an invariant the benchmark checks."""


class TraceStore:
    """Serves set-up traces to runners through their ``cache`` seam.

    :meth:`Runner.trace` consults its cache before building a trace, so
    runners made for a timed pass reuse the traces set-up built.  Every
    other lookup misses and every other store is dropped, so nothing
    else carries over between passes.
    """

    def __init__(self) -> None:
        self._traces: dict = {}
        #: Emulator-traced irregular kernels by name, which are not in the
        #: registry runners build from; workloads compile them directly.
        self.irregular: dict = {}

    def get_trace(self, key):
        return self._traces.get(key)

    def put_trace(self, key, trace) -> None:
        self._traces[key] = trace

    def get_result(self, key):
        return None

    def put_result(self, key, result) -> None:
        pass

    def get_meta(self, key):
        return None

    def put_meta(self, key, payload) -> None:
        pass


def spill_budget(fraction: float, max_live: int) -> int:
    """A register budget below peak liveness, so the compiler spills."""
    return min(max_live - 1, max(MIN_SPILL_REGS, math.floor(fraction * max_live)))


def warp_ops(traces) -> int:
    return sum(len(w) for t in traces for cta in t.ctas for w in cta.warps)


def shape_share(traces) -> float:
    """Distinct register shapes over warps (a shape: ops without addresses)."""
    warps = [w for t in traces for cta in t.ctas for w in cta.warps]
    shapes = {tuple((op.op, op.dst, op.srcs) for op in w) for w in warps}
    return len(shapes) / len(warps) if warps else 0.0


class Pass:
    """Outcomes, counts and simulated statistics of one pass."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.digests: dict[str, str] = {}
        self.errors: dict[str, str] = {}
        self.refused = 0
        self.counts: Counter = Counter()
        self.paper_errors: list[float] = []
        self.wall_s = 0.0
        self._simulated: set = set()

    @contextmanager
    def op(self, op_id: str):
        """One workload operation: a kernel at one design point."""
        with self.tracer.span(op_id, BENCH_LAYER, op=True):
            try:
                yield
            except REFUSALS as e:
                self.refused += 1
                self.record(op_id, {"refused": type(e).__name__, "message": str(e)})
            except Exception as e:
                self.errors[op_id] = traceback.format_exc()
                self.digests[op_id] = f"error:{type(e).__name__}"

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        with self.tracer.span(name, layer):
            return fn(*args, **kwargs)

    def record(self, op_id: str, payload) -> None:
        self.digests[op_id] = digest(payload)

    def compiled(self, summary: CompiledSummary, nospill_ops: int | None = None) -> None:
        self.counts["compile_ops"] += summary.total_ops
        if nospill_ops is not None:
            self.counts["spill_ops"] += summary.total_ops - nospill_ops

    def simulate(self, kernel: str, fn, *args, **kwargs):
        """Run one single-SM simulation of ``kernel``, timed as first or warm.

        The first simulation of a compiled kernel runs the event core
        (tiered warm-up); later ones replay columnar programs.
        """
        first = kernel not in self._simulated
        self._simulated.add(kernel)
        r = self.call("simulate.first" if first else "simulate.warm", SM, fn, *args, **kwargs)
        self.counts["sims"] += 1
        self.counts["sim_insts"] += r.instructions
        self._memory(r)
        self.counts["sim_cycles"] += r.cycles
        return r

    def chip(self, c) -> None:
        self.counts["chip_sims"] += 1
        self.counts["chip_insts"] += c.instructions
        self.counts["sim_cycles"] += c.cycles
        for r in c.per_sm:
            self._memory(r, memsys=False)
        memsys = c.notes.get("memsys", {})
        self.counts["mshr_merges"] += memsys.get("secondary_merges", 0)
        self.counts["row_hits"] += memsys.get("dram_row_hits", 0)
        self.counts["row_misses"] += memsys.get("dram_row_misses", 0)

    def _memory(self, r, *, memsys: bool = True) -> None:
        s = r.cache_stats
        self.counts["cache_hits"] += s.read_hits + s.write_hits
        self.counts["cache_accesses"] += s.accesses
        self.counts["bank_conflict_cycles"] += r.bank_conflict_cycles
        self.counts["dram_bytes"] += r.dram_bytes
        if not memsys:
            return
        memsys = r.notes.get("memsys", {})
        self.counts["mshr_merges"] += memsys.get("mshr", {}).get("secondary_merges", 0)
        self.counts["row_hits"] += memsys.get("dram_row_hits", 0)
        self.counts["row_misses"] += memsys.get("dram_row_misses", 0)


class Workload:
    """One workload; constructing it draws every seeded choice."""

    name = ""
    #: Trace scale the benchmark runs the workload at.
    scale = "small"
    #: Kernels one pass runs, in order (set by each workload).
    kernels: list[str]

    def __init__(self, seed: int, scale: str | None = None) -> None:
        self.seed = seed
        self.scale = scale or self.scale
        self.rng = random.Random(f"{self.name}/{seed}")

    def selection(self) -> dict:
        """Every seeded choice, as JSON."""
        raise NotImplementedError

    def build_inputs(self):
        """Set-up: build the trace of every kernel the passes run."""
        store = TraceStore()
        rn = Runner(self.scale, cache=store)
        for name in self.kernels:
            rn.trace(name)
        return store

    def traces(self, inputs) -> list:
        rn = Runner(self.scale, cache=inputs)
        return [rn.trace(name) for name in self.kernels] + list(inputs.irregular.values())

    def run_pass(self, inputs, p: Pass) -> None:
        raise NotImplementedError


def compile_summary(trace) -> CompiledSummary:
    return CompiledSummary.of(compile_kernel(trace))


class Table1Compile(Workload):
    """Table 1's register columns: every kernel at the no-spill budget and
    at a seeded spill budget, through ``Runner.summary``; then the four
    emulator-traced irregular kernels of section 8 at their no-spill
    budget, through ``compile_kernel``.

    The compiler does nearly all the work and nothing simulates, so a
    simulator change must read as no change here.  At ``tiny`` scale the
    Table 1 kernels keep their 44 register shapes across 1,454 warps; the
    irregular kernels add shape-diverse compilation, almost one shape per
    warp, and their set-up runs the SIMT emulator.
    """

    name = "table1-compile"
    scale = "tiny"

    def __init__(self, seed: int, scale: str | None = None) -> None:
        super().__init__(seed, scale)
        self.irregular_scale = scale or IRREGULAR_SCALE
        self.kernels = [bm.name for bm in all_benchmarks()]
        self.spill_fraction = {k: round(self.rng.uniform(0.5, 0.9), 3) for k in self.kernels}

    def selection(self) -> dict:
        return {"kernels": self.kernels, "spill_fraction": self.spill_fraction}

    def build_inputs(self):
        store = super().build_inputs()
        for w in all_irregular():
            store.irregular[w.name] = w.build(self.irregular_scale)
        return store

    def run_pass(self, inputs, p: Pass) -> None:
        rn = Runner(self.scale, cache=inputs)
        for k in self.kernels:
            nospill = None
            with p.op(f"{k}/nospill"):
                nospill = p.call("compile", COMPILER, rn.summary, k)
                p.compiled(nospill)
                p.record(f"{k}/nospill", nospill.to_dict())
            if nospill is None:
                continue
            regs = spill_budget(self.spill_fraction[k], nospill.max_live)
            with p.op(f"{k}/r{regs}"):
                s = p.call("compile", COMPILER, rn.summary, k, regs)
                p.compiled(s, nospill.total_ops)
                p.record(f"{k}/r{regs}", s.to_dict())
        for name, trace in inputs.irregular.items():
            with p.op(f"{name}/nospill"):
                s = p.call("compile", COMPILER, compile_summary, trace)
                p.compiled(s)
                p.record(f"{name}/nospill", s.to_dict())


class CapacitySweep(Workload):
    """The section 6 sweep (Figs 4/9/11, Table 6): each kernel compiled
    once, then simulated and priced under the baseline, both Fermi-like
    splits, the 384 KB unified allocation and a seeded (capacity, thread
    target) point, each under the blocking Table 2 config and a seeded
    MSHR + banked-DRAM variant.

    Warm columnar replay does most of the work and compile is amortised;
    the blocking and non-blocking halves use the memory layer two ways.
    """

    name = "capacity-sweep"

    def __init__(self, seed: int, scale: str | None = None) -> None:
        super().__init__(seed, scale)
        rng = self.rng
        self.kernels = [*SWEEP_KERNELS, rng.choice(BALANCED_CONTROLS)]
        self.points = {
            k: (rng.choice(SWEEP_CAPACITIES_KB), rng.choice(SWEEP_THREAD_TARGETS))
            for k in self.kernels
        }
        self.memsys = {
            "mshr_entries": rng.choice((8, 16, 32)),
            "dram_banks": rng.choice((4, 8, 16)),
            "dram_row_hit_latency": rng.choice((100, 200, 300)),
        }

    def selection(self) -> dict:
        return {"kernels": self.kernels, "points": self.points, "memsys": self.memsys}

    def run_pass(self, inputs, p: Pass) -> None:
        rn = Runner(self.scale, cache=inputs)
        configs = (("blocking", rn), ("mshr", rn.variant(SMConfig(**self.memsys))))
        for k in self.kernels:
            with p.op(f"{k}/compile"):
                s = p.call("compile", COMPILER, rn.summary, k)
                p.compiled(s)
                p.record(f"{k}/compile", s.to_dict())
            cap, threads = self.points[k]
            designs = (
                ("baseline", partitioned_baseline(), None, None),
                ("fermi0", fermi_like(0), None, None),
                ("fermi1", fermi_like(1), None, None),
                ("unified384", None, 384, None),
                (f"unified{cap}-t{threads}", None, cap, threads),
            )
            for label, runner in configs:
                results = {}
                for design, partition, kb, target in designs:
                    op_id = f"{k}/{label}/{design}"
                    with p.op(op_id):
                        if partition is None:
                            alloc = p.call("allocate", CORE, runner.allocation, k, kb, target)
                            partition = alloc.partition
                        r = p.simulate(k, runner.simulate, k, partition, thread_target=target)
                        priced = p.call("price", ENERGY, runner.priced, r, results.get("baseline"))
                        results[design] = r
                        p.record(op_id, {"sim": sim_fields(r), "energy_j": priced.energy.total_j})
                if label == "blocking" and "baseline" in results and "unified384" in results:
                    speedup = results["unified384"].speedup_over(results["baseline"])
                    paper = get_benchmark(k).paper_speedup_384
                    p.paper_errors.append(abs(math.log(speedup / paper)))


class ChipProfile(Workload):
    """Chip scope with observability: each kernel over seeded chip shapes
    (SM count, shared or partitioned DRAM, MSHR depth, DRAM banks), each
    shape run plain and again with a ``ChipCollector`` whose report,
    chipmetrics and bounded trace payloads are built in memory.

    The only workload where ``repro.chip`` and ``repro.obs`` do the
    work; its instrumented replay uses the replay layer differently
    from the capacity sweep.
    """

    name = "chip-profile"

    def __init__(self, seed: int, scale: str | None = None) -> None:
        super().__init__(seed, scale)
        rng = self.rng
        self.kernels = list(CHIP_KERNELS)
        self.shapes = {k: rng.sample(CHIP_SHAPES, CHIP_SHAPES_PER_KERNEL) for k in self.kernels}

    def selection(self) -> dict:
        return {"kernels": self.kernels, "shapes": self.shapes}

    def run_pass(self, inputs, p: Pass) -> None:
        rn = Runner(self.scale, cache=inputs)
        for k in self.kernels:
            with p.op(f"{k}/compile"):
                p.call("compile", COMPILER, rn.compiled, k)
                s = rn.summary(k)
                p.compiled(s)
                p.record(f"{k}/compile", s.to_dict())
            for i, shape in enumerate(self.shapes[k]):
                chip = ChipConfig(
                    num_sms=shape["num_sms"],
                    dram_partitioned=shape["dram_partitioned"],
                    sm=SMConfig(
                        mshr_entries=shape["mshr_entries"], dram_banks=shape["dram_banks"]
                    ),
                )
                plain = None
                op_id = f"{k}/chip{i}/plain"
                with p.op(op_id):
                    if shape["design"] == "baseline":
                        partition = partitioned_baseline()
                    else:
                        partition = p.call("allocate", CORE, rn.allocation, k, 384).partition
                    plain = p.call("chip.plain", CHIP, rn.simulate_chip, k, partition, chip=chip)
                    p.chip(plain)
                    p.record(op_id, chip_fields(plain))
                if plain is None:
                    continue
                op_id = f"{k}/chip{i}/profiled"
                with p.op(op_id):
                    self._profiled(rn, k, partition, chip, plain, op_id, p)

    @staticmethod
    def _profiled(rn, k, partition, chip, plain, op_id, p: Pass) -> None:
        cc = ChipCollector.for_chip(
            chip,
            metrics_window=CHIP_METRICS_WINDOW,
            trace=True,
            max_trace_events=CHIP_TRACE_EVENTS,
        )
        prof = p.call(
            "chip.profiled", OBS, rn.simulate_chip, k, partition, chip=chip, chip_collector=cc
        )
        with p.tracer.span("obs.payload", OBS):
            report = cc.report()
            chipmetrics = cc.chipmetrics_payload()
            trace = cc.trace_payload()
        if not report["conservation_ok"]:
            errors = cc.conservation_errors()
            p.counts["conservation_errors"] += len(errors)
            raise CheckFailed(f"{op_id}: stall attribution lost cycles: {errors[:3]}")
        if chip_fields(prof, stalls=False) != chip_fields(plain, stalls=False):
            raise CheckFailed(f"{op_id}: profiled run differs from its plain twin")
        p.counts["profiled_insts"] += prof.instructions
        stalls = cc.stall_totals()
        for cause in STALL_CAUSES:
            p.counts[f"stall.{cause}"] += stalls[cause]
        p.counts["trace_events"] += len(trace["traceEvents"])
        p.record(
            op_id,
            {
                "chip": chip_fields(prof),
                "stalls": stalls,
                "report": digest(report),
                "chipmetrics_samples": len(chipmetrics["samples"]),
                "trace_events": len(trace["traceEvents"]),
            },
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Table1Compile, CapacitySweep, ChipProfile)
}

"""Shared experiment machinery: build, compile, simulate, price -- cached.

Traces depend only on (benchmark, scale, extra build params); compiled
kernels add the register budget; simulations add the partition, thread
target, and SM configuration.  Each level is memoised so sweeps over
memory configurations re-use the expensive trace/compile work, exactly
like the paper's trace-driven methodology re-runs one trace through many
configurations.

Two cache layers:

* an **in-memory memo** per :class:`Runner` (always on), and
* an optional **on-disk artifact cache**
  (:class:`~repro.experiments.artifacts.DiskCache`) shared across
  processes and runs: traces persist as ``.npz`` via
  :mod:`repro.isa.io`, simulation results as JSON via
  :mod:`repro.sm.serialize`, and compile summaries / unified
  allocations / chip results / expected failures as small JSON "meta"
  entries.

Every simulation memo key folds in a fingerprint of the
:class:`SMConfig`, so two runners sharing a disk cache -- or config
*variants* of one runner (:meth:`Runner.variant`) -- can never serve
each other stale results.

The **journal** is the executor's delta-shipping hook: while a journal
is armed (:meth:`Runner.journal_reset`), every newly memoised
simulation, allocation, compile summary, and expected failure is
recorded as a ``(kind, key, value)`` entry, which a parent process can
:meth:`Runner.adopt` to warm its own memo without redoing the work.

One method, ``Runner._make``, makes every journaled artefact, and
``_KINDS`` gives each kind its disk-key versions and codec.  An entry
that does not decode is a miss; the recomputed artefact overwrites it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Callable

import repro
from repro.chip import (
    CHIP_RESULT_FORMAT_VERSION,
    ChipConfig,
    ChipResult,
    chip_fingerprint,
    chip_result_from_dict,
    chip_result_to_dict,
    simulate_chip,
)
from repro.compiler import CompiledKernel, compile_kernel
from repro.core import allocate_unified, fermi_like, partitioned_baseline
from repro.core.allocator import AllocationError, UnifiedAllocation
from repro.core.partition import KB, MemoryPartition
from repro.energy import EnergyBreakdown, EnergyModel
from repro.isa import io as trace_io
from repro.memory.dram import channel_utilisation
from repro.isa.kernel import KernelTrace
from repro.kernels import get_benchmark
from repro.sm import SMConfig, SimResult, simulate
from repro.sm.cta_scheduler import LaunchError
from repro.sm.serialize import (
    RESULT_FORMAT_VERSION,
    partition_from_dict,
    partition_to_dict,
)

#: Exception classes a worker may legitimately surface to the parent;
#: anything else is a bug and propagates.
EXPECTED_ERRORS: dict[str, type[Exception]] = {
    "LaunchError": LaunchError,
    "AllocationError": AllocationError,
    "ValueError": ValueError,
}


@dataclass(frozen=True)
class BenchmarkRun:
    """One priced simulation."""

    result: SimResult
    energy: EnergyBreakdown

    @property
    def cycles(self) -> float:
        return self.result.cycles

    @property
    def dram_accesses(self) -> int:
        return self.result.dram_accesses


@dataclass(frozen=True, slots=True)
class CompiledSummary:
    """The compile facts experiment drivers consume.

    Unlike a full :class:`~repro.compiler.compiled.CompiledKernel`
    (one record per dynamic instruction), the summary is a handful of
    integers -- cheap to ship between processes and to persist, which is
    what lets warm-cache reruns of Table 1 skip recompilation entirely.
    """

    name: str
    regs_per_thread: int
    max_live: int
    total_ops: int
    spill_slots: int
    threads_per_cta: int
    smem_bytes_per_cta: int
    mrf_reads: int

    @property
    def smem_bytes_per_thread(self) -> float:
        return self.smem_bytes_per_cta / self.threads_per_cta

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(CompiledSummary)}

    @classmethod
    def from_dict(cls, d: dict) -> "CompiledSummary":
        return cls(**{f.name: d[f.name] for f in fields(cls)})

    @classmethod
    def of(cls, ck: CompiledKernel) -> "CompiledSummary":
        return cls(
            name=ck.name,
            regs_per_thread=ck.regs_per_thread,
            max_live=ck.max_live,
            total_ops=ck.total_ops,
            spill_slots=ck.spill_slots,
            threads_per_cta=ck.launch.threads_per_cta,
            smem_bytes_per_cta=ck.launch.smem_bytes_per_cta,
            mrf_reads=ck.rf_traffic().mrf_reads,
        )


def _partition_key(p: MemoryPartition) -> tuple:
    return (p.style.value, p.rf_bytes, p.smem_bytes, p.cache_bytes)


def config_fingerprint(config: SMConfig) -> tuple:
    """Stable, hashable, JSON-compatible rendering of an SMConfig."""
    return tuple((f.name, getattr(config, f.name)) for f in fields(SMConfig))


def _raise_expected(record: tuple[str, str]) -> None:
    kind, message = record
    raise EXPECTED_ERRORS[kind](message)


def _refusal_to_dict(record: tuple[str, str]) -> dict:
    return {"error": record[0], "message": record[1]}


def _refusal_from_dict(d: dict) -> tuple[str, str]:
    if d["error"] not in EXPECTED_ERRORS:
        raise ValueError(f"unknown refusal {d['error']!r}")
    return d["error"], d["message"]


def _alloc_to_dict(alloc: UnifiedAllocation) -> dict:
    return {
        "partition": partition_to_dict(alloc.partition),
        "resident_ctas": alloc.resident_ctas,
        "resident_threads": alloc.resident_threads,
    }


def _alloc_from_dict(d: dict) -> UnifiedAllocation:
    return UnifiedAllocation(
        partition=partition_from_dict(d["partition"]),
        resident_ctas=d["resident_ctas"],
        resident_threads=d["resident_threads"],
    )


@dataclass(frozen=True, slots=True)
class _Kind:
    """How one journaled kind is stored in the disk cache.

    Its disk key is ``(kind, *versions, repro.__version__, scale, key)``.
    A kind without a codec is a :class:`SimResult` result entry; the
    others are meta entries.  ``refusal`` names the kind that remembers
    the expected error class its computation may raise.
    """

    versions: tuple = ()
    encode: Callable[[Any], dict] | None = None
    decode: Callable[[dict], Any] | None = None
    refusal: tuple[str, type[Exception]] | None = None


_KINDS: dict[str, _Kind] = {
    "sim": _Kind((RESULT_FORMAT_VERSION,), refusal=("sim_error", LaunchError)),
    # Both schema versions: the chip envelope's and the per-SM result
    # format the envelope embeds.
    "chip": _Kind(
        (CHIP_RESULT_FORMAT_VERSION, RESULT_FORMAT_VERSION),
        chip_result_to_dict,
        chip_result_from_dict,
    ),
    "sim_error": _Kind((), _refusal_to_dict, _refusal_from_dict),
    "alloc": _Kind((), _alloc_to_dict, _alloc_from_dict, ("alloc_error", AllocationError)),
    "alloc_error": _Kind((), _refusal_to_dict, _refusal_from_dict),
    "summary": _Kind((), CompiledSummary.to_dict, CompiledSummary.from_dict),
}


class _Memo(dict):
    """One dict per journaled kind, plus the journal (``None`` until armed)."""

    def __init__(self) -> None:
        super().__init__((kind, {}) for kind in _KINDS)
        self.journal: list[tuple[str, tuple, object]] | None = None


class Runner:
    """Caching façade over the kernel suite and the SM simulator.

    Args:
        scale: Workload scale ("tiny", "small", "paper").
        config: SM timing parameters; defaults to the paper's Table 2.
        cache: Optional :class:`~repro.experiments.artifacts.DiskCache`
            backing the in-memory memo.  Safe to share between processes
            (the executor's workers) and across runs.
    """

    def __init__(
        self,
        scale: str = "small",
        config: SMConfig | None = None,
        cache=None,
    ) -> None:
        self.scale = scale
        self.config = config or SMConfig()
        self.cache = cache
        self.energy_model = EnergyModel()
        self._traces: dict[tuple, KernelTrace] = {}
        self._compiled: dict[tuple, CompiledKernel] = {}
        self._memo = _Memo()

    def variant(self, config: SMConfig) -> "Runner":
        """A runner for a different SMConfig sharing every memo.

        Simulation keys embed the config fingerprint, so the shared
        memo cannot mix results across configs; traces, compiles, and
        allocations are config-independent and genuinely shared.  The
        journal is shared too, so the executor sees one stream.
        """
        v = Runner(self.scale, config, cache=self.cache)
        v._traces, v._compiled, v._memo = self._traces, self._compiled, self._memo
        return v

    # -- journal (executor delta shipping) --------------------------------
    def journal_reset(self) -> list[tuple[str, tuple, object]]:
        """Arm the journal and return entries recorded since last reset."""
        entries = self._memo.journal or []
        self._memo.journal = []
        return entries

    def adopt(self, entries) -> None:
        """Merge journal entries from another Runner (worker process)."""
        for kind, key, value in entries:
            self._memo[kind].setdefault(tuple(key), value)

    # -- the artefact protocol ----------------------------------------------
    def _make(self, kind: str, key: tuple, compute: Callable[[], Any], lookup: bool = True):
        """Make one journaled artefact: the one path every kind takes.

        Tries the memo, a remembered refusal, the disk entry and a disk
        refusal, then ``compute``, keeping its result -- or the refusal
        it raised -- in the memo, the journal and the disk cache.
        ``lookup=False`` skips to ``compute`` and overwrites the memo.
        """
        refusal, refused_by = _KINDS[kind].refusal or (None, ())
        if lookup:
            if key in self._memo[kind]:
                return self._memo[kind][key]
            if refusal and key in self._memo[refusal]:
                _raise_expected(self._memo[refusal][key])
            if self.cache is not None:
                value = self._load(kind, key)
                if value is not None:
                    return self._keep(kind, key, value, store=False)
                record = self._load(refusal, key) if refusal else None
                if record is not None:
                    _raise_expected(self._keep(refusal, key, record, store=False))
        try:
            value = compute()
        except refused_by as e:
            self._keep(refusal, key, (refused_by.__name__, str(e)))
            raise
        return self._keep(kind, key, value)

    def _keep(self, kind: str, key: tuple, value, store: bool = True):
        """Remember ``value`` in the memo and the journal, and on disk if ``store``."""
        self._memo[kind][key] = value
        if self._memo.journal is not None:
            self._memo.journal.append((kind, key, value))
        if store and self.cache is not None:
            encode = _KINDS[kind].encode
            if encode is None:
                self.cache.put_result(self._disk_key(kind, key), value)
            else:
                self.cache.put_meta(self._disk_key(kind, key), encode(value))
        return value

    def _load(self, kind: str, key: tuple):
        """The disk entry of ``kind`` at ``key``; None if absent or malformed."""
        decode = _KINDS[kind].decode
        if decode is None:
            return self.cache.get_result(self._disk_key(kind, key))
        payload = self.cache.get_meta(self._disk_key(kind, key))
        try:
            return None if payload is None else decode(payload)
        except (KeyError, TypeError, ValueError):
            return None

    def _disk_key(self, kind: str, key: tuple) -> tuple:
        return (kind, *_KINDS[kind].versions, repro.__version__, self.scale, key)

    # -- cache keys -------------------------------------------------------
    def sim_key(
        self,
        name: str,
        partition: MemoryPartition,
        regs: int | None = None,
        thread_target: int | None = None,
        **params,
    ) -> tuple:
        """The memo key one simulation is stored under (config included)."""
        return (
            name,
            regs,
            _partition_key(partition),
            thread_target,
            tuple(sorted(params.items())),
            config_fingerprint(self.config),
        )

    def chip_sim_key(
        self,
        name: str,
        partition: MemoryPartition,
        chip: ChipConfig,
        regs: int | None = None,
        thread_target: int | None = None,
        **params,
    ) -> tuple:
        """The memo key one chip simulation is stored under.

        The :func:`~repro.chip.chip_fingerprint` stands in for the
        SMConfig fingerprint of :meth:`sim_key` -- it embeds the nested
        per-SM config, so chips differing in SM timing, SM count, or
        DRAM arbitration never share an entry.
        """
        return (
            name,
            regs,
            _partition_key(partition),
            thread_target,
            tuple(sorted(params.items())),
            chip_fingerprint(chip),
        )

    @staticmethod
    def _split_params(params: dict) -> tuple[dict, dict]:
        """Separate trace build params from compile params.

        ``orf_entries`` is a compiler knob (RF-hierarchy ablations), not
        a benchmark build parameter; it still participates in compile
        and simulation keys via the caller's ``params``.
        """
        build = {k: v for k, v in params.items() if k != "orf_entries"}
        comp = {k: v for k, v in params.items() if k == "orf_entries"}
        return build, comp

    # -- construction ---------------------------------------------------
    def trace(self, name: str, **params) -> KernelTrace:
        build, _ = self._split_params(params)
        key = (name, tuple(sorted(build.items())))
        if key not in self._traces:
            trace = None
            if self.cache is not None:
                disk_key = ("trace", trace_io.FORMAT_VERSION, repro.__version__, self.scale, *key)
                trace = self.cache.get_trace(disk_key)
            if trace is None:
                trace = get_benchmark(name).build(self.scale, **build)
                if self.cache is not None:
                    self.cache.put_trace(disk_key, trace)
            self._traces[key] = trace
        return self._traces[key]

    def compiled(self, name: str, regs: int | None = None, **params) -> CompiledKernel:
        key = (name, regs, tuple(sorted(params.items())))
        if key not in self._compiled:
            ck = self._compile(key, name, regs, params)
            # Workers ship summaries, never kernels: each compile keeps one.
            if key not in self._memo["summary"]:
                self._keep("summary", key, CompiledSummary.of(ck))
        return self._compiled[key]

    def _compile(self, key: tuple, name: str, regs: int | None, params: dict) -> CompiledKernel:
        """Compile into the kernel memo; the caller keeps the summary."""
        build, comp = self._split_params(params)
        ck = self._compiled[key] = compile_kernel(self.trace(name, **build), regs, **comp)
        return ck

    def summary(self, name: str, regs: int | None = None, **params) -> CompiledSummary:
        """Compile facts without the instruction stream (cache-friendly).

        Prefer this over :meth:`compiled` when only ``max_live`` /
        ``total_ops`` / launch geometry are needed: warm caches answer
        it without recompiling, and the executor ships it between
        processes for pennies.
        """
        key = (name, regs, tuple(sorted(params.items())))
        return self._make(
            "summary",
            key,
            lambda: CompiledSummary.of(self._compile(key, name, regs, params)),
        )

    def no_spill_regs(self, name: str, **params) -> int:
        """Registers/thread to avoid spills (Table 1, column 2)."""
        return self.summary(name, **params).max_live

    # -- simulation -----------------------------------------------------
    def simulate(
        self,
        name: str,
        partition: MemoryPartition,
        regs: int | None = None,
        thread_target: int | None = None,
        **params,
    ) -> SimResult:
        key = self.sim_key(
            name, partition, regs=regs, thread_target=thread_target, **params
        )
        return self._make(
            "sim",
            key,
            lambda: simulate(
                self.compiled(name, regs, **params),
                partition,
                self.config,
                thread_target=thread_target,
            ),
        )

    def simulate_chip(
        self,
        name: str,
        partition: MemoryPartition,
        chip: ChipConfig | None = None,
        regs: int | None = None,
        thread_target: int | None = None,
        chip_collector=None,
        **params,
    ) -> ChipResult:
        """Run one kernel launch across a whole chip (memoised + cached).

        Defaults to the paper's 32-SM chip built from this runner's
        SMConfig; pass ``chip`` for other shapes (``ChipConfig.single_sm``
        reproduces :meth:`simulate` bit for bit).  Chip artifacts persist
        in the disk cache as JSON meta entries and ship through the
        journal like single-SM results.

        ``chip_collector`` (a :class:`~repro.obs.chip.ChipCollector`)
        forces a live run -- a memoised result would leave the collector
        with nothing observed -- but the result is still stored, which
        neutrality makes safe: instrumented and uninstrumented runs are
        bit-identical.
        """
        cfg = chip or ChipConfig(sm=self.config)
        key = self.chip_sim_key(
            name, partition, cfg, regs=regs, thread_target=thread_target, **params
        )
        return self._make(
            "chip",
            key,
            lambda: simulate_chip(
                self.compiled(name, regs, **params),
                partition,
                cfg,
                thread_target=thread_target,
                chip_collector=chip_collector,
            ),
            lookup=chip_collector is None or not chip_collector.enabled,
        )

    def baseline(self, name: str, **kw) -> SimResult:
        """The 256/64/64 partitioned baseline (Section 2.1)."""
        return self.simulate(name, partitioned_baseline(), **kw)

    def allocation(
        self,
        name: str,
        total_kb: int = 384,
        thread_target: int | None = None,
        **params,
    ) -> UnifiedAllocation:
        """The Section 4.5 allocation at ``total_kb`` (memoised).

        Like :meth:`simulate`, expected :class:`AllocationError` outcomes
        are memoised and persisted so capacity sweeps whose small points
        do not fit never re-derive the refusal.
        """
        key = (name, total_kb, thread_target, tuple(sorted(params.items())))

        def compute() -> UnifiedAllocation:
            ck = self.summary(name, **params)
            return allocate_unified(
                total_kb * KB,
                regs_per_thread=ck.max_live,
                threads_per_cta=ck.threads_per_cta,
                smem_bytes_per_cta=ck.smem_bytes_per_cta,
                thread_target=thread_target if thread_target is not None else 1024,
            )

        return self._make("alloc", key, compute)

    def unified(
        self,
        name: str,
        total_kb: int = 384,
        thread_target: int | None = None,
        **params,
    ) -> tuple[SimResult, UnifiedAllocation]:
        """Section 4.5 allocation at ``total_kb`` followed by simulation."""
        alloc = self.allocation(
            name, total_kb=total_kb, thread_target=thread_target, **params
        )
        result = self.simulate(
            name, alloc.partition, thread_target=thread_target, **params
        )
        return result, alloc

    def fermi_best(self, name: str, **params) -> SimResult:
        """Fermi-like design with the better of the two splits.

        The paper's programmer picks the configuration per kernel; we
        simulate both and keep the faster, which is what tuning would
        converge to.  Splits whose occupancy cannot fit the kernel are
        skipped.
        """
        best: SimResult | None = None
        for split in (0, 1):
            try:
                r = self.simulate(name, fermi_like(split), **params)
            except LaunchError:
                continue
            if best is None or r.cycles < best.cycles:
                best = r
        if best is None:
            raise LaunchError(f"{name} fits neither Fermi-like split")
        return best

    # -- observability ----------------------------------------------------
    def sim_keys(self) -> frozenset:
        """Snapshot of the memoised simulation keys (for run deltas)."""
        return frozenset(self._memo["sim"])

    def sim_metrics(self, keys=None) -> dict:
        """Deterministic metrics over the memoised simulations.

        Records are ordered by the ``repr`` of the memo key and carry no
        wall-clock, so the payload is byte-identical between serial and
        forked runs of the same sweep -- the ``--metrics-out`` contract
        (wall-clock belongs in the run manifest instead).  ``keys``
        restricts the aggregate: pass the delta against a
        :meth:`sim_keys` snapshot to scope one experiment.
        """
        sims = self._memo["sim"]
        if keys is None:
            selected = dict(sims)
        else:
            selected = {k: sims[k] for k in keys if k in sims}
        records = []
        hits = accesses = instructions = dram_bytes = 0
        util_sum = 0.0
        for key in sorted(selected, key=repr):
            r = selected[key]
            # key[-1] is the SMConfig fingerprint this simulation ran
            # under; it carries the DRAM bandwidth utilisation is
            # graded against.
            bpc = dict(key[-1])["dram_bytes_per_cycle"]
            util = channel_utilisation(r.dram_bytes, bpc, r.cycles)
            stats = r.cache_stats
            # key[-1] IS the config fingerprint, so hashing it the way
            # sm_config_digest does yields the same digest spans and
            # manifests carry -- the diff engine's strictest alignment
            # tier joins on it.
            config_digest = hashlib.sha256(
                json.dumps(key[-1], sort_keys=True, default=str).encode()
            ).hexdigest()
            records.append(
                {
                    "kernel": r.kernel,
                    "partition": partition_to_dict(r.partition),
                    "regs": key[1],
                    "thread_target": key[3],
                    "config_digest": config_digest,
                    "cycles": r.cycles,
                    "instructions": r.instructions,
                    "ipc": r.ipc,
                    "resident_threads": r.resident_threads,
                    "bank_conflict_cycles": r.bank_conflict_cycles,
                    "conflict_histogram": r.conflict_histogram.to_dict(),
                    "cache": stats.to_dict(),
                    "dram_accesses": r.dram_accesses,
                    "dram_bytes": r.dram_bytes,
                    "dram_utilisation": util,
                    "stall_cycles": r.stall_cycles,
                }
            )
            hits += stats.read_hits + stats.write_hits
            accesses += stats.accesses
            instructions += r.instructions
            dram_bytes += r.dram_bytes
            util_sum += util
        n = len(records)
        return {
            "schema": "repro.obs.run_metrics/1",
            "totals": {
                "simulations": n,
                "instructions": instructions,
                "cache_accesses": accesses,
                "cache_hit_rate": hits / accesses if accesses else 0.0,
                "dram_bytes": dram_bytes,
                "mean_dram_utilisation": util_sum / n if n else 0.0,
            },
            "simulations": records,
        }

    # -- pricing ----------------------------------------------------------
    def priced(self, result: SimResult, baseline: SimResult | None = None) -> BenchmarkRun:
        base_cycles = baseline.cycles if baseline is not None else result.cycles
        return BenchmarkRun(
            result=result,
            energy=self.energy_model.evaluate(result, baseline_cycles=base_cycles),
        )

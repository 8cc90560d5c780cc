"""Parallel experiment executor over a process pool.

The paper's evaluation is a large grid of *independent* simulations:
(benchmark, partition, register budget, thread target) points that
share traces and compiled kernels but nothing else.  This module fans
that grid over a ``multiprocessing`` pool:

1. A driver enumerates its sweep as a list of :class:`Job` specs
   (``jobs()`` in each ``figure*``/``table*``/``ablations`` module).
2. :meth:`Executor.prime` runs the jobs.  With ``jobs > 1`` the pool is
   forked from the parent, so workers inherit every trace and compiled
   kernel the parent has already memoised for free; each worker runs
   jobs through its (copy-on-write) :class:`Runner` and ships back the
   **journal** -- the small, picklable artefacts the job produced
   (simulation results, allocations, compile summaries, expected
   failures).  Traces and compiled kernels are never pickled; the
   shared :class:`~repro.experiments.artifacts.DiskCache` carries those
   across processes instead.
3. The parent :meth:`Runner.adopt`\\ s the journals, then the driver's
   unchanged serial assembly code replays against warm memos -- which is
   why ``--jobs 4`` output is byte-identical to ``--jobs 1``.

Failures a sweep *expects* (a configuration that cannot launch, an
allocation that does not fit) are journaled and replayed exactly like
results; anything else propagates out of :meth:`Executor.prime`.
Serial and forked runs time a job, catch its expected failure and take
its disk-cache stats delta in one function, ``_timed_job``.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from dataclasses import dataclass, field, fields
from typing import Callable

from repro.core.partition import MemoryPartition
from repro.experiments.runner import EXPECTED_ERRORS, Runner
from repro.obs.manifest import sm_config_digest
from repro.obs.spans import SpanRecorder
from repro.sm import SMConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class Job:
    """One unit of independent work for the pool.

    ``kind`` selects a handler from :data:`JOB_HANDLERS`; the built-in
    kinds mirror the Runner's vocabulary (``partition``, ``baseline``,
    ``unified``, ``fermi``, ``compile``) and drivers with composite
    steps register their own (e.g. Table 6's capacity points).
    ``config`` runs the job under an SMConfig other than the executor
    runner's (ablation sweeps); ``params`` are extra build/compile
    parameters as a sorted tuple of pairs.
    """

    kind: str
    benchmark: str
    partition: MemoryPartition | None = None
    regs: int | None = None
    thread_target: int | None = None
    total_kb: int | None = None
    params: tuple = ()
    config: SMConfig | None = None

    def describe(self) -> str:
        bits = [self.kind, self.benchmark]
        if self.partition is not None:
            bits.append(self.partition.describe())
        if self.total_kb is not None:
            bits.append(f"{self.total_kb}KB")
        if self.regs is not None:
            bits.append(f"regs={self.regs}")
        if self.thread_target is not None:
            bits.append(f"threads={self.thread_target}")
        bits.extend(f"{k}={v}" for k, v in self.params)
        if self.config is not None:
            bits.append("variant-config")
        return " ".join(bits)


#: kind -> handler(runner, job).  Handlers run inside workers (and in
#: the parent on the serial path); they must do all their work through
#: Runner methods so the journal captures every artefact.
JOB_HANDLERS: dict[str, Callable[[Runner, Job], object]] = {}


def register_job_kind(kind: str):
    """Register a handler for a custom job kind (importable by workers)."""

    def deco(fn):
        JOB_HANDLERS[kind] = fn
        return fn

    return deco


@register_job_kind("partition")
def _run_partition(rn: Runner, job: Job) -> None:
    rn.simulate(
        job.benchmark,
        job.partition,
        regs=job.regs,
        thread_target=job.thread_target,
        **dict(job.params),
    )


@register_job_kind("baseline")
def _run_baseline(rn: Runner, job: Job) -> None:
    rn.baseline(
        job.benchmark,
        regs=job.regs,
        thread_target=job.thread_target,
        **dict(job.params),
    )


@register_job_kind("unified")
def _run_unified(rn: Runner, job: Job) -> None:
    rn.unified(
        job.benchmark,
        total_kb=job.total_kb if job.total_kb is not None else 384,
        thread_target=job.thread_target,
        **dict(job.params),
    )


@register_job_kind("fermi")
def _run_fermi(rn: Runner, job: Job) -> None:
    rn.fermi_best(job.benchmark, **dict(job.params))


@register_job_kind("compile")
def _run_compile(rn: Runner, job: Job) -> None:
    rn.summary(job.benchmark, regs=job.regs, **dict(job.params))


@dataclass(frozen=True, slots=True)
class JobOutcome:
    """What happened to one job: wall-clock seconds and expected error."""

    job: Job
    seconds: float
    error: str | None = None


@dataclass
class ExecutionReport:
    """Timing and outcome summary of one :meth:`Executor.prime` call."""

    label: str
    workers: int
    outcomes: list[JobOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def job_seconds(self) -> float:
        """Summed per-job time: the serial cost of the same work."""
        return sum(o.seconds for o in self.outcomes)

    @property
    def errors(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.error is not None]

    def format(self) -> str:
        n = len(self.outcomes)
        lines = [
            f"[{self.label}] {n} jobs on {self.workers} worker(s): "
            f"{self.wall_seconds:.2f}s wall, {self.job_seconds:.2f}s of work"
        ]
        slowest = sorted(self.outcomes, key=lambda o: -o.seconds)[:3]
        for o in slowest:
            lines.append(f"  {o.seconds:7.2f}s  {o.job.describe()}")
        if self.errors:
            lines.append(f"  {len(self.errors)} job(s) raised expected errors:")
            for o in self.errors[:5]:
                lines.append(f"    {o.job.describe()}: {o.error}")
        return "\n".join(lines)


def _execute(rn: Runner, job: Job) -> None:
    runner = rn if job.config is None else rn.variant(job.config)
    JOB_HANDLERS[job.kind](runner, job)


# Fork-shared slot: set in the parent just before the pool forks, read
# by workers.  Holds the parent Runner so workers inherit its memoised
# traces and compiled kernels via copy-on-write.
_FORK_RUNNER: Runner | None = None

_EXPECTED = tuple(EXPECTED_ERRORS.values())


def _stats_snapshot(cache) -> dict[str, int]:
    return {f.name: getattr(cache.stats, f.name) for f in fields(cache.stats)}


def _timed_job(rn: Runner, job: Job) -> tuple[float, float, str | None, dict[str, int] | None]:
    """Run one job: its start and end stamps, expected error, and cache-stats delta."""
    before = _stats_snapshot(rn.cache) if rn.cache is not None else None
    start = time.perf_counter()
    error = None
    try:
        _execute(rn, job)
    except _EXPECTED as e:
        error = f"{type(e).__name__}: {e}"
    end = time.perf_counter()
    delta = None
    if before is not None:
        after = _stats_snapshot(rn.cache)
        delta = {k: after[k] - before[k] for k in after}
    return start, end, error, delta


def _run_job(
    indexed: tuple[int, Job],
) -> tuple[int, float, float, str | None, list, dict[str, int] | None, int]:
    idx, job = indexed
    rn = _FORK_RUNNER
    rn.journal_reset()
    # Disk-cache hits land in the worker; the stats delta lets the
    # parent's summary still report them.  Workers are forked, so the
    # perf_counter stamps share the parent's CLOCK_MONOTONIC base and
    # line up on one span timeline.
    start, end, error, stats = _timed_job(rn, job)
    return idx, start, end, error, rn.journal_reset(), stats, os.getpid()


class Executor:
    """Runs job lists for the experiment drivers, serially or forked.

    Args:
        runner: The parent Runner whose memo the executor warms.
        jobs: Worker process count; 1 (the default) runs in-process.
        progress: Write one line per completed job to ``stderr``.
        spans: Optional :class:`~repro.obs.spans.SpanRecorder`; when
            armed, every job emits a fleet-scope span (submit ->
            running -> done/cache-hit with worker id, config digest,
            cache disposition, journal adoption).  Recording observes
            wall-clock and cache counters only -- never simulation
            state -- so it cannot change a simulated cycle.
    """

    def __init__(
        self,
        runner: Runner,
        jobs: int = 1,
        progress: bool = False,
        spans: SpanRecorder | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.runner = runner
        self.jobs = jobs
        self.progress = progress
        self.spans = spans
        self.reports: list[ExecutionReport] = []
        self._digests: dict[SMConfig, str] = {}

    def _config_digest(self, job: Job) -> str | None:
        """The span's sim fingerprint: SMConfig digest, memoised."""
        if self.spans is None:
            return None
        config = job.config if job.config is not None else self.runner.config
        digest = self._digests.get(config)
        if digest is None:
            digest = self._digests[config] = sm_config_digest(config)
        return digest

    def prime(self, jobs: list[Job], label: str = "jobs") -> ExecutionReport:
        """Execute ``jobs`` and warm the runner's memo with the results."""
        workers = max(1, min(self.jobs, len(jobs)))
        report = ExecutionReport(label=label, workers=workers)
        submit = (
            self.spans.phase_start(label, workers)
            if self.spans is not None
            else time.perf_counter()
        )
        start = time.perf_counter()
        if workers == 1:
            self._prime_serial(jobs, report, submit)
        else:
            self._prime_forked(jobs, workers, report, submit)
        report.wall_seconds = time.perf_counter() - start
        if self.spans is not None:
            self.spans.phase_end()
        self.reports.append(report)
        return report

    def _note(self, done: int, total: int, outcome: JobOutcome) -> None:
        if self.progress:
            suffix = f"  [{outcome.error}]" if outcome.error else ""
            log.info(
                "  [%d/%d] %s %.2fs%s",
                done,
                total,
                outcome.job.describe(),
                outcome.seconds,
                suffix,
            )

    def _prime_serial(
        self, jobs: list[Job], report: ExecutionReport, submit: float
    ) -> None:
        for i, job in enumerate(jobs):
            start, end, error, delta = _timed_job(self.runner, job)
            outcome = JobOutcome(job, end - start, error)
            report.outcomes.append(outcome)
            self._note(i + 1, len(jobs), outcome)
            if self.spans is not None:
                self.spans.record_job(
                    job=job,
                    index=i,
                    submit=submit,
                    start=start,
                    end=end,
                    worker=os.getpid(),
                    error=error,
                    cache=delta,
                    config_digest=self._config_digest(job),
                )

    def _prime_forked(
        self, jobs: list[Job], workers: int, report: ExecutionReport, submit: float
    ) -> None:
        global _FORK_RUNNER
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork: stay correct, go serial
            self._prime_serial(jobs, report, submit)
            return
        outcomes: dict[int, JobOutcome] = {}
        _FORK_RUNNER = self.runner
        try:
            with ctx.Pool(processes=workers) as pool:
                results = pool.imap_unordered(_run_job, list(enumerate(jobs)))
                for idx, t_start, t_end, error, entries, stats, pid in results:
                    adopt_start = time.perf_counter()
                    self.runner.adopt(entries)
                    adopt_seconds = time.perf_counter() - adopt_start
                    if stats and self.runner.cache is not None:
                        for name, delta in stats.items():
                            setattr(
                                self.runner.cache.stats,
                                name,
                                getattr(self.runner.cache.stats, name) + delta,
                            )
                    outcomes[idx] = JobOutcome(jobs[idx], t_end - t_start, error)
                    self._note(len(outcomes), len(jobs), outcomes[idx])
                    if self.spans is not None:
                        self.spans.record_job(
                            job=jobs[idx],
                            index=idx,
                            submit=submit,
                            start=t_start,
                            end=t_end,
                            worker=pid,
                            error=error,
                            cache=stats,
                            adopted=len(entries),
                            adopt_seconds=adopt_seconds,
                            config_digest=self._config_digest(jobs[idx]),
                        )
        finally:
            _FORK_RUNNER = None
        report.outcomes.extend(outcomes[i] for i in sorted(outcomes))

    def summary(self) -> str:
        """All reports plus disk-cache statistics, for the end of a run."""
        lines = [r.format() for r in self.reports]
        total_wall = sum(r.wall_seconds for r in self.reports)
        total_work = sum(r.job_seconds for r in self.reports)
        n = sum(len(r.outcomes) for r in self.reports)
        lines.append(
            f"total: {n} jobs, {total_wall:.2f}s wall, {total_work:.2f}s of work"
        )
        totals = self.runner.sim_metrics()["totals"]
        if totals["simulations"]:
            lines.append(
                f"simulated: {totals['simulations']} runs, "
                f"cache hit rate {totals['cache_hit_rate']:.1%} "
                f"over {totals['cache_accesses']} accesses, "
                f"mean DRAM utilisation {totals['mean_dram_utilisation']:.1%}"
            )
        if self.runner.cache is not None:
            lines.append(self.runner.cache.stats.summary())
        return "\n".join(lines)

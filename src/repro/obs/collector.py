"""Per-warp stall attribution for the SM simulator.

Every cycle of the run, for every warp, is charged to exactly one of:

========================  ==================================================
``issue``                 the warp held the issue port (1 cycle/instruction)
:data:`CAUSE_RAW`         waiting on an in-core producer: ALU/SFU result,
                          shared-memory or cache-hit load latency
:data:`CAUSE_BANK_CONFLICT`  serialisation on banked storage: register-bank
                          operand conflicts (issue-side) and shared/cache
                          bank conflicts plus the LSU port they drain
                          through (memory-side)
:data:`CAUSE_MEMORY`      waiting on DRAM: a cache miss, an uncached
                          access, or a texture fetch
:data:`CAUSE_MSHR_FULL`   structural stall of the non-blocking memory
                          system: the LSU could not allocate an MSHR
                          entry for a primary miss until an outstanding
                          fill retired (non-zero only when
                          ``mshr_entries > 0``)
:data:`CAUSE_ISSUE_PORT`  operands ready, but another warp held the single
                          issue port
:data:`CAUSE_BARRIER`     waiting at a CTA-wide barrier
:data:`CAUSE_DESCHEDULE`  two-level-scheduler reactivation latency
                          (non-zero only when ``deschedule_latency`` is)
:data:`CAUSE_NOT_RESIDENT`  before the warp's CTA launched / after the
                          warp completed
========================  ==================================================

The attribution is *conservative by construction*: each warp's timeline
is a chain of half-open segments whose endpoints the simulator hands to
the collector, so ``issue_cycles + sum(stalls) == total_cycles`` holds
per warp (:meth:`Collector.conservation_errors` verifies it, and the
test suite enforces it across kernels and partitions).  When a wait is
caused by a producer whose latency included bank-conflict serialisation,
the conflicted cycles are charged to :data:`CAUSE_BANK_CONFLICT` and
only the remainder to the producer's class, so conflict cycles are never
laundered as RAW or DRAM time.  Likewise, cycles a load spent waiting
for a free MSHR entry are carved out of its wait and charged to
:data:`CAUSE_MSHR_FULL`, never to :data:`CAUSE_MEMORY`.

All times are the simulator's dyadic-rational cycle stamps, so the
segment sums are exact in IEEE-754 -- conservation is checked with
equality, not a tolerance.

:class:`Collector` is the one definition of attribution.  The replay
frame (:func:`repro.sm.replay.run_columnar`) and the per-op reference
loop (:func:`repro.sm.core.run_event`) call its hooks at the same
points with the same arguments, so their payloads are byte-identical;
``tests/obs/payload_digests.json`` pins what the collectors emit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.metrics import IntervalSampler
from repro.obs.trace import PID_CTAS, PID_DRAM, PID_WARPS, TraceBuffer

CAUSE_RAW = "raw"
CAUSE_BANK_CONFLICT = "bank_conflict"
CAUSE_MEMORY = "memory"
CAUSE_MSHR_FULL = "mshr_full"
CAUSE_ISSUE_PORT = "issue_port"
CAUSE_BARRIER = "barrier"
CAUSE_DESCHEDULE = "deschedule"
CAUSE_NOT_RESIDENT = "not_resident"

#: Every cause a non-issuing cycle can be charged to.
STALL_CAUSES = (
    CAUSE_RAW,
    CAUSE_BANK_CONFLICT,
    CAUSE_MEMORY,
    CAUSE_MSHR_FULL,
    CAUSE_ISSUE_PORT,
    CAUSE_BARRIER,
    CAUSE_DESCHEDULE,
    CAUSE_NOT_RESIDENT,
)


class NullCollector:
    """Disabled sink: the default for uninstrumented simulation.

    The simulator reduces any collector with ``enabled == False`` to a
    local ``None`` before the hot loop, so the only per-instruction cost
    of having instrumentation *available* is an ``is not None`` check.
    """

    enabled = False


NULL_COLLECTOR = NullCollector()


@dataclass(slots=True)
class _WarpObs:
    """Attribution state of one warp instance."""

    wid: int
    cta: int
    widx: int
    cursor: float = 0.0
    issue_cycles: int = 0
    stalls: dict = field(default_factory=dict)
    #: reg -> (completion cycle, producer cause, conflict cycles inside
    #: it, mshr-full wait cycles inside it)
    pending: dict = field(default_factory=dict)


class Collector:
    """Active observability sink wired into :func:`repro.sm.simulate`.

    Args:
        metrics_window: Cycle width of interval samples; 0 disables the
            time series.
        trace: Record Chrome trace events (see :mod:`repro.obs.trace`).
        max_trace_events: Bound on buffered trace events.
    """

    enabled = True

    def __init__(
        self,
        metrics_window: int = 0,
        trace: bool = False,
        max_trace_events: int = 1_000_000,
    ) -> None:
        self.warps: dict[int, _WarpObs] = {}
        self.sampler = IntervalSampler(metrics_window) if metrics_window else None
        self.trace = TraceBuffer(max_trace_events) if trace else None
        self.total_cycles: float | None = None
        self.ctas_launched = 0
        self._cta_start: dict[int, float] = {}
        self._occ_events: list[tuple[float, int]] = []
        if self.trace is not None:
            self.trace.process_name(PID_WARPS, "SM warps")
            self.trace.process_name(PID_CTAS, "CTAs")
            self.trace.process_name(PID_DRAM, "DRAM")
            self.trace.thread_name(PID_DRAM, 0, "channel")

    # -- charging ---------------------------------------------------------
    def _charge(self, ws: _WarpObs, cause: str, start: float, end: float) -> None:
        if end <= start:
            return
        stalls = ws.stalls
        stalls[cause] = stalls.get(cause, 0.0) + (end - start)
        if self.trace is not None and cause is not CAUSE_NOT_RESIDENT:
            self.trace.slice(PID_WARPS, ws.wid, cause, "stall", start, end - start)

    # -- simulator hooks --------------------------------------------------
    def cta_launch(self, index: int, time: float, n_warps: int) -> None:
        self.ctas_launched += 1
        if self.trace is not None:
            self._cta_start[index] = time

    def cta_retire(self, index: int, time: float) -> None:
        if self.trace is not None:
            start = self._cta_start.pop(index, 0.0)
            self.trace.slice(PID_CTAS, index, f"cta{index}", "cta", start, time - start)

    def spawn(self, wid: int, cta_index: int, warp_index: int, time: float) -> None:
        """A warp became resident; everything before is NOT_RESIDENT."""
        ws = _WarpObs(wid=wid, cta=cta_index, widx=warp_index)
        self.warps[wid] = ws
        self._charge(ws, CAUSE_NOT_RESIDENT, 0.0, time)
        ws.cursor = time
        self._occ_events.append((time, 1))
        if self.trace is not None:
            self.trace.thread_name(PID_WARPS, wid, f"cta{cta_index} w{warp_index}")

    def resume(self, wid: int, time: float, cause: str) -> None:
        """Charge [cursor, time) to ``cause`` (barrier releases)."""
        ws = self.warps[wid]
        self._charge(ws, cause, ws.cursor, time)
        if time > ws.cursor:
            ws.cursor = time

    def writeback(
        self,
        wid: int,
        reg: int,
        completion: float,
        cause: str,
        conflict: float,
        mshr: float = 0.0,
    ) -> None:
        """Register a pending write's completion time and its latency class.

        ``mshr`` is the portion of the producer's latency spent waiting
        for a free MSHR entry (non-blocking mode only); like
        ``conflict`` it is carved out of a dependent's wait and charged
        to its own cause.
        """
        self.warps[wid].pending[reg] = (completion, cause, conflict, mshr)

    def issue(
        self,
        wid: int,
        name: str,
        srcs: tuple[int, ...],
        ready: float,
        t: float,
        issue_done: float,
    ) -> None:
        """One instruction issued: attribute the wait leading up to it.

        ``ready`` is the heap key the warp was popped with (when it
        became schedulable), ``t`` the cycle it won the issue port,
        ``issue_done`` when the port was released (``t + 1`` plus any
        register-bank serialisation).

        The simulators call this once per instruction, so each charge
        is :meth:`_charge` written out in place (same guard, same
        operands) rather than called.
        """
        ws = self.warps[wid]
        cursor = ws.cursor
        stalls = ws.stalls
        trace = self.trace
        if ready > cursor:
            # Dependency wait: the pending source with the latest
            # completion is the one that determined readiness.
            dep_end = cursor
            cause = CAUSE_RAW
            conflict = 0.0
            mshrw = 0.0
            pending = ws.pending
            if pending:
                for r in srcs:
                    e = pending.get(r)
                    if e is not None and e[0] > dep_end:
                        dep_end, cause, conflict, mshrw = e
            if dep_end > ready:
                dep_end = ready
            if dep_end > cursor:
                # Carve the wait into conflict serialisation, MSHR
                # allocation stalls, and the producer's own cause, in
                # that order; each share is capped by what remains.
                wait = dep_end - cursor
                bank = conflict if conflict < wait else wait
                rest = wait - bank
                msh = mshrw if mshrw < rest else rest
                cb = cursor + bank
                cbm = cb + msh
                if bank > 0.0 and cb > cursor:
                    stalls[CAUSE_BANK_CONFLICT] = (
                        stalls.get(CAUSE_BANK_CONFLICT, 0.0) + (cb - cursor)
                    )
                    if trace is not None:
                        trace.slice(
                            PID_WARPS, wid, CAUSE_BANK_CONFLICT, "stall",
                            cursor, cb - cursor,
                        )
                if msh > 0.0 and cbm > cb:
                    stalls[CAUSE_MSHR_FULL] = (
                        stalls.get(CAUSE_MSHR_FULL, 0.0) + (cbm - cb)
                    )
                    if trace is not None:
                        trace.slice(
                            PID_WARPS, wid, CAUSE_MSHR_FULL, "stall", cb, cbm - cb
                        )
                if dep_end > cbm:
                    stalls[cause] = stalls.get(cause, 0.0) + (dep_end - cbm)
                    if trace is not None:
                        trace.slice(
                            PID_WARPS, wid, cause, "stall", cbm, dep_end - cbm
                        )
                cursor = dep_end
            if ready > cursor:
                # Only the two-level scheduler's reactivation latency
                # can delay a warp past its dependence resolution.
                stalls[CAUSE_DESCHEDULE] = (
                    stalls.get(CAUSE_DESCHEDULE, 0.0) + (ready - cursor)
                )
                if trace is not None:
                    trace.slice(
                        PID_WARPS, wid, CAUSE_DESCHEDULE, "stall",
                        cursor, ready - cursor,
                    )
                cursor = ready
        if t > cursor:
            stalls[CAUSE_ISSUE_PORT] = stalls.get(CAUSE_ISSUE_PORT, 0.0) + (t - cursor)
            if trace is not None:
                trace.slice(
                    PID_WARPS, wid, CAUSE_ISSUE_PORT, "stall", cursor, t - cursor
                )
        ws.issue_cycles += 1
        t1 = t + 1.0
        if issue_done > t1:
            stalls[CAUSE_BANK_CONFLICT] = (
                stalls.get(CAUSE_BANK_CONFLICT, 0.0) + (issue_done - t1)
            )
            if trace is not None:
                trace.slice(
                    PID_WARPS, wid, CAUSE_BANK_CONFLICT, "stall", t1, issue_done - t1
                )
        ws.cursor = issue_done
        if self.sampler is not None:
            self.sampler.add_instruction(t)
        if trace is not None:
            trace.slice(PID_WARPS, wid, name, "issue", t, issue_done - t)

    def complete(self, wid: int, time: float) -> None:
        """The warp issued its last instruction (or cleared its last barrier)."""
        # Nothing reads a finished warp's pending writes again, and the
        # warp's record lives as long as the collector.
        self.warps[wid].pending.clear()
        self._occ_events.append((time, -1))
        if self.trace is not None:
            self.trace.instant(PID_WARPS, wid, "complete", "warp", time)

    def cache_access(self, time: float, hit: bool) -> None:
        if self.sampler is not None:
            self.sampler.add_cache_access(time, hit)

    def dram_transfer(self, start: float, end: float, nbytes: int) -> None:
        """Observer for :class:`repro.memory.dram.DRAMChannel`."""
        if self.sampler is not None:
            self.sampler.add_dram_transfer(start, end, nbytes)
        if self.trace is not None:
            self.trace.slice(PID_DRAM, 0, f"{nbytes}B", "dram", start, end - start)

    def finish(self, total_cycles: float) -> None:
        """Close every warp's timeline out to the end of the run."""
        self.total_cycles = total_cycles
        for ws in self.warps.values():
            self._charge(ws, CAUSE_NOT_RESIDENT, ws.cursor, total_cycles)
            ws.cursor = total_cycles
        if self.sampler is not None:
            # Occupancy changes arrive out of order (a barrier release
            # spawns CTAs at a future cycle while earlier warps are
            # still being popped), so integrate once, sorted, at the end.
            occ, last_t = 0, 0.0
            for time, delta in sorted(self._occ_events):
                self.sampler.add_occupancy(last_t, min(time, total_cycles), occ)
                occ += delta
                last_t = time
            self.sampler.add_occupancy(last_t, total_cycles, occ)

    # -- reports ----------------------------------------------------------
    def stall_totals(self) -> dict[str, float]:
        """Aggregate attributed cycles per cause across all warps."""
        totals = dict.fromkeys(STALL_CAUSES, 0.0)
        for ws in self.warps.values():
            for cause, cycles in ws.stalls.items():
                totals[cause] += cycles
        return totals

    @property
    def issue_cycles(self) -> int:
        return sum(ws.issue_cycles for ws in self.warps.values())

    def conservation_errors(self) -> list[str]:
        """Violations of attributed + issue == total, per warp (empty = ok)."""
        if self.total_cycles is None:
            return ["finish() was never called"]
        errors = []
        for ws in self.warps.values():
            total = ws.issue_cycles + math.fsum(ws.stalls.values())
            if total != self.total_cycles:
                errors.append(
                    f"warp {ws.wid} (cta{ws.cta} w{ws.widx}): attributed "
                    f"{total} != {self.total_cycles} cycles"
                )
        return errors

    def report(self) -> dict:
        """JSON-compatible profile summary (the ``profile`` command payload)."""
        totals = self.stall_totals()
        return {
            "schema": "repro.obs.profile/1",
            "total_cycles": self.total_cycles,
            "warps": len(self.warps),
            "ctas": self.ctas_launched,
            "issue_cycles": self.issue_cycles,
            "stall_cycles": totals,
            "conservation_ok": not self.conservation_errors(),
        }

    def metrics_payload(self) -> dict | None:
        if self.sampler is None or self.total_cycles is None:
            return None
        return self.sampler.to_payload(self.total_cycles)

    def trace_payload(self) -> dict | None:
        return self.trace.to_payload() if self.trace is not None else None

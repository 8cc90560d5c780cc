"""Simulator observability: stall attribution, interval metrics, tracing.

The timing simulator (:mod:`repro.sm.simulator`) normally emits only
end-of-run aggregates.  This package adds the lens the paper's own
analysis uses -- *where do the cycles go?* -- without perturbing the
model:

* :class:`~repro.obs.collector.Collector` charges every cycle a warp is
  not issuing to exactly one stall cause (RAW hazard, bank conflict,
  DRAM latency, issue-port contention, barrier, deschedule,
  not-resident), with a conservation invariant: per-warp attributed
  cycles + issue cycles == total simulated cycles.
* :class:`~repro.obs.metrics.IntervalSampler` produces a windowed time
  series of IPC, occupancy, cache hit rate, and DRAM utilisation.
* :class:`~repro.obs.trace.TraceBuffer` records warp/CTA events in
  Chrome trace-event JSON, so a run opens directly in Perfetto or
  ``chrome://tracing``.
* :class:`~repro.obs.chip.ChipCollector` lifts all of the above to chip
  scope: per-SM collectors merged into one Perfetto timeline, DRAM
  channels and the CTA dispatcher sampled as first-class tracks, and
  the conservation invariant rolled up across SMs.
* :mod:`repro.obs.manifest` builds run manifests (config fingerprint,
  format versions, cache statistics, per-phase wall-clock) for the
  experiment layer.
* :class:`~repro.obs.spans.SpanRecorder` lifts observability to fleet
  scope: every executor job emits a submit -> queued -> running ->
  done/cache-hit span with worker id, config fingerprint, and cache
  disposition, summarised per suite and exportable as a Perfetto
  timeline of the whole sweep.
* :mod:`repro.obs.compare` is the cross-run diff engine: align two
  runs (metrics, profiles, chip payloads, traces, manifests) and
  attribute the cycle delta by stall cause, SM, channel, and CTA --
  with the conservation invariant re-verified on both sides.

Instrumentation is strictly opt-in: ``simulate(...)`` takes no
collector by default, and the one replay frame
(:func:`repro.sm.replay.run_columnar`) guards every hook call behind
the current core's collector (or the chip collector) being set, so
uninstrumented runs pay near-zero cost.  That frame and the per-op
reference loop call the same :class:`Collector` hooks with the same
arguments, so attribution has one definition, here.
"""

from repro.obs.collector import (
    CAUSE_BANK_CONFLICT,
    CAUSE_BARRIER,
    CAUSE_DESCHEDULE,
    CAUSE_ISSUE_PORT,
    CAUSE_MEMORY,
    CAUSE_MSHR_FULL,
    CAUSE_NOT_RESIDENT,
    CAUSE_RAW,
    NULL_COLLECTOR,
    STALL_CAUSES,
    Collector,
    NullCollector,
)
from repro.obs.chip import (
    CHIP_PROFILE_SCHEMA,
    CHIPMETRICS_SCHEMA,
    ChipCollector,
    validate_chipmetrics,
)
from repro.obs.compare import (
    DIFF_SCHEMA,
    TRACE_PIVOT_SCHEMA,
    build_diff,
    cta_slowdowns,
    diff_results,
    format_diff,
    pivot_traces,
    recheck_conservation,
    validate_diff,
)
from repro.obs.metrics import METRICS_SCHEMA, IntervalSampler
from repro.obs.spans import (
    SPANS_SCHEMA,
    SPANS_TRACE_SCHEMA,
    JobSpan,
    SpanRecorder,
    validate_spans,
)
from repro.obs.trace import (
    TRACE_CHIP_SCHEMA,
    TRACE_SCHEMA,
    TraceBuffer,
    validate_trace,
    write_trace,
)

__all__ = [
    "CAUSE_BANK_CONFLICT",
    "CAUSE_BARRIER",
    "CAUSE_DESCHEDULE",
    "CAUSE_ISSUE_PORT",
    "CAUSE_MEMORY",
    "CAUSE_MSHR_FULL",
    "CAUSE_NOT_RESIDENT",
    "CAUSE_RAW",
    "CHIP_PROFILE_SCHEMA",
    "CHIPMETRICS_SCHEMA",
    "DIFF_SCHEMA",
    "METRICS_SCHEMA",
    "NULL_COLLECTOR",
    "SPANS_SCHEMA",
    "SPANS_TRACE_SCHEMA",
    "STALL_CAUSES",
    "TRACE_CHIP_SCHEMA",
    "TRACE_PIVOT_SCHEMA",
    "TRACE_SCHEMA",
    "ChipCollector",
    "Collector",
    "IntervalSampler",
    "JobSpan",
    "NullCollector",
    "SpanRecorder",
    "TraceBuffer",
    "build_diff",
    "cta_slowdowns",
    "diff_results",
    "format_diff",
    "pivot_traces",
    "recheck_conservation",
    "validate_chipmetrics",
    "validate_diff",
    "validate_spans",
    "validate_trace",
    "write_trace",
]

"""Chrome trace-event export: open a simulation in Perfetto.

Events follow the Trace Event Format consumed by ``chrome://tracing``
and https://ui.perfetto.dev: a JSON object whose ``traceEvents`` array
holds complete slices (``ph: "X"``), instants (``ph: "i"``), and
metadata records (``ph: "M"``) naming the tracks.  One simulated cycle
maps to one microsecond of trace time, so Perfetto's time axis reads
directly in kilocycles.

Track layout:

* pid 0 ("SM warps"): one thread per warp, slices for every issued
  instruction (category ``issue``) and every attributed stall segment
  (category ``stall``, named by cause), an instant at warp completion;
* pid 1 ("CTAs"): one slice per CTA from launch to retire;
* pid 2 ("DRAM"): one slice per DRAM transfer (its bus-busy interval).

The buffer is bounded: past ``max_events`` further events are counted
as dropped rather than recorded, so tracing a paper-scale run degrades
instead of exhausting memory.
"""

from __future__ import annotations

import json
from pathlib import Path

TRACE_SCHEMA = "repro.obs.trace/1"

#: Schema of the merged chip-scope timeline emitted by
#: :meth:`repro.obs.chip.ChipCollector.trace_payload`: one process per
#: SM (warp tracks), one process of DRAM-channel bus-busy tracks, and a
#: dispatcher process with a CTA-Gantt track per SM.
TRACE_CHIP_SCHEMA = "repro.obs.trace/2"

#: Perfetto process ids used by the collector's track layout.
PID_WARPS = 0
PID_CTAS = 1
PID_DRAM = 2

_KNOWN_PHASES = frozenset({"X", "i", "M"})


class TraceBuffer:
    """Bounded in-memory buffer of Chrome trace events."""

    def __init__(self, max_events: int = 1_000_000) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.events: list[dict] = []
        self.dropped = 0

    def _add(self, ev: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(ev)

    # -- event constructors ----------------------------------------------
    def slice(
        self,
        pid: int,
        tid: int,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        args: dict | None = None,
    ) -> None:
        # The bound is checked before the event is built, so a full
        # buffer (long traced runs spend most events here) builds none.
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        ev = {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
              "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self.events.append(ev)

    def instant(self, pid: int, tid: int, name: str, cat: str, ts: float) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append({"name": name, "cat": cat, "ph": "i", "ts": ts, "s": "t",
                            "pid": pid, "tid": tid})

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        self._add({"name": "thread_name", "ph": "M", "ts": 0, "pid": pid,
                   "tid": tid, "args": {"name": name}})

    def process_name(self, pid: int, name: str) -> None:
        self._add({"name": "process_name", "ph": "M", "ts": 0, "pid": pid,
                   "tid": 0, "args": {"name": name}})

    # -- export -----------------------------------------------------------
    def to_payload(self) -> dict:
        return {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": TRACE_SCHEMA,
                "clock": "1 simulated cycle = 1 us of trace time",
                "droppedEvents": self.dropped,
            },
        }


def write_trace(payload: dict | TraceBuffer, path: str | Path) -> None:
    """Write a trace payload (or buffer) as Chrome trace-event JSON."""
    if isinstance(payload, TraceBuffer):
        payload = payload.to_payload()
    Path(path).write_text(json.dumps(payload))


def validate_trace(payload: dict) -> list[str]:
    """Structural checks against the Chrome trace-event format.

    Returns a list of problems (empty = valid).  Used by the test suite
    and by ``repro trace`` to guarantee emitted files load in Perfetto.
    """
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a JSON array"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"event {i}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"event {i}: missing integer {key}")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"event {i}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: bad dur {dur!r}")
        if len(problems) >= 20:
            problems.append("... (further problems suppressed)")
            break
    try:
        json.dumps(payload)
    except (TypeError, ValueError) as e:
        problems.append(f"payload not JSON-serialisable: {e}")
    return problems

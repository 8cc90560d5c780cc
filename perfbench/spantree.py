"""Spans recorded around the benchmark's calls into each layer.

A span is one call: its name, the layer it enters, start and end on
``time.perf_counter``, its parent span, and the operation it serves.
Spans stay in memory until the run ends.  A layer's *self time* is the
time its spans cover minus the part their child spans cover, so glue
code in the benchmark itself is charged to the ``perfbench`` layer and
never to the layer it calls.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

#: Layer of the benchmark's own spans (passes and operations).
BENCH_LAYER = "perfbench"


@dataclass(slots=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    #: Id of the operation span this span belongs to (its own id for an
    #: operation span, ``None`` outside any operation).
    op: int | None


class SpanRecorder:
    """Records nested spans on one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, layer: str, *, op: bool = False):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        if op:
            op_id = sid
        else:
            op_id = parent.op if parent is not None else None
        s = Span(sid, name, layer, time.perf_counter(), 0.0,
                 parent.id if parent is not None else None, op_id)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullRecorder:
    """Stands in for :class:`SpanRecorder` when tracing is off."""

    def span(self, name: str, layer: str, *, op: bool = False):
        return nullcontext()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    lo = hi = None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        elif b > hi:
            hi = b
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer.

    Each span's duration less the union of its children's intervals,
    clipped to the span, summed by layer.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, float] = {}
    for s in spans:
        kids = children.get(s.id, ())
        covered = _covered([(max(c.start, s.start), min(c.end, s.end)) for c in kids])
        out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start) - covered
    return out


def total_by_name(spans: list[Span]) -> dict[str, float]:
    """Seconds spent in spans of each name (children included)."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
    return out

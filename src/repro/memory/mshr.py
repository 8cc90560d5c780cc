"""Miss Status Holding Registers: non-blocking miss tracking per line.

The blocking model (``SMConfig.mshr_entries == 0``) serves every cache
miss synchronously: the missing warp sleeps on its own ``dram_request``
and nothing remembers that a line fill is already in flight.  An MSHR
file is the structure that makes misses non-blocking (Kroft 1981): a
primary miss allocates an entry recording the line address and the cycle
its fill completes; a *secondary* miss to the same line while the fill
is outstanding merges into that entry -- it waits for the same fill and
generates no DRAM traffic.  When all entries are occupied, the load/
store unit stalls until the earliest outstanding fill retires (a
*structural* stall, attributed to the ``mshr_full`` cause in the
``repro.obs`` stall taxonomy).

The file is deliberately time-based rather than event-based, matching
the event-driven SM simulator it plugs into: entries are retired lazily
whenever a lookup supplies the current cycle, so the structure stays a
plain dict with no event queue.  The file tracks its earliest
outstanding fill, so a lookup before that cycle retires nothing and
scans nothing.
"""

from __future__ import annotations


class MSHRFile:
    """Fixed-size table of in-flight line fills, keyed by line address.

    Args:
        num_entries: Capacity of the file; must be >= 1 (a zero-entry
            file is the blocking model, expressed by not constructing
            an :class:`MSHRFile` at all).
    """

    __slots__ = (
        "num_entries",
        "_fills",
        "_next_fill",
        "primary_misses",
        "secondary_merges",
        "full_stalls",
        "full_stall_cycles",
        "peak_outstanding",
    )

    def __init__(self, num_entries: int) -> None:
        if num_entries < 1:
            raise ValueError(
                f"an MSHR file needs at least one entry, got {num_entries} "
                "(use mshr_entries=0 on SMConfig for the blocking model)"
            )
        self.num_entries = num_entries
        #: line address -> cycle the outstanding fill completes.
        self._fills: dict[int, float] = {}
        #: Earliest outstanding fill completion (``inf`` when empty).
        self._next_fill = float("inf")
        self.primary_misses = 0
        self.secondary_merges = 0
        self.full_stalls = 0
        self.full_stall_cycles = 0.0
        self.peak_outstanding = 0

    def _retire(self, now: float) -> None:
        """Drop entries whose fills have completed by ``now``."""
        if now < self._next_fill:
            return
        fills = self._fills
        done = [line for line, fill in fills.items() if fill <= now]
        for line in done:
            del fills[line]
        self._next_fill = min(fills.values(), default=float("inf"))

    def outstanding(self, line_addr: int, now: float) -> float | None:
        """Completion time of an in-flight fill of ``line_addr``, if any.

        Retires completed entries first, so a fill that landed at or
        before ``now`` is no longer "outstanding" (the data is in the
        cache and the lookup should consult the cache instead).
        """
        self._retire(now)
        return self._fills.get(line_addr)

    def entry_free_at(self, now: float) -> float:
        """Earliest cycle a new entry can be allocated, >= ``now``.

        ``now`` itself when the file has a free entry; otherwise the
        completion time of the earliest outstanding fill (the LSU stalls
        until one retires -- the ``mshr_full`` structural stall).
        """
        self._retire(now)
        if len(self._fills) < self.num_entries:
            return now
        return self._next_fill

    def allocate(self, line_addr: int, fill_complete: float, now: float) -> None:
        """Record a primary miss whose fill lands at ``fill_complete``.

        The caller must have waited until :meth:`entry_free_at` -- this
        asserts the capacity invariant rather than silently oversubscribing.
        """
        self._retire(now)
        fills = self._fills
        if len(fills) >= self.num_entries:
            raise RuntimeError(
                f"MSHR overflow at cycle {now}: all {self.num_entries} "
                "entries outstanding (caller must stall on entry_free_at)"
            )
        if line_addr in fills:
            raise RuntimeError(
                f"duplicate MSHR allocation for line {line_addr:#x} at cycle "
                f"{now}: secondary misses must merge, not re-allocate"
            )
        fills[line_addr] = fill_complete
        if fill_complete < self._next_fill:
            self._next_fill = fill_complete
        self.primary_misses += 1
        n = len(fills)
        if n > self.peak_outstanding:
            self.peak_outstanding = n

    @property
    def outstanding_count(self) -> int:
        """Entries currently held (as of the last lookup's ``now``)."""
        return len(self._fills)

    def stats(self) -> dict:
        """Counters for ``SimResult.notes`` / metrics export."""
        return {
            "entries": self.num_entries,
            "primary_misses": self.primary_misses,
            "secondary_merges": self.secondary_merges,
            "full_stalls": self.full_stalls,
            "full_stall_cycles": self.full_stall_cycles,
            "peak_outstanding": self.peak_outstanding,
        }

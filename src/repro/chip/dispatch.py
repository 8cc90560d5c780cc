"""Chip-level CTA dispatch: one grid distributed over many SMs.

Models the hardware work distributor (NVIDIA's "GigaThread engine"):
CTAs are handed out in grid-index order to whichever SM has a free
residency slot, so faster SMs naturally pull more work.  The initial
fill in :func:`repro.chip.simulate_chip` asks SMs round-robin -- SM 0
gets CTA 0, SM 1 gets CTA 1, ... -- and every later hand-out happens
when a resident CTA retires, which is launch-order FCFS.

The dispatcher is the only CTA hand-out.  With one SM it hands out
indices ``0, 1, 2, ...`` in order, which is the paper's single-SM
methodology that :func:`repro.sm.simulate` runs.
"""

from __future__ import annotations


class CTADispatcher:
    """Hands out grid CTA indices to requesting SMs in launch order."""

    def __init__(self, num_ctas: int, num_sms: int) -> None:
        if num_ctas < 0:
            raise ValueError("num_ctas must be non-negative")
        if num_sms < 1:
            raise ValueError("num_sms must be >= 1")
        self.num_ctas = num_ctas
        self._next = 0
        #: Grid indices assigned to each SM, in launch order.
        self.assignments: list[list[int]] = [[] for _ in range(num_sms)]

    @property
    def remaining(self) -> int:
        """CTAs of the grid not yet handed to any SM."""
        return self.num_ctas - self._next

    def next_cta(self, sm_index: int) -> int | None:
        """The next CTA for ``sm_index``, or None when the grid is drained."""
        # A negative index would silently append to the wrong SM's
        # assignment list via Python's wraparound indexing.
        if not 0 <= sm_index < len(self.assignments):
            raise ValueError(
                f"sm_index {sm_index} out of range for a "
                f"{len(self.assignments)}-SM dispatcher (expected 0 <= "
                f"sm_index < {len(self.assignments)})"
            )
        if self._next >= self.num_ctas:
            return None
        index = self._next
        self._next += 1
        self.assignments[sm_index].append(index)
        return index

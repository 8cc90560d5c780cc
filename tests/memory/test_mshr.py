"""Unit tests for the MSHR file (non-blocking miss tracking)."""

import random

import pytest

from repro.memory import MSHRFile


class TestAllocation:
    def test_primary_miss_allocates(self):
        m = MSHRFile(4)
        m.allocate(0x100, fill_complete=400.0, now=0.0)
        assert m.primary_misses == 1
        assert m.outstanding_count == 1
        assert m.outstanding(0x100, 10.0) == 400.0

    def test_other_lines_are_not_outstanding(self):
        m = MSHRFile(4)
        m.allocate(0x100, 400.0, 0.0)
        assert m.outstanding(0x180, 10.0) is None

    def test_fill_retires_at_completion(self):
        # A fill landing at or before `now` is in the cache, not in
        # flight: the lookup must consult the cache instead.
        m = MSHRFile(4)
        m.allocate(0x100, 400.0, 0.0)
        assert m.outstanding(0x100, 399.9) == 400.0
        assert m.outstanding(0x100, 400.0) is None
        assert m.outstanding_count == 0

    def test_duplicate_allocation_rejected(self):
        m = MSHRFile(4)
        m.allocate(0x100, 400.0, 0.0)
        with pytest.raises(RuntimeError, match="merge, not re-allocate"):
            m.allocate(0x100, 500.0, 10.0)

    def test_overflow_rejected(self):
        m = MSHRFile(2)
        m.allocate(0x000, 400.0, 0.0)
        m.allocate(0x080, 410.0, 1.0)
        with pytest.raises(RuntimeError, match="stall on entry_free_at"):
            m.allocate(0x100, 420.0, 2.0)

    def test_line_reusable_after_retire(self):
        # The same line can miss again after its fill retired (cache
        # eviction brought it back): this is a fresh primary miss.
        m = MSHRFile(1)
        m.allocate(0x100, 400.0, 0.0)
        m.allocate(0x100, 900.0, 500.0)
        assert m.primary_misses == 2

    def test_needs_at_least_one_entry(self):
        with pytest.raises(ValueError, match="at least one entry"):
            MSHRFile(0)
        with pytest.raises(ValueError, match="at least one entry"):
            MSHRFile(-4)


class TestEntryFreeAt:
    def test_free_file_admits_immediately(self):
        m = MSHRFile(2)
        assert m.entry_free_at(5.0) == 5.0
        m.allocate(0x000, 400.0, 5.0)
        assert m.entry_free_at(6.0) == 6.0

    def test_full_file_frees_at_earliest_fill(self):
        m = MSHRFile(2)
        m.allocate(0x000, 450.0, 0.0)
        m.allocate(0x080, 400.0, 1.0)
        assert m.entry_free_at(2.0) == 400.0

    def test_retirement_frees_the_file(self):
        m = MSHRFile(1)
        m.allocate(0x000, 400.0, 0.0)
        assert m.entry_free_at(100.0) == 400.0
        assert m.entry_free_at(400.0) == 400.0
        assert m.entry_free_at(401.0) == 401.0


class TestStats:
    def test_peak_outstanding_tracks_high_water_mark(self):
        m = MSHRFile(4)
        m.allocate(0x000, 400.0, 0.0)
        m.allocate(0x080, 400.0, 1.0)
        m.allocate(0x100, 400.0, 2.0)
        assert m.peak_outstanding == 3
        # Retiring everything does not lower the peak.
        m.outstanding(0x000, 500.0)
        m.allocate(0x180, 900.0, 500.0)
        assert m.peak_outstanding == 3

    def test_stats_payload_shape(self):
        m = MSHRFile(8)
        m.allocate(0x000, 400.0, 0.0)
        m.secondary_merges += 1
        s = m.stats()
        assert s == {
            "entries": 8,
            "primary_misses": 1,
            "secondary_merges": 1,
            "full_stalls": 0,
            "full_stall_cycles": 0.0,
            "peak_outstanding": 1,
        }


class _ScanningMSHR:
    """The MSHR file's semantics restated naively: every probe scans
    every outstanding fill."""

    def __init__(self, num_entries):
        self.num_entries = num_entries
        self.fills = {}
        self.primary_misses = 0
        self.peak_outstanding = 0

    def _retire(self, now):
        self.fills = {line: f for line, f in self.fills.items() if f > now}

    def outstanding(self, line, now):
        self._retire(now)
        return self.fills.get(line)

    def entry_free_at(self, now):
        self._retire(now)
        if len(self.fills) < self.num_entries:
            return now
        return min(self.fills.values())

    def allocate(self, line, fill, now):
        self._retire(now)
        if len(self.fills) >= self.num_entries or line in self.fills:
            raise RuntimeError("refused")
        self.fills[line] = fill
        self.primary_misses += 1
        self.peak_outstanding = max(self.peak_outstanding, len(self.fills))


@pytest.mark.parametrize("seed", range(6))
def test_matches_scanning_model(seed):
    """Seeded probe streams: every return value and counter agrees with
    a model that rescans the whole file on each probe.  Probes repeat
    cycles, land exactly on fill times, and sometimes look back."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    m, ref = MSHRFile(n), _ScanningMSHR(n)
    now = 0.0
    for _ in range(3000):
        now += rng.choice((0.0, 0.0, 0.5, 1.0, 7.0, 60.0))
        probe = now - rng.choice((0.0, 0.0, 0.0, 0.0, 25.0))
        line = 128 * rng.randrange(10)
        action = rng.randrange(3)
        if action == 0:
            assert m.outstanding(line, probe) == ref.outstanding(line, probe)
        elif action == 1:
            assert m.entry_free_at(probe) == ref.entry_free_at(probe)
        else:
            fill = probe + rng.choice((1.0, 50.0, 200.0, 200.5))
            try:
                ref.allocate(line, fill, probe)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    m.allocate(line, fill, probe)
            else:
                m.allocate(line, fill, probe)
        assert m.outstanding_count == len(ref.fills)
        assert m.primary_misses == ref.primary_misses
        assert m.peak_outstanding == ref.peak_outstanding
    assert m.stats() == {
        "entries": n,
        "primary_misses": ref.primary_misses,
        "secondary_merges": 0,
        "full_stalls": 0,
        "full_stall_cycles": 0.0,
        "peak_outstanding": ref.peak_outstanding,
    }
    assert ref.primary_misses > 0 and ref.peak_outstanding == n

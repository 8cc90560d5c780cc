"""Unit tests for the chip-level CTA dispatcher."""

import pytest

from repro.chip import CTADispatcher


class TestDispatchOrder:
    def test_hands_out_grid_indices_in_order(self):
        d = CTADispatcher(num_ctas=5, num_sms=2)
        got = [d.next_cta(i % 2) for i in range(5)]
        assert got == [0, 1, 2, 3, 4]
        assert d.next_cta(0) is None
        assert d.next_cta(1) is None

    def test_faster_sm_pulls_more_work(self):
        # Whoever asks gets the next CTA -- no static striping.
        d = CTADispatcher(num_ctas=4, num_sms=2)
        d.next_cta(0)
        d.next_cta(0)
        d.next_cta(0)
        d.next_cta(1)
        assert d.assignments == [[0, 1, 2], [3]]

    def test_remaining_counts_down(self):
        d = CTADispatcher(num_ctas=3, num_sms=2)
        assert d.remaining == 3
        d.next_cta(1)
        assert d.remaining == 2

    def test_empty_grid(self):
        d = CTADispatcher(num_ctas=0, num_sms=4)
        assert d.remaining == 0
        assert d.next_cta(2) is None


class TestValidation:
    def test_bad_construction(self):
        with pytest.raises(ValueError):
            CTADispatcher(num_ctas=-1, num_sms=1)
        with pytest.raises(ValueError):
            CTADispatcher(num_ctas=4, num_sms=0)

    def test_next_cta_rejects_out_of_range_sm(self):
        d = CTADispatcher(num_ctas=4, num_sms=2)
        with pytest.raises(ValueError, match="sm_index 2 out of range"):
            d.next_cta(2)
        # A negative index would silently wrap to the last SM's list.
        with pytest.raises(ValueError, match="sm_index -1 out of range"):
            d.next_cta(-1)
        assert d.remaining == 4  # rejected asks hand out nothing

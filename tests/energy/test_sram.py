"""Tests for the SRAM energy fit against the paper's Table 4."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import TABLE4_POINTS, bank_energy
from repro.energy.sram import READ_FIT, WRITE_FIT, fold_sum


class TestTable4Calibration:
    @pytest.mark.parametrize("bank_kb,read_pj,write_pj", TABLE4_POINTS)
    def test_fit_reproduces_published_points(self, bank_kb, read_pj, write_pj):
        assert bank_energy(bank_kb) == pytest.approx(read_pj, rel=0.05)
        assert bank_energy(bank_kb, write=True) == pytest.approx(write_pj, rel=0.05)

    def test_unified_bank_costs_more_than_mrf_bank(self):
        # The paper's overhead discussion: 12 KB unified banks cost more
        # per access than 8 KB MRF banks and far more than 2 KB banks.
        assert bank_energy(12) > bank_energy(8) > bank_energy(2)

    def test_writes_cost_more_than_reads(self):
        for kb in (1, 2, 4, 8, 12, 16):
            assert bank_energy(kb, write=True) > bank_energy(kb)

    def test_zero_capacity_costs_nothing(self):
        assert bank_energy(0) == 0.0
        assert bank_energy(0, write=True) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bank_energy(-1)


class TestSameBitsOnEveryPython:
    """The fit sums floats by a plain fold, not ``sum()`` (compensated
    since Python 3.12) nor ``math.fsum``, so every Python computes the
    bits the committed result digests were recorded with."""

    def test_fit_constants_are_pinned(self):
        assert READ_FIT.a.hex() == "0x1.42460488a8cb0p+1"
        assert READ_FIT.b.hex() == "0x1.47d75fe9f2b10p-1"
        assert WRITE_FIT.a.hex() == "0x1.af3651747781ap+1"
        assert WRITE_FIT.b.hex() == "0x1.333f8457d8c45p-1"

    def test_fold_rounds_after_every_add(self):
        # 1e16 + 1.0 rounds back to 1e16 each time; a compensated sum
        # would carry the two ones and return 1e16 + 2.
        assert fold_sum([1e16, 1.0, 1.0]) == 1e16
        assert fold_sum([]) == 0.0


class TestScaling:
    def test_sublinear_growth(self):
        # Power law with b < 1: doubling capacity less than doubles energy.
        assert 0 < READ_FIT.b < 1
        assert 0 < WRITE_FIT.b < 1

    @given(st.floats(min_value=0.5, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, kb):
        assert bank_energy(2 * kb) > bank_energy(kb)

    def test_fermi_pool_bank_interpolates(self):
        # 4 KB banks (Fermi-like 128 KB pool) sit between 2 and 8 KB points.
        assert 3.9 < bank_energy(4) < 9.8

"""SRAM bank access energy -- CACTI substitute calibrated to Table 4.

The paper derives per-access energies from CACTI and synthesis results
(Section 5.2) and publishes the operating points in Table 4:

============== ========= ========== ===========
Structure      Bank size Read (pJ)  Write (pJ)
============== ========= ========== ===========
Shared/cache    2 KB      3.9        5.1
MRF             8 KB      9.8       11.8
Unified        12 KB     12.1       14.9
============== ========= ========== ===========

Access energy of an SRAM grows sublinearly with capacity (longer
bit/word lines), which a power law ``E = a * C^b`` captures well.  We
fit the law through the published points by least squares in log space
at import time; the fit reproduces every Table 4 entry within ~3% and
extrapolates to the arbitrary bank sizes the unified allocator creates
(e.g. a 4 KB Fermi-like pool bank or a 10 KB unified bank at 320 KB
total capacity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: (bank_kb, read_pj, write_pj) -- paper Table 4.
TABLE4_POINTS: tuple[tuple[float, float, float], ...] = (
    (2.0, 3.9, 5.1),
    (8.0, 9.8, 11.8),
    (12.0, 12.1, 14.9),
)


def fold_sum(values) -> float:
    """Sum floats left to right, rounding after every add.

    The builtin ``sum()`` compensates float rounding since Python 3.12,
    so its last bits differ from 3.11's, and ``math.fsum`` returns the
    3.12 bits.  This fold returns the same bits on every supported
    Python: those of ``sum()`` on 3.11, which the committed result
    digests were recorded with.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def _loglog_fit(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares fit of E = a * C^b in log space; returns (a, b)."""
    xs = [math.log(c) for c, _ in points]
    ys = [math.log(e) for _, e in points]
    n = len(points)
    mx = fold_sum(xs) / n
    my = fold_sum(ys) / n
    var = fold_sum((x - mx) ** 2 for x in xs)
    cov = fold_sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    b = cov / var
    a = math.exp(my - b * mx)
    return a, b


@dataclass(frozen=True, slots=True)
class SRAMEnergyFit:
    """Power-law energy model for one access type."""

    a: float
    b: float

    def __call__(self, bank_kb: float) -> float:
        if bank_kb < 0:
            raise ValueError("bank capacity must be non-negative")
        if bank_kb == 0:
            return 0.0
        return self.a * bank_kb**self.b


READ_FIT = SRAMEnergyFit(*_loglog_fit([(c, r) for c, r, _ in TABLE4_POINTS]))
WRITE_FIT = SRAMEnergyFit(*_loglog_fit([(c, w) for c, _, w in TABLE4_POINTS]))


def bank_energy(bank_kb: float, write: bool = False) -> float:
    """Energy (pJ) of one 16-byte access to a bank of ``bank_kb`` KB."""
    return (WRITE_FIT if write else READ_FIT)(bank_kb)

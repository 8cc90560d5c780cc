"""Chip-level energy accounting (paper Section 5.2).

The paper's accounting, reproduced here:

* **Core dynamic energy** is constant per benchmark across memory
  configurations: the SM's 1.9 W dynamic power priced at the *baseline*
  configuration's runtime ("We use the performance of the baseline
  256/64/64 configuration to calculate SM dynamic power for each
  benchmark").  Only bank accesses and DRAM vary between designs.
* **Bank energy**: every MRF/shared/cache 16-byte access priced at its
  structure's bank size (Table 4 fit).  Unified shared/cache accesses
  (including tag lookups) pay the +10% wiring overhead of the extra
  4:1 cluster mux and longer crossbar (Section 5.2).
* **SRAM leakage** scales with deployed capacity (2.37 mW/KB) and with
  the configuration's own runtime -- faster configs leak less.
* **DRAM energy**: 40 pJ/bit transferred.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partition import DesignStyle
from repro.energy.params import EnergyParams
from repro.energy.sram import READ_FIT, WRITE_FIT
from repro.sm.result import SimResult

PJ = 1e-12


@dataclass(frozen=True, slots=True)
class EnergyBreakdown:
    """Per-component energy of one simulated run, in joules."""

    core_dynamic_j: float
    bank_j: float
    leakage_j: float
    dram_j: float

    @property
    def total_j(self) -> float:
        return self.core_dynamic_j + self.bank_j + self.leakage_j + self.dram_j

    def summary(self) -> str:
        t = self.total_j
        return (
            f"total {t * 1e3:.3f} mJ = "
            f"core {self.core_dynamic_j / t:.0%} + banks {self.bank_j / t:.0%} + "
            f"leakage {self.leakage_j / t:.0%} + DRAM {self.dram_j / t:.0%}"
        )


class EnergyModel:
    """Prices a :class:`~repro.sm.result.SimResult` in joules."""

    def __init__(self, params: EnergyParams | None = None) -> None:
        self.params = params or EnergyParams()

    def bank_energy_j(self, result: SimResult) -> float:
        """Total bank + hierarchy + tag access energy."""
        p = self.params
        part = result.partition
        c = result.energy_counts
        rf_kb = part.rf_geometry.bank_kb
        smem_kb = part.smem_geometry.bank_kb
        cache_kb = part.cache_geometry.bank_kb
        overhead = (
            1.0 + p.unified_wire_overhead
            if part.style is DesignStyle.UNIFIED
            else 1.0
        )
        pj = 0.0
        pj += c.mrf_reads * READ_FIT(rf_kb) + c.mrf_writes * WRITE_FIT(rf_kb)
        pj += overhead * (
            c.shared_row_reads * READ_FIT(smem_kb)
            + c.shared_row_writes * WRITE_FIT(smem_kb)
            + c.cache_row_reads * READ_FIT(cache_kb)
            + c.cache_row_writes * WRITE_FIT(cache_kb)
            + c.tag_lookups * p.tag_lookup_pj
        )
        pj += (c.orf_reads + c.orf_writes) * p.orf_access_pj
        pj += (c.lrf_reads + c.lrf_writes) * p.lrf_access_pj
        return pj * PJ

    def leakage_w(self, partition) -> float:
        """One SM's leakage power under ``partition`` (core + SRAM)."""
        p = self.params
        kb = (partition.total_bytes + partition.tag_bytes) / 1024
        return p.sm_core_leakage_w + p.sram_leakage_w(kb)

    def leakage_j(self, result: SimResult) -> float:
        return self.leakage_w(result.partition) * result.cycles * self.params.cycle_seconds

    def dram_j(self, result: SimResult) -> float:
        return result.energy_counts.dram_bits * self.params.dram_energy_pj_per_bit * PJ

    def core_dynamic_j(self, baseline_cycles: float) -> float:
        return self.params.sm_dynamic_power_w * baseline_cycles * self.params.cycle_seconds

    def evaluate(
        self, result: SimResult, baseline_cycles: float | None = None
    ) -> EnergyBreakdown:
        """Price one run.

        Args:
            result: The simulated run.
            baseline_cycles: Runtime of the baseline 256/64/64 partition
                for the same benchmark, used to price the constant core
                dynamic energy.  Defaults to the run's own cycles (exact
                when pricing the baseline itself).
        """
        base = baseline_cycles if baseline_cycles is not None else result.cycles
        return EnergyBreakdown(
            core_dynamic_j=self.core_dynamic_j(base),
            bank_j=self.bank_energy_j(result),
            leakage_j=self.leakage_j(result),
            dram_j=self.dram_j(result),
        )

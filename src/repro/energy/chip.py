"""Chip-level energy: analytic scale-up and measured multi-SM pricing.

The paper simulates one SM and scales to the chip analytically (Section
5.2): a 32-SM GPU at 32 nm consuming 130 W, with SMs taking 70% of chip
energy and the memory system 30%.  :meth:`ChipModel.evaluate` performs
that scale-up from a single :class:`~repro.sm.result.SimResult`:

* every SM runs the same workload share, so chip runtime = SM runtime;
* SM energy (dynamic core + banks + SRAM leakage) multiplies by N;
* DRAM energy is already chip-shared in the SM model (each SM's
  40 pJ/bit covers its own traffic; N SMs carry N shares);
* the remaining (non-DRAM) memory-system power closes the budget to
  the chip design power at baseline.

:meth:`ChipModel.evaluate_chip` replaces the scale-up with measurement:
given a :class:`~repro.chip.result.ChipResult` from
:func:`repro.chip.simulate_chip`, each SM's bank and DRAM energies come
from its *own* counters (SMs doing more work, or stalled behind the
shared bus, are priced as such), and leakage is priced at the chip
makespan -- an SM that drained its CTAs early still leaks until the
last one finishes.  The chip power and SM-share constants are
:class:`~repro.energy.params.EnergyParams` fields (paper values as
defaults), and the SM count comes from the configuration, not a
module-level constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.energy.params import EnergyParams
from repro.energy.sram import fold_sum
from repro.sm.result import SimResult


@dataclass(frozen=True)
class ChipSummary:
    """Chip-level view of one simulated configuration."""

    runtime_s: float
    sm_energy_j: float  # all SMs: dynamic core + banks + leakage
    memory_system_j: float  # DRAM + the non-DRAM memory-system share
    total_j: float
    avg_power_w: float
    energy_per_instruction_pj: float

    def summary(self) -> str:
        return (
            f"chip: {self.runtime_s * 1e6:.1f} us, {self.total_j * 1e3:.2f} mJ, "
            f"{self.avg_power_w:.0f} W average"
        )


class ChipModel:
    """Prices chip-level energy, analytically or from measured SMs.

    Args:
        params: Table 3 constants plus the chip budget
            (``chip_power_w``, ``sm_energy_share``).
        num_sms: SMs assumed by the analytic :meth:`evaluate` scale-up
            (paper: 32).  The measured :meth:`evaluate_chip` path uses
            the SM count of the run it is handed instead.
    """

    def __init__(self, params: EnergyParams | None = None, num_sms: int = 32) -> None:
        if num_sms < 1:
            raise ValueError("num_sms must be >= 1")
        self.params = params or EnergyParams()
        self.num_sms = num_sms
        self.energy_model = EnergyModel(self.params)

    def non_dram_memory_power_w(self) -> float:
        """Constant power of the non-DRAM memory system (crossbars, L2,
        controllers): the residual of the chip budget after the SM
        share, minus what DRAM traffic accounts for dynamically."""
        p = self.params
        return p.chip_power_w * (1.0 - p.sm_energy_share) / 2.0

    def evaluate(
        self, result: SimResult, baseline_cycles: float | None = None
    ) -> ChipSummary:
        """The paper's analytic scale-up of one SM to ``num_sms``."""
        sm: EnergyBreakdown = self.energy_model.evaluate(result, baseline_cycles)
        n = self.num_sms
        runtime_s = result.cycles * self.params.cycle_seconds
        sm_all = n * (sm.core_dynamic_j + sm.bank_j + sm.leakage_j)
        dram_all = n * sm.dram_j
        mem_rest = self.non_dram_memory_power_w() * runtime_s
        total = sm_all + dram_all + mem_rest
        return ChipSummary(
            runtime_s=runtime_s,
            sm_energy_j=sm_all,
            memory_system_j=dram_all + mem_rest,
            total_j=total,
            avg_power_w=total / runtime_s if runtime_s else 0.0,
            energy_per_instruction_pj=(
                total / (n * result.instructions) * 1e12
                if result.instructions
                else 0.0
            ),
        )

    def evaluate_chip(
        self, chip_result, baseline_cycles: float | None = None
    ) -> ChipSummary:
        """Price a measured multi-SM run (no per-SM uniformity assumed).

        Args:
            chip_result: A :class:`~repro.chip.result.ChipResult`; bank
                and DRAM energies come from each SM's own counters.
            baseline_cycles: Baseline *chip* makespan for the same
                benchmark, pricing the constant core dynamic power (the
                paper's convention); defaults to this run's makespan.
        """
        em = self.energy_model
        p = self.params
        runtime_s = chip_result.cycles * p.cycle_seconds
        base = baseline_cycles if baseline_cycles is not None else chip_result.cycles
        n = chip_result.num_sms
        core_j = n * em.core_dynamic_j(base)
        bank_j = fold_sum(em.bank_energy_j(r) for r in chip_result.per_sm)
        # Leakage runs until the *chip* finishes: an SM whose CTAs
        # drained early still leaks while others work.
        leakage_j = n * em.leakage_w(chip_result.partition) * runtime_s
        dram_j = fold_sum(em.dram_j(r) for r in chip_result.per_sm)
        mem_rest = self.non_dram_memory_power_w() * runtime_s
        sm_all = core_j + bank_j + leakage_j
        total = sm_all + dram_j + mem_rest
        instructions = chip_result.instructions
        return ChipSummary(
            runtime_s=runtime_s,
            sm_energy_j=sm_all,
            memory_system_j=dram_j + mem_rest,
            total_j=total,
            avg_power_w=total / runtime_s if runtime_s else 0.0,
            energy_per_instruction_pj=(
                total / instructions * 1e12 if instructions else 0.0
            ),
        )

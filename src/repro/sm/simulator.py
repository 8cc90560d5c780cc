"""Single-SM timing simulation: the one-SM chip.

See the package docstring (:mod:`repro.sm`) for the modelling contract.
:func:`simulate` is :func:`repro.chip.simulate_chip` on
:meth:`ChipConfig.single_sm() <repro.chip.config.ChipConfig.single_sm>`:
one :class:`~repro.sm.core.SMCore` behind a private channel, fed the
whole grid by the chip's CTA dispatcher and run on the columnar replay
loop (:func:`repro.sm.replay.run_columnar`), with or without a
collector.  Core wiring is written once, in the chip simulator.
``docs/architecture.md`` describes that loop.
"""

from __future__ import annotations

from repro.compiler.compiled import CompiledKernel
from repro.core.partition import MemoryPartition
from repro.sm.config import SMConfig
from repro.sm.core import SimulationError
from repro.sm.result import SimResult

__all__ = ["SimulationError", "simulate"]


def simulate(
    kernel: CompiledKernel,
    partition: MemoryPartition,
    config: SMConfig | None = None,
    thread_target: int | None = None,
    collector=None,
) -> SimResult:
    """Run one kernel launch to completion under a memory partition.

    This is the paper's single-SM methodology: one SM behind a private
    1/32-bandwidth channel, running the whole grid.

    Args:
        kernel: Compiled kernel (see :func:`repro.compiler.compile_kernel`).
        partition: Memory split to simulate (baseline, Fermi-like, or
            unified).
        config: SM latencies/bandwidth; defaults to Table 2 values.
        thread_target: Optional cap on resident threads (the paper's
            256..1024 sweeps); ``None`` lets occupancy decide.
        collector: Optional :class:`repro.obs.Collector` receiving stall
            attribution, interval metrics, and trace events.  ``None``
            (or any collector with ``enabled == False``) keeps the hot
            loop uninstrumented; instrumentation never changes timing.

    Returns:
        A :class:`~repro.sm.result.SimResult` with cycles, DRAM traffic,
        bank-conflict statistics, and energy-relevant event counts (plus
        per-cause stall totals when a collector was attached).

    Raises:
        repro.sm.cta_scheduler.LaunchError: If no CTA fits the partition.
    """
    # repro.chip builds on this package, so it is imported at call time.
    from repro.chip import ChipConfig, simulate_chip

    chip = ChipConfig.single_sm(config or SMConfig())
    return simulate_chip(
        kernel, partition, chip, thread_target, collectors=[collector]
    ).per_sm[0]

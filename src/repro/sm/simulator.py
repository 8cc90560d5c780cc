"""Single-SM timing simulation: one core, a private channel, the whole grid.

See the package docstring (:mod:`repro.sm`) for the modelling contract.
:func:`simulate` is the one-core case of the chip simulator: it builds
one :class:`~repro.sm.core.SMCore` and runs it on the columnar replay
loop (:func:`repro.sm.replay.run_columnar`), the loop
:func:`repro.chip.simulate_chip` runs N cores on, with or without a
collector.  ``docs/architecture.md`` describes that loop.
"""

from __future__ import annotations

from repro.compiler.compiled import CompiledKernel
from repro.core.partition import MemoryPartition
from repro.sm import replay
from repro.sm.config import SMConfig
from repro.sm.core import SimulationError, SMCore
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
    cfg = config or SMConfig()
    obs = collector if collector is not None and collector.enabled else None
    dram = cfg.make_dram_channel(
        observer=obs.dram_transfer if obs is not None else None
    )
    core = SMCore(0, kernel, partition, cfg, thread_target, dram, obs)
    replay.run_columnar(kernel, cfg, [core])
    return core.result(core.end_cycle())

"""CTA residency management for the SM simulator.

Determines how many CTAs fit a partition (via
:mod:`repro.core.occupancy`), assigns shared-memory base offsets to
resident CTAs, and feeds pending CTAs onto the SM as resident ones
retire -- the behaviour of the hardware work distributor the paper's
thread-count studies rely on (Sections 3.3 and 4.5).  Which CTA comes
next is the chip's CTA dispatcher's call (:mod:`repro.chip.dispatch`),
for one SM as for many.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.compiled import CompiledCTA, CompiledKernel
from repro.core.occupancy import occupancy_limits
from repro.core.partition import MemoryPartition
from repro.memory.sharedmem import SharedMemoryFile


class LaunchError(RuntimeError):
    """The kernel cannot place even one CTA under the partition."""


@dataclass(slots=True)
class ResidentCTA:
    """One CTA currently executing on the SM."""

    index: int
    cta: CompiledCTA
    shared_base: int
    warps_outstanding: int
    barrier_count: int = 0
    waiting_warps: list = field(default_factory=list)


class CTAScheduler:
    """Launches CTAs of one kernel under a partition's occupancy limits.

    The chip's shared ``dispatcher`` (:class:`repro.chip.CTADispatcher`)
    picks the next grid index for SM ``sm_index``; it hands one SM the
    grid in index order -- the single-SM methodology of the paper.
    """

    def __init__(
        self,
        kernel: CompiledKernel,
        partition: MemoryPartition,
        thread_target: int | None,
        dispatcher,
        sm_index: int,
    ) -> None:
        self.kernel = kernel
        self.partition = partition
        self._dispatcher = dispatcher
        self._sm_index = sm_index
        launch = kernel.launch
        limits = occupancy_limits(
            partition,
            regs_per_thread=kernel.regs_per_thread,
            threads_per_cta=launch.threads_per_cta,
            smem_bytes_per_cta=launch.smem_bytes_per_cta,
            thread_target=thread_target if thread_target is not None else 1024,
        )
        self.limits = limits
        if limits.resident_ctas == 0:
            raise LaunchError(
                f"kernel {kernel.name!r} does not fit: one CTA needs "
                f"{4 * kernel.regs_per_thread * launch.threads_per_cta} B of "
                f"registers and {launch.smem_bytes_per_cta} B of shared memory "
                f"under {partition.describe()}"
            )
        self._smem = SharedMemoryFile(partition.smem_bytes)
        self.max_concurrent = limits.resident_ctas

    @property
    def remaining(self) -> int:
        """CTAs of the grid not yet launched on any SM."""
        return self._dispatcher.remaining

    def launch_next(self) -> ResidentCTA | None:
        """Place the next pending CTA, or None when the grid is drained."""
        index = self._dispatcher.next_cta(self._sm_index)
        if index is None:
            return None
        smem_bytes = self.kernel.launch.smem_bytes_per_cta
        base = self._smem.alloc(smem_bytes)
        if base is None:
            raise LaunchError(
                f"shared memory exhausted placing CTA {index} "
                f"(occupancy limits said {self.max_concurrent} CTAs fit)"
            )
        cta = self.kernel.ctas[index]
        resident = ResidentCTA(
            index=index,
            cta=cta,
            shared_base=base,
            warps_outstanding=cta.num_warps,
        )
        return resident

    def retire(self, resident: ResidentCTA) -> None:
        """Release a finished CTA's shared-memory allocation."""
        if self.kernel.launch.smem_bytes_per_cta > 0:
            self._smem.free(resident.shared_base)

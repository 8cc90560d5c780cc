"""Kernel metadata and trace containers.

A *kernel* in this reproduction is a benchmark trace generator plus the
static facts the paper's allocation algorithm consumes (Section 4.5):

* registers per thread required to avoid spills (compiler-derived),
* shared-memory bytes per CTA (programmer-declared),
* CTA shape (threads per CTA) and grid size.

The generated :class:`KernelTrace` holds one instruction stream per warp
per CTA.  The timing simulator replays these streams under a given
:class:`~repro.core.partition.MemoryPartition`; the same trace is reused
across all memory configurations, mirroring the paper's trace-driven
methodology.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.isa.opcodes import OpClass
from repro.isa.trace import WARP_SIZE, TraceStats, WarpOp

#: Register shape of one op: (opclass, dst vreg or None, src vregs).
ShapeOp = tuple[OpClass, int | None, tuple[int, ...]]


def register_shape(ops: Sequence[WarpOp]) -> tuple[ShapeOp, ...]:
    """A warp's register shape: its ``(op class, dst, srcs)`` sequence.

    Addresses and active lanes are left out.  Liveness, register
    allocation, hierarchy tagging and bank relabelling read nothing
    else, so warps with one shape share all of their results.
    """
    return tuple([(op.op, op.dst, op.srcs) for op in ops])


@dataclass(frozen=True, slots=True)
class LaunchConfig:
    """Grid/CTA shape of one kernel launch."""

    threads_per_cta: int
    num_ctas: int
    smem_bytes_per_cta: int = 0

    def __post_init__(self) -> None:
        if self.threads_per_cta <= 0 or self.threads_per_cta % WARP_SIZE:
            raise ValueError(
                f"threads_per_cta={self.threads_per_cta} must be a positive multiple of {WARP_SIZE}"
            )
        if self.num_ctas <= 0:
            raise ValueError("num_ctas must be positive")
        if self.smem_bytes_per_cta < 0:
            raise ValueError("smem_bytes_per_cta must be non-negative")

    @property
    def warps_per_cta(self) -> int:
        return self.threads_per_cta // WARP_SIZE

    @property
    def total_threads(self) -> int:
        return self.threads_per_cta * self.num_ctas

    @property
    def smem_bytes_per_thread(self) -> float:
        return self.smem_bytes_per_cta / self.threads_per_cta


@dataclass(frozen=True, slots=True)
class KernelInfo:
    """Static per-kernel facts consumed by the partitioning algorithm."""

    name: str
    regs_per_thread: int
    smem_bytes_per_thread: float
    threads_per_cta: int
    uses_texture: bool = False

    @property
    def rf_bytes_per_thread(self) -> int:
        """Register footprint in bytes (4-byte architectural registers)."""
        return 4 * self.regs_per_thread

    def rf_bytes(self, threads: int) -> int:
        return self.rf_bytes_per_thread * threads

    def smem_bytes(self, threads: int) -> float:
        return self.smem_bytes_per_thread * threads


@dataclass(slots=True)
class CTATrace:
    """Per-warp instruction streams of one CTA."""

    warps: list[list[WarpOp]]

    def __post_init__(self) -> None:
        if not self.warps:
            raise ValueError("CTA must contain at least one warp")
        barrier_counts = {
            sum(1 for op in w if op.op is OpClass.BARRIER) for w in self.warps
        }
        if len(barrier_counts) != 1:
            raise ValueError(
                "all warps in a CTA must execute the same number of barriers; "
                f"got counts {sorted(barrier_counts)}"
            )

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    @property
    def total_ops(self) -> int:
        return sum(len(w) for w in self.warps)


@dataclass(slots=True)
class KernelTrace:
    """A full kernel launch: metadata plus all CTA traces.

    Warps are numbered by register shape once, when the trace is built,
    so that the compiler and the padding in :mod:`repro.kernels.base`
    work once per distinct shape without regrouping warps.

    Attributes:
        shape_ids: Each warp's shape number, in launch order (CTA-major).
        shape_warps: The first warp with each shape, in number order.
    """

    name: str
    launch: LaunchConfig
    ctas: list[CTATrace]
    uses_texture: bool = False
    _stats: TraceStats | None = field(default=None, repr=False, compare=False)
    shape_ids: list[int] = field(init=False, repr=False, compare=False)
    shape_warps: list[list[WarpOp]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.ctas) != self.launch.num_ctas:
            raise ValueError(
                f"launch declares {self.launch.num_ctas} CTAs but trace has {len(self.ctas)}"
            )
        for cta in self.ctas:
            if cta.num_warps != self.launch.warps_per_cta:
                raise ValueError(
                    f"CTA has {cta.num_warps} warps, launch declares {self.launch.warps_per_cta}"
                )
        # Warps keep numbers, not keys: a key costs a tuple per op, so
        # only one per distinct shape lives, and only while numbering.
        numbers: dict[tuple[ShapeOp, ...], int] = {}
        self.shape_ids = []
        self.shape_warps = []
        for cta in self.ctas:
            for w in cta.warps:
                n = numbers.setdefault(register_shape(w), len(numbers))
                if n == len(self.shape_warps):
                    self.shape_warps.append(w)
                self.shape_ids.append(n)

    @property
    def total_ops(self) -> int:
        return sum(cta.total_ops for cta in self.ctas)

    def stats(self) -> TraceStats:
        """Aggregate instruction-mix statistics (cached)."""
        if self._stats is None:
            self._stats = TraceStats.from_ops(
                op for cta in self.ctas for warp in cta.warps for op in warp
            )
        return self._stats

    def iter_ops(self):
        for cta in self.ctas:
            for warp in cta.warps:
                yield from warp

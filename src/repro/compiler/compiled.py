"""Compiled (architectural-register) trace representation.

After register allocation and RF-hierarchy tagging, every warp
instruction becomes a :class:`CompiledOp` whose operands are
architectural registers annotated with the register-file level that
serves them.  These records carry everything the timing simulator and
energy model need:

* ``dst`` / ``srcs`` -- architectural registers, for scoreboard
  dependence tracking;
* ``mrf_reads`` / ``mrf_writes`` -- the subset of operands that actually
  touch main-register-file banks (bank conflicts + bank energy);
* ``lrf_reads`` / ``orf_reads`` / ``orf_writes`` / ``lrf_writes`` --
  hierarchy hit counts (energy only; the small structures are
  conflict-free per [9]);
* ``addrs`` -- per-thread byte addresses for memory ops.

A :class:`CompiledWarp` builds its records only when they are first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.isa.kernel import LaunchConfig
from repro.isa.opcodes import OpClass
from repro.isa.trace import TraceStats, WarpOp

if TYPE_CHECKING:
    from repro.compiler.pipeline import _ShapeCompilation


@dataclass(frozen=True, slots=True)
class CompiledOp:
    """One warp instruction over architectural registers."""

    op: OpClass
    dst: int | None
    srcs: tuple[int, ...]
    mrf_reads: tuple[int, ...]
    mrf_writes: tuple[int, ...]
    lrf_reads: int
    orf_reads: int
    lrf_writes: int
    orf_writes: int
    addrs: tuple[int, ...] | None
    active: int


@dataclass(slots=True)
class RFTrafficCounts:
    """Register-file hierarchy traffic of one compiled stream."""

    mrf_reads: int = 0
    mrf_writes: int = 0
    orf_reads: int = 0
    orf_writes: int = 0
    lrf_reads: int = 0
    lrf_writes: int = 0

    def add(self, other: "RFTrafficCounts") -> None:
        self.mrf_reads += other.mrf_reads
        self.mrf_writes += other.mrf_writes
        self.orf_reads += other.orf_reads
        self.orf_writes += other.orf_writes
        self.lrf_reads += other.lrf_reads
        self.lrf_writes += other.lrf_writes

    @property
    def total_reads(self) -> int:
        return self.mrf_reads + self.orf_reads + self.lrf_reads

    @property
    def mrf_read_fraction(self) -> float:
        """Fraction of operand reads served by the MRF.

        The paper's enabling prior work reduces MRF accesses by ~60%,
        i.e. this fraction should sit near 0.4 for typical kernels.
        """
        total = self.total_reads
        return self.mrf_reads / total if total else 0.0


@dataclass(slots=True)
class CompiledWarp:
    """Compiled instruction stream of one warp.

    The warp is its register shape's compilation (``shape``, shared and
    never mutated), its own trace ops (addresses and active lanes) and
    the base of its spill region.  Op count, registers, spill slots and
    RF traffic are shape facts; :attr:`ops` is built on first read.
    """

    shape: _ShapeCompilation
    trace_ops: list[WarpOp]
    local_base: int
    _ops: list[CompiledOp] | None = field(default=None, repr=False, compare=False)

    @property
    def ops(self) -> list[CompiledOp]:
        if self._ops is None:
            self._ops = self.shape.materialise(self.trace_ops, self.local_base)
        return self._ops

    @property
    def num_ops(self) -> int:
        return len(self.shape.entries)

    @property
    def regs_used(self) -> int:
        return self.shape.regs_used

    @property
    def spill_slots(self) -> int:
        return self.shape.num_slots

    @property
    def rf_traffic(self) -> RFTrafficCounts:
        return self.shape.rf_traffic


@dataclass(slots=True)
class CompiledCTA:
    warps: list[CompiledWarp]

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    @property
    def total_ops(self) -> int:
        return sum(w.num_ops for w in self.warps)


@dataclass(slots=True)
class CompiledKernel:
    """A fully lowered kernel launch, ready for timing simulation."""

    name: str
    launch: LaunchConfig
    ctas: list[CompiledCTA]
    regs_per_thread: int
    max_live: int
    uses_texture: bool = False
    _stats: TraceStats | None = field(default=None, repr=False, compare=False)
    #: Replay's lowering caches (see :mod:`repro.compiler.columnar`);
    #: lazily filled by the first ``simulate()`` call and reused by every
    #: subsequent simulation of this kernel.
    _plan_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def total_ops(self) -> int:
        return sum(cta.total_ops for cta in self.ctas)

    @property
    def spill_slots(self) -> int:
        return max((w.spill_slots for cta in self.ctas for w in cta.warps), default=0)

    def rf_traffic(self) -> RFTrafficCounts:
        total = RFTrafficCounts()
        for cta in self.ctas:
            for warp in cta.warps:
                total.add(warp.rf_traffic)
        return total

    def stats(self) -> TraceStats:
        if self._stats is None:
            self._stats = TraceStats.from_ops(
                op for cta in self.ctas for warp in cta.warps for op in warp.ops
            )
        return self._stats

    def dynamic_instruction_ratio(self, baseline_ops: int) -> float:
        """Dynamic instruction count relative to a no-spill baseline.

        This is the spill-overhead metric of Table 1 columns 3-7.
        """
        if baseline_ops <= 0:
            raise ValueError("baseline_ops must be positive")
        return self.total_ops / baseline_ops

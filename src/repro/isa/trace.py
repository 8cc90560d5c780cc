"""Dynamic warp-instruction records.

A :class:`WarpOp` is one warp instruction executed by (up to) 32 threads
in lockstep.  Register operands are *virtual* registers local to one warp
stream; the compiler passes in :mod:`repro.compiler` later rewrite them to
architectural registers (inserting spill code) and tag each operand with
the register-file-hierarchy level it is served from.

Memory instructions carry one byte address per active thread.  Addresses
for ``GLOBAL``/``LOCAL`` ops live in a flat 64-bit global space; addresses
for ``SHARED`` ops are offsets into the issuing CTA's shared-memory
allocation (the CTA scheduler rebases them at runtime).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import _MEMORY_OPS, OpClass

#: Number of threads in a warp (paper Section 2: 32-thread warps).
WARP_SIZE = 32


@dataclass(frozen=True, slots=True)
class WarpOp:
    """One dynamic warp instruction over virtual registers.

    Attributes:
        op: Instruction class.
        dst: Virtual destination register (non-negative), or ``None``
            for stores, barriers, and other result-less instructions.
        srcs: Virtual source registers (address and data operands).
        addrs: Per-active-thread byte addresses for memory instructions,
            ``None`` otherwise.  ``len(addrs) == active``.
        active: Number of active threads.  Control-flow divergence is
            represented by emitting ops with reduced active counts; a
            memory op may be fully predicated off (``active == 0`` with
            ``addrs == ()``), in which case it still occupies an issue
            slot but touches no memory.  Non-memory ops require at least
            one active thread.
    """

    op: OpClass
    dst: int | None = None
    srcs: tuple[int, ...] = ()
    addrs: tuple[int, ...] | None = None
    active: int = WARP_SIZE

    def __post_init__(self) -> None:
        if self.dst is not None and self.dst < 0:
            raise ValueError(f"dst must be a non-negative register, got {self.dst}")
        if self.op in _MEMORY_OPS:
            if not 0 <= self.active <= WARP_SIZE:
                raise ValueError(
                    f"active thread count {self.active} outside [0, {WARP_SIZE}]"
                )
            if self.addrs is None:
                raise ValueError(f"{self.op} requires per-thread addresses")
            if len(self.addrs) != self.active:
                raise ValueError(
                    f"{self.op}: {len(self.addrs)} addresses for {self.active} active threads"
                )
        elif not isinstance(self.op, OpClass):
            raise ValueError(f"op must be an OpClass, got {self.op!r}")
        else:
            if not 1 <= self.active <= WARP_SIZE:
                raise ValueError(
                    f"active thread count {self.active} outside [1, {WARP_SIZE}]"
                )
            if self.addrs is not None:
                raise ValueError(f"{self.op} must not carry addresses")

    @property
    def regs_read(self) -> tuple[int, ...]:
        return self.srcs

    @property
    def regs_written(self) -> tuple[int, ...]:
        return () if self.dst is None else (self.dst,)


@dataclass(slots=True)
class TraceStats:
    """Aggregate statistics over a warp instruction stream."""

    total_ops: int = 0
    alu_ops: int = 0
    sfu_ops: int = 0
    tex_ops: int = 0
    global_loads: int = 0
    global_stores: int = 0
    shared_loads: int = 0
    shared_stores: int = 0
    local_loads: int = 0
    local_stores: int = 0
    barriers: int = 0
    by_op: dict = field(default_factory=dict)

    @classmethod
    def from_ops(cls, ops) -> "TraceStats":
        stats = cls()
        counts: dict[OpClass, int] = {}
        for w in ops:
            counts[w.op] = counts.get(w.op, 0) + 1
        stats.by_op = counts
        stats.total_ops = sum(counts.values())
        stats.alu_ops = counts.get(OpClass.ALU, 0)
        stats.sfu_ops = counts.get(OpClass.SFU, 0)
        stats.tex_ops = counts.get(OpClass.TEX, 0)
        stats.global_loads = counts.get(OpClass.LOAD_GLOBAL, 0)
        stats.global_stores = counts.get(OpClass.STORE_GLOBAL, 0)
        stats.shared_loads = counts.get(OpClass.LOAD_SHARED, 0)
        stats.shared_stores = counts.get(OpClass.STORE_SHARED, 0)
        stats.local_loads = counts.get(OpClass.LOAD_LOCAL, 0)
        stats.local_stores = counts.get(OpClass.STORE_LOCAL, 0)
        stats.barriers = counts.get(OpClass.BARRIER, 0)
        return stats

    @property
    def memory_ops(self) -> int:
        return (
            self.global_loads
            + self.global_stores
            + self.shared_loads
            + self.shared_stores
            + self.local_loads
            + self.local_stores
        )

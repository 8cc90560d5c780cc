"""Linear-scan register allocation with Belady spill selection.

The allocator runs over the *register shape* of a warp stream -- the
sequence of ``(opclass, dst_vreg, srcs_vregs)`` tuples -- and produces a
:class:`SpillSchedule`: the original ops rewritten onto architectural
registers, interleaved with ``fill``/``spill`` directives that the
pipeline later materialises as ``LOAD_LOCAL``/``STORE_LOCAL``
instructions.

Because the dynamic stream is straight-line, furthest-next-use (Belady)
eviction is the optimal offline policy; with a register budget at least
equal to the stream's peak liveness the schedule provably contains no
spill code, which is exactly the paper's definition of the no-spill
register requirement (Table 1, column 2).

Spilled values live in thread-local memory, which -- as on real GPUs --
is backed by the global memory path and therefore competes for cache
capacity and DRAM bandwidth (Section 3.1 couples spill overhead to cache
pressure through this mechanism).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Union

from repro.compiler.liveness import next_use_table
from repro.isa.kernel import ShapeOp

#: Sentinel next-use position for values that are never read again.
_NO_USE = 1 << 60


@dataclass(frozen=True, slots=True)
class Fill:
    """Reload a spilled value from its local-memory slot."""

    slot: int
    reg: int
    at: int  # index of the op about to consume the value


@dataclass(frozen=True, slots=True)
class Spill:
    """Write a live value out to its local-memory slot."""

    slot: int
    reg: int
    at: int


@dataclass(frozen=True, slots=True)
class Rewrite:
    """An original op with operands rewritten to architectural registers."""

    index: int
    dst: int | None
    srcs: tuple[int, ...]


ScheduleEntry = Union[Fill, Spill, Rewrite]


@dataclass(slots=True)
class SpillSchedule:
    """Result of allocating one warp stream onto ``num_regs`` registers."""

    entries: list[ScheduleEntry]
    num_regs: int
    regs_used: int
    num_slots: int

    @property
    def num_fills(self) -> int:
        return sum(1 for e in self.entries if isinstance(e, Fill))

    @property
    def num_spills(self) -> int:
        return sum(1 for e in self.entries if isinstance(e, Spill))

    @property
    def total_ops(self) -> int:
        return len(self.entries)


class _Allocator:
    """Single-use allocator state for one stream."""

    def __init__(self, shape: list[ShapeOp], num_regs: int) -> None:
        self.shape = shape
        self.num_regs = num_regs
        self.uses = next_use_table(shape)
        self.use_ptr = {v: 0 for v in self.uses}
        self.reg_of: dict[int, int] = {}
        self.vreg_of: dict[int, int] = {}
        self.free = list(range(num_regs - 1, -1, -1))
        self.dirty: set[int] = set()
        self.slot_of: dict[int, int] = {}
        self.heap: list[tuple[int, int]] = []  # (-next_use, vreg), lazily invalidated
        self.heap_key: dict[int, int] = {}
        self.entries: list[ScheduleEntry] = []
        self.regs_used = 0

    # -- next-use bookkeeping ------------------------------------------
    def _next_use(self, vreg: int, after: int) -> int:
        uses = self.uses.get(vreg)
        if not uses:
            return _NO_USE
        ptr = self.use_ptr[vreg]
        while ptr < len(uses) and uses[ptr] <= after:
            ptr += 1
        self.use_ptr[vreg] = ptr
        return uses[ptr] if ptr < len(uses) else _NO_USE

    def _push_heap(self, vreg: int, next_use: int) -> None:
        self.heap_key[vreg] = next_use
        heapq.heappush(self.heap, (-next_use, vreg))

    # -- residency ------------------------------------------------------
    def _free_reg(self, vreg: int, recycle: bool = True) -> None:
        reg = self.reg_of.pop(vreg)
        del self.vreg_of[reg]
        self.dirty.discard(vreg)
        self.heap_key.pop(vreg, None)
        if recycle:
            self.free.append(reg)

    def _evict(self, at: int, protect: set[int]) -> int:
        """Evict the resident value with the furthest next use."""
        while self.heap:
            neg_use, vreg = heapq.heappop(self.heap)
            if self.reg_of.get(vreg) is None or self.heap_key.get(vreg) != -neg_use:
                continue  # stale entry
            if vreg in protect:
                # Re-insert and scan linearly among the rest; protected sets
                # are tiny (operands of one instruction).
                candidates = [
                    v for v in self.reg_of if v not in protect and v != vreg
                ]
                self._push_heap(vreg, -neg_use)
                if not candidates:
                    raise RuntimeError(
                        f"op {at}: cannot evict, all {self.num_regs} registers "
                        "are pinned by one instruction's operands"
                    )
                victim = max(candidates, key=lambda v: self.heap_key.get(v, _NO_USE))
                return self._do_evict(victim, at)
            return self._do_evict(vreg, at)
        raise RuntimeError(f"op {at}: no resident value to evict")

    def _do_evict(self, vreg: int, at: int) -> int:
        reg = self.reg_of[vreg]
        has_future_use = self.heap_key.get(vreg, _NO_USE) != _NO_USE
        if has_future_use and vreg in self.dirty:
            slot = self.slot_of.setdefault(vreg, len(self.slot_of))
            self.entries.append(Spill(slot, reg, at))
        # The caller immediately rebinds the register, so it must not be
        # recycled into the free list.
        self._free_reg(vreg, recycle=False)
        return reg

    def _acquire(self, at: int, protect: set[int]) -> int:
        if self.free:
            reg = self.free.pop()
        else:
            reg = self._evict(at, protect)
        return reg

    def _bind(self, vreg: int, reg: int, at: int) -> None:
        self.reg_of[vreg] = reg
        self.vreg_of[reg] = vreg
        self.regs_used = max(self.regs_used, len(self.reg_of))
        self._push_heap(vreg, self._next_use(vreg, at - 1))

    # -- main walk ------------------------------------------------------
    def run(self) -> SpillSchedule:
        for i, (_, dst, srcs) in enumerate(self.shape):
            needed = list(dict.fromkeys(srcs))
            if len(needed) + (1 if dst is not None and dst not in needed else 0) > self.num_regs:
                raise ValueError(
                    f"op {i} needs {len(needed)} sources plus a destination but "
                    f"only {self.num_regs} registers are available"
                )
            protect = set(needed)
            # 1. Reload spilled sources.
            for s in needed:
                if s not in self.reg_of:
                    if s not in self.slot_of:
                        raise ValueError(f"op {i} reads vreg {s} which was never defined")
                    reg = self._acquire(i, protect)
                    self.entries.append(Fill(self.slot_of[s], reg, i))
                    self._bind(s, reg, i)
                    self.dirty.discard(s)
            arch_srcs = tuple(self.reg_of[s] for s in needed)
            # 2. Consume this use; drop dead sources.
            for s in needed:
                nxt = self._next_use(s, i)
                if nxt == _NO_USE and s != dst:
                    self._free_reg(s)
                else:
                    self._push_heap(s, nxt)
            # 3. Destination.
            arch_dst = None
            if dst is not None:
                if dst in self.reg_of:  # accumulate-in-place (alu_into)
                    arch_dst = self.reg_of[dst]
                    self._push_heap(dst, self._next_use(dst, i))
                else:
                    protect = {s for s in needed if s in self.reg_of}
                    reg = self._acquire(i, protect)
                    arch_dst = reg
                    self._bind(dst, reg, i)
                self.dirty.add(dst)
            self.entries.append(Rewrite(i, arch_dst, arch_srcs))
            # 4. Dead destination: release immediately.
            if dst is not None and self._next_use(dst, i) == _NO_USE:
                self._free_reg(dst)
        return SpillSchedule(
            entries=self.entries,
            num_regs=self.num_regs,
            regs_used=self.regs_used,
            num_slots=len(self.slot_of),
        )


def schedule_registers(shape: list[ShapeOp], num_regs: int) -> SpillSchedule:
    """Allocate a warp stream onto ``num_regs`` architectural registers.

    Args:
        shape: Register shape of the stream (``(opclass, dst, srcs)``).
        num_regs: Architectural register budget per thread.

    Returns:
        The spill schedule.  With ``num_regs >= max_live_registers`` of
        the stream, the schedule contains no fills or spills.
    """
    if num_regs <= 0:
        raise ValueError("num_regs must be positive")
    return _Allocator(shape, num_regs).run()

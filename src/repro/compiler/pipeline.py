"""Compilation pipeline: trace -> spill schedule -> hierarchy tags -> CompiledKernel.

Warps of data-parallel kernels usually share one register *shape* (same
ops and registers, different addresses), so liveness and the expensive
passes run once per distinct shape.  A compiled warp is its shape's
shared compilation plus the warp's own trace ops and spill base; its
per-op records are built only when something reads them.

Spilled values are addressed in an interleaved thread-local layout,
matching how real GPUs lay out local memory so that a warp's accesses to
the same spill slot coalesce into a single 128-byte line:

    addr = LOCAL_BASE + warp_uid * warp_stride + slot * 128 + lane * 4
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.compiler.compiled import (
    CompiledCTA,
    CompiledKernel,
    CompiledOp,
    CompiledWarp,
    RFTrafficCounts,
)
from repro.compiler.bankassign import assign_banks, remap_shape
from repro.compiler.liveness import max_live_registers
from repro.compiler.regalloc import Fill, Spill, schedule_registers
from repro.compiler.rfhierarchy import ORF_ENTRIES, OperandTags, tag_hierarchy
from repro.isa.kernel import KernelTrace, ShapeOp, register_shape
from repro.isa.opcodes import OpClass
from repro.isa.trace import WARP_SIZE, WarpOp

#: Base of the thread-local (spill) address region.  Kernels place their
#: data well below this, so spill traffic never aliases kernel data.
LOCAL_BASE = 1 << 40

#: Bytes reserved per spill slot per warp: 32 lanes x 4 bytes.
SLOT_BYTES = 4 * WARP_SIZE


@dataclass(slots=True)
class _ShapeCompilation:
    """Result of compiling one register shape.

    Every warp with the shape holds this object, so nothing may mutate
    it once built.
    """

    entries: list  # schedule entries (Fill / Spill / Rewrite)
    tags: list[OperandTags]
    arch_shape: list[ShapeOp]
    num_slots: int
    regs_used: int
    rf_traffic: RFTrafficCounts

    @staticmethod
    def spill_addrs(local_base: int, slot: int, active: int) -> tuple[int, ...]:
        """Per-lane addresses of one warp's fill or spill of ``slot``.

        The one definition of the interleaved spill layout (see the
        module docstring); replay's lowering reaches it through the
        shape, the per-op records through :meth:`materialise`.
        """
        base = local_base + slot * SLOT_BYTES
        return tuple(range(base, base + 4 * active, 4))

    def materialise(self, ops: list[WarpOp], local_base: int) -> list[CompiledOp]:
        """The per-op records of one warp with this shape.

        Args:
            ops: The warp's own trace ops, for addresses and active lanes.
            local_base: Start of the warp's spill region.
        """
        compiled: list[CompiledOp] = []
        for entry, (op_class, dst, srcs), tag in zip(self.entries, self.arch_shape, self.tags):
            if isinstance(entry, (Fill, Spill)):
                active = ops[entry.at].active
                addrs = self.spill_addrs(local_base, entry.slot, active)
            else:
                src_op = ops[entry.index]
                active = src_op.active
                addrs = src_op.addrs
            compiled.append(
                CompiledOp(
                    op=op_class,
                    dst=dst,
                    srcs=srcs,
                    mrf_reads=tag.mrf_reads,
                    mrf_writes=(dst,) if (tag.mrf_write and dst is not None) else (),
                    lrf_reads=tag.lrf_reads,
                    orf_reads=tag.orf_reads,
                    lrf_writes=1 if tag.lrf_write else 0,
                    orf_writes=1 if tag.orf_write else 0,
                    addrs=addrs,
                    active=active,
                )
            )
        return compiled


def _compile_shape(shape: Sequence[ShapeOp], num_regs: int, orf_entries: int) -> _ShapeCompilation:
    schedule = schedule_registers(shape, num_regs)
    arch_shape: list[ShapeOp] = []
    for entry in schedule.entries:
        if isinstance(entry, Fill):
            arch_shape.append((OpClass.LOAD_LOCAL, entry.reg, ()))
        elif isinstance(entry, Spill):
            arch_shape.append((OpClass.STORE_LOCAL, None, (entry.reg,)))
        else:
            arch_shape.append((shape[entry.index][0], entry.dst, entry.srcs))
    tags = tag_hierarchy(arch_shape, orf_entries=orf_entries)
    # Bank-aware relabelling (the compiler technique of ref [27] the
    # paper relies on for its "bank conflicts are rare" baseline).
    mapping = assign_banks(arch_shape, tags, num_regs)
    arch_shape, tags = remap_shape(arch_shape, tags, mapping)
    traffic = RFTrafficCounts()
    for (_, dst, _), tag in zip(arch_shape, tags):
        traffic.mrf_reads += len(tag.mrf_reads)
        traffic.mrf_writes += 1 if (tag.mrf_write and dst is not None) else 0
        traffic.orf_reads += tag.orf_reads
        traffic.lrf_reads += tag.lrf_reads
        traffic.orf_writes += 1 if tag.orf_write else 0
        traffic.lrf_writes += 1 if tag.lrf_write else 0
    return _ShapeCompilation(
        entries=schedule.entries,
        tags=tags,
        arch_shape=arch_shape,
        num_slots=schedule.num_slots,
        regs_used=schedule.regs_used,
        rf_traffic=traffic,
    )


def _orf_capacity(orf_entries: int | None) -> int:
    if orf_entries is None:
        return ORF_ENTRIES
    if orf_entries < 0:
        raise ValueError(f"orf_entries must be non-negative, got {orf_entries}")
    return orf_entries


def compile_warp(
    ops: list[WarpOp], num_regs: int, warp_uid: int = 0, orf_entries: int | None = None
) -> CompiledWarp:
    """Compile a single warp stream (convenience entry point for tests)."""
    comp = _compile_shape(register_shape(ops), num_regs, _orf_capacity(orf_entries))
    stride = max(comp.num_slots, 1) * SLOT_BYTES
    return CompiledWarp(comp, ops, LOCAL_BASE + warp_uid * stride)


def compile_kernel(
    trace: KernelTrace,
    regs_per_thread: int | None = None,
    orf_entries: int | None = None,
) -> CompiledKernel:
    """Lower a kernel trace onto a register budget.

    Args:
        trace: Kernel trace over virtual registers.
        regs_per_thread: Architectural register budget.  ``None`` uses
            the kernel's own peak liveness (the no-spill allocation of
            Table 1, column 2).
        orf_entries: ORF capacity per thread; ``None`` uses the paper's
            4 entries, 0 disables the LRF/ORF hierarchy entirely (the
            Section 6.1 "key enabler" ablation).

    Returns:
        A :class:`~repro.compiler.compiled.CompiledKernel` with spill
        code inserted and every operand tagged with its RF-hierarchy
        level.
    """
    orf = _orf_capacity(orf_entries)
    max_live = max(map(max_live_registers, trace.shape_warps), default=0)
    budget = max_live if regs_per_thread is None else regs_per_thread
    if budget <= 0:
        raise ValueError("register budget must be positive")
    compiled = [_compile_shape(register_shape(w), budget, orf) for w in trace.shape_warps]
    # The kernel-wide slot count fixes the per-warp local-memory stride.
    max_slots = max((c.num_slots for c in compiled), default=0)
    warp_stride = max(max_slots, 1) * SLOT_BYTES
    ctas: list[CompiledCTA] = []
    warp_uid = 0
    for cta in trace.ctas:
        warps = []
        for w in cta.warps:
            comp = compiled[trace.shape_ids[warp_uid]]
            warps.append(CompiledWarp(comp, w, LOCAL_BASE + warp_uid * warp_stride))
            warp_uid += 1
        ctas.append(CompiledCTA(warps))
    return CompiledKernel(
        name=trace.name,
        launch=trace.launch,
        ctas=ctas,
        regs_per_thread=budget,
        max_live=max_live,
        uses_texture=trace.uses_texture,
    )

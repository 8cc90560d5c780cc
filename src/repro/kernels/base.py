"""Construction framework shared by all benchmark kernels.

Every kernel module defines ``build(scale, **overrides) -> KernelTrace``
using :func:`build_kernel_trace`.  A kernel's per-warp generator emits
its algorithm into a :class:`~repro.isa.builder.WarpBuilder`, which
fixes a base register footprint; long-lived padding values then raise
the peak liveness to the Table 1 target (real kernels hold more address
arithmetic, loop, and predicate state than a warp-level model needs to
carry explicitly; the padding stands in for exactly that state).

Each trace is generated once.  Padding is a renaming of the natural
stream, so it is worked out once per distinct register shape and shared
by that shape's warps, each of which keeps its own addresses and active
lanes.

Address space convention: each global array lives in its own 16 MB
region (:func:`region`), far below the spill area at ``1 << 40``, so
arrays, spill traffic, and regions of different kernels never alias.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.compiler.liveness import max_live_registers
from repro.isa.builder import WarpBuilder
from repro.isa.kernel import CTATrace, KernelTrace, LaunchConfig
from repro.isa.opcodes import OpClass
from repro.isa.trace import WARP_SIZE, WarpOp

#: Supported workload scales.  "tiny" keeps unit tests fast, "small" is
#: the default for experiments, "paper" approaches the publication sizes.
SCALES = ("tiny", "small", "paper")


def region(index: int) -> int:
    """Base byte address of global array number ``index``."""
    if index < 0:
        raise ValueError("region index must be non-negative")
    return (index + 1) << 24


def coalesced(base: int, first_elem: int, n: int = WARP_SIZE, elem_bytes: int = 4) -> list[int]:
    """Per-thread addresses of ``n`` consecutive elements."""
    return [base + (first_elem + t) * elem_bytes for t in range(n)]


def broadcast(base: int, elem: int, n: int = WARP_SIZE, elem_bytes: int = 4) -> list[int]:
    """All threads read the same element (hardware broadcasts)."""
    return [base + elem * elem_bytes] * n


#: A kernel's per-warp generator: (cta_index, warp_index) -> the builder
#: holding that warp's natural (unpadded) stream.
WarpFn = Callable[[int, int], WarpBuilder]


def _renamed_shape(ops: Sequence[WarpOp], pad: int) -> tuple[list, list, list]:
    """Registers of a natural stream once it carries ``pad`` extra values.

    The padding values are defined first, at vregs ``0..pad-1``, and
    touched last, so they are live across the whole stream and raise
    peak liveness by exactly ``pad`` (provided the natural peak does not
    occur during the final touches, which :func:`build_kernel_trace`
    verifies).  Every natural vreg moves up by ``pad``, and each touch
    writes a fresh vreg above them all, as a builder would.

    Returns:
        The ``(dst, srcs)`` pairs of the padding definitions, of the
        natural ops and of the final touches.
    """
    top = pad + 1 + max((op.dst for op in ops if op.dst is not None), default=-1)
    return (
        [(v, ()) for v in range(pad)],
        [
            (None if op.dst is None else op.dst + pad, tuple([r + pad for r in op.srcs]))
            for op in ops
        ],
        [(top + v, (v,)) for v in range(pad)],
    )


def build_kernel_trace(
    name: str,
    launch: LaunchConfig,
    warp_fn: WarpFn,
    target_regs: int | None = None,
    uses_texture: bool = False,
) -> KernelTrace:
    """Build a kernel trace, padding register pressure up to a target.

    Args:
        name: Benchmark name.
        launch: Grid shape and per-CTA shared memory.
        warp_fn: Per-warp generator, called once per warp.
        target_regs: Desired peak liveness (Table 1, column 2).  The
            natural footprint must not exceed it; padding only raises
            pressure.
        uses_texture: Kernel issues TEX instructions.

    Returns:
        The finished :class:`~repro.isa.kernel.KernelTrace`.
    """
    builders = [
        [warp_fn(c, w) for w in range(launch.warps_per_cta)] for c in range(launch.num_ctas)
    ]
    trace = KernelTrace(
        name, launch, [CTATrace([b.ops for b in cta]) for cta in builders],
        uses_texture=uses_texture,
    )
    if target_regs is None:
        return trace
    measured = max(map(max_live_registers, trace.shape_warps))
    if measured > target_regs:
        raise ValueError(
            f"{name}: natural register footprint {measured} exceeds the "
            f"target of {target_regs}; restructure the kernel"
        )
    if measured == target_regs:
        return trace
    pad = target_regs - measured
    renamed = [_renamed_shape(w, pad) for w in trace.shape_warps]
    shape_ids = iter(trace.shape_ids)
    ctas = []
    for cta_builders in builders:
        warps = []
        for b in cta_builders:
            defs, body, touches = renamed[next(shape_ids)]
            # The padding ops take the builder's default active count.
            warps.append(
                [WarpOp(OpClass.ALU, dst, srcs, None, b.active) for dst, srcs in defs]
                + [
                    WarpOp(op.op, dst, srcs, op.addrs, op.active)
                    for op, (dst, srcs) in zip(b.ops, body)
                ]
                + [WarpOp(OpClass.ALU, dst, srcs, None, b.active) for dst, srcs in touches]
            )
        ctas.append(CTATrace(warps))
    trace = KernelTrace(name, launch, ctas, uses_texture=uses_texture)
    padded = max(map(max_live_registers, trace.shape_warps))
    if padded != target_regs:
        raise ValueError(
            f"{name}: padding produced peak liveness {padded}, expected "
            f"{target_regs} (natural {measured})"
        )
    return trace


def require_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")

"""Construction framework shared by all benchmark kernels.

Every kernel module defines ``build(scale, **overrides) -> KernelTrace``
using :func:`build_kernel_trace`, which handles the two-pass
register-pressure padding: the kernel's algorithm determines a base
register footprint, and long-lived padding values raise the peak
liveness to the Table 1 target (real kernels hold more address
arithmetic, loop, and predicate state than a warp-level model needs to
carry explicitly; the padding stands in for exactly that state).

Address space convention: each global array lives in its own 16 MB
region (:func:`region`), far below the spill area at ``1 << 40``, so
arrays, spill traffic, and regions of different kernels never alias.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.compiler.liveness import max_live_registers
from repro.compiler.pipeline import shape_groups
from repro.isa.builder import WarpBuilder
from repro.isa.kernel import CTATrace, KernelTrace, LaunchConfig
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


class PaddedWarp(WarpBuilder):
    """A WarpBuilder that carries ``pad`` extra long-lived values.

    The padding registers are created first and touched last, so they
    are live across the whole stream and raise peak liveness by exactly
    ``pad`` (provided the natural peak does not occur during the final
    touches, which :func:`build_kernel_trace` verifies).
    """

    def __init__(self, pad: int, active: int = WARP_SIZE) -> None:
        super().__init__(active=active)
        self._pad_values = [self.iconst() for _ in range(pad)]

    def finish(self) -> list[WarpOp]:
        for v in self._pad_values:
            self.touch(v)
        return self.ops


#: A kernel's per-warp generator: (cta_index, warp_index, pad) -> ops.
WarpFn = Callable[[int, int, int], Sequence[WarpOp]]


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
        warp_fn: Per-warp generator; must route ``pad`` into a
            :class:`PaddedWarp` (or otherwise honour it).
        target_regs: Desired peak liveness (Table 1, column 2).  The
            natural footprint must not exceed it; padding only raises
            pressure.
        uses_texture: Kernel issues TEX instructions.

    Returns:
        The finished :class:`~repro.isa.kernel.KernelTrace`.
    """

    def build(pad: int) -> KernelTrace:
        ctas = [
            CTATrace([list(warp_fn(c, w, pad)) for w in range(launch.warps_per_cta)])
            for c in range(launch.num_ctas)
        ]
        return KernelTrace(name, launch, ctas, uses_texture=uses_texture)

    def peak(trace: KernelTrace) -> int:
        return max(map(max_live_registers, shape_groups(trace)[1].values()))

    trace = build(0)
    if target_regs is None:
        return trace
    measured = peak(trace)
    if measured > target_regs:
        raise ValueError(
            f"{name}: natural register footprint {measured} exceeds the "
            f"target of {target_regs}; restructure the kernel"
        )
    if measured == target_regs:
        return trace
    trace = build(target_regs - measured)
    padded = peak(trace)
    if padded != target_regs:
        raise ValueError(
            f"{name}: padding produced peak liveness {padded}, expected "
            f"{target_regs} (natural {measured})"
        )
    return trace


def require_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")

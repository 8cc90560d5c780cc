"""LPS -- 3D Laplace solver (Bakhoda et al. suite).

Table 1: 15 registers/thread, 19 bytes/thread of shared memory, DRAM
1.48x uncached then flat: the shared tile captures the in-plane stencil
reuse; the vertical neighbours stream from global memory.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "lps"
TARGET_REGS = 15
THREADS_PER_CTA = 256
SMEM_PER_CTA = THREADS_PER_CTA * 19

_GRID = {"tiny": (32, 4), "small": (64, 8), "paper": (256, 32)}
# (plane dimension, depth)

_U, _OUT = region(0), region(1)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    dim, depth = _GRID[scale]
    plane_words = dim * dim
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=plane_words // THREADS_PER_CTA,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta
    tile_words = THREADS_PER_CTA

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        elem0 = (cta * warps_per_cta + warp) * WARP_SIZE
        tile_off = warp * WARP_SIZE
        # March down the column: keep current plane in shared memory,
        # stream the planes above/below from global.
        cur = b.load_global(coalesced(_U, elem0))
        b.store_shared([4 * (tile_off + t) for t in range(WARP_SIZE)], cur)
        b.barrier()
        for z in range(1, depth - 1):
            below = b.load_global(coalesced(_U, (z - 1) * plane_words + elem0))
            above = b.load_global(coalesced(_U, (z + 1) * plane_words + elem0))
            centre = b.load_shared([4 * (tile_off + t) for t in range(WARP_SIZE)])
            west = b.load_shared(
                [4 * ((tile_off + t - 1) % tile_words) for t in range(WARP_SIZE)]
            )
            east = b.load_shared(
                [4 * ((tile_off + t + 1) % tile_words) for t in range(WARP_SIZE)]
            )
            s = b.alu(below, above, centre)
            out = b.alu(s, west, east)
            b.store_global(coalesced(_OUT, z * plane_words + elem0), out)
            b.barrier()
            nxt = b.load_global(coalesced(_U, z * plane_words + elem0))
            b.store_shared([4 * (tile_off + t) for t in range(WARP_SIZE)], nxt)
            b.barrier()
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

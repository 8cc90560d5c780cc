"""Hotspot (Rodinia) -- thermal simulation stencil with shared tiles.

Table 1: 22 registers/thread, 12 bytes/thread of shared memory, DRAM
1.44x uncached then flat: the shared-memory tile provides the stencil
reuse, so the cache adds little.  Each CTA loads a tile of the
temperature and power grids, iterates the 5-point stencil in shared
memory with barriers, and writes the tile back.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "hotspot"
TARGET_REGS = 22
THREADS_PER_CTA = 256
SMEM_PER_CTA = THREADS_PER_CTA * 12  # temp tile + power tile + result

_GRID = {"tiny": 64, "small": 128, "paper": 512}
_STEPS = {"tiny": 2, "small": 2, "paper": 4}

_TEMP, _POWER, _OUT = region(0), region(1), region(2)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    dim = _GRID[scale]
    steps = _STEPS[scale]
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=(dim * dim) // THREADS_PER_CTA,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta
    tile_words = THREADS_PER_CTA  # 16x16 tile
    s_temp, s_power = 0, tile_words * 4

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        elem0 = (cta * warps_per_cta + warp) * WARP_SIZE
        tile_off = warp * WARP_SIZE
        t_val = b.load_global(coalesced(_TEMP, elem0))
        b.store_shared([s_temp + 4 * (tile_off + t) for t in range(WARP_SIZE)], t_val)
        p_val = b.load_global(coalesced(_POWER, elem0))
        b.store_shared([s_power + 4 * (tile_off + t) for t in range(WARP_SIZE)], p_val)
        b.barrier()
        for _ in range(steps):
            # 5-point stencil within the tile (wrapping halo).
            centre = b.load_shared([s_temp + 4 * (tile_off + t) for t in range(WARP_SIZE)])
            west = b.load_shared(
                [s_temp + 4 * ((tile_off + t - 1) % tile_words) for t in range(WARP_SIZE)]
            )
            east = b.load_shared(
                [s_temp + 4 * ((tile_off + t + 1) % tile_words) for t in range(WARP_SIZE)]
            )
            north = b.load_shared(
                [s_temp + 4 * ((tile_off + t - 16) % tile_words) for t in range(WARP_SIZE)]
            )
            south = b.load_shared(
                [s_temp + 4 * ((tile_off + t + 16) % tile_words) for t in range(WARP_SIZE)]
            )
            power = b.load_shared([s_power + 4 * (tile_off + t) for t in range(WARP_SIZE)])
            a = b.alu(west, east, north)
            c = b.alu(a, south, centre)
            new_t = b.alu(c, power)
            b.barrier()
            b.store_shared([s_temp + 4 * (tile_off + t) for t in range(WARP_SIZE)], new_t)
            b.barrier()
        out = b.load_shared([s_temp + 4 * (tile_off + t) for t in range(WARP_SIZE)])
        b.store_global(coalesced(_OUT, elem0), out)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

"""LU (Rodinia lud) -- blocked LU decomposition.

Shared-memory heavy with cacheable reuse (Sections 3.2, 3.3.2,
Figures 3, 9).  Table 1: 20 registers/thread, 96 bytes/thread of shared
memory (24 KB per 256-thread CTA -- more than today's GPUs offer at
full occupancy), DRAM 1.94x uncached / 1.46x at 64 KB: the pivot row
and column blocks are re-read by every trailing-submatrix CTA of the
same step, and the matrix itself is re-swept every outer step.

We model the dominant internal kernel across several outer steps: each
CTA stages the pivot-row tile, the pivot-column tile, and its own tile
into shared memory (the 96 B/thread), multiplies, and writes its tile
back.  The pivot tiles are shared across CTAs -- the cache-visible
reuse.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, region, require_scale

NAME = "lu"
TARGET_REGS = 20
THREADS_PER_CTA = 256
SMEM_PER_CTA = THREADS_PER_CTA * 96  # three staged tiles (Table 1)
TILE = 16  # tile edge; a tile is 16x16 = 256 words

_DIM = {"tiny": 64, "small": 160, "paper": 1024}
_STEPS = {"tiny": 2, "small": 2, "paper": 8}

_MAT = region(0)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    n = _DIM[scale]
    outer_steps = _STEPS[scale]
    tiles = n // TILE
    # Internal-kernel CTAs per outer step: the trailing submatrix.
    ctas = []
    for step in range(outer_steps):
        for ti in range(step + 1, tiles):
            for tj in range(step + 1, tiles):
                ctas.append((step, ti, tj))
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=len(ctas),
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta
    tile_words = TILE * TILE
    s_row, s_col, s_own = 0, tile_words * 4, 2 * tile_words * 4

    def tile_addrs(ti: int, tj: int, row_in_tile: int):
        elem = (ti * TILE + row_in_tile) * n + tj * TILE
        # A 16-wide tile row is half a warp; two rows per warp load.
        return [_MAT + 4 * (elem + (t % TILE) + (t // TILE) * n) for t in range(WARP_SIZE)]

    def warp_fn(cta: int, warp: int):
        step, ti, tj = ctas[cta]
        b = WarpBuilder()
        # Each warp stages 2 rows of each of the three tiles.
        r0 = warp * 2
        for sbase, (src_i, src_j) in (
            (s_row, (step, tj)),  # pivot-row tile (shared across CTAs)
            (s_col, (ti, step)),  # pivot-column tile (shared across CTAs)
            (s_own, (ti, tj)),  # this CTA's tile
        ):
            v = b.load_global(tile_addrs(src_i, src_j, r0))
            b.store_shared(
                [sbase + 4 * (r0 * TILE + t) for t in range(WARP_SIZE)], v
            )
        b.barrier()
        # Tile update: own -= col * row, 16-step inner product.
        acc = b.iconst()
        own = b.load_shared([s_own + 4 * (r0 * TILE + t) for t in range(WARP_SIZE)])
        for k in range(TILE):
            cv = b.load_shared(
                [s_col + 4 * ((r0 + t // TILE) * TILE + k) for t in range(WARP_SIZE)]
            )
            rv = b.load_shared(
                [s_row + 4 * (k * TILE + t % TILE) for t in range(WARP_SIZE)]
            )
            b.alu_into(acc, cv, rv)
        out = b.alu(own, acc)
        b.barrier()
        b.store_global(tile_addrs(ti, tj, r0), out)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

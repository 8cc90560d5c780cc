"""MatrixMul (CUDA SDK) -- shared-memory tiled SGEMM, streaming at scale.

Table 1: 17 registers/thread, 8 bytes/thread of shared memory (two
16x16 float tiles per 256-thread CTA), DRAM 4.77x uncached and flat
beyond 64 KB: tiles provide all the reuse, the matrices themselves
stream.  Each CTA computes one 16x16 output tile; per k-tile the CTA
stages A and B sub-tiles into shared memory, synchronises, and runs the
16-step inner product from shared memory.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, require_scale, region

NAME = "matrixmul"
TARGET_REGS = 17
TILE = 16
THREADS_PER_CTA = TILE * TILE  # 256
#: Two TILE x TILE float tiles: 8 bytes per thread (Table 1).
SMEM_PER_CTA = 2 * TILE * TILE * 4

_DIM = {"tiny": 32, "small": 64, "paper": 256}

_A, _B, _C = region(0), region(1), region(2)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    n = _DIM[scale]
    tiles = n // TILE
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=tiles * tiles,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta
    s_a, s_b = 0, TILE * TILE * 4

    def warp_fn(cta: int, warp: int):
        tile_row, tile_col = divmod(cta, tiles)
        b = WarpBuilder()
        acc = b.iconst()
        # Each warp covers 2 rows of the 16x16 tile (32 threads).
        warp_r0 = warp * 2
        for kt in range(tiles):
            # Stage this warp's slice of the A and B tiles.
            for half in range(2):
                r = warp_r0 + half
                a_elem = (tile_row * TILE + r) * n + kt * TILE
                a_addrs = [_A + 4 * (a_elem + t % TILE) for t in range(WARP_SIZE)]
                va = b.load_global(a_addrs)
                b.store_shared(
                    [s_a + 4 * (r * TILE + t % TILE) for t in range(WARP_SIZE)], va
                )
                b_elem = (kt * TILE + r) * n + tile_col * TILE
                b_addrs = [_B + 4 * (b_elem + t % TILE) for t in range(WARP_SIZE)]
                vb = b.load_global(b_addrs)
                b.store_shared(
                    [s_b + 4 * (r * TILE + t % TILE) for t in range(WARP_SIZE)], vb
                )
            b.barrier()
            # Inner product over the staged tiles.
            for k in range(TILE):
                # thread (r, c) reads As[r][k] and Bs[k][c].
                a_addrs = [
                    s_a + 4 * ((warp_r0 + t // TILE) * TILE + k) for t in range(WARP_SIZE)
                ]
                va = b.load_shared(a_addrs)
                b_addrs = [s_b + 4 * (k * TILE + t % TILE) for t in range(WARP_SIZE)]
                vb = b.load_shared(b_addrs)
                b.alu_into(acc, va, vb)
            b.barrier()
        c_elem = (tile_row * TILE + warp_r0) * n + tile_col * TILE
        b.store_global([_C + 4 * (c_elem + t % TILE) for t in range(WARP_SIZE)], acc)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

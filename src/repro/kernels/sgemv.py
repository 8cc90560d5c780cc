"""SGEMV -- matrix-vector product, one warp per row with a small
shared-memory reduction.

Table 1: 14 registers/thread, 4 bytes/thread of shared memory.  The
matrix streams (no reuse), the input vector is re-read by every row and
cached.  Balanced / minimal capacity category.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "sgemv"
TARGET_REGS = 14
THREADS_PER_CTA = 256
SMEM_PER_CTA = THREADS_PER_CTA * 4  # partial sums, 4 B/thread

_SHAPE = {"tiny": (32, 256), "small": (128, 1024), "paper": (512, 4096)}

_MAT, _X, _Y = region(0), region(1), region(2)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    rows, cols = _SHAPE[scale]
    warps_per_cta = THREADS_PER_CTA // WARP_SIZE
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=rows // warps_per_cta,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        row = cta * warps_per_cta + warp
        acc = b.iconst()
        for j in range(0, cols, WARP_SIZE):
            a = b.load_global(coalesced(_MAT, row * cols + j))
            x = b.load_global(coalesced(_X, j))
            b.alu_into(acc, a, x)
        # Intra-warp reduction through this warp's shared-memory slice.
        sbase = warp * WARP_SIZE * 4
        b.store_shared([sbase + 4 * t for t in range(WARP_SIZE)], acc)
        b.barrier()
        partial = b.load_shared([sbase + 4 * (t % 16) for t in range(WARP_SIZE)])
        total = b.alu(acc, partial)
        b.store_global([_Y + 4 * row] * WARP_SIZE, total, active=1)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

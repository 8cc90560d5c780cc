"""BicubicTexture (CUDA SDK) -- bicubic image filtering via texture
fetches.

Table 1: 33 registers/thread (register limited: spills at 18/24 regs),
no shared memory, and *flat* DRAM columns (1/1/1): texture fetches do
not go through the data cache, so data-cache capacity is irrelevant --
the benchmark stresses only the register file.  Each thread computes
one output pixel from a 4x4 texel neighbourhood (16 TEX fetches) and
the cubic weight arithmetic holds the neighbourhood live in registers.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "bicubictexture"
TARGET_REGS = 33
THREADS_PER_CTA = 256

_DIM = {"tiny": 32, "small": 96, "paper": 512}

_OUT = region(0)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    dim = _DIM[scale]
    pixels = dim * dim
    launch = LaunchConfig(threads_per_cta=THREADS_PER_CTA, num_ctas=pixels // THREADS_PER_CTA)
    warps_per_cta = launch.warps_per_cta

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        pix0 = (cta * warps_per_cta + warp) * WARP_SIZE
        u = b.iconst()
        v = b.iconst()
        # Fetch the 4x4 texel neighbourhood; all 16 stay live until the
        # weighted reduction below (the register-pressure source).
        texels = []
        for i in range(16):
            texels.append(b.tex(u, v))
        # Cubic weights: a dependent SFU/ALU chain per axis.
        wu = b.sfu(u)
        wv = b.sfu(v)
        # Weighted 4x4 reduction: rows then columns.
        row_sums = []
        for r in range(4):
            s = b.alu(texels[4 * r], texels[4 * r + 1], wu)
            s = b.alu(s, texels[4 * r + 2], texels[4 * r + 3])
            row_sums.append(s)
        out = b.alu(row_sums[0], row_sums[1], wv)
        out = b.alu(out, row_sums[2], row_sums[3])
        b.store_global(coalesced(_OUT, pix0), out)
        return b

    return build_kernel_trace(
        NAME, launch, warp_fn, target_regs=TARGET_REGS, uses_texture=True
    )

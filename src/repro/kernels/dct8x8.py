"""Dct8x8 (CUDA SDK) -- blockwise 8x8 discrete cosine transform.

Table 1: 26 registers/thread, no shared memory.  Each thread processes
one 8-pixel row of an 8x8 block held entirely in registers: load 8
pixels, run the butterfly ALU network, store 8 coefficients.  The high
register count comes from the row held live across the butterflies.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, region, require_scale

NAME = "dct8x8"
TARGET_REGS = 26
THREADS_PER_CTA = 256

_IMAGE_DIM = {"tiny": 64, "small": 256, "paper": 1024}

_IN, _OUT = region(0), region(1)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    dim = _IMAGE_DIM[scale]
    # One thread per 8-pixel row of a block: dim/8 x dim blocks-rows.
    rows = dim * (dim // 8)
    launch = LaunchConfig(threads_per_cta=THREADS_PER_CTA, num_ctas=rows // THREADS_PER_CTA)
    warps_per_cta = launch.warps_per_cta

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        row0 = (cta * warps_per_cta + warp) * WARP_SIZE
        # The warp's 256 pixels are fetched as 8 coalesced 128-byte
        # chunks (the SDK kernel stages via shared memory to get this
        # access order; we model the resulting coalesced stream).
        chunk0 = 8 * row0
        pixels = []
        for p in range(8):
            addrs = [_IN + 4 * (chunk0 + p * WARP_SIZE + t) for t in range(WARP_SIZE)]
            pixels.append(b.load_global(addrs))
        # Butterfly network: pairwise sums/differences, three stages.
        stage = pixels
        for _ in range(3):
            nxt = []
            for i in range(0, len(stage), 2):
                nxt.append(b.alu(stage[i], stage[i + 1]))
                nxt.append(b.alu(stage[i], stage[i + 1]))
            stage = nxt
        for p, v in enumerate(stage):
            addrs = [_OUT + 4 * (chunk0 + p * WARP_SIZE + t) for t in range(WARP_SIZE)]
            b.store_global(addrs, v)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

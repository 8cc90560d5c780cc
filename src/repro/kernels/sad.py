"""SAD (Parboil) -- sum-of-absolute-differences block matching.

Table 1: 31 registers/thread, no shared memory.  Each thread evaluates
one candidate motion vector for a macroblock: it holds the current
block's pixels in registers (the register pressure source) and streams
the reference-window rows, which overlap between neighbouring
candidates and benefit modestly from caching.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "sad"
TARGET_REGS = 31
THREADS_PER_CTA = 256

_CONFIG = {"tiny": (4, 4), "small": (16, 8), "paper": (64, 16)}
# (macroblocks, search rows per candidate)

_CUR, _REF, _OUT = region(0), region(1), region(2)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    blocks, search_rows = _CONFIG[scale]
    launch = LaunchConfig(threads_per_cta=THREADS_PER_CTA, num_ctas=blocks)
    warps_per_cta = launch.warps_per_cta
    row_words = 1024  # reference frame row pitch

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        # The current block's 8 rows live in registers for the whole
        # search (the Table 1 register driver).
        cur_rows = [
            b.load_global(coalesced(_CUR, cta * 64 + r * 8)) for r in range(8)
        ]
        best = b.iconst()
        cand0 = (cta * warps_per_cta + warp) * WARP_SIZE
        for s in range(search_rows):
            sad = b.iconst()
            for r in range(8):
                # Candidate windows of adjacent threads overlap heavily:
                # thread t reads ref[row + t ..], rows shared with
                # neighbouring warps -> cacheable locality.
                ref = b.load_global(
                    [_REF + 4 * ((cand0 + s) % 64 * row_words + r * WARP_SIZE + t)
                     for t in range(WARP_SIZE)]
                )
                b.alu_into(sad, ref, cur_rows[r])
            best = b.alu(best, sad)
        b.store_global(coalesced(_OUT, cand0), best)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

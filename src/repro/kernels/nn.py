"""NN -- small neural-network inference (Bakhoda et al. suite).

Table 1: 13 registers/thread, no shared memory, and the most dramatic
cache sensitivity of the suite: 20.81x DRAM accesses with no cache.  The
network weights are a few kilobytes re-read by every thread for every
input, so even a small cache almost eliminates DRAM traffic while the
uncached design re-fetches the weights continuously.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, broadcast, build_kernel_trace, coalesced, region, require_scale

NAME = "nn"
TARGET_REGS = 13
THREADS_PER_CTA = 256

_CONFIG = {"tiny": (2, 16, 64), "small": (8, 24, 128), "paper": (28, 32, 256)}
# (CTAs, hidden units, weights per hidden unit)

_W, _IN, _OUT = region(0), region(1), region(2)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    num_ctas, hidden, wlen = _CONFIG[scale]
    launch = LaunchConfig(threads_per_cta=THREADS_PER_CTA, num_ctas=num_ctas)
    warps_per_cta = launch.warps_per_cta

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        elem0 = (cta * warps_per_cta + warp) * WARP_SIZE
        x = b.load_global(coalesced(_IN, elem0))
        acc = b.iconst()
        for h in range(hidden):
            # Every thread walks the same weight row: broadcast reads of
            # a small, hot array -- the cache's best case.
            for j in range(0, wlen, 8):
                w = b.load_global(broadcast(_W, h * wlen + j))
                b.alu_into(acc, w, x)
            acc = b.sfu(acc)  # activation
        b.store_global(coalesced(_OUT, elem0), acc)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

"""Nbody (CUDA SDK) -- all-pairs gravitation, compute-bound with a tiny
reused working set.

Table 1: 23 registers/thread, no shared memory, DRAM 3.52x uncached and
flat beyond 64 KB: the body array is small enough that any cache
captures it, while the uncached design re-fetches it every tile.  Each
thread integrates one body; the inner loop broadcasts one interaction
partner at a time to the whole warp and runs a dependent ALU/SFU chain
(distance, rsqrt, force accumulation).
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, broadcast, build_kernel_trace, coalesced, region, require_scale
from repro.kernels.patterns import compute_block

NAME = "nbody"
TARGET_REGS = 23

_BODIES = {"tiny": 64, "small": 512, "paper": 2048}
#: Interactions are processed per partner; model every 4th partner to
#: bound trace length while keeping the compute:load ratio of ~7 ALU+SFU
#: per broadcast load.
_PARTNER_STEP = {"tiny": 4, "small": 8, "paper": 8}

_POS, _VEL, _OUT = region(0), region(1), region(2)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    n = _BODIES[scale]
    threads_per_cta = min(256, n)
    launch = LaunchConfig(threads_per_cta=threads_per_cta, num_ctas=n // threads_per_cta)
    warps_per_cta = launch.warps_per_cta
    step = _PARTNER_STEP[scale]

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        elem = (cta * warps_per_cta + warp) * WARP_SIZE
        # Own position (x, y, z packed as consecutive words per body).
        px = b.load_global(coalesced(_POS, elem))
        pv = b.load_global(coalesced(_VEL, elem))
        ax = b.iconst()
        for j in range(0, n, step):
            partner = b.load_global(broadcast(_POS, j))
            f = compute_block(b, [px, partner], alu_ops=5, sfu_ops=1)
            b.alu_into(ax, f)
        out = b.alu(ax, pv)
        b.store_global(coalesced(_OUT, elem), out)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

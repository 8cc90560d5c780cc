"""RecursiveGaussian (CUDA SDK) -- IIR Gaussian blur, column scans.

Table 1: 23 registers/thread, 2.125 bytes/thread of shared memory.
Each thread filters one image column with a 4-tap recursive chain: the
loop-carried state (previous inputs/outputs) is what drives the
register count.  Adjacent threads process adjacent columns, so each row
step is one coalesced load/store pair.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "recursivegaussian"
TARGET_REGS = 23
THREADS_PER_CTA = 256
SMEM_PER_CTA = 544

_DIM = {"tiny": (256, 16), "small": (256, 64), "paper": (1024, 256)}
# (columns, rows)

_IN, _OUT = region(0), region(1)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    cols, rows = _DIM[scale]
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=cols // THREADS_PER_CTA,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        col0 = (cta * warps_per_cta + warp) * WARP_SIZE
        # 4-tap recursive state, loop-carried across rows.
        xp = [b.iconst() for _ in range(2)]  # previous inputs
        yp = [b.iconst() for _ in range(2)]  # previous outputs
        for r in range(rows):
            x = b.load_global(coalesced(_IN, r * cols + col0))
            y = b.alu(x, xp[0], yp[0])
            y = b.alu(y, xp[1], yp[1])
            b.store_global(coalesced(_OUT, r * cols + col0), y)
            xp = [x, xp[0]]
            yp = [y, yp[0]]
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

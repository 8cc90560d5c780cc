"""SRAD (Rodinia) -- speckle-reducing anisotropic diffusion stencil.

Cache-limited (Sections 3.2, 3.3.3, Figure 9).  Table 1: 18
registers/thread, 24 bytes/thread of shared memory, DRAM 1.22x uncached
/ 1.20x at 64 KB: each output element reads its four neighbours from
global memory, so the image rows above and below a CTA's tile are also
read by the adjacent CTAs -- reuse a 64 KB cache captures only
partially for an image larger than it, while 256 KB holds the whole
image.  Two kernel phases (diffusion coefficients, then update) re-read
the image, like the real application's two kernels per iteration.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "srad"
TARGET_REGS = 18
THREADS_PER_CTA = 256
SMEM_PER_CTA = THREADS_PER_CTA * 24

_DIM = {"tiny": 64, "small": 192, "paper": 2048}

_IMG, _COEFF, _OUT = region(0), region(1), region(2)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    dim = _DIM[scale]
    elems = dim * dim
    ctas_per_phase = elems // THREADS_PER_CTA
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=2 * ctas_per_phase,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta

    def warp_fn(cta: int, warp: int):
        phase, cta_in_phase = divmod(cta, ctas_per_phase)
        b = WarpBuilder()
        elem0 = (cta_in_phase * warps_per_cta + warp) * WARP_SIZE
        row, col = divmod(elem0, dim)
        centre = b.load_global(coalesced(_IMG, elem0))
        north = b.load_global(coalesced(_IMG, ((row - 1) % dim) * dim + col))
        south = b.load_global(coalesced(_IMG, ((row + 1) % dim) * dim + col))
        west = b.load_global([_IMG + 4 * (row * dim + (col + t - 1) % dim) for t in range(WARP_SIZE)])
        east = b.load_global([_IMG + 4 * (row * dim + (col + t + 1) % dim) for t in range(WARP_SIZE)])
        dv = b.alu(north, south, centre)
        dh = b.alu(west, east, centre)
        g2 = b.alu(dv, dh)
        c = b.sfu(g2, centre)  # the PDE coefficient involves divisions/sqrt
        # Stage the coefficient through shared memory (24 B/thread
        # scratch) for the divergence step of the same tile.
        sb = warp * WARP_SIZE * 4
        b.store_shared([sb + 4 * t for t in range(WARP_SIZE)], c)
        b.barrier()
        cl = b.load_shared([sb + 4 * ((t + 1) % WARP_SIZE) for t in range(WARP_SIZE)])
        upd = b.alu(c, cl, centre)
        target = _COEFF if phase == 0 else _OUT
        b.store_global(coalesced(target, elem0), upd)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

"""DwtHaar1D (CUDA SDK) -- one level of a Haar wavelet transform.

Table 1: 14 registers/thread, 8 bytes/thread of shared memory.  Each
thread loads an even/odd pair, computes average and detail coefficients
through a short shared-memory exchange, and streams both outputs.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "dwthaar1d"
TARGET_REGS = 14
THREADS_PER_CTA = 256
SMEM_PER_CTA = THREADS_PER_CTA * 8  # pair staging, 8 B/thread

_ELEMS = {"tiny": 8 * 1024, "small": 64 * 1024, "paper": 512 * 1024}

_IN, _APPROX, _DETAIL = region(0), region(1), region(2)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    n = _ELEMS[scale]
    pairs_per_cta = THREADS_PER_CTA
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=n // (2 * pairs_per_cta),
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        pair0 = (cta * warps_per_cta + warp) * WARP_SIZE
        # Interleaved even/odd loads: two coalesced 128-byte rows.
        even = b.load_global(coalesced(_IN, 2 * pair0))
        odd = b.load_global(coalesced(_IN, 2 * pair0 + WARP_SIZE))
        sbase = warp * WARP_SIZE * 8
        b.store_shared([sbase + 8 * t for t in range(WARP_SIZE)], even)
        b.store_shared([sbase + 8 * t + 4 for t in range(WARP_SIZE)], odd)
        b.barrier()
        # Re-read as true (even, odd) pairs after the staging exchange.
        e = b.load_shared([sbase + 8 * t for t in range(WARP_SIZE)])
        o = b.load_shared([sbase + 8 * t + 4 for t in range(WARP_SIZE)])
        avg = b.alu(e, o)
        det = b.alu(e, o)
        b.store_global(coalesced(_APPROX, pair0), avg)
        b.store_global(coalesced(_DETAIL, pair0), det)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

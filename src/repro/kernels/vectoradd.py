"""VectorAdd (CUDA SDK) -- pure streaming, the minimal-capacity extreme.

Table 1: 9 registers/thread, no shared memory, DRAM accesses 3.88x with
no cache (each 128-byte warp load becomes four sector transactions) and
flat from 64 KB up (zero reuse).  The kernel computes ``C = A + B``
element-wise; each thread handles one element.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "vectoradd"
TARGET_REGS = 9
THREADS_PER_CTA = 256

_ELEMS = {"tiny": 4 * 1024, "small": 48 * 1024, "paper": 256 * 1024}

_A, _B, _C = region(0), region(1), region(2)


def build(scale: str = "small", threads_per_cta: int = THREADS_PER_CTA) -> KernelTrace:
    require_scale(scale)
    n = _ELEMS[scale]
    num_ctas = n // threads_per_cta
    launch = LaunchConfig(threads_per_cta=threads_per_cta, num_ctas=num_ctas)
    warps_per_cta = launch.warps_per_cta

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        elem = (cta * warps_per_cta + warp) * WARP_SIZE
        idx = b.iconst()  # global thread index
        addr = b.alu(idx)  # base + 4 * idx
        a = b.load_global(coalesced(_A, elem), addr)
        c = b.load_global(coalesced(_B, elem), addr)
        s = b.alu(a, c)
        b.store_global(coalesced(_C, elem), addr, s)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

"""ScalarProd (CUDA SDK) -- batched dot products with shared-memory
reduction.

Table 1: 18 registers/thread, 16 bytes/thread of shared memory.  Pure
streaming over the vector pairs followed by a CTA tree reduction; no
cacheable reuse (flat DRAM columns).
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, region, require_scale
from repro.kernels.patterns import smem_tree_reduce, stream_mac

NAME = "scalarprod"
TARGET_REGS = 18
THREADS_PER_CTA = 256
SMEM_PER_CTA = THREADS_PER_CTA * 16  # 4 words/thread of scratch (Table 1)

_CONFIG = {"tiny": (2, 512), "small": (8, 2048), "paper": (32, 8192)}

_A, _B, _OUT = region(0), region(1), region(2)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    num_pairs, vec_len = _CONFIG[scale]
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=num_pairs,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta
    elems_per_warp = vec_len // warps_per_cta

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        first = cta * vec_len + warp * elems_per_warp
        acc = stream_mac(
            b, [_A, _B], first, iters=elems_per_warp // WARP_SIZE
        )
        smem_tree_reduce(b, 0, warp, warps_per_cta, acc)
        if warp == 0:
            out = b.alu(acc)
            b.store_global([_OUT + 4 * cta], out, active=1)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

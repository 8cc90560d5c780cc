"""Backprop (Rodinia) -- neural-network layer forward pass.

Table 1: 17 registers/thread, 2.125 bytes/thread of shared memory (a
small staging buffer), DRAM 1.56x uncached: the weight matrix streams
while the input-unit vector is re-read by every output row and gets
filtered by even a small cache.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, broadcast, build_kernel_trace, coalesced, region, require_scale

NAME = "backprop"
TARGET_REGS = 17
THREADS_PER_CTA = 256
SMEM_PER_CTA = 544  # 2.125 B/thread (Table 1)

_SHAPE = {"tiny": (256, 64), "small": (1024, 256), "paper": (4096, 1024)}
# (output_units, input_units)

_W, _IN, _OUT = region(0), region(1), region(2)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    out_units, in_units = _SHAPE[scale]
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=out_units // THREADS_PER_CTA,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        unit0 = (cta * warps_per_cta + warp) * WARP_SIZE
        acc = b.iconst()
        for j in range(in_units):
            # Weight row slice: thread t handles output unit unit0+t, so
            # consecutive threads read consecutive weights (column-major
            # weight layout, as Rodinia uses).
            w = b.load_global(coalesced(_W, j * out_units + unit0))
            x = b.load_global(broadcast(_IN, j))
            b.alu_into(acc, w, x)
        # Stage the activation through the small shared buffer.
        saddr = [4 * ((warp * WARP_SIZE + t) % (SMEM_PER_CTA // 4)) for t in range(WARP_SIZE)]
        act = b.sfu(acc)  # sigmoid
        b.store_shared(saddr, act)
        b.barrier()
        out = b.load_shared(saddr)
        b.store_global(coalesced(_OUT, unit0), out)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

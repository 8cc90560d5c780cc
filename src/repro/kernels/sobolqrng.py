"""SobolQRNG (CUDA SDK) -- quasi-random number generation.

Table 1: 12 registers/thread, 2 bytes/thread of shared memory (staged
direction vectors).  Compute-dominated: a small direction-vector table
is read once per CTA, then each thread produces a strided output stream
with XOR chains.  No cacheable reuse beyond the tiny table.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale
from repro.kernels.patterns import alu_chain

NAME = "sobolqrng"
TARGET_REGS = 12
THREADS_PER_CTA = 256
SMEM_PER_CTA = THREADS_PER_CTA * 2  # direction vectors, 2 B/thread

_CONFIG = {"tiny": (4, 8), "small": (16, 16), "paper": (64, 32)}
# (CTAs, outputs per thread)

_DIRECTIONS, _OUT = region(0), region(1)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    num_ctas, per_thread = _CONFIG[scale]
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=num_ctas,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta
    total_threads = num_ctas * THREADS_PER_CTA

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        # Stage the direction vectors; the 512-byte buffer (2 B/thread,
        # Table 1) holds 128 words shared by the CTA's warps.
        smem_words = SMEM_PER_CTA // 4
        slot = [4 * ((warp * WARP_SIZE + t) % smem_words) for t in range(WARP_SIZE)]
        d = b.load_global(coalesced(_DIRECTIONS, warp * WARP_SIZE))
        b.store_shared(slot, d)
        b.barrier()
        dirs = b.load_shared(slot)
        state = b.alu(dirs)
        gtid = (cta * warps_per_cta + warp) * WARP_SIZE
        for i in range(per_thread):
            state = alu_chain(b, b.alu(state, dirs), 4)
            # Grid-stride output: thread t writes out[i*total + gtid + t].
            b.store_global(coalesced(_OUT, i * total_threads + gtid), state)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

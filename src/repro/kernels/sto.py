"""STO (StoreGPU) -- sliding-window hashing out of shared memory.

Table 1: 33 registers/thread, 127 bytes/thread of shared memory (the
largest per-thread scratch of the suite after needle).  The kernel
stages a data chunk into shared memory once, then runs many rounds of
shared-memory reads, hash arithmetic, and writes before emitting a
small digest.  Because almost all activity is low-latency shared memory
and ALU work, a *small* number of threads already saturates the SM --
the paper's reason sto does not benefit from unified memory despite
being shared-memory limited at full occupancy (Section 3.3.2).
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale
from repro.kernels.patterns import alu_chain

NAME = "sto"
TARGET_REGS = 33
THREADS_PER_CTA = 128
SMEM_PER_CTA = THREADS_PER_CTA * 127  # 15.875 KB per CTA

_CONFIG = {"tiny": (2, 16), "small": (4, 150), "paper": (16, 320)}
# (CTAs, hash rounds).  Rounds dominate the runtime so that -- as the
# paper observes -- a modest number of threads already saturates the SM
# and extra occupancy from unified memory buys nothing.

_DATA, _DIGEST = region(0), region(1)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    num_ctas, rounds = _CONFIG[scale]
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=num_ctas,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta
    words_per_warp = (SMEM_PER_CTA // 4) // warps_per_cta

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        gbase_elem = (cta * warps_per_cta + warp) * words_per_warp
        sbase = warp * words_per_warp * 4
        # Stage this warp's chunk into shared memory.
        for r in range(words_per_warp // WARP_SIZE):
            v = b.load_global(coalesced(_DATA, gbase_elem + r * WARP_SIZE))
            b.store_shared([sbase + 4 * (r * WARP_SIZE + t) for t in range(WARP_SIZE)], v)
        b.barrier()
        # Hash rounds: sliding-window reads, mix, write back.
        state = b.iconst()
        for rnd in range(rounds):
            off = (rnd * 37) % (words_per_warp - WARP_SIZE)
            x = b.load_shared([sbase + 4 * (off + t) for t in range(WARP_SIZE)])
            y = b.load_shared(
                [sbase + 4 * ((off + t * 3) % words_per_warp) for t in range(WARP_SIZE)]
            )
            state = b.alu(state, x, y)
            state = alu_chain(b, state, 5)
            b.store_shared([sbase + 4 * (off + t) for t in range(WARP_SIZE)], state)
        d = b.alu(state)
        b.store_global(coalesced(_DIGEST, (cta * warps_per_cta + warp) * WARP_SIZE), d)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

"""HWT -- 2D Haar wavelet transform (Bakhoda et al. suite).

Table 1: 35 registers/thread, 23 bytes/thread of shared memory.  Each
CTA transforms a tile held in shared memory through several decimation
levels with barriers; per-thread coefficient state drives the register
count.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "hwt"
TARGET_REGS = 35
THREADS_PER_CTA = 256
SMEM_PER_CTA = THREADS_PER_CTA * 23

_ELEMS = {"tiny": 8 * 1024, "small": 32 * 1024, "paper": 256 * 1024}

_IN, _OUT = region(0), region(1)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    n = _ELEMS[scale]
    elems_per_cta = 4 * THREADS_PER_CTA
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=n // elems_per_cta,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta
    tile_words = elems_per_cta  # 1024 words staged per CTA

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        base_elem = cta * elems_per_cta + warp * WARP_SIZE * 4
        # Stage 4 words per thread into shared memory and keep them live
        # in registers as well (register-heavy variant).
        held = []
        for i in range(4):
            v = b.load_global(coalesced(_IN, base_elem + i * WARP_SIZE))
            off = (warp * WARP_SIZE * 4 + i * WARP_SIZE) * 4
            b.store_shared([off + 4 * t for t in range(WARP_SIZE)], v)
            held.append(v)
        b.barrier()
        # Three decimation levels.  Coefficients are kept *compacted*:
        # level l reads the first n/2^l elements and writes results to
        # the front -- the standard layout that keeps every level's
        # accesses unit-stride and bank-conflict free (a strided layout
        # would serialise 8 ways on real hardware too).
        woff = warp * WARP_SIZE * 4 * 4
        for level in range(3):
            n_active = WARP_SIZE >> level
            # Split-half layout (evens at the front, odds behind them):
            # both halves read unit-stride, conflict-free in any design,
            # and match the compacted layout the stores below produce.
            even = b.load_shared(
                [woff + 4 * t for t in range(n_active)], active=n_active
            )
            odd = b.load_shared(
                [woff + 4 * (n_active + t) for t in range(n_active)], active=n_active
            )
            avg = b.alu(even, odd, held[level], active=n_active)
            det = b.alu(even, odd, held[level + 1], active=n_active)
            b.barrier()
            b.store_shared(
                [woff + 4 * t for t in range(n_active)], avg, active=n_active
            )
            b.store_shared(
                [woff + 4 * (n_active + t) for t in range(n_active)],
                det,
                active=n_active,
            )
            b.barrier()
        out = b.alu(held[0], held[3])
        b.store_global(coalesced(_OUT, base_elem), out)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

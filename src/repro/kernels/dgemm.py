"""DGEMM (MAGMA) -- register-blocked double-precision matrix multiply.

The paper's flagship register-limited benchmark (Sections 3.2, 3.3.1,
Figures 2, 8, 9): 57 registers/thread to avoid spills (a 6x6 register
accumulator block plus staged operand vectors), 66.5 bytes/thread of
shared memory for the A/B tiles, 128 threads per CTA.  At full
occupancy the register file needs 228 KB -- nearly the whole baseline
256 KB RF -- and the shared-memory demand (68 KB at 1024 threads)
slightly exceeds the baseline 64 KB, which is why dgemm gains from the
unified design's ability to grow both.

Structure per k-tile: stage A and B tiles to shared memory, barrier,
run the blocked inner product from shared memory into the 36
accumulators, barrier.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, region, require_scale

NAME = "dgemm"
TARGET_REGS = 57
THREADS_PER_CTA = 128
RB = 6  # register-block edge: 6x6 accumulators per thread
SMEM_PER_CTA = int(66.5 * THREADS_PER_CTA)  # 8512 B (Table 1)

_CONFIG = {"tiny": (2, 2, 4), "small": (8, 2, 8), "paper": (64, 8, 16)}
# (CTAs, k-tiles, inner steps per k-tile)

_A, _B, _C = region(0), region(1), region(2)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    num_ctas, k_tiles, kb = _CONFIG[scale]
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=num_ctas,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta
    tile_words = SMEM_PER_CTA // 4 // 2  # A and B halves
    rows_per_warp = tile_words // warps_per_cta // WARP_SIZE
    s_a, s_b = 0, tile_words * 4

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        acc = [b.iconst() for _ in range(RB * RB)]
        for kt in range(k_tiles):
            # Stage this warp's slice of the A and B tiles (doubles:
            # each element is two words; addresses advance by 8 bytes).
            for r in range(rows_per_warp):
                chunk = (warp * rows_per_warp + r) * WARP_SIZE
                ga = (cta * k_tiles + kt) * tile_words + chunk
                va = b.load_global([_A + 8 * (ga + t) for t in range(WARP_SIZE)])
                b.store_shared([s_a + 4 * (chunk + t) for t in range(WARP_SIZE)], va)
                vb = b.load_global([_B + 8 * (ga + t) for t in range(WARP_SIZE)])
                b.store_shared([s_b + 4 * (chunk + t) for t in range(WARP_SIZE)], vb)
            b.barrier()
            # Blocked inner product: per step, load a 6-vector of A and
            # a 6-vector of B from shared memory, rank-1 update the 6x6
            # accumulator block.
            for step in range(kb):
                avec = []
                bvec = []
                for i in range(RB):
                    a_off = (step * RB + i) * WARP_SIZE
                    avec.append(
                        b.load_shared(
                            [s_a + 4 * ((a_off + t) % tile_words) for t in range(WARP_SIZE)]
                        )
                    )
                    # B vectors are read in the padded layout MAGMA uses
                    # to keep the accesses bank-conflict free.
                    bvec.append(
                        b.load_shared(
                            [s_b + 4 * ((a_off + t) % tile_words) for t in range(WARP_SIZE)]
                        )
                    )
                for i in range(RB):
                    for j in range(RB):
                        b.alu_into(acc[i * RB + j], avec[i], bvec[j])
            b.barrier()
        # Write the 36 results (two words each).
        out0 = (cta * warps_per_cta + warp) * WARP_SIZE * RB * RB
        for i, a in enumerate(acc):
            b.store_global(
                [_C + 8 * (out0 + i * WARP_SIZE + t) for t in range(WARP_SIZE)], a
            )
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

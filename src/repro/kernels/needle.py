"""Needle (Rodinia) -- Needleman-Wunsch DNA sequence alignment.

The paper's flagship shared-memory-limited benchmark (Sections 3.2,
6.5, Figures 3, 8, 9, 11).  Dynamic programming over an N x N score
matrix; the matrix is tiled into ``bf x bf`` sub-blocks, each processed
by one CTA that stages the block plus its halo and the reference
sub-matrix in shared memory and sweeps the 2*bf - 1 anti-diagonal
wavefront with a barrier per step.

Shared memory per CTA is ``((bf+1)^2 + bf^2) * 4`` bytes -- at the
default blocking factor of 32 that is 8452 B for a 32-thread CTA,
i.e. the 264.1 bytes/thread of Table 1.  Registers: 18/thread.

The real application launches one kernel per block anti-diagonal; we
flatten all blocks into a single launch (each CTA's trace is identical
in structure either way).  This preserves what the paper measures --
shared-memory capacity gates the number of concurrent CTAs, and more
CTAs mean more warps to cover the barrier-heavy wavefront -- while
keeping one trace per benchmark.

``blocking_factor`` exposes the Figure 11 tuning knob (16 / 32 / 64).
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, region, require_scale

NAME = "needle"
TARGET_REGS = 18
DEFAULT_BLOCKING = 32

_MATRIX_DIM = {"tiny": 64, "small": 192, "paper": 2048}

_SCORE, _REF = region(0), region(1)


def smem_bytes_for(bf: int) -> int:
    """Shared memory per CTA for a blocking factor (paper Section 3.2).

    The score block is stored with a pitch of ``bf + 2`` words: the same
    one-extra-column padding trick Rodinia uses so that anti-diagonal
    accesses (stride ``pitch - 1``) rotate across banks instead of
    colliding in one.  This adds ~1.5% to the Table 1 footprint
    (268 B/thread vs the published 264.1 at bf = 32).
    """
    return ((bf + 1) * (bf + 2) + bf**2) * 4


def build(scale: str = "small", blocking_factor: int = DEFAULT_BLOCKING) -> KernelTrace:
    require_scale(scale)
    bf = blocking_factor
    n = _MATRIX_DIM[scale]
    if bf not in (16, 32, 64):
        raise ValueError("blocking_factor must be 16, 32, or 64")
    if n % bf:
        raise ValueError(f"matrix dim {n} not divisible by blocking factor {bf}")
    blocks = n // bf
    threads_per_cta = max(WARP_SIZE, bf)
    launch = LaunchConfig(
        threads_per_cta=threads_per_cta,
        num_ctas=blocks * blocks,
        smem_bytes_per_cta=smem_bytes_for(bf),
    )
    warps_per_cta = launch.warps_per_cta
    pitch = bf + 2  # padded row pitch (see smem_bytes_for)
    halo_words = (bf + 1) * pitch
    s_block, s_ref = 0, halo_words * 4

    def warp_fn(cta: int, warp: int):
        block_row, block_col = divmod(cta, blocks)
        active = min(WARP_SIZE, bf)
        b = WarpBuilder(active=active)
        lane0 = warp * WARP_SIZE
        # Stage the reference sub-matrix (bf x bf) and the halo row/col
        # of the score matrix for this block.  Wide blocks (bf = 64)
        # stage each row in warp-sized column chunks.
        rows_per_warp = bf // warps_per_cta
        chunks = [
            (warp * rows_per_warp + r, c0)
            for r in range(rows_per_warp)
            for c0 in range(0, bf, active)
        ]
        # Stage in unrolled batches of four rows (load four, store four):
        # the standard unrolling that keeps independent loads in flight
        # instead of serialising each load behind the previous store.
        for i0 in range(0, len(chunks), 4):
            batch = chunks[i0 : i0 + 4]
            vals = []
            for row, c0 in batch:
                elem = (block_row * bf + row) * n + block_col * bf + c0
                vals.append(
                    b.load_global(
                        [_REF + 4 * (elem + t) for t in range(active)], active=active
                    )
                )
            for (row, c0), v in zip(batch, vals):
                b.store_shared(
                    [s_ref + 4 * (row * bf + c0 + t) for t in range(active)],
                    v,
                    active=active,
                )
        # North halo row and west halo column of the score matrix.
        for c0 in range(0, bf, active):
            h = b.load_global(
                [
                    _SCORE + 4 * ((block_row * bf) * n + block_col * bf + c0 + t)
                    for t in range(active)
                ],
                active=active,
            )
            b.store_shared(
                [s_block + 4 * (c0 + t) for t in range(active)], h, active=active
            )
            w = b.load_global(
                [
                    _SCORE + 4 * ((block_row * bf + c0 + t) * n + block_col * bf)
                    for t in range(active)
                ],
                active=active,
            )
            b.store_shared(
                [s_block + 4 * ((c0 + t + 1) * pitch) for t in range(active)],
                w,
                active=active,
            )
        b.barrier()
        # Anti-diagonal wavefront: step s computes cells (i, s - i).
        diag = b.iconst()  # diagonal induction variable
        for step in range(2 * bf - 1):
            # Index arithmetic for this diagonal (dependent chain, as in
            # the Rodinia kernel's t_index_x/t_index_y computation).
            diag = b.alu(diag)
            idx = b.alu(diag)
            lo = max(0, step - bf + 1)
            hi = min(step, bf - 1)
            width = hi - lo + 1
            # This warp's slice of the wavefront.
            w_lo = max(lo, lane0)
            w_hi = min(hi, lane0 + WARP_SIZE - 1)
            if w_lo <= w_hi:
                na = w_hi - w_lo + 1
                cells = [(i, step - i) for i in range(w_lo, w_hi + 1)]

                def saddr(di, dj):
                    return [
                        s_block + 4 * ((i + 1 + di) * pitch + (j + 1 + dj))
                        for i, j in cells
                    ]

                nw = b.load_shared(saddr(-1, -1), idx, active=na)
                no = b.load_shared(saddr(-1, 0), idx, active=na)
                we = b.load_shared(saddr(0, -1), idx, active=na)
                ref = b.load_shared(
                    [s_ref + 4 * (i * bf + j) for i, j in cells], active=na
                )
                m = b.alu(nw, ref, active=na)
                m = b.alu(m, no, we, active=na)
                b.store_shared(saddr(0, 0), m, active=na)
            b.barrier()
        # Write the block back (same 4-row unrolling).
        for i0 in range(0, len(chunks), 4):
            batch = chunks[i0 : i0 + 4]
            vals = [
                b.load_shared(
                    [
                        s_block + 4 * ((row + 1) * pitch + c0 + t + 1)
                        for t in range(active)
                    ],
                    active=active,
                )
                for row, c0 in batch
            ]
            for (row, c0), v in zip(batch, vals):
                elem = (block_row * bf + row) * n + block_col * bf + c0
                b.store_global(
                    [_SCORE + 4 * (elem + t) for t in range(active)], v, active=active
                )
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

"""Reusable warp-level code patterns shared by the benchmark kernels.

These helpers emit the idiomatic CUDA building blocks at warp
granularity: streaming loads with multiply-accumulate, global-to-shared
tile staging, shared-memory tree reductions, and dependent ALU/SFU
chains.  Address arithmetic follows the conventions real kernels use
(row-major arrays, warp-coalesced element order), so the coalescer,
cache, and bank models see realistic patterns.
"""

from __future__ import annotations

from repro.isa.builder import WarpBuilder
from repro.isa.trace import WARP_SIZE

from repro.kernels.base import coalesced


def stream_mac(
    b: WarpBuilder,
    bases: list[int],
    first_elem: int,
    iters: int,
    acc: int | None = None,
    stride_elems: int = WARP_SIZE,
    extra_alu: int = 0,
) -> int:
    """Stream ``iters`` warp-wide chunks from each array, accumulating.

    Per iteration: one coalesced load per base array, one MAC into the
    accumulator, plus ``extra_alu`` dependent ALU ops.  Returns the
    accumulator register.
    """
    if acc is None:
        acc = b.iconst()
    for i in range(iters):
        elem = first_elem + i * stride_elems
        vals = [b.load_global(coalesced(base, elem)) for base in bases]
        b.alu_into(acc, *vals)
        x = acc
        for _ in range(extra_alu):
            x = b.alu(x)
    return acc


def tile_to_smem(
    b: WarpBuilder,
    gbase: int,
    gstart_elem: int,
    sstart_byte: int,
    rows: int,
) -> None:
    """Stage ``rows`` warp-wide rows from global memory into shared memory."""
    for r in range(rows):
        v = b.load_global(coalesced(gbase, gstart_elem + r * WARP_SIZE))
        b.store_shared(
            [sstart_byte + 4 * (r * WARP_SIZE + t) for t in range(WARP_SIZE)], v
        )


def smem_tree_reduce(
    b: WarpBuilder,
    sbase_byte: int,
    warp_index: int,
    warps_per_cta: int,
    value: int,
) -> int:
    """CTA-wide tree reduction through shared memory.

    Each thread deposits its value; ``log2`` rounds of barrier + load +
    add follow.  Every warp executes the same barrier count (SIMT
    requires structured control flow), with upper warps predicated off
    by reduced active masks in later rounds.
    """
    lane_addr = [
        sbase_byte + 4 * (warp_index * WARP_SIZE + t) for t in range(WARP_SIZE)
    ]
    b.store_shared(lane_addr, value)
    total = warps_per_cta * WARP_SIZE
    stride = total // 2
    while stride >= 1:
        b.barrier()
        active_threads = stride - warp_index * WARP_SIZE
        if active_threads > 0:
            n = min(WARP_SIZE, active_threads)
            base_t = warp_index * WARP_SIZE
            mine = b.load_shared(
                [sbase_byte + 4 * (base_t + t) for t in range(n)], active=n
            )
            other = b.load_shared(
                [sbase_byte + 4 * (base_t + t + stride) for t in range(n)], active=n
            )
            s = b.alu(mine, other, active=n)
            b.store_shared(
                [sbase_byte + 4 * (base_t + t) for t in range(n)], s, active=n
            )
            value = s
        stride //= 2
    return value


def alu_chain(b: WarpBuilder, v: int, n: int) -> int:
    """A dependent chain of ``n`` ALU ops (models address/index math)."""
    for _ in range(n):
        v = b.alu(v)
    return v


def compute_block(b: WarpBuilder, inputs: list[int], alu_ops: int, sfu_ops: int = 0) -> int:
    """A mixed ALU/SFU computation consuming ``inputs``.

    Emits a dependent chain with SFU ops interspersed (transcendentals),
    the shape of physics / shading inner loops.
    """
    v = b.alu(*inputs[:3]) if inputs else b.iconst()
    done_sfu = 0
    for i in range(alu_ops - 1):
        if sfu_ops and done_sfu < sfu_ops and i % max(1, alu_ops // (sfu_ops + 1)) == 0:
            v = b.sfu(v)
            done_sfu += 1
        else:
            extra = inputs[(i + 3) % len(inputs)] if inputs else v
            v = b.alu(v, extra)
    for _ in range(sfu_ops - done_sfu):
        v = b.sfu(v)
    return v

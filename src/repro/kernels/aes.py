"""AES (Bakhoda et al. suite) -- block cipher with shared-memory T-boxes.

Table 1: 28 registers/thread, 24 bytes/thread of shared memory (the
lookup tables staged per CTA).  Each thread encrypts one 16-byte block:
stream the plaintext, run rounds of T-box gathers in shared memory
(bank-conflict-prone scattered reads) mixed with XOR chains, stream the
ciphertext out.
"""

from __future__ import annotations

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, region, require_scale

NAME = "aes"
TARGET_REGS = 28
THREADS_PER_CTA = 256
SMEM_PER_CTA = THREADS_PER_CTA * 24  # T-boxes: 6 KB per CTA
ROUNDS = 10

_PLAIN, _CIPHER, _TBOX = region(0), region(1), region(2)

_BLOCKS = {"tiny": 1024, "small": 4096, "paper": 16384}


def _tbox_index(thread: int, rnd: int, word: int) -> int:
    """Deterministic T-box index (stands in for data-dependent bytes).

    The T-boxes are fully replicated per lane -- the conflict-free
    layout GPU AES implementations converge to -- so a warp's round
    lookup reads one contiguous lane-indexed slice whose base varies
    pseudo-randomly per round.  The resulting access is bank-conflict
    free in both the partitioned and unified designs, matching the
    paper's observation that these benchmarks see no measurable
    conflict overhead in either.
    """
    h = ((thread // WARP_SIZE) * 2654435761 + rnd * 40503 + word * 97) & 0xFFFFFFFF
    base = h % (SMEM_PER_CTA // 4 - WARP_SIZE)
    return base + thread % WARP_SIZE


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    blocks = _BLOCKS[scale]
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=blocks // THREADS_PER_CTA,
        smem_bytes_per_cta=SMEM_PER_CTA,
    )
    warps_per_cta = launch.warps_per_cta

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        block0 = (cta * warps_per_cta + warp) * WARP_SIZE
        if warp == 0:
            # First warp stages the T-boxes, replicating the four 256-byte
            # source tables (1 KB total in global memory) across the 6 KB
            # shared allocation.  The tiny source stays cache-hot across
            # CTA launches in any configuration.
            for r in range(SMEM_PER_CTA // 4 // WARP_SIZE):
                v = b.load_global(
                    [_TBOX + 128 * (r % 8) + 4 * t for t in range(WARP_SIZE)]
                )
                b.store_shared(
                    [4 * (r * WARP_SIZE + t) for t in range(WARP_SIZE)], v
                )
        b.barrier()
        # Load the 4-word state of each block.  The blocks are stored
        # structure-of-arrays (word w of all blocks contiguous), the
        # standard layout that makes each state load one coalesced line.
        state = [
            b.load_global(
                [_PLAIN + 4 * (w * blocks + block0 + t) for t in range(WARP_SIZE)]
            )
            for w in range(4)
        ]
        for rnd in range(ROUNDS):
            new_state = []
            for w in range(4):
                addrs = [
                    4 * _tbox_index(block0 + t, rnd, w) for t in range(WARP_SIZE)
                ]
                tval = b.load_shared(addrs, state[w])
                new_state.append(b.alu(tval, state[(w + 1) % 4]))
            state = new_state
        for w in range(4):
            b.store_global(
                [_CIPHER + 4 * (w * blocks + block0 + t) for t in range(WARP_SIZE)],
                state[w],
            )
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

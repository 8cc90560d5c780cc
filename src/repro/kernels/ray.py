"""RAY -- ray tracing with reflections (Bakhoda et al. suite).

Register-limited with cacheable scene reuse (Sections 3.2, 3.3.1,
Figures 2, 8, 9).  Table 1: 42 registers/thread (spills at every
smaller allocation the paper tests), no shared memory; a larger cache
captures the scene/BVH data (DRAM 1.02x uncached but energy/perf gain
from a big cache holding the environment, Figure 9: 1.13x at 384 KB).

Each thread renders one pixel: per bounce it walks BVH nodes (data
dependent gathers into the scene region), intersects (dependent
ALU/SFU chains), and accumulates shading.  Ray state -- origin,
direction, attenuation, hit record per bounce -- is the register
pressure source.
"""

from __future__ import annotations

import numpy as np

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale
from repro.kernels.patterns import compute_block

NAME = "ray"
TARGET_REGS = 42
THREADS_PER_CTA = 128
SEED = 20120614
NODE_BYTES = 64  # BVH node: bounds + children
BOUNCES = 3

_CONFIG = {"tiny": (16, 1200), "small": (64, 2800), "paper": (512, 40000)}
# (image edge, BVH node count).  2800 nodes x 64 B = 175 KB of scene:
# past the 64 KB cache, inside 256 KB.

_SCENE, _FRAME = region(0), region(1)


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    dim, num_nodes = _CONFIG[scale]
    pixels = dim * dim
    rng = np.random.default_rng(SEED)
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA, num_ctas=pixels // THREADS_PER_CTA
    )
    warps_per_cta = launch.warps_per_cta
    # BVH walk: the top of the tree is hot (every ray re-reads it); the
    # deep nodes are swept cyclically as rays march across the image --
    # each deep node is revisited by later rays, with a reuse distance
    # of the full deep-node footprint (175 KB at the default scale).
    depth = max(4, int(np.log2(num_nodes)) - 1)
    hot_depth = depth - 2
    deep_base = min(num_nodes - 1, 1 << hot_depth)
    deep_count = max(1, num_nodes - deep_base)

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        warp_seq = cta * warps_per_cta + warp
        pix0 = warp_seq * WARP_SIZE
        # Ray state held live across all bounces.
        origin = [b.iconst() for _ in range(3)]
        direction = [b.iconst() for _ in range(3)]
        colour = b.iconst()
        for bounce in range(BOUNCES):
            hit = b.alu(*direction)
            # Hot traversal: pixels in a tile share the upper branches.
            node = 0
            tile_bits = (pix0 // 128) ^ (0x9E37 * (bounce + 1))
            for step in range(hot_depth):
                node = 2 * node + 1 + ((tile_bits >> step) & 1)
                if node >= deep_base:
                    node = node % deep_base
                nv = b.load_global(
                    [_SCENE + NODE_BYTES * node + 4 * (t % 8) for t in range(WARP_SIZE)],
                    hit,
                )
                hit = compute_block(b, [nv, origin[0], direction[0]], alu_ops=5, sfu_ops=1)
            # Deep traversal: cyclic sweep over the leaf region, threads
            # fanning out over a small neighbourhood of nodes.
            for step in range(hot_depth, depth):
                n0 = ((warp_seq * 8 + 2 * step + bounce) * 13) % deep_count
                addrs = [
                    _SCENE + NODE_BYTES * (deep_base + (n0 + t // 4) % deep_count)
                    for t in range(WARP_SIZE)
                ]
                nv = b.load_global(addrs, hit)
                hit = compute_block(b, [nv, origin[0], direction[0]], alu_ops=5, sfu_ops=1)
            # Shading + reflection: update ray state, keep it live.
            shade = compute_block(b, [hit, direction[1], origin[1]], alu_ops=6, sfu_ops=2)
            colour = b.alu(colour, shade)
            direction = [b.alu(d, shade) for d in direction]
            origin = [b.alu(o, hit) for o in origin]
        b.store_global(coalesced(_FRAME, pix0), colour)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

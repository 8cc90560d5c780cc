"""BFS (Rodinia) -- breadth-first search over a large sparse graph.

Cache-limited (Sections 3.2, 3.3.3, Figures 2, 4, 9).  Table 1: 9
registers/thread (the smallest of the suite), no shared memory, DRAM
1.46x uncached and 1.13x at 64 KB: the node and edge lists are re-read
on every frontier level, and their combined footprint sits between the
64 KB and 256 KB cache points at the default scale.

The graph is a seeded random graph generated with numpy.  The real
application launches one kernel per BFS level with every thread
checking frontier membership; we flatten the levels into consecutive
CTA groups of a single launch and encode frontier membership in the
active masks, which preserves both the per-level re-streaming of the
node array and the data-dependent edge/visited gathers.
"""

from __future__ import annotations

import numpy as np

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "bfs"
TARGET_REGS = 9
THREADS_PER_CTA = 256
SEED = 20120612

_CONFIG = {"tiny": (1024, 4), "small": (4096, 4), "paper": (1 << 20, 6)}
# (nodes, average degree)

_NODES, _EDGES, _COST = region(0), region(1), region(2)


def generate_graph(nodes: int, avg_degree: int, seed: int = SEED):
    """Seeded random graph in CSR form: (offsets, targets)."""
    rng = np.random.default_rng(seed)
    degrees = rng.poisson(avg_degree, size=nodes).clip(1, 4 * avg_degree)
    offsets = np.zeros(nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    targets = rng.integers(0, nodes, size=int(offsets[-1]), dtype=np.int64)
    return offsets, targets


def bfs_levels(offsets, targets, source: int = 0):
    """Host-side BFS producing the per-level frontiers."""
    nodes = len(offsets) - 1
    level = np.full(nodes, -1, dtype=np.int64)
    level[source] = 0
    frontier = [source]
    levels = [frontier]
    while frontier:
        nxt = []
        for u in frontier:
            for v in targets[offsets[u] : offsets[u + 1]]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        if nxt:
            levels.append(sorted(nxt))
        frontier = nxt
    return levels, level


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    nodes, avg_degree = _CONFIG[scale]
    offsets, targets = generate_graph(nodes, avg_degree)
    levels, _ = bfs_levels(offsets, targets)
    warps_per_cta = THREADS_PER_CTA // WARP_SIZE

    # One CTA group per level, each covering the whole node array (the
    # real kernel tests every node's frontier flag each level).
    ctas_per_level = nodes // THREADS_PER_CTA
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=ctas_per_level * len(levels),
        smem_bytes_per_cta=0,
    )
    frontier_sets = [set(f) for f in levels]

    def warp_fn(cta: int, warp: int):
        lvl, cta_in_level = divmod(cta, ctas_per_level)
        b = WarpBuilder()
        node0 = (cta_in_level * warps_per_cta + warp) * WARP_SIZE
        # Every thread checks its node's frontier flag (cost array).
        flag = b.load_global(coalesced(_COST, node0))
        b.touch(flag)
        mine = [n for n in range(node0, node0 + WARP_SIZE) if n in frontier_sets[lvl]]
        if not mine:
            return b
        na = len(mine)
        # Frontier threads read their CSR offsets (8-byte entries).
        off = b.load_global([_NODES + 4 * n for n in mine], active=na)
        b.touch(off, active=na)
        max_deg = max(int(offsets[n + 1] - offsets[n]) for n in mine)
        for e in range(max_deg):
            idx = [n for n in mine if offsets[n] + e < offsets[n + 1]]
            if not idx:
                break
            ne = len(idx)
            eaddr = [_EDGES + 4 * int(offsets[n] + e) for n in idx]
            tgt = b.load_global(eaddr, active=ne)
            # Visit check: gather into the cost array at the target node.
            vaddr = [_COST + 4 * int(targets[offsets[n] + e]) for n in idx]
            seen = b.load_global(vaddr, tgt, active=ne)
            upd = b.alu(seen, tgt, active=ne)
            b.store_global(vaddr, upd, active=ne)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

"""GPU-mummer (Rodinia mummergpu) -- DNA alignment via suffix-tree walks.

Cache-limited (Sections 3.2, 3.3.3, Figures 4, 9).  Table 1: 21
registers/thread, no shared memory, DRAM 1.48x uncached / 1.01x at
64 KB; the paper notes its working set (the reference suffix tree) was
small for their inputs, so the cache benefit is modest but real.

We build an actual suffix *trie* over a seeded random DNA reference
(numpy), capped in node count, and give each thread one query (a
substring of the reference plus mutations).  Each query character is a
data-dependent gather into the node table: the hot top levels of the
trie cache well, deep nodes are scattered -- the locality structure
that makes tree traversal cache-sensitive.
"""

from __future__ import annotations

import numpy as np

from repro.isa.kernel import KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE
from repro.kernels.base import WarpBuilder, build_kernel_trace, coalesced, region, require_scale

NAME = "gpu-mummer"
TARGET_REGS = 21
THREADS_PER_CTA = 256
SEED = 20120613
NODE_BYTES = 32  # child pointers + suffix link + depth

_CONFIG = {
    "tiny": (1024, 256, 12, 1500),
    "small": (4096, 2048, 20, 6000),
    "paper": (65536, 16384, 28, 60000),
}
# (reference length, queries, query length, max trie nodes).  The node
# cap sizes the tree's memory footprint: 6000 nodes x 32 B = 192 KB at
# the default scale, between the 64 KB and 256 KB cache points.

_TREE, _QUERIES, _OUT = region(0), region(1), region(2)


class _Trie:
    """Suffix trie over the 4-letter DNA alphabet, capped in size."""

    def __init__(self, reference: np.ndarray, max_nodes: int) -> None:
        self.children: list[list[int]] = [[-1, -1, -1, -1]]
        n = len(reference)
        for start in range(n):
            node = 0
            for c in reference[start : min(n, start + 24)]:
                nxt = self.children[node][c]
                if nxt < 0:
                    if len(self.children) >= max_nodes:
                        break
                    nxt = len(self.children)
                    self.children.append([-1, -1, -1, -1])
                    self.children[node][c] = nxt
                node = nxt

    def walk(self, query: np.ndarray) -> list[int]:
        """Node index sequence visited while matching a query."""
        node, path = 0, [0]
        for c in query:
            nxt = self.children[node][c]
            if nxt < 0:
                node = 0  # mismatch: restart from the root
            else:
                node = nxt
            path.append(node)
        return path


def build(scale: str = "small") -> KernelTrace:
    require_scale(scale)
    ref_len, num_queries, qlen, max_nodes = _CONFIG[scale]
    rng = np.random.default_rng(SEED)
    reference = rng.integers(0, 4, size=ref_len, dtype=np.int8)
    trie = _Trie(reference, max_nodes=max_nodes)
    warps_per_cta = THREADS_PER_CTA // WARP_SIZE
    launch = LaunchConfig(
        threads_per_cta=THREADS_PER_CTA,
        num_ctas=num_queries // THREADS_PER_CTA,
    )
    # Each thread's query: a reference substring with sparse mutations.
    starts = rng.integers(0, ref_len - qlen, size=num_queries)
    mutations = rng.integers(0, 4, size=(num_queries, qlen), dtype=np.int8)
    mutate = rng.random((num_queries, qlen)) < 0.05

    def query(q: int) -> np.ndarray:
        s = reference[starts[q] : starts[q] + qlen].copy()
        s[mutate[q]] = mutations[q][mutate[q]]
        return s

    def warp_fn(cta: int, warp: int):
        b = WarpBuilder()
        q0 = (cta * warps_per_cta + warp) * WARP_SIZE
        paths = [trie.walk(query(q0 + t)) for t in range(WARP_SIZE)]
        # Load each thread's query once (coalesced byte stream, modelled
        # as word loads every 4 characters).
        for chunk in range(0, qlen, 4):
            qv = b.load_global([_QUERIES + qlen * (q0 + t) + chunk for t in range(WARP_SIZE)])
            b.touch(qv)
        match = b.iconst()
        for step in range(1, qlen + 1):
            addrs = [_TREE + NODE_BYTES * paths[t][step] for t in range(WARP_SIZE)]
            node = b.load_global(addrs, match)
            match = b.alu(match, node)
            match = b.alu(match)
        b.store_global(coalesced(_OUT, q0), match)
        return b

    return build_kernel_trace(NAME, launch, warp_fn, target_regs=TARGET_REGS)

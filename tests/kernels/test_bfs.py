"""Tests for the BFS graph substrate."""

import numpy as np

from repro.kernels.bfs import bfs_levels, build, generate_graph


class TestGraphGeneration:
    def test_deterministic(self):
        a = generate_graph(512, 4)
        b = generate_graph(512, 4)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_different_seed_differs(self):
        a = generate_graph(512, 4, seed=1)
        b = generate_graph(512, 4, seed=2)
        assert not np.array_equal(a[1], b[1])

    def test_csr_well_formed(self):
        offsets, targets = generate_graph(256, 4)
        assert len(offsets) == 257
        assert offsets[0] == 0
        assert np.all(np.diff(offsets) >= 1)  # min degree 1
        assert offsets[-1] == len(targets)
        assert np.all((targets >= 0) & (targets < 256))


class TestHostBFS:
    def test_levels_partition_reachable_nodes(self):
        offsets, targets = generate_graph(512, 4)
        levels, level_of = bfs_levels(offsets, targets)
        seen = set()
        for i, frontier in enumerate(levels):
            for n in frontier:
                assert level_of[n] == i
                assert n not in seen
                seen.add(n)
        # Unreachable nodes stay at -1.
        assert all(level_of[n] >= 0 for n in seen)

    def test_source_is_level_zero(self):
        offsets, targets = generate_graph(128, 4)
        levels, level_of = bfs_levels(offsets, targets)
        assert levels[0] == [0]
        assert level_of[0] == 0

    def test_edges_respect_level_invariant(self):
        # A BFS tree edge never skips a level downward.
        offsets, targets = generate_graph(256, 4)
        _, level_of = bfs_levels(offsets, targets)
        for u in range(256):
            if level_of[u] < 0:
                continue
            for v in targets[offsets[u] : offsets[u + 1]]:
                if level_of[v] >= 0:
                    assert level_of[v] <= level_of[u] + 1


class TestTrace:
    def test_every_level_rescans_all_nodes(self):
        trace = build("tiny")
        offsets, targets = generate_graph(1024, 4)
        levels, _ = bfs_levels(offsets, targets)
        assert trace.launch.num_ctas == (1024 // 256) * len(levels)

    def test_uses_no_shared_memory(self):
        assert build("tiny").launch.smem_bytes_per_cta == 0

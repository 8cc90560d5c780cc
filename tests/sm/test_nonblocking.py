"""Non-blocking memory system: miss merging, mshr_full stalls, conservation.

The blocking model (``mshr_entries=0``, the default) stays the golden
reference; these tests pin the behaviours the MSHR path adds on top:
secondary misses merge into in-flight fills, a full file shows up as the
``mshr_full`` structural stall cause, and the ``repro.obs`` conservation
invariant stays exact.
"""

import pytest

from repro.core import partitioned_baseline
from repro.kernels import get_benchmark
from repro.obs import CAUSE_MSHR_FULL, Collector
from repro.sm import SMConfig, simulate
from tests.util import compiled, multi_warp_kernel, warp_streaming_loads

BASE = partitioned_baseline()


def _nonblocking(entries, **kw):
    return SMConfig(mshr_entries=entries, **kw)


class TestMissMerging:
    def test_two_warps_missing_same_line_make_one_fill(self):
        # Both warps load line 0; the second miss must merge into the
        # first warp's in-flight fill instead of refetching the line.
        k = compiled(multi_warp_kernel(
            [warp_streaming_loads(1, base=0), warp_streaming_loads(1, base=0)]
        ))
        r = simulate(k, BASE, _nonblocking(16))
        assert r.dram_accesses == 1
        mshr = r.notes["memsys"]["mshr"]
        assert mshr["primary_misses"] == 1
        assert mshr["secondary_merges"] == 1

    def test_distinct_lines_do_not_merge(self):
        k = compiled(multi_warp_kernel(
            [warp_streaming_loads(1, base=0), warp_streaming_loads(1, base=128)]
        ))
        r = simulate(k, BASE, _nonblocking(16))
        assert r.dram_accesses == 2
        mshr = r.notes["memsys"]["mshr"]
        assert mshr["primary_misses"] == 2
        assert mshr["secondary_merges"] == 0

    def test_merged_warp_waits_for_the_fill(self):
        # The merging warp sleeps until the shared fill lands, so the
        # run is at least one full DRAM latency long.
        k = compiled(multi_warp_kernel(
            [warp_streaming_loads(1, base=0), warp_streaming_loads(1, base=0)]
        ))
        cfg = _nonblocking(16)
        r = simulate(k, BASE, cfg)
        assert r.cycles > cfg.dram_latency


class TestMSHRFullStalls:
    def _streaming_kernel(self, warps=4, loads=8):
        return compiled(multi_warp_kernel([
            warp_streaming_loads(loads, base=w * loads * 128)
            for w in range(warps)
        ]))

    def test_full_file_charges_mshr_full_and_conserves(self):
        k = self._streaming_kernel()
        col = Collector()
        r = simulate(k, BASE, _nonblocking(1), collector=col)
        assert col.conservation_errors() == []
        assert r.stall_cycles[CAUSE_MSHR_FULL] > 0.0
        mshr = r.notes["memsys"]["mshr"]
        assert mshr["full_stalls"] > 0
        assert mshr["full_stall_cycles"] > 0.0
        assert mshr["peak_outstanding"] == 1

    def test_ample_entries_never_stall(self):
        k = self._streaming_kernel()
        col = Collector()
        r = simulate(k, BASE, _nonblocking(64), collector=col)
        assert col.conservation_errors() == []
        assert r.stall_cycles.get(CAUSE_MSHR_FULL, 0.0) == 0.0
        assert r.notes["memsys"]["mshr"]["full_stalls"] == 0

    def test_more_entries_never_slower_here(self):
        # Four warps need four concurrent fills: 1 and 2 entries starve,
        # 4 already saturates, so more entries change nothing.
        k = self._streaming_kernel()
        cycles = [simulate(k, BASE, _nonblocking(n)).cycles for n in (1, 2, 4, 16)]
        assert cycles[0] > cycles[1] > cycles[2] == cycles[3]


class TestConservationAcrossBenchmarks:
    KERNELS = ("vectoradd", "matrixmul", "needle", "bfs", "dgemm", "aes")

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_invariant_exact_in_nonblocking_mode(self, kernel):
        k = get_benchmark(kernel).build("tiny")
        cfg = _nonblocking(4, dram_banks=8, dram_row_hit_latency=160)
        col = Collector()
        simulate(compiled(k), BASE, cfg, collector=col)
        assert col.conservation_errors() == []


class TestResultNotes:
    def test_blocking_default_leaves_notes_empty(self):
        k = compiled(multi_warp_kernel([warp_streaming_loads(2)]))
        r = simulate(k, BASE)
        assert "memsys" not in r.notes

    def test_memsys_payload_shape(self):
        k = compiled(multi_warp_kernel([warp_streaming_loads(4)]))
        cfg = _nonblocking(8, dram_banks=4, dram_row_hit_latency=160)
        r = simulate(k, BASE, cfg)
        memsys = r.notes["memsys"]
        assert set(memsys) == {"mshr", "dram_row_hits", "dram_row_misses"}
        assert set(memsys["mshr"]) == {
            "entries", "primary_misses", "secondary_merges",
            "full_stalls", "full_stall_cycles", "peak_outstanding",
        }
        assert memsys["mshr"]["entries"] == 8
        # Four consecutive lines in one 2 KB row: the first opens it,
        # the rest hit.
        assert memsys["dram_row_misses"] >= 1
        assert memsys["dram_row_hits"] >= 1


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mshr_entries=-1),
            dict(dram_banks=0),
            dict(dram_row_bytes=0),
            dict(dram_row_hit_latency=-1),
            # Negative latencies used to simulate, finishing early with
            # broken per-warp stall conservation.
            dict(barrier_latency=-200),
            dict(deschedule_latency=-30, deschedule_threshold=0),
            dict(deschedule_threshold=-1),
            # Used to fail only inside simulate(), building the cache or
            # the DRAM channel.
            dict(cache_assoc=0),
            dict(cache_line_bytes=0),
            dict(cache_line_bytes=-128),
            dict(dram_transaction_bytes=0),
        ],
    )
    def test_bad_memsys_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SMConfig(**kwargs)

    def test_non_blocking_property(self):
        assert not SMConfig().non_blocking
        assert SMConfig(mshr_entries=1).non_blocking
        assert SMConfig().make_mshr_file() is None
        assert SMConfig(mshr_entries=2).make_mshr_file().num_entries == 2

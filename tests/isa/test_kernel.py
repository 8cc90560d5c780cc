"""Unit tests for kernel metadata and trace containers."""

import pytest

from repro.isa import CTATrace, KernelInfo, KernelTrace, LaunchConfig, OpClass, WarpBuilder
from repro.isa.io import load_trace, save_trace
from repro.isa.kernel import register_shape
from repro.isa.trace import WARP_SIZE
from repro.kernels import get_benchmark
from repro.kernels.irregular import get_irregular


def _warp(n_alu=3, barriers=0):
    b = WarpBuilder()
    v = b.iconst()
    for _ in range(n_alu - 1):
        v = b.alu(v)
    for _ in range(barriers):
        b.barrier()
    return b.ops


class TestLaunchConfig:
    def test_derived_quantities(self):
        lc = LaunchConfig(threads_per_cta=128, num_ctas=4, smem_bytes_per_cta=2048)
        assert lc.warps_per_cta == 4
        assert lc.total_threads == 512
        assert lc.smem_bytes_per_thread == 16.0

    def test_threads_must_be_warp_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            LaunchConfig(threads_per_cta=100, num_ctas=1)

    def test_positive_ctas(self):
        with pytest.raises(ValueError):
            LaunchConfig(threads_per_cta=WARP_SIZE, num_ctas=0)

    def test_negative_smem(self):
        with pytest.raises(ValueError):
            LaunchConfig(threads_per_cta=WARP_SIZE, num_ctas=1, smem_bytes_per_cta=-1)


class TestKernelInfo:
    def test_register_footprint(self):
        info = KernelInfo("k", regs_per_thread=20, smem_bytes_per_thread=16, threads_per_cta=256)
        assert info.rf_bytes_per_thread == 80
        assert info.rf_bytes(1024) == 80 * 1024
        assert info.smem_bytes(512) == 16 * 512


class TestCTATrace:
    def test_barrier_counts_must_match(self):
        good = CTATrace([_warp(barriers=2), _warp(barriers=2)])
        assert good.num_warps == 2
        with pytest.raises(ValueError, match="same number of barriers"):
            CTATrace([_warp(barriers=1), _warp(barriers=2)])

    def test_empty_cta_rejected(self):
        with pytest.raises(ValueError):
            CTATrace([])

    def test_total_ops(self):
        cta = CTATrace([_warp(3), _warp(5)])
        assert cta.total_ops == 8


class TestKernelTrace:
    def _trace(self, num_ctas=2, warps=2):
        lc = LaunchConfig(threads_per_cta=warps * WARP_SIZE, num_ctas=num_ctas)
        ctas = [CTATrace([_warp() for _ in range(warps)]) for _ in range(num_ctas)]
        return KernelTrace("k", lc, ctas)

    def test_shape_validation(self):
        lc = LaunchConfig(threads_per_cta=64, num_ctas=2)
        with pytest.raises(ValueError, match="CTAs"):
            KernelTrace("k", lc, [CTATrace([_warp(), _warp()])])
        with pytest.raises(ValueError, match="warps"):
            KernelTrace("k", lc, [CTATrace([_warp()]), CTATrace([_warp()])])

    def test_stats_cached_and_correct(self):
        t = self._trace()
        s = t.stats()
        assert s.total_ops == t.total_ops == 12
        assert s.alu_ops == 12
        assert t.stats() is s  # cached

    def test_iter_ops_covers_everything(self):
        t = self._trace()
        ops = list(t.iter_ops())
        assert len(ops) == t.total_ops
        assert all(op.op is OpClass.ALU for op in ops)


def _fresh_grouping(trace):
    """Each warp's shape number and the first warp of each shape, recomputed."""
    numbers, ids, firsts = {}, [], []
    for cta in trace.ctas:
        for w in cta.warps:
            key = register_shape(w)
            if key not in numbers:
                numbers[key] = len(numbers)
                firsts.append(w)
            ids.append(numbers[key])
    return ids, firsts


class TestShapeNumbers:
    @pytest.mark.parametrize("source", ["built", "emulated", "loaded"])
    def test_carried_numbers_equal_a_fresh_grouping(self, source, tmp_path):
        if source == "emulated":
            trace = get_irregular("collatz").build("tiny")
        else:
            trace = get_benchmark("needle").build("tiny")
        if source == "loaded":
            save_trace(trace, tmp_path / "t.npz")
            trace = load_trace(tmp_path / "t.npz")
        ids, firsts = _fresh_grouping(trace)
        assert trace.shape_ids == ids
        assert len(trace.shape_warps) == len(firsts)
        assert all(a is b for a, b in zip(trace.shape_warps, firsts))

    def test_numbers_follow_first_appearance(self):
        lc = LaunchConfig(threads_per_cta=2 * WARP_SIZE, num_ctas=2)
        a, b = _warp(3), _warp(5)
        trace = KernelTrace("k", lc, [CTATrace([a, b]), CTATrace([_warp(5), _warp(3)])])
        assert trace.shape_ids == [0, 1, 1, 0]
        assert trace.shape_warps[0] is a and trace.shape_warps[1] is b

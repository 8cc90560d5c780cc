"""Round-trip tests for trace serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.io import load_trace, save_trace
from repro.isa.kernel import CTATrace, KernelTrace, LaunchConfig
from repro.isa.opcodes import OpClass
from repro.isa.trace import WarpOp
from repro.kernels import get_benchmark


def _traces_equal(a, b) -> bool:
    if (a.name, a.launch, a.uses_texture) != (b.name, b.launch, b.uses_texture):
        return False
    for ca, cb in zip(a.ctas, b.ctas):
        if ca.warps != cb.warps:
            return False
    return True


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["vectoradd", "needle", "bfs", "bicubictexture"])
    def test_lossless(self, name, tmp_path):
        trace = get_benchmark(name).build("tiny")
        path = tmp_path / f"{name}.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert _traces_equal(trace, loaded)
        assert loaded.total_ops == trace.total_ops

    def test_decoded_fields_are_python_ints(self, tmp_path):
        trace = get_benchmark("needle").build("tiny")
        path = tmp_path / "needle.npz"
        save_trace(trace, path)
        for op in load_trace(path).iter_ops():
            fields = [op.active, *op.srcs, *(op.addrs or ())]
            if op.dst is not None:
                fields.append(op.dst)
            assert all(type(x) is int for x in fields), op

    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro.compiler import compile_kernel
        from repro.core import partitioned_baseline
        from repro.sm import simulate

        trace = get_benchmark("pcr").build("tiny")
        path = tmp_path / "pcr.npz"
        save_trace(trace, path)
        a = simulate(compile_kernel(trace), partitioned_baseline())
        b = simulate(compile_kernel(load_trace(path)), partitioned_baseline())
        assert a.cycles == b.cycles
        assert a.dram_accesses == b.dram_accesses

    def test_empty_address_tuple_survives(self, tmp_path):
        # A fully-predicated memory op carries addrs=() (present but
        # empty); the v1 format decoded it as None because only the
        # offset arithmetic (a1 > a0) reconstructed presence.
        warp = [
            WarpOp(op=OpClass.ALU, dst=0, srcs=()),
            WarpOp(op=OpClass.LOAD_GLOBAL, dst=1, srcs=(0,), addrs=(), active=0),
            WarpOp(op=OpClass.STORE_GLOBAL, srcs=(1,), addrs=(64,), active=1),
        ]
        trace = KernelTrace(
            "predicated",
            LaunchConfig(threads_per_cta=32, num_ctas=1),
            [CTATrace([warp])],
        )
        path = tmp_path / "predicated.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        ops = loaded.ctas[0].warps[0]
        assert ops[1].addrs == ()
        assert ops[1].active == 0
        assert _traces_equal(trace, loaded)

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.builds(
                    WarpOp,
                    op=st.just(OpClass.ALU),
                    dst=st.integers(0, 7),
                    srcs=st.tuples(st.integers(0, 7)),
                ),
                st.integers(0, 4).flatmap(
                    lambda n: st.builds(
                        WarpOp,
                        op=st.sampled_from(
                            [OpClass.LOAD_GLOBAL, OpClass.STORE_GLOBAL]
                        ),
                        srcs=st.just((0,)),
                        addrs=st.just(tuple(128 * i for i in range(n))),
                        active=st.just(n),
                    )
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_roundtrip_property(self, ops, tmp_path_factory):
        trace = KernelTrace(
            "prop",
            LaunchConfig(threads_per_cta=32, num_ctas=1),
            [CTATrace([list(ops)])],
        )
        path = tmp_path_factory.mktemp("io") / "prop.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert _traces_equal(trace, loaded)

    def test_version_check(self, tmp_path):
        import json

        import numpy as np

        trace = get_benchmark("vectoradd").build("tiny")
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["version"] = 99
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_trace(path)

    def test_compression_is_effective(self, tmp_path):
        # The flattened arrays compress far below a naive pickle.
        trace = get_benchmark("srad").build("tiny")
        path = tmp_path / "srad.npz"
        save_trace(trace, path)
        # ~11k ops with 32 addresses each; compressed file stays small.
        assert path.stat().st_size < 600_000

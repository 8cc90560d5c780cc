"""Tests for ``build_kernel_trace``: one generator call per warp, padding
by register renaming, and both register-footprint errors."""

import pytest

from repro.compiler import max_live_registers
from repro.isa import LaunchConfig, OpClass, WarpBuilder, WarpOp
from repro.kernels.base import build_kernel_trace

#: 2 CTAs x 2 warps.
LAUNCH = LaunchConfig(threads_per_cta=64, num_ctas=2)


def _three_live(cta, warp):
    b = WarpBuilder()
    values = [b.iconst() for _ in range(3)]
    b.touch(*values)
    return b


def _barrier_only(cta, warp):
    b = WarpBuilder()
    b.barrier()
    return b


def _partial(cta, warp):
    """A half-warp builder whose first op runs 8 lanes; each warp has
    its own addresses, and all warps share one register shape."""
    b = WarpBuilder(active=16)
    base = 4096 * (2 * cta + warp)
    x = b.load_global([base + 4 * t for t in range(8)], active=8)
    y = b.alu(x)
    b.store_global([base + 4 * t for t in range(16)], y)
    return b


def test_natural_footprint_above_target_rejected():
    with pytest.raises(ValueError, match="natural register footprint 4 exceeds the target of 2"):
        build_kernel_trace("k", LAUNCH, _three_live, target_regs=2)


def test_padding_off_target_rejected():
    with pytest.raises(
        ValueError, match=r"padding produced peak liveness 4, expected 3 \(natural 0\)"
    ):
        build_kernel_trace("k", LAUNCH, _barrier_only, target_regs=3)


def test_generator_called_once_per_warp():
    calls = []

    def spy(cta, warp):
        calls.append((cta, warp))
        return _partial(cta, warp)

    build_kernel_trace("k", LAUNCH, spy, target_regs=5)
    assert sorted(calls) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_padding_renames_registers_and_keeps_builder_active():
    natural = build_kernel_trace("k", LAUNCH, _partial)
    assert max(map(max_live_registers, natural.shape_warps)) == 2
    pad = 3
    trace = build_kernel_trace("k", LAUNCH, _partial, target_regs=2 + pad)
    assert max(map(max_live_registers, trace.shape_warps)) == 2 + pad
    for nat_cta, cta in zip(natural.ctas, trace.ctas):
        for nat, ops in zip(nat_cta.warps, cta.warps):
            # Defs at vregs 0..pad-1, natural vregs 0..1 shifted by pad,
            # touches writing fresh vregs from pad + 2; the padding ops
            # carry the builder's active=16, not a full warp's and not
            # the first op's.
            assert ops == (
                [WarpOp(OpClass.ALU, v, (), None, 16) for v in range(pad)]
                + [
                    WarpOp(
                        op.op,
                        None if op.dst is None else op.dst + pad,
                        tuple(r + pad for r in op.srcs),
                        op.addrs,
                        op.active,
                    )
                    for op in nat
                ]
                + [WarpOp(OpClass.ALU, pad + 2 + v, (v,), None, 16) for v in range(pad)]
            )
    # One shape: its renamed registers are built once and shared.
    assert trace.shape_ids == [0, 0, 0, 0]
    first, last = trace.ctas[0].warps[0], trace.ctas[1].warps[1]
    assert first[pad + 1].srcs is last[pad + 1].srcs
    assert first[pad].addrs != last[pad].addrs

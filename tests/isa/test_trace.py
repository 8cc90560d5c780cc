"""Unit tests for WarpOp records and TraceStats."""

import pytest

from repro.isa import OpClass, WarpOp
from repro.isa.trace import WARP_SIZE, TraceStats


class TestWarpOpValidation:
    def test_memory_op_requires_addresses(self):
        with pytest.raises(ValueError, match="requires per-thread addresses"):
            WarpOp(OpClass.LOAD_GLOBAL, dst=0)

    def test_op_must_be_an_op_class(self):
        with pytest.raises(ValueError, match="OpClass"):
            WarpOp("alu", dst=0)

    def test_negative_dst_rejected(self):
        # The trace file stores dst + 1 with 0 for "none", so a negative
        # dst would come back from the disk cache as a different op.
        with pytest.raises(ValueError, match="dst"):
            WarpOp(OpClass.ALU, dst=-1)

    def test_address_count_must_match_active(self):
        with pytest.raises(ValueError, match="addresses for"):
            WarpOp(OpClass.LOAD_GLOBAL, dst=0, addrs=(0, 4), active=3)

    def test_alu_must_not_carry_addresses(self):
        with pytest.raises(ValueError, match="must not carry addresses"):
            WarpOp(OpClass.ALU, dst=0, addrs=(0,) * WARP_SIZE)

    @pytest.mark.parametrize("active", [0, -1, WARP_SIZE + 1])
    def test_active_bounds(self, active):
        with pytest.raises(ValueError, match="active thread count"):
            WarpOp(OpClass.ALU, dst=0, active=active)

    def test_partial_warp_memory_op(self):
        op = WarpOp(OpClass.STORE_GLOBAL, srcs=(1, 2), addrs=(0, 4, 8), active=3)
        assert op.active == 3
        assert op.addrs == (0, 4, 8)

    def test_regs_read_written(self):
        op = WarpOp(OpClass.ALU, dst=5, srcs=(1, 2, 3))
        assert op.regs_read == (1, 2, 3)
        assert op.regs_written == (5,)
        store = WarpOp(OpClass.STORE_SHARED, srcs=(7,), addrs=(0,) * WARP_SIZE)
        assert store.regs_written == ()


class TestTraceStats:
    def _mem(self, op, n=WARP_SIZE):
        return WarpOp(op, dst=0 if op.is_load else None, addrs=tuple(range(0, 4 * n, 4)))

    def test_counts_by_class(self):
        ops = [
            WarpOp(OpClass.ALU, dst=0),
            WarpOp(OpClass.ALU, dst=1),
            WarpOp(OpClass.SFU, dst=2),
            WarpOp(OpClass.TEX, dst=3),
            WarpOp(OpClass.BARRIER),
            self._mem(OpClass.LOAD_GLOBAL),
            self._mem(OpClass.STORE_GLOBAL),
            self._mem(OpClass.LOAD_SHARED),
            self._mem(OpClass.STORE_SHARED),
            self._mem(OpClass.LOAD_LOCAL),
            self._mem(OpClass.STORE_LOCAL),
        ]
        s = TraceStats.from_ops(ops)
        assert s.total_ops == 11
        assert s.alu_ops == 2
        assert s.sfu_ops == 1
        assert s.tex_ops == 1
        assert s.barriers == 1
        assert s.global_loads == s.global_stores == 1
        assert s.shared_loads == s.shared_stores == 1
        assert s.local_loads == s.local_stores == 1
        assert s.memory_ops == 6

    def test_empty_stream(self):
        s = TraceStats.from_ops([])
        assert s.total_ops == 0
        assert s.memory_ops == 0

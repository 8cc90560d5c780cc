"""Shared test helpers: small kernels, and the reference-loop swap."""

from __future__ import annotations

from unittest import mock

from repro.compiler import compile_kernel
from repro.isa import CTATrace, KernelTrace, LaunchConfig, WarpBuilder
from repro.sm import replay
from repro.sm.core import run_event


def reference_loop():
    """Context manager running every simulation inside it on ``run_event``.

    ``simulate()`` and ``simulate_chip()`` look the columnar replay loop
    up through :mod:`repro.sm.replay`, so swapping in the per-op
    reference loop (same signature) there reroutes both, instrumented
    or not.  Tests compare the two loops' results and payloads for
    bit-identity this way; nothing in the package selects the reference.
    """
    return mock.patch.object(replay, "run_columnar", run_event)


def warp_alu_chain(n: int):
    """A fully dependent chain of n ALU ops (latency-bound)."""
    b = WarpBuilder()
    v = b.iconst()
    for _ in range(n - 1):
        v = b.alu(v)
    return b.ops


def warp_alu_independent(n: int):
    """n independent ALU ops (issue-bound)."""
    b = WarpBuilder()
    for _ in range(n):
        b.iconst()
    return b.ops


def warp_streaming_loads(n: int, base: int = 0, stride: int = 128):
    """n coalesced global loads at consecutive lines, each value consumed."""
    b = WarpBuilder()
    for i in range(n):
        line = base + i * stride
        v = b.load_global([line + 4 * t for t in range(32)])
        b.touch(v)
    return b.ops


def warp_with_barriers(n_phases: int, alu_per_phase: int = 4):
    b = WarpBuilder()
    v = b.iconst()
    for _ in range(n_phases):
        for _ in range(alu_per_phase):
            v = b.alu(v)
        b.barrier()
    return b.ops


def single_warp_kernel(ops, name="k", smem_bytes_per_cta=0, num_ctas=1):
    lc = LaunchConfig(
        threads_per_cta=32, num_ctas=num_ctas, smem_bytes_per_cta=smem_bytes_per_cta
    )
    ctas = [CTATrace([list(ops)]) for _ in range(num_ctas)]
    return KernelTrace(name, lc, ctas)


def multi_warp_kernel(warp_ops_list, name="k", smem_bytes_per_cta=0, num_ctas=1):
    lc = LaunchConfig(
        threads_per_cta=32 * len(warp_ops_list),
        num_ctas=num_ctas,
        smem_bytes_per_cta=smem_bytes_per_cta,
    )
    ctas = [CTATrace([list(w) for w in warp_ops_list]) for _ in range(num_ctas)]
    return KernelTrace(name, lc, ctas)


def compiled(trace, regs=None):
    return compile_kernel(trace, regs_per_thread=regs)

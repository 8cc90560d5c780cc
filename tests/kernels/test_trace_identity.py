"""Trace identity gate: every generated trace equals its recorded digest.

``trace_digests.json`` holds one SHA-256 per kernel and scale for the 26
Table 1 kernels and the four irregular (emulator-traced) kernels, at the
``tiny`` and ``small`` scales.  A digest covers each warp's full op list
(class name, destination, sources, addresses, active lanes) plus the
launch shape and the texture flag, so any change to what a generator or
``build_kernel_trace`` emits -- including padding -- fails here.

Regenerate the file only for an intentional trace change, by running
this module as a script (``PYTHONPATH=src python -m
tests.kernels.test_trace_identity > tests/kernels/trace_digests.json``).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.kernels import all_benchmarks
from repro.kernels.irregular import all_irregular

DIGESTS = Path(__file__).with_name("trace_digests.json")
SCALES = ("tiny", "small")


def trace_digest(trace) -> str:
    """SHA-256 over a trace's launch, texture flag and every warp's ops."""
    h = hashlib.sha256()
    launch = trace.launch
    h.update(repr((
        launch.threads_per_cta, launch.num_ctas, launch.smem_bytes_per_cta,
        trace.uses_texture,
    )).encode())
    for cta in trace.ctas:
        for warp in cta.warps:
            h.update(repr([
                (op.op.name, op.dst, op.srcs, op.addrs, op.active) for op in warp
            ]).encode())
    return h.hexdigest()


def _builders():
    for bm in all_benchmarks():
        yield bm.name, bm.build
    for w in all_irregular():
        yield w.name, w.build


def _cases():
    return [(name, scale) for name, _ in _builders() for scale in SCALES]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_every_kernel_and_scale_is_recorded(recorded):
    assert sorted(recorded) == sorted(f"{n}/{s}" for n, s in _cases())


@pytest.mark.parametrize("name,scale", _cases())
def test_trace_matches_recorded_digest(name, scale, recorded):
    build = dict(_builders())[name]
    assert trace_digest(build(scale)) == recorded[f"{name}/{scale}"]


if __name__ == "__main__":
    builders = dict(_builders())
    print(json.dumps(
        {f"{n}/{s}": trace_digest(builders[n](s)) for n, s in _cases()},
        indent=1, sort_keys=True,
    ))

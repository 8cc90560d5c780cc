"""Observability byte gate: instrumented payloads equal their recorded digests.

The equivalence suite (``test_replay_observability.py``) holds the
replay loop to the reference loop, but both loops fire the same
:class:`~repro.obs.Collector` hooks, so a change inside the collector,
its sampler or its trace buffer moves both sides together and passes
there.  ``payload_digests.json`` pins what the collectors emit: one
SHA-256 per payload over its sorted-key JSON, for tiny-scale SM runs
(kernels x baseline/unified-384 partitions x blocking/MSHR memory) and
chip runs on shared and private DRAM slices, one of them with a trace
bound it overflows.

Regenerate the file only for an intentional payload change, by running
this module as a script (``PYTHONPATH=src python -m
tests.obs.test_payload_digests > tests/obs/payload_digests.json``).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.chip.config import ChipConfig
from repro.chip.simulator import simulate_chip
from repro.core import partitioned_baseline
from repro.experiments.runner import Runner
from repro.obs import ChipCollector, Collector
from repro.sm.simulator import simulate
from tests.obs.test_replay_observability import _compiled, _config

DIGESTS = Path(__file__).with_name("payload_digests.json")

SM_CASES = [
    (kernel, part_name, mshr)
    for kernel in ("matrixmul", "needle", "bfs", "lu@spill")
    for part_name in ("baseline", "unified384")
    for mshr in (0, 4)
]
#: ``(kernel, private DRAM slices, MSHR entries, trace bound)``; 2,000
#: events over 4 SMs truncates every share.
CHIP_CASES = [
    (kernel, part_dram, mshr, 500_000)
    for kernel in ("needle", "lu@spill")
    for part_dram in (False, True)
    for mshr in (0, 4)
] + [("needle", False, 4, 2_000), ("bfs", True, 0, 2_000)]


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def sm_key(kernel, part_name, mshr) -> str:
    return f"sm/{kernel}/{part_name}/mshr{mshr}"


def chip_key(kernel, part_dram, mshr, bound) -> str:
    return f"chip/{kernel}/{'private' if part_dram else 'shared'}/mshr{mshr}/{bound}"


def sm_digests(runner, kernel, part_name, mshr) -> dict:
    ck = _compiled(runner, kernel)
    if part_name == "baseline":
        part = partitioned_baseline()
    else:
        part = runner.allocation(kernel.partition("@")[0]).partition
    obs = Collector(metrics_window=500, trace=True, max_trace_events=500_000)
    simulate(ck, part, _config(runner, mshr), collector=obs)
    return {
        "report": _digest(obs.report()),
        "metrics": _digest(obs.metrics_payload()),
        "trace": _digest(obs.trace_payload()),
    }


def chip_digests(runner, kernel, part_dram, mshr, bound) -> dict:
    chip = ChipConfig(
        num_sms=4, dram_bytes_per_cycle=32.0, dram_channels=2,
        dram_partitioned=part_dram, sm=_config(runner, mshr),
    )
    obs = ChipCollector.for_chip(
        chip, metrics_window=500, trace=True, max_trace_events=bound
    )
    simulate_chip(
        _compiled(runner, kernel), partitioned_baseline(), chip, chip_collector=obs
    )
    return {
        "report": _digest(obs.report()),
        "chipmetrics": _digest(obs.chipmetrics_payload()),
        "trace": _digest(obs.trace_payload()),
    }


@pytest.fixture(scope="module")
def runner():
    return Runner("tiny")


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(
        [sm_key(*c) for c in SM_CASES] + [chip_key(*c) for c in CHIP_CASES]
    )


@pytest.mark.parametrize("kernel,part_name,mshr", SM_CASES)
def test_sm_payloads_match_recorded_digest(runner, recorded, kernel, part_name, mshr):
    assert sm_digests(runner, kernel, part_name, mshr) == recorded[
        sm_key(kernel, part_name, mshr)
    ]


@pytest.mark.parametrize("kernel,part_dram,mshr,bound", CHIP_CASES)
def test_chip_payloads_match_recorded_digest(
    runner, recorded, kernel, part_dram, mshr, bound
):
    assert chip_digests(runner, kernel, part_dram, mshr, bound) == recorded[
        chip_key(kernel, part_dram, mshr, bound)
    ]


if __name__ == "__main__":
    rn = Runner("tiny")
    out = {sm_key(*c): sm_digests(rn, *c) for c in SM_CASES}
    out.update({chip_key(*c): chip_digests(rn, *c) for c in CHIP_CASES})
    print(json.dumps(out, indent=1, sort_keys=True))

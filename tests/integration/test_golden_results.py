"""Full-fidelity golden regression: every SimResult field, bit-exact.

Complements test_golden.py (which pins only cycles / DRAM accesses):
these fixtures serialize *entire* seed SimResults -- cycles, conflict
histogram, cache stats, energy counts, stall totals -- for 6 kernels x
3 designs, and any simulator change must reproduce them exactly.  This
is the cycle-identity contract performance work on the hot loop is held
to (docs/performance.md); regenerate via tests/golden/generate.py only
for deliberate model changes.

``test_golden_result_exact`` runs each case the way a default run does;
``test_golden_result_on_engine`` pins every case on both loops, each
with its own runner: the per-op reference loop (swapped in by
:func:`tests.util.reference_loop`), and the columnar replay loop's
plain frame.
"""

import json
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.experiments.runner import Runner
from repro.sm.serialize import result_from_dict, result_to_dict
from tests.util import reference_loop

GOLDEN_DIR = Path(__file__).parent.parent / "golden"
CASES = sorted(p.name for p in GOLDEN_DIR.glob("*__*.json"))
ENGINES = ("event", "columnar")


@pytest.fixture(scope="module")
def rn():
    return Runner("tiny")


@pytest.fixture(scope="module")
def engine_runners():
    # One runner per loop: sim memo keys cannot tell the loops apart,
    # so a shared memo would hand one loop's result to the other.
    return {engine: Runner("tiny") for engine in ENGINES}


def test_fixture_set_is_complete():
    # >= 4 kernels x 3 partitions, per the regression-harness contract.
    kernels = {name.split("__")[0] for name in CASES}
    designs = {name.split("__")[1].removesuffix(".json") for name in CASES}
    assert len(kernels) >= 4, kernels
    assert designs == {"baseline", "fermi0", "unified384"}
    assert len(CASES) == len(kernels) * len(designs)


def _check_case(rn, case):
    from tests.golden.generate import case_result

    stored = json.loads((GOLDEN_DIR / case).read_text())
    kernel, design = case.removesuffix(".json").split("__")
    result = case_result(rn, kernel, design)
    got = result_to_dict(result)
    assert got == stored, (
        f"{case}: simulated result diverged from the seed simulator; "
        "if the model change is deliberate, rerun tests/golden/generate.py"
    )
    # The fixture itself must round-trip through the serializer.
    assert result_to_dict(result_from_dict(stored)) == stored


@pytest.mark.parametrize("case", CASES)
def test_golden_result_exact(case, rn):
    _check_case(rn, case)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("engine", ENGINES)
def test_golden_result_on_engine(engine, case, engine_runners):
    with reference_loop() if engine == "event" else nullcontext():
        _check_case(engine_runners[engine], case)

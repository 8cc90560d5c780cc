"""Event vs columnar loop equivalence (the replay loop's contract).

The columnar replayer (:mod:`repro.sm.replay`) exists purely for speed:
for every kernel, partition, and memory-system configuration it must
produce a :class:`~repro.sm.result.SimResult` *equal* to the per-op
reference loop's (:func:`repro.sm.core.run_event`) -- same cycles, same
counters, same energy, same notes.  This sweep is the enforcement:
kernels x partitions x MSHR settings, single-SM and chip scope,
compared field for field.  The ``@spill`` arms compile a kernel at
5/8 of its peak liveness, so fills and spills (thousands of local-memory
ops for dgemm and lu) reach both loops through their own lowering.
"""

from dataclasses import replace

import pytest

from repro.chip.config import ChipConfig
from repro.chip.simulator import simulate_chip
from repro.core import partitioned_baseline
from repro.experiments.runner import Runner
from repro.sm.simulator import simulate
from tests.util import reference_loop

KERNELS = ("vectoradd", "matrixmul", "needle", "bfs")
SPILL_KERNELS = ("dgemm@spill", "lu@spill", "needle@spill", "bfs@spill")
PARTITIONS = ("baseline", "unified384")
MSHRS = (0, 4)


@pytest.fixture(scope="module")
def runner():
    return Runner("tiny")


def _compiled(runner, kernel):
    """The kernel at its no-spill budget, or at 5/8 of it for ``@spill``."""
    name, _, arm = kernel.partition("@")
    ck = runner.compiled(name)
    if arm == "spill":
        ck = runner.compiled(name, max(6, 5 * ck.max_live // 8))
    return ck


def _partition(runner, kernel, name):
    if name == "baseline":
        return partitioned_baseline()
    try:
        return runner.allocation(kernel.partition("@")[0]).partition
    except Exception:
        pytest.skip(f"{kernel} has no unified-384 allocation at this scale")


def _config(runner, mshr):
    cfg = runner.config
    if mshr:
        # Banked open-page timing alongside the MSHRs, as the memsys
        # experiments run it -- the replayer's hardest arm.
        return replace(
            cfg, mshr_entries=mshr, dram_banks=8, dram_row_hit_latency=160
        )
    return replace(cfg, mshr_entries=0)


@pytest.mark.parametrize("mshr", MSHRS)
@pytest.mark.parametrize("part_name", PARTITIONS)
@pytest.mark.parametrize("kernel", KERNELS + SPILL_KERNELS)
def test_engines_bit_identical(runner, kernel, part_name, mshr):
    ck = _compiled(runner, kernel)
    part = _partition(runner, kernel, part_name)
    cfg = _config(runner, mshr)
    with reference_loop():
        event = simulate(ck, part, cfg)
    columnar = simulate(ck, part, cfg)
    # Whole-dataclass equality covers cycles, instruction and conflict
    # counts, the conflict histogram, cache/DRAM stats, energy, and
    # notes in one shot; compare fields first for readable failures.
    assert columnar.cycles == event.cycles
    assert columnar.instructions == event.instructions
    assert columnar.notes == event.notes
    assert columnar == event


@pytest.mark.parametrize("mshr", MSHRS)
@pytest.mark.parametrize("kernel", ("vectoradd", "needle", "lu@spill"))
def test_engines_bit_identical_at_chip_scope(runner, kernel, mshr):
    """Chip scope: shared arbitrated DRAM, 4 SMs, both loops."""
    ck = _compiled(runner, kernel)
    part = partitioned_baseline()
    chip = ChipConfig(
        num_sms=4, dram_bytes_per_cycle=32.0, dram_channels=2,
        sm=_config(runner, mshr),
    )
    with reference_loop():
        event = simulate_chip(ck, part, chip)
    columnar = simulate_chip(ck, part, chip)
    assert columnar.cycles == event.cycles
    assert columnar.per_sm == event.per_sm
    assert columnar.ctas_per_sm == event.ctas_per_sm
    assert columnar.dram_channel_bytes == event.dram_channel_bytes
    assert columnar.notes == event.notes

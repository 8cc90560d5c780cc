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

The reference computes every op from the component models (the bank
model's ``access()``, the coalescer, cache, DRAM and MSHRs) and shares
no plan or memo with replay, so this sweep also checks planning and
lowering.  The partitions cover every bank model: the baseline and a
Fermi-like split (partitioned), and the unified design under both its
per-bank conflict model and the strict cluster-port ablation
(``@clusterport``).  ``nocache`` gives global memory no cache at all,
so its loads and stores take the uncached rows; the module's runner
shares compiled kernels (and their lowering caches) with the cached
arms, so a program key that forgot whether a cache fronts global
memory would hand these arms a cached program.
"""

from contextlib import nullcontext
from dataclasses import replace
from itertools import product

import pytest

from repro.chip.config import ChipConfig
from repro.chip.simulator import simulate_chip
from repro.core import fermi_like, partitioned_baseline, partitioned_design
from repro.experiments.runner import Runner
from repro.isa import WarpOp
from repro.isa.opcodes import OpClass
from repro.obs import ChipCollector, Collector
from repro.sm.simulator import simulate
from tests.util import (
    compiled,
    reference_loop,
    single_warp_kernel,
    warp_alu_chain,
)

KERNELS = ("vectoradd", "matrixmul", "needle", "bfs")
SPILL_KERNELS = ("dgemm@spill", "lu@spill", "needle@spill", "bfs@spill")
PARTITIONS = (
    "baseline", "fermi0", "unified384", "unified384@clusterport", "nocache"
)
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
    if name == "fermi0":
        return fermi_like(0)
    if name == "nocache":
        return partitioned_design(256, 128, 0)
    try:
        return runner.allocation(kernel.partition("@")[0]).partition
    except Exception:
        pytest.skip(f"{kernel} has no unified-384 allocation at this scale")


def _config(runner, mshr, cluster_port=False):
    cfg = replace(runner.config, cluster_port_banks=cluster_port)
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
    cfg = _config(runner, mshr, cluster_port=part_name.endswith("@clusterport"))
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


def _chip_arms():
    """(kernel, partition, MSHRs, SMs, partitioned DRAM) chip-scope arms.

    An id reads ``kernel[-partition]-mshr[-Nsm][-slices]``; it omits the
    defaults, the baseline partition on 4 SMs behind shared DRAM
    (``needle-0``).
    """
    arms = []
    for kernel, part_name, mshr, num_sms, part_dram in product(
        ("vectoradd", "needle", "lu@spill", "dgemm@spill"),
        ("baseline", "unified384", "nocache"),
        MSHRS,
        (4, 3),
        (False, True),
    ):
        tags = [kernel]
        if part_name != "baseline":
            tags.append(part_name)
        tags.append(str(mshr))
        if num_sms != 4:
            tags.append(f"{num_sms}sm")
        if part_dram:
            tags.append("slices")
        arms.append(pytest.param(
            kernel, part_name, mshr, num_sms, part_dram, id="-".join(tags)
        ))
    return arms


@pytest.mark.parametrize(
    "kernel, part_name, mshr, num_sms, part_dram", _chip_arms()
)
def test_engines_bit_identical_at_chip_scope(
    runner, kernel, part_name, mshr, num_sms, part_dram
):
    """Chip scope, both loops: shared arbitrated DRAM or private slices.

    Three SMs split 32 B/cycle into non-integral slices; ``dgemm@spill``
    has two CTAs at tiny scale, so some SMs stay idle and must keep
    their initial clocks and counters.
    """
    ck = _compiled(runner, kernel)
    part = _partition(runner, kernel, part_name)
    chip = ChipConfig(
        num_sms=num_sms, dram_bytes_per_cycle=32.0, dram_channels=2,
        dram_partitioned=part_dram, sm=_config(runner, mshr),
    )
    with reference_loop():
        event = simulate_chip(ck, part, chip)
    columnar = simulate_chip(ck, part, chip)
    assert columnar.cycles == event.cycles
    assert columnar.per_sm == event.per_sm
    assert columnar.ctas_per_sm == event.ctas_per_sm
    assert columnar.dram_channel_bytes == event.dram_channel_bytes
    assert columnar.notes == event.notes
    for n_ctas, r in zip(columnar.ctas_per_sm, columnar.per_sm):
        if n_ctas == 0:
            assert (r.cycles, r.instructions, r.dram_accesses) == (0.0, 0, 0)
    if kernel == "dgemm@spill":
        assert 0 in columnar.ctas_per_sm


def test_reference_loop_plans_nothing(monkeypatch):
    """The reference shares no plan, memo or lowering cache with replay."""
    from repro.compiler import columnar

    calls = []
    real = columnar.intern_plan

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(columnar, "intern_plan", spy)
    # A fresh runner: the kernel below has never been simulated.
    rn = Runner("tiny")
    ck = rn.compiled("needle")
    chip = ChipConfig(
        num_sms=2, dram_bytes_per_cycle=32.0, dram_channels=2, sm=rn.config
    )
    with reference_loop():
        for part in (partitioned_baseline(), rn.allocation("needle").partition):
            simulate(ck, part, rn.config)
            simulate(ck, part, rn.config, collector=Collector(metrics_window=500))
            simulate_chip(ck, part, chip)
            simulate_chip(
                ck, part, chip, chip_collector=ChipCollector(2, 2, metrics_window=500)
            )
    assert ck._plan_cache == {}
    assert calls == []


@pytest.mark.parametrize("loop", ("replay", "reference"))
def test_untimeable_op_class_fails_on_both_loops(loop):
    ck = compiled(single_warp_kernel([*warp_alu_chain(3), WarpOp(OpClass.EXIT)]))
    with reference_loop() if loop == "reference" else nullcontext():
        with pytest.raises(ValueError, match="cannot be timed"):
            simulate(ck, partitioned_baseline())

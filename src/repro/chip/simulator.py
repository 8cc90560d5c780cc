"""Chip-level simulation: N SM cores behind one DRAM system.

:func:`simulate_chip` composes a chip out of
:class:`~repro.sm.core.SMCore` instances -- a GigaThread-style
:class:`~repro.chip.dispatch.CTADispatcher` handing out the grid, a
shared :class:`~repro.memory.dram.DRAMSystem` (or private per-SM
slices), and the :class:`~repro.obs.chip.ChipCollector` taps -- runs
them on the columnar replay loop (:func:`repro.sm.replay.run_columnar`:
one frame for any core count, observed or not), and assembles the
:class:`~repro.chip.result.ChipResult`.  :func:`repro.sm.simulate` is
this function on a one-SM chip, so core wiring (DRAM port, observers,
CTA source) is written here only.

One global event heap interleaves the warps of every SM by readiness,
so SMs advance together in simulated time and their DRAM requests reach
the shared system in arrival order -- the contention the paper's fixed
1/32-bandwidth-slice methodology cannot express.  Each SM keeps its own
issue port, memory pipeline port, bank model, cache, and counters;
nothing architectural is shared except the DRAM channels and the CTA
dispatcher.  A 1-SM chip with a private full-slice channel
(``ChipConfig.single_sm()``) is :func:`repro.sm.simulate` -- pinned
against the golden fixtures by ``tests/chip/test_single_sm_identity.py``.
"""

from __future__ import annotations

from repro.chip.config import ChipConfig
from repro.chip.dispatch import CTADispatcher
from repro.chip.result import ChipResult
from repro.compiler.compiled import CompiledKernel
from repro.core.partition import MemoryPartition
from repro.memory.dram import DRAMSystem
from repro.sm import replay
from repro.sm.core import SMCore


def _tee_channel_observer(sm_hook, chip_hook, channel: int):
    """Fan a private DRAMChannel's observer out to the SM and chip sinks.

    Partitioned DRAM has no :class:`~repro.memory.dram.DRAMSystem` to
    carry a ``channel_observer``, so the chip collector sees SM ``i``'s
    private slice as channel ``i`` through this shim.
    """
    if sm_hook is None:
        def tee(start, end, nbytes):
            chip_hook(channel, start, end, nbytes)
    else:
        def tee(start, end, nbytes):
            sm_hook(start, end, nbytes)
            chip_hook(channel, start, end, nbytes)
    return tee


def simulate_chip(
    kernel: CompiledKernel,
    partition: MemoryPartition,
    chip: ChipConfig | None = None,
    thread_target: int | None = None,
    collectors=None,
    chip_collector=None,
) -> ChipResult:
    """Run one kernel launch across every SM of a chip.

    CTAs are distributed GigaThread-style by a shared
    :class:`~repro.chip.dispatch.CTADispatcher` (grid order, to whichever
    SM frees a residency slot first); DRAM requests either share the
    chip's arbitrated channels or, when ``chip.dram_partitioned``, go to
    private per-SM slices -- the paper's methodology.

    Args:
        kernel: Compiled kernel; the *whole* grid is one launch, however
            many SMs share it.
        partition: Memory split every SM runs under.
        chip: Chip shape and DRAM model; defaults to the paper's 32-SM,
            256 B/cycle chip with shared channels.
        thread_target: Per-SM resident-thread cap (as in
            :func:`repro.sm.simulate`).
        collectors: Optional list of per-SM observability collectors,
            one per SM (``None`` entries allowed).  Each SM's collector
            sees only that SM's events; all are finished at the chip
            makespan so per-SM stall attribution conserves against chip
            time.
        chip_collector: Optional
            :class:`~repro.obs.chip.ChipCollector`; its per-SM
            collectors become the ``collectors`` list, its DRAM hook
            rides the channel observer, and its dispatcher tap records
            every CTA hand-out and retirement.  Mutually exclusive with
            ``collectors``.

    Returns:
        A :class:`~repro.chip.result.ChipResult` holding one measured
        :class:`~repro.sm.result.SimResult` per SM plus chip aggregates.
    """
    cfg = chip or ChipConfig()
    sm_cfg = cfg.sm
    n = cfg.num_sms
    chip_obs = (
        chip_collector
        if chip_collector is not None and chip_collector.enabled
        else None
    )
    if chip_obs is not None:
        if collectors is not None:
            raise ValueError("pass either collectors or chip_collector, not both")
        if chip_obs.num_sms != n:
            raise ValueError(
                f"chip_collector shaped for {chip_obs.num_sms} SMs, chip has {n}"
            )
        expected_channels = n if cfg.dram_partitioned else cfg.dram_channels
        if chip_obs.num_channels != expected_channels:
            raise ValueError(
                f"chip_collector shaped for {chip_obs.num_channels} DRAM "
                f"channels, chip has {expected_channels}"
            )
        collectors = chip_obs.collectors
    if collectors is None:
        collectors = [None] * n
    if len(collectors) != n:
        raise ValueError(f"need {n} collectors (one per SM), got {len(collectors)}")

    dispatcher = CTADispatcher(len(kernel.ctas), n)
    system = None
    if not cfg.dram_partitioned:
        system = DRAMSystem(
            bytes_per_cycle=cfg.dram_bytes_per_cycle,
            channels=cfg.dram_channels,
            latency=sm_cfg.dram_latency,
            transaction_bytes=sm_cfg.dram_transaction_bytes,
            channel_observer=(
                chip_obs.dram_channel_transfer if chip_obs is not None else None
            ),
            banks=sm_cfg.dram_banks,
            row_bytes=sm_cfg.dram_row_bytes,
            row_hit_latency=sm_cfg.dram_row_hit_latency,
        )

    cores: list[SMCore] = []
    for i in range(n):
        obs = collectors[i] if collectors[i] is not None and collectors[i].enabled else None
        hook = obs.dram_transfer if obs is not None else None
        if system is not None:
            dram = system.port(i, observer=hook)
        else:
            if chip_obs is not None:
                hook = _tee_channel_observer(hook, chip_obs.dram_channel_transfer, i)
            dram = sm_cfg.make_dram_channel(
                observer=hook, bytes_per_cycle=cfg.sm_bandwidth_slice
            )
        cores.append(
            SMCore(i, kernel, partition, sm_cfg, thread_target, dram, obs, dispatcher)
        )

    replay.run_columnar(kernel, sm_cfg, cores, chip_obs)

    chip_cycles = max(core.end_cycle() for core in cores)
    per_sm = [core.result(chip_cycles) for core in cores]

    if chip_obs is not None:
        chip_obs.finish(chip_cycles)

    chip_notes: dict = {}
    if sm_cfg.non_blocking:
        memsys = {
            "mshr_entries": sm_cfg.mshr_entries,
            "primary_misses": sum(c.mshr.primary_misses for c in cores),
            "secondary_merges": sum(c.mshr.secondary_merges for c in cores),
            "full_stalls": sum(c.mshr.full_stalls for c in cores),
            "full_stall_cycles": sum(c.mshr.full_stall_cycles for c in cores),
        }
        if system is not None:
            memsys["dram_row_hits"] = system.row_hits
            memsys["dram_row_misses"] = system.row_misses
        else:
            memsys["dram_row_hits"] = sum(c.dram.row_hits for c in cores)
            memsys["dram_row_misses"] = sum(c.dram.row_misses for c in cores)
        chip_notes["memsys"] = memsys

    return ChipResult(
        kernel=kernel.name,
        partition=partition,
        config=cfg,
        cycles=chip_cycles,
        per_sm=per_sm,
        ctas_per_sm=[len(a) for a in dispatcher.assignments],
        dram_channel_bytes=list(system.channel_bytes) if system is not None else [],
        notes=chip_notes,
    )

"""One SM core, and the per-op reference loop over any number of them.

:class:`SMCore` is the state of one SM: its CTA scheduler, bank model,
cache, MSHR file, DRAM port, observability sink, issue and memory
pipeline clocks, and run counters.  The chip simulator
(:mod:`repro.chip`) builds N behind a shared dispatcher and DRAM system
-- :func:`repro.sm.simulate` is its one-SM case -- runs them on
:func:`repro.sm.replay.run_columnar` and closes each core with
:meth:`SMCore.result`.  The replay frame keeps the current core's
clocks and cache/DRAM counters in locals and writes them back into its
:class:`SMCore` and model objects whenever it switches to another
core's warp and when the run ends, so a core whose warps never ran
keeps its initial clocks and counters.

:func:`run_event` is the reference that loop is held to.  No production
code calls it: the equivalence, golden-fixture and observability tests
swap it in for :func:`~repro.sm.replay.run_columnar`, whose signature
it shares, and require bit-identical results and payloads.

:func:`run_event` pops the earliest-ready warp from one global heap,
serialises it on its core's issue port, resolves its instruction
against that core's component models, and schedules the warp's next
readiness.  Each warp instruction is visited exactly once, so the loop
runs in ``O(total_ops * log(resident_warps))``.  It computes every op
from scratch, dispatching on the op's class (``space``, ``is_load``):
bank outcomes from the bank model's ``access()``, which records the
conflict histogram and arbitration count itself; line segments, DRAM
sectors and write-through bursts from :mod:`repro.memory.coalescer`;
then the cache, MSHR file and DRAM port.  It reads no op plan, memo or
lowering cache, so replay's planning and lowering
(:mod:`repro.compiler.columnar`) are checked against a model they do
not share.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.compiler.compiled import CompiledKernel, CompiledOp
from repro.core.partition import MemoryPartition
from repro.isa.opcodes import MemSpace, OpClass
from repro.memory.banks import make_bank_model
from repro.memory.cache import DataCache
from repro.memory.coalescer import coalesce_lines, coalesce_sectors, sectors_per_line
from repro.obs.collector import (
    CAUSE_BARRIER,
    CAUSE_MEMORY,
    CAUSE_RAW,
)
from repro.sm.config import SMConfig
from repro.sm.cta_scheduler import CTAScheduler, ResidentCTA
from repro.sm.result import EnergyCounts, SimResult


class SimulationError(RuntimeError):
    """The simulation reached an inconsistent state (internal bug guard)."""


class SMCore:
    """One SM's private state: models, clocks, and run counters.

    Everything a simulation tracks per SM lives here, because the loops
    interleave the warps of every core through one heap and route each
    popped warp back to its own core's issue port and counters.
    """

    __slots__ = (
        "index",
        "scheduler",
        "banks",
        "cache",
        "dram",
        "mshr",
        "obs",
        "issued_until",
        "mem_port_free",
        "instructions",
        "conflict_cycles",
        "hist",
        "arb_total",
        "mrf_reads",
        "mrf_writes",
        "orf_reads",
        "orf_writes",
        "lrf_reads",
        "lrf_writes",
        "shared_row_reads",
        "shared_row_writes",
        "cache_row_reads",
        "cache_row_writes",
        "tag_lookups",
        "warp_serial",
        "live_ctas",
    )

    def __init__(
        self,
        index: int,
        kernel: CompiledKernel,
        partition: MemoryPartition,
        cfg: SMConfig,
        thread_target: int | None,
        dram,
        obs,
        dispatcher,
    ) -> None:
        """Build SM ``index`` of a launch of ``kernel`` under ``partition``.

        ``dram`` is the core's DRAM port (a private
        :class:`~repro.memory.dram.DRAMChannel` or a
        :class:`~repro.memory.dram.DRAMPort` onto a shared system), with
        any observer already attached; ``obs`` is a live collector or
        ``None``; ``dispatcher`` is the chip's CTA dispatcher, which
        this SM asks for its next CTA.

        Raises:
            repro.sm.cta_scheduler.LaunchError: If no CTA fits the
                partition.
        """
        self.index = index
        self.scheduler = CTAScheduler(kernel, partition, thread_target, dispatcher, index)
        self.banks = make_bank_model(partition, cluster_port=cfg.cluster_port_banks)
        # The unified allocator can leave any remainder as cache; model the
        # whole sets and keep the dropped bytes visible in cache.slack_bytes.
        self.cache = DataCache(
            partition.cache_bytes,
            assoc=cfg.cache_assoc,
            line_bytes=cfg.cache_line_bytes,
            misaligned="floor",
        )
        self.dram = dram
        #: None = legacy blocking miss model (the golden-fixture default).
        self.mshr = cfg.make_mshr_file()
        self.obs = obs
        self.issued_until = 0.0
        self.mem_port_free = 0.0
        self.instructions = 0
        self.conflict_cycles = 0
        self.hist = [0, 0, 0, 0, 0]
        self.arb_total = 0
        self.mrf_reads = 0
        self.mrf_writes = 0
        self.orf_reads = 0
        self.orf_writes = 0
        self.lrf_reads = 0
        self.lrf_writes = 0
        self.shared_row_reads = 0
        self.shared_row_writes = 0
        self.cache_row_reads = 0
        self.cache_row_writes = 0
        self.tag_lookups = 0
        self.warp_serial = 0
        self.live_ctas = 0

    def end_cycle(self) -> float:
        """When this SM went idle: issue, memory pipe, and its last DRAM."""
        return max(self.issued_until, self.mem_port_free, self.dram.free_at)

    def result(self, finish_at: float) -> SimResult:
        """This core's :class:`SimResult` after a loop has drained it.

        Merges the run counters into the bank model's histogram (which
        the reference loop's ``access()`` calls fill directly) and the
        energy counts.  A live collector closes its books at
        ``finish_at``: the core's own end cycle single-SM, the chip
        makespan at chip scope (so per-SM stall attribution conserves
        against chip time).
        """
        scheduler = self.scheduler
        if scheduler.remaining:
            raise SimulationError(f"{scheduler.remaining} CTAs were never launched")
        if self.live_ctas:
            raise SimulationError(
                f"{self.live_ctas} CTAs never finished on SM {self.index}"
            )
        kernel = scheduler.kernel
        banks = self.banks
        dram = self.dram
        h = banks.histogram
        h.at_most_1 += self.hist[0]
        h.exactly_2 += self.hist[1]
        h.exactly_3 += self.hist[2]
        h.exactly_4 += self.hist[3]
        h.over_4 += self.hist[4]
        if self.arb_total:
            banks.arbitration_conflicts += self.arb_total
        counts = EnergyCounts(
            mrf_reads=self.mrf_reads,
            mrf_writes=self.mrf_writes,
            orf_reads=self.orf_reads,
            orf_writes=self.orf_writes,
            lrf_reads=self.lrf_reads,
            lrf_writes=self.lrf_writes,
            shared_row_reads=self.shared_row_reads,
            shared_row_writes=self.shared_row_writes,
            cache_row_reads=self.cache_row_reads,
            cache_row_writes=self.cache_row_writes,
            tag_lookups=self.tag_lookups,
            dram_bits=dram.bits_transferred,
        )
        stall_cycles: dict[str, float] = {}
        if self.obs is not None:
            self.obs.finish(finish_at)
            stall_cycles = self.obs.stall_totals()
        notes: dict = {}
        if self.mshr is not None:
            memsys = {"mshr": self.mshr.stats()}
            if getattr(dram, "row_hits", None) is not None:
                # A private channel keeps its own row-buffer counters; a
                # shared-system port does not (the chip result carries the
                # system-wide counters instead).
                memsys["dram_row_hits"] = dram.row_hits
                memsys["dram_row_misses"] = dram.row_misses
            notes["memsys"] = memsys
        return SimResult(
            kernel=kernel.name,
            partition=scheduler.partition,
            cycles=self.end_cycle(),
            instructions=self.instructions,
            resident_ctas=scheduler.max_concurrent,
            resident_threads=scheduler.limits.resident_threads,
            regs_per_thread=kernel.regs_per_thread,
            bank_conflict_cycles=self.conflict_cycles,
            conflict_histogram=banks.histogram,
            cache_stats=self.cache.stats,
            dram_accesses=dram.accesses,
            dram_bytes=dram.bytes_transferred,
            energy_counts=counts,
            limiting_resource=scheduler.limits.limiting_resource,
            stall_cycles=stall_cycles,
            notes=notes,
        )


@dataclass(slots=True)
class _EventWarp:
    """A resident warp in the event loop, and the core it executes on."""

    ops: list[CompiledOp]
    cta: ResidentCTA
    core: SMCore
    pc: int = 0
    #: Architectural register -> cycle its pending write completes.
    pending: dict[int, float] = field(default_factory=dict)
    #: Warp id, unique within its core (observability track key).
    wid: int = 0

    def next_ready(self, now: float) -> float:
        """Earliest cycle the next instruction's operands are available."""
        op = self.ops[self.pc]
        ready = now
        pending = self.pending
        if pending:
            # RAW hazards only: writes drain in program order through the
            # in-order pipeline, so WAW to a recycled register is safe.
            for r in op.srcs:
                t = pending.get(r)
                if t is not None and t > ready:
                    ready = t
        return ready


def fill_cores(cores: list[SMCore], spawn_cta) -> None:
    """Initial CTA fill, breadth-first across cores.

    SM 0 gets the first CTA, SM 1 the next, ... then around again until
    every core is at its residency limit or the grid drains.  With one
    core this is the sequential fill CTA 0, 1, 2, ... up to
    ``max_concurrent``.
    """
    progress = True
    while progress:
        progress = False
        for core in cores:
            if core.live_ctas < core.scheduler.max_concurrent and spawn_cta(core, 0.0):
                core.live_ctas += 1
                progress = True


def run_event(
    kernel: CompiledKernel, cfg: SMConfig, cores: list[SMCore], chip_obs=None
) -> None:
    """Run a kernel launch to completion on the per-op event loop.

    One heap of ``(ready_cycle, seq, warp)`` interleaves the warps of
    every core by readiness (``seq`` keeps FIFO order among ties), so
    cores advance together in simulated time and their DRAM requests
    reach a shared system in arrival order.  ``chip_obs`` is a live
    :class:`~repro.obs.chip.ChipCollector` whose dispatcher tap sees
    every CTA hand-out and retirement.
    """
    line_bytes = cfg.cache_line_bytes

    heap: list[tuple[float, int, _EventWarp]] = []
    seq = 0  # also advanced inline by the hot loop below

    def push(w: _EventWarp, now: float) -> None:
        nonlocal seq
        heapq.heappush(heap, (w.next_ready(now), seq, w))
        seq += 1

    def spawn_cta(core: SMCore, now: float) -> bool:
        resident = core.scheduler.launch_next()
        if resident is None:
            return False
        obs = core.obs
        if obs is not None:
            obs.cta_launch(resident.index, now, len(resident.cta.warps))
        if chip_obs is not None:
            chip_obs.cta_dispatch(
                resident.index, core.index, now, core.scheduler.remaining
            )
        for wi, cw in enumerate(resident.cta.warps):
            w = _EventWarp(ops=cw.ops, cta=resident, core=core, wid=core.warp_serial)
            core.warp_serial += 1
            if obs is not None:
                obs.spawn(w.wid, resident.index, wi, now)
            push(w, now)
        return True

    fill_cores(cores, spawn_cta)

    # Hoisted bound methods / config scalars.  The shared-memory / cache
    # pipeline (``core.mem_port_free``) lets bank-conflicted accesses
    # serialise without blocking instruction issue for other warps
    # (register-bank conflicts, by contrast, stall operand fetch and
    # therefore the issue port itself).
    heappush = heapq.heappush
    heappop = heapq.heappop
    latency_of = {
        OpClass.ALU: cfg.alu_latency,
        OpClass.SFU: cfg.sfu_latency,
        OpClass.TEX: cfg.tex_latency,
    }
    shared_latency = cfg.shared_latency
    hit_latency = cfg.cache_hit_latency
    txn_bytes = cfg.dram_transaction_bytes
    desch_lat = cfg.deschedule_latency
    desch_thr = cfg.deschedule_threshold
    barrier_latency = cfg.barrier_latency

    while heap:
        ready, _, w = heappop(heap)
        core = w.core
        t = ready if ready > core.issued_until else core.issued_until
        pc = w.pc
        op = w.ops[pc]
        op_class = op.op
        core.instructions += 1
        obs = core.obs
        lat = latency_of.get(op_class)

        if lat is not None:
            # ALU/SFU/TEX: register-bank conflicts stall operand fetch,
            # and with it the issue port.
            penalty = core.banks.access(op).penalty
            issue_done = t + 1 + penalty
            completion = issue_done + lat
        elif op_class is OpClass.BARRIER:
            cta = w.cta
            cta.barrier_count += 1
            w.pc = pc + 1
            core.issued_until = t + 1
            if obs is not None:
                obs.issue(w.wid, "BARRIER", op.srcs, ready, t, t + 1)
            if cta.barrier_count == cta.warps_outstanding:
                cta.barrier_count = 0
                waiting = cta.waiting_warps
                cta.waiting_warps = []
                release = t + 1 + barrier_latency
                for other in (*waiting, w):
                    if obs is not None:
                        obs.resume(other.wid, release, CAUSE_BARRIER)
                    if other.pc < len(other.ops):
                        push(other, release)
                    else:
                        cta.warps_outstanding -= 1
                        # A warp whose last instruction is a barrier.
                        if obs is not None:
                            obs.complete(other.wid, release)
                if cta.warps_outstanding == 0:
                    core.scheduler.retire(cta)
                    if obs is not None:
                        obs.cta_retire(cta.index, release)
                    if chip_obs is not None:
                        chip_obs.cta_retire(cta.index, core.index, release)
                    core.live_ctas -= 1
                    if spawn_cta(core, release):
                        core.live_ctas += 1
            else:
                cta.waiting_warps.append(w)
            continue
        elif not op_class.is_memory:
            raise ValueError(f"op class {op_class!r} cannot be timed by the SM simulator")
        else:
            # Memory instructions issue in one cycle; bank conflicts
            # serialise in the memory pipeline (other warps keep issuing).
            issue_done = t + 1
            wb_cause = CAUSE_RAW  # latency class of the writeback (obs)
            mshr_wait = 0.0  # cycles this op stalled for a free MSHR entry
            if op_class.space is MemSpace.SHARED:
                access = core.banks.access(op, w.cta.shared_base)
                penalty = access.penalty
                if op_class.is_load:
                    core.shared_row_reads += access.data_row_accesses
                else:
                    core.shared_row_writes += access.data_row_accesses
                mem_port_free = core.mem_port_free
                port_start = issue_done if issue_done > mem_port_free else mem_port_free
                data_ready = port_start + penalty
                core.mem_port_free = port_start + 1 + penalty
                completion = data_ready + shared_latency
            else:  # global / local through the cache
                segments = coalesce_lines(op.addrs, line_bytes)
                access = core.banks.access(op, segments=segments)
                penalty = access.penalty
                cache = core.cache
                cache_enabled = cache.enabled
                if cache_enabled:
                    # A 0 KB cache has no tag array, so a disabled cache
                    # must not accrue tag-lookup energy.
                    core.tag_lookups += len(segments)
                mem_port_free = core.mem_port_free
                port_start = issue_done if issue_done > mem_port_free else mem_port_free
                data_ready = port_start + penalty
                core.mem_port_free = port_start + 1 + penalty
                dram_request = core.dram.request
                if op_class.is_load:
                    completion = data_ready
                    if cache_enabled:
                        core.cache_row_reads += access.data_row_accesses
                        cache_read = cache.read_line
                        mshr = core.mshr
                        if mshr is not None:
                            # Non-blocking memory system: a primary miss
                            # allocates an MSHR entry and an addressed
                            # line fill; a secondary miss to an in-flight
                            # line merges into its outstanding fill with
                            # no extra DRAM traffic; a full file stalls
                            # the LSU until the earliest fill retires.
                            cur = data_ready
                            for seg in segments:
                                hit = cache_read(seg)
                                if obs is not None:
                                    obs.cache_access(cur, hit)
                                fill = mshr.outstanding(seg, cur)
                                if fill is not None:
                                    # The tag was installed by the
                                    # primary miss, so the probe "hits";
                                    # the data arrives with the fill.
                                    mshr.secondary_merges += 1
                                    wb_cause = CAUSE_MEMORY
                                    done = fill
                                elif hit:
                                    done = cur + hit_latency
                                else:
                                    free = mshr.entry_free_at(cur)
                                    if free > cur:
                                        mshr.full_stalls += 1
                                        mshr.full_stall_cycles += free - cur
                                        mshr_wait += free - cur
                                        cur = free
                                    done = dram_request(cur, line_bytes, seg)
                                    mshr.allocate(seg, done, cur)
                                    wb_cause = CAUSE_MEMORY
                                if done > completion:
                                    completion = done
                            if cur > core.mem_port_free:
                                # An LSU that cannot allocate an entry
                                # blocks the memory pipeline (structural
                                # back-pressure); this also keeps the
                                # DRAM request stream time-ordered.
                                core.mem_port_free = cur
                        else:
                            for seg in segments:
                                hit = cache_read(seg)
                                if hit:
                                    done = data_ready + hit_latency
                                else:
                                    done = dram_request(data_ready, line_bytes)
                                    wb_cause = CAUSE_MEMORY
                                if obs is not None:
                                    obs.cache_access(data_ready, hit)
                                if done > completion:
                                    completion = done
                    else:
                        wb_cause = CAUSE_MEMORY
                        for _ in coalesce_sectors(op.addrs):
                            done = dram_request(data_ready, txn_bytes)
                            if done > completion:
                                completion = done
                else:  # store: write-through, no-allocate, fire-and-forget
                    completion = None
                    if cache_enabled:
                        core.cache_row_writes += access.data_row_accesses
                        for seg in segments:
                            hit = cache.write_line(seg)
                            if obs is not None:
                                obs.cache_access(data_ready, hit)
                        # With a cache in front, the memory controller
                        # combines write-through traffic into per-line
                        # bursts: one DRAM access per touched line.
                        bursts = sectors_per_line(op.addrs, line_bytes)
                        if core.mshr is not None:
                            # Non-blocking mode addresses the bursts so
                            # the DRAM row-buffer decode sees them.
                            for seg, nsect in zip(segments, bursts):
                                dram_request(data_ready, nsect * txn_bytes, seg)
                        else:
                            for nsect in bursts:
                                dram_request(data_ready, nsect * txn_bytes)
                    else:
                        for _ in coalesce_sectors(op.addrs):
                            dram_request(data_ready, txn_bytes)

        # ---- register file traffic -------------------------------------
        core.mrf_reads += len(op.mrf_reads)
        core.mrf_writes += len(op.mrf_writes)
        core.orf_reads += op.orf_reads
        core.orf_writes += op.orf_writes
        core.lrf_reads += op.lrf_reads
        core.lrf_writes += op.lrf_writes

        # ---- issue/penalty accounting -----------------------------------
        core.conflict_cycles += penalty
        core.issued_until = issue_done
        if op.dst is not None:
            if completion is None or completion < issue_done:
                completion = issue_done  # a result is never early-forwarded
            w.pending[op.dst] = completion
        if obs is not None:
            # issue() reads the *old* pending entries for dependency
            # attribution, so it runs before writeback() (dst may appear
            # in srcs).
            obs.issue(w.wid, op_class.name, op.srcs, ready, t, issue_done)
            if op.dst is not None:
                if lat is not None:
                    cause = CAUSE_MEMORY if op_class is OpClass.TEX else CAUSE_RAW
                    obs.writeback(w.wid, op.dst, completion, cause, 0.0)
                else:
                    # Memory-pipeline serialisation folded into this
                    # op's latency: LSU-port queueing + bank conflicts.
                    wb_conflict = (port_start - issue_done) + penalty
                    obs.writeback(
                        w.wid, op.dst, completion, wb_cause, wb_conflict, mshr_wait
                    )

        # ---- advance warp ------------------------------------------------
        pc += 1
        w.pc = pc
        ops_w = w.ops
        if pc < len(ops_w):
            # Inlined _EventWarp.next_ready plus the two-level scheduler
            # runtime model (ref [8]): a warp stalling past the threshold
            # is descheduled and pays a reactivation latency when its
            # dependence resolves.
            nr = issue_done
            pending = w.pending
            if pending:
                for r in ops_w[pc].srcs:
                    t2 = pending.get(r)
                    if t2 is not None and t2 > nr:
                        nr = t2
            if desch_lat and nr - issue_done > desch_thr:
                heappush(heap, (nr + desch_lat, seq, w))
            else:
                heappush(heap, (nr, seq, w))
            seq += 1
            continue
        if obs is not None:
            obs.complete(w.wid, issue_done)
        cta = w.cta
        cta.warps_outstanding -= 1
        if cta.warps_outstanding == 0:
            if cta.waiting_warps:
                raise SimulationError(
                    f"CTA {cta.index} finished with warps still at a barrier"
                )
            core.scheduler.retire(cta)
            if obs is not None:
                obs.cta_retire(cta.index, issue_done)
            if chip_obs is not None:
                chip_obs.cta_retire(cta.index, core.index, issue_done)
            core.live_ctas -= 1
            if spawn_cta(core, issue_done):
                core.live_ctas += 1

"""Columnar replay: the simulation loop.

The reference event loop (:func:`repro.sm.core.run_event`) visits one
op per heap pop, re-deriving dispatch, bank outcomes, dependences, and
a dozen counters from Python object graphs each time; this loop
*replays* the columnar warp programs built by
:mod:`repro.compiler.columnar`.  Each dynamic instruction costs one
fused-row unpack, a few float adds, and (for memory ops) the
cache/DRAM/MSHR calls that are the model itself.
Counters never appear in the hot loop -- they were summed per warp at
lowering time and each warp's are added once, when its CTA spawns.
Warps also execute in **run batches**: a popped warp keeps stepping
inline while its next ready time stays strictly below the earliest
other heap entry, so dependence-limited phases skip heap traffic
entirely.

Bit-identity with the reference loop follows from three facts:

* **Batching is a no-op.** After the event engine processes an op at
  time ``t`` it pushes the warp back keyed ``nr`` with a sequence
  number larger than every other heap entry's, so the warp pops next
  iff ``nr`` is *strictly* below the minimum other key -- in which
  case the pop returns exactly ``(nr, w)`` and nothing else ran in
  between.  Replaying those ops inline under ``nr < limit`` (where
  ``limit`` is the heap minimum after the pop, which nothing can
  change during the run) performs the same state updates in the same
  order on the same timestamps.
* **The dependency columns are the pending dict.** The event engine's
  ``pending`` maps a register to its last writer's completion; the
  compiled per-op ``deps`` are that last-writer relation, and
  ``comp[pc]`` stores exactly the value ``pending[dst]`` would have
  held (stores clamp to issue time, loads to data arrival).
* **Static totals are order-independent.** Every counter the event
  loop bumps per op (RF traffic, histogram buckets, conflict cycles,
  row/tag energy, arbitration) is a pure sum over the warp's plans
  and bank-memo outcomes, so adding the precomputed warp total at
  spawn yields the same number as accumulating per op.

All time quantities are integer-valued floats well below 2**53 under
every supported config, so float addition here is exact and replaying
the same additions in the same order reproduces bit-equal cycles.

:func:`run_columnar` is the one frame both :func:`repro.sm.simulate`
(one core) and :func:`repro.chip.simulate_chip` (N cores) run, observed
or not.  It holds the current core's issue clock, memory port, inlined
model counters and collector in locals and swaps them only when the
popped warp belongs to another core.  Observability is the
:class:`~repro.obs.Collector`'s own hooks, fired at the reference
loop's call sites with the same arguments and in the same order, each
behind the current core's collector (or the chip collector) being
set; a core with no collector calls nothing.  Stall attribution,
interval metrics and trace payloads are therefore byte-identical to
the reference loop's -- enforced by
``tests/obs/test_replay_observability.py``.
"""

from __future__ import annotations

import heapq

from repro.compiler.columnar import N_TOTALS, cta_plan
from repro.compiler.compiled import CompiledKernel
from repro.isa.opcodes import OpClass
from repro.memory.dram import DRAMChannel
from repro.obs.collector import CAUSE_BARRIER, CAUSE_MEMORY, CAUSE_RAW
from repro.sm.config import SMConfig
from repro.sm.core import SMCore, SimulationError, fill_cores


class _ColWarp:
    """Replay state of one warp: fused rows, completions, position."""

    __slots__ = ("rows", "comp", "cta", "pc", "n_ops", "wid", "ops")

    def __init__(self, prog, cta, wid: int) -> None:
        self.rows = prog.rows
        #: Completion cycle per op (the event engine's pending dict,
        #: indexed by producing pc instead of destination register).
        self.comp = [0.0] * prog.n_ops
        self.cta = cta
        self.pc = 0
        self.n_ops = prog.n_ops
        #: Warp id, unique within its core (the collector's track key).
        self.wid = wid
        #: The shape's ``(op class, dst, srcs)`` per op, which the
        #: collector hooks take.
        self.ops = prog.shape.arch_shape


def _release_key(w: _ColWarp, release: float) -> float:
    """Heap key of a barrier-released warp: the event engine re-keys
    through ``next_ready``, so an in-flight load still gates issue."""
    key = release
    comp = w.comp
    for d in w.rows[w.pc][4]:
        c = comp[d]
        if c > key:
            key = c
    return key


def _fold_totals(core, spawned: list) -> None:
    """Sum the spawn-time static totals of a core's warps into its counters.

    ``spawned`` holds every spawned warp's totals end to end, so each
    counter is a strided slice; transposing per-warp tuples with ``zip``
    would allocate an iterator per warp and trigger garbage collections.
    """
    totals = [sum(spawned[i::N_TOTALS]) for i in range(N_TOTALS)]
    (
        core.instructions,
        core.conflict_cycles,
        core.arb_total,
        h0,
        h1,
        h2,
        h3,
        h4,
        core.mrf_reads,
        core.mrf_writes,
        core.orf_reads,
        core.orf_writes,
        core.lrf_reads,
        core.lrf_writes,
        core.shared_row_reads,
        core.shared_row_writes,
        core.cache_row_reads,
        core.cache_row_writes,
        core.tag_lookups,
    ) = totals
    core.hist = [h0, h1, h2, h3, h4]


def _plain_handles(core: SMCore, line_bytes: int, txn_bytes: int) -> tuple:
    """One core's fixed handles, unpacked at :func:`run_columnar`'s swap site.

    ``(collector, cache sets, cache stats, DRAM port, its request
    method, fast_dram, DRAM latency, bytes per cycle, line and
    transaction service times, MSHR file, its outstanding /
    entry_free_at / allocate methods)``.  ``fast_dram`` marks a private
    flat-FCFS channel whose arithmetic the frame inlines; ``mshr is
    None`` is part of it to keep mixed accounting out: the MSHR branches
    route fills through ``dram.request`` (which bumps the model's own
    counters), and the write-back would clobber those.  A core with a
    collector, or an observed channel, keeps the model call: DRAM
    transfers must reach their observers, and only the arms that call
    the model fire the collector's cache-load hooks.
    """
    dram = core.dram
    mshr = core.mshr
    fast_dram = (
        mshr is None
        and type(dram) is DRAMChannel
        and not dram._banked
        and dram.observer is None
        and core.obs is None
    )
    if fast_dram:
        bpc = dram.bytes_per_cycle
        # Fixed-size transfers always divide the same operands, so the
        # quotients are loop invariants (same division, same bits).
        dram_consts = (float(dram.latency), bpc, line_bytes / bpc, txn_bytes / bpc)
    else:
        # Placeholders; the slow branches never read these, and shared
        # DRAMSystem ports don't expose the channel-only attributes.
        dram_consts = (0.0, 1.0, 1.0, 1.0)
    if mshr is not None:
        mshr_calls = (mshr.outstanding, mshr.entry_free_at, mshr.allocate)
    else:
        mshr_calls = (None, None, None)
    return (
        core.obs, core.cache._sets, core.cache.stats, dram, dram.request, fast_dram,
        *dram_consts, mshr, *mshr_calls,
    )


def run_columnar(
    kernel: CompiledKernel, cfg: SMConfig, cores: list[SMCore], chip_obs=None
) -> None:
    """Run a kernel launch to completion on the columnar replay loop.

    One global heap of ``(ready, seq, warp, pc, rows, comp, core)``
    entries keyed exactly as :func:`repro.sm.core.run_event` keys them;
    each popped warp replays while its next ready time stays strictly
    below the earliest other entry, so the issue order is unchanged.
    Each spawned warp's static totals are folded into its core's
    counters once at the end.

    Every warp steps in this one frame, so a pop costs no Python call.
    The *current* core's issue clock, memory port, collector, and
    inlined cache and DRAM counters are plain locals.  When the popped
    warp belongs to another core, the swap site writes them back into
    the outgoing core's :class:`SMCore` and model objects (the
    write-back every run ends with), then loads the incoming core's and
    unpacks its fixed handles -- collector, cache sets and stats, DRAM
    port, fast-DRAM quotients, MSHR file -- from one tuple per core.
    Every warp of a one-core run belongs to the current core, so it
    never swaps.

    A live collector sees the reference loop's hook calls: the CTA
    choreography fires ``cta_launch`` / ``spawn`` / ``resume`` /
    ``complete`` / ``cta_retire`` on the core's collector and
    ``cta_dispatch`` / ``cta_retire`` on ``chip_obs``; each op fires
    ``issue`` then ``writeback`` after its modelling, and each cached
    global line probe fires ``cache_access``.  DRAM windows reach the
    collectors through the channel observers wired at core
    construction, during the model call.
    """
    barrier_latency = cfg.barrier_latency
    hit_latency = float(cfg.cache_hit_latency)
    line_bytes = cfg.cache_line_bytes
    txn_bytes = cfg.dram_transaction_bytes
    desch_lat = cfg.deschedule_latency
    desch_thr = cfg.deschedule_threshold if desch_lat else float("inf")
    # Every SM of a chip runs one partition under one config, so cache
    # geometry, whether a cache fronts global memory, and the bank-model
    # class (all a CTA plan depends on besides the CTA) are chip-wide.
    cache = cores[0].cache
    num_sets = cache.num_sets
    cache_assoc = cache.assoc
    cache_enabled = cache.enabled
    TEX = OpClass.TEX

    # ---- inlined model fast paths -----------------------------------
    # The cache probe (dict hit + LRU touch) and the unbanked DRAM bus
    # arithmetic (two adds and a division) are a fraction of the cost
    # of calling into the model objects, so the frame keeps both as
    # local state and replays *the same arithmetic in the same order*
    # -- bit-identical by construction -- writing the counters back at
    # the swap site.  Banked or observed DRAM channels keep the model
    # call (row-buffer state stays where it lives); the cache is always
    # a plain DataCache here and is always inlined.
    fixed = [_plain_handles(core, line_bytes, txn_bytes) for core in cores]

    INF = float("inf")
    # The heap always holds an infinite-key sentinel, so the hot loop
    # peeks ``heap[0][0]`` without an emptiness guard.  It belongs to no
    # core: popping it reaches the swap site, which writes the last
    # core's locals back, and ends the loop.
    heap: list = [(INF, 0, None, 0, (), None, None)]
    heappush = heapq.heappush
    heappop = heapq.heappop
    heappushpop = heapq.heappushpop
    seq = 0
    # Static totals: each spawned warp's laid end to end in its core's
    # list, summed per counter once at the end.
    spawned: list[list] = [[] for _ in cores]

    def spawn_cta(core: SMCore, now: float) -> bool:
        nonlocal seq
        resident = core.scheduler.launch_next()
        if resident is None:
            return False
        progs = cta_plan(
            kernel, core.banks, resident.shared_base, cfg, cache_enabled, resident.index
        )
        add_totals = spawned[core.index].extend
        obs = core.obs
        if obs is not None:
            obs.cta_launch(resident.index, now, len(progs))
        if chip_obs is not None:
            chip_obs.cta_dispatch(
                resident.index, core.index, now, core.scheduler.remaining
            )
        for wi, prog in enumerate(progs):
            w = _ColWarp(prog, resident, core.warp_serial)
            core.warp_serial += 1
            if obs is not None:
                obs.spawn(w.wid, resident.index, wi, now)
            heappush(heap, (now, seq, w, 0, w.rows, w.comp, core))
            seq += 1
            add_totals(prog.totals)
        return True

    fill_cores(cores, spawn_cta)

    # Nothing but an MSHR arm ever grows a load's MSHR wait, so a
    # blocking run hands the collector this 0.0 throughout.
    mshr_wait = 0.0
    # A grid always launches a warp (a CTA that fits nowhere raises when
    # its core is built), so the first pop loads a core.
    core = None
    ready, _, w, pc, rows, comp, wcore = heappop(heap)
    while True:
        if wcore is not core:
            # ---- swap site: the popped warp runs on another core -----
            if core is not None:
                core.issued_until = issued_until
                core.mem_port_free = mem_port_free
                stats.read_hits = c_rhit
                stats.read_misses = c_rmiss
                stats.write_hits = c_whit
                stats.write_misses = c_wmiss
                if fast_dram:
                    dram.free_at = dram_free
                    dram.accesses = dram_acc
                    dram.bytes_transferred = dram_xfer
                    dram.busy_cycles = dram_busy
                    dram._last_request_time = dram_last
            if w is None:  # sentinel popped: no runnable warp left
                break
            core = wcore
            (
                obs, cache_sets, stats, dram, dram_request, fast_dram,
                dram_lat, dram_bpc, line_service, txn_service,
                mshr, mshr_outstanding, mshr_entry_free, mshr_allocate,
            ) = fixed[core.index]
            issued_until = core.issued_until
            mem_port_free = core.mem_port_free
            c_rhit = stats.read_hits
            c_rmiss = stats.read_misses
            c_whit = stats.write_hits
            c_wmiss = stats.write_misses
            if fast_dram:
                dram_free = dram.free_at
                dram_acc = dram.accesses
                dram_xfer = dram.bytes_transferred
                dram_busy = dram.busy_cycles
                dram_last = dram._last_request_time
        limit = heap[0][0]
        t = ready if ready > issued_until else issued_until
        kind, a, b, aux, deps = rows[pc]
        # ---- warp run.  A yield swaps in the earliest heap entry
        # without leaving this loop unless that warp runs on another
        # core; heap entries carry (key, seq, warp, pc, rows, comp,
        # core) so a pop resumes with plain unpacks instead of attribute
        # loads.  The warp object's own ``pc`` is only synchronised at
        # barriers, the one consumer that inspects a parked warp.
        while True:
            if kind == 0:  # ALU / SFU / TEX
                issue_done = t + a
                comp[pc] = t + b
            elif kind != 6:  # memory: one issue cycle, conflicts
                # serialise in the pipeline behind the single LSU port
                issue_done = t + 1.0
                port_start = (
                    issue_done if issue_done > mem_port_free
                    else mem_port_free
                )
                if kind == 1:  # shared load / store
                    mem_port_free = port_start + a
                    comp[pc] = port_start + b
                else:
                    data_ready = port_start + a
                    mem_port_free = port_start + b
                    if kind == 2:  # global/local load through the cache
                        completion = data_ready
                        if mshr is None:  # legacy blocking miss model
                            wb_cause = CAUSE_RAW
                            for li in aux[1]:
                                ss = cache_sets[li % num_sets]
                                if li in ss:
                                    ss.move_to_end(li)
                                    c_rhit += 1
                                    done = data_ready + hit_latency
                                    if obs is not None:
                                        obs.cache_access(data_ready, True)
                                else:
                                    c_rmiss += 1
                                    if len(ss) >= cache_assoc:
                                        ss.popitem(last=False)
                                    ss[li] = None
                                    if fast_dram:
                                        start = (
                                            data_ready if data_ready > dram_free
                                            else dram_free
                                        )
                                        dram_free = start + line_service
                                        dram_acc += 1
                                        dram_xfer += line_bytes
                                        dram_busy += line_service
                                        dram_last = data_ready
                                        done = start + dram_lat + line_service
                                    else:  # banked/observed DRAM: the call
                                        done = dram_request(data_ready, line_bytes)
                                    wb_cause = CAUSE_MEMORY
                                    if obs is not None:
                                        obs.cache_access(data_ready, False)
                                if done > completion:
                                    completion = done
                        else:  # non-blocking: merge secondaries, stall
                            # on a full file, address the fills
                            wb_cause = CAUSE_RAW
                            mshr_wait = 0.0
                            cur = data_ready
                            for seg in aux[0]:
                                li = seg // line_bytes
                                ss = cache_sets[li % num_sets]
                                if li in ss:
                                    ss.move_to_end(li)
                                    c_rhit += 1
                                    hit = True
                                else:
                                    c_rmiss += 1
                                    if len(ss) >= cache_assoc:
                                        ss.popitem(last=False)
                                    ss[li] = None
                                    hit = False
                                if obs is not None:
                                    obs.cache_access(cur, hit)
                                fill = mshr_outstanding(seg, cur)
                                if fill is not None:
                                    mshr.secondary_merges += 1
                                    wb_cause = CAUSE_MEMORY
                                    done = fill
                                elif hit:
                                    done = cur + hit_latency
                                else:
                                    free = mshr_entry_free(cur)
                                    if free > cur:
                                        mshr.full_stalls += 1
                                        mshr.full_stall_cycles += free - cur
                                        mshr_wait += free - cur
                                        cur = free
                                    done = dram_request(cur, line_bytes, seg)
                                    mshr_allocate(seg, done, cur)
                                    wb_cause = CAUSE_MEMORY
                                if done > completion:
                                    completion = done
                            if cur > mem_port_free:
                                mem_port_free = cur
                        comp[pc] = completion
                    elif kind == 3:  # uncached load: per-sector DRAM
                        completion = data_ready
                        if fast_dram:
                            for _ in range(aux):
                                start = (
                                    data_ready if data_ready > dram_free
                                    else dram_free
                                )
                                dram_free = start + txn_service
                                dram_acc += 1
                                dram_xfer += txn_bytes
                                dram_busy += txn_service
                                done = start + dram_lat + txn_service
                                if done > completion:
                                    completion = done
                            dram_last = data_ready
                        else:
                            for _ in range(aux):
                                done = dram_request(data_ready, txn_bytes)
                                if done > completion:
                                    completion = done
                        comp[pc] = completion
                    elif kind == 4:  # cached store: a write-through burst
                        # per line, its sectors times the transaction size
                        for li in aux[1]:
                            ss = cache_sets[li % num_sets]
                            if li in ss:
                                ss.move_to_end(li)
                                c_whit += 1
                                if obs is not None:
                                    obs.cache_access(data_ready, True)
                            else:
                                c_wmiss += 1
                                if obs is not None:
                                    obs.cache_access(data_ready, False)
                        if fast_dram:
                            for ns in aux[2]:
                                start = (
                                    data_ready if data_ready > dram_free
                                    else dram_free
                                )
                                nb = ns * txn_bytes
                                service = nb / dram_bpc
                                dram_free = start + service
                                dram_acc += 1
                                dram_xfer += nb
                                dram_busy += service
                            dram_last = data_ready
                        elif mshr is None:
                            for ns in aux[2]:
                                dram_request(data_ready, ns * txn_bytes)
                        else:
                            for seg, ns in zip(aux[0], aux[2]):
                                dram_request(data_ready, ns * txn_bytes, seg)
                        comp[pc] = issue_done
                    else:  # kind == 5, uncached store
                        if fast_dram:
                            for _ in range(aux):
                                start = (
                                    data_ready if data_ready > dram_free
                                    else dram_free
                                )
                                dram_free = start + txn_service
                                dram_acc += 1
                                dram_xfer += txn_bytes
                                dram_busy += txn_service
                            dram_last = data_ready
                        else:
                            for _ in range(aux):
                                dram_request(data_ready, txn_bytes)
                        comp[pc] = issue_done
            else:  # BARRIER: hand over to CTA coordination below
                w.pc = pc + 1
                issued_until = t + 1.0
                if obs is not None:
                    obs.issue(w.wid, "BARRIER", w.ops[pc][2], ready, t, issued_until)
                code = 1
                break
            if obs is not None:
                # The reference loop's order: issue() reads the pending
                # writes before writeback() records this op's (its dst
                # may be among its srcs).
                op_class, dst, srcs = w.ops[pc]
                # ``_name_`` is the member's ``name`` without the enum
                # property lookup.
                obs.issue(w.wid, op_class._name_, srcs, ready, t, issue_done)
                if dst is not None:
                    if kind == 0:
                        obs.writeback(
                            w.wid, dst, comp[pc],
                            CAUSE_MEMORY if op_class is TEX else CAUSE_RAW, 0.0,
                        )
                    else:
                        # LSU-port queueing plus the bank penalty, which
                        # the shared row's ``a`` carries plus the port hold.
                        if kind == 1:
                            conflict = (port_start - issue_done) + (a - 1.0)
                        else:
                            conflict = (port_start - issue_done) + a
                        if kind != 2:
                            wb_cause = CAUSE_MEMORY if kind == 3 else CAUSE_RAW
                        obs.writeback(
                            w.wid, dst, comp[pc], wb_cause, conflict,
                            mshr_wait if kind == 2 else 0.0,
                        )
            pc += 1
            kind, a, b, aux, deps = rows[pc]
            nr = issue_done
            if deps:
                for d in deps:
                    c = comp[d]
                    if c > nr:
                        nr = c
            elif deps is None:  # R_END sentinel: warp retired
                issued_until = issue_done
                code = 2
                break
            if desch_lat and nr - issue_done > desch_thr:
                nr += desch_lat
            if nr < limit:
                # The warp would pop next anyway (strictly earliest
                # key; ties lose to older sequence numbers): keep
                # replaying inline, popped and granted at ``nr``.
                t = ready = nr
                continue
            # Yield: reinsert this warp keyed ``nr`` and continue with
            # whichever warp is now earliest -- one heap operation.
            issued_until = issue_done
            ready, _, w, pc, rows, comp, wcore = heappushpop(
                heap, (nr, seq, w, pc, rows, comp, core)
            )
            seq += 1
            if wcore is not core:
                code = 0
                break
            limit = heap[0][0]
            t = ready if ready > issued_until else issued_until
            kind, a, b, aux, deps = rows[pc]
        # ---- irregular outcomes: other core / retire / barrier ------
        if code == 0:  # the popped warp runs on another core: swap
            continue
        if code == 2:  # warp done at cycle ``issue_done``
            if obs is not None:
                obs.complete(w.wid, issue_done)
            cta = w.cta
            cta.warps_outstanding -= 1
            if cta.warps_outstanding == 0:
                if cta.waiting_warps:
                    raise SimulationError(
                        f"CTA {cta.index} finished with warps still at a "
                        "barrier"
                    )
                core.scheduler.retire(cta)
                if obs is not None:
                    obs.cta_retire(cta.index, issue_done)
                if chip_obs is not None:
                    chip_obs.cta_retire(cta.index, core.index, issue_done)
                core.live_ctas -= 1
                if spawn_cta(core, issue_done):
                    core.live_ctas += 1
        else:  # barrier arrival at cycle ``t``
            cta = w.cta
            cta.barrier_count += 1
            if cta.barrier_count == cta.warps_outstanding:
                cta.barrier_count = 0
                waiting = cta.waiting_warps
                cta.waiting_warps = []
                release = t + 1 + barrier_latency
                for other in (*waiting, w):
                    if obs is not None:
                        obs.resume(other.wid, release, CAUSE_BARRIER)
                    if other.pc < other.n_ops:
                        heappush(
                            heap,
                            (_release_key(other, release), seq, other,
                             other.pc, other.rows, other.comp, core),
                        )
                        seq += 1
                    else:
                        # A warp whose last instruction is a barrier.
                        cta.warps_outstanding -= 1
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
        ready, _, w, pc, rows, comp, wcore = heappop(heap)

    for core in cores:
        _fold_totals(core, spawned[core.index])

"""Columnar replay: the simulation loop.

The reference event loop (:func:`repro.sm.core.run_event`) visits one
op per heap pop, re-deriving dispatch, bank outcomes, dependences, and
a dozen counters from Python object graphs each time; this loop
*replays* the columnar warp programs built by
:mod:`repro.compiler.columnar`.  Each dynamic instruction costs one
fused-row unpack, a few float adds, and (for memory ops) the
cache/DRAM/MSHR calls that are the model itself.
Counters never appear in the hot loop -- they were summed per warp at
compile time and are added once at CTA spawn.  Warps also execute in
**run batches**: a popped warp keeps stepping inline while its next
ready time stays strictly below the earliest other heap entry, so
dependence-limited phases skip heap traffic entirely.

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

:func:`run_columnar` is the loop both :func:`repro.sm.simulate` (one
core) and :func:`repro.chip.simulate_chip` (N cores) run, in one of two
frames.  A launch that nothing observes runs :func:`_run_inlined`: one
frame for any number of cores, holding the current core's issue clock,
memory port, and inlined model counters in locals and swapping them
only when the popped warp belongs to another core.  Instrumented runs
(a live collector) replay too: each core steps its warps through a
:func:`make_warp_runner_obs` closure, the same arithmetic with the
collector's hooks fired at exactly the event loop's call sites and with
the same arguments, so stall attribution, interval metrics, and trace
payloads are byte-identical per cause -- the observability side of the
bit-identity contract, enforced by
``tests/obs/test_replay_observability.py``.  ``docs/architecture.md``
states which frame each simulation takes.
"""

from __future__ import annotations

import heapq

from repro.compiler.columnar import (
    CI_MEMORY,
    CI_RAW,
    N_TOTALS,
    _sig_table,
    cta_plan,
)
from repro.compiler.compiled import CompiledKernel
from repro.memory.dram import DRAMChannel
from repro.obs.collector import (
    CAUSE_BANK_CONFLICT,
    CAUSE_BARRIER,
    CAUSE_DESCHEDULE,
    CAUSE_ISSUE_PORT,
    CAUSE_MSHR_FULL,
    STALL_CAUSES,
    Collector,
)
from repro.obs.trace import PID_WARPS
from repro.sm.config import SMConfig
from repro.sm.core import SMCore, SimulationError, fill_cores

#: Runner outcome codes (see :func:`make_warp_runner_obs`).
YIELD = 0  # next op not ready before the heap's earliest other warp
BARRIER = 1  # hit a barrier; CTA-level coordination needed
DONE = 2  # warp retired


class _ColWarp:
    """Replay state of one warp: fused rows, completions, position."""

    __slots__ = (
        "rows", "comp", "cta", "pc", "n_ops", "core", "wid", "obs_rows",
        "ws", "wcaus", "wconf", "wmshr",
    )

    def __init__(self, prog, cta, core=None, wid=0, obs_rows=None) -> None:
        self.rows = prog.rows
        #: Completion cycle per op (the event engine's pending dict,
        #: indexed by producing pc instead of destination register).
        self.comp = [0.0] * prog.n_ops
        self.cta = cta
        self.pc = 0
        self.n_ops = prog.n_ops
        #: Owning SM core (:class:`~repro.sm.core.SMCore`), read by the
        #: instrumented loop; the plain frame carries the core in its
        #: heap entries and leaves it unset.
        self.core = core
        #: Instrumented-replay state, set only when ``obs_rows`` (the
        #: :meth:`~repro.compiler.columnar.ShapeLowering.obs_rows` pair)
        #: is given:
        #: run-unique warp id, per-op (name, prods, dst) columns, the
        #: collector's _WarpObs, and the per-pc writeback latency class
        #: -- cause index / conflict share / MSHR wait, the pc-indexed
        #: image of what ``Collector.writeback`` would have stored per
        #: destination register.  ALU rows never touch them (their
        #: static cause and zero shares are the initial values).
        self.wid = wid
        self.ws = None
        if obs_rows is not None:
            rows_o, causes = obs_rows
            self.obs_rows = rows_o
            self.wcaus = list(causes)
            self.wconf = [0.0] * prog.n_ops
            self.wmshr = [0.0] * prog.n_ops
        else:
            self.obs_rows = None


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


def make_warp_runner_obs(cfg: SMConfig, cache, dram, mshr, obs):
    """One core's instrumented warp runner: the plain frame's warp step
    (:func:`_run_inlined`) plus a collector.

    Returns ``(run, state)``: ``run(w, ready, limit)`` replays warp
    ``w`` from cycle ``max(ready, issued_until)`` while its ops stay
    strictly below ``limit``, returning ``(code, value)`` --
    ``(YIELD, heap_key)``, ``(BARRIER, arrival_cycle)`` with the pc
    already advanced past the barrier, or ``(DONE, last_issue)``.
    ``state()`` flushes the inlined cache counters back into the model
    and reports ``(issued_until, mem_port_free)``, the two clocks the
    event loop keeps per core.

    Identical timing arithmetic, with the :class:`~repro.obs.Collector`
    semantics *inlined* rather than called: the attribution expressions
    of ``Collector.issue`` / ``writeback`` / ``cache_access`` are
    replicated operation for operation (same operands, same order, same
    guards), evaluated against the collector's own ``_WarpObs`` state,
    so per-cause stall totals, interval metrics, and trace payloads are
    byte-identical to the event engine's while the per-op cost stays
    replay-grade.  ``tests/obs/test_replay_observability.py`` enforces
    the equivalence per stall cause; any edit to ``Collector`` must be
    mirrored here.

    Deltas against the plain frame:

    * No ``fast_dram`` arm: instrumented channels carry the collector's
      transfer observer, which routes every request through the model
      call anyway (that call is where DRAM trace slices originate, in
      the event engine's order: transfers fire during op modelling,
      before the op's own stall/issue slices).  A core attributing
      into a private collector makes the same call, whose arithmetic
      the fast path only mirrors.
    * The op's ``ready`` / grant time ``t`` pair feeds the attribution
      carve: for a popped warp they are the heap key and
      ``max(ready, issued_until)``; for a run-batched op both collapse
      to ``nr`` (the event engine would have pushed and immediately
      popped the warp keyed ``nr``, with ``issued_until`` equal to the
      previous ``issue_done <= nr``).
    * Writeback state lives in pc-indexed per-warp arrays instead of
      the collector's reg-keyed pending dict: ``comp`` already holds
      every producer's completion, and ``wcaus`` / ``wconf`` /
      ``wmshr`` hold its latency class -- initialised to the static
      per-op cause from :meth:`~repro.compiler.columnar.ShapeLowering.obs_rows`
      (RAW, or MEMORY for texture) with zero shares, written only on
      escalation, exactly as the event loop decides it: cache-missing
      or MSHR-merging loads and every uncached load become MEMORY;
      stores and shared ops stay RAW.  The memory-side conflict share
      is recovered from the fused columns (``penalty == a`` for global
      rows, ``a - 1.0`` for shared rows; both exact, the columns are
      float-converted integers).  The dependency scan walks the static
      producer pcs in operand order, so the strict-maximum tie-break
      matches the pending-dict scan entry for entry.

    Barrier arrivals attribute their issue before handing back, so the
    caller's CTA coordination only owes the ``resume`` / ``complete`` /
    CTA-lifetime hooks.
    """
    dram_request = dram.request
    hit_latency = float(cfg.cache_hit_latency)
    line_bytes = cfg.cache_line_bytes
    txn_bytes = cfg.dram_transaction_bytes
    desch_lat = cfg.deschedule_latency
    desch_thr = cfg.deschedule_threshold if desch_lat else float("inf")
    issued_until = 0.0
    mem_port_free = 0.0
    if mshr is not None:
        mshr_outstanding = mshr.outstanding
        mshr_entry_free = mshr.entry_free_at
        mshr_allocate = mshr.allocate

    # Inlined cache probe as in _run_inlined (same arithmetic, same
    # order); the hit/miss boolean doubles as the cache_access sample.
    cache_sets = cache._sets
    num_sets = cache.num_sets
    cache_assoc = cache.assoc
    stats = cache.stats
    c_rhit = stats.read_hits
    c_rmiss = stats.read_misses
    c_whit = stats.write_hits
    c_wmiss = stats.write_misses

    # Collector internals, hoisted.  cache_access only feeds the
    # sampler and issue's trace work only fires with a trace buffer, so
    # a plain profiling collector reduces both to a None check.
    sampler = obs.sampler
    trace = obs.trace
    samp_instr = sampler.add_instruction if sampler is not None else None
    samp_cache = sampler.add_cache_access if sampler is not None else None
    trace_slice = trace.slice if trace is not None else None
    CAUSES = STALL_CAUSES
    BANK = CAUSE_BANK_CONFLICT
    MSHRF = CAUSE_MSHR_FULL
    PORT = CAUSE_ISSUE_PORT
    DESCH = CAUSE_DESCHEDULE

    def sync():
        stats.read_hits = c_rhit
        stats.read_misses = c_rmiss
        stats.write_hits = c_whit
        stats.write_misses = c_wmiss

    def state():
        sync()
        return issued_until, mem_port_free

    def run(w: _ColWarp, ready: float, limit: float):
        nonlocal issued_until, mem_port_free
        nonlocal c_rhit, c_rmiss, c_whit, c_wmiss
        rows = w.rows
        orows = w.obs_rows
        comp = w.comp
        wid = w.wid
        ws = w.ws
        cursor = ws.cursor
        stalls = ws.stalls
        wcaus = w.wcaus
        wconf = w.wconf
        wmshr = w.wmshr
        pc = w.pc
        mpf = mem_port_free
        t = ready if ready > issued_until else issued_until
        kind, a, b, aux, deps = rows[pc]
        while True:
            name, prods, dst = orows[pc]
            if kind == 0:  # ALU / SFU / TEX
                issue_done = t + a
                completion = t + b
                comp[pc] = completion
            elif kind != 6:  # memory
                issue_done = t + 1.0
                port_start = issue_done if issue_done > mpf else mpf
                if kind == 1:  # shared load / store
                    mpf = port_start + a
                    completion = port_start + b
                    comp[pc] = completion
                    if dst is not None:
                        wconf[pc] = (port_start - issue_done) + (a - 1.0)
                else:
                    data_ready = port_start + a
                    mpf = port_start + b
                    if dst is not None:
                        wconf[pc] = (port_start - issue_done) + a
                    if kind == 2:  # global/local load through the cache
                        completion = data_ready
                        wb_ci = CI_RAW
                        if mshr is None:  # legacy blocking miss model
                            for li in aux[1]:
                                ss = cache_sets[li % num_sets]
                                if li in ss:
                                    ss.move_to_end(li)
                                    c_rhit += 1
                                    done = data_ready + hit_latency
                                    if samp_cache is not None:
                                        samp_cache(data_ready, True)
                                else:
                                    c_rmiss += 1
                                    if len(ss) >= cache_assoc:
                                        ss.popitem(last=False)
                                    ss[li] = None
                                    done = dram_request(
                                        data_ready, line_bytes
                                    )
                                    wb_ci = CI_MEMORY
                                    if samp_cache is not None:
                                        samp_cache(data_ready, False)
                                if done > completion:
                                    completion = done
                        else:  # non-blocking MSHR arm
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
                                if samp_cache is not None:
                                    samp_cache(cur, hit)
                                fill = mshr_outstanding(seg, cur)
                                if fill is not None:
                                    mshr.secondary_merges += 1
                                    wb_ci = CI_MEMORY
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
                                    wb_ci = CI_MEMORY
                                if done > completion:
                                    completion = done
                            if cur > mpf:
                                mpf = cur
                            if mshr_wait and dst is not None:
                                wmshr[pc] = mshr_wait
                        comp[pc] = completion
                        # The pc-indexed writeback arrays start at the
                        # static latency class (RAW cause, zero shares),
                        # so only escalations need a store.
                        if dst is not None and wb_ci != CI_RAW:
                            wcaus[pc] = wb_ci
                    elif kind == 3:  # uncached load: per-sector DRAM
                        completion = data_ready
                        if dst is not None:
                            wcaus[pc] = CI_MEMORY
                        for _ in range(aux):
                            done = dram_request(data_ready, txn_bytes)
                            if done > completion:
                                completion = done
                        comp[pc] = completion
                    elif kind == 4:  # cached store: write-through bursts
                        completion = issue_done
                        for li in aux[1]:
                            ss = cache_sets[li % num_sets]
                            if li in ss:
                                ss.move_to_end(li)
                                c_whit += 1
                                if samp_cache is not None:
                                    samp_cache(data_ready, True)
                            else:
                                c_wmiss += 1
                                if samp_cache is not None:
                                    samp_cache(data_ready, False)
                        if mshr is None:
                            for nb in aux[2]:
                                dram_request(data_ready, nb)
                        else:
                            for seg, nb in zip(aux[0], aux[2]):
                                dram_request(data_ready, nb, seg)
                        comp[pc] = issue_done
                    else:  # kind == 5, uncached store
                        completion = issue_done
                        for _ in range(aux):
                            dram_request(data_ready, txn_bytes)
                        comp[pc] = issue_done
            else:  # BARRIER: attribute the issue, then hand back
                issue_done = t + 1.0

            # ---- Collector.issue, inlined (same expressions/guards) --
            if ready > cursor:
                # Dependency wait: the producer with the latest
                # completion determined readiness; carve its wait into
                # bank-conflict, MSHR-full, and producer-cause shares.
                # ``prods`` lists the static last writer of each source
                # register in operand order -- the same entries, in the
                # same order, that ``Collector.issue`` finds scanning
                # the pending dict, so the strict-maximum tie-break
                # picks the same producer.
                dep_end = cursor
                best = -1
                for d in prods:
                    c = comp[d]
                    if c > dep_end:
                        dep_end = c
                        best = d
                if dep_end > ready:
                    dep_end = ready
                if dep_end > cursor:
                    # A winning producer exists (dep_end moved), so
                    # ``best`` indexes its writeback latency class.
                    conflict = wconf[best]
                    mshrw = wmshr[best]
                    wait = dep_end - cursor
                    bank = conflict if conflict < wait else wait
                    rest = wait - bank
                    msh = mshrw if mshrw < rest else rest
                    cb = cursor + bank
                    cbm = cb + msh
                    if bank > 0.0 and cb > cursor:
                        stalls[BANK] = stalls.get(BANK, 0.0) + (cb - cursor)
                        if trace_slice is not None:
                            trace_slice(
                                PID_WARPS, wid, BANK, "stall",
                                cursor, cb - cursor,
                            )
                    if msh > 0.0 and cbm > cb:
                        stalls[MSHRF] = stalls.get(MSHRF, 0.0) + (cbm - cb)
                        if trace_slice is not None:
                            trace_slice(
                                PID_WARPS, wid, MSHRF, "stall", cb, cbm - cb
                            )
                    if dep_end > cbm:
                        cause = CAUSES[wcaus[best]]
                        stalls[cause] = (
                            stalls.get(cause, 0.0) + (dep_end - cbm)
                        )
                        if trace_slice is not None:
                            trace_slice(
                                PID_WARPS, wid, cause, "stall",
                                cbm, dep_end - cbm,
                            )
                    cursor = dep_end
                if ready > cursor:
                    # Two-level scheduler reactivation latency.
                    stalls[DESCH] = stalls.get(DESCH, 0.0) + (ready - cursor)
                    if trace_slice is not None:
                        trace_slice(
                            PID_WARPS, wid, DESCH, "stall",
                            cursor, ready - cursor,
                        )
                    cursor = ready
            if t > cursor:
                stalls[PORT] = stalls.get(PORT, 0.0) + (t - cursor)
                if trace_slice is not None:
                    trace_slice(
                        PID_WARPS, wid, PORT, "stall", cursor, t - cursor
                    )
            t1 = t + 1.0
            if issue_done > t1:
                stalls[BANK] = stalls.get(BANK, 0.0) + (issue_done - t1)
                if trace_slice is not None:
                    trace_slice(
                        PID_WARPS, wid, BANK, "stall", t1, issue_done - t1
                    )
            cursor = issue_done
            if samp_instr is not None:
                samp_instr(t)
            if trace_slice is not None:
                trace_slice(PID_WARPS, wid, name, "issue", t, issue_done - t)
            if kind == 6:  # barrier: hand back for CTA coordination
                # Ops issued == pc for an in-order replay, so the
                # collector's issue counter is the resume pc itself.
                w.pc = pc + 1
                issued_until = issue_done
                mem_port_free = mpf
                ws.cursor = cursor
                ws.issue_cycles = pc + 1
                return 1, t
            pc += 1
            kind, a, b, aux, deps = rows[pc]
            nr = issue_done
            if deps:
                for d in deps:
                    c = comp[d]
                    if c > nr:
                        nr = c
            elif deps is None:  # R_END sentinel: warp retired
                w.pc = pc
                issued_until = issue_done
                mem_port_free = mpf
                ws.cursor = cursor
                ws.issue_cycles = pc
                return 2, issue_done
            if desch_lat and nr - issue_done > desch_thr:
                nr += desch_lat
            if nr < limit:
                # Run-batched op: the event engine would push the warp
                # keyed ``nr`` and pop it right back, so its ready and
                # grant times both equal ``nr``.
                t = nr
                ready = nr
                continue
            w.pc = pc
            issued_until = issue_done
            mem_port_free = mpf
            ws.cursor = cursor
            ws.issue_cycles = pc
            return 0, nr

    return run, state


def _fold_totals(core, spawned: list) -> None:
    """Sum the spawn-time static totals of a core's CTAs into its counters."""
    totals = [sum(col) for col in zip(*spawned)] if spawned else [0] * N_TOTALS
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


def run_columnar(
    kernel: CompiledKernel, cfg: SMConfig, cores: list[SMCore], chip_obs=None
) -> None:
    """Run a kernel launch to completion on the columnar replay loop.

    One global heap of ``(ready, seq, warp)`` entries keyed exactly as
    :func:`repro.sm.core.run_event` keys them; each popped warp replays
    while its next ready time stays strictly below the earliest other
    entry, so the issue order is unchanged.  Static per-CTA totals are
    folded into the core counters once at the end.

    A launch that nothing observes runs :func:`_run_inlined`, one frame
    for any number of cores.  The loop below serves instrumented runs:
    every core replays on its own :func:`make_warp_runner_obs` closure,
    and the CTA choreography fires ``cta_launch`` / ``spawn`` /
    ``resume`` / ``complete`` / ``cta_retire`` plus the chip
    collector's ``cta_dispatch`` / ``cta_retire`` taps in exactly the
    event loop's order; DRAM-window taps fire from the channel
    observers wired at core construction, which the instrumented runner
    always routes requests through.  A core with no collector of its own
    (a mixed ``collectors=[Collector(), None, ...]`` chip run) attributes
    into a private :class:`~repro.obs.Collector` that nothing reads, so
    its :class:`SMCore` still reports no stalls.
    """
    if chip_obs is None and all(core.obs is None for core in cores):
        _run_inlined(kernel, cfg, cores)
        return
    heappush = heapq.heappush
    heappop = heapq.heappop
    barrier_latency = cfg.barrier_latency
    sinks = [core.obs if core.obs is not None else Collector() for core in cores]
    runners = []
    states = []
    spawned: list[list] = []
    for core, obs in zip(cores, sinks):
        run, state = make_warp_runner_obs(cfg, core.cache, core.dram, core.mshr, obs)
        runners.append(run)
        states.append(state)
        spawned.append([])

    heap: list = []
    seq = 0

    def spawn_cta(core, now: float) -> bool:
        nonlocal seq
        resident = core.scheduler.launch_next()
        if resident is None:
            return False
        progs, ctot = cta_plan(
            kernel,
            core.banks,
            resident.shared_base,
            cfg,
            core.cache.enabled,
            resident.index,
        )
        obs = sinks[core.index]
        obs.cta_launch(resident.index, now, len(progs))
        if chip_obs is not None:
            chip_obs.cta_dispatch(
                resident.index, core.index, now, core.scheduler.remaining
            )
        for wi, prog in enumerate(progs):
            w = _ColWarp(
                prog, resident, core, wid=core.warp_serial,
                obs_rows=prog.shape.obs_rows(),
            )
            core.warp_serial += 1
            obs.spawn(w.wid, resident.index, wi, now)
            w.ws = obs.warps[w.wid]
            heappush(heap, (now, seq, w))
            seq += 1
        spawned[core.index].append(ctot)
        return True

    fill_cores(cores, spawn_cta)

    INF = float("inf")
    while heap:
        ready, _, w = heappop(heap)
        core = w.core
        limit = heap[0][0] if heap else INF
        code, value = runners[core.index](w, ready, limit)
        if code == YIELD:
            # Overtaken by the earliest other warp; re-key.
            heappush(heap, (value, seq, w))
            seq += 1
            continue
        obs = sinks[core.index]
        if code == DONE:
            # Warp drained at cycle ``value``.
            obs.complete(w.wid, value)
            cta = w.cta
            cta.warps_outstanding -= 1
            if cta.warps_outstanding == 0:
                if cta.waiting_warps:
                    raise SimulationError(
                        f"CTA {cta.index} finished with warps still at a barrier"
                    )
                core.scheduler.retire(cta)
                obs.cta_retire(cta.index, value)
                if chip_obs is not None:
                    chip_obs.cta_retire(cta.index, core.index, value)
                core.live_ctas -= 1
                if spawn_cta(core, value):
                    core.live_ctas += 1
            continue
        # Barrier arrival at cycle ``value``.
        cta = w.cta
        cta.barrier_count += 1
        if cta.barrier_count == cta.warps_outstanding:
            cta.barrier_count = 0
            waiting = cta.waiting_warps
            cta.waiting_warps = []
            release = value + 1 + barrier_latency
            for other in (*waiting, w):
                obs.resume(other.wid, release, CAUSE_BARRIER)
                if other.pc < other.n_ops:
                    heappush(heap, (_release_key(other, release), seq, other))
                    seq += 1
                else:
                    # A warp whose last instruction is a barrier.
                    cta.warps_outstanding -= 1
                    obs.complete(other.wid, release)
            if cta.warps_outstanding == 0:
                core.scheduler.retire(cta)
                obs.cta_retire(cta.index, release)
                if chip_obs is not None:
                    chip_obs.cta_retire(cta.index, core.index, release)
                core.live_ctas -= 1
                if spawn_cta(core, release):
                    core.live_ctas += 1
        else:
            cta.waiting_warps.append(w)

    for core in cores:
        _fold_totals(core, spawned[core.index])
        core.issued_until, core.mem_port_free = states[core.index]()


def _plain_handles(core: SMCore, line_bytes: int, txn_bytes: int) -> tuple:
    """One core's fixed handles, unpacked at :func:`_run_inlined`'s swap site.

    ``(cache sets, cache stats, DRAM port, its request method,
    fast_dram, DRAM latency, bytes per cycle, line and transaction
    service times, MSHR file, its outstanding / entry_free_at /
    allocate methods)``.  ``fast_dram`` marks a private flat-FCFS
    channel whose arithmetic the frame inlines; ``mshr is None`` is part
    of it to keep mixed accounting out: the MSHR branches route fills
    through ``dram.request`` (which bumps the model's own counters), and
    the write-back would clobber those.
    """
    dram = core.dram
    mshr = core.mshr
    fast_dram = (
        mshr is None
        and type(dram) is DRAMChannel
        and not dram._banked
        and dram.observer is None
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
        core.cache._sets, core.cache.stats, dram, dram.request, fast_dram,
        *dram_consts, mshr, *mshr_calls,
    )


def _run_inlined(kernel: CompiledKernel, cfg: SMConfig, cores: list[SMCore]) -> None:
    """:func:`run_columnar` for any number of cores that nothing observes.

    Every warp steps in this one frame, so a pop costs no Python call.
    The *current* core's issue clock, memory port, and inlined cache and
    DRAM counters are plain locals.  When the popped warp belongs to
    another core, the swap site writes them back into the outgoing
    core's :class:`SMCore` and model objects (the write-back every run
    ends with), then loads the incoming core's and unpacks its fixed
    handles -- cache sets and stats, DRAM port, fast-DRAM quotients,
    MSHR file -- from one tuple per core.  Every warp of a one-core run
    belongs to the current core, so it never swaps.
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
    # Static totals: one tuple appended per CTA spawn, summed
    # columnwise once at the end.
    spawned: list[list] = [[] for _ in cores]
    plans: dict = {}
    # CTA indexes are unique, but grids repeat one CTA shape: the
    # interned signature row's identity plus the recycled shared-memory
    # base is exactly what a plan depends on within one run, so keying
    # on those lets steady-state spawns skip cta_plan's key rebuild.
    sig_rows = _sig_table(kernel, line_bytes)

    def spawn_cta(core: SMCore, now: float) -> bool:
        nonlocal seq
        resident = core.scheduler.launch_next()
        if resident is None:
            return False
        pkey = (id(sig_rows[resident.index]), resident.shared_base)
        plan = plans.get(pkey)
        if plan is None:
            plan = plans[pkey] = cta_plan(
                kernel, core.banks, resident.shared_base, cfg, cache_enabled,
                resident.index,
            )
        progs, ctot = plan
        for prog in progs:
            w = _ColWarp(prog, resident)
            heappush(heap, (now, seq, w, 0, w.rows, w.comp, core))
            seq += 1
        spawned[core.index].append(ctot)
        return True

    fill_cores(cores, spawn_cta)

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
                cache_sets, stats, dram, dram_request, fast_dram,
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
                            if fast_dram:
                                for li in aux[1]:
                                    ss = cache_sets[li % num_sets]
                                    if li in ss:
                                        ss.move_to_end(li)
                                        c_rhit += 1
                                        done = data_ready + hit_latency
                                    else:
                                        c_rmiss += 1
                                        if len(ss) >= cache_assoc:
                                            ss.popitem(last=False)
                                        ss[li] = None
                                        start = (
                                            data_ready
                                            if data_ready > dram_free
                                            else dram_free
                                        )
                                        dram_free = start + line_service
                                        dram_acc += 1
                                        dram_xfer += line_bytes
                                        dram_busy += line_service
                                        dram_last = data_ready
                                        done = (
                                            start + dram_lat + line_service
                                        )
                                    if done > completion:
                                        completion = done
                            else:  # banked/observed DRAM keeps the call
                                for li in aux[1]:
                                    ss = cache_sets[li % num_sets]
                                    if li in ss:
                                        ss.move_to_end(li)
                                        c_rhit += 1
                                        done = data_ready + hit_latency
                                    else:
                                        c_rmiss += 1
                                        if len(ss) >= cache_assoc:
                                            ss.popitem(last=False)
                                        ss[li] = None
                                        done = dram_request(
                                            data_ready, line_bytes
                                        )
                                    if done > completion:
                                        completion = done
                        else:  # non-blocking: merge secondaries, stall
                            # on a full file, address the fills
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
                                fill = mshr_outstanding(seg, cur)
                                if fill is not None:
                                    mshr.secondary_merges += 1
                                    done = fill
                                elif hit:
                                    done = cur + hit_latency
                                else:
                                    free = mshr_entry_free(cur)
                                    if free > cur:
                                        mshr.full_stalls += 1
                                        mshr.full_stall_cycles += free - cur
                                        cur = free
                                    done = dram_request(cur, line_bytes, seg)
                                    mshr_allocate(seg, done, cur)
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
                    elif kind == 4:  # cached store: write-through bursts
                        for li in aux[1]:
                            ss = cache_sets[li % num_sets]
                            if li in ss:
                                ss.move_to_end(li)
                                c_whit += 1
                            else:
                                c_wmiss += 1
                        if fast_dram:
                            for nb in aux[2]:
                                start = (
                                    data_ready if data_ready > dram_free
                                    else dram_free
                                )
                                service = nb / dram_bpc
                                dram_free = start + service
                                dram_acc += 1
                                dram_xfer += nb
                                dram_busy += service
                            dram_last = data_ready
                        elif mshr is None:
                            for nb in aux[2]:
                                dram_request(data_ready, nb)
                        else:
                            for seg, nb in zip(aux[0], aux[2]):
                                dram_request(data_ready, nb, seg)
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
                code = 1
                break
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
                # replaying inline.
                t = nr
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
            cta = w.cta
            cta.warps_outstanding -= 1
            if cta.warps_outstanding == 0:
                if cta.waiting_warps:
                    raise SimulationError(
                        f"CTA {cta.index} finished with warps still at a "
                        "barrier"
                    )
                core.scheduler.retire(cta)
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
                if cta.warps_outstanding == 0:
                    core.scheduler.retire(cta)
                    core.live_ctas -= 1
                    if spawn_cta(core, release):
                        core.live_ctas += 1
            else:
                cta.waiting_warps.append(w)
        ready, _, w, pc, rows, comp, wcore = heappop(heap)

    for core in cores:
        _fold_totals(core, spawned[core.index])

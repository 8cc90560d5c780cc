"""Columnar lowering of kernel plans for the replay engine.

The second compile phase behind :mod:`repro.compiler.precompute`: where
the planning pass turns each op into an interned :class:`OpPlan`, this
pass lowers each *warp* -- a sequence of (op, plan) pairs -- into
contiguous numpy columns the replay core (:mod:`repro.sm.replay`) steps
without touching Python object graphs:

* **Signatures** (:class:`WarpSig`) hold the partition-independent
  shape of a warp: the static last-writer RAW dependency graph (which
  replaces the event engine's per-warp ``pending`` dict) and the
  register-file traffic totals.  Warps with identical (plan, operand)
  streams share one signature; plans for global-memory ops embed
  per-CTA addresses, so address-touching warps rarely intern across
  CTAs and the constructor is kept allocation-lean.
* **Programs** (:class:`WarpProgram`) specialise a signature to a bank
  model, CTA shared-memory base, and latency config: per-op issue and
  completion increments, bank-conflict penalties, coalesced line
  segments and DRAM burst sizes as aligned columns, plus one tuple of
  *static totals* -- every additive counter of the event engine
  (instructions, conflict cycles, histogram buckets, arbitration
  conflicts, RF/row/tag energy events) summed over the warp at compile
  time and added once at CTA spawn instead of once per op.

Static totals are sound because each of those counters is
order-independent and a pure function of the warp's plans plus the
bank-model memo key (the same argument that makes the ``planned_*``
memos exact, see :mod:`repro.memory.banks`); the dependency graph is
sound because the event engine's ``pending`` dict maps each register to
its *last* writer's completion, which is exactly the static last-writer
analysis here (writes drain in program order, so WAW is safe to
collapse).  Barrier ops contribute to the instruction count but to no
other counter -- the event loop ``continue``s past the accounting lines
for them -- and their source registers still take dependency edges
(the event path reads ``pending`` when re-keying a released warp).

Cycle identity of everything built here is pinned end to end by the
golden fixtures and ``tests/sm/test_engine_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.compiled import CompiledKernel
from repro.compiler.precompute import (
    K_BARRIER,
    K_GLOBAL_LOAD,
    K_SHARED_LOAD,
    K_SHARED_STORE,
    K_TEX,
    plan_kernel,
)
from repro.obs.collector import CAUSE_MEMORY, CAUSE_RAW, STALL_CAUSES

# Integer cause indices into STALL_CAUSES: the instrumented replay loops
# accumulate stalls into per-warp lists indexed by these and only convert
# back to the canonical cause strings when folding into the collector.
CI_RAW = STALL_CAUSES.index(CAUSE_RAW)
CI_MEMORY = STALL_CAUSES.index(CAUSE_MEMORY)

#: Replay row kinds: the runner dispatches on these, not the ``K_*``
#: plan kinds -- ALU/SFU/TEX collapse into one row (their latency is
#: folded into the completion column), shared load/store collapse into
#: one (their row-count difference is a static total), and global ops
#: split by whether a data cache fronts them (decided at lowering time,
#: so the hot loop never re-tests ``cache.enabled``).
R_ALU = 0
R_SHARED = 1
R_GLOBAL_LOAD = 2  # through the cache
R_GLOBAL_LOAD_NOCACHE = 3
R_GLOBAL_STORE = 4  # through the cache (write-through bursts)
R_GLOBAL_STORE_NOCACHE = 5
R_BARRIER = 6
#: Sentinel row appended after the last op: the replay loop advances
#: into it instead of bounds-checking ``pc`` every instruction.
R_END = 7

#: Index layout of :attr:`WarpProgram.totals` (see ``_TOTAL_FIELDS``).
_TOTAL_FIELDS = (
    "instructions",
    "conflict_cycles",
    "arbitration",
    "hist0", "hist1", "hist2", "hist3", "hist4",
    "mrf_reads", "mrf_writes",
    "orf_reads", "orf_writes",
    "lrf_reads", "lrf_writes",
    "shared_row_reads", "shared_row_writes",
    "cache_row_reads", "cache_row_writes",
    "tag_lookups",
)
N_TOTALS = len(_TOTAL_FIELDS)


class WarpSig:
    """Partition-independent columnar signature of one compiled warp.

    Attributes:
        ops: Representative :class:`CompiledOp` list (first warp that
            interned to this signature; equal-keyed warps are
            timing-identical by construction).
        plans: Aligned :class:`OpPlan` list.
        n_ops: Instruction count.
        deps: RAW dependency graph as a tuple of per-op producer
            tuples -- ``deps[pc]`` are the pcs whose completion gates
            issue of ``pc`` (the last writer of each source register).
        live: Whether each op's completion time is ever read by a
            consumer (dead completions need no bookkeeping).
        rf_totals: ``(mrf_r, mrf_w, orf_r, orf_w, lrf_r, lrf_w)``
            summed over non-barrier ops.
        obs: Lazily built observability columns (see
            :func:`sig_obs_rows`); ``None`` until an instrumented
            replay first touches the signature, so uninstrumented
            compiles pay one slot assignment.

    The constructor is a cold-start hot spot: signatures rarely intern
    across CTAs (global-address plans embed per-CTA addresses), so a
    grid of W warps builds ~W of these.  Everything is derived in one
    plain-Python pass -- per-warp numpy arrays at these lengths (tens
    of ops) cost more to construct than they save, so the numpy column
    set lives on :class:`WarpProgram` only.
    """

    __slots__ = ("ops", "plans", "n_ops", "deps", "live", "rf_totals", "obs")

    def __init__(self, ops, plans) -> None:
        self.ops = ops
        self.plans = plans
        n = len(ops)
        self.n_ops = n
        # Last-writer RAW analysis: the event engine's pending dict
        # resolves each source register to the completion of its most
        # recent producer; writes retire in program order, so the
        # static last-writer map is exact.  RF traffic is accumulated
        # per op by the event engine but never consumed mid-run, so the
        # warp-total is added at spawn instead; barriers are skipped
        # because the event loop continues before the accounting lines.
        last_writer: dict[int, int] = {}
        deps: list[tuple[int, ...]] = []
        live = [False] * n
        mrf_r = mrf_w = orf_r = orf_w = lrf_r = lrf_w = 0
        for pc, (op, pl) in enumerate(zip(ops, plans)):
            d: dict[int, None] = {}
            for r in op.srcs:
                p = last_writer.get(r)
                if p is not None:
                    d[p] = None
            dep = tuple(d)
            deps.append(dep)
            for p in dep:
                live[p] = True
            if op.dst is not None:
                last_writer[op.dst] = pc
            if pl.kind != K_BARRIER:
                mrf_r += pl.n_mrf_reads
                mrf_w += pl.n_mrf_writes
                orf_r += op.orf_reads
                orf_w += op.orf_writes
                lrf_r += op.lrf_reads
                lrf_w += op.lrf_writes
        self.deps = tuple(deps)
        self.live = live
        self.rf_totals = (mrf_r, mrf_w, orf_r, orf_w, lrf_r, lrf_w)
        self.obs = None


def sig_obs_rows(sig: WarpSig) -> tuple:
    """Per-op observability columns for the instrumented replay loops.

    Returns ``(rows, causes)``, both aligned with
    :attr:`WarpProgram.rows` (plus a sentinel under the ``R_END`` row so
    both share a pc).  Each row is ``(name, prods, dst)``: the
    instruction name for trace slices, the *producer pcs* of the op's
    source registers, and the destination register.  ``prods`` is the
    static last-writer relation evaluated in source-operand order --
    exactly the registers the collector's ``issue`` hook would find in
    its pending dict, resolved at compile time so the replay runner can
    attribute a dependency wait with list lookups into the per-warp
    completion column instead of per-op dict traffic.  Scan equivalence
    with ``Collector.issue`` holds because warps replay in program
    order (every producer pc has executed by the time a consumer reads
    it) and ties keep the first maximum in operand order in both forms.

    ``causes`` is the static writeback cause per op as an *index into*
    ``STALL_CAUSES``: texture fetches always resolve in DRAM
    (``CAUSE_MEMORY``), every other statically-known producer is
    core-local (``CAUSE_RAW``).  Dynamic causes stay with the replay
    runner: cached global loads escalate to ``CAUSE_MEMORY`` on a miss
    or MSHR merge, uncached loads unconditionally, exactly as the event
    engine decides them.  Barriers take the literal name the event
    engine reports.

    Both sequences are static and shared across every warp of the
    signature.

    Built lazily and cached on the signature: only instrumented replays
    pay for it, and partition sweeps over one kernel reuse the rows
    (names, operands, and causes are partition-independent).
    """
    cached = sig.obs
    if cached is None:
        rows = []
        causes = []
        last_writer: dict = {}
        for pc, (op, pl) in enumerate(zip(sig.ops, sig.plans)):
            barrier = pl.kind == K_BARRIER
            # Producers are looked up before this op's own write lands,
            # mirroring the event order (issue reads pending, then
            # writeback overwrites it); duplicate sources keep their
            # duplicate producer entries -- a strict-maximum scan makes
            # the repeat a no-op, as it is in the dict form.
            prods = tuple(
                last_writer[r] for r in op.srcs if r in last_writer
            )
            # Barrier rows drop the dst: the event loop continues past
            # its writeback lines, so a barrier never registers a
            # pending write whatever the op object carries.
            dst = None if barrier else op.dst
            rows.append(("BARRIER" if barrier else op.op.name, prods, dst))
            causes.append(CI_MEMORY if pl.kind == K_TEX else CI_RAW)
            if dst is not None:
                last_writer[dst] = pc
        rows.append((None, (), None))
        causes.append(CI_RAW)
        cached = (rows, causes)
        sig.obs = cached
    return cached


class WarpProgram:
    """A :class:`WarpSig` specialised to one bank model and config.

    The canonical compile product is the numpy column set
    (``kind_np`` / ``a_np`` / ``b_np``, one array per column per
    program); ``rows`` fuses the same data with the signature's dep
    tuples into the plain-sequence form the replay interpreter indexes
    (CPython indexes lists/tuples faster than 0-d numpy scalars).

    Column meaning by replay kind.  Constant adds the event loop does
    per op (latency, the one-cycle memory-pipeline hold) are folded in
    at compile time, so the interpreter performs one addition per
    derived quantity.  ALU columns are offsets from issue time ``t``;
    memory columns are offsets from the op's memory-port grant
    ``port_start``:

    ======================== ========================= =====================
    kind                     ``a``                     ``b``
    ======================== ========================= =====================
    R_ALU                    1 + register penalty      ``a`` + latency
    R_SHARED                 penalty + 1 (port hold)   penalty + shared lat
    R_GLOBAL_LOAD*           penalty (data ready)      penalty + 1 (hold)
    R_GLOBAL_STORE*          penalty (data ready)      penalty + 1 (hold)
    R_BARRIER                0                         0
    ======================== ========================= =====================

    Folding is exact: penalties and latencies are integers, and adding
    an integer to any timestamp the simulation can produce is an exact
    float operation, so ``port_start + (penalty + lat)`` is bit-equal
    to the event engine's ``(port_start + penalty) + lat``.

    ``aux`` rows: cached loads carry ``(segments, line_indices)`` -- the
    coalesced line-segment tuple plus each segment's precomputed cache
    line index (``segment // line_bytes``, hoisted out of the replay
    probe loop); uncached loads/stores the DRAM sector count; cached
    stores ``(segments, line_indices, burst_bytes)`` with per-line
    write-through burst sizes.

    ``rows`` fuses the columns into one ``(kind, a, b, aux, deps)``
    record per op, terminated by an :data:`R_END` sentinel -- the
    interpreter's view (one index + unpack per op instead of five
    column indexes and a bounds check).  ``deps`` on row ``i`` are op
    ``i``'s own RAW producers, consumed when *scheduling* the op.
    """

    __slots__ = (
        "sig", "n_ops", "kind_np", "a_np", "b_np",
        "rows", "totals",
    )

    def __init__(self, sig: WarpSig, kind, a, b, aux, totals) -> None:
        self.sig = sig
        self.n_ops = sig.n_ops
        self.kind_np = np.asarray(kind, dtype=np.int8)
        self.a_np = np.asarray(a, dtype=np.int64)
        self.b_np = np.asarray(b, dtype=np.int64)
        # Rows carry a/b as floats: CPython's specialised float+float
        # add is ~2x the generic float+int path, and every hot-loop use
        # adds them to a float timestamp.  Conversion of an integer is
        # exact, so timing is unchanged bit for bit.
        # The end row's deps slot is None (every real op carries a
        # tuple): the replay loops detect retirement on the deps field
        # they already loaded instead of re-testing the kind.
        self.rows = [
            *zip(kind, map(float, a), map(float, b), aux, sig.deps),
            (R_END, 0.0, 0.0, None, None),
        ]
        self.totals = totals


def _sig_table(kernel: CompiledKernel, line_bytes: int) -> list[tuple[WarpSig, ...]]:
    """Signatures for every warp, interned and cached on the kernel.

    Both levels intern: warps with equal timing keys share one
    :class:`WarpSig`, and CTAs with equal signature rows share one
    tuple object -- :func:`cta_plan` keys whole-CTA program lookups on
    that row identity, so a grid of identical CTAs resolves every
    spawn through a single cache entry.
    """
    cache = kernel._plan_cache
    key = ("colsig", line_bytes)
    table = cache.get(key)
    if table is not None:
        return table
    plans_k = plan_kernel(kernel, line_bytes)
    interned: dict[tuple, WarpSig] = {}
    rows_interned: dict[tuple, tuple] = {}
    table = []
    for ci, cta in enumerate(kernel.ctas):
        row = []
        for wi, warp in enumerate(cta.warps):
            plans = plans_k[ci][wi]
            ops = warp.ops
            # Plans intern on (kind, mrf_reads, mrf_write count, addrs);
            # everything else a signature depends on is keyed here.
            sig_key = tuple(
                (id(pl), op.dst, op.srcs,
                 op.lrf_reads, op.orf_reads, op.lrf_writes, op.orf_writes)
                for pl, op in zip(plans, ops)
            )
            sig = interned.get(sig_key)
            if sig is None:
                sig = interned[sig_key] = WarpSig(ops, plans)
            row.append(sig)
        row = tuple(row)
        table.append(rows_interned.setdefault(row, row))
    cache[key] = table
    return table


def _skeleton(sig, cfg, cache_enabled):
    """Bank-independent part of a program, built once per (sig, cfg).

    Capacity sweeps re-lower every signature per partition, but only
    memory ops depend on the bank model: ALU rows (kind, issue and
    completion offsets, conflict contribution) and every ``aux`` payload
    (line segments, cache line indices, sector counts, burst sizes) are
    pure functions of the plans and the latency config.  The skeleton
    precomputes all of that plus the ALU-only totals, so the per-bank
    :func:`_build_program` pass touches memory ops alone.

    Returns ``(kind, a, b, aux, mem, conflict, hist, tags)`` where
    ``mem`` is the ``(pc, op, plan, plan_kind)`` list of memory ops
    whose ``a``/``b`` slots are left 0 for the patch pass, ``conflict``
    and ``hist`` carry the ALU contributions, and ``tags`` the (static)
    tag-port lookup count.
    """
    line_bytes = cfg.cache_line_bytes
    txn_bytes = cfg.dram_transaction_bytes
    lat_by_kind = (cfg.alu_latency, cfg.sfu_latency, cfg.tex_latency)
    n = sig.n_ops
    kind = [0] * n
    a = [0] * n
    b = [0] * n
    aux: list = [None] * n
    mem = []
    # Scalar accumulators, not per-op columns: the totals tuple only
    # needs the sums, and n is tens of ops -- small-array numpy round
    # trips (zeros / bincount / masked sum) dominate at that size.
    conflict = 0
    hist = [0, 0, 0, 0, 0]
    tags = 0
    for pc, (op, pl) in enumerate(zip(sig.ops, sig.plans)):
        k = pl.kind
        if k <= 2:  # ALU / SFU / TEX
            kind[pc] = R_ALU
            a[pc] = 1 + pl.reg_penalty
            b[pc] = a[pc] + lat_by_kind[k]
            conflict += pl.reg_penalty
            hist[pl.reg_bucket] += 1
        elif k == K_BARRIER:
            kind[pc] = R_BARRIER
        elif k <= K_SHARED_STORE:
            kind[pc] = R_SHARED
            mem.append((pc, op, pl, k))
        else:  # global / local
            mem.append((pc, op, pl, k))
            if cache_enabled:
                tags += pl.n_segments
            if k == K_GLOBAL_LOAD:
                if cache_enabled:
                    kind[pc] = R_GLOBAL_LOAD
                    aux[pc] = (
                        pl.segments,
                        tuple(s // line_bytes for s in pl.segments),
                    )
                else:
                    kind[pc] = R_GLOBAL_LOAD_NOCACHE
                    ns = pl.n_sectors
                    if ns < 0:
                        ns = pl.sector_info(op.addrs, line_bytes)[0]
                    aux[pc] = ns
            else:  # K_GLOBAL_STORE
                if cache_enabled:
                    kind[pc] = R_GLOBAL_STORE
                    pls = pl.per_line_sectors
                    if pls is None:
                        pls = pl.sector_info(op.addrs, line_bytes)[1]
                    aux[pc] = (
                        pl.segments,
                        tuple(s // line_bytes for s in pl.segments),
                        tuple(ns * txn_bytes for ns in pls),
                    )
                else:
                    kind[pc] = R_GLOBAL_STORE_NOCACHE
                    ns = pl.n_sectors
                    if ns < 0:
                        ns = pl.sector_info(op.addrs, line_bytes)[0]
                    aux[pc] = ns
    return kind, a, b, aux, tuple(mem), conflict, tuple(hist), tags


def _build_program(sig, banks, shared_base, cfg, cache_enabled, skel):
    """Lower one signature against a bank model and CTA base offset.

    The bank-independent columns come precomputed in ``skel``
    (:func:`_skeleton`); this pass resolves only the memory ops'
    penalties and row counts against the concrete bank model, so a
    partition sweep pays per-memory-op rather than per-op work.
    """
    shared_latency = cfg.shared_latency
    planned_shared = banks.planned_shared
    planned_global = banks.planned_global
    kind, a, b, aux, mem, conflict, hist_t, tags = skel
    a = a.copy()
    b = b.copy()
    hist = list(hist_t)
    arb = 0
    sh_rr = sh_rw = c_rr = c_rw = 0
    for pc, op, pl, k in mem:
        if k <= K_SHARED_STORE:
            penalty, bucket, rows, arb_i = planned_shared(
                pl, op.addrs, shared_base
            )
            a[pc] = penalty + 1
            b[pc] = penalty + shared_latency
            if k == K_SHARED_LOAD:
                sh_rr += rows
            else:
                sh_rw += rows
        else:  # global / local
            penalty, bucket, rows, arb_i = planned_global(pl)
            a[pc] = penalty
            b[pc] = penalty + 1
            if cache_enabled:
                if k == K_GLOBAL_LOAD:
                    c_rr += rows
                else:
                    c_rw += rows
        conflict += penalty
        hist[bucket] += 1
        arb += arb_i
    totals = (
        sig.n_ops,
        conflict,
        arb,
        *hist,
        *sig.rf_totals,
        sh_rr, sh_rw, c_rr, c_rw, tags,
    )
    return WarpProgram(sig, kind, a, b, aux, totals)


def cta_plan(
    kernel: CompiledKernel,
    banks,
    shared_base: int,
    cfg,
    cache_enabled: bool,
    cta_index: int,
) -> tuple[tuple[WarpProgram, ...], tuple]:
    """Replay programs + summed totals for one resident CTA's warps.

    Returns ``(programs, cta_totals)`` where ``cta_totals`` is the
    elementwise sum of the per-warp static totals -- one add per CTA
    spawn instead of one per warp.  Cached per kernel on exactly what a
    CTA's programs depend on: the interned signature row, the bank
    model's memo key for the CTA base offset
    (:meth:`~repro.memory.banks.PartitionedBanks.plan_key`), the
    latency table, the DRAM transaction size, and whether a cache
    fronts global memory.  Shared-memory bases recycle as CTAs retire
    and launch and grids repeat one CTA shape, so steady-state
    simulation resolves every spawn with a single dict hit.
    """
    cache = kernel._plan_cache
    line_bytes = cfg.cache_line_bytes
    cta_key = ("colcta", line_bytes)
    ctas = cache.get(cta_key)
    if ctas is None:
        ctas = cache[cta_key] = {}
    row = _sig_table(kernel, line_bytes)[cta_index]
    base_key = banks.plan_key(shared_base)
    cfg_key = (
        cfg.alu_latency, cfg.sfu_latency, cfg.tex_latency,
        cfg.shared_latency, cfg.dram_transaction_bytes, cache_enabled,
    )
    key = (id(row), base_key, cfg_key)
    plan = ctas.get(key)
    if plan is None:
        progs_key = ("colprog", line_bytes)
        progs = cache.get(progs_key)
        if progs is None:
            progs = cache[progs_key] = {}
        skels_key = ("colskel", line_bytes)
        skels = cache.get(skels_key)
        if skels is None:
            skels = cache[skels_key] = {}
        out = []
        for sig in row:
            pkey = (id(sig), base_key, cfg_key)
            prog = progs.get(pkey)
            if prog is None:
                skey = (id(sig), cfg_key)
                skel = skels.get(skey)
                if skel is None:
                    skel = skels[skey] = _skeleton(sig, cfg, cache_enabled)
                prog = progs[pkey] = _build_program(
                    sig, banks, shared_base, cfg, cache_enabled, skel
                )
            out.append(prog)
        cta_totals = tuple(
            sum(p.totals[i] for p in out) for i in range(N_TOTALS)
        )
        plan = ctas[key] = (tuple(out), cta_totals)
    return plan

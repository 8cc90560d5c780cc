"""Columnar lowering of compiled kernels for the replay engine.

Lowering turns a :class:`~repro.compiler.compiled.CompiledKernel` into
the flat row programs the replay core (:mod:`repro.sm.replay`) steps
without touching Python object graphs.  It reads register shapes
(:mod:`repro.compiler.pipeline`) and each warp's trace addresses, never
per-op :class:`~repro.compiler.compiled.CompiledOp` records, at four
levels:

* **Op plans** (:class:`OpPlan`, interned by :func:`intern_plan`) hold
  the facts of one op that no partition changes: its dispatch kind, the
  register-only bank outcome of a non-memory op, coalesced line
  segments, DRAM sector counts, a memo of the bank model's verdict on a
  memory op, and a global or local op's replay kind and ``aux`` per
  cache mode.  Ops with equal (kind, MRF reads, addresses) share one
  plan and its memos, so loop-heavy kernels build 10-60x fewer plans
  than they have ops, and a partition sweep re-resolves a memory op
  with one dict lookup per bank-model key.
* **Shapes** (:class:`ShapeLowering`, once per register shape of a
  kernel) hold everything the shape alone decides: the static
  last-writer RAW dependency graph (which replaces the reference loop's
  per-warp ``pending`` dict), the compilation's register-file traffic,
  the plans of the non-memory ops, where each memory op finds its
  addresses, and per latency config a row template with every
  ALU/SFU/TEX and barrier row built.  Its ``(op class, dst, srcs)``
  per op is also what replay hands the collector hooks.
* **Warp signatures** are the pair (shape lowering, tuple of
  memory-op plans), interned.  A warp's own lowering is planning its
  memory ops from its addresses -- the trace op's, or the spill-slot
  formula's for fills and spills -- so warps of one shape whose
  addresses coincide share one signature.
* **Programs** (:class:`WarpProgram`) specialise a signature to a bank
  model, CTA shared-memory base, and config: a copy of the shape's row
  template with the memory rows filled in (bank-conflict penalties, the
  plans' replay kinds and ``aux``), plus one tuple of *static totals* --
  every additive counter of the reference loop (instructions, conflict
  cycles, histogram buckets, arbitration conflicts, RF/row/tag energy
  events) summed over the warp at lowering time and added once at its
  CTA's spawn instead of once per op.

Each fact is cached once, where it is owned: plans module-wide, and per
kernel (``_plan_cache``) its signatures and its programs per
(signature, bank key, config).

Plans carry no modelling of their own.  A memory op's outcome is the
bank model's ``conflicts()`` (:mod:`repro.memory.banks`), memoised
under a key that pins everything it depends on beyond the plan (the
model's ``plan_key`` for shared memory, its class for global/local);
line segments and sector counts come from :mod:`repro.memory.coalescer`.
Static totals are sound because each of those counters is
order-independent and a pure function of the warp's plans plus the
bank-model memo key; the dependency graph is sound because the
reference loop's ``pending`` dict maps each register to its *last*
writer's completion, which is exactly the static last-writer analysis
here (writes drain in program order, so WAW is safe to collapse).
Barrier ops contribute to the instruction count but to no other
counter -- the reference loop ``continue``s past the accounting lines
for them -- and their source registers still take dependency edges
(the reference loop reads ``pending`` when re-keying a released warp).

Cycle identity of everything built here is pinned end to end by the
golden fixtures and ``tests/sm/test_engine_equivalence.py``: the
reference loop computes every op from the component models and shares
no plan or memo with lowering, and the ``@spill`` arms cover fills and
spills.

Related work motivates the shape of this optimisation: compiler-assisted
register-file caching (Abaie Shoushtary et al.) and software/hardware
cooperative RF management (Sadrosadati et al.) both hoist per-access
decisions into a once-per-kernel analysis; here the same move is applied
to the simulator itself.
"""

from __future__ import annotations

from repro.compiler.compiled import CompiledKernel
from repro.compiler.regalloc import Rewrite
from repro.isa.opcodes import OpClass
from repro.memory.banks import hist_bucket, register_conflicts
from repro.memory.coalescer import coalesce_lines, sectors_per_line

#: Dense instruction kinds lowering dispatches on.  The first three
#: index ``(alu, sfu, tex)`` latency tables, so their order is load-bearing.
K_ALU = 0
K_SFU = 1
K_TEX = 2
K_SHARED_LOAD = 3
K_SHARED_STORE = 4
K_GLOBAL_LOAD = 5  # global or local space, through the cache
K_GLOBAL_STORE = 6
K_BARRIER = 7

_KIND_BY_OPCLASS = {
    OpClass.ALU: K_ALU,
    OpClass.SFU: K_SFU,
    OpClass.TEX: K_TEX,
    OpClass.LOAD_SHARED: K_SHARED_LOAD,
    OpClass.STORE_SHARED: K_SHARED_STORE,
    OpClass.LOAD_GLOBAL: K_GLOBAL_LOAD,
    OpClass.STORE_GLOBAL: K_GLOBAL_STORE,
    OpClass.LOAD_LOCAL: K_GLOBAL_LOAD,
    OpClass.STORE_LOCAL: K_GLOBAL_STORE,
    OpClass.BARRIER: K_BARRIER,
}

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


#: The row after a warp's last op (shared by every program).
_END_ROW = (R_END, 0.0, 0.0, None, None)


class OpPlan:
    """The partition-independent timing facts of one op.

    Built from the three fields of an op that lowering reads: its op
    class, MRF read registers and addresses.

    Attributes:
        kind: One of the ``K_*`` dispatch constants.
        mrf_reads: The MRF read registers.
        addrs: The op's per-thread addresses (``None`` for non-memory
            ops); part of the interning key, so one plan has one tuple.
        reg_penalty: Bank penalty of a non-memory op, identical under
            every bank model (:func:`~repro.memory.banks.register_conflicts`).
        reg_bucket: Histogram bucket of a non-memory op.
        segments: Sorted line bases (global/local ops only).
        outcomes: Memo of :meth:`outcome` for a memory op; ``None``
            until lowering first resolves the op.
        cached, uncached: A global or local op's ``(replay kind, aux)``
            with and without a cache in front of global memory; ``None``
            until :meth:`replay` first builds them.  Only stores and
            uncached loads count DRAM sectors, so cached loads -- the
            common case -- never pay for them.
    """

    __slots__ = (
        "kind",
        "mrf_reads",
        "addrs",
        "reg_penalty",
        "reg_bucket",
        "segments",
        "outcomes",
        "cached",
        "uncached",
    )

    def __init__(self, op_class: OpClass, mrf_reads, addrs, line_bytes: int) -> None:
        try:
            self.kind = kind = _KIND_BY_OPCLASS[op_class]
        except KeyError:
            raise ValueError(
                f"op class {op_class!r} cannot be timed by the SM simulator"
            ) from None
        self.mrf_reads = mrf_reads
        self.addrs = addrs
        self.reg_penalty, max_bank = register_conflicts(mrf_reads)
        self.reg_bucket = hist_bucket(max_bank)
        self.segments = None
        self.outcomes = None
        self.cached = None
        self.uncached = None
        if kind == K_GLOBAL_LOAD or kind == K_GLOBAL_STORE:
            self.segments = coalesce_lines(addrs, line_bytes)

    def outcome(self, banks, key, shared_base: int) -> tuple[int, int, int, int]:
        """The bank model's verdict on this memory op, memoised under ``key``.

        Returns ``(penalty, histogram bucket, data rows, arbitration)``
        from ``banks.conflicts()``.  ``key`` must pin everything the
        verdict depends on beyond the plan: ``banks.plan_key(shared_base)``
        for a shared-memory op, the model's class for a global or local
        one.
        """
        memo = self.outcomes
        if memo is None:
            memo = self.outcomes = {}
        out = memo.get(key)
        if out is None:
            if self.segments is None:  # shared memory
                penalty, max_bank, rows, arb = banks.conflicts(
                    self.mrf_reads, self.addrs, shared_base
                )
            else:
                penalty, max_bank, rows, arb = banks.conflicts(
                    self.mrf_reads, lines=self.segments
                )
            out = memo[key] = (penalty, hist_bucket(max_bank), rows, arb)
        return out

    def replay(self, cache_enabled: bool, line_bytes: int) -> tuple:
        """``(replay kind, aux)`` of this global or local op's row.

        Built once per plan and cache mode, so every program holding the
        plan shares one ``aux`` (laid out as :class:`WarpProgram` says).
        ``line_bytes`` must be the plan's line size.
        """
        load = self.kind == K_GLOBAL_LOAD
        if not cache_enabled:
            if self.uncached is None:
                self.uncached = (
                    R_GLOBAL_LOAD_NOCACHE if load else R_GLOBAL_STORE_NOCACHE,
                    sum(sectors_per_line(self.addrs, line_bytes)),
                )
            return self.uncached
        if self.cached is None:
            aux = (self.segments, tuple(s // line_bytes for s in self.segments))
            self.cached = (
                (R_GLOBAL_LOAD, aux) if load
                else (R_GLOBAL_STORE, (*aux, sectors_per_line(self.addrs, line_bytes)))
            )
        return self.cached


#: Interned plans, ``_interned[line_bytes][key] -> OpPlan``.  A plan is a
#: pure function of ``(kind, mrf_reads, addrs)`` at a given line size --
#: including every lazily-filled field (sector facts, bank memos and
#: replay rows depend only on those inputs plus memo keys) -- so ops with
#: equal keys share one plan object.  Loop-heavy kernels repeat a small
#: set of operand/address patterns (10-60x dedup on the Table 1 suite),
#: which keeps the live-object population small (a large tracked heap
#: slows every CPython GC pass in long suite runs) and lets a plan's
#: memos warm up across ops, warps, CTAs, and even recompiles of the
#: same trace under a different register budget.
_interned: dict[int, dict[tuple, OpPlan]] = {}


def clear_plan_cache() -> None:
    """Drop all interned plans (test isolation / memory release).

    Kernels that were already lowered keep referencing their existing
    plan objects; only future lowerings re-intern.
    """
    _interned.clear()


def intern_plan(op_class: OpClass, mrf_reads, addrs, line_bytes: int) -> OpPlan:
    """The plan of one op, shared with every op of equal key.

    Raises:
        ValueError: For an op class the simulator cannot time.
    """
    table = _interned.get(line_bytes)
    if table is None:
        table = _interned[line_bytes] = {}
    key = (_KIND_BY_OPCLASS.get(op_class, -1), mrf_reads, addrs)
    pl = table.get(key)
    if pl is None:
        pl = table[key] = OpPlan(op_class, mrf_reads, addrs, line_bytes)
    return pl


class ShapeLowering:
    """Everything replay needs from one register shape of a kernel.

    Built once per :class:`~repro.compiler.pipeline._ShapeCompilation`
    of a kernel and held by every signature of the shape (the
    compilation itself is shared by every warp of the shape and never
    mutated).

    Attributes:
        arch_shape: The compilation's ``(op class, dst, srcs)`` per op.
        n_ops: Instruction count.
        deps: RAW dependency graph as a tuple of per-op producer
            tuples -- ``deps[pc]`` are the pcs whose completion gates
            issue of ``pc`` (the last writer of each source register).
        rf_totals: ``(mrf_r, mrf_w, orf_r, orf_w, lrf_r, lrf_w)``, the
            compilation's ``rf_traffic``.  The reference loop counts
            them per non-barrier op, and a barrier reads and writes no
            register, so the shape's totals are the warp's.
        plans: The interned plan of each non-memory op; ``None`` at
            memory ops, whose plans depend on the warp's addresses.
        mem: One ``(pc, op class, mrf_reads, index, slot)`` per memory
            op.  ``index`` is the trace op that supplies its addresses,
            or for a fill or spill (``slot >= 0``) its active-lane
            count.
        templates: Row templates by ``(alu, sfu, tex)`` latency (see
            :meth:`template`).
    """

    __slots__ = ("arch_shape", "n_ops", "deps", "rf_totals", "plans", "mem", "templates")

    def __init__(self, comp, line_bytes: int) -> None:
        self.arch_shape = comp.arch_shape
        n = len(comp.entries)
        self.n_ops = n
        # Last-writer RAW analysis: the reference loop's pending dict
        # resolves each source register to the completion of its most
        # recent producer; writes retire in program order, so the
        # static last-writer map is exact.
        last_writer: dict[int, int] = {}
        deps: list[tuple[int, ...]] = []
        plans: list = [None] * n
        mem = []
        for pc, (entry, (op_class, dst, srcs), tag) in enumerate(
            zip(comp.entries, comp.arch_shape, comp.tags)
        ):
            d: dict[int, None] = {}
            for r in srcs:
                p = last_writer.get(r)
                if p is not None:
                    d[p] = None
            deps.append(tuple(d))
            if dst is not None:
                last_writer[dst] = pc
            if op_class.is_memory:
                if isinstance(entry, Rewrite):
                    mem.append((pc, op_class, tag.mrf_reads, entry.index, -1))
                else:  # Fill / Spill
                    mem.append((pc, op_class, tag.mrf_reads, entry.at, entry.slot))
            else:
                # Raises for an op class the simulator cannot time.
                plans[pc] = intern_plan(op_class, tag.mrf_reads, None, line_bytes)
        self.deps = tuple(deps)
        t = comp.rf_traffic
        self.rf_totals = (
            t.mrf_reads, t.mrf_writes, t.orf_reads, t.orf_writes, t.lrf_reads, t.lrf_writes
        )
        self.plans = plans
        self.mem = tuple(mem)
        self.templates: dict[tuple, tuple] = {}

    def warp_plans(self, warp, line_bytes: int) -> tuple:
        """The interned plans of one warp's memory ops, in ``mem`` order."""
        ops = warp.trace_ops
        local_base = warp.local_base
        spill_addrs = warp.shape.spill_addrs
        return tuple([
            intern_plan(
                op_class, mrf_reads,
                ops[index].addrs if slot < 0
                else spill_addrs(local_base, slot, ops[index].active),
                line_bytes,
            )
            for _, op_class, mrf_reads, index, slot in self.mem
        ])

    def template(self, lat: tuple[int, int, int]) -> tuple[list, int, tuple]:
        """Rows every program of this shape shares, for one latency triple.

        Returns ``(rows, conflict, hist)``: ALU/SFU/TEX and barrier rows
        built, memory rows ``None`` (each program fills its own), the
        ``R_END`` row appended; and the non-memory ops' conflict cycles
        and histogram buckets.
        """
        t = self.templates.get(lat)
        if t is None:
            deps = self.deps
            rows: list = [None] * self.n_ops
            conflict = 0
            hist = [0, 0, 0, 0, 0]
            for pc, pl in enumerate(self.plans):
                if pl is None:
                    continue
                k = pl.kind
                if k == K_BARRIER:
                    rows[pc] = (R_BARRIER, 0.0, 0.0, None, deps[pc])
                else:  # ALU / SFU / TEX
                    a = 1 + pl.reg_penalty
                    rows[pc] = (R_ALU, float(a), float(a + lat[k]), None, deps[pc])
                    conflict += pl.reg_penalty
                    hist[pl.reg_bucket] += 1
            rows.append(_END_ROW)
            t = self.templates[lat] = (rows, conflict, tuple(hist))
        return t


class WarpProgram:
    """A warp signature specialised to one bank model and config.

    ``rows`` holds one ``(kind, a, b, aux, deps)`` record per op,
    terminated by an :data:`R_END` sentinel -- the interpreter's view
    (one index + unpack per op).  ``deps`` on row ``i`` are op ``i``'s
    own RAW producers, consumed when *scheduling* the op; the end row's
    deps slot is ``None`` (every real op carries a tuple), so the replay
    loops detect retirement on the field they already loaded.

    Column meaning by replay kind.  Constant adds the reference loop
    does per op (latency, the one-cycle memory-pipeline hold) are folded
    in at lowering time, so the interpreter performs one addition per
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

    ``a`` and ``b`` are floats: CPython's specialised float+float add
    is ~2x the generic float+int path, and every hot-loop use adds them
    to a float timestamp.  Folding is exact: penalties and latencies are
    integers, and adding an integer to any timestamp the simulation can
    produce is an exact float operation, so ``port_start + (penalty +
    lat)`` is bit-equal to the reference loop's ``(port_start +
    penalty) + lat``.

    ``aux`` rows: cached loads carry ``(segments, line_indices)`` -- the
    coalesced line-segment tuple plus each segment's precomputed cache
    line index (``segment // line_bytes``, hoisted out of the replay
    probe loop); uncached loads/stores the DRAM sector count; cached
    stores ``(segments, line_indices, sectors_per_line)``, each line's
    write-through burst being its sectors times the transaction size.
    Each is its plan's (:meth:`OpPlan.replay`), one object per plan.

    Non-memory rows are the shape's template rows, shared by every
    program of the shape; only memory rows are built per program.
    """

    __slots__ = ("shape", "n_ops", "rows", "totals")

    def __init__(self, shape: ShapeLowering, rows: list, totals: tuple) -> None:
        self.shape = shape
        self.n_ops = shape.n_ops
        self.rows = rows
        self.totals = totals


def _sig_table(kernel: CompiledKernel, line_bytes: int) -> tuple[list[tuple], list[list[int]]]:
    """Every warp's signature, cached on the kernel.

    Each register shape is lowered once (:class:`ShapeLowering`); each
    warp then plans only its memory ops.  Warps with equal (shape,
    memory plans) share one interned signature.  Returns ``(sigs,
    rows)``: the distinct signatures, and per CTA each warp's index into
    ``sigs`` -- what :func:`cta_plan` keys programs on.  Cached under
    ``("colsig", line_bytes)``.
    """
    cache = kernel._plan_cache
    key = ("colsig", line_bytes)
    table = cache.get(key)
    if table is not None:
        return table
    shapes: dict[int, ShapeLowering] = {}
    index: dict[tuple, int] = {}
    sigs: list[tuple] = []
    rows = []
    for cta in kernel.ctas:
        row = []
        for warp in cta.warps:
            low = shapes.get(id(warp.shape))
            if low is None:
                low = shapes[id(warp.shape)] = ShapeLowering(warp.shape, line_bytes)
            sig = (low, low.warp_plans(warp, line_bytes))
            n = index.get(sig)
            if n is None:
                n = index[sig] = len(sigs)
                sigs.append(sig)
            row.append(n)
        rows.append(row)
    table = cache[key] = (sigs, rows)
    return table


def _build_program(sig, banks, shared_base, cfg, cache_enabled) -> WarpProgram:
    """Lower one signature against a bank model and CTA base offset.

    Copies the shape's row template and fills in the memory rows with
    their bank outcomes and their plans' replay kinds and ``aux``, so a
    partition sweep pays per-memory-op rather than per-op work.
    """
    low, plans = sig
    rows, conflict, hist_t = low.template(
        (cfg.alu_latency, cfg.sfu_latency, cfg.tex_latency)
    )
    rows = rows.copy()
    line_bytes = cfg.cache_line_bytes
    shared_latency = cfg.shared_latency
    shared_key = banks.plan_key(shared_base)
    # A global/local outcome depends on neither the partition nor the
    # CTA base, so one memo entry per bank-model class serves them all.
    global_key = type(banks)
    deps = low.deps
    hist = list(hist_t)
    arb = 0
    sh_rr = sh_rw = c_rr = c_rw = tags = 0
    for m, pl in zip(low.mem, plans):
        pc = m[0]
        k = pl.kind
        if k <= K_SHARED_STORE:
            penalty, bucket, n_rows, arb_i = pl.outcome(banks, shared_key, shared_base)
            a, b = float(penalty + 1), float(penalty + shared_latency)
            rows[pc] = (R_SHARED, a, b, None, deps[pc])
            if k == K_SHARED_LOAD:
                sh_rr += n_rows
            else:
                sh_rw += n_rows
        else:  # global / local
            penalty, bucket, n_rows, arb_i = pl.outcome(banks, global_key, shared_base)
            rkind, aux = pl.replay(cache_enabled, line_bytes)
            rows[pc] = (rkind, float(penalty), float(penalty + 1), aux, deps[pc])
            if cache_enabled:
                tags += len(pl.segments)
                if k == K_GLOBAL_LOAD:
                    c_rr += n_rows
                else:
                    c_rw += n_rows
        conflict += penalty
        hist[bucket] += 1
        arb += arb_i
    totals = (
        low.n_ops,
        conflict,
        arb,
        *hist,
        *low.rf_totals,
        sh_rr, sh_rw, c_rr, c_rw, tags,
    )
    return WarpProgram(low, rows, totals)


def cta_plan(
    kernel: CompiledKernel,
    banks,
    shared_base: int,
    cfg,
    cache_enabled: bool,
    cta_index: int,
) -> list[WarpProgram]:
    """The replay programs of one resident CTA's warps, in warp order.

    Each program is cached per kernel, under ``("colprog",
    line_bytes)``, on exactly what it depends on: the bank model's memo
    key for the CTA base offset
    (:meth:`~repro.memory.banks.PartitionedBanks.plan_key`), the latency
    table, whether a cache fronts global memory, and the warp's interned
    signature: a table per (bank key, config) holds each program at its
    signature's index.  Shared-memory bases recycle as CTAs retire and
    launch, and the warps of a grid repeat few signatures, so
    steady-state simulation resolves a spawn with one table lookup and
    one list index per warp.
    """
    line_bytes = cfg.cache_line_bytes
    sigs, rows = _sig_table(kernel, line_bytes)
    tables = kernel._plan_cache.get(("colprog", line_bytes))
    if tables is None:
        tables = kernel._plan_cache[("colprog", line_bytes)] = {}
    key = (
        banks.plan_key(shared_base), cfg.alu_latency, cfg.sfu_latency, cfg.tex_latency,
        cfg.shared_latency, cache_enabled,
    )
    progs = tables.get(key)
    if progs is None:
        progs = tables[key] = [None] * len(sigs)
    out = []
    for n in rows[cta_index]:
        prog = progs[n]
        if prog is None:
            prog = progs[n] = _build_program(sigs[n], banks, shared_base, cfg, cache_enabled)
        out.append(prog)
    return out

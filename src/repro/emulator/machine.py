"""SIMT execution of thread programs.

Runs 32 threads per warp in lockstep over a
:class:`~repro.emulator.ast.Program`: expressions evaluate to real
per-lane integer values, branches split the active mask, structured
control flow reconverges at block ends, and every step emits the
corresponding :class:`~repro.isa.trace.WarpOp` -- one ALU/SFU op per
operator, loads/stores with the actual per-lane addresses, and merge
(select) ops for predicated assignments under partial masks.

Semantics notes:

* Values are 32-bit unsigned (wrapped after every operation).
* Unwritten global memory reads a deterministic per-address pattern, so
  data-dependent programs are reproducible without initialising every
  byte; pass ``global_init`` to override.
* ``bar.sync`` under a divergent mask raises (as it deadlocks on real
  hardware).
* CTAs execute in index order against one shared global-memory image,
  so inter-CTA visibility is deterministic.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.emulator.ast import (
    _OPS,
    Assign,
    Barrier,
    BinOp,
    Const,
    If,
    LoadGlobal,
    LoadShared,
    Program,
    SFU_OPS,
    Special,
    Stmt,
    StoreGlobal,
    StoreShared,
    Var,
    While,
)
from repro.isa.builder import WarpBuilder
from repro.isa.kernel import CTATrace, KernelTrace, LaunchConfig
from repro.isa.trace import WARP_SIZE, WarpOp

_MASK32 = 0xFFFFFFFF


class EmulationError(RuntimeError):
    """Thread-program execution failed (bad address, divergent barrier...)."""


class MemoryImage:
    """Sparse byte-addressed memory with a deterministic background."""

    def __init__(self, init: Callable[[int], int] | None = None) -> None:
        self._data: dict[int, int] = {}
        self._init = init or (lambda addr: (addr * 2654435761 >> 7) & _MASK32)

    def read(self, addr: int) -> int:
        if addr in self._data:
            return self._data[addr]
        return self._init(addr) & _MASK32

    def write(self, addr: int, value: int) -> None:
        self._data[addr] = value & _MASK32


class _WarpMachine:
    def __init__(
        self,
        builder: WarpBuilder,
        specials: dict[str, list[int]],
        gmem: MemoryImage,
        smem: MemoryImage,
        smem_bytes: int,
        lanes: int,
    ) -> None:
        self.b = builder
        self.gmem = gmem
        self.smem = smem
        self.smem_bytes = smem_bytes
        self.lanes = lanes
        self.values: dict[str, list[int]] = {}
        self.regs: dict[str, int] = {}
        self._const_regs: dict[int, int] = {}
        self._special_regs: dict[str, int] = {}
        self.specials = specials

    # -- expression evaluation ---------------------------------------------
    def eval(self, expr, mask: list[bool]) -> tuple[list[int], int]:
        """Returns (per-lane values, trace register holding them)."""
        n = sum(mask)
        if isinstance(expr, Const):
            reg = self._const_regs.get(expr.value)
            if reg is None:
                reg = self.b.iconst()
                self._const_regs[expr.value] = reg
            return [expr.value & _MASK32] * self.lanes, reg
        if isinstance(expr, Special):
            if expr.name not in self.specials:
                raise EmulationError(f"unknown special {expr.name!r}")
            reg = self._special_regs.get(expr.name)
            if reg is None:
                reg = self.b.iconst()
                self._special_regs[expr.name] = reg
            return list(self.specials[expr.name]), reg
        if isinstance(expr, Var):
            if expr.name not in self.values:
                raise EmulationError(f"read of undefined variable {expr.name!r}")
            return self.values[expr.name], self.regs[expr.name]
        if isinstance(expr, BinOp):
            lv, lr = self.eval(expr.left, mask)
            rv, rr = self.eval(expr.right, mask)
            fn = _OPS[expr.op]
            out = [0] * self.lanes
            for lane in range(self.lanes):
                if mask[lane]:
                    try:
                        out[lane] = fn(lv[lane], rv[lane]) & _MASK32
                    except ZeroDivisionError as e:
                        raise EmulationError(
                            f"lane {lane}: division by zero in {expr.op!r}"
                        ) from e
            emit = self.b.sfu if expr.op in SFU_OPS else self.b.alu
            reg = emit(lr, rr, active=max(1, n))
            return out, reg
        raise EmulationError(f"cannot evaluate {type(expr).__name__}")

    # -- variable binding with predication ----------------------------------
    def bind(self, var: str, vals: list[int], reg: int, mask: list[bool]) -> None:
        if var not in self.values or all(mask):
            self.values[var] = list(vals)
            self.regs[var] = reg
            return
        # Partial mask over an existing variable: a predicated write.
        old_vals = self.values[var]
        merged = [
            vals[lane] if mask[lane] else old_vals[lane] for lane in range(self.lanes)
        ]
        sel = self.b.alu(reg, self.regs[var], active=max(1, sum(mask)))
        self.values[var] = merged
        self.regs[var] = sel

    # -- statements ----------------------------------------------------------
    def run(self, stmts: Sequence[Stmt], mask: list[bool]) -> None:
        for stmt in stmts:
            if not any(mask):
                return
            self.step(stmt, mask)

    def step(self, stmt: Stmt, mask: list[bool]) -> None:
        if isinstance(stmt, Assign):
            vals, reg = self.eval(stmt.expr, mask)
            self.bind(stmt.var, vals, reg, mask)
        elif isinstance(stmt, LoadGlobal):
            self._load(stmt.var, stmt.addr, mask, shared=False)
        elif isinstance(stmt, LoadShared):
            self._load(stmt.var, stmt.addr, mask, shared=True)
        elif isinstance(stmt, StoreGlobal):
            self._store(stmt.addr, stmt.value, mask, shared=False)
        elif isinstance(stmt, StoreShared):
            self._store(stmt.addr, stmt.value, mask, shared=True)
        elif isinstance(stmt, Barrier):
            if not all(mask):
                raise EmulationError(
                    "bar.sync under a divergent mask deadlocks on real hardware"
                )
            self.b.barrier()
        elif isinstance(stmt, If):
            cvals, _ = self.eval(stmt.cond, mask)
            then_mask = [mask[l] and cvals[l] != 0 for l in range(self.lanes)]
            else_mask = [mask[l] and cvals[l] == 0 for l in range(self.lanes)]
            if any(then_mask):
                self.run(stmt.then, then_mask)
            if stmt.orelse and any(else_mask):
                self.run(stmt.orelse, else_mask)
            # Reconvergence: execution resumes under the caller's mask.
        elif isinstance(stmt, While):
            live = list(mask)
            for _ in range(stmt.max_iterations):
                cvals, _ = self.eval(stmt.cond, live)
                live = [live[l] and cvals[l] != 0 for l in range(self.lanes)]
                if not any(live):
                    return
                self.run(stmt.body, live)
            raise EmulationError(
                f"while loop exceeded {stmt.max_iterations} iterations"
            )
        else:
            raise EmulationError(f"unknown statement {type(stmt).__name__}")

    def _addrs(self, addr_expr, mask, shared: bool) -> tuple[list[int], int, list[int]]:
        avals, areg = self.eval(addr_expr, mask)
        lanes = [l for l in range(self.lanes) if mask[l]]
        addrs = [avals[l] for l in lanes]
        limit = self.smem_bytes if shared else (1 << 40)
        for a in addrs:
            if not 0 <= a < limit:
                space = "shared" if shared else "global"
                raise EmulationError(f"{space} address {a:#x} out of range")
        return addrs, areg, lanes

    def _load(self, var, addr_expr, mask, shared: bool) -> None:
        addrs, areg, lanes = self._addrs(addr_expr, mask, shared)
        mem = self.smem if shared else self.gmem
        loader = self.b.load_shared if shared else self.b.load_global
        reg = loader(addrs, areg, active=len(lanes))
        vals = [0] * self.lanes
        for l, a in zip(lanes, addrs):
            vals[l] = mem.read(a)
        self.bind(var, vals, reg, mask)

    def _store(self, addr_expr, val_expr, mask, shared: bool) -> None:
        vvals, vreg = self.eval(val_expr, mask)
        addrs, areg, lanes = self._addrs(addr_expr, mask, shared)
        mem = self.smem if shared else self.gmem
        storer = self.b.store_shared if shared else self.b.store_global
        storer(addrs, areg, vreg, active=len(lanes))
        for l, a in zip(lanes, addrs):
            mem.write(a, vvals[l])


def emulate_warp(
    program: Program | Sequence[Stmt],
    cta: int = 0,
    warp: int = 0,
    lanes: int = WARP_SIZE,
    threads_per_cta: int = WARP_SIZE,
    gmem: MemoryImage | None = None,
    smem: MemoryImage | None = None,
    smem_bytes: int = 0,
) -> list[WarpOp]:
    """Run one warp of a thread program; returns its trace."""
    stmts = program.statements if isinstance(program, Program) else tuple(program)
    b = WarpBuilder(active=lanes)
    base = cta * threads_per_cta + warp * WARP_SIZE
    specials = {
        "tid": [warp * WARP_SIZE + l for l in range(lanes)],
        "lane": list(range(lanes)),
        "warp": [warp] * lanes,
        "cta": [cta] * lanes,
        "gtid": [base + l for l in range(lanes)],
    }
    machine = _WarpMachine(
        b,
        specials,
        gmem if gmem is not None else MemoryImage(),
        smem if smem is not None else MemoryImage(),
        smem_bytes,
        lanes,
    )
    machine.run(stmts, [True] * lanes)
    return b.ops


def emulate_kernel(
    program: Program | Sequence[Stmt],
    name: str = "emulated",
    threads_per_cta: int = WARP_SIZE,
    num_ctas: int = 1,
    smem_bytes_per_cta: int = 0,
    global_init: Callable[[int], int] | None = None,
) -> KernelTrace:
    """Emulate a full launch: one trace per warp per CTA.

    CTAs run in index order against a single global-memory image;
    each CTA gets a fresh shared-memory image.
    """
    stmts = program.statements if isinstance(program, Program) else tuple(program)
    gmem = MemoryImage(global_init)
    launch = LaunchConfig(
        threads_per_cta=threads_per_cta,
        num_ctas=num_ctas,
        smem_bytes_per_cta=smem_bytes_per_cta,
    )
    ctas = []
    for c in range(num_ctas):
        smem = MemoryImage(lambda addr: 0)
        warps = [
            list(
                emulate_warp(
                    stmts,
                    cta=c,
                    warp=w,
                    threads_per_cta=threads_per_cta,
                    gmem=gmem,
                    smem=smem,
                    smem_bytes=smem_bytes_per_cta,
                )
            )
            for w in range(launch.warps_per_cta)
        ]
        ctas.append(CTATrace(warps))
    return KernelTrace(name, launch, ctas)

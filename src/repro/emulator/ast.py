"""Thread-program AST: expressions and structured statements.

Programs are written per *thread* over integer values; the executor in
:mod:`repro.emulator.machine` runs a warp of 32 threads in lockstep.
Control flow is structured (``If`` / ``While``), which fixes the
reconvergence point of every branch at its end -- the immediate
post-dominator, exactly what SIMT reconvergence stacks implement for
structured code.

Expressions support Python operator syntax (``a + b * 4``,
``x % 2 == 0``) and evaluate per-thread; comparisons yield 0/1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "//": operator.floordiv,
    "%": operator.mod,
    "^": operator.xor,
    "&": operator.and_,
    "|": operator.or_,
    ">>": operator.rshift,
    "<<": operator.lshift,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}

#: Operators whose hardware realisation is a special-function op.
SFU_OPS = frozenset({"//", "%"})


class Expr:
    """Base expression; supports Python operator overloading."""

    def _bin(self, op: str, other) -> "BinOp":
        return BinOp(op, self, _wrap(other))

    def _rbin(self, op: str, other) -> "BinOp":
        return BinOp(op, _wrap(other), self)

    def __add__(self, o):
        return self._bin("+", o)

    def __radd__(self, o):
        return self._rbin("+", o)

    def __sub__(self, o):
        return self._bin("-", o)

    def __rsub__(self, o):
        return self._rbin("-", o)

    def __mul__(self, o):
        return self._bin("*", o)

    def __rmul__(self, o):
        return self._rbin("*", o)

    def __floordiv__(self, o):
        return self._bin("//", o)

    def __mod__(self, o):
        return self._bin("%", o)

    def __xor__(self, o):
        return self._bin("^", o)

    def __and__(self, o):
        return self._bin("&", o)

    def __or__(self, o):
        return self._bin("|", o)

    def __rshift__(self, o):
        return self._bin(">>", o)

    def __lshift__(self, o):
        return self._bin("<<", o)

    def eq(self, o):
        return self._bin("==", o)

    def ne(self, o):
        return self._bin("!=", o)

    def lt(self, o):
        return self._bin("<", o)

    def le(self, o):
        return self._bin("<=", o)

    def gt(self, o):
        return self._bin(">", o)

    def ge(self, o):
        return self._bin(">=", o)


def _wrap(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, int):
        return Const(v)
    raise TypeError(f"cannot use {type(v).__name__} in a thread expression")


@dataclass(frozen=True)
class Const(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Special(Expr):
    """Built-in thread identifiers: tid (lane), warp, cta, gtid."""

    name: str  # "tid" | "warp" | "cta" | "gtid"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown operator {self.op!r}")


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------
class Stmt:
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    var: str
    expr: Expr


@dataclass(frozen=True)
class LoadGlobal(Stmt):
    var: str
    addr: Expr


@dataclass(frozen=True)
class StoreGlobal(Stmt):
    addr: Expr
    value: Expr


@dataclass(frozen=True)
class LoadShared(Stmt):
    var: str
    addr: Expr


@dataclass(frozen=True)
class StoreShared(Stmt):
    addr: Expr
    value: Expr


@dataclass(frozen=True)
class Barrier(Stmt):
    pass


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: tuple[Stmt, ...]
    max_iterations: int = 10_000


class Program:
    """Builder for a thread program with context-manager control flow.

    ::

        p = Program()
        x = p.load_global(Special("gtid") * 4 + 0x100000)
        with p.if_(x % 2 == ...):   # use .eq()/.lt()/... for comparisons
            p.store_global(Special("gtid") * 4 + 0x200000, x * 3 + 1)
        stmts = p.statements
    """

    def __init__(self) -> None:
        self._blocks: list[list[Stmt]] = [[]]
        self._fresh = 0

    # -- expression helpers ----------------------------------------------
    @staticmethod
    def special(name: str) -> Special:
        return Special(name)

    def _new_var(self, prefix: str = "t") -> str:
        self._fresh += 1
        return f"%{prefix}{self._fresh}"

    # -- statements --------------------------------------------------------
    def assign(self, expr: Expr, name: str | None = None) -> Var:
        var = name or self._new_var()
        self._blocks[-1].append(Assign(var, _wrap(expr)))
        return Var(var)

    def load_global(self, addr: Expr, name: str | None = None) -> Var:
        var = name or self._new_var("g")
        self._blocks[-1].append(LoadGlobal(var, _wrap(addr)))
        return Var(var)

    def store_global(self, addr: Expr, value: Expr) -> None:
        self._blocks[-1].append(StoreGlobal(_wrap(addr), _wrap(value)))

    def load_shared(self, addr: Expr, name: str | None = None) -> Var:
        var = name or self._new_var("s")
        self._blocks[-1].append(LoadShared(var, _wrap(addr)))
        return Var(var)

    def store_shared(self, addr: Expr, value: Expr) -> None:
        self._blocks[-1].append(StoreShared(_wrap(addr), _wrap(value)))

    def barrier(self) -> None:
        self._blocks[-1].append(Barrier())

    # -- structured control flow -------------------------------------------
    def if_(self, cond: Expr, orelse: bool = False) -> "_BlockCtx":
        return _BlockCtx(self, "if", _wrap(cond))

    def while_(self, cond: Expr, max_iterations: int = 10_000) -> "_BlockCtx":
        return _BlockCtx(self, "while", _wrap(cond), max_iterations)

    def else_(self) -> "_BlockCtx":
        last = self._blocks[-1][-1] if self._blocks[-1] else None
        if not isinstance(last, If) or last.orelse:
            raise ValueError("else_() must directly follow an if_() block")
        return _BlockCtx(self, "else", None)

    @property
    def statements(self) -> tuple[Stmt, ...]:
        if len(self._blocks) != 1:
            raise ValueError("unclosed control-flow block")
        return tuple(self._blocks[0])


class _BlockCtx:
    def __init__(self, program: Program, kind: str, cond, max_iter: int = 0):
        self.p = program
        self.kind = kind
        self.cond = cond
        self.max_iter = max_iter

    def __enter__(self):
        self.p._blocks.append([])
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        body = tuple(self.p._blocks.pop())
        top = self.p._blocks[-1]
        if self.kind == "if":
            top.append(If(self.cond, body))
        elif self.kind == "while":
            top.append(While(self.cond, body, self.max_iter))
        else:  # else: rewrite the preceding If
            prior = top.pop()
            assert isinstance(prior, If)
            top.append(If(prior.cond, prior.then, body))
        return False

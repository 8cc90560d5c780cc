"""Instruction classes and memory spaces for the warp-level mini-ISA.

The classification mirrors the categories the paper's simulator
distinguishes (Table 2 latencies, Section 5.1): arithmetic, special
function, texture, and the three data spaces (global, shared, local).
Local memory holds register spills and is backed by the global memory
path (it flows through the data cache and DRAM), exactly the coupling the
paper relies on when it reports that spills both add dynamic instructions
and increase cache pressure (Section 3.1).
"""

from __future__ import annotations

import enum


class MemSpace(enum.Enum):
    """Address space targeted by a memory instruction."""

    GLOBAL = "global"
    SHARED = "shared"
    LOCAL = "local"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MemSpace.{self.name}"


class OpClass(enum.Enum):
    """Dynamic warp-instruction classes understood by the SM simulator."""

    ALU = "alu"
    SFU = "sfu"
    LOAD_GLOBAL = "ld.global"
    STORE_GLOBAL = "st.global"
    LOAD_SHARED = "ld.shared"
    STORE_SHARED = "st.shared"
    LOAD_LOCAL = "ld.local"
    STORE_LOCAL = "st.local"
    TEX = "tex"
    BARRIER = "bar.sync"
    EXIT = "exit"

    # Enum hashes a member's name in Python code; every op, shape key and
    # plan lookup hashes op classes, and members compare by identity, so
    # hash by identity (in C) instead.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpClass.{self.name}"

    @property
    def is_memory(self) -> bool:
        """True for instructions that carry per-thread addresses."""
        return self in _MEMORY_OPS

    @property
    def is_load(self) -> bool:
        return self in _LOAD_OPS

    @property
    def is_store(self) -> bool:
        return self in _STORE_OPS

    @property
    def is_long_latency(self) -> bool:
        """True for ops after which the two-level scheduler deschedules.

        The paper's two-level warp scheduler (Section 2.1, ref [8]) moves a
        warp to the inactive set when it encounters a dependence on a
        long-latency operation: global/local memory and texture.
        """
        return self in _LONG_LATENCY_OPS

    @property
    def space(self) -> MemSpace | None:
        """Memory space for memory ops, ``None`` otherwise."""
        return _SPACE.get(self)


_MEMORY_OPS = frozenset(
    {
        OpClass.LOAD_GLOBAL,
        OpClass.STORE_GLOBAL,
        OpClass.LOAD_SHARED,
        OpClass.STORE_SHARED,
        OpClass.LOAD_LOCAL,
        OpClass.STORE_LOCAL,
    }
)

_LOAD_OPS = frozenset({OpClass.LOAD_GLOBAL, OpClass.LOAD_SHARED, OpClass.LOAD_LOCAL})

_STORE_OPS = frozenset({OpClass.STORE_GLOBAL, OpClass.STORE_SHARED, OpClass.STORE_LOCAL})

_LONG_LATENCY_OPS = frozenset(
    {
        OpClass.LOAD_GLOBAL,
        OpClass.STORE_GLOBAL,
        OpClass.LOAD_LOCAL,
        OpClass.STORE_LOCAL,
        OpClass.TEX,
    }
)

_SPACE = {
    OpClass.LOAD_GLOBAL: MemSpace.GLOBAL,
    OpClass.STORE_GLOBAL: MemSpace.GLOBAL,
    OpClass.LOAD_SHARED: MemSpace.SHARED,
    OpClass.STORE_SHARED: MemSpace.SHARED,
    OpClass.LOAD_LOCAL: MemSpace.LOCAL,
    OpClass.STORE_LOCAL: MemSpace.LOCAL,
}

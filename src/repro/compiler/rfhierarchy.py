"""Register-file-hierarchy operand tagging (MRF / ORF / LRF).

Reproduces, at compile time, the software-controlled register file
hierarchy of Gebhart et al. [9] that the paper identifies as the key
enabler of unification (Sections 2.1 and 4.3): a last result file (LRF,
one entry per thread), an operand register file (ORF, four entries per
thread), and the main register file (MRF).  Only the MRF occupies the
banked storage that the unified design merges with cache and shared
memory, so only MRF accesses participate in bank conflicts and bank
energy.

Model (greedy, matching the contract of the two-level warp scheduler):

* A *deschedule point* follows every long-latency instruction
  (global/local memory, texture) and every barrier.  The LRF and ORF are
  invalidated there -- any value live across the point must already be
  in the MRF.
* Results of single-cycle ALU ops land in the LRF and ORF; results of
  other short-latency ops (SFU, shared loads) land in the ORF.  Results
  of long-latency ops return directly to the MRF.
* The ORF holds the four most recently written registers of the current
  scheduling segment (FIFO).
* A source operand reads from the LRF if it was produced by the
  immediately preceding ALU op of the same segment; otherwise from the
  ORF if its value is still resident there; otherwise from the MRF.
* A value is written to the MRF only if some later read actually needs
  it from the MRF (lazy write-back marking).  This is the minimal set
  consistent with the deschedule contract and mirrors the compiler
  allocation of [9].
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.isa.opcodes import OpClass
from repro.compiler.regalloc import ShapeOp

#: ORF capacity in entries per thread (paper Section 2.1).
ORF_ENTRIES = 4


@dataclass(slots=True)
class OperandTags:
    """Hierarchy tags for one instruction's operands."""

    mrf_reads: tuple[int, ...] = ()
    lrf_reads: int = 0
    orf_reads: int = 0
    mrf_write: bool = False
    lrf_write: bool = False
    orf_write: bool = False


def tag_hierarchy(shape: list[ShapeOp], orf_entries: int = ORF_ENTRIES) -> list[OperandTags]:
    """Tag every operand of an architectural-register stream.

    Args:
        shape: ``(opclass, dst, srcs)`` over architectural registers,
            including any spill fills/stores already inserted.
        orf_entries: ORF capacity (default 4, per the paper).  Zero
            disables the whole hierarchy (LRF included): every operand
            is served by MRF banks -- the ablation of the paper's "key
            enabler" (Section 6.1).

    Returns:
        One :class:`OperandTags` per instruction.  ``mrf_write`` may be
        set retroactively on an earlier instruction when a later read
        needs its value from the MRF (lazy write-back marking).
    """
    tags = [OperandTags() for _ in shape]
    # (reg, producer_idx) of the value currently in the LRF, or None.
    lrf: tuple[int, int] | None = None
    # FIFO of (reg, producer_idx) currently in the ORF.
    orf: deque[tuple[int, int]] = deque(maxlen=orf_entries)
    # reg -> producer idx of its current value.
    producer: dict[int, int] = {}
    # Producers already marked as writing the MRF.
    mrf_written: set[int] = set()

    def read_source(i: int, reg: int) -> None:
        t = tags[i]
        if lrf is not None and lrf[0] == reg and producer.get(reg) == lrf[1]:
            t.lrf_reads += 1
            return
        p = producer.get(reg)
        for oreg, opidx in orf:
            if oreg == reg and p == opidx:
                t.orf_reads += 1
                return
        t.mrf_reads = (*t.mrf_reads, reg)
        if p is not None and p not in mrf_written:
            # Retroactively promote the producing instruction to write
            # the MRF: the value is being read from there.
            tags[p].mrf_write = True
            mrf_written.add(p)

    for i, (op, dst, srcs) in enumerate(shape):
        seen: set[int] = set()
        for r in srcs:
            if r in seen:
                continue  # a register read twice costs one bank access
            seen.add(r)
            read_source(i, r)
        if dst is not None:
            producer[dst] = i
            if op.is_long_latency:
                # Long-latency results return after the warp has been
                # descheduled; they write the MRF directly.
                tags[i].mrf_write = True
                mrf_written.add(i)
                lrf = None
            elif orf_entries > 0:
                tags[i].orf_write = True
                orf.append((dst, i))
                if op is OpClass.ALU:
                    tags[i].lrf_write = True
                    lrf = (dst, i)
                else:
                    lrf = None
            else:
                # Hierarchy disabled: results go straight to the MRF.
                tags[i].mrf_write = True
                mrf_written.add(i)
                lrf = None
        if op.is_long_latency or op is OpClass.BARRIER:
            # Deschedule point: LRF/ORF contents are invalidated.
            lrf = None
            orf.clear()
    return tags

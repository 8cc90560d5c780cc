"""Kernel-trace serialization.

Traces are the expensive artefact of this pipeline (the Ocelot-
equivalent step); persisting them lets a workstation generate once and a
CI sweep re-simulate many configurations, exactly how the paper's
trace-driven methodology separates tracing from simulation.

Format: a single compressed ``.npz`` holding the launch metadata plus
five parallel numpy arrays encoding every warp instruction:

* ``op``        -- opcode ordinal (uint8)
* ``dst``       -- destination vreg + 1, 0 for none (int32)
* ``srcs``      -- flattened source registers with ``src_off`` offsets
* ``addrs``     -- flattened byte addresses with ``addr_off`` offsets
* ``has_addrs`` -- 1 if the op carries an address tuple (uint8); this
  distinguishes an *empty* tuple (a fully-predicated memory op) from
  ``None``, which offset arithmetic alone cannot
* ``bounds``    -- (cta, warp) boundaries as op counts

The encoding is lossless: ``load(save(trace))`` reproduces the trace
exactly, including empty-but-present address tuples (verified by
property test).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.isa.kernel import CTATrace, KernelTrace, LaunchConfig
from repro.isa.opcodes import OpClass
from repro.isa.trace import WarpOp

_OPCODES = list(OpClass)
_OP_INDEX = {op: i for i, op in enumerate(_OPCODES)}

#: Bumped to 2 when the explicit ``has_addrs`` flag was added; version-1
#: files decoded ``addrs=()`` as ``addrs=None`` and are rejected.
FORMAT_VERSION = 2


def save_trace(trace: KernelTrace, path: str | Path) -> None:
    """Write a kernel trace to ``path`` (``.npz``)."""
    ops: list[int] = []
    dsts: list[int] = []
    srcs: list[int] = []
    src_off: list[int] = [0]
    addrs: list[int] = []
    addr_off: list[int] = [0]
    has_addrs: list[int] = []
    actives: list[int] = []
    warp_bounds: list[int] = [0]
    total = 0
    for cta in trace.ctas:
        for warp in cta.warps:
            for op in warp:
                ops.append(_OP_INDEX[op.op])
                dsts.append(0 if op.dst is None else op.dst + 1)
                srcs.extend(op.srcs)
                src_off.append(len(srcs))
                if op.addrs is not None:
                    addrs.extend(op.addrs)
                addr_off.append(len(addrs))
                has_addrs.append(op.addrs is not None)
                actives.append(op.active)
                total += 1
            warp_bounds.append(total)
    meta = {
        "version": FORMAT_VERSION,
        "name": trace.name,
        "threads_per_cta": trace.launch.threads_per_cta,
        "num_ctas": trace.launch.num_ctas,
        "smem_bytes_per_cta": trace.launch.smem_bytes_per_cta,
        "uses_texture": trace.uses_texture,
        "warps_per_cta": trace.launch.warps_per_cta,
        "opcodes": [op.value for op in _OPCODES],
    }
    np.savez_compressed(
        Path(path),
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        op=np.asarray(ops, dtype=np.uint8),
        dst=np.asarray(dsts, dtype=np.int32),
        srcs=np.asarray(srcs, dtype=np.int32),
        src_off=np.asarray(src_off, dtype=np.int64),
        addrs=np.asarray(addrs, dtype=np.int64),
        addr_off=np.asarray(addr_off, dtype=np.int64),
        has_addrs=np.asarray(has_addrs, dtype=np.uint8),
        active=np.asarray(actives, dtype=np.uint8),
        warp_bounds=np.asarray(warp_bounds, dtype=np.int64),
    )


def load_trace(path: str | Path) -> KernelTrace:
    """Read a kernel trace written by :func:`save_trace`."""
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {meta.get('version')!r}"
            )
        stored_ops = meta["opcodes"]
        current = [op.value for op in _OPCODES]
        if stored_ops != current:
            raise ValueError("opcode table mismatch; trace written by another build")
        # Decode from Python lists: indexing a numpy array per element
        # yields numpy scalars and costs more than the conversion.
        op_arr = data["op"].tolist()
        dst = data["dst"].tolist()
        srcs = data["srcs"].tolist()
        src_off = data["src_off"].tolist()
        addrs = data["addrs"].tolist()
        addr_off = data["addr_off"].tolist()
        has_addrs = data["has_addrs"].tolist()
        active = data["active"].tolist()
        warp_bounds = data["warp_bounds"].tolist()

    def decode(i: int) -> WarpOp:
        return WarpOp(
            op=_OPCODES[op_arr[i]],
            dst=None if dst[i] == 0 else dst[i] - 1,
            srcs=tuple(srcs[src_off[i] : src_off[i + 1]]),
            addrs=tuple(addrs[addr_off[i] : addr_off[i + 1]]) if has_addrs[i] else None,
            active=active[i],
        )

    launch = LaunchConfig(
        threads_per_cta=meta["threads_per_cta"],
        num_ctas=meta["num_ctas"],
        smem_bytes_per_cta=meta["smem_bytes_per_cta"],
    )
    warps_per_cta = meta["warps_per_cta"]
    ctas: list[CTATrace] = []
    w = 0
    for _ in range(meta["num_ctas"]):
        warps = []
        for _ in range(warps_per_cta):
            start, end = warp_bounds[w], warp_bounds[w + 1]
            warps.append([decode(i) for i in range(start, end)])
            w += 1
        ctas.append(CTATrace(warps))
    return KernelTrace(
        meta["name"], launch, ctas, uses_texture=meta["uses_texture"]
    )

"""Result digests: what each benchmark operation must reproduce.

Every operation reduces its outputs to named fields -- SimResult and
ChipResult fields, compile summaries, stall totals -- and hashes their
canonical JSON.  JSON renders floats with ``repr``, which round-trips
exactly, so equal digests mean bit-identical results.  ``digests.json``
beside this file holds the digests of the committed seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

COMMITTED_PATH = Path(__file__).with_name("digests.json")


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def partition_fields(p) -> list:
    return [p.style.value, p.rf_bytes, p.smem_bytes, p.cache_bytes]


def sim_fields(r, *, stalls: bool = True) -> dict:
    """Every simulated field of a SimResult."""
    out = {
        "kernel": r.kernel,
        "partition": partition_fields(r.partition),
        "cycles": r.cycles,
        "instructions": r.instructions,
        "resident_ctas": r.resident_ctas,
        "resident_threads": r.resident_threads,
        "regs_per_thread": r.regs_per_thread,
        "bank_conflict_cycles": r.bank_conflict_cycles,
        "conflict_histogram": r.conflict_histogram.to_dict(),
        "cache_stats": r.cache_stats.to_dict(),
        "dram_accesses": r.dram_accesses,
        "dram_bytes": r.dram_bytes,
        "energy_counts": asdict(r.energy_counts),
        "limiting_resource": r.limiting_resource,
        "notes": r.notes,
    }
    if stalls:
        out["stall_cycles"] = r.stall_cycles
    return out


def chip_fields(c, *, stalls: bool = True) -> dict:
    """Every simulated field of a ChipResult.

    ``stalls=False`` drops the per-SM stall totals only an instrumented
    run carries, which is how a profiled run is compared with its plain
    twin.
    """
    return {
        "kernel": c.kernel,
        "partition": partition_fields(c.partition),
        "cycles": c.cycles,
        "per_sm": [sim_fields(r, stalls=stalls) for r in c.per_sm],
        "ctas_per_sm": c.ctas_per_sm,
        "dram_channel_bytes": c.dram_channel_bytes,
        "notes": c.notes,
    }


def load_committed(path: Path = COMMITTED_PATH) -> dict:
    """``{workload: {seed: {op: digest}}}`` of the committed seeds."""
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def mismatches(reference: dict[str, str], got: dict[str, str]) -> set[str]:
    """Operations whose digest in ``got`` differs from ``reference``.

    An operation present on one side only is a mismatch too.
    """
    return {op for op in reference.keys() | got.keys() if reference.get(op) != got.get(op)}

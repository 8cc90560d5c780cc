"""ChipResult (de)serialization for the on-disk artifact cache.

A chip artifact embeds one complete per-SM result dict per SM in the
single-SM format of :mod:`repro.sm.serialize` (so per-SM entries stay
loadable with the existing tooling), plus the chip configuration and
chip-level aggregates.  The chip schema is versioned independently of
the per-SM schema: golden single-SM fixtures pin ``"version": 2`` and
must not move when the chip layer evolves.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from repro.chip.config import ChipConfig
from repro.chip.result import ChipResult
from repro.sm.config import SMConfig
from repro.sm.serialize import (
    partition_from_dict,
    partition_to_dict,
    result_from_dict,
    result_to_dict,
)

#: Bump whenever the ChipResult schema changes; cached chip artifacts
#: written under another version are stale and regenerated.
#:
#: v2: the embedded SM config grew the non-blocking memory-system
#: fields (``mshr_entries``, ``dram_banks``, ``dram_row_bytes``,
#: ``dram_row_hit_latency``), so v1 artifacts no longer round-trip.
CHIP_RESULT_FORMAT_VERSION = 2


def chip_config_to_dict(chip: ChipConfig) -> dict:
    """JSON-safe form of a chip configuration (nested SM params inline)."""
    d = {}
    for f in fields(ChipConfig):
        value = getattr(chip, f.name)
        if f.name == "sm":
            value = {g.name: getattr(value, g.name) for g in fields(SMConfig)}
        d[f.name] = value
    return d


def chip_config_from_dict(d: dict) -> ChipConfig:
    """Inverse of :func:`chip_config_to_dict`."""
    kwargs = {}
    for f in fields(ChipConfig):
        value = d[f.name]
        if f.name == "sm":
            # Tolerate absent fields so payloads written before a
            # default-valued field existed still load.
            value = SMConfig(**{
                g.name: value[g.name]
                for g in fields(SMConfig)
                if g.name in value
            })
        kwargs[f.name] = value
    return ChipConfig(**kwargs)


def chip_result_to_dict(result: ChipResult) -> dict:
    """Encode one chip simulation outcome as a JSON-compatible dict."""
    return {
        "chip_version": CHIP_RESULT_FORMAT_VERSION,
        "kernel": result.kernel,
        "partition": partition_to_dict(result.partition),
        "config": chip_config_to_dict(result.config),
        "cycles": result.cycles,
        "per_sm": [result_to_dict(r) for r in result.per_sm],
        "ctas_per_sm": result.ctas_per_sm,
        "dram_channel_bytes": result.dram_channel_bytes,
        "notes": result.notes,
    }


def chip_result_from_dict(d: dict) -> ChipResult:
    """Decode :func:`chip_result_to_dict` output.

    Raises:
        ValueError: If the dict was written under another chip schema
            version (per-SM entries additionally check their own).
    """
    if d.get("chip_version") != CHIP_RESULT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported ChipResult format version {d.get('chip_version')!r}"
        )
    return ChipResult(
        kernel=d["kernel"],
        partition=partition_from_dict(d["partition"]),
        config=chip_config_from_dict(d["config"]),
        cycles=d["cycles"],
        per_sm=[result_from_dict(r) for r in d["per_sm"]],
        ctas_per_sm=d["ctas_per_sm"],
        dram_channel_bytes=d["dram_channel_bytes"],
        notes=d["notes"],
    )


def save_chip_result(result: ChipResult, path: str | Path) -> None:
    """Write one chip outcome to ``path`` (JSON)."""
    Path(path).write_text(json.dumps(chip_result_to_dict(result)))


def load_chip_result(path: str | Path) -> ChipResult:
    """Read a chip outcome written by :func:`save_chip_result`."""
    return chip_result_from_dict(json.loads(Path(path).read_text()))

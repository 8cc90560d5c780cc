"""Run manifests: provenance records for experiment runs.

A manifest answers "what exactly produced these artifacts?" months
later: the SMConfig fingerprint (and its digest, which is what
simulation cache keys embed), every on-disk format version, the
package version, per-experiment wall-clock, and the disk-cache hit
statistics of the run.  The CLI writes one next to the
:class:`~repro.experiments.artifacts.DiskCache` artifacts after every
``experiment`` / ``suite`` / ``validate`` invocation that uses a cache
directory.

Manifests carry wall-clock timings and timestamps, so they are *not*
byte-reproducible between runs -- the deterministic counterpart is the
``--metrics-out`` file, which holds only simulation-derived numbers.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path

import repro
from repro.isa.io import FORMAT_VERSION as TRACE_FORMAT_VERSION
from repro.sm.config import SMConfig
from repro.sm.serialize import RESULT_FORMAT_VERSION

MANIFEST_SCHEMA = "repro.obs.manifest/1"


def sm_config_digest(config: SMConfig) -> str:
    """SHA-256 over the config fingerprint (stable across processes)."""
    from repro.experiments.runner import config_fingerprint

    blob = json.dumps(config_fingerprint(config), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def build_run_manifest(
    command: str,
    scale: str,
    config: SMConfig,
    jobs: int = 1,
    experiments: list[dict] | None = None,
    executor=None,
    chip: dict | None = None,
) -> dict:
    """Assemble the provenance record of one CLI run.

    Args:
        command: The invoked command line (for reproduction).
        scale: Workload scale the run used.
        config: The SMConfig simulations ran under.
        jobs: Worker process count.
        experiments: Per-experiment records, each at least
            ``{"id": ..., "seconds": ...}``.
        executor: Optional :class:`~repro.experiments.executor.Executor`
            whose phase reports and cache statistics to embed.
        chip: Optional chip-scope observability summary (the
            ``channels`` / ``dispatcher`` dicts of
            :meth:`repro.obs.chip.ChipCollector.report`), recorded when
            an instrumented chip run wrote this manifest.
    """
    from repro.experiments.runner import config_fingerprint

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "created_unix": time.time(),
        "command": command,
        "scale": scale,
        "jobs": jobs,
        "versions": {
            "repro": repro.__version__,
            "python": platform.python_version(),
            "result_format": RESULT_FORMAT_VERSION,
            "trace_format": TRACE_FORMAT_VERSION,
        },
        "sm_config": [list(pair) for pair in config_fingerprint(config)],
        "sm_config_digest": sm_config_digest(config),
        "experiments": experiments or [],
    }
    if chip is not None:
        manifest["chip"] = chip
    if executor is not None:
        manifest["phases"] = [
            {
                "label": r.label,
                "workers": r.workers,
                "jobs": len(r.outcomes),
                "wall_seconds": r.wall_seconds,
                "job_seconds": r.job_seconds,
                "expected_errors": len(r.errors),
            }
            for r in executor.reports
        ]
        cache = executor.runner.cache
        if cache is not None:
            from dataclasses import fields

            manifest["cache"] = {
                "stats": {f.name: getattr(cache.stats, f.name) for f in fields(cache.stats)},
                "entries": cache.entry_count(),
            }
    return manifest


def write_manifest(manifest: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def default_manifest_name(manifest: dict) -> str:
    """A collision-resistant file name for a manifest."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(manifest["created_unix"]))
    digest = hashlib.sha256(
        json.dumps(manifest, sort_keys=True, default=str).encode()
    ).hexdigest()[:8]
    return f"run-{stamp}-{digest}.json"

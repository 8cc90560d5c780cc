"""Persistent, content-addressed artifact cache for experiment sweeps.

The expensive artefacts of this pipeline are kernel traces (the
Ocelot-equivalent step) and simulation results.  Both are pure functions
of their inputs -- a trace of (benchmark, scale, build params), a
simulation of (trace, register budget, partition, thread target, SM
config) -- so they can be cached on disk, shared between worker
processes, and reused across runs.

Layout under the cache root::

    traces/<sha256>.npz    -- via :mod:`repro.isa.io`
    results/<sha256>.json  -- via :mod:`repro.sm.serialize`
    meta/<sha256>.json     -- small JSON artefacts (compile summaries,
                              unified allocations)
    manifests/run-*.json   -- provenance records of the runs that wrote
                              here (:mod:`repro.obs.manifest`); named by
                              timestamp + digest, never looked up by key
    spans/spans-*.json     -- executor span logs (:mod:`repro.obs.spans`)
                              plus an ``index.json`` listing them; like
                              manifests, append-only provenance

Keys are canonical JSON renderings of plain-data tuples hashed with
SHA-256, and every key embeds the relevant format version
(:data:`repro.isa.io.FORMAT_VERSION`,
:data:`repro.sm.serialize.RESULT_FORMAT_VERSION`), so a format bump
simply misses rather than mis-reads.  Invalidation rules:

* **corrupted or truncated entries** fail to decode; the entry is
  deleted and the artefact regenerated (never a crash);
* **stale entries** (written under an older format version) hash to a
  different path or fail the decoder's version check, same outcome;
* **meta entries of the wrong shape** (valid JSON the Runner cannot
  decode) are a miss to the Runner, which recomputes the artefact and
  overwrites the entry;
* writes are atomic (temp file + ``os.replace``, all in
  ``DiskCache._write``), so a killed run never leaves a half-written
  entry that a later run would trust.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.isa.io import load_trace, save_trace
from repro.isa.kernel import KernelTrace
from repro.sm.result import SimResult
from repro.sm.serialize import load_result, save_result


def _read_meta(path: Path) -> dict:
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise ValueError("meta entry must be a JSON object")
    return payload


def cache_key_digest(key: object) -> str:
    """SHA-256 of the canonical JSON rendering of a plain-data key."""
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(slots=True)
class DiskCacheStats:
    """Hit/miss accounting across one :class:`DiskCache` lifetime."""

    trace_hits: int = 0
    trace_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    meta_hits: int = 0
    meta_misses: int = 0
    invalidated: int = 0

    @property
    def hits(self) -> int:
        return self.trace_hits + self.result_hits + self.meta_hits

    @property
    def misses(self) -> int:
        return self.trace_misses + self.result_misses + self.meta_misses

    def summary(self) -> str:
        parts = [
            f"traces {self.trace_hits}/{self.trace_hits + self.trace_misses}",
            f"results {self.result_hits}/{self.result_hits + self.result_misses}",
            f"meta {self.meta_hits}/{self.meta_hits + self.meta_misses}",
        ]
        s = f"cache hits: {', '.join(parts)}"
        if self.invalidated:
            s += f"; {self.invalidated} stale/corrupt entries regenerated"
        return s


class DiskCache:
    """Content-addressed trace/result store shared by processes and runs.

    Safe for concurrent writers: the worst case is two processes
    computing the same artefact and replacing the entry with identical
    bytes.  All ``get_*`` methods return ``None`` on any decode failure
    after deleting the offending entry.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.stats = DiskCacheStats()
        for sub in ("traces", "results", "meta"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- path mapping -----------------------------------------------------
    def trace_path(self, key: object) -> Path:
        return self.root / "traces" / f"{cache_key_digest(key)}.npz"

    def result_path(self, key: object) -> Path:
        return self.root / "results" / f"{cache_key_digest(key)}.json"

    def meta_path(self, key: object) -> Path:
        return self.root / "meta" / f"{cache_key_digest(key)}.json"

    # -- the one load path and the one write path ---------------------------
    def _load(self, kind: str, path: Path, read: Callable[[Path], object]):
        """``read(path)`` as a ``kind`` hit; a miss if absent or unreadable (then deleted)."""
        value = None
        if path.exists():
            try:
                value = read(path)
            except Exception:
                self.stats.invalidated += 1
                with suppress(OSError):
                    path.unlink()
        counter = f"{kind}_{'misses' if value is None else 'hits'}"
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        return value

    @staticmethod
    def _write(path: Path, write: Callable[[Path], object]) -> Path:
        """``write`` a temp file beside ``path``, then atomically replace it."""
        tmp = path.with_name(f".{os.getpid()}-{path.name}")
        write(tmp)
        os.replace(tmp, path)
        return path

    # -- entries: traces, simulation results, small JSON artefacts ----------
    def get_trace(self, key: object) -> KernelTrace | None:
        return self._load("trace", self.trace_path(key), load_trace)

    def put_trace(self, key: object, trace: KernelTrace) -> None:
        self._write(self.trace_path(key), lambda tmp: save_trace(trace, tmp))

    def get_result(self, key: object) -> SimResult | None:
        return self._load("result", self.result_path(key), load_result)

    def put_result(self, key: object, result: SimResult) -> None:
        self._write(self.result_path(key), lambda tmp: save_result(result, tmp))

    def get_meta(self, key: object) -> dict | None:
        """A meta entry (compile summary, allocation, ...); a JSON object."""
        return self._load("meta", self.meta_path(key), _read_meta)

    def put_meta(self, key: object, payload: dict) -> None:
        self._write(self.meta_path(key), lambda tmp: tmp.write_text(json.dumps(payload)))

    # -- run manifests ------------------------------------------------------
    @staticmethod
    def _unique_path(path: Path) -> Path:
        """First non-existing ``name``, ``name-2``, ``name-3``, ... path.

        Default manifest/span names embed a wall-clock second plus a
        content digest, so many ``--jobs`` workers (or two quick serial
        runs) finishing in the same second with *different* payloads
        must not clobber each other; identical payloads may (their
        bytes match, so the replace is a no-op).
        """
        if not path.exists():
            return path
        for n in range(2, 10_000):
            candidate = path.with_name(f"{path.stem}-{n}{path.suffix}")
            if not candidate.exists():
                return candidate
        raise RuntimeError(f"could not uniquify {path}")

    def put_manifest(self, manifest: dict) -> Path:
        """Write a run's provenance record next to the artifacts it made."""
        from repro.obs.manifest import default_manifest_name, write_manifest

        directory = self.root / "manifests"
        directory.mkdir(parents=True, exist_ok=True)
        return write_manifest(
            manifest, self._unique_path(directory / default_manifest_name(manifest))
        )

    def manifest_paths(self) -> list[Path]:
        directory = self.root / "manifests"
        if not directory.is_dir():
            return []
        return sorted(directory.glob("run-*.json"))

    # -- executor span logs --------------------------------------------------
    def put_spans(self, payload: dict) -> Path:
        """Persist a ``repro.obs.spans/1`` log and index it per suite.

        The log lands next to the manifests (``spans/`` directory) with
        a uniquified timestamp+digest name; ``spans/index.json`` keeps
        one summary line per log so a fleet of runs can be enumerated
        without opening every file.
        """
        from repro.obs.spans import default_spans_name

        directory = self.root / "spans"
        directory.mkdir(parents=True, exist_ok=True)
        path = self._write(
            self._unique_path(directory / default_spans_name(payload)),
            lambda tmp: tmp.write_text(json.dumps(payload, indent=2, sort_keys=True)),
        )

        index_path = directory / "index.json"
        try:
            index = json.loads(index_path.read_text())
            if not isinstance(index, list):
                raise ValueError("spans index must be a JSON array")
        except Exception:
            index = []
        index.append(
            {
                "file": path.name,
                "created_unix": payload.get("created_unix"),
                "command": payload.get("command"),
                "jobs": payload.get("jobs"),
                "phases": [
                    p.get("label") for p in payload.get("phases", [])
                ],
            }
        )
        self._write(index_path, lambda tmp: tmp.write_text(json.dumps(index, indent=2)))
        return path

    def spans_paths(self) -> list[Path]:
        directory = self.root / "spans"
        if not directory.is_dir():
            return []
        return sorted(directory.glob("spans-*.json"))

    # -- maintenance -------------------------------------------------------
    def entry_count(self) -> dict[str, int]:
        return {
            sub: sum(1 for p in (self.root / sub).iterdir() if not p.name.startswith("."))
            for sub in ("traces", "results", "meta")
        }

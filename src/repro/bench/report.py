"""``BENCH_*.json`` payloads: schema, validation, and comparison.

One payload records one benchmark run of this working tree: a list of
``(id, seconds, runs, meta)`` entries under the ``repro.bench/1``
schema.  Comparison pairs two payloads by benchmark id and flags every
entry whose best time regressed past a multiplicative threshold -- the
contract the CI ``bench-smoke`` job and the committed before/after pair
at the repo root rely on (see ``docs/performance.md``).
"""

from __future__ import annotations

import datetime
import json
import platform
from dataclasses import dataclass, field
from pathlib import Path

import repro

#: Payload schema identifier; bump on incompatible layout changes.
SCHEMA = "repro.bench/1"

#: Fields every benchmark entry must carry.
_ENTRY_REQUIRED = ("id", "seconds", "runs")


@dataclass(slots=True)
class BenchEntry:
    """One timed benchmark.

    Attributes:
        id: Stable dotted identifier (e.g. ``micro.banks.partitioned``,
            ``sim.matrixmul.baseline``, ``suite.small``).
        seconds: Best (minimum) wall-clock time across ``runs``.
        runs: Every individual run time, in execution order.  The first
            run of a ``sim.*`` entry is the cold one (it pays plan
            precomputation); later runs are warm.
        meta: Deterministic facts about the workload (op counts,
            simulated cycles) -- machine-independent, so two payloads
            for the same revision must agree on them.
    """

    id: str
    seconds: float
    runs: list[float]
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "seconds": self.seconds,
            "runs": self.runs,
            "meta": self.meta,
        }


def timed(bench_id: str, fn, repeats: int = 3, meta: dict | None = None) -> BenchEntry:
    """Run ``fn()`` ``repeats`` times and keep the best wall-clock time.

    Args:
        bench_id: Entry identifier.
        fn: Zero-argument callable; its return value, if a dict, is
            merged into the entry metadata (last run wins), letting a
            benchmark report deterministic facts such as cycle counts.
        repeats: How many times to run ``fn`` (minimum 1).
        meta: Extra metadata stored on the entry.

    Returns:
        The timed entry with ``seconds = min(runs)``.
    """
    import gc
    import time

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    merged = dict(meta or {})
    runs: list[float] = []
    # Collector pauses land on whichever run they please, so they are
    # pure noise for a min-of-N estimator; park the collector while the
    # clock runs (standard pyperf practice) and sweep between runs.
    was_enabled = gc.isenabled()
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            out = fn()
            runs.append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        if isinstance(out, dict):
            merged.update(out)
    return BenchEntry(id=bench_id, seconds=min(runs), runs=runs, meta=merged)


def _git_sha() -> str | None:
    """The working tree's HEAD commit, or None outside a git checkout."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) == 40 else None


def provenance() -> dict:
    """Self-describing origin facts for a committed ``BENCH_*.json``.

    A baseline checked into the repo outlives the checkout that wrote
    it; this block records which revision and machine produced the
    numbers so a future regression hunt can trust (or discount) them.
    """
    prov = {
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    sha = _git_sha()
    if sha is not None:
        prov["git_sha"] = sha
    return prov


def make_payload(entries: list[BenchEntry], scale: str, repeats: int) -> dict:
    """Assemble the schema-versioned payload for a list of entries."""
    return {
        "schema": SCHEMA,
        "version": repro.__version__,
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "provenance": provenance(),
        "scale": scale,
        "repeats": repeats,
        "benchmarks": [e.to_dict() for e in sorted(entries, key=lambda e: e.id)],
    }


def validate_payload(payload: object) -> list[str]:
    """Structural check of a ``repro.bench/1`` payload.

    Returns:
        Human-readable problems; empty means the payload is valid.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    if payload.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}")
    for key in ("scale", "python", "date"):
        if not isinstance(payload.get(key), str):
            errors.append(f"{key!r} must be a string")
    # Optional: payloads written before the provenance block exist and
    # must stay valid, but when present it must be well-formed.
    prov = payload.get("provenance")
    if prov is not None:
        if not isinstance(prov, dict):
            errors.append("'provenance' must be an object")
        else:
            for key in ("repro_version", "python", "platform"):
                if not isinstance(prov.get(key), str):
                    errors.append(f"provenance.{key!r} must be a string")
            sha = prov.get("git_sha")
            if sha is not None and (
                not isinstance(sha, str) or len(sha) != 40
            ):
                errors.append("provenance.'git_sha' must be a 40-char hex string")
    benches = payload.get("benchmarks")
    if not isinstance(benches, list):
        return errors + ["'benchmarks' must be a list"]
    seen: set[str] = set()
    for i, entry in enumerate(benches):
        where = f"benchmarks[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where} must be an object")
            continue
        for key in _ENTRY_REQUIRED:
            if key not in entry:
                errors.append(f"{where} missing {key!r}")
        bench_id = entry.get("id")
        if isinstance(bench_id, str):
            if bench_id in seen:
                errors.append(f"{where}: duplicate id {bench_id!r}")
            seen.add(bench_id)
        seconds = entry.get("seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            errors.append(f"{where}: 'seconds' must be a non-negative number")
        runs = entry.get("runs")
        if not isinstance(runs, list) or not runs or not all(
            isinstance(r, (int, float)) and r >= 0 for r in runs
        ):
            errors.append(f"{where}: 'runs' must be a non-empty list of numbers")
        elif isinstance(seconds, (int, float)) and abs(seconds - min(runs)) > 1e-12:
            errors.append(f"{where}: 'seconds' must equal min(runs)")
    return errors


def write_payload(payload: dict, path: str | Path) -> Path:
    """Validate and write a payload; raises ``ValueError`` if invalid."""
    errors = validate_payload(payload)
    if errors:
        raise ValueError("invalid bench payload: " + "; ".join(errors))
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_payload(path: str | Path) -> dict:
    """Read and validate a payload; raises ``ValueError`` if invalid."""
    payload = json.loads(Path(path).read_text())
    errors = validate_payload(payload)
    if errors:
        raise ValueError(f"invalid bench payload {path}: " + "; ".join(errors))
    return payload


def default_path(root: str | Path = ".") -> Path:
    """The conventional output path: ``<root>/BENCH_<YYYY-MM-DD>.json``."""
    return Path(root) / f"BENCH_{datetime.date.today().isoformat()}.json"


@dataclass(slots=True)
class CompareRow:
    """One benchmark id matched across two payloads."""

    id: str
    old_seconds: float
    new_seconds: float

    @property
    def ratio(self) -> float:
        """``new / old``; > 1 means the benchmark got slower."""
        if self.old_seconds <= 0:
            return float("inf") if self.new_seconds > 0 else 1.0
        return self.new_seconds / self.old_seconds


#: Entries faster than this on *both* sides are never flagged: at
#: sub-10ms wall-clock, timer jitter and allocator state dwarf any code
#: delta (a 50us -> 100us "2x regression" is noise, not a slowdown).
NOISE_FLOOR_SECONDS = 0.01


@dataclass(slots=True)
class CompareReport:
    """Outcome of :func:`compare_payloads`.

    ``only_old`` / ``only_new`` are ``(id, seconds)`` pairs for the
    benchmarks present on just one side.  They are *excluded* from the
    regression verdict (there is nothing to compare against), but they
    are never silent: :meth:`format` prints them as dedicated removed/
    added sections so a renamed or dropped benchmark cannot slip
    through a green compare unnoticed.
    """

    rows: list[CompareRow]
    threshold: float
    only_old: list[tuple[str, float]]
    only_new: list[tuple[str, float]]

    @property
    def regressions(self) -> list[CompareRow]:
        return [
            r
            for r in self.rows
            if r.ratio > self.threshold
            and max(r.old_seconds, r.new_seconds) >= NOISE_FLOOR_SECONDS
        ]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        lines = [
            f"{'benchmark':<34} {'old s':>10} {'new s':>10} {'ratio':>7}",
        ]
        for r in self.rows:
            if r.ratio <= self.threshold:
                flag = ""
            elif max(r.old_seconds, r.new_seconds) < NOISE_FLOOR_SECONDS:
                flag = "  (below noise floor, ignored)"
            else:
                flag = "  << REGRESSION"
            lines.append(
                f"{r.id:<34} {r.old_seconds:>10.4f} {r.new_seconds:>10.4f} "
                f"{r.ratio:>7.3f}{flag}"
            )
        if self.only_old:
            lines.append("")
            lines.append(
                f"removed ({len(self.only_old)} benchmark(s) in the baseline "
                "only, not compared):"
            )
            for bench_id, seconds in self.only_old:
                lines.append(f"  {bench_id:<32} {seconds:>10.4f}")
        if self.only_new:
            lines.append("")
            lines.append(
                f"added ({len(self.only_new)} benchmark(s) with no baseline "
                "entry, not compared):"
            )
            for bench_id, seconds in self.only_new:
                lines.append(f"  {bench_id:<32} {seconds:>10.4f}")
        if self.only_old or self.only_new:
            lines.append("")
        verdict = (
            "OK: no benchmark slowed past "
            if self.ok
            else f"FAIL: {len(self.regressions)} benchmark(s) slowed past "
        )
        lines.append(f"{verdict}{self.threshold:.2f}x")
        if self.only_old or self.only_new:
            lines.append(
                f"note: {len(self.only_new)} added / {len(self.only_old)} "
                "removed id(s) excluded from the regression check (see above)"
            )
        return "\n".join(lines)


def compare_payloads(old: dict, new: dict, threshold: float = 1.15) -> CompareReport:
    """Pair two payloads by benchmark id and flag slowdowns.

    Args:
        old: Baseline payload (earlier revision).
        new: Candidate payload.
        threshold: Maximum tolerated ``new/old`` time ratio; entries
            above it count as regressions (``ok`` becomes False).

    Returns:
        A report with one row per id present in both payloads, plus
        ``(id, seconds)`` pairs for ids unique to either side (reported
        as removed/added sections, never counted as regressions).
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    old_by_id = {e["id"]: e for e in old["benchmarks"]}
    new_by_id = {e["id"]: e for e in new["benchmarks"]}
    rows = [
        CompareRow(id=i, old_seconds=old_by_id[i]["seconds"],
                   new_seconds=new_by_id[i]["seconds"])
        for i in sorted(old_by_id.keys() & new_by_id.keys())
    ]
    return CompareReport(
        rows=rows,
        threshold=threshold,
        only_old=[
            (i, old_by_id[i]["seconds"])
            for i in sorted(old_by_id.keys() - new_by_id.keys())
        ],
        only_new=[
            (i, new_by_id[i]["seconds"])
            for i in sorted(new_by_id.keys() - old_by_id.keys())
        ],
    )

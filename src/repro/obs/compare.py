"""Cross-run diff engine: align two runs and attribute the cycle delta.

Every claim in the paper's evaluation is comparative -- "unified vs
baseline on the same workload" -- and the repo's other observability
layers explain a *single* run.  This module explains the *difference*
between two: given two runs as payload dicts (``--metrics-out`` run
metrics, ``profile`` stall reports, chip profiles, chip interval
metrics, chip results, Perfetto traces, or run manifests), it aligns
them and emits one schema-versioned diff (:data:`DIFF_SCHEMA`,
``repro.obs.diff/1``) whose sections attribute where the cycles went:

* ``cycles`` -- totals on both sides, exact delta, and the speedup of
  B over A (``cycles_a / cycles_b``: above 1.0 means B is faster);
* ``conservation`` -- for stall reports, the invariant
  ``issue + stalls == warps x cycles`` *re-verified on both inputs*
  with exact ``fsum`` equality before any delta is trusted;
* ``stalls`` / ``attribution`` -- per-cause stall-cycle deltas, ranked
  by magnitude, so "B is 1.2x slower" comes with "and 90% of the extra
  cycles are ``mshr_full``";
* ``per_sm`` / ``channels`` -- per-SM issue/IPC and per-channel
  utilisation deltas for chip-scope payloads;
* ``simulations`` -- for run-metrics payloads, the per-simulation
  alignment (tiered: config digest, then partition, then kernel
  identity) with unmatched runs reported rather than dropped;
* ``ctas`` -- per-CTA slowdowns matched by name from the
  ``repro.obs.trace/2`` dispatch->retire Gantt slices.

:func:`diff_results` offers the same arithmetic over in-memory
:class:`~repro.sm.result.SimResult` pairs -- the experiment drivers
(``memsys``, ``figure7``) route their speedup columns through it so
every printed ratio shares one definition.  :func:`pivot_traces`
merges two Perfetto timelines side by side (``repro trace --compare``).

A run diffed against itself is exactly zero everywhere: all inputs are
finite JSON numbers, deltas are computed with ``-`` on identical
values, and the conservation re-check is equality, not tolerance.
"""

from __future__ import annotations

import json
import math

from repro.obs.chip import CHIP_PROFILE_SCHEMA, CHIPMETRICS_SCHEMA
from repro.obs.collector import STALL_CAUSES
from repro.obs.manifest import MANIFEST_SCHEMA

DIFF_SCHEMA = "repro.obs.diff/1"

PROFILE_SCHEMA = "repro.obs.profile/1"
RUN_METRICS_SCHEMA = "repro.obs.run_metrics/1"

#: Schema of the side-by-side timeline emitted by :func:`pivot_traces`.
TRACE_PIVOT_SCHEMA = "repro.obs.trace.pivot/1"

#: Payload kinds :func:`build_diff` understands.
DIFF_KINDS = (
    "run_metrics",
    "profile",
    "chip_profile",
    "chipmetrics",
    "chip_result",
    "trace",
    "manifest",
)


def payload_kind(payload: dict) -> str:
    """Classify a run payload by its schema (raises ValueError if unknown)."""
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    schema = payload.get("schema")
    if schema == RUN_METRICS_SCHEMA:
        return "run_metrics"
    if schema == PROFILE_SCHEMA:
        return "profile"
    if schema == CHIP_PROFILE_SCHEMA:
        return "chip_profile"
    if schema == CHIPMETRICS_SCHEMA:
        return "chipmetrics"
    if schema == MANIFEST_SCHEMA:
        return "manifest"
    if "traceEvents" in payload:
        return "trace"
    if "chip_version" in payload:
        return "chip_result"
    raise ValueError(
        f"unrecognised run payload (schema {schema!r}); expected one of: "
        f"{RUN_METRICS_SCHEMA}, {PROFILE_SCHEMA}, {CHIP_PROFILE_SCHEMA}, "
        f"{CHIPMETRICS_SCHEMA}, {MANIFEST_SCHEMA}, a Chrome trace, or a "
        f"chip result"
    )


def _pair(a: float, b: float) -> dict:
    return {"a": a, "b": b, "delta": b - a}


def _cycles_pair(a: float, b: float) -> dict:
    d = _pair(a, b)
    d["speedup"] = a / b if b else (1.0 if not a else None)
    return d


def _stall_delta(stalls_a: dict, stalls_b: dict) -> dict:
    causes = [c for c in STALL_CAUSES if c in stalls_a or c in stalls_b]
    causes += sorted((set(stalls_a) | set(stalls_b)) - set(causes))
    return {
        c: _pair(stalls_a.get(c, 0.0), stalls_b.get(c, 0.0)) for c in causes
    }


def _attribution(stalls: dict) -> list[dict]:
    """Per-cause deltas ranked by magnitude, with share of the total shift."""
    total = math.fsum(abs(d["delta"]) for d in stalls.values())
    rows = [
        {
            "cause": cause,
            "delta": d["delta"],
            "share": abs(d["delta"]) / total if total else 0.0,
        }
        for cause, d in stalls.items()
    ]
    rows.sort(key=lambda r: (-abs(r["delta"]), r["cause"]))
    return rows


# -- SimResult pairs (the drivers' entry point) ---------------------------
def diff_results(a, b) -> dict:
    """Diff two in-memory :class:`~repro.sm.result.SimResult` runs.

    Both runs must execute the same kernel (same total work), so the
    cycle ratio is the speedup -- the same contract as
    :meth:`SimResult.speedup_over`, which this generalises with counter
    and stall-cause deltas.
    """
    if a.kernel != b.kernel:
        raise ValueError(
            f"cannot compare runs of different kernels: "
            f"{a.kernel!r} vs {b.kernel!r}"
        )
    if a.cycles <= 0 or b.cycles <= 0:
        raise ValueError("run has no cycles")
    diff = {
        "kernel": a.kernel,
        "cycles": _cycles_pair(a.cycles, b.cycles),
        "instructions": _pair(a.instructions, b.instructions),
        "dram_accesses": _pair(a.dram_accesses, b.dram_accesses),
        "dram_bytes": _pair(a.dram_bytes, b.dram_bytes),
        "bank_conflict_cycles": _pair(
            a.bank_conflict_cycles, b.bank_conflict_cycles
        ),
    }
    if a.stall_cycles or b.stall_cycles:
        stalls = _stall_delta(a.stall_cycles, b.stall_cycles)
        diff["stalls"] = stalls
        diff["attribution"] = _attribution(stalls)
    return diff


# -- stall-report conservation re-check -----------------------------------
def _check_report(tag: str, rep: dict, problems: list[str]) -> int:
    """Re-verify ``issue + stalls == warps x cycles`` for one report."""
    total = rep.get("total_cycles")
    warps = rep.get("warps")
    if total is None or warps is None:
        problems.append(f"{tag}: report carries no warps/total_cycles")
        return 0
    attributed = math.fsum(
        [float(rep.get("issue_cycles", 0))]
        + [float(v) for v in rep.get("stall_cycles", {}).values()]
    )
    expected = warps * total
    if attributed != expected:
        problems.append(
            f"{tag}: attributed {attributed} != {expected} "
            f"== {warps} warps x {total} cycles"
        )
    return 1


def recheck_conservation(payload: dict) -> dict:
    """Re-run the stall-conservation invariant on a stall-report payload.

    Trusts nothing: the identity is recomputed from the payload's own
    numbers with ``fsum`` and exact equality, chip-wide *and* per SM
    for chip profiles.  Returns ``{"checked", "ok", "violations"}``;
    payload kinds that carry no stall report check 0 identities.
    """
    kind = payload_kind(payload)
    problems: list[str] = []
    checked = 0
    if kind == "profile":
        checked += _check_report("run", payload, problems)
    elif kind == "chip_profile":
        checked += _check_report("chip", payload, problems)
        for i, rep in enumerate(payload.get("per_sm", [])):
            checked += _check_report(f"sm{i}", rep, problems)
    return {"checked": checked, "ok": not problems, "violations": problems}


def _diff_profiles(a: dict, b: dict) -> dict:
    stalls = _stall_delta(a.get("stall_cycles", {}), b.get("stall_cycles", {}))
    sections = {
        "cycles": _cycles_pair(a.get("total_cycles", 0), b.get("total_cycles", 0)),
        "warps": _pair(a.get("warps", 0), b.get("warps", 0)),
        "issue": _pair(a.get("issue_cycles", 0), b.get("issue_cycles", 0)),
        "stalls": stalls,
        "attribution": _attribution(stalls),
        "conservation": {
            "a": recheck_conservation(a),
            "b": recheck_conservation(b),
        },
    }
    per_sm_a, per_sm_b = a.get("per_sm"), b.get("per_sm")
    if per_sm_a and per_sm_b:
        rows = []
        for i in range(min(len(per_sm_a), len(per_sm_b))):
            sm_stalls = _stall_delta(
                per_sm_a[i].get("stall_cycles", {}),
                per_sm_b[i].get("stall_cycles", {}),
            )
            shifted = _attribution(sm_stalls)
            rows.append(
                {
                    "sm": i,
                    "issue": _pair(
                        per_sm_a[i].get("issue_cycles", 0),
                        per_sm_b[i].get("issue_cycles", 0),
                    ),
                    "top_shift": shifted[0] if shifted else None,
                }
            )
        sections["per_sm"] = rows
    ch_a = (a.get("channels") or {}).get("utilisation")
    ch_b = (b.get("channels") or {}).get("utilisation")
    if ch_a is not None and ch_b is not None and len(ch_a) == len(ch_b):
        sections["channels"] = [
            {"channel": i, **_pair(ua, ub)}
            for i, (ua, ub) in enumerate(zip(ch_a, ch_b))
        ]
    return sections


# -- run metrics (--metrics-out payloads) ---------------------------------
def _sim_label(rec: dict) -> str:
    bits = [rec.get("kernel", "?")]
    if rec.get("regs") is not None:
        bits.append(f"regs={rec['regs']}")
    if rec.get("thread_target") is not None:
        bits.append(f"threads={rec['thread_target']}")
    digest = rec.get("config_digest")
    if digest:
        bits.append(f"cfg={digest[:8]}")
    return " ".join(bits)


def _sim_key(rec: dict, level: int) -> tuple:
    """Alignment key at one tier (0 strictest .. 2 loosest)."""
    base = (rec.get("kernel"), rec.get("regs"), rec.get("thread_target"))
    if level >= 2:
        return base
    base += (json.dumps(rec.get("partition"), sort_keys=True),)
    if level >= 1:
        return base
    return base + (rec.get("config_digest"),)


_ALIGNMENTS = (
    "kernel+regs+threads+partition+config",
    "kernel+regs+threads+partition",
    "kernel+regs+threads",
)


def _align_sims(recs_a: list, recs_b: list) -> tuple[list, list, list, str]:
    """Tiered alignment: strictest key that matches anything wins.

    Within one key, duplicates pair positionally (both sides are sorted
    deterministically by the metrics writer).  Cross-config compares
    (e.g. blocking vs non-blocking metrics files) fall through to the
    looser tiers instead of reporting everything unmatched.
    """
    for level, name in enumerate(_ALIGNMENTS):
        buckets_a: dict[tuple, list] = {}
        for rec in recs_a:
            buckets_a.setdefault(_sim_key(rec, level), []).append(rec)
        buckets_b: dict[tuple, list] = {}
        for rec in recs_b:
            buckets_b.setdefault(_sim_key(rec, level), []).append(rec)
        pairs, only_a, only_b = [], [], []
        for key, group_a in buckets_a.items():
            group_b = buckets_b.get(key, [])
            pairs.extend(zip(group_a, group_b))
            only_a.extend(group_a[len(group_b):])
        for key, group_b in buckets_b.items():
            group_a = buckets_a.get(key, [])
            only_b.extend(group_b[len(group_a):])
        if pairs:
            return pairs, only_a, only_b, name
    return [], list(recs_a), list(recs_b), _ALIGNMENTS[-1]


def _diff_run_metrics(a: dict, b: dict) -> dict:
    recs_a = a.get("simulations", [])
    recs_b = b.get("simulations", [])
    pairs, only_a, only_b, alignment = _align_sims(recs_a, recs_b)
    per_sim = []
    stall_totals_a: dict[str, float] = {}
    stall_totals_b: dict[str, float] = {}
    cycles_a = cycles_b = 0.0
    for ra, rb in pairs:
        cycles_a += ra.get("cycles", 0.0)
        cycles_b += rb.get("cycles", 0.0)
        row = {
            "label": _sim_label(ra),
            "kernel": ra.get("kernel"),
            "cycles": _cycles_pair(ra.get("cycles", 0.0), rb.get("cycles", 0.0)),
            "instructions": _pair(
                ra.get("instructions", 0), rb.get("instructions", 0)
            ),
            "dram_accesses": _pair(
                ra.get("dram_accesses", 0), rb.get("dram_accesses", 0)
            ),
        }
        sa, sb = ra.get("stall_cycles") or {}, rb.get("stall_cycles") or {}
        if sa or sb:
            row["stalls"] = _stall_delta(sa, sb)
            for cause, v in sa.items():
                stall_totals_a[cause] = stall_totals_a.get(cause, 0.0) + v
            for cause, v in sb.items():
                stall_totals_b[cause] = stall_totals_b.get(cause, 0.0) + v
        per_sim.append(row)
    per_sim.sort(key=lambda r: (-abs(r["cycles"]["delta"]), r["label"]))
    sections = {
        "cycles": _cycles_pair(cycles_a, cycles_b),
        "simulations": {
            "matched": len(pairs),
            "alignment": alignment,
            "only_a": sorted(_sim_label(r) for r in only_a),
            "only_b": sorted(_sim_label(r) for r in only_b),
            "per_sim": per_sim,
        },
        "conservation": {
            "a": recheck_conservation(a),
            "b": recheck_conservation(b),
        },
    }
    if stall_totals_a or stall_totals_b:
        stalls = _stall_delta(stall_totals_a, stall_totals_b)
        sections["stalls"] = stalls
        sections["attribution"] = _attribution(stalls)
    return sections


# -- chip interval metrics ------------------------------------------------
def _weighted_mean(samples: list, pick) -> float:
    num = math.fsum(pick(s) * (s["end"] - s["start"]) for s in samples)
    den = math.fsum(s["end"] - s["start"] for s in samples)
    return num / den if den else 0.0


def _diff_chipmetrics(a: dict, b: dict) -> dict:
    sections = {
        "cycles": _cycles_pair(a.get("total_cycles", 0), b.get("total_cycles", 0)),
    }
    sams_a, sams_b = a.get("samples", []), b.get("samples", [])
    n_sms = min(a.get("num_sms", 0), b.get("num_sms", 0))
    sections["per_sm"] = [
        {
            "sm": i,
            **_pair(
                _weighted_mean(sams_a, lambda s, i=i: s["per_sm_ipc"][i]),
                _weighted_mean(sams_b, lambda s, i=i: s["per_sm_ipc"][i]),
            ),
        }
        for i in range(n_sms)
    ]
    n_ch = min(a.get("dram_channels", 0), b.get("dram_channels", 0))
    sections["channels"] = [
        {
            "channel": c,
            **_pair(
                _weighted_mean(sams_a, lambda s, c=c: s["channel_utilisation"][c]),
                _weighted_mean(sams_b, lambda s, c=c: s["channel_utilisation"][c]),
            ),
        }
        for c in range(n_ch)
    ]
    return sections


# -- serialized chip results ----------------------------------------------
def _diff_chip_results(a: dict, b: dict) -> dict:
    sections = {
        "cycles": _cycles_pair(a.get("cycles", 0), b.get("cycles", 0)),
        "ctas_per_sm": {"a": a.get("ctas_per_sm"), "b": b.get("ctas_per_sm")},
    }
    per_a, per_b = a.get("per_sm", []), b.get("per_sm", [])
    sections["per_sm"] = [
        {
            "sm": i,
            "cycles": _cycles_pair(sa.get("cycles", 0), sb.get("cycles", 0)),
            "instructions": _pair(
                sa.get("instructions", 0), sb.get("instructions", 0)
            ),
        }
        for i, (sa, sb) in enumerate(zip(per_a, per_b))
    ]
    ch_a, ch_b = a.get("dram_channel_bytes"), b.get("dram_channel_bytes")
    if ch_a is not None and ch_b is not None and len(ch_a) == len(ch_b):
        sections["channels"] = [
            {"channel": i, **_pair(ba, bb)}
            for i, (ba, bb) in enumerate(zip(ch_a, ch_b))
        ]
    return sections


# -- traces ---------------------------------------------------------------
def _cta_gantt(trace: dict) -> dict[str, dict]:
    out = {}
    for ev in trace.get("traceEvents", []):
        if ev.get("ph") == "X" and ev.get("cat") == "cta":
            out[ev["name"]] = {
                "sm": ev.get("tid"),
                "start": ev.get("ts", 0.0),
                "cycles": ev.get("dur", 0.0),
            }
    return out


def cta_slowdowns(trace_a: dict, trace_b: dict) -> dict:
    """Per-CTA slowdown of B over A from dispatch->retire Gantt slices.

    Matches CTA slices by name across two ``repro.obs.trace/1`` or
    ``/2`` payloads (trace time is 1 us per simulated cycle, so slice
    durations *are* cycle counts).  The ranked result is the
    explainability hook the ROADMAP's allocation-policy autotuner
    needs: "which CTAs paid for this policy change, and on which SM?"
    """
    ga, gb = _cta_gantt(trace_a), _cta_gantt(trace_b)
    rows = []
    for name in ga.keys() & gb.keys():
        ca, cb = ga[name], gb[name]
        rows.append(
            {
                "cta": name,
                "sm_a": ca["sm"],
                "sm_b": cb["sm"],
                "cycles": _cycles_pair(ca["cycles"], cb["cycles"]),
                "slowdown": (
                    cb["cycles"] / ca["cycles"] if ca["cycles"] else None
                ),
            }
        )
    rows.sort(key=lambda r: (-abs(r["cycles"]["delta"]), r["cta"]))
    return {
        "matched": len(rows),
        "only_a": sorted(ga.keys() - gb.keys()),
        "only_b": sorted(gb.keys() - ga.keys()),
        "slowdowns": rows,
    }


def _trace_makespan(trace: dict) -> float:
    return max(
        (
            ev.get("ts", 0.0) + ev.get("dur", 0.0)
            for ev in trace.get("traceEvents", [])
            if ev.get("ph") == "X"
        ),
        default=0.0,
    )


def _diff_traces(a: dict, b: dict) -> dict:
    return {
        "cycles": _cycles_pair(_trace_makespan(a), _trace_makespan(b)),
        "ctas": cta_slowdowns(a, b),
    }


def pivot_traces(
    trace_a: dict, trace_b: dict, label_a: str = "A", label_b: str = "B"
) -> dict:
    """Merge two Perfetto timelines side by side in one payload.

    B's process ids are offset past A's so the two runs stack as
    separate process groups, each prefixed with its label -- the
    ``repro trace --compare`` output.  Timestamps are untouched, so
    vertically aligned slices happened at the same simulated cycle.
    """
    events_a = trace_a.get("traceEvents", [])
    events_b = trace_b.get("traceEvents", [])
    offset = max((ev.get("pid", 0) for ev in events_a), default=0) + 1

    def relabel(ev: dict, label: str, pid_offset: int) -> dict:
        out = dict(ev)
        out["pid"] = ev.get("pid", 0) + pid_offset
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            out["args"] = {"name": f"{label}: {ev.get('args', {}).get('name', '')}"}
        return out

    events = [relabel(ev, label_a, 0) for ev in events_a]
    events += [relabel(ev, label_b, offset) for ev in events_b]
    dropped = sum(
        t.get("otherData", {}).get("droppedEvents", 0) for t in (trace_a, trace_b)
    )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_PIVOT_SCHEMA,
            "clock": "1 simulated cycle = 1 us of trace time",
            "droppedEvents": dropped,
            "a": {"label": label_a,
                  "schema": trace_a.get("otherData", {}).get("schema")},
            "b": {"label": label_b,
                  "schema": trace_b.get("otherData", {}).get("schema")},
            "pid_offset_b": offset,
        },
    }


# -- manifests ------------------------------------------------------------
def _diff_manifests(a: dict, b: dict) -> dict:
    versions = {}
    for key in sorted(set(a.get("versions", {})) | set(b.get("versions", {}))):
        va, vb = a.get("versions", {}).get(key), b.get("versions", {}).get(key)
        if va != vb:
            versions[key] = {"a": va, "b": vb}
    wall_a = math.fsum(p.get("wall_seconds", 0.0) for p in a.get("phases", []))
    wall_b = math.fsum(p.get("wall_seconds", 0.0) for p in b.get("phases", []))
    return {
        "same_config": a.get("sm_config_digest") == b.get("sm_config_digest"),
        "config_digest": {
            "a": a.get("sm_config_digest"),
            "b": b.get("sm_config_digest"),
        },
        "scale": {"a": a.get("scale"), "b": b.get("scale")},
        "versions_changed": versions,
        "wall_seconds": _pair(wall_a, wall_b),
    }


# -- the envelope ---------------------------------------------------------
_SECTION_BUILDERS = {
    "run_metrics": _diff_run_metrics,
    "profile": _diff_profiles,
    "chip_profile": _diff_profiles,
    "chipmetrics": _diff_chipmetrics,
    "chip_result": _diff_chip_results,
    "trace": _diff_traces,
    "manifest": _diff_manifests,
}


def build_diff(
    a: dict, b: dict, *, label_a: str = "A", label_b: str = "B"
) -> dict:
    """Diff two run payloads of the same kind into one ``diff/1`` record.

    Raises ValueError when the payloads are unrecognised or of
    different kinds (a profile cannot diff against a trace).
    """
    kind_a, kind_b = payload_kind(a), payload_kind(b)
    if kind_a != kind_b:
        raise ValueError(f"cannot diff {kind_a} payload against {kind_b} payload")
    diff = {
        "schema": DIFF_SCHEMA,
        "kind": kind_a,
        "a": {"label": label_a, "schema": a.get("schema")},
        "b": {"label": label_b, "schema": b.get("schema")},
    }
    diff.update(_SECTION_BUILDERS[kind_a](a, b))
    return diff


def validate_diff(payload: dict) -> list[str]:
    """Structural checks for a ``repro.obs.diff/1`` payload.

    Returns a list of problems (empty = valid).  Beyond shape, the
    arithmetic is re-verified: every ``{a, b, delta}`` triple anywhere
    in the payload must satisfy ``delta == b - a`` exactly.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload must be a JSON object"]
    if payload.get("schema") != DIFF_SCHEMA:
        problems.append(f"schema must be {DIFF_SCHEMA!r}")
    if payload.get("kind") not in DIFF_KINDS:
        problems.append(f"kind must be one of {DIFF_KINDS}")
    for side in ("a", "b"):
        meta = payload.get(side)
        if not isinstance(meta, dict) or not isinstance(meta.get("label"), str):
            problems.append(f"{side} must be an object with a label")

    def walk(node, path):
        if len(problems) >= 20:
            return
        if isinstance(node, dict):
            if (
                isinstance(node.get("a"), (int, float))
                and isinstance(node.get("b"), (int, float))
                and "delta" in node
            ):
                if node["delta"] != node["b"] - node["a"]:
                    problems.append(
                        f"{path}: delta {node['delta']} != "
                        f"{node['b']} - {node['a']}"
                    )
            for key, value in node.items():
                walk(value, f"{path}.{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")

    walk({k: v for k, v in payload.items() if k not in ("a", "b")}, "diff")
    cons = payload.get("conservation")
    if cons is not None:
        for side in ("a", "b"):
            entry = cons.get(side)
            if not isinstance(entry, dict) or not {
                "checked", "ok", "violations"
            } <= set(entry):
                problems.append(f"conservation.{side} malformed")
    if len(problems) >= 20:
        problems.append("... (further problems suppressed)")
    return problems


def format_diff(payload: dict) -> str:
    """Human-readable rendering of a diff (the ``repro compare`` output)."""
    la = payload["a"]["label"]
    lb = payload["b"]["label"]
    lines = [f"diff ({payload['kind']}): A = {la}  vs  B = {lb}"]
    cycles = payload.get("cycles")
    if cycles is not None:
        speedup = cycles.get("speedup")
        lines.append(
            f"cycles: {cycles['a']:.0f} -> {cycles['b']:.0f} "
            f"(delta {cycles['delta']:+.0f}"
            + (f", B speedup {speedup:.3f}x" if speedup is not None else "")
            + ")"
        )
    cons = payload.get("conservation")
    if cons is not None:
        for side, label in (("a", la), ("b", lb)):
            entry = cons[side]
            if not entry["checked"]:
                lines.append(f"conservation [{label}]: no stall report to check")
            elif entry["ok"]:
                lines.append(
                    f"conservation [{label}]: ok "
                    f"({entry['checked']} identities re-verified exactly)"
                )
            else:
                lines.append(f"conservation [{label}]: VIOLATED")
                lines.extend(f"  {v}" for v in entry["violations"][:5])
    attribution = payload.get("attribution")
    if attribution:
        shifted = [r for r in attribution if r["delta"]]
        if shifted:
            lines.append("stall-cycle delta by cause (warp-cycles, B - A):")
            lines.extend(
                f"  {r['cause']:<14} {r['delta']:+14.1f}  ({r['share']:.0%})"
                for r in shifted[:8]
            )
        else:
            lines.append("stall-cycle delta by cause: none (identical)")
    sims = payload.get("simulations")
    if isinstance(sims, dict):
        lines.append(
            f"simulations: {sims['matched']} matched "
            f"(by {sims['alignment']}), "
            f"{len(sims['only_a'])} only in A, {len(sims['only_b'])} only in B"
        )
        moved = [r for r in sims["per_sim"] if r["cycles"]["delta"]]
        for r in moved[:5]:
            lines.append(
                f"  {r['label']:<40} {r['cycles']['a']:>12.0f} -> "
                f"{r['cycles']['b']:>12.0f}  ({r['cycles']['delta']:+.0f})"
            )
        for label in sims["only_a"][:3]:
            lines.append(f"  only in A: {label}")
        for label in sims["only_b"][:3]:
            lines.append(f"  only in B: {label}")
    per_sm = payload.get("per_sm")
    if per_sm and payload["kind"] == "chipmetrics":
        lines.append("per-SM mean IPC delta:")
        lines.extend(
            f"  sm{r['sm']}: {r['a']:.3f} -> {r['b']:.3f} ({r['delta']:+.3f})"
            for r in per_sm
        )
    channels = payload.get("channels")
    if channels and isinstance(channels, list):
        moved = [c for c in channels if c.get("delta")]
        if moved:
            lines.append("channel deltas:")
            lines.extend(
                f"  ch{c['channel']}: {c['a']:.4g} -> {c['b']:.4g} "
                f"({c['delta']:+.4g})"
                for c in moved[:8]
            )
    ctas = payload.get("ctas")
    if isinstance(ctas, dict):
        lines.append(
            f"ctas: {ctas['matched']} matched, "
            f"{len(ctas['only_a'])} only in A, {len(ctas['only_b'])} only in B"
        )
        moved = [r for r in ctas["slowdowns"] if r["cycles"]["delta"]]
        if moved:
            lines.append("top CTA slowdowns (B / A):")
            for r in moved[:10]:
                slowdown = r["slowdown"]
                lines.append(
                    f"  {r['cta']:<8} sm{r['sm_a']}->sm{r['sm_b']}  "
                    f"{r['cycles']['a']:.0f} -> {r['cycles']['b']:.0f} cycles"
                    + (f"  ({slowdown:.3f}x)" if slowdown is not None else "")
                )
        else:
            lines.append("per-CTA lifetimes identical")
    if payload["kind"] == "manifest":
        lines.append(
            "sm config: "
            + ("identical" if payload["same_config"] else "DIFFERENT")
        )
        for key, v in payload.get("versions_changed", {}).items():
            lines.append(f"  version {key}: {v['a']} -> {v['b']}")
        wall = payload["wall_seconds"]
        lines.append(
            f"wall-clock: {wall['a']:.2f}s -> {wall['b']:.2f}s "
            f"({wall['delta']:+.2f}s)"
        )
    return "\n".join(lines)


def conservation_violated(payload: dict) -> bool:
    """True when either side's re-checked invariant failed (CLI exit 1)."""
    cons = payload.get("conservation")
    if not isinstance(cons, dict):
        return False
    return any(
        isinstance(cons.get(side), dict) and not cons[side].get("ok", True)
        for side in ("a", "b")
    )

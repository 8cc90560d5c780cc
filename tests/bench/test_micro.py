"""Microbenchmark and CLI smoke tests (tiny scale, single repeat)."""

from repro.bench.micro import (
    bench_banks,
    bench_cache,
    bench_coalescer,
    bench_lower,
    bench_trace,
    run_micro,
)
from repro.bench.report import make_payload, validate_payload


def test_component_benches_report_deterministic_meta():
    a = bench_coalescer("tiny", repeats=1)
    b = bench_coalescer("tiny", repeats=1)
    assert [e.meta for e in a] == [e.meta for e in b]
    (cache_entry,) = bench_cache("tiny", repeats=1)
    assert cache_entry.meta["reads"] > 0
    assert 0 < cache_entry.meta["read_hits"] < cache_entry.meta["reads"]


def test_bank_benches_count_outcomes():
    part, uni = bench_banks("tiny", repeats=1)
    assert (part.id, uni.id) == ("micro.banks.partitioned", "micro.banks.unified")
    for entry in (part, uni):
        meta = entry.meta
        assert sum(meta["buckets"].values()) == meta["accesses"] > 0
        assert meta["rows"] > 0
    assert "arbitration" not in part.meta
    assert uni.meta["penalty"] > 0 and uni.meta["arbitration"] > 0


def test_trace_benches_agree_on_meta():
    build, load = bench_trace("tiny", repeats=1)
    assert (build.id, load.id) == ("micro.trace.build", "micro.trace.load")
    assert build.meta["warp_ops"] > 0
    assert build.meta == load.meta


def test_lower_bench_counts_the_lowering():
    a = bench_lower("tiny", repeats=2)
    (entry,) = a
    assert entry.id == "micro.lower" and len(entry.runs) == 2
    meta = entry.meta
    # Shapes are shared by warps, signatures by equal-address warps of
    # one shape, and every signature has a program at shared base 0.
    assert 0 < meta["shapes"] <= meta["signatures"] <= meta["warps"]
    assert meta["programs"] == meta["signatures"]
    assert bench_lower("tiny", repeats=1)[0].meta == meta


def test_run_micro_payload_validates():
    entries = run_micro("tiny", repeats=1)
    ids = {e.id for e in entries}
    assert {"micro.banks.partitioned", "micro.banks.unified",
            "micro.cache.readwrite", "micro.coalescer.lines",
            "sim.matrixmul.baseline", "sim.vectoradd.unified384",
            "sim.matrixmul.nonblocking", "sim.matrixmul.chip4",
            "sim.matrixmul.chip4.partitioned",
            "sim.matrixmul.chip4.profiled"} <= ids
    payload = make_payload(entries, scale="tiny", repeats=1)
    assert validate_payload(payload) == []
    # sim.* entries pin simulated cycles -- the cheap cycle-identity check.
    for e in entries:
        if e.id.startswith("sim."):
            assert e.meta["cycles"] > 0
            assert e.meta["instructions"] > 0
    chip4 = [e for e in entries if e.id.startswith("sim.matrixmul.chip4")]
    assert [e.meta["sms"] for e in chip4] == [4, 4, 4]
    (profiled,) = [e for e in chip4 if e.id.endswith(".profiled")]
    assert profiled.meta["trace_events"] > 0


def test_cli_bench_writes_valid_payload(tmp_path, capsys):
    from repro.bench.report import load_payload
    from repro.cli import main

    out = tmp_path / "BENCH_smoke.json"
    rc = main(["bench", "--scale", "tiny", "--repeats", "1", "-q",
               "--only", "micro.coalescer,micro.cache", "--no-suite",
               "--out", str(out)])
    assert rc == 0
    payload = load_payload(out)
    assert {e["id"] for e in payload["benchmarks"]} == {
        "micro.coalescer.lines", "micro.coalescer.sectors",
        "micro.cache.readwrite",
    }
    assert "wrote 3 benchmarks" in capsys.readouterr().out


def test_cli_bench_rejects_empty_selection(tmp_path):
    from repro.cli import main

    rc = main(["bench", "--scale", "tiny", "--repeats", "1", "-q",
               "--only", "nosuch.prefix", "--no-suite",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_suite_bench_tiny_subset():
    from repro.bench.suite import run_suite

    entries = run_suite("tiny", only=("table4", "figure8"))
    ids = [e.id for e in entries]
    assert ids == ["suite.exp.table4", "suite.exp.figure8", "suite.tiny"]
    total = entries[-1]
    assert total.meta["experiments"] == 2
    assert total.seconds >= max(e.seconds for e in entries[:-1])

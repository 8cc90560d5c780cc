"""Tests for the command-line interface."""

import json
from contextlib import nullcontext

import pytest

from repro.cli import main
from tests.util import reference_loop


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("needle", "dgemm", "vectoradd", "gpu-mummer"):
            assert name in out


class TestRun:
    def test_unified_run_prints_allocation_and_comparison(self, capsys):
        assert main(["run", "vectoradd", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "allocation:" in out
        assert "speedup" in out

    def test_baseline_run(self, capsys):
        assert main(["run", "vectoradd", "--scale", "tiny", "--design", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "speedup" not in out  # nothing to compare against

    def test_fermi_run(self, capsys):
        assert main(["run", "bfs", "--scale", "tiny", "--design", "fermi"]) == 0
        assert "fermi-like" in capsys.readouterr().out

    def test_thread_and_reg_overrides(self, capsys):
        assert main(
            ["run", "pcr", "--scale", "tiny", "--threads", "256", "--regs", "24"]
        ) == 0
        assert "256 threads" in capsys.readouterr().out

    def test_unknown_benchmark_errors(self):
        with pytest.raises(KeyError):
            main(["run", "nosuch", "--scale", "tiny"])

    @pytest.mark.parametrize(
        "argv, expected",
        (
            (["run", "--dram-row-hit-latency", "500"], "dram_row_hit_latency"),
            (["profile", "--dram-row-hit-latency", "500"],
             "dram_row_hit_latency"),
            (["chip", "--dram-row-hit-latency", "500"], "dram_row_hit_latency"),
            (["chip", "--sms", "2", "--total-bw", "0"], "--total-bw"),
            (["chip", "--sms", "2", "--total-bw", "-5"], "--total-bw"),
            (["run", "--regs", "0"], "--regs"),
            (["run", "--capacity", "0"], "--capacity"),
            (["run", "--threads", "0"], "--threads"),
            (["autotune", "--capacity", "0"], "--capacity"),
        ),
        ids=(
            "run-row-hit-latency", "profile-row-hit-latency",
            "chip-row-hit-latency", "chip-total-bw-zero",
            "chip-total-bw-negative", "run-regs", "run-capacity",
            "run-threads", "autotune-capacity",
        ),
    )
    def test_rejected_flag_value_is_usage_error(self, capsys, argv, expected):
        command, *flags = argv
        with pytest.raises(SystemExit) as exc:
            main([command, "vectoradd", "--scale", "tiny", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {command}: error:" in err
        assert expected in err
        assert "Traceback" not in err


class TestChip:
    def test_two_sm_run_prints_per_sm_table_and_energy(self, capsys):
        assert main(
            ["chip", "matrixmul", "--scale", "tiny", "--sms", "2", "-q"]
        ) == 0
        out = capsys.readouterr().out
        assert "Per-SM results" in out
        assert "2 SMs" in out
        assert "channel utilisation" in out
        assert "energy (measured per-SM)" in out

    def test_partitioned_dram_skips_channel_report(self, capsys):
        assert main(
            ["chip", "matrixmul", "--scale", "tiny", "--sms", "2",
             "--partitioned-dram", "-q"]
        ) == 0
        out = capsys.readouterr().out
        assert "channel utilisation" not in out

    def test_metrics_and_manifest(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        metrics = tmp_path / "chip.json"
        assert main(
            ["chip", "vectoradd", "--scale", "tiny", "--sms", "2",
             "--design", "baseline", "--cache-dir", str(cache),
             "--metrics-out", str(metrics), "-q"]
        ) == 0
        capsys.readouterr()
        payload = json.loads(metrics.read_text())
        assert payload["chip_version"] == 2
        assert len(payload["per_sm"]) == 2
        assert payload["config"]["num_sms"] == 2
        assert len(list((cache / "manifests").glob("run-*.json"))) == 1

    def test_metrics_out_identical_across_jobs(self, capsys, tmp_path):
        texts = []
        for jobs in ("1", "4"):
            metrics = tmp_path / f"chip-j{jobs}.json"
            assert main(
                ["chip", "vectoradd", "--scale", "tiny", "--sms", "2",
                 "--design", "baseline", "--jobs", jobs,
                 "--metrics-out", str(metrics), "-q"]
            ) == 0
            capsys.readouterr()
            texts.append(metrics.read_bytes())
        assert texts[0] == texts[1]

    def test_profile_flag_adds_top_stall_and_rollup(self, capsys):
        assert main(
            ["chip", "matrixmul", "--scale", "tiny", "--sms", "2",
             "--design", "baseline", "--profile", "-q"]
        ) == 0
        out = capsys.readouterr().out
        assert "top stall" in out
        assert "chip stall roll-up" in out
        assert "issue " in out

    def test_without_profile_no_stall_column(self, capsys):
        assert main(
            ["chip", "matrixmul", "--scale", "tiny", "--sms", "2",
             "--design", "baseline", "-q"]
        ) == 0
        out = capsys.readouterr().out
        assert "top stall" not in out

    def test_profile_manifest_records_chip_stats(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(
            ["chip", "vectoradd", "--scale", "tiny", "--sms", "2",
             "--design", "baseline", "--profile",
             "--cache-dir", str(cache), "-q"]
        ) == 0
        capsys.readouterr()
        manifest = json.loads(
            next((cache / "manifests").glob("run-*.json")).read_text()
        )
        chip = manifest["chip"]
        assert len(chip["channels"]["bytes"]) == 8
        assert chip["dispatcher"]["ctas_dispatched"] > 0
        assert len(chip["dispatcher"]["ctas_per_sm"]) == 2


class TestExperiment:
    def test_table4(self, capsys):
        assert main(["experiment", "table4"]) == 0
        assert "SRAM bank access energy" in capsys.readouterr().out

    def test_figure8(self, capsys):
        assert main(["experiment", "figure8", "--scale", "tiny"]) == 0
        assert "384KB unified memory partitioning" in capsys.readouterr().out

    def test_unknown_id(self, capsys):
        assert main(["experiment", "nosuch"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_metrics_out_identical_across_jobs(self, capsys, tmp_path):
        m1, m4 = tmp_path / "m1.json", tmp_path / "m4.json"
        argv = ["experiment", "figure8", "--scale", "tiny", "-q"]
        assert main(argv + ["--jobs", "1", "--metrics-out", str(m1)]) == 0
        assert main(argv + ["--jobs", "4", "--metrics-out", str(m4)]) == 0
        capsys.readouterr()
        assert m1.read_bytes() == m4.read_bytes()
        payload = json.loads(m1.read_text())
        assert payload["schema"] == "repro.obs.run_metrics/1"
        assert payload["totals"]["simulations"] == len(payload["simulations"])
        assert payload["experiments"][0]["id"] == "figure8"

    def test_cache_dir_writes_manifest(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(
            ["experiment", "table4", "--cache-dir", str(cache)]
        ) == 0
        capsys.readouterr()
        manifests = list((cache / "manifests").glob("run-*.json"))
        assert len(manifests) == 1
        m = json.loads(manifests[0].read_text())
        assert m["schema"] == "repro.obs.manifest/1"
        assert m["command"].startswith("repro experiment table4")
        assert m["versions"]["result_format"] >= 2
        assert m["sm_config_digest"]
        assert m["cache"]["entries"]


class TestSuite:
    def test_only_selects_experiments(self, capsys):
        assert main(["suite", "--scale", "tiny", "--only", " table4 ,"]) == 0
        assert "SRAM bank access energy" in capsys.readouterr().out

    def test_empty_only_is_a_clean_error(self, capsys):
        assert main(["suite", "--scale", "tiny", "--only", " , "]) == 2
        assert "selects no experiments" in capsys.readouterr().err

    def test_unknown_only_rejected(self, capsys):
        assert main(["suite", "--scale", "tiny", "--only", "table4,nosuch"]) == 2
        assert "unknown experiment(s): nosuch" in capsys.readouterr().err


class TestProfileAndTrace:
    def test_profile_prints_attribution(self, capsys):
        assert main(
            ["profile", "matrixmul", "--scale", "tiny", "--design", "baseline"]
        ) == 0
        captured = capsys.readouterr()
        assert "Stall attribution" in captured.out
        for cause in ("issue", "raw", "memory", "issue_port", "barrier"):
            assert cause in captured.out
        assert "conservation" in captured.err

    def test_profile_writes_metrics_and_trace(self, capsys, tmp_path):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        assert main(
            ["profile", "vectoradd", "--scale", "tiny", "--design", "baseline",
             "--window", "500", "--metrics-out", str(metrics),
             "--trace-out", str(trace)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(metrics.read_text())
        assert payload["schema"] == "repro.obs.metrics/1"
        assert payload["window"] == 500
        assert payload["samples"]
        from repro.obs import validate_trace

        assert validate_trace(json.loads(trace.read_text())) == []

    def test_trace_command_writes_valid_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "needle", "--scale", "tiny", "--design", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "perfetto" in out
        from repro.obs import validate_trace

        assert validate_trace(
            json.loads((tmp_path / "needle.trace.json").read_text())
        ) == []

    @pytest.mark.parametrize("command", ("profile", "trace"))
    def test_no_engine_fallback_note(self, capsys, tmp_path, command):
        """Instrumented columnar runs replay; no fallback note remains."""
        argv = [command, "vectoradd", "--scale", "tiny",
                "--design", "baseline", "-v"]
        if command == "trace":
            argv += ["--out", str(tmp_path / "t.json")]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "falls back" not in err
        assert "event engine" not in err

    def test_profile_outputs_identical_across_engines(self, capsys, tmp_path):
        """--metrics-out / --profile-out byte-identity, event vs columnar."""
        payloads = {}
        for engine in ("columnar", "event"):
            metrics = tmp_path / f"m-{engine}.json"
            profile = tmp_path / f"p-{engine}.json"
            with reference_loop() if engine == "event" else nullcontext():
                assert main(
                    ["profile", "matrixmul", "--scale", "tiny",
                     "--design", "baseline",
                     "--window", "500", "--metrics-out", str(metrics),
                     "--profile-out", str(profile), "-q"]
                ) == 0
            capsys.readouterr()
            payloads[engine] = (metrics.read_bytes(), profile.read_bytes())
        assert payloads["columnar"] == payloads["event"]

    def test_trace_respects_max_events(self, capsys, tmp_path):
        out_path = tmp_path / "capped.json"
        assert main(
            ["trace", "bfs", "--scale", "tiny", "--design", "baseline",
             "--out", str(out_path), "--max-events", "100"]
        ) == 0
        assert "dropped" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert len(payload["traceEvents"]) == 100
        assert payload["otherData"]["droppedEvents"] > 0


class TestChipScopeProfileAndTrace:
    @pytest.mark.parametrize("command", ("profile", "trace"))
    @pytest.mark.parametrize(
        "flags",
        (["--total-bw", "128"], ["--channels", "4"], ["--partitioned-dram"]),
        ids=("total-bw", "channels", "partitioned-dram"),
    )
    def test_chip_only_flags_require_sms(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "vectoradd", "--scale", "tiny",
                  "--design", "baseline", *flags])
        assert exc.value.code == 2
        assert "--sms" in capsys.readouterr().err

    def test_chip_profile_prints_rollup_and_per_sm(self, capsys):
        assert main(
            ["profile", "matrixmul", "--scale", "tiny", "--design", "baseline",
             "--sms", "2"]
        ) == 0
        captured = capsys.readouterr()
        assert "Chip stall attribution" in captured.out
        assert "sm0:" in captured.out
        assert "sm1:" in captured.out
        assert "sum_sm(issue + stalls)" in captured.err

    def test_chip_profile_writes_chipmetrics_and_trace(self, capsys, tmp_path):
        metrics = tmp_path / "cm.json"
        trace = tmp_path / "ct.json"
        assert main(
            ["profile", "vectoradd", "--scale", "tiny", "--design", "baseline",
             "--sms", "2", "--window", "500",
             "--metrics-out", str(metrics), "--trace-out", str(trace)]
        ) == 0
        capsys.readouterr()
        from repro.obs import validate_chipmetrics, validate_trace

        payload = json.loads(metrics.read_text())
        assert payload["schema"] == "repro.obs.chipmetrics/1"
        assert payload["num_sms"] == 2
        assert validate_chipmetrics(payload) == []
        assert validate_trace(json.loads(trace.read_text())) == []

    def test_chip_profile_metrics_identical_across_engines(
        self, capsys, tmp_path
    ):
        payloads = {}
        for engine in ("columnar", "event"):
            metrics = tmp_path / f"cm-{engine}.json"
            with reference_loop() if engine == "event" else nullcontext():
                assert main(
                    ["profile", "needle", "--scale", "tiny",
                     "--design", "baseline", "--sms", "2", "--window", "500",
                     "--metrics-out", str(metrics), "-q"]
                ) == 0
            capsys.readouterr()
            payloads[engine] = metrics.read_bytes()
        assert payloads["columnar"] == payloads["event"]

    def test_chip_trace_covers_all_tracks(self, capsys, tmp_path):
        out_path = tmp_path / "chip.trace.json"
        assert main(
            ["trace", "matrixmul", "--scale", "tiny", "--design", "baseline",
             "--sms", "2", "--out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "2 SMs" in out
        payload = json.loads(out_path.read_text())
        assert payload["otherData"]["schema"] == "repro.obs.trace/2"
        events = payload["traceEvents"]
        # SM warp tracks, both DRAM-channel and dispatcher processes.
        assert {e["pid"] for e in events if e.get("cat") == "issue"} == {0, 1}
        assert any(e["pid"] == 2 and e["ph"] == "X" for e in events)  # channels
        assert any(
            e["pid"] == 3 and e["ph"] == "X" and e["name"].startswith("cta")
            for e in events
        )

    def test_chip_trace_partitioned_dram(self, capsys, tmp_path):
        out_path = tmp_path / "part.trace.json"
        assert main(
            ["trace", "vectoradd", "--scale", "tiny", "--design", "baseline",
             "--sms", "2", "--partitioned-dram", "--out", str(out_path)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        dram = [e for e in payload["traceEvents"]
                if e["pid"] == 2 and e["ph"] == "X"]
        assert {e["tid"] for e in dram} == {0, 1}


class TestVerbosity:
    def test_quiet_suppresses_summary(self, capsys):
        assert main(["experiment", "table4", "-q"]) == 0
        assert "total:" not in capsys.readouterr().err

    def test_default_prints_summary(self, capsys):
        assert main(["experiment", "table4"]) == 0
        assert "total:" in capsys.readouterr().err


class TestAutotuneAndSweep:
    def test_autotune(self, capsys):
        assert main(["autotune", "vectoradd", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "best" in out
        assert "gain over max-threads" in out

    def test_sweep(self, capsys):
        assert main(
            ["sweep", "bfs", "--scale", "tiny", "--capacities", "128,384"]
        ) == 0
        out = capsys.readouterr().out
        assert "128" in out and "384" in out

    def test_sweep_reports_unfittable(self, capsys):
        assert main(
            ["sweep", "dgemm", "--scale", "tiny", "--capacities", "16,384"]
        ) == 0
        assert "does not fit" in capsys.readouterr().out


class TestSpansFlags:
    def test_experiment_with_spans_writes_log_and_timeline(
        self, capsys, tmp_path
    ):
        spans = tmp_path / "spans.json"
        timeline = tmp_path / "sweep.trace.json"
        cache = tmp_path / "cache"
        assert main(
            ["experiment", "figure7", "--scale", "tiny", "--jobs", "2",
             "--spans-out", str(spans), "--spans-trace-out", str(timeline),
             "--cache-dir", str(cache)]
        ) == 0
        err = capsys.readouterr().err
        assert "[spans]" in err
        from repro.obs.spans import validate_spans
        from repro.obs import validate_trace

        payload = json.loads(spans.read_text())
        assert validate_spans(payload) == []
        assert payload["phases"][0]["label"] == "figure7"
        assert payload["command"].startswith("repro experiment figure7")
        assert validate_trace(json.loads(timeline.read_text())) == []
        # Also persisted next to the manifests, with an index.
        stored = list((cache / "spans").glob("spans-*.json"))
        assert len(stored) == 1
        assert (cache / "spans" / "index.json").exists()

    def test_spans_off_by_default(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(
            ["experiment", "figure7", "--scale", "tiny",
             "--cache-dir", str(cache)]
        ) == 0
        assert "[spans]" not in capsys.readouterr().err
        assert not (cache / "spans").exists()

    def test_metrics_identical_with_and_without_spans(self, capsys, tmp_path):
        plain = tmp_path / "plain.json"
        traced = tmp_path / "traced.json"
        assert main(["experiment", "figure7", "--scale", "tiny",
                     "--metrics-out", str(plain)]) == 0
        assert main(["experiment", "figure7", "--scale", "tiny", "--spans",
                     "--jobs", "2", "--metrics-out", str(traced)]) == 0
        capsys.readouterr()
        assert plain.read_bytes() == traced.read_bytes()


class TestCompare:
    def _metrics(self, tmp_path, name="m.json"):
        path = tmp_path / name
        assert main(["experiment", "figure7", "--scale", "tiny",
                     "--metrics-out", str(path)]) == 0
        return path

    def test_self_compare_reports_zero_delta(self, capsys, tmp_path):
        m = self._metrics(tmp_path)
        capsys.readouterr()
        diff_out = tmp_path / "d.json"
        assert main(["compare", str(m), str(m), "--label-a", "base",
                     "--label-b", "cand", "--json-out", str(diff_out)]) == 0
        out = capsys.readouterr().out
        assert "delta +0" in out
        assert "speedup 1.000x" in out
        diff = json.loads(diff_out.read_text())
        assert diff["schema"] == "repro.obs.diff/1"
        assert diff["cycles"]["delta"] == 0.0
        assert diff["simulations"]["only_a"] == []

    def test_profile_self_compare_reverifies_conservation(
        self, capsys, tmp_path
    ):
        prof = tmp_path / "p.json"
        assert main(["profile", "vectoradd", "--scale", "tiny", "--design",
                     "baseline", "--profile-out", str(prof)]) == 0
        capsys.readouterr()
        assert main(["compare", str(prof), str(prof)]) == 0
        out = capsys.readouterr().out
        assert "re-verified exactly" in out
        assert "delta +0" in out

    def test_conservation_violation_exits_one(self, capsys, tmp_path):
        prof = tmp_path / "p.json"
        assert main(["profile", "vectoradd", "--scale", "tiny", "--design",
                     "baseline", "--profile-out", str(prof)]) == 0
        payload = json.loads(prof.read_text())
        payload["issue_cycles"] += 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["compare", str(prof), str(bad)]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_mixed_kinds_exit_two(self, capsys, tmp_path):
        m = self._metrics(tmp_path)
        prof = tmp_path / "p.json"
        assert main(["profile", "vectoradd", "--scale", "tiny", "--design",
                     "baseline", "--profile-out", str(prof)]) == 0
        capsys.readouterr()
        assert main(["compare", str(m), str(prof)]) == 2
        assert "cannot diff" in capsys.readouterr().err

    def test_unreadable_payload_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(missing), str(missing)])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_chip_result_compare(self, capsys, tmp_path):
        m = tmp_path / "chip.json"
        assert main(["chip", "matrixmul", "--scale", "tiny", "--sms", "2",
                     "--metrics-out", str(m), "-q"]) == 0
        capsys.readouterr()
        assert main(["compare", str(m), str(m)]) == 0
        assert "speedup 1.000x" in capsys.readouterr().out


class TestTraceCompare:
    def test_pivots_two_traces(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["trace", "vectoradd", "--scale", "tiny", "--design",
                         "baseline", "--out", str(path)]) == 0
        out_path = tmp_path / "pivot.json"
        capsys.readouterr()
        assert main(["trace", "--compare", str(a), str(b),
                     "--out", str(out_path)]) == 0
        assert "pivoted" in capsys.readouterr().out
        from repro.obs import validate_trace

        pivot = json.loads(out_path.read_text())
        assert validate_trace(pivot) == []
        assert pivot["otherData"]["schema"] == "repro.obs.trace.pivot/1"

    def test_no_benchmark_and_no_compare_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace"])
        assert exc.value.code == 2
        capsys.readouterr()

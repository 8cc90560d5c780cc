"""DiskCache behaviour: hits, misses, corruption, staleness, atomicity."""

import json

from repro.experiments.artifacts import DiskCache, cache_key_digest
from repro.experiments.runner import Runner
from repro.kernels import get_benchmark


class TestKeyDigest:
    def test_deterministic_and_order_insensitive(self):
        a = cache_key_digest(("sim", 1, {"b": 2, "a": 1}))
        b = cache_key_digest(("sim", 1, {"a": 1, "b": 2}))
        assert a == b
        assert len(a) == 64

    def test_version_changes_the_path(self, tmp_path):
        # A format bump must map to a different file, never a mis-read.
        cache = DiskCache(tmp_path)
        k1 = ("sim", 1, "needle")
        k2 = ("sim", 2, "needle")
        assert cache.result_path(k1) != cache.result_path(k2)


class TestTraceEntries:
    def test_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        trace = get_benchmark("vectoradd").build("tiny")
        cache.put_trace(("t", 1), trace)
        back = cache.get_trace(("t", 1))
        assert back is not None
        assert back.name == trace.name
        assert back.total_ops == trace.total_ops
        assert back.launch == trace.launch
        assert cache.stats.trace_hits == 1

    def test_miss_counted(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get_trace(("absent",)) is None
        assert cache.stats.trace_misses == 1

    def test_corrupt_entry_dropped_and_regenerated(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = ("t", 1)
        cache.put_trace(key, get_benchmark("vectoradd").build("tiny"))
        cache.trace_path(key).write_bytes(b"not an npz file")
        assert cache.get_trace(key) is None  # dropped, not crashed
        assert cache.stats.invalidated == 1
        assert not cache.trace_path(key).exists()


class TestResultEntries:
    def test_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = Runner("tiny").baseline("vectoradd")
        cache.put_result(("r", 1), result)
        assert cache.get_result(("r", 1)) == result

    def test_truncated_json_dropped(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = Runner("tiny").baseline("vectoradd")
        cache.put_result(("r", 1), result)
        path = cache.result_path(("r", 1))
        path.write_text(path.read_text()[:40])  # simulate a killed writer
        assert cache.get_result(("r", 1)) is None
        assert cache.stats.invalidated == 1

    def test_stale_schema_version_dropped(self, tmp_path):
        cache = DiskCache(tmp_path)
        result = Runner("tiny").baseline("vectoradd")
        cache.put_result(("r", 1), result)
        path = cache.result_path(("r", 1))
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get_result(("r", 1)) is None
        assert cache.stats.invalidated == 1


class TestMetaEntries:
    def test_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put_meta(("m",), {"x": 1})
        assert cache.get_meta(("m",)) == {"x": 1}

    def test_non_object_payload_dropped(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put_meta(("m",), {"x": 1})
        cache.meta_path(("m",)).write_text("[1, 2]")
        assert cache.get_meta(("m",)) is None
        assert cache.stats.invalidated == 1


class TestStats:
    def test_summary_mentions_regeneration(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put_meta(("m",), {"x": 1})
        cache.meta_path(("m",)).write_text("garbage")
        cache.get_meta(("m",))
        s = cache.stats.summary()
        assert "regenerated" in s
        assert cache.stats.hits == 0 and cache.stats.misses == 1

    def test_entry_count_ignores_temp_files(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put_meta(("m",), {"x": 1})
        (tmp_path / "meta" / ".1234-leftover.json").write_text("{}")
        assert cache.entry_count() == {"traces": 0, "results": 0, "meta": 1}


class TestRunnerIntegration:
    def test_fresh_runner_reuses_disk_artifacts(self, tmp_path):
        cold = Runner("tiny", cache=DiskCache(tmp_path))
        ref = cold.baseline("vectoradd")
        warm = Runner("tiny", cache=DiskCache(tmp_path))
        assert warm.baseline("vectoradd") == ref
        assert warm.cache.stats.result_hits == 1
        # The sim was answered from disk: no trace rebuild either way.
        assert warm.cache.stats.trace_misses == 0

    def test_corrupted_entry_recomputed_transparently(self, tmp_path):
        cold = Runner("tiny", cache=DiskCache(tmp_path))
        ref = cold.baseline("vectoradd")
        cache = DiskCache(tmp_path)
        key = cold._disk_key("sim", cold.sim_key("vectoradd", ref.partition))
        cache.result_path(key).write_text("garbage")
        warm = Runner("tiny", cache=cache)
        assert warm.baseline("vectoradd") == ref
        assert cache.stats.invalidated == 1


class TestManifestCollisions:
    """Same-second manifest/span writes must uniquify, not clobber."""

    def _manifest(self, created_unix=1700000000.0, command="repro suite"):
        from repro.obs.manifest import build_run_manifest
        from repro.sm import SMConfig

        m = build_run_manifest(command=command, scale="tiny",
                               config=SMConfig(), jobs=1)
        m["created_unix"] = created_unix  # pin the timestamp second
        return m

    def test_distinct_manifests_in_same_second_both_survive(self, tmp_path):
        cache = DiskCache(tmp_path)
        # Same wall-clock second but different content: the default
        # name collides only if the digest does too, so force it by
        # writing the *same* name twice via identical payloads first.
        a = self._manifest(command="repro suite --jobs 1")
        p1 = cache.put_manifest(a)
        p2 = cache.put_manifest(a)  # identical name: must uniquify
        assert p1 != p2
        assert p2.name == f"{p1.stem}-2{p1.suffix}"
        assert p1.exists() and p2.exists()
        assert len(cache.manifest_paths()) == 2

    def test_many_collisions_keep_counting_up(self, tmp_path):
        cache = DiskCache(tmp_path)
        m = self._manifest()
        paths = [cache.put_manifest(m) for _ in range(4)]
        assert len({p.name for p in paths}) == 4
        assert paths[3].name.endswith("-4.json")


class TestSpansStore:
    def _payload(self):
        from repro.obs.spans import SpanRecorder

        rec = SpanRecorder(command="repro suite --spans")
        submit = rec.phase_start("p", workers=1)
        class _J:
            kind = "baseline"
            benchmark = "x"
            def describe(self):
                return "baseline x"
        rec.record_job(job=_J(), index=0, submit=submit, start=submit,
                       end=submit + 1.0, worker=1)
        rec.phase_end()
        return rec.to_payload()

    def test_put_spans_persists_and_indexes(self, tmp_path):
        from repro.obs.spans import validate_spans

        cache = DiskCache(tmp_path)
        payload = self._payload()
        path = cache.put_spans(payload)
        assert path.parent.name == "spans"
        assert not validate_spans(json.loads(path.read_text()))
        assert cache.spans_paths() == [path]
        index = json.loads((tmp_path / "spans" / "index.json").read_text())
        assert index[0]["file"] == path.name
        assert index[0]["phases"] == ["p"]

    def test_same_second_span_logs_uniquify_and_index_appends(self, tmp_path):
        cache = DiskCache(tmp_path)
        payload = self._payload()
        p1 = cache.put_spans(payload)
        p2 = cache.put_spans(payload)
        assert p1 != p2
        assert len(cache.spans_paths()) == 2
        index = json.loads((tmp_path / "spans" / "index.json").read_text())
        assert [e["file"] for e in index] == [p1.name, p2.name]

    def test_corrupt_index_rebuilt_not_crashed(self, tmp_path):
        cache = DiskCache(tmp_path)
        (tmp_path / "spans").mkdir()
        (tmp_path / "spans" / "index.json").write_text("not json")
        path = cache.put_spans(self._payload())
        index = json.loads((tmp_path / "spans" / "index.json").read_text())
        assert [e["file"] for e in index] == [path.name]

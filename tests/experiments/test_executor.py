"""Executor behaviour: determinism, journaling, expected errors, variants.

The fork-pool path itself is exercised with ``jobs=4`` on the tiny
scale; every assertion compares against the plain serial Runner, which
is the executor's correctness contract (``--jobs N`` must be
output-identical to ``--jobs 1``).
"""

import pytest

from repro.experiments import figure7, table6
from repro.experiments.artifacts import DiskCache
from repro.experiments.executor import (
    Executor,
    Job,
    register_job_kind,
)
from repro.experiments.runner import Runner, config_fingerprint
from repro.core import AllocationError
from repro.sm import SMConfig

BENCH = ("vectoradd", "scalarprod")


class TestJob:
    def test_describe_names_everything(self):
        job = Job("unified", "needle", total_kb=256, regs=18, thread_target=512,
                  params=(("blocking_factor", 16),))
        d = job.describe()
        for bit in ("unified", "needle", "256KB", "regs=18", "threads=512",
                    "blocking_factor=16"):
            assert bit in d

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            Executor(Runner("tiny"), jobs=0)


class TestSerialPrime:
    def test_warms_runner_memo(self):
        rn = Runner("tiny")
        ex = Executor(rn, jobs=1)
        report = ex.prime([Job("baseline", b) for b in BENCH], label="t")
        assert len(report.outcomes) == 2
        assert not report.errors
        assert len(rn._memo["sim"]) == 2  # replay is now memo-only

    def test_expected_error_memoised_not_raised(self):
        rn = Runner("tiny")
        ex = Executor(rn, jobs=1)
        # 8 KB cannot fit any kernel: the allocator refuses.
        report = ex.prime([Job("unified", "vectoradd", total_kb=8)])
        assert len(report.errors) == 1
        assert "AllocationError" in report.errors[0].error
        # The refusal replays from the memo, without re-deriving it.
        with pytest.raises(AllocationError):
            rn.unified("vectoradd", total_kb=8)

    def test_custom_job_kind(self):
        calls = []

        @register_job_kind("test-kind")
        def _handler(rn, job):
            calls.append(job.benchmark)

        ex = Executor(Runner("tiny"), jobs=1)
        ex.prime([Job("test-kind", "x")])
        assert calls == ["x"]

    def test_report_format_mentions_label_and_jobs(self):
        ex = Executor(Runner("tiny"), jobs=1)
        report = ex.prime([Job("baseline", "vectoradd")], label="mylabel")
        assert "mylabel" in report.format()
        assert "1 jobs" in report.format()
        assert "mylabel" in ex.summary()


class TestForkedPrime:
    def test_parallel_results_identical_to_serial(self):
        serial = figure7.run(runner=Runner("tiny"), benchmarks=BENCH)
        ex = Executor(Runner("tiny"), jobs=4)
        parallel = figure7.run(executor=ex, benchmarks=BENCH)
        assert parallel.format() == serial.format()
        report = ex.reports[0]
        assert report.workers > 1
        assert len(report.outcomes) == len(figure7.jobs(BENCH))

    def test_parallel_expected_errors_adopted(self):
        # 8 KB fits nothing: workers journal the refusal and the parent
        # replays it from the memo without re-deriving the allocation.
        ex = Executor(Runner("tiny"), jobs=2)
        report = ex.prime([Job("unified", b, total_kb=8) for b in BENCH])
        assert len(report.errors) == 2
        assert ex.runner._memo["alloc_error"]  # refusal shipped via journal
        with pytest.raises(AllocationError):
            ex.runner.unified("vectoradd", total_kb=8)

    def test_parallel_table6_matches_serial(self):
        serial = table6.run(
            runner=Runner("tiny"), benchmarks=("dgemm",), no_benefit=()
        )
        ex = Executor(Runner("tiny"), jobs=2)
        parallel = table6.run(executor=ex, benchmarks=("dgemm",), no_benefit=())
        assert parallel.format() == serial.format()

    def test_parallel_with_shared_disk_cache(self, tmp_path):
        serial = figure7.run(runner=Runner("tiny"), benchmarks=BENCH)
        ex = Executor(Runner("tiny", cache=DiskCache(tmp_path)), jobs=4)
        assert figure7.run(executor=ex, benchmarks=BENCH).format() == serial.format()
        # A later run in a fresh process answers entirely from disk.
        warm = Executor(Runner("tiny", cache=DiskCache(tmp_path)), jobs=1)
        assert figure7.run(executor=warm, benchmarks=BENCH).format() == serial.format()
        assert warm.runner.cache.stats.result_hits > 0
        assert warm.runner.cache.stats.result_misses == 0


class TestJournal:
    def test_adoption_transfers_results(self):
        src = Runner("tiny")
        src.journal_reset()
        ref = src.baseline("vectoradd")
        entries = src.journal_reset()
        assert {kind for kind, _, _ in entries} == {"sim", "summary"}

        dst = Runner("tiny")
        dst.adopt(entries)
        assert dst.baseline("vectoradd") is ref  # memo hit, no simulation

    def test_adoption_is_idempotent(self):
        src = Runner("tiny")
        src.journal_reset()
        ref = src.baseline("vectoradd")
        entries = src.journal_reset()
        dst = Runner("tiny")
        dst.adopt(entries)
        dst.adopt(entries)
        assert dst.baseline("vectoradd") is ref


class TestConfigVariants:
    def test_sim_keys_differ_across_configs(self):
        rn = Runner("tiny")
        variant = rn.variant(SMConfig(cache_assoc=2))
        part = rn.baseline("vectoradd").partition
        assert rn.sim_key("vectoradd", part) != variant.sim_key("vectoradd", part)
        assert config_fingerprint(rn.config) != config_fingerprint(variant.config)

    def test_variant_shares_traces_but_not_sim_results(self):
        rn = Runner("tiny")
        base = rn.baseline("vectoradd")
        variant = rn.variant(SMConfig(barrier_latency=999))
        other = variant.baseline("vectoradd")
        assert other is not base
        assert variant._traces is rn._traces  # trace work genuinely shared
        assert len(rn._memo["sim"]) == 2  # both results in the shared memo

    def test_variant_job_runs_under_its_config(self):
        rn = Runner("tiny")
        ex = Executor(rn, jobs=1)
        cfg = SMConfig(cache_assoc=2)
        ex.prime([Job("baseline", "vectoradd", config=cfg)])
        key = rn.variant(cfg).sim_key(
            "vectoradd", rn.variant(cfg).baseline("vectoradd").partition
        )
        assert key in rn._memo["sim"]

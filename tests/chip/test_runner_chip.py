"""Runner integration: chip simulations memoised, journaled, and cached."""

import pytest

from repro.chip import ChipConfig, chip_result_to_dict
from repro.core import partitioned_baseline
from repro.experiments.artifacts import DiskCache
from repro.experiments.runner import Runner

TINY_CHIP = ChipConfig(num_sms=2, dram_bytes_per_cycle=16.0, dram_channels=2)


class TestMemoisation:
    def test_same_request_returns_memoised_object(self):
        rn = Runner("tiny")
        a = rn.simulate_chip("vectoradd", partitioned_baseline(), chip=TINY_CHIP)
        b = rn.simulate_chip("vectoradd", partitioned_baseline(), chip=TINY_CHIP)
        assert a is b

    def test_chip_shape_participates_in_the_key(self):
        rn = Runner("tiny")
        part = partitioned_baseline()
        two = rn.simulate_chip("vectoradd", part, chip=TINY_CHIP)
        one = rn.simulate_chip("vectoradd", part, chip=ChipConfig.single_sm())
        assert two is not one
        assert two.num_sms == 2 and one.num_sms == 1

    def test_default_chip_uses_runner_config(self):
        rn = Runner("tiny")
        cr = rn.simulate_chip("vectoradd", partitioned_baseline())
        assert cr.config.num_sms == 32
        assert cr.config.sm == rn.config

    def test_journal_records_chip_results(self):
        rn = Runner("tiny")
        rn.journal_reset()
        rn.simulate_chip("vectoradd", partitioned_baseline(), chip=TINY_CHIP)
        entries = rn.journal_reset()
        kinds = [kind for kind, _, _ in entries]
        assert "chip" in kinds

    def test_adopt_replays_chip_entries(self):
        worker = Runner("tiny")
        worker.journal_reset()
        cr = worker.simulate_chip("vectoradd", partitioned_baseline(), chip=TINY_CHIP)
        parent = Runner("tiny")
        parent.adopt(worker.journal_reset())
        again = parent.simulate_chip(
            "vectoradd", partitioned_baseline(), chip=TINY_CHIP
        )
        assert again is not None
        assert chip_result_to_dict(again) == chip_result_to_dict(cr)


class TestDiskCache:
    def test_chip_results_persist_across_runners(self, tmp_path):
        part = partitioned_baseline()
        first = Runner("tiny", cache=DiskCache(tmp_path))
        cr = first.simulate_chip("vectoradd", part, chip=TINY_CHIP)
        second = Runner("tiny", cache=DiskCache(tmp_path))
        loaded = second.simulate_chip("vectoradd", part, chip=TINY_CHIP)
        assert chip_result_to_dict(loaded) == chip_result_to_dict(cr)
        assert second.cache.stats.meta_hits >= 1

    def test_corrupt_entry_regenerates(self, tmp_path):
        part = partitioned_baseline()
        rn = Runner("tiny", cache=DiskCache(tmp_path))
        cr = rn.simulate_chip("vectoradd", part, chip=TINY_CHIP)
        key = rn.chip_sim_key("vectoradd", part, TINY_CHIP)
        path = rn.cache.meta_path(rn._disk_key("chip", key))
        path.write_text('{"chip_version": 999}')
        fresh = Runner("tiny", cache=DiskCache(tmp_path))
        again = fresh.simulate_chip("vectoradd", part, chip=TINY_CHIP)
        assert chip_result_to_dict(again) == chip_result_to_dict(cr)


class TestVariant:
    def test_variants_share_the_chip_memo(self):
        rn = Runner("tiny")
        v = rn.variant(rn.config)
        a = rn.simulate_chip("vectoradd", partitioned_baseline(), chip=TINY_CHIP)
        b = v.simulate_chip("vectoradd", partitioned_baseline(), chip=TINY_CHIP)
        assert a is b


class TestConsistencyWithSingleSM:
    def test_single_sm_chip_matches_runner_simulate(self):
        from repro.sm.serialize import result_to_dict

        rn = Runner("tiny")
        part = partitioned_baseline()
        solo = rn.simulate("needle", part)
        cr = rn.simulate_chip("needle", part, chip=ChipConfig.single_sm())
        assert result_to_dict(cr.per_sm[0]) == result_to_dict(solo)


@pytest.mark.parametrize("field", ["num_sms", "dram_bytes_per_cycle"])
def test_fingerprint_sensitivity(field):
    rn = Runner("tiny")
    base = rn.chip_sim_key("vectoradd", partitioned_baseline(), TINY_CHIP)
    changed_cfg = {
        "num_sms": ChipConfig(num_sms=3, dram_bytes_per_cycle=16.0, dram_channels=2),
        "dram_bytes_per_cycle": ChipConfig(
            num_sms=2, dram_bytes_per_cycle=32.0, dram_channels=2
        ),
    }[field]
    assert rn.chip_sim_key("vectoradd", partitioned_baseline(), changed_cfg) != base

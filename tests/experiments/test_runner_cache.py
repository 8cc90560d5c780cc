"""The Runner's cached artefacts on disk: entry keys and bad entries.

Every journaled kind -- simulation, chip simulation, simulation refusal,
allocation, allocation refusal, compile summary -- lands at a disk key
whose tuple is fixed, so a cache directory written by an earlier version
of this code still hits.  An entry that is valid JSON of the wrong shape
is a miss: a fresh Runner recomputes the artefact and overwrites it.
"""

import json

import pytest

import repro
from repro.chip import CHIP_RESULT_FORMAT_VERSION, ChipConfig
from repro.core import AllocationError, partitioned_baseline, partitioned_design
from repro.experiments.artifacts import DiskCache
from repro.experiments.runner import Runner
from repro.sm.cta_scheduler import LaunchError
from repro.sm.serialize import RESULT_FORMAT_VERSION

TINY_CHIP = ChipConfig(num_sms=2, dram_bytes_per_cycle=16.0, dram_channels=2)
#: No shared memory for matrixmul's tiles: the launch is refused.
NO_SMEM = partitioned_design(256, 0, 64)

#: kind -> (one call that makes it, its memo key, its disk-key versions).
CALLS = {
    "sim": (
        lambda rn: rn.simulate("vectoradd", partitioned_baseline()),
        lambda rn: rn.sim_key("vectoradd", partitioned_baseline()),
        (RESULT_FORMAT_VERSION,),
    ),
    "chip": (
        lambda rn: rn.simulate_chip("vectoradd", partitioned_baseline(), chip=TINY_CHIP),
        lambda rn: rn.chip_sim_key("vectoradd", partitioned_baseline(), TINY_CHIP),
        (CHIP_RESULT_FORMAT_VERSION, RESULT_FORMAT_VERSION),
    ),
    "sim_error": (
        lambda rn: rn.simulate("matrixmul", NO_SMEM),
        lambda rn: rn.sim_key("matrixmul", NO_SMEM),
        (),
    ),
    "alloc": (
        lambda rn: rn.allocation("vectoradd"),
        lambda rn: ("vectoradd", 384, None, ()),
        (),
    ),
    "alloc_error": (
        # 8 KB cannot hold one vectoradd CTA: the allocator refuses.
        lambda rn: rn.allocation("vectoradd", total_kb=8),
        lambda rn: ("vectoradd", 8, None, ()),
        (),
    ),
    "summary": (
        lambda rn: rn.summary("vectoradd"),
        lambda rn: ("vectoradd", None, ()),
        (),
    ),
}


def outcome(rn: Runner, kind: str):
    """The artefact one call makes, or the refusal it raises as (type, message)."""
    try:
        return CALLS[kind][0](rn)
    except (LaunchError, AllocationError) as e:
        return type(e), str(e)


def entry_path(rn: Runner, kind: str):
    """Where the entry of ``kind`` lives, from its disk-key tuple."""
    _, memo_key, versions = CALLS[kind]
    key = (kind, *versions, repro.__version__, rn.scale, memo_key(rn))
    if kind == "sim":
        return rn.cache.result_path(key)
    return rn.cache.meta_path(key)


@pytest.mark.parametrize("kind", sorted(CALLS))
def test_each_kind_lands_at_its_disk_key(tmp_path, kind):
    rn = Runner("tiny", cache=DiskCache(tmp_path))
    outcome(rn, kind)
    assert entry_path(rn, kind).exists()


@pytest.mark.parametrize(
    "kind, wrong_shape",
    [
        ("summary", {"name": "vectoradd"}),
        ("alloc", {"resident_ctas": 1}),
        ("sim_error", {"message": "x"}),
        ("alloc_error", {"message": "x"}),
    ],
)
def test_wrong_shape_entry_regenerates(tmp_path, kind, wrong_shape):
    first = Runner("tiny", cache=DiskCache(tmp_path))
    made = outcome(first, kind)
    path = entry_path(first, kind)
    written = json.loads(path.read_text())
    path.write_text(json.dumps(wrong_shape))

    fresh = Runner("tiny", cache=DiskCache(tmp_path))
    assert outcome(fresh, kind) == made
    assert json.loads(path.read_text()) == written


@pytest.mark.parametrize("kind", ["sim_error", "alloc_error"])
def test_refusal_replays_from_disk_then_memo(tmp_path, kind):
    made = outcome(Runner("tiny", cache=DiskCache(tmp_path)), kind)
    assert made[0] in (LaunchError, AllocationError)

    warm = Runner("tiny", cache=DiskCache(tmp_path))
    assert outcome(warm, kind) == made
    # One miss on the artefact's entry, one hit on the refusal's, and
    # nothing else looked up: no trace, no compile summary.
    stats = warm.cache.stats
    assert (stats.hits, stats.misses, stats.meta_hits) == (1, 1, 1)
    # The second ask is answered by the remembered refusal.
    assert outcome(warm, kind) == made
    assert (stats.hits, stats.misses) == (1, 1)

"""Record the committed digests: one pass per workload and committed seed.

Run from the root of a checkout after a change that is meant to move
simulated results (never after a speed-only change)::

    python3 perfbench/record_digests.py [workload ...]

It rewrites ``perfbench/digests.json`` for the named workloads (default:
all) and refuses to record a pass with a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from digests import COMMITTED_PATH, load_committed  # noqa: E402
from spantree import NullRecorder  # noqa: E402
from workloads import WORKLOADS, Pass  # noqa: E402

#: Seeds whose digests are committed.  Seed 7919 is held out: it has no
#: committed digests and is kept for checking a claimed gain on a seed
#: no change was tuned on.
COMMITTED_SEEDS = tuple(range(11))


def record(name: str, seed: int) -> dict[str, str]:
    wl = WORKLOADS[name](seed)
    p = Pass(NullRecorder())
    wl.run_pass(wl.build_inputs(), p)
    if p.errors:
        raise SystemExit(f"{name} seed {seed}: failed operations {sorted(p.errors)}")
    return dict(sorted(p.digests.items()))


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    table = load_committed()
    for name in names:
        table[name] = {str(seed): record(name, seed) for seed in COMMITTED_SEEDS}
        print(f"{name}: recorded seeds {COMMITTED_SEEDS}", file=sys.stderr)
        COMMITTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Smoke tests: every example script runs end-to-end at tiny scale.

Guards the documented entry points against bit-rot; each example is run
as a subprocess exactly as a user would.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "vectoradd", "tiny")
        assert "baseline" in out
        assert "unified" in out
        assert "speedup" in out

    def test_quickstart_needle(self):
        out = run_example("quickstart.py", "needle", "tiny")
        assert "chosen unified split" in out

    def test_design_space_exploration(self):
        out = run_example("design_space_exploration.py", "bfs", "tiny")
        assert "lowest-energy capacity" in out
        assert "within 2% of peak" in out

    def test_custom_kernel(self):
        out = run_example("custom_kernel.py")
        assert "histogram" in out
        assert "allocator chose" in out

    def test_needle_tuning(self):
        out = run_example("needle_tuning.py", "tiny")
        assert "best configuration per shared-memory budget" in out

    def test_multi_kernel_app(self):
        out = run_example("multi_kernel_app.py", "tiny")
        assert "per-kernel repartitioning speedup" in out
        assert "[repartitioned]" in out

    def test_emulated_kernel(self):
        out = run_example("emulated_kernel.py")
        assert "warp instructions emulated" in out
        assert "divergent masks" in out

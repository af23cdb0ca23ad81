"""The benchmark's own tiny-size self-test (perfbench/selftest.py) passes
against the current program: every workload in both trace modes runs, passes
its correctness gate and prints exactly the metrics BENCHMARK.json names."""
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=REPO,
        capture_output=True, text=True, timeout=1500)
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-2000:])
    assert "selftest passed" in proc.stdout.splitlines()

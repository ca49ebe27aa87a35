"""The benchmark's self-test against this tree.

The traced benchmark run rebinds named entry points (`verify.misreport_grid`,
`verify.run_truthfulness_sweep`, ...) and expects the sweeps to reach the
traced layers, so a refactor that renames one fails here, not only there.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr

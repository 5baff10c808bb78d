"""The benchmark's quick mode: one small job per workload, with every
output (stdout and export dumps) checked against perfbench/refs.json."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_quick_matches_references():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

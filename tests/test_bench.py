"""The benchmark harness's own self-test, run as part of the test suite, so
that a change which breaks the harness or bypasses a traced function fails
here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_self_test_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

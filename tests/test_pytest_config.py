"""The suite's own pytest configuration, run on a file of its own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_GIVEN_ONE_PASSING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # hypothesis explains a failure with libcst, whose import warns with a
    # DeprecationWarning; the warning filters must not make that an
    # INTERNALERROR that stops the run before the passing test
    (tmp_path / "test_sample.py").write_text(ONE_FAILING_GIVEN_ONE_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr

"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints its pass/fail line (visible with -s or on failure) and
asserts both the check outcome and its runtime budget.  Criteria 6 and 7
share one cached experiment run, so this module stays inside the stated
budgets end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

from funcrelu import verify

BUDGETS = {
    "1": ("min network exactness and accounting", verify.check_min_network, 5.0),
    "2": ("spike equivalence", verify.check_spike_equivalence, 10.0),
    "3": ("triangulation suite", verify.check_appendix_suite, 30.0),
    "4": ("interpolation contract", verify.check_interpolation_contract, 60.0),
    "5": ("weight growth shape", verify.check_weight_growth, 60.0),
    "6": ("rate experiment", verify.check_rate_experiment, 600.0),
    "7": ("rate shape", verify.check_rate_shape, 600.0),
    "8": ("oracle paths and serialization", verify.check_oracle_paths_and_serialization, 120.0),
}


def _run(label):
    name, fn, budget = BUDGETS[label]
    result = fn()
    print()
    print(f"criterion {label}: {result.line()}")
    for d in result.details:
        print(f"    {d}")
    assert result.passed, "\n".join(result.details)
    assert result.seconds < budget, (
        f"criterion {label} took {result.seconds:.1f}s, budget {budget}s"
    )


def test_criterion_1_min_network():
    _run("1")


def test_criterion_2_spike_equivalence():
    _run("2")


def test_criterion_3_triangulation_suite():
    _run("3")


def test_criterion_4_interpolation_contract():
    _run("4")


def test_criterion_5_weight_growth():
    _run("5")


def test_criterion_6_rate_experiment():
    _run("6")


def test_criterion_7_rate_shape():
    _run("7")


def test_criterion_8_oracle_paths_and_serialization():
    _run("8")


def test_core_invariants():
    result = verify.check_core_invariants()
    print()
    print(result.line())
    assert result.passed, "\n".join(result.details)


def test_shipped_verify_passes_with_warnings_as_errors():
    # the entry point as shipped, in a fresh interpreter and outside this
    # suite's warning filters: any warning (a numpy truncation among them)
    # ends the run
    src = Path(verify.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "funcrelu", "verify"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "verify: all checks passed" in done.stdout

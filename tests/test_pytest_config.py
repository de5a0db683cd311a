"""The suite's own pytest configuration, run on a file of its own, and
the package metadata in pyproject.toml."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

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


def _imported_packages(path: Path) -> set:
    """Top-level package names of every absolute import in a module,
    those inside functions included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


BLAS_CALLS = {"dot", "matmul", "einsum", "inner", "tensordot"}


def _blas_uses(path: Path) -> list:
    """(line, what) of each matrix product in a module: an ``@`` or a call
    of one of ``BLAS_CALLS`` as an attribute, such as ``np.dot``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in BLAS_CALLS):
            found.append((node.lineno, node.func.attr))
    return found


def test_forward_makes_no_blas_call():
    # every net's values are those of one numpy-only pass, so they follow
    # neither the point chunks nor the BLAS build and thread count
    assert _blas_uses(ROOT / "src" / "funcrelu" / "relu_net.py") == []


def test_every_third_party_import_of_the_package_is_a_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    listed = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower()
              for dep in project["dependencies"]}
    sources = sorted((ROOT / "src" / "funcrelu").glob("*.py"))
    assert sources
    third_party = {}
    for path in sources:
        for name in _imported_packages(path) - set(sys.stdlib_module_names) - {"funcrelu"}:
            third_party.setdefault(name, []).append(path.name)
    unlisted = {name: files for name, files in third_party.items() if name not in listed}
    assert not unlisted, f"imported but not in pyproject dependencies: {unlisted}"
    assert "numpy" in third_party

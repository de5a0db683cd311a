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


def _blas_uses(path: Path, functions=None) -> list:
    """(line, what) of each matrix product in a module, or in its
    top-level ``functions`` only: an ``@`` or a call of one of
    ``BLAS_CALLS`` as an attribute, such as ``np.dot``."""
    found = []
    tree = ast.parse(path.read_text(), str(path))
    if functions is not None:
        roots = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in functions]
        assert sorted(node.name for node in roots) == sorted(functions)
    else:
        roots = [tree]
    for node in (node for root in roots for node in ast.walk(root)):
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


# the mu path of every functional: (S, Phi), the running sums, the node
# writer, the ridge's coefficients and the L1 norm's form
MU_FUNCTIONS = ("_mu_map", "_running_sums", "mu_values", "_node_values",
                "_coefficient_weights", "build_functional_net", "l1_norm_functional")


def test_mu_makes_no_blas_call():
    # so mu at the grid nodes and at the sampled vectors follows no BLAS
    # thread count, for ridge functionals and the L1 norm alike
    assert _blas_uses(ROOT / "src" / "funcrelu" / "pipeline.py", MU_FUNCTIONS) == []


# the pass's pairs and first-layer shifts come from simplicial: the
# Kuhn vertices, the axis-by-axis window test and the copies' shifts
PAIR_FUNCTIONS = ("support_pairs", "_window_pairs", "spike_shifts")


def test_pairs_and_shifts_make_no_blas_call():
    # so forward's pairs and shifts follow no BLAS build either; flat node
    # indices come from integer arithmetic, never from a product
    assert _blas_uses(ROOT / "src" / "funcrelu" / "simplicial.py", PAIR_FUNCTIONS) == []


def test_the_blas_check_sees_a_product_in_a_named_function(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("def f(a, b):\n    return a @ b\n\n\ndef g(a, b):\n"
                      "    return np.dot(a, b)\n")
    assert _blas_uses(module, ("f",)) == [(2, "@")]
    assert _blas_uses(module, ("f", "g")) == [(2, "@"), (6, "dot")]


# functions that cast arrays the program made itself to float; a
# caller's values go through simplicial.real_array or point_batch, which
# refuse a complex dtype that a cast would drop to its real part
FLOAT_CASTS_ALLOWED = {
    "legendre.legendre_values", "legendre.tensor_eval", "functions._asbatch",
    "pipeline.sample_inputs", "relu_net._entries", "relu_net._numbers",
    "simplicial.spike_shifts", "simplicial.simplex_vertices", "simplicial.in_S0",
    "verify.check_spike_equivalence",
}


def _is_float(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "float")
            or (isinstance(node, ast.Attribute) and node.attr == "float64"))


def _float_casts(path: Path) -> list:
    """(line, enclosing function) of each ``asarray``/``array`` call with a
    float dtype in a module, the function named ``module.Class.method``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            dtypes = [k.value for k in node.keywords if k.arg == "dtype"] + node.args[1:2]
            if name in ("asarray", "array") and any(map(_is_float, dtypes)):
                found.append((node.lineno, ".".join([path.stem, *scope])))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), [])
    return found


def test_only_the_program_s_own_arrays_are_cast_to_float():
    # a new entry point cannot bring back a silent conversion of caller data
    casts = [c for path in sorted((ROOT / "src" / "funcrelu").glob("*.py"))
             for c in _float_casts(path)]
    assert [c for c in casts if c[1] not in FLOAT_CASTS_ALLOWED] == []
    # and the list names no function that casts nothing
    assert FLOAT_CASTS_ALLOWED - {where for _, where in casts} == set()


# dataclasses of src/funcrelu that are changed after they are made, and
# why; every other one is frozen=True, so an object shared between nets or
# runs stays what it was made
MUTABLE_DATACLASSES = {
    "pipeline.ExperimentConfig": "set after it is made by cli, verify.rate_report "
                                 "and bench/workloads.verify_config_mismatches",
}


def _dataclasses(path: Path) -> list:
    """(``module.Class``, frozen) of each class in a module decorated with
    ``dataclass`` or ``dataclasses.dataclass``, called or not; frozen only
    for a literal ``frozen=True``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            func = dec.func if isinstance(dec, ast.Call) else dec
            if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
                frozen = isinstance(dec, ast.Call) and any(
                    k.arg == "frozen" and isinstance(k.value, ast.Constant)
                    and k.value.value is True for k in dec.keywords)
                found.append((f"{path.stem}.{node.name}", frozen))
    return found


def test_every_dataclass_is_frozen_or_listed():
    # a net, its layers and its node values are fixed when made; a new
    # dataclass is too unless the list says why it is not
    classes = [c for path in sorted((ROOT / "src" / "funcrelu").glob("*.py"))
               for c in _dataclasses(path)]
    assert len(classes) > len(MUTABLE_DATACLASSES)
    # exactly the listed classes: an entry that is frozen or gone fails too
    assert sorted(name for name, frozen in classes if not frozen) == sorted(MUTABLE_DATACLASSES)


def test_the_dataclass_check_reads_each_decorator_form(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("@dataclass\nclass A:\n    pass\n\n\n"
                      "@dataclass(frozen=True, eq=False)\nclass B:\n    pass\n\n\n"
                      "@dataclasses.dataclass(frozen=False)\nclass C:\n    pass\n\n\n"
                      "@functools.total_ordering\nclass D:\n    pass\n")
    assert _dataclasses(module) == [("module.A", False), ("module.B", True),
                                    ("module.C", False)]


# definitions that nothing in src/ or bench/ names, kept because they are
# the package's own calls for a reader of the paper
ENTRY_POINTS = {
    "pipeline.evaluate_functional_net": "the paper's F(f) = net(V_m f) in one call",
}


def _definitions_and_names(path: Path):
    """The module's functions, classes and methods as (name,
    ``module.Class.method``, node id), and each name an ``ast.Name`` or
    ``ast.Attribute`` reads, with the ids of the definitions it sits in."""
    defs, names = [], []

    def visit(node, scope, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
            defs.append((node.name, ".".join([path.stem, *scope]), id(node)))
            inside = inside | {id(node)}
        elif isinstance(node, ast.Name):
            names.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            names.append((node.attr, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, inside)

    visit(ast.parse(path.read_text(), str(path)), [], frozenset())
    return defs, names


def _bench_names() -> set:
    """Every name bench/ reads, the dotted strings it installs its
    tracer's wrappers by (``"LegendreBasis.eval_all"``) among them."""
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
                names.update(node.value.split("."))
    return names


def test_every_definition_in_src_is_reached():
    # a definition only the tests call belongs in those tests: src/ keeps
    # what the CLI, funcrelu verify and the benchmark workloads run.
    # __init__.py's re-exports name nothing for this test.
    defs, names = [], []
    for path in sorted((ROOT / "src" / "funcrelu").glob("*.py")):
        if path.name != "__init__.py":
            path_defs, path_names = _definitions_and_names(path)
            defs += path_defs
            names += path_names
    bench = _bench_names()
    unreached = sorted(
        where for name, where, node in defs
        if not (name.startswith("__") and name.endswith("__")) and name not in bench
        and not any(n == name and node not in inside for n, inside in names))
    # exactly the listed entry points: an entry that is gone, or that
    # something reaches anyway, fails too
    assert unreached == sorted(ENTRY_POINTS)


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

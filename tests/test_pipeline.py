import math

import numpy as np
import pytest

from funcrelu import pipeline as pipeline_module
from funcrelu import verify
from funcrelu.constructors import interpolant_values
from funcrelu.discretize import InputFunction, discretize, make_operator
from funcrelu.functions import get_function
from funcrelu.legendre import gauss_legendre_rule, tensor_eval
from funcrelu.pipeline import (
    ExperimentConfig,
    InputClass,
    PowerModulus,
    TargetFunctional,
    _rule_state,
    build_functional_net,
    constant_functional,
    evaluate_functional_net,
    generate_inputs,
    inner_product_functional,
    mu_values,
    run_rate_experiment,
    sample_inputs,
    sin_inner_product_functional,
    squared_coeff_norm_functional,
)
from funcrelu.relu_net import count_nonzero, deserialize, evaluate_batch
from funcrelu.simplicial import ScaledGrid


class TestPowerModulus:
    def test_call_and_inverse(self):
        om = PowerModulus(3.0, 0.5)
        assert om(4.0) == pytest.approx(6.0)
        assert om.inverse(6.0) == pytest.approx(4.0)
        assert om.inverse(-1.0) == 0.0
        assert PowerModulus(0.0).inverse(1.0) == math.inf

    def test_nondecreasing_and_subadditive_on_samples(self):
        om = PowerModulus(2.0, 0.7)
        rs = np.linspace(0.01, 3.0, 40)
        vals = om(rs)
        assert np.all(np.diff(vals) >= 0)
        for r1 in (0.1, 0.5, 1.5):
            for r2 in (0.2, 1.0):
                assert om(r1 + r2) <= om(r1) + om(r2) + 1e-12


class TestGenerateInputs:
    def test_deterministic_under_seed(self):
        op = make_operator(1, 1)
        cls = InputClass("hoelder_ball", 2.0, 5, seed=42)
        a = [discretize(op, f) for f in generate_inputs(cls, 1)]
        b = [discretize(op, f) for f in generate_inputs(cls, 1)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_polynomial_ball_inside_window(self):
        from funcrelu.discretize import projection_error
        cls = InputClass("polynomial_ball", beta=2, sample_count=6, seed=1)
        op = make_operator(1, 2)
        for f in generate_inputs(cls, 1):
            assert projection_error(op, f) <= 1e-10

    def test_hoelder_decay_regression(self):
        from funcrelu.discretize import projection_error
        cls = InputClass("hoelder_ball", beta=2.0, sample_count=64, seed=7)
        fs = generate_inputs(cls, 1)
        ms = np.arange(1, 7)
        ops = [make_operator(1, int(m)) for m in ms]
        eps = np.array([max(projection_error(op, f) for f in fs) for op in ops])
        beta_hat = -np.polyfit(np.log(ms), np.log(eps), 1)[0]
        assert abs(beta_hat - 2.0) <= 0.6

    def test_sobolev_like_runs(self):
        fs = generate_inputs(InputClass("sobolev_like", 1.5, 3, seed=2), 2)
        pts = np.random.default_rng(0).uniform(-1, 1, (10, 2))
        for f in fs:
            assert np.all(np.isfinite(f(pts)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_inputs(InputClass("fractal", 1.0, 1, 0), 1)


@pytest.mark.parametrize("p", [0.5, 0.0, math.nan])
@pytest.mark.parametrize("make", [inner_product_functional,
                                  sin_inner_product_functional])
def test_inner_product_functionals_reject_p_below_one(make, p):
    rule = make_operator(1, 1).rule
    with pytest.raises(ValueError, match="p >= 1"):
        make(get_function("gaussian"), rule, p)


class TestBuildFunctionalNet:
    def test_identity_target_at_m0(self):
        # F = <f, L_1> with t = 1: the discretized target is the identity,
        # its interpolant is exact, and the whole pipeline is near-lossless
        op = make_operator(1, 0)
        g = get_function("one")
        g_scaled = type(g)(lambda x: math.sqrt(0.5) * g(x), tag="L1")
        F = inner_product_functional(g_scaled, op.rule)
        inputs = generate_inputs(InputClass("hoelder_ball", 2.0, 16, seed=3), 1)
        nus = np.vstack([discretize(op, f) for f in inputs])
        R = float(np.abs(nus).max()) * 1.1
        fnet = build_functional_net(F, op, ScaledGrid(1, R, 8))
        vals = evaluate_batch(fnet.net, nus)
        refs = np.array([F(f, op.rule) for f in inputs])
        assert np.abs(vals - refs).max() <= 1e-9

    def test_constant_functional_constant_net(self):
        op = make_operator(1, 1)
        F = constant_functional(2.5)
        fnet = build_functional_net(F, op, ScaledGrid(op.t, 1.0, 2))
        Y = np.random.default_rng(1).uniform(-1, 1, (200, op.t))
        assert np.abs(evaluate_batch(fnet.net, Y) - 2.5).max() <= 1e-12

    def test_quadratic_target_node_exact_and_bounded(self):
        # F(f) = |discretized f|^2 makes the target a quadratic on the cube;
        # nodes are exact and the sup error obeys 2 t omega(2R/N) with
        # omega(r) = 2 sqrt(t) R r
        op = make_operator(1, 1)
        R = 1.0
        F = squared_coeff_norm_functional(op, bound=R)
        grid = ScaledGrid(op.t, R, 4)
        fnet = build_functional_net(F, op, grid)
        nodes = grid.node_array()
        node_err = np.abs(evaluate_batch(fnet.net, nodes)
                          - mu_values(F, op, nodes)).max()
        assert node_err <= 1e-10
        rng = np.random.default_rng(2)
        Y = rng.uniform(-R, R, (2000, op.t))
        sup = np.abs(evaluate_batch(fnet.net, Y) - mu_values(F, op, Y)).max()
        t = op.t
        bound = 2 * t * (2 * math.sqrt(t) * R) * (2 * R / grid.N)
        assert sup <= bound

    def test_depth_law_and_metadata(self):
        op = make_operator(1, 1)
        F = constant_functional(0.0)
        fnet = build_functional_net(F, op, ScaledGrid(op.t, 1.0, 2))
        t = op.t
        assert fnet.metadata["J"] == t * t + t + 1
        assert fnet.metadata["M"] == count_nonzero(fnet.net)

    def test_grid_dimension_mismatch(self):
        op = make_operator(1, 1)
        with pytest.raises(ValueError):
            build_functional_net(constant_functional(0.0), op, ScaledGrid(2, 1.0, 2))


class TestEvaluateFunctionalNet:
    def test_zero_input_function(self):
        op = make_operator(1, 1)
        F = sin_inner_product_functional(get_function("gaussian"), op.rule)
        fnet = build_functional_net(F, op, ScaledGrid(op.t, 1.0, 4))
        zero = get_function("zero")
        got = evaluate_functional_net(fnet, zero)
        want = float(evaluate_batch(fnet.net, np.zeros((1, op.t)))[0])
        assert got == pytest.approx(want, abs=1e-14)

    def test_oracle_path_equivalence(self):
        op = make_operator(1, 1)
        F = sin_inner_product_functional(get_function("gaussian"), op.rule)
        inputs = generate_inputs(InputClass("hoelder_ball", 2.0, 100, seed=4), 1)
        nus = np.vstack([discretize(op, f) for f in inputs])
        R = float(np.abs(nus).max()) * 1.05
        fnet = build_functional_net(F, op, ScaledGrid(op.t, R, 6))
        net_vals = evaluate_batch(fnet.net, nus)
        direct = interpolant_values(fnet.spec, nus)
        assert np.abs(net_vals - direct).max() <= 1e-9

    def test_polynomial_inputs_leave_only_grid_error(self):
        # inputs inside the reproduced block: the polynomial term vanishes
        # and a linear functional's interpolant is exact, so the error is tiny
        op = make_operator(1, 1)
        F = inner_product_functional(get_function("gaussian"), op.rule)
        inputs = generate_inputs(InputClass("polynomial_ball", 1, 12, seed=5), 1)
        nus = np.vstack([discretize(op, f) for f in inputs])
        R = float(np.abs(nus).max()) * 1.2
        fnet = build_functional_net(F, op, ScaledGrid(op.t, R, 4))
        for f, nu in zip(inputs, nus):
            got = float(evaluate_batch(fnet.net, nu[None, :])[0])
            assert got == pytest.approx(F(f, op.rule), abs=1e-9)


class TestRunRateExperiment:
    def test_constant_functional_is_flat(self):
        cfg = ExperimentConfig(
            s=1, p=2.0,
            functional=constant_functional(1.25),
            input_class=InputClass("hoelder_ball", 2.0, 8, seed=6),
            m_values=(0, 1), N_values=(2, 4), ladder=False,
        )
        report = run_rate_experiment(cfg)
        for row in report.completed():
            assert row.sup_error <= 1e-9

    def test_rows_and_decomposition(self):
        op_rule = gauss_legendre_rule(20, 1)
        cfg = ExperimentConfig(
            s=1, p=2.0,
            functional=sin_inner_product_functional(get_function("gaussian"), op_rule),
            input_class=InputClass("hoelder_ball", 2.0, 12, seed=7),
            m_values=(0, 1), N_values=(2, 4, 8), ladder=False,
        )
        report = run_rate_experiment(cfg)
        done = report.completed()
        assert len(done) == 6
        assert report.summary["decomposition_ok"]
        assert report.summary["c_hat"] <= 10.0
        for row in done:
            assert row.J == row.t**2 + row.t + 1
            assert row.oracle_gap <= 1e-9
            assert row.sup_error >= 0

    def test_monotone_in_N(self):
        op_rule = gauss_legendre_rule(20, 1)
        cfg = ExperimentConfig(
            s=1, p=2.0,
            functional=sin_inner_product_functional(get_function("gaussian"), op_rule),
            input_class=InputClass("hoelder_ball", 2.0, 16, seed=8),
            m_values=(1,), N_values=(2, 4, 8, 16), ladder=False,
        )
        rows = run_rate_experiment(cfg).completed()
        rows.sort(key=lambda r: r.N)
        for a, b in zip(rows, rows[1:]):
            assert b.sup_error <= 1.1 * a.sup_error

    def test_node_cap_skips_are_recorded(self):
        cfg = ExperimentConfig(
            s=1, p=2.0,
            functional=constant_functional(0.0),
            input_class=InputClass("hoelder_ball", 2.0, 4, seed=9),
            m_values=(2,), N_values=(2, 64), node_cap=50_000, ladder=False,
        )
        report = run_rate_experiment(cfg)
        by_N = {r.N: r for r in report.rows}
        assert by_N[2].status == "ok"
        assert by_N[64].status == "skipped"
        assert by_N[64].reason.startswith("node_cap")
        assert (2, 64) in [(m, N) for m, N, _ in report.summary["skipped_points"]]

    def test_report_integrity_under_dump(self, tmp_path):
        cfg = ExperimentConfig(
            s=1, p=2.0,
            functional=inner_product_functional(
                get_function("gaussian"), gauss_legendre_rule(16, 1)),
            input_class=InputClass("hoelder_ball", 2.0, 6, seed=10),
            m_values=(0,), N_values=(4,), ladder=False,
            dump_dir=str(tmp_path),
        )
        report = run_rate_experiment(cfg)
        row = report.completed()[0]
        net = deserialize(open(row.network_file, "rb").read())
        assert count_nonzero(net) == row.M

    def test_csv_and_summary_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            s=1, p=2.0,
            functional=constant_functional(0.0),
            input_class=InputClass("hoelder_ball", 2.0, 4, seed=11),
            m_values=(0,), N_values=(2,), ladder=False,
        )
        report = run_rate_experiment(cfg)
        report.to_csv(tmp_path / "report.csv")
        report.summary_to_json(tmp_path / "summary.json")
        text = (tmp_path / "report.csv").read_text()
        assert "sup_error" in text.splitlines()[0]
        import json
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["completed_points"] == 1

    def test_budget_ladder_structure(self):
        cfg = ExperimentConfig(
            s=1, p=2.0,
            functional=inner_product_functional(
                get_function("gaussian"), gauss_legendre_rule(20, 1)),
            input_class=InputClass("hoelder_ball", 2.0, 12, seed=12),
            m_values=(), N_values=(), ladder=True,
            ladder_m_values=(1, 2), ladder_weight_cap=2_000_000,
            ladder_budget_count=4,
        )
        report = run_rate_experiment(cfg)
        info = report.summary["budget_ladder"]
        assert info["c9_eff"] > 0
        assert "slope" in info
        assert info["slope"] < 0
        ms = [m for m, *_ in info["pairs"]]
        assert ms == sorted(ms)


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("cls", [
    InputClass("hoelder_ball", 2.0, 5, seed=3, degree_cap=8),
    InputClass("sobolev_like", 1.5, 5, seed=4, degree_cap=8),
    InputClass("polynomial_ball", 3, 5, seed=5),
])
def test_sampled_inputs_equal_calls_at_the_nodes(cls, s):
    inputs = generate_inputs(cls, s)
    for m in (0, 1):
        rule = make_operator(s, m).rule
        samples = sample_inputs(inputs, rule)
        assert samples.shape == (len(inputs), rule.points.shape[0])
        for f, row in zip(inputs, samples):
            assert np.array_equal(row, f(rule.points))


def _reference_rule_state(cfg, inputs, m, g):
    # the per-input formulas of the sweep before inputs were sampled once
    # per rule: every quantity calls the input at the nodes again, and the
    # functional evaluates g there on every call
    op = make_operator(cfg.s, m, cfg.filter_kind)
    w, pts = op.rule.weights, op.rule.points
    low = op.low_basis_at_nodes
    nus, F_vals, eps = [], [], []
    for f in inputs:
        vals = np.asarray(f(pts), dtype=float).ravel()
        nus.append(op.filter * (op.basis_at_nodes.T @ (w * vals)))
        inner = np.asarray(f(pts), dtype=float).ravel() @ (w * g(pts))
        F_vals.append(float(np.sin(inner) if cfg.functional.name.startswith("sin") else inner))
        vals = np.asarray(f(pts), dtype=float).ravel()
        resid = vals - low @ (low.T @ (w * vals))
        eps.append(float((w @ np.abs(resid) ** cfg.p) ** (1.0 / cfg.p)))
    return np.vstack(nus), np.array(F_vals), max(eps)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("make", [inner_product_functional,
                                  sin_inner_product_functional])
def test_rule_state_equals_per_input_formulas(make, p):
    g = get_function("slow-series")
    cfg = ExperimentConfig(
        s=1, p=p, functional=make(g, make_operator(1, 2).rule, p),
        input_class=InputClass("hoelder_ball", 2.0, 16, seed=7),
        c1_surrogate=4.0,
    )
    inputs = generate_inputs(cfg.input_class, cfg.s)
    for m in (0, 1, 2):
        _, _, nus, F_vals, eps_hat, _ = _rule_state(cfg, inputs, m)
        ref_nus, ref_F, ref_eps = _reference_rule_state(cfg, inputs, m, g)
        assert np.array_equal(nus, ref_nus)
        assert np.array_equal(F_vals, ref_F)
        assert eps_hat == ref_eps


def test_sweep_samples_each_rule_once(monkeypatch):
    tensor_calls, g_calls = [], []
    monkeypatch.setattr(pipeline_module, "tensor_eval",
                        lambda idx, x: tensor_calls.append(len(x)) or tensor_eval(idx, x))
    gauss = get_function("gaussian")

    def counted(x):
        g_calls.append(len(x))
        return gauss(x)

    g = InputFunction(counted, tag="gaussian")
    cfg = ExperimentConfig(
        s=1, p=2.0, functional=sin_inner_product_functional(g, make_operator(1, 1).rule),
        input_class=InputClass("hoelder_ball", 2.0, 8, seed=6),
        m_values=(0, 1), N_values=(2, 4), ladder=False,
    )
    g_calls.clear()
    run_rate_experiment(cfg)
    # one probe evaluation in generate_inputs, then one per rule; the
    # weighted g once per rule
    assert len(tensor_calls) == 1 + len(cfg.m_values)
    assert len(g_calls) == len(cfg.m_values)


def _report_reprs(report):
    timing = {"wall_seconds", "build_seconds", "eval_seconds", "oracle_seconds"}
    rows = [{k: repr(v) for k, v in vars(r).items() if k not in timing}
            for r in report.rows]
    summary = {k: repr(v) for k, v in report.summary.items() if k != "stage_seconds"}
    return rows, summary


@pytest.mark.parametrize("kind", ["inner", "sin"])
def test_seed7_report_equals_per_input_path(kind, monkeypatch):
    fast = _report_reprs(verify.rate_report(kind))
    # the per-input path: inputs behind plain callables are called at the
    # nodes one by one, and an unbound functional evaluates g on every call
    draw = generate_inputs
    monkeypatch.setattr(pipeline_module, "generate_inputs",
                        lambda cls, s: [InputFunction(f, f.tag) for f in draw(cls, s)])
    monkeypatch.setattr(TargetFunctional, "bind", lambda self, rule: self)
    cfg = verify._rate_config(functional_kind=kind)
    cfg.ladder = kind == "inner"
    assert _report_reprs(run_rate_experiment(cfg)) == fast


def test_bound_functional_matches_unbound():
    g = get_function("slow-series")
    rule, other = make_operator(1, 1).rule, make_operator(1, 2).rule
    F = sin_inner_product_functional(g, rule)
    bound = F.bind(rule)
    for rl in (rule, other):
        values = np.cos(np.arange(3 * rl.points.shape[0])).reshape(3, -1)
        assert np.array_equal(bound.apply_sampled(values, rl), F.apply_sampled(values, rl))
    assert (bound.name, bound.omega) == (F.name, F.omega)


@pytest.mark.parametrize("make", [inner_product_functional,
                                  sin_inner_product_functional])
def test_inner_product_functionals_reject_p_inf(make):
    rule = make_operator(1, 1).rule
    with pytest.raises(ValueError, match="p=inf"):
        make(get_function("gaussian"), rule, math.inf)


@pytest.mark.parametrize("kwargs, s, field", [
    ({"sample_count": 2.5}, 1, "sample_count"),
    ({"sample_count": True}, 1, "sample_count"),
    ({"sample_count": 0}, 1, "sample_count"),
    ({}, 0, "s"),
    ({"degree_cap": -1}, 1, "degree_cap"),
    ({"degree_cap": 2.5}, 1, "degree_cap"),
    ({"beta": math.nan}, 1, "beta"),
    ({"beta": -1.0}, 1, "beta"),
    ({"kind": "sobolev_like", "beta": math.inf}, 2, "beta"),
    ({"kind": "polynomial_ball", "beta": 2.5}, 1, "beta"),
    ({"kind": "polynomial_ball", "beta": -1}, 1, "beta"),
    ({"seed": 1.5}, 1, "seed"),
])
def test_generate_inputs_names_bad_field(kwargs, s, field):
    cls = InputClass(**{"kind": "hoelder_ball", **kwargs})
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        generate_inputs(cls, s)


def test_report_has_stage_times(tmp_path):
    cfg = ExperimentConfig(
        s=1, p=2.0,
        functional=inner_product_functional(get_function("gaussian"),
                                            make_operator(1, 1).rule),
        input_class=InputClass("hoelder_ball", 2.0, 4, seed=11),
        m_values=(0, 1), N_values=(2,), ladder=True,
        ladder_weight_cap=100_000, ladder_budget_count=2,
    )
    report = run_rate_experiment(cfg)
    for row in report.rows:
        for name in ("build_seconds", "eval_seconds", "oracle_seconds"):
            assert getattr(row, name) >= 0.0
    report.to_csv(tmp_path / "report.csv")
    report.summary_to_json(tmp_path / "summary.json")
    header = (tmp_path / "report.csv").read_text().splitlines()[0].split(",")
    assert {"build_seconds", "eval_seconds", "oracle_seconds"} <= set(header)
    import json
    stages = json.loads((tmp_path / "summary.json").read_text())["stage_seconds"]
    assert set(stages) == {"inputs", "sample", "build", "eval", "oracle"}
    assert all(v >= 0.0 for v in stages.values())

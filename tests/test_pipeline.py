import math

import numpy as np
import pytest

from funcrelu.constructors import interpolant_values
from funcrelu.discretize import discretize, make_operator
from funcrelu.functions import get_function
from funcrelu.legendre import gauss_legendre_rule
from funcrelu.pipeline import (
    ExperimentConfig,
    InputClass,
    PowerModulus,
    build_functional_net,
    constant_functional,
    evaluate_functional_net,
    generate_inputs,
    inner_product_functional,
    mu_values,
    run_rate_experiment,
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

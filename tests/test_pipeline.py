import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from funcrelu import constructors
from funcrelu import pipeline as pipeline_module
from funcrelu import relu_net
from funcrelu import verify
from funcrelu.constructors import interpolant_values
from funcrelu.discretize import InputFunction, discretize, make_operator
from funcrelu.functions import get_function
from funcrelu.legendre import gauss_legendre_rule, sampled_lp_norm, tensor_eval
from funcrelu.pipeline import (
    ExperimentConfig,
    InputClass,
    LinearForm,
    PowerModulus,
    TargetFunctional,
    INPUT_KINDS,
    _class_radius,
    _rule_state,
    build_functional_net,
    constant_functional,
    evaluate_functional_net,
    generate_inputs,
    inner_product_functional,
    l1_norm_functional,
    mu_values,
    run_rate_experiment,
    sample_inputs,
    sin_inner_product_functional,
)
from funcrelu.relu_net import count_nonzero, depth, deserialize, evaluate_batch
from funcrelu.simplicial import ScaledGrid


def _squared_coeff_norm(op, bound):
    """F(f) = squared Euclidean norm of the discretized vector, declared
    only by its ``form``, so mu is the form at the node values; on inputs with
    discretized norm <= bound the modulus is 2 * bound * r (p = 2)."""
    def form(rl):
        B = op.basis.eval_all(rl.points)
        return lambda values: (((values * rl.weights) @ B * op.filter)**2).sum(axis=-1)

    return TargetFunctional("squared-coeff-norm", form, PowerModulus(2.0 * bound, 1.0))


class TestPowerModulus:
    def test_call_and_inverse(self):
        om = PowerModulus(3.0, 0.5)
        assert om(4.0) == pytest.approx(6.0)
        assert om.inverse(6.0) == pytest.approx(4.0)
        assert om.inverse(-1.0) == 0.0
        assert PowerModulus(0.0).inverse(1.0) == math.inf

    @pytest.mark.parametrize("c, lam, field", [
        (1.0, 0.0, "lam"), (1.0, -0.5, "lam"), (1.0, math.nan, "lam"),
        (1.0, math.inf, "lam"), (-1.0, 1.0, "c"), (math.nan, 1.0, "c"),
        (math.inf, 1.0, "c")])
    def test_refuses_what_is_no_modulus(self, c, lam, field):
        # lam = 0 made inverse divide by zero
        with pytest.raises(ValueError, match=rf"^{field} must be a finite number"):
            PowerModulus(c, lam)

    def test_nondecreasing_and_subadditive_on_samples(self):
        om = PowerModulus(2.0, 0.7)
        rs = np.linspace(0.01, 3.0, 40)
        vals = om(rs)
        assert np.all(np.diff(vals) >= 0)
        for r1 in (0.1, 0.5, 1.5):
            for r2 in (0.2, 1.0):
                assert om(r1 + r2) <= om(r1) + om(r2) + 1e-12


def _reference_coefficients(cls, s):
    """Coefficient rows and generator of the per-input sampler, one
    boolean mask and one ``rng.choice`` of the signs per degree block per
    input: the stream ``generate_inputs`` must keep."""
    from funcrelu.legendre import tensor_multi_indices

    rng = np.random.default_rng(cls.seed)
    if cls.kind == "polynomial_ball":
        idx = tensor_multi_indices(s, int(cls.beta))
        rows = []
        for _ in range(cls.sample_count):
            c = rng.standard_normal(idx.shape[0])
            c /= np.linalg.norm(c)
            rows.append(c)
        return rows, rng
    idx = tensor_multi_indices(s, cls.degree_cap)
    total = idx.sum(axis=1)
    rows = []
    if cls.kind == "hoelder_ball":
        gmax = idx.max(axis=1)
        masses = np.zeros(cls.degree_cap + 1)
        masses[0] = 3.0
        if cls.degree_cap >= 1:
            masses[1] = 3.0
        for g in range(2, cls.degree_cap + 1):
            masses[g] = (g - 1.0) ** (-2 * cls.beta) - g ** (-2 * cls.beta)
        per_axis = max(4, int(round(4096 ** (1.0 / s))))
        axes = np.linspace(-1.0, 1.0, per_axis)
        mesh = np.meshgrid(*([axes] * s), indexing="ij")
        probe_B = tensor_eval(idx, np.stack([m.ravel() for m in mesh], axis=1))
        for _ in range(cls.sample_count):
            c = np.zeros(idx.shape[0])
            for g in range(cls.degree_cap + 1):
                members = gmax == g
                raw = rng.uniform(0.5, 1.0, int(members.sum()))
                raw *= rng.choice((-1.0, 1.0), raw.shape[0])
                jitter = rng.uniform(0.8, 1.0)
                c[members] = raw / np.linalg.norm(raw) * np.sqrt(masses[g]) * jitter
            c /= max(float(np.max(np.abs(probe_B @ c))), 1e-30)
            rows.append(c)
    else:
        decay = (1.0 + total) ** (-(cls.beta + 0.5))
        weight = (1.0 + total) ** cls.beta
        for _ in range(cls.sample_count):
            c = rng.uniform(-1.0, 1.0, idx.shape[0]) * decay
            c /= max(float(np.linalg.norm(weight * c)), 1e-30)
            rows.append(c)
    return rows, rng


class TestGenerateInputs:
    # sample counts 1 and 2 at degree caps 0 and 32 end the hoelder_ball
    # draw with numpy's buffered 32-bit half both set and clear
    @pytest.mark.parametrize("count", [1, 2, 9])
    @pytest.mark.parametrize("seed", [0, 7, 11, 2024])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("kind,beta,cap", [("hoelder_ball", 2.0, 32),
                                               ("hoelder_ball", 1.5, 5),
                                               ("hoelder_ball", 2.0, 0),
                                               ("hoelder_ball", 2.0, 1),
                                               ("sobolev_like", 1.5, 12),
                                               ("sobolev_like", 2.0, 0),
                                               ("polynomial_ball", 3, 32),
                                               ("polynomial_ball", 0, 32)])
    def test_same_stream_as_the_per_input_sampler(self, kind, beta, cap, s, seed,
                                                  count, monkeypatch):
        cls = InputClass(kind, beta, count, seed=seed, degree_cap=cap)
        made = []
        real = np.random.default_rng

        def recording(seed):
            made.append(real(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        inputs = generate_inputs(cls, s)
        monkeypatch.undo()
        want, rng = _reference_coefficients(cls, s)
        assert [f.coeffs.tobytes() for f in inputs] == [c.tobytes() for c in want]
        assert len(made) == 1
        assert made[0].bit_generator.state == rng.bit_generator.state

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
        F = _squared_coeff_norm(op, bound=R)
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
        assert depth(fnet.net) == t * t + t + 1
        assert count_nonzero(fnet.net) == count_nonzero(
            constructors.build_interpolation_net(fnet.spec))

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
    @pytest.mark.parametrize("ladder_m_values", [(0, 1), (), (1, 1.5)],
                             ids=["zero", "empty", "fraction"])
    def test_bad_ladder_degrees_are_refused_before_any_point(self, monkeypatch, tmp_path,
                                                             ladder_m_values):
        # refused before the grid sweep: no point is measured and no
        # network is written to dump_dir
        calls = []
        measure = pipeline_module._measure_point

        def counted(*args, **kwargs):
            calls.append(args)
            return measure(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "_measure_point", counted)
        cfg = replace(verify._rate_config("inner"), ladder_m_values=ladder_m_values,
                      dump_dir=str(tmp_path / "nets"))
        with pytest.raises(ValueError, match="^ladder m values must be"):
            run_rate_experiment(cfg)
        assert calls == []
        assert not (tmp_path / "nets").exists()

    @pytest.mark.parametrize("field, values, message", [
        ("N_values", (4, 8, 0), "^N values must be an integer >= 1, got 0"),
        ("N_values", (4, 2.5), "^N values must be an integer >= 1, got 2.5"),
        ("m_values", (0, 1, -1), "^m values must be an integer >= 0, got -1"),
        ("m_values", (True,), "^m values must be an integer >= 0, got True"),
    ])
    def test_bad_sweep_values_are_refused_before_any_point(self, monkeypatch, tmp_path,
                                                           field, values, message):
        # refused before an input is drawn: no point is measured and no
        # network is written to dump_dir
        calls, drawn = [], []
        measure, draw = pipeline_module._measure_point, pipeline_module.generate_inputs
        monkeypatch.setattr(pipeline_module, "_measure_point",
                            lambda *a, **k: calls.append(a) or measure(*a, **k))
        monkeypatch.setattr(pipeline_module, "generate_inputs",
                            lambda *a: drawn.append(a) or draw(*a))
        dump = tmp_path / "nets"
        dump.mkdir()
        cfg = replace(verify._rate_config("inner"), dump_dir=str(dump), **{field: values})
        with pytest.raises(ValueError, match=message):
            run_rate_experiment(cfg)
        assert calls == [] and drawn == []
        assert list(dump.iterdir()) == []

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

    def test_one_fit_rule_for_sweep_and_ladder(self, monkeypatch):
        # m=1 (t=3) nominal sizes: N=1 1744, N=2 5886, N=3 13952, N=4 27250
        monkeypatch.setattr(pipeline_module, "_LADDER_BUDGETS", 2)
        cfg = ExperimentConfig(
            s=1, p=2.0,
            functional=constant_functional(0.0),
            input_class=InputClass("hoelder_ball", 2.0, 4, seed=9),
            m_values=(1,), N_values=(1, 4), node_cap=100, weight_cap=2_000,
            ladder=False, ladder_m_values=(1,), ladder_weight_cap=6_000,
        )
        report = run_rate_experiment(cfg)
        # N=4 is over both caps (125 nodes, 27250 nominal): node_cap names it
        assert [(r.N, r.status, r.reason) for r in report.rows] == [
            (1, "ok", ""), (4, "skipped", "node_cap:125")]
        # the ladder's cap admits N=2, the sweep's weight_cap does not
        inputs = generate_inputs(cfg.input_class, cfg.s)
        rows, _ = pipeline_module._budget_ladder_rows(
            cfg, lambda m: _rule_state(cfg, inputs, m))
        assert [(r.N, r.status, r.reason) for r in rows] == [
            (1, "ok", ""), (2, "skipped", "weight_cap:5886")]

    def test_ladder_tops_out_at_the_build_that_sets_its_budget(self, monkeypatch):
        # the top budget is the N=3 build's nominal count; a float estimate
        # of its N falls one short, as 64 ** (1/3) is 3.9999999999999996
        monkeypatch.setattr(pipeline_module, "_LADDER_BUDGETS", 2)
        cfg = ExperimentConfig(
            s=1, p=2.0,
            functional=constant_functional(0.0),
            input_class=InputClass("hoelder_ball", 2.0, 4, seed=9),
            m_values=(), N_values=(), node_cap=100,
            ladder=True, ladder_m_values=(1,),
        )
        rows = run_rate_experiment(cfg).summary["budget_ladder_rows"]
        assert [(m, N, status) for m, N, _, _, status in rows] == [
            (1, 1, "ok"), (1, 3, "ok")]

    def test_skipped_ladder_builds_keep_their_reason(self):
        # the cap-binding sweep: the ladder's m=3, N=2 build is over weight_cap
        cfg = ExperimentConfig(
            s=1, p=2.0,
            functional=sin_inner_product_functional(get_function("gaussian"),
                                                    gauss_legendre_rule(16, 1)),
            input_class=InputClass("hoelder_ball", 2.0, 16, seed=5),
            m_values=(0, 1, 2, 3), N_values=(2, 4, 8), node_cap=20_000,
            weight_cap=5_000_000, ladder=True, ladder_m_values=(1, 2, 3),
            ladder_weight_cap=30_000_000,
        )
        summary = run_rate_experiment(cfg).summary
        assert summary["budget_ladder"]["skipped_points"] == [(3, 2, "weight_cap:7676370")]
        assert [row[:2] for row in summary["budget_ladder_rows"] if row[4] != "ok"] == [(3, 2)]
        assert summary["skipped_points"] == [
            (2, 8, "node_cap:59049"), (3, 2, "weight_cap:7676370"),
            (3, 4, "node_cap:78125"), (3, 8, "node_cap:4782969")]

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
        net = deserialize(Path(row.network_file).read_bytes())
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

    def test_budget_ladder_structure(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "_LADDER_BUDGETS", 4)
        cfg = ExperimentConfig(
            s=1, p=2.0,
            functional=inner_product_functional(
                get_function("gaussian"), gauss_legendre_rule(20, 1)),
            input_class=InputClass("hoelder_ball", 2.0, 12, seed=12),
            m_values=(), N_values=(), ladder=True,
            ladder_m_values=(1, 2), ladder_weight_cap=2_000_000,
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
        vals = np.asarray(f(pts), dtype=float).ravel()
        if cfg.functional.name == "l1-norm":
            F_vals.append(float((np.abs(vals) * w).sum()))
        else:
            inner = vals @ (w * g(pts))
            F_vals.append(float(np.sin(inner) if cfg.functional.name.startswith("sin")
                                else inner))
        vals = np.asarray(f(pts), dtype=float).ravel()
        resid = vals - low @ (low.T @ (w * vals))
        eps.append(float((w @ np.abs(resid) ** cfg.p) ** (1.0 / cfg.p)))
    return np.vstack(nus), np.array(F_vals), max(eps)


def _l1_functional(g, rule, p):
    return l1_norm_functional(rule.s, p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("make", [inner_product_functional,
                                  sin_inner_product_functional, _l1_functional])
def test_rule_state_equals_per_input_formulas(make, p):
    g = get_function("slow-series")
    cfg = ExperimentConfig(
        s=1, p=p, functional=make(g, make_operator(1, 2).rule, p),
        input_class=InputClass("hoelder_ball", 2.0, 16, seed=7),
        c1_surrogate=4.0,
    )
    inputs = generate_inputs(cfg.input_class, cfg.s)
    for m in (0, 1, 2):
        degree = _rule_state(cfg, inputs, m)
        ref_nus, ref_F, ref_eps = _reference_rule_state(cfg, inputs, m, g)
        assert np.array_equal(degree.nus, ref_nus)
        assert np.array_equal(degree.F_vals, ref_F)
        assert degree.eps_hat == ref_eps


def test_rule_state_projects_the_stack_once_per_degree(monkeypatch):
    # one stacked call per degree, not one per input
    calls = {"discretize": 0, "projection_error": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(pipeline_module, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(pipeline_module, name, counted)
    cfg = ExperimentConfig(
        s=1, p=2.0,
        functional=inner_product_functional(get_function("gaussian"), make_operator(1, 2).rule),
        input_class=InputClass("hoelder_ball", 2.0, 16, seed=7))
    inputs = generate_inputs(cfg.input_class, cfg.s)
    for m in (0, 1, 2):
        _rule_state(cfg, inputs, m)
    assert calls == {"discretize": 3, "projection_error": 3}


def _kind_inputs(kind, s, count=7):
    cls = InputClass(kind, 3 if kind == "polynomial_ball" else 2.0, count,
                     seed=21, degree_cap=8)
    return generate_inputs(cls, s)


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("kind", INPUT_KINDS)
@pytest.mark.parametrize("make", [inner_product_functional,
                                  sin_inner_product_functional, _l1_functional])
def test_functional_values_of_a_stack_equal_its_rows(make, kind, s):
    # LinearForm dots each row on its own; the L1 form sums each row
    g = get_function("slow-series")
    for m in (0, 2):
        rule = make_operator(s, m).rule
        functional = make(g, rule, 2.0).bind(rule)
        samples = sample_inputs(_kind_inputs(kind, s), rule)
        stacked = functional.apply_sampled(samples, rule)
        assert stacked.shape == (samples.shape[0],)
        assert stacked.tolist() == [float(functional.apply_sampled(v, rule)) for v in samples]


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_class_radius_of_a_stack_equals_its_rows(kind, s):
    op = make_operator(s, 1)
    nus = discretize(op, sample_inputs(_kind_inputs(kind, s), op.rule))
    for p in (1.0, 1.5, 2.0, 3.0):
        rows = [float(np.linalg.norm(nu)) if p == 2
                else sampled_lp_norm(op.basis_at_nodes @ nu, p, op.rule) for nu in nus]
        assert _class_radius(op, nus, p, None, 1.0).C_K == max(rows)


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
    timing = {"wall_seconds", "mu_seconds", "build_seconds", "eval_seconds",
              "oracle_seconds"}
    rows = [{k: repr(v) for k, v in vars(r).items() if k not in timing}
            for r in report.rows]
    summary = {k: repr(v) for k, v in report.summary.items() if k != "stage_seconds"}
    return rows, summary


@pytest.mark.parametrize("kind", ["inner", "sin", "l1"])
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


def test_rate_config_takes_only_its_kinds():
    names = {kind: verify._rate_config(kind).functional.name
             for kind in verify.RATE_FUNCTIONALS}
    assert names == {"inner": "inner-product[slow-series]",
                     "sin": "sin-inner-product[slow-series]", "l1": "l1-norm"}
    for kind in ("cos", "l1-norm", None):
        with pytest.raises(ValueError, match=rf"^unknown rate functional kind {kind!r}; "
                                             r"choose from \('inner', 'sin', 'l1'\)$"):
            verify._rate_config(kind)


def _doctor_poly_gap(kind, row):
    omega = verify._rate_config(kind).functional.omega
    return replace(row, poly_gap=2.0 * float(omega(row.eps_hat)))


def _doctor_grid_gap(kind, row):
    return replace(row, grid_gap=1.5 * row.grid_bound)


def _doctor_affine_grid_gap(kind, row):
    # far below the interpolation bound, far above rounding
    return replace(row, grid_gap=1e-11)


@pytest.mark.parametrize("kind, doctor, words", [
    (kind, _doctor_poly_gap, "poly gap") for kind in ("inner", "sin", "l1")] + [
    (kind, _doctor_grid_gap, "grid gap") for kind in ("inner", "sin", "l1")] + [
    ("inner", _doctor_affine_grid_gap, "for an affine mu")])
def test_rate_check_holds_each_error_term_to_its_bound(kind, doctor, words, monkeypatch):
    report = verify.rate_report(kind)
    row = report.completed()[-1]
    rows = tuple(doctor(kind, r) if r is row else r for r in report.rows)
    monkeypatch.setitem(verify._REPORT_CACHE, kind, replace(report, rows=rows))
    result = verify.check_rate_experiment()
    assert not result.passed
    failures = [d for d in result.details if d.startswith("FAIL")]
    # inner's doctored grid gap breaks its affine bound as well
    assert failures and all(d.startswith(f"FAIL: {kind}: m={row.m}, N={row.N}: ")
                            for d in failures)
    assert any(words in d for d in failures)


@pytest.mark.parametrize("scale", [1.01, 1.10])
def test_node_contract_catches_scaled_node_values(scale, monkeypatch):
    write = pipeline_module._node_values

    def scaled(S, phi, grid, values):
        write(S, phi, grid, values)
        values *= scale

    monkeypatch.setattr(pipeline_module, "_node_values", scaled)
    result = verify.check_oracle_paths_and_serialization()
    assert not result.passed
    failures = [d for d in result.details if d.startswith("FAIL")]
    assert failures and all("node contract" in d for d in failures)


def _seed7_config(kind, seed=7):
    cfg = verify._rate_config(functional_kind=kind)
    cfg.input_class = replace(cfg.input_class, seed=seed)
    cfg.ladder = kind == "inner"
    return cfg


def _recording_spike_net(monkeypatch):
    """The t of every build_spike_net call, by the shared blocks or the
    interpolation-net builder."""
    calls = []
    real = constructors.build_spike_net

    def recording(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(constructors, "build_spike_net", recording)
    return calls


def _counting_forms(monkeypatch):
    """One entry per index form made."""
    made = []
    form = relu_net._IndexForm
    monkeypatch.setattr(relu_net, "_IndexForm", lambda *a: made.append(1) or form(*a))
    return made


def _keeping_nets(monkeypatch):
    """The net of every build_functional_net call of the pipeline."""
    nets = []
    real = build_functional_net

    def keeping(*args):
        fnet = real(*args)
        nets.append(fnet.net)
        return fnet

    monkeypatch.setattr(pipeline_module, "build_functional_net", keeping)
    return nets


class TestOneRecordPerDegree:
    def test_mu_and_the_modulus_are_made_once_per_degree(self, monkeypatch):
        # the polynomial term's inputs depend on m alone: one call each per
        # degree, not one per built point
        calls = {"mu_values": 0, "transfer_modulus": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(pipeline_module, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(pipeline_module, name, counted)
        report = run_rate_experiment(_seed7_config("inner"))
        # 10 built and 2 skipped grid points and 5 ladder points over m = 0, 1, 2
        assert len(report.completed()) == 10 and len(report.rows) == 12
        assert [r[-1] for r in report.summary["budget_ladder_rows"]] == ["ok"] * 5
        assert calls == {"mu_values": 3, "transfer_modulus": 3}

    def test_rows_and_the_report_are_fixed_when_made(self):
        # t=3 at N=64 has 274625 nodes, over the cap
        cfg = replace(_seed7_config("inner"), m_values=(0, 1), N_values=(4, 64),
                      node_cap=1000, ladder=False)
        report = run_rate_experiment(cfg)
        assert isinstance(report.rows, tuple)
        assert [r.status for r in report.rows] == ["ok", "ok", "ok", "skipped"]
        for row in report.rows:
            with pytest.raises(dataclasses.FrozenInstanceError):
                row.sup_error = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                row.status = "ok"
        for name, value in (("rows", ()), ("summary", {}), ("functional", "")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, name, value)
        # the summary holds a copy of the input class's fields, so writing
        # into it leaves the frozen class as it was made
        report.summary["input_class"]["beta"] = 99.0
        assert cfg.input_class.beta == 2.0

    def test_a_net_too_large_to_write_keeps_its_row(self, monkeypatch, tmp_path):
        cfg = replace(_seed7_config("inner"), m_values=(0, 1), N_values=(2, 4),
                      ladder=False)
        plain = _report_reprs(run_rate_experiment(cfg))
        monkeypatch.setattr(relu_net, "SERIALIZE_ENTRY_LIMIT", 0)
        report = run_rate_experiment(replace(cfg, dump_dir=str(tmp_path)))
        assert all(r.network_file.startswith("not dumped (") for r in report.rows)
        assert list(tmp_path.iterdir()) == []
        rows, summary = _report_reprs(report)
        assert [{**r, "network_file": "''"} for r in rows] == plain[0]
        assert summary == plain[1]


@pytest.mark.usefixtures("fresh_blocks")
class TestOneSpikeBlockPerT:
    def test_seed7_builds_each_t_once(self, monkeypatch):
        calls = _recording_spike_net(monkeypatch)
        run_rate_experiment(_seed7_config("inner"))
        assert calls == [1, 3, 5]

    def test_skipped_degree_builds_no_block(self, monkeypatch):
        # t=3 grids have 27 and 125 nodes, t=5 grids 243 and 3125
        calls = _recording_spike_net(monkeypatch)
        cfg = replace(_seed7_config("inner"), N_values=(2, 4), node_cap=200,
                      ladder=False)
        report = run_rate_experiment(cfg)
        assert [r.reason for r in report.rows if r.m == 2] == [
            "node_cap:243", "node_cap:3125"]
        assert calls == [1, 3]

    @pytest.mark.parametrize("seed", [7, 1501])
    @pytest.mark.parametrize("kind", ["inner", "sin", "l1"])
    def test_report_equals_one_block_per_net(self, kind, seed, monkeypatch):
        shared = _report_reprs(run_rate_experiment(_seed7_config(kind, seed)))
        monkeypatch.setattr(pipeline_module, "shared_block", constructors.build_spike_net)
        assert _report_reprs(run_rate_experiment(_seed7_config(kind, seed))) == shared

    def test_nets_of_one_t_share_the_deeper_layers(self, monkeypatch):
        nets = _keeping_nets(monkeypatch)
        made = _counting_forms(monkeypatch)
        run_rate_experiment(_seed7_config("inner"))
        assert len(nets) == 15
        assert len({id(net.layers[0]) for net in nets}) == 15
        by_t = {}
        for net in nets:
            by_t.setdefault(net.input_dim, []).append(net.layers[1:])
        assert sorted(by_t) == [1, 3, 5]
        for t, deeper in by_t.items():
            assert len(deeper[0]) == t * t + t
            for layers in deeper[1:]:
                assert all(a is b for a, b in zip(layers, deeper[0], strict=True))
        # one index form per first layer, and one per shared layer
        assert len(made) == 15 + sum(t * t + t for t in by_t) == 59

    def test_a_second_experiment_builds_no_block(self, monkeypatch):
        calls = _recording_spike_net(monkeypatch)
        made = _counting_forms(monkeypatch)
        first = _report_reprs(run_rate_experiment(_seed7_config("inner")))
        assert (calls, len(made)) == ([1, 3, 5], 59)
        # the blocks and their forms stay for the process: only the 15
        # first layers, one per net, are made again
        assert _report_reprs(run_rate_experiment(_seed7_config("inner"))) == first
        assert (calls, len(made)) == ([1, 3, 5], 59 + 15)

    def test_reloaded_documents_share_the_block(self, monkeypatch):
        nets = _keeping_nets(monkeypatch)
        run_rate_experiment(replace(_seed7_config("inner"), m_values=(1,),
                                    N_values=(2,), ladder=False))
        [net] = nets
        raw = relu_net.serialize(net)
        reloaded = [deserialize(raw), deserialize(raw)]
        for back in reloaded:
            assert back.grid == net.grid
            assert back.layers[0] is not net.layers[0]
            assert all(a is b for a, b in zip(back.layers[1:], net.layers[1:], strict=True))
        assert reloaded[0].layers[0] is not reloaded[1].layers[0]


def _doubled_last_layer(block):
    """``block`` with its last layer doubled: the shape of a spike block,
    twice its values."""
    last = block.layers[-1]
    layers = [*block.layers[:-1], relu_net.Layer(2.0 * last.weights, last.shifts)]
    return relu_net.ReluNetwork(block.input_dim, layers, block.output)


class TestADoctoredBlockStaysInItsTest:
    """In file order: the first test builds its nets from a doctored
    block, and the second, which clears no block first, must find the
    real one."""

    CFG = replace(_seed7_config("inner"), m_values=(0, 1), N_values=(2, 4), ladder=False)

    def test_a_doctored_block_changes_the_report(self, fresh_blocks, monkeypatch):
        build = constructors.build_spike_net
        monkeypatch.setattr(constructors, "build_spike_net",
                            lambda t: _doubled_last_layer(build(t)))
        # the nets read twice the spike the oracle reads
        assert run_rate_experiment(self.CFG).summary["max_oracle_gap"] > 0.1

    def test_the_next_report_hashes_as_before(self, monkeypatch):
        shared = _report_reprs(run_rate_experiment(self.CFG))
        monkeypatch.setattr(pipeline_module, "shared_block", constructors.build_spike_net)
        assert _report_reprs(run_rate_experiment(self.CFG)) == shared


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


def test_report_has_stage_times(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline_module, "_LADDER_BUDGETS", 2)
    cfg = ExperimentConfig(
        s=1, p=2.0,
        functional=inner_product_functional(get_function("gaussian"),
                                            make_operator(1, 1).rule),
        input_class=InputClass("hoelder_ball", 2.0, 4, seed=11),
        m_values=(0, 1), N_values=(2,), ladder=True,
        ladder_weight_cap=100_000,
    )
    report = run_rate_experiment(cfg)
    timing = ("mu_seconds", "build_seconds", "eval_seconds", "oracle_seconds")
    for row in report.rows:
        for name in timing:
            assert getattr(row, name) >= 0.0
    report.to_csv(tmp_path / "report.csv")
    report.summary_to_json(tmp_path / "summary.json")
    header = (tmp_path / "report.csv").read_text().splitlines()[0].split(",")
    assert set(timing) <= set(header)
    stages = json.loads((tmp_path / "summary.json").read_text())["stage_seconds"]
    assert set(stages) == {"inputs", "sample", "mu", "build", "eval", "oracle"}
    assert all(v >= 0.0 for v in stages.values())


# mu over grids of the criterion-6 sweep at m in {1, 2}, by the node writer
# (runs of whole sub-lattices) and by mu_values on all nodes (runs of
# 16 384 // r vectors); m=1, N=32 and m=2, N >= 8 span several runs (the L1
# norm's runs hold 16 384 // 16 or // 20 nodes, so its m=1, N >= 16 and m=2
# shapes do; it runs only the shapes within the sweep's 200 000-node cap).
# Prints the bytes' digest of both per shape.
_NODE_RUN_SCRIPT = """
import hashlib, json
from funcrelu import pipeline, verify
from funcrelu.discretize import make_operator
from funcrelu.simplicial import ScaledGrid

digests = {}
for kind in ("inner", "sin", "l1"):
    functional = verify._rate_config(functional_kind=kind).functional
    for m, R, N_values in ((1, 0.9639, (4, 8, 16, 32)), (2, 1.0535, (4, 8, 16))):
        if kind == "l1":
            # the sweep's node cap
            N_values = tuple(N for N in N_values if (N + 1) ** (2 * m + 1) <= 200_000)
        op = make_operator(1, m)
        F = functional.bind(op.rule)
        for N in N_values:
            grid = ScaledGrid(op.t, R, N)
            runs = pipeline.build_functional_net(F, op, grid).spec.node_values
            whole = pipeline.mu_values(F, op, grid.node_array())
            digests[f"{kind} m={m} N={N}"] = [hashlib.sha256(v.tobytes()).hexdigest()
                                              for v in (runs, whole)]
print(json.dumps(digests))
"""


def test_node_runs_give_the_one_thread_one_piece_mu_values():
    # the run size checked here, under one and two BLAS threads
    assert pipeline_module._NODE_RUN == 16_384
    src = Path(pipeline_module.__file__).resolve().parents[1]
    digests = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-W", "error", "-c", _NODE_RUN_SCRIPT],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        digests[threads] = json.loads(done.stdout)
    assert len(digests["1"]) == 20
    for shape, (runs, whole) in digests["1"].items():
        assert runs == whole, shape
        # mu makes no BLAS call, so the BLAS thread count moves no bit
        assert digests["2"][shape][0] == runs, shape


def test_mu_values_holds_one_run_of_sums():
    # the L1 norm at s=2, m=1 has r = 256 sums per vector: 8192 vectors at
    # once would hold 16.8 MB of them, a run of 16 384 // 256 = 64 vectors
    # holds 131 kB, and a handful of run-sized temporaries live beside it
    op = make_operator(2, 1)
    F = l1_norm_functional(2, 2.0).bind(op.rule)
    vectors = np.random.default_rng(3).uniform(-1.0, 1.0, (8192, op.t))
    run_bytes = 8 * pipeline_module._NODE_RUN
    tracemalloc.start()
    try:
        values = mu_values(F, op, vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes + 8 * run_bytes
    assert _same_bits(values, np.concatenate([mu_values(F, op, v)
                                              for v in np.split(vectors, 4)]))


def test_node_values_written_in_place():
    # 10^6 nodes at t=1: the node values (8 MB) outweigh one run's working
    # set, so a second array of all nodes would show in the peak
    op = make_operator(1, 0)
    F = verify._rate_config(functional_kind="inner").functional.bind(op.rule)
    grid = ScaledGrid(op.t, 1.0, 999_999)
    run = pipeline_module._NODE_RUN
    tracemalloc.start()
    try:
        mu_values(F, op, grid.nodes(np.arange(run)))
        run_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        values = build_functional_net(F, op, grid).spec.node_values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * values.nbytes + run_peak
    assert np.array_equal(values[:run], mu_values(F, op, grid.nodes(np.arange(run))))


# The seed-7 'inner', 'sin' and 'l1' reports at m=2, N=8, as the reprs of
# their rows without their timings.
_THREADS_SCRIPT = """
import json
from dataclasses import replace
from funcrelu import pipeline, verify

timing = {"wall_seconds", "mu_seconds", "build_seconds", "eval_seconds",
          "oracle_seconds"}
rows = {}
for kind in ("inner", "sin", "l1"):
    cfg = replace(verify._rate_config(functional_kind=kind), m_values=(2,),
                  N_values=(8,))
    rows[kind] = [{k: repr(v) for k, v in vars(r).items() if k not in timing}
                  for r in pipeline.run_rate_experiment(cfg).rows]
print(json.dumps(rows))
"""


def test_seed7_report_does_not_follow_the_blas_thread_count():
    src = Path(pipeline_module.__file__).resolve().parents[1]
    rows = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-W", "error", "-c", _THREADS_SCRIPT],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        rows[threads] = json.loads(done.stdout)
    for kind in ("inner", "sin", "l1"):
        assert [(r["m"], r["N"], r["status"]) for r in rows["1"][kind]] == [
            ("2", "8", "'ok'")]
    assert rows["1"] == rows["2"]


_LINEAR_KINDS = {
    "inner": lambda rule: inner_product_functional(get_function("slow-series"), rule),
    "sin": lambda rule: sin_inner_product_functional(get_function("gaussian"), rule),
    "constant": lambda rule: constant_functional(-0.75),
}
# every kind of the one mu writer: the ridge functionals, r = 1, and the
# L1 norm, declared by its form, r = the rule's node count
_MU_KINDS = {**_LINEAR_KINDS,
             "l1": lambda rule: l1_norm_functional(rule.points.shape[1], 2.0)}
# non-dyadic, so node coordinates -R + h*i are rounded
_ODD_R = 1.295091801838947


def _loop_coefficients(F, op):
    # a_k = sum over the rule's nodes, in their order, of B[q, k] * w_q g_q
    gw = F.on(op.rule).gw
    B = op.basis_at_nodes
    a = []
    for k in range(op.t):
        total = 0.0
        for q in range(B.shape[0]):
            total += float(B[q, k]) * float(gw[q])
        a.append(total)
    return a


def _loop_node_values(F, op, grid):
    a = _loop_coefficients(F, op)
    psi = F.on(op.rule).psi
    out = []
    for xi in grid.node_array():
        total = 0.0
        for k in range(op.t):
            total += float(xi[k]) * a[k]
        out.append(float(psi(np.float64(total))))
    return np.array(out)


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", sorted(_LINEAR_KINDS))
@pytest.mark.parametrize("m, N, run", [
    # t = 1, 3, 5 over 3, 5 and 5 runs of the default size; at N = 41 the
    # last node -R + h*N is not R
    (0, 40_000, None), (1, 41, None), (2, 8, None),
    # small runs, so that one to three leading axes are indexed
    (0, 120, 50), (1, 9, 50), (2, 4, 50),
])
def test_table_path_equals_a_per_node_loop(kind, m, N, run, monkeypatch):
    if run is not None:
        monkeypatch.setattr(pipeline_module, "_NODE_RUN", run)
    op = make_operator(1, m)
    F = _LINEAR_KINDS[kind](op.rule).bind(op.rule)
    grid = ScaledGrid(op.t, _ODD_R, N)
    assert grid.node_count > 2 * pipeline_module._NODE_RUN
    assert _same_bits(pipeline_module._coefficient_weights(F.on(op.rule).gw, op), _loop_coefficients(F, op))
    values = build_functional_net(F, op, grid).spec.node_values
    assert _same_bits(values, _loop_node_values(F, op, grid))


@pytest.mark.parametrize("kind", sorted(_MU_KINDS))
@pytest.mark.parametrize("s, m, N", [(1, 0, 20_000), (1, 1, 30), (1, 2, 8), (2, 1, 3)])
def test_mu_values_at_the_nodes_equal_the_built_values(kind, s, m, N):
    op = make_operator(s, m)
    F = _MU_KINDS[kind](op.rule)
    grid = ScaledGrid(op.t, _ODD_R, N)
    values = build_functional_net(F, op, grid).spec.node_values
    # one call on all nodes; mu_values holds the sums of _NODE_RUN // r
    # vectors at a time (the L1 norm at s=2: 64 vectors of 256 sums)
    nodes = grid.node_array()
    assert _same_bits(mu_values(F, op, nodes), values)
    assert _same_bits(mu_values(F.bind(op.rule), op, nodes), values)


def _gamma(n):
    u = 2.0 ** -53
    return n * u / (1.0 - n * u)


@pytest.mark.parametrize("kind", sorted(_LINEAR_KINDS))
@pytest.mark.parametrize("s, m, N", [(1, 0, 64), (1, 1, 16), (1, 2, 8), (2, 1, 3)])
def test_table_path_near_the_quadrature_path(kind, s, m, N):
    # Both paths compute S = sum_{k,q} xi_k B_qk (w g)_q, one as
    # sum_q (sum_k xi_k B_qk)(w g)_q, the other as sum_k xi_k (sum_q B_qk (w g)_q).
    # Each is within (g_t + g_q + g_t g_q) * sum_{k,q} |xi_k| |B_qk| |(w g)_q|
    # of S, with g_n = n u / (1 - n u) the dot-product error factor for any
    # summation order.  psi = sin adds at most 4 ulp of 1 per evaluation.
    op = make_operator(s, m)
    F = _LINEAR_KINDS[kind](op.rule)
    grid = ScaledGrid(op.t, _ODD_R, N)
    nodes = grid.node_array()
    table = build_functional_net(F, op, grid).spec.node_values
    reference = _quadrature_node_values(F, op, grid)
    t, q = op.t, op.rule.points.shape[0]
    R = float(np.abs(nodes).max())
    mass = float((np.abs(F.on(op.rule).gw) @ np.abs(op.basis_at_nodes)).sum())
    psi_slack = 8 * 2.0 ** -52 if kind == "sin" else 0.0
    bound = 2 * (_gamma(t) + _gamma(q) + _gamma(t) * _gamma(q)) * R * mass + psi_slack
    assert np.abs(table - reference).max() <= bound


def _quadrature_node_values(F, op, grid):
    # the node values of the parent path: the functional applied by
    # quadrature to the node polynomials, run by run
    run = pipeline_module._NODE_RUN
    n = grid.node_count
    return np.concatenate([
        np.asarray(F.apply_sampled(grid.nodes(np.arange(lo, min(lo + run, n)))
                                   @ op.basis_at_nodes.T, op.rule), dtype=float).ravel()
        for lo in range(0, n, run)])


@pytest.mark.parametrize("s, m, N", [(1, 1, 40), (1, 2, 8), (2, 1, 3)])
def test_squared_coeff_norm_keeps_the_quadrature_node_values(s, m, N):
    # The writer forms v = B xi as running sums in axis order, the reference
    # as a BLAS product; the form then computes
    # c_j = f_j sum_q (v_q w_q) B'_qj and sum_j c_j^2 (B' the form's own basis
    # at the nodes).  Each term xi_k B_qk w_q B'_qj f_j of c_j passes through
    # at most n = t + q + 2 roundings in either path (t for v_q in any order,
    # one for w, q for the dot in any order, one for f), so the computed c_j
    # is within g_n |c|_j of the exact one, |c|_j the same sum of absolute
    # terms; squaring and the t-term sum make that g_(2n + t) sum_j |c|_j^2.
    op = make_operator(s, m)
    F = _squared_coeff_norm(op, 2.0)
    assert not isinstance(F.on(op.rule), LinearForm)
    grid = ScaledGrid(op.t, _ODD_R, N)
    values = build_functional_net(F, op, grid).spec.node_values
    reference = _quadrature_node_values(F, op, grid)
    t, q = op.t, op.rule.points.shape[0]
    V = np.abs(grid.node_array()) @ np.abs(op.basis_at_nodes).T
    c = (V * op.rule.weights) @ np.abs(op.basis.eval_all(op.rule.points)) * op.filter
    bound = 2 * _gamma(2 * (t + q + 2) + t) * (c**2).sum(axis=1)
    assert np.all(np.abs(values - reference) <= bound)


@pytest.mark.parametrize("s, m, N", [(1, 0, 64), (1, 1, 40), (1, 2, 8), (2, 1, 3)])
def test_l1_node_values_near_the_quadrature_path(s, m, N):
    # v_q = (B xi)_q is within g_t V_q of its exact value in either path,
    # V_q = sum_k |xi_k| |B_qk|; |.| rounds nothing, and the product with w
    # and the q-term sum put at most q roundings on each |v_q| w_q.  Each
    # path is then within (g_t + g_q + g_t g_q) sum_q w_q V_q of the exact
    # sum_q |v_q| w_q.
    op = make_operator(s, m)
    F = l1_norm_functional(s, 2.0)
    grid = ScaledGrid(op.t, _ODD_R, N)
    values = build_functional_net(F, op, grid).spec.node_values
    reference = _quadrature_node_values(F, op, grid)
    t, q = op.t, op.rule.points.shape[0]
    V = np.abs(grid.node_array()) @ np.abs(op.basis_at_nodes).T
    bound = 2 * (_gamma(t) + _gamma(q) + _gamma(t) * _gamma(q)) * (V @ op.rule.weights)
    assert np.all(np.abs(values - reference) <= bound)


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_l1_norm_modulus_holds_on_samples(s, p):
    # |F(f) - F(g)| <= ||f - g||_1 <= 2^(s (1 - 1/p)) ||f - g||_p on the
    # rule (Hoelder with the rule's weights, which sum to 2^s); c_hat and
    # the bound of the rate check rest on this modulus
    F = l1_norm_functional(s, p)
    assert F.omega == PowerModulus(2.0 ** (s * (1.0 - 1.0 / p)), 1.0)
    rule = make_operator(s, 1).rule
    samples = sample_inputs(generate_inputs(InputClass("hoelder_ball", 2.0, 12, seed=5,
                                                       degree_cap=8), s), rule)
    # positive inputs 2.5 + a and 2 + b with |a - b| < 0.5, where the first
    # step is an equality
    samples = np.vstack([samples, 2.0 + samples[:3] * 0.1, 2.5 + samples[:3] * 0.1])
    values = F.apply_sampled(samples, rule)
    ratios = []
    for i in range(len(samples)):
        for j in range(i):
            gap = abs(float(values[i] - values[j]))
            r = sampled_lp_norm(samples[i] - samples[j], p, rule)
            slack = 1e-12 * (abs(float(values[i])) + abs(float(values[j])))
            assert gap <= float(F.omega(r)) * (1 + 1e-12) + slack, (i, j)
            ratios.append(gap / float(F.omega(r)))
    # the constant is no looser than needed where p = 1
    if p == 1.0:
        assert max(ratios) == pytest.approx(1.0, rel=1e-12)


class TestMuValuesNamedErrors:
    @staticmethod
    def _functional(kind, op):
        # one functional of each kind of S: a ridge (r = 1) and a form (r = nodes)
        if kind == "inner":
            return _LINEAR_KINDS["inner"](op.rule)
        return _squared_coeff_norm(op, 1.0)

    @pytest.mark.parametrize("kind", ["inner", "squared"])
    @pytest.mark.parametrize("shape", [(), (4,), (2, 4), (2, 2, 3), (3, 0)])
    def test_wrong_shape(self, kind, shape):
        op = make_operator(1, 1)
        F = self._functional(kind, op)
        with pytest.raises(ValueError, match=r"points must have shape \(3,\) or \(n, 3\)"):
            mu_values(F, op, np.zeros(shape))

    @pytest.mark.parametrize("kind", ["inner", "squared"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_named(self, kind, bad):
        op = make_operator(1, 1)
        F = self._functional(kind, op)
        vectors = np.zeros((4, 3))
        vectors[2, 1] = bad
        with pytest.raises(ValueError, match=r"^point 2 has a non-finite coordinate"):
            mu_values(F, op, vectors)
        with pytest.raises(ValueError, match=r"^point 0 has a non-finite coordinate"):
            mu_values(F, op, vectors[2])

    @pytest.mark.parametrize("kind", ["inner", "squared"])
    def test_complex_vectors_named(self, kind):
        op = make_operator(1, 1)
        F = self._functional(kind, op)
        with pytest.raises(ValueError, match=r"points must be real numbers, got dtype complex128"):
            mu_values(F, op, np.zeros((2, 3)) + 1j)

    def test_one_vector_gives_one_value(self):
        op = make_operator(1, 1)
        F = _LINEAR_KINDS["sin"](op.rule)
        v = np.array([0.3, -0.2, 0.1])
        assert _same_bits(mu_values(F, op, v), mu_values(F, op, v[None, :]))
        assert mu_values(F, op, v).shape == (1,)

import math

import numpy as np
import pytest

from funcrelu.discretize import (
    DiscretizationOperator,
    InputFunction,
    RadiusSpec,
    apply_Vm,
    discretize,
    filter_vector,
    make_operator,
    projection_error,
    transfer_modulus,
    vm_error,
)
from funcrelu.legendre import (
    LegendreBasis,
    PolyCoeffs,
    default_rule_size,
    gauss_legendre_rule,
    lp_norm,
    tensor_eval,
    tensor_multi_indices,
)
from funcrelu.pipeline import (
    InputClass,
    generate_inputs,
    inner_product_functional,
    mu_values,
)


def poly_input(basis, coeffs, tag="poly"):
    poly = PolyCoeffs(basis, coeffs)
    return InputFunction(poly, tag=tag)


class TestFilters:
    @pytest.mark.parametrize("kind", ["dlvp", "truncate"])
    def test_ones_on_low_block_and_range(self, kind):
        for s, m in ((1, 2), (2, 1), (2, 2)):
            basis = LegendreBasis(s, m)
            h = filter_vector(basis, kind)
            low = (basis.multi_indices <= m).all(axis=1)
            assert np.all(h[low] == 1.0)
            assert np.all((h >= 0.0) & (h <= 1.0))

    def test_dlvp_univariate_values(self):
        basis = LegendreBasis(1, 2)
        h = filter_vector(basis, "dlvp")
        # degrees 0..4 with m = 2: 1, 1, 1, 2/3, 1/3
        assert np.allclose(h, [1, 1, 1, 2 / 3, 1 / 3])

    def test_truncate_kills_high_block(self):
        basis = LegendreBasis(1, 2)
        h = filter_vector(basis, "truncate")
        assert np.allclose(h, [1, 1, 1, 0, 0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            filter_vector(LegendreBasis(1, 1), "hamming")

    def test_operator_validates_filter(self):
        basis = LegendreBasis(1, 1)
        rule = gauss_legendre_rule(8, 1)
        with pytest.raises(ValueError):
            DiscretizationOperator(basis, np.full(basis.t, 0.5), rule)
        with pytest.raises(ValueError):
            DiscretizationOperator(basis, np.full(basis.t, 1.5), rule)

    def test_operator_rejects_non_finite_filter(self):
        basis = LegendreBasis(1, 1)
        rule = gauss_legendre_rule(8, 1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                DiscretizationOperator(basis, [1.0, 1.0, bad], rule)


class TestApplyVm:
    def test_reproduces_low_degree_basis_function(self):
        op = make_operator(1, 2)
        for j in range(3):  # degrees 0..2 are inside the low block
            c = np.zeros(op.t)
            c[j] = 1.0
            f = poly_input(op.basis, c)
            got = apply_Vm(op, f).coeffs
            assert np.abs(got - c).max() <= 1e-12

    def test_zero_function(self):
        op = make_operator(2, 1)
        got = apply_Vm(op, InputFunction(lambda x: np.zeros(len(np.atleast_2d(x))))).coeffs
        assert np.all(got == 0.0)

    def test_near_best_at_p2(self):
        # the taper damps exactly what the best degree-2 approximation
        # drops, so the operator error never exceeds the projection error
        op = make_operator(1, 2)
        f = InputFunction(lambda x: np.atleast_2d(x)[:, 0] ** 5, tag="x^5")
        best = projection_error(op, f)
        assert vm_error(op, f) <= best * (1 + 1e-10)

    def test_nan_reported_with_node(self):
        op = make_operator(1, 1)

        def bad(x):
            x = np.atleast_2d(x)
            out = np.ones(x.shape[0])
            out[x[:, 0] > 0.9] = np.nan
            return out

        with pytest.raises(ValueError, match="node"):
            apply_Vm(op, InputFunction(bad))


class TestDiscretize:
    def test_zero(self):
        op = make_operator(1, 1)
        assert np.all(discretize(op, InputFunction(lambda x: np.zeros(len(np.atleast_2d(x))))) == 0.0)

    def test_projection_fixes_low_block_polynomials(self):
        rng = np.random.default_rng(0)
        op = make_operator(2, 1)
        low = (op.basis.multi_indices <= 1).all(axis=1)
        c = np.where(low, rng.standard_normal(op.t), 0.0)
        nu = discretize(op, poly_input(op.basis, c))
        assert np.abs(nu - c).max() <= 1e-11

    def test_isometry_of_vector(self):
        rng = np.random.default_rng(1)
        op = make_operator(1, 2)
        for _ in range(20):
            c = rng.standard_normal(op.t)
            f = poly_input(op.basis, c)
            nu = discretize(op, f)
            assert float(np.linalg.norm(nu)) == pytest.approx(
                lp_norm(apply_Vm(op, f), 2, op.rule), abs=1e-10
            )

    def test_linearity(self):
        rng = np.random.default_rng(2)
        op = make_operator(1, 1)
        f = InputFunction(lambda x: np.cos(np.atleast_2d(x)[:, 0]))
        g = InputFunction(lambda x: np.atleast_2d(x)[:, 0] ** 3)
        for _ in range(10):
            a, b = rng.standard_normal(2)
            combo = InputFunction(lambda x, a=a, b=b: a * f(x) + b * g(x))
            lhs = discretize(op, combo)
            rhs = a * discretize(op, f) + b * discretize(op, g)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_radius_violation_is_error(self):
        op = make_operator(1, 1)
        spec = RadiusSpec(m=1, s=1, p=2.0, C_K=1e-6)
        big = InputFunction(lambda x: 10.0 * np.ones(len(np.atleast_2d(x))))
        with pytest.raises(ValueError, match="cube"):
            discretize(op, big, radius_spec=spec)

    def test_radius_accepts_inside(self):
        op = make_operator(1, 1)
        spec = RadiusSpec(m=1, s=1, p=2.0, C_K=10.0)
        f = InputFunction(lambda x: np.ones(len(np.atleast_2d(x))))
        nu = discretize(op, f, radius_spec=spec)
        assert np.abs(nu).max() <= spec.R

    def test_self_check_warns_on_underresolved_rule(self):
        op = make_operator(1, 1, q=3)
        wiggly = InputFunction(lambda x: np.cos(9.0 * np.atleast_2d(x)[:, 0]))
        with pytest.warns(UserWarning, match="quadrature"):
            discretize(op, wiggly, self_check=True)

    def test_bounded_over_generated_class(self):
        op = make_operator(1, 2)
        inputs = generate_inputs(InputClass("hoelder_ball", 2.0, 16, seed=5), 1)
        c_k = max(
            lp_norm(apply_Vm(op, f), 2, op.rule) for f in inputs
        )
        spec = RadiusSpec(m=2, s=1, p=2.0, C_K=c_k * (1 + 1e-12))
        for f in inputs:
            nu = discretize(op, f, radius_spec=spec)
            assert np.abs(nu).max() <= spec.R


class TestRadiusSpec:
    def test_p2_radius_is_ck(self):
        assert RadiusSpec(3, 2, 2.0, 1.7).R == pytest.approx(1.7)

    def test_p1_exponent(self):
        # 2 s max(1/p - 1/2, 0) = 2 * 1 * 1/2 = 1 at p = 1, s = 1
        assert RadiusSpec(3, 1, 1.0, 1.0).R == pytest.approx(3.0)

    def test_m_zero_edge(self):
        assert RadiusSpec(0, 1, 1.0, 1.0).R == pytest.approx(1.0)


class TestTransferModulus:
    def test_p2_is_identity_scale(self):
        omega = transfer_modulus(lambda r: r, m=5, s=3, p=2.0)
        for r in (0.1, 1.0, 7.0):
            assert omega(r) == pytest.approx(r)

    def test_p4_exponent_example(self):
        # exponent 2 * 1 * (1/2 - 1/4) = 1/2, so factor sqrt(3) at m = 3
        omega = transfer_modulus(lambda r: r, m=3, s=1, p=4.0)
        assert omega(1.0) == pytest.approx(math.sqrt(3.0))

    def test_p1_exponent_is_zero(self):
        omega = transfer_modulus(lambda r: r, m=3, s=1, p=1.0)
        assert omega(2.0) == pytest.approx(2.0)

    def test_monotone_preserved(self):
        omega = transfer_modulus(lambda r: r**0.5, m=2, s=2, p=4.0)
        rs = np.linspace(0.01, 5, 50)
        vals = np.array([omega(r) for r in rs])
        assert np.all(np.diff(vals) >= 0)


class TestProjectionError:
    def test_zero_for_contained_polynomials(self):
        basis = LegendreBasis(1, 1)  # degrees 0..2
        f = poly_input(basis, np.array([0.5, -1.0, 2.0]))
        assert projection_error(make_operator(1, 2), f) <= 1e-10

    def test_abs_regression_baseline(self):
        # analytic oracle: |x| onto degree <= 2 has error
        # sqrt(2/3 - 1/2 - 5/32); the kink costs the default rule a few 1e-3
        exact = math.sqrt(2.0 / 3.0 - 0.5 - 5.0 / 32.0)
        f = InputFunction(lambda x: np.abs(np.atleast_2d(x)[:, 0]))
        assert projection_error(make_operator(1, 2), f) == pytest.approx(exact, abs=5e-3)
        assert projection_error(make_operator(1, 2, q=400), f) == pytest.approx(
            exact, abs=1e-4)

    def test_monotone_in_m(self):
        # fixed rule: nested discrete least-squares errors are monotone
        f = InputFunction(lambda x: np.exp(np.atleast_2d(x)[:, 0]))
        errs = [projection_error(make_operator(1, m, q=40), f) for m in range(0, 6)]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12

    def test_p_not_two_upper_bounds_p2_scaled(self):
        f = InputFunction(lambda x: np.abs(np.atleast_2d(x)[:, 0]))
        # p = 1 norm of the residual is below its p = 2 norm times |cube|^(1/2)
        op = make_operator(1, 2)
        e1 = projection_error(op, f, p=1.0)
        e2 = projection_error(op, f, p=2.0)
        assert e1 <= e2 * math.sqrt(2.0) + 1e-12


def test_functional_chain_inequality():
    # |F(f) - F(V f)| <= omega_F(||f - V f||_p) for a Lipschitz functional
    op = make_operator(1, 2)
    g = InputFunction(lambda x: np.exp(-np.atleast_2d(x)[:, 0] ** 2), tag="gaussian")
    F = inner_product_functional(g, op.rule, p=2.0)
    inputs = generate_inputs(InputClass("hoelder_ball", 2.0, 24, seed=8), 1)
    for f in inputs:
        approx = apply_Vm(op, f)
        lhs = abs(F(f, op.rule) - float(F.apply_sampled(approx(op.rule.points), op.rule)))
        rhs = F.omega(vm_error(op, f))
        assert lhs <= rhs + 1e-12


@pytest.mark.parametrize("p", [0.0, 0.5, math.nan, math.inf])
def test_p_below_one_is_rejected(p):
    # and p = inf: the paper's range is 1 <= p < inf
    op = make_operator(1, 1)
    f = InputFunction(lambda x: np.cos(np.atleast_2d(x)[:, 0]))
    with pytest.raises(ValueError, match="p >= 1"):
        projection_error(op, f, p)
    with pytest.raises(ValueError, match="p >= 1"):
        vm_error(op, f, p)
    with pytest.raises(ValueError, match="p >= 1"):
        RadiusSpec(m=1, s=1, p=p, C_K=1.0)
    with pytest.raises(ValueError, match="p >= 1"):
        transfer_modulus(lambda r: r, m=1, s=1, p=p)


def _inputs_for(s):
    kink = InputFunction(lambda x: np.abs(np.atleast_2d(x)).sum(axis=1), tag="l1")
    return [kink, *generate_inputs(InputClass("hoelder_ball", 2.0, 3, seed=9), s)]


@pytest.mark.parametrize("s, m", [(1, 0), (1, 1), (1, 2), (1, 3),
                                  (2, 0), (2, 1), (2, 2)])
@pytest.mark.parametrize("q", [None, 40])
def test_operator_projections_equal_fresh_formulas(s, m, q):
    # the operator's stored basis values reproduce, bit for bit, the
    # projections computed from a freshly built rule and basis evaluation
    op = make_operator(s, m, q=q)
    rule = gauss_legendre_rule(default_rule_size(m) if q is None else q, s)
    low_B = tensor_eval(tensor_multi_indices(s, m), rule.points)
    B = op.basis.eval_all(rule.points)
    for f in _inputs_for(s):
        vals = np.asarray(f(rule.points), dtype=float).ravel()
        coeffs = op.filter * (B.T @ (rule.weights * vals))
        assert np.array_equal(apply_Vm(op, f).coeffs, coeffs)
        resid = vals - low_B @ (low_B.T @ (rule.weights * vals))
        approx = PolyCoeffs(op.basis, coeffs)
        for p in (1.0, 2.0, 3.0):
            ref = float((rule.weights @ np.abs(resid) ** p) ** (1.0 / p))
            assert projection_error(op, f, p) == ref
            assert vm_error(op, f, p) == lp_norm(lambda x: f(x) - approx(x), p, rule)


def test_operator_evaluates_basis_once(monkeypatch):
    calls = []
    eval_all = LegendreBasis.eval_all

    def counted(self, x):
        calls.append(np.shape(x))
        return eval_all(self, x)

    monkeypatch.setattr(LegendreBasis, "eval_all", counted)
    op = make_operator(2, 1)
    f = InputFunction(lambda x: np.exp(np.atleast_2d(x).sum(axis=1)))
    g = InputFunction(lambda x: np.cos(np.atleast_2d(x)[:, 0]), tag="cos")
    nu = discretize(op, f)
    apply_Vm(op, f)
    projection_error(op, f, 3.0)
    vm_error(op, f)
    mu_values(inner_product_functional(g, op.rule), op, nu)
    assert calls == [op.rule.points.shape]


def test_node_values_project_like_the_function():
    op = make_operator(2, 1)
    f = InputFunction(lambda x: np.exp(np.atleast_2d(x).sum(axis=1)))
    vals = f(op.rule.points)
    assert np.array_equal(discretize(op, vals), discretize(op, f))
    assert np.array_equal(apply_Vm(op, vals).coeffs, apply_Vm(op, f).coeffs)
    for p in (1.0, 2.0, 3.0):
        assert projection_error(op, vals, p) == projection_error(op, f, p)
        assert vm_error(op, vals, p) == vm_error(op, f, p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_node_value_names_the_node(bad):
    op = make_operator(1, 1)
    vals = np.ones(op.rule.points.shape[0])
    vals[5] = bad
    for project in (discretize, apply_Vm, projection_error, vm_error):
        with pytest.raises(ValueError, match="non-finite value at node") as err:
            project(op, vals)
        assert str(op.rule.points[5]) in str(err.value)


@pytest.mark.parametrize("count", [0, 1, 15, 17, 32])
def test_node_values_of_wrong_length_are_rejected(count):
    op = make_operator(1, 1)
    assert op.rule.points.shape[0] == 16
    for project in (discretize, apply_Vm, projection_error, vm_error):
        with pytest.raises(ValueError, match=f"expected 16 values .* got {count}"):
            project(op, np.ones(count))


def test_self_check_needs_the_function():
    op = make_operator(1, 1)
    vals = np.cos(op.rule.points[:, 0])
    with pytest.raises(ValueError, match="self_check needs the input function"):
        discretize(op, vals, self_check=True)

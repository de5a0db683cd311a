import math

import numpy as np
import pytest

from funcrelu.discretize import DiscretizationOperator, apply_Vm, make_operator
from funcrelu.legendre import (
    LegendreBasis,
    PolyCoeffs,
    default_rule_size,
    gauss_legendre_rule,
    legendre_values,
    lp_norm,
    sampled_lp_norm,
    tensor_eval,
    tensor_multi_indices,
)


class TestUnivariate:
    def test_constant(self):
        for x in (-1.0, 0.0, 0.3, 1.0):
            assert legendre_values(0, x)[..., 0] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_linear(self):
        assert legendre_values(1, 1.0)[..., 1] == pytest.approx(math.sqrt(1.5), abs=1e-15)
        assert legendre_values(1, 0.5)[..., 1] == pytest.approx(0.5 * math.sqrt(1.5),
                                                                abs=1e-15)

    def test_normalization_by_quadrature(self):
        rule = gauss_legendre_rule(4, 1)
        vals = legendre_values(3, rule.points[:, 0])[..., 3]
        assert rule.weights @ vals**2 == pytest.approx(1.0, abs=1e-12)

    def test_matches_rodrigues_at_low_degree(self):
        # n = 2: sqrt(5/2) * (3x^2 - 1)/2 from the derivative definition
        xs = np.linspace(-1, 1, 11)
        expect = math.sqrt(2.5) * (3 * xs**2 - 1) / 2
        assert np.allclose(legendre_values(2, xs)[..., 2], expect, atol=1e-14)

    def test_values_table_shape(self):
        vals = legendre_values(5, np.zeros(7))
        assert vals.shape == (7, 6)


class TestQuadrature:
    def test_single_node_rule(self):
        rule = gauss_legendre_rule(1, 1)
        assert np.allclose(rule.points, [[0.0]])
        assert np.allclose(rule.weights, [2.0])

    def test_exact_x_squared(self):
        rule = gauss_legendre_rule(2, 1)
        assert rule.weights @ rule.points[:, 0] ** 2 == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_weight_sum_is_cube_volume(self):
        rule = gauss_legendre_rule(5, 2)
        assert rule.weights.sum() == pytest.approx(4.0, abs=1e-13)
        assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("q", [2, 3, 5, 8, 13, 20])
    def test_matches_reference_implementation(self, q):
        # independent oracle: numpy's Golub-Welsch nodes
        ref_x, ref_w = np.polynomial.legendre.leggauss(q)
        rule = gauss_legendre_rule(q, 1)
        assert np.allclose(rule.points[:, 0], np.sort(ref_x), atol=1e-14)
        assert np.allclose(rule.weights, ref_w[np.argsort(ref_x)], atol=1e-14)

    def test_exactness_up_to_degree(self):
        q = 6
        rule = gauss_legendre_rule(q, 1)
        for n in range(2 * q):
            approx = rule.weights @ rule.points[:, 0] ** n
            exact = 0.0 if n % 2 else 2.0 / (n + 1)
            assert approx == pytest.approx(exact, abs=1e-13)

    def test_default_rule_size(self):
        assert default_rule_size(0) == 16
        assert default_rule_size(5) == 44


class TestSizes:
    """The basis, rule and operator sizes are integers, named when not."""

    @pytest.mark.parametrize("call, name", [
        # a stray TypeError, a silent m = 1, a 1-node rule and an arange error
        (lambda: make_operator(1, 2.0), "m"),
        (lambda: make_operator(1, True), "m"),
        (lambda: make_operator(True, 1), "s"),
        (lambda: make_operator(1, 1, q=2.5), "q"),
        (lambda: gauss_legendre_rule(True, 1), "q"),
        (lambda: gauss_legendre_rule(math.nan, 1), "q"),
        (lambda: gauss_legendre_rule(3, 0), "s"),
        (lambda: LegendreBasis(1, -1), "m"),
        (lambda: LegendreBasis(0, 1), "s"),
    ])
    def test_a_size_that_is_no_integer_is_named(self, call, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= "):
            call()

    def test_numpy_integers_give_the_same_bits(self):
        ours = make_operator(np.int64(1), np.int32(2), q=np.int64(12))
        ref = make_operator(1, 2, q=12)
        assert (ours.basis.s, ours.basis.m, ours.rule.q) == (1, 2, 12)
        assert type(ours.basis.m) is int and type(ours.rule.q) is int
        assert ours.basis_at_nodes.tobytes() == ref.basis_at_nodes.tobytes()
        assert ours.rule.weights.tobytes() == ref.rule.weights.tobytes()


class TestBasis:
    def test_size_and_ordering(self):
        b = LegendreBasis(2, 1)
        assert b.t == 9
        assert b.multi_indices[0].tolist() == [0, 0]
        seen = {tuple(b.multi_indices[k - 1].tolist()) for k in range(1, b.t + 1)}
        assert seen == {(i, j) for i in range(3) for j in range(3)}
        totals = [int(b.multi_indices[k - 1].sum()) for k in range(1, b.t + 1)]
        assert totals == sorted(totals)

    def test_tensor_constant(self):
        b = LegendreBasis(2, 1)
        # the first basis function is L_0 x L_0
        assert b.eval_all(np.array([0.3, -0.8]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_tensor_product_value(self):
        b = LegendreBasis(2, 1)
        k = b.multi_indices.tolist().index([1, 0])
        got = b.eval_all(np.array([0.5, 0.77]))[k]
        assert got == pytest.approx(math.sqrt(1.5) * 0.5 * math.sqrt(0.5), abs=1e-14)

    @pytest.mark.parametrize("s,m", [(1, 2), (2, 1), (3, 1), (2, 2), (3, 2)])
    def test_orthonormality_gram_matrix(self, s, m):
        b = LegendreBasis(s, m)
        rule = gauss_legendre_rule(2 * m + 1, s)
        B = b.eval_all(rule.points)
        gram = B.T @ (rule.weights[:, None] * B)
        assert np.abs(gram - np.eye(b.t)).max() <= 1e-10

    def test_eval_all_matches_univariate_products(self):
        b = LegendreBasis(2, 2)
        x = np.array([0.21, -0.6])
        all_vals = b.eval_all(x)
        for k in range(1, b.t + 1):
            want = math.prod(legendre_values(n, float(xd))[..., n]
                             for n, xd in zip(b.multi_indices[k - 1].tolist(), x))
            assert all_vals[k - 1] == pytest.approx(want, abs=1e-13)


class TestPhi:
    def test_unit_vector_is_constant_function(self):
        for s in (1, 2):
            b = LegendreBasis(s, 1)
            c = np.zeros(b.t)
            c[0] = 1.0
            poly = PolyCoeffs(b, c)
            pts = np.random.default_rng(0).uniform(-1, 1, (20, s))
            assert np.allclose(poly(pts), math.sqrt(0.5) ** s, atol=1e-14)

    def test_zero_vector(self):
        b = LegendreBasis(1, 2)
        poly = PolyCoeffs(b, np.zeros(b.t))
        assert np.all(poly(np.linspace(-1, 1, 9)[:, None]) == 0.0)

    # numpy would keep the real part of a complex value and only warn
    @pytest.mark.parametrize("coeffs", [np.array([1 + 2j, 0, 0]), [1j, 0.0, 0.0]],
                             ids=["array", "list"])
    def test_complex_coefficients_are_named(self, coeffs):
        with pytest.raises(ValueError, match="coefficients must be real numbers, "
                                             "got dtype complex128"):
            PolyCoeffs(LegendreBasis(1, 1), coeffs)

    def test_isometry(self):
        rng = np.random.default_rng(1)
        for s, m in ((1, 1), (1, 3), (2, 1)):
            b = LegendreBasis(s, m)
            rule = gauss_legendre_rule(default_rule_size(m), s)
            for _ in range(100):
                c = rng.standard_normal(b.t)
                poly = PolyCoeffs(b, c)
                assert lp_norm(poly, 2, rule) == pytest.approx(
                    float(np.linalg.norm(c)), abs=1e-10
                )

    def test_phi_round_trip(self):
        rng = np.random.default_rng(2)
        b = LegendreBasis(2, 1)
        rule = gauss_legendre_rule(8, 2)
        c = rng.standard_normal(b.t)
        op = DiscretizationOperator(b, np.ones(b.t), rule)
        back = apply_Vm(op, PolyCoeffs(b, c)).coeffs
        assert np.abs(back - c).max() <= 1e-10

    def test_project_recovers_polynomial(self):
        b = LegendreBasis(1, 2)
        rule = gauss_legendre_rule(12, 1)
        target = PolyCoeffs(b, np.array([0.3, -1.0, 0.0, 2.0, 0.5]))
        got = apply_Vm(DiscretizationOperator(b, np.ones(b.t), rule), target)
        assert np.allclose(got.coeffs, target.coeffs, atol=1e-12)


def test_norm_comparison_shape():
    # ratio ||Q||_p / ||Q||_q for random Q grows no faster than
    # m^(2 s max(1/q - 1/p, 0)) times a fitted constant; measured, the
    # constant stays modest for p >= q on [1, 2] x [2, 4]
    rng = np.random.default_rng(3)
    s, p, q = 1, 4.0, 2.0
    expo = 2 * s * max(1 / q - 1 / p, 0.0)
    worst = []
    for m in (1, 2, 3, 4, 6):
        b = LegendreBasis(s, m)
        rule = gauss_legendre_rule(default_rule_size(m), s)
        ratios = []
        for _ in range(60):
            c = rng.standard_normal(b.t)
            poly = PolyCoeffs(b, c)
            ratios.append(lp_norm(poly, p, rule) / lp_norm(poly, q, rule))
        worst.append(max(ratios) / max(m, 1) ** expo)
    assert max(worst) / min(worst) < 10.0


def test_tensor_multi_indices_total_degree_sorted():
    idx = tensor_multi_indices(2, 2)
    assert idx.shape == (9, 2)
    totals = idx.sum(axis=1)
    assert np.all(np.diff(totals) >= 0)


def _reference_legendre_values(n_max, x):
    # the recurrence on the last axis of an x.shape + (n_max+1,) array
    x = np.asarray(x, dtype=float)
    vals = np.empty(x.shape + (n_max + 1,))
    vals[..., 0] = 1.0
    if n_max >= 1:
        vals[..., 1] = x
    for k in range(1, n_max):
        vals[..., k + 1] = ((2 * k + 1) * x * vals[..., k] - k * vals[..., k - 1]) / (k + 1)
    vals *= np.sqrt(np.arange(n_max + 1) + 0.5)
    return vals


def _reference_tensor_eval(multi_indices, x):
    # an array of ones multiplied by each axis's gathered values
    x = np.asarray(x, dtype=float)
    n_max = int(multi_indices.max(initial=0))
    out = np.ones(x.shape[:-1] + (multi_indices.shape[0],))
    for d in range(multi_indices.shape[1]):
        out *= _reference_legendre_values(n_max, x[..., d])[..., multi_indices[:, d]]
    return out


@pytest.mark.parametrize("n_max", [0, 1, 2, 9, 32])
def test_legendre_table_equals_the_last_axis_recurrence(n_max):
    x = np.random.default_rng(n_max).uniform(-1, 1, (5, 7))
    for pts in (x, x[0], 0.25):
        vals = legendre_values(n_max, pts)
        assert vals.flags.c_contiguous
        assert np.array_equal(vals, _reference_legendre_values(n_max, pts))


@pytest.mark.parametrize("s, degree", [(1, 32), (2, 12), (3, 5)])
def test_tensor_eval_equals_the_product_from_ones(s, degree):
    # the same bits, C-contiguous as before: the BLAS products that read
    # the table round by its layout
    idx = tensor_multi_indices(s, degree)
    x = np.random.default_rng(s).uniform(-1, 1, (3, 40, s))
    for pts in (x, x[0]):
        got = tensor_eval(idx, pts)
        assert got.flags.c_contiguous
        assert np.array_equal(got, _reference_tensor_eval(idx, pts))
    assert np.array_equal(tensor_eval(np.zeros((4, 0), dtype=int), x[0, :, :0]),
                          np.ones((40, 4)))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_sampled_norms_of_a_stack_equal_its_rows(p):
    rule = gauss_legendre_rule(12, 1)
    values = np.random.default_rng(3).standard_normal((9, 12))
    norms = sampled_lp_norm(values, p, rule)
    assert norms.shape == (9,)
    assert norms.tolist() == [sampled_lp_norm(v, p, rule) for v in values]

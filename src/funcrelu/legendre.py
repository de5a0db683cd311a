r"""Orthonormal tensor-product Legendre system on [-1, 1]^s.

Univariate polynomials are normalized so that

    \int_{-1}^{1} L_n(x) L_{n'}(x) dx = \delta_{nn'},

i.e. L_n = sqrt(n + 1/2) * P_n with P_n the classical Legendre polynomial.
For a degree parameter m the basis collects all multi-indices in
{0, ..., 2m}^s ordered by total degree (lexicographic within equal total
degree), giving t = (2m + 1)^s functions that span the space of
polynomials of coordinatewise degree at most 2m.  The coefficient map of
that basis is an isometry between the polynomial L2 norm and the
Euclidean norm on R^t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

# Quadrature points per axis used when integrating non-polynomial
# quantities such as |Q|^p; see default_rule_size.
RULE_FLOOR = 16


def legendre_values(n_max: int, x) -> np.ndarray:
    """Orthonormal Legendre values L_0..L_{n_max}, shape x.shape + (n_max+1,).

    Uses the stable three-term recurrence
    (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1} and scales by sqrt(k + 1/2).
    """
    x = np.asarray(x, dtype=float)
    vals = np.empty(x.shape + (n_max + 1,))
    vals[..., 0] = 1.0
    if n_max >= 1:
        vals[..., 1] = x
    for k in range(1, n_max):
        vals[..., k + 1] = ((2 * k + 1) * x * vals[..., k] - k * vals[..., k - 1]) / (k + 1)
    vals *= np.sqrt(np.arange(n_max + 1) + 0.5)
    return vals


def eval_legendre_1d(n: int, x):
    """Single orthonormal Legendre value L_n(x); x scalar or array."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    out = legendre_values(n, x)[..., n]
    return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def tensor_multi_indices(s: int, max_degree: int) -> np.ndarray:
    """All multi-indices in {0..max_degree}^s sorted by (total degree, lex),
    shape (count, s)."""
    idx = sorted(product(range(max_degree + 1), repeat=s),
                 key=lambda k: (sum(k), k))
    return np.array(idx, dtype=int).reshape(len(idx), s)


def tensor_eval(multi_indices: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tensor-product values prod_j L_{k_j}(x_j) for each multi-index row.

    x has shape (..., s); result has shape (..., count).
    """
    x = np.asarray(x, dtype=float)
    n_max = int(multi_indices.max(initial=0))
    out = np.ones(x.shape[:-1] + (multi_indices.shape[0],))
    for d in range(multi_indices.shape[1]):
        vals = legendre_values(n_max, x[..., d])
        out *= vals[..., multi_indices[:, d]]
    return out


@dataclass(frozen=True)
class LegendreBasis:
    """Tensor basis of the polynomials of coordinatewise degree <= 2m."""

    s: int
    m: int
    multi_indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.s < 1 or self.m < 0:
            raise ValueError("need s >= 1 and m >= 0")
        object.__setattr__(self, "multi_indices",
                           tensor_multi_indices(self.s, 2 * self.m))

    @property
    def t(self) -> int:
        return (2 * self.m + 1) ** self.s

    def multi_of(self, k: int) -> tuple:
        """Multi-index of 1-based linear index k."""
        if not 1 <= k <= self.t:
            raise IndexError(f"linear index {k} outside 1..{self.t}")
        return tuple(int(v) for v in self.multi_indices[k - 1])

    def index_of(self, multi) -> int:
        """1-based linear index of a multi-index."""
        multi = tuple(int(v) for v in multi)
        hits = np.where((self.multi_indices == np.array(multi)).all(axis=1))[0]
        if hits.size == 0:
            raise IndexError(f"multi-index {multi} not in basis")
        return int(hits[0]) + 1

    def eval_all(self, x: np.ndarray) -> np.ndarray:
        """Values of all t basis functions, shape (..., t)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.s:
            raise ValueError(f"points have dimension {x.shape[-1]}, basis is {self.s}")
        return tensor_eval(self.multi_indices, x)


def eval_tensor(basis: LegendreBasis, k: int, x) -> float:
    """Value of basis function with 1-based linear index k at point x."""
    multi = basis.multi_of(k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    val = 1.0
    for d in range(basis.s):
        val *= eval_legendre_1d(multi[d], float(x[d]))
    return val


@dataclass(frozen=True)
class PolyCoeffs:
    """Polynomial sum_k coeffs[k] * L_{k+1}; callable on points in the cube.

    The Euclidean norm of ``coeffs`` equals the L2 norm of the polynomial.
    """

    basis: LegendreBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).ravel()
        if c.shape[0] != self.basis.t:
            raise ValueError(f"expected {self.basis.t} coefficients, got {c.shape[0]}")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x):
        return self.basis.eval_all(np.asarray(x, dtype=float)) @ self.coeffs


def phi_inverse(basis: LegendreBasis, vector) -> PolyCoeffs:
    """Reconstruct the polynomial with the given coefficient vector."""
    return PolyCoeffs(basis, np.asarray(vector, dtype=float))


@dataclass(frozen=True)
class GaussRule:
    """Tensor Gauss-Legendre rule: exact for coordinatewise degree <= 2q - 1."""

    q: int
    s: int
    points: np.ndarray
    weights: np.ndarray


def _classical_legendre_and_deriv(q: int, x: np.ndarray):
    """P_q(x) and P'_q(x) (unnormalized) via the three-term recurrence."""
    pm1 = np.ones_like(x)
    pk = x.copy()
    for k in range(1, q):
        pm1, pk = pk, ((2 * k + 1) * x * pk - k * pm1) / (k + 1)
    dp = q * (pm1 - x * pk) / (1.0 - x * x)
    return pk, dp


def _gauss_legendre_1d(q: int):
    """Nodes and weights on [-1, 1] by Newton iteration on P_q.

    Standard cosine initial guesses; the iteration is run to 1e-15 and the
    node set is antisymmetrized so the rule is exactly odd-symmetric.
    """
    i = np.arange(1, q + 1)
    x = np.cos(np.pi * (i - 0.25) / (q + 0.5))
    for _ in range(100):
        pk, dp = _classical_legendre_and_deriv(q, x)
        dx = pk / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    x = 0.5 * (x - x[::-1])
    _, dp = _classical_legendre_and_deriv(q, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


def gauss_legendre_rule(q: int, s: int) -> GaussRule:
    """Tensor-product Gauss-Legendre rule with q nodes per axis.

    Weights are positive and sum to 2^s, the volume of the cube.
    """
    if q < 1 or s < 1:
        raise ValueError("need q >= 1 and s >= 1")
    if q == 1:
        x1, w1 = np.array([0.0]), np.array([2.0])
    else:
        x1, w1 = _gauss_legendre_1d(q)
    mesh = np.meshgrid(*([x1] * s), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    wmesh = np.meshgrid(*([w1] * s), indexing="ij")
    w = np.ones(pts.shape[0])
    for m in wmesh:
        w *= m.ravel()
    return GaussRule(q, s, pts, w)


def default_rule_size(m: int) -> int:
    """Per-axis node count used for quadrature around degree window 2m."""
    return max(RULE_FLOOR, 4 * (2 * m + 1))


def check_p(p: float) -> None:
    """Refuse an exponent outside the paper's range 1 <= p < inf (NaN
    included)."""
    if not 1 <= p < np.inf:
        raise ValueError(f"need p >= 1 and p < inf, got p={p}")


def lp_norm(func, p: float, rule: GaussRule) -> float:
    """Quadrature L^p norm on the cube; approximate for p != 2 since
    |f|^p is not polynomial."""
    return sampled_lp_norm(func(rule.points), p, rule)


def sampled_lp_norm(values, p: float, rule: GaussRule) -> float:
    """Quadrature L^p norm from the values at the rule's nodes."""
    check_p(p)
    vals = np.abs(np.asarray(values, dtype=float).ravel())
    return float((rule.weights @ vals**p) ** (1.0 / p))

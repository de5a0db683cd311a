"""Discretization of input functions into coefficient vectors.

The discretizing operator maps a function on [-1, 1]^s to a polynomial of
coordinatewise degree at most 2m by filtering its Legendre expansion:

    f  ->  sum_k hhat_k <f, L_k> L_k

with filter values hhat_k in [0, 1] that equal 1 whenever the multi-index
of k is coordinatewise at most m, so polynomials of degree <= m are
reproduced exactly.  The coefficient vector (hhat_k <f, L_k>)_k is the
discretized representation of f; in the parametric-net view the fixed
parametrizing functions are hhat_k * L_k.

Built-in filters:

* ``dlvp``: tensor product of the univariate taper 1 for n <= m and
  (2m + 1 - n) / (m + 1) for m < n <= 2m.
* ``truncate``: indicator of the coordinatewise <= m block.

For p = 2 both filters are near-best with constant 1: the error
``||f - V f||_2`` never exceeds the best approximation error from the
degree-m block, since the filter damps exactly the coefficients the best
approximation discards.  For p != 2 the constant is measured, not assumed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .legendre import (
    GaussRule,
    LegendreBasis,
    PolyCoeffs,
    check_p,
    default_rule_size,
    gauss_legendre_rule,
    row_products,
    sampled_lp_norm,
)
from .simplicial import integer_size, point_batch, real_array

FILTER_KINDS = ("dlvp", "truncate")


def filter_vector(basis: LegendreBasis, kind: str) -> np.ndarray:
    """Per-basis-function filter values for a named filter."""
    m = basis.m
    if kind == "dlvp":
        taper = np.ones(2 * m + 1)
        for nn in range(m + 1, 2 * m + 1):
            taper[nn] = (2 * m + 1 - nn) / (m + 1)
        h = np.ones(basis.t)
        for d in range(basis.s):
            h *= taper[basis.multi_indices[:, d]]
        return h
    if kind == "truncate":
        return (basis.multi_indices <= m).all(axis=1).astype(float)
    raise ValueError(f"unknown filter kind {kind!r}; choose from {FILTER_KINDS}")


@dataclass(frozen=True)
class DiscretizationOperator:
    """Filtered Legendre expansion into the degree window 2m.

    The basis is evaluated at the rule's nodes once: ``basis_at_nodes`` is
    (nodes, t), ``low_basis_at_nodes`` its coordinatewise <= m columns.
    """

    basis: LegendreBasis
    filter: np.ndarray
    rule: GaussRule
    kind: str = "dlvp"
    basis_at_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    low_basis_at_nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = real_array(self.filter, "filter values").ravel()
        if h.shape[0] != self.basis.t:
            raise ValueError("filter length must equal basis size")
        if not np.all(np.isfinite(h)):
            raise ValueError("filter values must be finite")
        if np.any(h < 0) or np.any(h > 1):
            raise ValueError("filter values must lie in [0, 1]")
        low = (self.basis.multi_indices <= self.basis.m).all(axis=1)
        if not np.allclose(h[low], 1.0):
            raise ValueError("filter must be 1 on the coordinatewise <= m block")
        object.__setattr__(self, "filter", h)
        B = self.basis.eval_all(self.rule.points)
        object.__setattr__(self, "basis_at_nodes", B)
        # a contiguous copy: BLAS on a strided column view can round the
        # products differently
        object.__setattr__(self, "low_basis_at_nodes", np.ascontiguousarray(B[:, low]))

    @property
    def t(self) -> int:
        return self.basis.t


def make_operator(s: int, m: int, kind: str = "dlvp",
                  q: Optional[int] = None) -> DiscretizationOperator:
    basis = LegendreBasis(s, m)
    q = default_rule_size(m) if q is None else q
    rule = gauss_legendre_rule(q, s)
    return DiscretizationOperator(basis, filter_vector(basis, kind), rule, kind)


@dataclass(frozen=True)
class InputFunction:
    """Callable on batches of points in [-1, 1]^s, with an optional tag
    describing its construction."""

    evaluator: Callable
    tag: str = ""

    def __call__(self, x):
        return real_array(self.evaluator(real_array(x, "points")), "input function values")


@dataclass(frozen=True)
class RadiusSpec:
    """Cube radius for discretized vectors.

    R = c1_surrogate * C_K * max(m, 1)^(2 s max(1/p - 1/2, 0)) with C_K a
    configured bound on the discretized norm over the input class.  The
    max(m, 1) guard keeps the m = 0 edge at factor 1.
    """

    m: int
    s: int
    p: float
    C_K: float
    c1_surrogate: float = 1.0

    def __post_init__(self):
        # m and s give the vectors' length t = (2m + 1)^s
        object.__setattr__(self, "m", integer_size(self.m, "m", 0))
        object.__setattr__(self, "s", integer_size(self.s, "s"))
        check_p(self.p)
        for name in ("C_K", "c1_surrogate"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")

    @property
    def R(self) -> float:
        expo = 2.0 * self.s * max(1.0 / self.p - 0.5, 0.0)
        return self.c1_surrogate * self.C_K * float(max(self.m, 1)) ** expo

    def check(self, vectors) -> None:
        """Raise unless the vector (t,) or every row of a stack (n, t) is a
        point of the cube [-R, R]^t, t = (2m + 1)^s."""
        vectors, _ = point_batch(vectors, (2 * self.m + 1) ** self.s)
        top = float(np.max(np.abs(vectors), initial=0.0))
        if top > self.R:
            raise ValueError(
                f"discretized vector leaves the cube: |.|_inf = {top:.6g} > "
                f"R = {self.R:.6g}; C_K or c1_surrogate is misconfigured"
            )


def _project(op: DiscretizationOperator, f, B: np.ndarray):
    """Values of f at op's quadrature nodes and their quadrature
    projection onto the basis functions whose node values are B's columns.

    ``f`` is an input function, called at the nodes, or already its values
    there: one input (nodes,) or a stack (n, nodes), one input per row,
    whose values and projections keep the stack's rows.
    """
    points = op.rule.points
    vals = real_array(f(points) if callable(f) else f, "input function values")
    if callable(f) or vals.ndim != 2:
        vals = vals.ravel()
    if vals.shape[-1] != points.shape[0]:
        raise ValueError(f"expected {points.shape[0]} values at the quadrature "
                         f"nodes, got {vals.shape[-1]}")
    bad = ~np.isfinite(vals)
    if bad.any():
        row, node = divmod(int(np.argmax(bad)), points.shape[0])
        where = f"input {row} has" if vals.ndim == 2 else "input function returned"
        raise ValueError(f"{where} a non-finite value at node {points[node]}")
    return vals, row_products(B.T, op.rule.weights * vals)


def apply_Vm(op: DiscretizationOperator, f) -> PolyCoeffs:
    """Filtered quadrature projection of f (an input function, its values
    at op's nodes, or a stack of such values, one polynomial per row) onto
    the degree window."""
    return PolyCoeffs(op.basis, op.filter * _project(op, f, op.basis_at_nodes)[1])


def discretize(op: DiscretizationOperator, f,
               self_check: bool = False) -> np.ndarray:
    """Coefficient vector of the discretized function, length t.

    ``f`` is an input function or its values at op's nodes.  A stack
    (n, nodes) of node values, one input per row, gives the (n, t)
    vectors, each row bit-equal to that row's own call.  With
    ``self_check`` the quadrature is repeated at doubled resolution and a
    relative drift above 1e-8 warns; that needs f itself, not its node
    values.
    """
    if self_check and not callable(f):
        raise ValueError("self_check needs the input function, not its node values")
    coeffs = apply_Vm(op, f).coeffs
    if self_check:
        dense = DiscretizationOperator(
            op.basis, op.filter, gauss_legendre_rule(2 * op.rule.q, op.basis.s), op.kind
        )
        ref = apply_Vm(dense, f).coeffs
        scale = max(float(np.linalg.norm(ref)), 1e-30)
        drift = float(np.linalg.norm(ref - coeffs)) / scale
        if drift > 1e-8:
            warnings.warn(
                f"discretized vector moved by {drift:.2e} under quadrature "
                "doubling; increase the rule size",
                stacklevel=2,
            )
    return coeffs


def transfer_modulus(omega_F, m: int, s: int, p: float,
                     c1_surrogate: float = 1.0):
    """Modulus bound for the discretized target as a function on R^t:
    r -> omega_F(c1 * max(m, 1)^(2 s max(1/2 - 1/p, 0)) * r)."""
    check_p(p)
    expo = 2.0 * s * max(0.5 - 1.0 / p, 0.0)
    factor = c1_surrogate * float(max(m, 1)) ** expo
    return lambda r: omega_F(factor * r)


def projection_error(op: DiscretizationOperator, f, p: float = 2.0):
    """Distance from f (an input function or its values at op's nodes) to
    the polynomials of coordinatewise degree <= m; for a stack (n, nodes)
    of node values, one input per row, the (n,) distances, each bit-equal
    to that row's own call.

    For p = 2 this is the best approximation error at the resolution of
    op's rule (orthonormal projection).  For p != 2 the same projector is
    measured in the quadrature p-norm, an upper bound on the true minimum.
    """
    vals, coeffs = _project(op, f, op.low_basis_at_nodes)
    return sampled_lp_norm(vals - row_products(op.low_basis_at_nodes, coeffs), p, op.rule)

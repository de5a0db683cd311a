"""Caller data at every entry point: points go through
``simplicial.point_batch`` and other arrays through ``simplicial.real_array``,
so a non-finite point and a complex value are refused by name instead of
giving a value."""

import numpy as np
import pytest

from funcrelu.constructors import (InterpolationSpec, build_interpolation_net,
                                   build_spike_net, interpolant_values)
from funcrelu.discretize import (DiscretizationOperator, InputFunction, RadiusSpec,
                                 discretize, make_operator)
from funcrelu.legendre import LegendreBasis, PolyCoeffs, sampled_lp_norm
from funcrelu.pipeline import (PowerModulus, SeriesInput, TargetFunctional,
                               build_functional_net, inner_product_functional,
                               linear_functional, mu_values, sample_inputs)
from funcrelu.relu_net import evaluate, evaluate_batch, forward
from funcrelu.simplicial import (AffineForm, ScaledGrid, in_S0, in_Sprime, locate_batch,
                                 spike, support_pairs)

GRID = ScaledGrid(2, 1.0, 2)
SPEC = InterpolationSpec(GRID, np.ones(GRID.node_count))
NET = build_interpolation_net(SPEC)
OP = make_operator(1, 1)


def _identity(x):
    return x


def _inner():
    return linear_functional("inner", lambda x: np.ones(len(x)), _identity,
                             PowerModulus(1.0))


def _quadrature():
    # a functional with no linear form: mu is its form at the node values
    return TargetFunctional("sum", lambda rl: lambda v: v.sum(axis=-1), PowerModulus(1.0))


# each takes one point of R^2 (or of R^3, the m = 1, s = 1 cube)
POINT_ENTRIES = {
    "spike": spike,
    "in_Sprime": in_Sprime,
    "in_S0": in_S0,
    "locate_batch": locate_batch,
    "support_pairs": lambda y: support_pairs(y, GRID),
    "interpolant_values": lambda y: interpolant_values(SPEC, y),
    "forward": lambda y: forward(NET, y),
    "forward-spike-net": lambda y: forward(build_spike_net(2), y),
    "evaluate": lambda y: evaluate(NET, y),
    "evaluate_batch": lambda y: evaluate_batch(NET, np.vstack([np.zeros(2), y])),
    "mu_values": lambda y: mu_values(_inner(), OP, np.append(y, 0.0)),
    "mu_values-quadrature": lambda y: mu_values(_quadrature(), OP, np.append(y, 0.0)),
    "RadiusSpec.check": lambda y: RadiusSpec(1, 1, 2.0, 1.0).check(np.append(y, 5.0)[None]),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(POINT_ENTRIES))
def test_non_finite_point_is_named(entry, bad):
    # else spike gives nan or warns, the membership tests say False, and
    # the radius check passes a vector with a coordinate above R
    with pytest.raises(ValueError, match=r"point \d+ has a non-finite coordinate"):
        POINT_ENTRIES[entry](np.array([0.5, bad]))


def test_non_finite_point_of_a_higher_rank_batch_is_named_in_c_order():
    Y = np.zeros((2, 3, 2))
    Y[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match=r"^point 5 has a non-finite coordinate"):
        spike(Y)


C = 1j
NODES = OP.rule.points.shape[0]

# each site is handed one complex value where a real one belongs
COMPLEX_SITES = {
    "filter": lambda: DiscretizationOperator(OP.basis, OP.filter + 0j, OP.rule),
    "InputFunction-points": lambda: InputFunction(_identity)(np.zeros((2, 1)) + C),
    "InputFunction-values": lambda: discretize(
        OP, InputFunction(lambda x: np.full(len(x), 1 + 2j))),
    "eval_all": lambda: LegendreBasis(1, 1).eval_all(np.zeros((2, 1)) + C),
    "PolyCoeffs": lambda: PolyCoeffs(OP.basis, np.zeros(3))(np.zeros((2, 1)) + C),
    "sampled_lp_norm": lambda: sampled_lp_norm(np.full(NODES, C), 2.0, OP.rule),
    "PowerModulus": lambda: PowerModulus(1.0)(C),
    "inner_product_functional": lambda: inner_product_functional(
        InputFunction(lambda x: np.full(len(x), 2j)), OP.rule),
    "LinearForm.weights": lambda: linear_functional(
        "g", lambda x: np.full(len(x), 2j), _identity, PowerModulus(1.0)).bind(OP.rule),
    "LinearForm.sampled": lambda: _inner().apply_sampled(np.zeros(NODES) + C, OP.rule),
    "LinearForm.sampled-psi": lambda: linear_functional(
        "psi", lambda x: np.ones(len(x)), lambda x: x + C,
        PowerModulus(1.0)).apply_sampled(np.zeros(NODES), OP.rule),
    "SeriesInput": lambda: SeriesInput(OP.basis.multi_indices, np.zeros(3))(
        np.zeros((2, 1)) + C),
    "sample_inputs": lambda: sample_inputs([lambda x: np.full(len(x), C)], OP.rule),
    "mu_values-form": lambda: mu_values(
        TargetFunctional("c", lambda rl: lambda v: v.sum(axis=-1) + C, PowerModulus(1.0)),
        OP, np.zeros(3)),
    "mu_values-psi": lambda: mu_values(
        linear_functional("psi", lambda x: np.ones(len(x)), lambda x: x + C,
                          PowerModulus(1.0)), OP, np.zeros(3)),
    "build_functional_net": lambda: build_functional_net(
        linear_functional("psi", lambda x: np.ones(len(x)), lambda x: x + C,
                          PowerModulus(1.0)), OP, ScaledGrid(3, 1.0, 1)),
    "AffineForm": lambda: AffineForm((1.0,), 0.0)(np.array([C])),
    "RadiusSpec.check": lambda: RadiusSpec(1, 1, 2.0, 1.0).check(np.zeros(3) + C),
}


@pytest.mark.parametrize("site", sorted(COMPLEX_SITES))
def test_complex_value_is_named(site):
    # numpy's cast would keep the real part and only warn (in PowerModulus,
    # raise a stray TypeError)
    with pytest.raises(ValueError, match="must be real numbers, got dtype complex128"):
        COMPLEX_SITES[site]()

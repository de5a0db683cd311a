"""End-to-end functional networks and rate experiments.

A functional network pairs a discretization operator with a scalar ReLU
network on the coefficient cube: the value on an input function f is
net(discretize(f)).  The network is the interpolation net of the
discretized target

    mu(y) = F(polynomial with coefficient vector y)

over a grid on [-R, R]^t, so the whole object approximates the target
functional F.  Experiments sweep the degree parameter m and grid
resolution N, measure sup errors over sampled input classes, and compare
against the two-term bound (polynomial-approximation term plus grid
term).
"""

from __future__ import annotations

import csv
import functools
import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .constructors import (
    InterpolationSpec,
    build_interpolation_net,
    interpolant_values,
    interpolation_error_bound,
    shared_block,
    spike_nominal_nonzeros,
    timed,
)
from .discretize import (
    DiscretizationOperator,
    InputFunction,
    RadiusSpec,
    discretize,
    make_operator,
    projection_error,
    transfer_modulus,
)
from .legendre import (GaussRule, check_p, lp_norm, row_products, sampled_lp_norm,
                       tensor_eval, tensor_multi_indices)
from .relu_net import (
    _NODE_RUN,
    ReluNetwork,
    count_nonzero,
    depth,
    deserialize,
    evaluate_batch,
    serialize,
)
from .simplicial import ScaledGrid, integer_size, point_batch, real_array


@dataclass(frozen=True)
class PowerModulus:
    """Modulus of continuity of power form omega(r) = c * r^lam."""

    c: float
    lam: float = 1.0

    def __post_init__(self):
        if not 0 <= self.c < math.inf:
            raise ValueError(f"c must be a finite number >= 0, got {self.c!r}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be a finite number > 0, got {self.lam!r}")

    def __call__(self, r):
        return self.c * np.maximum(real_array(r, "radii"), 0.0) ** self.lam

    def inverse(self, v: float) -> float:
        """Smallest r with omega(r) >= v (0 when v <= 0, inf when c = 0)."""
        if v <= 0:
            return 0.0
        if self.c == 0:
            return math.inf
        return (v / self.c) ** (1.0 / self.lam)


@dataclass(frozen=True, eq=False)
class LinearForm:
    """psi(integral of f * g) on a rule's node samples.

    ``gw`` is the rule's weights times the weight g at its nodes, so the
    integral is the samples dotted with ``gw``, one dot product per row of
    a stack of samples (see :func:`funcrelu.legendre.row_products`);
    ``psi`` is the outer map, applied elementwise to a float array.
    :func:`linear_functional`'s form returns one per rule.
    """

    psi: Callable
    gw: np.ndarray = field(repr=False)

    def __call__(self, values):
        return real_array(self.psi(row_products(self.gw, real_array(values, "node samples"))),
                          "psi values")


@dataclass(frozen=True)
class TargetFunctional:
    """Functional evaluated from samples of the input at quadrature nodes.

    ``form(rule)`` returns the functional on that rule's node values: a map
    from an array of shape (..., n_nodes) to values of shape (...).  It
    computes what depends on the rule alone (the weighted g of an inner
    product) before it returns.  ``bind(rule)`` does that once and keeps
    the result; ``omega`` is a known upper bound on the modulus of
    continuity.

    mu has one writer, mu(xi) = Phi(S xi) (see :func:`_mu_map`): psi of
    one dot product when the form on the rule is a :class:`LinearForm`
    (see :func:`linear_functional`), the form at the node values of the
    polynomial otherwise.
    """

    name: str
    form: Callable
    omega: PowerModulus
    bound_rule: Optional[GaussRule] = field(default=None, repr=False, compare=False)
    bound_form: Optional[Callable] = field(default=None, repr=False, compare=False)

    def bind(self, rule: GaussRule) -> "TargetFunctional":
        """The same functional with its form for ``rule`` computed once."""
        return replace(self, bound_rule=rule, bound_form=self.form(rule))

    def on(self, rule: GaussRule) -> Callable:
        """The form on ``rule``, the one ``bind`` kept if it is that rule's."""
        return self.bound_form if rule is self.bound_rule else self.form(rule)

    def apply_sampled(self, values, rule: GaussRule):
        return self.on(rule)(values)

    def __call__(self, f: InputFunction, rule: GaussRule) -> float:
        return float(self.apply_sampled(f(rule.points), rule))


def linear_functional(name: str, g: Callable, psi: Callable,
                      omega: PowerModulus) -> TargetFunctional:
    """F(f) = psi(integral of f * g), whose form on a rule is the
    :class:`LinearForm` of psi and the rule's weights times g at its nodes."""
    def form(rule):
        return LinearForm(psi, rule.weights * real_array(g(rule.points), "weight values").ravel())

    return TargetFunctional(name, form, omega)


def _identity(x):
    return x


def _zero_weight(x):
    return np.zeros(np.shape(x)[0])


def inner_product_functional(g: InputFunction, rule: GaussRule, p: float = 2.0) -> TargetFunctional:
    """F(f) = integral of f * g; Lipschitz with constant ||g||_q."""
    check_p(p)
    q = p / (p - 1.0) if p > 1 else math.inf
    if math.isinf(q):
        c = float(np.max(np.abs(g(rule.points))))
    else:
        c = lp_norm(g, q, rule)
    return linear_functional(f"inner-product[{g.tag}]", g, _identity,
                             PowerModulus(c, 1.0))


def sin_inner_product_functional(g: InputFunction, rule: GaussRule,
                                 p: float = 2.0) -> TargetFunctional:
    """F(f) = sin(integral of f * g); shares the inner product's modulus."""
    base = inner_product_functional(g, rule, p)
    return linear_functional(f"sin-inner-product[{g.tag}]", g, np.sin, base.omega)


def constant_functional(value: float) -> TargetFunctional:
    """F(f) = value: psi is the constant and g = 0."""
    return linear_functional(f"constant[{value}]", _zero_weight,
                             lambda x: np.full(np.shape(x), float(value)),
                             PowerModulus(0.0, 1.0))


def l1_norm_functional(s: int, p: float = 2.0) -> TargetFunctional:
    """F(f) = integral of |f| on the rule, declared by its ``form`` alone
    (not a linear form: mu is not a ridge function).  By Hoelder's
    inequality |F(f) - F(g)| <= ||f - g||_1 <= 2^(s (1 - 1/p)) ||f - g||_p."""
    s = integer_size(s, "s", 1)
    check_p(p)

    def form(rule):
        return lambda values: (np.abs(real_array(values, "node samples"))
                               * rule.weights).sum(axis=-1)

    return TargetFunctional("l1-norm", form, PowerModulus(2.0 ** (s * (1.0 - 1.0 / p)), 1.0))


INPUT_KINDS = ("hoelder_ball", "sobolev_like", "polynomial_ball")


@dataclass(frozen=True)
class InputClass:
    """Sampler spec for a compact input class.

    ``beta`` is the smoothness exponent; for ``polynomial_ball`` it doubles
    as the coordinatewise degree.  Samplers draw random tensor Legendre
    series with decaying coefficients and renormalize, so class membership
    is by construction and the realized smoothness is validated by the
    projection-error regression, not assumed.
    """

    kind: str = "hoelder_ball"  # or sobolev_like | polynomial_ball
    beta: float = 2.0
    sample_count: int = 64
    seed: int = 0
    degree_cap: int = 32


@dataclass(frozen=True)
class SeriesInput:
    """Input function given by its tensor Legendre series: ``coeffs[k]``
    times the basis function of row k of ``multi_indices``.  The inputs of
    one draw share one ``multi_indices`` array, so ``sample_inputs``
    evaluates their basis once per rule."""

    multi_indices: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    tag: str = ""

    def __call__(self, x):
        return tensor_eval(self.multi_indices, real_array(x, "points")) @ self.coeffs


def sample_inputs(inputs, rule: GaussRule) -> np.ndarray:
    """Values of the inputs at the rule's nodes, one row per input.

    Series inputs that share multi-indices share one basis evaluation, and
    their rows come from one stacked product with their coefficients.  The
    stacked product is one matrix-vector product per row
    (:func:`funcrelu.legendre.row_products`), so each row is equal bit for
    bit to calling its input at the nodes.
    """
    inputs = list(inputs)
    rows = np.empty((len(inputs), rule.points.shape[0]))
    series = {}
    for i, f in enumerate(inputs):
        if isinstance(f, SeriesInput):
            series.setdefault(id(f.multi_indices), []).append(i)
        else:
            rows[i] = real_array(f(rule.points), "input function values").ravel()
    for members in series.values():
        coeffs = np.array([inputs[i].coeffs for i in members], dtype=float)
        rows[members] = row_products(tensor_eval(inputs[members[0]].multi_indices, rule.points),
                                     coeffs)
    return rows


def _check_input_class(cls: InputClass, s) -> None:
    """Raise ValueError naming the first field that no sampler can use."""
    if cls.kind not in INPUT_KINDS:
        raise ValueError(f"unknown input class kind {cls.kind!r}; choose from {INPUT_KINDS}")
    for name, value, low in (("sample_count", cls.sample_count, 1), ("s", s, 1),
                             ("degree_cap", cls.degree_cap, 0), ("seed", cls.seed, 0)):
        integer_size(value, name, low)
    beta = cls.beta
    if isinstance(beta, bool) or not isinstance(beta, (int, float, np.integer, np.floating)):
        raise ValueError(f"beta must be a number, got {beta!r}")
    if cls.kind == "polynomial_ball":
        if not (math.isfinite(beta) and beta >= 0 and beta == int(beta)):
            raise ValueError(f"beta is the polynomial_ball degree and must be a "
                             f"whole number >= 0, got {beta!r}")
    elif not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be a finite smoothness exponent > 0, got {beta!r}")


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of x (n, k): that is sqrt(x.dot(x)) for
    one row, and a stacked (1, k) @ (k, 1) matmul makes the same dot call
    for each row."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0, 0]


def generate_inputs(cls: InputClass, s: int) -> list:
    """Deterministic sample of the input class (fixed seed, fixed order).

    Each kind draws its coefficients as one (count, n) array, input by
    input in the order the per-input sampler drew them, so the stream and
    the bits are that sampler's."""
    _check_input_class(cls, s)
    rng = np.random.default_rng(cls.seed)
    if cls.kind == "polynomial_ball":
        label, idx = f"deg={int(cls.beta)}", tensor_multi_indices(s, int(cls.beta))
        c = rng.standard_normal((cls.sample_count, idx.shape[0]))
        c /= _row_norms(c)[:, None]
    else:
        label, idx = f"beta={cls.beta}", tensor_multi_indices(s, cls.degree_cap)
    if cls.kind == "hoelder_ball":
        # Random series calibrated blockwise: the l2 mass above
        # coordinatewise degree g is (up to per-block jitter) g^(-2 beta),
        # the tail profile defining the class's approximation numbers.
        # Per-coefficient magnitudes then decay like degree^-(beta + s/2),
        # the canonical rate for the class.
        gmax = idx.max(axis=1)
        # telescoping masses: sum above degree m is m^(-2 beta) for m >= 1;
        # the two lowest blocks are pinned at O(1)
        masses = np.zeros(cls.degree_cap + 1)
        masses[0] = 3.0
        if cls.degree_cap >= 1:
            masses[1] = 3.0
        for g in range(2, cls.degree_cap + 1):
            masses[g] = (g - 1.0) ** (-2 * cls.beta) - g ** (-2 * cls.beta)
        # sup-norm proxy on a probe lattice; the normalization constant is
        # a class-scaling choice, the decay rate is what the tests measure
        per_axis = max(4, int(round(4096 ** (1.0 / s))))
        axes = np.linspace(-1.0, 1.0, per_axis)
        mesh = np.meshgrid(*([axes] * s), indexing="ij")
        probe = np.stack([m.ravel() for m in mesh], axis=1)
        probe_B = tensor_eval(idx, probe)
        count, n = cls.sample_count, idx.shape[0]
        sizes = np.bincount(gmax, minlength=cls.degree_cap + 1)
        order = np.argsort(gmax, kind="stable")  # block 0's members, then 1's, ...
        # The stream of the per-input sampler, drawn in one call: for each
        # input and degree block of n_g members it made the calls
        # rng.uniform(0.5, 1.0, n_g) (kind 0), rng.choice((-1.0, 1.0), n_g)
        # as n_g float32 draws (kind 1) and rng.uniform(0.8, 1.0) (kind 2).
        per_input = np.repeat(np.tile([0, 1, 2], sizes.shape[0]),
                              np.column_stack([sizes, sizes, np.ones_like(sizes)]).ravel())
        kinds = np.tile(per_input, count)
        signs = kinds == 1
        # A float64 draw reads the next 64-bit word.  The first of two
        # float32 draws reads a fresh word's low half and buffers its high
        # half, which the second reads; the buffer persists across float64
        # draws and starts empty in a new generator.
        fresh = ~signs
        fresh[signs] = np.arange(count * n) % 2 == 0
        word = np.cumsum(fresh) - 1
        raw = rng.bit_generator.random_raw(int(word[-1]) + 1)
        # rng.random() is (w >> 11) * 2^-53 and rng.uniform(a, b) is
        # (b - a) * rng.random() + a.  The rows stay C-contiguous: each
        # block's norm below must be a unit-stride dot, as a strided one
        # rounds differently.
        unit = (raw >> 11) * 2.0 ** -53
        mags = ((1.0 - 0.5) * unit[word[kinds == 0]] + 0.5).reshape(count, n)
        jitter = ((1.0 - 0.8) * unit[word[kinds == 2]] + 0.8).reshape(count, -1)
        # rng.choice((-1.0, 1.0), n) draws rng.integers(0, 2, n), the top bit
        # of a 32-bit draw u: -1.0 where u < 2^31
        halves = raw[word[signs & fresh]]
        halves = np.column_stack([halves & 0xFFFFFFFF, halves >> 32]).ravel()
        np.negative(mags, out=mags, where=halves[:count * n].reshape(count, n) < 2 ** 31)
        state = rng.bit_generator.state
        state["has_uint32"] = (count * n) % 2
        state["uinteger"] = int(halves[-1])  # kept once read, as numpy does
        rng.bit_generator.state = state
        ends = np.cumsum(sizes)
        norms = np.empty((count, sizes.shape[0]))
        for g, (lo, hi) in enumerate(zip(ends - sizes, ends)):
            norms[:, g] = _row_norms(mags[:, lo:hi])
        c = np.zeros((count, n))
        c[:, order] = (mags / np.repeat(norms, sizes, axis=1) * np.repeat(np.sqrt(masses), sizes)
                       * np.repeat(jitter, sizes, axis=1))
        # each input's largest |value| on the probe, in runs of rows so the
        # stacked values hold at most _NODE_RUN numbers
        run = max(1, _NODE_RUN // probe_B.shape[0])
        for lo in range(0, count, run):
            top = np.max(np.abs(row_products(probe_B, c[lo:lo + run])), axis=1)
            c[lo:lo + run] /= np.maximum(top, 1e-30)[:, None]
    elif cls.kind == "sobolev_like":
        total = idx.sum(axis=1)
        decay = (1.0 + total) ** (-(cls.beta + 0.5))
        weight = (1.0 + total) ** cls.beta
        c = rng.uniform(-1.0, 1.0, (cls.sample_count, idx.shape[0])) * decay
        c /= np.maximum(_row_norms(weight * c), 1e-30)[:, None]
    return [SeriesInput(idx, c[i], f"{cls.kind}[{label},seed={cls.seed},i={i}]")
            for i in range(cls.sample_count)]


@dataclass(frozen=True, eq=False)
class FunctionalNet:
    """Discretization operator plus interpolation network on its cube, and
    the seconds spent computing the network's node values."""

    op: DiscretizationOperator
    net: ReluNetwork
    spec: InterpolationSpec
    mu_seconds: float


def _coefficient_weights(gw: np.ndarray, op: DiscretizationOperator) -> np.ndarray:
    """a = B_nodes^T gw, with gw the rule's weights times g at its nodes,
    so that the linear form at a coefficient vector xi is xi . a.  Each a_k
    adds the rule's nodes one after another in their order (a running sum,
    no BLAS call), so it does not follow the BLAS thread count."""
    return np.cumsum(op.basis_at_nodes * gw[:, None], axis=0)[-1]


def _mu_map(functional: TargetFunctional, op: DiscretizationOperator):
    """(S, Phi) with mu(xi) = Phi(S xi), S an (r, t) matrix and Phi a map
    from (..., r) to (...).  When the form on op's rule is a
    :class:`LinearForm`, S is a^T from :func:`_coefficient_weights` (r = 1)
    and Phi is psi; otherwise S is the basis at the rule's nodes
    (r = nodes) and Phi the form."""
    phi = functional.on(op.rule)
    if not isinstance(phi, LinearForm):
        return op.basis_at_nodes, phi
    return _coefficient_weights(phi.gw, op)[None, :], lambda v: phi.psi(v[..., 0])


def _running_sums(S: np.ndarray, points: np.ndarray) -> np.ndarray:
    """((0.0 + x_0 S[:, 0]) + x_1 S[:, 1]) + ..., added in axis order over
    the columns of ``points`` (n, k <= t), one row of shape (r,) per point;
    no BLAS call, so no dependence on the BLAS thread count."""
    total = np.zeros((points.shape[0], S.shape[0]))
    for k in range(points.shape[1]):
        total += points[:, k, None] * S[:, k]
    return total


def mu_values(functional: TargetFunctional, op: DiscretizationOperator,
              vectors) -> np.ndarray:
    """Discretized target mu at coefficient vectors, one (t,) or a batch
    (n, t); returns shape (n,).

    mu(xi) = Phi(S xi) with (S, Phi) from :func:`_mu_map`, S xi the running
    sums of :func:`_running_sums`: the sums the grid nodes' tables make in
    :func:`build_functional_net`.  Phi sees the sums as an (n, r) array
    here and as blocks (..., r) there, so mu is the same bits in both, and
    follows no BLAS thread count, when Phi works row by row without BLAS,
    as psi and the L1 norm's form do; a form that multiplies by ``@`` may
    round otherwise.  The vectors go through in runs of ``_NODE_RUN`` // r,
    so that, as at the nodes, a run's sums hold at most ``_NODE_RUN``
    numbers.  The vectors are points of
    :func:`point_batch`; values of Phi of a dtype other than real raise a
    ValueError naming it.
    """
    vectors, _ = point_batch(vectors, op.t)
    S, phi = _mu_map(functional, op)
    run = max(1, _NODE_RUN // S.shape[0])
    values = np.empty(vectors.shape[0])
    for lo in range(0, vectors.shape[0], run):
        values[lo:lo + run] = real_array(phi(_running_sums(S, vectors[lo:lo + run])),
                                         "mu values")
    return values


def _node_values(S: np.ndarray, phi: Callable, grid: ScaledGrid,
                 values: np.ndarray) -> None:
    """Write Phi(S xi) at every node xi of the grid into ``values``, C
    order, in runs of at most ``_NODE_RUN`` // r nodes, so that a run's
    sums hold at most ``_NODE_RUN`` numbers.

    With x_i = :meth:`ScaledGrid.coordinates` of axis index i, the
    trailing axes whose sub-lattice fits one run are added by
    broadcasting their tables x_i S[:, k], a run of whole
    sub-lattices at a time, onto the running sums that
    :func:`_running_sums` makes of the leading axes' coordinates.
    No array of all nodes but ``values`` is made.
    """
    r, t = S.shape
    n1 = grid.N + 1
    run = max(1, _NODE_RUN // r)
    lead = t
    while lead > 0 and n1 ** (t - lead + 1) <= run:
        lead -= 1
    # an axis of more nodes than a run is never tabled
    axis = grid.coordinates(np.arange(n1 if lead < t else 0))
    tables = [axis[:, None] * S[:, k] for k in range(lead, t)]
    rows = values.reshape((-1,) + (n1,) * (t - lead))
    place = n1 ** np.arange(lead - 1, -1, -1)  # leading axes' place values in a row index
    step = max(1, run // n1 ** (t - lead))
    for lo in range(0, rows.shape[0], step):
        index = np.arange(lo, min(lo + step, rows.shape[0]))
        total = _running_sums(S, grid.coordinates(index[:, None] // place % n1))
        for table in tables:
            total = total[..., None, :] + table
        rows[lo:lo + index.shape[0]] = real_array(phi(total), "mu values")


def build_functional_net(functional: TargetFunctional,
                         op: DiscretizationOperator,
                         grid: ScaledGrid) -> FunctionalNet:
    """Interpolation network for the discretized target over the grid.

    mu is written run by run in place into the one array of node values
    (:func:`_node_values`), so no other array of all nodes is made; for a
    Phi that works row by row without BLAS it is bit-equal to
    :func:`mu_values` at the nodes (see there), and its time is the
    result's ``mu_seconds``.  The net is built from the process's block
    of the grid's t, :func:`funcrelu.constructors.shared_block`."""
    if grid.t != op.t:
        raise ValueError(f"grid dimension {grid.t} != operator size {op.t}")
    t0 = time.perf_counter()
    values = np.empty(grid.node_count)
    _node_values(*_mu_map(functional, op), grid, values)
    mu_seconds = time.perf_counter() - t0
    spec = InterpolationSpec(grid, values)
    return FunctionalNet(op, build_interpolation_net(spec, shared_block(grid.t)), spec, mu_seconds)


def evaluate_functional_net(fnet: FunctionalNet, f: InputFunction) -> float:
    nu = discretize(fnet.op, f)
    return float(evaluate_batch(fnet.net, nu[None, :])[0])


@dataclass(frozen=True)
class ExperimentRow:
    """One (m, N) point of a sweep, made whole by :func:`_measure_point`:
    a skipped point keeps its defaults, status ``skipped`` and the cap it
    is over as ``reason``."""

    m: int
    t: int
    N: int
    R: float = math.nan
    J: int = 0
    M: int = 0
    sup_error: float = math.nan
    eps_hat: float = math.nan
    poly_gap: float = math.nan
    grid_gap: float = math.nan
    grid_bound: float = math.nan
    oracle_gap: float = math.nan
    decomposition_ok: bool = False
    wall_seconds: float = 0.0
    mu_seconds: float = 0.0
    build_seconds: float = 0.0
    eval_seconds: float = 0.0
    oracle_seconds: float = 0.0
    status: str = "ok"
    reason: str = ""
    network_file: str = ""


@dataclass(frozen=True)
class ExperimentReport:
    """A sweep's grid rows, in (m, N) order, and its summary, which holds
    the budget ladder's points too; made once by
    :func:`run_rate_experiment`.  A caller that adds to the summary makes a
    new report with ``dataclasses.replace``."""

    functional: str
    rows: tuple = ()
    summary: dict = field(default_factory=dict)

    def completed(self):
        return [r for r in self.rows if r.status == "ok"]

    def to_csv(self, path):
        names = [f.name for f in fields(ExperimentRow)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for r in self.rows:
                writer.writerow([getattr(r, n) for n in names])

    def summary_to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary, fh, indent=2, default=float)


@dataclass
class ExperimentConfig:
    s: int = 1
    p: float = 2.0
    functional: TargetFunctional = None
    input_class: InputClass = None
    m_values: tuple = (0, 1, 2)
    N_values: tuple = (4, 8, 16, 32)
    filter_kind: str = "dlvp"
    c1_surrogate: float = 1.0
    C_K: Optional[float] = None
    node_cap: int = 200_000
    weight_cap: int = 120_000_000
    dump_dir: Optional[str] = None
    ladder: bool = True
    ladder_m_values: tuple = (1, 2)
    ladder_weight_cap: int = 40_000_000


def _class_radius(op, nus, p, C_K, c1_surrogate):
    """Radius spec with C_K measured over the sample's vectors (n, t)
    unless configured."""
    if C_K is None:
        norms = (_row_norms(nus) if p == 2
                 else sampled_lp_norm(row_products(op.basis_at_nodes, nus), p, op.rule))
        worst = float(np.max(norms, initial=0.0))
        C_K = worst if worst > 0 else 1.0
    return RadiusSpec(op.basis.m, op.basis.s, p, C_K, c1_surrogate)


@dataclass(frozen=True, eq=False)
class DegreeState:
    """What a sweep needs at degree m whatever N: the operator, the
    functional bound to its rule, the sample's vectors ``nus`` (n, t) and
    functional values ``F_vals`` (n,), the largest projection error
    ``eps_hat``, the cube's radius, mu at the vectors ``mu_at_nu`` (n,) and
    ``omega_t``, the functional's modulus transferred to the cube.  These
    are the polynomial term's inputs, which depend on m alone."""

    op: DiscretizationOperator
    functional: TargetFunctional
    nus: np.ndarray = field(repr=False)
    F_vals: np.ndarray = field(repr=False)
    eps_hat: float
    radius: RadiusSpec
    mu_at_nu: np.ndarray = field(repr=False)
    omega_t: Callable = field(repr=False)


def _rule_state(cfg, inputs, m) -> DegreeState:
    """The degree-m record of a sweep over ``inputs``.  Each input is
    sampled at the rule's nodes once, and every projection and functional
    value reads the stack of those samples, one call for all inputs, each
    row bit-equal to that input's own call; mu and the transferred modulus
    are made here once, not at each N."""
    op = make_operator(cfg.s, m, cfg.filter_kind)
    samples = sample_inputs(inputs, op.rule)
    nus = discretize(op, samples)
    radius = _class_radius(op, nus, cfg.p, cfg.C_K, cfg.c1_surrogate)
    radius.check(nus)
    functional = cfg.functional.bind(op.rule)
    F_vals = real_array(functional.apply_sampled(samples, op.rule),
                        "functional values").reshape(len(inputs))
    return DegreeState(
        op, functional, nus, F_vals, float(np.max(projection_error(op, samples, cfg.p))),
        radius, mu_values(functional, op, nus),
        transfer_modulus(functional.omega, op.basis.m, cfg.s, cfg.p, cfg.c1_surrogate))


def _nominal_nonzeros(t, N):
    """The paper's size of a grid net: (N+1)^t copies of one spike block."""
    return (N + 1) ** t * spike_nominal_nonzeros(t)


def _over_cap(cfg, t, N, weight_cap) -> str:
    """Why the (t, N) grid net does not fit a sweep's budget, or "" if it
    does: ``node_cap:<nodes>`` when its grid has more than cfg.node_cap
    nodes, else ``weight_cap:<nominal>`` when its nominal nonzero count is
    above ``weight_cap``."""
    nodes = (N + 1) ** t
    if nodes > cfg.node_cap:
        return f"node_cap:{nodes}"
    nominal = _nominal_nonzeros(t, N)
    if nominal > weight_cap:
        return f"weight_cap:{nominal}"
    return ""


def _dump_net(net: ReluNetwork, M: int, path: Path) -> str:
    """Write ``net`` to ``path`` and return the path, or why it is not
    written: the JSON format refuses a matrix above its entry limit."""
    try:
        raw = serialize(net)
    except ValueError as exc:
        return f"not dumped ({exc})"
    path.write_bytes(raw)
    if count_nonzero(deserialize(raw)) != M:
        raise AssertionError("serialized network lost nonzero weights")
    return str(path)


def _measure_point(cfg, degree: DegreeState, N, dump_dir=None):
    """The row at (m, N): build the net on the grid of ``degree``'s cube
    and measure what depends on N, the net's output theta, the oracle,
    the grid pieces and the grid bound; the m-only mu and modulus come
    from ``degree``.  A point over the caps calls nothing."""
    op, R, eps_hat = degree.op, degree.radius.R, degree.eps_hat
    m, t = op.basis.m, op.t
    reason = _over_cap(cfg, t, N, cfg.weight_cap)
    if reason:
        return ExperimentRow(m, t, N, R=R, eps_hat=eps_hat, status="skipped", reason=reason)
    t0 = time.perf_counter()
    fnet = build_functional_net(degree.functional, op, ScaledGrid(t, R, N))
    J, M = depth(fnet.net), count_nonzero(fnet.net)
    t1 = time.perf_counter()
    theta = evaluate_batch(fnet.net, degree.nus)
    t2 = time.perf_counter()
    direct = interpolant_values(fnet.spec, degree.nus)
    t3 = time.perf_counter()
    errors = np.abs(degree.F_vals - theta)
    poly_pieces = np.abs(degree.F_vals - degree.mu_at_nu)
    grid_pieces = np.abs(degree.mu_at_nu - theta)
    network_file = ("" if dump_dir is None
                    else _dump_net(fnet.net, M, Path(dump_dir) / f"net_m{m}_N{N}.json"))
    return ExperimentRow(
        m, t, N, R=R, J=J, M=M, sup_error=float(errors.max()), eps_hat=eps_hat,
        poly_gap=float(poly_pieces.max()), grid_gap=float(grid_pieces.max()),
        grid_bound=interpolation_error_bound(t, N, R, degree.omega_t),
        oracle_gap=float(np.max(np.abs(theta - direct))),
        decomposition_ok=bool(np.all(errors <= poly_pieces + grid_pieces + 1e-12)),
        mu_seconds=fnet.mu_seconds, build_seconds=t1 - t0 - fnet.mu_seconds,
        eval_seconds=t2 - t1, oracle_seconds=t3 - t2, network_file=network_file,
        wall_seconds=time.perf_counter() - t0)


def _fit_c_hat(rows, omega: PowerModulus) -> float:
    """Smallest single c with sup_error <= omega(c * eps_hat) + grid_bound
    on every completed row."""
    c_hat = 0.0
    for r in rows:
        deficit = r.sup_error - r.grid_bound
        if deficit <= 0:
            continue
        if r.eps_hat <= 0:
            return math.inf
        c_hat = max(c_hat, omega.inverse(deficit) / r.eps_hat)
    return c_hat


_LADDER_BUDGETS = 5  # weight budgets on the ladder's geometric grid


def _budget_ladder_rows(cfg, per_m_state):
    """Budget-ladder realization of the degree-for-budget pairing.

    The pairing rule picks, for a weight budget B, the largest m with
    c9 * m^s * log(3m) <= log B.  The constant the theory supplies is
    existence-level and would put every admissible budget far beyond desk
    scale, so c9 is calibrated from the largest feasible build: the top
    budget is the largest nominal size buildable at the largest m under
    node_cap and ladder_weight_cap.  Each budget B then builds the largest
    N at its m that fits node_cap and B.
    """
    s = cfg.s
    m_cands = sorted(cfg.ladder_m_values)

    def t_of(m):
        return (2 * m + 1) ** s

    def max_feasible_N(m, budget):
        N = 0
        while not _over_cap(cfg, t_of(m), N + 1, budget):
            N += 1
        return N

    fits = [m for m in m_cands if not _over_cap(cfg, t_of(m), 1, cfg.ladder_weight_cap)]
    if not fits:
        return [], {"status": "infeasible"}
    m_top = fits[-1]
    top_budget = _nominal_nonzeros(t_of(m_top),
                                   max_feasible_N(m_top, cfg.ladder_weight_cap))
    c9_eff = math.log(top_budget) / (m_top**s * math.log(3.0 * m_top))
    low_budget = min(_nominal_nonzeros(t_of(m_cands[0]), 1), top_budget)
    # whole weight counts: a budget the geometric grid puts on a build's
    # nominal count must not miss it by rounding
    budgets = np.rint(np.geomspace(low_budget, top_budget, _LADDER_BUDGETS))

    def m_of_budget(B):
        picked = m_cands[0]
        for m in m_cands:
            if c9_eff * m**s * math.log(3.0 * m) <= math.log(B) + 1e-12:
                picked = m
        return picked

    rows = []
    seen = set()
    for B in budgets:
        m = m_of_budget(B)
        N = max_feasible_N(m, B)
        if N < 1 or (m, N) in seen:
            continue
        seen.add((m, N))
        rows.append(_measure_point(cfg, per_m_state(m), N))
    done = [r for r in rows if r.status == "ok" and r.M > math.e**math.e]
    info = {"c9_eff": c9_eff, "points": len(done)}
    if len(done) >= 2:
        x = np.array([math.log(r.M) / math.log(math.log(r.M)) for r in done])
        e = np.array([max(r.sup_error, 1e-300) for r in done])
        slope = float(np.polyfit(np.log(x), np.log(e), 1)[0])
        info["slope"] = slope
        info["pairs"] = [(r.m, r.N, r.M, r.sup_error) for r in done]
    else:
        info["status"] = "not enough points"
    return rows, info


def run_rate_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Sweep (m, N), measure sup errors over the sampled class, reconstruct
    the two-term bound, and fit the budget-ladder decay exponent.  Each
    degree's :class:`DegreeState` is made once, at its first grid or ladder
    point; the report is made once, after its summary."""
    if cfg.functional is None or cfg.input_class is None:
        raise ValueError("config needs a functional and an input class")
    # every sweep value is checked before an input is drawn or a net dumped
    for m in cfg.m_values:
        integer_size(m, "m values", 0)
    for N in cfg.N_values:
        integer_size(N, "N values", 1)
    if cfg.ladder:
        if not cfg.ladder_m_values:
            raise ValueError("ladder m values must be integers >= 1, got none")
        for m in cfg.ladder_m_values:
            integer_size(m, "ladder m values", 1)
    inputs, seconds = timed(generate_inputs, cfg.input_class, cfg.s)
    stage_seconds = {"inputs": seconds, "sample": 0.0}
    if cfg.dump_dir is not None:
        Path(cfg.dump_dir).mkdir(parents=True, exist_ok=True)

    @functools.cache
    def per_m_state(m):
        degree, seconds = timed(_rule_state, cfg, inputs, m)
        stage_seconds["sample"] += seconds
        return degree

    rows = tuple(_measure_point(cfg, degree, N, dump_dir=cfg.dump_dir)
                 for degree in map(per_m_state, cfg.m_values) for N in cfg.N_values)
    done = [r for r in rows if r.status == "ok"]
    summary = {
        "functional": cfg.functional.name,
        "input_class": dict(vars(cfg.input_class)),
        "s": cfg.s,
        "p": cfg.p,
        "filter": cfg.filter_kind,
        "c1_surrogate": cfg.c1_surrogate,
        "completed_points": len(done),
        "skipped_points": [(r.m, r.N, r.reason) for r in rows if r.status != "ok"],
        "c_hat": _fit_c_hat(done, cfg.functional.omega),
        "max_oracle_gap": max((r.oracle_gap for r in done), default=0.0),
        "decomposition_ok": all(r.decomposition_ok for r in done),
    }
    measured = list(rows)
    if cfg.ladder:
        ladder_rows, ladder_info = _budget_ladder_rows(cfg, per_m_state)
        ladder_info["skipped_points"] = [(r.m, r.N, r.reason) for r in ladder_rows
                                         if r.status != "ok"]
        summary["budget_ladder"] = ladder_info
        summary["budget_ladder_rows"] = [
            (r.m, r.N, r.M, r.sup_error, r.status) for r in ladder_rows
        ]
        measured += ladder_rows
    for stage in ("mu", "build", "eval", "oracle"):
        stage_seconds[stage] = sum(getattr(r, f"{stage}_seconds") for r in measured)
    summary["stage_seconds"] = stage_seconds
    return ExperimentReport(cfg.functional.name, rows, summary)

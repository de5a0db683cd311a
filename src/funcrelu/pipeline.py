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
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .constructors import (
    DEFAULT_NODE_CAP,
    InterpolationSpec,
    build_interpolation_net,
    interpolant_values,
    interpolation_error_bound,
    spike_nominal_nonzeros,
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
from .legendre import (GaussRule, check_p, lp_norm, sampled_lp_norm,
                       tensor_eval, tensor_multi_indices)
from .relu_net import (
    ReluNetwork,
    count_nonzero,
    depth,
    deserialize,
    evaluate_batch,
    serialize,
)
from .simplicial import ScaledGrid


@dataclass(frozen=True)
class PowerModulus:
    """Modulus of continuity of power form omega(r) = c * r^lam."""

    c: float
    lam: float = 1.0

    def __call__(self, r):
        return self.c * np.maximum(np.asarray(r, dtype=float), 0.0) ** self.lam

    def inverse(self, v: float) -> float:
        """Smallest r with omega(r) >= v (0 when v <= 0, inf when c = 0)."""
        if v <= 0:
            return 0.0
        if self.c == 0:
            return math.inf
        return (v / self.c) ** (1.0 / self.lam)


@dataclass(frozen=True)
class TargetFunctional:
    """Functional evaluated from samples of the input at quadrature nodes.

    ``form(rule)`` returns the functional on that rule's node values: a map
    from an array of shape (..., n_nodes) to values of shape (...).  It
    computes what depends on the rule alone (the weighted g of an inner
    product) before it returns.  ``bind(rule)`` does that once and keeps
    the result; ``omega`` is a known upper bound on the modulus of
    continuity.
    """

    name: str
    form: Callable
    omega: PowerModulus
    bound_rule: Optional[GaussRule] = field(default=None, repr=False, compare=False)
    bound_form: Optional[Callable] = field(default=None, repr=False, compare=False)

    def bind(self, rule: GaussRule) -> "TargetFunctional":
        """The same functional with its form for ``rule`` computed once."""
        return replace(self, bound_rule=rule, bound_form=self.form(rule))

    def apply_sampled(self, values, rule: GaussRule):
        form = self.bound_form if rule is self.bound_rule else self.form(rule)
        return form(values)

    def __call__(self, f: InputFunction, rule: GaussRule) -> float:
        return float(self.apply_sampled(f(rule.points), rule))


def inner_product_functional(g: InputFunction, rule: GaussRule,
                             p: float = 2.0, name: str = None) -> TargetFunctional:
    """F(f) = integral of f * g; Lipschitz with constant ||g||_q."""
    check_p(p)
    q = p / (p - 1.0) if p > 1 else math.inf
    if math.isinf(q):
        c = float(np.max(np.abs(g(rule.points))))
    else:
        c = lp_norm(g, q, rule)

    def form(rl):
        gw = rl.weights * np.asarray(g(rl.points), dtype=float).ravel()
        return lambda values: np.asarray(values, dtype=float) @ gw

    return TargetFunctional(name or f"inner-product[{g.tag}]",
                            form, PowerModulus(c, 1.0))


def sin_inner_product_functional(g: InputFunction, rule: GaussRule,
                                 p: float = 2.0) -> TargetFunctional:
    """F(f) = sin(integral of f * g); shares the inner product's modulus."""
    base = inner_product_functional(g, rule, p)

    def form(rl):
        inner = base.form(rl)
        return lambda values: np.sin(inner(values))

    return TargetFunctional(f"sin-inner-product[{g.tag}]", form, base.omega)


def constant_functional(value: float) -> TargetFunctional:
    return TargetFunctional(
        f"constant[{value}]",
        lambda rl: lambda values: np.full(np.asarray(values).shape[:-1], float(value)),
        PowerModulus(0.0, 1.0),
    )


def squared_coeff_norm_functional(op: DiscretizationOperator,
                                  bound: float) -> TargetFunctional:
    """F(f) = squared Euclidean norm of the discretized vector; on inputs
    with discretized norm <= bound the modulus is 2 * bound * r (p = 2)."""
    def form(rl):
        B = op.basis.eval_all(rl.points)

        def apply(values):
            coeffs = (np.asarray(values, dtype=float) * rl.weights) @ B * op.filter
            return (coeffs**2).sum(axis=-1)

        return apply

    return TargetFunctional("squared-coeff-norm", form,
                            PowerModulus(2.0 * bound, 1.0))


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

    kind: str  # hoelder_ball | sobolev_like | polynomial_ball
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
        return np.asarray(tensor_eval(self.multi_indices, np.asarray(x, dtype=float))
                          @ self.coeffs, dtype=float)


def sample_inputs(inputs, rule: GaussRule) -> np.ndarray:
    """Values of the inputs at the rule's nodes, one row per input.

    Series inputs that share multi-indices share one basis evaluation; each
    row is its own matrix-vector product, equal bit for bit to calling the
    input at the nodes (one product for all rows would round differently).
    """
    bases = {}
    rows = []
    for f in inputs:
        if isinstance(f, SeriesInput):
            key = id(f.multi_indices)
            if key not in bases:
                bases[key] = tensor_eval(f.multi_indices, rule.points)
            rows.append(bases[key] @ f.coeffs)
        else:
            rows.append(np.asarray(f(rule.points), dtype=float).ravel())
    return np.array(rows, dtype=float)


def _check_input_class(cls: InputClass, s) -> None:
    """Raise ValueError naming the first field that no sampler can use."""
    if cls.kind not in INPUT_KINDS:
        raise ValueError(f"unknown input class kind {cls.kind!r}; choose from {INPUT_KINDS}")
    for name, value, low in (("sample_count", cls.sample_count, 1), ("s", s, 1),
                             ("degree_cap", cls.degree_cap, 0), ("seed", cls.seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    beta = cls.beta
    if isinstance(beta, bool) or not isinstance(beta, (int, float, np.integer, np.floating)):
        raise ValueError(f"beta must be a number, got {beta!r}")
    if cls.kind == "polynomial_ball":
        if not (math.isfinite(beta) and beta >= 0 and beta == int(beta)):
            raise ValueError(f"beta is the polynomial_ball degree and must be a "
                             f"whole number >= 0, got {beta!r}")
    elif not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be a finite smoothness exponent > 0, got {beta!r}")


def generate_inputs(cls: InputClass, s: int) -> list:
    """Deterministic sample of the input class (fixed seed, fixed order)."""
    _check_input_class(cls, s)
    rng = np.random.default_rng(cls.seed)
    out = []
    if cls.kind == "polynomial_ball":
        idx = tensor_multi_indices(s, int(cls.beta))
        for i in range(cls.sample_count):
            c = rng.standard_normal(idx.shape[0])
            c /= np.linalg.norm(c)
            out.append(SeriesInput(idx, c, f"{cls.kind}[deg={int(cls.beta)},seed={cls.seed},i={i}]"))
        return out
    idx = tensor_multi_indices(s, cls.degree_cap)
    total = idx.sum(axis=1)
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
        for i in range(cls.sample_count):
            c = np.zeros(idx.shape[0])
            for g in range(cls.degree_cap + 1):
                members = gmax == g
                raw = rng.uniform(0.5, 1.0, int(members.sum()))
                raw *= rng.choice((-1.0, 1.0), raw.shape[0])
                jitter = rng.uniform(0.8, 1.0)
                c[members] = raw / np.linalg.norm(raw) * np.sqrt(masses[g]) * jitter
            c /= max(float(np.max(np.abs(probe_B @ c))), 1e-30)
            out.append(SeriesInput(idx, c, f"{cls.kind}[beta={cls.beta},seed={cls.seed},i={i}]"))
    else:  # sobolev_like
        decay = (1.0 + total) ** (-(cls.beta + 0.5))
        weight = (1.0 + total) ** cls.beta
        for i in range(cls.sample_count):
            c = rng.uniform(-1.0, 1.0, idx.shape[0]) * decay
            c /= max(float(np.linalg.norm(weight * c)), 1e-30)
            out.append(SeriesInput(idx, c, f"{cls.kind}[beta={cls.beta},seed={cls.seed},i={i}]"))
    return out


@dataclass
class FunctionalNet:
    """Discretization operator plus interpolation network on its cube."""

    op: DiscretizationOperator
    net: ReluNetwork
    spec: InterpolationSpec
    functional: TargetFunctional
    metadata: dict = field(default_factory=dict)


def mu_values(functional: TargetFunctional, op: DiscretizationOperator,
              vectors: np.ndarray) -> np.ndarray:
    """Discretized target mu at coefficient vectors: the functional applied
    to the polynomials the vectors represent, by quadrature on op's rule."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    return np.asarray(functional.apply_sampled(vectors @ op.basis_at_nodes.T, op.rule),
                      dtype=float).ravel()


def build_functional_net(functional: TargetFunctional,
                         op: DiscretizationOperator,
                         grid: ScaledGrid,
                         node_cap: int = DEFAULT_NODE_CAP) -> FunctionalNet:
    """Interpolation network for the discretized target over the grid."""
    if grid.t != op.t:
        raise ValueError(f"grid dimension {grid.t} != operator size {op.t}")
    values = mu_values(functional, op, grid.node_array())
    spec = InterpolationSpec(grid, values)
    net = build_interpolation_net(spec, node_cap=node_cap)
    meta = {
        "m": op.basis.m,
        "s": op.basis.s,
        "t": op.t,
        "N": grid.N,
        "R": grid.R,
        "J": depth(net),
        "M": count_nonzero(net),
    }
    return FunctionalNet(op, net, spec, functional, meta)


def evaluate_functional_net(fnet: FunctionalNet, f: InputFunction,
                            radius_spec: Optional[RadiusSpec] = None) -> float:
    nu = discretize(fnet.op, f, radius_spec=radius_spec)
    return float(evaluate_batch(fnet.net, nu[None, :])[0])


@dataclass
class ExperimentRow:
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
    build_seconds: float = 0.0
    eval_seconds: float = 0.0
    oracle_seconds: float = 0.0
    status: str = "ok"
    reason: str = ""
    network_file: str = ""


@dataclass
class ExperimentReport:
    functional: str
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def completed(self):
        return [r for r in self.rows if r.status == "ok"]

    def to_csv(self, path):
        fields = [f for f in vars(self.rows[0])] if self.rows else []
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for r in self.rows:
                writer.writerow([getattr(r, f) for f in fields])

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
    node_cap: int = DEFAULT_NODE_CAP
    weight_cap: int = 120_000_000
    dump_dir: Optional[str] = None
    ladder: bool = True
    ladder_m_values: tuple = (1, 2)
    ladder_budget_count: int = 5
    ladder_weight_cap: int = 40_000_000


def _class_radius(op, nus, p, C_K, c1_surrogate):
    """Radius spec with C_K measured over the sample's vectors unless configured."""
    if C_K is None:
        worst = max((float(np.linalg.norm(nu)) if p == 2
                     else sampled_lp_norm(op.basis_at_nodes @ nu, p, op.rule)
                     for nu in nus), default=0.0)
        C_K = worst if worst > 0 else 1.0
    return RadiusSpec(op.basis.m, op.basis.s, p, C_K, c1_surrogate)


def _rule_state(cfg, inputs, m):
    """The degree-m operator and what a sweep needs of the inputs on its
    rule: (functional bound to the rule, op, vectors, functional values,
    eps_hat, radius).  Each input is sampled at the nodes once, and every
    projection and functional value reads those samples."""
    op = make_operator(cfg.s, m, cfg.filter_kind)
    samples = sample_inputs(inputs, op.rule)
    nus = np.vstack([discretize(op, v) for v in samples])
    radius = _class_radius(op, nus, cfg.p, cfg.C_K, cfg.c1_surrogate)
    radius.check(nus)
    functional = cfg.functional.bind(op.rule)
    F_vals = np.array([float(functional.apply_sampled(v, op.rule)) for v in samples])
    eps_hat = max(projection_error(op, v, cfg.p) for v in samples)
    return functional, op, nus, F_vals, eps_hat, radius


def _measure_point(cfg, functional, op, nus, F_vals, eps_hat, radius,
                   N, dump_dir=None):
    """Build the net at (m, N) and measure every error piece."""
    t = op.t
    row = ExperimentRow(m=op.basis.m, t=t, N=N, R=radius.R, eps_hat=eps_hat)
    nodes = (N + 1) ** t
    if nodes > cfg.node_cap:
        row.status, row.reason = "skipped", f"node_cap:{nodes}"
        return row
    nominal = nodes * spike_nominal_nonzeros(t)
    if nominal > cfg.weight_cap:
        row.status, row.reason = "skipped", f"weight_cap:{nominal}"
        return row
    t0 = time.perf_counter()
    grid = ScaledGrid(t, radius.R, N)
    fnet = build_functional_net(functional, op, grid, node_cap=cfg.node_cap)
    t1 = time.perf_counter()
    theta = evaluate_batch(fnet.net, nus)
    t2 = time.perf_counter()
    mu_at_nu = mu_values(functional, op, nus)
    direct = interpolant_values(fnet.spec, nus)
    t3 = time.perf_counter()
    row.build_seconds, row.eval_seconds, row.oracle_seconds = t1 - t0, t2 - t1, t3 - t2
    errors = np.abs(F_vals - theta)
    poly_pieces = np.abs(F_vals - mu_at_nu)
    grid_pieces = np.abs(mu_at_nu - theta)
    omega_t = transfer_modulus(functional.omega, op.basis.m, cfg.s, cfg.p,
                               cfg.c1_surrogate)
    row.J = fnet.metadata["J"]
    row.M = fnet.metadata["M"]
    row.sup_error = float(errors.max())
    row.poly_gap = float(poly_pieces.max())
    row.grid_gap = float(grid_pieces.max())
    row.grid_bound = interpolation_error_bound(t, N, radius.R, omega_t)
    row.oracle_gap = float(np.max(np.abs(theta - direct)))
    row.decomposition_ok = bool(
        np.all(errors <= poly_pieces + grid_pieces + 1e-12)
    )
    if dump_dir is not None:
        path = Path(dump_dir) / f"net_m{op.basis.m}_N{N}.json"
        try:
            raw = serialize(fnet.net)
        except ValueError as exc:
            # the dense JSON format is desk-scale only; keep the row, note
            # why the network file is absent
            row.network_file = f"not dumped ({exc})"
        else:
            path.write_bytes(raw)
            reloaded = deserialize(raw)
            if count_nonzero(reloaded) != row.M:
                raise AssertionError("serialized network lost nonzero weights")
            row.network_file = str(path)
    row.wall_seconds = time.perf_counter() - t0
    return row


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


def _budget_ladder_rows(cfg, per_m_state):
    """Budget-ladder realization of the degree-for-budget pairing.

    The pairing rule picks, for a weight budget B, the largest m with
    c9 * m^s * log(3m) <= log B.  The constant the theory supplies is
    existence-level and would put every admissible budget far beyond desk
    scale, so c9 is calibrated from the largest feasible build: the top
    budget is the largest nominal size buildable at the largest m under
    the caps.
    """
    s = cfg.s
    m_cands = sorted(cfg.ladder_m_values)
    if not m_cands or m_cands[0] < 1:
        raise ValueError("ladder m values must be >= 1")

    def t_of(m):
        return (2 * m + 1) ** s

    def nominal(m, N):
        return (N + 1) ** t_of(m) * spike_nominal_nonzeros(t_of(m))

    def max_feasible_N(m, budget):
        t = t_of(m)
        kappa = spike_nominal_nonzeros(t)
        N = int(math.floor((budget / kappa) ** (1.0 / t) - 1.0))
        while N >= 1 and ((N + 1) ** t > cfg.node_cap or nominal(m, N) > cfg.ladder_weight_cap):
            N -= 1
        return N

    m_top = None
    for m in reversed(m_cands):
        if max_feasible_N(m, cfg.ladder_weight_cap) >= 1:
            m_top = m
            break
    if m_top is None:
        return [], {"status": "infeasible"}
    top_budget = nominal(m_top, max_feasible_N(m_top, cfg.ladder_weight_cap))
    c9_eff = math.log(top_budget) / (m_top**s * math.log(3.0 * m_top))
    low_budget = min(nominal(m_cands[0], 1), top_budget)
    count = max(2, cfg.ladder_budget_count)
    budgets = np.geomspace(low_budget, top_budget, count)

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
        rows.append(_measure_point(cfg, *per_m_state(m), N))
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
    the two-term bound, and fit the budget-ladder decay exponent."""
    if cfg.functional is None or cfg.input_class is None:
        raise ValueError("config needs a functional and an input class")
    t0 = time.perf_counter()
    inputs = generate_inputs(cfg.input_class, cfg.s)
    stage_seconds = {"inputs": time.perf_counter() - t0, "sample": 0.0}
    if cfg.dump_dir is not None:
        Path(cfg.dump_dir).mkdir(parents=True, exist_ok=True)

    state_cache = {}

    def per_m_state(m):
        if m not in state_cache:
            t0 = time.perf_counter()
            state_cache[m] = _rule_state(cfg, inputs, m)
            stage_seconds["sample"] += time.perf_counter() - t0
        return state_cache[m]

    report = ExperimentReport(functional=cfg.functional.name)
    for m in cfg.m_values:
        functional, op, nus, F_vals, eps_hat, radius = per_m_state(m)
        for N in cfg.N_values:
            row = _measure_point(cfg, functional, op, nus, F_vals,
                                 eps_hat, radius, N, dump_dir=cfg.dump_dir)
            report.rows.append(row)

    done = report.completed()
    report.summary = {
        "functional": cfg.functional.name,
        "input_class": vars(cfg.input_class),
        "s": cfg.s,
        "p": cfg.p,
        "filter": cfg.filter_kind,
        "c1_surrogate": cfg.c1_surrogate,
        "completed_points": len(done),
        "skipped_points": [(r.m, r.N, r.reason) for r in report.rows
                           if r.status != "ok"],
        "c_hat": _fit_c_hat(done, cfg.functional.omega),
        "max_oracle_gap": max((r.oracle_gap for r in done), default=0.0),
        "decomposition_ok": all(r.decomposition_ok for r in done),
    }
    measured = list(report.rows)
    if cfg.ladder:
        ladder_rows, ladder_info = _budget_ladder_rows(cfg, per_m_state)
        report.summary["budget_ladder"] = ladder_info
        report.summary["budget_ladder_rows"] = [
            (r.m, r.N, r.M, r.sup_error, r.status) for r in ladder_rows
        ]
        measured += ladder_rows
    for stage in ("build", "eval", "oracle"):
        stage_seconds[stage] = sum(getattr(r, f"{stage}_seconds") for r in measured)
    report.summary["stage_seconds"] = stage_seconds
    return report

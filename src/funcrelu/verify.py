"""Acceptance-grade verification checks.

Each check function returns a :class:`CheckResult`; ``funcrelu verify``
runs them all and exits nonzero on any failure, and the pytest acceptance
module asserts them one by one.  Tolerances are fixed here, not
configurable: they are the contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import constructors, pipeline, relu_net, simplicial
from .discretize import discretize, make_operator, projection_error
from .functions import get_function
from .legendre import LegendreBasis, PolyCoeffs, gauss_legendre_rule, lp_norm


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float
    details: list = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.1f}s)"


def _finish(name, t0, failures, details):
    return CheckResult(name, not failures, time.perf_counter() - t0,
                       details + [f"FAIL: {f}" for f in failures])


def check_min_network() -> CheckResult:
    """d = 2..10: exact minimum, depth d - 1, d^2 + 4d - 5 nonzeros."""
    t0 = time.perf_counter()
    failures, details = [], []
    rng = np.random.default_rng(101)
    for d in range(2, 11):
        net = constructors.build_min_net(d)
        X = rng.uniform(-10.0, 10.0, (10_000, d))
        err = float(np.abs(relu_net.evaluate_batch(net, X) - X.min(axis=1)).max())
        J = relu_net.depth(net)
        M = relu_net.count_nonzero(net)
        if err > 1e-12:
            failures.append(f"d={d}: |net - min| = {err:.2e} > 1e-12")
        if J != d - 1:
            failures.append(f"d={d}: depth {J} != {d - 1}")
        if M != d * d + 4 * d - 5:
            failures.append(f"d={d}: M = {M} != {d * d + 4 * d - 5}")
        details.append(f"d={d}: M={M} J={J} err={err:.2e}")
    return _finish("min network exactness and accounting", t0, failures, details)


def check_spike_equivalence() -> CheckResult:
    """Spike net == direct formula at 1e-12; exact lattice values; depth."""
    t0 = time.perf_counter()
    failures, details = [], []
    rng = np.random.default_rng(202)
    for t in (1, 2, 3):
        net = constructors.build_spike_net(t)
        Y = rng.uniform(-2.0, 2.0, (10_000, t))
        err = float(np.abs(relu_net.evaluate_batch(net, Y) - simplicial.spike(Y)).max())
        if err > 1e-12:
            failures.append(f"t={t}: network vs formula {err:.2e} > 1e-12")
        if relu_net.evaluate(net, np.zeros(t)) != 1.0:
            failures.append(f"t={t}: psi(0) != 1 exactly")
        lattice = np.array([p for p in product(range(-2, 3), repeat=t) if any(p)],
                           dtype=float)
        vals = relu_net.evaluate_batch(net, lattice)
        if not np.all(vals == 0.0):
            failures.append(f"t={t}: nonzero value on a nonzero lattice point")
        J = relu_net.depth(net)
        if J != t * t + t + 1:
            failures.append(f"t={t}: depth {J} != {t * t + t + 1}")
        details.append(f"t={t}: J={J} err={err:.2e}")
    return _finish("spike network equivalence", t0, failures, details)


def check_appendix_suite() -> CheckResult:
    """Partition locate, S0 == S' agreement, vertex interpolant shapes."""
    t0 = time.perf_counter()
    failures, details = [], []
    rng = np.random.default_rng(303)
    for t in (2, 3):
        Y = rng.uniform(-3.0, 3.0, (100_000, t))
        n, rho = simplicial.locate_batch(Y)
        bad = int((~simplicial.in_simplex(Y, n, rho)).sum())
        if bad:
            failures.append(f"t={t}: {bad} locate membership violations")
        details.append(f"t={t}: locate violations {bad}/100000")
    for t in (2, 3):
        Y = rng.uniform(-2.0, 2.0, (100_000, t))
        disagreements = int((simplicial.in_S0(Y) != simplicial.in_Sprime(Y)).sum())
        if disagreements:
            failures.append(f"t={t}: {disagreements} S0 vs S' disagreements")
        details.append(f"t={t}: S0 vs S' disagreements {disagreements}/100000")
    for t in (2, 3):
        fan = simplicial.simplices_containing_origin(t)
        forms = []
        for sid in fan:
            form = simplicial.vertex_interpolant(sid)
            if simplicial.classify_interpolant(form) is None:
                failures.append(f"t={t}: interpolant {form} not of a listed shape")
            forms.append(form)
        pts = rng.uniform(-1.0, 1.0, (5_000, t))
        pts = pts[simplicial.in_S0(pts)][:1_000]
        fan_min = np.min(np.stack([f(pts) for f in forms]), axis=0)
        err = float(np.abs(fan_min - simplicial.spike(pts)).max())
        if err > 1e-12:
            failures.append(f"t={t}: fan minimum vs spike {err:.2e} > 1e-12")
        details.append(f"t={t}: fan size {len(fan)}, fan-min err {err:.2e}")
    return _finish("triangulation suite (partition, S0 = S', interpolants)",
                   t0, failures, details)


def check_interpolation_contract() -> CheckResult:
    """t = 2, R = 1: node interpolation, partition of unity, error bound
    2t * omega(2R/N) with >= 1.8x decay per N doubling."""
    t0 = time.perf_counter()
    failures, details = [], []
    rng = np.random.default_rng(404)
    t, R = 2, 1.0
    axis = np.linspace(-1.0, 1.0, 200)
    mg = np.meshgrid(axis, axis, indexing="ij")
    lattice = np.stack([m.ravel() for m in mg], axis=1)
    sup_errors = {}
    for N in (4, 8, 16):
        grid = simplicial.ScaledGrid(t, R, N)
        nodes = grid.node_array()
        mu_vals = np.linalg.norm(nodes, axis=1)
        spec = constructors.InterpolationSpec(grid, mu_vals)
        net = constructors.build_interpolation_net(spec)
        node_err = float(np.abs(relu_net.evaluate_batch(net, nodes) - mu_vals).max())
        if node_err > 1e-10:
            failures.append(f"N={N}: node interpolation error {node_err:.2e} > 1e-10")
        ones = constructors.InterpolationSpec(grid, np.ones(grid.node_count))
        ones_net = constructors.build_interpolation_net(ones)
        pts = rng.uniform(-R, R, (1_000, t))
        pu = float(np.abs(relu_net.evaluate_batch(ones_net, pts) - 1.0).max())
        if pu > 1e-10:
            failures.append(f"N={N}: partition of unity off by {pu:.2e} > 1e-10")
        sup_err = float(np.abs(relu_net.evaluate_batch(net, lattice)
                               - np.linalg.norm(lattice, axis=1)).max())
        bound = constructors.interpolation_error_bound(t, N, R, lambda r: r)
        if sup_err > bound:
            failures.append(f"N={N}: sup error {sup_err:.3e} above bound {bound:.3e}")
        sup_errors[N] = sup_err
        details.append(f"N={N}: node_err={node_err:.1e} pu={pu:.1e} "
                       f"sup={sup_err:.3e} bound={bound:.3e}")
    for N in (4, 8):
        ratio = sup_errors[N] / sup_errors[2 * N]
        if ratio < 1.8:
            failures.append(f"N={N}->{2 * N}: error ratio {ratio:.2f} < 1.8")
        details.append(f"N={N}->{2 * N}: decay ratio {ratio:.2f}")
    return _finish("interpolation contract", t0, failures, details)


def check_weight_growth() -> CheckResult:
    """log M regression slope t within 5%; per-t ratio spread <= 4."""
    t0 = time.perf_counter()
    failures, details = [], []
    sweeps = {1: (4, 8, 16, 32, 64), 2: (4, 8, 16, 32), 3: (2, 3, 4, 6)}
    cross_t_ratios = []
    for t, Ns in sweeps.items():
        Ms, ratios = [], []
        for N in Ns:
            grid = simplicial.ScaledGrid(t, 1.0, N)
            spec = constructors.InterpolationSpec(grid, np.ones(grid.node_count))
            M = relu_net.count_nonzero(constructors.build_interpolation_net(spec))
            Ms.append(M)
            ratios.append(M / (t**4 * (N + 1) ** t))
        slope = float(np.polyfit(np.log(np.array(Ns) + 1.0), np.log(Ms), 1)[0])
        if abs(slope - t) > 0.05 * t:
            failures.append(f"t={t}: slope {slope:.3f} not within 5% of {t}")
        spread = max(ratios) / min(ratios)
        if spread > 4.0:
            failures.append(f"t={t}: ratio spread {spread:.2f} > 4")
        cross_t_ratios.extend(ratios)
        details.append(f"t={t}: slope={slope:.4f} ratio in "
                       f"[{min(ratios):.3f}, {max(ratios):.3f}]")
    details.append(
        "cross-t ratio spread "
        f"{max(cross_t_ratios) / min(cross_t_ratios):.2f} (reported, not gated)"
    )
    return _finish("weight growth shape", t0, failures, details)


# the criterion-6 sweep's input dimension and L^p exponent, and its
# functionals by kind, each made for them on the probe rule: two ridge
# functionals psi(integral of f g) and the L1 norm, which is not one
_RATE_S, _RATE_P = 1, 2.0
RATE_FUNCTIONALS = {
    "inner": lambda rule: pipeline.inner_product_functional(get_function("slow-series"), rule,
                                                            _RATE_P),
    "sin": lambda rule: pipeline.sin_inner_product_functional(get_function("slow-series"),
                                                              rule, _RATE_P),
    "l1": lambda rule: pipeline.l1_norm_functional(_RATE_S, _RATE_P),
}


def _rate_config(functional_kind="inner"):
    if functional_kind not in RATE_FUNCTIONALS:
        raise ValueError(f"unknown rate functional kind {functional_kind!r}; "
                         f"choose from {tuple(RATE_FUNCTIONALS)}")
    functional = RATE_FUNCTIONALS[functional_kind](make_operator(_RATE_S, 2).rule)
    cls = pipeline.InputClass("hoelder_ball", beta=2.0,
                              sample_count=64, seed=7)
    return pipeline.ExperimentConfig(
        s=_RATE_S, p=_RATE_P, functional=functional, input_class=cls,
        m_values=(0, 1, 2), N_values=(4, 8, 16, 32),
    )


_REPORT_CACHE = {}


def rate_report(kind: str = "inner") -> pipeline.ExperimentReport:
    """Criterion-6 experiment report, computed once per process."""
    if kind not in _REPORT_CACHE:
        cfg = _rate_config(functional_kind=kind)
        cfg.ladder = kind == "inner"
        _REPORT_CACHE[kind] = pipeline.run_rate_experiment(cfg)
    return _REPORT_CACHE[kind]


def check_rate_experiment() -> CheckResult:
    """Pointwise error decomposition and reconstructed two-term bound with
    a single fitted c <= 10, for a linear functional, psi of one and the
    L1 norm, whose mu is no ridge function.  Each completed row keeps both
    error terms under their bounds: poly_gap <= omega_F(eps_hat) to
    rounding, and grid_gap <= grid_bound; for ``inner``, whose mu is
    affine and so interpolated exactly, grid_gap is rounding alone."""
    t0 = time.perf_counter()
    failures, details = [], []
    for kind in RATE_FUNCTIONALS:
        report = rate_report(kind)
        done = report.completed()
        omega = _rate_config(kind).functional.omega
        for r in done:
            where = f"{kind}: m={r.m}, N={r.N}"
            poly_bound = float(omega(r.eps_hat))
            if not r.poly_gap <= poly_bound + 1e-12:
                failures.append(f"{where}: poly gap {r.poly_gap:.3e} above "
                                f"omega(eps_hat) = {poly_bound:.3e}")
            if not r.grid_gap <= r.grid_bound:
                failures.append(f"{where}: grid gap {r.grid_gap:.3e} above "
                                f"the bound {r.grid_bound:.3e}")
            if kind == "inner" and not r.grid_gap <= 1e-12:
                failures.append(f"{where}: grid gap {r.grid_gap:.3e} > 1e-12 "
                                "for an affine mu")
        if not report.summary["decomposition_ok"]:
            failures.append(f"{kind}: pointwise decomposition violated")
        c_hat = report.summary["c_hat"]
        if not c_hat <= 10.0:
            failures.append(f"{kind}: fitted c {c_hat:.3f} > 10")
        for r in report.rows:
            if r.status != "ok" and not (
                r.reason.startswith("node_cap") or r.reason.startswith("weight_cap")
            ):
                failures.append(f"{kind}: unexpected skip at (m={r.m}, N={r.N})")
        by_m = {}
        for r in done:
            by_m.setdefault(r.m, []).append(r)
        for m, rows in by_m.items():
            rows.sort(key=lambda r: r.N)
            for a, b in zip(rows, rows[1:]):
                if b.sup_error > 1.1 * a.sup_error:
                    failures.append(
                        f"{kind}: m={m} sup error grew {a.sup_error:.3e} -> "
                        f"{b.sup_error:.3e} from N={a.N} to N={b.N}"
                    )
        details.append(
            f"{kind}: {len(done)} points, c_hat={c_hat:.3f}, "
            f"skipped={report.summary['skipped_points']}"
        )
    return _finish("rate experiment decomposition and bound", t0, failures, details)


def check_rate_shape() -> CheckResult:
    """Budget-ladder decay exponent negative and within factor 2 of
    beta * lambda / s = 2 (shape test, not a constant reproduction)."""
    t0 = time.perf_counter()
    failures, details = [], []
    report = rate_report("inner")
    info = report.summary.get("budget_ladder", {})
    slope = info.get("slope")
    if slope is None:
        failures.append(f"ladder produced no slope: {info}")
    else:
        target = 2.0
        if not slope < 0:
            failures.append(f"decay exponent {slope:.3f} not negative")
        if not (target / 2.0 <= -slope <= target * 2.0):
            failures.append(
                f"|slope| = {-slope:.3f} outside [{target / 2}, {target * 2}]"
            )
        details.append(f"c9_eff={info['c9_eff']:.3f} slope={slope:.3f} "
                       f"pairs={info.get('pairs')}")
    return _finish("rate shape (budget-ladder exponent)", t0, failures, details)


_U = 2.0 ** -53  # float64's unit roundoff


def _gamma(n: int) -> float:
    """g_n = n u / (1 - n u), the error factor of an n-term dot product in
    any summation order."""
    return n * _U / (1.0 - n * _U)


def _node_contract_bound(fnet, functional, nodes) -> float:
    """How far the ridge functional net ``fnet`` may be from F(sum_k xi_k
    L_k), computed by the form at B xi, at grid nodes ``nodes`` (n, t).

    The node writer adds sum_k xi_k a_k, a = B^T (w g), the form
    sum_q (B xi)_q (w g)_q; each is within (g_t + g_q + g_t g_q)
    sum_{k,q} |xi_k B_qk (w g)_q| of the exact sum, and psi = sin adds at
    most 4 ulp of 1 per evaluation.  The net then adds its own rounding
    at a node: each of its at most 2^(t+1) - 1 candidate copies computes
    first-layer forms of up to N/2 + 2 cells and their minimum over
    D = t^2 + t forms, budgeted at 8 u per cell plus 16 u per form, times
    the largest node value."""
    op, grid = fnet.op, fnet.spec.grid
    t, q = op.t, op.rule.points.shape[0]
    mass = float((np.abs(functional.on(op.rule).gw) @ np.abs(op.basis_at_nodes)).sum())
    values = 2 * (_gamma(t) + _gamma(q) + _gamma(t) * _gamma(q)) * (
        float(np.abs(nodes).max()) * mass) + 8 * 2.0 ** -52
    copies = 2 ** (t + 1) - 1
    net = copies * float(np.abs(fnet.spec.node_values).max()) * _U * (
        8 * (grid.N + 2) + 16 * (t * t + t))
    return values + net


def check_oracle_paths_and_serialization() -> CheckResult:
    """Network path vs direct-formula path at 1e-9; the node contract (at
    a fixed sample of grid nodes xi the net is F(sum_k xi_k L_k), to
    rounding, see :func:`_node_contract_bound`); byte-exact round trips
    that keep a grid net's grid, its count and its values."""
    t0 = time.perf_counter()
    failures, details = [], []
    rng = np.random.default_rng(505)
    node_rng = np.random.default_rng(506)
    configs = [(1, 0, 8), (1, 1, 8), (1, 2, 4), (2, 1, 1)]
    for s, m, N in configs:
        op = make_operator(s, m)
        g = get_function("gaussian")
        functional = pipeline.sin_inner_product_functional(g, op.rule, p=2.0)
        inputs = pipeline.generate_inputs(
            pipeline.InputClass("hoelder_ball", beta=2.0, sample_count=100,
                                seed=11, degree_cap=16), s)
        nus = discretize(op, pipeline.sample_inputs(inputs, op.rule))
        R = float(np.abs(nus).max()) * 1.05 + 1e-9
        grid = simplicial.ScaledGrid(op.t, R, N)
        fnet = pipeline.build_functional_net(functional, op, grid)
        net_vals = relu_net.evaluate_batch(fnet.net, nus)
        direct_vals = constructors.interpolant_values(fnet.spec, nus)
        gap = float(np.abs(net_vals - direct_vals).max())
        if gap > 1e-9:
            failures.append(f"(s={s},m={m},N={N}): oracle gap {gap:.2e} > 1e-9")
        nodes = grid.nodes(np.sort(node_rng.choice(grid.node_count,
                                                   min(64, grid.node_count),
                                                   replace=False)))
        F_at_nodes = functional.apply_sampled(nodes @ op.basis_at_nodes.T, op.rule)
        node_gap = float(np.abs(relu_net.evaluate_batch(fnet.net, nodes)
                                - F_at_nodes).max())
        node_bound = _node_contract_bound(fnet, functional, nodes)
        if not node_gap <= node_bound:
            failures.append(f"(s={s},m={m},N={N}): node contract: |net - F| = "
                            f"{node_gap:.2e} at a node > {node_bound:.2e}")
        details.append(f"(s={s},m={m},N={N}): t={op.t} oracle gap {gap:.2e}, "
                       f"node gap {node_gap:.2e} (bound {node_bound:.2e})")
    nets = {
        "min d=3": constructors.build_min_net(3),
        "spike t=2": constructors.build_spike_net(2),
        "zero": relu_net.ReluNetwork(2, [(np.zeros((2, 2)), np.zeros(2))],
                                     np.zeros((1, 2))),
    }
    grid = simplicial.ScaledGrid(2, 1.0, 4)
    nets["interp t=2 N=4"] = constructors.build_interpolation_net(
        constructors.InterpolationSpec(grid, rng.standard_normal(grid.node_count)))
    for name, net in nets.items():
        raw = relu_net.serialize(net)
        back = relu_net.deserialize(raw)
        if relu_net.serialize(back) != raw:
            failures.append(f"{name}: serialize round trip not byte-identical")
        if back.grid != net.grid:
            failures.append(f"{name}: grid {net.grid} reloaded as {back.grid}")
        if relu_net.count_nonzero(back) != relu_net.count_nonzero(net):
            failures.append(f"{name}: nonzero count changed in round trip")
        X = rng.uniform(-1, 1, (50, net.input_dim))
        if not np.array_equal(relu_net.forward(net, X), relu_net.forward(back, X)):
            failures.append(f"{name}: reloaded network evaluates differently")
    details.append(f"round-tripped {len(nets)} networks byte-identically")
    return _finish("oracle-path equivalence, node contract and serialization",
                   t0, failures, details)


def check_core_invariants() -> CheckResult:
    """Fast cross-module invariants not covered by the criteria above."""
    t0 = time.perf_counter()
    failures, details = [], []
    rule = gauss_legendre_rule(8, 2)
    if abs(float(rule.weights.sum()) - 4.0) > 1e-12:
        failures.append("tensor rule weights do not sum to 2^s")
    op = make_operator(1, 2)
    basis = LegendreBasis(2, 1)
    B = basis.eval_all(rule.points)
    gram = B.T @ (rule.weights[:, None] * B)
    dev = float(np.abs(gram - np.eye(basis.t)).max())
    if dev > 1e-10:
        failures.append(f"orthonormality deviation {dev:.2e} > 1e-10")
    rng = np.random.default_rng(606)
    for _ in range(20):
        c = rng.standard_normal(op.t)
        poly = PolyCoeffs(op.basis, c)
        if abs(lp_norm(poly, 2, op.rule) - float(np.linalg.norm(c))) > 1e-10:
            failures.append("coefficient map is not an isometry")
            break
    f = get_function("runge")
    # monotonicity is an exact nested-space statement only at a fixed
    # quadrature measure, so pin the rule size across m
    errs = [projection_error(make_operator(1, m, q=40), f) for m in (1, 2, 3, 4)]
    if not all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])):
        failures.append("projection error not monotone in m")
    details.append(f"gram dev {dev:.1e}; projection errors {np.round(errs, 5)}")
    return _finish("core invariants (quadrature, isometry, projections)",
                   t0, failures, details)


ALL_CHECKS = [
    ("1", check_min_network),
    ("2", check_spike_equivalence),
    ("3", check_appendix_suite),
    ("4", check_interpolation_contract),
    ("5", check_weight_growth),
    ("6", check_rate_experiment),
    ("7", check_rate_shape),
    ("8", check_oracle_paths_and_serialization),
    ("core", check_core_invariants),
]


def run_all() -> list:
    results = []
    for label, fn in ALL_CHECKS:
        res = fn()
        results.append((label, res))
        print(res.line())
        for d in res.details:
            print(f"    {d}")
    return results

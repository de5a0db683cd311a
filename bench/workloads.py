"""The benchmark's workloads.

Each workload's constructor is its set-up (inputs from the seed);
``run_pass`` runs one pass of ops, timed by the caller, and ``gate`` checks
the pass's ops after the pass and outside its timing.  All calls into
funcrelu go through module attributes, so the tracer's wrappers see them.

``USES`` lists, per workload, the per-layer metrics the workload is
predicted to drive; the self-test requires each of them to be nonzero.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

import numpy as np

from funcrelu import constructors, functions, pipeline, relu_net, simplicial

# the package re-exports the function discretize over the module's name
discretize = importlib.import_module("funcrelu.discretize")


@dataclass
class Op:
    key: str
    seconds: float = 0.0
    ok: bool = True
    why: str = ""
    value: object = None


@dataclass
class PassResult:
    ops: list
    counts: dict = field(default_factory=dict)


class Workload:
    name = ""

    def mark(self, op_key: str):
        """Called as each op starts; the traced run tags spans with it."""

    def run_checks(self, result: PassResult) -> list:
        """Run-level check failures beyond the per-op gates."""
        return []


# -- rate_sweep ---------------------------------------------------------------

RATE_GATE_ORACLE = 1e-9
ALLOWED_SKIPS = ("node_cap:", "weight_cap:")


def rate_config(seed: int, tiny: bool = False) -> pipeline.ExperimentConfig:
    """The criterion-6 'inner' rate experiment, built from the public API
    with the benchmark seed as the input-class seed."""
    op_probe = discretize.make_operator(1, 2)
    g = functions.get_function("slow-series")
    functional = pipeline.inner_product_functional(g, op_probe.rule)
    if tiny:
        cls = pipeline.InputClass("hoelder_ball", beta=2.0, sample_count=8, seed=seed)
        return pipeline.ExperimentConfig(
            s=1, p=2.0, functional=functional, input_class=cls,
            m_values=(0, 1), N_values=(2, 4), node_cap=100,
            ladder=True, ladder_weight_cap=100_000,
        )
    cls = pipeline.InputClass("hoelder_ball", beta=2.0, sample_count=64, seed=seed)
    return pipeline.ExperimentConfig(
        s=1, p=2.0, functional=functional, input_class=cls,
        m_values=(0, 1, 2), N_values=(4, 8, 16, 32), ladder=True,
    )


def config_mismatches(ours, reference) -> list:
    """Fields on which two experiment configs differ.  Functionals are
    compared by name, modulus and their values on a fixed probe."""
    from funcrelu.legendre import gauss_legendre_rule

    out = []
    for name in vars(reference):
        a, b = getattr(ours, name), getattr(reference, name)
        if name == "functional":
            rule = gauss_legendre_rule(12, ours.s)
            probe = np.cos(np.arange(3 * rule.points.shape[0]).reshape(3, -1))
            same = (a.name == b.name and a.omega == b.omega
                    and np.array_equal(a.apply_sampled(probe, rule),
                                       b.apply_sampled(probe, rule)))
        else:
            same = a == b
        if not same:
            out.append(name)
    return out


def verify_config_mismatches() -> list:
    """Differences between the seed-7 config and the one `funcrelu verify` runs."""
    from funcrelu import verify

    reference = verify._rate_config(functional_kind="inner")
    reference.ladder = True
    return config_mismatches(rate_config(7), reference)


class RateSweep(Workload):
    name = "rate_sweep"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed, self.tiny = seed, tiny
        self.cfg = rate_config(seed, tiny)

    def run_pass(self) -> PassResult:
        # Grid points and ladder points are ops; _measure_point is the one
        # call both go through, so it marks the op boundary.
        ops = []
        measure = pipeline._measure_point

        def timed_point(*args, **kwargs):
            self.mark(f"point{len(ops)}")
            t0 = time.perf_counter()
            row = measure(*args, **kwargs)
            ops.append(Op(f"m={row.m},N={row.N}", time.perf_counter() - t0, value=row))
            return row

        pipeline._measure_point = timed_point
        raised = None
        try:
            pipeline.run_rate_experiment(self.cfg)
        except ValueError as exc:  # discretize leaving the cube, among others
            raised = Op("experiment", ok=False, why=f"raised: {exc}")
        finally:
            pipeline._measure_point = measure
        n_grid = len(self.cfg.m_values) * len(self.cfg.N_values)
        for i, op in enumerate(ops):
            op.key = ("grid " if i < n_grid else "ladder ") + op.key
        done = sum(op.value.status == "ok" for op in ops)
        counts = {"pipeline.rate.points_done": done,
                  "pipeline.rate.points_skipped": len(ops) - done}
        return PassResult(ops + [raised] if raised else ops, counts)

    def gate(self, result: PassResult):
        for op in result.ops:
            row = op.value
            if row is None:
                continue
            if row.status != "ok":
                if not row.reason.startswith(ALLOWED_SKIPS):
                    op.ok, op.why = False, f"skipped: {row.reason}"
                continue
            problems = []
            if not row.decomposition_ok:
                problems.append("decomposition violated")
            if not row.oracle_gap <= RATE_GATE_ORACLE:
                problems.append(f"oracle gap {row.oracle_gap:.3e}")
            if row.J != row.t * row.t + row.t + 1:
                problems.append(f"depth {row.J} != t^2+t+1")
            op.ok, op.why = not problems, "; ".join(problems)

    def structure(self, result: PassResult) -> dict:
        rows = [op for op in result.ops if op.value is not None]
        ok = [op.key for op in rows if op.value.status == "ok"]
        return {
            "grid_done": sum(k.startswith("grid") for k in ok),
            "ladder_done": sum(k.startswith("ladder") for k in ok),
            "skips": sorted(f"{op.key}:{op.value.reason.split(':')[0]}"
                            for op in rows if op.value.status != "ok"),
        }

    def run_checks(self, result: PassResult) -> list:
        """Run-level checks: at seed 7 the config and the completed points
        must be exactly those of `funcrelu verify`."""
        if self.tiny or self.seed != 7:
            return []
        failures = [f"config differs from verify on {f}" for f in verify_config_mismatches()]
        expected = {"grid_done": 10, "ladder_done": 5,
                    "skips": ["grid m=2,N=16:node_cap", "grid m=2,N=32:node_cap"]}
        if self.structure(result) != expected:
            failures.append(f"completed points {self.structure(result)} != {expected}")
        return failures


# -- grid_build ---------------------------------------------------------------

# The criterion-5 weight-growth sweep of `funcrelu verify`, then three large
# shapes that trade block size against copy count.
GRID_SHAPES = (
    [(1, N) for N in (4, 8, 16, 32, 64)]
    + [(2, N) for N in (4, 8, 16, 32)]
    + [(3, N) for N in (2, 3, 4, 6)]
    + [(3, 32), (7, 2), (5, 8)]
)
GRID_SHAPES_TINY = [(1, 4), (2, 4), (3, 2)]


def is_desk_size(t: int, N: int) -> bool:
    return t <= 2 and N <= 8


class GridBuild(Workload):
    name = "grid_build"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.specs = []
        for t, N in GRID_SHAPES_TINY if tiny else GRID_SHAPES:
            grid = simplicial.ScaledGrid(t, 1.0, N)
            values = rng.uniform(-1.0, 1.0, grid.node_count)
            self.specs.append(constructors.InterpolationSpec(grid, values))

    def run_pass(self) -> PassResult:
        ops = []
        for spec in self.specs:
            t, N = spec.grid.t, spec.grid.N
            self.mark(f"t={t},N={N}")
            t0 = time.perf_counter()
            net = constructors.build_interpolation_net(spec)
            M = relu_net.count_nonzero(net)
            total = relu_net.nonzero_breakdown(net)["total"]
            round_trip = None
            if is_desk_size(t, N):
                raw = relu_net.serialize(net)
                round_trip = relu_net.serialize(relu_net.deserialize(raw)) == raw
            J = relu_net.depth(net)
            del net
            ops.append(Op(f"t={t},N={N}", time.perf_counter() - t0,
                          value=(t, spec.grid.node_count, J, M, total, round_trip)))
        return PassResult(ops)

    def gate(self, result: PassResult):
        for op in result.ops:
            t, nodes, J, M, total, round_trip = op.value
            problems = []
            if J != t * t + t + 1:
                problems.append(f"depth {J} != t^2+t+1")
            if M != total:
                problems.append(f"count_nonzero {M} != breakdown total {total}")
            if M > nodes * constructors.spike_nominal_nonzeros(t):
                problems.append(f"{M} nonzeros above the nominal bound")
            if round_trip is False:
                problems.append("serialize round trip not byte-identical")
            op.ok, op.why = not problems, "; ".join(problems)


# No workload queries evaluate_functional_net one input at a time: on a
# 2-vCPU KVM guest its 0.1-0.2 s passes followed the host's speed states
# (about 1x, 1.45x and 1.8x, each lasting seconds to minutes), so its
# run-to-run spread stayed above the wall_s bound whatever the estimator.
WORKLOADS = {w.name: w for w in (RateSweep, GridBuild)}

USES = {
    "rate_sweep": (
        "relu_net.forward.calls", "relu_net.forward.s", "relu_net.forward.points",
        "relu_net.forward.macs", "relu_net.forward.weight_bytes",
        "relu_net.forward.active_block_ratio", "relu_net.count_nonzero.s",
        "relu_net.net_bytes_max",
        "constructors.build_interpolation_net.calls", "constructors.build_interpolation_net.nnz",
        "constructors.interpolant_values.points", "simplicial.spike.points",
        "legendre.tensor_eval.values", "legendre.eval_all.calls",
        "legendre.gauss_legendre_rule.calls",
        "discretize.discretize.calls", "discretize.apply_Vm.calls",
        "discretize.projection_error.calls", "discretize.make_operator.calls",
        "pipeline.rate.points_done", "pipeline.rate.points_skipped",
        "pipeline.generate_inputs.s", "pipeline.mu_values.calls",
        "pipeline.build_functional_net.s",
    ),
    "grid_build": (
        "constructors.build_interpolation_net.calls", "constructors.build_interpolation_net.s",
        "constructors.build_interpolation_net.nnz", "relu_net.count_nonzero.s",
        "relu_net.serialize.s", "relu_net.serialize.bytes", "relu_net.deserialize.s",
        "relu_net.net_bytes_max",
    ),
}

"""Explicit ReLU network constructions: an exact minimum network, the
spike network, and the piecewise linear interpolation network built from
scaled spikes on a grid.

Every construction has a companion direct evaluator (``np.min``,
:func:`funcrelu.simplicial.spike`, :func:`interpolant_values`); the test
strategy is equivalence of the network path with the direct path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .relu_net import Layer, ReluNetwork
from .simplicial import ScaledGrid, spike, spike_forms, support_pairs

DEFAULT_NODE_CAP = 200_000


def build_min_net(d: int) -> ReluNetwork:
    """Network computing min(x_1, ..., x_d) exactly.

    Uses the recursion min(x_1..x_d) = x_d - relu(x_d - min(x_1..x_{d-1}))
    with x_d carried through earlier layers as the pair
    (relu(x_d), relu(-x_d)).  The result has d - 1 hidden layers and
    exactly d^2 + 4d - 5 nonzero weights (7 at d = 2, 16 at d = 3), with
    all shifts zero.
    """
    if d < 2:
        raise ValueError("min network needs d >= 2")
    layers = [(np.array([[0.0, 1.0], [0.0, -1.0], [-1.0, 1.0]]), np.zeros(3))]
    a = np.array([[1.0, -1.0, -1.0]])
    for k in range(3, d + 1):
        new_layers = []
        w0, _ = layers[0]
        W = np.zeros((w0.shape[0] + 2, k))
        W[: w0.shape[0], : k - 1] = w0
        W[w0.shape[0], k - 1] = 1.0
        W[w0.shape[0] + 1, k - 1] = -1.0
        new_layers.append((W, np.zeros(W.shape[0])))
        for wj, _ in layers[1:]:
            W = np.zeros((wj.shape[0] + 2, wj.shape[1] + 2))
            W[: wj.shape[0], : wj.shape[1]] = wj
            W[wj.shape[0], wj.shape[1]] = 1.0
            W[wj.shape[0] + 1, wj.shape[1] + 1] = 1.0
            new_layers.append((W, np.zeros(W.shape[0])))
        w_prev = new_layers[-1][0].shape[0]
        W = np.zeros((3, w_prev))
        W[0, w_prev - 2] = 1.0
        W[1, w_prev - 1] = 1.0
        W[2, : w_prev - 2] = -a[0]
        W[2, w_prev - 2] = 1.0
        W[2, w_prev - 1] = -1.0
        new_layers.append((W, np.zeros(3)))
        layers = new_layers
    return ReluNetwork(d, layers, a)


def min_net_nonzeros(d: int) -> int:
    """Closed-form nonzero count of :func:`build_min_net`."""
    return d * d + 4 * d - 5


def build_spike_net(t: int) -> ReluNetwork:
    """Network computing the spike function on R^t.

    Architecture: one layer producing relu of the t^2 + t affine forms,
    the minimum network over those values, and a final relu unit.  Relying
    on relu(min(a_i)) = relu(min(relu(a_i))), the depth is t^2 + t + 1.
    """
    if t < 1:
        raise ValueError("spike network needs t >= 1")
    W1, b1 = spike_forms(t)
    mn = build_min_net(t * t + t)
    layers = [Layer(W1, b1)]
    layers.extend(mn.layers)
    layers.append(Layer(np.asarray(mn.output), np.zeros(1)))
    return ReluNetwork(t, layers, np.array([[1.0]]))


def spike_nominal_nonzeros(t: int) -> int:
    """Nonzero count of one unshifted spike block including a unit output
    coefficient: first layer 3t(t-1) + 4t, plus the minimum network over
    D = t^2 + t inputs, plus 1."""
    D = t * t + t
    return 3 * t * (t - 1) + 4 * t + (D * D + 4 * D - 5) + 1


@dataclass(frozen=True)
class InterpolationSpec:
    """Grid plus one value per grid node (flat array in C node order)."""

    grid: ScaledGrid
    node_values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.node_values, dtype=float).ravel()
        if vals.shape[0] != self.grid.node_count:
            raise ValueError(
                f"expected {self.grid.node_count} node values, got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("node values must be finite")
        object.__setattr__(self, "node_values", vals)


def build_interpolation_net(spec: InterpolationSpec,
                            node_cap: int = DEFAULT_NODE_CAP) -> ReluNetwork:
    """Network summing node_value(xi) * spike((y - xi) / cell) over all
    grid nodes xi; interpolates the node values and is linear on each
    cell of the scaled triangulation.

    Equivalent to compose_parallel over per-node shifted spike networks:
    the layer blocks are identical across nodes except first-layer shifts
    and output coefficients, so the net stores the layers of
    :func:`build_spike_net` once, at cell scale, and the grid gives the
    copies and each copy's first-layer shifts (see
    :class:`funcrelu.relu_net.ReluNetwork`).  Depth is t^2 + t + 1 and the
    nonzero count is at most node_count * spike_nominal_nonzeros(t).
    """
    grid = spec.grid
    n = grid.node_count
    if n > node_cap:
        raise ValueError(
            f"grid has {n} nodes, above the cap of {node_cap}; "
            "raise node_cap explicitly for larger builds"
        )
    first, *deeper = build_spike_net(grid.t).layers
    # the spike's forms at (y - xi) / cell; its shifts at the origin are
    # the same at every scale
    layers = [Layer(sp.csr_matrix(first.weights * (1.0 / grid.h)),
                    first.shifts)]
    layers += [Layer(sp.csr_matrix(l.weights), l.shifts) for l in deeper]
    return ReluNetwork(grid.t, layers, spec.node_values.reshape(1, n),
                       grid=grid)


def interpolant_values(spec: InterpolationSpec, y: np.ndarray) -> np.ndarray:
    """Direct evaluation of the interpolant formula (no network): sums
    node_value(xi) * spike((y - xi) / cell) over the <= 3^t nodes whose
    spike can be nonzero at y, in ascending node order."""
    grid = spec.grid
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    pts = y[None, :] if single else y
    point, node = support_pairs(pts, grid)
    psi = spike((pts[point] - grid.nodes(node)) / grid.h)
    # bincount adds each point's terms in pair order, starting from 0.0
    total = np.bincount(point, weights=spec.node_values[node] * psi,
                        minlength=pts.shape[0])
    return float(total[0]) if single else total


def node_values_from_function(grid: ScaledGrid, mu) -> np.ndarray:
    """Sample a callable on all grid nodes (batch call on (n, t) points)."""
    return np.asarray(mu(grid.node_array()), dtype=float).ravel()


def interpolation_error_bound(t: int, N: int, R: float, omega) -> float:
    """Sup-error bound 2 t * omega(2R/N) for interpolating a function with
    modulus of continuity omega on [-R, R]^t.

    ``omega`` must already be the modulus of the interpolated map (apply
    :func:`funcrelu.discretize.transfer_modulus` first when starting from
    a functional modulus).
    """
    return 2.0 * t * float(omega(2.0 * R / N))


def timed(builder, *args, **kwargs):
    """(result, elapsed seconds) of a build call."""
    t0 = time.perf_counter()
    net = builder(*args, **kwargs)
    return net, time.perf_counter() - t0

"""Explicit ReLU network constructions: an exact minimum network, the
spike network, and the piecewise linear interpolation network built from
scaled spikes on a grid.

Their weights, sparse and mostly +-1, are dense read-only matrices that
:func:`funcrelu.relu_net.forward` runs through their index forms with no
BLAS call, so no value follows the BLAS build or the point chunks.
Every construction has a companion direct evaluator (``np.min``, :func:`funcrelu.simplicial.spike`,
:func:`interpolant_values`); the test strategy is equivalence of the
network path with the direct path.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .relu_net import Layer, ReluNetwork
# spike_layer_shapes is imported from here as well
from .simplicial import (ScaledGrid, integer_size, point_batch, read_only, real_array,
                         spike, spike_forms, spike_layer_shapes, support_pairs)


def build_min_net(d: int) -> ReluNetwork:
    """Network computing min(x_1, ..., x_d) exactly.

    Carries out the recursion min(x_1..x_d) = x_d - relu(x_d - min(x_1..x_{d-1}))
    with x_d carried through earlier layers as the pair
    (relu(x_d), relu(-x_d)).  The result has d - 1 hidden layers and
    exactly d^2 + 4d - 5 nonzero weights (7 at d = 2, 16 at d = 3), with
    all shifts zero.  Each layer is written in closed form (x 1-based):

    - layer 0, shape (2d - 1, d): rows x_2, -x_2 and x_2 - x_1, then x_k
      and -x_k for each k = 3..d;
    - layer j = 1..d-2, shape (2d - 1 - 2j, 2d + 1 - 2j): row 0 reads
      unit 3, row 1 reads unit 4, row 2 is (-1, 1, 1, 1, -1) on units
      0..4 (the next x, units 3 - 4, minus the running minimum, units
      0 - 1 - 2), and each row r >= 3 reads unit r + 2;
    - output (1, -1, -1).
    """
    d = integer_size(d, "d", 2)
    k = np.arange(2, d)
    W = np.zeros((2 * d - 1, d))
    W[[0, 1, 2, 2], [1, 1, 0, 1]] = (1.0, -1.0, -1.0, 1.0)
    W[2 * k - 1, k] = 1.0
    W[2 * k, k] = -1.0
    layers = [(W, np.zeros(2 * d - 1))]
    for j in range(1, d - 1):
        cols = 2 * d + 1 - 2 * j
        r = np.arange(3, cols - 2)
        W = np.zeros((cols - 2, cols))
        W[[0, 1], [3, 4]] = 1.0
        W[2, :5] = (-1.0, 1.0, 1.0, 1.0, -1.0)
        W[r, r + 2] = 1.0
        layers.append((W, np.zeros(cols - 2)))
    return ReluNetwork(d, layers, np.array([[1.0, -1.0, -1.0]]))


def min_net_nonzeros(d: int) -> int:
    """Closed-form nonzero count of :func:`build_min_net`."""
    return d * d + 4 * d - 5


def build_spike_net(t: int) -> ReluNetwork:
    """Network computing the spike function on R^t.

    Architecture: one layer producing relu of the t^2 + t affine forms,
    the minimum network over those values, and a final relu unit.  Relying
    on relu(min(a_i)) = relu(min(relu(a_i))), the depth is t^2 + t + 1.
    """
    t = integer_size(t, "t")
    W1, b1 = spike_forms(t)
    mn = build_min_net(t * t + t)
    layers = [Layer(W1, b1)]
    layers.extend(mn.layers)
    layers.append(Layer(np.asarray(mn.output), np.zeros(1)))
    return ReluNetwork(t, layers, np.array([[1.0]]))


@functools.cache
def shared_block(t: int) -> ReluNetwork:
    """The process's spike block of dimension t: :func:`build_spike_net`
    at the first call for t, the same net afterwards.  Every functional
    net and every reloaded grid document of that t holds its deeper
    ``Layer`` objects and their index forms; a block lives as long as the
    process.  Sharing is safe because nets and layers are fixed when made
    (see :mod:`funcrelu.relu_net`)."""
    return build_spike_net(t)


def spike_nominal_nonzeros(t: int) -> int:
    """Nonzero count of one unshifted spike block including a unit output
    coefficient: first layer 3t(t-1) + 4t, plus the minimum network over
    D = t^2 + t inputs, plus 1."""
    return 3 * t * (t - 1) + 4 * t + min_net_nonzeros(t * t + t) + 1


@dataclass(frozen=True)
class InterpolationSpec:
    """Grid plus one value per grid node (flat array in C node order).
    The node values are made read-only in place, not copied: the caller's
    array too, where it holds them (see
    :func:`funcrelu.simplicial.read_only`)."""

    grid: ScaledGrid
    node_values: np.ndarray

    def __post_init__(self):
        vals = real_array(self.node_values, "node values").ravel()
        if vals.shape[0] != self.grid.node_count:
            raise ValueError(
                f"expected {self.grid.node_count} node values, got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("node values must be finite")
        object.__setattr__(self, "node_values", read_only(vals, self.node_values))


def build_interpolation_net(spec: InterpolationSpec,
                            block: Optional[ReluNetwork] = None) -> ReluNetwork:
    """Network summing node_value(xi) * spike((y - xi) / cell) over all
    grid nodes xi; interpolates the node values and is linear on each
    cell of the scaled triangulation.

    The sum is one scalar net over the per-node shifted spike nets: their
    first layers stack on the shared input, their deeper layers go block
    diagonal and the output row holds each node's value.  The blocks are
    identical across nodes except first-layer shifts and output
    coefficients, so the net stores the layers of
    :func:`build_spike_net` once, at cell scale, and the grid gives the
    copies and each copy's first-layer shifts (see
    :class:`funcrelu.relu_net.ReluNetwork`).  Depth is t^2 + t + 1 and the
    nonzero count is at most node_count * spike_nominal_nonzeros(t).

    ``block`` is a spike net of the grid's t to build from instead of a
    new one, such as :func:`shared_block`; the net then holds its deeper
    ``Layer`` objects, and with them their index forms
    (:attr:`funcrelu.relu_net.Layer.form`), and only the scaled first
    layer is its own.  A grid net, or a block of other
    shapes, raises ValueError.  Sharing is safe because a net, its layers
    and its node values are fixed when made (see
    :mod:`funcrelu.relu_net`): the net's output row is ``spec``'s
    read-only node values, and a write to them raises ValueError.
    """
    grid = spec.grid
    if block is None:
        block = build_spike_net(grid.t)
    elif block.grid is not None:
        raise ValueError("a grid net is not a spike block")
    # the spike's forms at (y - xi) / cell, centred at the origin; copy i's
    # shifts are the same forms centred at node i (relu_net._grid_shifts)
    layers = [Layer(*spike_forms(grid.t, 1.0 / grid.h)), *block.layers[1:]]
    return ReluNetwork(grid.t, layers, spec.node_values.reshape(1, -1),
                       grid=grid)


def interpolant_values(spec: InterpolationSpec, y: np.ndarray) -> np.ndarray:
    """Direct evaluation of the interpolant formula (no network): sums
    node_value(xi) * spike((y - xi) / cell) over the nodes whose spike can
    be nonzero at y, in ascending node order: t + 1 nodes at a generic
    point, at most 2^(t+1) - 1 anywhere.  ``y`` is one point (t,) or a
    batch (n, t); any other shape raises ValueError."""
    grid = spec.grid
    pts, single = point_batch(y, grid.t)
    point, node = support_pairs(pts, grid)
    psi = spike((pts[point] - grid.nodes(node)) / grid.h)
    # bincount adds each point's terms in pair order, starting from 0.0
    total = np.bincount(point, weights=spec.node_values[node] * psi,
                        minlength=pts.shape[0])
    return float(total[0]) if single else total


def interpolation_error_bound(t: int, N: int, R: float, omega) -> float:
    """Sup-error bound 2 t * omega(2R/N) for interpolating a function with
    modulus of continuity omega on [-R, R]^t.

    ``omega`` must already be the modulus of the interpolated map (apply
    :func:`funcrelu.discretize.transfer_modulus` first when starting from
    a functional modulus).
    """
    return 2.0 * t * float(omega(2.0 * R / N))


def timed(call, *args, **kwargs):
    """(result, elapsed seconds) of a call."""
    t0 = time.perf_counter()
    result = call(*args, **kwargs)
    return result, time.perf_counter() - t0

"""Simplicial geometry behind the piecewise linear interpolation.

The lattice h*Z^t together with all coordinate orderings cuts R^t into
simplices

    {y : 0 <= y_{rho(0)} - h*n_{rho(0)} <= ... <= y_{rho(t-1)} - h*n_{rho(t-1)} <= h}

indexed by an integer shift n and a permutation rho (a Kuhn-type
triangulation).  This module locates points, in cells, in that partition,
evaluates the spike function psi (the unique continuous cellwise-linear
function with psi(0) = 1 and psi = 0 on all other lattice points), and provides
executable versions of the supporting facts about the spike's support:
the union S0 of simplices containing the origin equals an explicit
intersection of half-spaces, and each vertex interpolant over the S0 fan
is one of the affine forms

    1 + y_l,   1 + y_l - y_k,   1 - y_k.

Permutations are stored 0-based: rho[i] is the coordinate in chain slot i.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np


def integer_size(v, name: str, least: int = 1) -> int:
    """``v`` as a Python int, or a ValueError naming ``name``: a bool, a
    non-integer or a value below ``least`` is refused.  NumPy integers are
    accepted and converted, so sizes computed from them cannot wrap."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
    return int(v)


def real_array(x, what: str) -> np.ndarray:
    """``x`` as a float array: the one conversion of a caller's values but
    points (see :func:`point_batch`).  A dtype other than bool, integer or
    float (a cast would keep a complex value's real part) raises a
    ValueError naming ``what`` and the dtype."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real numbers, got dtype {x.dtype}")
    return x.astype(float, copy=False)


def read_only(a: np.ndarray, source) -> np.ndarray:
    """``a``, an array a made object keeps, made read-only in place, and
    ``source``, the caller's value it came from, too where ``a`` shares
    its memory: a write to either then raises numpy's read-only
    ValueError, and no second copy is made."""
    a.flags.writeable = False
    if isinstance(source, np.ndarray) and np.may_share_memory(a, source):
        source.flags.writeable = False
    return a


@dataclass(frozen=True)
class SimplexId:
    """Cell of the triangulation: integer shift ``n`` and permutation ``rho``."""

    n: tuple
    rho: tuple

    def __post_init__(self):
        t = len(self.n)
        if sorted(self.rho) != list(range(t)):
            raise ValueError(f"rho must be a permutation of 0..{t - 1}")

    @property
    def t(self) -> int:
        return len(self.n)


@dataclass(frozen=True)
class ScaledGrid:
    """Uniform grid {-R + (2R/N) * i : i = 0..N}^t on the cube [-R, R]^t."""

    t: int
    R: float
    N: int

    def __post_init__(self):
        for name in ("t", "N"):
            # a NumPy integer would wrap in node_count
            object.__setattr__(self, name, integer_size(getattr(self, name), name))
        # the cell 2R/N is a float64
        if self.N > sys.float_info.max:
            raise ValueError(f"N must be at most the float64 maximum, got an "
                             f"integer of {self.N.bit_length()} bits")
        R = self.R
        real = isinstance(R, numbers.Real) and not isinstance(R, bool)
        try:
            finite_cell = real and math.isfinite(2.0 * float(R) / self.N)
        except OverflowError:  # an integer R beyond float range
            finite_cell = False
        if not (finite_cell and R > 0):
            raise ValueError(f"R must be a finite number > 0 with a finite cell "
                             f"2R/N, got R={R!r}, N={self.N}")
        # the cell, and the network format's repr of R, are float64's
        object.__setattr__(self, "R", float(R))

    @property
    def h(self) -> float:
        return 2.0 * self.R / self.N

    @property
    def node_count(self) -> int:
        return (self.N + 1) ** self.t

    def coordinates(self, i) -> np.ndarray:
        """The node coordinate -R + h * i of each axis index in ``i``."""
        return -self.R + self.h * i

    def nodes(self, index) -> np.ndarray:
        """Coordinates of the nodes with flat (C order) indices ``index``,
        shape (len(index), t)."""
        return self.coordinates(
            np.stack(np.unravel_index(index, (self.N + 1,) * self.t), axis=-1))

    def node_array(self) -> np.ndarray:
        """All grid nodes, shape (node_count, t), C-order over axis indices."""
        return self.nodes(np.arange(self.node_count))


def point_batch(x, dim=None, ndims=(1, 2)):
    """``x`` as a float batch (n, dim), and whether it was one point: the
    one conversion of a caller's points.

    ``dim`` is the point dimension, or None for any dimension >= 1, read
    from the last axis.  ``ndims`` holds the accepted array ranks: 1 for
    one point (dim,), 2 for a batch (n, dim); None also accepts a batch
    (..., dim) of any rank, returned as it is.  A ValueError names a dtype
    :func:`real_array` refuses, any other shape (a scalar among them), and
    the first point, in C order, with a nan or infinite coordinate.
    """
    x = real_array(x, "points")
    rank_ok = x.ndim >= 1 if ndims is None else x.ndim in ndims
    if not (rank_ok and (x.shape[-1] >= 1 if dim is None else x.shape[-1] == dim)):
        d = "t" if dim is None else dim
        want = ((f"({d},)", f"(..., {d})") if ndims is None
                else [("", f"({d},)", f"(n, {d})")[k] for k in ndims])
        raise ValueError(f"points must have shape {' or '.join(want)}, got {x.shape}")
    pts = x[None, :] if x.ndim == 1 else x
    finite = np.isfinite(pts).all(axis=-1)
    if not finite.all():
        raise ValueError(f"point {int(np.argmin(finite))} has a non-finite coordinate")
    return pts, x.ndim == 1


def locate_batch(z):
    """Canonical (n, rho) of the containing simplex for each point z, in
    cells: one point (t,) or a batch (k, t) of the triangulation of the
    lattice Z^t.  A grid's cells are ``locate_batch((y + R) / h)``.

    The canonical cell is the lexicographically smallest (n, rho) among
    all cells containing the point: coordinates hitting a lattice plane
    take the lower shift (fractional offset 1 at the top of the chain),
    and tied offsets are ordered by coordinate index.  Returns integer
    arrays (n, rho) of shape (k, t).  Raises ValueError for a non-finite
    point and for one whose shift n does not fit in int64.
    """
    z, _ = point_batch(z)
    # strict bound: floor(z) - 1 on a lattice plane must still fit
    far = ~(np.abs(z) < 2.0**63).all(axis=1)
    if far.any():
        raise ValueError(
            f"point {int(np.argmax(far))} lies beyond the int64 range of cell shifts"
        )
    n = np.floor(z).astype(np.int64)
    frac = z - n
    on_face = frac == 0.0
    n[on_face] -= 1
    frac[on_face] = 1.0
    rho = np.argsort(frac, axis=1, kind="stable")
    return n, rho


# Slack, in cells, added to each inequality of a spike's support when
# choosing candidate nodes.  It is far above the rounding of an
# interpolation net's first layer (a few ulp of N + 2), so every node it
# leaves out has a first-layer form below zero there, and its spike block
# outputs exact 0.
SUPPORT_SLACK = 1e-6


# How far, in cells, each offset of a generic point lies from 0, from 1
# and from the point's other offsets (see support_pairs): far above both
# SUPPORT_SLACK and an offset's rounding, so the window test keeps
# exactly the Kuhn vertices of such a point.
GENERIC_GAP = 4 * SUPPORT_SLACK


def support_pairs(y, grid: ScaledGrid):
    """(point, node) index pairs of every grid node whose spike can be
    nonzero at a point.

    With u = (y + R)/h and d = u - i the offset of node i in cells, the
    spike of node i is nonzero only where |d_k| <= 1 on each axis and
    max_k d_k - min_k d_k <= 1; a pair is kept while both hold within
    SUPPORT_SLACK.  Those are the vertices of the point's simplex: t + 1
    pairs at a generic point, and at most 2^(t+1) - 1 anywhere (the
    nodes i with u - i in {0, 1}^t or {-1, 0}^t at a lattice node).

    A point is generic where, on every axis, the window holds the two
    nodes n_k and n_k + 1 of its cell, and its offsets f = u - n lie more
    than ``GENERIC_GAP`` from 0, from 1 and from each other.  Its pairs
    are then exactly the Kuhn vertices n, n + e_rho(1), ...,
    n + e_rho(1) + ... + e_rho(t), rho ordering f from largest to
    smallest (Kuhn 1960), written in a fixed number of array operations
    whatever t is.  Every other point, a lattice node, a point on a face
    or within slack of one, or one at or outside the cube's boundary,
    goes through the axis-by-axis window test of :func:`_window_pairs`;
    on t = 1 every point does.

    Pairs come point by point, nodes in ascending flat (C order) index.
    Rejects non-finite points; a finite point more than one cell outside
    the cube has no pair, so an interpolant is 0 there.
    """
    pts, _ = point_batch(y, grid.t)
    # clipping before the int cast keeps far-out points (1e300) in range;
    # two cells out, the window on that axis is already empty
    u = (pts + grid.R) / grid.h
    np.maximum(u, -2.0, out=u)
    np.minimum(u, grid.N + 2.0, out=u)
    lo = np.maximum(np.ceil(u - 1.0 - SUPPORT_SLACK), 0).astype(np.int64)
    hi = np.minimum(np.floor(u + 1.0 + SUPPORT_SLACK), grid.N).astype(np.int64)
    if grid.t == 1:
        return _window_pairs(u, lo, hi, grid.N)
    # each point's offsets f = u - lo between a 0 and a 1, sorted: a
    # generic point's neighbours there lie more than GENERIC_GAP apart
    f = np.zeros((pts.shape[0], grid.t + 2))
    f[:, -1] = 1.0
    np.subtract(u, lo, out=f[:, 1:-1])
    order = np.argsort(f[:, 1:-1], axis=1)
    f.sort(axis=1)
    generic = (((f[:, 1:] - f[:, :-1]) > GENERIC_GAP).all(axis=1)
               & (hi - lo == 1).all(axis=1))
    # C-order strides; each Kuhn step adds the stride of the axis with the
    # next largest offset, so the vertices come in ascending flat index
    stride = (grid.N + 1) ** np.arange(grid.t - 1, -1, -1, dtype=np.int64)
    node = np.cumsum(np.concatenate([(lo * stride).sum(axis=1)[:, None],
                                     stride[order[:, ::-1]]], axis=1), axis=1)
    if generic.all():
        return np.arange(pts.shape[0]).repeat(grid.t + 1), node.ravel()
    kuhn = np.flatnonzero(generic)
    tie = np.flatnonzero(~generic)
    tie_point, tie_node = _window_pairs(u[tie], lo[tie], hi[tie], grid.N)
    point = np.concatenate([kuhn.repeat(grid.t + 1), tie[tie_point]])
    # two runs, each in point order: a stable sort merges them
    merged = np.argsort(point, kind="stable")
    return point[merged], np.concatenate([node[kuhn].ravel(), tie_node])[merged]


def _window_pairs(u, lo, hi, N: int):
    """The pairs of :func:`support_pairs`, axis by axis: from offsets u
    (points, t) in cells and each axis's node window [lo, hi], every node
    of the window whose offsets stay within 1 + SUPPORT_SLACK of each
    other, in ascending flat index."""
    # the first axis keeps every node of its window: its offsets are
    # each pair's largest and smallest offset so far
    cand = lo[:, :1] + np.arange(3)
    d = u[:, :1] - cand
    keep = np.flatnonzero(cand <= hi[:, :1])
    point, node = keep // 3, np.take(cand, keep)
    top = bottom = np.take(d, keep)
    for u_k, lo_k, hi_k in zip(u.T[1:], lo.T[1:], hi.T[1:]):
        cand = lo_k[point, None] + np.arange(3)
        d = u_k[point, None] - cand
        d_top = np.maximum(top[:, None], d)
        d_bottom = np.minimum(bottom[:, None], d)
        # flat indices of the kept (pair, candidate) entries, in C order
        keep = np.flatnonzero((cand <= hi_k[point, None])
                              & (d_top - d_bottom <= 1.0 + SUPPORT_SLACK))
        point = point[keep // 3]
        node = np.take(node[:, None] * (N + 1) + cand, keep)
        top, bottom = np.take(d_top, keep), np.take(d_bottom, keep)
    return point, node


def in_simplex(z, n, rho) -> np.ndarray:
    """Whether each point z (k, t), in cells, lies in its simplex (n, rho),
    one cell (t,) or one per point (k, t): the offsets v = z - n in rho
    order make the chain 0 <= v_1 <= ... <= v_t <= 1."""
    d = z - n
    # one cell's columns by plain indexing: a broadcast take_along_axis
    # doubled the time of verify's S0 check
    v = d[:, list(rho)] if np.ndim(rho) == 1 else np.take_along_axis(d, rho, axis=1)
    return ((v[:, 0] >= 0.0) & (v[:, -1] <= 1.0)
            & np.all(np.diff(v, axis=1) >= 0.0, axis=1))


def spike(y: np.ndarray) -> np.ndarray:
    """The spike function: relu of the minimum of the t^2 + t affine forms
    1 + y_k - y_j (k != j), 1 + y_k and 1 - y_k.

    Equals 1 at the origin, vanishes on every other lattice point and
    outside S0, and is linear on each simplex of the unit triangulation.
    Accepts shape (t,) or a batch (..., t).
    """
    pts, single = point_batch(y, ndims=None)
    # The diagonal of the pair table is the constant 1, which never moves
    # the minimum because min(1 + y_k, 1 - y_k) <= 1.
    diffs = 1.0 + pts[..., :, None] - pts[..., None, :]
    m = np.minimum(diffs.min(axis=(-2, -1)),
                   np.minimum((1.0 + pts).min(axis=-1), (1.0 - pts).min(axis=-1)))
    val = np.maximum(m, 0.0)
    return float(val[0]) if single else val


@lru_cache(maxsize=None)
def _pair_rows(t: int):
    """(k, j) of the spike's pair rows on R^t: the ordered pairs k != j in
    lexicographic order, one read-only table per t."""
    k, j = np.nonzero(~np.eye(t, dtype=bool))
    k.flags.writeable = j.flags.writeable = False
    return k, j


def spike_forms(t: int, scale: float = 1.0, center=None):
    """First-layer weights W (t^2 + t, t) and shifts b whose rows
    W @ y + b are the spike's affine forms at scale * (y - center).

    ``center`` is one point (t,), giving shifts (t^2 + t,), or a batch
    (n, t), giving one shift row per centre, (n, t^2 + t); the default is
    the origin.  Row order: ordered pairs (k, j), k != j, lexicographic;
    then the 1 + (.) singles; then the 1 - (.) singles.  For the origin
    the layer has exactly 3t(t-1) + 4t nonzero entries; shift terms can
    cancel some biases for lattice centres, which is reported, never
    forced.  b is :func:`spike_shifts`.
    """
    k, j = _pair_rows(t)
    pairs, singles = np.arange(k.size), np.arange(t)
    W = np.zeros((t * t + t, t))
    W[pairs, k] = scale
    W[pairs, j] = -scale
    W[k.size + singles, singles] = scale
    W[k.size + t + singles, singles] = -scale
    return W, spike_shifts(t, scale, center)


def spike_shifts(t: int, scale: float, center) -> np.ndarray:
    """The shifts of :func:`spike_forms`, with no weight matrix: with
    c = scale * center, 1 - c_k + c_j per pair row, then 1 - c and 1 + c."""
    c = scale * (np.zeros(t) if center is None else np.asarray(center, dtype=float))
    k, j = _pair_rows(t)
    return np.concatenate([1.0 - c[..., k] + c[..., j], 1.0 - c, 1.0 + c],
                          axis=-1)


def spike_layer_shapes(t: int) -> list:
    """(rows, cols) of each layer of the spike block on R^t, the net
    :func:`funcrelu.constructors.build_spike_net` builds: the D = t^2 + t
    forms of :func:`spike_forms`, the minimum network's layers of 2D - 1,
    2D - 3, ..., 3 units, and the final relu unit; t^2 + t + 1 layers."""
    D = t * t + t
    rows = [D, *range(2 * D - 1, 2, -2), 1]
    return list(zip(rows, [t, *rows[:-1]]))


def in_Sprime(y: np.ndarray) -> np.ndarray:
    """Membership in the half-space intersection
    {|y_k| <= 1 for all k, and y_k <= 1 + y_l for all k != l},
    for y of shape (t,) or (..., t)."""
    pts, single = point_batch(y, ndims=None)
    box = np.abs(pts).max(axis=-1) <= 1.0
    pairs = (pts.max(axis=-1) - pts.min(axis=-1)) <= 1.0
    res = box & pairs
    return bool(res[0]) if single else res


def simplices_containing_origin(t: int) -> list:
    """All (n, rho) cells of the unit triangulation having 0 as a vertex.

    These are exactly the cells with n in {-1, 0}^t whose -1 entries are
    trailing in rho order; there are (t + 1) * t! of them (6 for t = 2).
    Enumeration cost grows like t!, intended for t <= 8.
    """
    out = []
    for rho in permutations(range(t)):
        for trailing in range(t + 1):
            n = [0] * t
            for slot in range(t - trailing, t):
                n[rho[slot]] = -1
            out.append(SimplexId(tuple(n), rho))
    return out


def in_S0(y: np.ndarray) -> np.ndarray:
    """Membership in the union of simplices containing the origin (the
    chain of :func:`in_simplex` in some cell); y is (t,) or (n, t)."""
    pts, single = point_batch(y)
    res = np.zeros(pts.shape[0], dtype=bool)
    for sid in simplices_containing_origin(pts.shape[1]):
        res |= in_simplex(pts, np.array(sid.n, dtype=float), sid.rho)
        if res.all():
            break
    return bool(res[0]) if single else res


@dataclass(frozen=True)
class AffineForm:
    """h(y) = coeffs . y + constant."""

    coeffs: tuple
    constant: float

    def __call__(self, y):
        return real_array(y, "points") @ np.array(self.coeffs) + self.constant


def simplex_vertices(simplex: SimplexId) -> np.ndarray:
    """The t + 1 vertices: in rho order, vertex i adds 1 to the last i
    chain slots of n."""
    t = simplex.t
    verts = np.zeros((t + 1, t))
    n = np.array(simplex.n, dtype=float)
    for i in range(t + 1):
        u = n.copy()
        for slot in range(t - i, t):
            u[simplex.rho[slot]] += 1.0
        verts[i] = u
    return verts


def vertex_interpolant(simplex: SimplexId) -> AffineForm:
    """Affine function equal to 1 at the origin and 0 at the other
    vertices of a simplex that has 0 as a vertex.

    Solves the (t+1)-unknown linear system over the vertex set; the
    result always lands on one of the three listed shapes 1 + a*y_l - b*y_k.
    """
    verts = simplex_vertices(simplex)
    origin_rows = np.where(~verts.any(axis=1))[0]
    if origin_rows.size == 0:
        raise ValueError("simplex does not contain the origin as a vertex")
    k = origin_rows[0]
    t = simplex.t
    A = np.hstack([verts, np.ones((t + 1, 1))])
    rhs = np.zeros(t + 1)
    rhs[k] = 1.0
    sol = np.linalg.solve(A, rhs)
    coeffs = np.where(np.abs(sol[:t]) < 1e-12, 0.0, sol[:t])
    const = 0.0 if abs(sol[t]) < 1e-12 else sol[t]
    return AffineForm(tuple(float(c) for c in coeffs), float(const))


CLASSIFY_TOL = 1e-9  # how near 1, -1 or 0 a coefficient must be


def classify_interpolant(form: AffineForm):
    """Match an affine form against the three listed shapes.

    Returns (a, b, l, k) with h(y) = 1 + a*y_l - b*y_k for
    (a, b) in {(1, 0), (1, 1), (-1, 0)}, or None if the form is not of
    that shape.  Index None stands for an absent term.
    """
    if abs(form.constant - 1.0) > CLASSIFY_TOL:
        return None
    c = np.array(form.coeffs)
    pos = np.where(np.abs(c - 1.0) < CLASSIFY_TOL)[0]
    neg = np.where(np.abs(c + 1.0) < CLASSIFY_TOL)[0]
    zero = np.where(np.abs(c) < CLASSIFY_TOL)[0]
    if len(pos) + len(neg) + len(zero) != c.size:
        return None
    if len(pos) == 1 and len(neg) == 0:
        return (1, 0, int(pos[0]), None)
    if len(pos) == 1 and len(neg) == 1:
        return (1, 1, int(pos[0]), int(neg[0]))
    if len(pos) == 0 and len(neg) == 1:
        return (-1, 0, None, int(neg[0]))
    return None

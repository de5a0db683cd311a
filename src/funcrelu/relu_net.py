"""Deep ReLU networks as explicit weight data: evaluation, serialization
and exact nonzero-weight accounting.

A network with J hidden layers computes

    A @ relu(W_J @ relu( ... relu(W_1 @ x + b_1) ... ) + b_J)

where each hidden layer applies its weight matrix, adds the shift vector
and passes the result through relu componentwise.  The output stage is a
plain matrix A with no shift; the scalar case is a 1-row A.  Every
weight matrix is a dense float ndarray.  An interpolation net stores the
layers of one spike block and a grid that repeats it once per node (see
:class:`ReluNetwork`); counts and values are those of the net with every
copy written out.

A net, its layers and its node values are fixed when made.  Assigning a
field of a :class:`Layer` or a :class:`ReluNetwork` raises
``dataclasses.FrozenInstanceError``; ``layers`` is a tuple, so it has no
``append``; and every array the net keeps is read-only, the caller's
array it came from too where they share memory, so a write to one
raises numpy's read-only ValueError.  Nets may therefore share layers.

:func:`forward` runs every net through one pass over (point, copy)
pairs: one per point without a grid, else the point's candidate copies,
the vertices of its simplex (at most 2^(t+1) - 1).  Each layer
multiplies by its index form, :attr:`Layer.form` (each row's nonzero
columns and weights, numpy only, no BLAS), made once per layer, so nets
that share a block's layers share their forms.  The layers of a run of
pairs share one buffer, in which the rows a layer only copies stay
where its input has them (see :func:`_index_layer`).  The output stage adds
each point's terms in ascending column order from 0.0, so no value
follows the point chunks or the BLAS thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .simplicial import (ScaledGrid, integer_size, point_batch, read_only,
                         real_array, spike_layer_shapes, spike_shifts,
                         support_pairs)

# the version written; versions 1 (a net without a grid) and 2 (a grid
# net), both all dense, are still read
FORMAT_VERSION = 3

# The most entries of one written matrix, and of one matrix a document
# declares by its nonzeros: layers are dense in memory, so a short
# document must not make the reader allocate a huge one.
SERIALIZE_ENTRY_LIMIT = 50_000_000


class NetworkFormatError(ValueError):
    """Raised when a serialized network cannot be parsed."""


def _as_matrix(w) -> np.ndarray:
    """``w`` as a dense float matrix, a vector as one row.  Anything but
    an array of bool, integer or float values (a sparse matrix, a ragged
    list or a complex array among them), or one of more than two axes,
    raises ValueError."""
    try:
        a = np.atleast_2d(real_array(w, "its values"))
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"weights must be a numeric array, got {type(w).__name__}: {exc}") from exc
    if a.ndim != 2:
        raise ValueError(f"weights must be a 2-D array, got shape {a.shape}")
    return a


def _check_finite(w, what):
    if w.size and not np.all(np.isfinite(w)):
        raise ValueError(f"non-finite entries in {what}")


@dataclass(frozen=True, eq=False)
class Layer:
    """One hidden layer, relu(W @ h + b), with read-only weights (r, c)
    and shifts (r,) (see :func:`funcrelu.simplicial.read_only`).

    In a grid net (see :class:`ReluNetwork`) the layer is the block that
    every grid node repeats, and ``rows`` and ``cols`` are the block's own.
    """

    weights: np.ndarray
    shifts: np.ndarray

    def __post_init__(self):
        w = _as_matrix(self.weights)
        b = real_array(self.shifts, "layer shifts").ravel()
        if b.shape[0] != w.shape[0]:
            raise ValueError(f"layer has {w.shape[0]} rows but {b.shape[0]} shifts")
        _check_finite(w, "layer weights")
        _check_finite(b, "layer shifts")
        object.__setattr__(self, "weights", read_only(w, self.weights))
        object.__setattr__(self, "shifts", read_only(b, self.shifts))

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]

    @cached_property
    def nnz(self) -> tuple:
        """Nonzero (weights, shifts), counted on first use: the arrays are
        read-only, so nets that share the layer count it once."""
        return _nnz(self.weights), _nnz(self.shifts)

    @cached_property
    def form(self) -> _IndexForm:
        """The index form :func:`forward` multiplies by, written from
        ``np.nonzero`` of the dense weights on first use.  A spike block
        has a few thousand nonzeros at most, so the runs are read from
        Python lists of them.

        ``relu`` names the runs that hold a weight or a shift below zero.
        On the output of a relu layer the other runs add nonnegative terms,
        so relu would leave them as they are (a zero may differ in sign
        only), and the pass applies relu to the named runs alone.

        ``kept`` is the longest run that copies input rows unchanged, row
        r from input row r + cols - rows, with weight 1.0, no shift and no
        relu: the carried units of the minimum network.  Forward's buffer
        ends every layer's rows at one buffer row, so those rows are
        already in place (see :func:`_index_layer`)."""
        w, b = self.weights, self.shifts
        row, col = np.nonzero(w)
        values, cols = w[row, col].tolist(), col.tolist()
        count = np.bincount(row, minlength=w.shape[0])
        # each run's first row, then the end: a layer of no rows has no run
        edges = sorted({0, *(np.flatnonzero(np.diff(count)) + 1).tolist(), w.shape[0]})
        count, shifts = count.tolist(), b.tolist()
        runs, relu = [], []
        at = 0  # the run's first nonzero
        for lo, hi in zip(edges[:-1], edges[1:]):
            k = count[lo]
            end = at + k * (hi - lo)
            # row-major nonzeros: the run's i-th terms are every k-th one
            runs.append((slice(lo, hi), tuple(_term(cols[at + i : end : k],
                                                    values[at + i : end : k])
                                              for i in range(k))))
            if min(values[at:end], default=0.0) < 0.0 or min(shifts[lo:hi]) < 0.0:
                relu.append(slice(lo, hi))
            at = end
        # the longest run whose row r is input row r + cols - rows, unchanged
        rows, shift = w.shape[0], w.shape[1] - w.shape[0]
        copies = [(r.stop - r.start, j) for j, (r, terms) in enumerate(runs)
                  if len(terms) == 1 and terms[0][1] is None
                  and isinstance(terms[0][0], slice)
                  and terms[0][0] == slice(r.start + shift, r.stop + shift)
                  and not any(shifts[r]) and r not in relu]
        kept = runs.pop(max(copies)[1])[0] if copies else None
        parts = ((slice(0, rows),) if kept is None else
                 tuple(p for p in (slice(0, kept.start), slice(kept.stop, rows))
                       if p.start < p.stop))
        return _IndexForm(rows, w.shape[1], tuple(runs),
                          b[:, None] if any(shifts) else None, tuple(relu),
                          kept, parts)


@dataclass(frozen=True, eq=False)
class ReluNetwork:
    """Feedforward ReLU network, fixed when made (see the module
    docstring): assigning a field raises
    ``dataclasses.FrozenInstanceError``, ``layers`` is a tuple of
    :class:`Layer`, and a write to ``output`` raises ValueError.  Layers
    given as (weights, shifts) pairs are made into :class:`Layer` objects.

    ``output`` is a matrix, one row per network value; scalar networks
    have a single output row.

    ``grid`` is set only by
    :func:`funcrelu.constructors.build_interpolation_net` (and so by
    :func:`deserialize`).  It states that the layers are one block of the
    spike at the origin and that the net holds ``grid.node_count`` copies
    of it, one output column each: the first layer's copies stack on the
    shared input, the others go block diagonal.  Copy i is that spike moved to grid node i: its first-layer
    shifts are those of :func:`funcrelu.simplicial.spike_forms` centred at
    node i, computed where they are read.  :func:`forward` then evaluates
    only the copies whose spike can be nonzero at each point.  A grid
    net's layers must have the shapes
    :func:`funcrelu.simplicial.spike_layer_shapes` gives, or a ValueError
    names the count or the first layer that differs.
    """

    input_dim: int
    layers: tuple = ()
    output: object = None
    grid: Optional[ScaledGrid] = None

    def __post_init__(self):
        # from a list, so the tuple is made once at its size: tuple() of a
        # generator grows it by reallocation, which fragments the
        # small-object heap and raised the benchmark's peak memory
        object.__setattr__(self, "layers", tuple(
            [l if isinstance(l, Layer) else Layer(*l) for l in self.layers]))
        output = _as_matrix(self.output)
        _check_finite(output, "output weights")
        object.__setattr__(self, "input_dim", integer_size(self.input_dim, "input_dim"))
        if self.grid is not None:
            t = self.grid.t
            # the count first, so a huge t makes no list of shapes
            if len(self.layers) != t * t + t + 1:
                raise ValueError(f"a grid net has {len(self.layers)} layers; the "
                                 f"spike block on R^{t} has {t * t + t + 1}")
            for j, (l, shape) in enumerate(zip(self.layers, spike_layer_shapes(t))):
                if l.weights.shape != shape:
                    raise ValueError(f"layer {j} has shape {l.weights.shape}; the "
                                     f"spike block on R^{t} needs {shape}")
        prev = self.input_dim
        for j, layer in enumerate(self.layers):
            if layer.cols != prev:
                raise ValueError(
                    f"layer {j} expects {layer.cols} inputs, got {prev}"
                )
            prev = layer.rows
        if output.shape[1] != _copies(self) * prev:
            got = prev if self.grid is None else (
                f"{prev} x {self.grid.node_count} grid nodes")
            raise ValueError(
                f"output expects {output.shape[1]} inputs, got {got}")
        object.__setattr__(self, "output", read_only(output, self.output))

    @property
    def output_dim(self) -> int:
        return self.output.shape[0]


def _copies(net: ReluNetwork) -> int:
    """How many times the net repeats its stored layers: once per grid
    node, or once without a grid."""
    return 1 if net.grid is None else net.grid.node_count


def depth(net: ReluNetwork) -> int:
    """Number of hidden layers."""
    return len(net.layers)


def _nnz(w) -> int:
    return int(np.count_nonzero(w))


# The most grid nodes whose first-layer shifts (here) are computed at
# once, and the most sums mu holds at once (funcrelu.pipeline: a run of
# _NODE_RUN // r nodes or vectors, r sums each).  It bounds memory only:
# no value follows it.
_NODE_RUN = 1 << 14


def _grid_shifts(grid: ScaledGrid, node) -> np.ndarray:
    """First-layer shifts (len(node), t^2 + t) of the spike copies of the
    grid nodes with flat indices ``node``."""
    return spike_shifts(grid.t, 1.0 / grid.h, grid.nodes(node))


def _shift_nnz(grid: ScaledGrid) -> int:
    """Nonzero first-layer shifts over every spike copy of the grid,
    counted from per-axis tables.

    A single row's shift, 1 - c_k or 1 + c_k, depends on the node's k-th
    axis index alone, and a pair row's, 1 - c_k + c_j, on its k-th and j-th;
    the other indices only repeat it.  The copies of the 1-axis grid of the
    same R and N hold every single-row value, and pair row (0, 1) of the
    2-axis grid's copies every pair-row value.  :func:`_grid_shifts`
    computes them entry by entry with the copies' own float operations, so
    the count is exact.  Both tables are read in node runs, so a long axis
    costs no more memory than one run.
    """
    def nnz(sub: ScaledGrid, column) -> int:
        n = sub.node_count
        return sum(_nnz(_grid_shifts(sub, np.arange(lo, min(lo + _NODE_RUN, n)))[:, column])
                   for lo in range(0, n, _NODE_RUN))

    t, n1 = grid.t, grid.N + 1
    count = t * nnz(ScaledGrid(1, grid.R, grid.N), slice(None)) * n1 ** (t - 1)
    if t > 1:
        pairs = nnz(ScaledGrid(2, grid.R, grid.N), 0)
        count += t * (t - 1) * pairs * n1 ** (t - 2)
    return count


def _layer_nnz(net: ReluNetwork) -> list:
    """Nonzero (weights, shifts) of each expanded layer, from each stored
    layer's cached :attr:`Layer.nnz`; a grid net's first-layer shifts are
    counted by :func:`_shift_nnz`."""
    n = _copies(net)
    counts = [(n * l.nnz[0], n * l.nnz[1]) for l in net.layers]
    if net.grid is not None:
        counts[0] = (counts[0][0], _shift_nnz(net.grid))
    return counts


def count_nonzero(net: ReluNetwork) -> int:
    """Total count of strictly nonzero entries over all weight matrices,
    shift vectors and the output matrix.  Entries that happen to come out
    exactly zero during construction are not counted."""
    return nonzero_breakdown(net)["total"]


def nonzero_breakdown(net: ReluNetwork) -> dict:
    """Per-component nonzero counts alongside the headline total."""
    per_layer = [dict(zip(("weights", "shifts"), c)) for c in _layer_nnz(net)]
    parts = {"weights": sum(p["weights"] for p in per_layer),
             "shifts": sum(p["shifts"] for p in per_layer),
             "output": _nnz(net.output)}
    return {"total": sum(parts.values()), **parts, "per_layer": per_layer}


# (point, copy) pairs per run of forward's pass
_PAIR_RUN = 4096

_BATCH_BYTES = 1 << 29  # one chunk's working set in forward


def _chunk_points(net: ReluNetwork) -> int:
    """Points per chunk so that a chunk's working set stays below
    ``_BATCH_BYTES`` of 8-byte entries.  Per (point, copy) pair the pass
    holds every unit of the widest layer, and then six entries per
    last-layer unit: the unit, its point and column indices, its output
    coefficient and the term (:func:`_output_stage`), beside the last
    run's activations.  A point has one pair without a grid and at most
    2^(t+1) - 1 with one (:func:`funcrelu.simplicial.support_pairs`), so
    a grid net's chunks follow its pairs, not its copies."""
    rows = [l.rows for l in net.layers] or [net.input_dim]
    # one entry at least: a net whose layers have no units runs too
    width = max(1, *rows, 6 * rows[-1])
    pairs = 1 if net.grid is None else 2 ** (net.grid.t + 1) - 1
    return max(1, int(_BATCH_BYTES // (8 * width * pairs)))


def _output_stage(output, point, copy, value, points: int) -> np.ndarray:
    """The output stage over the last-layer values ``value`` (pairs,
    units) of (point, copy) pairs: (points, output_dim), where row r at
    each point adds the terms ``output[r, copy * units + unit] * value``
    of that point's pairs in their order, each pair's units in ascending
    order, starting from 0.0 (``np.bincount``).  The pass gives each
    point's pairs in ascending copy order, so each point's sum adds its
    terms in ascending column order, whatever the chunks."""
    units = value.shape[1]
    if units != 1:
        point = point.repeat(units)
        copy = (copy[:, None] * units + np.arange(units)).ravel()
    value = value.ravel()
    res = np.empty((points, output.shape[0]))
    for r in range(output.shape[0]):
        res[:, r] = np.bincount(point, weights=output[r, copy] * value,
                                minlength=points)
    return res


class _IndexForm(NamedTuple):
    """A layer as forward's pass multiplies by it, in numpy arrays
    only: its rows in runs of consecutive rows with one nonzero count, and
    per run one term per nonzero, the run's k-th nonzeros in ascending
    column order.  A term is (src, scale): the rows of the input it reads,
    a slice where they are consecutive, and its weights, None where all
    are 1.0, -1.0 where all are -1.0, else a (rows, 1) array.  The run
    ``kept`` is not in ``runs``: its row r is input row r + cols - rows."""

    rows: int
    cols: int
    runs: tuple  # (slice of rows, terms)
    shifts: Optional[np.ndarray]  # (rows, 1), or None where all are zero
    relu: tuple  # slices of rows that relu can change
    kept: Optional[slice]  # rows that copy input rows unchanged, or None
    parts: tuple  # slices of the rows outside kept, in order


def _term(cols: list, weights: list) -> tuple:
    lo = cols[0]
    src = (slice(lo, lo + len(cols)) if cols == list(range(lo, lo + len(cols)))
           else np.array(cols))
    if weights.count(1.0) == len(weights):
        return src, None
    if weights.count(-1.0) == len(weights):
        return src, -1.0
    return src, np.array(weights)[:, None]


def _run_products(runs: tuple, h: np.ndarray, out: np.ndarray):
    """Rows of W @ h into ``out``, run by run (see :func:`_index_product`)."""
    for rows, terms in runs:
        o = out[rows]
        if not terms:
            o.fill(0.0)
            continue
        src, scale = terms[0]
        x = h[src] if isinstance(src, slice) else np.take(h, src, axis=0, out=o)
        if scale is None:
            if x is not o:
                np.copyto(o, x)
        elif isinstance(scale, float):
            np.negative(x, out=o)
        else:
            np.multiply(x, scale, out=o)
        for src, scale in terms[1:]:
            if scale is None:
                o += h[src]
            elif isinstance(scale, float):
                o -= h[src]
            else:
                o += h[src] * scale


def _index_product(form: _IndexForm, h: np.ndarray, out=None) -> np.ndarray:
    """W @ h for the layer of ``form``, h (cols, pairs), into ``out`` if
    given: each row adds its terms in ascending column order, one rounding
    per add, as ``csr_matrix @ h`` does.  It starts from the first term,
    not from 0.0, so a row whose sum is zero may differ from that product
    in the sign of the zero only.  No BLAS call."""
    out = np.empty((form.rows, h.shape[1])) if out is None else out
    _run_products(form.runs, h, out)
    if form.kept is not None:
        shift = form.cols - form.rows
        np.copyto(out[form.kept], h[form.kept.start + shift : form.kept.stop + shift])
    return out


def _index_layer(form: _IndexForm, buf: np.ndarray, spare: np.ndarray) -> tuple:
    """relu(W @ h + b) for the layer of ``form`` in forward's buffers:
    h, the output of a relu layer, is the last ``form.cols`` rows of
    ``buf``, and the result goes to the last ``form.rows`` rows of the
    returned (buffer, spare) pair's buffer; equal to it computed with
    ``csr_matrix @ h`` up to the sign of a zero.  Both arrays have the
    same shape.  Ending both layers at one row leaves the kept rows where
    the input has them; the others are computed in ``spare`` and copied
    in.  A layer without kept rows is computed in ``spare`` whole, which
    becomes the buffer."""
    end = buf.shape[0]
    top = end - form.rows
    out = spare[top:]
    _run_products(form.runs, buf[end - form.cols :], out)
    if form.shifts is not None:
        for part in form.parts:
            out[part] += form.shifts[part]
    for rows in form.relu:
        o = out[rows]
        np.maximum(o, 0.0, out=o)
    if form.kept is None:
        return spare, buf
    for part in form.parts:
        buf[top + part.start : top + part.stop] = out[part]
    return buf, spare


def _forward_pairs(net: ReluNetwork, pts: np.ndarray) -> np.ndarray:
    """The values (n, output_dim) of ``net`` at ``pts`` (n, input_dim):
    its stored layers run over the (point, copy) pairs, copy 0 of each
    point without a grid, else the candidate copies of
    :func:`funcrelu.simplicial.support_pairs` in ascending node order.
    The first layer adds each pair's shifts (a grid copy's from
    :func:`_grid_shifts`) and applies relu to every unit; each deeper
    layer is :func:`_index_layer`.  It keeps the last-layer values of
    each pair, never an array over the grid's copies, in chunks of a
    bounded number of pairs (:func:`_chunk_points`).

    The result is that of every copy written out as CSR layers and run
    in full, bit for bit.  Each index product equals the CSR product up
    to the sign of a zero, which gives a +-0 term; a grid copy left out
    has a negative first-layer form at the point, so the minimum
    recursion gives it an exact 0 and its term an exact +-0; and a sum
    that starts from 0.0 never becomes -0.0, so adding such a term
    leaves it as it is.
    """
    forms = [l.form for l in net.layers]
    units = net.layers[-1].rows if net.layers else net.input_dim
    rows = max((f.rows for f in forms), default=0)
    chunk = _chunk_points(net)
    outs = [np.empty((0, net.output_dim))]  # an empty batch has no chunk
    for lo in range(0, pts.shape[0], chunk):
        part = pts[lo : lo + chunk]
        point, copy = (support_pairs(part, net.grid) if net.grid is not None
                       else (np.arange(len(part)), np.zeros(len(part), np.intp)))
        value = np.empty((point.shape[0], units))
        # pairs are independent columns; short runs of them keep each
        # layer's activations in cache
        for a in range(0, point.shape[0], _PAIR_RUN):
            p, c = point[a : a + _PAIR_RUN], copy[a : a + _PAIR_RUN]
            if not forms:  # a net of no layers outputs its input
                value[a : a + _PAIR_RUN] = part[p]
                continue
            # the layer buffer and, for deeper layers, its spare
            bufs = np.empty((2 if len(forms) > 1 else 1, rows, p.shape[0]))
            buf, spare = bufs[0], bufs[-1]
            h = _index_product(forms[0], part[p].T, buf[rows - forms[0].rows :])
            h += (net.layers[0].shifts[:, None] if net.grid is None
                  else _grid_shifts(net.grid, c).T)
            np.maximum(h, 0.0, out=h)
            for form in forms[1:]:
                buf, spare = _index_layer(form, buf, spare)
            value[a : a + _PAIR_RUN] = buf[rows - units :].T
        outs.append(_output_stage(net.output, point, copy, value, part.shape[0]))
    return np.vstack(outs)


def forward(net: ReluNetwork, x: np.ndarray) -> np.ndarray:
    """All output rows for a batch of inputs.

    ``x`` is one point of shape (input_dim,) or a batch (n, input_dim);
    returns (output_dim,) or (n, output_dim).  Every net runs one pass,
    :func:`_forward_pairs`, with no BLAS call, so a point's value does not
    depend on its batch; an interpolation net (``net.grid`` set) runs
    only the spike copies whose support holds each point, with the same
    result as running all of them.  A chunk's working set stays below
    ``_BATCH_BYTES``, 512 MiB (see :func:`_chunk_points`).  An empty
    batch gives (0, output_dim).  Any other shape of ``x``, non-finite
    inputs, and finite ones whose value overflows float64, raise
    ValueError.
    """
    pts, single = point_batch(x, net.input_dim)
    # an overflow shows as inf or nan in the result, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        res = _forward_pairs(net, pts)
    if not np.all(np.isfinite(res)):
        raise ValueError(
            "network value overflows float64 at a finite input point")
    return res[0] if single else res


def evaluate(net: ReluNetwork, x: np.ndarray) -> float:
    """Scalar network value at one point (input_dim,); requires a single
    output row (see :func:`evaluate_batch`)."""
    pts, _ = point_batch(x, net.input_dim, (1,))
    return float(evaluate_batch(net, pts)[0])


def evaluate_batch(net: ReluNetwork, x: np.ndarray) -> np.ndarray:
    """Scalar values for a batch (n, input_dim) -> (n,)."""
    if net.output_dim != 1:
        raise ValueError("scalar values need a single output row; use forward")
    pts, _ = point_batch(x, net.input_dim, (2,))
    return forward(net, pts)[:, 0]


# written values joined into one string at a time
_VALUE_RUN = 1 << 14


def _json_list(a: np.ndarray) -> list:
    """Pieces of the JSON list of the 1-D array ``a`` of floats or
    integers: joined, the text ``json.dumps(a.tolist())`` writes (floats
    by repr, so every bit round-trips).  Each piece joins the strings of
    ``_VALUE_RUN`` entries, so only one run's strings exist at a time."""
    runs = [", ".join(map(repr, a[lo : lo + _VALUE_RUN].tolist()))
            for lo in range(0, a.size, _VALUE_RUN)]
    return ["[", ", ".join(runs), "]"]


def _entries(where: str, key: str, w) -> list:
    """Pieces of ``"<key>": [...]``, the entries of ``w`` in row-major
    order.  Where leaving out the entries with the bits of +0.0 makes the
    text shorter, only the others are listed (-0.0 among them), and
    ``, "<key>_at": [...]`` follows: their flat indices; on a tie the
    array is written dense.  An array above ``SERIALIZE_ENTRY_LIMIT``
    entries, a shift vector too, raises ValueError."""
    if w.size > SERIALIZE_ENTRY_LIMIT:
        raise ValueError(f"{where} {key} with shape {w.shape} is too large for the "
                         f"file format: more than {SERIALIZE_ENTRY_LIMIT} entries")
    a = np.asarray(w, dtype=float).ravel()
    at = np.flatnonzero(a.view(np.int64))
    # Both texts list the k entries other than +0.0.  Dense adds the
    # "0.0" of each of the n - k others and n - 1 ", " in all, 5n - 3k - 2
    # characters; by index adds the index list, its key, brackets and
    # digits, and k - 1 ", " in each of its two lists.
    digits = at.size + sum(at.size - int(np.searchsorted(at, 10 ** d))
                           for d in range(1, len(str(a.size))))
    if len(f', "{key}_at": []') + digits + 4 * max(at.size - 1, 0) >= 5 * a.size - 3 * at.size - 2:
        return [f'"{key}": ', *_json_list(a)]
    return [f'"{key}": ', *_json_list(a[at]), f', "{key}_at": ', *_json_list(at)]


def serialize(net: ReluNetwork) -> bytes:
    """JSON encoding with full round-trip precision, format version 3.

    Floats are written with Python repr, which is exact for binary64, so
    deserialize(serialize(net)) reproduces every weight bit for bit.  The
    document holds each stored layer's weights and shifts and the output
    matrix, each row-major, and a grid net's ``"grid": {"t", "R", "N"}``:
    a grid net is its stored layers (one spike block) and its output row
    of node values, no copy written out.  An array is written by its
    entries other than +0.0 and their flat indices where that text is
    shorter than its dense text, else dense (:func:`_entries`), so the
    document follows the nonzeros.  An array above
    ``SERIALIZE_ENTRY_LIMIT`` entries is refused with ValueError.
    The bytes are those ``json.dumps`` writes for the document, keys in
    the order below; a net with no +0.0 entry gets the text of versions 1
    and 2 but for the version number.
    """
    parts = [f'{{"version": {FORMAT_VERSION}, "input_dim": {net.input_dim}, '
             '"layers": [']
    for j, l in enumerate(net.layers):
        parts.append(f'{", " if j else ""}{{"rows": {l.rows}, "cols": {l.cols}, ')
        parts += _entries(f"layer {j}", "weights", l.weights)
        parts.append(", ")
        parts += _entries(f"layer {j}", "shifts", l.shifts)
        parts.append("}")
    rows, cols = net.output.shape
    parts.append(f'], "output": {{"rows": {rows}, "cols": {cols}, ')
    parts += _entries("output", "weights", net.output)
    parts.append("}")
    if net.grid is not None:
        parts.append(f', "grid": {{"t": {net.grid.t}, "R": {net.grid.R!r}, "N": {net.grid.N}}}')
    parts.append("}")
    return "".join(parts).encode("utf-8")


def _require(doc, key, where):
    if not isinstance(doc, dict):
        raise NetworkFormatError(f"{where} must be a JSON object")
    if key not in doc:
        raise NetworkFormatError(f"missing '{key}' in {where}")
    return doc[key]


def _size(doc, key, where) -> int:
    value = _require(doc, key, where)
    if type(value) is not int or value < 0:
        raise NetworkFormatError(
            f"'{key}' in {where} must be a non-negative integer, got {value!r}")
    return value


def _numbers(doc, key, where, count, kind=float) -> np.ndarray:
    """The list ``doc[key]`` as an array of ``kind``: finite numbers
    (JSON integers among them), or integers for ``kind=int``.  With a
    ``count``, the list must have that many entries."""
    values = _require(doc, key, where)
    if not (isinstance(values, list)
            and set(map(type, values)) <= {int, kind}):
        raise NetworkFormatError(f"{where} {key} must be a list of "
                                 f"{'numbers' if kind is float else 'integers'}")
    if count is not None and len(values) != count:
        raise NetworkFormatError(
            f"{where} {key} has {len(values)} entries, expected {count}")
    try:
        # two calls, so that the float cast shows to the cast check of
        # tests/test_pytest_config.py
        arr = np.array(values, dtype=float) if kind is float else np.array(values, dtype=int)
    except OverflowError as exc:
        raise NetworkFormatError(f"{where} {key}: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise NetworkFormatError(f"non-finite entries in {where} {key}")
    return arr


def _array(doc, key, where, count, by_index) -> np.ndarray:
    """The ``count`` entries of the array ``doc[key]``.  With
    ``by_index`` (a version-3 document) and a ``"<key>_at"`` list, that
    list gives the flat indices of the listed values, rising strictly
    within [0, count), and every other entry is +0.0.  Such an array of
    more than ``SERIALIZE_ENTRY_LIMIT`` entries is refused before
    anything is allocated: a short document cannot declare a huge one.
    Any other form raises :class:`NetworkFormatError` naming the field."""
    if not (by_index and f"{key}_at" in doc):
        return _numbers(doc, key, where, count)
    if count > SERIALIZE_ENTRY_LIMIT:
        raise NetworkFormatError(f"{where} {key}_at: {count} entries, above the file "
                                 f"format's limit of {SERIALIZE_ENTRY_LIMIT}")
    values = _numbers(doc, key, where, None)
    at = _numbers(doc, f"{key}_at", where, values.size, int)
    if at.size and not (at[0] >= 0 and at[-1] < count and np.all(at[1:] > at[:-1])):
        raise NetworkFormatError(f"{where} {key}_at must rise strictly within [0, {count})")
    full = np.zeros(count)
    full[at] = values
    return full


def _matrix(doc, where, by_index) -> np.ndarray:
    rows = _size(doc, "rows", where)
    cols = _size(doc, "cols", where)
    values = _array(doc, "weights", where, rows * cols, by_index)
    try:
        return values.reshape(rows, cols)
    except ValueError as exc:  # a dimension beyond what numpy can index
        raise NetworkFormatError(f"{where} shape ({rows}, {cols}): {exc}") from exc


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def _grid_net(doc_net: ReluNetwork) -> ReluNetwork:
    """The interpolation net of a document with a grid: the grid's
    :func:`funcrelu.constructors.build_interpolation_net` with the output
    row as node values, built from the process's block of that t
    (:func:`funcrelu.constructors.shared_block`).  ``doc_net``, the
    document's own net, must have one output row and that net's block
    bit for bit: a pass over candidate copies is exact only for a spike
    block."""
    # constructors imports this module
    from .constructors import InterpolationSpec, build_interpolation_net, shared_block

    out, grid = doc_net.output, doc_net.grid
    if out.shape[0] != 1:
        raise ValueError(f"output has {out.shape[0]} rows; the grid's node "
                         "values are one row")
    net = build_interpolation_net(InterpolationSpec(grid, out.ravel()), shared_block(grid.t))
    for j, (mine, theirs) in enumerate(zip(net.layers, doc_net.layers)):
        if not (_same_bits(mine.weights, theirs.weights)
                and _same_bits(mine.shifts, theirs.shifts)):
            raise ValueError(f"layer {j} is not the spike block of the grid {grid}")
    return net


def deserialize(raw: bytes) -> ReluNetwork:
    """Network from :func:`serialize` output.  Version 3 is read with its
    ``_at`` lists and its grid, if it has one; versions 1 and 2, written
    before it and dense throughout, are read as they always were, and a
    version-2 document must have a grid.  A document with a grid gives a
    net with its grid.  Any malformed document raises
    :class:`NetworkFormatError`."""
    try:
        doc = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (ValueError, TypeError, RecursionError) as exc:
        raise NetworkFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NetworkFormatError("top-level JSON object expected")
    version = _require(doc, "version", "network")
    if type(version) is not int or version not in (1, 2, FORMAT_VERSION):
        raise NetworkFormatError(f"unsupported format version {version!r}")
    by_index = version == FORMAT_VERSION
    input_dim = _size(doc, "input_dim", "network")
    ldocs = _require(doc, "layers", "network")
    if not isinstance(ldocs, list):
        raise NetworkFormatError("'layers' must be a list")
    layers = []
    for j, ldoc in enumerate(ldocs):
        weights = _matrix(ldoc, f"layer {j}", by_index)
        layers.append(Layer(weights, _array(ldoc, "shifts", f"layer {j}",
                                            weights.shape[0], by_index)))
    out = _matrix(_require(doc, "output", "network"), "output", by_index)
    has_grid = version == 2 or (by_index and "grid" in doc)
    if has_grid:
        gdoc = _require(doc, "grid", "network")
        t_R_N = [_require(gdoc, key, "grid") for key in ("t", "R", "N")]
    try:
        if not has_grid:
            return ReluNetwork(input_dim, layers, out)
        # ReluNetwork checks the layer count before it lists t^2 + t + 1
        # shapes, so the document's size bounds what t makes
        return _grid_net(ReluNetwork(input_dim, layers, out, grid=ScaledGrid(*t_R_N)))
    except ValueError as exc:
        raise NetworkFormatError(str(exc)) from exc

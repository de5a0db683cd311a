"""Deep ReLU networks as explicit weight data: evaluation, composition,
serialization and exact nonzero-weight accounting.

A network with J hidden layers computes

    A @ relu(W_J @ relu( ... relu(W_1 @ x + b_1) ... ) + b_J)

where each hidden layer applies its weight matrix, adds the shift vector
and passes the result through relu componentwise.  The output stage is a
plain matrix A with no shift; the scalar case is a 1-row A.  Weight
matrices may be dense ndarrays or scipy CSR matrices; sparsity is an
internal storage choice, never part of the contract.  An interpolation
net stores the layers of one spike block and a grid that repeats it once
per node (see :class:`ReluNetwork`); counts and values are those of the
expanded net, which :func:`expand_blocks` writes out.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .simplicial import ScaledGrid, spike_forms, support_pairs

FORMAT_VERSION = 1

# Refuse to densify absurdly large layers when writing the JSON format,
# which stores row-major dense weights.
SERIALIZE_ENTRY_LIMIT = 50_000_000


class NetworkFormatError(ValueError):
    """Raised when a serialized network cannot be parsed."""


def _as_matrix(w):
    if sp.issparse(w):
        return w.tocsr()
    return np.atleast_2d(np.asarray(w, dtype=float))


def _check_finite(w, what):
    data = w.data if sp.issparse(w) else w
    if data.size and not np.all(np.isfinite(data)):
        raise ValueError(f"non-finite entries in {what}")


@dataclass
class Layer:
    """One hidden layer, relu(W @ h + b).

    In a grid net (see :class:`ReluNetwork`) the layer is the block that
    every grid node repeats, and ``rows`` and ``cols`` are the block's own.
    """

    weights: object  # (r, c) ndarray or CSR matrix
    shifts: np.ndarray  # (r,)

    def __post_init__(self):
        self.weights = _as_matrix(self.weights)
        self.shifts = np.asarray(self.shifts, dtype=float).ravel()
        if self.shifts.shape[0] != self.weights.shape[0]:
            raise ValueError(
                f"layer has {self.weights.shape[0]} rows but "
                f"{self.shifts.shape[0]} shifts"
            )
        _check_finite(self.weights, "layer weights")
        _check_finite(self.shifts, "layer shifts")

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]


@dataclass
class ReluNetwork:
    """Immutable feedforward ReLU network.

    ``output`` is a matrix so that intermediate construction stages can
    carry several values; scalar networks have a single output row.

    ``grid`` is set only by
    :func:`funcrelu.constructors.build_interpolation_net`.  It states that
    the layers are one block of the spike at the origin and that the net
    holds ``grid.node_count`` copies of it, one output column each: the
    first layer's copies stack on the shared input, the others go block
    diagonal.  Copy i is that spike moved to grid node i: its first-layer
    shifts are those of :func:`funcrelu.simplicial.spike_forms` centred at
    node i, computed where they are read.  :func:`forward` then evaluates
    only the copies whose spike can be nonzero at each point.
    """

    input_dim: int
    layers: list = field(default_factory=list)
    output: object = None
    grid: Optional[ScaledGrid] = None

    def __post_init__(self):
        self.layers = [
            l if isinstance(l, Layer) else Layer(*l) for l in self.layers
        ]
        self.output = _as_matrix(self.output)
        _check_finite(self.output, "output weights")
        if (isinstance(self.input_dim, bool)
                or not isinstance(self.input_dim, (int, np.integer))):
            raise ValueError(
                f"input_dim must be an integer, got {self.input_dim!r}")
        self.input_dim = int(self.input_dim)
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        prev = self.input_dim
        for j, layer in enumerate(self.layers):
            if layer.cols != prev:
                raise ValueError(
                    f"layer {j} expects {layer.cols} inputs, got {prev}"
                )
            prev = layer.rows
        if self.grid is not None:
            t = self.grid.t
            if not (t == self.input_dim and self.layers
                    and self.layers[0].rows == t * t + t and prev == 1):
                raise ValueError(
                    f"layers are not one spike block on R^{t}, with "
                    f"{t * t + t} first-layer rows and one output unit")
        if self.output.shape[1] != _copies(self) * prev:
            got = prev if self.grid is None else (
                f"{prev} x {self.grid.node_count} grid nodes")
            raise ValueError(
                f"output expects {self.output.shape[1]} inputs, got {got}")

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
    if sp.issparse(w):
        return int(np.count_nonzero(w.data))
    return int(np.count_nonzero(w))


# grid nodes whose first-layer shifts are computed at once
_NODE_RUN = 1 << 14


def _grid_shifts(grid: ScaledGrid, node) -> np.ndarray:
    """First-layer shifts (len(node), t^2 + t) of the spike copies of the
    grid nodes with flat indices ``node``."""
    return spike_forms(grid.t, 1.0 / grid.h, grid.nodes(node))[1]


def _layer_nnz(net: ReluNetwork) -> list:
    """Nonzero (weights, shifts) of each expanded layer; a grid net's
    first-layer shifts are counted over node runs."""
    n = _copies(net)
    counts = [(n * _nnz(l.weights), n * _nnz(l.shifts)) for l in net.layers]
    if net.grid is not None:
        runs = (np.arange(lo, min(lo + _NODE_RUN, n))
                for lo in range(0, n, _NODE_RUN))
        counts[0] = (counts[0][0],
                     sum(_nnz(_grid_shifts(net.grid, r)) for r in runs))
    return counts


def count_nonzero(net: ReluNetwork) -> int:
    """Total count of strictly nonzero entries over all weight matrices,
    shift vectors and the output matrix.  Entries that happen to come out
    exactly zero during construction are not counted."""
    return _nnz(net.output) + sum(map(sum, _layer_nnz(net)))


def nonzero_breakdown(net: ReluNetwork) -> dict:
    """Per-component nonzero counts alongside the headline total."""
    per_layer = [dict(zip(("weights", "shifts"), c)) for c in _layer_nnz(net)]
    parts = {"weights": sum(p["weights"] for p in per_layer),
             "shifts": sum(p["shifts"] for p in per_layer),
             "output": _nnz(net.output)}
    return {"total": sum(parts.values()), **parts, "per_layer": per_layer}


def _repeat_block(w, n: int, stacked: bool):
    """CSR matrix of n copies of the block ``w``: stacked on one input, or
    else block diagonal."""
    block = sp.csr_matrix(w)
    rows, c = block.shape
    cols = c if stacked else n * c
    indices = np.tile(block.indices.astype(np.int64), n)
    if not stacked:
        indices += (np.arange(n, dtype=np.int64) * c).repeat(block.nnz)
    if cols < np.iinfo(np.int32).max:
        indices = indices.astype(np.int32)
    indptr = np.concatenate(([0], np.tile(np.diff(block.indptr), n).cumsum()))
    return sp.csr_matrix((np.tile(block.data, n), indices, indptr),
                         shape=(n * rows, cols))


def expand_blocks(net: ReluNetwork) -> ReluNetwork:
    """The same network with its grid copies written out as CSR layers,
    and no grid; a net without a grid comes back as is.

    Composition, padding and serialization work on this form, and so does
    :func:`_full_forward`.  It holds every copy, so on a large
    interpolation net it costs what the block form saves.
    """
    if net.grid is None:
        return net
    n = _copies(net)
    shifts = _grid_shifts(net.grid, np.arange(n))
    layers = [Layer(_repeat_block(l.weights, n, j == 0),
                    shifts.ravel() if j == 0 else np.tile(l.shifts, n))
              for j, l in enumerate(net.layers)]
    return ReluNetwork(net.input_dim, layers, net.output)


# (point, copy) pairs per run of the pruned pass
_PAIR_RUN = 4096


def _chunk_points(net: ReluNetwork, max_batch_bytes: int) -> int:
    """Points per chunk so that the widest full layer stays below
    ``max_batch_bytes`` of float64 activations."""
    width = max((_copies(net) * l.rows for l in net.layers),
                default=net.input_dim)
    return max(1, int(max_batch_bytes // (8 * width)))


def _full_forward(net: ReluNetwork, pts: np.ndarray,
                  max_batch_bytes: int = 1 << 29) -> np.ndarray:
    """Every unit of every layer for a batch (n, input_dim) -> (n, output_dim).

    The reference evaluation: :func:`forward` takes it for every net
    without a grid, and the tests compare the pruned path against it on
    the net :func:`expand_blocks` writes out.
    """
    chunk = _chunk_points(net, max_batch_bytes)
    outs = []
    for lo in range(0, pts.shape[0], chunk):
        h = pts[lo : lo + chunk].T
        for layer in net.layers:
            h = layer.weights @ h
            h += layer.shifts[:, None]
            np.maximum(h, 0.0, out=h)
        outs.append((net.output @ h).T)
    return np.vstack(outs)


def _pruned_forward(net: ReluNetwork, pts: np.ndarray,
                    max_batch_bytes: int) -> np.ndarray:
    """:func:`_full_forward` of an interpolation net, over the candidate
    spike copies of each point only.

    Runs the stored block of each layer over the (point, candidate) pairs
    from :func:`funcrelu.simplicial.support_pairs`, adding each candidate's
    own first-layer shifts, then scatters the last hidden layer into a zero
    (copies x points) array and applies the output stage as the full pass
    does.  A copy left out has a negative first-layer form at the point, so
    in the full pass the minimum recursion gives it an exact 0: the output
    stage sees the same numbers.  Point chunks match the full pass, and no
    chunk holds more activations than the full pass would.
    """
    n = net.grid.node_count
    first, deeper = net.layers[0], net.layers[1:]
    chunk = _chunk_points(net, max_batch_bytes)
    outs = []
    for lo in range(0, pts.shape[0], chunk):
        part = pts[lo : lo + chunk]
        point, node = support_pairs(part, net.grid)
        last = np.zeros((n, part.shape[0]))
        # pairs are independent columns; short runs of them keep each
        # layer's activations in cache
        for a in range(0, point.shape[0], _PAIR_RUN):
            p, c = point[a : a + _PAIR_RUN], node[a : a + _PAIR_RUN]
            h = first.weights @ part[p].T
            h += _grid_shifts(net.grid, c).T
            np.maximum(h, 0.0, out=h)
            for layer in deeper:
                h = layer.weights @ h
                h += layer.shifts[:, None]
                np.maximum(h, 0.0, out=h)
            last[c, p] = h[0]
        outs.append((net.output @ last).T)
    return np.vstack(outs)


def forward(net: ReluNetwork, x: np.ndarray, max_batch_bytes: int = 1 << 29) -> np.ndarray:
    """All output rows for a batch of inputs.

    ``x`` is one point of shape (input_dim,) or a batch (n, input_dim);
    returns (output_dim,) or (n, output_dim).  Wide networks are evaluated
    in chunks so the activation buffer stays below ``max_batch_bytes``.
    An interpolation net (``net.grid`` set) runs only the spike copies
    whose support holds each point, with the same result as running all
    of them.  Non-finite inputs, and finite ones whose value overflows
    float64, raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != net.input_dim:
        raise ValueError(
            f"input has dimension {pts.shape[1]}, network expects {net.input_dim}"
        )
    _check_finite(pts, "input points")
    # an overflow shows as inf or nan in the result, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        if net.grid is None:
            res = _full_forward(net, pts, max_batch_bytes)
        else:
            res = _pruned_forward(net, pts, max_batch_bytes)
    if not np.all(np.isfinite(res)):
        raise ValueError(
            "network value overflows float64 at a finite input point")
    return res[0] if single else res


def evaluate(net: ReluNetwork, x: np.ndarray) -> float:
    """Scalar network value at one point; requires a single output row."""
    if net.output_dim != 1:
        raise ValueError("evaluate is for scalar networks; use forward")
    return float(forward(net, np.asarray(x, dtype=float))[0])


def evaluate_batch(net: ReluNetwork, x: np.ndarray) -> np.ndarray:
    """Scalar values for a batch (n, input_dim) -> (n,)."""
    if net.output_dim != 1:
        raise ValueError("evaluate_batch is for scalar networks; use forward")
    return forward(net, x)[:, 0]


def _vstack(mats):
    if any(sp.issparse(m) for m in mats):
        return sp.vstack([sp.csr_matrix(m) for m in mats], format="csr")
    return np.vstack(mats)


def _block_diag(mats):
    if any(sp.issparse(m) for m in mats) or len(mats) >= 8:
        return sp.block_diag([sp.csr_matrix(m) for m in mats], format="csr")
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def compose_serial(outer: ReluNetwork, inner: ReluNetwork) -> ReluNetwork:
    """Network computing outer(inner(x)); depths add.

    The inner output matrix is folded into the first outer layer, so the
    result is again a plain layered network.
    """
    if outer.input_dim != inner.output_dim:
        raise ValueError(
            f"outer expects {outer.input_dim} inputs, inner produces {inner.output_dim}"
        )
    if not outer.layers:
        raise ValueError("outer network must have at least one hidden layer")
    outer, inner = expand_blocks(outer), expand_blocks(inner)
    first = outer.layers[0]
    merged = Layer(first.weights @ inner.output, first.shifts.copy())
    layers = list(inner.layers) + [merged] + list(outer.layers[1:])
    return ReluNetwork(inner.input_dim, layers, outer.output.copy())


def compose_parallel(nets: list, coefficients) -> ReluNetwork:
    """Single scalar network computing sum_i c_i * net_i(x).

    All nets must share input_dim and depth and have one output row; pad
    shallower nets with :func:`pad_to_depth` first.  First layers stack on
    the shared input, deeper layers go block diagonal, and the output row
    concatenates the scaled per-net output rows.  The nonzero count is
    exactly the sum of the per-net counts whenever every coefficient is
    nonzero (no extra gadget weights are introduced).
    """
    coefficients = np.asarray(coefficients, dtype=float).ravel()
    if len(nets) != coefficients.shape[0]:
        raise ValueError("one coefficient per network required")
    if not nets:
        raise ValueError("need at least one network")
    nets = [expand_blocks(n) for n in nets]
    d0 = nets[0].input_dim
    J = depth(nets[0])
    for n in nets:
        if n.input_dim != d0:
            raise ValueError("mixed input dimensions")
        if depth(n) != J:
            raise ValueError("mixed depths; pad_to_depth first")
        if n.output_dim != 1:
            raise ValueError("compose_parallel needs scalar networks")
    layers = [Layer(_vstack([n.layers[0].weights for n in nets]),
                    np.concatenate([n.layers[0].shifts for n in nets]))]
    for j in range(1, J):
        layers.append(Layer(_block_diag([n.layers[j].weights for n in nets]),
                            np.concatenate([n.layers[j].shifts for n in nets])))
    out = np.hstack([c * np.asarray(n.output.todense() if sp.issparse(n.output) else n.output)
                     for c, n in zip(coefficients, nets)])
    return ReluNetwork(d0, layers, out)


def identity_net(dim: int, hidden_layers: int = 1) -> ReluNetwork:
    """Network computing x exactly via relu(x) - relu(-x), any depth."""
    if hidden_layers < 1:
        raise ValueError("need at least one hidden layer")
    eye = np.eye(dim)
    layers = [Layer(np.vstack([eye, -eye]), np.zeros(2 * dim))]
    for _ in range(hidden_layers - 1):
        layers.append(Layer(np.eye(2 * dim), np.zeros(2 * dim)))
    return ReluNetwork(dim, layers, np.hstack([eye, -eye]))


def pad_to_depth(net: ReluNetwork, target_depth: int) -> ReluNetwork:
    """Append identity gadget layers until the depth matches.

    Each padding step splits every output row r into the pair
    (relu(r.h), relu(-r.h)) and recombines with (1, -1), so evaluation is
    unchanged on all inputs.
    """
    if target_depth < depth(net):
        raise ValueError("target depth below current depth")
    net = expand_blocks(net)
    layers = list(net.layers)
    out = np.asarray(net.output.todense() if sp.issparse(net.output) else net.output)
    r = out.shape[0]
    eye = np.eye(r)
    for _ in range(target_depth - depth(net)):
        layers.append(Layer(np.vstack([out, -out]), np.zeros(2 * r)))
        out = np.hstack([eye, -eye])
    return ReluNetwork(net.input_dim, layers, out)


def _float_list(w) -> list:
    """Pieces of the JSON list of the entries of ``w`` in row-major order:
    joined, the text ``json.dumps([float(v) for v in w.ravel()])`` writes.

    Only the entries whose bits are not those of +0.0 go through repr (so
    -0.0 stays ``-0.0``), and each run of +0.0 is one string repetition:
    the cost follows the nonzeros, not the entries.
    """
    if sp.issparse(w):
        w = w.toarray()
    a = np.asarray(w, dtype=float).ravel()
    nz = np.flatnonzero(a.view(np.int64))
    # zeros before each nonzero, then after the last one
    *before, after = (np.diff(nz, prepend=-1, append=a.size) - 1).tolist()
    runs = map(operator.mul, repeat(", 0.0"), before)
    values = map(", ".__add__, map(float.__repr__, a[nz].tolist()))
    # every piece opens with its separator; the first one must not
    pieces = list(map(operator.add, runs, values))
    pieces.append(", 0.0" * after)
    pieces[0] = "[" + pieces[0][2:]
    pieces.append("]")
    return pieces


def serialize(net: ReluNetwork) -> bytes:
    """JSON encoding with full round-trip precision.

    Floats are written with Python repr, which is exact for binary64, so
    deserialize(serialize(net)) reproduces every weight bit for bit.  The
    format stores every matrix dense and row-major, grid copies written
    out; a matrix above ``SERIALIZE_ENTRY_LIMIT`` entries is refused with
    ValueError before anything is expanded.  The bytes are those
    ``json.dumps`` writes for the document, keys in the order below.
    """
    n = _copies(net)
    shapes = [(f"layer {j}", n * l.rows, l.cols if j == 0 else n * l.cols)
              for j, l in enumerate(net.layers)]
    shapes.append(("output", *net.output.shape))
    for what, rows, cols in shapes:
        if rows * cols > SERIALIZE_ENTRY_LIMIT:
            raise ValueError(
                f"{what} with shape ({rows}, {cols}) is too large for the "
                "dense JSON format"
            )
    net = expand_blocks(net)
    parts = [f'{{"version": {FORMAT_VERSION}, "input_dim": {net.input_dim}, '
             '"layers": [']
    for j, l in enumerate(net.layers):
        parts.append(f'{", " if j else ""}{{"rows": {l.rows}, "cols": {l.cols}, '
                     '"weights": ')
        parts += _float_list(l.weights)
        parts.append(', "shifts": ')
        parts += _float_list(l.shifts)
        parts.append("}")
    rows, cols = net.output.shape
    parts.append(f'], "output": {{"rows": {rows}, "cols": {cols}, "weights": ')
    parts += _float_list(net.output)
    parts.append("}}")
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


def _numbers(doc, key, where, count) -> np.ndarray:
    values = _require(doc, key, where)
    if not (isinstance(values, list)
            and set(map(type, values)) <= {float, int}):
        raise NetworkFormatError(f"{where} {key} must be a list of numbers")
    if len(values) != count:
        raise NetworkFormatError(
            f"{where} {key} has {len(values)} entries, expected {count}")
    try:
        arr = np.array(values, dtype=float)
    except OverflowError as exc:
        raise NetworkFormatError(f"{where} {key}: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise NetworkFormatError(f"non-finite entries in {where} {key}")
    return arr


def _matrix(doc, where) -> np.ndarray:
    rows = _size(doc, "rows", where)
    cols = _size(doc, "cols", where)
    values = _numbers(doc, "weights", where, rows * cols)
    try:
        return values.reshape(rows, cols)
    except ValueError as exc:  # a dimension beyond what numpy can index
        raise NetworkFormatError(f"{where} shape ({rows}, {cols}): {exc}") from exc


def deserialize(raw: bytes) -> ReluNetwork:
    """Network from :func:`serialize` output; any malformed document
    raises :class:`NetworkFormatError`."""
    try:
        doc = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (ValueError, TypeError, RecursionError) as exc:
        raise NetworkFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NetworkFormatError("top-level JSON object expected")
    version = _require(doc, "version", "network")
    if type(version) is not int or version != FORMAT_VERSION:
        raise NetworkFormatError(f"unsupported format version {version!r}")
    input_dim = _size(doc, "input_dim", "network")
    ldocs = _require(doc, "layers", "network")
    if not isinstance(ldocs, list):
        raise NetworkFormatError("'layers' must be a list")
    layers = []
    for j, ldoc in enumerate(ldocs):
        weights = _matrix(ldoc, f"layer {j}")
        layers.append(Layer(weights, _numbers(ldoc, "shifts", f"layer {j}",
                                              weights.shape[0])))
    out = _matrix(_require(doc, "output", "network"), "output")
    try:
        return ReluNetwork(input_dim, layers, out)
    except ValueError as exc:
        raise NetworkFormatError(str(exc)) from exc

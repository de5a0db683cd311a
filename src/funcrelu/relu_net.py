"""Deep ReLU networks as explicit weight data: evaluation, composition,
serialization and exact nonzero-weight accounting.

A network with J hidden layers computes

    A @ relu(W_J @ relu( ... relu(W_1 @ x + b_1) ... ) + b_J)

where each hidden layer applies its weight matrix, adds the shift vector
and passes the result through relu componentwise.  The output stage is a
plain matrix A with no shift; the scalar case is a 1-row A.  Weight
matrices may be dense ndarrays or scipy CSR matrices; sparsity is an
internal storage choice, never part of the contract.  A layer may also be
stored as one block and a copy count (see :class:`Layer`); sizes, counts
and values are those of the expanded layer, which :func:`expand_blocks`
writes out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .simplicial import ScaledGrid, support_pairs

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

    With ``copies`` = n > 1 the layer is n copies of the block ``weights``,
    stored once.  With ``shared_input`` every copy reads the whole input,
    so W stacks the blocks; otherwise copy i reads the i-th slice of the
    input, so W is block diagonal.  ``shifts`` holds one entry per row of
    the expanded layer, or one per block row, shared by every copy.
    """

    weights: object  # (r, c) ndarray or CSR matrix, the block
    shifts: np.ndarray  # (copies * r,) or, shared by the copies, (r,)
    copies: int = 1
    shared_input: bool = False

    def __post_init__(self):
        self.weights = _as_matrix(self.weights)
        self.shifts = np.asarray(self.shifts, dtype=float).ravel()
        if self.copies < 1:
            raise ValueError("a layer needs at least one copy of its block")
        if self.shifts.shape[0] not in (self.weights.shape[0], self.rows):
            raise ValueError(
                f"layer has {self.rows} rows but "
                f"{self.shifts.shape[0]} shifts"
            )
        _check_finite(self.weights, "layer weights")
        _check_finite(self.shifts, "layer shifts")

    @property
    def rows(self) -> int:
        return self.copies * self.weights.shape[0]

    @property
    def cols(self) -> int:
        c = self.weights.shape[1]
        return c if self.shared_input else self.copies * c

    @property
    def shared_shifts(self) -> bool:
        """Whether every copy uses the one shift vector stored."""
        return self.shifts.shape[0] != self.rows


@dataclass
class ReluNetwork:
    """Immutable feedforward ReLU network.

    ``output`` is a matrix so that intermediate construction stages can
    carry several values; scalar networks have a single output row.

    ``grid`` is set only by
    :func:`funcrelu.constructors.build_interpolation_net`.  It states that
    every layer is ``grid.node_count`` copies of one block (the first layer
    stacked on the shared input with one shift vector per copy, the others
    block diagonal with shared shifts, one unit per copy in the last), and
    that copy i is the spike of grid node i.  :func:`forward` then
    evaluates only the copies whose spike can be nonzero at each point.
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
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        prev = self.input_dim
        for j, layer in enumerate(self.layers):
            if layer.cols != prev:
                raise ValueError(
                    f"layer {j} expects {layer.cols} inputs, got {prev}"
                )
            prev = layer.rows
        if self.output.shape[1] != prev:
            raise ValueError(
                f"output expects {self.output.shape[1]} inputs, got {prev}"
            )
        if self.grid is not None:
            n = self.grid.node_count
            if not (self.grid.t == self.input_dim and self.layers
                    and self.layers[-1].rows == n
                    and all(l.copies == n for l in self.layers)
                    and self.layers[0].shared_input
                    and not self.layers[0].shared_shifts
                    and all(l.shared_shifts and not l.shared_input
                            for l in self.layers[1:])):
                raise ValueError(
                    f"layers are not {n} copies of one spike block on a "
                    f"t = {self.grid.t} grid"
                )

    @property
    def output_dim(self) -> int:
        return self.output.shape[0]


def depth(net: ReluNetwork) -> int:
    """Number of hidden layers."""
    return len(net.layers)


def _nnz(w) -> int:
    if sp.issparse(w):
        return int(np.count_nonzero(w.data))
    return int(np.count_nonzero(w))


def _layer_nnz(layer: Layer) -> tuple:
    """Nonzero (weights, shifts) of the expanded layer."""
    shift_copies = layer.copies if layer.shared_shifts else 1
    return (layer.copies * _nnz(layer.weights),
            shift_copies * _nnz(layer.shifts))


def count_nonzero(net: ReluNetwork) -> int:
    """Total count of strictly nonzero entries over all weight matrices,
    shift vectors and the output matrix.  Entries that happen to come out
    exactly zero during construction are not counted."""
    return _nnz(net.output) + sum(sum(_layer_nnz(l)) for l in net.layers)


def nonzero_breakdown(net: ReluNetwork) -> dict:
    """Per-component nonzero counts alongside the headline total."""
    per_layer = [dict(zip(("weights", "shifts"), _layer_nnz(l)))
                 for l in net.layers]
    return {
        "total": count_nonzero(net),
        "weights": sum(p["weights"] for p in per_layer),
        "shifts": sum(p["shifts"] for p in per_layer),
        "output": _nnz(net.output),
        "per_layer": per_layer,
    }


def _expand_layer(layer: Layer) -> Layer:
    n = layer.copies
    if n == 1:
        return layer
    block = sp.csr_matrix(layer.weights)
    c = block.shape[1]
    indices = np.tile(block.indices.astype(np.int64), n)
    if not layer.shared_input:
        indices += (np.arange(n, dtype=np.int64) * c).repeat(block.nnz)
    if layer.cols < np.iinfo(np.int32).max:
        indices = indices.astype(np.int32)
    indptr = np.concatenate(([0], np.tile(np.diff(block.indptr), n).cumsum()))
    weights = sp.csr_matrix((np.tile(block.data, n), indices, indptr),
                            shape=(layer.rows, layer.cols))
    shifts = np.tile(layer.shifts, n) if layer.shared_shifts else layer.shifts
    return Layer(weights, shifts)


def expand_blocks(net: ReluNetwork) -> ReluNetwork:
    """The same network with every block layer written out as one CSR
    layer, and no grid; a net without block layers comes back as is.

    Composition, padding and serialization work on this form, and so does
    :func:`_full_forward`.  It holds every copy, so on a large
    interpolation net it costs what the block form saves.
    """
    if net.grid is None and all(l.copies == 1 for l in net.layers):
        return net
    return ReluNetwork(net.input_dim, [_expand_layer(l) for l in net.layers],
                       net.output)


def _matmul(w, h):
    # h has shape (d_{j-1}, n); both dense and CSR weights support @.
    out = w @ h
    return np.asarray(out)


# (point, copy) pairs per run of the pruned pass
_PAIR_RUN = 4096


def _chunk_points(net: ReluNetwork, max_batch_bytes: int) -> int:
    """Points per chunk so that the widest full layer stays below
    ``max_batch_bytes`` of float64 activations."""
    width = max((l.rows for l in net.layers), default=net.input_dim)
    return max(1, int(max_batch_bytes // (8 * width)))


def _full_forward(net: ReluNetwork, pts: np.ndarray,
                  max_batch_bytes: int = 1 << 29) -> np.ndarray:
    """Every unit of every layer for a batch (n, input_dim) -> (n, output_dim).

    The reference evaluation of a net without block layers (see
    :func:`expand_blocks`): :func:`forward` takes it for every net without
    a grid, and the tests compare the pruned path against it.
    """
    chunk = _chunk_points(net, max_batch_bytes)
    outs = []
    for lo in range(0, pts.shape[0], chunk):
        h = pts[lo : lo + chunk].T
        for layer in net.layers:
            h = _matmul(layer.weights, h)
            h += layer.shifts[:, None]
            np.maximum(h, 0.0, out=h)
        outs.append(_matmul(net.output, h).T)
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
    b1 = first.shifts.reshape(n, -1)
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
            h = _matmul(first.weights, part[p].T)
            h += b1[c].T
            np.maximum(h, 0.0, out=h)
            for layer in deeper:
                h = _matmul(layer.weights, h)
                h += layer.shifts[:, None]
                np.maximum(h, 0.0, out=h)
            last[c, p] = h[0]
        outs.append(_matmul(net.output, last).T)
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
            res = _full_forward(expand_blocks(net), pts, max_batch_bytes)
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


def _dense_list(w):
    if sp.issparse(w):
        w = w.toarray()
    return [float(v) for v in np.asarray(w, dtype=float).ravel()]


def serialize(net: ReluNetwork) -> bytes:
    """JSON encoding with full round-trip precision.

    Floats are written with Python repr, which is exact for binary64, so
    deserialize(serialize(net)) reproduces every weight bit for bit.  The
    format stores every matrix dense and row-major, block layers written
    out; a matrix above ``SERIALIZE_ENTRY_LIMIT`` entries is refused with
    ValueError before anything is expanded.
    """
    shapes = [(f"layer {j}", l.rows, l.cols) for j, l in enumerate(net.layers)]
    shapes.append(("output", *net.output.shape))
    for what, rows, cols in shapes:
        if rows * cols > SERIALIZE_ENTRY_LIMIT:
            raise ValueError(
                f"{what} with shape ({rows}, {cols}) is too large for the "
                "dense JSON format"
            )
    net = expand_blocks(net)
    doc = {
        "version": FORMAT_VERSION,
        "input_dim": net.input_dim,
        "layers": [
            {
                "rows": l.rows,
                "cols": l.cols,
                "weights": _dense_list(l.weights),
                "shifts": [float(v) for v in l.shifts],
            }
            for l in net.layers
        ],
        "output": {
            "rows": net.output.shape[0],
            "cols": net.output.shape[1],
            "weights": _dense_list(net.output),
        },
    }
    return json.dumps(doc).encode("utf-8")


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
            and all(type(v) is float or type(v) is int for v in values)):
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

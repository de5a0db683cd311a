import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from funcrelu import constructors, relu_net
from funcrelu.constructors import (
    InterpolationSpec,
    build_interpolation_net,
    build_min_net,
    build_spike_net,
)
from funcrelu.relu_net import (
    Layer,
    NetworkFormatError,
    ReluNetwork,
    count_nonzero,
    depth,
    deserialize,
    evaluate,
    evaluate_batch,
    forward,
    nonzero_breakdown,
    serialize,
)
from funcrelu.constructors import interpolant_values
from funcrelu.simplicial import SUPPORT_SLACK, ScaledGrid, spike, support_pairs


def random_arrays(rng, input_dim, widths, out_rows=1, density=1.0):
    """The (weights, shifts) of each layer and the output matrix of
    :func:`random_net`, as writable arrays: a net makes its layers
    read-only."""
    layers = []
    prev = input_dim
    for w in widths:
        W = rng.standard_normal((w, prev))
        if density < 1.0:
            W *= rng.random((w, prev)) < density
        layers.append((W, rng.standard_normal(w)))
        prev = w
    return layers, rng.standard_normal((out_rows, prev))


def random_net(rng, input_dim, widths, out_rows=1, density=1.0):
    return ReluNetwork(input_dim, *random_arrays(rng, input_dim, widths, out_rows, density))


def zero_net(d=2):
    return ReluNetwork(d, [(np.zeros((3, d)), np.zeros(3))], np.zeros((1, 3)))


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


def expand_blocks(net, output=None):
    """The reference form of a net for :func:`_full_pass`: its copies
    written out as CSR layers, and no grid; ``output`` replaces the output
    matrix, e.g. an identity to read every copy's last unit.  A net
    without a grid is one copy.  It holds every copy, so on a large
    interpolation net it costs what the block form saves.
    """
    n = 1 if net.grid is None else net.grid.node_count

    def shifts(j, layer):
        if j == 0 and net.grid is not None:
            return relu_net._grid_shifts(net.grid, np.arange(n)).ravel()
        return np.tile(layer.shifts, n)

    layers = [SimpleNamespace(weights=_repeat_block(l.weights, n, j == 0),
                              shifts=shifts(j, l), rows=n * l.rows)
              for j, l in enumerate(net.layers)]
    output = net.output if output is None else output
    return SimpleNamespace(input_dim=net.input_dim, layers=layers, output=output,
                           output_dim=output.shape[0], grid=None)


# one chunk's largest layer in _full_pass
_REFERENCE_BYTES = 1 << 29


def _full_pass(net, pts):
    """The reference pass over :func:`expand_blocks` of a net: every unit
    of every layer for a batch (n, input_dim) -> (n, output_dim), in point
    chunks.  Each layer is ``weights @ h``, a CSR product that adds each
    row's terms in ascending column order, starting from 0.0.  The output
    stage adds each point's terms ``output[r, unit] * value`` over every
    last-layer unit in ascending unit order, starting from 0.0: a running
    sum (``np.cumsum``) that starts from its first term differs from that
    in the sign of a zero only, which adding 0.0 at the end clears.
    """
    widest = max([net.input_dim] + [l.rows for l in net.layers])
    chunk = max(1, _REFERENCE_BYTES // (8 * max(1, widest)))
    outs = [np.empty((0, net.output_dim))]
    for lo in range(0, pts.shape[0], chunk):
        h = pts[lo : lo + chunk].T
        for layer in net.layers:
            h = layer.weights @ h
            h += layer.shifts[:, None]
            np.maximum(h, 0.0, out=h)
        res = np.zeros((h.shape[1], net.output_dim))
        if h.shape[0]:
            for r in range(net.output_dim):
                res[:, r] += np.cumsum(net.output[r] * h.T, axis=1)[:, -1]
        outs.append(res)
    return np.vstack(outs)


def dense_expansion(net):
    """:func:`expand_blocks` of a net as a ReluNetwork of dense layers,
    for the calls that need a network: ``serialize``, ``forward``,
    ``deserialize``.  Small grids only."""
    full = expand_blocks(net)
    return ReluNetwork(full.input_dim,
                       [Layer(l.weights.toarray(), l.shifts) for l in full.layers],
                       full.output)


class TestEvaluate:
    def test_one_layer_identity_gadget(self):
        # relu(u) - relu(-u) = u
        net = ReluNetwork(1, [(np.array([[1.0], [-1.0]]), np.zeros(2))],
                          np.array([[1.0, -1.0]]))
        assert evaluate(net, np.array([0.7])) == pytest.approx(0.7, abs=1e-15)
        assert evaluate(net, np.array([-2.5])) == pytest.approx(-2.5, abs=1e-15)

    def test_zero_network(self):
        net = zero_net()
        for x in ([0.0, 0.0], [3.0, -4.0], [1e6, 2.0]):
            assert evaluate(net, np.array(x)) == 0.0

    def test_min_net_example(self):
        assert evaluate(build_min_net(2), np.array([3.0, 1.0])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        net = zero_net(2)
        with pytest.raises(ValueError):
            evaluate(net, np.array([1.0, 2.0, 3.0]))

    def test_finite_on_finite_inputs(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, 3, [6, 4], out_rows=2)
        vals = forward(net, rng.uniform(-100, 100, (200, 3)))
        assert np.all(np.isfinite(vals))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, 4, [7, 5])
        X = rng.standard_normal((32, 4))
        batch = evaluate_batch(net, X)
        singles = np.array([evaluate(net, x) for x in X])
        assert np.array_equal(batch, singles)
        assert np.array_equal(batch, evaluate_batch(net, X))

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError):
            ReluNetwork(1, [(np.array([[np.inf]]), np.zeros(1))], np.ones((1, 1)))


class TestMalformedWeights:
    """Weights that are not one numeric matrix name their error when the
    layer is made, not later in forward."""

    def test_three_axes_refused(self):
        with pytest.raises(ValueError, match=r"weights must be a 2-D array, got shape "
                                             r"\(2, 2, 2\)"):
            Layer(np.ones((2, 2, 2)), np.zeros(2))

    def test_an_object_is_named(self):
        with pytest.raises(ValueError, match="weights must be a numeric array, got object"):
            Layer(object(), np.zeros(2))

    def test_ragged_rows_are_named(self):
        with pytest.raises(ValueError, match="weights must be a numeric array, got list"):
            Layer([[1.0, 2.0], [3.0]], np.zeros(2))

    def test_output_of_three_axes_refused(self):
        with pytest.raises(ValueError, match=r"got shape \(1, 1, 3\)"):
            ReluNetwork(2, [(np.ones((3, 2)), np.zeros(3))], np.ones((1, 1, 3)))

    # numpy would keep the real part of a complex value and only warn
    def test_complex_weights_are_named(self):
        with pytest.raises(ValueError, match="weights must be a numeric array, got ndarray: "
                                             "its values must be real numbers, got dtype complex128"):
            Layer(np.array([[1 + 2j, 0.5]]), np.zeros(1))

    def test_complex_shifts_are_named(self):
        with pytest.raises(ValueError, match="layer shifts must be real numbers, "
                                             "got dtype complex128"):
            Layer(np.ones((1, 1)), np.array([1j]))

    def test_complex_output_is_named(self):
        with pytest.raises(ValueError, match="weights must be a numeric array, got list: "
                                             "its values must be real numbers, got dtype complex128"):
            ReluNetwork(1, [(np.ones((2, 1)), np.zeros(2))], [[1.0, 1j]])


class TestAccounting:
    def test_zero_network_count(self):
        assert count_nonzero(zero_net()) == 0

    def test_min_net_counts(self):
        assert count_nonzero(build_min_net(2)) == 7
        assert count_nonzero(build_min_net(3)) == 16

    def test_depths(self):
        assert depth(build_min_net(2)) == 1
        for d in (3, 5, 8):
            assert depth(build_min_net(d)) == d - 1
        for t in (1, 2, 3):
            assert depth(build_spike_net(t)) == t * t + t + 1

    def test_cancellation_zeros_not_counted(self):
        W = np.array([[1.0, -1.0], [0.5 - 0.5, 0.0]])  # second row all zero
        net = ReluNetwork(2, [(W, np.zeros(2))], np.array([[1.0, 0.0]]))
        assert count_nonzero(net) == 3

    def test_breakdown_sums_to_total(self):
        net = build_min_net(4)
        b = nonzero_breakdown(net)
        assert b["weights"] + b["shifts"] + b["output"] == b["total"]
        assert b["total"] == count_nonzero(net)
        assert len(b["per_layer"]) == depth(net)

    def test_positive_homogeneity_of_min_net(self):
        # all shifts are zero, so the net is positively homogeneous
        net = build_min_net(3)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.standard_normal(3)
            lam = rng.uniform(0.1, 10.0)
            assert evaluate(net, lam * x) == pytest.approx(
                lam * evaluate(net, x), rel=1e-12, abs=1e-12
            )


class TestSerialization:
    def test_round_trip_min_net_field_identical(self):
        net = build_min_net(3)
        back = deserialize(serialize(net))
        assert back.input_dim == net.input_dim
        assert depth(back) == depth(net)
        for a, b in zip(net.layers, back.layers):
            assert np.array_equal(np.asarray(a.weights), np.asarray(b.weights))
            assert np.array_equal(a.shifts, b.shifts)
        assert np.array_equal(np.asarray(net.output), np.asarray(back.output))

    def test_round_trip_bit_identical_bytes(self):
        rng = np.random.default_rng(17)
        net = random_net(rng, 3, [5, 4])
        raw = serialize(net)
        assert serialize(deserialize(raw)) == raw

    def test_zero_network_round_trip(self):
        back = deserialize(serialize(zero_net()))
        assert count_nonzero(back) == 0

    @pytest.mark.parametrize("widths", [[0], [3, 0], [0, 0]])
    def test_layers_of_no_units_evaluate_to_zeros(self, widths):
        layers, prev = [], 2
        for w in widths:
            layers.append({"rows": w, "cols": prev, "weights": [1.0] * (w * prev),
                           "shifts": [0.5] * w})
            prev = w
        net = deserialize(json.dumps({"version": 1, "input_dim": 2, "layers": layers,
                                      "output": {"rows": 1, "cols": 0, "weights": []}}))
        assert forward(net, np.zeros(2)).tolist() == [0.0]
        X = np.random.default_rng(8).uniform(-1.0, 1.0, (5, 2))
        assert forward(net, X).tolist() == [[0.0]] * 5
        assert np.array_equal(forward(net, X), _full_pass(expand_blocks(net), X))

    def test_truncated_stream_names_missing_section(self):
        doc = json.loads(serialize(build_min_net(2)))
        del doc["output"]
        with pytest.raises(NetworkFormatError, match="output"):
            deserialize(json.dumps(doc).encode())
        doc2 = json.loads(serialize(build_min_net(2)))
        del doc2["layers"][0]["shifts"]
        with pytest.raises(NetworkFormatError, match="shifts"):
            deserialize(json.dumps(doc2).encode())

    def test_garbage_rejected(self):
        with pytest.raises(NetworkFormatError):
            deserialize(b"{not json")
        with pytest.raises(NetworkFormatError):
            deserialize(b"[1, 2, 3]")

    def test_oversized_layer_refused(self, monkeypatch):
        # layers are dense in memory; a layer above the entry limit is
        # refused, not written, and not read where its document lists it
        # by its nonzeros: what the writer writes, the reader reads
        weights = np.zeros((4, 3))
        weights[1, 2] = 1.0
        net = ReluNetwork(3, [Layer(weights, np.zeros(4))], np.ones((1, 4)))
        monkeypatch.setattr(relu_net, "SERIALIZE_ENTRY_LIMIT", 11)
        with pytest.raises(ValueError, match=r"^layer 0 weights with shape \(4, 3\) is too "
                                             r"large for the file format: more than 11 "
                                             r"entries$"):
            serialize(net)
        monkeypatch.setattr(relu_net, "SERIALIZE_ENTRY_LIMIT", 12)
        raw = serialize(net)
        assert raw == _reference_v3(net)
        assert json.loads(raw)["layers"][0]["weights_at"] == [5]
        assert serialize(deserialize(raw)) == raw
        monkeypatch.setattr(relu_net, "SERIALIZE_ENTRY_LIMIT", 11)
        with pytest.raises(NetworkFormatError, match="^layer 0 weights_at: 12 entries, "
                                                     "above the file format's limit of 11$"):
            deserialize(raw)

    def test_large_block_net_written_without_expansion(self):
        # expanded, its layers are above the entry limit; its document
        # holds its block and 59 049 node values
        grid = ScaledGrid(5, 1.0, 8)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        tracemalloc.start()
        try:
            raw = serialize(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        doc = json.loads(raw)
        assert doc["version"] == relu_net.FORMAT_VERSION
        assert doc["grid"] == {"t": 5, "R": 1.0, "N": 8}
        # the pieces of the output row: about 110 B per node value
        assert peak < 160 * grid.node_count

    @pytest.mark.parametrize("path,value", [
        (("input_dim",), "2"),
        (("input_dim",), 2.0),
        (("layers",), 7),
        (("layers", 0), 7),
        (("layers", 0), [1, 2]),
        (("layers", 0, "weights", 0), "x"),
        (("layers", 0, "weights", 0), None),
        (("layers", 0, "weights", 0), True),
        (("layers", 0, "shifts"), "abc"),
        (("layers", 0, "rows"), -3),
        (("output",), []),
        (("output", "rows"), -1),
        (("output", "weights"), [[1.0, 1.0, 1.0]]),
        (("output", "weights", 0), 10**400),
        (("version",), "1"),
    ], ids=["str-dim", "float-dim", "int-layers", "int-layer", "list-layer",
            "str-weight", "null-weight", "bool-weight", "str-shifts",
            "negative-rows", "list-output", "negative-output-rows",
            "nested-weights", "huge-int-weight", "str-version"])
    def test_malformed_fields_named(self, path, value):
        doc = _mutated(json.loads(serialize(build_min_net(2))), path, value)
        with pytest.raises(NetworkFormatError):
            deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize("value", [True, "x", None], ids=["bool", "str", "null"])
    def test_bad_value_deep_in_a_long_list_named(self, value):
        grid = ScaledGrid(2, 1.0, 4)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        # the version-1 text, which lists every entry of a layer
        doc = json.loads(_reference_serialize(dense_expansion(net)))
        assert len(doc["layers"][1]["weights"]) > 10_000
        doc = _mutated(doc, ("layers", 1, "weights", -1), value)
        with pytest.raises(NetworkFormatError, match="layer 1 weights"):
            deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize("dim", [2.0, True, np.float64(2.0), "2"])
    def test_input_dim_must_be_an_integer(self, dim):
        with pytest.raises(ValueError, match="input_dim"):
            ReluNetwork(dim, [(np.ones((3, 2)), np.zeros(3))], np.ones((1, 3)))

    def test_numpy_integer_input_dim_is_stored_as_int(self):
        layers = [(np.array([[1.0, -2.0], [0.5, 0.0]]), np.zeros(2))]
        net = ReluNetwork(np.int64(2), layers, np.ones((1, 2)))
        assert type(net.input_dim) is int
        assert serialize(net) == serialize(ReluNetwork(2, layers, np.ones((1, 2))))
        assert deserialize(serialize(net)).input_dim == 2

    @pytest.mark.parametrize("text", ["1e999", "NaN", "-Infinity"])
    @pytest.mark.parametrize("version", [3, 1])
    def test_non_finite_weight_named(self, text, version):
        # the first listed weight of layer 0 made non-finite
        write = serialize if version == 3 else _reference_serialize
        raw, n = re.subn(rb'"weights": \[[^,\]]+', b'"weights": [' + text.encode(),
                         write(build_min_net(2)), count=1)
        assert n == 1
        with pytest.raises(NetworkFormatError, match="non-finite entries in layer 0 weights"):
            deserialize(raw)

    @pytest.mark.parametrize("key,value", [
        ("weights", True), ("weights", "x"), ("weights", None), ("weights_at", True),
        ("weights_at", "x"), ("weights_at", None), ("weights_at", 10200.0)])
    def test_bad_value_deep_in_a_long_v3_list_named(self, key, value):
        doc = json.loads(serialize(_sparse_interp(2, 200)))
        assert len(doc["output"][key]) > 10_000
        doc = _mutated(doc, ("output", key, -1), value)
        with pytest.raises(NetworkFormatError, match=f"output {key}"):
            deserialize(json.dumps(doc).encode())


def _reference_serialize(net):
    """The version-1 or version-2 document that serialize wrote before
    version 3, and that deserialize still reads: built as Python objects,
    every entry a float, dense, and written by json.dumps.  A grid net's
    document (version 2) holds its stored layers, its output row and its
    grid."""
    def dense(w):
        return [float(v) for v in np.asarray(w, dtype=float).ravel()]

    doc = {
        "version": 1 if net.grid is None else 2,
        "input_dim": net.input_dim,
        "layers": [
            {"rows": l.rows, "cols": l.cols, "weights": dense(l.weights),
             "shifts": [float(v) for v in l.shifts]}
            for l in net.layers
        ],
        "output": {"rows": net.output.shape[0], "cols": net.output.shape[1],
                   "weights": dense(net.output)},
    }
    if net.grid is not None:
        doc["grid"] = {"t": net.grid.t, "R": net.grid.R, "N": net.grid.N}
    return json.dumps(doc).encode("utf-8")


def _reference_v3(net):
    """Reference for serialize: the version-3 document built as Python
    objects and written by json.dumps.  Each array is the shorter text of
    two: its entries as floats, and its entries other than +0.0 (-0.0
    among them) with their flat indices under "<key>_at"; the first on a
    tie."""
    def put(doc, key, w):
        values = [float(v) for v in np.asarray(w, dtype=float).ravel()]
        at = [i for i, v in enumerate(values) if v != 0.0 or math.copysign(1.0, v) < 0.0]
        dense = {key: values}
        listed = {key: [values[i] for i in at], key + "_at": at}
        doc.update(listed if len(json.dumps(listed)) < len(json.dumps(dense)) else dense)
        return doc

    doc = {
        "version": 3,
        "input_dim": net.input_dim,
        "layers": [put(put({"rows": l.rows, "cols": l.cols}, "weights", l.weights),
                       "shifts", l.shifts)
                   for l in net.layers],
        "output": put({"rows": net.output.shape[0], "cols": net.output.shape[1]},
                      "weights", net.output),
    }
    if net.grid is not None:
        doc["grid"] = {"t": net.grid.t, "R": net.grid.R, "N": net.grid.N}
    return json.dumps(doc).encode("utf-8")


FLOATS = st.one_of(
    st.just(0.0),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=1, min_side=0,
                                               max_side=40), elements=FLOATS)
       | hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=1, min_side=0,
                                               max_side=40)))
@example(np.zeros(0))
@example(np.zeros(0, np.int64))
@example(np.zeros(20))
@example(np.full(3, -0.0))
@example(np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max]))
def test_json_list_writes_what_json_dumps_writes(a):
    # a short run, so most examples join several runs
    with pytest.MonkeyPatch.context() as m:
        m.setattr(relu_net, "_VALUE_RUN", 3)
        assert "".join(relu_net._json_list(a)) == json.dumps(a.tolist())


def _interp(t, N):
    grid = ScaledGrid(t, 1.0, N)
    values = np.random.default_rng(t * N).uniform(-1.0, 1.0, grid.node_count)
    values[0] = 0.0
    return build_interpolation_net(InterpolationSpec(grid, values))


def _sparse_interp(t, N):
    """A grid net with three of every four node values +0.0, so that its
    output row is written by its nonzeros."""
    grid = ScaledGrid(t, 1.0, N)
    values = np.random.default_rng(t * N).uniform(-1.0, 1.0, grid.node_count)
    values[np.arange(grid.node_count) % 4 > 0] = 0.0
    return build_interpolation_net(InterpolationSpec(grid, values))


def _signed_zero_net():
    layers, output = random_arrays(np.random.default_rng(21), 3, [6, 5], out_rows=2)
    for weights, _ in layers:
        weights[weights < 0.2] = -0.0
    output[0, :2] = -0.0
    return ReluNetwork(3, layers, output)


def _identity_net(dim, hidden_layers):
    """x = relu(x) - relu(-x), carried through identity layers."""
    eye = np.eye(dim)
    layers = [Layer(np.vstack([eye, -eye]), np.zeros(2 * dim))]
    layers += [Layer(np.eye(2 * dim), np.zeros(2 * dim)) for _ in range(hidden_layers - 1)]
    return ReluNetwork(dim, layers, np.hstack([eye, -eye]))


def _parallel_net():
    """1.5 * a(x) - 0.5 * b(x) as one net: first layers stacked, second
    layers block diagonal, output rows scaled side by side."""
    a, b = (random_net(np.random.default_rng(s), 2, [3, 4]) for s in (22, 23))
    second = np.zeros((8, 6))
    second[:4, :3], second[4:, 3:] = a.layers[1].weights, b.layers[1].weights
    layers = [Layer(np.vstack([a.layers[0].weights, b.layers[0].weights]),
                    np.concatenate([a.layers[0].shifts, b.layers[0].shifts])),
              Layer(second, np.concatenate([a.layers[1].shifts, b.layers[1].shifts]))]
    return ReluNetwork(2, layers, np.hstack([1.5 * a.output, -0.5 * b.output]))


def _padded_net():
    """A one-layer net padded to depth 3: each padding layer splits the
    output r into (relu(r.h), relu(-r.h)) and recombines with (1, -1)."""
    net = random_net(np.random.default_rng(24), 2, [3])
    layers, out = list(net.layers), net.output
    for _ in range(2):
        layers.append(Layer(np.vstack([out, -out]), np.zeros(2)))
        out = np.array([[1.0, -1.0]])
    return ReluNetwork(2, layers, out)


SERIALIZED_NETS = {
    "min": lambda: build_min_net(3),
    "spike": lambda: build_spike_net(2),
    "identity": lambda: _identity_net(3, 2),
    "zero": zero_net,
    "random": lambda: random_net(np.random.default_rng(18), 3, [5, 4], out_rows=2),
    "sparse-dense": lambda: random_net(np.random.default_rng(19), 4, [7, 6], density=0.3),
    "signed-zeros": _signed_zero_net,
    "parallel": _parallel_net,
    "padded": _padded_net,
    "interp-t1-N4": lambda: _interp(1, 4),
    "interp-t1-N8": lambda: _interp(1, 8),
    "interp-t2-N4": lambda: _interp(2, 4),
    "interp-t2-N8": lambda: _interp(2, 8),
    "interp-t3-N2": lambda: _interp(3, 2),
}


@pytest.mark.parametrize("name", list(SERIALIZED_NETS))
def test_serialize_writes_the_json_dumps_document(name):
    net = SERIALIZED_NETS[name]()
    raw = serialize(net)
    assert raw == _reference_v3(net)
    back = deserialize(raw)
    assert serialize(back) == _reference_v3(back) == raw


def _has_positive_zero(net) -> bool:
    return any(np.any((a == 0.0) & ~np.signbit(a))
               for a in [net.output, *(x for l in net.layers for x in (l.weights, l.shifts))])


@pytest.mark.parametrize("name", ["random", "signed-zeros"])
def test_a_net_without_positive_zeros_keeps_its_old_text(name):
    # every array dense, so the bytes are those of version 1 but for the
    # version number
    net = SERIALIZED_NETS[name]()
    assert not _has_positive_zero(net)
    old = _reference_serialize(net)
    assert old.startswith(b'{"version": 1, ')
    assert serialize(net) == b'{"version": 3, ' + old[len(b'{"version": 1, '):]


@pytest.mark.parametrize("row, listed", [
    ([1.0] * 3 + [0.0] * 5, False),  # a tie: both texts take 38 characters
    ([1.0] * 2 + [0.0] * 6, True),
    ([0.0] + [0.5] * 40, False),     # one +0.0: its index costs more than it saves
    ([0.0] * 41, True),
    ([0.0], False),
])
def test_an_array_takes_the_shorter_text(row, listed):
    net = ReluNetwork(1, [Layer(np.ones((len(row), 1)), np.ones(len(row)))],
                      np.array([row]))
    raw = serialize(net)
    assert raw == _reference_v3(net)
    assert ("weights_at" in json.loads(raw)["output"]) == listed
    assert serialize(deserialize(raw)) == raw


def test_serialize_peak_memory_follows_the_document():
    # 68 921 node values, several runs of written values
    net = _interp(3, 40)
    assert net.output.size > 3 * relu_net._VALUE_RUN
    tracemalloc.start()
    try:
        raw = serialize(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * len(raw)
    assert raw == _reference_v3(net)


@pytest.mark.parametrize("name", [n for n in SERIALIZED_NETS if n.startswith("interp")])
def test_reloaded_grid_net_expands_to_its_v1_document(name):
    # the version-1 bytes of the expanded net are those the format wrote
    # for every interpolation net before version 2; the expanded net, with
    # no grid, is written as version 3 the same way from either net
    net = SERIALIZED_NETS[name]()
    back = deserialize(serialize(net))
    assert back.grid == net.grid
    assert _reference_serialize(dense_expansion(back)) == _reference_serialize(
        dense_expansion(net))
    v3 = serialize(dense_expansion(back))
    assert "grid" not in json.loads(v3)
    assert v3 == _reference_v3(dense_expansion(net))


# documents that serialize wrote before version 3, and the nets they hold
DATA = Path(__file__).parent / "data"
OLD_DOCUMENTS = {
    "v1_min_d3.json": lambda: build_min_net(3),
    "v1_spike_t2.json": lambda: build_spike_net(2),
    "v1_zero.json": zero_net,
    "v2_interp_t1_N4.json": lambda: _interp(1, 4),
    "v2_interp_t2_N4.json": lambda: _interp(2, 4),
}


def _bits(a):
    return np.asarray(a).view(np.int64)


@pytest.mark.parametrize("name", list(OLD_DOCUMENTS))
def test_an_old_document_loads_to_the_net_built_today(name):
    raw = (DATA / name).read_bytes()
    net = OLD_DOCUMENTS[name]()
    # the reference writer still writes the old bytes
    assert raw == _reference_serialize(net)
    back = deserialize(raw)
    assert back.input_dim == net.input_dim and back.grid == net.grid
    assert len(back.layers) == len(net.layers)
    for mine, theirs in zip(back.layers, net.layers):
        assert mine.weights.shape == theirs.weights.shape
        assert np.array_equal(_bits(mine.weights), _bits(theirs.weights))
        assert np.array_equal(_bits(mine.shifts), _bits(theirs.shifts))
    assert np.array_equal(_bits(back.output), _bits(net.output))
    assert serialize(back) == serialize(net)


def test_an_old_document_s_at_keys_are_not_read():
    # the indices are read in version 3 only
    doc = json.loads((DATA / "v2_interp_t1_N4.json").read_bytes())
    doc["output"]["weights_at"] = "x"
    doc["layers"][1]["shifts_at"] = [0]
    assert serialize(deserialize(json.dumps(doc))) == serialize(_interp(1, 4))


def _json_paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _mutated(doc, path, value, delete=False):
    """Copy of a JSON document with the entry at ``path`` replaced by
    ``value``, or deleted."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if delete:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
VALID_DOC = json.loads(_reference_serialize(build_min_net(3)))
VALID_V2_DOC = json.loads(_reference_serialize(_interp(2, 2)))
VALID_V3_DOC = json.loads(serialize(_sparse_interp(2, 2)))


def _deserializes_or_names_error(raw):
    """A malformed document names its error; any other reads back as a net
    that round-trips byte for byte and whose forward pass is the full pass
    of its expanded form."""
    try:
        net = deserialize(raw)
    except NetworkFormatError:
        return
    assert isinstance(net, ReluNetwork)
    assert serialize(deserialize(serialize(net))) == serialize(net)
    X = np.random.default_rng(0).uniform(-1.5, 1.5, (16, net.input_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        full = _full_pass(expand_blocks(net), X)
    if np.all(np.isfinite(full)):
        assert np.array_equal(forward(net, X), full)
    else:
        with pytest.raises(ValueError, match="overflow"):
            forward(net, X)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_fuzz_any_bytes(raw):
    _deserializes_or_names_error(raw)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_json_paths(VALID_DOC))), st.booleans(), JSON_VALUES)
def test_fuzz_mutated_document(path, delete, value):
    doc = _mutated(VALID_DOC, path, value, delete)
    _deserializes_or_names_error(json.dumps(doc).encode())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_json_paths(VALID_V2_DOC))), st.booleans(), JSON_VALUES)
def test_fuzz_mutated_v2_document(path, delete, value):
    doc = _mutated(VALID_V2_DOC, path, value, delete)
    _deserializes_or_names_error(json.dumps(doc).encode())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_json_paths(VALID_V3_DOC))), st.booleans(), JSON_VALUES)
def test_fuzz_mutated_v3_document(path, delete, value):
    # a grid net's document: its output and its block's middle layers
    # listed by their nonzeros, its first and last two layers dense
    assert "weights_at" in VALID_V3_DOC["output"] and "grid" in VALID_V3_DOC
    assert ["weights_at" in l for l in VALID_V3_DOC["layers"]] == [
        False, True, True, True, True, False, False]
    doc = _mutated(VALID_V3_DOC, path, value, delete)
    _deserializes_or_names_error(json.dumps(doc).encode())


V2_RAW = json.dumps(VALID_V2_DOC).encode()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(V2_RAW)), st.integers(0, 8), st.binary(max_size=8))
def test_fuzz_v2_bytes(at, cut, raw):
    # any bytes in place of any short stretch of a v2 document
    _deserializes_or_names_error(V2_RAW[:at] + raw + V2_RAW[at + cut:])


def _short_output(doc):
    doc = _mutated(doc, ("output", "cols"), doc["output"]["cols"] - 1)
    return _mutated(doc, ("output", "weights", -1), None, delete=True)


def _two_output_rows(doc):
    out = doc["output"]
    return _mutated(doc, ("output",), {**out, "rows": 2, "weights": out["weights"] * 2})


def _short_middle_layer(doc):
    # layer 3 loses its last row: a consistent layer of the wrong shape
    layer = doc["layers"][3]
    return _mutated(doc, ("layers", 3), {"rows": layer["rows"] - 1, "cols": layer["cols"],
                                         "weights": layer["weights"][:-layer["cols"]],
                                         "shifts": layer["shifts"][:-1]})


def _huge_t(doc):
    # the document's 7 layers are t = 2's; a spike block on R^1000 has
    # 1 001 001 of them, and no such block may be built to find that out
    return _mutated(doc, ("grid", "t"), 1000)


@pytest.mark.parametrize("edit", [
    lambda d: _mutated(d, ("layers", 1, "weights", 0), d["layers"][1]["weights"][0] + 1.0),
    lambda d: _mutated(d, ("layers", 0, "weights", 0), d["layers"][0]["weights"][0] * 2),
    lambda d: _mutated(d, ("layers", 0, "shifts", 0), 0.5),
    lambda d: _mutated(d, ("grid",), [2, 1.0, 2]),
    lambda d: _mutated(d, ("grid",), None, delete=True),
    lambda d: _mutated(d, ("grid", "R"), None, delete=True),
    lambda d: _mutated(d, ("grid", "t"), 0),
    lambda d: _mutated(d, ("grid", "t"), 2.5),
    lambda d: _mutated(d, ("grid", "t"), True),
    lambda d: _mutated(d, ("grid", "t"), 3),
    lambda d: _mutated(d, ("grid", "N"), 0),
    lambda d: _mutated(d, ("grid", "N"), 2.5),
    lambda d: _mutated(d, ("grid", "N"), True),
    lambda d: _mutated(d, ("grid", "N"), 10**400),
    lambda d: _mutated(d, ("grid", "R"), float("inf")),
    lambda d: _mutated(d, ("grid", "R"), float("nan")),
    lambda d: _mutated(d, ("grid", "R"), -1.0),
    lambda d: _mutated(d, ("grid", "R"), 10**400),
    lambda d: _mutated(d, ("grid", "R"), 2.0),
    _short_output,
    lambda d: _mutated(d, ("version",), 1),
    lambda d: _mutated(d, ("input_dim",), 3),
    _short_middle_layer,
    _two_output_rows,
    _huge_t,
], ids=["block-weight", "first-layer-weight", "first-layer-shift", "grid-list",
        "no-grid", "no-R", "t-0", "t-2.5", "t-true", "t-3", "N-0", "N-2.5",
        "N-true", "N-huge", "R-inf", "R-nan", "R-negative", "R-huge", "R-other",
        "short-output", "version-1", "input-dim-not-t", "middle-layer-shape",
        "two-output-rows", "t-1000"])
def test_malformed_v2_document_named(edit, monkeypatch, fresh_blocks):
    raw = json.dumps(edit(VALID_V2_DOC)).encode()
    built = []
    monkeypatch.setattr(constructors, "build_spike_net",
                        lambda t: built.append(t) or build_spike_net(t))
    with pytest.raises(NetworkFormatError):
        deserialize(raw)
    if edit is _huge_t:
        assert built == []


def _at_list(path, edit):
    """An edit of VALID_V3_DOC's index list at ``path``."""
    def apply(doc):
        at = list(functools.reduce(lambda d, k: d[k], path, doc))
        return _mutated(doc, path, edit(at))
    return apply


def _swap_first_two(at):
    at[0], at[1] = at[1], at[0]
    return at


W1_AT = ("layers", 1, "weights_at")


@pytest.mark.parametrize("edit,field", [
    (lambda d: _mutated(d, W1_AT, "abc"), "layer 1 weights_at"),
    (lambda d: _mutated(d, W1_AT, None), "layer 1 weights_at"),
    (lambda d: _mutated(d, W1_AT, {"0": 1}), "layer 1 weights_at"),
    (lambda d: _mutated(d, ("layers", 1, "shifts_at"), 7), "layer 1 shifts_at"),
    (lambda d: _mutated(d, ("output", "weights_at"), "x"), "output weights_at"),
    (lambda d: _mutated(d, W1_AT + (0,), True), "layer 1 weights_at"),
    (lambda d: _mutated(d, W1_AT + (0,), 0.0), "layer 1 weights_at"),
    (lambda d: _mutated(d, W1_AT + (0,), "0"), "layer 1 weights_at"),
    (lambda d: _mutated(d, W1_AT + (0,), 10**400), "layer 1 weights_at"),
    (lambda d: _mutated(d, W1_AT + (0,), -1), "layer 1 weights_at"),
    (lambda d: _mutated(d, W1_AT + (-1,), 66), "layer 1 weights_at"),
    (lambda d: _mutated(d, W1_AT + (-1,), 10**6), "layer 1 weights_at"),
    (_at_list(W1_AT, lambda at: [at[0], *at[:-1]]), "layer 1 weights_at"),
    (_at_list(W1_AT, _swap_first_two), "layer 1 weights_at"),
    (_at_list(W1_AT, lambda at: at[:-1]), "layer 1 weights_at"),
    (_at_list(W1_AT, lambda at: at + [65]), "layer 1 weights_at"),
    (_at_list(("layers", 1, "shifts_at"), lambda at: at + [0]), "layer 1 shifts_at"),
    (_at_list(("output", "weights_at"), lambda at: at[1:]), "output weights_at"),
], ids=["str", "null", "object", "shifts-int", "output-str", "bool-entry", "float-entry",
        "str-entry", "huge-entry", "negative-entry", "entry-at-size", "entry-beyond-size",
        "repeated-entry", "falling-entry", "one-index-short", "one-index-more",
        "shift-index-without-value", "output-index-short"])
def test_malformed_v3_index_list_named(edit, field):
    # layer 1 is (11, 6): its 66 entries are listed by 12 indices
    assert len(VALID_V3_DOC["layers"][1]["weights_at"]) == 12
    raw = json.dumps(edit(VALID_V3_DOC)).encode()
    with pytest.raises(NetworkFormatError, match=f"^{field}"):
        deserialize(raw)


@pytest.mark.parametrize("layer,field", [
    ({"rows": 10**6, "cols": 10**6, "weights": [], "weights_at": [],
      "shifts": [], "shifts_at": []}, "layer 0 weights_at: 1000000000000 entries"),
    ({"rows": 10**9, "cols": 0, "weights": [], "shifts": [], "shifts_at": []},
     "layer 0 shifts_at: 1000000000 entries"),
])
def test_a_short_v3_document_cannot_declare_a_huge_layer(layer, field):
    raw = json.dumps({"version": 3, "input_dim": layer["cols"], "layers": [layer],
                      "output": {"rows": 1, "cols": layer["rows"], "weights": [],
                                 "weights_at": []}}).encode()
    assert len(raw) < 250
    tracemalloc.start()
    try:
        with pytest.raises(NetworkFormatError, match=f"^{field}, above the file "
                                                     "format's limit of 50000000$"):
            deserialize(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_block_one_bit_off_is_refused_and_the_shared_block_stays(fresh_blocks):
    doc = json.loads(serialize(_interp(2, 2)))
    weights = doc["layers"][3]["weights"]
    weights[0] = float(np.nextafter(weights[0], 2.0))
    shared = constructors.shared_block(2)
    with pytest.raises(NetworkFormatError, match=r"^layer 3 is not the spike block of the "
                                                 r"grid ScaledGrid\(t=2, R=1.0, N=2\)$"):
        deserialize(json.dumps(doc).encode())
    assert constructors.shared_block(2) is shared
    for mine, real in zip(shared.layers, build_spike_net(2).layers, strict=True):
        assert np.array_equal(_bits(mine.weights), _bits(real.weights))
        assert np.array_equal(_bits(mine.shifts), _bits(real.shifts))


def test_full_pass_output_stage_within_the_budget(monkeypatch):
    # the last layer is the widest: its output stage's index and term
    # arrays must fit the budget beside it
    rng = np.random.default_rng(33)
    net = ReluNetwork(4, [Layer(rng.standard_normal((4000, 4)), np.zeros(4000))],
                      rng.standard_normal((1, 4000)))
    X = rng.uniform(-1.0, 1.0, (2000, 4))
    budget = 16 << 20
    tracemalloc.start()
    try:
        with monkeypatch.context() as m:
            m.setattr(relu_net, "_BATCH_BYTES", budget)
            chunked = forward(net, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * budget
    assert np.array_equal(chunked, forward(net, X))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3))
def test_forward_deterministic_and_pure(seed, dim, layers):
    rng = np.random.default_rng(seed)
    net = random_net(rng, dim, [rng.integers(1, 5) for _ in range(layers)])
    x = rng.uniform(-5, 5, dim)
    first = evaluate(net, x)
    assert evaluate(net, x) == first


def _with_signed_zeros(rng, a, share=0.2):
    """``a`` with about ``share`` of its entries set to -0.0, in place."""
    a[rng.random(a.shape) < share] = -0.0
    return a


def _points_with_zeros(rng, n, dim, scale):
    """n points, about a fifth of their coordinates +0.0 or -0.0."""
    X = rng.uniform(-scale, scale, (n, dim))
    at = rng.random((n, dim)) < 0.2
    X[at] = rng.choice([0.0, -0.0], at.sum())
    return X


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.lists(st.integers(0, 9), max_size=3), st.integers(1, 3),
       st.sampled_from([1.0, 0.3]))
def test_forward_is_the_csr_full_pass(seed, dim, widths, out_rows, density):
    # dense and sparse weights, shifts and output entries of -0.0 among
    # them, on points with zero coordinates of both signs
    rng = np.random.default_rng(seed)
    layers, output = random_arrays(rng, dim, widths, out_rows, density)
    for weights, shifts in layers:
        _with_signed_zeros(rng, weights)
        _with_signed_zeros(rng, shifts)
    net = ReluNetwork(dim, layers, _with_signed_zeros(rng, output))
    X = _points_with_zeros(rng, 40, dim, 3.0)
    got = forward(net, X)
    assert np.array_equal(got, _full_pass(expand_blocks(net), X))
    assert (got + 0.0).tobytes() == got.tobytes()  # no -0.0 value
    assert np.array_equal(forward(net, X[0]), got[0])


PAPER_NETS = {**{f"min{d}": (build_min_net, d) for d in (2, 3, 6, 12)},
              **{f"spike{t}": (build_spike_net, t) for t in (1, 2, 3, 5)}}


@functools.lru_cache(maxsize=None)
def _paper_net(name):
    build, size = PAPER_NETS[name]
    return build(size)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(PAPER_NETS)), st.integers(0, 2**32 - 1),
       st.sampled_from([0.5, 1.5, 100.0]))
def test_min_and_spike_nets_are_the_csr_full_pass(name, seed, scale):
    net = _paper_net(name)
    X = _points_with_zeros(np.random.default_rng(seed), 30, net.input_dim, scale)
    assert np.array_equal(forward(net, X), _full_pass(expand_blocks(net), X))


# Every interpolation-net shape (t, N) the suite builds at N <= 8, each with
# a radius the suite uses for it; the criterion-6 nets (t = 1, 3, 5) come
# from the rate experiment's measured radii.
INTERP_SHAPES = [
    (1, 2, 0.6729), (1, 4, 1.0), (1, 6, 1.0), (1, 8, 0.7548),
    (2, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0), (2, 5, 0.8), (2, 6, 1.0), (2, 8, 1.0),
    (3, 1, 0.9639), (3, 2, 1.3), (3, 3, 0.9935), (3, 4, 1.1969), (3, 6, 0.7956),
    (3, 7, 0.9639), (3, 8, 0.9265), (4, 1, 1.0),
    (5, 2, 0.9978), (5, 3, 1.0152), (5, 4, 0.7548), (5, 7, 1.0535), (5, 8, 1.0535),
    (9, 1, 0.7106),
]


def equivalence_points(rng, grid, k):
    """k points each: inside the cube, on lattice nodes, on cell faces, on
    the cube boundary and outside it (one of them far out)."""
    t, R, h = grid.t, grid.R, grid.h
    inside = rng.uniform(-R, R, (k, t))
    nodes = grid.node_array()[rng.choice(grid.node_count, min(k, grid.node_count),
                                         replace=False)]
    faces = rng.uniform(-R, R, (k, t))
    axis = rng.integers(0, t, k)
    faces[np.arange(k), axis] = -R + h * rng.integers(0, grid.N + 1, k)
    boundary = rng.uniform(-R, R, (k, t))
    boundary[np.arange(k), axis] = rng.choice((-R, R), k)
    outside = rng.uniform(-R, R, (k, t))
    outside[np.arange(k), axis] = rng.choice((-1.0, 1.0), k) * rng.uniform(R, 3 * R, k)
    outside[0] = 1e3 * R
    return np.vstack([inside, nodes, faces, boundary, outside])


def _box_pairs(X, grid):
    """(point, node) pairs of the per-axis window alone: every node within
    (1 + SUPPORT_SLACK) cells of the point on each axis, the 2^t to 3^t
    nodes support_pairs chose before it checked the spike's pair forms."""
    u = np.clip((X + grid.R) / grid.h, -2.0, grid.N + 2.0)
    lo = np.maximum(np.ceil(u - 1.0 - SUPPORT_SLACK), 0)
    hi = np.minimum(np.floor(u + 1.0 + SUPPORT_SLACK), grid.N)
    idx = np.stack(np.unravel_index(np.arange(grid.node_count),
                                    (grid.N + 1,) * grid.t), axis=-1)
    return np.nonzero(((idx >= lo[:, None]) & (idx <= hi[:, None])).all(axis=2))


class TestPrunedForward:
    """forward of interpolation nets, over each point's candidate copies,
    against the full pass over every copy."""

    @pytest.mark.parametrize("t,N,R", INTERP_SHAPES)
    def test_matches_full_pass(self, t, N, R):
        rng = np.random.default_rng(1000 * t + N)
        grid = ScaledGrid(t, R, N)
        spec = InterpolationSpec(grid, rng.uniform(-3.0, 3.0, grid.node_count))
        net = build_interpolation_net(spec)
        assert net.grid == grid
        # the full pass of the largest nets costs seconds per chunk
        k = 4 if grid.node_count * t**4 > 1e6 else 40
        X = equivalence_points(rng, grid, k)
        pruned = forward(net, X)
        back = deserialize(serialize(net))
        assert back.grid == grid
        assert np.array_equal(forward(back, X), pruned)
        assert count_nonzero(back) == count_nonzero(net)
        assert nonzero_breakdown(back) == nonzero_breakdown(net)
        reference = expand_blocks(net)
        full = _full_pass(reference, X)
        # one summation order, same block weights, exact zeros elsewhere:
        # bit-equal, which is within 1e-15 * max(1, max |node value|)
        assert np.array_equal(pruned, full), np.abs(pruned - full).max()
        for x in X[:: max(1, len(X) // 3)]:
            assert np.array_equal(forward(net, x),
                                  _full_pass(reference, x[None])[0])
        assert evaluate_batch(net, X[-k:])[0] == 0.0  # the far-out point

    @pytest.mark.parametrize("t,R", [(1, 1.0), (3, 1.1969), (5, 0.7548)])
    def test_the_rate_experiment_s_points(self, t, R):
        # the criterion-6 nets at N = 4: each m=0 row samples a point on the
        # cube's face (u = N), and points near a simplex face are generic
        # just past GENERIC_GAP or tie points just inside it
        grid = ScaledGrid(t, R, 4)
        rng = np.random.default_rng(800 + t)
        net = build_interpolation_net(
            InterpolationSpec(grid, rng.uniform(-3.0, 3.0, grid.node_count)))
        k = 4 if t == 5 else 16
        X = rng.uniform(-R, R, (3 * k, t))
        X[0, 0], X[1, -1] = R, -R
        gap = rng.choice((-5e-6, -3e-6, 3e-6, 5e-6), (2 * k, 1))
        # offsets gap cells off a cell face, then gap cells from each other
        X[k : 2 * k, :1] = -R + grid.h * (rng.integers(0, 4, (k, 1)) + 0.5 + gap[:k])
        X[2 * k :, -1:] = X[2 * k :, :1] + grid.h * gap[k:]
        pruned = forward(net, X)
        assert np.array_equal(pruned, _full_pass(expand_blocks(net), X))

    def test_lattice_nodes_of_a_non_dyadic_grid(self):
        # at a node, a neighbour's first-layer form rounds to about +-1e-16;
        # a candidate window with no slack misses that neighbour here and
        # the sum differs from the full pass in the last bit
        grid = ScaledGrid(2, 1.295091801838947, 6)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        X = grid.node_array()
        assert np.array_equal(forward(net, X),
                              _full_pass(expand_blocks(net), X))

    @pytest.mark.parametrize("t,N", [(2, 6), (3, 4), (4, 2), (5, 2), (7, 2)])
    def test_every_dropped_pair_is_an_exact_zero(self, t, N):
        # the grid of test_lattice_nodes_of_a_non_dyadic_grid, at more t
        grid = ScaledGrid(t, 1.295091801838947, N)
        rng = np.random.default_rng(40 + t)
        X = equivalence_points(rng, grid, 6)
        # on a diagonal face of the triangulation: two offsets one cell apart
        diagonal = rng.uniform(-grid.R, grid.R - grid.h, (6, t))
        diagonal[:, 1] = diagonal[:, 0] + grid.h
        X = np.vstack([X, diagonal])
        box_point, box_node = _box_pairs(X, grid)
        point, node = support_pairs(X, grid)
        kept = set(zip(point.tolist(), node.tolist()))
        box = list(zip(box_point.tolist(), box_node.tolist()))
        assert kept <= set(box)
        p, i = np.array([pair for pair in box if pair not in kept]).T
        # a generic point inside keeps t + 1 of its 2^t box nodes
        assert np.all(np.bincount(p, minlength=len(X))[:6] == 2**t - t - 1)
        assert np.all(spike((X[p] - grid.nodes(i)) / grid.h) == 0.0)
        # every copy's last hidden unit: each identity row has one term
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        copies = _full_pass(expand_blocks(net, np.eye(grid.node_count)), X)
        assert np.all(copies[p, i] == 0.0)

    def test_empty_batch_on_both_passes_and_the_oracle(self):
        grid = ScaledGrid(2, 1.0, 4)
        spec = InterpolationSpec(grid, np.arange(grid.node_count, dtype=float))
        net = build_interpolation_net(spec)
        X = np.empty((0, 2))
        for got in (forward(net, X), forward(dense_expansion(net), X),
                    _full_pass(expand_blocks(net), X)):
            assert got.shape == (0, 1)
        assert evaluate_batch(net, X).shape == (0,)
        assert interpolant_values(spec, X).shape == (0,)
        plain = random_net(np.random.default_rng(3), 2, [4], out_rows=3)
        assert forward(plain, X).shape == (0, 3)

    def test_multi_chunk_batch_and_activation_budget(self, monkeypatch):
        rng = np.random.default_rng(30)
        grid = ScaledGrid(3, 1.0, 4)
        net = build_interpolation_net(
            InterpolationSpec(grid, rng.standard_normal(grid.node_count)))
        widest_block = max(l.rows for l in net.layers)
        budget = 1 << 17
        runs = []
        real = relu_net.support_pairs

        def recording(pts, g):
            point, node = real(pts, g)
            runs.append((pts.shape[0], point.shape[0]))
            return point, node

        monkeypatch.setattr(relu_net, "support_pairs", recording)
        monkeypatch.setattr(relu_net, "_BATCH_BYTES", budget)
        X = rng.uniform(-1.2, 1.2, (3000, 3))
        pruned = forward(net, X)
        assert len(runs) > 1
        for points, pairs in runs:
            # a chunk's pairs, run at once, would hold their activations
            assert 8 * pairs * widest_block <= budget
            assert 8 * min(pairs, relu_net._PAIR_RUN) * widest_block <= budget
        assert np.array_equal(pruned,
                              _full_pass(expand_blocks(net), X))

    def test_chunks_follow_pairs_not_copies(self, monkeypatch):
        # 35 937 copies; a (copies x points) chunk under this budget would
        # hold less than one point
        rng = np.random.default_rng(31)
        grid = ScaledGrid(3, 1.0, 32)
        net = build_interpolation_net(
            InterpolationSpec(grid, rng.standard_normal(grid.node_count)))
        widest_block = max(l.rows for l in net.layers)
        budget = 1 << 20
        # at most 2^(t+1) - 1 = 15 candidate pairs per point
        chunk = budget // (8 * (2**4 - 1) * widest_block)
        sizes = []
        real = relu_net.support_pairs

        def recording(pts, g):
            sizes.append(pts.shape[0])
            return real(pts, g)

        monkeypatch.setattr(relu_net, "support_pairs", recording)
        X = rng.uniform(-1.0, 1.0, (2 * chunk + 5, 3))
        with monkeypatch.context() as m:
            m.setattr(relu_net, "_BATCH_BYTES", budget)
            chunked = forward(net, X)
        assert sizes == [chunk, chunk, 5]
        sizes.clear()
        assert np.array_equal(chunked, forward(net, X))
        assert sizes == [X.shape[0]]

    def test_peak_memory_does_not_follow_the_copies(self):
        rng = np.random.default_rng(32)
        X = rng.uniform(-1.0, 1.0, (64, 3))
        peaks = {}
        for N in (4, 32):
            grid = ScaledGrid(3, 1.0, N)
            net = build_interpolation_net(
                InterpolationSpec(grid, rng.standard_normal(grid.node_count)))
            forward(net, X[:1])  # makes the block's index forms
            tracemalloc.start()
            try:
                forward(net, X)
                peaks[N] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 35 937 copies x 64 points of float64 would be 18.4 MB
        assert peaks[32] <= peaks[4] + (16 << 10), peaks
        assert peaks[32] < 1 << 20, peaks

    @pytest.mark.parametrize("t,N,R", [(2, 3, 1.0), (2, 5, 0.8), (3, 2, 1.3),
                                       (3, 4, 1.1969)])
    def test_sums_each_point_in_ascending_node_order(self, t, N, R):
        rng = np.random.default_rng(100 * t + N)
        grid = ScaledGrid(t, R, N)
        values = rng.uniform(-3.0, 3.0, grid.node_count)
        net = build_interpolation_net(InterpolationSpec(grid, values))
        X = equivalence_points(rng, grid, 2)
        # every copy's last hidden unit: each identity row has one term
        psi = _full_pass(expand_blocks(net, np.eye(grid.node_count)), X)
        point, node = support_pairs(X, grid)
        want = []
        for p in range(X.shape[0]):
            total = 0.0
            for i in np.sort(node[point == p]):
                total += float(values[i]) * float(psi[p, i])
            want.append(total)
        assert np.array_equal(forward(net, X)[:, 0], want)

    def test_only_a_reloaded_net_keeps_the_grid(self):
        grid = ScaledGrid(2, 1.0, 2)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        assert deserialize(serialize(net)).grid == grid
        assert expand_blocks(net).grid is None
        assert deserialize(serialize(dense_expansion(net))).grid is None

    def test_grid_must_match_the_blocks(self):
        # a spike net reads one output unit; a 9-node grid makes 9 of them
        net = build_spike_net(2)
        with pytest.raises(ValueError, match="expects 1 inputs, got 1 x 9 grid nodes"):
            ReluNetwork(2, net.layers, net.output, grid=ScaledGrid(2, 1.0, 2))


def _index_product(layer, h):
    return relu_net._index_product(layer.form, h)


def _buffer_layer(form, h):
    """relu_net._index_layer on inputs h (cols, points) at the end of a
    buffer with room above them: the rows it writes.  Every other row of
    the buffer and its spare is nan, so a read outside the input shows in
    the result."""
    rows = max(form.rows, form.cols) + 3
    buf, spare = np.full((2, rows, h.shape[1]), np.nan)
    buf[rows - form.cols :] = h
    out, _ = relu_net._index_layer(form, buf, spare)
    return out[rows - form.rows :]


def _zero_signed_inputs(rng, cols, points, signed):
    """(cols, points) inputs holding +0.0, -0.0, repeated small values (so
    that terms cancel) and random ones; negative ones too if ``signed``."""
    h = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0], size=(cols, points))
    mask = rng.random((cols, points)) < 0.3
    h[mask] = rng.uniform(0.0, 3.0, mask.sum())
    if signed:
        h *= rng.choice([-1.0, 1.0], size=h.shape)
    return h


class TestBlockIndexForm:
    """The index form of a grid net's dense block that the pruned pass
    multiplies by."""

    @pytest.mark.parametrize("t", range(1, 8))
    def test_product_is_the_csr_product(self, t):
        rng = np.random.default_rng(70 + t)
        grid = ScaledGrid(t, 1.295091801838947, 3)
        scaled = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        layers = [(l, j == 0) for j, l in enumerate(build_spike_net(t).layers)]
        layers.append((scaled.layers[0], True))
        for layer, signed in layers:
            h = _zero_signed_inputs(rng, layer.cols, 64, signed)
            got, want = _index_product(layer, h), sp.csr_matrix(layer.weights) @ h
            assert np.array_equal(got, want)
            # equal bits once each zero is +0.0
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
            if not signed:
                # relu changes only the rows the form names
                left = np.ones(layer.rows, dtype=bool)
                for rows in layer.form.relu:
                    left[rows] = False
                assert np.array_equal(np.maximum(want[left], 0.0), want[left])

    @pytest.mark.parametrize("seed", range(6))
    def test_layer_is_the_csr_layer(self, seed):
        # rows of 0-4 nonzeros in runs and alone, weights of both signs and
        # units, shifts of both signs and zero, on relu outputs
        rng = np.random.default_rng(seed)
        rows, cols = 40, 12
        count = np.resize(np.repeat(rng.integers(0, 5, 12), rng.integers(1, 6, 12)), rows)
        w = np.zeros((rows, cols))
        for r, k in enumerate(count):
            at = rng.choice(cols, k, replace=False)
            w[r, at] = rng.choice([1.0, -1.0, 0.37, -2.5, 1e-3], k)
        shifts = rng.choice([0.0, 0.0, 0.25, -0.75], rows) * (seed % 3 != 0)
        layer = Layer(w, shifts)
        h = _zero_signed_inputs(rng, cols, 50, signed=False)
        form = layer.form
        got = _buffer_layer(form, h)
        want = np.maximum(sp.csr_matrix(w) @ h + shifts[:, None], 0.0)
        assert np.array_equal(got, want)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        assert (form.shifts is None) == (seed % 3 == 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_a_carried_run_stays_in_place(self, seed):
        # a run of rows that copy input rows with weight 1.0, no shift and
        # no relu, row r from input row r + cols - rows, among rows of two
        # or three terms with shifts: its rows are not computed, and the
        # layer is still the CSR layer
        rng = np.random.default_rng(60 + seed)
        rows, cols = (30, 34) if seed % 2 else (34, 30)
        lo, hi = 6, 24
        w = np.zeros((rows, cols))
        for r in range(rows):
            at = rng.choice(cols, rng.integers(2, 4), replace=False)
            w[r, at] = rng.choice([1.0, -1.0, 0.37, -2.5], at.size)
        w[lo:hi] = 0.0
        w[np.arange(lo, hi), np.arange(lo, hi) + cols - rows] = 1.0
        shifts = rng.choice([0.0, 0.25, -0.75], rows) * (seed % 3 != 0)
        shifts[lo:hi] = 0.0
        form = Layer(w, shifts).form
        assert form.kept == slice(lo, hi)
        assert all(rows_ != form.kept for rows_, _ in form.runs)
        h = _zero_signed_inputs(rng, cols, 50, signed=False)
        got = _buffer_layer(form, h)
        want = np.maximum(sp.csr_matrix(w) @ h + shifts[:, None], 0.0)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        assert np.array_equal(_index_product(Layer(w, shifts), h), sp.csr_matrix(w) @ h)
        # with a shift the run is computed like any other
        shifts = shifts.copy()
        shifts[lo:hi] = 0.25
        form = Layer(w, shifts).form
        assert form.kept is None
        want = np.maximum(sp.csr_matrix(w) @ h + shifts[:, None], 0.0)
        assert (_buffer_layer(form, h) + 0.0).tobytes() == (want + 0.0).tobytes()

    @pytest.mark.parametrize("t,kept", [(5, 756), (7, 2862)])
    def test_the_block_s_carried_units_stay_in_place(self, t, kept):
        # of the 812 rows per pair that copy a unit at t=5 (2970 at t=7),
        # all but the two each layer moves to its front are not computed
        forms = [l.form for l in build_spike_net(t).layers[1:]]
        assert sum(f.kept.stop - f.kept.start for f in forms if f.kept) == kept
        assert sum(f.kept is None for f in forms) == 3

    def test_repeated_evaluate_builds_it_once(self, monkeypatch):
        grid = ScaledGrid(2, 1.0, 4)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        made = []
        real = relu_net._IndexForm

        def counting(*args):
            made.append(1)
            return real(*args)

        monkeypatch.setattr(relu_net, "_IndexForm", counting)
        values = [evaluate(net, x) for x in np.linspace(-1.0, 1.0, 12).reshape(6, 2)]
        assert len(made) == len(net.layers)
        assert values == [evaluate(net, x) for x in np.linspace(-1.0, 1.0, 12).reshape(6, 2)]
        assert len(made) == len(net.layers)

    def test_cannot_go_stale(self):
        grid = ScaledGrid(2, 1.0, 2)
        nets = [(build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count))),
                 np.array([0.1, -0.2])),
                (build_min_net(3), np.array([0.7, 0.3, 0.9]))]
        for net, x in nets:
            before = evaluate(net, x)
            assert before > 0.0
            layer = net.layers[-1]
            old = layer.form
            with pytest.raises(ValueError, match="read-only"):
                layer.weights[0, 0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                layer.shifts[0] = 2.0
            assert layer.form is old
            assert evaluate(net, x) == before


class TestFixedWhenMade:
    """A net, its layers and its node values cannot change after they are
    made: each change raises a named error, and the net's values stay."""

    @staticmethod
    def _net(values=None):
        grid = ScaledGrid(2, 1.0, 4)
        if values is None:
            values = np.arange(grid.node_count, dtype=float)
        spec = InterpolationSpec(grid, values)
        return spec, build_interpolation_net(spec)

    def test_fields_cannot_be_assigned(self):
        _, net = self._net()
        before = evaluate(net, [0.1, 0.2])
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.grid = ScaledGrid(2, 2.0, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.output = np.zeros_like(net.output)
        assert evaluate(net, [0.1, 0.2]) == before

    def test_a_shared_block_layer_cannot_be_assigned(self):
        # wrong-shaped weights on a layer would reach every net holding it
        block = build_spike_net(2)
        spec, _ = self._net()
        nets = [build_interpolation_net(spec, block) for _ in range(2)]
        before = [evaluate(net, [0.1, 0.2]) for net in nets]
        layer = block.layers[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.weights = np.ones((3, 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.shifts = np.zeros(layer.rows)
        assert [evaluate(net, [0.1, 0.2]) for net in nets] == before

    def test_nets_that_share_a_block_count_its_layers_once(self, monkeypatch):
        # a block layer's nonzeros are counted on first use and kept
        block = build_spike_net(2)
        spec, _ = self._net()
        nets = [build_interpolation_net(spec, block) for _ in range(3)]
        want = [nonzero_breakdown(net) for net in (self._net()[1],) * 3]
        read = []
        real = relu_net._nnz
        monkeypatch.setattr(relu_net, "_nnz", lambda w: read.append(id(w)) or real(w))
        got = []
        for net in nets:
            got += [count_nonzero(net), nonzero_breakdown(net)]
        assert got[1::2] == want and got[::2] == [b["total"] for b in want]
        for layer in block.layers[1:]:
            assert read.count(id(layer.weights)) == read.count(id(layer.shifts)) == 1
        # each net's own first layer, once
        for net in nets:
            assert read.count(id(net.layers[0].weights)) == 1

    def test_layers_cannot_be_appended(self):
        _, net = self._net()
        with pytest.raises(AttributeError):
            net.layers.append(Layer(np.ones((1, 1)), np.zeros(1)))
        assert depth(net) == 2 * 2 + 2 + 1

    def test_node_values_are_read_only(self):
        values = np.arange(25, dtype=float)
        spec, net = self._net(values)
        before = (evaluate(net, [0.1, 0.2]), count_nonzero(net))
        for write in (lambda: values.__setitem__(7, np.nan),
                      lambda: values.__setitem__(7, 0.0),
                      lambda: spec.node_values.__setitem__(7, 0.0),
                      lambda: net.output.__setitem__((0, 7), 0.0)):
            with pytest.raises(ValueError, match="read-only"):
                write()
        assert (evaluate(net, [0.1, 0.2]), count_nonzero(net)) == before

    def test_a_copied_caller_array_stays_writable(self):
        # integer values are converted, so the spec keeps its own copy
        values = np.arange(25)
        spec, _ = self._net(values)
        values[7] = -1
        assert spec.node_values[7] == 7.0
        with pytest.raises(ValueError, match="read-only"):
            spec.node_values[7] = 0.0

    def test_nets_of_one_block_share_the_block_s_forms(self):
        block = build_spike_net(2)
        nets = [build_interpolation_net(InterpolationSpec(ScaledGrid(2, R, N),
                                                          np.ones((N + 1) ** 2)), block)
                for R, N in ((1.0, 2), (0.7, 5))]
        for net in nets:
            evaluate(net, [0.1, 0.2])
        for mine, theirs, shared in zip(*(n.layers[1:] for n in nets), block.layers[1:]):
            assert mine.form is theirs.form is shared.form
        # the first layer is each net's own, scaled to its cell
        assert nets[0].layers[0] is not nets[1].layers[0]


# Builds, counts, round-trips and runs a grid net, then a tiny rate
# experiment, `funcrelu run` and every `funcrelu verify` check; prints
# nothing but fails on the first assert that does not hold.
_IMPORT_SCRIPT = """
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import funcrelu
from funcrelu import cli, pipeline, relu_net, verify
from funcrelu.constructors import InterpolationSpec, build_interpolation_net
from funcrelu.discretize import make_operator
from funcrelu.functions import get_function
from funcrelu.simplicial import ScaledGrid


def no_scipy():
    assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)


grid = ScaledGrid(3, 1.0, 4)
net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
assert relu_net.count_nonzero(net) == relu_net.nonzero_breakdown(net)["total"]
back = relu_net.deserialize(relu_net.serialize(net))
assert back.grid == grid
no_scipy()
relu_net.forward(back, np.zeros(3))
relu_net.forward(net, np.random.default_rng(0).uniform(-1.0, 1.0, (20, 3)))
no_scipy()
functional = pipeline.inner_product_functional(get_function("slow-series"),
                                               make_operator(1, 2).rule)
cfg = pipeline.ExperimentConfig(
    s=1, p=2.0, functional=functional,
    input_class=pipeline.InputClass("hoelder_ball", beta=2.0, sample_count=8, seed=3),
    m_values=(0, 1), N_values=(2, 4), node_cap=100, ladder=True,
    ladder_weight_cap=100_000)
assert pipeline.run_rate_experiment(cfg).completed()
no_scipy()
with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "config.json"
    config.write_text(json.dumps({
        "functional": {"name": "inner-product", "g": "slow-series"},
        "input_class": {"sample_count": 8, "seed": 3},
        "m_values": [0, 1], "N_values": [2, 4], "budget_ladder": False}))
    cli.main(["run", "--config", str(config), "--out-dir", str(Path(tmp) / "out")])
no_scipy()
failed = [res.name for _, res in verify.run_all() if not res.passed]
assert not failed, failed
no_scipy()
"""


def test_src_never_loads_scipy():
    src = Path(relu_net.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _node_run_shift_nnz(grid, run=1 << 14):
    """The reference count of a grid net's nonzero first-layer shifts:
    every copy's shifts, computed over runs of grid nodes."""
    n = grid.node_count
    runs = (np.arange(lo, min(lo + run, n)) for lo in range(0, n, run))
    return sum(int(np.count_nonzero(relu_net._grid_shifts(grid, r))) for r in runs)


def _record_centres(monkeypatch) -> list:
    """The number of centres of each spike_shifts call relu_net makes."""
    centres = []
    real = relu_net.spike_shifts

    def recording(t, scale, center):
        centres.append(len(center))
        return real(t, scale, center)

    monkeypatch.setattr(relu_net, "spike_shifts", recording)
    return centres


# Shapes whose shift terms cancel to exact zeros at some nodes, and shapes
# where none do; the radii other than 1.0 are measured sweep radii.
SHIFT_COUNT_SHAPES = (
    [(1, N, R) for N in (1, 2, 5, 8, 13, 20) for R in (1.0, 0.6729)]
    + [(2, N, R) for N in (2, 3, 4, 7, 12, 20) for R in (1.0, 1.295091801838947)]
    + [(3, N, R) for N in (1, 2, 6, 9, 20) for R in (1.0, 0.9639)]
    + [(5, N, R) for N in (2, 3, 4, 8) for R in (1.0, 1.0535)]
    + [(9, N, R) for N in (1, 2) for R in (1.0, 0.7106)]
)


class TestGridShifts:
    """First-layer shifts of interpolation nets, computed from the grid."""

    def test_count_makes_no_per_node_shift_call(self, monkeypatch):
        grid = ScaledGrid(3, 1.0, 32)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        centres = _record_centres(monkeypatch)
        breakdown = nonzero_breakdown(net)
        assert breakdown["total"] == count_nonzero(net) == 7_821_396
        # one axis and one plane of nodes per count, never the grid's
        assert centres == [33, 33 * 33] * 2

    def test_a_long_axis_is_read_in_node_runs(self, monkeypatch):
        grid = ScaledGrid(2, 1.0, 150)
        centres = _record_centres(monkeypatch)
        count = relu_net._shift_nnz(grid)
        # the 151-node axis, then the 22 801-node plane in two runs
        assert centres == [151, relu_net._NODE_RUN, 151 * 151 - relu_net._NODE_RUN]
        monkeypatch.undo()
        assert count == _node_run_shift_nnz(grid)

    @pytest.mark.parametrize("t,N,R", SHIFT_COUNT_SHAPES)
    def test_count_equals_the_node_run_count(self, t, N, R, monkeypatch):
        grid = ScaledGrid(t, R, N)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        count, breakdown = count_nonzero(net), nonzero_breakdown(net)
        monkeypatch.setattr(relu_net, "_shift_nnz", _node_run_shift_nnz)
        assert count == count_nonzero(net)
        assert breakdown == nonzero_breakdown(net)
        # a dyadic cell puts exact lattice centres on the nodes, whose shift
        # terms cancel: those zeros are not counted
        if R == 1.0 and N in (2, 4, 8):
            assert breakdown["per_layer"][0]["shifts"] < grid.node_count * (t * t + t)

    def test_a_grid_net_of_another_depth_is_refused(self):
        # depth 2 on R^1, not 3: forward would run it as a spike block and
        # give -1.4 at y = -0.9, where the pass over every copy gives 13.3
        grid = ScaledGrid(1, 1.0, 4)
        good = build_interpolation_net(InterpolationSpec(grid, [0.3, -1.0, 2.0, 0.5, 1.5]))
        short = [good.layers[0], Layer(np.ones((1, 2)), np.zeros(1))]
        with pytest.raises(ValueError, match=r"a grid net has 2 layers; the spike "
                                             r"block on R\^1 has 3"):
            ReluNetwork(1, short, good.output, grid=grid)

    def test_the_first_layer_of_another_shape_is_named(self):
        grid = ScaledGrid(1, 1.0, 4)
        good = build_interpolation_net(InterpolationSpec(grid, np.ones(5)))
        first, second, last = good.layers
        wide = [first, Layer(np.ones((4, 2)), np.zeros(4)), Layer(np.ones((1, 4)), np.zeros(1))]
        with pytest.raises(ValueError, match=r"layer 1 has shape \(4, 2\); the spike "
                                             r"block on R\^1 needs \(3, 2\)"):
            ReluNetwork(1, wide, good.output, grid=grid)
        ReluNetwork(1, [first, second, last], good.output, grid=grid)

    def test_first_block_must_hold_the_spike_forms(self):
        grid = ScaledGrid(2, 1.0, 2)
        n = grid.node_count
        first = Layer(np.ones((1, 2)), np.zeros(1))
        ReluNetwork(2, [first], np.ones((1, 1)))
        with pytest.raises(ValueError, match=r"a grid net has 1 layers; the spike "
                                             r"block on R\^2 has 7"):
            ReluNetwork(2, [first], np.ones((1, n)), grid=grid)


class TestPointShapes:
    """A point array of the wrong rank names the shapes it should have."""

    def test_forward_of_a_scalar(self):
        with pytest.raises(ValueError, match=r"shape \(2,\) or \(n, 2\), got \(\)"):
            forward(zero_net(2), 0.3)

    def test_forward_of_a_rank_3_array(self):
        with pytest.raises(ValueError, match=r"shape \(2,\) or \(n, 2\), got \(2, 2, 2\)"):
            forward(zero_net(2), np.zeros((2, 2, 2)))

    def test_evaluate_of_a_batch(self):
        grid = ScaledGrid(2, 1.0, 2)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        with pytest.raises(ValueError, match=r"shape \(2,\), got \(3, 2\)"):
            evaluate(net, np.zeros((3, 2)))

    def test_evaluate_batch_of_one_point(self):
        with pytest.raises(ValueError, match=r"shape \(n, 2\), got \(2,\)"):
            evaluate_batch(zero_net(2), np.zeros(2))

    def test_interpolant_values_of_a_scalar(self):
        grid = ScaledGrid(1, 1.0, 2)
        spec = InterpolationSpec(grid, np.ones(grid.node_count))
        with pytest.raises(ValueError, match=r"shape \(1,\) or \(n, 1\), got \(\)"):
            interpolant_values(spec, 0.3)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_on_both_paths(self, bad):
        grid = ScaledGrid(2, 1.0, 2)
        nets = [build_spike_net(2),
                build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))]
        for net in nets:
            x = np.array([0.1, bad])
            for call in (forward, evaluate):
                with pytest.raises(ValueError, match="non-finite"):
                    call(net, x)
            with pytest.raises(ValueError, match="non-finite"):
                evaluate_batch(net, np.vstack([np.zeros(2), x]))

    def test_overflow_named_on_the_full_pass(self):
        # first-layer forms overflow to +-inf and inf - inf enters the
        # minimum recursion: a named error, not nan
        grid = ScaledGrid(2, 1.0, 4)
        interp = build_interpolation_net(
            InterpolationSpec(grid, np.random.default_rng(5).standard_normal(grid.node_count)))
        spike_net = build_spike_net(2)
        for net, x in ((spike_net, [-1.7e308, 1.7e308]),
                       (dense_expansion(interp), [1e308, 0.0])):
            for call in (forward, evaluate):
                with pytest.raises(ValueError, match="overflow"):
                    call(net, np.array(x))
            with pytest.raises(ValueError, match="overflow"):
                evaluate_batch(net, np.vstack([np.zeros(2), x]))
        assert evaluate(interp, np.array([1e308, 0.0])) == 0.0
        # here no inf - inf arises once the zero weights are left out, as
        # the CSR full pass leaves them out
        x = np.array([[1.7e308, -1.7e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert _full_pass(expand_blocks(spike_net), x).tolist() == [[0.0]]
        assert evaluate(spike_net, x[0]) == 0.0

    def test_far_finite_point_has_value_zero(self):
        grid = ScaledGrid(2, 1.0, 2)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        assert evaluate(net, np.array([1e300, 0.0])) == 0.0
        assert evaluate(net, np.array([0.0, -1e300])) == 0.0

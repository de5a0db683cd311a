import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from funcrelu import relu_net
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
    compose_parallel,
    compose_serial,
    count_nonzero,
    depth,
    deserialize,
    evaluate,
    evaluate_batch,
    expand_blocks,
    forward,
    identity_net,
    nonzero_breakdown,
    pad_to_depth,
    serialize,
)
from funcrelu.simplicial import ScaledGrid, spike


def random_net(rng, input_dim, widths, out_rows=1, density=1.0):
    layers = []
    prev = input_dim
    for w in widths:
        W = rng.standard_normal((w, prev))
        if density < 1.0:
            W *= rng.random((w, prev)) < density
        layers.append(Layer(W, rng.standard_normal(w)))
        prev = w
    return ReluNetwork(input_dim, layers, rng.standard_normal((out_rows, prev)))


def zero_net(d=2):
    return ReluNetwork(d, [(np.zeros((3, d)), np.zeros(3))], np.zeros((1, 3)))


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
        # blas gemm vs gemv accumulation differs in the last bit, so the
        # comparison is tight-tolerance, not bitwise
        rng = np.random.default_rng(6)
        net = random_net(rng, 4, [7, 5])
        X = rng.standard_normal((32, 4))
        batch = evaluate_batch(net, X)
        singles = np.array([evaluate(net, x) for x in X])
        assert np.allclose(batch, singles, rtol=1e-13, atol=1e-13)
        assert np.array_equal(batch, evaluate_batch(net, X))

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError):
            ReluNetwork(1, [(np.array([[np.inf]]), np.zeros(1))], np.ones((1, 1)))


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


class TestComposeSerial:
    def test_identity_passthrough(self):
        rng = np.random.default_rng(8)
        f = random_net(rng, 3, [5, 4])
        composed = compose_serial(f, identity_net(3))
        X = rng.uniform(-2, 2, (100, 3))
        assert np.allclose(evaluate_batch(composed, X), evaluate_batch(f, X),
                           atol=1e-12)

    def test_min_recursion_gives_three_input_min_at_depth_two(self):
        # the d = 3 minimum as min(min(x1, x2), x3): inner stage emits the
        # pair (min(x1, x2), x3) in one hidden layer, outer is the 2-input min
        W = np.array([
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [-1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ])
        inner = ReluNetwork(3, [(W, np.zeros(5))],
                            np.array([[1.0, -1.0, -1.0, 0.0, 0.0],
                                      [0.0, 0.0, 0.0, 1.0, -1.0]]))
        net = compose_serial(build_min_net(2), inner)
        assert depth(net) == 2
        rng = np.random.default_rng(20)
        X = rng.uniform(-5, 5, (200, 3))
        assert np.abs(evaluate_batch(net, X) - X.min(axis=1)).max() <= 1e-12

    def test_matches_sequential_evaluation(self):
        rng = np.random.default_rng(9)
        inner = random_net(rng, 3, [6, 5], out_rows=4)
        outer = random_net(rng, 4, [5, 3])
        net = compose_serial(outer, inner)
        X = rng.uniform(-3, 3, (100, 3))
        direct = np.array([evaluate(outer, forward(inner, x)) for x in X])
        assert np.abs(evaluate_batch(net, X) - direct).max() <= 1e-12

    def test_associative_in_evaluation(self):
        rng = np.random.default_rng(10)
        h = random_net(rng, 2, [4], out_rows=3)
        g = random_net(rng, 3, [5], out_rows=2)
        f = random_net(rng, 2, [3])
        left = compose_serial(compose_serial(f, g), h)
        right = compose_serial(f, compose_serial(g, h))
        X = rng.uniform(-2, 2, (100, 2))
        assert np.abs(evaluate_batch(left, X) - evaluate_batch(right, X)).max() <= 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            compose_serial(random_net(rng, 3, [4]), random_net(rng, 2, [5], out_rows=2))


class TestComposeParallel:
    def test_single_net_coefficient_one(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, 2, [4, 3])
        par = compose_parallel([net], [1.0])
        X = rng.uniform(-2, 2, (100, 2))
        assert np.allclose(evaluate_batch(par, X), evaluate_batch(net, X), atol=1e-13)

    def test_cancellation_gives_zero(self):
        rng = np.random.default_rng(13)
        net = random_net(rng, 3, [5, 4])
        par = compose_parallel([net, net], [1.0, -1.0])
        X = rng.uniform(-5, 5, (100, 3))
        assert np.abs(evaluate_batch(par, X)).max() <= 1e-12

    def test_spike_combination_against_direct_sum(self):
        rng = np.random.default_rng(14)
        coeffs = rng.standard_normal(4)
        shifts = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, -1.0]),
                  np.array([1.0, 1.0])]
        nets = []
        for c in shifts:
            base = build_spike_net(2)
            first = base.layers[0]
            shifted = Layer(np.asarray(first.weights).copy(),
                            first.shifts - np.asarray(first.weights) @ c)
            nets.append(ReluNetwork(2, [shifted] + base.layers[1:], base.output))
        par = compose_parallel(nets, coeffs)
        Y = rng.uniform(-2.0, 2.0, (1000, 2))
        direct = sum(c * spike(Y - sh) for c, sh in zip(coeffs, shifts))
        assert np.abs(evaluate_batch(par, Y) - direct).max() <= 1e-10

    def test_count_is_sum_without_overhead(self):
        rng = np.random.default_rng(15)
        nets = [random_net(rng, 2, [3, 4]) for _ in range(3)]
        par = compose_parallel(nets, [2.0, -1.0, 0.5])
        assert count_nonzero(par) == sum(count_nonzero(n) for n in nets)

    def test_mixed_depth_rejected_and_padding_fixes(self):
        rng = np.random.default_rng(16)
        shallow = random_net(rng, 2, [3])
        deep = random_net(rng, 2, [4, 4])
        with pytest.raises(ValueError):
            compose_parallel([shallow, deep], [1.0, 1.0])
        padded = pad_to_depth(shallow, 2)
        X = rng.uniform(-2, 2, (50, 2))
        assert np.allclose(evaluate_batch(padded, X), evaluate_batch(shallow, X),
                           atol=1e-12)
        par = compose_parallel([padded, deep], [1.0, 1.0])
        assert np.allclose(
            evaluate_batch(par, X),
            evaluate_batch(padded, X) + evaluate_batch(deep, X),
            atol=1e-12,
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

    def test_oversized_sparse_layer_refused(self):
        # the dense row-major format is for desk-scale networks; a huge
        # sparse layer must be refused, not silently densified
        import scipy.sparse as sp

        wide = 100_000
        net = ReluNetwork(
            wide,
            [Layer(sp.csr_matrix((wide, wide)), np.zeros(wide))],
            np.zeros((1, wide)),
        )
        with pytest.raises(ValueError, match="too large"):
            serialize(net)

    def test_large_block_net_refused_before_expansion(self):
        grid = ScaledGrid(5, 1.0, 8)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too large"):
                serialize(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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
        doc = json.loads(serialize(net))
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
    def test_non_finite_weight_named(self, text):
        raw = serialize(build_min_net(2)).replace(
            b'"weights": [0.0', b'"weights": [' + text.encode(), 1)
        with pytest.raises(NetworkFormatError, match="non-finite"):
            deserialize(raw)


def _reference_serialize(net):
    """Reference for serialize: the document built as Python objects, every
    entry a float, and written by json.dumps."""
    def dense(w):
        if sp.issparse(w):
            w = w.toarray()
        return [float(v) for v in np.asarray(w, dtype=float).ravel()]

    net = expand_blocks(net)
    doc = {
        "version": relu_net.FORMAT_VERSION,
        "input_dim": net.input_dim,
        "layers": [
            {"rows": l.rows, "cols": l.cols, "weights": dense(l.weights),
             "shifts": [float(v) for v in l.shifts]}
            for l in net.layers
        ],
        "output": {"rows": net.output.shape[0], "cols": net.output.shape[1],
                   "weights": dense(net.output)},
    }
    return json.dumps(doc).encode("utf-8")


FLOATS = st.one_of(
    st.just(0.0),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                               max_side=12), elements=FLOATS))
@example(np.zeros(0))
@example(np.zeros((0, 3)))
@example(np.zeros((4, 5)))
@example(np.full(3, -0.0))
def test_float_list_writes_what_json_dumps_writes(a):
    assert "".join(relu_net._float_list(a)) == json.dumps([float(v) for v in a.ravel()])
    if a.ndim == 2:
        csr = sp.csr_matrix(a)
        assert "".join(relu_net._float_list(csr)) == json.dumps(
            [float(v) for v in csr.toarray().ravel()])


def _interp(t, N):
    grid = ScaledGrid(t, 1.0, N)
    values = np.random.default_rng(t * N).uniform(-1.0, 1.0, grid.node_count)
    values[0] = 0.0
    return build_interpolation_net(InterpolationSpec(grid, values))


def _signed_zero_net():
    net = random_net(np.random.default_rng(21), 3, [6, 5], out_rows=2)
    for l in net.layers:
        l.weights[l.weights < 0.2] = -0.0
    net.output[0, :2] = -0.0
    return net


SERIALIZED_NETS = {
    "min": lambda: build_min_net(3),
    "spike": lambda: build_spike_net(2),
    "identity": lambda: identity_net(3, 2),
    "zero": zero_net,
    "random": lambda: random_net(np.random.default_rng(18), 3, [5, 4], out_rows=2),
    "sparse-dense": lambda: random_net(np.random.default_rng(19), 4, [7, 6], density=0.3),
    "signed-zeros": _signed_zero_net,
    "parallel": lambda: compose_parallel(
        [random_net(np.random.default_rng(s), 2, [3, 4]) for s in (22, 23)],
        [1.5, -0.5]),
    "padded": lambda: pad_to_depth(random_net(np.random.default_rng(24), 2, [3]), 3),
    "interp-t2-N4": lambda: _interp(2, 4),
    "interp-t2-N8": lambda: _interp(2, 8),
    "interp-t3-N2": lambda: _interp(3, 2),
}


@pytest.mark.parametrize("name", list(SERIALIZED_NETS))
def test_serialize_writes_the_json_dumps_document(name):
    net = SERIALIZED_NETS[name]()
    raw = serialize(net)
    assert raw == _reference_serialize(net)
    back = deserialize(raw)
    assert serialize(back) == _reference_serialize(back) == raw


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
VALID_DOC = json.loads(serialize(build_min_net(3)))


def _deserializes_or_names_error(raw):
    try:
        net = deserialize(raw)
    except NetworkFormatError:
        return
    assert isinstance(net, ReluNetwork)
    assert serialize(deserialize(serialize(net))) == serialize(net)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_fuzz_any_bytes(raw):
    _deserializes_or_names_error(raw)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_json_paths(VALID_DOC))), st.booleans(), JSON_VALUES)
def test_fuzz_mutated_document(path, delete, value):
    doc = _mutated(VALID_DOC, path, value, delete)
    _deserializes_or_names_error(json.dumps(doc).encode())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3))
def test_forward_deterministic_and_pure(seed, dim, layers):
    rng = np.random.default_rng(seed)
    net = random_net(rng, dim, [rng.integers(1, 5) for _ in range(layers)])
    x = rng.uniform(-5, 5, dim)
    first = evaluate(net, x)
    assert evaluate(net, x) == first


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


class TestPrunedForward:
    """The pruned pass of interpolation nets against the full layer loop."""

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
        reference = expand_blocks(net)
        full = relu_net._full_forward(reference, X)
        # same chunks, same block weights, exact zeros elsewhere: bit-equal,
        # which is within 1e-15 * max(1, max |node value|)
        assert np.array_equal(pruned, full), np.abs(pruned - full).max()
        for x in X[:: max(1, len(X) // 3)]:
            assert np.array_equal(forward(net, x),
                                  relu_net._full_forward(reference, x[None])[0])
        assert evaluate_batch(net, X[-k:])[0] == 0.0  # the far-out point

    def test_lattice_nodes_of_a_non_dyadic_grid(self):
        # at a node, a neighbour's first-layer form rounds to about +-1e-16;
        # a candidate window with no slack misses that neighbour here and
        # the sum differs from the full pass in the last bit
        grid = ScaledGrid(2, 1.295091801838947, 6)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        X = grid.node_array()
        assert np.array_equal(forward(net, X),
                              relu_net._full_forward(expand_blocks(net), X))

    def test_multi_chunk_batch_and_activation_budget(self, monkeypatch):
        rng = np.random.default_rng(30)
        grid = ScaledGrid(3, 1.0, 4)
        net = build_interpolation_net(
            InterpolationSpec(grid, rng.standard_normal(grid.node_count)))
        n = grid.node_count
        widest_block = max(l.rows for l in net.layers)
        budget = 1 << 17
        runs = []
        real = relu_net.support_pairs

        def recording(pts, g):
            point, node = real(pts, g)
            runs.append((pts.shape[0], point.shape[0]))
            return point, node

        monkeypatch.setattr(relu_net, "support_pairs", recording)
        X = rng.uniform(-1.2, 1.2, (3000, 3))
        pruned = forward(net, X, max_batch_bytes=budget)
        assert len(runs) > 1
        for points, pairs in runs:
            assert 8 * n * points <= budget
            assert 8 * min(pairs, relu_net._PAIR_RUN) * widest_block <= budget
        assert np.array_equal(pruned,
                              relu_net._full_forward(expand_blocks(net), X, budget))

    def test_derived_nets_take_the_full_pass(self):
        grid = ScaledGrid(2, 1.0, 2)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        assert deserialize(serialize(net)).grid is None
        assert pad_to_depth(net, depth(net) + 1).grid is None
        assert compose_parallel([net], [1.0]).grid is None

    def test_grid_must_match_the_blocks(self):
        # a spike net reads one output unit; a 9-node grid makes 9 of them
        net = build_spike_net(2)
        with pytest.raises(ValueError, match="expects 1 inputs, got 1 x 9 grid nodes"):
            ReluNetwork(2, net.layers, net.output, grid=ScaledGrid(2, 1.0, 2))


class TestGridShifts:
    """First-layer shifts of interpolation nets, computed from the grid."""

    def test_breakdown_runs_the_shift_formula_once(self, monkeypatch):
        grid = ScaledGrid(3, 1.0, 32)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        calls = []
        real = relu_net.spike_forms

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(relu_net, "spike_forms", recording)
        breakdown = nonzero_breakdown(net)
        runs = -(-grid.node_count // relu_net._NODE_RUN)
        assert runs > 1 and len(calls) == runs
        assert breakdown["total"] == count_nonzero(net) == 7_821_396

    def test_first_block_must_hold_the_spike_forms(self):
        grid = ScaledGrid(2, 1.0, 2)
        n = grid.node_count
        first = Layer(np.ones((1, 2)), np.zeros(1))
        ReluNetwork(2, [first], np.ones((1, 1)))
        with pytest.raises(ValueError, match=r"not one spike block on R\^2, with 6 first"):
            ReluNetwork(2, [first], np.ones((1, n)), grid=grid)


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
        for net, x in ((build_spike_net(2), [1.7e308, -1.7e308]),
                       (deserialize(serialize(interp)), [1e308, 0.0])):
            for call in (forward, evaluate):
                with pytest.raises(ValueError, match="overflow"):
                    call(net, np.array(x))
            with pytest.raises(ValueError, match="overflow"):
                evaluate_batch(net, np.vstack([np.zeros(2), x]))
        assert evaluate(interp, np.array([1e308, 0.0])) == 0.0

    def test_far_finite_point_has_value_zero(self):
        grid = ScaledGrid(2, 1.0, 2)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        assert evaluate(net, np.array([1e300, 0.0])) == 0.0
        assert evaluate(net, np.array([0.0, -1e300])) == 0.0

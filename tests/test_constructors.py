import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag

from funcrelu.constructors import (
    InterpolationSpec,
    build_interpolation_net,
    build_min_net,
    build_spike_net,
    interpolant_values,
    interpolation_error_bound,
    min_net_nonzeros,
    spike_layer_shapes,
    spike_nominal_nonzeros,
)
from funcrelu.relu_net import (
    Layer,
    ReluNetwork,
    count_nonzero,
    depth,
    evaluate,
    evaluate_batch,
    forward,
    nonzero_breakdown,
    serialize,
)
from funcrelu.simplicial import (
    ScaledGrid,
    SimplexId,
    locate_batch,
    simplex_vertices,
    spike,
    spike_forms,
)
from test_relu_net import dense_expansion


def _parallel_sum(nets, coefficients):
    """The scalar net computing sum_i c_i * net_i(x), written densely: the
    first layers stacked on the shared input, the deeper layers block
    diagonal, the output row the scaled output rows side by side.  The
    reference for the grid net's block assembly."""
    layers = [Layer(np.vstack([n.layers[0].weights for n in nets]),
                    np.concatenate([n.layers[0].shifts for n in nets]))]
    for j in range(1, depth(nets[0])):
        layers.append(Layer(block_diag(*(n.layers[j].weights for n in nets)),
                            np.concatenate([n.layers[j].shifts for n in nets])))
    out = np.hstack([c * n.output for c, n in zip(coefficients, nets)])
    return ReluNetwork(nets[0].input_dim, layers, out)


def _reference_min_nets(d: int):
    """The minimum networks on 2, 3, ..., d inputs by the recursion, which
    rebuilds every earlier layer at each step: the reference for the
    closed-form layers."""
    layers = [(np.array([[0.0, 1.0], [0.0, -1.0], [-1.0, 1.0]]), np.zeros(3))]
    a = np.array([[1.0, -1.0, -1.0]])
    yield ReluNetwork(2, layers, a)
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
        yield ReluNetwork(k, layers, a)


def _reference_min_net(d: int) -> ReluNetwork:
    *_, net = _reference_min_nets(d)
    return net


def _net_bits(net) -> list:
    """Shape, dtype and bytes of every weight, shift and output array."""
    arrays = [a for l in net.layers for a in (l.weights, l.shifts)] + [net.output]
    return [net.input_dim] + [(a.shape, a.dtype.str, a.tobytes()) for a in arrays]


class TestMinNet:
    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            build_min_net(1)

    @pytest.mark.parametrize("build,name,bad", [
        (build_min_net, "d", 3.0), (build_min_net, "d", True),
        (build_min_net, "d", "3"), (build_min_net, "d", np.int64(1)),
        (build_spike_net, "t", 2.0), (build_spike_net, "t", True),
        (build_spike_net, "t", None), (build_spike_net, "t", np.int32(0))])
    def test_non_integer_sizes_named(self, build, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            build(bad)

    def test_numpy_integer_sizes_accepted(self):
        assert _net_bits(build_min_net(np.int64(5))) == _net_bits(build_min_net(5))
        assert _net_bits(build_spike_net(np.int32(2))) == _net_bits(build_spike_net(2))

    def test_closed_form_is_the_recursion(self):
        for d, want in enumerate(_reference_min_nets(120), start=2):
            net = build_min_net(d)
            assert _net_bits(net) == _net_bits(want), d
            assert depth(net) == d - 1
            assert count_nonzero(net) == min_net_nonzeros(d) == d * d + 4 * d - 5

    def test_base_case(self):
        net = build_min_net(2)
        assert depth(net) == 1
        assert count_nonzero(net) == 7
        assert evaluate(net, np.array([3.0, 1.0])) == pytest.approx(1.0, abs=1e-15)

    def test_three_inputs_structure(self):
        net = build_min_net(3)
        assert depth(net) == 2
        assert count_nonzero(net) == 16
        # all shifts zero: the figure-style construction has no thresholds
        assert all(np.all(l.shifts == 0.0) for l in net.layers)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_exact_minimum_random(self, d):
        net = build_min_net(d)
        X = np.random.default_rng(d).uniform(-10, 10, (10_000, d))
        assert np.abs(evaluate_batch(net, X) - X.min(axis=1)).max() <= 1e-12

    @pytest.mark.parametrize("d", range(2, 13))
    def test_weight_count_identity(self, d):
        assert count_nonzero(build_min_net(d)) == d * d + 4 * d - 5
        assert min_net_nonzeros(d) == d * d + 4 * d - 5

    def test_ties_and_extremes(self):
        net = build_min_net(4)
        for x in ([0, 0, 0, 0], [5, 5, 5, 5], [-1, -1, 2, 3], [1e8, -1e8, 0, 1]):
            assert evaluate(net, np.array(x, dtype=float)) == pytest.approx(
                min(x), rel=1e-12, abs=1e-9
            )


class TestSpikeNet:
    @pytest.mark.parametrize("t", range(1, 11))
    def test_is_the_forms_over_the_reference_min_net(self, t):
        mn = _reference_min_net(t * t + t)
        want = ReluNetwork(t, [Layer(*spike_forms(t)), *mn.layers,
                               Layer(mn.output, np.zeros(1))], np.array([[1.0]]))
        net = build_spike_net(t)
        assert _net_bits(net) == _net_bits(want)
        assert [l.weights.shape for l in net.layers] == spike_layer_shapes(t)

    def test_one_dimensional_hat(self):
        net = build_spike_net(1)
        assert evaluate(net, np.array([0.0])) == 1.0
        assert evaluate(net, np.array([1.0])) == 0.0
        assert evaluate(net, np.array([-1.0])) == 0.0
        assert evaluate(net, np.array([0.25])) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_matches_direct_formula(self, t):
        net = build_spike_net(t)
        Y = np.random.default_rng(t).uniform(-2, 2, (10_000, t))
        assert np.abs(evaluate_batch(net, Y) - spike(Y)).max() <= 1e-12

    @pytest.mark.parametrize("t,J", [(1, 3), (2, 7), (3, 13), (4, 21)])
    def test_depth(self, t, J):
        net = build_spike_net(t)
        assert depth(net) == J
        assert [l.weights.shape for l in net.layers] == spike_layer_shapes(t)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_first_layer_count(self, t):
        net = build_spike_net(t)
        first = net.layers[0]
        nnz = np.count_nonzero(np.asarray(first.weights)) + np.count_nonzero(
            first.shifts
        )
        assert nnz == 3 * t * (t - 1) + 4 * t

    def test_relu_min_relu_identity(self):
        # relu(min(a)) = relu(min(relu(a))), the identity the architecture
        # rests on, exercised with mixed-sign inputs through the real min net
        rng = np.random.default_rng(9)
        mn = build_min_net(6)
        for _ in range(200):
            a = rng.uniform(-3, 3, 6)
            if _ % 3 == 0:
                a[rng.integers(0, 6)] = 0.0  # boundary case
            lhs = max(evaluate(mn, np.maximum(a, 0.0)), 0.0)
            rhs = max(a.min(), 0.0)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_mixed_sign_adversarial_points(self):
        net = build_spike_net(2)
        pts = np.array([
            [1.0 - 1e-12, 0.0],
            [1.0 + 1e-12, 0.0],
            [0.5, -0.5],          # pair form active
            [0.5, -0.5 + 1e-9],
            [-1.0, 1.0],          # far outside, several negative forms
            [2.0, 2.0],
        ])
        assert np.abs(evaluate_batch(net, pts) - spike(pts)).max() <= 1e-12


class TestInterpolationNet:
    def test_zero_values_give_zero_function(self):
        grid = ScaledGrid(2, 1.0, 4)
        net = build_interpolation_net(InterpolationSpec(grid, np.zeros(grid.node_count)))
        Y = np.random.default_rng(0).uniform(-1.5, 1.5, (500, 2))
        assert np.all(evaluate_batch(net, Y) == 0.0)

    @pytest.mark.parametrize("t,N,R", [(1, 8, 1.0), (2, 4, 1.0), (2, 5, 0.8), (3, 2, 1.3)])
    def test_partition_of_unity(self, t, N, R):
        grid = ScaledGrid(t, R, N)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        Y = np.random.default_rng(t).uniform(-R, R, (1000, t))
        assert np.abs(evaluate_batch(net, Y) - 1.0).max() <= 1e-10

    def test_affine_exactness(self):
        grid = ScaledGrid(2, 1.0, 4)
        mu = lambda y: y[:, 0] + 2.0 * y[:, 1]
        spec = InterpolationSpec(grid, mu(grid.node_array()))
        net = build_interpolation_net(spec)
        Y = np.random.default_rng(1).uniform(-1, 1, (1000, 2))
        assert np.abs(evaluate_batch(net, Y) - mu(Y)).max() <= 1e-10

    def test_interpolates_node_values(self):
        rng = np.random.default_rng(2)
        grid = ScaledGrid(2, 1.0, 6)
        values = rng.standard_normal(grid.node_count)
        net = build_interpolation_net(InterpolationSpec(grid, values))
        got = evaluate_batch(net, grid.node_array())
        assert np.abs(got - values).max() <= 1e-10

    def test_depth_law(self):
        for t, N in ((1, 4), (2, 3), (3, 2), (4, 1)):
            grid = ScaledGrid(t, 1.0, N)
            net = build_interpolation_net(
                InterpolationSpec(grid, np.ones(grid.node_count)))
            assert depth(net) == t * t + t + 1

    def test_matches_the_parallel_sum_construction(self):
        # the block assembly is exactly the parallel composition of
        # per-node shifted scaled spikes
        rng = np.random.default_rng(3)
        grid = ScaledGrid(2, 1.0, 2)
        values = rng.standard_normal(grid.node_count)
        fast = build_interpolation_net(InterpolationSpec(grid, values))
        scale = 1.0 / grid.h
        nets = []
        for xi in grid.node_array():
            W1, b1 = spike_forms(2, scale=scale, center=xi)
            mn = build_min_net(6)
            layers = [Layer(W1, b1)] + list(mn.layers) + [
                Layer(np.asarray(mn.output), np.zeros(1))
            ]
            nets.append(ReluNetwork(2, layers, np.array([[1.0]])))
        par = _parallel_sum(nets, values)
        Y = rng.uniform(-1.2, 1.2, (500, 2))
        assert np.abs(evaluate_batch(fast, Y) - evaluate_batch(par, Y)).max() <= 1e-12
        assert count_nonzero(fast) == count_nonzero(par)

    @pytest.mark.parametrize("t,N,R", [(1, 4, 0.6729), (2, 2, 1.0), (2, 5, 0.8),
                                       (3, 2, 1.3), (2, 3, 1.0)])
    def test_serializes_as_the_parallel_composition(self, t, N, R):
        # the block layers expand to exactly the composed per-node nets
        rng = np.random.default_rng(10 * t + N)
        grid = ScaledGrid(t, R, N)
        values = rng.standard_normal(grid.node_count)
        values[rng.integers(grid.node_count)] = 0.0
        nets = [ReluNetwork(t, [Layer(*spike_forms(t, 1.0 / grid.h, xi)),
                                *build_spike_net(t).layers[1:]], np.array([[1.0]]))
                for xi in grid.node_array()]
        block = build_interpolation_net(InterpolationSpec(grid, values))
        assert serialize(dense_expansion(block)) == serialize(_parallel_sum(nets, values))

    @pytest.mark.parametrize("t,N,M", [(5, 8, 64_535_454), (3, 32, 7_821_396),
                                       (7, 2, 7_645_752)])
    def test_counts_of_large_nets(self, t, N, M):
        # the counts the CSR layout gave, every copy written out
        grid = ScaledGrid(t, 1.0, N)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        assert count_nonzero(net) == M
        assert nonzero_breakdown(net)["total"] == M

    def test_blocks_stored_once(self):
        grid = ScaledGrid(5, 1.0, 8)
        net = build_interpolation_net(InterpolationSpec(grid, np.ones(grid.node_count)))
        stored = net.output.nbytes + sum(l.weights.nbytes + l.shifts.nbytes
                                         for l in net.layers)
        assert stored < 32 * 2**20
        # the stored layers are the spike net's, the first at cell scale
        for t in (1, 2, 3, 5):
            grid = ScaledGrid(t, 1.295091801838947, 3)
            net = build_interpolation_net(
                InterpolationSpec(grid, np.ones(grid.node_count)))
            spike = build_spike_net(t).layers
            assert len(net.layers) == len(spike)
            for j, (got, want) in enumerate(zip(net.layers, spike)):
                w = want.weights * (1.0 / grid.h) if j == 0 else want.weights
                assert np.asarray(got.weights).tobytes() == w.tobytes()
                assert got.shifts.tobytes() == want.shifts.tobytes()

    def test_shift_storage_does_not_grow_with_node_count(self):
        stored = set()
        for N in (1, 2, 4, 8):
            grid = ScaledGrid(2, 1.0, N)
            net = build_interpolation_net(
                InterpolationSpec(grid, np.ones(grid.node_count)))
            stored.add(sum(l.shifts.size for l in net.layers))
        assert len(stored) == 1

    def test_large_build_and_count_stay_small(self):
        # 1.42 M nodes: a stored per-node shift array alone takes 341 MB
        grid = ScaledGrid(5, 1.0, 16)
        spec = InterpolationSpec(grid, np.ones(grid.node_count))
        tracemalloc.start()
        try:
            net = build_interpolation_net(spec)
            count_nonzero(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_direct_evaluator_matches_network(self):
        rng = np.random.default_rng(4)
        for t, N in ((1, 6), (2, 4), (3, 2)):
            grid = ScaledGrid(t, 1.0, N)
            spec = InterpolationSpec(grid, rng.standard_normal(grid.node_count))
            net = build_interpolation_net(spec)
            Y = rng.uniform(-1.3, 1.3, (400, t))
            assert np.abs(evaluate_batch(net, Y) - interpolant_values(spec, Y)).max() <= 1e-11

    def test_cellwise_linearity(self):
        rng = np.random.default_rng(5)
        grid = ScaledGrid(2, 1.0, 4)
        spec = InterpolationSpec(grid, rng.standard_normal(grid.node_count))
        net = build_interpolation_net(spec)
        for _ in range(100):
            y1 = rng.uniform(-1, 1, 2)
            n, rho = locate_batch((y1 + grid.R) / grid.h)
            verts = -grid.R + grid.h * simplex_vertices(SimplexId(tuple(n[0]), tuple(rho[0])))
            lam = rng.dirichlet(np.ones(3))
            y2 = lam @ verts
            mid = 0.5 * (y1 + y2)
            want = 0.5 * (evaluate(net, y1) + evaluate(net, y2))
            assert evaluate(net, mid) == pytest.approx(want, abs=1e-10)

    def test_shift_induced_bias_zeros_reported_not_forced(self):
        # lattice-aligned shifts cancel some first-layer biases, so the
        # built network may undercut node_count * nominal; both are exposed
        grid = ScaledGrid(2, 1.0, 4)
        spec = InterpolationSpec(grid, np.ones(grid.node_count))
        net = build_interpolation_net(spec)
        nominal = grid.node_count * spike_nominal_nonzeros(2)
        actual = count_nonzero(net)
        assert actual <= nominal
        b = nonzero_breakdown(net)
        assert b["total"] == actual

    def test_non_finite_and_far_points(self):
        grid = ScaledGrid(2, 1.0, 2)
        spec = InterpolationSpec(grid, np.ones(grid.node_count))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                interpolant_values(spec, np.array([bad, 0.0]))
        assert interpolant_values(spec, np.array([1e300, 0.0])) == 0.0
        assert interpolant_values(spec, np.array([0.0, -1e300])) == 0.0

    def test_shared_block_gives_the_fresh_build_bits(self):
        # two nets of one t, built from one block; A runs first and makes
        # the index forms that B then reuses
        rng = np.random.default_rng(5)
        block = build_spike_net(3)
        specs = [InterpolationSpec(ScaledGrid(3, R, N), rng.uniform(-1, 1, (N + 1) ** 3))
                 for R, N in ((1.0, 4), (1.3, 8))]
        a, b = (build_interpolation_net(spec, block) for spec in specs)
        assert all(x is y is z for x, y, z in zip(a.layers[1:], b.layers[1:],
                                                   block.layers[1:], strict=True))
        assert a.layers[0] is not b.layers[0]
        Y = rng.uniform(-1.4, 1.4, (500, 3))
        evaluate_batch(a, Y)
        fresh = build_interpolation_net(specs[1])
        assert evaluate_batch(b, Y).tobytes() == evaluate_batch(fresh, Y).tobytes()
        assert serialize(b) == serialize(fresh)
        assert count_nonzero(b) == count_nonzero(fresh)

    def test_refuses_a_block_not_of_its_t(self):
        grid = ScaledGrid(2, 1.0, 2)
        spec = InterpolationSpec(grid, np.ones(grid.node_count))
        grid_net = build_interpolation_net(spec)
        short = ReluNetwork(2, build_spike_net(2).layers[:-1], np.ones((1, 3)))
        # the grid net checks the shapes of the layers it is given
        for block, layers in ((build_spike_net(3), 13), (build_spike_net(1), 3), (short, 6)):
            with pytest.raises(ValueError, match=rf"a grid net has {layers} layers; "
                                                 r"the spike block on R\^2 has 7"):
                build_interpolation_net(spec, block)
        with pytest.raises(ValueError, match="a grid net is not a spike block"):
            build_interpolation_net(spec, grid_net)

    def test_sparse_block_layers_are_refused_by_name(self):
        # a layer holds one dense matrix; a sparse one is refused by its
        # type name, which needs no scipy import in the package
        grid = ScaledGrid(2, 1.0, 3)
        layers = build_interpolation_net(InterpolationSpec(grid, np.ones(16))).layers
        for j in (0, 3):
            with pytest.raises(ValueError, match="weights must be a numeric array, "
                                                 "got csr_matrix"):
                Layer(sp.csr_matrix(layers[j].weights), layers[j].shifts)
        with pytest.raises(ValueError, match="weights must be a numeric array, got csr_matrix"):
            ReluNetwork(2, layers, sp.csr_matrix(np.ones((1, 16))), grid=grid)

    def test_complex_node_values_are_refused(self):
        # numpy would keep the real part and only warn
        with pytest.raises(ValueError, match="node values must be real numbers, "
                                             "got dtype complex128"):
            InterpolationSpec(ScaledGrid(1, 1.0, 2), [1 + 2j, 0, 1])

    @pytest.mark.parametrize("call", ["forward", "interpolant_values"])
    def test_complex_points_are_refused(self, call):
        grid = ScaledGrid(2, 1.0, 3)
        spec = InterpolationSpec(grid, np.ones(grid.node_count))
        f = {"forward": lambda y: forward(build_interpolation_net(spec), y),
             "interpolant_values": lambda y: interpolant_values(spec, y)}[call]
        with pytest.raises(ValueError, match=r"points must be real numbers, got dtype complex128"):
            f(np.zeros((3, 2)) + 1j)

    def test_wrong_value_count_rejected(self):
        grid = ScaledGrid(2, 1.0, 2)
        with pytest.raises(ValueError):
            InterpolationSpec(grid, np.zeros(5))


class TestErrorBound:
    def test_lipschitz_example(self):
        assert interpolation_error_bound(2, 10, 1.0, lambda r: r) == pytest.approx(0.8)

    def test_doubling_halves_linear_bound(self):
        b1 = interpolation_error_bound(2, 10, 1.0, lambda r: r)
        b2 = interpolation_error_bound(2, 20, 1.0, lambda r: r)
        assert b2 == pytest.approx(b1 / 2)

    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_dominates_measured_euclidean_norm_error(self, N):
        grid = ScaledGrid(2, 1.0, N)
        mu = lambda y: np.linalg.norm(np.atleast_2d(y), axis=1)
        spec = InterpolationSpec(grid, mu(grid.node_array()))
        axis = np.linspace(-1, 1, 120)
        mg = np.meshgrid(axis, axis, indexing="ij")
        lattice = np.stack([m.ravel() for m in mg], axis=1)
        sup_err = np.abs(interpolant_values(spec, lattice) - mu(lattice)).max()
        assert sup_err <= interpolation_error_bound(2, N, 1.0, lambda r: r)

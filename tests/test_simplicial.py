import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcrelu import simplicial
from funcrelu.simplicial import (
    SUPPORT_SLACK,
    AffineForm,
    ScaledGrid,
    SimplexId,
    classify_interpolant,
    in_S0,
    in_simplex,
    in_Sprime,
    locate_batch,
    point_batch,
    simplex_vertices,
    simplices_containing_origin,
    spike,
    spike_forms,
    support_pairs,
    vertex_interpolant,
)

# grids of cell size exactly 1 (nodes -1, 0, 1 per axis)
UNIT2 = ScaledGrid(2, 1.0, 2)
UNIT3 = ScaledGrid(3, 1.0, 2)


def _contains(sid, z):
    """Whether one point z (t,), in cells, lies in the cell ``sid``."""
    return bool(in_simplex(np.atleast_2d(z), np.array(sid.n, dtype=float), sid.rho)[0])


def _locate(z):
    """The canonical cell of one point z (t,), in cells, checked to
    contain the point."""
    n, rho = locate_batch(z)
    sid = SimplexId(tuple(int(v) for v in n[0]), tuple(int(v) for v in rho[0]))
    assert _contains(sid, z)
    return sid


class TestLocate:
    def test_interior_point_example(self):
        sid = _locate(np.array([0.2, 0.7]))
        assert sid.n == (0, 0)
        assert sid.rho == (0, 1)  # y1 <= y2 in the chain

    def test_lattice_point_canonical_shift(self):
        # a lattice point sits on every face; the canonical cell takes the
        # lexicographically smallest n, which is the point shifted by -1,
        # with all chain offsets equal to 1
        sid = _locate(np.array([2.0, -1.0]))
        assert sid.n == (1, -2)
        assert sid.rho == (0, 1)

    def test_membership_holds_on_random_points(self):
        rng = np.random.default_rng(0)
        for grid in (UNIT2, UNIT3, ScaledGrid(2, 1.0, 8)):
            Z = (rng.uniform(-3.0, 3.0, (2000, grid.t)) + grid.R) / grid.h
            n, rho = locate_batch(Z)
            v = np.take_along_axis(Z - n, rho, axis=1)
            assert np.all(v[:, 0] >= 0.0)
            assert np.all(v[:, -1] <= 1.0)
            assert np.all(np.diff(v, axis=1) >= 0.0)

    def test_canonical_choice_is_lex_smallest(self):
        # a point on an interior face: y1 integer, y2 not
        sid = _locate(np.array([1.0, 0.4]))
        assert sid.n == (0, 0)
        # chain: y2 offset 0.4 comes before y1 offset 1.0
        assert sid.rho == (1, 0)

    def test_tie_break_on_equal_offsets(self):
        sid = _locate(np.array([0.3, 0.3]))
        assert sid.rho == (0, 1)

    @pytest.mark.parametrize("bad,match", [(np.nan, "non-finite"), (np.inf, "non-finite"),
                                           (-np.inf, "non-finite"), (1e300, "int64"),
                                           (-1e300, "int64")])
    def test_unlocatable_points_rejected(self, bad, match):
        with pytest.raises(ValueError, match=match):
            locate_batch(np.array([[0.5, 0.5], [0.2, bad]]))
        with pytest.raises(ValueError, match=match):
            locate_batch(np.array([bad, 0.2]))

    def test_largest_locatable_shift(self):
        big = np.nextafter(2.0**63, 0.0)
        n, _ = locate_batch(np.array([[big, -big]]))
        assert n[0, 0] == int(big) - 1 and n[0, 1] == -int(big) - 1

    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_grid_cells_are_the_simplices_of_support_pairs(self, t, N):
        # the grid's lattice is -R + h*Z^t, which is not h*Z^t at odd N
        grid = ScaledGrid(t, 0.9, N)
        Y = np.random.default_rng(10 * t + N).uniform(-0.9, 0.9, (200, t))
        n, rho = locate_batch((Y + grid.R) / grid.h)
        point, node = support_pairs(Y, grid)
        for k in range(len(Y)):
            verts = simplex_vertices(SimplexId(tuple(n[k]), tuple(rho[k])))
            flat = np.ravel_multi_index(verts.astype(int).T, (N + 1,) * t)
            assert sorted(flat) == node[point == k].tolist()

    def test_uniqueness_off_faces(self):
        # perturbed off all faces, exactly one cell in a neighborhood
        # enumeration contains the point
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.uniform(-2, 2, 3)
            y = np.where(np.abs(y - np.round(y)) < 1e-3, y + 0.137, y)
            hits = 0
            base = np.floor(y).astype(int)
            from itertools import permutations, product
            for dn in product((-1, 0), repeat=3):
                for rho in permutations(range(3)):
                    sid = SimplexId(tuple(base + np.array(dn)), rho)
                    z = y - np.array(sid.n, dtype=float)
                    v = z[list(rho)]
                    if v[0] >= 0 and v[-1] <= 1 and np.all(np.diff(v) >= 0):
                        hits += 1
            assert hits == 1

    def test_rho_must_be_permutation(self):
        with pytest.raises(ValueError):
            SimplexId((0, 0), (0, 0))


class TestSupportPairs:
    @pytest.mark.parametrize("t,N,R", [(1, 5, 1.0), (2, 4, 0.8), (3, 3, 1.3)])
    def test_covers_every_nonzero_spike(self, t, N, R):
        grid = ScaledGrid(t, R, N)
        rng = np.random.default_rng(t)
        Y = np.vstack([rng.uniform(-1.5 * R, 1.5 * R, (300, t)), grid.node_array()])
        point, node = support_pairs(Y, grid)
        nodes = grid.node_array()
        psi = spike((Y[:, None, :] - nodes[None, :, :]) / grid.h)
        assert set(zip(*np.nonzero(psi > 0))) <= set(zip(point, node))
        counts = np.bincount(point, minlength=len(Y))
        # the vertices of each point's simplex: 2^(t+1) - 1 at a lattice
        # node, t + 1 at a generic point inside the cube
        assert counts.max() <= 2 ** (t + 1) - 1
        assert counts[300 + np.ravel_multi_index((1,) * t, (N + 1,) * t)] == 2 ** (t + 1) - 1
        interior = np.all(np.abs(Y[:300]) < R, axis=1)
        assert interior.sum() > 50
        assert np.all(counts[:300][interior] == t + 1)
        # point by point, nodes ascending
        assert np.all(np.diff(point) >= 0)
        assert np.all(np.diff(node)[np.diff(point) == 0] > 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            support_pairs(np.array([[0.0, bad]]), UNIT2)

    def test_far_points_have_no_candidates(self):
        point, _ = support_pairs(np.array([[1e300, 0.0], [0.0, -1e300],
                                           [2.5, 0.0], [0.0, 0.0]]), ScaledGrid(2, 1.0, 2))
        assert set(point) == {3}


class TestSpike:
    def test_defining_values(self):
        assert spike(np.zeros(2)) == 1.0
        assert spike(np.array([1.0, 0.0])) == 0.0

    def test_hand_computed_values(self):
        # all six affine forms evaluated by hand for t = 2
        assert spike(np.array([0.5, 0.0])) == pytest.approx(0.5, abs=1e-15)
        assert spike(np.array([0.5, 0.6])) == pytest.approx(0.4, abs=1e-15)

    def test_one_dimensional_hat(self):
        ys = np.array([[-1.5], [-1.0], [-0.25], [0.0], [0.25], [1.0], [2.0]])
        expect = np.array([0.0, 0.0, 0.75, 1.0, 0.75, 0.0, 0.0])
        assert np.array_equal(spike(ys), expect)

    def test_zero_outside_support(self):
        rng = np.random.default_rng(2)
        Y = rng.uniform(-3, 3, (5000, 3))
        outside = ~in_S0(Y)
        assert np.all(spike(Y[outside]) == 0.0)

    def test_positive_exactly_on_interior(self):
        rng = np.random.default_rng(3)
        Y = rng.uniform(-2, 2, (5000, 2))
        strict = (np.abs(Y).max(axis=1) < 1.0) & (
            Y.max(axis=1) - Y.min(axis=1) < 1.0
        )
        assert np.array_equal(spike(Y) > 0.0, strict)

    def test_partition_of_unity_inside_cube(self):
        rng = np.random.default_rng(4)
        for grid in (ScaledGrid(1, 1.0, 8), ScaledGrid(2, 1.0, 4), ScaledGrid(3, 0.7, 2)):
            Y = rng.uniform(-grid.R, grid.R, (1000, grid.t))
            total = np.zeros(1000)
            for xi in grid.node_array():
                total += spike((Y - xi) / grid.h)
            assert np.abs(total - 1.0).max() <= 1e-10

    def test_cellwise_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            y1 = rng.uniform(-2, 2, 2)
            sid = _locate(y1)
            verts = np.array(simplex_vertices(sid))
            lam = rng.dirichlet(np.ones(3))
            y2 = lam @ verts
            # y2 lies in the same simplex; psi is linear there
            mid = 0.5 * y1 + 0.5 * y2
            assert spike(mid) == pytest.approx(
                0.5 * spike(y1) + 0.5 * spike(y2), abs=1e-10
            )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-2.5, 2.5), min_size=3, max_size=3),
    st.permutations([0, 1, 2]),
)
def test_spike_symmetries(coords, perm):
    # invariance under coordinate permutation and sign flip is an observed
    # consequence of the symmetric form list, checked numerically
    y = np.array(coords)
    assert spike(y[list(perm)]) == pytest.approx(spike(y), abs=1e-12)
    assert spike(-y) == pytest.approx(spike(y), abs=1e-12)


class TestS0:
    def test_origin(self):
        assert in_S0(np.zeros(2))
        assert in_Sprime(np.zeros(2))

    def test_hand_checked_point(self):
        # (1, -1): the pair constraint y1 <= 1 + y2 reads 1 <= 0, so outside
        y = np.array([1.0, -1.0])
        assert not in_Sprime(y)
        assert not in_S0(y)

    def test_boundary_point_inside(self):
        y = np.array([1.0, 0.0])
        assert in_Sprime(y)
        assert in_S0(y)

    @pytest.mark.parametrize("t", [2, 3])
    def test_equality_of_both_characterizations(self, t):
        rng = np.random.default_rng(10 + t)
        Y = rng.uniform(-2.0, 2.0, (100_000, t))
        assert np.array_equal(in_S0(Y), in_Sprime(Y))

    def test_fan_size(self):
        assert len(simplices_containing_origin(2)) == 6
        assert len(simplices_containing_origin(3)) == 24

    def test_fan_cells_all_contain_origin(self):
        for t in (2, 3, 4):
            for sid in simplices_containing_origin(t):
                assert _contains(sid, np.zeros(t))


def _chain_of_contains(z, n, rho):
    # the one-point membership test before the shared chain, at its only
    # tolerance 0.0
    v = z[list(rho)] - np.array(n, dtype=float)[list(rho)]
    return bool(np.all(np.diff(np.concatenate(([0.0], v, [1.0]))) >= -0.0))


def _chain_of_in_S0(pts, n, rho):
    # in_S0's per-cell test before the shared chain
    v = pts[:, list(rho)] - np.array(n, dtype=float)[list(rho)]
    ok = (v[:, 0] >= 0.0) & (v[:, -1] <= 1.0)
    if v.shape[1] > 1:
        ok &= np.all(np.diff(v, axis=1) >= 0.0, axis=1)
    return ok


def _chain_of_verify(z, n, rho):
    # the locate check of funcrelu verify before the shared chain
    v = np.take_along_axis(z - n, rho, axis=1)
    ok = (v[:, 0] >= 0.0) & (v[:, -1] <= 1.0)
    if v.shape[1] > 1:
        ok &= np.all(np.diff(v, axis=1) >= 0.0, axis=1)
    return ok


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_in_simplex_equals_the_three_former_chains(t):
    rng = np.random.default_rng(40 + t)
    random = rng.uniform(-2.0, 2.0, (60, t))
    lattice = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=t)))
    # points on a lattice plane, and points with tied coordinates
    face = rng.uniform(-1.5, 1.5, (40, t))
    face[np.arange(20), rng.integers(0, t, 20)] = rng.integers(-1, 2, 20)
    face[20:, :] = face[20:, :1]
    # coordinates one ulp off a lattice plane
    near = np.nextafter(lattice[rng.integers(0, len(lattice), 20)],
                        rng.choice((-np.inf, np.inf), (20, t)))
    Z = np.vstack([random, lattice, face, near])
    cells = [(tuple(rng.integers(-1, 1, t)), tuple(rng.permutation(t)))
             for _ in range(12)]
    hits = 0
    for n, rho in cells:
        ours = in_simplex(Z, np.array(n, dtype=float), rho)
        assert np.array_equal(ours, _chain_of_in_S0(Z, n, rho))
        assert ours.tolist() == [_chain_of_contains(z, n, rho) for z in Z]
        hits += int(ours.sum())
    # one cell per point, as locate_batch gives them
    pick = rng.integers(0, len(cells), Z.shape[0])
    n = np.array([cells[k][0] for k in pick])
    rho = np.array([cells[k][1] for k in pick])
    assert np.array_equal(in_simplex(Z, n, rho), _chain_of_verify(Z, n, rho))
    assert 0 < hits < len(cells) * Z.shape[0]


class TestVertexInterpolant:
    def test_identity_simplex_t2(self):
        # vertices (0,0), (0,1), (1,1); the interpolant is 1 - y2
        form = vertex_interpolant(SimplexId((0, 0), (0, 1)))
        assert form.constant == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(form.coeffs, [0.0, -1.0], atol=1e-12)
        assert form(np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
        assert form(np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
        assert form(np.zeros(2)) == pytest.approx(1.0, abs=1e-12)

    def test_one_dimensional_left_hat(self):
        form = vertex_interpolant(SimplexId((0,), (0,)))
        assert form.constant == pytest.approx(1.0)
        assert form.coeffs[0] == pytest.approx(-1.0)

    def test_rejects_simplex_without_origin(self):
        with pytest.raises(ValueError):
            vertex_interpolant(SimplexId((3, 3), (0, 1)))

    @pytest.mark.parametrize("t", [2, 3])
    def test_all_fan_interpolants_have_listed_shape(self, t):
        rng = np.random.default_rng(20 + t)
        forms = []
        for sid in simplices_containing_origin(t):
            form = vertex_interpolant(sid)
            assert classify_interpolant(form) is not None, form
            forms.append(form)
        pts = rng.uniform(-1, 1, (4000, t))
        pts = pts[in_S0(pts)][:1000]
        fan_min = np.min(np.stack([f(pts) for f in forms]), axis=0)
        assert np.abs(fan_min - spike(pts)).max() <= 1e-12

    def test_t2_fan_reproduces_all_six_forms(self):
        got = set()
        for sid in simplices_containing_origin(2):
            a, b, l, k = classify_interpolant(vertex_interpolant(sid))
            got.add((a, b, l, k))
        expect = {
            (1, 0, 0, None), (1, 0, 1, None),
            (-1, 0, None, 0), (-1, 0, None, 1),
            (1, 1, 0, 1), (1, 1, 1, 0),
        }
        assert got == expect


def test_affine_form_is_callable_on_batches():
    form = AffineForm((1.0, -2.0), 0.5)
    Y = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert np.allclose(form(Y), [-0.5, 0.5])


def test_grid_nodes():
    grid = ScaledGrid(2, 1.0, 2)
    nodes = grid.node_array()
    assert nodes.shape == (9, 2)
    assert grid.node_count == 9
    assert np.allclose(nodes[0], [-1, -1])
    assert np.allclose(nodes[-1], [1, 1])
    assert np.allclose(grid.nodes([5]), [[0, 1]])


@pytest.mark.parametrize("t,R,N,field", [
    (2, 1.0, 2.5, "N"), (2.0, 1.0, 2, "t"), (True, 1.0, 2, "t"), (2, 1.0, True, "N"),
    (0, 1.0, 2, "t"), (2, 1.0, 0, "N"), (2, 0.0, 2, "R"), (2, -1.0, 2, "R"),
    (1, math.inf, 2, "R"), (1, math.nan, 2, "R"), (1, 1e308, 1, "R"),
    (1, True, 2, "R"), (1, "1", 2, "R"), (2, 10**400, 2, "R"), (2, 1.0, 10**400, "N"),
])
def test_malformed_grid_is_refused(t, R, N, field):
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        ScaledGrid(t, R, N)


def test_numpy_integer_sizes_are_stored_as_int():
    grid = ScaledGrid(np.int64(9), 1.0, np.int64(1000))
    assert type(grid.t) is int and type(grid.N) is int
    assert grid.node_count == 1001**9


@pytest.mark.parametrize("R", [1, np.float64(0.75), np.float32(0.75), np.int64(3)])
def test_radius_is_stored_as_float(R):
    grid = ScaledGrid(2, R, 4)
    assert type(grid.R) is float and grid.R == R
    assert grid.h == 2.0 * float(R) / 4


def test_node_coordinates_match_the_lattice():
    # the meshgrid formula node_array used before ScaledGrid.nodes
    for grid in (ScaledGrid(1, 0.6729, 5), ScaledGrid(2, 1.295091801838947, 6),
                 ScaledGrid(3, 0.7324, 4)):
        axes = np.arange(grid.N + 1)
        mesh = np.meshgrid(*([axes] * grid.t), indexing="ij")
        lattice = -grid.R + grid.h * np.stack([m.ravel() for m in mesh], axis=1)
        nodes = grid.node_array()
        assert nodes.tobytes() == lattice.tobytes()
        index = np.random.default_rng(grid.N).permutation(grid.node_count)[:7]
        assert grid.nodes(index).tobytes() == nodes[index].tobytes()


def _spike_form_loop(t, scale, center):
    """The spike's first-layer forms built row by row for one centre."""
    W = np.zeros((t * t + t, t))
    b = np.empty(t * t + t)
    row = 0
    for k in range(t):
        for j in range(t):
            if j != k:
                W[row, k], W[row, j] = scale, -scale
                b[row] = 1.0 - scale * center[k] + scale * center[j]
                row += 1
    for k in range(t):
        W[row, k], b[row] = scale, 1.0 - scale * center[k]
        W[row + t, k], b[row + t] = -scale, 1.0 + scale * center[k]
        row += 1
    return W, b


@pytest.mark.parametrize("t,N,R", [(1, 5, 0.6729), (2, 6, 1.295091801838947),
                                   (3, 4, 0.7324), (5, 2, 1.0)])
def test_batched_spike_forms_equal_the_per_centre_rows(t, N, R):
    grid = ScaledGrid(t, R, N)
    scale = 1.0 / grid.h
    centres = grid.node_array()
    W, b = spike_forms(t, scale, centres)
    assert b.shape == (grid.node_count, t * t + t)
    for centre, row in zip(centres, b):
        W_loop, b_loop = _spike_form_loop(t, scale, centre)
        assert W.tobytes() == W_loop.tobytes()
        assert row.tobytes() == b_loop.tobytes()
        assert spike_forms(t, scale, centre)[1].tobytes() == row.tobytes()



@pytest.mark.parametrize("t", [1, 2, 5])
def test_pair_rows_are_one_read_only_table_per_t(t):
    k, j = simplicial._pair_rows(t)
    assert simplicial._pair_rows(t)[0] is k
    ref_k, ref_j = np.nonzero(~np.eye(t, dtype=bool))
    assert np.array_equal(k, ref_k) and np.array_equal(j, ref_j)
    with pytest.raises(ValueError, match="read-only"):
        k[...] = 0
    with pytest.raises(ValueError, match="read-only"):
        j[...] = 0


def _reference_support_pairs(y, grid):
    """support_pairs as the axis loop alone, on every point: as it was
    written before its per-axis columns came from one transposed copy
    (columns indexed per pair, and the kept pairs taken by a boolean mask
    of a broadcast point column), and before generic points took the Kuhn
    vertices."""
    pts, _ = point_batch(y, grid.t)
    u = np.clip((pts + grid.R) / grid.h, -2.0, grid.N + 2.0)
    lo = np.maximum(np.ceil(u - 1.0 - SUPPORT_SLACK), 0).astype(np.int64)
    hi = np.minimum(np.floor(u + 1.0 + SUPPORT_SLACK), grid.N).astype(np.int64)
    point = np.arange(pts.shape[0])
    node = np.zeros(pts.shape[0], dtype=np.int64)
    top = np.full(pts.shape[0], -np.inf)
    bottom = np.full(pts.shape[0], np.inf)
    for k in range(grid.t):
        cand = lo[point, k, None] + np.arange(3)
        d = u[point, k, None] - cand
        d_top = np.maximum(top[:, None], d)
        d_bottom = np.minimum(bottom[:, None], d)
        keep = ((cand <= hi[point, k, None])
                & (d_top - d_bottom <= 1.0 + SUPPORT_SLACK))
        point = np.broadcast_to(point[:, None], keep.shape)[keep]
        node = (node[:, None] * (grid.N + 1) + cand)[keep]
        top, bottom = d_top[keep], d_bottom[keep]
    return point, node


@pytest.mark.parametrize("t,N,R", [(1, 8, 1.0), (2, 5, 0.6729), (3, 4, 1.295091801838947),
                                   (5, 4, 1.0535), (7, 3, 1.0)])
def test_support_pairs_equal_the_reference_pairs_in_order(t, N, R):
    grid = ScaledGrid(t, R, N)
    rng = np.random.default_rng(t * 100 + N)
    nodes = grid.nodes(rng.integers(0, grid.node_count, 64))
    inside = rng.uniform(-R, R, (64, t))
    planes = inside.copy()
    planes[:, ::2] = nodes[:, ::2]  # every other coordinate on a lattice plane
    outside = rng.uniform(-R - 3 * grid.h, R + 3 * grid.h, (64, t))
    for pts in (nodes, planes, nodes + 1e-9, outside, inside):
        got = support_pairs(pts, grid)
        want = _reference_support_pairs(pts, grid)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))


def _same_pairs(got, want):
    return all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))


def _tie_points(grid, rng, k=24):
    """Named batches of k points each where the window test decides: on
    lattice nodes, 0.5e-6 and 2e-6 cells off a cell face (either side of
    SUPPORT_SLACK) and 5e-6 off (just past GENERIC_GAP), with two equal
    offsets, on the cube's faces, one and two cells outside, at +-1e300;
    and random points inside."""
    t, R, h = grid.t, grid.R, grid.h
    inside = rng.uniform(-R, R, (k, t))
    rows, axis = np.arange(k), rng.integers(0, t, k)

    def moved(values):
        pts = inside.copy()
        pts[rows, axis] = values
        return pts

    plane = rng.integers(0, grid.N + 1, k)
    sets = {"nodes": grid.nodes(rng.integers(0, grid.node_count, k)), "inside": inside,
            "cube face": moved(rng.choice((-R, R), k)),
            "far": moved(rng.choice((-1e300, 1e300), k))}
    for off in (0.5e-6, 2e-6, 5e-6):
        sets[f"{off} off a face"] = moved(-R + h * (plane + rng.choice((-off, off), k)))
    for cells in (1, 2):
        sets[f"{cells} cells out"] = moved(rng.choice((-1.0, 1.0), k) * (R + cells * h))
    if t > 1:
        diagonal = inside.copy()
        diagonal[:, 1] = diagonal[:, 0] + h * rng.integers(-1, 2, k)
        sets["equal offsets"] = diagonal
    sets["all"] = np.vstack(list(sets.values()))
    return sets


@pytest.mark.parametrize("t", range(1, 8))
def test_support_pairs_equal_the_axis_loop_at_ties(t):
    # the Kuhn vertices of the generic points and the window test of the
    # others, merged in point order, are the axis loop's pairs on every point
    grid = ScaledGrid(t, 1.295091801838947, (8, 6, 4, 3, 2, 2, 2)[t - 1])
    rng = np.random.default_rng(700 + t)
    for name, pts in _tie_points(grid, rng).items():
        assert _same_pairs(support_pairs(pts, grid), _reference_support_pairs(pts, grid)), name
    # the m=0 rate rows: one point on the cube's face among generic ones
    pts = rng.uniform(-grid.R, grid.R, (64, t))
    pts[17, 0] = grid.R
    assert _same_pairs(support_pairs(pts, grid), _reference_support_pairs(pts, grid))


# a coordinate's offset from its lattice plane, in cells: exact, within
# and past the slack and GENERIC_GAP, or anywhere in the cell
_OFFSETS = st.one_of(st.sampled_from([0.0, 0.5e-6, -0.5e-6, 2e-6, -2e-6, 5e-6, -5e-6]),
                     st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 9), st.floats(0.1, 10.0), st.data())
def test_support_pairs_equal_the_axis_loop_anywhere(t, N, R, data):
    grid = ScaledGrid(t, R, N)
    k = data.draw(st.integers(1, 12))
    cells = data.draw(st.lists(st.lists(st.integers(-3, N + 2), min_size=t, max_size=t),
                               min_size=k, max_size=k))
    offsets = data.draw(st.lists(st.lists(_OFFSETS, min_size=t, max_size=t),
                                 min_size=k, max_size=k))
    pts = -R + grid.h * (np.array(cells) + np.array(offsets))
    if data.draw(st.booleans()):  # two equal offsets: a diagonal face
        pts[:, -1] = pts[:, 0] + grid.h * data.draw(st.integers(-2, 2))
    assert _same_pairs(support_pairs(pts, grid), _reference_support_pairs(pts, grid))


class TestScalarPoints:
    """A scalar is no point: each point-taking function names the shapes
    it accepts."""

    def test_spike(self):
        with pytest.raises(ValueError, match=r"points must have shape \(t,\) or \(\.\.\., t\), got \(\)"):
            spike(0.3)

    def test_in_S0(self):
        with pytest.raises(ValueError, match=r"points must have shape \(t,\) or \(n, t\), got \(\)"):
            in_S0(0.3)

    def test_in_Sprime(self):
        with pytest.raises(ValueError, match=r"points must have shape \(t,\) or \(\.\.\., t\), got \(\)"):
            in_Sprime(0.3)

    def test_locate(self):
        with pytest.raises(ValueError, match=r"points must have shape \(t,\) or \(n, t\), got \(\)"):
            locate_batch(0.3)

    def test_complex_points_named(self):
        with pytest.raises(ValueError, match=r"points must be real numbers, got dtype complex128"):
            spike(np.array([0.1, 0.2]) + 0.5j)

    def test_batches_of_any_rank_still_accepted(self):
        Y = np.random.default_rng(6).uniform(-1.5, 1.5, (4, 5, 3))
        assert np.array_equal(spike(Y), spike(Y.reshape(-1, 3)).reshape(4, 5))
        assert np.array_equal(in_Sprime(Y), in_Sprime(Y.reshape(-1, 3)).reshape(4, 5))

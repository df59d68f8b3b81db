import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mapdeg import (
    DegreeParams,
    DimensionMismatch,
    InvalidResolution,
    NearZeroVector,
    eval_array,
    make_grid,
    parse,
    sup_distance,
)
from mapdeg.degree import _GRID, pair_distance, raw_pass
from mapdeg import geometry
from mapdeg.geometry import (
    MAX_ROWS,
    finest,
    grid_blocks,
    mesh,
    normalize_rows,
    row_norms,
)

from test_degree import S1_TREES, S2_TREES


def circle_point(phi: float) -> np.ndarray:
    """One-row array holding the point of S1 at angle phi."""
    return np.array([[math.cos(phi), math.sin(phi)]])


def sphere_point(theta: float, phi: float) -> np.ndarray:
    """One-row array holding the point of S2 at polar angle theta, longitude phi."""
    return np.array(
        [[math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]]
    )


def chordal(p: np.ndarray, q: np.ndarray) -> float:
    """Chordal distance of two one-row arrays, as the sup distance computes it."""
    return pair_distance(p, q)


def stride(dim: int, n: int, fine: np.ndarray) -> np.ndarray:
    """The rows of `fine`, one per node of make_grid(dim, 2n), that lie on make_grid(dim, n).

    On S1 every other node; on S2 the poles and fine rings 2, 4, ...,
    2n - 2 at every other longitude.
    """
    if dim == 1:
        return fine[::2]
    rings = fine[1:-1].reshape(2 * n - 1, 4 * n, fine.shape[1])[1::2, ::2]
    return np.concatenate([fine[:1], rings.reshape(-1, fine.shape[1]), fine[-1:]])


class TestNormalize:
    def test_scales_unit_directions(self):
        out = normalize_rows(np.array([[2.0, 0.0], [0.0, -0.5]]))
        assert out.tolist() == [[1.0, 0.0], [0.0, -1.0]]
        assert normalize_rows(np.array([[0.0, 0.0, 3.0]])).tolist() == [[0.0, 0.0, 1.0]]

    def test_rejects_near_zero(self):
        with pytest.raises(NearZeroVector):
            normalize_rows(np.array([[1.0, 0.0], [1e-12, 0.0]]))

    @pytest.mark.parametrize(
        "rows", [[[0.0, 0.0], [np.nan, 0.0]], [[1.0, 0.0], [np.nan, 0.0]], [[0.0, np.nan, 1.0]]]
    )
    def test_rejects_a_nan_least_norm(self, rows):
        # a NaN row makes the least norm NaN, which compares false both
        # ways: a zero row beside it, or none, is refused all the same
        with pytest.raises(NearZeroVector, match="norm nan"):
            normalize_rows(np.array(rows))

    @given(
        st.tuples(
            st.floats(-1e3, 1e3, allow_nan=False),
            st.floats(-1e3, 1e3, allow_nan=False),
            st.floats(-1e3, 1e3, allow_nan=False),
        ),
        st.floats(1e-3, 1e3),
    )
    def test_scale_invariance(self, v, c):
        assume(math.sqrt(sum(x * x for x in v)) > 1e-6)
        base = normalize_rows(np.array([v]))
        rescaled = normalize_rows(base * c)
        assert rescaled[0] == pytest.approx(base[0], abs=1e-12)


def _row_inputs() -> list[np.ndarray]:
    """(n, 2) and (n, 3) arrays: random rows, an empty array, and rows whose
    squares overflow, hold a NaN, are subnormal, zero or at NEAR_ZERO."""
    rng = np.random.default_rng(11)
    arrays = []
    for k in (2, 3):
        arrays += [
            rng.normal(size=(1000, k)),
            rng.normal(size=(50, k)) * 10.0 ** rng.integers(-300, 300, size=(50, 1)),
            np.empty((0, k)),
            np.full((3, k), 1e300),
            np.array([[np.nan] * k, [1.0] + [np.nan] * (k - 1), [np.inf] + [0.0] * (k - 1)]),
            np.full((4, k), 5e-324) * np.arange(1, 5)[:, None],
            np.array([[0.0] * k, [-0.0] * k]),
            np.array([[geometry.NEAR_ZERO] + [0.0] * (k - 1), [1.0] * k]),
        ]
    return arrays


def _old_normalize_rows(X: np.ndarray) -> np.ndarray:
    """normalize_rows as np.linalg.norm wrote it, refusing a NaN least norm too:
    the reference its rows and refusals keep."""
    norms = np.linalg.norm(X, axis=1)
    small = float(norms.min()) if len(norms) else 1.0
    if not small > geometry.NEAR_ZERO:
        raise NearZeroVector(f"cannot normalize row of norm {small:.3e}")
    return X / norms[:, None]


class TestRowNorms:
    """row_norms is np.linalg.norm(X, axis=1) byte for byte."""

    @pytest.mark.parametrize("X", _row_inputs(), ids=lambda X: f"{X.shape}")
    def test_equals_the_linalg_norm(self, X):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = row_norms(X), np.linalg.norm(X, axis=1)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("X", _row_inputs(), ids=lambda X: f"{X.shape}")
    def test_normalize_rows_refuses_the_same_rows(self, X):
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in [X, *(X[i : i + 1] for i in range(min(len(X), 8)))]:
                try:
                    want = _old_normalize_rows(rows)
                except NearZeroVector as exc:
                    with pytest.raises(NearZeroVector, match=re.escape(str(exc))):
                        normalize_rows(rows)
                else:
                    assert normalize_rows(rows).tobytes() == want.tobytes()


class TestChordalDist:
    """The per-node chordal distance inside pair_distance is a metric."""

    def test_same_point_is_zero(self):
        p = circle_point(1.2)
        assert chordal(p, p) == 0.0

    def test_antipodal_pair_is_two(self):
        assert chordal(circle_point(0.0), circle_point(math.pi)) == 2.0

    def test_right_angle(self):
        d = chordal(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert d == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sup_distance(parse("(id 1)"), parse("(id 2)"))

    @given(
        st.floats(0, 2 * math.pi),
        st.floats(0, 2 * math.pi),
        st.floats(0, 2 * math.pi),
    )
    def test_symmetry_and_triangle_on_circle(self, a, b, c):
        p, q, r = circle_point(a), circle_point(b), circle_point(c)
        assert chordal(p, q) == chordal(q, p)
        assert chordal(p, r) <= chordal(p, q) + chordal(q, r) + 1e-12

    @given(
        st.tuples(st.floats(0, math.pi), st.floats(0, 2 * math.pi)),
        st.tuples(st.floats(0, math.pi), st.floats(0, 2 * math.pi)),
        st.tuples(st.floats(0, math.pi), st.floats(0, 2 * math.pi)),
    )
    def test_symmetry_and_triangle_on_sphere(self, a, b, c):
        p, q, r = sphere_point(*a), sphere_point(*b), sphere_point(*c)
        assert chordal(p, q) == chordal(q, p)
        assert chordal(p, r) <= chordal(p, q) + chordal(q, r) + 1e-12


class TestMakeGrid:
    def test_circle_grid(self):
        nodes = make_grid(1, 8)
        assert nodes.shape == (8, 2)
        assert np.abs(np.linalg.norm(nodes, axis=1) - 1.0).max() <= 1e-12

    def test_sphere_grid_weight_sum(self):
        # oracle: the nodes are the mesh vertices, with rings at
        # theta = k*pi/n, so the trapezoid weights sin(theta) dtheta dphi
        # at the nodes sum to 2*pi^2/n * cot(pi/(2n)), which is the
        # sphere's area 4*pi less pi^3/(3n^2), up to O(n^-4)
        n = 64
        nodes = make_grid(2, n)
        assert len(nodes) == 2 + 63 * 128
        sin_theta = np.hypot(nodes[:, 0], nodes[:, 1])
        riemann = float(sin_theta.sum()) * (math.pi / n) * (math.pi / n)
        assert abs(riemann - (4 * math.pi - math.pi**3 / (3 * n * n))) < 1e-6

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512, 1024])
    def test_weight_sums_at_all_resolutions(self, n):
        # the identity's arcs and image triangles are the grid's and the
        # mesh's own, so their angles must add up to the whole circle,
        # 2 * pi, and the whole sphere, 4 * pi
        assert abs(raw_pass(parse("(id 1)"), n)[0] - 1.0) <= 1e-12
        assert abs(raw_pass(parse("(id 2)"), n)[0] - 1.0) <= 1e-12

    def test_sphere_grid_nodes_are_unit(self):
        nodes = make_grid(2, 16)
        assert nodes.shape == (2 + 15 * 32, 3)
        assert np.abs(np.linalg.norm(nodes, axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [8, 9, 16, 33, 64, 128, 256, 512])
    def test_coarse_nodes_are_a_stride_of_the_fine_ones(self, dim, n):
        # exact, not close: _levels' stop rule needs a finer level's
        # nodes to include the coarser ones, so that a sampled minimum
        # only falls and a sampled maximum only rises
        fine = make_grid(dim, 2 * n)
        assert np.array_equal(stride(dim, n, fine), make_grid(dim, n))

    @settings(deadline=None)
    @given(st.one_of(S1_TREES, S2_TREES), st.sampled_from([8, 13, 32, 64]))
    def test_strided_fine_values_equal_the_coarse_evaluation(self, e, n):
        fine = eval_array(e, make_grid(e.dim, 2 * n))
        coarse = eval_array(e, make_grid(e.dim, n))
        assert np.array_equal(stride(e.dim, n, fine), coarse)

    def test_rejects_low_resolution(self):
        with pytest.raises(InvalidResolution):
            make_grid(1, 4)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionMismatch):
            make_grid(3, 64)

    def test_rejects_grids_over_the_row_budget(self):
        # 1448 bands carry 2 * 1448 * 1447 + 2 <= 2**22 nodes, 1449 bands more;
        # the refusal comes before any allocation
        assert (finest(1), finest(2)) == (MAX_ROWS, 1448)
        with pytest.raises(InvalidResolution, match=f"resolution {MAX_ROWS + 1} needs more than"):
            make_grid(1, MAX_ROWS + 1)
        with pytest.raises(InvalidResolution, match=f"resolution 1449 needs more than {MAX_ROWS}"):
            make_grid(2, 1449)

    def test_default_levels_and_grids_fit_the_row_budget(self):
        params = DegreeParams()
        for dim in (1, 2):
            for n in (params.max_for(dim), _GRID[dim]):
                assert n <= finest(dim)



def reference_make_grid(dim: int, n: int) -> np.ndarray:
    """make_grid's whole-grid body before it joined grid_blocks, its helpers inlined.

    The reference the blocks and the joined grid keep bit for bit.
    """
    if dim == 1:
        phis = 2.0 * math.pi * np.arange(0, n) / n
        return np.column_stack([np.cos(phis), np.sin(phis)])
    theta, phi = math.pi * np.arange(1, n) / n, math.pi * np.arange(2 * n) / n
    sin_t, cos_t = np.sin(theta)[:, None], np.cos(theta)[:, None]
    rings = np.stack(np.broadcast_arrays(sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t), axis=-1)
    return np.concatenate([[[0.0, 0.0, 1.0]], rings.reshape(-1, 3), [[0.0, 0.0, -1.0]]])


class TestGridBlocks:
    """grid_blocks computes the whole grid's rows a block at a time, and make_grid joins them."""

    @pytest.mark.parametrize("block_rows", [None, 1, 700])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [8, 33, 256, 512])
    def test_blocks_concatenate_to_the_grid(self, monkeypatch, dim, n, block_rows):
        # exact, not close: a streamed distance level reads these nodes
        want = reference_make_grid(dim, n)
        if block_rows is not None:
            monkeypatch.setattr(geometry, "BLOCK_ROWS", block_rows)
        blocks = list(grid_blocks(dim, n))
        assert np.concatenate(blocks).tobytes() == want.tobytes()
        assert make_grid(dim, n).tobytes() == want.tobytes()
        starts = np.cumsum([0] + [len(b) for b in blocks[:-1]])
        if dim == 2:  # whole rings: each block starts at a pole or a ring's first node
            assert all(start == 0 or (start - 1) % (2 * n) == 0 for start in starts)
        assert max(map(len, blocks)) <= max(geometry.BLOCK_ROWS, 2 * n)

    def test_circle_levels_past_one_block(self):
        n = 3 * geometry.BLOCK_ROWS + 5
        blocks = list(grid_blocks(1, n))
        assert [len(b) for b in blocks] == [geometry.BLOCK_ROWS] * 3 + [5]
        assert np.concatenate(blocks).tobytes() == reference_make_grid(1, n).tobytes()

    @pytest.mark.parametrize(("dim", "n"), [(1, 8), (1, 3 * 8192 + 5), (2, 8), (2, 128)])
    def test_make_grid_returns_a_fresh_array(self, dim, n):
        # one block or several, the joined grid is the caller's own
        a, b = make_grid(dim, n), make_grid(dim, n)
        assert a.flags.c_contiguous and a.flags.writeable and a.flags.owndata
        assert not np.shares_memory(a, b)
        a[:] = 0.0
        assert b.tobytes() == reference_make_grid(dim, n).tobytes()

    def test_levels_over_the_row_budget_are_refused_before_the_first_block(self):
        with pytest.raises(InvalidResolution):
            next(grid_blocks(2, 1449))
        with pytest.raises(InvalidResolution):
            next(grid_blocks(1, MAX_ROWS + 1))
        with pytest.raises(DimensionMismatch):
            next(grid_blocks(3, 64))


def nearest_node_distance(dim: int, n: int, points: np.ndarray) -> np.ndarray:
    """Chordal distance from each unit row of `points` to its nearest make_grid node."""
    nodes = make_grid(dim, n)
    out = []
    for chunk in np.array_split(points, -(-len(points) // 512)):
        nearest = nodes[np.argmax(chunk @ nodes.T, axis=1)]  # largest dot product
        out.append(np.linalg.norm(chunk - nearest, axis=1))
    return np.concatenate(out)


class TestMesh:
    """mesh(dim, n) bounds the distance of every point to the grid's nodes.

    The rigorous distance bound adds (L_f + L_g) * mesh to the sampled
    one, so it is an upper bound only if this covering holds.
    """

    @given(
        st.sampled_from([1, 2]),
        st.sampled_from([8, 9, 16, 33, 64]),
        st.floats(0, math.pi),
        st.floats(0, 2 * math.pi),
    )
    def test_random_points_lie_within_mesh_of_a_node(self, dim, n, theta, phi):
        p = circle_point(phi) if dim == 1 else sphere_point(theta, phi)
        assert nearest_node_distance(dim, n, p)[0] <= mesh(dim, n)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [8, 9, 16, 33, 64])
    def test_cell_centres_lie_within_mesh_of_a_node(self, dim, n):
        # the centres are the points farthest from the nodes: the middle
        # of each arc on S1, of each lat-long cell (pole caps included) on S2
        mid = (np.arange(2 * n) + 0.5) * math.pi / n
        if dim == 1:
            points = np.column_stack([np.cos(mid), np.sin(mid)])
        else:
            theta, phi = np.meshgrid(mid[:n], mid, indexing="ij")
            points = np.column_stack(
                [
                    (np.sin(theta) * np.cos(phi)).ravel(),
                    (np.sin(theta) * np.sin(phi)).ravel(),
                    np.cos(theta).ravel(),
                ]
            )
        assert nearest_node_distance(dim, n, points).max() <= mesh(dim, n)

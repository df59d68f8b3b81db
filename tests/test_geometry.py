import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mapdeg import (
    DimensionMismatch,
    InvalidResolution,
    NearZeroVector,
    SpherePoint,
    chordal_dist,
    make_grid,
    normalize,
    parse,
)
from mapdeg.degree import simplicial_raw, winding_raw


def circle_point(phi: float) -> SpherePoint:
    return SpherePoint((math.cos(phi), math.sin(phi)))


def sphere_point(theta: float, phi: float) -> SpherePoint:
    return SpherePoint(
        (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    )


class TestNormalize:
    def test_scales_unit_directions(self):
        assert normalize((2.0, 0.0)).coords == (1.0, 0.0)
        assert normalize((0.0, 0.0, 3.0)).coords == (0.0, 0.0, 1.0)

    def test_rejects_near_zero(self):
        with pytest.raises(NearZeroVector):
            normalize((1e-12, 0.0))

    def test_rejects_bad_length(self):
        with pytest.raises(DimensionMismatch):
            normalize((1.0, 0.0, 0.0, 0.0))

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
        base = normalize(v)
        rescaled = normalize(tuple(x * c for x in base.coords))
        assert rescaled.coords == pytest.approx(base.coords, abs=1e-12)


class TestSpherePoint:
    def test_rejects_non_unit_coords(self):
        with pytest.raises(ValueError):
            SpherePoint((0.5, 0.5))

    def test_dim(self):
        assert circle_point(0.3).dim == 1
        assert sphere_point(0.3, 0.4).dim == 2


class TestChordalDist:
    def test_same_point_is_zero(self):
        p = circle_point(1.2)
        assert chordal_dist(p, p) == 0.0

    def test_antipodal_pair_is_two(self):
        assert chordal_dist(SpherePoint((1.0, 0.0)), SpherePoint((-1.0, 0.0))) == 2.0

    def test_right_angle(self):
        d = chordal_dist(SpherePoint((1.0, 0.0)), SpherePoint((0.0, 1.0)))
        assert d == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            chordal_dist(circle_point(0.0), sphere_point(0.5, 0.5))

    @given(
        st.floats(0, 2 * math.pi),
        st.floats(0, 2 * math.pi),
        st.floats(0, 2 * math.pi),
    )
    def test_symmetry_and_triangle_on_circle(self, a, b, c):
        p, q, r = circle_point(a), circle_point(b), circle_point(c)
        assert chordal_dist(p, q) == chordal_dist(q, p)
        assert chordal_dist(p, r) <= chordal_dist(p, q) + chordal_dist(q, r) + 1e-12

    @given(
        st.tuples(st.floats(0, math.pi), st.floats(0, 2 * math.pi)),
        st.tuples(st.floats(0, math.pi), st.floats(0, 2 * math.pi)),
        st.tuples(st.floats(0, math.pi), st.floats(0, 2 * math.pi)),
    )
    def test_symmetry_and_triangle_on_sphere(self, a, b, c):
        p, q, r = sphere_point(*a), sphere_point(*b), sphere_point(*c)
        assert chordal_dist(p, q) == chordal_dist(q, p)
        assert chordal_dist(p, r) <= chordal_dist(p, q) + chordal_dist(q, r) + 1e-12


class TestMakeGrid:
    def test_circle_grid(self):
        g = make_grid(1, 8)
        assert len(g) == 8
        assert np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0).max() <= 1e-12

    def test_sphere_grid_weight_sum(self):
        # oracle: the nodes sit at the cell centres of the lat-long
        # rectangle, so the midpoint weights sin(theta) dtheta dphi at the
        # nodes must sum to the sphere's area 4*pi to O(n^-2) accuracy
        n = 64
        g = make_grid(2, n)
        assert len(g) == 64 * 128
        sin_theta = np.hypot(g.nodes[:, 0], g.nodes[:, 1])
        riemann = float(sin_theta.sum()) * (math.pi / n) * (math.pi / n)
        assert abs(riemann - 4 * math.pi) < 2e-3

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512, 1024])
    def test_weight_sums_at_all_resolutions(self, n):
        # the identity's arcs and image triangles are the grid's and the
        # mesh's own, so their angles must add up to the whole circle,
        # 2 * pi, and the whole sphere, 4 * pi
        assert abs(winding_raw(parse("(id 1)"), n)[0] - 1.0) <= 1e-12
        assert abs(simplicial_raw(parse("(id 2)"), n)[0] - 1.0) <= 1e-12

    def test_sphere_grid_nodes_are_unit(self):
        g = make_grid(2, 16)
        assert len(g) == 16 * 32
        assert np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0).max() <= 1e-12

    def test_rejects_low_resolution(self):
        with pytest.raises(InvalidResolution):
            make_grid(1, 4)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionMismatch):
            make_grid(3, 64)


import contextlib
import dataclasses
import importlib
import json
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mapdeg import (
    Antipode,
    Blend,
    Compose,
    Conj,
    ConsistencyError,
    DegreeParams,
    DimensionMismatch,
    InvalidBlend,
    InvalidResolution,
    Iterate,
    MapExpr,
    NearZeroVector,
    Perturb,
    Pow,
    ResolutionExceeded,
    Rot,
    Rot3,
    Susp,
    SymbolicNumericMismatch,
    ball_certificate,
    degree,
    eval_array,
    homotopy_check,
    parse,
    sup_distance,
)
from mapdeg import geometry
from mapdeg.expr import _NAMES
from mapdeg.degree import (
    BLEND_MIN_NORM,
    STEP_CAP,
    _degree,
    _last_level,
    _min_norm,
    _proven_level,
    _simplicial_pass,
    _sup_distance,
    _triple,
    _walk,
    check_blend_validity,
    pair_distance,
    pair_min_norm,
    raw_pass,
)

from test_expr import winding_oracle

degree_module = importlib.import_module("mapdeg.degree")


@pytest.fixture
def check_rows_seen(monkeypatch):
    """Rows of each level a blend check sampled, in order: its blocks' rows summed.

    A level is walked in blocks (degree.grid_blocks), and the check reads
    each block once: the spy asserts that pair_min_norm sees every block
    of a walk it reads, and nothing twice.
    """
    seen, blocks = [], []
    grid_blocks, pair_min_norm = degree_module.grid_blocks, degree_module.pair_min_norm

    def walked(dim, n):
        blocks.clear()
        for X in grid_blocks(dim, n):
            blocks.append(len(X))
            yield X

    def spy(F, G):
        read = len(blocks) - 1
        if read == 0:
            seen.append(0)
        assert len(F) == blocks[read] and seen
        seen[-1] += len(F)
        return pair_min_norm(F, G)

    monkeypatch.setattr(degree_module, "grid_blocks", walked)
    monkeypatch.setattr(degree_module, "pair_min_norm", spy)
    return seen


def _trees(leaves):
    """Random trees over `leaves`: compose, iterate and perturb."""
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda fg: Compose(*fg)),
            st.tuples(st.integers(0, 2), inner).map(lambda ne: Iterate(*ne)),
            st.tuples(st.integers(0, 2**64 - 1), st.floats(0.0, 0.6), inner).map(
                lambda sei: Perturb(*sei)
            ),
        ),
        max_leaves=3,
    )


_S1_LEAVES = st.one_of(
    st.integers(-3, 3).map(Pow),
    st.floats(-math.pi, math.pi).map(Rot),
    st.sampled_from([Conj(), Antipode(1)]),
)
_S2_LEAVES = st.one_of(
    st.integers(-3, 3).map(lambda k: Susp(Pow(k))),
    st.just(Antipode(2)),
    st.builds(
        Rot3,
        st.tuples(st.just(0.3), st.floats(-1, 1), st.just(1.0)),
        st.floats(-math.pi, math.pi),
    ),
)
S1_TREES = _trees(_S1_LEAVES)
S2_TREES = _trees(_S2_LEAVES)


def _blends(trees, turned):
    """Blends of a tree f against f turned by turned(f) or perturbed by eps <= 0.6.

    The two ends stay less than 3 rad apart at every point, so no blend
    pinches, and each has f's degree.
    """
    perturbed = st.builds(
        lambda seed, eps: lambda f: Perturb(seed, eps, f),
        st.integers(0, 2**64 - 1),
        st.floats(0.0, 0.6),
    )
    return st.builds(
        lambda f, t, other: Blend(t, f, other(f)),
        trees.filter(lambda f: f.lipschitz_bound() <= 10.0),
        st.floats(0.0, 1.0),
        st.one_of(turned, perturbed),
    )


S1_BLENDS = _blends(
    S1_TREES,
    st.floats(-2.5, 2.5).map(lambda a: lambda f: Compose(Rot(a), f)),
)
S2_BLENDS = _blends(
    S2_TREES,
    st.builds(
        lambda axis, a: lambda f: Compose(Rot3(axis, a), f),
        st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.just(1.0)),
        st.floats(-3.0, 3.0),
    ),
)


def _with_blends(leaves, turn):
    """Trees whose leaves include blends, at any t, of two leaves or of a
    leaf and itself turned by turn(a) for a up to 3.1 rad."""
    turned = st.builds(
        lambda f, t, a: Blend(t, f, Compose(turn(a), f)),
        leaves,
        st.floats(0.0, 1.0),
        st.floats(-3.1, 3.1),
    )
    paired = st.builds(Blend, st.floats(0.0, 1.0), leaves, leaves)
    return _trees(st.one_of(leaves, turned, paired))


S1_WITH_BLENDS = _with_blends(_S1_LEAVES, Rot)
S2_WITH_BLENDS = _with_blends(_S2_LEAVES, lambda a: Rot3((0.3, 0.5, 1.0), a))


def _ends(e, end):
    """e with each blend replaced by its end `end`, "f" or "g": the map
    it is homotopic to wherever its segment does not pinch."""
    if isinstance(e, Blend):
        return _ends(getattr(e, end), end)
    changes = {
        f.name: _ends(getattr(e, f.name), end)
        for f in dataclasses.fields(e)
        if f.init and isinstance(getattr(e, f.name), MapExpr)
    }
    return dataclasses.replace(e, **changes)


class TestWinding:
    def test_pow3_is_nearly_exact(self):
        # the winding pass confirms the structural degree
        res = degree(Pow(3))
        assert res.value == 3
        assert res.residual < 1e-9
        raw, _ = raw_pass(Pow(3), res.resolution)
        assert abs(raw - 3) == res.residual

    def test_identity_wraps_once(self):
        assert degree(parse("(id 1)")).value == 1

    def test_conj_after_squaring(self):
        e = Compose(Conj(), Pow(2))
        res = degree(e)
        assert res.value == -2
        assert res.value == Conj().symbolic_degree() * Pow(2).symbolic_degree()
        assert winding_oracle(e) == -2

    def test_fast_wrapping_map_is_inconclusive_not_wrong(self):
        with pytest.raises(ResolutionExceeded):
            degree(Pow(5000), DegreeParams(max_resolution=2048))

    def test_high_degree_resolves_with_a_bigger_cap(self):
        res = degree(Pow(5000), DegreeParams(max_resolution=1 << 17))
        assert res.value == 5000

    def test_start_whose_double_exceeds_the_cap_is_refused_up_front(self):
        # 2*pi*L = 257.03 rounds up to 258 samples, and 516 > 515: the
        # start's double does not fit under the cap, so nothing is sampled
        e = parse("(perturb 1 0.03 (pow 40))")
        params = DegreeParams(max_resolution=515)
        last = f"above the last level {_last_level(params, 1)}, "
        with pytest.raises(ResolutionExceeded, match=f"resolution 258, {last}"):
            degree(e, params)

    def test_refinement_stops_at_the_row_budget(self, monkeypatch, check_rows_seen):
        # m = cos(1.25) = 0.315 at every node leaves m_rig = 0.217 at 128
        # samples, which proves the blend's bound 9.2 there; the degree
        # reads ceil(2*pi * 9.2) = 58. The check starts at 16 samples
        monkeypatch.setitem(degree_module._FIRST, 1, 16)
        e = parse("(blend 0.5 (pow 2) (compose (rot 2.5) (pow 2)))")
        params = DegreeParams(max_resolution=1 << 20)
        assert degree(e, params).resolution == 58
        assert check_rows_seen == [16, 32, 64, 128]
        # with 128 rows the last level whose double fits is 64, where m_rig
        # = 0.119 needs 106 samples: the 16-sample m already rules 64 out,
        # and no finer level is sampled
        check_rows_seen.clear()
        monkeypatch.setattr(geometry, "MAX_ROWS", 128)
        with pytest.raises(ResolutionExceeded, match=r"up to 64, segment minimum 3.153e-01 at 16"):
            degree(e, params)
        assert check_rows_seen == [16]
        # a blend whose ends alone need 126 samples is refused before sampling
        with pytest.raises(ResolutionExceeded, match="needs resolution 126 or more, above 64"):
            degree(parse("(blend 0.0 (pow 20) (pow 20))"), params)
        assert check_rows_seen == [16]

    @pytest.mark.parametrize("offset", [0.0, 0.1, 1.0, 2.5])
    def test_invariant_under_sample_offset(self, offset):
        # sampling e at offset + phi is sampling e after Rot(offset) at phi
        raw, _ = raw_pass(Compose(Compose(Pow(3), Rot(0.4)), Rot(offset)), 1024)
        assert round(raw) == 3
        assert abs(raw - 3) < 1e-9


class TestQuadrature:
    """The S2 degree as the integral of the pulled-back area form over 4*pi.

    The simplicial pass evaluates that integral exactly over the image
    triangles of the mesh, as a sum of their signed solid angles.
    """

    def test_identity(self):
        res = degree(parse("(id 2)"))
        assert res.value == 1
        assert res.residual < 0.05
        raw, _ = raw_pass(parse("(id 2)"), res.resolution)
        assert abs(raw - 1) == res.residual

    def test_antipode_reverses_orientation(self):
        assert degree(parse("(antipode 2)")).value == -1

    def test_suspended_squaring_has_degree_two(self):
        # the base map every ball certificate in the experiment relies on
        res = degree(parse("(susp (pow 2))"))
        assert res.value == 2

    def test_suspension_preserves_higher_degrees(self):
        assert degree(parse("(susp (pow -3))")).value == -3



def _turned(k, angle):
    """(susp (pow k)) blended with itself turned about z: |F + G| / 2 >= cos(angle / 2)."""
    return parse(f"(blend 0.5 (susp (pow {k})) (compose (rot3 0 0 1 {angle}) (susp (pow {k}))))")


class TestSimplicial:
    def test_default_levels_are_64_and_128_bands(self, check_rows_seen):
        # a degree is read at ceil(pi * L) bands and 8 at least, whatever
        # the first level: pi * 2 = 6.3 bands for (susp (pow 2)), so 8. A
        # blend check runs at 64 bands, then on the 128-band grid, and
        # doubles on while its bound proves no level; the degree is read
        # at the level that bound proves, below the check's last level or
        # above the first
        assert degree(parse("(susp (pow 2))")).resolution == 8
        cases = [
            # (k, turn, check levels, degree level)
            (2, 0.5, [64], 8),
            # cos(1.25) = 0.315: 64 bands leave 0.107 of it, 128 0.211
            (3, 2.5, [64, 128], 45),
            (3, 2.7, [64, 128], 83),
            # cos(1.45) = 0.121: 128 bands leave 0.017 of it, 256 0.069
            (3, 2.9, [64, 128, 256], 138),
        ]
        for k, turn, checks, level in cases:
            e = _turned(k, turn)
            check_rows_seen.clear()
            bound, sd = check_blend_validity(e, DegreeParams())
            assert check_rows_seen == [2 * n * (n - 1) + 2 for n in checks]
            assert level == max(8, math.ceil(math.pi * bound))
            res = degree(e)
            assert (res.value, res.resolution) == (k, level)
            assert _proven_level(bound, DegreeParams(), e.dim) == level
            # the checked blend takes the degree of both its ends
            assert sd == e.f.symbolic_degree() == e.g.symbolic_degree()

    def test_edge_guard_refuses_a_level_the_raw_values_accept(self, monkeypatch):
        # 8 bands carry 16 longitudes, so (susp (pow 5)) turns an equator
        # edge by 5 * pi / 8 > pi / 2 while the raw sum still reads 5
        e = parse("(blend 0.0 (susp (pow 5)) (susp (pow 5)))")
        raw, edge = raw_pass(e, 8)
        assert round(raw) == 5
        assert edge > math.pi / 2
        # the blend's bound is at least L_f = 5, which needs 15.7 bands:
        # where the check starts at 8 bands, under a cap of 16 no level
        # that could prove it is admitted
        monkeypatch.setitem(degree_module._FIRST, 2, 8)
        with pytest.raises(ResolutionExceeded, match="needs resolution 16 or more"):
            degree(e, DegreeParams(max_resolution=16))
        # the check proves L = 7.66 at 64 bands, and the degree reads
        # ceil(pi * 7.66) = 25
        params = DegreeParams(max_resolution=128)
        res = degree(e, params)
        assert (res.value, res.resolution) == (5, 25)
        # a lying bound reads 8 bands, where only the guard can refuse
        monkeypatch.setattr(degree_module, "_blend_bound", lambda *args: 1.0)
        with pytest.raises(ConsistencyError, match="proven resolution 8 gave 5"):
            degree(e, params)

    @settings(deadline=None)
    @given(S2_TREES.filter(lambda e: e.lipschitz_bound() <= 40.0))
    def test_equals_the_structural_degree_on_random_trees(self, e):
        assert degree(e).value == e.symbolic_degree()


def reference_simplicial_pass(walk, resolution: int) -> tuple[float, float]:
    """_simplicial_pass built by np.roll, np.broadcast_to and np.concatenate: its oracle.

    Each block's ring array is concatenated from the carried ring, the
    poles broadcast around their rings and the interior rings, and the
    east neighbours are rolled; the products, the arctan2 expressions,
    their summation order and the NaN-carrying np.minimum are the pass's.
    """
    m = 2 * resolution
    total, lowest, above = 0.0, np.inf, []
    for _, values in walk:
        Y = values[-1].T
        top = 0 if above else 1
        bottom = (Y.shape[1] - top) % m
        north, south = (np.broadcast_to(Y[:, i, None, None], (3, 1, m)) for i in (0, -1))
        rings = [Y[:, top : Y.shape[1] - bottom].reshape(3, -1, m)]
        R = np.concatenate(above + [north] * top + rings + [south] * bottom, axis=1)
        above = [R[:, -1:]]
        if R.shape[1] < 2:
            continue
        R1 = np.roll(R, -1, axis=2)
        a, b, a1, b1 = R[:, :-1], R[:, 1:], R1[:, :-1], R1[:, 1:]
        east = np.einsum("kij,kij->ij", R, R1)
        south = np.einsum("kij,kij->ij", a, b)
        diagonal = np.einsum("kij,kij->ij", a, b1)
        half = np.arctan2(_triple(a, b, b1), 1.0 + south + east[1:] + diagonal)
        south1 = np.roll(south, -1, axis=1)
        half += np.arctan2(_triple(a, b1, a1), 1.0 + diagonal + south1 + east[:-1])
        lowest = np.minimum(lowest, min(east.min(), south.min(), diagonal.min()))
        total += float(half.sum())
    return total / (2.0 * math.pi), math.acos(max(-1.0, min(1.0, float(lowest))))


def _pass_bits(blocks, n: int) -> list[bytes]:
    """The bits of (raw, edge) from _simplicial_pass and from its reference, on one list of blocks."""
    return [
        np.array(run(iter(blocks), n)).tobytes()
        for run in (_simplicial_pass, reference_simplicial_pass)
    ]


class TestSimplicialReference:
    """_simplicial_pass gives its reference's (raw, edge) bit for bit, on every block layout."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(-6, 6),
        st.integers(0, 2**64 - 1),
        st.floats(0.0, 0.9),
        st.integers(8, 24),
    )
    def test_perturbations_at_one_block_levels(self, k, seed, eps, n):
        blocks = list(_walk((Perturb(seed, eps, Susp(Pow(k))),), n))
        assert len(blocks) == 1
        new, reference = _pass_bits(blocks, n)
        assert new == reference

    @pytest.mark.parametrize("n", [64, 65, 257, 503])
    @pytest.mark.parametrize(
        "text", ["(perturb 5 0.5 (susp (pow 3)))", "(compose (rot3 0 1 1 0.7) (susp (pow -2)))"]
    )
    def test_levels_of_several_blocks(self, text, n):
        blocks = list(_walk((parse(text),), n))
        assert len(blocks) > 1
        new, reference = _pass_bits(blocks, n)
        assert new == reference

    @pytest.mark.parametrize("block_rows", [1, 7, 100])
    @pytest.mark.parametrize("n", [8, 13, 24])
    def test_small_blocks(self, monkeypatch, block_rows, n):
        # 1 and 7 rows make a block of each ring, so the first block is
        # the north pole alone and the last the south pole alone
        monkeypatch.setattr(geometry, "BLOCK_ROWS", block_rows)
        blocks = list(_walk((parse("(perturb 9 0.7 (susp (pow 5)))"),), n))
        if block_rows < 2 * n:
            assert len(blocks[0][0]) == len(blocks[-1][0]) == 1
        new, reference = _pass_bits(blocks, n)
        assert new == reference

    @pytest.mark.parametrize("block", [0, 1, -1])
    def test_a_nan_is_carried_across_blocks(self, monkeypatch, block):
        # a NaN value makes its block's least dot product NaN, which
        # np.minimum carries to the end of the walk: the builtin min
        # would drop it, and take the other blocks' least instead
        monkeypatch.setattr(geometry, "BLOCK_ROWS", 100)
        blocks = list(_walk((parse("(susp (pow 3))"),), 16))
        assert len(blocks) > 3
        values = blocks[block][1][-1]
        values[len(values) // 2, 1] = np.nan
        new, reference = _pass_bits(blocks, 16)
        assert new == reference
        assert math.isnan(_simplicial_pass(iter(blocks), 16)[0])


class TestNonFiniteDegree:
    """A raw degree that is not finite is a ConsistencyError, never an error from rounding it."""

    @pytest.mark.parametrize("raw", [math.nan, math.inf, -math.inf])
    def test_a_pass_result_that_is_not_finite(self, raw):
        with pytest.raises(ConsistencyError, match=f"gave {raw:.6g} with"):
            _degree(parse("(pow 3)"), 64, 3, (raw, 0.0))

    @pytest.mark.parametrize(("text", "step"), [("(pow 3)", "nan"), ("(susp (pow 3))", "0")])
    def test_a_walk_holding_a_nan(self, monkeypatch, text, step):
        # one NaN value makes the raw degree NaN; on S1 the largest step
        # is NaN too, while on S2 the least dot product's NaN clips to an
        # edge of 0.0, so only the raw value trips the guard there
        evaluate = degree_module.eval_array

        def with_a_nan(e, X, **kwargs):
            values = evaluate(e, X, **kwargs)
            values[len(values) // 2, 1] = np.nan
            return values

        monkeypatch.setattr(degree_module, "eval_array", with_a_nan)
        with pytest.raises(ConsistencyError, match=f"gave nan with a largest step of {step} "):
            degree(parse(text))


def _rows(dim: int, n: int) -> int:
    """make_grid(dim, n)'s row count: n samples on S1, 2n^2 - 2n + 2 mesh vertices on S2."""
    return n if dim == 1 else 2 * n * (n - 1) + 2


class TestLastLevel:
    """Two numbers admit every degree and blend check level: the cap and the finest grid."""

    @settings(deadline=None)
    @given(
        st.sampled_from([1, 2]),
        st.one_of(st.none(), st.integers(8, 2**22)),
        st.one_of(st.none(), st.integers(8, 2**24)),
        st.one_of(st.integers(1, 2048), st.integers(1, 20000), st.integers(1, 2**23)),
        st.one_of(st.just(2**22), st.integers(2, 2**24)),
    )
    @example(2, None, None, 512, 2**22)
    @example(2, None, None, 513, 2**22)
    @example(2, None, 2**30, 724, 2**22)
    @example(2, None, 2**30, 725, 2**22)
    @example(1, None, 2**30, 2**21, 2**22)
    @example(1, None, 2**30, 2**21 + 1, 2**22)
    def test_the_last_level_admits_what_the_double_rule_did(self, dim, first, cap, n, budget):
        # the rule it replaces: a level is admitted where its double fits
        # the cap and the row budget
        params = DegreeParams(max_resolution=cap)
        with (
            mock.patch.object(geometry, "MAX_ROWS", budget),
            mock.patch.dict(degree_module._FIRST, {} if first is None else {dim: first}),
        ):
            double_fits = 2 * n <= params.max_for(dim) and _rows(dim, 2 * n) <= budget
            assert (n <= _last_level(params, dim)) == double_fits

    @given(st.sampled_from([1, 2]), st.one_of(st.just(2**22), st.integers(128, 2**40)))
    def test_the_finest_grid_is_the_last_within_the_row_budget(self, dim, budget):
        with mock.patch.object(geometry, "MAX_ROWS", budget):
            fine = geometry.finest(dim)
            assert _rows(dim, fine) <= budget < _rows(dim, fine + 1)
            with pytest.raises(InvalidResolution, match="sample rows"):
                next(geometry.grid_blocks(dim, fine + 1))

    @given(st.sampled_from([1, 2]), st.one_of(st.none(), st.integers(8, 2**40)))
    @example(1, 8)
    @example(2, 8)
    @example(2, None)
    def test_every_search_lists_a_level(self, dim, cap):
        # _levels starts at the first level: it lists one where the first
        # level is at most the last level and its double fits the finest
        # grid, under every cap, at the shipped budget and at 2**16 rows
        first = degree_module._FIRST[dim]
        for budget in (geometry.MAX_ROWS, 2**16):
            with mock.patch.object(geometry, "MAX_ROWS", budget):
                assert first <= _last_level(DegreeParams(max_resolution=cap), dim)
                assert 2 * first <= geometry.finest(dim)

    def test_spot_checks(self):
        assert (_last_level(DegreeParams(), 1), _last_level(DegreeParams(), 2)) == (8192, 512)
        uncapped = DegreeParams(max_resolution=2**30)
        assert (_last_level(uncapped, 2), geometry.finest(2)) == (724, 1448)
        assert (_last_level(uncapped, 1), geometry.finest(1)) == (2**21, 2**22)


class TestProvenLevel:
    """A map with a Lipschitz bound L is sampled at one level, its start,
    where n >= 2*pi*L (S1) or n >= pi*L (S2) proves the sum exact."""

    @settings(deadline=None)
    @given(st.one_of(S1_TREES, S2_TREES.filter(lambda e: e.lipschitz_bound() <= 40.0)))
    def test_one_level_is_the_structural_degree(self, e):
        res = degree(e)
        assert res.value == e.symbolic_degree()
        assert res.residual < 1e-6
        level = _proven_level(e.lipschitz_bound(), DegreeParams(), e.dim)
        assert (res.resolution, res.value) == (level, e.symbolic_degree())

    @pytest.mark.parametrize(
        ("bound", "text"),
        [
            # 2.0 ** 1100 overflows to inf
            (math.inf, "(iterate 1100 (pow 2))"),
            # inf * 0 is NaN
            (math.nan, "(compose (iterate 1100 (pow 2)) (pow 0))"),
        ],
    )
    def test_a_bound_that_is_not_finite_is_refused_before_anything_is_sampled(
        self, monkeypatch, bound, text
    ):
        monkeypatch.setattr(degree_module, "eval_array", lambda *args, **kw: pytest.fail("read"))
        last = f"above the last level {_last_level(DegreeParams(), 1)},"
        with pytest.raises(ResolutionExceeded, match=f"needs resolution {bound}, {last}"):
            _proven_level(bound, DegreeParams(), 1)
        e = parse(text)
        assert repr(e.lipschitz_bound()) == repr(bound)
        with pytest.raises(ResolutionExceeded, match=f"needs resolution {bound}, {last}"):
            degree(e)

    @pytest.mark.parametrize(
        "text",
        [
            # inf * 0 makes the product's bound NaN: no level proves it
            "(perturb 5 0.999 (compose (iterate 1100 (pow 2)) (pow 0)))",
            # the same map needs 32 samples, but five of it in a row have
            # the bound 4.96**5, which needs 18810, above the last level
            "(iterate 5 (perturb 5 0.999 (pow 0)))",
        ],
    )
    def test_a_steep_perturbation_of_a_constant_is_refused(self, text):
        last = f"above the last level {_last_level(DegreeParams(), 1)},"
        with pytest.raises(ResolutionExceeded, match=rf"^map needs resolution \S+, {last}"):
            degree(parse(text))

    @settings(deadline=None)
    @given(st.one_of(S1_TREES, S2_TREES))
    def test_a_map_without_a_blend_is_checked_by_its_ast_alone(self, e):
        # the walk applies the AST's rules to every node, and samples nothing
        with mock.patch.object(degree_module, "eval_array", side_effect=AssertionError):
            assert check_blend_validity(e, DegreeParams()) == (
                e.lipschitz_bound(),
                e.symbolic_degree(),
            )

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(S1_WITH_BLENDS, S2_WITH_BLENDS))
    def test_every_degree_is_the_checked_structural_degree(self, e):
        # each blend whose check passes takes its ends' common degree,
        # inside out; every degree not refused is that one, which is also
        # the degree of e with every blend replaced by either of its ends
        try:
            res = degree(e)
        except (ResolutionExceeded, InvalidBlend):
            return
        assert res.value == check_blend_validity(e, DegreeParams())[1]
        assert res.value == _ends(e, "f").symbolic_degree() == _ends(e, "g").symbolic_degree()

    def test_a_checked_blend_whose_ends_disagree_is_a_bug(self, monkeypatch):
        # (pow 2) and (pow 3) are antipodal at angle pi, so their segment
        # pinches; a check that wrongly accepts it leaves a blend with no
        # common degree, which the check itself refuses, so no pass is read
        e = parse("(blend 0.5 (pow 2) (pow 3))")
        with pytest.raises(InvalidBlend):
            degree(e)
        monkeypatch.setattr(degree_module, "pair_min_norm", lambda F, G: (1.0, 0))
        monkeypatch.setitem(
            degree_module._PASSES, 1, ("winding", lambda *args: pytest.fail("read"))
        )
        bounds, blend_bound = [], degree_module._blend_bound

        def accepted(*args):
            bounds.append(blend_bound(*args))
            return bounds[-1]

        monkeypatch.setattr(degree_module, "_blend_bound", accepted)
        with pytest.raises(ConsistencyError, match="structural degrees 2 and 3 in"):
            check_blend_validity(e, DegreeParams())
        assert len(bounds) == 1 and bounds[0] < 3.0
        with pytest.raises(ConsistencyError, match="structural degrees 2 and 3 in"):
            degree(e)
        with pytest.raises(ConsistencyError, match="structural degrees 2 and 3 in"):
            degree(Compose(Pow(1), e))

    def test_a_refusal_names_the_level_that_is_not_admitted(self):
        # past the finest grid's half, a level's double needs more than
        # 2**22 rows. (susp (pow 255)) is read at ceil(255 * pi) = 802
        # bands, which is not admitted
        params = DegreeParams(max_resolution=4096)
        last, fine = _last_level(params, 2), geometry.finest(2)
        assert last == fine // 2 < 802
        with pytest.raises(
            ResolutionExceeded,
            match=rf"^map needs resolution 802, above the last level {last}, half the smaller "
            rf"of the cap 4096 and the finest grid {fine} within {geometry.MAX_ROWS} sample rows$",
        ):
            degree(Susp(Pow(255)), params)

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(S1_BLENDS, S2_BLENDS))
    def test_proven_blend_degree_is_the_degree_of_its_ends(self, e):
        # a blend that does not pinch is homotopic to either end; one
        # that no admitted level proves is refused
        try:
            res = degree(e)
        except ResolutionExceeded:
            assume(False)
        bound, sd = check_blend_validity(e, DegreeParams())
        assert res.value == e.f.symbolic_degree() == e.g.symbolic_degree()
        assert res.residual < 1e-6
        assert (_proven_level(bound, DegreeParams(), e.dim), sd) == (res.resolution, res.value)

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(S1_TREES, S2_TREES, S1_WITH_BLENDS, S2_WITH_BLENDS))
    # 2*pi*L samples or pi*L bands of at most 6.3: read at 8
    @example(parse("(id 1)"))
    @example(parse("(rot 1.0)"))
    @example(parse("(conj)"))
    @example(parse("(susp (pow 2))"))
    @example(parse("(antipode 2)"))
    @example(parse("(blend 0.5 (susp (pow 2)) (perturb 4 0.5 (susp (pow 2))))"))
    # pi * 3 = 9.4 bands: read at 10, below the first level of 64
    @example(parse("(susp (pow 3))"))
    # a blend whose check proves L = 26.1 at 128 bands: read at 83, above 64
    @example(_turned(3, 2.7))
    def test_every_degree_is_read_at_the_level_its_bound_gives(self, e):
        # need is 2*pi*L samples or pi*L bands, rounded up, and 8 at
        # least, with or without a blend, below the first level n or not.
        # Its integer is the one read at max(need, n)
        try:
            res = degree(e)
        except (ResolutionExceeded, InvalidBlend):
            return
        bound, _ = check_blend_validity(e, DegreeParams())
        first, wrap = degree_module._FIRST[e.dim], 2 * math.pi / e.dim
        need = math.ceil(wrap * bound)
        assert res.resolution == max(need, geometry.MIN_RESOLUTION)
        assert res.residual < 1e-6
        assert res.value == _ends(e, "f").symbolic_degree()
        assert res.value == round(raw_pass(e, max(need, first))[0])

    def test_a_lying_bound_never_returns_an_integer(self, monkeypatch):
        # L = 1 reads (pow 40) at 8 bands, where its equator edges turn
        # by 40 * pi / 8 > pi / 2: the guard refuses, nothing refines
        monkeypatch.setattr(Pow, "_bound", lambda self, inner: 1.0)
        e = parse("(susp (pow 40))")
        with pytest.raises(ConsistencyError, match="proven resolution 8 "):
            degree(e)

    @pytest.mark.parametrize(("k", "alias"), [(40, -22), (-17, 9)])
    def test_the_floor_is_what_proves_the_level(self, k, alias):
        # the start is ceil(pi * |k|) bands: 126 for 40, 54 for -17
        e = Susp(Pow(k))
        res = degree(e)
        assert (res.value, res.resolution) == (k, math.ceil(math.pi * abs(k)))
        # at a quarter of it the sum is a convincing wrong integer, which
        # only the edge guard tells apart
        raw, edge = raw_pass(e, res.resolution // 4)
        assert abs(raw - alias) < 1e-6
        assert edge > STEP_CAP


class TestDegreeDispatch:
    def test_symbolic_with_numeric_witness(self):
        e = parse("(iterate 2 (susp (pow 2)))")
        res = degree(e)
        assert res.value == e.symbolic_degree() == 4
        raw, _ = raw_pass(e, res.resolution)
        assert abs(raw - 4) == res.residual

    def test_a_pass_that_disagrees_with_the_structural_degree_is_a_bug(self):
        with pytest.raises(
            SymbolicNumericMismatch,
            match=r"^structural degree 2 but winding found 3 at resolution 64 for \(pow 3\)$",
        ):
            _degree(Pow(3), 64, 2, (3.0, 0.0))

    def test_a_checked_blend_takes_the_degree_of_its_ends(self):
        # the AST alone has no degree for a blend; once its check passes
        # the blend takes its ends' common one, which the pass confirms
        e = parse("(blend 0.5 (pow 2) (perturb 9 0.3 (pow 2)))")
        assert e.symbolic_degree() is None
        res = degree(e)
        assert res.value == e.f.symbolic_degree() == e.g.symbolic_degree() == 2
        raw, _ = raw_pass(e, res.resolution)
        assert abs(raw - 2) == res.residual
        assert winding_oracle(e) == 2

    def test_blend_with_vanishing_denominator(self):
        e = parse("(blend 0.5 (pow 1) (compose (antipode 1) (pow 1)))")
        with pytest.raises(InvalidBlend):
            degree(e)

    @pytest.mark.parametrize(
        "text",
        [
            "(blend 0.5 (id 1) (rot 3.141592453589793))",
            "(blend 0.5 (id 2) (rot3 0 0 1 3.141592453589793))",
        ],
    )
    def test_each_method_checks_the_blend_first(self, text):
        # the children are 1e-7 from antipodal: a sampled degree would
        # still read 1, but the blend check refuses before any degree
        with pytest.raises(InvalidBlend, match="denominator 1.000e-07"):
            degree(parse(text))

    def test_the_coarse_check_never_accepts_what_the_grid_refuses(self, check_rows_seen):
        # the 128-band grid sees a 1e-7 pinch, and so do the 64 bands its
        # nodes include: the check refuses at 64, with that level's own
        # minimum, and never reads the grid
        e = parse("(blend 0.5 (id 2) (rot3 0 0 1 3.141592453589793))")
        with pytest.raises(InvalidBlend) as refused:
            check_blend_validity(e, DegreeParams())
        assert check_rows_seen == [8066]
        low, row = pair_min_norm(*(eval_array(f, geometry.make_grid(2, 128)) for f in (e.f, e.g)))
        assert low <= BLEND_MIN_NORM
        X = geometry.make_grid(2, 64)
        low, row = pair_min_norm(eval_array(e.f, X), eval_array(e.g, X))
        assert str(refused.value) == (
            f"blend denominator {low:.3e} at t=0.5 near {tuple(X[row].tolist())} in {e.render()}"
        )

    def test_a_pinch_past_the_grid_is_refused_where_it_is_found(self, check_rows_seen):
        # the ends are antipodal at the angle pi/256, a node of 512
        # samples but not of the 256-sample grid, whose m = sin(pi/256)
        # proves nothing: the check doubles and refuses at 512
        e = parse("(blend 0.5 (pow 1) (compose (rot -3.117048960983623) (pow -1)))")
        x = geometry.make_grid(1, 512)[1].tolist()[0]
        with pytest.raises(InvalidBlend, match=rf"denominator 1.908e-17 at t=0.5 near \({x}"):
            degree(e)
        assert check_rows_seen == [256, 512]

    def test_a_nested_pinch_names_the_inner_blend(self, check_rows_seen):
        # the inner blend is checked first and pinches at every node; the
        # outer one, whose child it is, would not normalize
        inner = "(blend 0.5 (id 2) (antipode 2))"
        e = parse(f"(blend 0.5 {inner} (id 2))")
        point = r"0.000e\+00 at t=0.5 near \(0.0, 0.0, 1.0\) in "
        with pytest.raises(InvalidBlend, match=point + re.escape(inner) + "$"):
            degree(e)
        assert check_rows_seen == [8066]

    @pytest.mark.parametrize(
        ("text", "named"),
        [
            (
                "(compose (blend 0.5 (pow 2) (pow 3)) (blend 0.5 (pow 1) (antipode 1)))",
                "(blend 0.5 (pow 1) (antipode 1))",
            ),
            (
                "(compose (blend 0.5 (blend 0.5 (pow 1) (antipode 1)) (pow 2)) "
                "(blend 0.5 (pow 2) (pow 3)))",
                "(blend 0.5 (pow 2) (pow 3))",
            ),
        ],
    )
    def test_sibling_blends_are_checked_right_to_left(self, check_rows_seen, text, named):
        # children are checked right to left, each after the blends
        # within it, so both right siblings are checked, and refused at
        # their first level, before any blend on the left is sampled
        with pytest.raises(InvalidBlend) as refused:
            degree(parse(text))
        first = degree_module._FIRST[1]
        assert check_rows_seen == [first]
        blend, X = parse(named), geometry.make_grid(1, first)
        low, row = pair_min_norm(eval_array(blend.f, X), eval_array(blend.g, X))
        assert str(refused.value) == (
            f"blend denominator {low:.3e} at t=0.5 near {tuple(X[row].tolist())} in {named}"
        )

    @pytest.mark.parametrize(
        ("text", "last", "rows"),
        [
            # m = 4.6e-5 needs about 136,000 samples; 8192 is the last
            # level whose double fits the default cap of 16384, and the
            # first level's m already rules it out
            ("(blend 0.5 (rot 0) (rot 3.1415))", 8192, [256]),
            # m = 0.021 needs 1024 bands, whose double is over the row
            # budget: 512 bands is the last level admitted, and the
            # 64-band m leaves m_rig = 0.0036 there, which needs 1744
            (
                "(blend 0.5 (susp (pow 2)) (compose (rot3 0 0 1 3.1) (susp (pow 2))))",
                512,
                [8066],
            ),
        ],
    )
    def test_the_check_stops_at_the_last_admitted_level(self, check_rows_seen, text, last, rows):
        e = parse(text)
        with pytest.raises(ResolutionExceeded, match=rf"no level up to {last}, segment minimum"):
            degree(e)
        assert check_rows_seen == rows

    def test_a_larger_cap_does_not_lift_the_row_budget(self, check_rows_seen):
        params = DegreeParams(max_resolution=4096)
        e = parse("(blend 0.5 (susp (pow 2)) (compose (rot3 0 0 1 3.1) (susp (pow 2))))")
        with pytest.raises(ResolutionExceeded, match="no level up to 512, segment minimum"):
            degree(e, params)
        assert check_rows_seen == [8066]
        # these ends alone need pi * 300 = 943 bands: half the cap would
        # admit that, but the row budget stops the check at 512, so the
        # blend is refused before sampling
        e = parse("(blend 0.5 (susp (pow 300)) (compose (rot3 0 0 1 0.1) (susp (pow 300))))")
        with pytest.raises(ResolutionExceeded, match="needs resolution 943 or more, above 512"):
            degree(e, params)
        assert check_rows_seen == [8066]

    def test_a_check_samples_only_levels_a_degree_may_be_read_at(self, check_rows_seen):
        # m = cos(0.15) = 0.989 and L_f = L_g = 10: m_rig proves the bound
        # at 128 bands, not at 64. By default 128 is admitted, the check
        # proves L = 15.6 there, and the degree reads ceil(pi * 15.6) = 49;
        # a cap below 256 admits 64 alone, and the check refuses there
        e = parse("(blend 0.5 (susp (pow 10)) (compose (rot3 0 0 1 0.3) (susp (pow 10))))")
        assert (degree(e).value, degree(e).resolution) == (10, 49)
        check_rows_seen.clear()
        with pytest.raises(ResolutionExceeded, match="no level up to 64, segment minimum"):
            degree(e, DegreeParams(max_resolution=128))
        assert check_rows_seen == [8066]

    def test_a_larger_cap_admits_a_finer_proof(self):
        e = parse("(blend 0.5 (rot 0) (rot 3.14))")
        with pytest.raises(ResolutionExceeded, match="no level up to 8192"):
            degree(e)
        # the check proves L = 2422 at 16384 samples, and the degree
        # reads ceil(2*pi * 2422) = 15220
        res = degree(e, DegreeParams(max_resolution=32768))
        assert (res.value, res.resolution) == (1, 15220)
        assert res.residual < 1e-6

    def test_the_refusal_before_sampling_weighs_the_ends_by_t(self, check_rows_seen):
        # g stays within 11 turns of at most asin(0.3 * M) of z^2, but its
        # bound is 2 * 1.82**11: 2*pi * L_g = 8942 samples is over half
        # the cap. The blend leans on f: its bound is at least 0.99 * 2 +
        # 0.01 * 1423, which needs 102 samples. The mesh term (L_f + L_g)
        # / 2 * mesh leaves m_rig > 0 only at 8192 samples, where the check
        # proves L = 762, and the degree reads ceil(2*pi * 762) = 4791.
        e = parse("(blend 0.01 (pow 2) (compose (pow 2) (iterate 11 (perturb 3 0.3 (id 1)))))")
        assert 2 * math.pi * e.g.lipschitz_bound() > DegreeParams().max_for(1) // 2
        res = degree(e)
        assert (res.value, res.resolution) == (2, 4791)
        sampled = [256, 512, 1024, 2048, 4096, 8192]
        assert check_rows_seen == sampled
        # with the weights the other way round no level can prove it
        with pytest.raises(ResolutionExceeded, match="needs resolution 8852 or more"):
            degree(Blend(0.99, e.f, e.g))
        assert check_rows_seen == sampled

    def test_params_validation(self):
        # the cap is keyword-only: a positional value is no field
        with pytest.raises(TypeError):
            DegreeParams(16)
        for cap in (0, -7, 4):
            with pytest.raises(ValueError):
                DegreeParams(max_resolution=cap)
        assert DegreeParams(max_resolution=8).max_for(1) == 512
        assert DegreeParams(max_resolution=8).max_for(2) == 128

    def test_a_cap_that_is_no_integer_is_refused(self):
        # 600.5 was taken, and a ball certificate then raised TypeError
        # from range() over its base's kept levels
        for cap in (600.5, 600.0, "600", np.float64(600.0)):
            with pytest.raises(ValueError, match="max resolution must be an integer"):
                DegreeParams(max_resolution=cap)
        params = DegreeParams(max_resolution=np.int64(600))
        assert type(params.max_resolution) is int and params == DegreeParams(max_resolution=600)
        f0 = parse("(pow 2)")
        assert ball_certificate(f0, Perturb(1, 0.3, f0), params).degree.value == 2

    def test_multiplicativity_on_seeded_pairs(self):
        rng = random.Random(1729)

        def random_expr(depth):
            if depth == 0 or rng.random() < 0.5:
                r = rng.random()
                if r < 0.5:
                    return Pow(rng.randint(-4, 4))
                if r < 0.8:
                    return Rot(rng.uniform(0, 2 * math.pi))
                return Conj()
            return Compose(random_expr(depth - 1), random_expr(depth - 1))

        for _ in range(30):
            f, g = random_expr(2), random_expr(2)
            df = degree(f).value
            dg = degree(g).value
            assert degree(Compose(f, g)).value == df * dg

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_iterate_law_on_the_circle(self, n):
        assert degree(Iterate(n, Pow(2))).value == 2**n

    def test_iterate_law_on_the_sphere(self):
        assert degree(Iterate(2, Susp(Pow(2)))).value == 4

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_homotopy_invariance_under_perturbation(self, seed):
        assert degree(Perturb(seed, 0.9, Pow(2))).value == 2

    def test_homotopy_invariance_on_the_sphere(self):
        assert degree(Perturb(5, 0.8, Susp(Pow(2)))).value == 2

    def test_winding_accepts_stably(self):
        res = degree(Perturb(21, 0.7, Pow(2)))
        raw, _ = raw_pass(Perturb(21, 0.7, Pow(2)), 2 * res.resolution)
        assert round(raw) == res.value

    def test_quadrature_accepts_stably(self):
        res = degree(Susp(Pow(3)))
        raw, _ = raw_pass(Susp(Pow(3)), 2 * res.resolution)
        assert round(raw) == res.value


class TestSupDistance:
    def test_distance_to_self_is_zero(self):
        f = parse("(pow 2)")
        assert sup_distance(f, f).sampled_max == 0.0

    def test_identity_versus_antipode(self):
        est = sup_distance(parse("(id 1)"), parse("(antipode 1)"))
        assert est.sampled_max == 2.0

    @pytest.mark.parametrize(("dim", "grid"), [(1, 256), (2, 128)])
    def test_the_default_grid(self, dim, grid):
        # where no resolution is given, distance and homotopy sample 256
        # samples or 128 bands; a resolution of 0 is checked, not defaulted
        f, g = parse(f"(id {dim})"), parse(f"(antipode {dim})")
        assert sup_distance(f, g).resolution == homotopy_check(f, g).resolution == grid
        for check in (sup_distance, homotopy_check):
            with pytest.raises(InvalidResolution):
                check(f, g, 0)

    def test_a_resolution_that_is_no_integer_is_refused(self):
        # 100.5 raised TypeError from the grid's range() or arange()
        f, g = parse("(pow 2)"), parse("(perturb 5 0.4 (pow 2))")
        for check in (sup_distance, homotopy_check):
            for n in (100.5, 100.0, "100"):
                with pytest.raises(InvalidResolution, match="resolution must be an integer"):
                    check(f, g, n)
        assert sup_distance(f, g, np.int64(100)) == sup_distance(f, g, 100)

    @pytest.mark.parametrize("n", [np.int64(64), np.uint16(64), np.int8(64), 64])
    def test_a_numpy_integer_resolution_is_reported_as_an_int(self, n):
        # np.int64(64) was kept as given, and json.dumps of either report
        # raised TypeError
        f, g = parse("(pow 2)"), parse("(perturb 5 0.4 (pow 2))")
        for check in (sup_distance, homotopy_check):
            report = check(f, g, n)
            assert type(report.resolution) is int and report.resolution == 64
            assert json.loads(json.dumps(report.to_json_dict()))["resolution"] == 64
            assert report == check(f, g, 64)

    def test_perturbation_stays_inside_the_unit_ball(self):
        est = sup_distance(parse("(pow 2)"), parse("(perturb 5 0.4 (pow 2))"), 2048)
        assert est.sampled_max < 1.0

    def test_rigorous_bound_needs_lipschitz_constants(self):
        f, g = parse("(pow 2)"), parse("(perturb 5 0.4 (pow 2))")
        bounded = sup_distance(f, g, 512)
        mesh = geometry.mesh(1, 512)
        slope = f.lipschitz_bound() + g.lipschitz_bound()
        assert bounded.rigorous == bounded.sampled_max + slope * mesh
        # a blend's constant comes from its check
        blend = parse("(blend 0.5 (pow 2) (perturb 5 0.4 (pow 2)))")
        slope = f.lipschitz_bound() + check_blend_validity(blend, DegreeParams())[0]
        est = sup_distance(f, blend, 512)
        assert est.rigorous == est.sampled_max + slope * mesh
        # a bound that overflows gives none, and a pinched blend is refused
        assert sup_distance(f, parse("(iterate 2000 (pow 2))"), 512).rigorous is None
        with pytest.raises(InvalidBlend):
            sup_distance(f, parse("(blend 0.5 (pow 2) (compose (antipode 1) (pow 2)))"))

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(S1_BLENDS, S2_BLENDS))
    def test_a_blend_its_check_proves_has_a_rigorous_distance(self, e):
        try:
            bound, _ = check_blend_validity(e, DegreeParams())
        except ResolutionExceeded:
            assume(False)
        est = sup_distance(e.f, e)
        assert est.rigorous is not None and math.isfinite(est.rigorous)
        slope = e.f.lipschitz_bound() + bound
        assert est.rigorous == est.sampled_max + slope * geometry.mesh(e.dim, est.resolution)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sup_distance(parse("(pow 2)"), parse("(susp (pow 2))"))


def whole_distance(f, g, n: int) -> float:
    """pair_distance over one array of each map's values on the whole level."""
    X = geometry.make_grid(f.dim, n)
    return pair_distance(eval_array(f, X), eval_array(g, X))


class TestStreamedDistance:
    """Every level is reduced block by block, bit for bit."""

    @pytest.mark.parametrize(
        "f, g, levels",
        [
            ("(pow 2)", "(perturb 5 0.4 (pow 2))", (256, 512, 9000, 20000)),
            ("(pow 3)", "(compose (rot 1.0) (perturb 8 0.7 (pow 3)))", (300, 16385)),
            ("(susp (pow 2))", "(perturb 4 0.5 (susp (pow 2)))", (33, 64, 128, 256)),
            ("(susp (pow 3))", "(compose (rot3 1 2 3 0.4) (susp (pow 3)))", (50, 257)),
        ],
    )
    def test_streamed_max_equals_the_whole_array_max(self, f, g, levels):
        f, g = parse(f), parse(g)
        for n in levels:
            want = whole_distance(f, g, n)
            assert _sup_distance(f, g, n, math.inf, None)[0].sampled_max == want
            assert sup_distance(f, g, n).sampled_max == want

    @pytest.mark.parametrize("block_rows", [1, 100])
    def test_small_blocks_give_the_same_max(self, monkeypatch, block_rows):
        monkeypatch.setattr(geometry, "BLOCK_ROWS", block_rows)
        for f, g, n in (
            ("(pow 2)", "(perturb 5 0.4 (pow 2))", 512),
            ("(susp (pow 2))", "(perturb 4 0.5 (susp (pow 2)))", 32),
        ):
            f, g = parse(f), parse(g)
            assert _sup_distance(f, g, n, math.inf, None)[0].sampled_max == whole_distance(f, g, n)

    @pytest.mark.parametrize("block_rows", [1, 100, geometry.BLOCK_ROWS])
    @pytest.mark.parametrize(
        "f, g, n",
        [
            ("(pow 2)", "(perturb 5 0.4 (pow 2))", 9000),
            ("(id 1)", "(antipode 1)", 300),  # every row ties at 0
            ("(susp (pow 2))", "(perturb 4 0.5 (susp (pow 2)))", 128),
            ("(id 2)", "(rot3 0 0 1 3.0)", 64),  # the equator ring is lowest
            ("(pow 2)", "(pow 3)", 32),  # antipodal at the angle pi
            ("(id 2)", "(antipode 2)", 9),  # ties from the north pole on
            ("(susp (pow 2))", "(susp (pow 3))", 33),  # antipodal at the longitude pi
        ],
    )
    def test_streamed_min_norm_is_the_whole_array_min_at_its_first_row(
        self, monkeypatch, f, g, n, block_rows
    ):
        f, g = parse(f), parse(g)
        X = geometry.make_grid(f.dim, n)
        low, row = pair_min_norm(eval_array(f, X), eval_array(g, X))
        monkeypatch.setattr(geometry, "BLOCK_ROWS", block_rows)
        # the same minimum, at the grid's node of its first row, bit for bit
        got, point = _min_norm(_walk((f, g), n))
        assert got == low
        assert np.array(point).tobytes() == X[row].tobytes()

    def test_streamed_level_is_refused_over_the_row_budget_before_sampling(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(degree_module, "eval_array", never)
        with pytest.raises(InvalidResolution, match="sample rows"):
            f, g, n = parse("(id 2)"), parse("(antipode 2)"), geometry.finest(2) + 1
            _sup_distance(f, g, n, math.inf, None)


class TestWalk:
    """Every level is one walk of grid blocks, which every consumer of the level reads."""

    @settings(deadline=None, max_examples=30)
    @given(
        st.one_of(S1_TREES, S2_TREES).filter(lambda e: e.lipschitz_bound() <= 100.0),
        st.sampled_from([None, 8, 33, 64]),
    )
    def test_block_size_changes_no_integer_and_no_step(self, e, level):
        # the degree's own level, or another: against one block of the
        # whole level, the same integer, the same largest step or edge
        # bit for bit, and the raw sum within 1e-12
        res = degree(e) if level is None else None
        n = res.resolution if res is not None else level
        with mock.patch.object(geometry, "BLOCK_ROWS", geometry.MAX_ROWS):
            raw, step = raw_pass(e, n)
        for rows in (1, 7, 100, 8192):
            with mock.patch.object(geometry, "BLOCK_ROWS", rows):
                got, got_step = raw_pass(e, n)
            assert round(got) == round(raw)
            assert got_step == step
            assert abs(got - raw) <= 1e-12
        if res is not None:
            assert round(raw) == res.value

    @pytest.mark.parametrize(
        "text",
        [
            # 503 bands; the whole level's arrays peaked at 81 MB
            "(susp (pow 160))",
            # checked at 64, 128 and 256 bands and read at 80; the whole
            # levels peaked at 17.9 MB
            "(blend 0.5 (susp (pow 3)) (compose (rot3 0 0 1 2.8) (susp (pow 3))))",
        ],
    )
    def test_a_degree_holds_no_whole_level(self, text):
        e = parse(text)
        degree(parse("(susp (pow 2))"))
        tracemalloc.start()
        try:
            res = degree(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.value == e.f.symbolic_degree() if isinstance(e, Blend) else e.symbolic_degree()
        assert peak < 6e6

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_a_map_over_an_earlier_one_reads_it_from_the_table(self, data):
        # g is built over f, so on every block f's text is in the walk's
        # table wherever g applies f to the block's nodes: f is evaluated
        # there once, for itself, and g still gets the bits of its own
        # evaluation; the level spans several blocks
        dim = data.draw(st.sampled_from([1, 2]))
        trees = S1_TREES if dim == 1 else S2_TREES
        f, h = data.draw(trees), data.draw(trees)
        g = data.draw(
            st.one_of(
                st.builds(Perturb, st.integers(0, 2**64 - 1), st.floats(0.0, 0.9), st.just(f)),
                st.just(Compose(h, f)),
                st.builds(Blend, st.floats(0.0, 1.0), st.just(f), st.just(h)),
                st.builds(Blend, st.floats(0.0, 1.0), st.just(h), st.just(f)),
                st.just(Iterate(1, f)),
            )
        )
        n = data.draw(st.sampled_from([8, 61, 200] if dim == 1 else [8, 24, 61]))
        try:
            eval_array(g, geometry.make_grid(dim, n))
        except NearZeroVector:
            assume(False)  # a blend that pinches at a node
        evaluated = []

        def spying(cls):
            original = cls._eval

            def spy(node, Y, at):
                evaluated.append((node.render(), id(Y)))
                return original(node, Y, at)

            return spy

        blocks = 0
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(geometry, "BLOCK_ROWS", 7))
            for cls in _NAMES:
                stack.enter_context(mock.patch.object(cls, "_eval", spying(cls)))
            for X, (F, G) in _walk((f, g), n):
                # X lives while its block is evaluated, so no other array
                # evaluated on then has its id
                at_nodes = [text for text, key in evaluated if key == id(X)]
                assert at_nodes.count(f.render()) == 1
                assert F.tobytes() == eval_array(f, X).tobytes()
                assert G.tobytes() == eval_array(g, X).tobytes()
                evaluated.clear()
                blocks += 1
        assert blocks > 1

    def test_every_block_a_map_reads_is_read_only(self, monkeypatch):
        writeable = []
        eval_array = degree_module.eval_array

        def spy(e, X, **kwargs):
            writeable.append(X.flags.writeable)
            return eval_array(e, X, **kwargs)

        monkeypatch.setattr(degree_module, "eval_array", spy)
        monkeypatch.setattr(geometry, "BLOCK_ROWS", 100)
        f0, g = parse("(susp (pow 2))"), parse("(perturb 4 0.5 (susp (pow 2)))")
        degree(parse("(blend 0.5 (susp (pow 2)) (compose (rot3 0 0 1 0.5) (susp (pow 2))))"))
        sup_distance(f0, g, 16)
        homotopy_check(f0, g, 16)
        ball_certificate(f0, g)
        ball_certificate(f0, parse("(compose (rot3 0 0 1 0.5) (susp (pow 2)))"))
        assert len(writeable) > 100 and not any(writeable)


class TestLipschitzBound:
    """The AST's Lipschitz bound, on which rigorous distance bounds rest."""

    @settings(deadline=None)
    @given(
        st.one_of(S1_TREES, S2_TREES, S1_BLENDS, S2_BLENDS),
        st.integers(0, 2**32 - 1),
        st.sampled_from([8, 16, 64]),
    )
    # (pow 0) once gave (1, -0.0) or (1, 0.0) by the sign of arctan2, and
    # after the antipode (pow 1) turned that into sin(-pi) or sin(pi): a
    # constant map that moved by 2.4e-16 against a bound of exactly 0
    @example(Compose(Compose(Pow(1), Antipode(1)), Pow(0)), 1, 64)
    # the blend stretches by 1 / cos(1.5) = 14.1 across a great circle
    # that no node of 8 bands lies on: without the mesh term its sampled
    # minimum alone would give a bound near 12
    @example(parse("(blend 0.5 (id 2) (compose (rot3 0.3 0.5 1.0 3.0) (id 2)))"), 0, 8)
    @example(parse("(blend 0.5 (id 2) (compose (rot3 0.3 0.5 1.0 3.0) (id 2)))"), 0, 64)
    # bounds near 0 (2.8e-16 and 1.67e-15) against values rounded a few
    # ulp apart: quotients of 1.1e-14 before _largest_quotient's allowance
    @example(parse("(compose (rot 1.0) (perturb 117 2.220446049250313e-16 (pow 0)))"), 0, 8)
    @example(
        parse(
            "(blend 1.0 (perturb 0 1e-15 (pow 0)) (compose (rot 1.0) (perturb 0 1e-15 (pow 0))))"
        ),
        0,
        8,
    )
    def test_bounds_chordal_difference_quotients(self, e, seed, resolution):
        # a blend's bound comes from its check, starting on the given
        # grid; a map without one has its AST bound, and a blend that no
        # admitted level proves has none to test
        try:
            with mock.patch.dict(degree_module._FIRST, {e.dim: resolution}):
                bound, _ = check_blend_validity(e, DegreeParams())
        except ResolutionExceeded:
            return
        assert _largest_quotient(e, seed) <= bound * (1.0 + 1e-9)

    @settings(deadline=None)
    @given(
        st.one_of(S1_TREES, S2_TREES),
        st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.floats(0.0, 0.99)), min_size=1, max_size=3
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_chains_of_perturbs_stay_within_their_bound(self, f, chain, seed):
        # each perturb divides by its norm's floor 1 - eps * M, which is
        # smallest near eps = 1: eps up to 0.99 tries it there
        g = f
        for field_seed, eps in chain:
            g = Perturb(field_seed, eps, g)
        assert _largest_quotient(g, seed) <= g.lipschitz_bound() * (1.0 + 1e-9)


def _largest_quotient(e: MapExpr, seed: int) -> float:
    """The largest |e(x) - e(y)| / |x - y| over 300 random pairs of nearby points."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, e.dim + 1))
    X /= np.linalg.norm(X, axis=1)[:, None]
    # step along a unit tangent, so no pair is too close for rounding
    T = rng.normal(size=X.shape)
    T -= (T * X).sum(axis=1)[:, None] * X
    T /= np.linalg.norm(T, axis=1)[:, None]
    Y = X + rng.choice([1e-2, 1e-3, 1e-4], size=(300, 1)) * T
    Y /= np.linalg.norm(Y, axis=1)[:, None]
    # values rounded to a few ulp can differ where the map moves by
    # nothing, so each pair's moved distance is first lowered by 8 ulp of 1
    moved = np.linalg.norm(eval_array(e, X) - eval_array(e, Y), axis=1) - 8 * 2**-52
    return float((moved / np.linalg.norm(X - Y, axis=1)).max())

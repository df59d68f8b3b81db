import copy
import dataclasses
import functools
import hashlib
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapdeg import (
    Antipode,
    Blend,
    Compose,
    Conj,
    DimensionMismatch,
    DomainError,
    Id,
    Iterate,
    MapExpr,
    NearZeroVector,
    ParseError,
    PerturbationField,
    Perturb,
    Pow,
    ResolutionExceeded,
    Rot,
    Rot3,
    Refusal,
    Susp,
    certify_not_iterate,
    degree,
    eval_array,
    make_grid,
    parse,
)
from mapdeg.degree import _walk
from mapdeg.expr import EVAL_BUDGET, MAX_DEPTH

# expressions exercising every constructor, reused by several tests
CORPUS = [
    "(id 1)",
    "(id 2)",
    "(antipode 1)",
    "(antipode 2)",
    "(conj)",
    "(pow 0)",
    "(pow -3)",
    "(pow 5)",
    "(rot 0.7853981633974483)",
    "(rot3 0.0 0.0 1.0 0.5)",
    "(rot3 0.3 0.4 1.2 -0.9)",
    "(susp (pow 2))",
    "(susp (conj))",
    "(compose (pow 2) (pow -3))",
    "(compose (antipode 2) (susp (pow 2)))",
    "(iterate 3 (pow 2))",
    "(iterate 0 (conj))",
    "(blend 0.25 (pow 2) (rot 1.0))",
    "(perturb 42 0.5 (pow 2))",
    "(perturb 7 0.25 (susp (pow 2)))",
    "(blend 0.5 (susp (pow 2)) (perturb 3 0.2 (susp (pow 2))))",
]


def circle_point(phi: float) -> np.ndarray:
    """One-row array holding the point of S1 at angle phi."""
    return np.array([[math.cos(phi), math.sin(phi)]])


def winding_oracle(e, samples: int = 2048) -> int:
    """Independent degree oracle: accumulate wrapped image-angle steps.

    The map is evaluated one point at a time and the angle steps are
    wrapped and summed in plain Python, independently of degree.raw_pass.
    """
    total = 0.0
    prev = None
    for i in range(samples + 1):
        x, y = eval_array(e, circle_point(2 * math.pi * i / samples))[0]
        ang = math.atan2(y, x)
        if prev is not None:
            step = ang - prev
            while step <= -math.pi:
                step += 2 * math.pi
            while step > math.pi:
                step -= 2 * math.pi
            total += step
        prev = ang
    return round(total / (2 * math.pi))


class TestParse:
    def test_pow(self):
        assert parse("(pow 2)") == Pow(2)

    def test_nested(self):
        assert parse("(compose (pow 2) (pow 3))") == Compose(Pow(2), Pow(3))
        assert parse("(iterate 2 (susp (conj)))") == Iterate(2, Susp(Conj()))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            parse("(compose (pow 2) (susp (pow 3)))")
        with pytest.raises(DimensionMismatch):
            parse("(blend 0.5 (id 1) (id 2))")
        with pytest.raises(DimensionMismatch):
            parse("(susp (susp (pow 2)))")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            parse("(perturb 42 1.5 (pow 2))")
        with pytest.raises(DomainError):
            parse("(blend 1.5 (id 1) (id 1))")
        with pytest.raises(DomainError):
            parse("(rot3 0.0 0.0 0.0 1.0)")
        with pytest.raises(DomainError):
            parse(f"(pow {2**53 + 1})")  # k * angle is no longer exact
        assert parse(f"(pow {-(2**53)})") == Pow(-(2**53))
        with pytest.raises(DomainError):
            Id(3)  # direct construction; "(id 3)" is a grammar violation

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Rot(math.nan),
            lambda: Rot(math.inf),
            lambda: Rot3((0.0, 0.0, 1.0), math.nan),
            lambda: Rot3((math.inf, 0.0, 0.0), 1.0),
        ],
        ids=["rot-nan", "rot-inf", "rot3-nan-angle", "rot3-inf-axis"],
    )
    def test_rotations_refuse_values_that_are_not_finite(self, build):
        # built, the last rendered as (rot3 nan nan nan 1.0), which parse
        # refuses, and a degree raised a bare ValueError, no MapdegError
        with pytest.raises(DomainError, match="must be finite"):
            build()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize(
        ("template", "what"),
        [
            ("(rot {})", "an angle"),
            ("(rot3 {} 0 1 0.5)", "axis x"),
            ("(rot3 0 {} 1 0.5)", "axis y"),
            ("(rot3 0 0 {} 0.5)", "axis z"),
            ("(rot3 0 0 1 {})", "an angle"),
            ("(blend {} (pow 1) (pow 1))", "a blend parameter"),
            ("(perturb 1 {} (pow 1))", "a perturbation size"),
        ],
    )
    def test_a_float_that_is_not_finite_names_its_reader_once(self, template, what, value):
        # read as "expected a finite an angle": every reader's name
        # carries its own article, or none
        text = template.format(value)
        with pytest.raises(ParseError) as info:
            parse(text)
        column = text.index(value) + 1
        assert str(info.value) == (
            f"line 1, column {column}: expected {what}, got '{value}', "
            "which is not a finite float"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(pow",
            "(pow 2",
            "(pow 2) junk",
            "(pow two)",
            "(frobnicate 1)",
            ")",
            "(id 3)",
            "(iterate -1 (pow 2))",
            "(perturb -3 0.5 (pow 2))",
            "(rot inf)",
            "(blend 0.5 (pow 2))",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("(compose (pow 2)\n(frobnicate))")
        assert err.value.line == 2

    def test_refuses_nesting_beyond_the_depth_limit(self):
        def nested(depth):
            return "(compose (pow 1) " * (depth - 1) + "(pow 1)" + ")" * (depth - 1)

        assert parse(nested(MAX_DEPTH)).symbolic_degree() == 1
        text = nested(MAX_DEPTH + 1)
        with pytest.raises(ParseError) as err:
            parse(text)
        # the first parenthesis one level too deep opens the first operand,
        # (pow 1), of the deepest compose
        offending = text.index("(pow 1)", len("(compose (pow 1) ") * (MAX_DEPTH - 1))
        assert (err.value.line, err.value.column) == (1, offending + 1)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(" * 2_000_000, "line 1, column 2: expected a constructor name, got '('"),
            ("(pow 2)" + " )" * 1_000_000, "line 1, column 9: trailing input ')'"),
        ],
        ids=["opening-parens", "closing-parens"],
    )
    def test_reads_only_the_tokens_it_needs(self, text, message):
        # a long line that fails early costs its first tokens, not a list
        # of them all (245 and 122 MiB when every token was built first)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == message
        assert peak < 2**20

    def test_refuses_maps_over_the_evaluation_budget(self):
        assert parse(f"(iterate {EVAL_BUDGET - 1} (id 1))").n == EVAL_BUDGET - 1
        with pytest.raises(DomainError):
            parse(f"(iterate {EVAL_BUDGET} (id 1))")
        # zero iterations still read the inner map's symbolic degree
        with pytest.raises(DomainError):
            parse(f"(iterate 0 (iterate {EVAL_BUDGET} (id 1)))")

    def test_rot3_axis_is_normalized(self):
        e = parse("(rot3 0.0 0.0 2.0 0.5)")
        assert e.axis == (0.0, 0.0, 1.0)

    def test_rot3_axis_survives_overflowing_squares(self):
        e = parse("(rot3 1e200 1e200 0 1)")
        assert math.hypot(*e.axis) == pytest.approx(1.0, abs=1e-15)
        assert parse(e.render()) == e
        assert degree(e).value == 1


class TestRender:
    @pytest.mark.parametrize("text", CORPUS)
    def test_round_trip(self, text):
        e = parse(text)
        assert parse(e.render()) == e

    def test_round_trip_survives_a_second_pass(self):
        e = parse("(rot3 0.3 0.4 1.2 -0.9)")
        assert parse(parse(e.render()).render()) == e

    @pytest.fixture
    def renders(self, monkeypatch):
        """The nodes whose text MapExpr._render builds, in call order."""
        built = []
        build = MapExpr._render

        def spy(node):
            built.append(node)
            return build(node)

        monkeypatch.setattr(MapExpr, "_render", spy)
        return built

    @pytest.mark.parametrize("text", CORPUS)
    def test_each_node_is_rendered_once(self, renders, text):
        e = parse(text)
        first = e.render()
        assert sorted(map(id, renders)) == sorted(map(id, _nodes(e)))
        renders.clear()
        assert e.render() is first
        for node in _nodes(e):
            node.render()
        assert renders == []

    def test_equal_nodes_keep_their_own_text(self, monkeypatch):
        # (rot 0.0) == (rot -0.0) and they hash alike, but may round
        # differently: each keeps its own text, whichever renders first,
        # and a walk's table shares values by that text alone
        evaluated = []
        rot_eval = Rot._eval

        def counting(node, X, at):
            evaluated.append(node.render())
            return rot_eval(node, X, at)

        monkeypatch.setattr(Rot, "_eval", counting)
        for a, b in [(Rot(0.0), Rot(-0.0)), (Rot(-0.0), Rot(0.0))]:
            assert a == b and hash(a) == hash(b)
            assert a.render() != b.render()
            assert a.render() == f"(rot {a.alpha!r})" and b.render() == f"(rot {b.alpha!r})"
            e = Compose(Pow(2), a)
            for earlier, shared in [(b, False), (Rot(a.alpha), True)]:
                evaluated.clear()
                [(X, [F, E])] = _walk((earlier, e), 8)
                # a is evaluated on the block unless an earlier map has its text
                assert evaluated == [earlier.render()] + ([] if shared else [a.render()])
                assert E.tobytes() == eval_array(e, X).tobytes()

    def test_copies_render_their_own_fields(self):
        e = parse("(perturb 7 0.25 (compose (rot -0.0) (pow 2)))")
        text = e.render()
        changed = dataclasses.replace(e, eps=0.5)
        assert changed.render() == "(perturb 7 0.5 (compose (rot -0.0) (pow 2)))"
        turned = dataclasses.replace(e.inner.outer, alpha=0.0)
        assert turned.render() == "(rot 0.0)"
        for copied in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert copied == e and copied.render() == text == copied._render()
        fresh = pickle.loads(pickle.dumps(parse("(rot -0.0)")))
        assert fresh.render() == "(rot -0.0)"

    def test_the_kept_text_is_no_part_of_the_value(self):
        for text in CORPUS:
            a, b = parse(text), parse(text)
            shown = repr(a)
            a.render()
            assert a == b and hash(a) == hash(b)
            assert repr(a) == repr(b) == shown
            assert "_text" not in shown


def _nodes(e: MapExpr) -> list[MapExpr]:
    """Every node of e's tree, e first."""
    return [e] + [node for child in e.children() for node in _nodes(child)]


def _spelled(values):
    """values, each passed as one of the types a caller may hold it in.

    An integer as an int, a numpy integer of any width that holds it, or
    a bool for 0 and 1; a real as a float, a numpy float64 or float32, or
    an int where it is whole.
    """

    def spellings(v):
        if isinstance(v, int):
            kinds = [np.int8, np.int16, np.int64, np.uint8, np.uint64]
            out = [v] + [k(v) for k in kinds if np.iinfo(k).min <= v <= np.iinfo(k).max]
            return out + ([bool(v)] if v in (0, 1) else [])
        return [v, np.float64(v), np.float32(v)] + ([int(v)] if v.is_integer() else [])

    return values.flatmap(lambda v: st.sampled_from(spellings(v)))


_SPELLED_S1 = st.recursive(
    st.one_of(
        st.builds(Pow, _spelled(st.integers(-(2**53), 2**53))),
        st.builds(Rot, _spelled(st.floats(-10.0, 10.0))),
        st.builds(Id, _spelled(st.just(1))),
        st.builds(Antipode, _spelled(st.just(1))),
        st.just(Conj()),
    ),
    lambda inner: st.one_of(
        st.builds(Compose, inner, inner),
        st.builds(Iterate, _spelled(st.integers(0, 3)), inner),
        st.builds(Blend, _spelled(st.floats(0.0, 1.0)), inner, inner),
        st.builds(
            Perturb, _spelled(st.integers(0, 2**64 - 1)), _spelled(st.floats(0.0, 0.9)), inner
        ),
    ),
    max_leaves=4,
)
_SPELLED = st.one_of(
    _SPELLED_S1,
    st.builds(Susp, _SPELLED_S1),
    st.builds(
        Rot3,
        st.tuples(*[st.floats(-5.0, 5.0)] * 3)
        .filter(lambda axis: max(map(abs, axis)) > 1e-3)
        .flatmap(lambda axis: st.tuples(*[_spelled(st.just(c)) for c in axis]))
        .flatmap(lambda axis: st.sampled_from([axis, list(axis), np.array(axis, dtype=object)])),
        _spelled(st.floats(-10.0, 10.0)),
    ),
    st.builds(Id, _spelled(st.just(2))),
)


class TestPlainFields:
    """A node stores its integer fields as int and its real fields as float."""

    @given(_SPELLED)
    def test_a_directly_built_node_renders_text_that_parse_reads_back(self, e):
        for node in _nodes(e):
            for f in dataclasses.fields(node):
                value = getattr(node, f.name)
                if not f.init or isinstance(value, MapExpr):
                    continue
                if f.type == "tuple[float, float, float]":  # the rot3 axis
                    assert type(value) is tuple and len(value) == 3
                    assert all(type(c) is float for c in value)
                else:
                    assert type(value).__name__ == f.type, (node, f.name, value)
        text = e.render()
        assert parse(text) == e and parse(text).render() == text

    def test_numpy_and_bool_fields(self):
        assert Pow(np.int64(3)).render() == "(pow 3)"
        assert Pow(True).render() == "(pow 1)"
        assert Rot(np.float64(0.5)).render() == "(rot 0.5)"
        assert Rot(1).render() == "(rot 1.0)"
        e = Perturb(np.uint64(7), np.float64(0.25), Pow(2))
        assert e.render() == "(perturb 7 0.25 (pow 2))" and e == parse(e.render())
        assert Rot3(np.array([0, 0, 2]), np.float32(1.0)) == Rot3((0.0, 0.0, 1.0), 1.0)
        # a plain value is stored as it was given
        alpha = 0.1 + 0.2
        assert Rot(alpha).alpha is alpha

    def test_degrees_and_evaluation_read_plain_fields(self):
        res = degree(Pow(np.int64(2)))
        assert res.value == 2 and type(res.value) is int
        assert isinstance(certify_not_iterate(Pow(np.int64(4))), Refusal)
        assert degree(Iterate(np.int64(2), Pow(3))).value == 9
        X = make_grid(1, 16)
        twice = eval_array(Iterate(np.uint8(2), Pow(3)), X)
        assert np.array_equal(twice, eval_array(Iterate(2, Pow(3)), X))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Pow(2.0),
            lambda: Pow("2"),
            lambda: Iterate(2.0, Pow(3)),
            lambda: Iterate(None, Pow(3)),
            lambda: Id(1.0),
            lambda: Antipode(np.float64(2.0)),
            lambda: Rot("0.5"),
            lambda: Rot(1j),
            lambda: Rot(None),
            lambda: Blend("0.5", Pow(1), Pow(1)),
            lambda: Perturb(7.0, 0.25, Pow(2)),
            lambda: Perturb(7, "0.25", Pow(2)),
            lambda: Rot3((0, 0, 1, 2), 1.0),
            lambda: Rot3((0.0, 1.0), 1.0),
            lambda: Rot3(5, 1.0),
            lambda: Rot3((0, 0, "1"), 1.0),
            lambda: Rot3("xyz", 1.0),
            lambda: Rot3((0, 0, 1), "1"),
            lambda: PerturbationField(2.5, 1),
            lambda: PerturbationField(1, 2.0),
        ],
    )
    def test_a_field_that_is_no_integer_or_real_is_refused(self, build):
        with pytest.raises(DomainError, match="must be (an integer|a real number|three real)"):
            build()


class TestDimension:
    def test_fixtures(self):
        assert parse("(pow 2)").dim == 1
        assert parse("(susp (pow 2))").dim == 2
        assert parse("(compose (rot3 0.0 0.0 1.0 0.4) (susp (conj)))").dim == 2

    @pytest.mark.parametrize("text", CORPUS)
    def test_matches_evaluation_shape(self, text):
        e = parse(text)
        out = eval_array(e, make_grid(e.dim, 8))
        assert out.shape[1] == e.dim + 1


class TestEvaluate:
    def test_identity(self):
        for phi in np.linspace(0, 2 * math.pi, 17):
            p = circle_point(phi)
            assert np.array_equal(eval_array(Id(1), p), p)

    def test_pow_doubles_the_angle(self):
        phi = math.pi / 3
        out = eval_array(Pow(2), circle_point(phi))[0]
        assert tuple(out) == pytest.approx(
            (math.cos(2 * phi), math.sin(2 * phi)), abs=1e-15
        )

    def test_conj_flips_the_second_coordinate(self):
        out = eval_array(Conj(), circle_point(0.7))[0]
        assert tuple(out) == pytest.approx((math.cos(0.7), -math.sin(0.7)), abs=1e-15)

    def test_rot3_moves_the_equator_and_fixes_the_axis(self):
        e = Rot3((0.0, 0.0, 1.0), math.pi / 2)
        out = eval_array(e, np.array([[1.0, 0.0, 0.0]]))[0]
        assert tuple(out) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)
        pole = np.array([[0.0, 0.0, 1.0]])
        assert tuple(eval_array(e, pole)[0]) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)

    def test_suspension_acts_on_each_latitude_circle(self):
        theta, phi = 1.1, 0.6
        x = np.array(
            [
                [
                    math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi),
                    math.cos(theta),
                ]
            ]
        )
        out = tuple(eval_array(Susp(Pow(2)), x)[0])
        expected = (
            math.sin(theta) * math.cos(2 * phi),
            math.sin(theta) * math.sin(2 * phi),
            math.cos(theta),
        )
        assert out == pytest.approx(expected, abs=1e-12)

    def test_suspension_fixes_the_poles(self):
        e = Susp(Pow(3))
        for z in (1.0, -1.0):
            pole = np.array([[0.0, 0.0, z]])
            assert np.array_equal(eval_array(e, pole), pole)

    def test_blend_endpoints_reproduce_the_operands(self):
        f, g = parse("(pow 2)"), parse("(perturb 4 0.6 (pow 2))")
        X = make_grid(1, 512)
        at0 = eval_array(Blend(0.0, f, g), X)
        at1 = eval_array(Blend(1.0, f, g), X)
        assert np.linalg.norm(at0 - eval_array(f, X), axis=1).max() <= 1e-12
        assert np.linalg.norm(at1 - eval_array(g, X), axis=1).max() <= 1e-12

    def test_blend_through_origin_raises(self):
        e = Blend(0.5, Id(1), Antipode(1))
        with pytest.raises(NearZeroVector):
            eval_array(e, circle_point(0.2))

    @pytest.mark.parametrize("row", [0, 5, 7])
    def test_a_perturbation_refuses_rows_holding_a_nan(self, row):
        # the NaN row's norm is NaN, and so is the least norm, which
        # normalize_rows refuses rather than return NaN rows
        X = make_grid(2, 8)[:8]
        X[row, 1] = np.nan
        with pytest.raises(NearZeroVector, match="norm nan"):
            eval_array(parse("(perturb 1 0.5 (id 2))"), X)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_array(Pow(2), np.array([[0.0, 0.0, 1.0]]))

    @pytest.mark.parametrize(
        "text", ["(id 2)", "(compose (id 2) (id 2))", "(iterate 0 (antipode 2))"]
    )
    def test_a_map_that_is_the_identity_returns_a_fresh_array(self, text):
        X = make_grid(2, 8)
        before = X.copy()
        Y = eval_array(parse(text), X)
        assert Y is not X
        assert np.array_equal(Y, X)
        Y[:] = 0.0
        assert np.array_equal(X, before)

    @pytest.mark.parametrize("text", CORPUS)
    def test_images_stay_on_the_sphere(self, text):
        e = parse(text)
        out = eval_array(e, make_grid(e.dim, 32))
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", range(7))
    def test_iterate_equals_nested_evaluation(self, n):
        f = parse("(perturb 3 0.4 (pow 2))")
        p = circle_point(0.37)
        nested = p
        for _ in range(n):
            nested = eval_array(f, nested)
        direct = eval_array(Iterate(n, f), p)
        assert tuple(direct[0]) == pytest.approx(tuple(nested[0]), abs=1e-10)


_BLEND = Blend(0.5, Pow(2), Compose(Rot(1.0), Pow(2)))


class TestSymbolicDegree:
    def test_fixed_values(self):
        assert Id(1).symbolic_degree() == 1
        assert Id(2).symbolic_degree() == 1
        assert Antipode(1).symbolic_degree() == 1
        assert Antipode(2).symbolic_degree() == -1
        assert Conj().symbolic_degree() == -1
        assert Rot(0.3).symbolic_degree() == 1
        assert Rot3((0.0, 0.0, 1.0), 0.3).symbolic_degree() == 1
        assert Pow(-4).symbolic_degree() == -4
        assert Susp(Pow(3)).symbolic_degree() == 3
        assert parse("(blend 0.5 (pow 2) (pow 2))").symbolic_degree() is None

    @pytest.mark.parametrize(
        "e",
        [
            Susp(_BLEND),
            Compose(_BLEND, Pow(3)),
            Compose(Pow(3), _BLEND),
            Compose(_BLEND, _BLEND),
            Perturb(7, 0.5, _BLEND),
            Perturb(7, 0.5, Susp(_BLEND)),
            Iterate(0, _BLEND),
            Iterate(3, _BLEND),
            # 2**(2**21) has more than DEGREE_BITS bits: Iterate._symbolic
            # would refuse it, were it given the blend's children's degree
            Iterate(2**21, _BLEND),
            Compose(Susp(Pow(2)), Iterate(2, Perturb(1, 0.5, Susp(_BLEND)))),
        ],
        ids=repr,
    )
    def test_a_map_over_a_blend_has_no_ast_degree_or_bound(self, e):
        assert e.symbolic_degree() is None
        assert e.lipschitz_bound() is None

    def test_the_count_over_a_blend_is_past_the_degree_bit_limit(self):
        # so the walker never gives Iterate._symbolic that blend's children's degree
        with pytest.raises(ResolutionExceeded):
            Iterate(2**21, _BLEND.f).symbolic_degree()

    def test_compose_matches_winding_oracle(self):
        e = Compose(Pow(2), Pow(3))
        assert e.symbolic_degree() == 6
        assert winding_oracle(e) == 6

    def test_iterate_matches_winding_oracle(self):
        e = Iterate(3, Pow(2))
        assert e.symbolic_degree() == 8
        assert winding_oracle(e) == 8

    @pytest.mark.parametrize(
        "e, node",
        [
            (Iterate(10**7, Pow(3)), "(iterate 10000000 (pow 3))"),
            (Iterate(0, Iterate(10**7, Pow(3))), "(iterate 10000000 (pow 3))"),
            # a balanced tree of 32 leaves: a leaf's 3**(2**20) is built,
            # and the first compose is refused before 3**(2**21), let alone
            # the root's 3**(2**25)
            (
                functools.reduce(lambda t, _: Compose(t, t), range(5), Iterate(2**20, Pow(3))),
                "(compose (iterate 1048576 (pow 3)) (iterate 1048576 (pow 3)))",
            ),
        ],
    )
    def test_a_degree_past_every_level_is_refused_before_it_is_built(self, e, node):
        # 3**(10**7) has 15.8 M bits, and |degree| <= L puts a map with it
        # past every level; building it would take seconds
        start = time.perf_counter()
        named = f"^degree of {re.escape(node)} has more than 2\\*\\*20 bits$"
        with pytest.raises(ResolutionExceeded, match=named):
            degree(e)
        assert time.perf_counter() - start < 1.0

    def test_the_degree_bit_limit(self):
        # n * (bits of |d| - 1) bits at least: 2**20 is built, one more refused
        assert Iterate(2**20, Pow(2)).symbolic_degree() == 1 << 2**20
        with pytest.raises(ResolutionExceeded):
            Iterate(2**20 + 1, Pow(2)).symbolic_degree()
        assert Iterate(10**9, Pow(-1)).symbolic_degree() == 1
        # a compose's is (bits of |a| - 1) + (bits of |b| - 1) at least
        half = Iterate(2**19, Pow(2))
        assert Compose(half, half).symbolic_degree() == 1 << 2**20
        with pytest.raises(ResolutionExceeded):
            Compose(Iterate(2**19 + 1, Pow(2)), half).symbolic_degree()
        # the largest degree a parsed map can have, 53 * 4095 bits, is exact
        e = parse("(iterate 4095 (pow 9007199254740992))")
        assert e.symbolic_degree() == 1 << 217035
        big = "(iterate 2000 (pow 9007199254740992))"
        assert parse(f"(compose {big} {big})").symbolic_degree() == 1 << 212000

    def test_perturb_preserves_degree_on_the_sphere(self):
        # the simplicial pass is the independent numeric route for S2:
        # degree raises where it disagrees with the structure
        e = parse("(perturb 7 0.5 (susp (pow 2)))")
        assert e.symbolic_degree() == 2
        assert degree(e).value == 2

    @given(
        st.recursive(
            st.one_of(
                st.integers(-4, 4).map(Pow),
                st.floats(0, 2 * math.pi, allow_nan=False).map(Rot),
                st.just(Conj()),
                st.just(Id(1)),
                st.just(Antipode(1)),
            ),
            lambda inner: st.one_of(
                st.tuples(inner, inner).map(lambda fg: Compose(*fg)),
                st.tuples(st.integers(0, 3), inner).map(lambda ne: Iterate(*ne)),
            ),
            max_leaves=6,
        ),
        st.recursive(
            st.one_of(st.integers(-4, 4).map(Pow), st.just(Conj())),
            lambda inner: st.tuples(inner, inner).map(lambda fg: Compose(*fg)),
            max_leaves=4,
        ),
    )
    def test_compose_is_multiplicative_on_random_asts(self, f, g):
        assert (
            Compose(f, g).symbolic_degree()
            == f.symbolic_degree() * g.symbolic_degree()
        )


class TestPerturbationField:
    def test_same_seed_is_deterministic(self):
        rng = np.random.default_rng(99)
        pts = rng.normal(size=(100, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        a = PerturbationField(123, 2)
        b = PerturbationField(123, 2)
        assert np.array_equal(a(pts), b(pts))

    def test_norm_bounded_by_one(self):
        for dim, seed in ((1, 5), (2, 6)):
            X = make_grid(dim, 64 if dim == 1 else 48)[:4096]
            v = PerturbationField(seed, dim)(X)
            assert np.linalg.norm(v, axis=1).max() <= 1.0

    @given(st.integers(0, 2**64 - 1), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
    def test_norm_bounded_by_the_sup_bound(self, seed, dim, point_seed):
        # |V_j(x)| <= a_j, the absolute sum of component j's coefficients,
        # at every point of R^(m+1), so |V(x)|_2 <= M = |a|_2; the a_j sum
        # to 1, which puts M between 1/sqrt(m+1) and 1
        field = PerturbationField(seed, dim)
        sup = field.sup_bound()
        assert 1.0 / math.sqrt(dim + 1) * (1.0 - 1e-12) <= sup <= 1.0 + 1e-12
        P = np.random.default_rng(point_seed).normal(size=(512, dim + 1))
        P[:256] /= np.linalg.norm(P[:256], axis=1)[:, None]  # half on the sphere
        assert np.linalg.norm(field(P), axis=1).max() <= sup * (1.0 + 1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bounds_equal_the_linalg_formula(self, dim):
        # the bounds take numpy's formulas for a vector's and for each
        # row's norm directly; np.linalg.norm gives the same bits
        for seed in range(1200):
            f = PerturbationField(seed * 7919 + dim, dim)
            size = np.abs(f._coef)
            grad = (size[:, :, None] * np.abs(f._freq)).sum(axis=1)
            assert f.lipschitz_bound() == float(np.linalg.norm(np.linalg.norm(grad, axis=1)))
            assert f.sup_bound() == float(np.linalg.norm(size.sum(axis=1)))
            assert type(f.lipschitz_bound()) is type(f.sup_bound()) is float

    def test_different_seeds_differ_somewhere(self):
        X = make_grid(1, 64)
        a = PerturbationField(1, 1)(X)
        b = PerturbationField(2, 1)(X)
        assert np.abs(a - b).max() > 1e-6

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            PerturbationField(-1, 1)
        with pytest.raises(DomainError):
            PerturbationField(5, 3)

    @pytest.mark.parametrize(
        ("dim", "X"),
        [
            (1, make_grid(2, 8)),  # gave a (114, 2) array that ignored z
            (2, np.ones((4, 4))),  # ignored the fourth column
            (2, make_grid(1, 8)),
            (1, np.ones(2)),
            (2, np.ones((2, 4, 3))),
        ],
        ids=["s2-rows-to-s1", "four-columns", "s1-rows-to-s2", "one-row-flat", "three-axes"],
    )
    def test_an_array_of_the_wrong_shape_is_refused(self, dim, X):
        # the field refuses what eval_array refuses, with the same error
        with pytest.raises(DimensionMismatch, match=rf"expected shape \(n, {dim + 1}\)"):
            PerturbationField(7, dim)(X)
        with pytest.raises(DimensionMismatch):
            eval_array(Perturb(7, 0.5, Id(dim)), X)

    def test_rows_given_as_a_list_are_taken(self):
        X = make_grid(2, 8)
        field = PerturbationField(7, 2)
        assert field(X.tolist()).tobytes() == field(X).tobytes()

    def test_perturb_node_is_reproducible(self):
        e1 = parse("(perturb 11 0.3 (pow 2))")
        e2 = parse("(perturb 11 0.3 (pow 2))")
        X = make_grid(1, 128)
        assert np.array_equal(eval_array(e1, X), eval_array(e2, X))


def serial_field(f: PerturbationField, X: np.ndarray) -> np.ndarray:
    """The field's formula, with its first contraction summed by einsum."""
    args = np.einsum("jtk,nk->njt", f._freq, X) + f._phase
    return np.einsum("jt,njt->nj", f._coef, np.sin(args))


#: Grids of both spheres, from a few rows to 65,536: S2 bands (8,066 rows
#: at 64, 32,514 at 128) and S1 samples.
FIELD_GRIDS = [(2, b) for b in (8, 64, 90, 128, 150, 256)] + [
    (1, n) for n in (256, 4096, 16384, 24575, 24576, 65536)
]


def field_digests(seeds, blas_threads=None) -> list[str]:
    """sha256 of the field's bytes on FIELD_GRIDS, one per (grid, seed).

    The field runs in a fresh interpreter. With blas_threads set, its BLAS
    is limited to that many threads, which split the rows of the field's
    matrix product between them; None leaves the host's default.
    """
    code = (
        "import hashlib\n"
        "from mapdeg import PerturbationField, make_grid\n"
        f"for dim, n in {FIELD_GRIDS!r}:\n"
        "    X = make_grid(dim, n)\n"
        f"    for seed in {list(seeds)!r}:\n"
        "        v = PerturbationField(seed, dim)(X)\n"
        "        print(hashlib.sha256(v.tobytes()).hexdigest())\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
        if blas_threads is not None:
            env[var] = str(blas_threads)
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout.split()


class TestFieldBlocks:
    """The field runs on the calling thread, bit for bit."""

    @pytest.mark.parametrize(
        ("blas_threads", "seeds"), [(None, range(0, 3)), (3, range(3, 6)), (5, range(6, 9))]
    )
    def test_split_rows_match_the_serial_formula(self, blas_threads, seeds):
        want = [
            hashlib.sha256(serial_field(PerturbationField(seed, dim), X).tobytes()).hexdigest()
            for dim, n in FIELD_GRIDS
            for X in [make_grid(dim, n)]
            for seed in seeds
        ]
        assert field_digests(seeds, blas_threads) == want

    @pytest.mark.parametrize("rows", [1, 7, 100, 8191, 8192, 8193])
    def test_a_slice_of_rows_gets_the_whole_arrays_rows(self, rows):
        # every row's arithmetic is its own: a walk's blocks and a base's
        # kept levels read the field on slices of a level, and get the
        # whole level's bits
        for dim, n in ((1, 3 * 8192 + 5), (2, 70)):  # 24,581 samples; 9,662 vertices
            X = make_grid(dim, n)
            for seed in (1, 2):
                f = PerturbationField(seed, dim)
                whole = f(X)
                assert np.array_equal(whole, serial_field(f, X))
                for lo in (0, 1, 8191, len(X) - rows):
                    assert f(X[lo : lo + rows]).tobytes() == whole[lo : lo + rows].tobytes()

    def test_lipschitz_bound_is_the_gradient_formula_computed_once(self):
        for seed, dim in ((1, 1), (2, 2), (2**64 - 1, 2)):
            f = PerturbationField(seed, dim)
            grad = (np.abs(f._coef)[:, :, None] * np.abs(f._freq)).sum(axis=1)
            want = float(np.linalg.norm(np.linalg.norm(grad, axis=1)))
            f._coef = f._freq = None  # a bound computed on the call would fail
            assert f.lipschitz_bound() == want

    def test_sup_bound_is_the_norm_of_the_component_sums_computed_once(self):
        for seed, dim in ((1, 1), (2, 2), (2**64 - 1, 2)):
            f = PerturbationField(seed, dim)
            want = float(np.linalg.norm(np.abs(f._coef).sum(axis=1)))
            f._coef = None  # a bound computed on the call would fail
            assert f.sup_bound() == want

    def test_zero_rows(self):
        for dim in (1, 2):
            v = PerturbationField(3, dim)(np.empty((0, dim + 1)))
            assert v.shape == (0, dim + 1)

    @pytest.mark.parametrize("bands", [32, 128])
    def test_result_is_fresh_contiguous_and_writable(self, bands):
        X = make_grid(2, bands)
        f = PerturbationField(9, 2)
        a, b = f(X), f(X)
        assert a.shape == X.shape
        assert a.flags.c_contiguous and a.flags.writeable
        assert not np.shares_memory(a, b)
        a[:] = 0.0
        assert np.array_equal(b, serial_field(f, X))

    def test_concurrent_callers_agree_with_the_serial_formula(self):
        X = make_grid(2, 128)
        f = PerturbationField(2, 2)
        start, got = threading.Barrier(8), []

        def call():
            start.wait()
            got.append(f(X))

        callers = [threading.Thread(target=call) for _ in range(8)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        want = serial_field(f, X)
        assert len(got) == 8
        assert all(np.array_equal(g, want) for g in got)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_computes_the_parents_values(self):
        X = make_grid(2, 128)
        f = PerturbationField(5, 2)
        want = f(X)

        def child():
            os._exit(0 if np.array_equal(f(X), want) else 1)

        p = multiprocessing.get_context("fork").Process(target=child)
        p.start()
        p.join(timeout=10)
        if p.is_alive():
            p.kill()
            p.join()
            pytest.fail("the forked child hung evaluating the field")
        assert p.exitcode == 0

    def test_cli_import_leaves_concurrent_futures_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import sys, mapdeg.cli; sys.exit('concurrent.futures' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    @pytest.fixture
    def started(self, monkeypatch) -> list:
        """Every threading.Thread started while the test runs."""
        started = []

        class Spied(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Spied)
        return started

    def test_an_s1_certificate_starts_no_thread(self, started):
        certify_not_iterate(parse("(perturb 5 0.4 (pow 3))"))
        assert started == []

    def test_a_128_band_s2_call_starts_no_thread(self, started):
        before = threading.active_count()
        X = make_grid(2, 128)
        f = PerturbationField(6, 2)
        assert np.array_equal(f(X), serial_field(f, X))
        assert started == []
        assert threading.active_count() == before

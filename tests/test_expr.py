import concurrent.futures
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
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
    NearZeroVector,
    ParseError,
    PerturbationField,
    Pow,
    Rot,
    Rot3,
    Susp,
    certify_not_iterate,
    degree,
    eval_array,
    make_grid,
    parse,
)
from mapdeg import expr
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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_array(Pow(2), np.array([[0.0, 0.0, 1.0]]))

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

    def test_compose_matches_winding_oracle(self):
        e = Compose(Pow(2), Pow(3))
        assert e.symbolic_degree() == 6
        assert winding_oracle(e) == 6

    def test_iterate_matches_winding_oracle(self):
        e = Iterate(3, Pow(2))
        assert e.symbolic_degree() == 8
        assert winding_oracle(e) == 8

    def test_perturb_preserves_degree_on_the_sphere(self):
        # the simplicial degree is the independent numeric route for S2
        from mapdeg import degree_simplicial

        e = parse("(perturb 7 0.5 (susp (pow 2)))")
        assert e.symbolic_degree() == 2
        assert degree_simplicial(e).value == 2

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

    def test_perturb_node_is_reproducible(self):
        e1 = parse("(perturb 11 0.3 (pow 2))")
        e2 = parse("(perturb 11 0.3 (pow 2))")
        X = make_grid(1, 128)
        assert np.array_equal(eval_array(e1, X), eval_array(e2, X))


def serial_field(f: PerturbationField, X: np.ndarray) -> np.ndarray:
    """The field's formula in one pass over all rows, with no blocks."""
    args = np.einsum("jtk,nk->njt", f._freq, X) + f._phase
    return np.einsum("jt,njt->nj", f._coef, np.sin(args))


#: Grids whose row counts fall on both sides of expr._BLOCK_ROWS: S2 bands
#: (32,514 rows at 128) and S1 samples.
SPLIT_GRIDS = [(2, b) for b in (8, 64, 90, 128, 150, 256)] + [
    (1, n) for n in (256, 4096, 16383, 16384, 24577, 65536)
]


class TestFieldBlocks:
    """The field splits large row counts over threads, bit for bit."""

    @pytest.mark.parametrize(
        ("cpus", "seeds"), [(None, range(0, 3)), (3, range(3, 6)), (5, range(6, 9))]
    )
    def test_split_rows_match_the_serial_formula(self, monkeypatch, cpus, seeds):
        if cpus is not None:  # uneven blocks, also on hosts with fewer cores
            monkeypatch.setattr(expr, "_cpus", lambda: cpus)
        for dim, n in SPLIT_GRIDS:
            X = make_grid(dim, n)
            if cpus is not None and len(X) < 2 * expr._BLOCK_ROWS:
                continue  # one block whatever the CPU count
            for seed in seeds:
                f = PerturbationField(seed, dim)
                assert np.array_equal(f(X), serial_field(f, X)), (dim, n, seed)

    def test_zero_rows(self):
        for dim in (1, 2):
            v = PerturbationField(3, dim)(np.empty((0, dim + 1)))
            assert v.shape == (0, dim + 1)

    @pytest.mark.parametrize("bands", [32, 128])
    def test_result_is_fresh_contiguous_and_writable(self, monkeypatch, bands):
        monkeypatch.setattr(expr, "_cpus", lambda: 2)
        X = make_grid(2, bands)
        f = PerturbationField(9, 2)
        a, b = f(X), f(X)
        assert a.shape == X.shape
        assert a.flags.c_contiguous and a.flags.writeable
        assert not np.shares_memory(a, b)
        a[:] = 0.0
        assert np.array_equal(b, serial_field(f, X))

    def test_concurrent_first_calls_create_one_pool(self, monkeypatch):
        monkeypatch.setattr(expr, "_pool", None)
        monkeypatch.setattr(expr, "_cpus", lambda: 3)
        made = []
        Pool = concurrent.futures.ThreadPoolExecutor

        class Counted(Pool):
            def __init__(self, *args, **kwargs):
                made.append(self)
                time.sleep(0.01)  # widens the window between check and create
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        X = make_grid(2, 128)
        f = PerturbationField(2, 2)
        start = threading.Barrier(8)

        def call():
            start.wait()
            return f(X)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Pool(8) as callers:
                calls = [callers.submit(call) for _ in range(8)]
                got = [c.result(timeout=60) for c in calls]
        finally:
            sys.setswitchinterval(interval)
            for pool in made:
                pool.shutdown()
        assert len(made) == 1
        want = serial_field(f, X)
        assert all(np.array_equal(g, want) for g in got)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_builds_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(expr, "_cpus", lambda: 2)
        X = make_grid(2, 128)
        f = PerturbationField(5, 2)
        want = f(X)  # the parent's pool now has a thread
        assert expr._pool is not None

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

    def test_an_s1_certificate_leaves_the_pool_uncreated(self, monkeypatch):
        monkeypatch.setattr(expr, "_pool", None)
        monkeypatch.setattr(expr, "_cpus", lambda: 64)
        certify_not_iterate(parse("(perturb 5 0.4 (pow 3))"))
        assert expr._pool is None

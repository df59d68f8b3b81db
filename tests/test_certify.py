import importlib
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mapdeg import (
    Antipode,
    Blend,
    Compose,
    DegreeParams,
    DimensionMismatch,
    DistanceTooLarge,
    Id,
    InvalidBlend,
    InvalidResolution,
    MapdegError,
    NonIterateCertificate,
    PerturbationField,
    Perturb,
    Pow,
    PowerWitness,
    Refusal,
    ResolutionExceeded,
    Rot,
    Rot3,
    Susp,
    ball_certificate,
    certify_not_iterate,
    degree,
    eval_array,
    homotopy_check,
    is_perfect_power,
    make_grid,
    parse,
    sup_distance,
)
from mapdeg import geometry
from mapdeg.degree import (
    BLEND_MIN_NORM,
    _chord_bound,
    _last_level,
    check_blend_validity,
    pair_distance,
    pair_min_norm,
)

from test_degree import S1_TREES, S1_WITH_BLENDS, S2_TREES, S2_WITH_BLENDS, _rows

degree_module = importlib.import_module("mapdeg.degree")


def oracle_is_perfect_power(d: int) -> bool:
    """Brute force: scan exponents 2..14 and all bases up to the root."""
    for n in range(2, 15):
        bound = round(abs(d) ** (1.0 / n)) + 1
        for k in range(-bound - 1, bound + 2):
            if k**n == d:
                return True
    return False


class TestIsPerfectPower:
    def test_two_is_not_a_perfect_power(self):
        assert is_perfect_power(2) is None

    def test_four(self):
        assert is_perfect_power(4) == PowerWitness(2, 2)

    def test_negative_cube(self):
        assert is_perfect_power(-8) == PowerWitness(-2, 3)
        assert oracle_is_perfect_power(-8)

    def test_minus_four_has_no_odd_power(self):
        assert is_perfect_power(-4) is None
        assert not oracle_is_perfect_power(-4)

    def test_conventions_at_the_units(self):
        assert is_perfect_power(0) == PowerWitness(0, 2)
        assert is_perfect_power(1) == PowerWitness(1, 2)
        assert is_perfect_power(-1) == PowerWitness(-1, 3)

    def test_oracle_agreement_on_a_quick_range(self):
        for d in range(-2000, 2001):
            assert (is_perfect_power(d) is not None) == oracle_is_perfect_power(d), d

    @given(st.integers(-10**6, 10**6))
    def test_witness_is_exact_and_smallest(self, d):
        w = is_perfect_power(d)
        if w is None:
            return
        assert w.exp >= 2
        assert w.base**w.exp == d
        for n in range(2, w.exp):
            bound = round(abs(d) ** (1.0 / n)) + 1
            assert all(k**n != d for k in range(-bound - 1, bound + 2))

    def test_roots_of_huge_powers_are_exact(self):
        # a float n-th root of these is off by thousands
        k = 10**20 + 12345
        assert is_perfect_power(k**2) == PowerWitness(k, 2)
        assert is_perfect_power(-(k**3)) == PowerWitness(-k, 3)
        assert is_perfect_power(k**2 + 1) is None

    def test_no_overflow_beyond_the_float_range(self):
        assert is_perfect_power(10**400) == PowerWitness(10**200, 2)
        assert is_perfect_power(-(10**401)) == PowerWitness(-10, 401)

    def test_witness_rejects_small_exponents(self):
        with pytest.raises(ValueError):
            PowerWitness(3, 1)


class TestHomotopyCheck:
    def test_map_against_itself(self):
        f = parse("(pow 2)")
        rep = homotopy_check(f, f)
        assert rep.valid
        assert rep.min_norm == pytest.approx(1.0, abs=1e-12)

    def test_identity_against_antipode_pinches(self):
        rep = homotopy_check(parse("(id 1)"), parse("(antipode 1)"))
        assert not rep.valid
        assert rep.min_norm < 1e-3
        assert rep.to_json_dict()["argmin"]["t"] == 0.5

    def test_perturbation_keeps_a_healthy_margin(self):
        rep = homotopy_check(parse("(pow 2)"), parse("(perturb 3 0.5 (pow 2))"))
        assert rep.valid
        assert rep.min_norm > 0.25

    @settings(deadline=None)
    @given(
        st.one_of(
            st.tuples(
                st.sampled_from([Pow(2), Pow(-3), Id(1), Antipode(1)]),
                st.sampled_from([Pow(2), Rot(2.0), Antipode(1)]),
                st.just(1),
            ),
            st.tuples(
                st.sampled_from([Susp(Pow(2)), Id(2), Antipode(2)]),
                st.sampled_from([Rot3((1.0, 2.0, 0.5), 2.5), Susp(Pow(-1)), Id(2)]),
                st.just(2),
            ),
        ),
        st.integers(0, 2**64 - 1),
        st.floats(0.0, 0.9),
    )
    def test_min_norm_is_the_exact_minimum_over_t(self, pair, seed, eps):
        f, inner, dim = pair
        g = Perturb(seed, eps, Compose(inner, f))
        n = 64 if dim == 1 else 16
        rep = homotopy_check(f, g, n)
        X = make_grid(dim, n)
        F, G = eval_array(f, X), eval_array(g, X)
        assert rep.min_norm == float((np.linalg.norm(F + G, axis=1) / 2.0).min())
        swept = min(
            float(np.linalg.norm((1.0 - i / 16) * F + (i / 16) * G, axis=1).min())
            for i in range(17)
        )
        # exact for unit vectors; the maps' outputs are unit up to rounding
        assert rep.min_norm <= swept + 4 * np.finfo(float).eps
        # valid is proven from the rigorous distance, never from the
        # sampled minimum, which the floor never exceeds
        rigorous = sup_distance(f, g, n).rigorous
        assert rep.floor == math.sqrt(max(0.0, 1.0 - (rigorous / 2.0) ** 2))
        assert rep.floor <= rep.min_norm + 1e-12
        assert rep.valid == (rep.floor > 1e-6)

    @settings(deadline=None, max_examples=60)
    @given(
        st.one_of(
            st.tuples(S1_TREES, S1_TREES, st.sampled_from([8, 64, 256])),
            st.tuples(S2_TREES, S2_TREES, st.sampled_from([8, 16, 32])),
            st.builds(
                lambda f, seed, eps, n: (f, Perturb(seed, eps, f), n),
                st.one_of(S1_TREES, S2_TREES),
                st.integers(0, 2**64 - 1),
                st.floats(0.0, 0.9),
                st.sampled_from([8, 32]),
            ),
            st.builds(lambda k, n: (Pow(k), Pow(-k), n), st.integers(1, 64), st.sampled_from([8, 64])),
        )
    )
    # antipodal at the midpoints between the 256 nodes, where a verdict
    # read from the sampled minimum of 1.0 was valid
    @example((Pow(128), Pow(-128), 256))
    def test_a_valid_homotopy_joins_maps_of_one_degree(self, pair):
        f, g, n = pair
        rep = homotopy_check(f, g, n)
        if rep.valid:
            assert f.symbolic_degree() == g.symbolic_degree()
            assert BLEND_MIN_NORM < rep.floor <= rep.min_norm + 1e-12

    def test_a_256_band_homotopy_holds_no_whole_level(self):
        f0, g = parse("(susp (pow 2))"), parse("(perturb 4 0.5 (susp (pow 2)))")
        homotopy_check(f0, g, 8)
        tracemalloc.start()
        try:
            rep = homotopy_check(f0, g, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        X = make_grid(2, 256)
        assert rep.min_norm == pair_min_norm(eval_array(f0, X), eval_array(g, X))[0]
        # whole 256-band arrays of both maps and of the field's arguments
        # peaked at 14.6 MB
        assert peak < 6e6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            homotopy_check(parse("(pow 2)"), parse("(susp (pow 2))"))


class TestCertifyNotIterate:
    def test_squaring_map_gets_a_certificate(self):
        cert = certify_not_iterate(parse("(pow 2)"))
        assert isinstance(cert, NonIterateCertificate)
        assert cert.degree.value == 2
        assert cert.ball is None

    def test_fourth_power_is_refused(self):
        ref = certify_not_iterate(parse("(pow 4)"))
        assert isinstance(ref, Refusal)
        assert ref.witness == PowerWitness(2, 2)

    def test_explicit_iterate_is_refused(self):
        ref = certify_not_iterate(parse("(iterate 2 (pow 3))"))
        assert isinstance(ref, Refusal)
        assert ref.witness == PowerWitness(3, 2)

    def test_suspended_fifth_power(self):
        e = parse("(susp (pow 5))")
        assert degree(e).value == 5  # the simplicial pass agrees with the structure
        cert = certify_not_iterate(e)
        assert isinstance(cert, NonIterateCertificate)
        assert cert.degree.value == 5

    def test_certificate_serialization_schema(self):
        obj = certify_not_iterate(parse("(pow 2)")).to_json_dict()
        assert set(obj) == {"subject", "dim", "degree", "power_check", "ball"}
        assert set(obj["degree"]) == {"value", "residual", "resolution"}
        assert obj["power_check"]["checked_exponents"][0] == 2
        assert obj["ball"] is None

    def test_refusal_serialization_schema(self):
        obj = certify_not_iterate(parse("(pow 4)")).to_json_dict()
        assert set(obj) == {"subject", "dim", "degree", "witness"}
        assert obj["witness"] == {"base": 2, "exp": 2}


class TestBallCertificate:
    def test_perturbation_of_the_squaring_map(self):
        f0 = parse("(pow 2)")
        g = parse("(perturb 11 0.45 (pow 2))")
        cert = ball_certificate(f0, g)
        assert isinstance(cert, NonIterateCertificate)
        assert cert.ball is not None
        assert cert.ball.distance.sampled_max < 1.0
        assert cert.degree.value == 2
        # consistency: the certified map's own degree matches the base's
        assert degree(g).value == cert.degree.value

    def test_perfect_power_base_is_refused(self):
        ref = ball_certificate(parse("(pow 4)"), parse("(perturb 2 0.1 (pow 4))"))
        assert isinstance(ref, Refusal)
        assert ref.witness == PowerWitness(2, 2)

    def test_distant_map_is_inconclusive(self):
        with pytest.raises(DistanceTooLarge):
            ball_certificate(parse("(pow 2)"), parse("(antipode 1)"))

    def test_succeeds_at_finer_resolutions_too(self):
        f0 = parse("(pow 2)")
        g = parse("(perturb 11 0.45 (pow 2))")
        cert = ball_certificate(f0, g)
        assert isinstance(cert, NonIterateCertificate)
        # the doubled grid holds every node of the certificate's, so its
        # sample can only rise toward the true sup, and stays under the
        # certificate's rigorous bound
        dist = cert.ball.distance
        fine = sup_distance(f0, g, 2 * dist.resolution)
        assert dist.sampled_max - 1e-12 <= fine.sampled_max <= dist.rigorous < 1.0

    def test_rigorous_mode(self):
        f0 = parse("(pow 2)")
        g = parse("(perturb 11 0.1 (pow 2))")
        cert = ball_certificate(f0, g)
        assert isinstance(cert, NonIterateCertificate)
        assert cert.ball.distance.sampled_max <= cert.ball.distance.rigorous < 1.0
        # a blend's Lipschitz bound comes from its check, so its distance
        # is proven too
        cert = ball_certificate(f0, parse("(blend 0.5 (pow 2) (perturb 11 0.1 (pow 2)))"))
        assert cert.ball.distance.sampled_max <= cert.ball.distance.rigorous < 1.0
        assert cert.to_json_dict()["ball"]["rigorous"] == cert.ball.distance.rigorous

    @pytest.mark.parametrize(
        ("base", "subject", "rigorous"),
        [
            ("(susp (pow 2))", "(blend 0.5 (susp (pow 2)) (perturb 4 0.5 (susp (pow 2))))", 0.457),
            ("(pow 2)", "(blend 0.5 (pow 2) (perturb 4 0.5 (pow 2)))", 0.240),
            (
                "(susp (pow 2))",
                "(blend 0.3 (susp (pow 2)) (compose (rot3 0 0 1 0.6) (susp (pow 2))))",
                0.486,
            ),
        ],
    )
    def test_blend_subjects_carry_their_check_bounds(self, base, subject, rigorous):
        cert = ball_certificate(parse(base), parse(subject))
        assert cert.ball.distance.rigorous == pytest.approx(rigorous, abs=5e-4)

    @pytest.mark.parametrize(
        ("subject", "error"),
        [
            # pinched and far from the base: the check refuses first
            ("(blend 0.5 (pow 2) (compose (antipode 1) (pow 2)))", InvalidBlend),
            # m = 0.021 at 64 bands proves no level up to 512
            (
                "(blend 0.5 (susp (pow 2)) (compose (rot3 0 0 1 3.1) (susp (pow 2))))",
                ResolutionExceeded,
            ),
        ],
    )
    def test_a_subject_check_refuses_before_the_distance(self, subject, error):
        g = parse(subject)
        with mock.patch.object(degree_module, "_sup_distance", side_effect=AssertionError):
            with pytest.raises(error):
                ball_certificate(g.f, g)

    def test_grid_doubles_until_the_bound_is_below_one(self):
        # |e^i z^2 - z^2| = 2 sin(1/2) = 0.959 everywhere, and with
        # L_f + L_g = 4 the bound drops below 1 only at 1024 samples
        cert = ball_certificate(parse("(pow 2)"), parse("(compose (rot 1.0) (pow 2))"))
        assert isinstance(cert, NonIterateCertificate)
        dist = cert.ball.distance
        assert dist.sampled_max == pytest.approx(2 * math.sin(0.5), abs=1e-12)
        assert dist.resolution == 1024
        assert dist.rigorous < 1.0

    def test_bound_that_needs_more_rows_than_the_budget_is_refused(self, monkeypatch):
        # a sampled distance of 1 - 1e-6 would need about 2**25 samples
        # before the bound drops below 1, past even the real budget: the
        # first level's sample already rules out the last one
        monkeypatch.setattr(geometry, "MAX_ROWS", 4096)
        g = Compose(Rot(2 * math.asin(0.5 - 5e-7)), Pow(2))
        with pytest.raises(
            DistanceTooLarge, match=r"0.999999 at 256 leaves every rigorous bound up to 4096"
        ):
            ball_certificate(Pow(2), g)

    def test_sphere_case(self):
        f0 = parse("(susp (pow 2))")
        g = parse("(perturb 4 0.5 (susp (pow 2)))")
        cert = ball_certificate(f0, g)
        assert isinstance(cert, NonIterateCertificate)
        assert cert.degree.value == 2
        assert cert.dim == 2

    def test_soundness_of_issued_certificates(self):
        for seed in (3, 5, 8, 13):
            g = parse(f"(perturb {seed} 0.6 (pow 2))")
            cert = ball_certificate(parse("(pow 2)"), g)
            assert is_perfect_power(cert.degree.value) is None

    def test_ball_serialization_schema(self):
        cert = ball_certificate(parse("(pow 2)"), parse("(perturb 1 0.2 (pow 2))"))
        obj = cert.to_json_dict()
        assert set(obj["ball"]) == {"base", "sampled_distance", "radius", "rigorous"}
        assert obj["ball"]["radius"] == 1.0
        assert obj["ball"]["base"] == "(pow 2)"

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ball_certificate(parse("(pow 2)"), parse("(susp (pow 2))"))

    @settings(deadline=None)
    @given(st.one_of(S1_TREES, S2_TREES), st.integers(0, 2**64 - 1), st.floats(0.0, 0.99))
    def test_sampled_distance_bounds_the_homotopy_denominator(self, f, seed, eps):
        # for unit rows |F + G|^2 = 4 - |F - G|^2, so a distance below 1
        # already keeps the homotopy's min_norm above sqrt(3) / 2
        X = make_grid(f.dim, 64 if f.dim == 1 else 16)
        F, G = eval_array(f, X), eval_array(Perturb(seed, eps, f), X)
        d = pair_distance(F, G)
        assert pair_min_norm(F, G)[0] >= math.sqrt(4 - d * d) / 2 - 1e-12


#: A degree-2 chain of two perturbations whose ball certificate needs a
#: 256-band distance: its chord bound, 1.052, is not below 1, so its
#: distance is searched. No single perturbation's is: eps * M < sqrt(3)/2
#: for every eps < 1 and every field's M up to 0.85.
NEEDS_256_BANDS = "(perturb 1 0.9 (perturb 3 0.9 (susp (pow 2))))"


def _chord(eps, seed, dim=2):
    """c(eps * M), the chord bound of (perturb seed eps h) from h on S^dim."""
    size = eps * PerturbationField(seed, dim).sup_bound()
    return math.sqrt(2.0 - 2.0 * math.sqrt(1.0 - size * size))


class TestChordBound:
    """g lies within 2 sin(theta / 2) of f, theta = sum asin(eps * M), where
    f and g are chains of perturbs over a common map and M bounds each
    field, and a ball certificate then searches no distance."""

    @settings(deadline=None, max_examples=25)
    @given(
        st.one_of(S1_TREES, S2_TREES),
        st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.floats(0.0, 0.99)), min_size=1, max_size=3
        ),
        st.lists(st.tuples(st.integers(0, 2**64 - 1), st.floats(0.0, 0.99)), max_size=2),
    )
    # eps = 0 moves nothing; two perturbs by 0.9 turn by more than
    # pi/3, so their bound is above 1; two chains over a common map
    @example(Susp(Pow(2)), [(4, 0.0)], [])
    @example(Pow(2), [(4, 0.0), (5, 0.0)], [])
    @example(Pow(2), [(5, 0.9), (7, 0.9)], [])
    @example(Susp(Pow(2)), [(4, 0.5)], [(3, 0.3)])
    def test_no_sampled_chord_exceeds_the_bound(self, f, chain, other):
        # seeds of their own, so that the two chains meet at f
        assume({seed for seed, _ in other}.isdisjoint(seed for seed, _ in chain))
        f1, g = f, f
        for seed, eps in other:
            f1 = Perturb(seed, eps, f1)
        for seed, eps in chain:
            g = Perturb(seed, eps, g)
        theta = sum(
            math.asin(eps * PerturbationField(seed, f.dim).sup_bound())
            for seed, eps in reversed(other + chain)
        )
        bound = _chord_bound(f1, g)
        assert bound == _chord_bound(g, f1)
        assert bound == pytest.approx(2.0 * math.sin(min(theta, math.pi) / 2.0), abs=1e-15)
        if theta == 0.0:
            assert bound == 0.0
        X = make_grid(f.dim, 4096 if f.dim == 1 else 128)
        assert pair_distance(eval_array(f1, X), eval_array(g, X)) <= bound + 1e-12

    @pytest.mark.parametrize("base", ["(pow 2)", "(susp (pow 2))"])
    def test_no_bound_is_below_the_sampled_distance(self, base):
        # eps = 0 moves nothing, yet renormalizing h(x) + 0 * V(x) moves
        # some unit vectors by an ulp: the sampled distance reads about
        # 1.6e-16 against the chord bound 0, which holds for the exact
        # maps only, so rigorous is the sampled distance
        f0 = parse(base)
        g = Perturb(4, 0.0, f0)
        assert _chord_bound(f0, g) == 0.0
        for dist in (ball_certificate(f0, g).ball.distance, sup_distance(f0, g)):
            assert 0.0 < dist.sampled_max == dist.rigorous

    def test_the_bound_needs_the_base_under_perturbs(self):
        f0 = parse("(susp (pow 2))")
        assert _chord_bound(f0, f0) == 0.0
        assert _chord_bound(f0, parse("(perturb 4 0.5 (susp (pow 2)))")) == pytest.approx(
            _chord(0.5, 4), abs=1e-15
        )
        for subject in (
            "(compose (rot3 0 0 1 0.5) (susp (pow 2)))",
            "(perturb 4 0.5 (compose (rot3 0 0 1 0.5) (susp (pow 2))))",
            "(perturb 4 0.5 (susp (pow 3)))",
        ):
            assert _chord_bound(f0, parse(subject)) is None
        # (rot 0.0) == (rot -0.0), but only a base that renders alike matches
        turned = parse("(compose (rot -0.0) (pow 2))")
        assert _chord_bound(parse("(compose (rot 0.0) (pow 2))"), Perturb(1, 0.5, turned)) is None

    @pytest.mark.parametrize(
        ("subject", "searched"),
        [
            ("(perturb 4 0.5 (susp (pow 2)))", False),  # c(0.5 * M) < 1
            (NEEDS_256_BANDS, True),  # its chain's bound is above 1
            ("(compose (rot3 0 0 1 0.5) (susp (pow 2)))", True),  # no perturb
            ("(perturb 4 0.5 (compose (rot3 0 0 1 0.2) (susp (pow 2))))", True),  # another map's
        ],
    )
    def test_only_subjects_the_bound_leaves_out_search_their_distance(self, subject, searched):
        f0, g = parse("(susp (pow 2))"), parse(subject)
        seen = []
        with TestCoarseFirst.sampling(seen):
            dist = ball_certificate(f0, g).ball.distance
        assert dist.sampled_max <= dist.rigorous < 1.0
        if searched:
            # the first level where (L_f + L_g) * mesh is below 1
            slope = f0.lipschitz_bound() + g.lipschitz_bound()
            first = next(n for n in (64, 128, 256, 512) if slope * geometry.mesh(2, n) < 1.0)
            assert seen[0] == first
        else:  # one level, g's degree level, ceil(pi * 3.63) = 12 bands
            assert seen == [dist.resolution] == [degree(g).resolution] == [12]
            assert dist.rigorous <= _chord(0.5, 4) + 1e-12


class TestSupBoundRoundedPastOne:
    """Where a field's coefficients sit in one component, M rounds to 1 or
    to 1 + ulp; with eps just below 1, 1 - eps * M can then reach 0 or
    less, and eps * M pass 1."""

    @pytest.mark.parametrize("ulps", [0, 1, 2])
    @pytest.mark.parametrize("base", ["(pow 2)", "(susp (pow 2))"])
    def test_a_map_at_the_edge_is_refused_before_sampling(self, monkeypatch, base, ulps):
        f0 = parse(base)
        g = Perturb(1, math.nextafter(1.0, 0.0), f0)
        field = g._field
        coef = np.zeros_like(field._coef)
        coef[0] = field._coef[0] / np.abs(field._coef[0]).sum()
        sup = 1.0 + ulps * math.ulp(1.0)
        monkeypatch.setattr(field, "_coef", coef)
        monkeypatch.setattr(field, "_sup", sup)
        if 1.0 - g.eps * sup > 0.0:
            assert 1e15 < g.lipschitz_bound() < math.inf
        else:
            assert g.lipschitz_bound() == math.inf
        # eps * M is taken at most 1: a turn of at most pi/2
        assert 1.0 < _chord_bound(f0, g) <= math.sqrt(2.0)
        degree_module._kept_base.cache_clear()
        degree_module._kept_base(f0.render(), DegreeParams(), f0)
        with mock.patch.object(degree_module, "eval_array", side_effect=AssertionError):
            with pytest.raises(ResolutionExceeded):
                degree(g)
            with pytest.raises(ResolutionExceeded):
                certify_not_iterate(g)
            with pytest.raises(DistanceTooLarge, match="no level"):
                ball_certificate(f0, g)
        degree_module._kept_base.cache_clear()


def _near(bases, turn):
    """(base, subject) pairs: blends, at any t, of a base with itself
    perturbed by up to 0.9 or turned by up to 3.1 rad."""
    other = st.one_of(
        st.builds(
            lambda seed, eps: lambda f: Perturb(seed, eps, f),
            st.integers(0, 2**64 - 1),
            st.floats(0.0, 0.9),
        ),
        st.floats(-3.1, 3.1).map(lambda a: lambda f: Compose(turn(a), f)),
    )

    def pair(f, t, make):
        return f, Blend(t, f, make(f))

    return st.builds(pair, bases, st.floats(0.0, 1.0), other)


S1_NEAR = _near(st.sampled_from([Pow(2), Pow(-3), Compose(Rot(0.5), Pow(3))]), Rot)
S2_NEAR = _near(
    st.sampled_from([Susp(Pow(2)), Compose(Rot3((0.3, 0.5, 1.0), 0.4), Susp(Pow(-2)))]),
    lambda a: Rot3((0.0, 0.0, 1.0), a),
)


class TestBlendSubjects:
    @settings(deadline=None, max_examples=60)
    @given(st.one_of(S1_NEAR, S2_NEAR))
    def test_a_certificate_is_proven_or_refused(self, pair):
        f0, g = pair
        try:
            cert = ball_certificate(f0, g)
        except (DistanceTooLarge, ResolutionExceeded, InvalidBlend):
            return
        ball = cert.to_json_dict()["ball"]
        assert isinstance(ball["rigorous"], float)
        assert ball["sampled_distance"] <= ball["rigorous"] < 1.0
        assert cert.degree.value == degree(f0).value


class TestCoarseFirst:
    """A ball certificate samples its distance from the first level that can prove it."""

    @staticmethod
    def sampling(seen):
        """A patch under which each distance level sampled is appended to seen."""
        distance = degree_module._sup_distance

        def spy(f, g, n, *args):
            seen.append(n)
            return distance(f, g, n, *args)

        return mock.patch.object(degree_module, "_sup_distance", spy)

    def certify(self, bound_g, seen, dim=2):
        """ball_certificate of a slight turn, by 0.01 rad, of a base with
        L_f = 2, its subject's check bound replaced by bound_g (its
        structural degree kept); the distance levels it samples are
        appended to seen. A turn is no perturbation, so its distance is
        searched."""
        f0 = parse("(susp (pow 2))" if dim == 2 else "(pow 2)")
        g = Compose(Rot3((0.0, 0.0, 1.0), 0.01) if dim == 2 else Rot(0.01), f0)
        check = degree_module.check_blend_validity

        def bound(e, *args):
            return (bound_g, g.symbolic_degree()) if e is g else check(e, *args)

        with mock.patch.object(degree_module, "check_blend_validity", bound), self.sampling(seen):
            return ball_certificate(f0, g)

    def levels(self, bound_g, dim=2):
        seen = []
        assert isinstance(self.certify(bound_g, seen, dim), NonIterateCertificate)
        return seen

    def test_levels_at_the_thresholds(self):
        # (L_f + L_g) * sqrt(2) * pi / n < 1 from n = 64 below 14.4058,
        # from 128 below 28.8115 and from 256 below 57.623
        assert geometry.mesh(2, 64) * 14.40 < 1.0 <= geometry.mesh(2, 64) * 14.41
        # just below a threshold the sampled distance tips the first
        # level's bound over 1, and the next level proves it
        assert self.levels(12.40) == [64, 128]
        assert self.levels(12.41) == [128]
        assert self.levels(26.81) == [128, 256]
        assert self.levels(26.82) == [256]
        assert self.levels(0.5) == [64]  # never below _FIRST[2]

    def test_circle_levels_start_at_the_first_level(self):
        assert self.levels(20.0, dim=1) == [degree_module._FIRST[1]]
        assert self.levels(40.0, dim=1) == [2 * degree_module._FIRST[1]]
        assert degree_module._FIRST[1] == 256

    def test_a_first_level_over_the_row_budget_is_refused_before_sampling(self):
        # 1448 bands fit 2**22 rows; L_f + L_g = 1e5 asks for 2**19 bands
        for bound in (1e5, 1e308):
            seen = []
            with pytest.raises(DistanceTooLarge, match="no level up to 1024, the last within"):
                self.certify(bound, seen)
            assert seen == []
        f0, g = parse("(susp (pow 2))"), parse("(susp (pow 9007199254740992))")
        with mock.patch.object(degree_module, "_sup_distance", side_effect=AssertionError):
            with pytest.raises(DistanceTooLarge, match="no level up to 1024, the last within"):
                ball_certificate(f0, g)

    def test_maps_without_a_finite_bound_are_refused_before_sampling(self):
        for bound in (math.inf, math.nan):
            for dim, last in ((2, 1024), (1, 4194304)):
                seen = []
                refused = rf"sum to {bound}: no level up to {last}"
                with pytest.raises(DistanceTooLarge, match=refused):
                    self.certify(bound, seen, dim)
                assert seen == []
        # 2**2000 overflows the subject's AST bound, and inf * 0 makes
        # the second subject's NaN
        f0 = parse("(pow 3)")
        for text, bound in (
            ("(iterate 2000 (pow 2))", "inf"),
            ("(compose (iterate 1100 (pow 2)) (pow 0))", "nan"),
        ):
            with mock.patch.object(degree_module, "_sup_distance", side_effect=AssertionError):
                with pytest.raises(DistanceTooLarge, match=f"sum to {bound}: no level"):
                    ball_certificate(f0, parse(text))

    def test_a_far_blend_subject_is_refused_after_one_level(self):
        # the 64-band sample of 0.99665 plus (L_f + L_g) * mesh(1024)
        # already reaches 1, so no level up to 1024 can prove the distance
        base = "(compose (rot3 0.3 0.5 1 0.4) (susp (pow -2)))"
        g = parse(f"(blend 0.5901 {base} (compose (rot3 0 0 1 -1.6871) {base}))")
        seen = []
        with self.sampling(seen):
            with pytest.raises(DistanceTooLarge, match="0.996646 at 64 leaves every rigorous"):
                ball_certificate(parse(base), g)
        assert seen == [64]

    def test_a_256_band_certificate_holds_no_whole_level(self):
        f0, g = parse("(susp (pow 2))"), parse(NEEDS_256_BANDS)
        degree_module._kept_base.cache_clear()
        tracemalloc.start()
        try:
            cert = ball_certificate(f0, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.ball.distance.resolution == 256
        # whole 256-band arrays of g and of its field's arguments alone
        # take 3.2 and 19 MB
        assert peak < 8e6

    def test_a_streamed_level_reports_the_whole_level_max(self):
        f0, g = parse("(susp (pow 2))"), parse(NEEDS_256_BANDS)
        dist = ball_certificate(f0, g).ball.distance
        X = make_grid(2, 256)
        assert dist.sampled_max == pair_distance(eval_array(f0, X), eval_array(g, X))
        assert dist.rigorous < 1.0


def _searched_pairs(dim: int):
    """(f0, g, first): a base whose degree is no perfect power, a subject, and a first level.

    The subject is the base turned, a chain of two perturbations of it
    (whose chord bound may reach 1), or any tree without a blend; only
    the first is sure to take the searched route.
    """
    k = st.integers(-40, 40).filter(lambda k: is_perfect_power(k) is None)
    seeds, sizes, angles = st.integers(0, 2**64 - 1), st.floats(0.0, 0.9), st.floats(-3.0, 3.0)
    if dim == 1:
        leaf, trees, turn = k.map(Pow), S1_TREES, angles.map(Rot)
    else:
        leaf, trees = k.map(lambda k: Susp(Pow(k))), S2_TREES
        turn = st.builds(Rot3, st.tuples(st.just(0.3), st.floats(-1, 1), st.just(1.0)), angles)
    bases = st.one_of(
        leaf,
        st.builds(Compose, turn, leaf),
        st.builds(Perturb, seeds, st.floats(0.0, 0.6), leaf),
    )

    def subjects(f0):
        return st.one_of(
            st.builds(Compose, turn, st.just(f0)),
            st.builds(lambda s, e, t, u: Perturb(s, e, Perturb(t, u, f0)), seeds, sizes, seeds, sizes),
            trees,
        )

    return st.tuples(
        bases.flatmap(lambda f0: st.tuples(st.just(f0), subjects(f0))),
        st.sampled_from([8, 16, 32, 64, 128, 256]),
    ).map(lambda pair_first: (*pair_first[0], pair_first[1]))


class TestSearchedDegreeLevel:
    """A searched subject's degree level P lies below every level its search admits.

    So no searched distance walk is at P, and _ball_distance walks P for
    the subject alone. The base's degree d is no perfect power, so
    |d| >= 2. A map of chordal Lipschitz bound L has |degree| <= L on S1,
    its image winding |d| times round a circle of length 2 pi no faster
    than L, and |degree| <= L**2 on S2, its image covering the sphere's
    area |d| times while areas grow by at most L**2: so L_f >= 2 on S1
    and L_f >= sqrt(2) on S2, where every bound is also at least 1 (a
    suspension's is, and no rule makes a bound smaller than its
    children's). On S1, P = max(8, ceil(2 pi L_g)) samples: at 8,
    (L_f + L_g) * 2 sin(pi/8) >= 2 * 0.765; above it P < 2 pi L_g + 1,
    so (L_f + L_g) * mesh(P) >= (1 + (4 pi - 1)/P)(1 - pi**2/(6 P**2)),
    which is at least 1. On S2, P = max(8, ceil(pi L_g)) bands: at 8,
    (sqrt(2) + 1) * sqrt(2) pi/8 = 1.34; above it P < pi L_g + 1, so
    (L_f + L_g) * sqrt(2) pi/P >= sqrt(2) + (2 pi - sqrt(2))/P. The
    search admits only levels n with (L_f + L_g) * mesh(n) < 1, and mesh
    falls as n grows, so each is finer than P.
    """

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(_searched_pairs(1), _searched_pairs(2)))
    def test_the_degree_level_lies_below_every_searched_level(self, case):
        f0, g, first = case
        dim, params = f0.dim, DegreeParams()
        chord = _chord_bound(f0, g)
        assume(chord is None or chord >= 1.0)  # the searched route
        with mock.patch.dict(degree_module._FIRST, {dim: first}):
            bound0, d0 = check_blend_validity(f0, params)
            bound, _ = check_blend_validity(g, params)
            assert is_perfect_power(d0) is None
            assert bound0 >= (2.0 if dim == 1 else math.sqrt(2.0))
            assert dim == 1 or bound >= 1.0
            try:
                level = degree_module._proven_level(bound, params, dim)
            except ResolutionExceeded:
                return  # no degree level: the subject is refused after its search
            slope = bound0 + bound
            searched = [
                n
                for n in degree_module._levels(dim, geometry.finest(dim))
                if slope * geometry.mesh(dim, n) < 1.0
            ]
            assert slope * geometry.mesh(dim, level) >= 1.0
            assert all(level < n for n in searched)
            if not searched or searched[0] > (4096 if dim == 1 else 64):
                return
            # the call samples its distance at searched levels alone, and
            # walks the subject's degree level for the subject alone
            sampled, walked = [], []
            distance, raw_pass = degree_module._sup_distance, degree_module.raw_pass

            def spy_distance(f, g, n, *args):
                sampled.append(n)
                return distance(f, g, n, *args)

            def spy_pass(e, n):
                walked.append(n)
                return raw_pass(e, n)

            degree_module._kept_base.cache_clear()
            with (
                mock.patch.object(degree_module, "_sup_distance", spy_distance),
                mock.patch.object(degree_module, "raw_pass", spy_pass),
            ):
                try:
                    ball_certificate(f0, g, params)
                except MapdegError:
                    pass
            degree_module._kept_base.cache_clear()
            assert sampled and set(sampled) <= set(searched)
            assert walked in ([], [level])


def _block_rows(n: int) -> Counter:
    """Counter of the rows of the blocks of the n-band level."""
    return Counter(len(X) for X in geometry.grid_blocks(2, n))


#: The levels a base's record keeps (degree._base_levels): from the
#: base's degree level up, while their rows fit geometry.BLOCK_ROWS, 8192.
#: 8 to 23 bands hold 7904 vertices, and 24 would add 1106; 13 to 128
#: samples hold 8178, and 129 would add 129.
KEPT = {"(susp (pow 2))": range(8, 24), "(pow 2)": range(13, 129)}


def _kept(f0, levels=None) -> Counter:
    """Counter of (f0's text, rows) over the levels f0's record keeps: it walks each once."""
    levels = KEPT[f0.render()] if levels is None else levels
    return Counter({(f0.render(), _rows(f0.dim, n)): 1 for n in levels})


class TestEvaluationCount:
    """Each map is evaluated at most once per resolution one call uses."""

    @pytest.fixture
    def rows(self, monkeypatch):
        """Counter of (map text, level rows) over the walks that evaluated each map.

        A walk (degree._walk) reads a level in blocks: its grid's
        (degree.grid_blocks), or the one block a base's record keeps,
        which later walks read again. Each map is evaluated at most once
        per block of a walk, and only on read-only blocks; a walk counts
        once for a map when the blocks it was evaluated on sum to the
        level's vertex count. Starts with no kept base, so that every
        count is exact whatever ran before.
        """
        counts, evaluated, active = Counter(), Counter(), []
        walk, eval_array = degree_module._walk, degree_module.eval_array

        def walking(maps, n, *args):
            # (walk, level rows, blocks evaluated on): a block is kept
            # alive while its walk lasts, so that no later one takes its id
            here = (object(), _rows(maps[0].dim, n), {})
            inner = walk(maps, n, *args)
            while True:
                active.append(here)
                try:
                    block = next(inner, None)
                finally:
                    active.pop()
                if block is None:
                    return
                yield block

        def counting(e, X, **kwargs):
            assert not X.flags.writeable
            key, level, seen = active[-1]
            assert (e.render(), id(X)) not in seen
            seen[e.render(), id(X)] = X
            evaluated[e.render(), key] += len(X)
            if evaluated[e.render(), key] == level:
                counts[e.render(), level] += 1
            return eval_array(e, X, **kwargs)

        degree_module._kept_base.cache_clear()
        monkeypatch.setattr(degree_module, "_walk", walking)
        monkeypatch.setattr(degree_module, "eval_array", counting)
        return counts

    @pytest.fixture
    def susp_evals(self, monkeypatch):
        """Counter of rows over the calls of Susp._eval."""
        calls = Counter()
        original = Susp._eval

        def counting(self, X, at):
            calls[len(X)] += 1
            return original(self, X, at)

        monkeypatch.setattr(Susp, "_eval", counting)
        return calls

    @staticmethod
    def grids(built):
        """A patch under which the blocks of each level walked are appended to built, one list a level."""
        grid_blocks = degree_module.grid_blocks

        def spy(dim, n):
            built.append([])
            for X in grid_blocks(dim, n):
                built[-1].append(X)
                yield X

        return mock.patch.object(degree_module, "grid_blocks", spy)

    def test_sphere_ball_certificate_evaluates_each_map_once_per_level(self, rows):
        # f0's record walks f0 once at each level it keeps, 8 to 23
        # bands, its degree's 8 bands, 2 + 7 * 16 = 114 vertices, first;
        # the distance of a turn, which is searched, proves itself at its
        # first level, 64 bands, 2 + 63 * 128 = 8066, where f0 is
        # evaluated once before g; g's proven degree level, 8 bands, is
        # evaluated on its own
        f0 = parse("(susp (pow 2))")
        g = parse("(compose (rot3 0 0 1 0.5) (susp (pow 2)))")
        built = []
        with self.grids(built):
            assert ball_certificate(f0, g).ball.distance.resolution == 64
        assert rows == _kept(f0) + Counter(
            {(f0.render(), 8066): 1, (g.render(), 8066): 1, (g.render(), 114): 1}
        )
        # the record builds the grids of its levels and of 24 bands, where
        # the budget stops it before f0 is evaluated; f0 and g share the
        # 64-band grid, and g's degree level, walked by g alone, has one
        kept = [_rows(2, n) for n in range(8, 25)]
        assert [sum(map(len, level)) for level in built] == [*kept, 8066, 114]
        # every block a map reads is read-only; no map reads the 24-band one
        read = built[:16] + built[17:]
        assert not any(X.flags.writeable for level in read for X in level)

    def test_maps_at_one_level_share_its_grid(self, rows):
        # f0 and g at g's degree level, 12 bands, share one grid of 266
        # vertices: the base's record keeps it, with f0's values there,
        # from the record's making on, which builds every grid a first
        # call builds. A later call builds no grid and evaluates g alone
        f0, g = parse("(susp (pow 2))"), parse("(perturb 4 0.5 (susp (pow 2)))")
        built = []
        with self.grids(built):
            ball_certificate(f0, g)
            assert [sum(map(len, level)) for level in built] == [_rows(2, n) for n in range(8, 25)]
            built.clear()
            ball_certificate(f0, g)
        assert built == []
        assert rows == _kept(f0) + Counter({(g.render(), 266): 2})

    def test_sphere_degree_evaluates_only_its_finer_level(self, rows):
        # the blend check proves the blend at 64 bands, 2 + 63 * 128 =
        # 8066 vertices, and its bound proves ceil(pi * 3.51) = 12 bands,
        # 2 + 11 * 24 = 266 vertices, where the blend is evaluated once
        e = parse("(blend 0.5 (susp (pow 2)) (perturb 4 0.5 (susp (pow 2))))")
        res = degree(e)
        assert (res.value, res.resolution) == (2, 12)
        assert res.residual < 1e-6
        assert rows == {(e.f.render(), 8066): 1, (e.g.render(), 8066): 1, (e.render(), 266): 1}

    def test_blend_check_doubles_until_its_bound_proves_a_level(self, rows):
        # cos(1.45) = 0.121 leaves m_rig = 0.017 at 128 bands and 0.069 at
        # 256: the check samples both children at 64, 128 and 256 bands,
        # and the degree, proven at ceil(pi * 43.8) = 138 bands, 2 + 137 *
        # 276 = 37814 vertices, evaluates the blend there
        e = parse("(blend 0.5 (susp (pow 3)) (compose (rot3 0 0 1 2.9) (susp (pow 3))))")
        assert degree(e).resolution == 138
        levels = (8066, 32514, 130562)
        assert rows == {(f.render(), n): 1 for f in (e.f, e.g) for n in levels} | {
            (e.render(), 37814): 1
        }

    def test_a_blend_the_grid_leaves_unproven_is_read_coarser(self, rows):
        # m = cos(1.4) = 0.17 leaves m_rig = 0.066 at 128 bands, which
        # needs pi * L = 143; at 256 the check proves L = 25.4, so the
        # degree is read at ceil(pi * 25.4) = 80 bands, 2 + 79 * 160 =
        # 12642 vertices, coarser than every level the check sampled
        # but the first
        e = parse("(blend 0.5 (susp (pow 3)) (compose (rot3 0 0 1 2.8) (susp (pow 3))))")
        res = degree(e)
        assert (res.value, res.resolution) == (3, 80)
        assert res.residual < 1e-6
        levels = (8066, 32514, 130562)
        assert rows == {(f.render(), n): 1 for f in (e.f, e.g) for n in levels} | {
            (e.render(), 12642): 1
        }

    def test_an_unprovable_blend_is_refused_before_sampling(self, rows):
        # each blend's (1 - t) L_f + t L_g bounds its check's bound from
        # below, and each asks for more than half the cap: pi * 600 bands
        # for the first, and for the iterated perturbation of the second
        # far more, so no child is evaluated at all
        e = parse(
            "(compose (blend 0.5 (susp (pow 600)) (susp (pow 600)))"
            " (blend 0.5 (iterate 8 (perturb 1 0.5 (id 2))) (id 2)))"
        )
        with pytest.raises(ResolutionExceeded, match="above 512, the last level"):
            degree(e)
        with pytest.raises(ResolutionExceeded, match=r"resolution 1885 or more"):
            degree(e.outer)
        assert rows == {}

    def test_a_base_no_level_proves_is_refused_before_its_grid(self, rows):
        # the base is read at its own 8 bands, 114 vertices, and its
        # record's other levels, and g, whose chord bound proves the
        # distance, at its own 12, 266, which the record keeps
        f0, g = parse("(susp (pow 2))"), parse("(perturb 4 0.5 (susp (pow 2)))")
        cert = ball_certificate(f0, g)
        assert (cert.degree.resolution, cert.ball.distance.resolution) == (8, 12)
        assert rows == _kept(f0) + Counter({(g.render(), 266): 1})
        # a blend base whose ends alone need pi * 200 = 629 bands, above
        # the last level, is refused before the base is evaluated anywhere
        rows.clear()
        degree_module._kept_base.cache_clear()
        f0 = parse("(blend 0.5 (susp (pow 200)) (compose (rot3 0 0 1 1.0) (susp (pow 200))))")
        last = _last_level(DegreeParams(), 2)
        with pytest.raises(
            ResolutionExceeded, match=f"^blend needs resolution 629 or more, above {last}, "
        ):
            ball_certificate(f0, Perturb(4, 0.5, f0))
        assert rows == {}

    def test_a_chord_subject_refuses_its_degree_level_before_sampling(self, rows):
        # c(0.05 * M) = 0.036 proves the distance, so the one level sampled
        # is g's degree level, 2*pi * L_g = 261.0 samples, above the last
        # level under the lowest cap, 256: it is refused before f0 or g is
        # evaluated there, and only f0's record's levels are read, from its
        # own degree level, 252, to the last level, 256
        f0, g = parse("(pow 40)"), parse("(perturb 1 0.05 (pow 40))")
        assert _chord(0.05, 1, dim=1) < 1.0
        params = DegreeParams(max_resolution=8)
        last = _last_level(params, 1)
        need, own = (math.ceil(2 * math.pi * e.lipschitz_bound()) for e in (g, f0))
        assert own <= last < need
        with pytest.raises(
            ResolutionExceeded, match=f"^map needs resolution {need}, above the last level {last}, "
        ):
            ball_certificate(f0, g, params)
        assert rows == _kept(f0, range(own, last + 1))

    def test_sphere_degree_evaluates_only_its_proven_level(self, rows):
        # pi * L = 11.4 bands: read at 12, 2 + 11 * 24 = 266 vertices
        e = parse("(perturb 4 0.5 (susp (pow 2)))")
        assert degree(e).resolution == 12
        assert rows == {(e.render(), 266): 1}

    @pytest.mark.parametrize(
        ("subject", "levels", "degree_level"),
        [
            # a turn's distance doubles from 256 to 1024 samples; g's
            # degree is evaluated at its own level, 13 samples
            ("(compose (rot 1.0) (pow 2))", (256, 512, 1024), 13),
            # two perturbs by 0.95 have a chord bound of 1.36: L_g = 35.2
            # starts the distance at 256 samples, and g's degree is
            # evaluated at 221
            ("(perturb 7 0.95 (perturb 8 0.95 (pow 2)))", (256, 512, 1024), 221),
        ],
    )
    def test_doubling_distance_evaluates_each_level_once(
        self, rows, subject, levels, degree_level
    ):
        # f0's record reads 13 to 128 samples, its degree's 13 first; at
        # the first distance level f0 is evaluated before g, and each finer
        # level is streamed once
        f0, g = parse("(pow 2)"), parse(subject)
        assert ball_certificate(f0, g).ball.distance.resolution == 1024
        assert rows == _kept(f0) + Counter(
            {(f0.render(), n): 1 for n in levels}
            | {(g.render(), n): 1 for n in levels}
            | {(g.render(), degree_level): 1}
        )

    def test_a_warm_perturbation_evaluates_only_its_degree_level(self, rows):
        # c(0.5 * M) < 1 proves the distance: no distance level is
        # sampled. g's degree level, 12 bands, 2 + 11 * 24 = 266
        # vertices, is one the base's record keeps: a cold call evaluates
        # f0 there, and at the record's other levels, its degree's 8 bands
        # among them, once, and g reads it; a warm call evaluates g alone
        f0, g = parse("(susp (pow 2))"), parse("(perturb 4 0.5 (susp (pow 2)))")
        first = ball_certificate(f0, g)
        assert rows == _kept(f0) + Counter({(g.render(), 266): 1})
        rows.clear()
        second = ball_certificate(parse("(susp (pow 2))"), g)
        assert rows == {(g.render(), 266): 1}
        assert second.to_json_dict() == first.to_json_dict()
        assert first.ball.distance.rigorous <= _chord(0.5, 4) + 1e-12

    def test_a_degree_level_off_the_grid_evaluates_f0_once_there(self, rows, susp_evals):
        # L_g = 6.31 reads g's degree at 20 bands, 2 + 19 * 40 = 762
        # vertices, off the 64-band first level; c(0.85 * M) = 0.52
        # proves the distance. The level is one block, which the base's
        # record keeps: the cold call evaluates f0 there once, with the
        # record's other levels, and g reads it, so the warm call
        # evaluates no suspension at all
        f0, g = parse("(susp (pow 2))"), parse("(perturb 1 0.85 (susp (pow 2)))")
        ball_certificate(f0, g)
        assert rows == _kept(f0) + Counter({(g.render(), 762): 1})
        assert susp_evals == Counter(_rows(2, n) for n in KEPT[f0.render()])
        rows.clear()
        susp_evals.clear()
        cert = ball_certificate(f0, g)
        assert cert.ball.distance.resolution == 20
        assert rows == {(g.render(), 762): 1}
        assert susp_evals == {}

    def test_second_certificate_on_an_equal_base_skips_the_base_degree(self, rows):
        # f0's record's levels, its degree's 114 vertices among them, are
        # read once; each call evaluates both maps at the distance level,
        # 8066 vertices, two blocks, which no record keeps, and g at its
        # degree level, 8 bands, 114 vertices, which it walks alone
        f0 = parse("(susp (pow 2))")
        g = parse("(compose (rot3 0 0 1 0.5) (susp (pow 2)))")
        each = Counter({(f0.render(), 8066): 1, (g.render(), 8066): 1, (g.render(), 114): 1})
        first = ball_certificate(f0, g)
        assert rows == _kept(f0) + each
        rows.clear()
        second = ball_certificate(parse("(susp (pow 2))"), g)
        assert rows == each
        assert second.to_json_dict() == first.to_json_dict()

    def test_perturbation_reads_its_base_instead_of_evaluating_it(self, rows, susp_evals):
        f0 = parse("(susp (pow 2))")
        for seed in (4, 5):
            degree_module._kept_base.cache_clear()
            ball_certificate(f0, parse(f"(perturb {seed} 0.5 (susp (pow 2)))"))
        # once per certificate at each level f0's record keeps, 8 to 23
        # bands, its degree's 8 and g's degree level, 12, which g reads,
        # among them; never inside g
        assert susp_evals == Counter({_rows(2, n): 2 for n in KEPT[f0.render()]})

    def test_streamed_level_evaluates_each_map_once_per_block(self, rows, susp_evals):
        # L_f + L_g = 18.8 starts the distance at 128 bands, 32514
        # vertices, where f0 is evaluated before g, and doubles to 256,
        # 130562; every level is walked in blocks of whole rings
        f0, g = parse("(susp (pow 2))"), parse(NEEDS_256_BANDS)
        assert ball_certificate(f0, g).ball.distance.resolution == 256
        # f0's record reads 8 to 23 bands; g's degree, at 53 bands,
        # 2 + 52 * 106 = 5514 vertices, is a level of its own: g is
        # evaluated there once more
        assert rows == _kept(f0) + Counter(
            {
                (f0.render(), 32514): 1,
                (g.render(), 32514): 1,
                (f0.render(), 130562): 1,
                (g.render(), 130562): 1,
                (g.render(), 5514): 1,
            }
        )
        assert max(_block_rows(128) | _block_rows(256)) <= geometry.BLOCK_ROWS
        # g reads f0's block: one suspension per block of f0's record's
        # levels, of both distance levels, and of f0 inside g at g's
        # degree level
        levels = (*KEPT[f0.render()], 128, 256, 53)
        assert susp_evals == sum(map(_block_rows, levels), Counter())

    def test_homotopy_reads_its_base_inside_the_perturbation(self, rows, susp_evals):
        f0 = parse("(susp (pow 2))")
        g = parse("(perturb 4 0.5 (susp (pow 2)))")
        assert homotopy_check(f0, g).valid
        # one walk of the 128-band grid, 32514 vertices, in blocks of
        # whole rings: each map once per block
        assert rows == {(f0.render(), 32514): 1, (g.render(), 32514): 1}
        # f0 once per block; g reads its block and evaluates its field alone
        assert susp_evals == _block_rows(128)

    def test_blend_check_reads_what_its_children_share(self, rows, susp_evals):
        e = parse("(blend 0.4 (susp (pow 3)) (compose (rot3 0 0 1 0.7) (susp (pow 3))))")
        check_blend_validity(e, DegreeParams())
        # the check proves the blend at its first level, 64 bands, where
        # the second child reads the first instead of evaluating it
        assert rows == {(e.f.render(), 8066): 1, (e.g.render(), 8066): 1}
        assert susp_evals == _block_rows(64)

    @pytest.mark.parametrize(
        ("other", "distance_rows", "degree_rows"),
        [
            # L_f + L_g = 5.5 starts the distance at 64 bands, and the
            # blend's degree reads ceil(pi * 3.51) = 12 bands
            ("(perturb 4 0.5 (susp (pow 2)))", 8066, 266),
            # L_f + L_g = 16.4 starts the distance at 128 bands, and the
            # blend's degree reads ceil(pi * 14.42) = 46 bands
            ("(perturb 3 0.8 (perturb 4 0.8 (susp (pow 2))))", 32514, 4142),
        ],
    )
    def test_a_warm_blend_subject_evaluates_its_base_once_per_pass(
        self, rows, susp_evals, monkeypatch, other, distance_rows, degree_rows
    ):
        # the subject's check, which runs once, evaluates the base, its
        # first child, at 64 bands, and the perturbation reads it there;
        # the distance evaluates the base again before the blend, which
        # reads it, and the blend's degree evaluates the blend on its own,
        # both of its suspensions included. No pass reads another's values
        f0 = parse("(susp (pow 2))")
        g = parse(f"(blend 0.5 (susp (pow 2)) {other})")
        ball_certificate(f0, g)
        rows.clear()
        susp_evals.clear()
        checked = []
        original = degree_module.check_blend_validity

        def spy(e, params):
            checked.append(e)
            return original(e, params)

        monkeypatch.setattr(degree_module, "check_blend_validity", spy)
        cert = ball_certificate(f0, g)
        assert cert.ball.distance.resolution == {8066: 64, 32514: 128}[distance_rows]
        assert cert.ball.distance.rigorous < 1.0
        assert checked == [g]
        assert susp_evals == (
            _block_rows(64) + _block_rows({8066: 64, 32514: 128}[distance_rows])
            + Counter([degree_rows, degree_rows])
        )
        assert rows == Counter(
            [
                (f0.render(), 8066),
                (g.g.render(), 8066),
                (f0.render(), distance_rows),
                (g.render(), distance_rows),
                (g.render(), degree_rows),
            ]
        )


class TestBaseRecord:
    """ball_certificate keeps its latest base map's degree between calls."""

    kept = staticmethod(degree_module._kept_base)

    @pytest.fixture(autouse=True)
    def cleared(self):
        self.kept.cache_clear()

    @pytest.mark.parametrize(
        ("text", "witness", "levels"),
        [
            ("(susp (pow 2))", None, KEPT["(susp (pow 2))"]),
            # 13 to 24 bands hold 8080 vertices, and 25 would add 1202
            ("(susp (pow 4))", PowerWitness(2, 2), range(13, 25)),
        ],
    )
    def test_record_holds_the_base_degree_witness_and_bound(self, text, witness, levels):
        f0 = parse(text)
        out = ball_certificate(f0, Perturb(4, 0.5, f0))
        # the certificate's key: a lookup under it is a hit
        deg0, bound, kept = self.kept(text, DegreeParams(), f0)
        assert self.kept.cache_info()[:2] == (1, 1)  # hits, misses
        assert deg0 == degree(f0)
        assert out.degree == deg0
        assert is_perfect_power(deg0.value) == witness
        assert bound == f0.lipschitz_bound()  # its check's bound, the AST's without a blend
        # and its levels, from its degree's up, while they fit the budget
        assert list(kept) == list(levels) and levels[0] == deg0.resolution

    def test_perfect_power_base_refuses_identically_when_recorded(self):
        f0, g = parse("(susp (pow 4))"), parse("(perturb 2 0.1 (susp (pow 4)))")
        cold = ball_certificate(f0, g)
        warm = ball_certificate(parse("(susp (pow 4))"), g)
        assert self.kept.cache_info().hits == 1
        assert isinstance(warm, Refusal)
        assert warm == cold
        assert warm.to_json_dict() == cold.to_json_dict()

    def test_errors_are_never_recorded(self):
        # the wrap bound of (pow 5000) asks for 31416 samples, beyond the cap
        f0, g = parse("(pow 5000)"), parse("(perturb 1 0.1 (pow 5000))")
        for _ in range(2):
            with pytest.raises(ResolutionExceeded):
                ball_certificate(f0, g)
            assert self.kept.cache_info().currsize == 0
        assert self.kept.cache_info().misses == 2

    def test_key_is_the_rendered_base(self):
        # (rot 0.0) == (rot -0.0), but each is recorded under its own text
        g = parse("(perturb 3 0.2 (pow 2))")
        for misses, text in enumerate(
            ("(compose (rot 0.0) (pow 2))", "(compose (rot -0.0) (pow 2))"), 1
        ):
            ball_certificate(parse(text), g)
            assert self.kept.cache_info().misses == misses
            self.kept(text, DegreeParams(), parse(text))
            assert self.kept.cache_info().misses == misses

    def test_a_new_base_or_new_params_drop_the_old_levels(self):
        f0, g = parse("(susp (pow 2))"), parse("(perturb 4 0.5 (susp (pow 2)))")
        key = (f0.render(), DegreeParams(), f0)
        ball_certificate(f0, g)
        old = self.kept(*key)[2]
        for other in (
            lambda: ball_certificate(parse("(susp (pow 3))"), parse("(perturb 4 0.5 (susp (pow 3)))")),
            lambda: ball_certificate(f0, g, DegreeParams(max_resolution=512)),
        ):
            other()
            assert self.kept.cache_info().currsize == 1
            # the old record went with its levels: a lookup under its key
            # makes a new one, whose arrays hold the same bits
            misses = self.kept.cache_info().misses
            kept = self.kept(*key)[2]
            assert self.kept.cache_info().misses == misses + 1
            assert list(kept) == list(old) == list(KEPT[f0.render()])
            for n, (X, table) in kept.items():
                assert list(table) == list(old[n][1]) == [f0.render()]
                for A, B in [(X, old[n][0]), (table[f0.render()], old[n][1][f0.render()])]:
                    assert A is not B and A.tobytes() == B.tobytes()
            old = kept

    def test_params_are_part_of_the_key(self):
        f0, g = parse("(pow 2)"), parse("(compose (rot 0.2) (pow 2))")
        ball_certificate(f0, g)
        capped = DegreeParams(max_resolution=512)
        ball_certificate(f0, g, capped)
        assert self.kept.cache_info().misses == 2
        # the certificate's key: a lookup under it is a hit
        _, bound, _ = self.kept(f0.render(), capped, f0)
        assert self.kept.cache_info()[:2] == (1, 2)  # hits, misses
        assert bound == 2.0  # its check's bound, the AST's without a blend

    @settings(deadline=None, max_examples=20)
    @given(
        st.one_of(
            S1_TREES,
            S2_TREES,
            # degrees k * d, mostly not perfect powers: certificates too
            st.builds(Compose, st.sampled_from([Pow(k) for k in (-2, 2, 3, 5)]), S1_TREES),
            st.builds(Compose, st.sampled_from([Susp(Pow(k)) for k in (-2, 2, 3)]), S2_TREES),
        ),
        st.integers(0, 2**64 - 1),
        st.floats(0.0, 0.9),
    )
    def test_payload_is_the_same_warm_or_cleared(self, f0, seed, eps):
        g = Perturb(seed, eps, f0)

        def outcome():
            try:
                return ball_certificate(f0, g).to_json_dict()
            except MapdegError as err:
                return type(err).__name__, str(err)

        # at most 128 bands on S2: bounds the cost of the degrees and the
        # distance doubling, and puts the budget errors in the property
        with mock.patch.object(geometry, "MAX_ROWS", 2**16):
            self.kept.cache_clear()
            cold = outcome()
            warm = outcome()
            self.kept.cache_clear()
            assert outcome() == warm == cold


class TestKeptLevels:
    """A ball certificate's base record keeps the base's levels of one block, within a budget."""

    @pytest.fixture(autouse=True)
    def cleared(self):
        degree_module._kept_base.cache_clear()

    @staticmethod
    def levels(f0, params=DegreeParams()):
        """n -> (nodes, {f0's text: f0's values}) of f0's record, under a certificate's key."""
        return degree_module._kept_base(f0.render(), params, f0)[2]

    @settings(deadline=None, max_examples=30)
    @given(
        st.sampled_from(["(pow 2)", "(susp (pow 2))", "(pow 3)", "(susp (pow 5))"]),
        st.integers(0, 2**64 - 1),
        # eps * M < sqrt(3)/2 for every M <= 1: the chord bound proves the
        # distance, and the one level sampled is g's degree level
        st.floats(0.0, 0.6),
    )
    def test_a_certificate_at_a_kept_level_builds_no_grid_and_evaluates_no_base(
        self, text, seed, eps
    ):
        degree_module._kept_base.cache_clear()
        f0 = parse(text)
        g = Perturb(seed, eps, f0)
        n = degree(g).resolution
        assume(n in self.levels(f0))
        evaluated = []
        eval_array = degree_module.eval_array

        def counting(e, X, **kwargs):
            evaluated.append(e.render())
            return eval_array(e, X, **kwargs)

        with (
            mock.patch.object(degree_module, "grid_blocks", side_effect=AssertionError),
            mock.patch.object(degree_module, "eval_array", counting),
        ):
            warm = ball_certificate(parse(text), g)
        assert evaluated == [g.render()]
        assert warm.ball.distance.resolution == n
        degree_module._kept_base.cache_clear()
        assert warm.to_json_dict() == ball_certificate(f0, g).to_json_dict()

    @pytest.mark.parametrize("text", ["(pow 2)", "(susp (pow 2))", "(susp (pow 7))"])
    def test_kept_arrays_are_read_only_and_the_walked_bits(self, text):
        f0 = parse(text)
        levels = self.levels(f0)
        assert levels
        for n, (X, table) in levels.items():
            [(key, F)] = table.items()
            assert key == text
            assert X.tobytes() == make_grid(f0.dim, n).tobytes()
            assert F.tobytes() == eval_array(f0, make_grid(f0.dim, n)).tobytes()
            for A in (X, F):
                assert not A.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    A[0, 0] = 0.0

    @pytest.mark.parametrize(
        ("text", "params"),
        [
            ("(susp (pow 2))", DegreeParams()),
            ("(pow 2)", DegreeParams()),
            # subjects' degree levels of 24 to 52 bands, 1106 to 5306
            # vertices, and of 2713 to 6423 samples
            ("(susp (pow 7))", DegreeParams()),
            ("(pow 401)", DegreeParams()),
            # 252 to 256 samples: the last level under the lowest cap
            ("(pow 40)", DegreeParams(max_resolution=8)),
        ],
    )
    def test_kept_rows_stay_within_one_block(self, text, params):
        # the levels kept run up from the base's degree level and stop at
        # the first that is past the last level, has several blocks or
        # would take the rows past geometry.BLOCK_ROWS; certificates at
        # many levels change none of them
        f0 = parse(text)
        dim, budget = f0.dim, geometry.BLOCK_ROWS
        levels = self.levels(f0, params)
        before = dict(levels)
        for eps in (0.1, 0.3, 0.5, 0.7, 0.85):
            for seed in (1, 2):
                try:
                    ball_certificate(f0, Perturb(seed, eps, f0), params)
                except ResolutionExceeded:
                    pass  # a subject's level past the last level
        assert levels.keys() == before.keys()
        assert all(levels[n] is before[n] for n in levels)
        first, last = min(levels), max(levels)
        assert first == degree(f0, params).resolution
        assert list(levels) == list(range(first, last + 1))
        rows = sum(len(X) for X, _ in levels.values())
        assert rows == sum(_rows(dim, n) for n in levels) <= budget
        after = last + 1
        assert (
            after > _last_level(params, dim)
            or rows + _rows(dim, after) > budget
            or len(list(geometry.grid_blocks(dim, after))) > 1
        )

    @pytest.mark.parametrize(
        ("base", "subject", "params"),
        [
            # a turn's distance is searched from 64 bands, 8065 + 1 rows
            ("(susp (pow 2))", "(compose (rot3 0 0 1 0.5) (susp (pow 2)))", DegreeParams()),
            # the chord bound proves the distance at g's degree level, 75
            # bands, 7951 + 3151 rows
            ("(susp (pow 13))", "(perturb 1 0.7 (susp (pow 13)))", DegreeParams()),
            # the base's own degree level, 66 bands, has two blocks, so its
            # record keeps no level; g's, 71 bands, has two too
            ("(susp (pow 21))", "(perturb 1 0.1 (susp (pow 21)))", DegreeParams()),
            # and at 8860 samples, 8192 + 668 rows
            ("(pow 1400)", "(perturb 1 0.01 (pow 1400))", DegreeParams(max_resolution=65536)),
        ],
    )
    def test_a_level_of_several_blocks_is_never_kept(self, base, subject, params):
        f0, g = parse(base), parse(subject)
        levels = self.levels(f0, params)
        seen = []
        grid_blocks = degree_module.grid_blocks

        def walked(dim, n):
            blocks = list(grid_blocks(dim, n))
            seen.append((n, len(blocks)))
            return iter(blocks)

        with mock.patch.object(degree_module, "grid_blocks", walked):
            first = ball_certificate(f0, g, params)
            second = ball_certificate(f0, g, params)
        assert first == second
        n = first.ball.distance.resolution
        # the level is walked by both calls, in as many blocks each time
        walks = [blocks for m, blocks in seen if m == n]
        assert len(walks) == 2 and walks[0] == walks[1] > 1
        assert n not in levels
        assert all(len(list(geometry.grid_blocks(f0.dim, m))) == 1 for m in levels)


class TestAdmission:
    """No call samples a level that the rule governing it refuses."""

    @settings(deadline=None, max_examples=40)
    @given(
        st.one_of(S1_TREES, S2_TREES, S1_WITH_BLENDS, S2_WITH_BLENDS),
        # the shipped first levels, and smaller and larger ones whose
        # double fits the 2**16-row budget: 181 bands on S2
        st.one_of(
            st.just({}),
            st.fixed_dictionaries({1: st.integers(8, 4096), 2: st.integers(8, 90)}),
        ),
        st.one_of(st.none(), st.integers(8, 2**20)),
        st.integers(0, 2**64 - 1),
        st.floats(0.0, 0.9),
    )
    def test_every_sampled_level_is_admitted(self, e, first, cap, seed, eps):
        # degree and certify_not_iterate sample only blend check and
        # degree levels, which _last_level bounds; a ball certificate also
        # samples its distance levels, which need only fit the row budget
        # (finest)
        params = DegreeParams(max_resolution=cap)
        seen = []

        def spy(original):
            def sampled(dim, n):
                seen.append((dim, n))
                return original(dim, n)

            return sampled

        calls = [
            (lambda: degree(e, params), True),
            (lambda: certify_not_iterate(e, params), True),
            (lambda: ball_certificate(e, Perturb(seed, eps, e), params), False),
        ]
        with (
            mock.patch.object(geometry, "MAX_ROWS", 2**16),
            mock.patch.dict(degree_module._FIRST, first),
            mock.patch.object(degree_module, "grid_blocks", spy(degree_module.grid_blocks)),
        ):
            degree_module._kept_base.cache_clear()
            for call, degree_levels_only in calls:
                seen.clear()
                try:
                    call()
                except MapdegError as err:
                    assert not isinstance(err, InvalidResolution), err
                assert all(n <= geometry.finest(dim) for dim, n in seen)
                if degree_levels_only:
                    assert all(n <= _last_level(params, dim) for dim, n in seen)
            degree_module._kept_base.cache_clear()

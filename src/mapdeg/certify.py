"""Non-iterate certificates from the degree obstruction.

The degree of any n-th iterate (n >= 2) is a perfect power k^n. So a map
whose degree is not a perfect power cannot be an iterate of any continuous
map, and neither can anything within sup-distance 1 of it: the normalized
straight-line homotopy to the base map never vanishes there, and homotopic
maps share their degree. This module turns both arguments into checkable
artifacts. A Refusal never claims a map IS an iterate; it only says the
degree obstruction is silent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .degree import (
    _GRID,
    BALL_RADIUS,
    DegreeParams,
    DegreeResult,
    DistanceEstimate,
    _ball_distance,
    _checked_degree,
    _min_norm,
    degree,
)
from .errors import ConsistencyError, DimensionMismatch
from .expr import MapExpr

#: Homotopy denominators at or below this are treated as pinched.
HOMOTOPY_MIN_NORM = 1e-6


@dataclass(frozen=True)
class PowerWitness:
    """Integers (base, exp) with exp >= 2 witnessing d = base**exp."""

    base: int
    exp: int

    def __post_init__(self):
        if self.exp < 2:
            raise ValueError(f"witness exponent must be >= 2, got {self.exp}")


@dataclass(frozen=True)
class HomotopyReport:
    """Validity data for the straight-line homotopy between two maps.

    min_norm is the exact minimum over t of the sampled denominator,
    which every node reaches at t = 1/2.
    """

    valid: bool
    min_norm: float
    argmin_point: tuple[float, ...]
    resolution: int

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "min_norm": self.min_norm,
            "argmin": {"point": list(self.argmin_point), "t": 0.5},
            "resolution": self.resolution,
        }


@dataclass(frozen=True)
class BallProvenance:
    """Where a neighborhood certificate came from: base map and distance."""

    base: str
    distance: DistanceEstimate


@dataclass(frozen=True)
class NonIterateCertificate:
    """Proof sketch that `subject` is not f^n for any continuous f, n >= 2.

    checked_exponents is the inclusive range of exponents the perfect-power
    scan covered; exponents above it are impossible for the degree's size.
    When ball is present the degree belongs to the base map and transfers
    to the subject by homotopy invariance.
    """

    subject: str
    dim: int
    degree: DegreeResult
    checked_exponents: tuple[int, int]
    ball: BallProvenance | None = None

    def to_json_dict(self) -> dict:
        out = {
            "subject": self.subject,
            "dim": self.dim,
            "degree": self.degree.to_json_dict(),
            "power_check": {"checked_exponents": list(self.checked_exponents)},
            "ball": None,
        }
        if self.ball is not None:
            out["ball"] = {
                "base": self.ball.base,
                "sampled_distance": self.ball.distance.sampled_max,
                "radius": BALL_RADIUS,
                "rigorous": self.ball.distance.rigorous,
            }
        return out


@dataclass(frozen=True)
class Refusal:
    """The degree obstruction is silent: the degree is a perfect power.

    Not a claim that the subject is an iterate; the obstruction is
    necessary, not sufficient.
    """

    subject: str
    dim: int
    degree: DegreeResult
    witness: PowerWitness

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "dim": self.dim,
            "degree": self.degree.to_json_dict(),
            "witness": {"base": self.witness.base, "exp": self.witness.exp},
        }


def _int_nth_root(a: int, n: int) -> int:
    """floor(a ** (1/n)) for a >= 0 and n >= 2, in exact integer arithmetic.

    Integer Newton iteration from 2**ceil(bits/n), which lies above the
    root: the iterates fall strictly until they reach the floor of the
    root, so the first one that does not fall is the answer.
    """
    if n == 2:
        return math.isqrt(a)
    x = 1 << -(-a.bit_length() // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _exponent_scan_range(d: int) -> tuple[int, int]:
    """Inclusive exponent range that decides perfect-powerness of d.

    For |d| >= 2 any representation d = k^n with |k| >= 2 forces
    n <= log2 |d|; n = 2 is always scanned so the range is never empty.
    """
    hi = max(2, abs(d).bit_length() - 1) if abs(d) >= 2 else 2
    return 2, hi


def is_perfect_power(d: int) -> PowerWitness | None:
    """Smallest-exponent witness that d = k^n with n >= 2, or None.

    Conventions: 0 = 0^2, 1 = 1^2, -1 = (-1)^3 are all perfect powers.
    Negative d admits odd exponents only. Roots are exact integer n-th
    roots, verified by exact powering, so no witness is ever approximate
    and no size of d overflows.
    """
    if d == 0:
        return PowerWitness(0, 2)
    if d == 1:
        return PowerWitness(1, 2)
    if d == -1:
        return PowerWitness(-1, 3)
    a = abs(d)
    lo, hi = _exponent_scan_range(d)
    for n in range(lo, hi + 1):
        if d < 0 and n % 2 == 0:
            continue
        k = _int_nth_root(a, n)
        if k >= 2 and k**n == a:
            return PowerWitness(-k if d < 0 else k, n)
    return None


def homotopy_check(
    f0: MapExpr,
    g: MapExpr,
    resolution: int | None = None,
) -> HomotopyReport:
    """Check the normalized straight-line homotopy's denominator.

    Reports the minimum of |(1-t) f0(x) + t g(x)| over grid nodes x and
    all t in [0, 1], taken exactly at t = 1/2; the homotopy is valid iff
    that minimum stays above HOMOTOPY_MIN_NORM, at the first node that
    reaches it (argmin_point). `resolution` defaults to degree._GRID, 256
    samples or 128 bands. The level is streamed (degree._min_norm), so
    its memory does not grow with the level, and a perturbation of f0
    evaluates its field alone.
    """
    if f0.dim != g.dim:
        raise DimensionMismatch(f"maps on S{f0.dim} and S{g.dim}")
    n = resolution if resolution is not None else _GRID[f0.dim]
    min_norm, point = _min_norm(f0, g, n)
    return HomotopyReport(
        valid=min_norm > HOMOTOPY_MIN_NORM,
        min_norm=min_norm,
        argmin_point=point,
        resolution=n,
    )


def certify_not_iterate(
    e: MapExpr, params: DegreeParams = DegreeParams()
) -> NonIterateCertificate | Refusal:
    """Certify that e is no iterate, or refuse with the blocking witness.

    Computes the degree, then scans for a perfect-power representation.
    No witness means no continuous f and no n >= 2 satisfy f^n = e.
    """
    deg = degree(e, params)
    witness = is_perfect_power(deg.value)
    subject = e.render()
    if witness is not None:
        return Refusal(subject, e.dim, deg, witness)
    return NonIterateCertificate(
        subject, e.dim, deg, _exponent_scan_range(deg.value)
    )


@functools.lru_cache(maxsize=1)
def _kept_base(
    text: str, params: DegreeParams, f0: MapExpr
) -> tuple[DegreeResult, PowerWitness | None, float]:
    """A ball certificate's base map, certified once for later calls.

    f0's degree, its power witness and its blend check's bound: all the
    ball argument needs of f0 besides its distance to the subject, which
    each call reads on its own samples (_ball_distance). f0 is evaluated
    here only where its check and its degree need it. One entry only.
    text is f0.render() and part of the key: (rot 0.0) == (rot -0.0) and
    the two hash alike, but they may round differently, and the kept
    degree's residual is in the payload. lru_cache keeps no exception,
    so an error is never kept.
    """
    deg, bound = _checked_degree(f0, params)
    return deg, is_perfect_power(deg.value), bound


def ball_certificate(
    f0: MapExpr, g: MapExpr, params: DegreeParams = DegreeParams()
) -> NonIterateCertificate | Refusal:
    """Certify g as a non-iterate from its proximity to a base map f0.

    Requires degree(f0) not to be a perfect power and the sup distance
    between f0 and g to be below 1. Then the straight-line homotopy
    between them never vanishes, since |F + G|^2 = 4 - |F - G|^2 for unit
    vectors, and g has f0's degree. f0's degree, witness and bound (L_f)
    come from _kept_base. The distance and degree(g) come from one route,
    _ball_distance: g's blend check, then the distance at the levels it
    samples (g's degree level where the chord bound proves the distance,
    else a coarse-first search), then degree(g) from the same samples.
    The certificate carries f0's degree; degree(g) is a consistency check
    that must agree.
    """
    if f0.dim != g.dim:
        raise DimensionMismatch(f"maps on S{f0.dim} and S{g.dim}")
    deg0, witness, bound0 = _kept_base(f0.render(), params, f0)
    if witness is not None:
        return Refusal(g.render(), g.dim, deg0, witness)
    dist, deg_g = _ball_distance(f0, g, params, bound0)
    if deg_g.value != deg0.value:
        raise ConsistencyError(
            f"degree {deg_g.value} of the perturbed map differs from the "
            f"base degree {deg0.value}; homotopy invariance violated"
        )
    return NonIterateCertificate(
        subject=g.render(),
        dim=g.dim,
        degree=deg0,
        checked_exponents=_exponent_scan_range(deg0.value),
        ball=BallProvenance(f0.render(), dist),
    )

"""Non-iterate certificates from the degree obstruction.

The degree of any n-th iterate (n >= 2) is a perfect power k^n. So a map
whose degree is not a perfect power cannot be an iterate of any continuous
map, and neither can anything within sup-distance 1 of it: the normalized
straight-line homotopy to the base map never vanishes there, and homotopic
maps share their degree. This module turns both arguments into
certificates (certify_not_iterate, ball_certificate). A Refusal never
claims a map IS an iterate; it only says the degree obstruction is silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .degree import (
    BALL_RADIUS,
    DegreeParams,
    DegreeResult,
    DistanceEstimate,
    _ball_distance,
    _kept_base,
    degree,
)
from .errors import ConsistencyError, DimensionMismatch
from .expr import MapExpr


@dataclass(frozen=True)
class PowerWitness:
    """Integers (base, exp) with exp >= 2 witnessing d = base**exp."""

    base: int
    exp: int

    def __post_init__(self):
        if self.exp < 2:
            raise ValueError(f"witness exponent must be >= 2, got {self.exp}")


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
    return 2, max(2, abs(d).bit_length() - 1)


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


def certify_not_iterate(
    e: MapExpr, params: DegreeParams = DegreeParams()
) -> NonIterateCertificate | Refusal:
    """Certify that e is no iterate, or refuse with the blocking witness.

    Computes the degree, then scans for a perfect-power representation.
    No witness means no continuous f and no n >= 2 satisfy f^n = e.
    """
    deg = degree(e, params)
    return _verdict(e, deg, is_perfect_power(deg.value))


def _verdict(subject: MapExpr, deg: DegreeResult, witness: PowerWitness | None, ball=None):
    """The Refusal where there is a witness, else the certificate: the one place either is built.

    deg is the degree the verdict rests on, the subject's or a ball
    certificate's base's, witness is_perfect_power(deg.value), and ball
    the certificate's BallProvenance, if any.
    """
    text, dim = subject.render(), subject.dim
    if witness is not None:
        return Refusal(text, dim, deg, witness)
    return NonIterateCertificate(text, dim, deg, _exponent_scan_range(deg.value), ball)


def ball_certificate(
    f0: MapExpr, g: MapExpr, params: DegreeParams = DegreeParams()
) -> NonIterateCertificate | Refusal:
    """Certify g as a non-iterate from its proximity to a base map f0.

    Requires degree(f0) not to be a perfect power and the sup distance
    between f0 and g to be below 1. Then the straight-line homotopy
    between them never vanishes, since |F + G|^2 = 4 - |F - G|^2 for unit
    vectors, and g has f0's degree. f0's degree, bound (L_f) and kept
    levels come from degree._kept_base, its witness from is_perfect_power
    on each call. The distance and degree(g) come from _ball_distance: g's
    blend check, then the distance at g's degree level, whose samples
    degree(g) reads too, where the chord bound proves the distance, or
    else a coarse-first search and then degree(g) at its own level. A
    level that the base's record keeps is read from it, with no grid built
    and f0 not evaluated. The certificate carries f0's degree; degree(g)
    is a consistency check that must agree.
    """
    if f0.dim != g.dim:
        raise DimensionMismatch(f"maps on S{f0.dim} and S{g.dim}")
    deg0, bound0, kept = _kept_base(f0.render(), params, f0)
    witness = is_perfect_power(deg0.value)
    if witness is not None:
        return _verdict(g, deg0, witness)
    dist, deg_g = _ball_distance(f0, g, params, bound0, kept)
    if deg_g.value != deg0.value:
        raise ConsistencyError(
            f"degree {deg_g.value} of the perturbed map differs from the "
            f"base degree {deg0.value}; homotopy invariance violated"
        )
    return _verdict(g, deg0, None, BallProvenance(f0.render(), dist))

"""Seeded inputs for the benchmark workloads, and the oracle for them.

Every workload is a closed loop with one client: the benchmark hands the
CLI one batch, waits for it to finish, checks it, and only then hands over
the next. A batch is a list of CLI arguments plus what each output line must
say. The expectations come from how the inputs were built, never from
mapdeg itself: degrees are multiplied out by hand and perfect powers are
found with exact integer roots.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

#: Upper bound of the perturbation field's Lipschitz constant: every
#: component has integer frequencies in [-2, 2] and coefficients whose
#: absolute values sum to 1, so the bound is 2 * sqrt(m + 1) <= 4.
_FIELD_LIP = 4.0

#: Largest structural Lipschitz bound of a valid S1 line. The winding
#: method starts at ceil(2*pi*L) samples and may double up to 16384, so
#: 600 keeps two refinements of headroom.
_S1_LIP_MAX = 600.0

#: Largest bound of a valid S2 line: pi * 40 < 128 keeps every S2 line on
#: the default 128 -> 256 band schedule, so S2 lines cost alike.
_S2_LIP_MAX = 40.0

#: Lines per certify-mixed batch: 16 valid S1, 2 valid S2 and 2 errors.
BLOCK = 20


def _iroot(a: int, n: int) -> int:
    """Largest integer r with r**n <= a, for a >= 0, by bisection."""
    lo, hi = 0, 1 << (a.bit_length() // n + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**n <= a:
            lo = mid
        else:
            hi = mid - 1
    return lo


def power_exponent(d: int) -> int | None:
    """Smallest n >= 2 with d == k**n for an integer k, or None.

    0 = 0**2, 1 = 1**2 and -1 = (-1)**3 count as perfect powers, as in
    the README; a negative d admits odd exponents only.
    """
    if d in (0, 1):
        return 2
    if d == -1:
        return 3
    a = abs(d)
    for n in range(2, a.bit_length() + 1):
        if d < 0 and n % 2 == 0:
            continue
        if _iroot(a, n) ** n == a:
            return n
    return None


@dataclass(frozen=True)
class Term:
    """A map written in the DSL with its degree and a Lipschitz bound.

    lip bounds mapdeg's own structural bound from above; it is None for
    blends, which mapdeg gives no bound either.
    """

    text: str
    degree: int
    lip: float | None


@dataclass(frozen=True)
class Line:
    """One input line and the outcome it must produce.

    kind is "certificate", "refusal" or the name of a documented error.
    group is "s1", "s2" or "error", for the property shares.
    """

    text: str
    kind: str
    degree: int | None
    group: str


def _valid(term: Term, group: str) -> Line:
    kind = "refusal" if power_exponent(term.degree) is not None else "certificate"
    return Line(term.text, kind, term.degree, group)


def _angle(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.choice((-1, 1)) * rng.uniform(lo, hi), 4)


# --- S1 maps -----------------------------------------------------------------


def _s1_atom(rng: random.Random) -> Term:
    r = rng.random()
    if r < 0.8:
        k = rng.choice((-1, 1)) * rng.randint(2, 9)
        return Term(f"(pow {k})", k, float(abs(k)))
    if r < 0.86:
        return Term("(conj)", -1, 1.0)
    if r < 0.92:
        return Term(f"(rot {_angle(rng, 0.0, 3.1)})", 1, 1.0)
    if r < 0.96:
        return Term("(antipode 1)", 1, 1.0)
    return Term("(id 1)", 1, 1.0)


def _perturb(rng: random.Random, inner: Term, eps_max: float) -> Term:
    seed = rng.randrange(2**64)
    eps = round(rng.uniform(0.0, eps_max), 4)
    lip = None if inner.lip is None else (inner.lip + eps * _FIELD_LIP) / (1.0 - eps)
    return Term(f"(perturb {seed} {eps} {inner.text})", inner.degree, lip)


def _s1_tree(rng: random.Random, depth: int) -> Term:
    if depth == 0 or rng.random() < 0.3:
        return _s1_atom(rng)
    r = rng.random()
    if r < 0.45:
        a, b = _s1_tree(rng, depth - 1), _s1_tree(rng, depth - 1)
        return Term(f"(compose {a.text} {b.text})", a.degree * b.degree, a.lip * b.lip)
    if r < 0.6:
        n = rng.randint(0, 3)
        a = _s1_tree(rng, depth - 1)
        return Term(f"(iterate {n} {a.text})", a.degree**n, a.lip**n)
    return _perturb(rng, _s1_tree(rng, depth - 1), 0.9)


def _s1_random(rng: random.Random) -> Term:
    while True:
        term = _s1_tree(rng, 3)
        if term.lip <= _S1_LIP_MAX:
            return term


def _s1_fast(rng: random.Random) -> Term:
    """A fast-wrapping map: mapdeg starts winding at 600 to 3800 samples."""
    r = rng.random()
    if r < 0.45:
        k = rng.choice((-1, 1)) * rng.randint(100, 600)
        return Term(f"(pow {k})", k, float(abs(k)))
    if r < 0.8:
        a, b = rng.randint(4, 24), rng.choice((-1, 1)) * rng.randint(4, 24)
        return Term(f"(compose (pow {a}) (pow {b}))", a * b, float(abs(a * b)))
    k = rng.choice((-1, 1)) * rng.randint(10, 24)
    return Term(f"(iterate 2 (pow {k}))", k * k, float(k * k))


def _slow_s1(rng: random.Random) -> Term:
    """A map of small degree and bound, safe as a blend endpoint."""
    while True:
        term = _s1_tree(rng, 1)
        if term.lip <= 10.0 and abs(term.degree) <= 5:
            return term


def _s1_blend(rng: random.Random) -> Term:
    """A blend that cannot pinch: both ends stay within 2.5 rad of each other."""
    f = _slow_s1(rng)
    t = round(rng.uniform(0.0, 1.0), 4)
    if rng.random() < 0.5:
        g = f"(compose (rot {_angle(rng, 0.1, 2.5)}) {f.text})"
    else:
        g = _perturb(rng, f, 0.6).text
    return Term(f"(blend {t} {f.text} {g})", f.degree, None)


def _s1_iterate(rng: random.Random) -> Term:
    """An explicit iterate, whose degree is a perfect power by construction."""
    n = rng.randint(2, 4)
    k = rng.choice((-1, 1)) * rng.randint(2, 4)
    return Term(f"(iterate {n} (pow {k}))", k**n, float(abs(k) ** n))


# --- S2 maps -----------------------------------------------------------------


def _susp(rng: random.Random, ks=(-3, -2, 2, 3)) -> Term:
    k = rng.choice(ks)
    return Term(f"(susp (pow {k}))", k, float(max(1, abs(k))))


def _rot3(rng: random.Random) -> str:
    x, y, z = (round(rng.uniform(-1.0, 1.0), 3) for _ in range(3))
    if max(abs(x), abs(y), abs(z)) < 0.1:
        z = 1.0
    return f"(rot3 {x} {y} {z} {_angle(rng, 0.0, 3.1)})"


def _s2_susp(rng):
    return _susp(rng, (-5, -3, -2, 2, 3, 5))


def _s2_rotated(rng):
    s = _susp(rng)
    return Term(f"(compose {_rot3(rng)} {s.text})", s.degree, s.lip)


def _s2_iterate(rng):
    s = _susp(rng, (-2, 2, 3))
    n = 3 if abs(s.degree) == 2 and rng.random() < 0.5 else 2
    return Term(f"(iterate {n} {s.text})", s.degree**n, s.lip**n)


def _s2_perturb(rng):
    while True:
        term = _perturb(rng, _susp(rng), 0.8)
        if term.lip <= _S2_LIP_MAX:
            return term


def _s2_blend(rng):
    """Blend of a suspension with itself turned about the z axis, which
    moves every image point by at most the angle, so it cannot pinch."""
    s = _susp(rng)
    t = round(rng.uniform(0.0, 1.0), 4)
    a = _angle(rng, 0.1, 2.5)
    return Term(f"(blend {t} {s.text} (compose (rot3 0 0 1 {a}) {s.text}))", s.degree, None)


def _s2_rigid(rng):
    return Term(_rot3(rng), 1, 1.0) if rng.random() < 0.5 else Term("(id 2)", 1, 1.0)


def _s2_antipode(rng):
    if rng.random() < 0.3:
        return Term("(antipode 2)", -1, 1.0)
    s = _susp(rng)
    return Term(f"(compose (antipode 2) {s.text})", -s.degree, s.lip)


#: S2 kinds, taken in turn two per block so that every run sees the
#: same mix of S2 costs whatever the seed.
_S2_KINDS = (
    _s2_susp,
    _s2_rotated,
    _s2_iterate,
    _s2_perturb,
    _s2_blend,
    _s2_rigid,
    _s2_antipode,
)


# --- lines with a documented error --------------------------------------------


def _parse_error(rng):
    k = rng.randint(2, 9)
    return rng.choice(
        (
            f"(pow {k}",
            f"(pow {k}.5)",
            f"(frob {k})",
            f"(pow {k}) (pow {k})",
            f"(id {k + 1})",
            f"(iterate -{k} (pow 2))",
            f"pow {k}",
            "()",
        )
    )


def _dimension_error(rng):
    k = rng.randint(2, 9)
    return rng.choice(
        (
            f"(compose (pow {k}) (id 2))",
            f"(susp (susp (pow {k})))",
            f"(blend 0.5 (pow {k}) (susp (pow {k})))",
            f"(compose (susp (pow {k})) (pow {k}))",
        )
    )


def _domain_error(rng):
    k = rng.randint(2, 9)
    return rng.choice(
        (
            f"(perturb {rng.randrange(2**32)} {round(rng.uniform(1.0, 3.0), 3)} (pow {k}))",
            f"(blend {round(rng.uniform(1.1, 3.0), 3)} (pow {k}) (pow {k}))",
            f"(rot3 0 0 0 {k})",
        )
    )


def _pinching_blend(rng):
    """F blended with its own antipode: the segment passes through 0 at t = 1/2."""
    f = _slow_s1(rng)
    t = round(rng.uniform(0.0, 1.0), 4)
    return f"(blend {t} {f.text} (compose (antipode 1) {f.text}))"


def _resolution_error(rng):
    """A bound so large that winding is refused before any sampling:
    ceil(2*pi*L) doubled exceeds the default cap of 16384 for L >= 1304."""
    if rng.random() < 0.5:
        k = rng.choice((-1, 1)) * rng.randint(1400, 50000)
        return f"(pow {k})"
    k = rng.randint(7, 30)
    return f"(iterate 4 (pow {k}))"


_ERROR_KINDS = (
    ("ParseError", _parse_error),
    ("DimensionMismatch", _dimension_error),
    ("DomainError", _domain_error),
    ("InvalidBlend", _pinching_blend),
    ("ResolutionExceeded", _resolution_error),
)


def mixed_block(seed: int, index: int) -> list[Line]:
    """Block `index` of the certify-mixed corpus for `seed`.

    Fixed slots keep the shares equal in every block: 12 random S1 trees,
    2 fast-wrapping S1 maps, 1 blend that cannot pinch, 1 explicit
    iterate, 2 S2 maps and 2 errors. The order within a block is shuffled.
    """
    rng = random.Random(f"certify-mixed:{seed}:{index}")
    lines = [_valid(_s1_random(rng), "s1") for _ in range(12)]
    lines += [_valid(_s1_fast(rng), "s1") for _ in range(2)]
    lines.append(_valid(_s1_blend(rng), "s1"))
    lines.append(_valid(_s1_iterate(rng), "s1"))
    for j in (2 * index, 2 * index + 1):
        lines.append(_valid(_S2_KINDS[j % len(_S2_KINDS)](rng), "s2"))
        kind, make = _ERROR_KINDS[j % len(_ERROR_KINDS)]
        lines.append(Line(make(rng), kind, None, "error"))
    rng.shuffle(lines)
    assert len(lines) == BLOCK
    return lines


# --- batches and their checks ------------------------------------------------


@dataclass
class Batch:
    """CLI arguments of one batch and the outcome each line must have."""

    argv: list[str]
    lines: list[Line]
    exit_code: int


class Workload:
    """Makes the batches of one workload and checks their output lines."""

    def batch(self, index: int) -> Batch:
        raise NotImplementedError

    def check_line(self, expected: Line, report: dict) -> bool:
        raise NotImplementedError


class BallWorkload(Workload):
    """`mapdeg experiment`: ball certificates around one degree-2 base map.

    Batch i runs `count` samples under a master seed derived from the
    workload seed and i, so every batch draws fresh perturbations.
    """

    def __init__(self, dim: int, epsilon_max: float, count: int, seed: int):
        self.dim = dim
        self.epsilon_max = epsilon_max
        self.count = count
        self.seed = seed
        self.base = "(pow 2)" if dim == 1 else "(susp (pow 2))"

    def batch(self, index: int) -> Batch:
        master = self.seed * 1_000_003 + index
        argv = [
            "experiment",
            "--dim", str(self.dim),
            "--count", str(self.count),
            "--epsilon-max", str(self.epsilon_max),
            "--seed", str(master),
        ]  # fmt: skip
        line = Line(self.base, "certificate", 2, f"s{self.dim}")
        return Batch(argv, [line] * self.count, 0)

    def check_line(self, expected: Line, report: dict) -> bool:
        payload = report.get("payload", {})
        ball = payload.get("ball") or {}
        return (
            report.get("outcome") == "ok"
            and "witness" not in payload
            and payload.get("degree", {}).get("value") == expected.degree
            and ball.get("base") == self.base
            and ball.get("sampled_distance", math.inf) < 1.0
        )


class MixedWorkload(Workload):
    """`mapdeg certify -f` on corpus blocks written under `workdir`."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def batch(self, index: int) -> Batch:
        lines = mixed_block(self.seed, index)
        path = self.workdir / f"corpus-{self.seed}-{index}.txt"
        path.write_text("".join(line.text + "\n" for line in lines), encoding="utf-8")
        has_error = any(line.group == "error" for line in lines)
        return Batch(["certify", "-f", str(path)], lines, 1 if has_error else 0)

    def check_line(self, expected: Line, report: dict) -> bool:
        if report.get("input") != expected.text:
            return False
        outcome = report.get("outcome")
        if expected.group == "error":
            return outcome == expected.kind
        payload = report.get("payload", {})
        if outcome != "ok" or payload.get("degree", {}).get("value") != expected.degree:
            return False
        witness = payload.get("witness")
        if expected.kind == "certificate":
            return witness is None and payload.get("ball", 0) is None
        return (
            witness is not None
            and witness["exp"] == power_exponent(expected.degree)
            and witness["base"] ** witness["exp"] == expected.degree
        )


#: Ball workloads: dimension, --epsilon-max and samples per batch. One
#: S2 sample takes about 0.6 s, so a run overshoots its time by little.
_BALL = {"ball-s2": (2, 0.8, 1)}

NAMES = ("ball-s2", "certify-mixed")


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name in _BALL:
        return BallWorkload(*_BALL[name], seed)
    if name == "certify-mixed":
        return MixedWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

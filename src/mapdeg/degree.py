"""Numerical Brouwer degree, and the two reports on a pair of maps.

On S1 the degree is the winding number: the summed, wrapped angle
increments of the image curve divided by 2*pi. On S2 it is the simplicial
degree: the summed signed solid angles of the images of a lat-long
triangulation's triangles divided by 4*pi. Both apply the map once per
sample and guard the largest image step or edge. Every degree is read
at one level that a Lipschitz bound proves exact (Stenger 1975, Kearfott
1979): the AST's bound for a map without a blend, and for a map with a
blend one its checks derive from the blends' sampled denominators
(check_blend_validity). A map that no admitted level proves is refused
(ResolutionExceeded); no degree is rounded from a level that is not a
proof. The two pair reports, sup_distance and homotopy_check, read two
maps on one level (_pair). Every level is sampled by one walk of grid
blocks (_walk), which every consumer of the level reads: a degree pass,
the sup distance and a segment minimum. No array of a whole level is
held, but for a ball certificate's base, whose levels of one block its
record keeps (_kept_base), within one block's rows in all.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    DistanceTooLarge,
    InvalidBlend,
    InvalidResolution,
    ResolutionExceeded,
    SymbolicNumericMismatch,
)
from . import geometry
from .expr import Blend, MapExpr, Perturb, eval_array
from .geometry import _integer, grid_blocks, mesh, row_norms

#: Pre-normalization norms at or below this invalidate a blend slice.
BLEND_MIN_NORM = 1e-6

#: Largest image step (S1) or image-edge angle (S2) a level may contain.
STEP_CAP = math.pi / 2

#: Most a proven level's raw degree may differ from an integer.
_PROVEN_RESIDUAL = 1e-6

#: F such that ceil(F * L) nodes, and at least MIN_RESOLUTION, prove the
#: degree of a map of Lipschitz bound L: 2*pi*L samples on S1, pi*L bands
#: on S2 (_proven_level, _degree).
_WRAP = {1: math.tau, 2: math.pi}

#: The first level of a coarse-first search (_levels): 256 samples, 64
#: bands. No cap is below its double (DegreeParams.max_for), and neither
#: is geometry.finest, so every search lists at least one level.
_FIRST = {1: 256, 2: 64}

#: The grid sup_distance and homotopy_check sample where no resolution
#: is given: 256 samples, 128 bands.
_GRID = {1: 256, 2: 128}

#: Radius of the ball around a base map inside which a ball certificate's
#: argument works: the distance _ball_distance proves stays below it.
BALL_RADIUS = 1.0


@dataclass(frozen=True, kw_only=True)
class DegreeParams:
    """The resolution cap of the degree computations, keyword-only.

    A cap left as None falls back to a per-dimension default. A degree
    is read at the level its bound proves (_proven_level), up to the
    last level (_last_level): half the cap (max_for) or half
    geometry.finest, whichever is less, so 8192 samples and 512 bands
    by default and never above 724 bands. Blend checks sample from the
    first level, _FIRST, to the last, and a ball certificate's searched
    distance from the first level to the finest grid.
    """

    max_resolution: int | None = None

    _DEFAULT_MAX: ClassVar[dict[int, int]] = {1: 16384, 2: 1024}

    def __post_init__(self):
        cap = self.max_resolution
        if cap is not None:  # stored as a plain int
            cap = self.__dict__["max_resolution"] = _integer(cap, "max resolution", ValueError)
            if cap < geometry.MIN_RESOLUTION:
                raise ValueError(f"max resolution must be >= {geometry.MIN_RESOLUTION}")

    def max_for(self, dim: int) -> int:
        """The cap, never below twice the first level: 512 samples, 128 bands."""
        configured = self.max_resolution
        if configured is None:
            configured = self._DEFAULT_MAX[dim]
        return max(configured, 2 * _FIRST[dim])


@dataclass(frozen=True)
class DegreeResult:
    """An integer degree plus the evidence it was rounded from.

    value is the map's structural degree, which the numeric pass
    confirmed (_degree); residual is |raw - value| of that pass, always
    below 1e-6. resolution is the one level the map's Lipschitz bound L
    proves (_proven_level): ceil(2*pi*L) samples on S1 or ceil(pi*L)
    bands on S2, never below MIN_RESOLUTION, with L the AST's bound for
    a map without a blend and its blend check's bound otherwise.
    """

    value: int
    residual: float
    resolution: int

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "residual": self.residual,
            "resolution": self.resolution,
        }


@dataclass(frozen=True)
class DistanceEstimate:
    """Sampled sup distance between two maps, with a bound where one is known.

    sampled_max is a lower bound of the true sup, taken at `resolution`.
    rigorous is a true upper bound, the smaller of two where both are
    known: the AST's chord bound where f and g are chains of perturbs
    over a common map (_chord_bound, from each field's bound M), and
    sampled_max + (L_f + L_g) * mesh, with both maps' Lipschitz bounds
    from their blend checks, where that sum is finite. It is never below
    sampled_max, since no upper bound is below the value it bounds: the
    chord bound holds for the exact maps, and renormalization may put
    the sampled floats an ulp past it. None where neither bound is known.
    """

    sampled_max: float
    resolution: int
    rigorous: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "sampled_max": self.sampled_max,
            "resolution": self.resolution,
            "rigorous": self.rigorous,
        }


@dataclass(frozen=True)
class HomotopyReport:
    """Validity data for the straight-line homotopy between two maps.

    min_norm is the exact minimum over t of the sampled denominator, at
    t = 1/2; floor bounds it everywhere, or is None. valid is floor > BLEND_MIN_NORM.
    """

    valid: bool
    min_norm: float
    floor: float | None
    argmin_point: tuple[float, ...]
    resolution: int

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "min_norm": self.min_norm,
            "floor": self.floor,
            "argmin": {"point": list(self.argmin_point), "t": 0.5},
            "resolution": self.resolution,
        }


def _last_level(params: DegreeParams, dim: int) -> int:
    """The finest level a degree is read at or a blend check samples: the two numbers' half.

    Half the cap or half the finest grid, whichever is less, so that the
    level's double fits both: n <= cap would admit lines up to four times
    as costly on S2, which waits for a cost model of evaluations x rows.
    """
    return min(params.max_for(dim), geometry.finest(dim)) // 2


def _proven_level(bound: float, params: DegreeParams, dim: int) -> int:
    """The one level a map of Lipschitz bound `bound` is read at, where _degree's pass is a proof.

    Sampling a map that wraps K times with fewer than ~2*pi*K nodes can
    alias to a convincing but wrong winding, so a map is read at
    n = ceil(need), need = 2*pi*L samples on S1 or pi*L bands on S2 and
    at least MIN_RESOLUTION, whether or not it has a blend. The only
    place a degree level is refused (ResolutionExceeded): a need above
    _last_level or NaN, before anything is sampled at the map's level.
    """
    need = max(_WRAP[dim] * bound, geometry.MIN_RESOLUTION)  # max(nan, n) is nan
    last = _last_level(params, dim)
    if not need <= last:
        shown = math.ceil(need) if math.isfinite(need) else need
        raise ResolutionExceeded(
            f"map needs resolution {shown}, above the last level {last}, half the smaller "
            f"of the cap {params.max_for(dim)} and the finest grid {geometry.finest(dim)} "
            f"within {geometry.MAX_ROWS} sample rows"
        )
    return math.ceil(need)


def _walk(
    maps: tuple[MapExpr, ...], n: int, kept: dict | None = None
) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """Level n in geometry.grid_blocks: (nodes, each map's values there) per block.

    Each block is read-only before any map reads it, and has one table
    from canonical text (render()) to values. A map whose text the table
    holds is not evaluated; any other is evaluated once, reading from the
    table each sub-expression it applies to the block's nodes (eval_array),
    and added: a perturbation of an earlier map costs its field alone.
    Texts decide: (rot 0.0) and (rot -0.0) never share. No block outlives
    the next unless the caller keeps it, and a max or min over the blocks
    is the whole level's, bit for bit. kept maps a level to its one block
    and a table there, as a ball certificate's base keeps them
    (_kept_base): that level is walked as the block, with no grid built
    and the maps the table holds not evaluated.
    """
    level = kept.get(n) if kept else None
    blocks = [level[0]] if level else grid_blocks(maps[0].dim, n)
    for X in blocks:
        X.flags.writeable = False
        table, values = dict(level[1]) if level else {}, []
        for e in maps:
            text = e.render()
            if text not in table:
                table[text] = eval_array(e, X, known=table)
            values.append(table[text])
        yield X, values


def _min_norm(walk) -> tuple[float, tuple[float, ...]]:
    """pair_min_norm over a walk of two maps, and its node: the first np.argmin gives."""
    blocks = ((pair_min_norm(F, G), X) for X, (F, G) in walk)
    (low, row), X = min(blocks, key=lambda block: block[0][0])  # the first block wins ties
    return low, tuple(X[row].tolist())


def _chord_bound(f: MapExpr, g: MapExpr) -> float | None:
    """An upper bound of |f(x) - g(x)| over the whole sphere from the AST alone, or None.

    Both maps are walked through Perturb nodes down to the first node of
    f's chain whose text (render()) is one of g's. Each (perturb s eps h)
    adds eps * V(x), with |V(x)| <= M everywhere (sup_bound), to the unit
    vector h(x); since eps * M < 1 the direction turns by at most
    asin(eps * M). Turns add along both chains, by the triangle
    inequality of the sphere's geodesic metric, so g(x) lies within angle
    theta = sum asin(eps_i * M_i) of f(x), and within the chord
    2 sin(min(theta, pi) / 2). For one perturb that is
    sqrt(2 - 2 sqrt(1 - (eps M)^2)), below 1 exactly when
    eps * M < sqrt(3)/2. M may round to 1 + ulp, so eps * M is taken at
    most 1, a turn of at most pi/2; such a map's Lipschitz bound is
    infinite or past every cap, so its degree is refused anyway. None
    where f and g are not chains of perturbs over a common map.
    """
    chains = []
    for e in (f, g):
        chain, theta = [(e, 0.0)], 0.0
        while isinstance(e, Perturb):
            theta += math.asin(min(e.eps * e._field.sup_bound(), 1.0))
            e = e.inner
            chain.append((e, theta))
        chains.append(chain)
    for a, s in chains[0]:
        for b, t in chains[1]:
            if a.render() == b.render():
                return 2.0 * math.sin(min(s + t, math.pi) / 2.0)
    return None


def _winding_pass(walk, resolution: int) -> tuple[float, float]:
    """(raw winding, largest |step|) of the last map of a walk of make_grid(1, resolution).

    A block's steps run on to the next block's first node, and the last
    block's to the first node, so a level of one block is one array.
    """
    angles = (np.arctan2(values[-1][:, 1], values[-1][:, 0]) for _, values in walk)
    alpha = first = next(angles)
    total = largest = 0.0
    for after in itertools.chain(angles, [first]):
        steps = np.diff(np.concatenate([alpha, after[:1]]))
        steps = np.mod(steps + math.pi, math.tau) - math.pi  # wrap to [-pi, pi)
        total += float(steps.sum())
        largest, alpha = np.maximum(largest, np.abs(steps).max()), after  # keeps a NaN
    return total / math.tau, float(largest)


def _simplicial_pass(walk, resolution: int) -> tuple[float, float]:
    """(raw degree, largest image-edge angle) of the last map of a walk of make_grid(2, resolution).

    Each pole is repeated around its ring, so every band between
    consecutive rings splits each cell (a, b, b', a') -- a above b,
    primes one step east -- into the positively oriented triangles
    (a, b, b') and (a, b', a'); at the poles one of the two is degenerate
    and adds nothing. The signed solid angle of an image triangle of unit
    vectors (p, q, r) is the Van Oosterom-Strackee
    2 * atan2(p.(q x r), 1 + p.q + q.r + r.p).

    Each block fills one component-first (3, rings, m) array: the
    previous block's last ring (the north pole, repeated, in the first
    block), the block's interior rings, and the south pole, repeated, in
    the last block; so a level of one block is one array. The operands
    of every product are C-contiguous and the summation order is fixed,
    so reruns are bit-identical.
    """
    m = 2 * resolution
    east_of = np.arange(1, m + 1) % m  # the index one step east, around each ring
    total, lowest, above = 0.0, np.inf, None
    for _, values in walk:
        Y = values[-1]
        top = int(above is None)  # the north pole starts the first block
        bottom = (len(Y) - top) % m  # and the south pole ends the last
        inner = (len(Y) - top - bottom) // m
        R = np.empty((3, 1 + inner + bottom, m))
        R[:, 0] = Y[0, :, None] if top else above
        R[:, 1 : 1 + inner] = Y[top : len(Y) - bottom].T.reshape(3, inner, m)
        if bottom:
            R[:, -1] = Y[-1, :, None]
        above = R[:, -1]
        if len(R[0]) < 2:  # a first block of the north pole alone
            continue
        R1 = R.take(east_of, axis=2)
        a, b, a1, b1 = R[:, :-1], R[:, 1:], R1[:, :-1], R1[:, 1:]
        east = np.einsum("kij,kij->ij", R, R1)  # along each ring
        south = np.einsum("kij,kij->ij", a, b)  # between rings
        diagonal = np.einsum("kij,kij->ij", a, b1)
        half = np.arctan2(_triple(a, b, b1), 1.0 + south + east[1:] + diagonal)
        south1 = south.take(east_of, axis=1)  # a' . b'
        half += np.arctan2(_triple(a, b1, a1), 1.0 + diagonal + south1 + east[:-1])
        lowest = np.minimum(lowest, min(east.min(), south.min(), diagonal.min()))
        total += float(half.sum())
    # the solid angles are 2 * half; their sum over 4*pi is the degree
    return total / math.tau, math.acos(max(-1.0, min(1.0, float(lowest))))


def _triple(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """p . (q x r) for component-first (3, ...) arrays."""
    return (
        p[0] * (q[1] * r[2] - q[2] * r[1])
        + p[1] * (q[2] * r[0] - q[0] * r[2])
        + p[2] * (q[0] * r[1] - q[1] * r[0])
    )


_PASSES = {1: ("winding", _winding_pass), 2: ("simplicial", _simplicial_pass)}


def raw_pass(e: MapExpr, resolution: int) -> tuple[float, float]:
    """One non-adaptive pass of e's sphere: (raw degree, largest image step or edge angle)."""
    return _PASSES[e.dim][1](_walk((e,), resolution), resolution)


def pair_distance(F: np.ndarray, G: np.ndarray) -> float:
    """Largest chordal distance between two maps' values F and G on one grid."""
    return min(2.0, float(row_norms(F - G).max()))


def pair_min_norm(F: np.ndarray, G: np.ndarray) -> tuple[float, int]:
    """Minimum of |(1-t) F(x) + t G(x)| over nodes x and all t in [0, 1].

    For unit vectors the squared norm is 1 - 2t(1-t)(1 - F.G), smallest
    at t = 1/2, where the norm is |F + G| / 2: one pass gives the exact
    minimum over the whole segment. Returns (min_norm, row of the argmin
    node). This is the denominator of the straight-line homotopy between
    the maps; a value near zero means the homotopy (or a blend) is
    invalid.
    """
    norms = row_norms(F + G) / 2.0
    row = int(np.argmin(norms))
    return float(norms[row]), row


def _blend_bound(node: Blend, inner: list[float], min_norm: float, n: int) -> float | None:
    """A blend's Lipschitz bound from its children's and its check at level n.

    For unit F, G, |(1-t) F + t G| >= |F + G| / 2, which is
    (L_f + L_g)/2-Lipschitz; every point lies within mesh(dim, n) of a
    node, so m = min_norm - (L_f + L_g)/2 * mesh bounds the norm from
    below everywhere. Normalization is 1/m-Lipschitz on |v| >= m, so the
    blend is ((1-t) L_f + t L_g) / m-Lipschitz. None when m is not above
    BLEND_MIN_NORM.
    """
    lf, lg = inner
    floor = min_norm - 0.5 * (lf + lg) * mesh(node.dim, n)
    if not floor > BLEND_MIN_NORM:
        return None
    return ((1.0 - node.t) * lf + node.t * lg) / floor


def _levels(dim: int, last: int) -> list[int]:
    """The levels of a coarse-first search: _FIRST[dim] and each double, up to last.

    last is _last_level for a blend check and geometry.finest for a ball
    certificate's searched distance (_ball_distance), both at least
    _FIRST[dim], so at least one level is listed. Both sample these in
    order and accept at the first level that proves what they check.
    Both stop by one rule: a finer level's nodes include the coarser
    ones, so a sampled minimum only falls and a sampled maximum only
    rises, and a level whose sample cannot prove even the last level
    rules out every level after it. The search is refused there, with
    what it sampled.
    """
    levels, n = [], _FIRST[dim]
    while n <= last:
        levels.append(n)
        n *= 2
    return levels


def check_blend_validity(e: MapExpr, params: DegreeParams) -> tuple[float, int]:
    """Reject expressions whose blend denominators approach zero; bound and degree the rest.

    One post-order walk of e (_check), children right to left, gives each
    node its (Lipschitz bound, structural degree) from its children's: a
    node without a blend by the AST's rules (_bound, _symbolic), a blend
    by its check. Blends are so checked inside out, each after the blends
    within it, since its bound (_blend_bound) needs theirs.

    Each blend's children are sampled on one grid and the segment between
    them is checked at its exact minimum over t, not only at the node's
    own t: a pinch anywhere on the segment is inconclusive. A check walks
    the levels _levels lists up to _last_level: the first level whose
    bound proves the blend there or coarser accepts it, and the first
    whose nodes pinch raises InvalidBlend. A blend no listed level proves
    is refused (ResolutionExceeded): before sampling where
    (1-t) L_f + t L_g, its bound at m_rig = 1, rules the last out, and by
    _levels' stop rule at the first level whose segment minimum m does,
    by m - (L_f + L_g)/2 * mesh(last). A checked blend's
    segment never pinches, so it is homotopic to both children and takes
    their common degree; children that disagree are a bug
    (ConsistencyError).

    Each level is one walk of the two children (_walk). Returns (L, d):
    e's bound, the AST's with each blend's from its check, and e's
    structural degree.
    """
    return _check(e, params)  # the walk recurses in _check: one call here per map


def _check(e: MapExpr, params: DegreeParams) -> tuple[float, int]:
    """check_blend_validity(e, params), from e's children's pairs, taken right to left."""
    inner = [_check(c, params) for c in reversed(e.children())][::-1]
    bounds, degrees = [b for b, _ in inner], [d for _, d in inner]
    if not isinstance(e, Blend):
        return e._bound(bounds), e._symbolic(degrees)
    dim = e.dim
    levels = _levels(dim, _last_level(params, dim))
    last = levels[-1]
    need = _WRAP[dim] * ((1.0 - e.t) * bounds[0] + e.t * bounds[1])  # m_rig <= 1
    if not need <= last:
        shown = math.ceil(need) if math.isfinite(need) else need
        raise ResolutionExceeded(
            f"blend needs resolution {shown} or more, above {last}, the last level "
            f"its check samples, in {e.render()}"
        )
    for n in levels:
        min_norm, node = _min_norm(_walk((e.f, e.g), n))
        bound = _blend_bound(e, bounds, min_norm, n)
        if bound is not None and _WRAP[dim] * bound <= n:
            break
        if min_norm <= BLEND_MIN_NORM:
            raise InvalidBlend(
                f"blend denominator {min_norm:.3e} at t=0.5 near {node} in {e.render()}"
            )
        best = _blend_bound(e, bounds, min_norm, last)
        if best is None or _WRAP[dim] * best > last:
            raise ResolutionExceeded(
                f"blend proven at no level up to {last}, segment minimum "
                f"{min_norm:.3e} at {n}, in {e.render()}"
            )
    if degrees[0] != degrees[1]:
        raise ConsistencyError(
            f"checked blend joins structural degrees {degrees[0]} and {degrees[1]} "
            f"in {e.render()}"
        )
    return bound, degrees[0]


def degree(e: MapExpr, params: DegreeParams = DegreeParams()) -> DegreeResult:
    """Degree of any well-formed expression.

    Every map takes one route: the blend check, then one pass at the
    level its Lipschitz bound proves, which must confirm the map's
    structural degree, each checked blend taking its children's
    (check_blend_validity). A disagreement raises SymbolicNumericMismatch
    and is always a bug, never silently preferred away.
    """
    bound, sd = check_blend_validity(e, params)
    n = _proven_level(bound, params, e.dim)
    return _degree(e, n, sd, raw_pass(e, n))


@functools.lru_cache(maxsize=1)
def _kept_base(text: str, params: DegreeParams, f0: MapExpr) -> tuple[DegreeResult, float, dict]:
    """A ball certificate's base map, read once for later calls: (degree(f0), L_f, kept levels).

    f0's degree and its blend check's bound are all the ball argument
    needs of f0 besides its distance to the subject, which each call
    reads on its own samples (_ball_distance). f0 is evaluated here only
    where its check and its degree need it, and at its kept levels:
    n -> (nodes, {f0's text: f0's values}), read-only, which every call
    reads instead of building the grid and evaluating f0 again. A subject
    whose distance the chord bound proves is read at its degree level
    alone, n0 (f0's) or finer, since a chain of perturbs over f0 has a
    Lipschitz bound of at least f0's. So the levels kept are n0, n0 + 1,
    ..., up to _last_level, each walked once here on its grid's one
    block; f0's degree pass reads the first. They stop at the first level
    of several blocks, or whose rows would take the kept rows past
    geometry.BLOCK_ROWS (about 0.4 MB on S2), before f0 is evaluated
    there, and depend on f0 and params alone, so every call reads the
    same levels, whatever ran before. One entry only, so a new base or
    new params drop the old levels with the rest. text is f0.render() and
    part of the key: (rot 0.0) == (rot -0.0) and the two hash alike, but
    they may round differently, and the kept degree's residual is in the
    payload. lru_cache keeps no exception, so an error is never kept.
    """
    bound, sd = check_blend_validity(f0, params)
    n0 = _proven_level(bound, params, f0.dim)
    levels, rows = {}, 0
    for n in range(n0, _last_level(params, f0.dim) + 1):
        blocks = grid_blocks(f0.dim, n)
        X = next(blocks)
        rows += len(X)
        if rows > geometry.BLOCK_ROWS or next(blocks, None) is not None:
            break
        [(_, [F])] = _walk((f0,), n, {n: (X, {})})
        F.flags.writeable = False
        levels[n] = X, {f0.render(): F}
    return _degree(f0, n0, sd, _PASSES[f0.dim][1](_walk((f0,), n0, levels), n0)), bound, levels


def _degree(e: MapExpr, n: int, sd: int, passed: tuple[float, float]) -> DegreeResult:
    """degree(e) from `passed`, e's pass at _proven_level's n, checked against sd.

    The pass, winding on S1 and simplicial on S2, gives (raw degree,
    largest image step or edge angle) on a walk of level n, e's own or a
    distance walk (_ball_distance). n >= 2*pi*L samples keep every image
    step below pi/3, and n >= pi*L bands every image edge below pi/2, so
    the sum is the degree (Stenger 1975, Kearfott 1979). A guard over
    STEP_CAP or a raw value _PROVEN_RESIDUAL or more from an integer
    there is a bug (ConsistencyError), as is a raw value that is not
    finite, and so is an integer other than sd, e's structural degree
    from check_blend_validity (SymbolicNumericMismatch).
    """
    method = _PASSES[e.dim][0]
    raw, step = passed
    value = int(round(raw)) if math.isfinite(raw) else 0  # a NaN or inf residual fails below
    residual = abs(raw - value)
    if not (step <= STEP_CAP and residual < _PROVEN_RESIDUAL):
        raise ConsistencyError(
            f"{method} at the proven resolution {n} gave {raw:.6g} with a "
            f"largest step of {step:.6g} for {e.render()}"
        )
    if value != sd:
        raise SymbolicNumericMismatch(
            f"structural degree {sd} but {method} found {value} "
            f"at resolution {n} for {e.render()}"
        )
    return DegreeResult(sd, residual, n)


def sup_distance(f: MapExpr, g: MapExpr, resolution: int | None = None) -> DistanceEstimate:
    """Sup distance between two maps of the same sphere.

    The sampled max is a lower bound of the true sup. Both maps' blend
    checks run first, with DegreeParams(), for their Lipschitz bounds,
    and a check's refusal is raised. sampled_max + (L_f + L_g) * mesh is
    an upper bound where finite: every point lies within mesh of a node,
    where neither map can have moved by more than its constant times
    mesh. rigorous is the smaller of it and the chord bound where f and g
    are chains of perturbs over a common map (_sup_distance). `resolution`
    defaults to _GRID[dim] (_pair).
    """
    return _pair(f, g, resolution)[0]


def homotopy_check(f0: MapExpr, g: MapExpr, resolution: int | None = None) -> HomotopyReport:
    """Prove the normalized straight-line homotopy between f0 and g, or report it unproven.

    Both maps' blend checks run first, as for sup_distance. One walk of
    the level (_GRID by default) gives the minimum of
    |(1-t) f0(x) + t g(x)| over its nodes x and all t, at t = 1/2 and its
    first node, and the distance, whose rigorous bound r gives the floor:
    for unit vectors |F + G|^2 = 4 - |F - G|^2, so the denominator is at
    least sqrt(1 - (r/2)^2) everywhere, and 0 where r >= 2. Valid iff the
    floor is above BLEND_MIN_NORM; a sampled minimum proves nothing
    between the nodes.
    """
    dist, (min_norm, point) = _pair(f0, g, resolution, _min_norm)
    r = dist.rigorous
    floor = None if r is None else math.sqrt(max(0.0, 1.0 - (r / 2.0) ** 2))
    valid = floor is not None and floor > BLEND_MIN_NORM
    return HomotopyReport(valid, min_norm, floor, point, dist.resolution)


def _pair(f: MapExpr, g: MapExpr, resolution: int | None, read=None):
    """(sup_distance(f, g, resolution), read's result) from one walk (_sup_distance).

    In order: the dimensions, both blend checks (L_f + L_g), the level as
    an int, _GRID[dim] by default, and the chord bound.
    """
    if f.dim != g.dim:
        raise DimensionMismatch(f"maps on S{f.dim} and S{g.dim}")
    slope = sum(check_blend_validity(e, DegreeParams())[0] for e in (f, g))
    n = _GRID[f.dim] if resolution is None else resolution
    n = _integer(n, "resolution", InvalidResolution)
    return _sup_distance(f, g, n, slope, _chord_bound(f, g), read)


def _sup_distance(
    f: MapExpr,
    g: MapExpr,
    n: int,
    slope: float,
    chord: float | None,
    read=None,
    kept: dict | None = None,
):
    """(sup_distance(f, g, n), read's result) with slope = L_f + L_g, from one walk of level n.

    rigorous is the smaller of the known upper bounds, chord, which is
    _chord_bound(f, g), and sampled + slope * mesh(n) where slope is
    finite, and at least sampled. `read`, g's degree pass or _min_norm,
    reads the same walk of (f, g), which reads f's kept levels (_walk).
    """
    far = []

    def pairs():
        for X, values in _walk((f, g), n, kept):
            far.append(pair_distance(*values))
            yield X, values

    walk = pairs()
    out = read(walk) if read is not None else None
    for _ in walk:  # what read left unread
        pass
    sampled = max(far)
    bounds = [sampled + slope * mesh(f.dim, n)] if math.isfinite(slope) else []
    if chord is not None:
        bounds.append(chord)
    return DistanceEstimate(sampled, n, max(sampled, min(bounds)) if bounds else None), out


def _ball_distance(
    f0: MapExpr, g: MapExpr, params: DegreeParams, bound0: float, kept: dict
) -> tuple[DistanceEstimate, DegreeResult]:
    """A ball certificate's distance from f0 to g, proven below BALL_RADIUS, and degree(g).

    bound0 is L_f, f0's blend check's bound, and kept f0's kept levels.
    g's blend check runs first, for L_g and g's structural degree. Each
    level sampled is one walk of (f0, g), which reads f0 where kept holds
    the level (_walk). There are two routes. Where f0 and g are chains of
    perturbs over a common map whose chord bound (_chord_bound) is below
    1, that bound proves the distance at any level, so the one level is
    g's degree level, which _proven_level refuses before anything is
    sampled, and g's degree pass reads its walk. Elsewhere the distance
    is searched over the levels _levels lists up to geometry.finest where
    (L_f + L_g) * mesh is below 1; where none is, DistanceTooLarge is
    raised before sampling. The search returns at the first level whose
    rigorous bound is below 1, and is refused at the first whose sampled
    distance plus (L_f + L_g) * mesh at the last level reaches 1 (_levels'
    stop rule). g's degree level P is then walked for g alone: it lies
    below every searched level. f0's degree is no perfect power, so
    2 <= |deg| <= L_f on S1 and <= L_f**2 on S2, and (L_f + L_g) *
    mesh(P) >= 1 at P = max(8, ceil(2*pi*L_g)) samples or max(8,
    ceil(pi*L_g)) bands.
    """
    dim = g.dim
    bound, sd = check_blend_validity(g, params)
    slope = bound0 + bound
    chord = _chord_bound(f0, g)
    if chord is not None and chord < BALL_RADIUS:
        n = _proven_level(bound, params, dim)
        levels, ride = [n], functools.partial(_PASSES[dim][1], resolution=n)
    else:
        budget = _levels(dim, geometry.finest(dim))
        levels, ride = [n for n in budget if slope * mesh(dim, n) < BALL_RADIUS], None
        if not levels:
            raise DistanceTooLarge(
                f"Lipschitz bounds sum to {slope:.6g}: no level up to {budget[-1]}, the last "
                "within the row budget, proves the distance"
            )
    for n in levels:
        dist, passed = _sup_distance(f0, g, n, slope, chord, ride, kept)
        if dist.rigorous < BALL_RADIUS:
            break
        floor = dist.sampled_max + slope * mesh(dim, levels[-1])
        if floor >= BALL_RADIUS:
            raise DistanceTooLarge(
                f"sampled distance {dist.sampled_max:.6f} at {n} leaves every rigorous bound "
                f"up to {levels[-1]} at {floor:.6f} or more, not below {BALL_RADIUS}; "
                "the ball argument does not apply (inconclusive)"
            )
    n = levels[0] if ride else _proven_level(bound, params, dim)
    return dist, _degree(g, n, sd, passed or raw_pass(g, n))

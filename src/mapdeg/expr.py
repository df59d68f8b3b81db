"""Expression language of continuous self-maps of S1 and S2.

An expression is an immutable AST built from a closed constructor family:
rotations, conjugation, the power maps z -> z^k, suspension to S2,
composition, iteration, normalized blends, and seeded smooth
perturbations. Every well-formed expression maps arrays of unit vectors
row-wise and carries a structural degree where one is known.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch, DomainError, ParseError, ResolutionExceeded
from .geometry import NEAR_ZERO, normalize_rows, row_norms

#: Deepest constructor nesting parse accepts. Deeper text is refused with
#: a ParseError, before the recursive parser, evaluator and renderer can
#: exhaust Python's call stack.
MAX_DEPTH = 200

#: Most node evaluations per sample point parse admits; an iterate counts
#: its inner map n times. Caps the cost of every later evaluation pass.
EVAL_BUDGET = 2**12

#: Most bits of a structural degree compose and iterate build; |degree| <= L,
#: so no level proves a larger one, and it is refused before it is built.
DEGREE_BITS = 2**20


class MapExpr:
    """Base class of map-expression AST nodes.

    Every subclass is a frozen dataclass whose init fields are its
    constructor's arguments in the order the DSL writes them. Each stores
    its integer and real fields as plain int and float (_integer, _real),
    so that render writes them as parse reads them.
    """

    _SPHERE: int | None = None

    @property
    def dim(self) -> int:
        """m for a map of S^m, by one rule for every node.

        The class constant _SPHERE where the class fixes m (1 for conj, pow
        and rot, 2 for rot3 and susp), the field m of id and antipode, else
        the first child's (compose and blend check that the second agrees).
        """
        if self._SPHERE is not None:
            return self._SPHERE
        names = _CHILDREN[type(self)]
        return getattr(self, names[0]).dim if names else self.m

    def children(self) -> tuple["MapExpr", ...]:
        return tuple([getattr(self, name) for name in _CHILDREN[type(self)]])

    def _eval(self, X: np.ndarray, at) -> np.ndarray:
        """The map's values at rows X; at(child, Y) gives a child's values at Y."""
        raise NotImplementedError

    def symbolic_degree(self) -> int | None:
        """Structural degree from the AST alone, or None for a map with a blend.

        A blend's needs its check's samples (degree.check_blend_validity):
        Blend._symbolic gives None, and this gives it every map over one.
        """
        inner = [c.symbolic_degree() for c in self.children()]
        return None if None in inner else self._symbolic(inner)

    def _symbolic(self, inner: list[int]) -> int | None:
        """The map's degree from its children's, in children() order, none of them None.

        The one set of degree rules: symbolic_degree applies it to the
        AST's degrees, and degree.check_blend_validity to degrees that give
        each checked blend its children's.
        """
        raise NotImplementedError

    def lipschitz_bound(self) -> float | None:
        """Upper bound on the map's chordal Lipschitz constant, if known.

        The AST's bound: a true upper bound, never an estimate. A map with
        a blend has none here: a blend's needs samples, which the degree
        module takes (degree.check_blend_validity). That check gives every
        map the bound the degree, sup distances and ball certificates use:
        this one for a map without a blend, one from its samples else.
        """
        inner = [c.lipschitz_bound() for c in self.children()]
        return None if None in inner else self._bound(inner)

    def _bound(self, inner: list[float]) -> float | None:
        """The map's bound from its children's, in children() order, none of them None.

        The one set of composition rules: lipschitz_bound applies it to
        the AST's bounds, and degree.check_blend_validity, in the same
        walk as _symbolic, to bounds that give each blend its sampled one.
        """
        raise NotImplementedError

    def render(self) -> str:
        """Canonical s-expression text; parse(e.render()) rebuilds an equal AST.

        Built on the first call (_render) and kept in the node's __dict__,
        outside its fields: they never change, so neither does the text,
        which takes no part in ==, hash or repr.
        """
        text = self.__dict__.get("_text")
        if text is None:
            text = self.__dict__["_text"] = self._render()
        return text

    def _render(self) -> str:
        """render's text, built from the node's name and fields."""
        words = [_NAMES[type(self)]]
        for a in [getattr(self, name) for name in _FIELDS[type(self)]]:
            if isinstance(a, MapExpr):
                words.append(a.render())
            elif isinstance(a, tuple):  # the rot3 axis
                words.extend(map(repr, a))
            else:
                words.append(repr(a))
        return f"({' '.join(words)})"


def _integer(value, what: str, error: type[Exception] = DomainError) -> int:
    """value as a plain int, read through operator.index; `error` where it has none."""
    try:
        return operator.index(value)  # an exact int since Python 3.10
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _real(value, what: str) -> float:
    """value as a plain float where it is a real number (numbers.Real); DomainError else."""
    if type(value) is not float and not isinstance(value, numbers.Real):  # the first is faster
        raise DomainError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _sphere(m) -> int:
    """m as a plain int where it is 1 or 2; DomainError else."""
    m = _integer(m, "sphere dimension")
    if m not in (1, 2):
        raise DomainError(f"sphere dimension must be 1 or 2, got {m}")
    return m


def _sphere_rows(X, m: int, what: str) -> np.ndarray:
    """X as an array where it is (n, m + 1), rows of S^m for `what`; DimensionMismatch else."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != m + 1:
        raise DimensionMismatch(f"expected shape (n, {m + 1}) for an S{m} {what}, got {X.shape}")
    return X


def _check_bits(e: MapExpr, bits: int) -> None:
    """Refuse e, whose structural degree has more than `bits` bits, past DEGREE_BITS."""
    if bits > DEGREE_BITS:
        raise ResolutionExceeded(
            f"degree of {e.render()} has more than 2**{DEGREE_BITS.bit_length() - 1} bits"
        )


@dataclass(frozen=True)
class Id(MapExpr):
    """Identity map of S^m."""

    m: int

    def __post_init__(self):
        self.__dict__["m"] = _sphere(self.m)

    def _eval(self, X, at):
        return X

    def _symbolic(self, inner):
        return 1

    def _bound(self, inner):
        return 1.0


@dataclass(frozen=True)
class Antipode(MapExpr):
    """x -> -x on S^m."""

    m: int

    def __post_init__(self):
        self.__dict__["m"] = _sphere(self.m)

    def _eval(self, X, at):
        return -X

    def _symbolic(self, inner):
        # (-1)^(m+1): a rotation on the circle, orientation-reversing on S2.
        return 1 if self.m == 1 else -1

    def _bound(self, inner):
        return 1.0


@dataclass(frozen=True)
class Conj(MapExpr):
    """Complex conjugation (a, b) -> (a, -b) on S1."""

    _SPHERE = 1

    def _eval(self, X, at):
        return X * np.array([1.0, -1.0])

    def _symbolic(self, inner):
        return -1

    def _bound(self, inner):
        return 1.0


@dataclass(frozen=True)
class Pow(MapExpr):
    """z -> z^k on S1, i.e. angle -> k * angle."""

    k: int
    _SPHERE = 1

    def __post_init__(self):
        self.__dict__["k"] = _integer(self.k, "exponent")
        if abs(self.k) > 2**53:  # floats stop holding k * angle exactly
            raise DomainError("exponent must satisfy |k| <= 2**53")

    def _eval(self, X, at):
        # + 0.0 turns a -0.0 angle into 0.0 and leaves every other one
        # alone: (pow 0) is then exactly constant, not (1, +-0.0)
        theta = self.k * np.arctan2(X[:, 1], X[:, 0]) + 0.0
        return np.column_stack([np.cos(theta), np.sin(theta)])

    def _symbolic(self, inner):
        return self.k

    def _bound(self, inner):
        return float(abs(self.k))


@dataclass(frozen=True)
class Rot(MapExpr):
    """Rotation of S1 by alpha radians."""

    alpha: float
    _SPHERE = 1

    def __post_init__(self):
        self.__dict__["alpha"] = _real(self.alpha, "rotation angle")
        if not math.isfinite(self.alpha):
            raise DomainError(f"rotation angle must be finite, got {self.alpha}")

    def _eval(self, X, at):
        c, s = math.cos(self.alpha), math.sin(self.alpha)
        return np.column_stack([c * X[:, 0] - s * X[:, 1], s * X[:, 0] + c * X[:, 1]])

    def _symbolic(self, inner):
        return 1

    def _bound(self, inner):
        return 1.0


@dataclass(frozen=True)
class Rot3(MapExpr):
    """Rotation of S2 by alpha radians about a fixed axis."""

    axis: tuple[float, float, float]
    alpha: float
    _SPHERE = 2

    def __post_init__(self):
        try:
            axis = tuple(_real(c, "rotation axis entry") for c in self.axis)
        except TypeError:  # not iterable
            axis = ()
        if len(axis) != 3:
            raise DomainError(f"rotation axis must be three real numbers, got {self.axis!r}")
        alpha = self.__dict__["alpha"] = _real(self.alpha, "rotation angle")
        if not all(map(math.isfinite, (*axis, alpha))):
            raise DomainError(f"rotation axis and angle must be finite, got {axis}, {alpha}")
        unit = axis
        if math.isinf(sum(c * c for c in axis)):
            # the squares overflow: divide by the largest entry first
            big = max(abs(c) for c in axis)
            unit = tuple(c / big for c in axis)
        norm = math.sqrt(sum(c * c for c in unit))
        if norm <= NEAR_ZERO:
            raise DomainError("rotation axis is numerically zero")
        if abs(norm - 1.0) > 1e-12 or unit is not axis:
            # normalize once; keep already-unit axes bit-identical so that
            # render -> parse round trips reproduce the same AST
            unit = tuple(c / norm for c in unit)
        self.__dict__["axis"] = unit

    def _eval(self, X, at):
        u = np.asarray(self.axis)
        c, s = math.cos(self.alpha), math.sin(self.alpha)
        cross = np.cross(np.broadcast_to(u, X.shape), X)
        dot = X @ u
        return c * X + s * cross + (1.0 - c) * dot[:, None] * u

    def _symbolic(self, inner):
        return 1

    def _bound(self, inner):
        return 1.0


@dataclass(frozen=True)
class Susp(MapExpr):
    """Suspension of a circle map to a sphere map.

    Writing a point of S2 as (sin t * w, cos t) with w on S1 and
    t in [0, pi], the suspension sends it to (sin t * f(w), cos t).
    Both poles are fixed; continuity there follows from sin t -> 0.
    """

    inner: MapExpr
    _SPHERE = 2

    def __post_init__(self):
        if self.inner.dim != 1:
            raise DimensionMismatch("susp needs an S1 map inside")

    def _eval(self, X, at):
        s = np.hypot(X[:, 0], X[:, 1])  # sin of the polar angle, >= 0
        safe = s > 1e-15
        w = np.where(
            safe[:, None], X[:, :2] / np.where(safe, s, 1.0)[:, None], (1.0, 0.0)
        )
        fw = at(self.inner, w)
        return np.column_stack([s[:, None] * fw, X[:, 2]])

    def _symbolic(self, inner):
        return inner[0]

    def _bound(self, inner):
        return max(1.0, inner[0])


@dataclass(frozen=True)
class Compose(MapExpr):
    """outer after inner: x -> outer(inner(x))."""

    outer: MapExpr
    inner: MapExpr

    def __post_init__(self):
        if self.outer.dim != self.inner.dim:
            raise DimensionMismatch(
                f"compose needs equal dimensions, got S{self.outer.dim} and S{self.inner.dim}"
            )

    def _eval(self, X, at):
        return at(self.outer, at(self.inner, X))

    def _symbolic(self, inner):
        a, b = inner
        _check_bits(self, (abs(a).bit_length() - 1) + (abs(b).bit_length() - 1))
        return a * b

    def _bound(self, inner):
        return inner[0] * inner[1]


@dataclass(frozen=True)
class Iterate(MapExpr):
    """n-fold composition of a map with itself; n = 0 is the identity.

    A structural degree d**n of more than DEGREE_BITS bits is refused
    (ResolutionExceeded) before it is built, as a compose's is. A parsed
    map's has at most 53 * EVAL_BUDGET bits.
    """

    n: int
    inner: MapExpr

    def __post_init__(self):
        self.__dict__["n"] = _integer(self.n, "iteration count")
        if self.n < 0:
            raise DomainError(f"iteration count must be >= 0, got {self.n}")

    def _eval(self, X, at):
        for _ in range(self.n):
            X = at(self.inner, X)
        return X

    def _symbolic(self, inner):
        (d,) = inner
        _check_bits(self, self.n * (abs(d).bit_length() - 1))
        return d**self.n

    def _bound(self, inner):
        try:
            return inner[0] ** self.n
        except OverflowError:  # saturate: the degree methods refuse inf
            return math.inf


@dataclass(frozen=True)
class Blend(MapExpr):
    """Normalized convex combination x -> ((1-t) f(x) + t g(x)) / |...|.

    A fixed-t slice of the straight-line homotopy between f and g.
    Evaluation raises NearZeroVector when the combination passes too
    close to the origin, which means this slice is not a sphere map.
    """

    t: float
    f: MapExpr
    g: MapExpr

    def __post_init__(self):
        self.__dict__["t"] = _real(self.t, "blend parameter")
        if not 0.0 <= self.t <= 1.0:
            raise DomainError(f"blend parameter must lie in [0, 1], got {self.t}")
        if self.f.dim != self.g.dim:
            raise DimensionMismatch(
                f"blend needs equal dimensions, got S{self.f.dim} and S{self.g.dim}"
            )

    def _eval(self, X, at):
        raw = (1.0 - self.t) * at(self.f, X) + self.t * at(self.g, X)
        return normalize_rows(raw)

    def _symbolic(self, inner):
        # validity of the slice is a global numeric condition the AST
        # cannot see; once the degree module's check proves it, the blend
        # is homotopic to both children and takes their common degree
        return None

    def _bound(self, inner):
        return None


class PerturbationField:
    """Deterministic smooth vector field on R^(m+1) with |V(x)| <= M <= 1.

    Each component is a low-order trigonometric polynomial of the ambient
    coordinates with seed-derived integer frequencies and coefficients.
    Component j, a sum of sines, is at most a_j, the absolute sum of its
    coefficients, at every point, not only at sample nodes, so
    |V(x)|_2 <= M = |a|_2 (sup_bound). Dividing all coefficients by
    their total absolute sum makes the a_j sum to 1, so
    1/sqrt(m+1) <= M <= 1. A perturbation's Lipschitz bound and its
    distance from its inner map rest on M (Perturb._bound,
    degree._chord_bound), without sampling.

    A call takes an (n, m + 1) array, as eval_array does
    (DimensionMismatch else), runs on the calling thread and returns a
    fresh array, one formula over the rows it is given; each row's
    arithmetic is the same in any slice of rows, so a walk's blocks (at
    most geometry.BLOCK_ROWS rows) keep its temporaries small. Its first
    contraction is one matrix product over the coordinates in the order
    [0, 2, 1] on S2 (the order einsum sums them in); the integer
    frequencies make every product exact, so only that order fixes the
    bits, and they do not depend on the BLAS thread count.
    """

    TERMS = 6
    MAX_FREQ = 2

    def __init__(self, seed: int, dim: int):
        self.seed, self.dim = _integer(seed, "seed"), _sphere(dim)
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {seed}")
        ncomp = self.dim + 1
        rng = np.random.default_rng(self.seed)
        self._freq = rng.integers(
            -self.MAX_FREQ, self.MAX_FREQ + 1, size=(ncomp, self.TERMS, ncomp)
        ).astype(float)
        self._phase = rng.uniform(0.0, math.tau, size=(ncomp, self.TERMS))
        coef = rng.uniform(-1.0, 1.0, size=(ncomp, self.TERMS))
        self._coef = coef / np.abs(coef).sum()
        self._order = [0, 2, 1] if dim == 2 else [0, 1]
        self._freq_matrix = self._freq.reshape(-1, ncomp).T[self._order]
        size = np.abs(self._coef)
        grad = (size[:, :, None] * np.abs(self._freq)).sum(axis=1)
        rows, sums = row_norms(grad), size.sum(axis=1)
        # numpy's formula for the norm of a vector, as np.linalg.norm takes it
        self._lipschitz = math.sqrt(rows.dot(rows))
        self._sup = math.sqrt(sums.dot(sums))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        args = _sphere_rows(X, self.dim, "field")[:, self._order] @ self._freq_matrix
        args = args.reshape(-1, self.dim + 1, self.TERMS)
        args += self._phase
        np.sin(args, out=args)
        return np.einsum("jt,njt->nj", self._coef, args)

    def lipschitz_bound(self) -> float:
        """Bound on the field's Lipschitz constant, computed once at construction."""
        return self._lipschitz

    def sup_bound(self) -> float:
        """M, a bound on |V(x)|_2 over all of R^(m+1), computed once at construction."""
        return self._sup


@dataclass(frozen=True)
class Perturb(MapExpr):
    """x -> (f(x) + eps * V_seed(x)) / |...| for a bounded field V.

    Requires eps < 1 so the pre-normalization norm stays at or above
    1 - eps * M > 0, with M <= 1 the field's sup_bound, which keeps the
    perturbed map well defined and degree-preserving.
    """

    seed: int
    eps: float
    inner: MapExpr
    _field: PerturbationField = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.__dict__["seed"] = _integer(self.seed, "seed")
        self.__dict__["eps"] = _real(self.eps, "perturbation size")
        if not 0.0 <= self.eps < 1.0:
            raise DomainError(f"perturbation size must lie in [0, 1), got {self.eps}")
        self.__dict__["_field"] = PerturbationField(self.seed, self.inner.dim)

    def _eval(self, X, at):
        return normalize_rows(at(self.inner, X) + self.eps * self._field(X))

    def _symbolic(self, inner):
        # the straight line from f(x) to f(x) + eps*V(x) stays at norm
        # >= 1 - eps*M > 0, so normalizing it is a homotopy: degree unchanged
        return inner[0]

    def _bound(self, inner):
        # |f(x) + eps V(x)| >= 1 - eps M, and normalizing is 1/r-Lipschitz
        # outside the ball of radius r. M can round to 1 + ulp, so a floor
        # at or below 0 gives inf, which every degree method refuses
        floor = 1.0 - self.eps * self._field.sup_bound()
        if not floor > 0.0:
            return math.inf
        return (inner[0] + self.eps * self._field.lipschitz_bound()) / floor


class _Reading:
    """The `at` of eval_array: e's values at Y, read from `known` by e's text where Y is X.

    A class rather than a closure: a recursive closure is a reference
    cycle, which would keep X and the known arrays alive until the next
    garbage collection.
    """

    def __init__(self, X: np.ndarray, known: dict):
        self.X, self.known = X, known

    def __call__(self, e: MapExpr, Y: np.ndarray) -> np.ndarray:
        if Y is self.X and (values := self.known.get(e.render())) is not None:
            return values
        return e._eval(Y, self)


def eval_array(e: MapExpr, X: np.ndarray, *, known: dict | None = None) -> np.ndarray:
    """Evaluate an expression rowwise on an (n, dim+1) array of unit rows.

    `known` maps canonical texts (render()) to values at X. Where a node
    of e whose text it holds is applied to X itself, its values are read
    from there instead of evaluated: texts decide, so (rot 0.0) never
    reads (rot -0.0)'s. The degree module's walk shares the maps it holds
    this way (degree._walk). A map that is the identity on its input,
    such as (id 2) or (iterate 0 E), returns a copy of X, never X itself.
    """
    X = _sphere_rows(np.asarray(X, dtype=float), e.dim, "map")
    Y = _Reading(X, known or {})(e, X)
    return Y.copy() if Y is X else Y


# --- parsing ---------------------------------------------------------------

#: A token is a parenthesis or a run of anything but whitespace and parentheses.
_TOKEN = re.compile(r"[()]|[^ \t\r\n()]+")


class _Parser:
    """Recursive descent over the tokens, read lazily with one of lookahead."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.finditer(text)
        self.next = next(self.tokens, None)
        self.depth = 0

    def _fail(self, message: str, token: re.Match | None = None):
        # no token points just past the end of input
        offset = len(self.text) if token is None else token.start()
        line = self.text.count("\n", 0, offset) + 1
        column = offset - self.text.rfind("\n", 0, offset)
        raise ParseError(message, line, column)

    def take(self, what: str) -> re.Match:
        tok = self.next
        if tok is None:
            self._fail(f"unexpected end of input, expected {what}")
        self.next = next(self.tokens, None)
        return tok

    def expect(self, literal: str) -> re.Match:
        tok = self.take(f"'{literal}'")
        if tok[0] != literal:
            self._fail(f"expected '{literal}', got '{tok[0]}'", tok)
        return tok

    def atom(self, what: str) -> re.Match:
        tok = self.take(what)
        if tok[0] in "()":
            self._fail(f"expected {what}, got '{tok[0]}'", tok)
        return tok

    def int_atom(self, what: str, lo: int | None = None, hi: int | None = None) -> int:
        """A base-10 integer with lo <= value < hi; None leaves a side open."""
        tok = self.atom(what)
        try:
            value = int(tok[0], 10)
            fits = (lo is None or lo <= value) and (hi is None or value < hi)
        except ValueError:
            fits = False
        if not fits:
            self._fail(f"expected {what}, got '{tok[0]}'", tok)
        return value

    def float_atom(self, what: str) -> float:
        tok = self.atom(what)
        try:
            value = float(tok[0])
        except ValueError:
            self._fail(f"expected {what}, got '{tok[0]}'", tok)
        if not math.isfinite(value):
            self._fail(f"expected {what}, got '{tok[0]}', which is not a finite float", tok)
        return value

    def dim_atom(self) -> int:
        tok = self.atom("a dimension (1 or 2)")
        if tok[0] not in ("1", "2"):
            self._fail(f"dimension must be 1 or 2, got '{tok[0]}'", tok)
        return int(tok[0])

    def axis(self) -> tuple[float, float, float]:
        return tuple(self.float_atom(f"axis {c}") for c in "xyz")

    def expr(self) -> MapExpr:
        opening = self.expect("(")
        if self.depth == MAX_DEPTH:
            self._fail(f"nesting deeper than {MAX_DEPTH} levels", opening)
        self.depth += 1
        head = self.atom("a constructor name")
        if head[0] not in _GRAMMAR:
            self._fail(f"unknown constructor '{head[0]}'", head)
        cls, readers = _GRAMMAR[head[0]]
        node = cls(*[read(self, *args) for read, *args in readers])
        self.expect(")")
        self.depth -= 1
        return node


_INT, _FLOAT, _DIM, _EXPR = _Parser.int_atom, _Parser.float_atom, _Parser.dim_atom, _Parser.expr

#: Each constructor's node class and the readers of its arguments, in
#: field order, as (parser method, its arguments). parse reads the text
#: through it; MapExpr.render writes the name and the fields back.
_GRAMMAR = {
    "id": (Id, [(_DIM,)]),
    "antipode": (Antipode, [(_DIM,)]),
    "conj": (Conj, []),
    "pow": (Pow, [(_INT, "an integer exponent")]),
    "rot": (Rot, [(_FLOAT, "an angle")]),
    "rot3": (Rot3, [(_Parser.axis,), (_FLOAT, "an angle")]),
    "susp": (Susp, [(_EXPR,)]),
    "compose": (Compose, [(_EXPR,), (_EXPR,)]),
    "iterate": (Iterate, [(_INT, "a nonnegative iteration count", 0), (_EXPR,)]),
    "blend": (Blend, [(_FLOAT, "a blend parameter"), (_EXPR,), (_EXPR,)]),
    "perturb": (
        Perturb,
        [(_INT, "a 64-bit seed", 0, 2**64), (_FLOAT, "a perturbation size"), (_EXPR,)],
    ),
}
_NAMES = {cls: name for name, (cls, _) in _GRAMMAR.items()}
# looked up once per class: dataclasses.fields is slow on the parse path
_FIELDS = {cls: [f.name for f in fields(cls) if f.init] for cls in _NAMES}
_CHILDREN = {  # the fields the grammar reads as expressions
    cls: [name for name, (read, *_) in zip(_FIELDS[cls], readers) if read is _EXPR]
    for cls, readers in _GRAMMAR.values()
}


def _evaluations(e: MapExpr) -> int:
    """Node evaluations per sample point, saturated at EVAL_BUDGET + 1."""
    count = sum(map(_evaluations, e.children()))
    if isinstance(e, Iterate):  # (iterate 0 E) still reads E's symbolic degree
        count *= max(e.n, 1)
    return min(1 + count, EVAL_BUDGET + 1)


def parse(text: str) -> MapExpr:
    """Parse one s-expression into a MapExpr.

    Dimension and domain checks run during construction, so this raises
    ParseError, DimensionMismatch, or DomainError on bad input. A map
    that needs more than EVAL_BUDGET node evaluations per sample point
    is refused with a DomainError before any degree work can start.
    """
    parser = _Parser(text)
    if parser.next is None:
        parser._fail("empty input")
    node = parser.expr()
    trailing = parser.next
    if trailing is not None:
        parser._fail(f"trailing input '{trailing[0]}'", trailing)
    if _evaluations(node) > EVAL_BUDGET:
        raise DomainError(
            f"map needs more than {EVAL_BUDGET} node evaluations per sample point"
        )
    return node

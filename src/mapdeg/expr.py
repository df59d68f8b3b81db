"""Expression language of continuous self-maps of S1 and S2.

An expression is an immutable AST built from a closed constructor family:
rotations, conjugation, the power maps z -> z^k, suspension to S2,
composition, iteration, normalized blends, and seeded smooth
perturbations. Every well-formed expression maps arrays of unit vectors
row-wise and carries a structural degree where one is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, ParseError
from .geometry import NEAR_ZERO, normalize_rows

_TWO_PI = 2.0 * math.pi

#: Deepest constructor nesting parse accepts. Deeper text is refused with
#: a ParseError, before the recursive parser, evaluator and renderer can
#: exhaust Python's call stack.
MAX_DEPTH = 200


class MapExpr:
    """Base class of map-expression AST nodes."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def children(self) -> tuple["MapExpr", ...]:
        return ()

    def _eval(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def symbolic_degree(self) -> int | None:
        """Structural degree, or None where only numerics can answer."""
        raise NotImplementedError

    def lipschitz_bound(self) -> float | None:
        """Upper bound on the map's chordal Lipschitz constant, if known.

        Used to floor the starting resolution of the numeric degree
        methods so that fast-wrapping maps cannot alias to a plausible
        but wrong integer.
        """
        raise NotImplementedError

    def render(self) -> str:
        """Canonical s-expression text; parse(e.render()) rebuilds an equal AST."""
        raise NotImplementedError


def _check_dim_arg(m: int) -> None:
    if m not in (1, 2):
        raise DomainError(f"sphere dimension must be 1 or 2, got {m}")


@dataclass(frozen=True)
class Id(MapExpr):
    """Identity map of S^m."""

    m: int

    def __post_init__(self):
        _check_dim_arg(self.m)

    @property
    def dim(self) -> int:
        return self.m

    def _eval(self, X):
        return X

    def symbolic_degree(self):
        return 1

    def lipschitz_bound(self):
        return 1.0

    def render(self):
        return f"(id {self.m})"


@dataclass(frozen=True)
class Antipode(MapExpr):
    """x -> -x on S^m."""

    m: int

    def __post_init__(self):
        _check_dim_arg(self.m)

    @property
    def dim(self) -> int:
        return self.m

    def _eval(self, X):
        return -X

    def symbolic_degree(self):
        # (-1)^(m+1): a rotation on the circle, orientation-reversing on S2.
        return 1 if self.m == 1 else -1

    def lipschitz_bound(self):
        return 1.0

    def render(self):
        return f"(antipode {self.m})"


@dataclass(frozen=True)
class Conj(MapExpr):
    """Complex conjugation (a, b) -> (a, -b) on S1."""

    @property
    def dim(self) -> int:
        return 1

    def _eval(self, X):
        return X * np.array([1.0, -1.0])

    def symbolic_degree(self):
        return -1

    def lipschitz_bound(self):
        return 1.0

    def render(self):
        return "(conj)"


@dataclass(frozen=True)
class Pow(MapExpr):
    """z -> z^k on S1, i.e. angle -> k * angle."""

    k: int

    @property
    def dim(self) -> int:
        return 1

    def _eval(self, X):
        theta = self.k * np.arctan2(X[:, 1], X[:, 0])
        return np.column_stack([np.cos(theta), np.sin(theta)])

    def symbolic_degree(self):
        return self.k

    def lipschitz_bound(self):
        return float(abs(self.k))

    def render(self):
        return f"(pow {self.k})"


@dataclass(frozen=True)
class Rot(MapExpr):
    """Rotation of S1 by alpha radians."""

    alpha: float

    @property
    def dim(self) -> int:
        return 1

    def _eval(self, X):
        c, s = math.cos(self.alpha), math.sin(self.alpha)
        return np.column_stack([c * X[:, 0] - s * X[:, 1], s * X[:, 0] + c * X[:, 1]])

    def symbolic_degree(self):
        return 1

    def lipschitz_bound(self):
        return 1.0

    def render(self):
        return f"(rot {self.alpha!r})"


@dataclass(frozen=True)
class Rot3(MapExpr):
    """Rotation of S2 by alpha radians about a fixed axis."""

    axis: tuple[float, float, float]
    alpha: float

    def __post_init__(self):
        norm = math.sqrt(sum(c * c for c in self.axis))
        if norm <= NEAR_ZERO:
            raise DomainError("rotation axis is numerically zero")
        if abs(norm - 1.0) > 1e-12:
            # normalize once; keep already-unit axes bit-identical so that
            # render -> parse round trips reproduce the same AST
            object.__setattr__(
                self, "axis", tuple(float(c / norm) for c in self.axis)
            )

    @property
    def dim(self) -> int:
        return 2

    def _eval(self, X):
        u = np.asarray(self.axis)
        c, s = math.cos(self.alpha), math.sin(self.alpha)
        cross = np.cross(np.broadcast_to(u, X.shape), X)
        dot = X @ u
        return c * X + s * cross + (1.0 - c) * dot[:, None] * u

    def symbolic_degree(self):
        return 1

    def lipschitz_bound(self):
        return 1.0

    def render(self):
        x, y, z = self.axis
        return f"(rot3 {x!r} {y!r} {z!r} {self.alpha!r})"


@dataclass(frozen=True)
class Susp(MapExpr):
    """Suspension of a circle map to a sphere map.

    Writing a point of S2 as (sin t * w, cos t) with w on S1 and
    t in [0, pi], the suspension sends it to (sin t * f(w), cos t).
    Both poles are fixed; continuity there follows from sin t -> 0.
    """

    inner: MapExpr

    def __post_init__(self):
        if self.inner.dim != 1:
            raise DimensionMismatch("susp needs an S1 map inside")

    @property
    def dim(self) -> int:
        return 2

    def children(self):
        return (self.inner,)

    def _eval(self, X):
        s = np.hypot(X[:, 0], X[:, 1])  # sin of the polar angle, >= 0
        safe = s > 1e-15
        w = np.where(
            safe[:, None], X[:, :2] / np.where(safe, s, 1.0)[:, None], (1.0, 0.0)
        )
        fw = self.inner._eval(w)
        return np.column_stack([s[:, None] * fw, X[:, 2]])

    def symbolic_degree(self):
        return self.inner.symbolic_degree()

    def lipschitz_bound(self):
        b = self.inner.lipschitz_bound()
        return None if b is None else max(1.0, b)

    def render(self):
        return f"(susp {self.inner.render()})"


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

    @property
    def dim(self) -> int:
        return self.outer.dim

    def children(self):
        return (self.outer, self.inner)

    def _eval(self, X):
        return self.outer._eval(self.inner._eval(X))

    def symbolic_degree(self):
        a, b = self.outer.symbolic_degree(), self.inner.symbolic_degree()
        return None if a is None or b is None else a * b

    def lipschitz_bound(self):
        a, b = self.outer.lipschitz_bound(), self.inner.lipschitz_bound()
        return None if a is None or b is None else a * b

    def render(self):
        return f"(compose {self.outer.render()} {self.inner.render()})"


@dataclass(frozen=True)
class Iterate(MapExpr):
    """n-fold composition of a map with itself; n = 0 is the identity."""

    n: int
    inner: MapExpr

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"iteration count must be >= 0, got {self.n}")

    @property
    def dim(self) -> int:
        return self.inner.dim

    def children(self):
        return (self.inner,)

    def _eval(self, X):
        for _ in range(self.n):
            X = self.inner._eval(X)
        return X

    def symbolic_degree(self):
        d = self.inner.symbolic_degree()
        return None if d is None else d**self.n

    def lipschitz_bound(self):
        b = self.inner.lipschitz_bound()
        if b is None:
            return None
        try:
            return b**self.n
        except OverflowError:  # saturate: the degree methods refuse inf
            return math.inf

    def render(self):
        return f"(iterate {self.n} {self.inner.render()})"


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
        if not 0.0 <= self.t <= 1.0:
            raise DomainError(f"blend parameter must lie in [0, 1], got {self.t}")
        if self.f.dim != self.g.dim:
            raise DimensionMismatch(
                f"blend needs equal dimensions, got S{self.f.dim} and S{self.g.dim}"
            )

    @property
    def dim(self) -> int:
        return self.f.dim

    def children(self):
        return (self.f, self.g)

    def _eval(self, X):
        raw = (1.0 - self.t) * self.f._eval(X) + self.t * self.g._eval(X)
        return normalize_rows(raw)

    def symbolic_degree(self):
        # validity of the slice is a global numeric condition the AST
        # cannot see; the degree module resolves it with an explicit check
        return None

    def lipschitz_bound(self):
        return None

    def render(self):
        return f"(blend {self.t!r} {self.f.render()} {self.g.render()})"


class PerturbationField:
    """Deterministic smooth vector field on R^(m+1) with |V(x)| <= 1.

    Each component is a low-order trigonometric polynomial of the ambient
    coordinates with seed-derived integer frequencies and coefficients.
    Dividing all coefficients by their total absolute sum bounds the
    field's Euclidean norm by 1 everywhere.
    """

    TERMS = 6
    MAX_FREQ = 2

    def __init__(self, seed: int, dim: int):
        if dim not in (1, 2):
            raise DomainError(f"dim must be 1 or 2, got {dim}")
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {seed}")
        self.seed = int(seed)
        self.dim = dim
        ncomp = dim + 1
        rng = np.random.default_rng(self.seed)
        self._freq = rng.integers(
            -self.MAX_FREQ, self.MAX_FREQ + 1, size=(ncomp, self.TERMS, ncomp)
        ).astype(float)
        self._phase = rng.uniform(0.0, _TWO_PI, size=(ncomp, self.TERMS))
        coef = rng.uniform(-1.0, 1.0, size=(ncomp, self.TERMS))
        self._coef = coef / np.abs(coef).sum()

    def __call__(self, X: np.ndarray) -> np.ndarray:
        args = np.einsum("jtk,nk->njt", self._freq, X) + self._phase
        return np.einsum("jt,njt->nj", self._coef, np.sin(args))

    def lipschitz_bound(self) -> float:
        grad = (np.abs(self._coef)[:, :, None] * np.abs(self._freq)).sum(axis=1)
        return float(np.linalg.norm(np.linalg.norm(grad, axis=1)))


@dataclass(frozen=True)
class Perturb(MapExpr):
    """x -> (f(x) + eps * V_seed(x)) / |...| for a bounded field V.

    Requires eps < 1 so the pre-normalization norm stays >= 1 - eps > 0,
    which keeps the perturbed map well defined and degree-preserving.
    """

    seed: int
    eps: float
    inner: MapExpr
    _field: PerturbationField = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.eps < 1.0:
            raise DomainError(f"perturbation size must lie in [0, 1), got {self.eps}")
        object.__setattr__(
            self, "_field", PerturbationField(self.seed, self.inner.dim)
        )

    @property
    def dim(self) -> int:
        return self.inner.dim

    def children(self):
        return (self.inner,)

    def _eval(self, X):
        return normalize_rows(self.inner._eval(X) + self.eps * self._field(X))

    def symbolic_degree(self):
        # the straight line from f(x) to f(x) + eps*V(x) stays at norm
        # >= 1 - eps > 0, so normalizing it is a homotopy: degree unchanged
        return self.inner.symbolic_degree()

    def lipschitz_bound(self):
        b = self.inner.lipschitz_bound()
        if b is None:
            return None
        return (b + self.eps * self._field.lipschitz_bound()) / (1.0 - self.eps)

    def render(self):
        return f"(perturb {self.seed} {self.eps!r} {self.inner.render()})"


def walk(e: MapExpr):
    """Yield e and all of its sub-expressions, depth first."""
    yield e
    for child in e.children():
        yield from walk(child)


def eval_array(e: MapExpr, X: np.ndarray) -> np.ndarray:
    """Evaluate an expression rowwise on an (n, dim+1) array of unit rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != e.dim + 1:
        raise DimensionMismatch(
            f"expected shape (n, {e.dim + 1}) for an S{e.dim} map, got {X.shape}"
        )
    return e._eval(X)


# --- parsing ---------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c in "()":
            tokens.append(_Token(c, line, col))
            col += 1
            i += 1
        else:
            start, start_col = i, col
            while i < len(text) and text[i] not in " \t\r\n()":
                i += 1
                col += 1
            tokens.append(_Token(text[start:i], line, start_col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text
        self.depth = 0

    def _fail(self, message: str, token: _Token | None = None):
        if token is None:
            # point just past the end of input
            last_line = self.text.count("\n") + 1
            last_col = len(self.text) - (self.text.rfind("\n") + 1) + 1
            raise ParseError(message, last_line, last_col)
        raise ParseError(message, token.line, token.column)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None:
            self._fail(f"unexpected end of input, expected {what}")
        self.pos += 1
        return tok

    def expect(self, literal: str):
        tok = self.take(f"'{literal}'")
        if tok.text != literal:
            self._fail(f"expected '{literal}', got '{tok.text}'", tok)

    def atom(self, what: str) -> _Token:
        tok = self.take(what)
        if tok.text in "()":
            self._fail(f"expected {what}, got '{tok.text}'", tok)
        return tok

    def int_atom(self, what: str) -> int:
        tok = self.atom(what)
        try:
            return int(tok.text, 10)
        except ValueError:
            self._fail(f"expected {what}, got '{tok.text}'", tok)

    def uint_atom(self, what: str, limit: int | None = None) -> int:
        tok = self.atom(what)
        try:
            value = int(tok.text, 10)
        except ValueError:
            value = -1
        if value < 0 or (limit is not None and value >= limit):
            self._fail(f"expected {what}, got '{tok.text}'", tok)
        return value

    def float_atom(self, what: str) -> float:
        tok = self.atom(what)
        try:
            value = float(tok.text)
        except ValueError:
            self._fail(f"expected {what}, got '{tok.text}'", tok)
        if not math.isfinite(value):
            self._fail(f"expected a finite {what}, got '{tok.text}'", tok)
        return value

    def dim_atom(self) -> int:
        tok = self.atom("a dimension (1 or 2)")
        if tok.text not in ("1", "2"):
            self._fail(f"dimension must be 1 or 2, got '{tok.text}'", tok)
        return int(tok.text)

    def expr(self) -> MapExpr:
        self.expect("(")
        if self.depth == MAX_DEPTH:
            self._fail(f"nesting deeper than {MAX_DEPTH} levels", self.tokens[self.pos - 1])
        self.depth += 1
        head = self.atom("a constructor name")
        node = self._dispatch(head)
        self.expect(")")
        self.depth -= 1
        return node

    def _dispatch(self, head: _Token) -> MapExpr:
        name = head.text
        if name == "id":
            return Id(self.dim_atom())
        if name == "antipode":
            return Antipode(self.dim_atom())
        if name == "conj":
            return Conj()
        if name == "pow":
            return Pow(self.int_atom("an integer exponent"))
        if name == "rot":
            return Rot(self.float_atom("an angle"))
        if name == "rot3":
            x = self.float_atom("axis x")
            y = self.float_atom("axis y")
            z = self.float_atom("axis z")
            alpha = self.float_atom("an angle")
            return Rot3((x, y, z), alpha)
        if name == "susp":
            return Susp(self.expr())
        if name == "compose":
            return Compose(self.expr(), self.expr())
        if name == "iterate":
            n = self.uint_atom("a nonnegative iteration count")
            return Iterate(n, self.expr())
        if name == "blend":
            t = self.float_atom("a blend parameter")
            return Blend(t, self.expr(), self.expr())
        if name == "perturb":
            seed = self.uint_atom("a 64-bit seed", limit=2**64)
            eps = self.float_atom("a perturbation size")
            return Perturb(seed, eps, self.expr())
        self._fail(f"unknown constructor '{name}'", head)


def parse(text: str) -> MapExpr:
    """Parse one s-expression into a MapExpr.

    Dimension and domain checks run during construction, so this raises
    ParseError, DimensionMismatch, or DomainError on bad input.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, text)
    if parser.peek() is None:
        parser._fail("empty input")
    node = parser.expr()
    trailing = parser.peek()
    if trailing is not None:
        parser._fail(f"trailing input '{trailing.text}'", trailing)
    return node

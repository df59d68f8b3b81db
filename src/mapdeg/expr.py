"""Expression language of continuous self-maps of S1 and S2.

An expression is an immutable AST built from a closed constructor family:
rotations, conjugation, the power maps z -> z^k, suspension to S2,
composition, iteration, normalized blends, and seeded smooth
perturbations. Every well-formed expression maps arrays of unit vectors
row-wise and carries a structural degree where one is known.
"""

from __future__ import annotations

import math
import os
import re
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch, DomainError, ParseError
from .geometry import NEAR_ZERO, normalize_rows

_TWO_PI = 2.0 * math.pi

#: Deepest constructor nesting parse accepts. Deeper text is refused with
#: a ParseError, before the recursive parser, evaluator and renderer can
#: exhaust Python's call stack.
MAX_DEPTH = 200

#: Most node evaluations per sample point parse admits; an iterate counts
#: its inner map n times. Caps the cost of every later evaluation pass.
EVAL_BUDGET = 2**12


class MapExpr:
    """Base class of map-expression AST nodes.

    Every subclass is a frozen dataclass whose init fields are its
    constructor's arguments in the order the DSL writes them.
    """

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def _args(self) -> list:
        return [getattr(self, name) for name in _FIELDS[type(self)]]

    def children(self) -> tuple["MapExpr", ...]:
        return tuple([a for a in self._args() if isinstance(a, MapExpr)])

    def _eval(self, X: np.ndarray, at) -> np.ndarray:
        """The map's values at rows X; at(child, Y) gives a child's values at Y."""
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
        words = [_NAMES[type(self)]]
        for a in self._args():
            if isinstance(a, MapExpr):
                words.append(a.render())
            elif isinstance(a, tuple):  # the rot3 axis
                words.extend(map(repr, a))
            else:
                words.append(repr(a))
        return f"({' '.join(words)})"


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

    def _eval(self, X, at):
        return X

    def symbolic_degree(self):
        return 1

    def lipschitz_bound(self):
        return 1.0


@dataclass(frozen=True)
class Antipode(MapExpr):
    """x -> -x on S^m."""

    m: int

    def __post_init__(self):
        _check_dim_arg(self.m)

    @property
    def dim(self) -> int:
        return self.m

    def _eval(self, X, at):
        return -X

    def symbolic_degree(self):
        # (-1)^(m+1): a rotation on the circle, orientation-reversing on S2.
        return 1 if self.m == 1 else -1

    def lipschitz_bound(self):
        return 1.0


@dataclass(frozen=True)
class Conj(MapExpr):
    """Complex conjugation (a, b) -> (a, -b) on S1."""

    @property
    def dim(self) -> int:
        return 1

    def _eval(self, X, at):
        return X * np.array([1.0, -1.0])

    def symbolic_degree(self):
        return -1

    def lipschitz_bound(self):
        return 1.0


@dataclass(frozen=True)
class Pow(MapExpr):
    """z -> z^k on S1, i.e. angle -> k * angle."""

    k: int

    def __post_init__(self):
        if abs(self.k) > 2**53:  # floats stop holding k * angle exactly
            raise DomainError("exponent must satisfy |k| <= 2**53")

    @property
    def dim(self) -> int:
        return 1

    def _eval(self, X, at):
        theta = self.k * np.arctan2(X[:, 1], X[:, 0])
        return np.column_stack([np.cos(theta), np.sin(theta)])

    def symbolic_degree(self):
        return self.k

    def lipschitz_bound(self):
        return float(abs(self.k))


@dataclass(frozen=True)
class Rot(MapExpr):
    """Rotation of S1 by alpha radians."""

    alpha: float

    @property
    def dim(self) -> int:
        return 1

    def _eval(self, X, at):
        c, s = math.cos(self.alpha), math.sin(self.alpha)
        return np.column_stack([c * X[:, 0] - s * X[:, 1], s * X[:, 0] + c * X[:, 1]])

    def symbolic_degree(self):
        return 1

    def lipschitz_bound(self):
        return 1.0


@dataclass(frozen=True)
class Rot3(MapExpr):
    """Rotation of S2 by alpha radians about a fixed axis."""

    axis: tuple[float, float, float]
    alpha: float

    def __post_init__(self):
        axis = self.axis
        if math.isinf(sum(c * c for c in axis)):
            # the squares overflow: divide by the largest entry first
            big = max(abs(c) for c in axis)
            axis = tuple(c / big for c in axis)
        norm = math.sqrt(sum(c * c for c in axis))
        if norm <= NEAR_ZERO:
            raise DomainError("rotation axis is numerically zero")
        if abs(norm - 1.0) > 1e-12 or axis is not self.axis:
            # normalize once; keep already-unit axes bit-identical so that
            # render -> parse round trips reproduce the same AST
            object.__setattr__(self, "axis", tuple(float(c / norm) for c in axis))

    @property
    def dim(self) -> int:
        return 2

    def _eval(self, X, at):
        u = np.asarray(self.axis)
        c, s = math.cos(self.alpha), math.sin(self.alpha)
        cross = np.cross(np.broadcast_to(u, X.shape), X)
        dot = X @ u
        return c * X + s * cross + (1.0 - c) * dot[:, None] * u

    def symbolic_degree(self):
        return 1

    def lipschitz_bound(self):
        return 1.0


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

    def _eval(self, X, at):
        s = np.hypot(X[:, 0], X[:, 1])  # sin of the polar angle, >= 0
        safe = s > 1e-15
        w = np.where(
            safe[:, None], X[:, :2] / np.where(safe, s, 1.0)[:, None], (1.0, 0.0)
        )
        fw = at(self.inner, w)
        return np.column_stack([s[:, None] * fw, X[:, 2]])

    def symbolic_degree(self):
        return self.inner.symbolic_degree()

    def lipschitz_bound(self):
        b = self.inner.lipschitz_bound()
        return None if b is None else max(1.0, b)


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

    def _eval(self, X, at):
        return at(self.outer, at(self.inner, X))

    def symbolic_degree(self):
        a, b = self.outer.symbolic_degree(), self.inner.symbolic_degree()
        return None if a is None or b is None else a * b

    def lipschitz_bound(self):
        a, b = self.outer.lipschitz_bound(), self.inner.lipschitz_bound()
        return None if a is None or b is None else a * b


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

    def _eval(self, X, at):
        for _ in range(self.n):
            X = at(self.inner, X)
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

    def _eval(self, X, at):
        raw = (1.0 - self.t) * at(self.f, X) + self.t * at(self.g, X)
        return normalize_rows(raw)

    def symbolic_degree(self):
        # validity of the slice is a global numeric condition the AST
        # cannot see; the degree module resolves it with an explicit check
        return None

    def lipschitz_bound(self):
        return None


#: Fewest rows in a block of the perturbation field that runs on a thread
#: of its own. Smaller calls (S1 lines, 64-band levels) stay on the calling
#: thread, where the hand-off to the pool would cost more than it saves.
_BLOCK_ROWS = 2**13

_pool = None
_pool_lock = threading.Lock()


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _field_pool():
    """The process-wide pool of field workers, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: the CLI's start-up never needs it
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                max_workers=max(_cpus() - 1, 1), thread_name_prefix="mapdeg-field"
            )
        return _pool


def _drop_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


class PerturbationField:
    """Deterministic smooth vector field on R^(m+1) with |V(x)| <= 1.

    Each component is a low-order trigonometric polynomial of the ambient
    coordinates with seed-derived integer frequencies and coefficients.
    Dividing all coefficients by their total absolute sum bounds the
    field's Euclidean norm by 1 everywhere.

    A call on many rows splits them into contiguous blocks, one per CPU
    and each of at least 8192 rows, and runs all but the first on one
    process-wide pool of threads, rebuilt after a fork. Every row
    runs the same numpy calls whatever the split, so the values are
    bit-identical for any CPU count. The caller's thread allocates every
    buffer; a worker only writes its own rows of them.
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
        n = len(X)
        out = np.empty((n, self.dim + 1))
        args = np.empty((n, self.dim + 1, self.TERMS))
        k = min(_cpus(), n // _BLOCK_ROWS)
        if k < 2:
            self._rows(X, args, out)
            return out
        blocks = [slice(n * i // k, n * (i + 1) // k) for i in range(k)]
        parts = [(X[s], args[s], out[s]) for s in blocks]
        pool = _field_pool()
        futures = [pool.submit(self._rows, *part) for part in parts[1:]]
        try:
            self._rows(*parts[0])
        finally:
            for f in futures:
                f.result()
        return out

    def _rows(self, X, args, out) -> None:
        """Write the field at the rows of X into out, with args as scratch."""
        np.einsum("jtk,nk->njt", self._freq, X, out=args)
        args += self._phase
        np.sin(args, out=args)
        np.einsum("jt,njt->nj", self._coef, args, out=out)

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

    def _eval(self, X, at):
        return normalize_rows(at(self.inner, X) + self.eps * self._field(X))

    def symbolic_degree(self):
        # the straight line from f(x) to f(x) + eps*V(x) stays at norm
        # >= 1 - eps > 0, so normalizing it is a homotopy: degree unchanged
        return self.inner.symbolic_degree()

    def lipschitz_bound(self):
        b = self.inner.lipschitz_bound()
        if b is None:
            return None
        return (b + self.eps * self._field.lipschitz_bound()) / (1.0 - self.eps)


def walk(e: MapExpr):
    """Yield e and all of its sub-expressions, depth first."""
    yield e
    for child in e.children():
        yield from walk(child)


class _Reading:
    """The `at` of eval_array: e's values at Y, read from `known` where Y is X.

    A class rather than a closure: a recursive closure is a reference
    cycle, which would keep X and the known arrays alive until the next
    garbage collection.
    """

    def __init__(self, X: np.ndarray, known: dict):
        self.X, self.known = X, known

    def __call__(self, e: MapExpr, Y: np.ndarray) -> np.ndarray:
        if Y is self.X and id(e) in self.known:
            return self.known[id(e)]
        return e._eval(Y, self)


def eval_array(e: MapExpr, X: np.ndarray, *, known: dict | None = None) -> np.ndarray:
    """Evaluate an expression rowwise on an (n, dim+1) array of unit rows.

    `known` maps id(node) of sub-expressions of e to their values at X.
    Where such a node is applied to X itself, its values are read from
    there instead of evaluated; the degree module shares the maps it
    already holds this way.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != e.dim + 1:
        raise DimensionMismatch(
            f"expected shape (n, {e.dim + 1}) for an S{e.dim} map, got {X.shape}"
        )
    return _Reading(X, known or {})(e, X)


# --- parsing ---------------------------------------------------------------

#: A token is a parenthesis or a run of anything but whitespace and parentheses.
_TOKEN = re.compile(r"[()]|[^ \t\r\n()]+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_TOKEN.finditer(text))
        self.pos = 0
        self.depth = 0

    def _fail(self, message: str, token: re.Match | None = None):
        # no token points just past the end of input
        offset = len(self.text) if token is None else token.start()
        line = self.text.count("\n", 0, offset) + 1
        column = offset - self.text.rfind("\n", 0, offset)
        raise ParseError(message, line, column)

    def peek(self) -> re.Match | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, what: str) -> re.Match:
        tok = self.peek()
        if tok is None:
            self._fail(f"unexpected end of input, expected {what}")
        self.pos += 1
        return tok

    def expect(self, literal: str):
        tok = self.take(f"'{literal}'")
        if tok[0] != literal:
            self._fail(f"expected '{literal}', got '{tok[0]}'", tok)

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
            self._fail(f"expected a finite {what}, got '{tok[0]}'", tok)
        return value

    def dim_atom(self) -> int:
        tok = self.atom("a dimension (1 or 2)")
        if tok[0] not in ("1", "2"):
            self._fail(f"dimension must be 1 or 2, got '{tok[0]}'", tok)
        return int(tok[0])

    def axis(self) -> tuple[float, float, float]:
        return tuple(self.float_atom(f"axis {c}") for c in "xyz")

    def expr(self) -> MapExpr:
        self.expect("(")
        if self.depth == MAX_DEPTH:
            self._fail(f"nesting deeper than {MAX_DEPTH} levels", self.tokens[self.pos - 1])
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
    if parser.peek() is None:
        parser._fail("empty input")
    node = parser.expr()
    trailing = parser.peek()
    if trailing is not None:
        parser._fail(f"trailing input '{trailing[0]}'", trailing)
    if _evaluations(node) > EVAL_BUDGET:
        raise DomainError(
            f"map needs more than {EVAL_BUDGET} node evaluations per sample point"
        )
    return node

"""Exception types shared across the package."""


class MapdegError(Exception):
    """Base class for every error raised by mapdeg."""


class NearZeroVector(MapdegError):
    """A vector was too short to project onto the sphere."""


class DimensionMismatch(MapdegError):
    """Operands live on spheres of different dimensions."""


class InvalidResolution(MapdegError):
    """A grid asked for directly is below MIN_RESOLUTION or finer than geometry.finest.

    Degrees, blend checks and ball certificates refuse such a level before its grid.
    """


class ParseError(MapdegError):
    """Malformed map-expression text.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DomainError(MapdegError):
    """Constructor argument outside its legal range."""


class ResolutionExceeded(MapdegError):
    """No level within the resolution cap and the row budget proves the degree.

    Signals an inconclusive computation, never a wrong integer.
    """


class SymbolicNumericMismatch(MapdegError):
    """Structural degree (a checked blend's is its maps') and numeric degree disagree: a bug."""


class InvalidBlend(MapdegError):
    """A blend's pre-normalization norm came too close to zero."""


class DistanceTooLarge(MapdegError):
    """Sup distance not shown below the unit-ball radius (inconclusive).

    Either no level within the row budget can prove it, since the maps'
    bounds times its mesh reach the radius (refused before sampling), or
    a level's sampled distance plus that term at the last such level
    does: finer levels only sample more nodes, so none can prove it.
    """


class ConsistencyError(MapdegError):
    """A cross-check that must hold by construction failed."""

"""Brouwer degrees of circle/sphere self-maps and non-iterate certificates."""

from .certify import (
    BallProvenance,
    NonIterateCertificate,
    PowerWitness,
    Refusal,
    ball_certificate,
    certify_not_iterate,
    is_perfect_power,
)
from .degree import (
    DegreeParams,
    DegreeResult,
    DistanceEstimate,
    HomotopyReport,
    degree,
    homotopy_check,
    sup_distance,
)
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    DistanceTooLarge,
    DomainError,
    InvalidBlend,
    InvalidResolution,
    MapdegError,
    NearZeroVector,
    ParseError,
    ResolutionExceeded,
    SymbolicNumericMismatch,
)
from .expr import (
    Antipode,
    Blend,
    Compose,
    Conj,
    Id,
    Iterate,
    MapExpr,
    PerturbationField,
    Perturb,
    Pow,
    Rot,
    Rot3,
    Susp,
    eval_array,
    parse,
)
from .geometry import make_grid

__version__ = "0.1.0"

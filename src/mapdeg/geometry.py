"""Geometry of the unit circle S1 in R2 and the unit sphere S2 in R3.

Points, normalization, and sample grids. All types are immutable values
and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidResolution, NearZeroVector

#: Vectors with Euclidean norm at or below this cannot be normalized.
NEAR_ZERO = 1e-9

#: Allowed deviation of a sphere point's norm from 1.
UNIT_TOL = 1e-12

MIN_RESOLUTION = 8


@dataclass(frozen=True)
class SpherePoint:
    """A point of S1 or S2, stored by its ambient coordinates."""

    coords: tuple[float, ...]

    def __post_init__(self):
        if len(self.coords) not in (2, 3):
            raise DimensionMismatch(
                f"expected 2 or 3 coordinates, got {len(self.coords)}"
            )
        norm = math.sqrt(sum(c * c for c in self.coords))
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValueError(f"not a unit vector: norm {norm!r}")

    @property
    def dim(self) -> int:
        """Dimension m of the sphere the point lives on (1 or 2)."""
        return len(self.coords) - 1

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Sample nodes covering S1 or S2.

    nodes is an (n, dim+1) array of unit rows built at `resolution`
    angular subdivisions. mesh is a safe upper bound on the chordal
    spacing between adjacent nodes, used for Lipschitz-based distance
    bounds.
    """

    dim: int
    resolution: int
    nodes: np.ndarray
    mesh: float

    def __len__(self) -> int:
        return len(self.nodes)


def normalize(v) -> SpherePoint:
    """Project a nonzero vector of length 2 or 3 onto the unit sphere.

    Raises NearZeroVector if the norm is at or below NEAR_ZERO, which
    signals an invalid blend or perturbation rather than a rounding issue.
    """
    arr = np.asarray(v, dtype=float)
    if arr.shape not in ((2,), (3,)):
        raise DimensionMismatch(f"expected a vector of length 2 or 3, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if norm <= NEAR_ZERO:
        raise NearZeroVector(f"cannot normalize vector of norm {norm:.3e}")
    return SpherePoint(tuple(float(c) for c in arr / norm))


def normalize_rows(X: np.ndarray, eps: float = NEAR_ZERO) -> np.ndarray:
    """Row-wise normalization of an (n, k) array; rejects near-zero rows."""
    norms = np.linalg.norm(X, axis=1)
    small = float(norms.min()) if len(norms) else 1.0
    if small <= eps:
        raise NearZeroVector(f"cannot normalize row of norm {small:.3e}")
    return X / norms[:, None]


def chordal_dist(p: SpherePoint, q: SpherePoint) -> float:
    """Ambient Euclidean distance between two sphere points, in [0, 2]."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"points on S{p.dim} and S{q.dim}")
    return min(2.0, float(np.linalg.norm(p.array() - q.array())))


def make_grid(dim: int, resolution: int) -> SampleGrid:
    """Build a sample grid with `resolution` angular subdivisions.

    dim=1: `resolution` equally spaced angles. dim=2: `resolution`
    latitude bands crossed with 2*resolution longitudes, nodes at cell
    centers.
    """
    if dim not in (1, 2):
        raise DimensionMismatch(f"dim must be 1 or 2, got {dim}")
    if resolution < MIN_RESOLUTION:
        raise InvalidResolution(f"resolution {resolution} < {MIN_RESOLUTION}")
    if dim == 1:
        phis = 2.0 * math.pi * np.arange(resolution) / resolution
        nodes = np.column_stack([np.cos(phis), np.sin(phis)])
        mesh = 2.0 * math.sin(math.pi / resolution)
        return SampleGrid(1, resolution, nodes, mesh)

    edges = np.linspace(0.0, math.pi, resolution + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    nlon = 2 * resolution
    dphi = 2.0 * math.pi / nlon
    phis = (np.arange(nlon) + 0.5) * dphi
    sin_t, cos_t = np.sin(centers), np.cos(centers)
    x = np.outer(sin_t, np.cos(phis)).ravel()
    y = np.outer(sin_t, np.sin(phis)).ravel()
    z = np.repeat(cos_t, nlon)
    nodes = np.column_stack([x, y, z])
    mesh = math.hypot(math.pi / resolution, math.pi / resolution)
    return SampleGrid(2, resolution, nodes, mesh)


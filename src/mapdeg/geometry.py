"""Geometry of the unit circle S1 in R2 and the unit sphere S2 in R3.

Row-wise normalization and sample grids over arrays of unit rows. All
types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidResolution, NearZeroVector

#: Vectors with Euclidean norm at or below this cannot be normalized.
NEAR_ZERO = 1e-9

MIN_RESOLUTION = 8

#: Most sample rows one grid or one degree level may allocate. The
#: default S2 degree cap of 1024 bands needs about 2**21.
MAX_ROWS = 2**22


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


def normalize_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise normalization of an (n, k) array; rejects near-zero rows."""
    norms = np.linalg.norm(X, axis=1)
    small = float(norms.min()) if len(norms) else 1.0
    if small <= NEAR_ZERO:
        raise NearZeroVector(f"cannot normalize row of norm {small:.3e}")
    return X / norms[:, None]


def check_rows(dim: int, resolution: int, error: type[Exception]) -> None:
    """Raise `error` if sampling at `resolution` needs more than MAX_ROWS rows.

    Counts n rows on S1 and 2n^2 on S2: the cell centres of make_grid, and
    an upper bound on the vertices of the S2 degree mesh.
    """
    rows = resolution if dim == 1 else 2 * resolution * resolution
    if rows > MAX_ROWS:
        raise error(f"resolution {resolution} needs more than {MAX_ROWS} sample rows")


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
    check_rows(dim, resolution, InvalidResolution)
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


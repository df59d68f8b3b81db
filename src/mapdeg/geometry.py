"""Geometry of the unit circle S1 in R2 and the unit sphere S2 in R3.

Row-wise normalization of arrays, and the sample nodes every pass reads:
make_grid lays them out as a fresh array of unit rows, mesh bounds how
far any point of the sphere lies from them, and coarsen strides a level
down to the level below. All operations are pure functions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InvalidResolution, NearZeroVector

#: Vectors with Euclidean norm at or below this cannot be normalized.
NEAR_ZERO = 1e-9

MIN_RESOLUTION = 8

#: Most sample rows one grid or one degree level may allocate. The
#: default S2 degree cap of 1024 bands needs about 2**21.
MAX_ROWS = 2**22


def normalize_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise normalization of an (n, k) array; rejects near-zero rows."""
    norms = np.linalg.norm(X, axis=1)
    small = float(norms.min()) if len(norms) else 1.0
    if small <= NEAR_ZERO:
        raise NearZeroVector(f"cannot normalize row of norm {small:.3e}")
    return X / norms[:, None]


def check_rows(dim: int, resolution: int, error: type[Exception]) -> None:
    """Raise `error` if make_grid(dim, resolution) holds more than MAX_ROWS rows.

    Counts n rows on S1 and the 2n^2 - 2n + 2 mesh vertices on S2.
    """
    rows = resolution if dim == 1 else 2 * resolution * (resolution - 1) + 2
    if rows > MAX_ROWS:
        raise error(f"resolution {resolution} needs more than {MAX_ROWS} sample rows")


def make_grid(dim: int, resolution: int) -> np.ndarray:
    """The (rows, dim+1) array of sample nodes at `resolution` angular subdivisions.

    dim=1: `resolution` equally spaced angles 2*pi*k/resolution.
    dim=2: the vertices of the lat-long triangulation with `resolution`
    latitude bands: the north pole, then the resolution - 1 interior
    rings of 2 * resolution points each, north to south, then the south
    pole. The degree methods, the distance, homotopy and blend checks all
    sample these nodes.
    """
    if dim not in (1, 2):
        raise DimensionMismatch(f"dim must be 1 or 2, got {dim}")
    if resolution < MIN_RESOLUTION:
        raise InvalidResolution(f"resolution {resolution} < {MIN_RESOLUTION}")
    check_rows(dim, resolution, InvalidResolution)
    if dim == 1:
        phis = 2.0 * math.pi * np.arange(resolution) / resolution
        return np.column_stack([np.cos(phis), np.sin(phis)])

    theta = math.pi * np.arange(1, resolution) / resolution
    phi = math.pi * np.arange(2 * resolution) / resolution
    sin_t = np.sin(theta)[:, None]
    rings = np.stack(
        np.broadcast_arrays(sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)[:, None]),
        axis=-1,
    )
    return np.vstack([(0.0, 0.0, 1.0), rings.reshape(-1, 3), (0.0, 0.0, -1.0)])


def mesh(dim: int, resolution: int) -> float:
    """Bound on the chordal distance from any point of the sphere to make_grid's nodes.

    A map with chordal Lipschitz constant L moves by at most L * mesh
    between a point and its nearest node. On S1 it is the spacing
    2 sin(pi/n) of adjacent nodes, about twice the covering radius. On S2
    every point lies within geodesic distance pi/n of a mesh vertex: at
    most pi/(2n) along its meridian to the nearest ring, then at most
    pi/(2n) along that ring. The chordal covering radius measures about
    0.70 * pi/n, so sqrt(2) * pi/n is safe. Rigorous distance bounds rest
    on this constant.
    """
    if dim == 1:
        return 2.0 * math.sin(math.pi / resolution)
    return math.sqrt(2.0) * math.pi / resolution


def coarsen(dim: int, resolution: int, fine: np.ndarray) -> np.ndarray:
    """The rows of `fine` that lie on make_grid(dim, resolution), in its order.

    `fine` holds one row per node of make_grid(dim, 2 * resolution): the
    nodes themselves, or a map's values there. The coarse nodes are a
    stride of the fine ones, bit for bit, because doubling both k and n
    in 2*pi*k/n (S1) or pi*k/n (S2) rounds to the same float. On S1 they
    are every other node. On S2 they are the poles and fine rings 2, 4,
    ..., 2n - 2 at every other longitude. Returns a fresh contiguous
    array, laid out as a direct evaluation on the coarse grid would be.
    """
    if dim == 1:
        return np.ascontiguousarray(fine[::2])
    n, width = resolution, fine.shape[1]
    rings = fine[1:-1].reshape(2 * n - 1, 4 * n, width)[1::2, ::2]
    return np.concatenate([fine[:1], rings.reshape(-1, width), fine[-1:]])

"""Geometry of the unit circle S1 in R2 and the unit sphere S2 in R3.

The one rule that reads an integer (_integer), row norms and row-wise
normalization, and the sample nodes every pass reads: grid_blocks
yields them a block of whole rings at a time, the only place a grid's
rows are split, make_grid joins them into one fresh array of unit rows,
and mesh bounds how far any point of the sphere lies from them.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidResolution, NearZeroVector

#: Vectors with Euclidean norm at or below this cannot be normalized.
NEAR_ZERO = 1e-9

MIN_RESOLUTION = 8

#: Most sample rows one grid or one degree level may allocate. The
#: default S2 degree cap of 1024 bands needs about 2**21.
MAX_ROWS = 2**22

#: Rows per block of grid_blocks (rounded to whole rings on S2).
BLOCK_ROWS = 8192


def _integer(value, what: str, error: type[Exception] = DomainError) -> int:
    """value as a plain int, read through operator.index; `error` where it has none."""
    try:
        return operator.index(value)  # an exact int since Python 3.10
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def row_norms(X: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a float (n, k) array.

    numpy's own formula for np.linalg.norm(X, axis=1), without its
    wrapper, so the two agree bit for bit: inf where the squares
    overflow, NaN where a row holds one.
    """
    return np.sqrt(np.add.reduce(X * X, axis=1))


def normalize_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise normalization of a float (n, k) array by its row_norms.

    Raises NearZeroVector where the least norm is at most NEAR_ZERO or
    NaN, as it is where a row holds a NaN.
    """
    norms = row_norms(X)
    small = float(norms.min()) if len(norms) else 1.0
    if not small > NEAR_ZERO:
        raise NearZeroVector(f"cannot normalize row of norm {small:.3e}")
    return X / norms[:, None]


def finest(dim: int) -> int:
    """The finest grid within MAX_ROWS, read at call time: 2**22 samples or 1448 bands.

    n bands hold 2n^2 - 2n + 2 <= MAX_ROWS vertices exactly where (2n - 1)^2 <= 2 MAX_ROWS - 3.
    """
    return MAX_ROWS if dim == 1 else (math.isqrt(2 * MAX_ROWS - 3) + 1) // 2


def make_grid(dim: int, resolution: int) -> np.ndarray:
    """The (rows, dim+1) array of sample nodes at `resolution` angular subdivisions.

    dim=1: `resolution` equally spaced angles 2*pi*k/resolution.
    dim=2: the vertices of the lat-long triangulation with `resolution`
    latitude bands: the north pole, then the resolution - 1 interior
    rings of 2 * resolution points each, north to south, then the south
    pole. The degree methods, the distance, homotopy and blend checks all
    sample these nodes, a block at a time (grid_blocks); this joins the
    blocks into one fresh array, for library callers.
    """
    return np.concatenate(list(grid_blocks(dim, resolution)))


def grid_blocks(dim: int, resolution: int) -> Iterator[np.ndarray]:
    """make_grid(dim, resolution) in consecutive blocks of about BLOCK_ROWS rows.

    The one place a grid's rows are split: on S2 each block holds whole
    rings, the poles counted as rings of one node. The dimension, the
    resolution (an integer to _integer) and the row budget are
    checked before the first block, so a refused grid allocates nothing,
    and no block outlives the next one unless the caller keeps it: a
    level of any size is read in bounded memory.
    """
    if dim not in (1, 2):
        raise DimensionMismatch(f"dim must be 1 or 2, got {dim}")
    resolution = _integer(resolution, "resolution", InvalidResolution)
    if resolution < MIN_RESOLUTION:
        raise InvalidResolution(f"resolution {resolution} < {MIN_RESOLUTION}")
    if resolution > finest(dim):
        raise InvalidResolution(f"resolution {resolution} needs more than {MAX_ROWS} sample rows")
    if dim == 1:
        for lo in range(0, resolution, BLOCK_ROWS):
            yield _arc(resolution, lo, min(lo + BLOCK_ROWS, resolution))
        return
    trig, step = _ring_trig(resolution), max(1, BLOCK_ROWS // (2 * resolution))
    for lo in range(0, resolution + 1, step):
        yield _rings(resolution, trig, lo, min(lo + step, resolution + 1))


def _arc(resolution: int, lo: int, hi: int) -> np.ndarray:
    """Nodes lo, ..., hi - 1 of make_grid(1, resolution)."""
    phis = 2.0 * math.pi * np.arange(lo, hi) / resolution
    return np.column_stack([np.cos(phis), np.sin(phis)])


def _ring_trig(n: int) -> tuple[np.ndarray, ...]:
    """sin and cos of the n - 1 ring latitudes and of the 2n longitudes."""
    theta = math.pi * np.arange(1, n) / n
    phi = math.pi * np.arange(2 * n) / n
    return np.sin(theta)[:, None], np.cos(theta)[:, None], np.cos(phi), np.sin(phi)


def _rings(n: int, trig: tuple[np.ndarray, ...], lo: int, hi: int) -> np.ndarray:
    """Rings lo, ..., hi - 1 of make_grid(2, n): ring 0 is the north pole, ring n the south.

    Every node is the product of its ring's and its longitude's sin or
    cos, taken from the same per-level arrays, so a node's bits do not
    depend on the block that holds it.
    """
    sin_t, cos_t, cos_p, sin_p = trig
    inner = slice(max(lo, 1) - 1, min(hi, n) - 1)
    s = sin_t[inner]
    rings = np.stack(np.broadcast_arrays(s * cos_p, s * sin_p, cos_t[inner]), axis=-1)
    parts = [rings.reshape(-1, 3)]
    if lo == 0:
        parts.insert(0, np.array([[0.0, 0.0, 1.0]]))
    if hi == n + 1:
        parts.append(np.array([[0.0, 0.0, -1.0]]))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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

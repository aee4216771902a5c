"""Convective nonlinearity with 2/3-rule dealiasing.

Products are formed pointwise in physical space and transformed back, then
truncated in all four frequency directions.  For inputs supported inside the
kept band the truncated result is the exact convolution, because every
aliased image of a product of kept modes lands outside the kept band.
"""

from __future__ import annotations

import numpy as np

from .domain import Grid
from .fourier import _NOT_FINITE, SpectralField, _all_finite, _finish_forward, _per_node, _space_forward, _transport

__all__ = ["convective"]

# The six distinct products w_i w_j (i <= j) of ``_tensor_product``; ``_ROWS[i][j]`` indexes
# the pair (min(i, j), max(i, j)), so row i of the symmetric tensor is also its column i.
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_ROWS = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def _dealias_in_place(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Zero the modes outside the 2/3 band of every axis, by slicing, in place."""
    m, n3, n2, _ = grid.spectral_shape
    coeffs[:, m // 3 + 1 : m - m // 3] = 0.0
    coeffs[:, :, n3 // 3 + 1 : n3 - n3 // 3] = 0.0
    coeffs[:, :, :, n2 // 3 + 1 : n2 - n2 // 3] = 0.0
    coeffs[..., grid.n_space[0] // 3 + 1 :] = 0.0
    return coeffs


def _band_radius(grid: Grid) -> int:
    """Largest integer radius whose shell lies inside the 2/3 band of every axis."""
    return min(n // 3 for n in grid.n_space + (grid.n_time,))


def convective(u: SpectralField) -> SpectralField:
    """Dealiased self-transport (u . grad) u."""
    return SpectralField(u.grid, _dealias_in_place(_transport(u).coeffs, u.grid))


def _tensor_product(w: SpectralField) -> np.ndarray:
    """Dealiased w_i w_j for the ``_PAIRS`` (i, j), shape (6,) + grid.spectral_shape, checked finite."""
    out = np.empty((len(_PAIRS),) + w.grid.spectral_shape, dtype=np.complex128)

    def products(t: int, slot: np.ndarray, fields) -> None:
        nodes = next(fields)[1]
        pairs = np.stack([nodes[i] * nodes[j] for i, j in _PAIRS])
        if not _all_finite(pairs):
            raise ValueError(_NOT_FINITE)
        _space_forward(pairs, out[:, t : t + 1])

    _per_node(w, ((0, 0, 0),), products)
    return _dealias_in_place(_finish_forward(out, w.grid), w.grid)

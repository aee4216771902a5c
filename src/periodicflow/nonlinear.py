"""Convective nonlinearity with 2/3-rule dealiasing.

Products are formed pointwise in physical space and transformed back, then
truncated in all four frequency directions.  For inputs supported inside the
kept band the truncated result is the exact convolution, because every
aliased image of a product of kept modes lands outside the kept band.
"""

from __future__ import annotations

import numpy as np

from .domain import Grid
from .fourier import (
    _UNIT_INDICES,
    PhysicalField,
    SpectralField,
    _derivative_nodes,
    forward,
    inverse,
)

__all__ = [
    "convective",
    "dealiased_tensor_product",
]


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


def _convective_bilinear(u: SpectralField, v: SpectralField) -> SpectralField:
    """Dealiased transport term (u . grad) v in convective form.

    For self-transport (``u is v``) the node values of u share the transform
    passes of its gradient.
    """
    if u.components != 3 or v.components != 3:
        raise ValueError("convective term expects 3-component fields")
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    g = u.grid
    if u is v:
        fields = _derivative_nodes(v, ((0, 0, 0),) + _UNIT_INDICES)
        u_phys = next(fields)[1]
    else:
        u_phys = inverse(u).values
        fields = _derivative_nodes(v, _UNIT_INDICES)
    out = np.zeros((3,) + g.shape, dtype=np.float64)
    for alpha, dv_j in fields:
        dv_j *= u_phys[alpha.index(1)]
        out += dv_j
    spec = forward(PhysicalField(g, out))
    return SpectralField(g, _dealias_in_place(spec.coeffs, g))


def convective(u: SpectralField) -> SpectralField:
    """Dealiased self-transport (u . grad) u."""
    return _convective_bilinear(u, u)


def dealiased_tensor_product(w: SpectralField) -> np.ndarray:
    """Coefficients of the dealiased outer product w_i w_j, shape (3, 3) + grid.spectral_shape."""
    g = w.grid
    w_phys = inverse(w).values
    out = np.empty((3, 3) + g.spectral_shape, dtype=np.complex128)
    for i in range(3):
        for j in range(i, 3):
            prod = forward(PhysicalField(g, w_phys[i] * w_phys[j])).coeffs
            coeffs = _dealias_in_place(prod, g)[0]
            out[i, j] = coeffs
            out[j, i] = coeffs
    return out


def _tensor_divergence(tensor: np.ndarray, grid: Grid) -> np.ndarray:
    """Coefficients of the divergence sum_l d/dx_l T_il of a (3, 3) tensor spectrum."""
    ixi = (1j * grid.xi1, 1j * grid.xi2, 1j * grid.xi3)
    return np.stack([sum(ixi[l] * tensor[i, l] for l in range(3)) for i in range(3)])

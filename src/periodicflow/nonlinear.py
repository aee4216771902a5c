"""Convective nonlinearity with 2/3-rule dealiasing.

Products are formed pointwise in physical space and transformed back, then
truncated in all four frequency directions.  For inputs supported inside the
kept band the truncated result is the exact convolution, because every
aliased image of a product of kept modes lands outside the kept band.
"""

from __future__ import annotations

import numpy as np

from .domain import Grid
from .fourier import PhysicalField, SpectralField, _transport_spectrum, forward, inverse

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


def _transport(v: SpectralField, u_nodes: np.ndarray | None = None) -> SpectralField:
    """Spectrum of (u . grad) v in convective form, without dealiasing.

    With ``u_nodes`` omitted u is v, and its nodes share the transform passes
    of its gradient; B(u, v) is ``_transport(v, inverse(u).values)``.
    ``manufactured`` advects with its raw samples, not the nodes of their
    spectrum: ``forward`` zeroes Nyquist planes, so the two differ wherever
    the samples carry Nyquist content, and the forcing would change there.
    """
    if v.components != 3:
        raise ValueError("transport expects a 3-component field")
    return SpectralField(v.grid, _transport_spectrum(v, u_nodes))


def convective(u: SpectralField) -> SpectralField:
    """Dealiased self-transport (u . grad) u."""
    return SpectralField(u.grid, _dealias_in_place(_transport(u).coeffs, u.grid))


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

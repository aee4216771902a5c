"""Diagonal Fourier multipliers: projections, the drift resolvent, time derivatives.

Every operator here acts mode-by-mode on spectral coefficients.  All symbols
satisfy m(-xi, -k) = conj(m(xi, k)), so real fields stay real.  Only this
module reads omega, and ``marcinkiewicz_probe`` samples its kernels off the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .domain import Grid, Params, _check_period
from .errors import MeanModeNonzero
from .fourier import SpectralField

__all__ = [
    "helmholtz",
    "oseen_apply",
    "oseen_inverse",
    "time_derivative",
    "half_time_derivative",
    "MultiplierReport",
    "marcinkiewicz_probe",
    "PROBE_SYMBOLS",
]

_MEAN_TOL = 1e-12
_PROBE_REL_STEP = 1e-4


def _longitudinal(c: np.ndarray, grid: Grid) -> np.ndarray:
    """xi . c / |xi|^2 of a 3-component spectrum, mode-wise; zero where xi = 0.

    The dot product vanishes wherever xi does, so dividing by 1 there leaves
    a zero.
    """
    dot = c[0] * grid.xi1 + c[1] * grid.xi2 + c[2] * grid.xi3
    dot /= np.where(grid.xi_sq > 0.0, grid.xi_sq, 1.0)
    return dot


def _project_in_place(c: np.ndarray, grid: Grid) -> np.ndarray:
    """``helmholtz`` on the coefficient array ``c``, overwriting it."""
    if c.shape[0] != 3:
        raise ValueError("helmholtz projection expects a 3-component field")
    scale = _longitudinal(c, grid)
    term = np.empty_like(scale)
    for j, xi in enumerate(grid.xi):
        c[j] -= np.multiply(xi, scale, out=term)
    return c


def helmholtz(spec: SpectralField) -> SpectralField:
    """Project a velocity field onto its divergence-free part.

    Mode-wise this applies I - xi (x) xi / |xi|^2; the xi = 0 plane is left
    unchanged, so spatially constant modes count as divergence-free.
    """
    return SpectralField(spec.grid, _project_in_place(spec.coeffs.copy(), spec.grid))


def _oseen_symbol(grid: Grid, params: Params, planes: slice = slice(None)) -> np.ndarray:
    """Symbol |xi|^2 + i(omega - lam*xi1) of d/dt - Lap - lam*d/dx1 on ``planes``; ``ValueError`` off the grid's period.

    Vanishes only at the joint zero mode (xi, k) = (0, 0); on the periodic
    lattice every other mode is bounded away from zero.
    """
    _check_period(params, grid)
    time, laplacian, drift = _oseen_terms(grid, params, planes)
    # time + drift spans (time, x1) alone, so the sum makes one whole array, not two
    return laplacian + (time + drift)


def _oseen_terms(grid: Grid, params: Params, planes: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms i omega, |xi|^2 and -lam i xi1 of the Oseen symbol on ``planes``; ``_oseen_symbol`` sums them."""
    return 1j * grid.omega[planes], grid.xi_sq, -params.lam * (1j * grid.xi1)


def oseen_apply(spec: SpectralField, params: Params) -> SpectralField:
    """Apply the forward operator d/dt - Lap - lam*d/dx1 spectrally."""
    return SpectralField(spec.grid, spec.coeffs * _oseen_symbol(spec.grid, params))


def _resolve_in_place(c: np.ndarray, grid: Grid, params: Params) -> np.ndarray:
    """``oseen_inverse`` on the coefficient array ``c``, overwriting it."""
    scale = float(np.abs(c).max(initial=0.0))
    mean_mode = float(np.abs(c[:, 0, 0, 0, 0]).max(initial=0.0))
    if mean_mode > _MEAN_TOL * scale:
        raise MeanModeNonzero(
            f"space-time mean mode magnitude {mean_mode:.3e} exceeds "
            f"{_MEAN_TOL:.1e} x field scale {scale:.3e}; the periodic box cannot "
            "absorb a mean solenoidal forcing"
        )
    sym = _oseen_symbol(grid, params)
    sym[0, 0, 0, 0] = 1.0
    c /= sym
    c[:, 0, 0, 0, 0] = 0.0
    return c


def oseen_inverse(spec: SpectralField, params: Params) -> SpectralField:
    """Invert d/dt - Lap - lam*d/dx1 on fields with no space-time mean.

    The (0,0) mode is annihilated by the operator, so it must be absent from
    the input; the output's (0,0) mode is set to zero.

    Raises
    ------
    MeanModeNonzero
        If the magnitude of the input's (0,0) mode exceeds 1e-12 times
        the largest coefficient magnitude.
    """
    return SpectralField(spec.grid, _resolve_in_place(spec.coeffs.copy(), spec.grid, params))


def time_derivative(spec: SpectralField) -> SpectralField:
    """Time derivative: multiply by i*omega."""
    return SpectralField(spec.grid, spec.coeffs * (1j * spec.grid.omega))


def half_time_derivative(spec: SpectralField) -> SpectralField:
    """Half-order time derivative: multiply by the principal root of (i*omega).

    The k = 0 plane maps to zero.  Applying the operator twice reproduces the
    full time derivative.  The principal branch pairs e^{+i pi/4} with k > 0
    and e^{-i pi/4} with k < 0, preserving conjugate symmetry.
    """
    return SpectralField(spec.grid, spec.coeffs * _half_time_factor(spec.grid))


def _half_time_factor(grid: Grid, planes: slice = slice(None)) -> np.ndarray:
    """The principal root (i*omega)^(1/2) on ``planes``: the one place its branch is chosen."""
    return np.sqrt(1j * grid.omega[planes])


def _regularity_factors(grid: Grid, planes: slice = slice(None)) -> np.ndarray:
    """The regularity multipliers (i*omega)^(1/2) (i*xi_j) / (|xi|^2 + i*omega) on ``planes``, zero on k = 0."""
    osc = grid.omega[planes] != 0
    safe = np.where(osc, _oseen_symbol(grid, Params(lam=0.0, period=grid.period), planes), 1.0)
    root = _half_time_factor(grid, planes)
    return np.stack([np.where(osc, root * (1j * xi) / safe, 0.0) for xi in grid.xi])


# ---------------------------------------------------------------------------
# Marcinkiewicz-style probe of the continuous symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierReport:
    """Sampled boundedness evidence for one continuous symbol."""

    name: str
    max_abs: float
    marcinkiewicz_sup: float
    sample_count: int

    def __post_init__(self):
        for label, value in (("max_abs", self.max_abs), ("marcinkiewicz_sup", self.marcinkiewicz_sup)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{label} must be finite and nonnegative, got {value!r}")


def _smooth_cutoff(s: np.ndarray) -> np.ndarray:
    """One on [-1/2, 1/2], zero outside [-1, 1], order-5 polynomial smoothstep between."""
    t = np.clip(2.0 * np.abs(s) - 1.0, 0.0, 1.0)
    return 1.0 - t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _probe_symbols(params: Params) -> dict[str, Callable[..., np.ndarray]]:
    """Symbols of ``marcinkiewicz_probe`` by name: this module's kernels as functions m(xi, eta), xi = (x1, x2, x3)."""
    scale = params.period / (2.0 * math.pi)

    def points(xi, eta):
        """A stand-in grid whose frequency factors are the sample points, xi_sq by the operations ``Grid`` uses."""
        xi_sq = xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2]
        return SimpleNamespace(xi=xi, xi1=xi[0], xi2=xi[1], xi3=xi[2], xi_sq=xi_sq, omega=eta, period=params.period)

    def projected(grid, j):
        # the projection writes in place, so the unit vector spans every sample point
        unit = np.zeros((3,) + np.broadcast(grid.xi_sq, grid.omega).shape, dtype=np.complex128)
        unit[j] = 1.0
        return _project_in_place(unit, grid)[0]

    def regularity(grid, j):
        # 1 - cutoff is 0 for |eta| <= pi / period and 1 from the lowest lattice frequency 2 pi / period on
        return (1.0 - _smooth_cutoff(grid.omega * scale)) * _regularity_factors(grid)[j]

    kernels = {
        "one": lambda grid: np.ones(np.broadcast(grid.xi_sq, grid.omega).shape, dtype=np.complex128),
        "helmholtz": lambda grid: projected(grid, 0),
        "helmholtz_offdiag": lambda grid: projected(grid, 1),
        **{f"m_{j + 1}": lambda grid, j=j: regularity(grid, j) for j in range(3)},
        "oseen_tp": lambda grid: grid.xi_sq / _oseen_symbol(grid, params),
    }
    return {name: lambda xi, eta, kernel=kernel: kernel(points(xi, eta)) for name, kernel in kernels.items()}


PROBE_SYMBOLS = tuple(_probe_symbols(Params(lam=0.0, period=1.0)))


def _mixed_central_difference(m, coords, active):
    """Nested central differences along the axes listed in ``active``."""
    steps = [_PROBE_REL_STEP * np.abs(coords[ax]) for ax in active]
    total = np.zeros(np.broadcast(*coords).shape, dtype=np.complex128)
    for signs in product((-1.0, 1.0), repeat=len(active)):
        shifted = list(coords)
        parity = 1.0
        for ax, s, h in zip(active, signs, steps):
            shifted[ax] = coords[ax] + s * h
            parity *= s
        total += parity * m(shifted[:3], shifted[3])
    denom = np.ones_like(steps[0])
    for h in steps:
        denom = denom * (2.0 * h)
    return total / denom


def marcinkiewicz_probe(symbol: str, params: Params, resolution: int = 8) -> MultiplierReport:
    """Sample the mixed-derivative boundedness quantity for a continuous symbol.

    For every subset of the four frequency axes, central finite differences
    approximate the mixed first derivative of the symbol and the report
    records the sampled sup of |xi1^e1 xi2^e2 xi3^e3 eta^e4 d^e m| together
    with the plain sup of |m|.  Sample points are log-spaced over
    [1e-2, 1e2] on both sign branches of each axis, which keeps clear of the
    origin.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    symbols = _probe_symbols(params)
    if symbol not in symbols:
        raise ValueError(f"unknown probe symbol {symbol!r}; choose from {PROBE_SYMBOLS}")
    m = symbols[symbol]
    half = np.logspace(-2.0, 2.0, resolution)
    pts = np.concatenate([-half[::-1], half])
    coords = np.meshgrid(pts, pts, pts, pts, indexing="ij", sparse=True)
    base = m(coords[:3], coords[3])
    max_abs = float(np.abs(base).max())
    sup = max_abs
    for eps in product((0, 1), repeat=4):
        active = [ax for ax, e in enumerate(eps) if e]
        if not active:
            continue
        deriv = _mixed_central_difference(m, coords, active)
        weight = np.ones_like(coords[0])
        for ax in active:
            weight = weight * np.abs(coords[ax])
        sup = max(sup, float(np.abs(weight * deriv).max()))
    return MultiplierReport(
        name=symbol, max_abs=max_abs, marcinkiewicz_sup=sup, sample_count=int(base.size)
    )

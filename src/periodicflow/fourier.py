"""Fields on the space-time grid and the transform between node values and modes.

Layout.  Node values are real, so their spectrum is conjugate-symmetric,
c(-m) = conj(c(m)), and only half of it is stored: a real-to-complex
transform (Frigo & Johnson 2005) keeps the x1 modes n1 = 0..N1/2 and the full
range of every other axis, so a scalar spectrum has shape
``grid.spectral_shape`` = (M, N3, N2, N1/2 + 1).  Each stored mode off the
n1 = 0 and n1 = N1/2 planes stands for itself and its conjugate partner, so a
sum over the whole lattice of a symmetric quantity such as |c|^2 is the
half-spectrum sum weighted by 2 off those two planes (``spectral_sum``, with
the weights ``grid.x1_weight``).  Every whole-spectrum sum of the package
uses those weights, so it returns the full-lattice value to rounding.

Normalization.  The forward transform divides by the total node count, so
the (0,0) mode coefficient is the plain space-time grid mean and the inverse
transform is an unweighted exponential sum.  With that normalization the
weighted sum over modes of |coeffs|^2 equals the grid average of |u|^2.
Nyquist planes of every axis are zeroed on each forward transform so that
each surviving mode has an exact conjugate partner on the lattice.

Real-ness.  A half spectrum is real by construction everywhere except on the
n1 = 0 and n1 = N1/2 planes, whose modes pair with modes of the same plane.
Those two planes are the only place an input can break the symmetry, so
``inverse`` checks them alone and raises ``NotHermitian`` when their
conjugate pairs disagree by more than a fixed 1e-10 of the largest
coefficient.  ``forward`` makes the n1 = 0 plane exactly symmetric and every
multiplier of the package preserves that bit for bit, so computed spectra
pass with no defect at all.  ``_FLOOR`` (1e-300), the floor under every data
scale the package divides by, is defined here once.

Transport.  The nonlinear term keeps its convective form (u . grad) u.  The
divergence form would need fewer transforms, but the two forms differ by
aliasing of unresolved tails, and ``pde_residual`` evaluates the convective
form, so it certifies the discrete system the solver actually iterates.

Shared passes.  A multidimensional transform is a sequence of 1-d passes
(Frigo & Johnson 2005), and a spatial derivative is a multiplier along the
space axes only.  ``_derivative_nodes`` therefore inverts several derivative
fields of one spectrum together: one pass over the time axis for all of
them, one x3 pass per distinct x3 order, and a 2-d real transform over
(x2, x1) per field.  The node values of u and its gradient, which the
transport needs on every Picard step, cost 11 one-dimensional passes per
component instead of the 16 of four separate inverse transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np
from scipy import fft as _fft

from .domain import Grid
from .errors import NotHermitian

__all__ = [
    "PhysicalField",
    "SpectralField",
    "forward",
    "inverse",
    "time_mean_part",
    "oscillatory_part",
    "time_derivative",
    "gradient",
    "divergence",
    "spectral_sum",
    "coeff_norm",
]

_AXES = (-4, -3, -2, -1)
_FLOOR = 1e-300
_IMAG_TOL = 1e-10
# Spatial derivative orders (a1, a2, a3) of the gradient, in axis order.
_UNIT_INDICES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# Index pairs (m, -m) along one full axis: index 0 is its own partner, index i
# pairs with N - i, which is the reversed view of 1..N-1.
_MIRROR = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))


def _with_component_axis(values: np.ndarray) -> np.ndarray:
    if values.ndim == 4:
        return values[np.newaxis]
    if values.ndim == 5:
        return values
    raise ValueError(f"field arrays must have 4 or 5 axes, got {values.ndim}")


@dataclass(frozen=True)
class PhysicalField:
    """Real samples on the space-time grid, shape (components, M, N3, N2, N1)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _with_component_axis(np.asarray(self.values, dtype=np.float64))
        if values.shape[1:] != self.grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {self.grid.shape}")
        if values.shape[0] not in (1, 3):
            raise ValueError(f"fields carry 1 or 3 components, got {values.shape[0]}")
        # max propagates NaN and shows +inf; min shows -inf; neither allocates
        if not (np.isfinite(values.max()) and np.isfinite(values.min())):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def components(self) -> int:
        return self.values.shape[0]

    def __add__(self, other: "PhysicalField") -> "PhysicalField":
        _check_same_grid(self, other)
        return PhysicalField(self.grid, self.values + other.values)

    def __sub__(self, other: "PhysicalField") -> "PhysicalField":
        _check_same_grid(self, other)
        return PhysicalField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "PhysicalField":
        return PhysicalField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpectralField:
    """Half-spectrum Fourier coefficients, shape (components,) + grid.spectral_shape."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _with_component_axis(np.asarray(self.coeffs, dtype=np.complex128))
        if coeffs.shape[1:] != self.grid.spectral_shape:
            raise ValueError(
                f"coeffs shape {coeffs.shape} does not match grid {self.grid.spectral_shape}"
            )
        if coeffs.shape[0] not in (1, 3):
            raise ValueError(f"fields carry 1 or 3 components, got {coeffs.shape[0]}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def _partner(plane: np.ndarray) -> np.ndarray:
    """conj(c(-m)) at every m of a plane shaped (components, full frequency axes...)."""
    out = np.empty_like(plane)
    for pairs in product(_MIRROR, repeat=plane.ndim - 1):
        here = (slice(None),) + tuple(p[0] for p in pairs)
        there = (slice(None),) + tuple(p[1] for p in pairs)
        out[here] = np.conj(plane[there])
    return out


def forward(field: PhysicalField) -> SpectralField:
    """Transform node values to half-spectrum coefficients.

    Nyquist planes are zeroed, and the n1 = 0 plane is made exactly
    conjugate-symmetric (the transform leaves it so only to rounding).  Every
    multiplier of the package maps conjugate pairs to conjugate pairs
    bit for bit, so spectra computed from forward transforms stay exactly
    symmetric and ``inverse`` finds no defect in them.
    """
    coeffs = _fft.rfftn(field.values, axes=_AXES, norm="forward", workers=-1)
    m, n3, n2, n1h = field.grid.spectral_shape
    coeffs[:, m // 2] = 0.0
    coeffs[:, :, n3 // 2] = 0.0
    coeffs[:, :, :, n2 // 2] = 0.0
    coeffs[..., n1h - 1] = 0.0
    plane = coeffs[..., 0]
    plane += _partner(plane)
    plane *= 0.5
    return SpectralField(field.grid, coeffs)


def _plane_defect(coeffs: np.ndarray) -> float:
    """Largest |c(m) - conj(c(-m))| over the n1 = 0 and n1 = N1/2 planes.

    ``coeffs`` has a leading component axis, then full frequency axes, then
    the half x1 axis.
    """
    return max(
        float(np.abs(plane - _partner(plane)).max(initial=0.0))
        for plane in (coeffs[..., 0], coeffs[..., -1])
    )


def _check_real(coeffs: np.ndarray) -> None:
    """Raise ``NotHermitian`` unless ``coeffs`` is, to ``_IMAG_TOL``, a real field's half spectrum.

    Only a nonzero defect costs a pass over the whole spectrum, for the scale
    it is judged against.
    """
    defect = _plane_defect(coeffs)
    if defect > 0.0:
        scale = float(np.abs(coeffs).max(initial=0.0))
        if defect > _IMAG_TOL * max(scale, _FLOOR):
            raise NotHermitian(
                f"conjugate-pair defect {defect:.3e} on the n1 = 0 or n1 = N1/2 plane "
                f"exceeds {_IMAG_TOL:.1e} of coefficient magnitude {scale:.3e}"
            )


def _derivative_factor(grid: Grid, alpha: tuple[int, int, int]) -> np.ndarray:
    """Multiplier of the spatial derivative D^alpha, alpha = (a1, a2, a3)."""
    return (1j * grid.xi1) ** alpha[0] * (1j * grid.xi2) ** alpha[1] * (1j * grid.xi3) ** alpha[2]


def _nyquist_free(coeffs: np.ndarray) -> bool:
    """True if ``coeffs`` is zero on the n1 = N1/2 plane and the x2, x3 Nyquist rows of n1 = 0."""
    plane = coeffs[..., 0]
    n3, n2 = plane.shape[-2:]
    return not (coeffs[..., -1].any() or plane[:, :, n3 // 2].any() or plane[..., n2 // 2].any())


def _derivative_nodes(
    spec: SpectralField, orders: Sequence[tuple[int, int, int]]
) -> Iterator[tuple[tuple[int, int, int], np.ndarray]]:
    """Yield ``(alpha, nodes)`` with the real node values of D^alpha ``spec`` for each order.

    The inverse transform of every field shares passes with the others: one
    complex pass over the time axis for all orders, one x3 pass for each
    distinct a3, then a 2-d real transform over (x2, x1) per order.  Fields
    come out grouped by a3, in the given order within a group, one at a
    time; at most the time-pass array and one x3-pass array are held.

    Each field raises ``NotHermitian`` exactly when ``inverse`` of
    ``spec.coeffs * factor`` would.  The factor maps conjugate pairs to
    conjugate pairs bit for bit except where it fails to change sign with the
    mode: on the n1 = N1/2 plane and on the x2 and x3 Nyquist rows of the
    n1 = 0 plane.  So an input with no defect and nothing there yields
    symmetric fields, and only other inputs are checked order by order.
    """
    grid = spec.grid
    coeffs = spec.coeffs
    if _plane_defect(coeffs) > 0.0 or not _nyquist_free(coeffs):
        for alpha in orders:
            _check_real(coeffs * _derivative_factor(grid, alpha))
    n1, n2, _ = grid.n_space
    timed = _fft.ifft(coeffs, axis=1, norm="forward", workers=-1)
    for a3 in dict.fromkeys(alpha[2] for alpha in orders):
        along_x3 = _fft.ifft(
            timed * _derivative_factor(grid, (0, 0, a3)) if a3 else timed,
            axis=2,
            norm="forward",
            overwrite_x=bool(a3),
            workers=-1,
        )
        for alpha in orders:
            if alpha[2] != a3:
                continue
            # a scaled field is a temporary, which the 2-d transform may overwrite
            scaled = alpha[:2] != (0, 0)
            yield alpha, _fft.irfft2(
                along_x3 * _derivative_factor(grid, alpha[:2] + (0,)) if scaled else along_x3,
                s=(n2, n1),
                norm="forward",
                overwrite_x=scaled,
                workers=-1,
            )
        del along_x3


def inverse(spec: SpectralField) -> PhysicalField:
    """Transform half-spectrum coefficients back to real node values.

    The rectangle rule is exact for trigonometric polynomials, so the time
    mean of the returned nodes is the node field of the k = 0 plane alone:
    the steady part of a field needs no transform of its own.

    Raises
    ------
    NotHermitian
        If a conjugate pair on the n1 = 0 or n1 = N1/2 plane disagrees by
        more than 1e-10 times the largest coefficient, which means the
        coefficients are not the spectrum of a real field.
    """
    _check_real(spec.coeffs)
    values = _fft.irfftn(spec.coeffs, s=spec.grid.shape, axes=_AXES, norm="forward", workers=-1)
    return PhysicalField(spec.grid, values)


def time_mean_part(spec: SpectralField) -> SpectralField:
    """Projection onto the k = 0 plane: the time-averaged (steady) part."""
    out = np.zeros_like(spec.coeffs)
    out[:, 0] = spec.coeffs[:, 0]
    return SpectralField(spec.grid, out)


def oscillatory_part(spec: SpectralField) -> SpectralField:
    """Complementary projection onto k != 0: the zero-time-mean part."""
    out = spec.coeffs.copy()
    out[:, 0] = 0.0
    return SpectralField(spec.grid, out)


def time_derivative(spec: SpectralField) -> SpectralField:
    return SpectralField(spec.grid, spec.coeffs * (1j * spec.grid.omega))


def gradient(spec: SpectralField) -> SpectralField:
    """Spatial gradient of a scalar field, returned as a 3-component field."""
    if spec.components != 1:
        raise ValueError("gradient expects a scalar field")
    c = spec.coeffs[0]
    g = spec.grid
    out = np.stack([c * (1j * g.xi1), c * (1j * g.xi2), c * (1j * g.xi3)])
    return SpectralField(g, out)


def divergence(spec: SpectralField) -> SpectralField:
    """Spatial divergence of a 3-component field, returned as a scalar field."""
    if spec.components != 3:
        raise ValueError("divergence expects a 3-component field")
    c = spec.coeffs
    g = spec.grid
    out = c[0] * (1j * g.xi1) + c[1] * (1j * g.xi2) + c[2] * (1j * g.xi3)
    return SpectralField(g, out[np.newaxis])


def spectral_sum(values: np.ndarray, grid: Grid) -> float:
    """Full-lattice sum of a real quantity given on the half spectrum.

    ``values`` ends in the half x1 axis and must be even under m -> -m, as
    |c|^2 or Re(conj(a) b) are for spectra of real fields; each stored plane
    then counts ``grid.x1_weight`` times (twice off n1 = 0 and n1 = N1/2).
    """
    per_plane = values.sum(axis=tuple(range(values.ndim - 1)))
    return float(per_plane @ grid.x1_weight)


def _abs_sq(coeffs: np.ndarray) -> np.ndarray:
    """|coeffs|^2 elementwise, without the square root of np.abs."""
    return np.square(coeffs.real) + np.square(coeffs.imag)


def _lattice_norm(coeffs: np.ndarray, grid: Grid) -> float:
    return math.sqrt(spectral_sum(_abs_sq(coeffs), grid))


def coeff_norm(spec: SpectralField) -> float:
    """2-norm of the coefficients over the whole lattice (the grid rms by Parseval)."""
    return _lattice_norm(spec.coeffs, spec.grid)

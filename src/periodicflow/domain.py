"""Discrete space-time domain: a periodic box crossed with a time circle.

The domain is sampled on a uniform grid with even resolutions.  Spatial
wavenumbers are xi_j = 2*pi*n_j/L_j with integer n_j in [-N_j/2, N_j/2),
temporal frequencies are omega = (2*pi/T)*k with integer k in [-M/2, M/2).
Arrays are laid out time-major, then x3, x2, x1, so a scalar field has shape
(M, N3, N2, N1) and component arrays carry a leading axis.

Coefficients of real fields are stored as a half spectrum: the x1 axis holds
only the modes n1 = 0..N1/2, so a scalar spectrum has shape
(M, N3, N2, N1/2 + 1).  Every other mode is the complex conjugate of a stored
one, c(-k, -n) = conj(c(k, n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Params", "Grid"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Params:
    """Physical constants: drift speed along x1 and the time period (unit viscosity).

    A zero drift speed is legal and degrades to the purely periodic,
    driftless regime; reports flag that case.
    """

    lam: float
    period: float

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError(f"lam (the drift speed) must be finite, got {self.lam!r}")
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError(f"period must be a positive finite number, got {self.period!r}")

    @property
    def driftless(self) -> bool:
        return self.lam == 0.0


def _int_modes(n: int) -> np.ndarray:
    """Integer mode numbers in FFT storage order, Nyquist stored as -n/2."""
    modes = np.arange(n, dtype=np.int64)
    modes[modes >= n // 2] -= n
    return modes


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid with precomputed frequency factors.

    Parameters
    ----------
    box : tuple of three positive floats
        Spatial side lengths (L1, L2, L3).
    n_space : tuple of three even ints >= 4
        Spatial resolutions (N1, N2, N3).
    n_time : even int >= 4
        Temporal resolution M.
    period : positive float
        Time period T.

    Derived arrays (set once, treated as immutable), all 1-d factors or
    broadcastable against half-spectrum coefficients of shape
    ``spectral_shape`` = (M, N3, N2, N1/2 + 1): ``k_modes`` and ``n_modes``
    hold integer mode numbers in storage order (n1 runs 0..N1/2, the other
    axes follow FFT order with the Nyquist mode stored as -N/2); ``omega``,
    ``xi1``, ``xi2``, ``xi3`` and ``xi_sq`` are the frequency factors;
    ``x1_weight`` counts how many lattice modes each stored x1 plane stands
    for (1 on the n1 = 0 and n1 = N1/2 planes, 2 elsewhere).  No array here
    spans all four axes.
    """

    box: tuple[float, float, float]
    n_space: tuple[int, int, int]
    n_time: int
    period: float

    def __post_init__(self):
        box = tuple(float(b) for b in self.box)
        n_space = tuple(int(n) for n in self.n_space)
        if len(box) != 3 or len(n_space) != 3:
            raise ValueError("box and n_space must have three entries")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "n_space", n_space)
        object.__setattr__(self, "n_time", int(self.n_time))
        object.__setattr__(self, "period", float(self.period))

        for lj in self.box:
            if not (math.isfinite(lj) and lj > 0.0):
                raise ValueError(f"box lengths must be positive, got {self.box}")
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError(f"period must be positive, got {self.period}")
        for name, resolutions in (("n_space", self.n_space), ("n_time", (self.n_time,))):
            if any(nj < 4 or nj % 2 != 0 for nj in resolutions):
                raise ValueError(
                    f"{name} resolutions must be even and at least 4, got {getattr(self, name)}"
                )

        n1, n2, n3 = self.n_space
        m = self.n_time
        k_modes = _int_modes(m)
        n_modes = (np.arange(n1 // 2 + 1, dtype=np.int64), _int_modes(n2), _int_modes(n3))
        object.__setattr__(self, "k_modes", k_modes)
        object.__setattr__(self, "n_modes", n_modes)

        omega = (TWO_PI / self.period) * k_modes.astype(np.float64)
        object.__setattr__(self, "omega", omega.reshape(m, 1, 1, 1))
        xi1 = (TWO_PI / box[0]) * n_modes[0].astype(np.float64)
        xi2 = (TWO_PI / box[1]) * n_modes[1].astype(np.float64)
        xi3 = (TWO_PI / box[2]) * n_modes[2].astype(np.float64)
        object.__setattr__(self, "xi1", xi1.reshape(1, 1, 1, n1 // 2 + 1))
        object.__setattr__(self, "xi2", xi2.reshape(1, 1, n2, 1))
        object.__setattr__(self, "xi3", xi3.reshape(1, n3, 1, 1))
        object.__setattr__(self, "xi_sq", self.xi1**2 + self.xi2**2 + self.xi3**2)

        weight = np.full(n1 // 2 + 1, 2.0)
        weight[0] = weight[-1] = 1.0
        object.__setattr__(self, "x1_weight", weight)

    def mode_radius_sq(self) -> np.ndarray:
        """Squared integer radius k^2 + |n|^2 of every stored mode, built on each call."""
        m = self.n_time
        n1h, n2, n3 = (len(modes) for modes in self.n_modes)
        return (
            self.k_modes.reshape(m, 1, 1, 1) ** 2
            + self.n_modes[2].reshape(1, n3, 1, 1) ** 2
            + self.n_modes[1].reshape(1, 1, n2, 1) ** 2
            + self.n_modes[0].reshape(1, 1, 1, n1h) ** 2
        )

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """(M, N3, N2, N1): the storage shape of one scalar field."""
        n1, n2, n3 = self.n_space
        return (self.n_time, n3, n2, n1)

    @property
    def spectral_shape(self) -> tuple[int, int, int, int]:
        """(M, N3, N2, N1/2 + 1): the storage shape of one scalar half spectrum."""
        n1, n2, n3 = self.n_space
        return (self.n_time, n3, n2, n1 // 2 + 1)

    @property
    def size(self) -> int:
        n1, n2, n3 = self.n_space
        return self.n_time * n1 * n2 * n3

    @property
    def volume(self) -> float:
        """Measure of the box; the time circle carries normalized measure."""
        return self.box[0] * self.box[1] * self.box[2]

    @property
    def xi(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.xi1, self.xi2, self.xi3)

    def coordinate_fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Full-shape coordinate arrays (X1, X2, X3, T) for sampling callables."""
        m = self.n_time
        n1, n2, n3 = self.n_space
        shape = self.shape
        return (
            np.broadcast_to((np.arange(n1) * (self.box[0] / n1)).reshape(1, 1, 1, n1), shape),
            np.broadcast_to((np.arange(n2) * (self.box[1] / n2)).reshape(1, 1, n2, 1), shape),
            np.broadcast_to((np.arange(n3) * (self.box[2] / n3)).reshape(1, n3, 1, 1), shape),
            np.broadcast_to((np.arange(m) * (self.period / m)).reshape(m, 1, 1, 1), shape),
        )


def _check_period(params: Params, grid: Grid) -> None:
    """Raise ``ValueError`` unless ``params`` carries the period of ``grid``, which is the one solved for."""
    if params.period != grid.period:
        raise ValueError(f"params period {params.period!r} does not match the grid period {grid.period!r}")

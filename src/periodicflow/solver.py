"""Fixed-point solution of the time-periodic flow problem with drift.

One diagonal resolvent application covers the steady (k = 0) and oscillatory
(k != 0) frequency planes at once, so each iteration is

    u_next = R[ P_H f - P_H (u . grad) u ]

with P_H the divergence-free projection and R the inverse of
d/dt - Lap - lam d/dx1 on mean-free fields.  The pressure is recovered
afterwards from the gradient part of f - (u . grad) u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import Grid, Params, _check_period
from .errors import Diverging, NoConvergence, NotAGradient
from .fourier import (
    _FLOOR,
    PhysicalField,
    SpectralField,
    _lattice_norm,
    coeff_norm,
    forward,
    gradient,
    oscillatory_part,
    time_mean_part,
)
from .multipliers import _longitudinal, helmholtz, oseen_inverse
from .nonlinear import convective

__all__ = [
    "SolverConfig",
    "Solution",
    "split",
    "picard_step",
    "solve",
    "recover_pressure",
    "pde_residual",
]

_GRADIENT_TOL = 1e-9
_GROWTH_LIMIT = 10.0
_GUARD_STREAK = 3
_BLOWUP = 1e120


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls.

    ``initial_guess`` of None starts from rest; a field starts from there.
    The solve aborts with ``Diverging`` once the ratio of consecutive update
    norms exceeds 10 for three steps in a row.
    """

    tol: float = 1e-10
    max_iter: int = 200
    initial_guess: SpectralField | PhysicalField | None = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class Solution:
    """Converged velocity and pressure with the iteration record.

    The steady part ``v`` and the oscillatory part ``w`` of ``u`` are built
    on each access.  ``pde_residual`` is ``pde_residual(u, p, f, params)`` of
    the returned velocity and pressure.
    """

    u: SpectralField
    p: SpectralField
    iterations: int
    update_history: tuple[float, ...] = field(repr=False)
    contraction_estimate: float
    pde_residual: float

    @property
    def v(self) -> SpectralField:
        return time_mean_part(self.u)

    @property
    def w(self) -> SpectralField:
        return oscillatory_part(self.u)


def split(u: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Steady / oscillatory decomposition; the parts recombine exactly."""
    return time_mean_part(u), oscillatory_part(u)


def picard_step(u: SpectralField, f_hat: SpectralField, params: Params) -> SpectralField:
    """One fixed-point update: resolvent of the projected forcing minus transport.

    P_H is linear, so the forcing and the transport are projected together,
    once per step.
    """
    return oseen_inverse(helmholtz(f_hat - convective(u)), params)


def _as_spectral(f: SpectralField | PhysicalField) -> SpectralField:
    return f if isinstance(f, SpectralField) else forward(f)


def _checked_spectrum(field: SpectralField | PhysicalField, name: str, components: int) -> SpectralField:
    """Spectrum of ``field``, checked to carry ``components`` components; ``name`` labels the error."""
    if field.components != components:
        noun = "component" if components == 1 else "components"
        raise ValueError(f"{name} must have {components} {noun}, got {field.components}")
    return _as_spectral(field)


def _update_ratios(history: tuple[float, ...]) -> list[float]:
    return [
        history[i] / history[i - 1]
        for i in range(1, len(history))
        if history[i - 1] > 0.0
    ]


def solve(
    f: SpectralField | PhysicalField,
    params: Params,
    grid: Grid,
    config: SolverConfig = SolverConfig(),
) -> Solution:
    """Iterate to the time-periodic solution driven by ``f``.

    The converged iterate is transported once, and both the pressure and the
    momentum residual are derived from that transport term.

    Raises
    ------
    ValueError
        If the forcing has other than 3 components or lives on another grid,
        or ``params.period`` does not match ``grid``.
    MeanModeNonzero
        If the solenoidal part of the forcing carries a space-time mean.
    Diverging
        If update norms grow persistently or stop being finite.
    NoConvergence
        If ``config.max_iter`` iterations pass without meeting ``config.tol``.
    """
    f_hat = _checked_spectrum(f, "forcing", 3)
    if f_hat.grid != grid:
        raise ValueError("forcing grid does not match the requested grid")
    _check_period(params, grid)

    if config.initial_guess is None:
        u = SpectralField(grid, np.zeros((3,) + grid.spectral_shape, dtype=np.complex128))
    else:
        u = _as_spectral(config.initial_guess)
        if u.grid != grid:
            raise ValueError("initial guess grid does not match the requested grid")

    history: list[float] = []
    growth_streak = 0
    converged = False
    prev_diff = 0.0
    for _ in range(config.max_iter):
        u_next = picard_step(u, f_hat, params)
        diff = coeff_norm(u_next - u)
        norm = coeff_norm(u_next)
        if not (math.isfinite(diff) and math.isfinite(norm)):
            raise Diverging("iterates stopped being finite", tuple(history))
        delta = diff / max(norm, _FLOOR)
        # The guard watches absolute update norms: during blow-up the relative
        # update saturates near 1 while the absolute one keeps multiplying.
        if prev_diff > 0.0 and diff / prev_diff > _GROWTH_LIMIT:
            growth_streak += 1
        else:
            growth_streak = 0
        prev_diff = diff
        history.append(delta)
        u = u_next
        if growth_streak >= _GUARD_STREAK:
            raise Diverging(
                f"update norm grew by more than x{_GROWTH_LIMIT:g} for "
                f"{_GUARD_STREAK} consecutive steps; forcing is outside the contraction regime",
                tuple(history),
            )
        if norm > _BLOWUP:
            raise Diverging(
                f"iterate norm passed {_BLOWUP:.0e}; stopping before overflow",
                tuple(history),
            )
        if delta < config.tol:
            converged = True
            break
    if not converged:
        raise NoConvergence(
            f"no convergence to {config.tol:.1e} within {config.max_iter} iterations",
            tuple(history),
        )

    ratios = _update_ratios(tuple(history))
    contraction = max(ratios[-3:]) if ratios else 0.0
    transport = convective(u)
    p = _pressure(f_hat - transport)
    residual = _residual(u, p, f_hat, transport, params)
    return Solution(
        u=u,
        p=p,
        iterations=len(history),
        update_history=tuple(history),
        contraction_estimate=contraction,
        pde_residual=residual,
    )


def recover_pressure(u: SpectralField, f_hat: SpectralField) -> SpectralField:
    """Pressure from the gradient part of f - (u . grad) u.

    The complementary projection I - P_H maps every mode onto the span of
    i xi, so g = (I - P_H)(f - transport) is a spectral gradient and
    p_hat = -i xi . g_hat / |xi|^2 inverts it; the spatial-mean plane of the
    pressure is fixed to zero at every temporal frequency.

    Raises
    ------
    NotAGradient
        If the transverse residue of g exceeds 1e-9 relative to
        the magnitude of f - transport (numerical corruption; cannot happen
        for finite input).  The residue is measured against the full data,
        not against g: for solenoidal data g itself is rounding noise.
    """
    return _pressure(f_hat - convective(u))


def _pressure(rhs: SpectralField) -> SpectralField:
    """``recover_pressure`` from the data rhs = f - (u . grad) u."""
    c = (rhs - helmholtz(rhs)).coeffs
    p_field = SpectralField(rhs.grid, -1j * _longitudinal(c, rhs.grid)[np.newaxis])
    scale = float(np.abs(rhs.coeffs).max(initial=0.0))
    residue = float(np.abs(gradient(p_field).coeffs - c).max(initial=0.0))
    if residue > _GRADIENT_TOL * max(scale, _FLOOR):
        raise NotAGradient(
            f"transverse residue {residue:.3e} exceeds {_GRADIENT_TOL:.1e} "
            f"of data scale {scale:.3e}"
        )
    return p_field


def pde_residual(
    u: SpectralField,
    p: SpectralField,
    f: SpectralField | PhysicalField,
    params: Params,
) -> float:
    """Relative space-time 2-norm of the momentum equation residual.

    All derivative terms are spectral and the transport term is the solver's
    dealiased convective form, so a converged solution certifies the discrete
    system it actually solved.  The residual is normalized by the largest
    term magnitude; identically zero data gives zero.
    """
    return _residual(u, p, _checked_spectrum(f, "forcing", 3), convective(u), params)


def _residual(
    u: SpectralField,
    p: SpectralField,
    f_hat: SpectralField,
    transport: SpectralField,
    params: Params,
) -> float:
    """``pde_residual`` with the transport term (u . grad) u given.

    The terms are added into one array as they are formed, so at most one
    of them is held besides the sum.
    """
    grid = u.grid

    def terms():
        yield u.coeffs * (1j * grid.omega)
        yield u.coeffs * grid.xi_sq
        yield -params.lam * (1j * grid.xi1) * u.coeffs
        yield gradient(p).coeffs
        yield transport.coeffs
        yield -f_hat.coeffs

    residual = np.zeros_like(u.coeffs)
    denom = 0.0
    for term in terms():
        residual += term
        denom = max(denom, _lattice_norm(term, grid))
    return _lattice_norm(residual, grid) / max(denom, _FLOOR)

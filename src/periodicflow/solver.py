"""Fixed-point solution of the time-periodic flow problem with drift.

One diagonal resolvent application covers the steady (k = 0) and oscillatory
(k != 0) frequency planes at once, so each iteration is

    u_next = R[ P_H f - P_H (u . grad) u ]

with P_H the divergence-free projection and R the inverse of
d/dt - Lap - lam d/dx1 on mean-free fields.  A step computes f - B(u), its
projection and its resolvent in the one array the transport B(u) returns; a
step from rest skips the transport, since B(0) = 0.  The pressure is recovered
afterwards as p_hat = -i xi . (f_hat - B_hat(u)) / |xi|^2, the longitudinal
scale of the same projection.  The pressure and the momentum residual that
certifies (u, p) are formed one time node at a time from u's final
transport, so neither holds a whole-array temporary besides its inputs.
No frequency factor is read here: the residual's Oseen terms and gradient
come from ``multipliers`` and ``fourier``, as the resolvent's symbol does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import Grid, Params, _check_period
from .errors import Diverging, NoConvergence
from .fourier import (
    _FLOOR,
    PhysicalField,
    SpectralField,
    _gradient,
    _lattice_norm,
    _relative_sum,
    coeff_norm,
    forward,
    oscillatory_part,
    time_mean_part,
)
from .multipliers import _longitudinal, _oseen_terms, _project_in_place, _resolve_in_place
from .nonlinear import convective

__all__ = [
    "SolverConfig",
    "Solution",
    "picard_step",
    "solve",
    "recover_pressure",
    "pde_residual",
]

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
        if not (self.max_iter >= 1 and self.max_iter % 1 == 0):
            raise ValueError(f"max_iter must be a whole number, at least 1, got {self.max_iter!r}")
        object.__setattr__(self, "max_iter", int(self.max_iter))


@dataclass(frozen=True)
class Solution:
    """Converged velocity and pressure with the iteration record.

    The steady part ``v`` and the oscillatory part ``w`` of ``u`` are built
    on each access.  ``pde_residual`` is ``pde_residual(u, p, f, params)`` of
    the returned velocity and pressure.  ``contraction_estimate`` is the
    largest of the last 3 ratios of consecutive update norms: the Picard rate in
    the subspace the forcing excites, not rho(D Phi), so it can read below 1 where
    Phi does not contract (0.871 against rho = 1.044 at ``analytic`` 2.2 on 12^4).
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


def picard_step(
    u: SpectralField, f_hat: SpectralField | PhysicalField, params: Params
) -> SpectralField:
    """One fixed-point update: resolvent of the projected forcing minus transport.

    P_H is linear, so the forcing and the transport are projected together,
    once per step, in place on the transport's array (see the module notes);
    the result is ``oseen_inverse(helmholtz(f_hat - convective(u)), params)``
    bit for bit, ``MeanModeNonzero`` judged against the same scale.  Node
    values as forcing are transformed first.
    """
    f_hat = _checked_spectrum(f_hat, "forcing", 3, u.grid)
    _check_period(params, u.grid)
    rhs = convective(u).coeffs if u.coeffs.any() else np.zeros_like(f_hat.coeffs)
    np.subtract(f_hat.coeffs, rhs, out=rhs)
    return SpectralField(u.grid, _resolve_in_place(_project_in_place(rhs, u.grid), u.grid, params))


def _checked_spectrum(
    field: SpectralField | PhysicalField, name: str, components: int, grid: Grid | None = None
) -> SpectralField:
    """Spectrum of ``field``, checked to carry ``components`` components and lie on ``grid`` if given."""
    if field.components != components:
        noun = "component" if components == 1 else "components"
        raise ValueError(f"{name} must have {components} {noun}, got {field.components}")
    if grid is not None and field.grid != grid:
        raise ValueError(f"{name} lies on {field.grid}, not on {grid}")
    return field if isinstance(field, SpectralField) else forward(field)


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
        If the forcing or the initial guess has other than 3 components or
        lives on another grid, or ``params.period`` does not match ``grid``.
    MeanModeNonzero
        If the solenoidal part of the forcing carries a space-time mean.
    Diverging
        If update norms grow persistently or stop being finite.
    NoConvergence
        If ``config.max_iter`` iterations pass without meeting ``config.tol``.
    """
    f_hat = _checked_spectrum(f, "forcing", 3, grid)

    if config.initial_guess is None:
        u = SpectralField(grid, np.zeros((3,) + grid.spectral_shape, dtype=np.complex128))
    else:
        # Copied once, so that every iterate the loop overwrites is this solve's own array.
        u = SpectralField(grid, _checked_spectrum(config.initial_guess, "initial guess", 3, grid).coeffs.copy())

    history: list[float] = []
    growth_streak = 0
    prev_diff = 0.0
    for _ in range(config.max_iter):
        u_next = picard_step(u, f_hat, params)
        # Into the spent iterate: a fresh array per update let glibc's default heap
        # trim and fault in 2.4 MB again on every other step of a ``picard-aniso`` solve.
        diff = _lattice_norm(np.subtract(u_next.coeffs, u.coeffs, out=u.coeffs), grid)
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
            break
    else:
        raise NoConvergence(
            f"no convergence to {config.tol:.1e} within {config.max_iter} iterations",
            tuple(history),
        )

    ratios = [later / earlier for earlier, later in zip(history, history[1:]) if earlier > 0.0]
    contraction = max(ratios[-3:]) if ratios else 0.0
    transport = convective(u)
    p = _pressure(f_hat, transport)
    residual = _residual(u, p, f_hat, transport, params)
    return Solution(
        u=u,
        p=p,
        iterations=len(history),
        update_history=tuple(history),
        contraction_estimate=contraction,
        pde_residual=residual,
    )


def recover_pressure(
    u: SpectralField | PhysicalField, f_hat: SpectralField | PhysicalField
) -> SpectralField:
    """Pressure p_hat = -i xi . g_hat / |xi|^2 of the data g = f - (u . grad) u.

    The divergence of the momentum equation gives Lap p = div g, and
    xi . g_hat / |xi|^2 is the longitudinal scale of the Helmholtz projection,
    so grad p + P_H g = g holds to rounding by construction.  The
    spatial-mean plane of the pressure is zero at every temporal frequency.
    Node values of u or f are transformed first.
    """
    u = _checked_spectrum(u, "velocity", 3)
    return _pressure(_checked_spectrum(f_hat, "forcing", 3, u.grid), convective(u))


def _pressure(f_hat: SpectralField, transport: SpectralField) -> SpectralField:
    """``recover_pressure`` with the transport term (u . grad) u given, one time node at a time.

    p[0, t] = -i ``_longitudinal``(f - B) at node t: the same operations per
    mode as on whole arrays, so the same bits, with no whole-array difference.
    """
    grid = f_hat.grid
    p = np.empty((1,) + grid.spectral_shape, dtype=np.complex128)
    for t in range(grid.n_time):
        at = (slice(None), slice(t, t + 1))
        p[0, t : t + 1] = -1j * _longitudinal(f_hat.coeffs[at] - transport.coeffs[at], grid)
    return SpectralField(grid, p)


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
    u = _checked_spectrum(u, "velocity", 3)
    p = _checked_spectrum(p, "pressure", 1, u.grid)
    _check_period(params, u.grid)
    return _residual(u, p, _checked_spectrum(f, "forcing", 3, u.grid), convective(u), params)


def _residual(
    u: SpectralField,
    p: SpectralField,
    f_hat: SpectralField,
    transport: SpectralField,
    params: Params,
) -> float:
    """``pde_residual`` with the transport term (u . grad) u given: ``fourier._relative_sum`` of its terms.

    The six terms i omega u, |xi|^2 u, -lam i xi1 u, i xi p, the transport and -f are formed one
    time node at a time, from ``multipliers._oseen_terms`` and ``fourier._gradient``.
    """
    grid = u.grid

    def terms(node: slice):
        u_t = u.coeffs[:, node]
        time, laplacian, drift = _oseen_terms(grid, params, node)
        yield u_t * time
        yield u_t * laplacian
        yield drift * u_t
        yield _gradient(p.coeffs[0, node], grid)
        yield transport.coeffs[:, node]
        yield -f_hat.coeffs[:, node]

    return _relative_sum(terms, grid)

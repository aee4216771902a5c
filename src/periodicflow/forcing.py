"""Forcing construction: manufactured solutions, named presets, seeded random fields.

A manufactured pair (u*, p*) is sampled on the grid and the forcing

    f = du*/dt - Lap u* - lam d(u*)/dx1 + grad p* + (u* . grad) u*

is assembled term by term from the samples, derivatives taken spectrally and
the transport product taken pointwise without truncation.  Solving with this
f must return u* whenever the amplitude sits inside the contraction regime.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .domain import Grid, Params, _check_period
from .errors import NotSolenoidal
from .fourier import (
    _FLOOR,
    _UNIT_INDICES,
    PhysicalField,
    SpectralField,
    _derivative_nodes,
    coeff_norm,
    divergence,
    forward,
    gradient,
    inverse,
    laplacian,
    spatial_derivative,
    time_derivative,
)
from .multipliers import helmholtz

__all__ = [
    "manufactured",
    "manufactured_preset",
    "random_smooth",
    "PRESET_NAMES",
]

VectorCallable = Callable[..., Sequence[np.ndarray]]
ScalarCallable = Callable[..., np.ndarray]

PRESET_NAMES = ("trig", "analytic", "steady")

_PERIODICITY_TOL = 1e-10


def _periodic_samples(fn: Callable, grid: Grid, is_vector: bool) -> PhysicalField:
    """Samples of ``fn`` on the nodes, after checking that it is periodic on the box and period.

    The unshifted evaluation of the check is the sample, so each callable
    runs five times: once on the nodes and once per shifted axis.
    """
    x1, x2, x3, t = grid.coordinate_fields()
    base = fn(x1, x2, x3, t)
    shifts = (
        (x1 + grid.box[0], x2, x3, t),
        (x1, x2 + grid.box[1], x3, t),
        (x1, x2, x3 + grid.box[2], t),
        (x1, x2, x3, t + grid.period),
    )
    names = ("x1", "x2", "x3", "t")
    if is_vector:
        base_arrs = [np.asarray(c, dtype=np.float64) for c in base]
        scale = max(float(np.abs(c).max(initial=0.0)) for c in base_arrs)
    else:
        base_arrs = [np.asarray(base, dtype=np.float64)]
        scale = float(np.abs(base_arrs[0]).max(initial=0.0))
    for shifted_coords, name in zip(shifts, names):
        moved = fn(*shifted_coords)
        moved_arrs = [np.asarray(c) for c in moved] if is_vector else [np.asarray(moved)]
        mismatch = max(
            float(np.abs(a - b).max(initial=0.0)) for a, b in zip(base_arrs, moved_arrs)
        )
        if mismatch > _PERIODICITY_TOL * max(scale, 1.0):
            raise ValueError(
                f"analytic field is not periodic in {name}: boundary mismatch "
                f"{mismatch:.3e} exceeds {_PERIODICITY_TOL:.1e} of scale {scale:.3e}"
            )
    return PhysicalField(grid, np.stack([np.broadcast_to(a, grid.shape) for a in base_arrs]))


def _raw_transport(u_hat: SpectralField, u_phys: np.ndarray) -> SpectralField:
    """Pointwise (u . grad) u from the samples, no dealiasing truncation.

    The advecting velocity is the samples ``u_phys`` themselves, not the
    nodes of ``u_hat``: ``forward`` zeroes Nyquist planes, so the two differ
    wherever the samples carry Nyquist content, and ``convective`` would
    change the forcing there (besides truncating the product).
    """
    g = u_hat.grid
    out = np.zeros((3,) + g.shape, dtype=np.float64)
    for alpha, du_j in _derivative_nodes(u_hat, _UNIT_INDICES):
        du_j *= u_phys[alpha.index(1)]
        out += du_j
    return forward(PhysicalField(g, out))


def manufactured(
    u_star: VectorCallable,
    p_star: ScalarCallable,
    params: Params,
    grid: Grid,
    solenoidal_tol: float = 1e-10,
) -> tuple[PhysicalField, PhysicalField, PhysicalField]:
    """Assemble the forcing that makes (u*, p*) an exact solution.

    Returns (f, u*, p*) sampled on the grid.  Rejects a ``params.period``
    other than the grid's, callables that are not periodic on the box and
    period, and velocity fields whose spectral divergence is not negligible.
    """
    _check_period(params, grid)
    u_field = _periodic_samples(u_star, grid, is_vector=True)
    p_field = _periodic_samples(p_star, grid, is_vector=False)
    u_hat = forward(u_field)
    p_hat = forward(p_field)

    scale = float(np.abs(u_hat.coeffs).max(initial=0.0))
    defect = float(np.abs(divergence(u_hat).coeffs).max(initial=0.0)) / max(scale, _FLOOR)
    if defect > solenoidal_tol:
        raise NotSolenoidal(
            f"manufactured velocity has relative spectral divergence "
            f"{defect:.3e}, above {solenoidal_tol:.1e}; "
            "use a curl-based recipe"
        )

    f_hat = (
        time_derivative(u_hat)
        - laplacian(u_hat)
        - params.lam * spatial_derivative(u_hat, axis=1)
        + gradient(p_hat)
        + _raw_transport(u_hat, u_field.values)
    )
    # Every term of the continuum forcing has zero space-time mean; after
    # sampling, unresolved tails of the transport product can alias a tiny
    # mean back in.  Remove it so the forcing stays inside the solvable class.
    coeffs = f_hat.coeffs.copy()
    coeffs[:, 0, 0, 0, 0] = 0.0
    return inverse(SpectralField(grid, coeffs)), u_field, p_field


def manufactured_preset(
    name: str, amplitude: float, grid: Grid
) -> tuple[VectorCallable, ScalarCallable]:
    """Named analytic solution pairs, frequency-matched to the grid's box and period.

    ``trig``      band-limited curl field, exactly representable at modest
                  resolutions; the default verification target.
    ``analytic``  entire-function variant with a full (geometrically
                  decaying) spectrum, for refinement studies.
    ``steady``    time-independent curl field; its forcing lives on k = 0.
    """
    a1 = 2.0 * math.pi / grid.box[0]
    a2 = 2.0 * math.pi / grid.box[1]
    a3 = 2.0 * math.pi / grid.box[2]
    w0 = 2.0 * math.pi / grid.period
    eps = float(amplitude)

    if name == "trig":
        # Vector potential (0, 0, psi) with psi = sin(a1 x1) sin(a2 x2) cos(w0 t).

        def u_star(x1, x2, x3, t):
            ct = np.cos(w0 * t)
            return (
                eps * a2 * np.sin(a1 * x1) * np.cos(a2 * x2) * ct,
                -eps * a1 * np.cos(a1 * x1) * np.sin(a2 * x2) * ct,
                np.zeros(np.broadcast(x1, x2, x3, t).shape),
            )

        def p_star(x1, x2, x3, t):
            return eps * np.cos(a1 * x1) * np.sin(w0 * t) + 0.0 * (x2 + x3)

        return u_star, p_star

    if name == "analytic":
        # Vector potential (0, phi, psi) with an entire factor exp(sin(a1 x1)),
        # so the velocity spectrum decays geometrically but never terminates.

        def u_star(x1, x2, x3, t):
            ct = np.cos(w0 * t)
            e = np.exp(np.sin(a1 * x1))
            psi_2 = a2 * e * np.cos(a2 * x2) * np.cos(a3 * x3)
            psi_1 = a1 * np.cos(a1 * x1) * e * np.sin(a2 * x2) * np.cos(a3 * x3)
            phi_3 = a3 * np.sin(a1 * x1) * np.cos(a3 * x3)
            phi_1 = a1 * np.cos(a1 * x1) * np.sin(a3 * x3)
            return (
                eps * (psi_2 - phi_3) * ct,
                -eps * psi_1 * ct,
                eps * phi_1 * ct,
            )

        def p_star(x1, x2, x3, t):
            return eps * np.cos(a1 * x1) * np.cos(a2 * x2) * np.sin(w0 * t) + 0.0 * x3

        return u_star, p_star

    if name == "steady":

        def u_star(x1, x2, x3, t):
            return (
                eps * a2 * np.sin(a1 * x1) * np.cos(a2 * x2) + 0.0 * (x3 + t),
                -eps * a1 * np.cos(a1 * x1) * np.sin(a2 * x2) + 0.0 * (x3 + t),
                np.zeros(np.broadcast(x1, x2, x3, t).shape),
            )

        def p_star(x1, x2, x3, t):
            return eps * np.cos(a1 * x1) + 0.0 * (x2 + x3 + t)

        return u_star, p_star

    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def random_smooth(seed: int, amplitude: float, cutoff_shell: int, grid: Grid) -> PhysicalField:
    """Seeded, solenoidal, band-limited random velocity field.

    White noise is sampled on the nodes with a counter-based generator,
    transformed, restricted to modes with integer radius at most
    ``cutoff_shell``, projected onto divergence-free fields with the
    space-time mean removed, and rescaled so its coefficient 2-norm equals
    ``amplitude`` exactly linearly.
    """
    if cutoff_shell < 1:
        raise ValueError("cutoff_shell must be at least 1")
    rng = np.random.Generator(np.random.Philox(seed))
    noise = rng.standard_normal(size=(3,) + grid.shape)
    c = forward(PhysicalField(grid, noise))
    keep = grid.mode_radius_sq() <= cutoff_shell * cutoff_shell

    coeffs = np.where(keep, c.coeffs, 0.0)
    coeffs[:, 0, 0, 0, 0] = 0.0
    sol = helmholtz(SpectralField(grid, coeffs))
    norm = coeff_norm(sol)
    if norm == 0.0:
        raise ValueError("random field vanished after projection; enlarge cutoff_shell")
    return inverse(SpectralField(grid, sol.coeffs * (float(amplitude) / norm)))

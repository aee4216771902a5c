"""Forcing construction: manufactured solutions, named presets, seeded random fields.

A manufactured pair (u*, p*) is sampled on the grid and the forcing

    f = du*/dt - Lap u* - lam d(u*)/dx1 + grad p* + (u* . grad) u*

is assembled from the solver's own operators: ``multipliers._oseen_symbol``
|xi|^2 + i(omega - lam xi1) for the first three terms, ``fourier._gradient``
i xi p*, and ``fourier._transport`` for the last, advected by the samples and
not truncated.  The solenoidal check takes ``fourier._divergence``; no symbol
is formed here.  Solving with this f must return u* whenever the amplitude
sits inside the contraction regime.

Memory.  Besides the spectra of the samples, the transport's array is the
one whole spectrum the build makes: the linear terms are added into it one
time node at a time, and the solenoidal defect and the comparisons of the
periodicity check are taken node by node too.  The spectra of u* and p*
are dropped before the forcing is inverted.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .domain import Grid, Params, _check_period
from .errors import NotSolenoidal
from .fourier import (
    _FLOOR,
    PhysicalField,
    SpectralField,
    _divergence,
    _gradient,
    _lattice_norm,
    _transport,
    forward,
    inverse,
)
from .multipliers import _oseen_symbol, _project_in_place

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


def _sup_distance(a: np.ndarray, b: np.ndarray | float) -> float:
    """max |a - b| over the broadcast of ``a`` and ``b``, formed one leading index at a time."""
    a, b = np.broadcast_arrays(a, b)
    if a.ndim == 0:
        return float(abs(a - b))
    return max(float(np.abs(x - y).max(initial=0.0)) for x, y in zip(a, b))


def _periodic_samples(fn: Callable, grid: Grid, is_vector: bool) -> PhysicalField:
    """Samples of ``fn`` on the nodes, after checking that it is periodic on the box and period.

    ``fn`` gets the open coordinate axes, so each function of one coordinate
    runs on that axis alone.  The unshifted evaluation of the check is the
    sample; each of the four shifted evaluations is compared with it at every
    node, because the comparison broadcasts like the result, one leading
    index (one time node of a full-size result) at a time.
    """
    coords = grid.coordinate_fields()

    def arrays(value) -> list[np.ndarray]:
        return [np.asarray(c, dtype=np.float64) for c in (value if is_vector else (value,))]

    base = arrays(fn(*coords))
    scale = max(_sup_distance(a, 0.0) for a in base)
    for axis, (name, length) in enumerate(zip(("x1", "x2", "x3", "t"), (*grid.box, grid.period))):
        moved = arrays(fn(*(c + length if i == axis else c for i, c in enumerate(coords))))
        mismatch = max(_sup_distance(a, b) for a, b in zip(base, moved))
        del moved  # before the next evaluation is made, not after
        if mismatch > _PERIODICITY_TOL * max(scale, 1.0):
            raise ValueError(
                f"analytic field is not periodic in {name}: boundary mismatch "
                f"{mismatch:.3e} exceeds {_PERIODICITY_TOL:.1e} of scale {scale:.3e}"
            )
    return PhysicalField(grid, np.stack([np.broadcast_to(a, grid.shape) for a in base]))


def _relative_divergence(u_hat: SpectralField) -> float:
    """max |xi . u_hat| over max |u_hat|, both taken one time node at a time."""
    grid = u_hat.grid
    scale = defect = 0.0
    for t in range(grid.n_time):
        u_t = u_hat.coeffs[:, t : t + 1]
        scale = max(scale, float(np.abs(u_t).max(initial=0.0)))
        defect = max(defect, float(np.abs(_divergence(u_t, grid)).max(initial=0.0)))
    return defect / max(scale, _FLOOR)


def _add_linear_terms(out: np.ndarray, u_hat: SpectralField, p_hat: SpectralField, params: Params) -> None:
    """Add du/dt - Lap u - lam du/dx1 + grad p into ``out``, one time node at a time.

    Node t of ``out`` becomes (u sym + i xi p) + out with sym the Oseen symbol
    at node t: the operations of the whole-array sum
    ``oseen_apply(u) + _gradient(p) + out``, in its order, so its bits.
    """
    grid = u_hat.grid
    for t in range(grid.n_time):
        node = slice(t, t + 1)
        linear = u_hat.coeffs[:, node] * _oseen_symbol(grid, params, node)
        linear += _gradient(p_hat.coeffs[0, node], grid)
        np.add(linear, out[:, node], out=out[:, node])


def manufactured(
    u_star: VectorCallable,
    p_star: ScalarCallable,
    params: Params,
    grid: Grid,
    solenoidal_tol: float = 1e-10,
) -> tuple[PhysicalField, PhysicalField, PhysicalField]:
    """Assemble the forcing that makes (u*, p*) an exact solution.

    The callables receive the open coordinate axes x1, x2, x3, t of
    ``grid.coordinate_fields()`` and return arrays or scalars (three of them
    for u*) that broadcast to ``grid.shape``.  Returns (f, u*, p*) sampled on
    the grid.  Rejects a NaN ``solenoidal_tol`` (``ValueError``, before
    anything is sampled), a ``params.period`` other than the grid's,
    callables that are not periodic on the box and period, and velocity
    fields whose spectral divergence is not negligible.
    """
    if math.isnan(solenoidal_tol):
        raise ValueError("solenoidal_tol must not be NaN, which would pass every divergence")
    _check_period(params, grid)
    u_field = _periodic_samples(u_star, grid, is_vector=True)
    p_field = _periodic_samples(p_star, grid, is_vector=False)
    u_hat = forward(u_field)
    defect = _relative_divergence(u_hat)
    if defect > solenoidal_tol:
        raise NotSolenoidal(
            f"manufactured velocity has relative spectral divergence "
            f"{defect:.3e}, above {solenoidal_tol:.1e}; "
            "use a curl-based recipe"
        )

    # The raw samples advect, not the nodes of their spectrum, which ``forward`` strips of Nyquist content.
    f_hat = _transport(u_hat, u_field.values)
    # p* is transformed after the transport, whose temporaries then have its room
    p_hat = forward(p_field)
    _add_linear_terms(f_hat.coeffs, u_hat, p_hat, params)
    del u_hat, p_hat
    # Every term of the continuum forcing has zero space-time mean; after
    # sampling, unresolved tails of the transport product can alias a tiny
    # mean back in.  Remove it so the forcing stays inside the solvable class.
    f_hat.coeffs[:, 0, 0, 0, 0] = 0.0
    return inverse(f_hat, out=f_hat.coeffs), u_field, p_field


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
    ``amplitude`` exactly linearly.  A negative or fractional seed, a
    non-finite amplitude or a cutoff below 1 or NaN raises ``ValueError``
    before anything is sampled; an infinite cutoff keeps every mode.
    """
    if not (seed >= 0 and seed % 1 == 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    if not cutoff_shell >= 1:
        raise ValueError(f"cutoff_shell must be at least 1, got {cutoff_shell!r}")
    rng = np.random.Generator(np.random.Philox(int(seed)))
    # masked, projected and scaled in place: no whole copy of the spectrum is made
    c = forward(PhysicalField(grid, rng.standard_normal(size=(3,) + grid.shape))).coeffs
    np.copyto(c, 0.0, where=grid.mode_radius_sq() > cutoff_shell * cutoff_shell)
    c[:, 0, 0, 0, 0] = 0.0
    _project_in_place(c, grid)
    norm = _lattice_norm(c, grid)
    if norm == 0.0:
        raise ValueError("random field vanished after projection; enlarge cutoff_shell")
    c *= float(amplitude) / norm
    return inverse(SpectralField(grid, c), out=c)

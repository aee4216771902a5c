"""Verification diagnostics: norms, energy bookkeeping, decay and identity checks.

Space-time integrals use the uniform-grid rectangle rule, which is spectrally
accurate for smooth periodic fields.  The underlying measure is dx dt/T, so
the total measure of the domain equals the box volume and time averages carry
no extra factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Grid, Params
from .fourier import (
    _FLOOR,
    _UNIT_INDICES,
    PhysicalField,
    SpectralField,
    _abs_sq,
    _derivative_nodes,
    _lattice_norm,
    inverse,
    oscillatory_part,
    spectral_sum,
    time_derivative,
)
from .multipliers import _regularity_factor, half_time_derivative
from .nonlinear import _tensor_divergence, dealiased_tensor_product
from .solver import _checked_spectrum

__all__ = [
    "OseenTerms",
    "NormReport",
    "EnergyReport",
    "SpectrumTable",
    "RegularityReport",
    "norms",
    "energy_balance",
    "cross_orthogonality",
    "energy_inequality_check",
    "spectrum_decay",
    "regularity_bootstrap_check",
]


def _magnitude(values: np.ndarray) -> np.ndarray:
    """Euclidean magnitude over the leading component axis."""
    if values.shape[0] == 1:
        return np.abs(values[0])
    return np.sqrt(np.einsum("c...,c...->...", values, values))


def _lq_spacetime(mag: np.ndarray, q: float, grid: Grid) -> float:
    """L^q norm of node magnitudes; a single time slice gives the norm over the box alone."""
    return float((grid.volume * np.mean(mag**q)) ** (1.0 / q))


_MULTI_INDICES = (
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (2, 0, 0),
    (0, 2, 0),
    (0, 0, 2),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
)


@dataclass(frozen=True)
class OseenTerms:
    """The four weighted contributions of the drift-adapted steady norm."""

    amplitude: float
    gradient: float
    drift: float
    hessian: float

    @property
    def total(self) -> float:
        return self.amplitude + self.gradient + self.drift + self.hessian


@dataclass(frozen=True)
class NormReport:
    """Requested norm families, keyed by exponent.

    ``lq`` holds space-time Lebesgue norms of the full velocity u, ``w21q``
    the anisotropic Sobolev norm (two spatial orders, one temporal) of the
    oscillatory part w = u - v, ``xoseen`` the weighted norms of the steady
    part v, the time mean of u, and ``xpres`` the mixed time-space pressure
    norms keyed by (q, r).  All three velocity families come from one set of
    derivative fields of u.
    """

    lam: float
    driftless: bool
    lq: dict[float, float]
    w21q: dict[float, float]
    xoseen: dict[float, OseenTerms]
    xpres: dict[tuple[float, float], float]

    @staticmethod
    def csv_header() -> str:
        return (
            "q,r,lambda,driftless,lq_u,w21q_w,"
            "oseen_amplitude,oseen_gradient,oseen_drift,oseen_hessian,oseen_total,xpres_p"
        )

    def csv_rows(self) -> list[str]:
        pairs: list[tuple[float, float, float]]
        if self.xpres:
            pairs = [(q, r, value) for (q, r), value in sorted(self.xpres.items())]
        else:
            pairs = [(q, float("nan"), float("nan")) for q in sorted(self.lq)]
        rows = []
        for q, r, xp in pairs:
            terms = self.xoseen[q]
            rows.append(
                f"{q:g},{r:g},{self.lam:g},{self.driftless},"
                f"{self.lq[q]:.12e},{self.w21q[q]:.12e},"
                f"{terms.amplitude:.12e},{terms.gradient:.12e},{terms.drift:.12e},"
                f"{terms.hessian:.12e},{terms.total:.12e},{xp:.12e}"
            )
        return rows


def _w21q(
    u: SpectralField, q_list: tuple[float, ...], grid: Grid
) -> tuple[dict[float, float], dict[float, float], dict[tuple[int, int, int], np.ndarray]]:
    """Anisotropic Sobolev norms of the oscillatory part w of ``u``, with L^q of u and |D^alpha v|^2.

    Each derivative field D^alpha u comes from shared transform passes and
    serves every q.  The rectangle rule is exact for trigonometric
    polynomials, so its time mean is D^alpha v, the steady part, and removing
    that mean leaves D^alpha w.  The time derivative has no k = 0 content and
    needs no split.  Returns (lq of u, w21q of w, the squared magnitudes of
    D^alpha v keyed by alpha).
    """

    def fields():
        yield from _derivative_nodes(u, _MULTI_INDICES)
        yield None, inverse(time_derivative(u)).values

    totals = dict.fromkeys(q_list, 0.0)
    lq = {}
    steady_sq = {}
    for alpha, values in fields():
        if alpha == (0, 0, 0):
            mag = _magnitude(values)
            lq = {q: _lq_spacetime(mag, q, grid) for q in q_list}
        if alpha is not None:
            steady = values.mean(axis=1)
            steady_sq[alpha] = np.einsum("c...,c...->...", steady, steady)
            values -= steady[:, np.newaxis]
        mag = _magnitude(values)
        for q in totals:
            totals[q] += _lq_spacetime(mag, q, grid) ** q
    return lq, {q: float(total ** (1.0 / q)) for q, total in totals.items()}, steady_sq


def _xoseen(
    steady_sq: dict[tuple[int, int, int], np.ndarray], q_list: tuple[float, ...], lam: float, grid: Grid
) -> dict[float, OseenTerms]:
    """Drift-weighted steady-part norms from the squared magnitudes |D^alpha v|^2 of ``_w21q``.

    The gradient and Hessian magnitudes are sums of squares, the Hessian's
    mixed entries counting twice.
    """
    amplitude = np.sqrt(steady_sq[(0, 0, 0)])
    drift = np.sqrt(steady_sq[(1, 0, 0)])
    gradient_mag = np.sqrt(sum(steady_sq[alpha] for alpha in _UNIT_INDICES))
    hessian_mag = np.sqrt(
        sum((1.0 if 2 in alpha else 2.0) * sq for alpha, sq in steady_sq.items() if sum(alpha) == 2)
    )

    abs_lam = abs(lam)
    return {
        q: OseenTerms(
            amplitude=abs_lam**0.5 * _lq_spacetime(amplitude, 2.0 * q / (2.0 - q), grid),
            gradient=abs_lam**0.25 * _lq_spacetime(gradient_mag, 4.0 / (4.0 - q), grid),
            drift=abs_lam * _lq_spacetime(drift, q, grid),
            hessian=_lq_spacetime(hessian_mag, q, grid),
        )
        for q in q_list
    }


def _xpres(
    p: SpectralField, q_list: tuple[float, ...], r_list: tuple[float, ...], grid: Grid
) -> dict[tuple[float, float], float]:
    """Mixed time-space pressure norms for every (q, r); p and grad p share one set of passes."""
    fields = _derivative_nodes(p, ((0, 0, 0),) + _UNIT_INDICES)
    mag_p = _magnitude(next(fields)[1])
    mag_gp = np.zeros(grid.shape)
    for _, values in fields:
        mag_gp += np.square(values[0])
    np.sqrt(mag_gp, out=mag_gp)
    dt_weight = grid.period / grid.n_time
    volume = grid.volume
    out = {}
    for q in q_list:
        s = 3.0 * q / (3.0 - q)
        # per-slice norms over the box, one per time node
        slice_p = (volume * np.mean(mag_p**s, axis=(1, 2, 3))) ** (1.0 / s)
        slice_gp = (volume * np.mean(mag_gp**q, axis=(1, 2, 3))) ** (1.0 / q)
        inner = float(np.sum(dt_weight * (slice_p**q + slice_gp**q)))
        for r in r_list:
            out[(q, r)] = float(inner ** (1.0 / q)) + _lq_spacetime(mag_gp, r, grid)
    return out


def norms(
    u: SpectralField | PhysicalField,
    params: Params,
    p: SpectralField | PhysicalField | None = None,
    q_list: tuple[float, ...] = (1.2,),
    r_list: tuple[float, ...] = (6.0,),
) -> NormReport:
    """Evaluate every norm family for each requested exponent.

    Each q must lie in (1, 2) because the steady-part family is evaluated for
    all of them; each r must lie in (1, inf).  ``u`` must have 3 components
    and ``p`` 1; without a pressure the xpres entries are left empty.  Every
    field is transformed once per call, however many exponents are
    requested, and the derivative fields of one spectrum share their
    transform passes.
    """
    for q in q_list:
        if not 1.0 < q < 2.0:
            raise ValueError(f"q (the norm exponent) must lie in the open interval (1, 2), got {q}")
    if p is not None:
        for r in r_list:
            if not (1.0 < r and math.isfinite(r)):
                raise ValueError(f"r (the pressure gradient exponent) must lie in (1, inf), got {r}")

    u_hat = _checked_spectrum(u, "velocity", 3)
    grid = u_hat.grid
    lq, w21q, steady_sq = _w21q(u_hat, q_list, grid)
    xoseen = _xoseen(steady_sq, q_list, params.lam, grid)
    xpres = _xpres(_checked_spectrum(p, "pressure", 1), q_list, r_list, grid) if p is not None else {}

    return NormReport(
        lam=params.lam,
        driftless=params.driftless,
        lq=lq,
        w21q=w21q,
        xoseen=xoseen,
        xpres=xpres,
    )


@dataclass(frozen=True)
class EnergyReport:
    """Dissipation against forcing power over one period."""

    dissipation: float
    power_in: float
    relative_gap: float

    @staticmethod
    def csv_header() -> str:
        return "dissipation,power_in,relative_gap"

    def csv_rows(self) -> list[str]:
        return [f"{self.dissipation:.12e},{self.power_in:.12e},{self.relative_gap:.12e}"]


def energy_balance(
    u: SpectralField | PhysicalField, f: SpectralField | PhysicalField
) -> EnergyReport:
    """Compare the gradient energy of u with the power injected by f.

    For a solution of the momentum equation the two agree; time derivative,
    drift and transport inject nothing, and the pressure never acts on a
    divergence-free field.
    """
    u_hat = _checked_spectrum(u, "velocity", 3)
    f_hat = _checked_spectrum(f, "forcing", 3)
    grid = u_hat.grid
    dissipation = grid.volume * spectral_sum(grid.xi_sq * _abs_sq(u_hat.coeffs).sum(axis=0), grid)
    power = grid.volume * spectral_sum(np.real(np.conj(f_hat.coeffs) * u_hat.coeffs), grid)
    gap = abs(dissipation - power) / max(abs(dissipation), abs(power), _FLOOR)
    return EnergyReport(dissipation=dissipation, power_in=power, relative_gap=gap)


def cross_orthogonality(v: SpectralField, w: SpectralField) -> float:
    """Gradient inner product of the steady and oscillatory parts.

    Zero whenever the parts keep their disjoint frequency supports; a leak of
    k = 0 content into w shows up directly in the returned value.
    """
    v = _checked_spectrum(v, "steady part", 3)
    w = _checked_spectrum(w, "oscillatory part", 3)
    if v.grid != w.grid:
        raise ValueError("fields live on different grids")
    grid = v.grid
    prod = np.real(np.einsum("c...,c...->...", np.conj(v.coeffs), w.coeffs))
    return grid.volume * spectral_sum(grid.xi_sq * prod, grid)


def energy_inequality_check(
    u: SpectralField | PhysicalField,
    f: SpectralField | PhysicalField,
    tol: float = 1e-9,
) -> tuple[float, float, bool]:
    """Dissipation bounded by forcing power, with tolerance scaled to the data.

    Returns (lhs, rhs, holds) with lhs the dissipation and rhs the power.
    """
    report = energy_balance(u, f)
    scale = max(abs(report.dissipation), abs(report.power_in), _FLOOR)
    holds = report.dissipation <= report.power_in + tol * scale
    return report.dissipation, report.power_in, holds


@dataclass(frozen=True)
class SpectrumTable:
    """Shell-wise coefficient magnitudes over the integer dual lattice."""

    shells: np.ndarray
    counts: np.ndarray
    max_abs: np.ndarray
    monotone_from_peak: bool

    @staticmethod
    def csv_header() -> str:
        return "shell,max_abs"

    def csv_rows(self) -> list[str]:
        return [f"{int(s)},{m:.12e}" for s, m in zip(self.shells, self.max_abs)]

    @property
    def top_shell_max(self) -> float:
        return float(self.max_abs[-1])

    @property
    def peak(self) -> float:
        return float(self.max_abs.max(initial=0.0))


def spectrum_decay(spec: SpectralField) -> SpectrumTable:
    """Bin coefficient magnitudes by integer shells of sqrt(|n|^2 + k^2).

    Nyquist planes are excluded (their coefficients are pinned to zero).
    Counts cover the whole lattice: each stored mode off the
    n1 = 0 plane also stands for its conjugate partner, which has the same
    radius and magnitude.  The monotone flag records whether shell maxima
    never increase beyond the peak shell; maxima within rounding of zero
    (1e-14 of the peak) count as flat, so transform noise in empty shells
    does not flip the flag.
    """
    grid = spec.grid
    mag = _magnitude(np.abs(spec.coeffs))
    axes = (
        (grid.k_modes, grid.n_time),
        (grid.n_modes[2], grid.n_space[2]),
        (grid.n_modes[1], grid.n_space[1]),
        (grid.n_modes[0], grid.n_space[0]),
    )
    keep = np.ix_(*(np.flatnonzero(2 * np.abs(modes) != n) for modes, n in axes))
    radii = np.rint(np.sqrt(grid.mode_radius_sq()[keep])).astype(np.int64).ravel()
    values = mag[keep]
    weights = np.broadcast_to(grid.x1_weight[keep[3]], values.shape).ravel()
    values = values.ravel()
    n_shells = int(radii.max()) + 1
    counts = np.rint(np.bincount(radii, weights=weights, minlength=n_shells)).astype(np.int64)
    maxima = np.zeros(n_shells)
    np.maximum.at(maxima, radii, values)
    peak_idx = int(np.argmax(maxima))
    floor = maxima[peak_idx] * 1e-14
    tail = np.maximum(maxima[peak_idx:], floor)
    monotone = bool(np.all(tail[1:] <= tail[:-1] * (1.0 + 1e-12) + 1e-300))
    return SpectrumTable(
        shells=np.arange(n_shells),
        counts=counts,
        max_abs=maxima,
        monotone_from_peak=monotone,
    )


@dataclass(frozen=True)
class RegularityReport:
    """Relative mismatches of the two diagonal bootstrap identities."""

    mixed_derivative_mismatch: float
    factorization_mismatch: float
    multiplier_sup: float


def _rel_mismatch(lhs: np.ndarray, rhs: np.ndarray, grid: Grid) -> float:
    scale = max(_lattice_norm(lhs, grid), _lattice_norm(rhs, grid), _FLOOR)
    return _lattice_norm(lhs - rhs, grid) / scale


def regularity_bootstrap_check(sol) -> RegularityReport:
    """Verify the multiplier identities that trade half time derivatives for space.

    Identity one: for the oscillatory part w, the mixed derivative
    d/dt d/dx_j w equals the regularity multiplier applied to
    (d/dt - Lap) of the half time derivative of w.

    Identity two: the half time derivative of the mean-free transport term
    Div(w (x) w) equals the summed multipliers applied to (d/dt - Lap) of the
    dealiased tensor w_i w_l.  Both identities are diagonal, so with the
    principal branch they hold to rounding; a wrong branch breaks them at
    order one on negative frequencies.
    """
    w: SpectralField = sol.w
    grid = w.grid
    heat_symbol = grid.xi_sq + 1j * grid.omega

    factors = [_regularity_factor(grid, axis) for axis in (1, 2, 3)]
    half_w = half_time_derivative(w).coeffs
    lhs_mixed = []
    rhs_mixed = []
    for axis in (1, 2, 3):
        lhs_mixed.append(w.coeffs * (1j * grid.omega) * (1j * grid.xi[axis - 1]))
        rhs_mixed.append(factors[axis - 1] * (heat_symbol * half_w))
    mismatch_mixed = _rel_mismatch(np.stack(lhs_mixed), np.stack(rhs_mixed), grid)

    tensor = dealiased_tensor_product(w)
    osc = oscillatory_part(SpectralField(grid, _tensor_divergence(tensor, grid)))
    lhs_fact = half_time_derivative(osc).coeffs
    rhs_fact = np.stack([sum(factors[l] * (heat_symbol * tensor[i, l]) for l in range(3)) for i in range(3)])
    mismatch_fact = _rel_mismatch(lhs_fact, rhs_fact, grid)

    sup = max(float(np.abs(factor).max()) for factor in factors)
    return RegularityReport(
        mixed_derivative_mismatch=mismatch_mixed,
        factorization_mismatch=mismatch_fact,
        multiplier_sup=sup,
    )

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

from .domain import Grid, Params, _check_period
from .fourier import (
    _FLOOR,
    _UNIT_INDICES,
    PhysicalField,
    SpectralField,
    _divergence,
    _gated_tree,
    _gradient,
    _gradient_dot,
    _lattice_dot,
    _per_node,
    _relative_sum,
    _space_tree,
)
from .multipliers import _half_time_factor, _oseen_symbol, _oseen_terms, _regularity_factors, time_derivative
from .nonlinear import _ROWS, _tensor_product
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
    "spectrum_decay",
    "regularity_bootstrap_check",
]


def _magnitude(values: np.ndarray) -> np.ndarray:
    """Euclidean magnitude over the leading component axis."""
    if values.shape[0] == 1:
        return np.abs(values[0])
    return np.sqrt(np.einsum("c...,c...->...", values, values))


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

    lq: dict[float, float]
    w21q: dict[float, float]
    xoseen: dict[float, OseenTerms]
    xpres: dict[tuple[float, float], float]


def _power_sums(values: np.ndarray, exponents: tuple[float, ...]) -> np.ndarray:
    """Sum of |values|^e over the nodes for each exponent e, |.| the magnitude over components.

    |v|^e is exp(e/2 * log |v|^2): one ``log`` per field, then one ``exp`` per
    exponent in one scratch array, which is cheaper than a ``sqrt`` and a
    fractional power; a zero node gives log 0 = -inf and exp(-inf) = 0.
    """
    with np.errstate(divide="ignore"):
        log_squared = np.log(np.einsum("c...,c...->...", values, values))
    powers = np.empty_like(log_squared)
    sums = [np.exp(np.multiply(log_squared, 0.5 * e, out=powers), out=powers).sum() for e in exponents]
    return np.array(sums)


def _lebesgue(measure: float, sums: np.ndarray, exponents: tuple[float, ...] | np.ndarray) -> np.ndarray:
    """The norms (measure * sum |.|^e)^(1/e) of the power sums ``sums``, one per exponent e."""
    return (measure * sums) ** (1.0 / np.asarray(exponents))


def _w21q(
    u: SpectralField, q_list: tuple[float, ...], grid: Grid
) -> tuple[dict[float, float], dict[float, float], dict[tuple[int, int, int], np.ndarray]]:
    """Anisotropic Sobolev norms of the oscillatory part w of ``u``, with L^q of u and the fields D^alpha v.

    The time mean of the nodes of D^alpha u, D^alpha v, is the field of the
    k = 0 plane alone (see ``inverse``), so it comes from the space passes of
    that plane, and removing it leaves D^alpha w.  Each node task reduces its
    fields to sums of |u|^q and |D^alpha w|^q for every q; the time
    derivative has no k = 0 content.  Returns (lq of u, w21q of w, the
    fields D^alpha v of one time node, keyed by alpha).
    """
    steady = dict(_space_tree(u.coeffs[:, :1].copy(), grid, _gated_tree(u, _MULTI_INDICES)))

    def node_sums(t: int, slot: np.ndarray, fields) -> tuple[np.ndarray, np.ndarray]:
        w_sums = np.zeros(len(q_list))
        for alpha, values in fields:
            if alpha == (0, 0, 0):
                u_sums = _power_sums(values, q_list)
            values -= steady[alpha]
            w_sums += _power_sums(values, q_list)
        return u_sums, w_sums

    # per-node sums, combined in node order
    u_sums, w_sums = (sum(parts) for parts in zip(*_per_node(u, _MULTI_INDICES, node_sums)[1]))
    # the time derivative is not needed again: it is handed over, and its time pass runs in place
    du_dt = time_derivative(u)
    _, dt_sums = _per_node(
        du_dt, ((0, 0, 0),), lambda t, slot, leaf: _power_sums(next(leaf)[1], q_list), out=du_dt.coeffs
    )
    w_sums += sum(dt_sums)
    measure = grid.volume / grid.size
    lq = dict(zip(q_list, _lebesgue(measure, u_sums, q_list).tolist()))
    w21q = dict(zip(q_list, _lebesgue(measure, w_sums, q_list).tolist()))
    return lq, w21q, steady


def _xoseen(
    steady: dict[tuple[int, int, int], np.ndarray], q_list: tuple[float, ...], lam: float, grid: Grid
) -> dict[float, OseenTerms]:
    """Drift-weighted steady-part norms from the fields D^alpha v of ``_w21q``.

    The gradient and Hessian magnitudes run over their concatenated entries;
    each mixed Hessian entry stands for two and is scaled by sqrt(2).
    """
    gradient = np.concatenate([steady[alpha] for alpha in _UNIT_INDICES])
    hessian = np.concatenate(
        [(1.0 if 2 in alpha else math.sqrt(2.0)) * values for alpha, values in steady.items() if sum(alpha) == 2]
    )
    q = np.array(q_list)
    abs_lam = abs(lam)
    # (weight, fields, exponent for each q) of each term of the Oseen estimate, in the order of ``OseenTerms``
    terms = [
        (abs_lam**0.5, steady[(0, 0, 0)], 2.0 * q / (2.0 - q)),
        (abs_lam**0.25, gradient, 4.0 * q / (4.0 - q)),
        (abs_lam, steady[(1, 0, 0)], q),
        (1.0, hessian, q),
    ]
    measure = grid.volume * grid.n_time / grid.size
    columns = [weight * _lebesgue(measure, _power_sums(values, tuple(e)), e) for weight, values, e in terms]
    return {qi: OseenTerms(*map(float, row)) for qi, row in zip(q_list, zip(*columns))}


def _xpres(
    p: SpectralField, q_list: tuple[float, ...], r_list: tuple[float, ...], grid: Grid
) -> dict[tuple[float, float], float]:
    """Mixed time-space pressure norms for every (q, r); each node task reduces p and grad p at once.

    The time norm weights each node by dt = T/M, not by the dt/T of the other
    families, so it grows with the period as T^(1/q).
    """
    q = np.array(q_list)
    s = 3.0 * q / (3.0 - q)

    def node_sums(t: int, slot: np.ndarray, fields) -> tuple[np.ndarray, np.ndarray]:
        (_, values), *grad = fields
        grad_p = np.concatenate([component for _, component in grad])
        return _power_sums(values, tuple(s)), _power_sums(grad_p, q_list + r_list)

    _, sums = _per_node(p, ((0, 0, 0),) + _UNIT_INDICES, node_sums)
    # one row per time node, summed in node order; inner holds the q-th powers of the per-slice norms
    p_sums, gp_sums = (np.array(parts) for parts in zip(*sums))
    per_slice = grid.volume * grid.n_time / grid.size
    inner = (per_slice * p_sums) ** (q / s) + per_slice * gp_sums[:, : len(q_list)]
    outer = _lebesgue(grid.period / grid.n_time, inner.sum(axis=0), q)
    lr_gp = _lebesgue(grid.volume / grid.size, gp_sums[:, len(q_list) :].sum(axis=0), r_list)
    return {(qi, r): float(outer[i] + lr_gp[j]) for i, qi in enumerate(q_list) for j, r in enumerate(r_list)}


def norms(
    u: SpectralField | PhysicalField,
    params: Params,
    p: SpectralField | PhysicalField | None = None,
    q_list: tuple[float, ...] = (1.2,),
    r_list: tuple[float, ...] = (6.0,),
) -> NormReport:
    """Evaluate every norm family for each requested exponent.

    At least one q is needed, and each must lie in (1, 2) because the
    steady-part family is evaluated for all of them.  At least one r is
    needed, and each must lie in (1, inf), with or without a pressure.
    ``u`` must have 3 components and ``p`` 1; without a pressure the xpres
    entries are left empty.  Every field is transformed once per call,
    however many exponents are requested, and the derivative fields of one
    spectrum share their transform passes.
    """
    if not q_list:
        raise ValueError("q (the norm exponent) needs at least one value")
    for q in q_list:
        if not 1.0 < q < 2.0:
            raise ValueError(f"q (the norm exponent) must lie in the open interval (1, 2), got {q}")
    if not r_list:
        raise ValueError("r (the pressure gradient exponent) needs at least one value")
    for r in r_list:
        if not (1.0 < r and math.isfinite(r)):
            raise ValueError(f"r (the pressure gradient exponent) must lie in (1, inf), got {r}")

    u_hat = _checked_spectrum(u, "velocity", 3)
    grid = u_hat.grid
    _check_period(params, grid)
    lq, w21q, steady = _w21q(u_hat, q_list, grid)
    xoseen = _xoseen(steady, q_list, params.lam, grid)
    xpres = _xpres(_checked_spectrum(p, "pressure", 1, grid), q_list, r_list, grid) if p is not None else {}

    return NormReport(lq=lq, w21q=w21q, xoseen=xoseen, xpres=xpres)


@dataclass(frozen=True)
class EnergyReport:
    """Dissipation against forcing power over one period, and ``relative_gap``, the one gap between them."""

    dissipation: float
    power_in: float
    relative_gap: float


def energy_balance(
    u: SpectralField | PhysicalField, f: SpectralField | PhysicalField
) -> EnergyReport:
    """Compare the gradient energy of u with the power injected by f.

    For a solution of the momentum equation the two agree; time derivative,
    drift and transport inject nothing, and the pressure never acts on a
    divergence-free field.  The report's ``relative_gap`` is the one gap:
    |dissipation - power_in| over the larger of the two magnitudes.
    """
    u_hat = _checked_spectrum(u, "velocity", 3)
    f_hat = _checked_spectrum(f, "forcing", 3, u_hat.grid)
    grid = u_hat.grid
    dissipation = grid.volume * _gradient_dot(u_hat.coeffs, u_hat.coeffs, grid)
    power = grid.volume * _lattice_dot(f_hat.coeffs, u_hat.coeffs, grid)
    gap = abs(dissipation - power) / max(abs(dissipation), abs(power), _FLOOR)
    return EnergyReport(dissipation=dissipation, power_in=power, relative_gap=gap)


def cross_orthogonality(v: SpectralField, w: SpectralField) -> float:
    """Gradient inner product of the steady and oscillatory parts.

    Zero whenever the parts keep their disjoint frequency supports; a leak of
    k = 0 content into w shows up directly in the returned value.
    """
    v = _checked_spectrum(v, "steady part", 3)
    w = _checked_spectrum(w, "oscillatory part", 3, v.grid)
    grid = v.grid
    return grid.volume * _gradient_dot(v.coeffs, w.coeffs, grid)


@dataclass(frozen=True)
class SpectrumTable:
    """Shell-wise coefficient magnitudes over the integer dual lattice: ``max_abs[s]`` on shell s."""

    max_abs: np.ndarray
    monotone_from_peak: bool


def spectrum_decay(spec: SpectralField) -> SpectrumTable:
    """Bin coefficient magnitudes by integer shells of sqrt(|n|^2 + k^2).

    Nyquist planes are excluded (their coefficients are pinned to zero).
    A stored mode's conjugate partner has the same radius and magnitude, so
    the half spectrum gives the shell maxima of the whole lattice.  The
    monotone flag records whether shell maxima never increase beyond the peak
    shell; maxima within rounding of zero (1e-14 of the peak) count as flat,
    so transform noise in empty shells does not flip the flag.
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
    maxima = np.zeros(int(radii.max()) + 1)
    np.maximum.at(maxima, radii, mag[keep].ravel())
    peak_idx = int(np.argmax(maxima))
    floor = maxima[peak_idx] * 1e-14
    tail = np.maximum(maxima[peak_idx:], floor)
    monotone = bool(np.all(tail[1:] <= tail[:-1] * (1.0 + 1e-12) + 1e-300))
    return SpectrumTable(max_abs=maxima, monotone_from_peak=monotone)


@dataclass(frozen=True)
class RegularityReport:
    """Relative mismatches of the two diagonal bootstrap identities."""

    mixed_derivative_mismatch: float
    factorization_mismatch: float
    multiplier_sup: float


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

    Every term, the half time derivatives of w and Div(w (x) w) among them, is formed one time
    node at a time; each mismatch is the ``_relative_sum`` of lhs and -rhs.  The half derivatives
    take (i omega)^(1/2) from this module's binding of ``_half_time_factor`` and the multipliers
    through ``_regularity_factors`` alone, so a wrong branch bound here breaks both identities.
    """
    w: SpectralField = sol.w
    grid = w.grid
    heat = Params(lam=0.0, period=grid.period)
    sups = []

    def mixed(node: slice):
        factors = _regularity_factors(grid, node)
        sups.append(float(np.abs(factors).max()))
        half_w = w.coeffs[:, node] * _half_time_factor(grid, node)
        yield _gradient(w.coeffs[:, node] * _oseen_terms(grid, heat, node)[0], grid)
        yield -(factors[:, np.newaxis] * (_oseen_symbol(grid, heat, node) * half_w))

    mismatch_mixed = _relative_sum(mixed, grid)
    tensor = _tensor_product(w)

    def factorization(node: slice):
        rows = [tensor[list(row), node] for row in _ROWS]  # row l of the symmetric tensor is also its column l
        factors, heat_symbol = _regularity_factors(grid, node), _oseen_symbol(grid, heat, node)
        yield -sum(factors[l] * (heat_symbol * rows[l]) for l in range(3))  # fresh: the sum takes it over
        yield np.stack([_divergence(row, grid) for row in rows]) * _half_time_factor(grid, node)  # drops k = 0

    return RegularityReport(mismatch_mixed, _relative_sum(factorization, grid), max(sups))

import math

import numpy as np
import pytest

from periodicflow import (
    Grid,
    MeanModeNonzero,
    MultiplierReport,
    Params,
    PhysicalField,
    PROBE_SYMBOLS,
    SpectralField,
    forward,
    half_time_derivative,
    helmholtz,
    marcinkiewicz_probe,
    oseen_apply,
    oseen_inverse,
    picard_step,
    time_derivative,
)
from periodicflow.fourier import _divergence, _gradient, _plane_defect
from periodicflow.multipliers import _oseen_symbol, _regularity_factors
from halfspec import wrong_branch_half_derivative

# Hand values below assume the 2*pi box and 2*pi period of the grid8/grid16
# fixtures, where wavenumbers and frequencies are plain integers.


def random_spectrum(grid, seed, components=3, mean_free=False):
    rng = np.random.default_rng(seed)
    spec = forward(PhysicalField(grid, rng.standard_normal((components,) + grid.shape)))
    if mean_free:
        coeffs = spec.coeffs.copy()
        coeffs[:, 0, 0, 0, 0] = 0.0
        spec = SpectralField(grid, coeffs)
    return spec


def test_oseen_symbol_hand_values(grid8, params1):
    sym = _oseen_symbol(grid8, params1)
    # xi = (1,0,0), omega = 0: |xi|^2 + i(0 - 1*1) = 1 - 1j
    assert sym[0, 0, 0, 1] == pytest.approx(1.0 - 1.0j, abs=1e-14)
    # xi = 0, omega = 1: purely the time frequency
    assert sym[1, 0, 0, 0] == pytest.approx(1.0j, abs=1e-14)
    # joint zero mode vanishes
    assert sym[0, 0, 0, 0] == 0.0


def test_oseen_symbol_never_small_off_origin():
    for lam, period in ((-2.0, 1.0), (0.5, 2 * math.pi), (1.0, 2 * math.pi)):
        grid = Grid(box=(2 * math.pi,) * 3, n_space=(8, 8, 8), n_time=8, period=period)
        sym = _oseen_symbol(grid, Params(lam=lam, period=period))
        mags = np.abs(sym)
        assert mags[0, 0, 0, 0] == 0.0
        mags[0, 0, 0, 0] = np.inf
        # Real part is |xi|^2 >= 1 off the xi = 0 column; on it the modulus
        # is |omega| >= 2*pi/T.  Either way the inverse divides safely.
        floor = min(1.0, 2 * math.pi / period)
        assert mags.min() >= floor - 1e-12


def test_helmholtz_annihilates_gradients(grid8):
    phi = random_spectrum(grid8, seed=50, components=1)
    g = SpectralField(grid8, _gradient(phi.coeffs[0], grid8))
    out = helmholtz(g)
    scale = np.abs(g.coeffs).max()
    assert np.abs(out.coeffs).max() <= 1e-12 * scale


def test_helmholtz_is_idempotent_and_solenoidal(grid8):
    v = random_spectrum(grid8, seed=51)
    u = helmholtz(v)
    again = helmholtz(u)
    scale = np.abs(u.coeffs).max()
    assert np.abs(again.coeffs - u.coeffs).max() <= 1e-13 * scale
    assert np.abs(_divergence(u.coeffs, grid8)).max() <= 1e-12 * scale


def test_helmholtz_keeps_spatially_constant_modes():
    grid = Grid(box=(2 * math.pi,) * 3, n_space=(4, 4, 4), n_time=4, period=2 * math.pi)
    coeffs = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    coeffs[:, 1, 0, 0, 0] = 2.0 - 1.0j
    coeffs[:, -1, 0, 0, 0] = 2.0 + 1.0j
    spec = SpectralField(grid, coeffs)
    out = helmholtz(spec)
    assert np.array_equal(out.coeffs, coeffs)


def test_helmholtz_rejects_scalar_input(grid8):
    phi = random_spectrum(grid8, seed=52, components=1)
    with pytest.raises(ValueError):
        helmholtz(phi)


def test_helmholtz_preserves_conjugate_symmetry(grid8):
    u = helmholtz(random_spectrum(grid8, seed=53))
    assert _plane_defect(u.coeffs) <= 1e-13 * np.abs(u.coeffs).max()


def test_oseen_round_trips():
    for lam in (-2.0, 0.5, 1.0):
        for period in (1.0, 2 * math.pi):
            grid = Grid(
                box=(2 * math.pi,) * 3, n_space=(8, 8, 8), n_time=8, period=period
            )
            params = Params(lam=lam, period=period)
            u = random_spectrum(grid, seed=60, mean_free=True)
            scale = np.abs(u.coeffs).max()
            back = oseen_inverse(oseen_apply(u, params), params)
            assert np.abs(back.coeffs - u.coeffs).max() <= 1e-12 * scale
            forth = oseen_apply(oseen_inverse(u, params), params)
            assert np.abs(forth.coeffs - u.coeffs).max() <= 1e-12 * scale


def test_oseen_inverse_rejects_mean_mode(grid8, params1):
    coeffs = np.zeros((3,) + grid8.spectral_shape, dtype=np.complex128)
    coeffs[:, 0, 0, 0, 0] = 1.0
    with pytest.raises(MeanModeNonzero):
        oseen_inverse(SpectralField(grid8, coeffs), params1)


def step_from_rest(spec, params):
    """``picard_step`` from u = 0, whose resolvent input is P_H of the forcing ``spec``."""
    return picard_step(SpectralField(spec.grid, np.zeros_like(spec.coeffs)), spec, params)


@pytest.mark.parametrize(
    "ratio, raises, resolve",
    [
        pytest.param(2e-12, True, oseen_inverse, id="2e-12-True"),
        pytest.param(5e-13, False, oseen_inverse, id="5e-13-False"),
        pytest.param(2e-12, True, step_from_rest, id="picard_step-2e-12-True"),
        pytest.param(5e-13, False, step_from_rest, id="picard_step-5e-13-False"),
    ],
)
def test_oseen_inverse_mean_mode_threshold(grid8, params1, ratio, raises, resolve):
    """A mean mode counts once it exceeds 1e-12 of the largest coefficient.

    The input is solenoidal, so it is also the projected data that the step
    judges its mean mode against.
    """
    coeffs = helmholtz(random_spectrum(grid8, seed=67, mean_free=True)).coeffs
    coeffs[:, 0, 0, 0, 0] = ratio * np.abs(coeffs).max()
    spec = SpectralField(grid8, coeffs)
    if raises:
        with pytest.raises(MeanModeNonzero):
            resolve(spec, params1)
    else:
        assert np.all(resolve(spec, params1).coeffs[:, 0, 0, 0, 0] == 0.0)


def test_oseen_inverse_preserves_conjugate_symmetry(grid8, params1):
    u = random_spectrum(grid8, seed=61, mean_free=True)
    out = oseen_inverse(u, params1)
    assert _plane_defect(out.coeffs) <= 1e-13 * np.abs(out.coeffs).max()


def test_half_derivative_factor_hand_values(grid8):
    u = np.zeros((1,) + grid8.spectral_shape, dtype=np.complex128)
    u[0, 1, 0, 0, 0] = 1.0
    u[0, -1, 0, 0, 0] = 1.0
    out = half_time_derivative(SpectralField(grid8, u)).coeffs
    root = math.sqrt(2.0) / 2.0
    # principal roots of +/- i: e^{+/- i pi/4}
    assert out[0, 1, 0, 0, 0] == pytest.approx(root * (1 + 1j), abs=1e-14)
    assert out[0, -1, 0, 0, 0] == pytest.approx(root * (1 - 1j), abs=1e-14)


def test_half_derivative_squares_to_time_derivative(grid8):
    u = random_spectrum(grid8, seed=62)
    lhs = half_time_derivative(half_time_derivative(u)).coeffs
    rhs = time_derivative(u).coeffs
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1e-300)


def test_half_derivative_kills_time_mean(grid8):
    u = random_spectrum(grid8, seed=63)
    out = half_time_derivative(u).coeffs
    assert np.abs(out[:, 0]).max() == 0.0


def test_half_derivative_branches(grid8):
    u = random_spectrum(grid8, seed=64)
    scale = np.abs(u.coeffs).max()
    good = half_time_derivative(u)
    assert _plane_defect(good.coeffs) <= 1e-13 * scale
    bad = wrong_branch_half_derivative(u)
    assert _plane_defect(bad.coeffs) > 1e-2 * scale


def test_half_derivative_commutes_with_helmholtz(grid8):
    u = random_spectrum(grid8, seed=65)
    lhs = half_time_derivative(helmholtz(u)).coeffs
    rhs = helmholtz(half_time_derivative(u)).coeffs
    assert np.abs(lhs - rhs).max() <= 1e-13 * max(np.abs(rhs).max(), 1e-300)


def test_regularity_multiplier_hand_value(grid8):
    factor = _regularity_factors(grid8)[0]
    expected = np.exp(1j * math.pi / 4.0) * 1j / (1.0 + 1.0j)
    assert factor[1, 0, 0, 1] == pytest.approx(expected, abs=1e-14)  # k = 1, xi = (1, 0, 0)


def test_regularity_multiplier_zero_on_time_mean(grid8):
    u = random_spectrum(grid8, seed=66)
    for axis in (1, 2, 3):
        out = u.coeffs * _regularity_factors(grid8)[axis - 1]
        assert np.abs(out[:, 0]).max() == 0.0


def test_regularity_multiplier_bound_is_finite(grid16):
    for axis in (1, 2, 3):
        bound = np.abs(_regularity_factors(grid16)[axis - 1]).max()
        assert math.isfinite(bound)
        assert bound > 0.0


@pytest.mark.parametrize(
    "grid",
    [
        Grid(box=(1.0, 2.0, 3.0), n_space=(8, 6, 4), n_time=6, period=0.7),
        Grid(box=(2.0 * math.pi,) * 3, n_space=(8, 8, 8), n_time=8, period=2.0 * math.pi),
    ],
    ids=["aniso", "cube8"],
)
def test_regularity_factors_of_one_plane_are_that_plane_of_the_whole(grid):
    whole = _regularity_factors(grid)
    assert whole.shape == (3,) + grid.spectral_shape
    for t in range(grid.n_time):
        assert _regularity_factors(grid, slice(t, t + 1)).tobytes() == whole[:, t : t + 1].tobytes()


def test_probe_constant_symbol(params1):
    report = marcinkiewicz_probe("one", params1, resolution=4)
    assert report.max_abs == pytest.approx(1.0, abs=1e-12)
    assert report.marcinkiewicz_sup == pytest.approx(1.0, abs=1e-9)
    assert report.sample_count == 8**4


def test_probe_helmholtz_entries(params1):
    diag = marcinkiewicz_probe("helmholtz", params1, resolution=8)
    assert diag.marcinkiewicz_sup <= 1.0 + 1e-6
    off = marcinkiewicz_probe("helmholtz_offdiag", params1, resolution=6)
    assert math.isfinite(off.marcinkiewicz_sup)


def test_probe_remaining_symbols_are_finite(params1):
    for name in ("m_1", "m_2", "m_3", "oseen_tp"):
        report = marcinkiewicz_probe(name, params1, resolution=4)
        assert math.isfinite(report.marcinkiewicz_sup)
        assert report.marcinkiewicz_sup > 0.0


def test_probe_rejects_bad_input(params1):
    with pytest.raises(ValueError):
        marcinkiewicz_probe("bogus", params1)
    with pytest.raises(ValueError):
        marcinkiewicz_probe("one", params1, resolution=1)
    assert "oseen_tp" in PROBE_SYMBOLS


def test_multiplier_report_validation():
    with pytest.raises(ValueError):
        MultiplierReport(name="x", max_abs=float("nan"), marcinkiewicz_sup=1.0, sample_count=16)
    with pytest.raises(ValueError):
        MultiplierReport(name="x", max_abs=1.0, marcinkiewicz_sup=-2.0, sample_count=16)

"""End-to-end acceptance checks, one test per advertised guarantee.

Every test prints a single PASS/FAIL line with the measured quantity so a
plain ``pytest -v -s tests/test_acceptance.py`` doubles as a report.  The
shared solves run once per module.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

from periodicflow import (
    Grid,
    Params,
    PhysicalField,
    SolverConfig,
    SpectralField,
    coeff_norm,
    cross_orthogonality,
    energy_balance,
    forward,
    half_time_derivative,
    helmholtz,
    inverse,
    manufactured,
    manufactured_preset,
    oscillatory_part,
    oseen_apply,
    oseen_inverse,
    pde_residual,
    random_smooth,
    regularity_bootstrap_check,
    solve,
    spectrum_decay,
    time_derivative,
    time_mean_part,
)
from periodicflow.fourier import _divergence, _gradient
from halfspec import full_spectrum, wrong_branch_half_factor

TWO_PI = 2.0 * math.pi
AMPLITUDE = 1e-2


def report(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def make_grid(n):
    return Grid(box=(TWO_PI,) * 3, n_space=(n, n, n), n_time=n, period=TWO_PI)


def rel_gap(a, b):
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(a - b).max()) / scale


@pytest.fixture(scope="module")
def params():
    return Params(lam=1.0, period=TWO_PI)


@pytest.fixture(scope="module")
def trig_run(params):
    grid = make_grid(16)
    u_star, p_star = manufactured_preset("trig", amplitude=AMPLITUDE, grid=grid)
    f, u_exact, p_exact = manufactured(u_star, p_star, params, grid)
    sol = solve(f, params, grid)
    return grid, f, u_exact, p_exact, sol


def analytic_solution_error(n, params):
    grid = make_grid(n)
    u_star, p_star = manufactured_preset("analytic", amplitude=AMPLITUDE, grid=grid)
    f, u_exact, _ = manufactured(u_star, p_star, params, grid, solenoidal_tol=1e-2)
    sol = solve(f, params, grid)
    exact_hat = forward(u_exact)
    return coeff_norm(sol.u - exact_hat) / coeff_norm(exact_hat), sol


def test_criterion_01_transform_round_trip():
    grid = make_grid(16)
    rng = np.random.default_rng(2024)
    raw = PhysicalField(grid, rng.standard_normal((3,) + grid.shape))
    u = inverse(forward(raw))  # land in the Nyquist-free class the transform spans
    back = inverse(forward(u))
    err = rel_gap(back.values, u.values)
    report("criterion 01 transform round trip", err <= 1e-12, f"rel err {err:.3e} <= 1e-12")


def test_criterion_02_projection_algebra():
    grid = make_grid(16)
    rng = np.random.default_rng(2025)
    u = forward(PhysicalField(grid, rng.standard_normal((3,) + grid.shape)))
    p = time_mean_part(u)
    q = oscillatory_part(u)
    exact = (
        np.array_equal(time_mean_part(p).coeffs, p.coeffs)
        and np.array_equal(oscillatory_part(q).coeffs, q.coeffs)
        and not np.any(oscillatory_part(p).coeffs)
        and not np.any(time_mean_part(q).coeffs)
        and np.array_equal(p.coeffs + q.coeffs, u.coeffs)
    )

    h = helmholtz(u)
    idem = rel_gap(helmholtz(h).coeffs, h.coeffs)
    solenoidal = float(np.abs(_divergence(h.coeffs, grid)).max()) / float(np.abs(h.coeffs).max())

    x1, x2, x3, t = (np.broadcast_to(c, grid.shape) for c in grid.coordinate_fields())
    phi = forward(PhysicalField(grid, np.sin(x1) * np.cos(x2) * np.cos(t)))
    # hand gradient of phi = sin(x1) cos(x2) cos(t): band-limited, alias-free
    grad_values = np.stack(
        [
            np.cos(x1) * np.cos(x2) * np.cos(t),
            -np.sin(x1) * np.sin(x2) * np.cos(t),
            np.zeros(grid.shape),
        ]
    )
    g = forward(PhysicalField(grid, grad_values))
    spectral = rel_gap(_gradient(phi.coeffs[0], grid), g.coeffs)
    annihilation = float(np.abs(helmholtz(g).coeffs).max()) / float(np.abs(g.coeffs).max())

    ok = exact and idem <= 1e-13 and solenoidal <= 1e-13 and spectral <= 1e-13 and annihilation <= 1e-12
    report(
        "criterion 02 projection algebra",
        ok,
        f"exact={exact} idempotency {idem:.3e} <= 1e-13, divergence of the projection {solenoidal:.3e} <= 1e-13, "
        f"spectral against hand gradient {spectral:.3e} <= 1e-13, gradient annihilation {annihilation:.3e} <= 1e-12",
    )


def test_criterion_03_operator_inverse():
    worst = 0.0
    for lam in (-2.0, 0.5, 1.0):
        for period in (1.0, TWO_PI):
            grid = Grid(box=(TWO_PI,) * 3, n_space=(16, 16, 16), n_time=16, period=period)
            params = Params(lam=lam, period=period)
            rng = np.random.default_rng(7)
            u = forward(PhysicalField(grid, rng.standard_normal((3,) + grid.shape)))
            coeffs = u.coeffs.copy()
            coeffs[:, 0, 0, 0, 0] = 0.0
            u = SpectralField(grid, coeffs)
            back = oseen_inverse(oseen_apply(u, params), params)
            worst = max(worst, rel_gap(back.coeffs, u.coeffs))
    report("criterion 03 operator inverse", worst <= 1e-11, f"worst rel err {worst:.3e} <= 1e-11")


def test_criterion_04_half_derivative_composition():
    grid = make_grid(16)
    rng = np.random.default_rng(8)
    w = oscillatory_part(forward(PhysicalField(grid, rng.standard_normal((3,) + grid.shape))))
    twice = half_time_derivative(half_time_derivative(w))
    target = time_derivative(w)
    comp_err = rel_gap(twice.coeffs, target.coeffs)

    # Completed to the full lattice by conjugate symmetry, the half spectrum
    # leaves a real field only if the stored n1 = 0 and n1 = N1/2 planes pair up.
    half = half_time_derivative(w)
    full = full_spectrum(half.coeffs, grid)
    values = scipy.fft.ifftn(full, axes=(-4, -3, -2, -1)) * grid.size
    residue = float(np.abs(values.imag).max()) / max(float(np.abs(values.real).max()), 1e-300)

    ok = comp_err <= 1e-12 and residue <= 1e-12
    report(
        "criterion 04 half derivative composition",
        ok,
        f"composition err {comp_err:.3e} <= 1e-12, imaginary residue {residue:.3e} <= 1e-12",
    )


def test_criterion_05_manufactured_solution(trig_run, params):
    grid, f, u_exact, p_exact, sol = trig_run
    exact_hat = forward(u_exact)
    err = coeff_norm(sol.u - exact_hat) / coeff_norm(exact_hat)

    p_hat = sol.p.coeffs.copy()
    p_exact_hat = forward(p_exact).coeffs.copy()
    p_hat[:, :, 0, 0, 0] = 0.0  # compare with the spatial mean plane pinned
    p_exact_hat[:, :, 0, 0, 0] = 0.0
    p_err = coeff_norm(SpectralField(grid, p_hat - p_exact_hat))
    p_err /= max(coeff_norm(SpectralField(grid, p_exact_hat)), 1e-300)

    residual = pde_residual(sol.u, sol.p, f, params)
    ok = err <= 1e-8 and p_err <= 1e-8 and residual <= 1e-8 and sol.iterations <= 50
    report(
        "criterion 05 manufactured solution",
        ok,
        f"field err {err:.3e}, pressure err {p_err:.3e}, residual {residual:.3e} all <= 1e-8, "
        f"iterations {sol.iterations} <= 50",
    )


def check_contraction_and_uniqueness(label, grid, f, params, sol):
    guess = random_smooth(seed=99, amplitude=0.1, cutoff_shell=2, grid=grid)
    second = solve(f, params, grid, SolverConfig(initial_guess=guess))
    gap = coeff_norm(second.u - sol.u) / max(coeff_norm(sol.u), 1e-300)
    ok = sol.contraction_estimate <= 0.5 and gap <= 1e-8
    report(
        label,
        ok,
        f"contraction {sol.contraction_estimate:.3e} <= 0.5, initial-guess gap {gap:.3e} <= 1e-8",
    )


def test_criterion_06_contraction_and_uniqueness(trig_run, params):
    grid, f, _, _, sol = trig_run
    check_contraction_and_uniqueness("criterion 06 contraction and uniqueness", grid, f, params, sol)


def test_criterion_06_contraction_and_uniqueness_in_the_nonlinear_regime(params):
    """The trig preset makes the Picard map linear (2 iterations, contraction 0.000).

    The analytic preset at amplitude 1 contracts at about 0.4 over some 25
    iterations, so the probe from a second initial guess meets the nonlinearity.
    """
    grid = make_grid(12)
    u_star, p_star = manufactured_preset("analytic", amplitude=1.0, grid=grid)
    f, _, _ = manufactured(u_star, p_star, params, grid, solenoidal_tol=1e-2)
    sol = solve(f, params, grid)
    check_contraction_and_uniqueness("criterion 06 nonlinear contraction and uniqueness", grid, f, params, sol)


def test_criterion_07_energy_equality(trig_run):
    _, f, _, _, sol = trig_run
    balance = energy_balance(sol.u, f)
    cross = abs(cross_orthogonality(sol.v, sol.w))
    ok = balance.relative_gap <= 1e-6 and cross <= 1e-13
    report(
        "criterion 07 energy equality",
        ok,
        f"relative gap {balance.relative_gap:.3e} <= 1e-6, cross term {cross:.3e} <= 1e-13",
    )


def test_criterion_08_spectral_convergence(params):
    err8, _ = analytic_solution_error(8, params)
    err16, _ = analytic_solution_error(16, params)
    ratio = err8 / max(err16, 1e-300)

    _, sol32 = analytic_solution_error(32, params)
    table = spectrum_decay(sol32.u)
    top_rel = table.max_abs[-1] / max(table.max_abs.max(), 1e-300)

    ok = ratio >= 100.0 and top_rel <= 1e-10
    report(
        "criterion 08 spectral convergence",
        ok,
        f"error drop 8->16 x{ratio:.1f} >= x100, top shell / peak {top_rel:.3e} <= 1e-10 at N=32",
    )


def test_criterion_09_failure_honesty(tmp_path):
    oversized = subprocess.run(
        [
            sys.executable,
            "-m",
            "periodicflow",
            "solve",
            "--grid",
            "8",
            "--preset",
            "analytic",
            "--amplitude",
            "1e-2",
            "--scale",
            "1e4",
            "--out-dir",
            str(tmp_path / "blow"),
        ],
        capture_output=True,
        text=True,
    )

    grid = make_grid(8)
    from periodicflow import write_field

    forcing_path = tmp_path / "mean.field"
    write_field(forcing_path, PhysicalField(grid, np.full((3,) + grid.shape, 0.1)))
    mean_mode = subprocess.run(
        [
            sys.executable,
            "-m",
            "periodicflow",
            "solve",
            "--grid",
            "8",
            "--forcing-file",
            str(forcing_path),
            "--out-dir",
            str(tmp_path / "mean"),
        ],
        capture_output=True,
        text=True,
    )

    ok = oversized.returncode in (3, 4) and mean_mode.returncode == 5
    report(
        "criterion 09 failure honesty",
        ok,
        f"x1e4 forcing exit {oversized.returncode} in (3, 4); "
        f"mean-mode forcing exit {mean_mode.returncode} == 5",
    )


def test_criterion_10_regularity_identities(trig_run, monkeypatch):
    _, _, _, _, sol = trig_run
    good = regularity_bootstrap_check(sol)
    monkeypatch.setattr(
        "periodicflow.diagnostics._half_time_factor", wrong_branch_half_factor
    )
    bad = regularity_bootstrap_check(sol)
    good_worst = max(good.mixed_derivative_mismatch, good.factorization_mismatch)
    bad_best = min(bad.mixed_derivative_mismatch, bad.factorization_mismatch)
    ok = good_worst <= 1e-9 and bad_best >= 1e-2
    report(
        "criterion 10 regularity identities",
        ok,
        f"principal-branch mismatch {good_worst:.3e} <= 1e-9, "
        f"wrong-branch mismatch {bad_best:.3e} >= 1e-2",
    )

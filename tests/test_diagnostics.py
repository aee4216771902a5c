import math

import numpy as np
import pytest

from periodicflow import (
    Grid,
    NormReport,
    Params,
    PhysicalField,
    SpectralField,
    coeff_norm,
    cross_orthogonality,
    energy_balance,
    energy_inequality_check,
    forward,
    manufactured,
    manufactured_preset,
    norms,
    oscillatory_part,
    random_smooth,
    regularity_bootstrap_check,
    solve,
    spectrum_decay,
    split,
    time_mean_part,
)
from periodicflow.diagnostics import _lq_spacetime
from halfspec import wrong_branch_half_derivative

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def trig_solution(grid16_module, params1_module):
    u_star, p_star = manufactured_preset("trig", amplitude=0.05, grid=grid16_module)
    f, u, p = manufactured(u_star, p_star, params1_module, grid16_module)
    sol = solve(f, params1_module, grid16_module)
    return sol, forward(f)


@pytest.fixture(scope="module")
def grid16_module():
    from periodicflow import Grid

    return Grid(box=(TWO_PI,) * 3, n_space=(16, 16, 16), n_time=16, period=TWO_PI)


@pytest.fixture(scope="module")
def params1_module():
    from periodicflow import Params

    return Params(lam=1.0, period=TWO_PI)


def zero_field(grid, components=3):
    return PhysicalField(grid, np.zeros((components,) + grid.shape))


def random_spectrum(grid, seed, components=3):
    rng = np.random.default_rng(seed)
    return forward(PhysicalField(grid, rng.standard_normal((components,) + grid.shape)))


def test_norms_of_zero_field_vanish(grid8, params1):
    report = norms(zero_field(grid8), params1, p=zero_field(grid8, components=1))
    q = 1.2
    assert report.lq[q] == 0.0
    assert report.w21q[q] == 0.0
    assert report.xoseen[q].total == 0.0
    assert report.xpres[(q, 6.0)] == 0.0
    assert report.lam == 1.0
    assert report.driftless is False


def test_norms_are_one_homogeneous(grid8, params1):
    rng = np.random.default_rng(100)
    u_values = rng.standard_normal((3,) + grid8.shape)
    p_values = rng.standard_normal((1,) + grid8.shape)
    one = norms(PhysicalField(grid8, u_values), params1, p=PhysicalField(grid8, p_values))
    two = norms(
        PhysicalField(grid8, 2.0 * u_values), params1, p=PhysicalField(grid8, 2.0 * p_values)
    )
    q = 1.2
    assert two.lq[q] == pytest.approx(2.0 * one.lq[q], rel=1e-12)
    assert two.w21q[q] == pytest.approx(2.0 * one.w21q[q], rel=1e-12)
    assert two.xoseen[q].total == pytest.approx(2.0 * one.xoseen[q].total, rel=1e-12)
    assert two.xpres[(q, 6.0)] == pytest.approx(2.0 * one.xpres[(q, 6.0)], rel=1e-12)


def test_space_time_lebesgue_oracle(grid8):
    amp = 0.7
    x1 = np.broadcast_to(grid8.coordinate_fields()[0], grid8.shape)
    u = PhysicalField(grid8, (amp * np.cos(x1))[np.newaxis])
    # grid-exact quadrature of |A cos x1|^2 gives A^2/2 per unit volume
    val = _lq_spacetime(np.abs(u.values[0]), 2.0, grid8)
    expected = math.sqrt(grid8.volume * amp * amp / 2.0)
    assert val == pytest.approx(expected, rel=1e-12)
    spec = forward(u)
    assert val == pytest.approx(math.sqrt(grid8.volume) * coeff_norm(spec), rel=1e-12)


def test_invalid_exponents_are_rejected(grid8, params1):
    u = zero_field(grid8)
    with pytest.raises(ValueError, match="open interval"):
        norms(u, params1, q_list=(1.0,))
    with pytest.raises(ValueError, match="open interval"):
        norms(u, params1, q_list=(2.5,))
    p = forward(zero_field(grid8, components=1))
    with pytest.raises(ValueError, match=r"\(1, inf\)"):
        norms(u, params1, p=p, q_list=(1.5,), r_list=(1.0,))
    with pytest.raises(ValueError, match="open interval"):
        norms(u, params1, p=p, q_list=(3.0,), r_list=(6.0,))


def test_energy_balance_of_rest_state(grid8):
    zero = forward(zero_field(grid8))
    report = energy_balance(zero, zero)
    assert report.dissipation == 0.0
    assert report.power_in == 0.0
    assert report.relative_gap == 0.0


def test_energy_balance_on_converged_solution(trig_solution):
    sol, f_hat = trig_solution
    report = energy_balance(sol.u, f_hat)
    assert report.dissipation > 0.0
    assert report.relative_gap <= 1e-6


def test_energy_inequality_check_interface(grid8, trig_solution):
    zero = forward(zero_field(grid8))
    lhs, rhs, holds = energy_inequality_check(zero, zero)
    assert (lhs, rhs, holds) == (0.0, 0.0, True)

    sol, f_hat = trig_solution
    lhs, rhs, holds = energy_inequality_check(sol.u, f_hat)
    assert holds
    assert lhs == pytest.approx(rhs, rel=1e-6)
    # doubling the field quadruples dissipation but only doubles the power
    lhs2, rhs2, holds2 = energy_inequality_check(sol.u * 2.0, f_hat)
    assert not holds2
    assert lhs2 > rhs2


def test_cross_orthogonality_of_split_parts(grid8):
    u = random_spectrum(grid8, seed=103)
    v, w = split(u)
    assert cross_orthogonality(v, w) == 0.0
    zero = forward(zero_field(grid8))
    assert cross_orthogonality(v, zero) == 0.0
    assert cross_orthogonality(v, v) > 0.0
    small = random_spectrum(grid8, seed=104)
    with pytest.raises(ValueError):
        from periodicflow import Grid

        other = Grid(box=(TWO_PI,) * 3, n_space=(4, 4, 4), n_time=4, period=TWO_PI)
        cross_orthogonality(small, forward(zero_field(other)))


def test_dissipation_splits_through_cross_term(grid8):
    a = random_spectrum(grid8, seed=105)
    b = random_spectrum(grid8, seed=106)
    def diss(spec):
        return energy_balance(spec, spec).dissipation

    lhs = diss(a + b)
    rhs = diss(a) + diss(b) + 2.0 * cross_orthogonality(a, b)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_spectrum_decay_single_mode(grid8):
    coeffs = np.zeros((1,) + grid8.spectral_shape, dtype=np.complex128)
    coeffs[0, 0, 0, 0, 2] = 0.25  # |n| = 2, k = 0
    table = spectrum_decay(SpectralField(grid8, coeffs))
    assert table.max_abs[2] == pytest.approx(0.25)
    assert table.max_abs[0] == 0.0
    assert table.peak == pytest.approx(0.25)
    assert table.top_shell_max == table.max_abs[-1]
    assert table.monotone_from_peak
    assert len(table.csv_rows()) == len(table.shells)
    # counts cover the whole lattice less its Nyquist planes, 7 modes per axis
    assert table.counts.sum() == 7**4


def test_spectrum_decay_flags_rising_tail(grid8):
    coeffs = np.zeros((1,) + grid8.spectral_shape, dtype=np.complex128)
    coeffs[0, 0, 0, 0, 1] = 1.0  # shell 1
    coeffs[0, 0, 0, 0, 3] = 0.5  # shell 3, after an empty shell 2
    table = spectrum_decay(SpectralField(grid8, coeffs))
    assert not table.monotone_from_peak


def test_spectrum_of_converged_solution_decays(trig_solution):
    sol, _ = trig_solution
    table = spectrum_decay(sol.u)
    assert table.monotone_from_peak
    assert table.top_shell_max <= 1e-12 * table.peak


def test_regularity_identities_on_rest_state(grid8, params1):
    sol = solve(forward(zero_field(grid8)), params1, grid8)
    report = regularity_bootstrap_check(sol)
    assert report.mixed_derivative_mismatch == 0.0
    assert report.factorization_mismatch == 0.0
    assert math.isfinite(report.multiplier_sup)


def test_regularity_identities_on_converged_solution(trig_solution, monkeypatch):
    sol, _ = trig_solution
    good = regularity_bootstrap_check(sol)
    assert good.mixed_derivative_mismatch <= 1e-9
    assert good.factorization_mismatch <= 1e-9
    monkeypatch.setattr(
        "periodicflow.diagnostics.half_time_derivative", wrong_branch_half_derivative
    )
    bad = regularity_bootstrap_check(sol)
    assert bad.mixed_derivative_mismatch >= 1e-2
    assert bad.factorization_mismatch >= 1e-2


def test_norm_report_csv(grid8, params1):
    u = zero_field(grid8)
    with_p = norms(u, params1, p=zero_field(grid8, components=1), q_list=(1.2, 1.5), r_list=(4.0, 6.0))
    rows = with_p.csv_rows()
    assert len(rows) == 4
    header_fields = NormReport.csv_header().count(",")
    assert all(row.count(",") == header_fields for row in rows)
    without_p = norms(u, params1, q_list=(1.2, 1.5))
    rows = without_p.csv_rows()
    assert len(rows) == 2
    assert all(row.count(",") == header_fields for row in rows)


def test_norms_batched_over_exponents_match_single_calls(grid8, params1):
    rng = np.random.default_rng(107)
    u = forward(PhysicalField(grid8, rng.standard_normal((3,) + grid8.shape)))
    p = forward(PhysicalField(grid8, rng.standard_normal((1,) + grid8.shape)))
    q_list, r_list = (1.2, 1.5, 1.8), (4.0, 6.0)
    batched = norms(u, params1, p=p, q_list=q_list, r_list=r_list)
    for q in q_list:
        single = norms(u, params1, p=p, q_list=(q,), r_list=r_list)
        assert batched.lq[q] == pytest.approx(single.lq[q], rel=1e-12)
        assert batched.w21q[q] == pytest.approx(single.w21q[q], rel=1e-12)
        for field in ("amplitude", "gradient", "drift", "hessian"):
            got = getattr(batched.xoseen[q], field)
            assert got == pytest.approx(getattr(single.xoseen[q], field), rel=1e-12)
        for r in r_list:
            assert batched.xpres[(q, r)] == pytest.approx(single.xpres[(q, r)], rel=1e-12)


def test_norms_transform_count_does_not_grow_with_exponents(grid8, params1, monkeypatch):
    import periodicflow.diagnostics as diagnostics

    calls = []

    def counting(original):
        def wrapper(spec, *args, **kwargs):
            calls.append(spec.components)
            return original(spec, *args, **kwargs)

        return wrapper

    for name in ("inverse", "_derivative_nodes"):
        monkeypatch.setattr(diagnostics, name, counting(getattr(diagnostics, name)))
    rng = np.random.default_rng(108)
    u = forward(PhysicalField(grid8, rng.standard_normal((3,) + grid8.shape)))
    p = forward(PhysicalField(grid8, rng.standard_normal((1,) + grid8.shape)))
    counts = []
    for q_list in ((1.2,), (1.2, 1.5, 1.8), (1.1, 1.2, 1.3, 1.4, 1.5, 1.6)):
        calls.clear()
        norms(u, params1, p=p, q_list=q_list, r_list=(4.0, 6.0))
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts == [counts[0]] * len(counts)


@pytest.mark.parametrize("check", [energy_balance, energy_inequality_check], ids=lambda f: f.__name__)
def test_energy_checks_reject_a_scalar_forcing(trig_solution, check):
    sol, f_hat = trig_solution
    scalar = SpectralField(f_hat.grid, f_hat.coeffs[:1])
    with pytest.raises(ValueError, match="forcing must have 3 components, got 1"):
        check(sol.u, scalar)


@pytest.mark.parametrize("check", [energy_balance, energy_inequality_check], ids=lambda f: f.__name__)
def test_energy_checks_reject_a_scalar_velocity(trig_solution, check):
    sol, f_hat = trig_solution
    scalar = SpectralField(f_hat.grid, sol.u.coeffs[:1])
    with pytest.raises(ValueError, match="velocity must have 3 components, got 1"):
        check(scalar, f_hat)


def test_norms_reject_a_scalar_velocity_and_a_vector_pressure(grid8, params1):
    u = random_spectrum(grid8, seed=301)
    with pytest.raises(ValueError, match="velocity must have 3 components, got 1"):
        norms(SpectralField(grid8, u.coeffs[:1]), params1)
    with pytest.raises(ValueError, match="pressure must have 1 component, got 3"):
        norms(u, params1, p=u)


def test_cross_orthogonality_rejects_a_scalar_part(grid8):
    v, w = split(random_spectrum(grid8, seed=302))
    with pytest.raises(ValueError, match="steady part must have 3 components, got 1"):
        cross_orthogonality(SpectralField(grid8, v.coeffs[:1]), w)
    with pytest.raises(ValueError, match="oscillatory part must have 3 components, got 1"):
        cross_orthogonality(v, SpectralField(grid8, w.coeffs[:1]))


ANISO_GRID = Grid(box=(TWO_PI, math.pi, 4.0 * math.pi), n_space=(24, 16, 12), n_time=16, period=0.7)
ANISO_PARAMS = Params(lam=-1.5, period=0.7)


def test_steady_and_oscillatory_norms_read_their_own_part():
    """The Oseen norm sees only v and W^{2,1}_q only w, though both come from the nodes of u."""
    q_list = (1.2, 1.5, 1.8)
    u = forward(random_smooth(seed=303, amplitude=1.0, cutoff_shell=3, grid=ANISO_GRID))
    full = norms(u, ANISO_PARAMS, q_list=q_list)
    steady = norms(time_mean_part(u), ANISO_PARAMS, q_list=q_list)
    oscillating = norms(oscillatory_part(u), ANISO_PARAMS, q_list=q_list)
    for q in q_list:
        assert full.w21q[q] == pytest.approx(oscillating.w21q[q], rel=1e-12)
        for field in ("amplitude", "gradient", "drift", "hessian"):
            value = getattr(full.xoseen[q], field)
            assert value > 0.0
            assert value == pytest.approx(getattr(steady.xoseen[q], field), rel=1e-12)


def test_steady_field_has_no_oscillatory_norm():
    u_star, p_star = manufactured_preset("steady", amplitude=0.05, grid=ANISO_GRID)
    _, u, _ = manufactured(u_star, p_star, ANISO_PARAMS, ANISO_GRID)
    report = norms(u, ANISO_PARAMS, q_list=(1.2, 1.5, 1.8))
    for q, lq in report.lq.items():
        assert lq > 0.0
        assert report.w21q[q] <= 1e-13 * lq

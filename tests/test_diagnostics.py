import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft

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
    inverse,
    manufactured,
    manufactured_preset,
    norms,
    oscillatory_part,
    random_smooth,
    regularity_bootstrap_check,
    solve,
    spectrum_decay,
    time_mean_part,
)
from periodicflow import fourier
from periodicflow.diagnostics import _lebesgue, _power_sums
from halfspec import CountingFFT, traced_peak, wrong_branch_half_derivative

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
    val = _lebesgue(grid8.volume / grid8.size, _power_sums(u.values, (2.0,)), (2.0,))[0]
    expected = math.sqrt(grid8.volume * amp * amp / 2.0)
    assert val == pytest.approx(expected, rel=1e-12)
    spec = forward(u)
    assert val == pytest.approx(math.sqrt(grid8.volume) * coeff_norm(spec), rel=1e-12)


@pytest.mark.parametrize("q", (1.2, 1.5))
def test_oseen_terms_closed_form(grid8, q):
    """v = (0, cos x1, sin x1) has |v|, |grad v|, |d1 v| and |grad^2 v| equal to 1 at every node.

    So each term of the Oseen norm is its weight times V^(1/s), with V the box
    volume and s its exponent: 2q/(2-q), 4q/(4-q), q and q.
    """
    lam = 2.0
    x1 = np.broadcast_to(grid8.coordinate_fields()[0], grid8.shape)
    v = PhysicalField(grid8, np.stack([np.zeros(grid8.shape), np.cos(x1), np.sin(x1)]))
    terms = norms(v, Params(lam=lam, period=grid8.period), q_list=(q,)).xoseen[q]
    volume = grid8.volume
    expected = (
        lam**0.5 * volume ** ((2.0 - q) / (2.0 * q)),
        lam**0.25 * volume ** ((4.0 - q) / (4.0 * q)),
        lam * volume ** (1.0 / q),
        volume ** (1.0 / q),
    )
    assert (terms.amplitude, terms.gradient, terms.drift, terms.hessian) == pytest.approx(expected, rel=1e-12)


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


def test_empty_exponent_lists_are_rejected(grid8, params1):
    u = zero_field(grid8)
    p = forward(zero_field(grid8, components=1))
    with pytest.raises(ValueError, match=r"^q .* at least one value"):
        norms(u, params1, q_list=())
    with pytest.raises(ValueError, match=r"^r .* at least one value"):
        norms(u, params1, p=p, r_list=())
    # without a pressure no r is read, so none is needed
    assert norms(u, params1, r_list=()).xpres == {}


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
    v, w = time_mean_part(u), oscillatory_part(u)
    assert cross_orthogonality(v, w) == 0.0
    zero = forward(zero_field(grid8))
    assert cross_orthogonality(v, zero) == 0.0
    assert cross_orthogonality(v, v) > 0.0
    small = random_spectrum(grid8, seed=104)
    with pytest.raises(ValueError):
        from periodicflow import Grid

        other = Grid(box=(TWO_PI,) * 3, n_space=(4, 4, 4), n_time=4, period=TWO_PI)
        cross_orthogonality(small, forward(zero_field(other)))


@pytest.mark.parametrize(
    "grid",
    [Grid(box=(TWO_PI,) * 3, n_space=(8, 8, 8), n_time=8, period=TWO_PI),
     Grid(box=(2.5, 1.0, 7.0), n_space=(8, 12, 16), n_time=10, period=0.7)],
    ids=["cube", "aniso"],
)
def test_gradient_inner_products_match_the_whole_array_formula(grid):
    """Weighted by |xi|^2 one time node at a time, the dissipation and the cross term are the whole-array sums."""
    a, c = random_spectrum(grid, seed=107), random_spectrum(grid, seed=108)
    b = a + 0.5 * c  # correlated with a, so the cross term is far from a cancellation

    def whole(x, y):
        return grid.volume * fourier._lattice_dot(x.coeffs, grid.xi_sq * y.coeffs, grid)

    for got, want in [(energy_balance(a, c).dissipation, whole(a, a)), (cross_orthogonality(a, b), whole(a, b))]:
        assert want > 0.0
        assert abs(got - want) <= 1e-14 * want


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
    """One ``norms`` call, in passes over one scalar field, whatever the number of exponents.

    u costs the ten-field tree (20 passes), the tree of its k = 0 plane (19
    passes on 1/M of the volume) and the (0, 0, 0) leaf of its time
    derivative (4), three components each; p adds its value and gradient
    tree (10).
    """
    rng = np.random.default_rng(108)
    u = forward(PhysicalField(grid8, rng.standard_normal((3,) + grid8.shape)))
    p = forward(PhysicalField(grid8, rng.standard_normal((1,) + grid8.shape)))
    plane = Fraction(1, grid8.n_time)
    # the ten-field tree, the k = 0 plane's tree, and the leaf of du/dt
    velocity = {
        ("ifft", 1): 1 + 1,
        ("ifft", 2): 3 + 3 * plane + 1,
        ("ifft", 3): 6 + 6 * plane + 1,
        ("irfft", 4): 10 + 10 * plane + 1,
    }
    pressure = {("ifft", 1): 1, ("ifft", 2): 2, ("ifft", 3): 3, ("irfft", 4): 4}
    for q_list in ((1.2,), (1.2, 1.5, 1.8), (1.1, 1.2, 1.3, 1.4, 1.5, 1.6)):
        counter = CountingFFT(grid8, components=1)
        monkeypatch.setattr(fourier, "_fft", counter)
        norms(u, params1, p=p, q_list=q_list, r_list=(4.0, 6.0))
        assert counter.volume == {key: 3 * n + pressure[key] for key, n in velocity.items()}, q_list
        assert sum(counter.volume.values()) == 3 * (20 + 19 * plane + 4) + 10


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
    u = random_spectrum(grid8, seed=302)
    v, w = time_mean_part(u), oscillatory_part(u)
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


# every spatial order (a1, a2, a3) up to two
MULTI_INDICES = [alpha for alpha in itertools.product(range(3), repeat=3) if sum(alpha) <= 2]


def whole_array_norms(u, p, q_list, r_list, lam):
    """The norm families written out over whole 4-d arrays: each field from its own ``scipy.fft.irfftn``."""
    grid = u.grid
    volume, dt = grid.volume, grid.period / grid.n_time

    def nodes(coeffs, alpha=(0, 0, 0)):
        factor = (1j * grid.xi1) ** alpha[0] * (1j * grid.xi2) ** alpha[1] * (1j * grid.xi3) ** alpha[2]
        return scipy.fft.irfftn(coeffs * factor, s=grid.shape, axes=(-4, -3, -2, -1), norm="forward")

    def magnitude(values):
        return np.sqrt(np.sum(values**2, axis=0))

    def norm(mag, q, axis=None):
        """L^q with the rectangle rule over every node (or over the box alone, per time node)."""
        return (volume * np.mean(mag**q, axis=axis)) ** (1.0 / q)

    u_alpha = {alpha: nodes(u.coeffs, alpha) for alpha in MULTI_INDICES}
    v_alpha = {alpha: values.mean(axis=1) for alpha, values in u_alpha.items()}
    w_mags = [magnitude(u_alpha[alpha] - v_alpha[alpha][:, np.newaxis]) for alpha in MULTI_INDICES]
    w_mags.append(magnitude(nodes(u.coeffs * (1j * grid.omega))))
    hessian = [(1.0 if 2 in alpha else 2.0) * v_alpha[alpha] ** 2 for alpha in MULTI_INDICES if sum(alpha) == 2]
    v_gradient = np.sqrt(sum(v_alpha[alpha] ** 2 for alpha in ((1, 0, 0), (0, 1, 0), (0, 0, 1))).sum(axis=0))
    p_nodes = nodes(p.coeffs)[0]
    grad_p = magnitude(np.concatenate([nodes(p.coeffs, alpha) for alpha in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]))
    out = {"lq": {}, "w21q": {}, "xoseen": {}, "xpres": {}}
    for q in q_list:
        out["lq"][q] = norm(magnitude(u_alpha[(0, 0, 0)]), q)
        out["w21q"][q] = sum(norm(mag, q) ** q for mag in w_mags) ** (1.0 / q)
        out["xoseen"][q] = (
            abs(lam) ** 0.5 * norm(magnitude(v_alpha[(0, 0, 0)]), 2.0 * q / (2.0 - q)),
            abs(lam) ** 0.25 * norm(v_gradient, 4.0 * q / (4.0 - q)),
            abs(lam) * norm(magnitude(v_alpha[(1, 0, 0)]), q),
            norm(np.sqrt(sum(hessian).sum(axis=0)), q),
        )
        s = 3.0 * q / (3.0 - q)
        per_node = norm(np.abs(p_nodes), s, axis=(1, 2, 3)) ** q + norm(grad_p, q, axis=(1, 2, 3)) ** q
        for r in r_list:
            out["xpres"][(q, r)] = np.sum(dt * per_node) ** (1.0 / q) + norm(grad_p, r)
    return out


def test_norms_match_the_whole_array_reference():
    """``norms`` with a pressure, node by node, against the families written out over whole arrays."""
    q_list, r_list = (1.2, 1.5, 1.8), (4.0, 6.0)
    rng = np.random.default_rng(309)
    u = forward(random_smooth(seed=309, amplitude=1.0, cutoff_shell=3, grid=ANISO_GRID))
    p = forward(PhysicalField(ANISO_GRID, rng.standard_normal((1,) + ANISO_GRID.shape)))
    report = norms(u, ANISO_PARAMS, p=p, q_list=q_list, r_list=r_list)
    expected = whole_array_norms(u, p, q_list, r_list, ANISO_PARAMS.lam)
    for q in q_list:
        assert report.lq[q] == pytest.approx(expected["lq"][q], rel=1e-12)
        assert report.w21q[q] == pytest.approx(expected["w21q"][q], rel=1e-12)
        terms = report.xoseen[q]
        got = (terms.amplitude, terms.gradient, terms.drift, terms.hessian)
        assert got == pytest.approx(expected["xoseen"][q], rel=1e-12)
        assert all(value > 0.0 for value in got)
        for r in r_list:
            assert report.xpres[(q, r)] == pytest.approx(expected["xpres"][(q, r)], rel=1e-12)


def test_norms_and_inverse_are_byte_identical_on_one_two_and_three_threads(monkeypatch):
    u = forward(random_smooth(seed=310, amplitude=1.0, cutoff_shell=3, grid=ANISO_GRID))
    p = forward(PhysicalField(ANISO_GRID, np.random.default_rng(310).standard_normal((1,) + ANISO_GRID.shape)))
    reports, nodes = [], []
    for cores in (1, 2, 3):
        monkeypatch.setattr(fourier, "_cores", lambda: cores)
        reports.append(norms(u, ANISO_PARAMS, p=p, q_list=(1.2, 1.5, 1.8), r_list=(4.0, 6.0)))
        nodes.append(inverse(u).values.tobytes() + inverse(p).values.tobytes())
    assert reports[0] == reports[1] == reports[2]
    assert nodes[0] == nodes[1] == nodes[2]


def test_norms_hand_over_their_time_derivative(grid16_module, params1_module, two_threads):
    """du/dt is used once, so its time pass runs in place on it and makes no whole copy.

    At 16^4 the traced peak of ``norms(u, params, p)`` is 2.06 times the
    velocity spectrum; a time-passed copy of du/dt took it to 2.76.
    """
    u = random_spectrum(grid16_module, 31)
    p = random_spectrum(grid16_module, 32, components=1)
    peak = traced_peak(lambda: norms(u, params1_module, p=p))
    assert peak < 2.4 * u.coeffs.nbytes

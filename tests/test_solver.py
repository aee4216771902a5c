import dataclasses

import numpy as np
import pytest

from periodicflow import (
    Diverging,
    Grid,
    NoConvergence,
    Params,
    PhysicalField,
    Solution,
    SolverConfig,
    SpectralField,
    coeff_norm,
    cross_orthogonality,
    divergence,
    energy_balance,
    energy_inequality_check,
    forward,
    inverse,
    manufactured,
    manufactured_preset,
    norms,
    oscillatory_part,
    oseen_apply,
    oseen_inverse,
    pde_residual,
    picard_step,
    random_smooth,
    recover_pressure,
    solve,
    time_mean_part,
)
from periodicflow import solver

TWO_PI = 2.0 * np.pi


def zero_spectrum(grid, components=3):
    return SpectralField(grid, np.zeros((components,) + grid.spectral_shape, dtype=np.complex128))


def trig_problem(grid, params, amplitude=0.05):
    u_star, p_star = manufactured_preset("trig", amplitude=amplitude, grid=grid)
    return manufactured(u_star, p_star, params, grid)


def relative_gap(a, b):
    scale = max(np.abs(b).max(), 1e-300)
    return np.abs(a - b).max() / scale


def test_split_recombines_exactly(grid8):
    rng = np.random.default_rng(90)
    u = forward(PhysicalField(grid8, rng.standard_normal((3,) + grid8.shape)))
    v, w = time_mean_part(u), oscillatory_part(u)
    assert np.abs(v.coeffs[:, 1:, :, :, :]).max() == 0.0
    assert np.abs(w.coeffs[:, 0]).max() == 0.0
    assert np.array_equal(v.coeffs + w.coeffs, u.coeffs)


def test_picard_step_of_rest_is_zero(grid8, params1):
    out = picard_step(zero_spectrum(grid8), zero_spectrum(grid8), params1)
    assert np.abs(out.coeffs).max() == 0.0


def test_picard_step_single_mode_hand_division(grid8, params1):
    # Forcing c = (1,0,0) at xi = (0,1,0), omega = 1 plus its conjugate
    # partner.  The mode is already solenoidal (xi . c = 0) and transport
    # vanishes at rest, so the update is f divided by the operator symbol
    # |xi|^2 + i(omega - lam xi1) = 1 + i.
    f = np.zeros((3,) + grid8.spectral_shape, dtype=np.complex128)
    f[0, 1, 0, 1, 0] = 1.0
    f[0, -1, 0, -1, 0] = 1.0
    out = picard_step(zero_spectrum(grid8), SpectralField(grid8, f), params1)
    assert out.coeffs[0, 1, 0, 1, 0] == pytest.approx(1.0 / (1.0 + 1.0j), abs=1e-14)
    assert out.coeffs[0, -1, 0, -1, 0] == pytest.approx(1.0 / (1.0 - 1.0j), abs=1e-14)
    rest = out.coeffs.copy()
    rest[0, 1, 0, 1, 0] = 0.0
    rest[0, -1, 0, -1, 0] = 0.0
    assert np.abs(rest).max() <= 1e-14


def test_manufactured_solution_is_picard_fixed_point(grid16, params1):
    f, u_star, _ = trig_problem(grid16, params1)
    u_hat = forward(u_star)
    out = picard_step(u_hat, forward(f), params1)
    assert relative_gap(out.coeffs, u_hat.coeffs) <= 1e-9


def test_solve_zero_forcing_returns_rest(grid8, params1):
    sol = solve(zero_spectrum(grid8), params1, grid8)
    assert sol.iterations == 1
    assert np.abs(sol.u.coeffs).max() == 0.0
    assert np.abs(sol.p.coeffs).max() == 0.0


def test_solve_recovers_manufactured_solution(grid16, params1):
    f, u_star, p_star = trig_problem(grid16, params1)
    sol = solve(f, params1, grid16)
    assert isinstance(sol, Solution)
    assert sol.iterations <= 50
    assert relative_gap(sol.u.coeffs, forward(u_star).coeffs) <= 1e-8
    assert relative_gap(sol.p.coeffs, forward(p_star).coeffs) <= 1e-9
    assert sol.contraction_estimate < 0.5
    assert pde_residual(sol.u, sol.p, f, params1) <= 1e-8


def test_solution_is_independent_of_initial_guess(grid16, params1):
    f, _, _ = trig_problem(grid16, params1)
    base = solve(f, params1, grid16)
    guess = random_smooth(seed=23, amplitude=0.5, cutoff_shell=2, grid=grid16)
    other = solve(f, params1, grid16, SolverConfig(initial_guess=guess))
    assert relative_gap(other.u.coeffs, base.u.coeffs) <= 1e-8


def test_solve_leaves_a_spectral_initial_guess_unchanged(grid8, params1):
    """Each update overwrites an iterate the loop made itself, never the caller's guess."""
    f, _, _ = trig_problem(grid8, params1)
    guess = forward(random_smooth(seed=24, amplitude=0.5, cutoff_shell=2, grid=grid8))
    before = guess.coeffs.copy()
    sol = solve(f, params1, grid8, SolverConfig(initial_guess=guess))
    assert sol.iterations > 1
    assert guess.coeffs.tobytes() == before.tobytes()


def test_solution_is_solenoidal(grid16, params1):
    f, _, _ = trig_problem(grid16, params1)
    sol = solve(f, params1, grid16)
    scale = max(np.abs(sol.u.coeffs).max(), 1e-300)
    assert np.abs(divergence(sol.u).coeffs).max() <= 1e-10 * scale
    assert np.abs(sol.v.coeffs[:, 1:, :, :, :]).max() == 0.0
    assert np.abs(sol.w.coeffs[:, 0]).max() == 0.0


def test_plane_by_plane_solve_matches_joint_step(grid8, params1):
    from periodicflow import helmholtz, oseen_inverse, convective, time_mean_part, oscillatory_part

    f = forward(random_smooth(seed=29, amplitude=0.2, cutoff_shell=2, grid=grid8))
    u = forward(random_smooth(seed=30, amplitude=0.2, cutoff_shell=2, grid=grid8))
    rhs = helmholtz(f - convective(u))
    joint = picard_step(u, f, params1)
    steady = oseen_inverse(time_mean_part(rhs), params1)
    oscillating = oseen_inverse(oscillatory_part(rhs), params1)
    assert np.array_equal(steady.coeffs + oscillating.coeffs, joint.coeffs)


def test_solve_takes_one_picard_step_per_iteration(grid8, params1, monkeypatch):
    """Each iteration is one ``picard_step`` call, so per-step timings divide by the iteration count."""
    calls = []

    def counted(*args):
        calls.append(1)
        return picard_step(*args)

    monkeypatch.setattr(solver, "picard_step", counted)
    f, _, _ = trig_problem(grid8, params1)
    sol = solve(f, params1, grid8)
    assert sol.iterations >= 2
    assert len(calls) == sol.iterations


def test_update_history_contracts(grid8, params1):
    f = forward(random_smooth(seed=31, amplitude=0.2, cutoff_shell=2, grid=grid8))
    sol = solve(f, params1, grid8, SolverConfig(tol=1e-12))
    assert sol.iterations == len(sol.update_history)
    assert sol.iterations >= 3
    tail = sol.update_history[1:]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert sol.contraction_estimate < 0.5


def test_oversized_forcing_diverges(grid8, params1):
    u_star, p_star = manufactured_preset("analytic", amplitude=0.05, grid=grid8)
    f, _, _ = manufactured(u_star, p_star, params1, grid8, solenoidal_tol=1e-2)
    big = PhysicalField(grid8, f.values * 1e4)
    with pytest.raises(Diverging) as info:
        solve(big, params1, grid8)
    assert len(info.value.update_history) >= 1


@pytest.mark.parametrize(
    "scale, match, history",
    [
        (1e61, r"iterate norm passed 1e\+120", (1.0,)),
        (1e80, "iterates stopped being finite", ()),
    ],
    ids=["norm-past-the-blowup-bound", "not-finite"],
)
def test_a_huge_initial_guess_diverges_before_overflow(grid8, params1, scale, match, history):
    """A guess this large trips an overflow guard on the first step, before any growth streak."""
    f = random_smooth(seed=1, amplitude=1e-2, cutoff_shell=2, grid=grid8)
    guess = random_smooth(seed=2, amplitude=scale, cutoff_shell=2, grid=grid8)
    with pytest.raises(Diverging, match=match) as info:
        solve(f, params1, grid8, SolverConfig(initial_guess=guess))
    assert info.value.update_history == history


def test_iteration_budget_is_enforced(grid8, params1):
    f = forward(random_smooth(seed=33, amplitude=0.2, cutoff_shell=2, grid=grid8))
    with pytest.raises(NoConvergence) as info:
        solve(f, params1, grid8, SolverConfig(tol=1e-14, max_iter=2))
    assert len(info.value.update_history) == 2


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    # unchecked, 2.5 would fail later in ``range``; the message starts with the field's name, for the CLI
    for max_iter in (2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^max_iter must be a whole number"):
            SolverConfig(max_iter=max_iter)


def test_solver_config_takes_an_integral_float_max_iter(grid8, params1):
    config = SolverConfig(max_iter=3.0)
    assert type(config.max_iter) is int
    solve(zero_spectrum(grid8), params1, grid8, config)


def test_grid_mismatch_is_rejected(grid8, grid16, params1):
    f = zero_spectrum(grid8)
    with pytest.raises(ValueError):
        solve(f, params1, grid16)
    guess = zero_spectrum(grid8)
    with pytest.raises(ValueError):
        solve(zero_spectrum(grid16), params1, grid16, SolverConfig(initial_guess=guess))


CUBE = Grid(box=(TWO_PI,) * 3, n_space=(8, 8, 8), n_time=8, period=TWO_PI)
# the shape of ``CUBE`` on another box and period
SMALL_BOX = Grid(box=(np.pi,) * 3, n_space=(8, 8, 8), n_time=8, period=1.0)


def random_field(grid, seed, components=3):
    return forward(PhysicalField(grid, np.random.default_rng(seed).standard_normal((components,) + grid.shape)))


def grid_mismatch_cases():
    """One case per entry point and operand: that operand on ``SMALL_BOX``, every other field on ``CUBE``."""
    params = Params(lam=1.0, period=TWO_PI)
    u, f, p = random_field(CUBE, 1), random_field(CUBE, 2), random_field(CUBE, 3, components=1)
    u_off, p_off = random_field(SMALL_BOX, 1), random_field(SMALL_BOX, 3, components=1)
    f_off = inverse(random_field(SMALL_BOX, 2))  # node values take the same check
    calls = [
        ("solve", "forcing", lambda: solve(f_off, params, CUBE)),
        ("solve", "initial guess", lambda: solve(f, params, CUBE, SolverConfig(initial_guess=u_off))),
        ("picard_step", "forcing", lambda: picard_step(u, f_off, params)),
        ("pde_residual", "pressure", lambda: pde_residual(u, p_off, f, params)),
        ("pde_residual", "forcing", lambda: pde_residual(u, p, f_off, params)),
        ("recover_pressure", "forcing", lambda: recover_pressure(u, f_off)),
        ("norms", "pressure", lambda: norms(u, params, p=p_off)),
        ("energy_balance", "forcing", lambda: energy_balance(u, f_off)),
        ("energy_inequality_check", "forcing", lambda: energy_inequality_check(u, f_off)),
        ("cross_orthogonality", "oscillatory part", lambda: cross_orthogonality(u, u_off)),
    ]
    return [pytest.param(operand, call, id=f"{name}-{operand}") for name, operand, call in calls]


@pytest.mark.parametrize("operand, call", grid_mismatch_cases())
def test_a_field_on_another_grid_of_the_same_shape_is_rejected(operand, call):
    """Unchecked, such a field would be computed on the first field's grid, or fail later without being named."""
    with pytest.raises(ValueError, match=f"^{operand} lies on Grid"):
        call()


def test_period_mismatch_is_rejected(grid8, params1):
    # the grid's 2 pi period is the one solved for, so another period in params is an error
    f, _, _ = trig_problem(grid8, params1)
    with pytest.raises(ValueError, match="does not match the grid period"):
        solve(f, Params(lam=1.0, period=0.1), grid8)


@pytest.mark.parametrize("entry", ["picard_step", "pde_residual", "norms", "oseen_apply", "oseen_inverse"])
def test_every_entry_taking_params_rejects_another_period(grid8, params1, entry):
    """Each works on the grid's period, so another period in params is the error ``solve`` raises."""
    f, u, p = (forward(field) for field in trig_problem(grid8, params1))
    calls = {
        "picard_step": lambda params: picard_step(u, f, params),
        "pde_residual": lambda params: pde_residual(u, p, f, params),
        "norms": lambda params: norms(u, params, p=p),
        "oseen_apply": lambda params: oseen_apply(u, params),
        "oseen_inverse": lambda params: oseen_inverse(f, params),
    }
    calls[entry](params1)
    with pytest.raises(ValueError, match="^params period 1.0 does not match the grid period"):
        calls[entry](Params(lam=1.0, period=1.0))


def test_solution_stores_the_velocity_once(grid8, params1):
    f, _, _ = trig_problem(grid8, params1)
    sol = solve(f, params1, grid8)
    names = {fld.name for fld in dataclasses.fields(sol)}
    assert {"u", "p"} <= names and not names & {"v", "w"}
    assert np.array_equal(sol.v.coeffs, time_mean_part(sol.u).coeffs)
    assert np.array_equal(sol.v.coeffs + sol.w.coeffs, sol.u.coeffs)


def test_pressure_of_solenoidal_forcing_vanishes(grid8, params1):
    f = forward(random_smooth(seed=35, amplitude=1.0, cutoff_shell=2, grid=grid8))
    p = recover_pressure(zero_spectrum(grid8), f)
    assert np.abs(p.coeffs).max() <= 1e-13 * np.abs(f.coeffs).max()


def test_pressure_of_gradient_forcing_is_the_potential(grid8):
    from periodicflow import gradient

    x1 = np.broadcast_to(grid8.coordinate_fields()[0], grid8.shape)
    t = np.broadcast_to(grid8.coordinate_fields()[3], grid8.shape)
    phi = forward(PhysicalField(grid8, (np.cos(x1) * np.cos(t))[np.newaxis]))
    f = gradient(phi)
    p = recover_pressure(zero_spectrum(grid8), f)
    assert relative_gap(p.coeffs, phi.coeffs) <= 1e-11


def test_pde_residual_scales(grid8, params1):
    zero = zero_spectrum(grid8)
    assert pde_residual(zero, zero_spectrum(grid8, components=1), zero, params1) == 0.0
    rng = np.random.default_rng(37)
    u = forward(PhysicalField(grid8, rng.standard_normal((3,) + grid8.shape)))
    p = forward(PhysicalField(grid8, rng.standard_normal((1,) + grid8.shape)))
    f = forward(PhysicalField(grid8, rng.standard_normal((3,) + grid8.shape)))
    assert pde_residual(u, p, f, params1) > 1e-2


def test_coeff_norm_zero_for_rest_state(grid8, params1):
    sol = solve(zero_spectrum(grid8), params1, grid8)
    assert coeff_norm(sol.u) == 0.0


def scalar_forcing(grid, params):
    f, _, _ = trig_problem(grid, params)
    return PhysicalField(grid, f.values[:1])


def test_solve_rejects_a_scalar_forcing(grid8, params1):
    # broadcast to three components, it would converge to the solution of f = (s, s, s)
    with pytest.raises(ValueError, match="forcing must have 3 components, got 1"):
        solve(scalar_forcing(grid8, params1), params1, grid8)


def test_pde_residual_rejects_a_scalar_forcing(grid8, params1):
    f, u, p = trig_problem(grid8, params1)
    with pytest.raises(ValueError, match="forcing must have 3 components, got 1"):
        pde_residual(forward(u), forward(p), scalar_forcing(grid8, params1), params1)


@pytest.mark.parametrize("at_rest", [True, False], ids=["from-rest", "moving"])
def test_picard_step_rejects_a_scalar_forcing(grid8, params1, at_rest):
    # from rest the step skips the transport; from a moving state the transport's
    # three components would broadcast the scalar forcing, in the step and in
    # the pressure recovered from the same data
    _, u, _ = trig_problem(grid8, params1)
    start = zero_spectrum(grid8) if at_rest else forward(u)
    f_hat = forward(scalar_forcing(grid8, params1))
    with pytest.raises(ValueError, match="forcing must have 3 components, got 1"):
        picard_step(start, f_hat, params1)
    with pytest.raises(ValueError, match="forcing must have 3 components, got 1"):
        recover_pressure(start, f_hat)


@pytest.mark.parametrize("at_rest", [True, False], ids=["from-rest", "moving"])
def test_picard_step_takes_node_values_as_forcing(grid8, params1, at_rest):
    f, u, _ = trig_problem(grid8, params1)
    assert isinstance(f, PhysicalField)
    start = zero_spectrum(grid8) if at_rest else forward(u)
    by_nodes = picard_step(start, f, params1)
    by_spectrum = picard_step(start, forward(f), params1)
    assert by_nodes.coeffs.tobytes() == by_spectrum.coeffs.tobytes()


@pytest.mark.parametrize("scale", [0.0, 1.0], ids=["zero", "nonzero"])
def test_solve_rejects_a_scalar_initial_guess(grid8, params1, scale):
    # a zero guess is never transported, so the check must come before the loop
    f, _, _ = trig_problem(grid8, params1)
    guess = PhysicalField(grid8, scale * scalar_forcing(grid8, params1).values)
    with pytest.raises(ValueError, match="initial guess must have 3 components, got 1"):
        solve(f, params1, grid8, SolverConfig(initial_guess=guess))

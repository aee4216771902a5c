import numpy as np
import pytest

from periodicflow import (
    Grid,
    NotSolenoidal,
    Params,
    PRESET_NAMES,
    coeff_norm,
    divergence,
    forward,
    helmholtz,
    manufactured,
    manufactured_preset,
    pde_residual,
    random_smooth,
)

TWO_PI = 2.0 * np.pi


def divergence_defect(u_field):
    spec = forward(u_field)
    scale = max(np.abs(spec.coeffs).max(), 1e-300)
    return np.abs(divergence(spec).coeffs).max() / scale


def test_zero_pair_forces_nothing(grid8, params1):
    def u_star(x1, x2, x3, t):
        return (0.0 * x1, 0.0 * x2, 0.0 * x3)

    def p_star(x1, x2, x3, t):
        return 0.0 * x1

    f, u, p = manufactured(u_star, p_star, params1, grid8)
    assert np.abs(f.values).max() == 0.0
    assert np.abs(u.values).max() == 0.0
    assert np.abs(p.values).max() == 0.0


def test_trig_preset_satisfies_momentum_balance(grid16, params1):
    u_star, p_star = manufactured_preset("trig", amplitude=0.05, grid=grid16)
    f, u, p = manufactured(u_star, p_star, params1, grid16)
    resid = pde_residual(forward(u), forward(p), f, params1)
    assert resid <= 1e-10


def test_trig_preset_is_solenoidal_on_the_grid(grid8):
    u_star, _ = manufactured_preset("trig", amplitude=0.05, grid=grid8)
    x1, x2, x3, t = grid8.coordinate_fields()
    comps = u_star(x1, x2, x3, t)
    from periodicflow import PhysicalField

    u = PhysicalField(grid8, np.stack([np.broadcast_to(c, grid8.shape) for c in comps]))
    assert divergence_defect(u) <= 1e-13


def test_steady_preset_forcing_lives_on_time_mean(grid8, params1):
    u_star, p_star = manufactured_preset("steady", amplitude=0.05, grid=grid8)
    f, _, _ = manufactured(u_star, p_star, params1, grid8)
    spec = forward(f)
    scale = max(np.abs(spec.coeffs).max(), 1e-300)
    oscillatory = spec.coeffs[:, 1:, :, :, :]
    assert np.abs(oscillatory).max() <= 1e-12 * scale


def test_non_periodic_callable_is_rejected(grid8, params1):
    def u_star(x1, x2, x3, t):
        return (x2, 0.0 * x2, 0.0 * x3)  # linear in x2: not periodic

    def p_star(x1, x2, x3, t):
        return 0.0 * x1

    with pytest.raises(ValueError, match="x2"):
        manufactured(u_star, p_star, params1, grid8)

    def p_bad(x1, x2, x3, t):
        return t + 0.0 * x1

    def u_zero(x1, x2, x3, t):
        return (0.0 * x1, 0.0 * x2, 0.0 * x3)

    with pytest.raises(ValueError, match="t"):
        manufactured(u_zero, p_bad, params1, grid8)


@pytest.mark.parametrize("jump, raises", [(2e-10, True), (5e-11, False)])
def test_periodicity_threshold(grid8, params1, jump, raises):
    """A boundary mismatch counts once it exceeds 1e-10 of max(field scale, 1)."""

    def u_star(x1, x2, x3, t):
        # zero on the nodes, ``jump`` once x2 is shifted by a box length
        return (jump * (x2 >= grid8.box[1]), 0.0 * x2, 0.0 * x3)

    def p_star(x1, x2, x3, t):
        return 0.0 * x1

    if raises:
        with pytest.raises(ValueError, match="x2"):
            manufactured(u_star, p_star, params1, grid8)
    else:
        manufactured(u_star, p_star, params1, grid8)


def test_analytic_preset_divergence_defect_decays(params1):
    defects = {}
    for n in (8, 16):
        grid = Grid(box=(TWO_PI,) * 3, n_space=(n, n, n), n_time=n, period=TWO_PI)
        u_star, p_star = manufactured_preset("analytic", amplitude=0.05, grid=grid)
        f, u, p = manufactured(u_star, p_star, params1, grid, solenoidal_tol=1e-2)
        defects[n] = divergence_defect(u)
    # The preset is exactly divergence free in the continuum; the sampled
    # defect is pure aliasing and collapses under refinement.
    assert defects[8] > 1e-4
    assert defects[16] <= 1e-6
    assert defects[16] < defects[8] * 1e-2


def test_analytic_preset_trips_strict_solenoidal_gate(grid8, params1):
    u_star, p_star = manufactured_preset("analytic", amplitude=0.05, grid=grid8)
    with pytest.raises(NotSolenoidal):
        manufactured(u_star, p_star, params1, grid8)


def test_manufactured_rejects_compressible_fields(grid8, params1):
    def u_star(x1, x2, x3, t):
        return (np.sin(x1), 0.0 * x2, 0.0 * x3)  # divergence cos x1

    def p_star(x1, x2, x3, t):
        return 0.0 * x1

    with pytest.raises(NotSolenoidal):
        manufactured(u_star, p_star, params1, grid8)


@pytest.mark.parametrize("ratio, raises", [(2e-10, True), (5e-11, False)])
def test_manufactured_solenoidal_threshold(grid8, params1, ratio, raises):
    """At the default solenoidal_tol a divergence counts once it exceeds 1e-10 of the largest coefficient."""

    def u_star(x1, x2, x3, t):
        # u2 = 2 cos x1 is divergence-free, u1 = 2 ratio cos x1 has divergence coefficient i ratio
        return (2.0 * ratio * np.cos(x1), 2.0 * np.cos(x1), 0.0 * x3)

    def p_star(x1, x2, x3, t):
        return 0.0 * x1

    if raises:
        with pytest.raises(NotSolenoidal):
            manufactured(u_star, p_star, params1, grid8)
    else:
        manufactured(u_star, p_star, params1, grid8)


def test_manufactured_rejects_a_period_other_than_the_grids(grid8):
    u_star, p_star = manufactured_preset("trig", amplitude=0.05, grid=grid8)
    with pytest.raises(ValueError, match="does not match the grid period"):
        manufactured(u_star, p_star, Params(lam=1.0, period=0.1), grid8)


def test_preset_names_and_rejection(grid8):
    assert set(PRESET_NAMES) == {"trig", "analytic", "steady"}
    with pytest.raises(ValueError):
        manufactured_preset("vortex", amplitude=1.0, grid=grid8)


def test_manufactured_forcing_has_no_joint_mean(grid16, params1):
    for name in PRESET_NAMES:
        u_star, p_star = manufactured_preset(name, amplitude=0.05, grid=grid16)
        f, _, _ = manufactured(u_star, p_star, params1, grid16, solenoidal_tol=1e-2)
        spec = forward(f)
        scale = max(np.abs(spec.coeffs).max(), 1e-300)
        assert np.abs(spec.coeffs[:, 0, 0, 0, 0]).max() <= 1e-13 * scale


def test_random_smooth_is_deterministic(grid8):
    a = random_smooth(seed=42, amplitude=0.3, cutoff_shell=2, grid=grid8)
    b = random_smooth(seed=42, amplitude=0.3, cutoff_shell=2, grid=grid8)
    assert np.array_equal(a.values, b.values)
    c = random_smooth(seed=43, amplitude=0.3, cutoff_shell=2, grid=grid8)
    assert not np.array_equal(a.values, c.values)


def test_random_smooth_is_solenoidal_and_mean_free(grid8):
    u = random_smooth(seed=7, amplitude=1.0, cutoff_shell=3, grid=grid8)
    spec = forward(u)
    assert divergence_defect(u) <= 1e-12
    assert np.abs(spec.coeffs[:, 0, 0, 0, 0]).max() <= 1e-14


def test_random_smooth_amplitude_is_exact_and_linear(grid8):
    u1 = random_smooth(seed=9, amplitude=1.0, cutoff_shell=2, grid=grid8)
    u3 = random_smooth(seed=9, amplitude=3.0, cutoff_shell=2, grid=grid8)
    assert coeff_norm(forward(u1)) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(u3.values, 3.0 * u1.values, rtol=0.0, atol=1e-13)


def test_random_smooth_respects_cutoff(grid16):
    u = random_smooth(seed=11, amplitude=1.0, cutoff_shell=2, grid=grid16)
    spec = forward(u)
    outside = spec.coeffs[:, grid16.mode_radius_sq() > 4]
    assert np.abs(outside).max() <= 1e-14
    with pytest.raises(ValueError):
        random_smooth(seed=11, amplitude=1.0, cutoff_shell=0, grid=grid16)

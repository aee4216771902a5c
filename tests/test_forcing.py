import math
import warnings

import numpy as np
import pytest

from periodicflow import (
    Grid,
    NotSolenoidal,
    Params,
    PRESET_NAMES,
    PhysicalField,
    SpectralField,
    coeff_norm,
    divergence,
    forward,
    gradient,
    helmholtz,
    inverse,
    manufactured,
    manufactured_preset,
    oseen_apply,
    pde_residual,
    random_smooth,
)
from halfspec import traced_peak
from periodicflow.fourier import _transport

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
    x1, x2, x3, t = (np.broadcast_to(c, grid8.shape) for c in grid8.coordinate_fields())
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


@pytest.mark.parametrize("axis, name", list(enumerate(("x1", "x2", "x3", "t"))), ids=("x1", "x2", "x3", "t"))
def test_non_periodic_callable_is_rejected(grid8, params1, axis, name):
    """A field linear in one coordinate alone fails the check of that axis, in u* and in p*."""

    def linear(*coords):
        return coords[axis] + 0.0 * sum(coords)

    def u_linear(*coords):
        return (linear(*coords), 0.0, 0.0)

    def u_zero(*coords):
        return (0.0, 0.0, 0.0)

    def p_zero(*coords):
        return 0.0

    with pytest.raises(ValueError, match=f"not periodic in {name}:"):
        manufactured(u_linear, p_zero, params1, grid8)
    with pytest.raises(ValueError, match=f"not periodic in {name}:"):
        manufactured(u_zero, linear, params1, grid8)


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


ANISO = Grid(box=(2.5, 1.0, 7.0), n_space=(8, 12, 16), n_time=10, period=0.7)


def on_full_axes(fn, grid):
    """``fn`` called on full-size coordinate arrays instead of the open axes."""
    return lambda *axes: fn(*(np.broadcast_to(a, grid.shape) for a in axes))


def assert_same_outputs(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a.values, b.values)


def test_callables_receive_open_axes_and_may_return_lower_dimensional_arrays():
    """The callable contract: one non-unit axis per argument; results broadcast to the grid."""
    grid = ANISO
    params = Params(lam=1.0, period=grid.period)
    a2 = TWO_PI / grid.box[1]
    shapes = []

    def recorded(fn):
        def wrapper(*axes):
            shapes.extend(np.shape(a) for a in axes)
            return fn(*axes)

        return wrapper

    def u_star(x1, x2, x3, t):
        # depends on x2 alone, so it is solenoidal; the other components are plain scalars
        return (0.3 * np.sin(a2 * x2), 0.0, 0.0)

    def p_star(x1, x2, x3, t):
        return 0.5 * np.cos(a2 * x2)

    got = manufactured(recorded(u_star), recorded(p_star), params, grid)
    assert len(shapes) == 2 * 5 * 4
    assert all(sum(n != 1 for n in shape) == 1 for shape in shapes), shapes
    assert u_star(*grid.coordinate_fields())[0].shape == (1, 1, grid.shape[2], 1)
    assert_same_outputs(got, manufactured(on_full_axes(u_star, grid), on_full_axes(p_star, grid), params, grid))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_outputs_equal_a_full_size_evaluation(name):
    """f, u* and p* of each preset are bit for bit those of full-size coordinate arrays."""
    grid = ANISO
    params = Params(lam=1.0, period=grid.period)
    u_star, p_star = manufactured_preset(name, amplitude=0.05, grid=grid)
    got = manufactured(u_star, p_star, params, grid, solenoidal_tol=1e-2)
    want = manufactured(on_full_axes(u_star, grid), on_full_axes(p_star, grid), params, grid, solenoidal_tol=1e-2)
    assert_same_outputs(got, want)


def test_transport_is_advected_by_the_samples_and_not_dealiased():
    """The forcing's transport keeps the Nyquist content of the samples and the whole product.

    u* = (g(x2), 0, c(x1, x2)) is solenoidal, with g the x2 Nyquist mode,
    which ``forward`` zeroes, and c = sin(a1 x1) cos(a2 x2).  So
    (u* . grad) u* = (0, 0, g dc/dx1), whose x2 modes on the grid are
    +-(N2/2 - 1), outside the 2/3 band: advecting with the nodes of u_hat
    loses the product, and dealiasing removes it.
    """
    grid = ANISO
    params = Params(lam=-1.5, period=grid.period)
    n2 = grid.n_space[1]
    a1, a2 = TWO_PI / grid.box[0], TWO_PI / grid.box[1]

    def g(x2):
        return np.cos(np.pi * n2 * x2 / grid.box[1])

    def u_star(x1, x2, x3, t):
        return (g(x2), 0.0, np.sin(a1 * x1) * np.cos(a2 * x2))

    def p_star(x1, x2, x3, t):
        return 0.0

    f, u, _ = manufactured(u_star, p_star, params, grid)
    transport = forward(f).coeffs - oseen_apply(forward(u), params).coeffs
    x1, x2, _, _ = grid.coordinate_fields()
    product = g(x2) * a1 * np.cos(a1 * x1) * np.cos(a2 * x2)
    want = forward(PhysicalField(grid, np.broadcast_to(product, grid.shape))).coeffs[0]
    scale = np.abs(want).max()
    rows = np.flatnonzero(np.abs(want).max(axis=(0, 1, 3)) > 0.1 * scale)
    assert sorted(grid.n_modes[1][rows]) == [-(n2 // 2 - 1), n2 // 2 - 1]
    assert np.abs(transport[:2]).max() <= 1e-13 * scale
    assert np.abs(transport[2] - want).max() <= 1e-13 * scale


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


def whole_array_forcing(u, p, params):
    """The forcing of the samples u*, p* with every term formed over the whole array, mean mode zeroed."""
    u_hat, p_hat = forward(u), forward(p)
    f_hat = oseen_apply(u_hat, params) + gradient(p_hat) + _transport(u_hat, u.values)
    f_hat.coeffs[:, 0, 0, 0, 0] = 0.0
    return inverse(f_hat)


@pytest.mark.parametrize(
    "grid, lam",
    [(Grid(box=(TWO_PI,) * 3, n_space=(16, 16, 16), n_time=16, period=TWO_PI), 1.0), (ANISO, -1.5)],
    ids=["cube", "aniso"],
)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_node_by_node_forcing_is_the_whole_array_sum_bit_for_bit(grid, lam, name):
    params = Params(lam=lam, period=grid.period)
    u_star, p_star = manufactured_preset(name, amplitude=0.05, grid=grid)
    f, u, p = manufactured(u_star, p_star, params, grid, solenoidal_tol=1e-2)
    assert f.values.tobytes() == whole_array_forcing(u, p, params).values.tobytes()


def test_manufactured_makes_one_whole_spectrum_besides_those_of_its_samples(grid16, params1, two_threads):
    """The transport's array takes the linear terms node by node, and the final inverse runs in place on it.

    p_hat is made after the transport, and u_hat and p_hat go before the
    inverse.  At 16^4 the traced peak is 3.80 times a 3-component spectrum;
    with p_hat live through the transport and a time-passed copy in the
    inverse it was 4.20, and whole-array terms and sums took 5.54.
    """
    u_star, p_star = manufactured_preset("analytic", amplitude=1e-2, grid=grid16)
    spectrum_nbytes = 3 * math.prod(grid16.spectral_shape) * np.dtype(np.complex128).itemsize
    peak = traced_peak(lambda: manufactured(u_star, p_star, params1, grid16, solenoidal_tol=1e-2))
    assert peak < 4.0 * spectrum_nbytes


def whole_array_random_smooth(seed, amplitude, cutoff_shell, grid):
    """``random_smooth`` through a masked copy, ``helmholtz`` and a rescaled copy."""
    noise = np.random.Generator(np.random.Philox(seed)).standard_normal(size=(3,) + grid.shape)
    c = forward(PhysicalField(grid, noise))
    coeffs = np.where(grid.mode_radius_sq() <= cutoff_shell * cutoff_shell, c.coeffs, 0.0)
    coeffs[:, 0, 0, 0, 0] = 0.0
    sol = helmholtz(SpectralField(grid, coeffs))
    return inverse(SpectralField(grid, sol.coeffs * (float(amplitude) / coeff_norm(sol))))


@pytest.mark.parametrize("grid", [Grid(box=(TWO_PI,) * 3, n_space=(8, 8, 8), n_time=8, period=TWO_PI), ANISO],
                         ids=["cube", "aniso"])
def test_random_smooth_in_place_is_the_copying_formula_bit_for_bit(grid):
    for seed, amplitude, cutoff in [(3, 1.0, 2), (17, 0.3, 3)]:
        got = random_smooth(seed=seed, amplitude=amplitude, cutoff_shell=cutoff, grid=grid)
        assert got.values.tobytes() == whole_array_random_smooth(seed, amplitude, cutoff, grid).values.tobytes()


def test_random_smooth_inverts_its_spectrum_in_place(grid16, two_threads):
    """The masked spectrum is handed to the final inverse: at 16^4 the traced peak is 2.16 times it, 3.01 with a copy."""
    spectrum_nbytes = 3 * math.prod(grid16.spectral_shape) * np.dtype(np.complex128).itemsize
    # a process's first draw also sets up numpy.random, 0.4 spectra more
    random_smooth(seed=3, amplitude=1.0, cutoff_shell=2, grid=grid16)
    peak = traced_peak(lambda: random_smooth(seed=3, amplitude=1.0, cutoff_shell=2, grid=grid16))
    assert peak < 2.5 * spectrum_nbytes


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


@pytest.mark.parametrize(
    "setting, value, message",
    [
        ("seed", -1, "^seed must be a non-negative integer, got -1"),
        ("seed", 2.5, "^seed must be a non-negative integer, got 2.5"),
        ("amplitude", np.inf, "^amplitude must be finite, got inf"),
        ("amplitude", np.nan, "^amplitude must be finite, got nan"),
    ],
)
def test_random_smooth_rejects_a_bad_setting_before_sampling(grid8, setting, value, message):
    """Named in the message and raised before any field is sampled, transformed or projected, so with no warning."""
    settings = dict(seed=3, amplitude=1.0, cutoff_shell=2, grid=grid8)
    settings[setting] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            random_smooth(**settings)

import numpy as np
import pytest

from periodicflow import (
    Grid,
    NotHermitian,
    PhysicalField,
    SpectralField,
    coeff_norm,
    divergence,
    forward,
    gradient,
    inverse,
    oscillatory_part,
    time_derivative,
    time_mean_part,
)
from periodicflow.fourier import _derivative_factor, _plane_defect
from halfspec import full_spectrum

TWO_PI = 2.0 * np.pi


def random_field(grid, seed, components=3):
    rng = np.random.default_rng(seed)
    return PhysicalField(grid, rng.standard_normal((components,) + grid.shape))


def representable(field):
    """Project onto the class the transform targets (Nyquist rows dropped)."""
    return inverse(forward(field))


def test_constant_field_transforms_to_mean_mode(grid8):
    c = 2.75
    u = PhysicalField(grid8, np.full((1,) + grid8.shape, c))
    spec = forward(u)
    assert spec.coeffs[0, 0, 0, 0, 0] == pytest.approx(c, abs=1e-13)
    rest = spec.coeffs.copy()
    rest[0, 0, 0, 0, 0] = 0.0
    assert np.abs(rest).max() <= 1e-13 * c


def test_cosine_transforms_to_half_amplitude(grid8):
    x1 = np.broadcast_to(grid8.coordinate_fields()[0], grid8.shape)
    u = PhysicalField(grid8, np.cos(x1)[np.newaxis])
    spec = forward(u)
    # cos(x1) = (e^{i x1} + e^{-i x1}) / 2 puts 1/2 at n1 = +/-1, k = 0; the
    # half spectrum stores n1 = +1 and implies its conjugate partner
    assert spec.coeffs[0, 0, 0, 0, 1] == pytest.approx(0.5, abs=1e-14)
    full = full_spectrum(spec.coeffs, grid8)
    assert full[0, 0, 0, 0, -1] == pytest.approx(0.5, abs=1e-14)
    rest = full.copy()
    rest[0, 0, 0, 0, 1] = 0.0
    rest[0, 0, 0, 0, -1] = 0.0
    assert np.abs(rest).max() <= 1e-14


def test_round_trip_on_representable_fields(grid16):
    u = representable(random_field(grid16, seed=11))
    back = inverse(forward(u))
    err = np.abs(back.values - u.values).max() / np.abs(u.values).max()
    assert err <= 1e-12


def test_forward_zeroes_nyquist_rows(grid8):
    u = random_field(grid8, seed=3)
    spec = forward(u)
    # the Nyquist plane of each axis: index N/2 of the full axes, the last
    # stored x1 plane (n1 = N1/2) of the half axis
    assert np.abs(spec.coeffs[:, 4]).max() == 0.0
    assert np.abs(spec.coeffs[:, :, 4]).max() == 0.0
    assert np.abs(spec.coeffs[:, :, :, 4]).max() == 0.0
    assert np.abs(spec.coeffs[..., -1]).max() == 0.0
    assert spec.coeffs.shape[-1] == grid8.n_space[0] // 2 + 1


def test_forward_output_is_hermitian(grid8):
    spec = forward(random_field(grid8, seed=5))
    assert _plane_defect(spec.coeffs) <= 1e-13


def test_inverse_flags_broken_symmetry(grid8):
    # Off the n1 = 0 and n1 = N1/2 planes a stored mode implies its partner,
    # so only those planes can break the symmetry; a lone mode there must.
    coeffs = np.zeros((1,) + grid8.spectral_shape, dtype=np.complex128)
    coeffs[0, 1, 0, 0, 0] = 1.0  # k = 1, n = 0: partner k = -1 left empty
    with pytest.raises(NotHermitian):
        inverse(SpectralField(grid8, coeffs))
    coeffs = np.zeros((1,) + grid8.spectral_shape, dtype=np.complex128)
    coeffs[0, 0, 1, 2, -1] = 1.0j  # on the n1 = N1/2 plane, partner left empty
    with pytest.raises(NotHermitian):
        inverse(SpectralField(grid8, coeffs))
    coeffs[0, 0, -1, -2, -1] = -1.0j  # the conjugate partner restores it
    assert np.abs(inverse(SpectralField(grid8, coeffs)).values).max() > 0.0


def test_zero_coefficients_invert_to_zero(grid8):
    spec = SpectralField(grid8, np.zeros((3,) + grid8.spectral_shape, dtype=np.complex128))
    assert np.abs(inverse(spec).values).max() == 0.0


def test_parseval(grid8):
    u = representable(random_field(grid8, seed=7))
    spec = forward(u)
    # Full-lattice sum: stored planes off n1 = 0 and n1 = N1/2 stand for two modes.
    weight = np.full(grid8.spectral_shape[-1], 2.0)
    weight[0] = weight[-1] = 1.0
    lhs = np.sum(np.abs(spec.coeffs) ** 2 * weight)
    assert lhs == pytest.approx(np.sum(np.abs(full_spectrum(spec.coeffs, grid8)) ** 2), rel=1e-12)
    # One grid-mean per component, summed over components.
    rhs = np.sum(np.mean(u.values**2, axis=(1, 2, 3, 4)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_linearity(grid8):
    u = random_field(grid8, seed=1)
    v = random_field(grid8, seed=2)
    a, b = 1.7, -0.3
    lhs = forward(PhysicalField(grid8, a * u.values + b * v.values))
    rhs = a * forward(u) + b * forward(v)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-13 * np.abs(rhs.coeffs).max()


def test_projection_algebra_is_exact(grid8):
    spec = forward(random_field(grid8, seed=9))
    p = time_mean_part(spec)
    q = oscillatory_part(spec)
    assert np.array_equal(time_mean_part(p).coeffs, p.coeffs)
    assert np.array_equal(oscillatory_part(q).coeffs, q.coeffs)
    assert np.abs(oscillatory_part(p).coeffs).max() == 0.0
    assert np.abs(time_mean_part(q).coeffs).max() == 0.0
    assert np.array_equal(p.coeffs + q.coeffs, spec.coeffs)


def test_projection_on_time_independent_field(grid8):
    rng = np.random.default_rng(13)
    slice_values = rng.standard_normal((3, 1) + grid8.shape[1:])
    u = PhysicalField(grid8, np.broadcast_to(slice_values, (3,) + grid8.shape).copy())
    spec = forward(u)
    assert np.abs(oscillatory_part(spec).coeffs).max() <= 1e-15
    assert np.abs(time_mean_part(spec).coeffs - spec.coeffs).max() <= 1e-15


def test_projection_kills_pure_oscillation(grid8):
    t = np.broadcast_to(grid8.coordinate_fields()[3], grid8.shape)
    u = PhysicalField(grid8, np.cos(t)[np.newaxis])
    spec = forward(u)
    assert np.abs(time_mean_part(spec).coeffs).max() <= 1e-15


def test_projection_images_are_orthogonal(grid8):
    u = forward(random_field(grid8, seed=21))
    v = forward(random_field(grid8, seed=22))
    pu = time_mean_part(u).coeffs
    qv = oscillatory_part(v).coeffs
    ip = np.vdot(pu.ravel(), qv.ravel())
    scale = np.linalg.norm(pu.ravel()) * np.linalg.norm(qv.ravel())
    assert abs(ip) <= 1e-13 * max(scale, 1e-300)


def test_spatial_derivative_of_sine(grid8):
    x1 = np.broadcast_to(grid8.coordinate_fields()[0], grid8.shape)
    u = forward(PhysicalField(grid8, np.sin(x1)[np.newaxis]))
    du = inverse(SpectralField(grid8, u.coeffs * _derivative_factor(grid8, (1, 0, 0)))).values
    assert np.allclose(du[0], np.cos(x1), atol=1e-13)
    d2u = inverse(SpectralField(grid8, u.coeffs * _derivative_factor(grid8, (2, 0, 0)))).values
    assert np.allclose(d2u[0], -np.sin(x1), atol=1e-13)


def test_time_derivative_of_cosine(grid8):
    t = np.broadcast_to(grid8.coordinate_fields()[3], grid8.shape)
    u = forward(PhysicalField(grid8, np.cos(t)[np.newaxis]))
    du = inverse(time_derivative(u)).values
    assert np.allclose(du[0], -np.sin(t), atol=1e-13)


def test_divergence_of_gradient_is_laplacian(grid8):
    phi = forward(random_field(grid8, seed=31, components=1))
    lhs = divergence(gradient(phi)).coeffs
    rhs = phi.coeffs * sum(_derivative_factor(grid8, alpha) for alpha in ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1e-300)


def test_gradient_and_divergence_reject_wrong_components(grid8):
    vec = forward(random_field(grid8, seed=33))
    scal = forward(random_field(grid8, seed=34, components=1))
    with pytest.raises(ValueError):
        gradient(vec)
    with pytest.raises(ValueError):
        divergence(scal)


def test_field_validation(grid8):
    with pytest.raises(ValueError):
        PhysicalField(grid8, np.zeros((2,) + grid8.shape))
    with pytest.raises(ValueError):
        PhysicalField(grid8, np.full((1,) + grid8.shape, np.nan))
    with pytest.raises(ValueError):
        PhysicalField(grid8, np.zeros((1, 3, 3, 3)))
    small = Grid(box=(1, 1, 1), n_space=(4, 4, 4), n_time=4, period=1.0)
    v = forward(random_field(grid8, seed=40))
    with pytest.raises(ValueError, match="fields live on different grids"):
        _ = v + SpectralField(small, np.zeros((3,) + small.spectral_shape, dtype=np.complex128))


def test_spectral_field_validation(grid8):
    with pytest.raises(ValueError, match="does not match grid"):
        SpectralField(grid8, np.zeros((3,) + grid8.shape, dtype=np.complex128))
    with pytest.raises(ValueError, match="1 or 3 components"):
        SpectralField(grid8, np.zeros((2,) + grid8.spectral_shape, dtype=np.complex128))
    for shape in (grid8.spectral_shape[1:], (1, 1) + grid8.spectral_shape):
        with pytest.raises(ValueError, match="4 or 5 axes"):
            SpectralField(grid8, np.zeros(shape, dtype=np.complex128))


def test_scaling_a_field_from_either_side(grid8):
    u = random_field(grid8, seed=42)
    for scaled in (u * 2.5, 2.5 * u):
        assert isinstance(scaled, PhysicalField) and scaled.grid == grid8
        assert np.array_equal(scaled.values, 2.5 * u.values)


def test_coeff_norm_matches_parseval(grid8):
    u = representable(random_field(grid8, seed=41))
    spec = forward(u)
    expected = np.sqrt(np.sum(np.mean(u.values**2, axis=(1, 2, 3, 4))))
    assert coeff_norm(spec) == pytest.approx(expected, rel=1e-12)

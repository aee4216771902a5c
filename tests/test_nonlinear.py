import numpy as np
import pytest

from periodicflow import (
    NotSolenoidal,
    PhysicalField,
    SpectralField,
    convective,
    convective_bilinear,
    dealias,
    dealiased_tensor_product,
    divergence_form,
    energy_neutrality_defect,
    forward,
    helmholtz,
    hermitian_defect,
    random_smooth,
)


def smooth_solenoidal(grid, seed, amplitude=1.0):
    return forward(random_smooth(seed=seed, amplitude=amplitude, cutoff_shell=2, grid=grid))


def test_constant_field_does_not_transport(grid8):
    u = forward(PhysicalField(grid8, np.full((3,) + grid8.shape, 1.5)))
    out = convective(u)
    assert np.abs(out.coeffs).max() <= 1e-14


def test_shear_field_transports_nothing(grid8):
    # u = (sin x2, 0, 0): the only derivative that matters is d/dx1 of u,
    # which vanishes, so (u . grad) u = 0.
    x2 = grid8.coordinate_fields()[1]
    values = np.zeros((3,) + grid8.shape)
    values[0] = np.sin(x2)
    out = convective(forward(PhysicalField(grid8, values)))
    assert np.abs(out.coeffs).max() <= 1e-14


def test_bilinearity(grid8):
    u = smooth_solenoidal(grid8, seed=70)
    v = smooth_solenoidal(grid8, seed=71)
    w = smooth_solenoidal(grid8, seed=72)
    a, b = 2.0, -0.5
    lhs = convective_bilinear(u, a * v + b * w).coeffs
    rhs = a * convective_bilinear(u, v).coeffs + b * convective_bilinear(u, w).coeffs
    scale = max(np.abs(rhs).max(), 1e-300)
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale
    lhs2 = convective_bilinear(a * u + b * v, w).coeffs
    rhs2 = a * convective_bilinear(u, w).coeffs + b * convective_bilinear(v, w).coeffs
    assert np.abs(lhs2 - rhs2).max() <= 1e-12 * scale


def test_component_count_is_checked(grid8):
    u = smooth_solenoidal(grid8, seed=73)
    phi = SpectralField(grid8, u.coeffs[:1])
    with pytest.raises(ValueError):
        convective_bilinear(phi, u)
    with pytest.raises(ValueError):
        convective_bilinear(u, phi)


def test_transport_of_solenoidal_field_has_no_mean(grid16):
    u = smooth_solenoidal(grid16, seed=74)
    out = convective(u)
    scale = max(np.abs(out.coeffs).max(), 1e-300)
    assert np.abs(out.coeffs[:, 0, 0, 0, 0]).max() <= 1e-12 * scale


def test_convective_output_is_hermitian(grid8):
    out = convective(smooth_solenoidal(grid8, seed=75))
    assert hermitian_defect(out) <= 1e-13 * max(np.abs(out.coeffs).max(), 1e-300)


def test_divergence_form_matches_convective_form(grid16):
    # Band-limited input, so the 2/3 dealiasing leaves the product exact and
    # the two formulations agree to rounding.
    u = smooth_solenoidal(grid16, seed=76)
    conv = convective(u).coeffs
    divf = divergence_form(u).coeffs
    scale = max(np.abs(conv).max(), 1e-300)
    assert np.abs(conv - divf).max() <= 1e-10 * scale


def test_divergence_form_rejects_compressible_fields(grid8):
    rng = np.random.default_rng(77)
    u = forward(PhysicalField(grid8, rng.standard_normal((3,) + grid8.shape)))
    assert np.abs(helmholtz(u).coeffs - u.coeffs).max() > 1e-3  # genuinely compressible
    with pytest.raises(NotSolenoidal):
        divergence_form(u)


@pytest.mark.parametrize("ratio, raises", [(2e-10, True), (5e-11, False)])
def test_divergence_form_solenoidal_threshold(grid8, ratio, raises):
    """A divergence counts once it exceeds 1e-10 of the largest coefficient."""
    coeffs = np.zeros((3,) + grid8.spectral_shape, dtype=np.complex128)
    coeffs[1, 0, 0, 0, 1] = 1.0  # u2 = 2 cos x1 is divergence-free
    coeffs[0, 0, 0, 0, 1] = ratio  # u1 = 2 ratio cos x1 has divergence coefficient i ratio
    w = SpectralField(grid8, coeffs)
    if raises:
        with pytest.raises(NotSolenoidal):
            divergence_form(w)
    else:
        divergence_form(w)


def test_divergence_form_mean_mode_is_exactly_zero(grid8):
    out = divergence_form(smooth_solenoidal(grid8, seed=78))
    assert np.abs(out.coeffs[:, 0, 0, 0, 0]).max() == 0.0


def test_dealias_is_idempotent_and_interior_safe(grid8):
    u = smooth_solenoidal(grid8, seed=79)
    once = dealias(u)
    twice = dealias(once)
    assert np.array_equal(once.coeffs, twice.coeffs)
    # cutoff shell 2 lies inside the kept band at N = 8 (|n| <= 2), so the
    # smooth field survives up to transform rounding
    scale = np.abs(u.coeffs).max()
    assert np.abs(once.coeffs - u.coeffs).max() <= 1e-14 * scale


def test_dealias_removes_outer_band(grid8):
    # |n| = 3 > N/3 on each axis: n1 = 3 is stored at index 3 of the half
    # axis, n2 = +/-3 and k = -3 at their FFT positions on the full axes
    coeffs = np.zeros((3,) + grid8.spectral_shape, dtype=np.complex128)
    coeffs[0, 0, 0, 0, 3] = 1.0
    coeffs[1, 0, 0, 3, 0] = 1.0
    coeffs[1, 0, 0, -3, 0] = 1.0
    coeffs[2, -3, 0, 0, 1] = 1.0
    out = dealias(SpectralField(grid8, coeffs))
    assert np.abs(out.coeffs).max() == 0.0
    coeffs[2, -2, 2, -2, 2] = 1.0  # inside the band on every axis
    assert np.abs(dealias(SpectralField(grid8, coeffs)).coeffs).sum() == 1.0


def test_tensor_product_is_symmetric(grid8):
    w = smooth_solenoidal(grid8, seed=80)
    tensor = dealiased_tensor_product(w)
    assert tensor.shape == (3, 3) + grid8.spectral_shape
    for i in range(3):
        for j in range(3):
            assert np.array_equal(tensor[i, j], tensor[j, i])


def test_energy_neutrality(grid16):
    zero = SpectralField(grid16, np.zeros((3,) + grid16.spectral_shape, dtype=np.complex128))
    assert energy_neutrality_defect(zero) == 0.0
    u = smooth_solenoidal(grid16, seed=81)
    assert energy_neutrality_defect(u) <= 1e-8

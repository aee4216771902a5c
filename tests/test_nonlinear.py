import numpy as np
import pytest

from periodicflow import (
    PhysicalField,
    SpectralField,
    coeff_norm,
    convective,
    dealiased_tensor_product,
    forward,
    random_smooth,
    spectral_sum,
)
from periodicflow.fourier import _plane_defect
from periodicflow.nonlinear import _convective_bilinear, _dealias_in_place, _tensor_divergence


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
    lhs = _convective_bilinear(u, a * v + b * w).coeffs
    rhs = a * _convective_bilinear(u, v).coeffs + b * _convective_bilinear(u, w).coeffs
    scale = max(np.abs(rhs).max(), 1e-300)
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale
    lhs2 = _convective_bilinear(a * u + b * v, w).coeffs
    rhs2 = a * _convective_bilinear(u, w).coeffs + b * _convective_bilinear(v, w).coeffs
    assert np.abs(lhs2 - rhs2).max() <= 1e-12 * scale


def test_component_count_is_checked(grid8):
    u = smooth_solenoidal(grid8, seed=73)
    phi = SpectralField(grid8, u.coeffs[:1])
    with pytest.raises(ValueError):
        _convective_bilinear(phi, u)
    with pytest.raises(ValueError):
        _convective_bilinear(u, phi)


def test_transport_of_solenoidal_field_has_no_mean(grid16):
    u = smooth_solenoidal(grid16, seed=74)
    out = convective(u)
    scale = max(np.abs(out.coeffs).max(), 1e-300)
    assert np.abs(out.coeffs[:, 0, 0, 0, 0]).max() <= 1e-12 * scale


def test_convective_output_is_hermitian(grid8):
    out = convective(smooth_solenoidal(grid8, seed=75))
    assert _plane_defect(out.coeffs) <= 1e-13 * max(np.abs(out.coeffs).max(), 1e-300)


def test_divergence_form_matches_convective_form(grid16):
    # Band-limited input, so the 2/3 dealiasing leaves the product exact and
    # the divergence of the dealiased tensor (the form the regularity check
    # uses) agrees with the convective transport to rounding.
    u = smooth_solenoidal(grid16, seed=76)
    conv = convective(u).coeffs
    divf = _tensor_divergence(dealiased_tensor_product(u), grid16)
    scale = max(np.abs(conv).max(), 1e-300)
    assert np.abs(conv - divf).max() <= 1e-10 * scale


def test_divergence_form_mean_mode_is_exactly_zero(grid8):
    out = _tensor_divergence(dealiased_tensor_product(smooth_solenoidal(grid8, seed=78)), grid8)
    assert np.abs(out[:, 0, 0, 0, 0]).max() == 0.0


def test_dealias_is_idempotent_and_interior_safe(grid8):
    u = smooth_solenoidal(grid8, seed=79)
    once = _dealias_in_place(u.coeffs.copy(), grid8)
    twice = _dealias_in_place(once.copy(), grid8)
    assert np.array_equal(once, twice)
    # cutoff shell 2 lies inside the kept band at N = 8 (|n| <= 2), so the
    # smooth field survives up to transform rounding
    scale = np.abs(u.coeffs).max()
    assert np.abs(once - u.coeffs).max() <= 1e-14 * scale


def test_dealias_removes_outer_band(grid8):
    # |n| = 3 > N/3 on each axis: n1 = 3 is stored at index 3 of the half
    # axis, n2 = +/-3 and k = -3 at their FFT positions on the full axes
    coeffs = np.zeros((3,) + grid8.spectral_shape, dtype=np.complex128)
    coeffs[0, 0, 0, 0, 3] = 1.0
    coeffs[1, 0, 0, 3, 0] = 1.0
    coeffs[1, 0, 0, -3, 0] = 1.0
    coeffs[2, -3, 0, 0, 1] = 1.0
    out = _dealias_in_place(coeffs.copy(), grid8)
    assert np.abs(out).max() == 0.0
    coeffs[2, -2, 2, -2, 2] = 1.0  # inside the band on every axis
    assert np.abs(_dealias_in_place(coeffs.copy(), grid8)).sum() == 1.0


def test_tensor_product_is_symmetric(grid8):
    w = smooth_solenoidal(grid8, seed=80)
    tensor = dealiased_tensor_product(w)
    assert tensor.shape == (3, 3) + grid8.spectral_shape
    for i in range(3):
        for j in range(3):
            assert np.array_equal(tensor[i, j], tensor[j, i])


def energy_injection(u):
    """|<convective(u), u>| / (|u| |convective(u)|) over the whole lattice; zero for zero u."""
    conv = convective(u)
    ip = spectral_sum(np.real(np.conj(u.coeffs) * conv.coeffs), u.grid)
    return abs(ip) / (coeff_norm(u) * coeff_norm(conv) + 1e-300)


def test_energy_neutrality(grid16):
    zero = SpectralField(grid16, np.zeros((3,) + grid16.spectral_shape, dtype=np.complex128))
    assert energy_injection(zero) == 0.0
    u = smooth_solenoidal(grid16, seed=81)
    assert energy_injection(u) <= 1e-8

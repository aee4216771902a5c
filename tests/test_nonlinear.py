import math

import numpy as np
import pytest

from periodicflow import (
    Grid,
    PhysicalField,
    SpectralField,
    coeff_norm,
    convective,
    forward,
    inverse,
    random_smooth,
)
from periodicflow import fourier
from periodicflow.fourier import _divergence, _lattice_dot, _plane_defect, _transport
from periodicflow.nonlinear import _PAIRS, _ROWS, _dealias_in_place, _tensor_product

TWO_PI = 2.0 * math.pi
ANISO = Grid(box=(TWO_PI, 3.0, 5.0), n_space=(12, 8, 6), n_time=10, period=7.0)
CUBE16 = Grid(box=(TWO_PI,) * 3, n_space=(16, 16, 16), n_time=16, period=TWO_PI)


def smooth_solenoidal(grid, seed, amplitude=1.0):
    return forward(random_smooth(seed=seed, amplitude=amplitude, cutoff_shell=2, grid=grid))


def test_constant_field_does_not_transport(grid8):
    u = forward(PhysicalField(grid8, np.full((3,) + grid8.shape, 1.5)))
    out = convective(u)
    assert np.abs(out.coeffs).max() <= 1e-14


def test_shear_field_transports_nothing(grid8):
    # u = (sin x2, 0, 0): the only derivative that matters is d/dx1 of u,
    # which vanishes, so (u . grad) u = 0.
    x2 = np.broadcast_to(grid8.coordinate_fields()[1], grid8.shape)
    values = np.zeros((3,) + grid8.shape)
    values[0] = np.sin(x2)
    out = convective(forward(PhysicalField(grid8, values)))
    assert np.abs(out.coeffs).max() <= 1e-14


def bilinear(u, v):
    """B(u, v) = (u . grad) v, advected by the nodes of u."""
    return _transport(v, inverse(u).values).coeffs


def test_bilinearity(grid8):
    u = smooth_solenoidal(grid8, seed=70)
    v = smooth_solenoidal(grid8, seed=71)
    w = smooth_solenoidal(grid8, seed=72)
    a, b = 2.0, -0.5
    lhs = bilinear(u, a * v + b * w)
    rhs = a * bilinear(u, v) + b * bilinear(u, w)
    scale = max(np.abs(rhs).max(), 1e-300)
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale
    lhs2 = bilinear(a * u + b * v, w)
    rhs2 = a * bilinear(u, w) + b * bilinear(v, w)
    assert np.abs(lhs2 - rhs2).max() <= 1e-12 * scale


def test_self_transport_is_the_bilinear_form_on_the_diagonal(grid8):
    u = smooth_solenoidal(grid8, seed=77)
    own = _transport(u).coeffs
    assert np.abs(own - bilinear(u, u)).max() <= 1e-13 * np.abs(own).max()


def test_component_count_is_checked(grid8):
    u = smooth_solenoidal(grid8, seed=73)
    phi = SpectralField(grid8, u.coeffs[:1])
    with pytest.raises(ValueError):
        _transport(phi, inverse(u).values)
    with pytest.raises(ValueError):
        convective(phi)


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
    tensor = _tensor_product(u)
    divf = np.stack([_divergence(tensor[list(row)], grid16) for row in _ROWS])
    scale = max(np.abs(conv).max(), 1e-300)
    assert np.abs(conv - divf).max() <= 1e-10 * scale


def test_divergence_form_mean_mode_is_exactly_zero(grid8):
    tensor = _tensor_product(smooth_solenoidal(grid8, seed=78))
    out = np.stack([_divergence(tensor[list(row)], grid8) for row in _ROWS])
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


def test_each_row_picks_the_pair_of_its_two_indices():
    """Row i of the symmetric tensor holds w_i w_j at j, stored once as the pair sorted((i, j))."""
    for i in range(3):
        assert [_PAIRS[k] for k in _ROWS[i]] == [tuple(sorted((i, j))) for j in range(3)]


def written_out_tensor(w):
    """The ``_PAIRS`` products written out: one ``inverse``, each product its own ``forward``, then the 2/3 band."""
    grid = w.grid
    nodes = inverse(w).values
    out = np.empty((len(_PAIRS),) + grid.spectral_shape, dtype=np.complex128)
    for k, (i, j) in enumerate(_PAIRS):
        out[k] = _dealias_in_place(forward(PhysicalField(grid, nodes[i] * nodes[j])).coeffs, grid)[0]
    return out


@pytest.mark.parametrize("grid", [ANISO, CUBE16], ids=["aniso", "cube16"])
def test_tensor_product_is_the_written_out_product_bit_for_bit(grid, monkeypatch):
    """Full-band nodes, so every product and every pass counts; the bytes hold on 1, 2 and 3 threads."""
    w = forward(PhysicalField(grid, np.random.default_rng(83).standard_normal((3,) + grid.shape)))
    expected = written_out_tensor(w).tobytes()
    for cores in (1, 2, 3):
        monkeypatch.setattr(fourier, "_cores", lambda: cores)
        assert _tensor_product(w).tobytes() == expected


@pytest.mark.parametrize("cores", [1, 3])
def test_tensor_product_raises_where_forward_would(grid8, monkeypatch, cores):
    monkeypatch.setattr(fourier, "_cores", lambda: cores)
    w = SpectralField(grid8, 1e160 * smooth_solenoidal(grid8, seed=84).coeffs)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="field values must be finite"):
        written_out_tensor(w)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="field values must be finite"):
        _tensor_product(w)


def energy_injection(u):
    """|<convective(u), u>| / (|u| |convective(u)|) over the whole lattice; zero for zero u."""
    conv = convective(u)
    ip = _lattice_dot(u.coeffs, conv.coeffs, u.grid)
    return abs(ip) / (coeff_norm(u) * coeff_norm(conv) + 1e-300)


def test_energy_neutrality(grid16):
    zero = SpectralField(grid16, np.zeros((3,) + grid16.spectral_shape, dtype=np.complex128))
    assert energy_injection(zero) == 0.0
    u = smooth_solenoidal(grid16, seed=81)
    assert energy_injection(u) <= 1e-8

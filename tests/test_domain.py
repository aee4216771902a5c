import math

import numpy as np
import pytest

from periodicflow import Grid, Params

TWO_PI = 2.0 * math.pi


def test_params_accepts_zero_drift():
    p = Params(lam=0.0, period=1.0)
    assert p.driftless
    assert not Params(lam=1.0, period=1.0).driftless


def test_params_rejects_bad_values():
    with pytest.raises(ValueError):
        Params(lam=float("nan"), period=1.0)
    with pytest.raises(ValueError):
        Params(lam=1.0, period=0.0)
    with pytest.raises(ValueError):
        Params(lam=1.0, period=-2.0)


def test_grid_integer_frequencies_on_two_pi_box():
    grid = Grid(box=(TWO_PI,) * 3, n_space=(8, 8, 8), n_time=8, period=TWO_PI)
    for xi in (grid.xi2, grid.xi3, grid.omega):
        vals = np.sort(xi.ravel())
        assert np.allclose(vals, np.arange(-4, 4), atol=1e-12)
    # the half-spectrum x1 axis holds n1 = 0..N1/2 in ascending order
    assert np.allclose(grid.xi1.ravel(), np.arange(0, 5), atol=1e-12)


def test_grid_unit_box_frequencies():
    grid = Grid(box=(1.0, 1.0, 1.0), n_space=(4, 4, 4), n_time=4, period=1.0)
    got = set(np.round(grid.xi2.ravel() / TWO_PI).astype(int))
    assert got == {-2, -1, 0, 1}
    assert np.allclose(np.sort(grid.xi2.ravel()), [-4 * math.pi, -2 * math.pi, 0.0, 2 * math.pi])
    assert np.allclose(grid.xi1.ravel(), [0.0, 2 * math.pi, 4 * math.pi])


def test_grid_rejects_odd_or_tiny_resolutions():
    with pytest.raises(ValueError):
        Grid(box=(1, 1, 1), n_space=(3, 8, 8), n_time=8, period=1.0)
    with pytest.raises(ValueError):
        Grid(box=(1, 1, 1), n_space=(8, 8, 8), n_time=5, period=1.0)
    with pytest.raises(ValueError):
        Grid(box=(1, 1, 1), n_space=(2, 8, 8), n_time=8, period=1.0)
    # 6 is even and >= 4, so it is allowed
    Grid(box=(1, 1, 1), n_space=(6, 8, 8), n_time=8, period=1.0)


def test_grid_rejects_bad_box_and_period():
    with pytest.raises(ValueError):
        Grid(box=(0.0, 1, 1), n_space=(4, 4, 4), n_time=4, period=1.0)
    with pytest.raises(ValueError):
        Grid(box=(1, 1, 1), n_space=(4, 4, 4), n_time=4, period=0.0)


def test_make_grid_uses_params_period():
    params = Params(lam=0.5, period=3.0)
    grid = Grid(box=(1, 2, 3), n_space=(4, 6, 8), n_time=4, period=params.period)
    assert grid.period == 3.0
    assert grid.shape == (4, 8, 6, 4)
    assert grid.spectral_shape == (4, 8, 6, 3)
    assert grid.size == 4 * 6 * 8 * 4
    assert grid.volume == pytest.approx(6.0)


def test_integer_reconstruction_is_exact():
    grid = Grid(box=(2.5, 1.0, 7.0), n_space=(8, 4, 6), n_time=4, period=2.0)
    for xi, length, n in zip(
        (grid.xi1, grid.xi2, grid.xi3), grid.box, grid.n_modes
    ):
        back = xi.ravel() * length / TWO_PI
        assert np.array_equal(np.round(back).astype(np.int64), n)
        assert np.allclose(back, np.round(back), atol=1e-12)


def test_masks_and_radius():
    grid = Grid(box=(1, 1, 1), n_space=(8, 8, 8), n_time=8, period=1.0)
    # Nyquist planes sit at mode -4 on the full axes and n1 = +4 on the half axis
    assert grid.k_modes[4] == -4 and grid.n_modes[2][4] == -4
    assert grid.n_modes[0][-1] == 4
    # Parseval weights: the n1 = 0 and n1 = N1/2 planes stand for one mode
    assert np.array_equal(grid.x1_weight, [1.0, 2.0, 2.0, 2.0, 1.0])
    radius_sq = grid.mode_radius_sq()
    assert radius_sq.shape == grid.spectral_shape
    assert radius_sq[0, 0, 0, 0] == 0
    assert radius_sq[1, 1, 1, 1] == 4
    assert radius_sq[4, 0, 0, 0] == 16
    assert radius_sq[7, 7, 7, 3] == 1 + 1 + 1 + 9


def test_grid_equality_and_hash():
    a = Grid(box=(1, 1, 1), n_space=(4, 4, 4), n_time=4, period=1.0)
    b = Grid(box=(1, 1, 1), n_space=(4, 4, 4), n_time=4, period=1.0)
    c = Grid(box=(1, 1, 1), n_space=(4, 4, 4), n_time=6, period=1.0)
    assert a == b
    assert a != c
    assert hash(a) == hash(b)


def test_coordinate_fields_shapes_and_values():
    grid = Grid(box=(1.0, 2.0, 3.0), n_space=(4, 4, 4), n_time=4, period=5.0)
    x1, x2, x3, t = grid.coordinate_fields()
    for arr in (x1, x2, x3, t):
        assert arr.shape == grid.shape
    assert x1[0, 0, 0, 1] == pytest.approx(0.25)
    assert x2[0, 0, 1, 0] == pytest.approx(0.5)
    assert x3[0, 1, 0, 0] == pytest.approx(0.75)
    assert t[1, 0, 0, 0] == pytest.approx(1.25)


def test_grid_holds_no_full_size_arrays():
    grid = Grid(box=(TWO_PI,) * 3, n_space=(32, 32, 32), n_time=32, period=TWO_PI)
    held = 0
    for value in vars(grid).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                assert item.ndim < 4 or 1 in item.shape
                held += item.nbytes
    assert held < 512 * 1024

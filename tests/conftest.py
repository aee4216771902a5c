import numpy as np
import pytest

from periodicflow import Grid, Params, fourier

TWO_PI = 2.0 * np.pi


@pytest.fixture
def grid8():
    return Grid(box=(TWO_PI, TWO_PI, TWO_PI), n_space=(8, 8, 8), n_time=8, period=TWO_PI)


@pytest.fixture
def grid16():
    return Grid(box=(TWO_PI, TWO_PI, TWO_PI), n_space=(16, 16, 16), n_time=16, period=TWO_PI)


@pytest.fixture
def params1():
    return Params(lam=1.0, period=TWO_PI)


@pytest.fixture
def two_threads(monkeypatch):
    """Node tasks on 2 threads on any machine: each thread holds one time node's arrays, so traced peaks grow with the count."""
    monkeypatch.setattr(fourier, "_cores", lambda: 2)

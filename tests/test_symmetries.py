"""Exact symmetries of the discrete system, on anisotropic grids.

The momentum equation d_t u - Lap u + lam d_1 u + (u . grad) u + grad p = f
keeps its form under a mirror of x1 that also flips u1 and the sign of lam,
under a shift by whole nodes along any axis, and, on a box with L2 = L3 and
N2 = N3, under the swap of x2 with x3 and of u2 with u3 for any lam, since
the drift is along x1.  Each map permutes the nodes, and the solver's
multipliers, transforms and transport commute with them, so the solution of
the transformed forcing is the transformed solution up to rounding.  Each
check runs two solves on a box, resolutions and period that differ along the
axes the map does not exchange, so a layout or sign error on one axis shows.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodicflow import Grid, Params, PhysicalField, inverse, random_smooth, solve

GRID = Grid(box=(2.5, 1.0, 7.0), n_space=(12, 8, 16), n_time=8, period=20.0)
LAM = -1.5
# exact for the discrete system: seed 5 holds both symmetries to 4.1e-16 of max |u|
TOL = 1e-13
SEEDS = st.integers(0, 2**16)


def solved_nodes(f_values, lam, grid=GRID):
    """Velocity node values of the solution driven by the forcing ``f_values``."""
    return inverse(solve(PhysicalField(grid, f_values), Params(lam=lam, period=grid.period), grid).u).values


def forcing(seed, grid=GRID):
    return random_smooth(seed=seed, amplitude=1.0, cutoff_shell=3, grid=grid).values


def mirrored(values):
    """Node i -> -i mod N1 along x1, with u1 -> -u1."""
    out = np.roll(values[..., ::-1], 1, axis=-1)
    out[0] *= -1.0
    return out


def assert_close(got, expected):
    assert np.abs(got - expected).max() <= TOL * np.abs(expected).max()


@settings(max_examples=4, deadline=None)
@given(seed=SEEDS)
@example(seed=5)
def test_mirroring_x1_and_the_drift_mirrors_the_solution(seed):
    f = forcing(seed)
    assert_close(solved_nodes(mirrored(f), -LAM), mirrored(solved_nodes(f, LAM)))


@settings(max_examples=5, deadline=None)
@given(
    seed=SEEDS,
    shift=st.tuples(*[st.integers(1, n - 1) for n in GRID.shape]),
)
@example(seed=5, shift=(3, 5, 2, 7))
def test_shifting_the_forcing_by_whole_nodes_shifts_the_solution(seed, shift):
    """A shift along t, x3, x2 and x1 at once, each by a whole number of nodes."""
    f = forcing(seed)
    axes = (1, 2, 3, 4)
    assert_close(solved_nodes(np.roll(f, shift, axis=axes), LAM), np.roll(solved_nodes(f, LAM), shift, axis=axes))


# x2 and x3 alike in length and resolution, x1 and t apart from them and each other;
# seeds 0-19 hold the swap to 6.3e-16 of max |u| at lam = -1.5, 0 and 1
SQUARE_GRID = Grid(box=(2.5, 3.0, 3.0), n_space=(12, 8, 8), n_time=8, period=20.0)


def swapped(values):
    """Node axes x2 and x3 exchanged, and components u2 and u3."""
    return np.swapaxes(values, 2, 3)[[0, 2, 1]]


@settings(max_examples=3, deadline=None)
@given(seed=SEEDS, lam=st.sampled_from((-1.5, 0.0, 1.0)))
@example(seed=5, lam=-1.5)
@example(seed=7, lam=0.0)
@example(seed=5, lam=1.0)
def test_swapping_x2_and_x3_swaps_the_solution(seed, lam):
    f = forcing(seed, SQUARE_GRID)
    assert_close(solved_nodes(swapped(f), lam, SQUARE_GRID), swapped(solved_nodes(f, lam, SQUARE_GRID)))

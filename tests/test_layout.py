"""The half-spectrum layout against full complex references on an anisotropic grid.

Bugs in the x1 (half) axis hide on cubic grids, so every check here runs on
a box, resolutions and period that differ per axis, and compares with plain
``scipy.fft.fftn`` computations written out in the test.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from periodicflow import (
    Grid,
    NotHermitian,
    Params,
    PhysicalField,
    SpectralField,
    coeff_norm,
    convective,
    cross_orthogonality,
    divergence,
    energy_balance,
    forward,
    gradient,
    helmholtz,
    inverse,
    oseen_inverse,
    pde_residual,
    picard_step,
    random_smooth,
    recover_pressure,
    solve,
)
from periodicflow import fourier, solver
from periodicflow.diagnostics import _MULTI_INDICES
from periodicflow.fourier import (
    _UNIT_INDICES,
    _derivative_factor,
    _inverse,
    _lattice_dot,
    _lattice_norm,
    _per_node,
)
from periodicflow.multipliers import _oseen_symbol
from halfspec import CountingFFT, full_forward, full_spectrum, negate_modes

AXES = (-4, -3, -2, -1)
LAMS = (0.0, -1.5)


@pytest.fixture(scope="module")
def grid():
    return Grid(box=(2.5, 1.0, 7.0), n_space=(8, 12, 16), n_time=10, period=0.7)


def full_frequencies(grid):
    """Broadcastable (omega, xi1, xi2, xi3) over the full lattice, FFT storage order."""
    m, n3, n2, n1 = grid.shape
    omega = 2 * math.pi / grid.period * np.fft.fftfreq(m, 1.0 / m).reshape(m, 1, 1, 1)
    xi1 = 2 * math.pi / grid.box[0] * np.fft.fftfreq(n1, 1.0 / n1).reshape(1, 1, 1, n1)
    xi2 = 2 * math.pi / grid.box[1] * np.fft.fftfreq(n2, 1.0 / n2).reshape(1, 1, n2, 1)
    xi3 = 2 * math.pi / grid.box[2] * np.fft.fftfreq(n3, 1.0 / n3).reshape(1, n3, 1, 1)
    return omega, xi1, xi2, xi3


def reference_step(u_full, f_full, grid, lam):
    """One Picard step on full complex spectra, written out independently of the package."""
    omega, xi1, xi2, xi3 = full_frequencies(grid)
    xi = (xi1, xi2, xi3)
    size = grid.size
    u_phys = (scipy.fft.ifftn(u_full, axes=AXES) * size).real
    transport = sum(
        u_phys[j] * (scipy.fft.ifftn(1j * xi[j] * u_full, axes=AXES) * size).real for j in range(3)
    )
    t_full = scipy.fft.fftn(transport, axes=AXES) / size
    modes = [np.fft.fftfreq(n, 1.0 / n) for n in grid.shape]
    for axis, (n, k) in enumerate(zip(grid.shape, modes)):
        shape = [1, 1, 1, 1]
        shape[axis] = n
        keep = ((np.abs(k) * 3 <= n) & (2 * np.abs(k) != n)).reshape(shape)
        t_full = t_full * keep
    rhs = f_full - t_full
    xi_sq = xi1**2 + xi2**2 + xi3**2
    dot = rhs[0] * xi1 + rhs[1] * xi2 + rhs[2] * xi3
    scale = np.where(xi_sq > 0, dot / np.where(xi_sq > 0, xi_sq, 1.0), 0.0)
    projected = np.stack([rhs[j] - xi[j] * scale for j in range(3)])
    symbol = xi_sq + 1j * (omega - lam * xi1)
    symbol[0, 0, 0, 0] = 1.0
    out = projected / symbol
    out[:, 0, 0, 0, 0] = 0.0
    return out


def random_values(grid, seed, components=3):
    return np.random.default_rng(seed).standard_normal((components,) + grid.shape)


def test_round_trip(grid):
    u = inverse(forward(PhysicalField(grid, random_values(grid, 1))))
    back = inverse(forward(u))
    assert np.abs(back.values - u.values).max() <= 1e-12 * np.abs(u.values).max()
    # the stored half equals the full reference transform on n1 = 0..N1/2
    full = full_forward(u.values, grid)
    spec = forward(u)
    assert np.abs(spec.coeffs - full[..., : grid.n_space[0] // 2 + 1]).max() <= 1e-15
    assert np.abs(full_spectrum(spec.coeffs, grid) - full).max() <= 1e-15


def test_sums_match_the_full_lattice(grid):
    u_values = inverse(forward(PhysicalField(grid, random_values(grid, 2)))).values
    f_values = inverse(forward(PhysicalField(grid, random_values(grid, 3)))).values
    u, f = forward(PhysicalField(grid, u_values)), forward(PhysicalField(grid, f_values))
    u_full, f_full = full_forward(u_values, grid), full_forward(f_values, grid)
    _, xi1, xi2, xi3 = full_frequencies(grid)
    xi_sq = xi1**2 + xi2**2 + xi3**2

    assert coeff_norm(u) == pytest.approx(np.linalg.norm(u_full.ravel()), rel=1e-13)

    report = energy_balance(u, f)
    dissipation = grid.volume * np.sum(xi_sq * np.sum(np.abs(u_full) ** 2, axis=0))
    power = grid.volume * np.real(np.vdot(f_full.ravel(), u_full.ravel()))
    assert report.dissipation == pytest.approx(dissipation, rel=1e-13)
    assert report.power_in == pytest.approx(power, rel=1e-12)

    cross = grid.volume * np.sum(xi_sq * np.real(np.sum(np.conj(u_full) * f_full, axis=0)))
    assert cross_orthogonality(u, f) == pytest.approx(cross, rel=1e-12)


@pytest.mark.parametrize("lam", LAMS)
def test_picard_step_matches_full_complex_reference(grid, lam):
    params = Params(lam=lam, period=grid.period)
    u = forward(random_smooth(seed=5, amplitude=0.6, cutoff_shell=3, grid=grid))
    f = forward(random_smooth(seed=6, amplitude=2.0, cutoff_shell=3, grid=grid))
    expected = reference_step(
        full_spectrum(u.coeffs, grid), full_spectrum(f.coeffs, grid), grid, lam
    )
    got = full_spectrum(picard_step(u, f, params).coeffs, grid)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("start", ("random", "rest"))
def test_picard_step_equals_the_composition_bit_for_bit(grid, lam, start):
    """The in-place step reproduces P_H, then R, of f - B(u) exactly and leaves its inputs alone."""
    params = Params(lam=lam, period=grid.period)
    u = forward(random_smooth(seed=5, amplitude=0.6, cutoff_shell=3, grid=grid))
    if start == "rest":
        u = SpectralField(grid, np.zeros_like(u.coeffs))
    f = forward(random_smooth(seed=6, amplitude=2.0, cutoff_shell=3, grid=grid))
    u_before, f_before = u.coeffs.copy(), f.coeffs.copy()
    got = picard_step(u, f, params)
    assert np.array_equal(u.coeffs, u_before) and np.array_equal(f.coeffs, f_before)
    rhs = f - convective(u)
    rhs_before = rhs.coeffs.copy()
    projected = helmholtz(rhs)
    assert np.array_equal(rhs.coeffs, rhs_before)
    projected_before = projected.coeffs.copy()
    expected = oseen_inverse(projected, params)
    assert np.array_equal(projected.coeffs, projected_before)
    assert np.array_equal(got.coeffs, expected.coeffs)
    # the same arithmetic written out: the sum order, then divisions, not reciprocals
    c = rhs.coeffs
    scale = (c[0] * grid.xi1 + c[1] * grid.xi2 + c[2] * grid.xi3) / np.where(grid.xi_sq > 0.0, grid.xi_sq, 1.0)
    symbol = _oseen_symbol(grid, params)
    symbol[0, 0, 0, 0] = 1.0
    reference = np.stack([c[j] - xi * scale for j, xi in enumerate(grid.xi)]) / symbol
    reference[:, 0, 0, 0, 0] = 0.0
    assert np.array_equal(got.coeffs, reference)


def test_picard_step_from_rest_skips_the_transport(grid, monkeypatch):
    def no_transport(u):
        raise AssertionError("the transport of u = 0 was computed")

    monkeypatch.setattr(solver, "convective", no_transport)
    f = forward(random_smooth(seed=6, amplitude=2.0, cutoff_shell=3, grid=grid))
    zero = SpectralField(grid, np.zeros_like(f.coeffs))
    assert np.any(picard_step(zero, f, Params(lam=-1.5, period=grid.period)).coeffs)


@pytest.mark.parametrize("lam", LAMS)
def test_solve_certifies_the_discrete_system(grid, lam):
    params = Params(lam=lam, period=grid.period)
    f = random_smooth(seed=7, amplitude=2.0, cutoff_shell=3, grid=grid)
    sol = solve(f, params, grid)
    assert sol.iterations >= 3
    residual = pde_residual(sol.u, sol.p, f, params)
    assert residual <= 1e-10
    assert abs(sol.pde_residual - residual) <= 1e-15 * residual
    # the pressure solve returns is the public recovery of the same data
    assert np.array_equal(sol.p.coeffs, recover_pressure(sol.u, forward(f)).coeffs)


@settings(max_examples=25, deadline=None)
@given(
    n=st.tuples(*[st.sampled_from((4, 6, 8, 10)) for _ in range(4)]),
    box=st.tuples(*[st.floats(0.5, 8.0) for _ in range(3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_parseval_on_random_even_shapes(n, box, seed):
    grid = Grid(box=box, n_space=n[:3], n_time=n[3], period=1.3)
    u = inverse(forward(PhysicalField(grid, random_values(grid, seed))))
    spec = forward(u)
    mean_sq = float(np.sum(np.mean(u.values**2, axis=(1, 2, 3, 4))))
    assert coeff_norm(spec) ** 2 == pytest.approx(mean_sq, rel=1e-12)
    full = full_forward(u.values, grid)
    total = _lattice_dot(spec.coeffs, spec.coeffs, grid)
    assert total == pytest.approx(float(np.sum(np.abs(full) ** 2)), rel=1e-12)
    # the one-pass norm is within 1e-15 of the exactly rounded sum; a sum plane
    # by plane misses that by up to 1.4e-15, so the two are compared to 3e-15
    one_pass = _lattice_norm(spec.coeffs, grid)
    abs_sq = np.square(spec.coeffs.real) + np.square(spec.coeffs.imag)
    exact = math.sqrt(math.fsum((abs_sq * grid.x1_weight).ravel()))
    assert abs(one_pass - exact) <= 1e-15 * exact
    two_pass = math.sqrt(float(abs_sq.sum(axis=(0, 1, 2, 3)) @ grid.x1_weight))
    assert abs(one_pass - two_pass) <= 3e-15 * two_pass
    assert isinstance(spec, SpectralField) and spec.coeffs.shape[1:] == grid.spectral_shape


def node_fields(spec, orders):
    """The ``(alpha, nodes)`` lists that ``_per_node`` hands its tasks, one list per time node."""
    return _per_node(spec, orders, lambda t, slot, fields: list(fields))[1]


def joined(per_node):
    """The fields of ``node_fields``, each joined along the time axis."""
    return [
        (alpha, np.concatenate([fields[i][1] for fields in per_node], axis=1))
        for i, (alpha, _) in enumerate(per_node[0])
    ]


def assert_derivative_nodes_match_inverse(spec, orders=_MULTI_INDICES):
    """Each of ``orders`` from ``_per_node`` against its own multi-axis ``scipy.fft.irfftn``, to 1e-14 relative.

    Every node gets the fields once each, ascending in (a3, a2, a1); the
    input is left bit for bit as it was, and no field of any node shares
    memory with it or with another.
    """
    grid = spec.grid
    before = spec.coeffs.copy()
    per_node = node_fields(spec, orders)
    assert len(per_node) == grid.n_time
    for fields in per_node:
        assert [alpha for alpha, _ in fields] == sorted(orders, key=lambda alpha: alpha[::-1])
    assert spec.coeffs.tobytes() == before.tobytes()
    arrays = [spec.coeffs] + [nodes for fields in per_node for _, nodes in fields]
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
    for alpha, nodes in joined(per_node):
        factor = _derivative_factor(grid, alpha)
        expected = scipy.fft.irfftn(spec.coeffs * factor, s=grid.shape, axes=AXES, norm="forward")
        assert nodes.shape == expected.shape
        assert np.abs(nodes - expected).max() <= 1e-14 * np.abs(expected).max(), alpha


def test_derivative_nodes_match_separate_inverses(grid):
    assert_derivative_nodes_match_inverse(forward(PhysicalField(grid, random_values(grid, 8))))
    assert_derivative_nodes_match_inverse(forward(PhysicalField(grid, random_values(grid, 9, 1))))


@settings(max_examples=25, deadline=None)
@given(
    n=st.tuples(*[st.sampled_from((4, 6, 8, 10)) for _ in range(4)]),
    box=st.tuples(*[st.floats(0.5, 8.0) for _ in range(3)]),
    seed=st.integers(0, 2**32 - 1),
    orders=st.lists(st.sampled_from(_MULTI_INDICES), min_size=1, unique=True),
)
def test_derivative_nodes_on_random_even_shapes(n, box, seed, orders):
    """Any non-empty subset of the orders, in any order, gaps such as (0, 0, 2) alone included."""
    grid = Grid(box=box, n_space=n[:3], n_time=n[3], period=1.3)
    spec = forward(PhysicalField(grid, random_values(grid, seed)))
    assert_derivative_nodes_match_inverse(spec, orders)


@settings(max_examples=40, deadline=None)
@given(
    n=st.tuples(*[st.sampled_from((4, 6, 8, 10)) for _ in range(4)]),
    box=st.tuples(*[st.floats(0.5, 8.0) for _ in range(3)]),
    seed=st.integers(0, 2**32 - 1),
    components=st.sampled_from((1, 3)),
    case=st.sampled_from(("forward", "defect below tolerance", "raw rfftn")),
)
def test_inverse_is_irfftn_bit_for_bit(n, box, seed, components, case):
    """``inverse``, the (0, 0, 0) leaf of the pass tree, equals scipy's multi-axis irfftn to the bit."""
    grid = Grid(box=box, n_space=n[:3], n_time=n[3], period=1.3)
    values = random_values(grid, seed, components)
    if case == "raw rfftn":
        # Nyquist content kept, the n1 = 0 and n1 = N1/2 planes symmetric to rounding only
        coeffs = scipy.fft.rfftn(values, axes=AXES, norm="forward")
    else:
        coeffs = forward(PhysicalField(grid, values)).coeffs
    if case == "defect below tolerance":
        # mode (k, n3, n2, n1) = (1, 0, 1, 0) moves away from its partner (-1, 0, -1, 0)
        coeffs[0, 1, 0, 1, 0] += 1e-12 * np.abs(coeffs).max()
    expected = scipy.fft.irfftn(coeffs, s=grid.shape, axes=AXES, norm="forward")
    nodes = inverse(SpectralField(grid, coeffs)).values
    assert nodes.shape == expected.shape
    assert nodes.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.tuples(*[st.sampled_from((4, 6, 8, 10)) for _ in range(4)]),
    box=st.tuples(*[st.floats(0.5, 8.0) for _ in range(3)]),
    seed=st.integers(0, 2**32 - 1),
    components=st.sampled_from((1, 3)),
)
def test_forward_is_rfftn_with_nyquist_planes_zeroed(n, box, seed, components):
    """``forward``, node tasks then a time pass, equals scipy's multi-axis rfftn less its Nyquist planes to 1e-15."""
    grid = Grid(box=box, n_space=n[:3], n_time=n[3], period=1.3)
    values = random_values(grid, seed, components)
    expected = scipy.fft.rfftn(values, axes=AXES, norm="forward")
    for axis, nyquist in zip(AXES, (n[3] // 2, n[2] // 2, n[1] // 2, n[0] // 2)):
        index = [slice(None)] * expected.ndim
        index[axis] = nyquist
        expected[tuple(index)] = 0.0
    coeffs = forward(PhysicalField(grid, values)).coeffs
    assert np.abs(coeffs - expected).max() <= 1e-15 * np.abs(expected).max()


def tree_of(orders):
    return lambda spec: joined(node_fields(spec, orders))


@pytest.mark.parametrize(
    "transform, expected",
    [
        # u and grad u of the transport: 10 one-dimensional passes per component
        (
            tree_of(((0, 0, 0),) + _UNIT_INDICES),
            {("ifft", 1): 1, ("ifft", 2): 2, ("ifft", 3): 3, ("irfft", 4): 4},
        ),
        # grad v alone, as B(u, v) and the gradient in manufactured take it: 9
        (tree_of(_UNIT_INDICES), {("ifft", 1): 1, ("ifft", 2): 2, ("ifft", 3): 3, ("irfft", 4): 3}),
        # the ten fields of norms: 20 passes
        (tree_of(_MULTI_INDICES), {("ifft", 1): 1, ("ifft", 2): 3, ("ifft", 3): 6, ("irfft", 4): 10}),
        # inverse is the (0, 0, 0) leaf: one pass per axis, 4 in all
        (inverse, {("ifft", 1): 1, ("ifft", 2): 1, ("ifft", 3): 1, ("irfft", 4): 1}),
    ],
    ids=["u and grad u", "grad u", "norms", "inverse"],
)
def test_derivative_nodes_pass_tree(grid, monkeypatch, transform, expected):
    """One time pass, one x3 pass per a3, one x2 pass per (a3, a2), one real x1 pass per field, on 1-3 threads."""
    spec = forward(PhysicalField(grid, random_values(grid, 4)))
    for cores in (1, 2, 3):
        counter = CountingFFT(grid)
        monkeypatch.setattr(fourier, "_fft", counter)
        monkeypatch.setattr(fourier, "_cores", lambda: cores)
        transform(spec)
        assert counter.volume == expected, cores


def test_transport_step_costs_fourteen_passes(grid, monkeypatch):
    """The convective term of a Picard step: the tree's 10 inverse passes and 4 forward passes, on any thread count."""
    spec = forward(PhysicalField(grid, random_values(grid, 5)))
    for cores in (1, 2, 3):
        counter = CountingFFT(grid)
        monkeypatch.setattr(fourier, "_fft", counter)
        monkeypatch.setattr(fourier, "_cores", lambda: cores)
        convective(spec)
        assert counter.volume == {
            ("ifft", 1): 1,
            ("ifft", 2): 2,
            ("ifft", 3): 3,
            ("irfft", 4): 4,
            ("rfft", 4): 1,
            ("fft", 3): 1,
            ("fft", 2): 1,
            ("fft", 1): 1,
        }, cores
        assert sum(counter.volume.values()) == 14


def spectrum_with(grid, entries):
    """A 3-component half spectrum holding one conjugate pair of a low mode plus ``entries``."""
    coeffs = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    coeffs[0, 1, 0, 1, 0] = 1.0 + 0.5j
    coeffs[0, -1, 0, -1, 0] = 1.0 - 0.5j
    for index, value in entries:
        coeffs[index] = value
    return SpectralField(grid, coeffs)


def raises_not_hermitian(action):
    try:
        action()
    except NotHermitian:
        return True
    return False


@pytest.mark.parametrize(
    "case, entries, flagged",
    [
        ("clean", [], False),
        # an unpaired mode on the n1 = 0 plane far above the tolerance
        ("input defect above tolerance", [((1, 0, 0, 5, 0), 1e-6)], True),
        # below the tolerance for the field itself, above it once multiplied
        # by xi2 or xi2^2 at n2 = 5 against a largest coefficient at n2 = 1
        ("input defect below tolerance", [((1, 0, 0, 5, 0), 5e-11)], True),
        # no defect, but i xi1 does not change sign on the n1 = N1/2 plane
        ("content on the n1 = N1/2 plane", [((2, 0, 0, 0, -1), 0.5)], True),
        # no defect, but i xi2 does not change sign on the x2 Nyquist row
        ("content on the x2 Nyquist row", [((2, 0, 0, 6, 0), 0.5)], True),
        # just above the 1e-10 tolerance against a largest coefficient of 1.118
        ("input defect just above tolerance", [((1, 0, 0, 5, 0), 2e-10)], True),
    ],
)
def test_derivative_nodes_flag_what_separate_inverses_flag(grid, case, entries, flagged):
    spec = spectrum_with(grid, entries)
    if case == "input defect below tolerance":
        inverse(spec)  # the field itself passes
    if case == "input defect just above tolerance":
        with pytest.raises(NotHermitian):
            inverse(spec)
    per_field = any(
        raises_not_hermitian(
            lambda: inverse(SpectralField(grid, spec.coeffs * _derivative_factor(grid, alpha)))
        )
        for alpha in _MULTI_INDICES
    )
    shared = raises_not_hermitian(lambda: node_fields(spec, _MULTI_INDICES))
    assert per_field == shared == flagged


def listed(t, slot, fields):
    return list(fields)


@pytest.mark.parametrize("orders", [((0, 0, 0),), _MULTI_INDICES], ids=["leaf", "ten orders"])
def test_a_handed_over_spectrum_gives_the_fields_of_a_kept_one_bit_for_bit(grid, orders):
    """With ``out=spec.coeffs`` the time pass runs in place on the caller's spectrum; no field changes a bit."""
    spec = forward(PhysicalField(grid, random_values(grid, 12)))
    kept = node_fields(spec, orders)
    handed = spec.coeffs.copy()
    timed, given = _per_node(SpectralField(grid, handed), orders, listed, out=handed)
    assert timed is handed
    for fields, fields_given in zip(kept, given, strict=True):
        assert [(alpha, nodes.tobytes()) for alpha, nodes in fields] == [
            (alpha, nodes.tobytes()) for alpha, nodes in fields_given
        ]
    handed = spec.coeffs.copy()
    assert _inverse(SpectralField(grid, handed), out=handed).values.tobytes() == inverse(spec).values.tobytes()


def test_a_handed_over_spectrum_with_a_defect_raises_before_it_is_written(grid):
    spec = spectrum_with(grid, [((1, 0, 0, 5, 0), 1e-6)])
    before = spec.coeffs.copy()
    with pytest.raises(NotHermitian):
        _per_node(spec, ((0, 0, 0),), listed, out=spec.coeffs)
    with pytest.raises(NotHermitian):
        _inverse(spec, out=spec.coeffs)
    assert spec.coeffs.tobytes() == before.tobytes()


RANDOM_GRIDS = dict(
    n=st.tuples(*[st.sampled_from((4, 6, 8, 10)) for _ in range(4)]),
    box=st.tuples(*[st.floats(0.5, 8.0) for _ in range(3)]),
    period=st.floats(0.3, 8.0),
)
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=25, deadline=None)
@given(**RANDOM_GRIDS, seed=SEEDS)
def test_projection_on_random_even_shapes(n, box, period, seed):
    grid = Grid(box=box, n_space=n[:3], n_time=n[3], period=period)
    c = forward(PhysicalField(grid, random_values(grid, seed)))
    once = helmholtz(c)
    scale = np.abs(c.coeffs).max()
    assert np.abs(helmholtz(once).coeffs - once.coeffs).max() <= 1e-14 * scale
    xi_max = math.sqrt(grid.xi_sq.max())
    assert np.abs(divergence(once).coeffs).max() <= 1e-14 * xi_max * scale


@settings(max_examples=25, deadline=None)
@given(**RANDOM_GRIDS, seed=SEEDS)
def test_pressure_recovers_the_gradient_part_on_random_even_shapes(n, box, period, seed):
    grid = Grid(box=box, n_space=n[:3], n_time=n[3], period=period)
    u = forward(PhysicalField(grid, random_values(grid, seed)))
    f_hat = forward(PhysicalField(grid, random_values(grid, seed + 1)))
    rhs = f_hat - convective(u)
    p = recover_pressure(u, f_hat)
    rebuilt = gradient(p) + helmholtz(rhs)
    assert np.abs(rebuilt.coeffs - rhs.coeffs).max() <= 1e-13 * np.abs(rhs.coeffs).max()
    # the spatial-mean line xi = 0 is exactly zero at every temporal frequency
    assert not p.coeffs[0, :, 0, 0, 0].any()


@settings(max_examples=25, deadline=None)
@given(**RANDOM_GRIDS, lam=st.floats(-3.0, 3.0))
def test_oseen_symbol_is_conjugate_symmetric_on_the_n1_zero_plane(n, box, period, lam):
    grid = Grid(box=box, n_space=n[:3], n_time=n[3], period=period)
    plane = _oseen_symbol(grid, Params(lam=lam, period=period))[..., 0]
    partner = np.conj(negate_modes(plane, axes=(-3, -2, -1)))
    # a Nyquist mode is its own partner, and forward keeps none
    axes = (grid.k_modes, grid.n_modes[2], grid.n_modes[1])
    keep = np.ix_(*(modes != -len(modes) // 2 for modes in axes))
    assert np.array_equal(plane[keep], partner[keep])

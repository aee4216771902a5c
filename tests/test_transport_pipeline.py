"""The threaded transport of ``fourier._transport`` against the same product written out.

The pipeline runs one task per time node on ``fourier._cores()`` threads.
Its output must not depend on the thread count, it must raise what the
written-out transport (one ``inverse`` per field, the product, ``forward``)
raises, on the same inputs, and it must leave no thread behind.
"""

import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodicflow import (
    Grid,
    NotHermitian,
    Params,
    PhysicalField,
    SpectralField,
    convective,
    forward,
    inverse,
    norms,
    picard_step,
    random_smooth,
)
from periodicflow import diagnostics, fourier, nonlinear
from periodicflow.fourier import _UNIT_INDICES, _derivative_factor, _on_every_core, _transport


@pytest.fixture(scope="module")
def grid():
    return Grid(box=(2.5, 1.0, 7.0), n_space=(8, 12, 16), n_time=10, period=0.7)


def random_spectrum(grid, seed):
    values = np.random.default_rng(seed).standard_normal((3,) + grid.shape)
    return forward(PhysicalField(grid, values))


def written_out(v, u_nodes=None):
    """(u . grad) v with each field from its own ``inverse``, the product summed over j, and ``forward``."""
    grid = v.grid
    if u_nodes is None:
        u_nodes = inverse(v).values
    total = np.zeros((3,) + grid.shape)
    for j, alpha in enumerate(_UNIT_INDICES):
        dv_j = inverse(SpectralField(grid, v.coeffs * _derivative_factor(grid, alpha))).values
        total += dv_j * u_nodes[j]
    return forward(PhysicalField(grid, total)).coeffs


@settings(max_examples=30, deadline=None)
@given(
    n_space=st.tuples(*[st.sampled_from((4, 6, 8, 10)) for _ in range(3)]),
    n_time=st.sampled_from((4, 8, 10, 14)),
    seed=st.integers(0, 2**32 - 1),
    advected=st.booleans(),
)
def test_transport_is_byte_identical_on_one_two_and_three_threads(n_space, n_time, seed, advected):
    """Even shapes with n_time not a multiple of 3, so the last thread takes fewer time nodes."""
    grid = Grid(box=(2.5, 1.0, 7.0), n_space=n_space, n_time=n_time, period=1.3)
    v = random_spectrum(grid, seed)
    u_nodes = np.random.default_rng(seed + 1).standard_normal((3,) + grid.shape) if advected else None
    outputs = []
    for cores in (1, 2, 3):
        with mock.patch.object(fourier, "_cores", return_value=cores):
            outputs.append(_transport(v, u_nodes).coeffs)
    assert outputs[0].tobytes() == outputs[1].tobytes() == outputs[2].tobytes()
    expected = written_out(v, u_nodes)
    assert np.abs(outputs[0] - expected).max() <= 1e-13 * np.abs(expected).max()


class FreshOutput:
    """A ``numpy.fft`` that makes every result in a new array from a copy of its input.

    ``out=`` keeps numpy's promise, the result is written there, but the
    returned array is the new one: no pass runs in place, and a caller that
    took the returned array for its input or its ``out`` would go wrong.
    """

    def __getattr__(self, name):
        function = getattr(np.fft, name)

        def fresh(x, *args, out=None, **kwargs):
            result = function(x.copy(), *args, **kwargs)
            if out is not None:
                out[...] = result
            return result

        return fresh


def test_transport_uses_only_what_each_pass_returns(grid, monkeypatch):
    v = random_spectrum(grid, 18)
    u_nodes = np.random.default_rng(19).standard_normal((3,) + grid.shape)
    expected = [_transport(v).coeffs, _transport(v, u_nodes).coeffs]
    monkeypatch.setattr(fourier, "_fft", FreshOutput())
    got = [_transport(v).coeffs, _transport(v, u_nodes).coeffs]
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]


def outcome(action):
    """The exception type and message ``action`` raises, or None and its result."""
    try:
        return None, action()
    except (NotHermitian, ValueError) as error:
        return type(error), str(error)


def broken(grid, case):
    """A spectrum and advecting nodes (None: the field itself) for each case."""
    coeffs = random_spectrum(grid, 11).coeffs
    u_nodes = None
    if case == "defect above tolerance":
        coeffs[1, 1, 0, 2, 0] += 1e-3  # its partner (-1, 0, -2, 0) keeps its value
    elif case == "content on the n1 = N1/2 plane":
        coeffs[2, 0, 0, 0, -1] = 0.5  # i xi1 does not change sign there
    elif case == "not-a-number off the checked planes":
        coeffs[0, 1, 1, 1, 1] = np.nan
    elif case == "product overflows":
        coeffs *= 1e160
    elif case == "advecting nodes not finite":
        u_nodes = np.ones((3,) + grid.shape)
        u_nodes[2, 3, 4, 5, 6] = np.inf
    return SpectralField(grid, coeffs), u_nodes


@pytest.mark.parametrize(
    "case, raised",
    [
        ("clean", None),
        ("defect above tolerance", NotHermitian),
        ("content on the n1 = N1/2 plane", NotHermitian),
        ("not-a-number off the checked planes", ValueError),
        ("product overflows", ValueError),
        ("advecting nodes not finite", ValueError),
    ],
)
@pytest.mark.parametrize("cores", [1, 3])
def test_transport_raises_what_the_written_out_transport_raises(grid, monkeypatch, case, raised, cores):
    monkeypatch.setattr(fourier, "_cores", lambda: cores)
    v, u_nodes = broken(grid, case)
    with np.errstate(all="ignore"):
        expected = outcome(lambda: written_out(v, u_nodes))
        got = outcome(lambda: _transport(v, u_nodes).coeffs)
    assert got[0] is expected[0] is raised
    if raised is None:
        assert np.abs(got[1] - expected[1]).max() <= 1e-13 * np.abs(expected[1]).max()
    else:
        assert got[1] == expected[1]
    if raised is ValueError:
        assert got[1] == "field values must be finite"


def test_transport_rejects_a_scalar_field_before_any_pass(grid, monkeypatch):
    monkeypatch.setattr(fourier, "_gated_tree", None)  # the driver's first step; calling it would fail otherwise
    scalar = SpectralField(grid, random_spectrum(grid, 12).coeffs[:1])
    with pytest.raises(ValueError, match="transport expects a 3-component field"):
        _transport(scalar)
    with pytest.raises(ValueError, match="transport expects a 3-component field"):
        convective(scalar)


@pytest.mark.parametrize("cores", [2, 3])
def test_transport_leaves_no_thread_behind(grid, monkeypatch, cores):
    monkeypatch.setattr(fourier, "_cores", lambda: cores)
    before = threading.active_count()
    convective(random_spectrum(grid, 13))
    assert threading.active_count() == before
    v, u_nodes = broken(grid, "advecting nodes not finite")
    with pytest.raises(ValueError):
        _transport(v, u_nodes)
    assert threading.active_count() == before


def test_convective_calls_neither_forward_nor_inverse(grid, monkeypatch):
    """Worker threads must not enter a traced function: the benchmark tracer keeps one span stack."""

    def refuse(*args, **kwargs):
        raise AssertionError("the transport called forward or inverse")

    v = random_spectrum(grid, 14)
    u_nodes = np.random.default_rng(15).standard_normal((3,) + grid.shape)
    for module in (fourier, nonlinear):
        monkeypatch.setattr(module, "forward", refuse)
        monkeypatch.setattr(module, "inverse", refuse)
    monkeypatch.setattr(fourier, "_cores", lambda: 3)
    convective(v)
    _transport(v, u_nodes)


def counted(monkeypatch, name):
    """The calls of ``fourier.<name>``, counted through every module that binds it."""
    calls = []
    original = getattr(fourier, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in (fourier, diagnostics):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_every_transform_runs_through_one_node_driver_and_one_forward_tail(grid, monkeypatch):
    """Spectra reach their nodes through ``_per_node`` alone, and every spectrum made from nodes ends in ``_finish_forward``."""
    u = forward(random_smooth(seed=20, amplitude=1.0, cutoff_shell=2, grid=grid))
    p = SpectralField(grid, random_spectrum(grid, 21).coeffs[:1])
    params = Params(lam=1.0, period=grid.period)
    per_node, finish = counted(monkeypatch, "_per_node"), counted(monkeypatch, "_finish_forward")
    for action, expected in [
        (lambda: picard_step(u, u, params), (1, 1)),
        (lambda: inverse(u), (1, 0)),
        (lambda: forward(inverse(u)), (1, 1)),
        (lambda: norms(u, params, p=p), (3, 0)),
    ]:
        per_node.clear()
        finish.clear()
        action()
        assert (len(per_node), len(finish)) == expected


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_threads_follow_the_cpu_affinity_not_the_machine(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5})
    assert fourier._cores() == 2


def test_every_core_runs_each_task_once_and_raises_the_first_failure(monkeypatch):
    monkeypatch.setattr(fourier, "_cores", lambda: 3)
    before = threading.active_count()
    assert _on_every_core(lambda i: i * i, 40) == [i * i for i in range(40)]

    def failing_at_5(i):
        if i == 5:
            raise MemoryError("no room for a node")

    with pytest.raises(MemoryError, match="no room for a node"):
        _on_every_core(failing_at_5, 11)
    assert threading.active_count() == before


@pytest.mark.parametrize("cores", [2, 3])
def test_every_core_runs_a_task_at_the_same_time(monkeypatch, cores):
    """Each task waits for all the others, so this passes only if ``cores`` threads, the caller among them, run at once."""
    monkeypatch.setattr(fourier, "_cores", lambda: cores)
    meeting = threading.Barrier(cores, timeout=10)

    def meet(i):
        meeting.wait()
        return threading.get_ident()

    idents = _on_every_core(meet, cores)
    assert len(set(idents)) == cores and threading.get_ident() in idents


@pytest.mark.parametrize("node", [0, 4, 9])
def test_the_callers_error_state_holds_on_every_thread(grid, monkeypatch, node):
    """An overflow in any one time node raises under the caller's ``np.errstate``, whichever thread meets it."""
    monkeypatch.setattr(fourier, "_cores", lambda: 3)
    v = SpectralField(grid, 10.0 * random_spectrum(grid, 16).coeffs)
    u_nodes = np.ones((3,) + grid.shape)
    u_nodes[:, node] = 1e308
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _transport(v, u_nodes)


def test_more_threads_than_cores_under_fast_switching(grid, monkeypatch):
    """Eight threads on this machine's cores, switching every microsecond: each task runs once, the bytes hold."""
    v = random_spectrum(grid, 17)
    monkeypatch.setattr(fourier, "_cores", lambda: 1)
    serial = _transport(v).coeffs
    monkeypatch.setattr(fourier, "_cores", lambda: 8)
    ran = []
    outputs = []

    def run():
        outputs.append(_on_every_core(lambda i: ran.append(i) or i, 200))
        outputs.append(_transport(v).coeffs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(ran) == list(range(200))
    assert outputs[0] == list(range(200))
    assert outputs[1].tobytes() == serial.tobytes()

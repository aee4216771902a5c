"""Fields on the space-time grid and the transform between node values and modes.

Layout.  Node values are real, so their spectrum is conjugate-symmetric,
c(-m) = conj(c(m)), and only half of it is stored: a real-to-complex
transform (Frigo & Johnson 2005) keeps the x1 modes n1 = 0..N1/2 and the full
range of every other axis, so a scalar spectrum has shape
``grid.spectral_shape`` = (M, N3, N2, N1/2 + 1).  Each stored mode off the
n1 = 0 and n1 = N1/2 planes stands for itself and its conjugate partner, so
the lattice inner product Re sum conj(a) b is the half-spectrum sum weighted
by 2 off those two planes (``grid.x1_weight``).  ``_lattice_dot`` is the one
reader of those weights: every whole-lattice norm and inner product of the
package goes through it, so each returns the full-lattice value to rounding.

Normalization.  The forward transform divides by the total node count, so
the (0,0) mode coefficient is the plain space-time grid mean and the inverse
transform is an unweighted exponential sum.  With that normalization the
weighted sum over modes of |coeffs|^2 equals the grid average of |u|^2.
Nyquist planes of every axis are zeroed on each forward transform so that
each surviving mode has an exact conjugate partner on the lattice.

Real-ness.  A half spectrum is real by construction everywhere except on the
n1 = 0 and n1 = N1/2 planes, whose modes pair with modes of the same plane.
Those two planes are the only place an input can break the symmetry, so
the inverse transform checks them alone and raises ``NotHermitian`` when
their conjugate pairs disagree by more than a fixed 1e-10 of the largest
coefficient.  ``forward`` makes the n1 = 0 plane exactly symmetric and every
multiplier of the package preserves that bit for bit, so computed spectra
pass with no defect at all.  ``_FLOOR`` (1e-300), the floor under every data
scale the package divides by, is defined here once.

Transport.  The nonlinear term keeps its convective form (u . grad) u.  The
divergence form would need fewer transforms, but the two forms differ by
aliasing of unresolved tails, and ``pde_residual`` evaluates the convective
form, so it certifies the discrete system the solver actually iterates.

Shared passes.  A multidimensional transform is a sequence of 1-d passes
(Frigo & Johnson 2005), and a spatial derivative is a multiplier along the
space axes only.  So the derivative fields of one spectrum are inverted as
a tree of passes: one pass over the time axis for all of them, one x3 pass
per distinct x3 order, one x2 pass per distinct (x3, x2) orders, and one
real x1 pass per field, each order raised in place from the one below it,
D^(a+1) = (i xi) D^a.  u and its gradient, which the transport needs on
every Picard step, cost 10 one-dimensional passes per component instead of
the 16 of four separate 4-d transforms.  No leaf is a multi-axis real
transform, which would copy its whole complex input before its last pass.

Node pipeline.  ``_per_node`` is the one driver from a spectrum to node
values: the ``NotHermitian`` gate (``_gated_tree``) and the inverse time pass
over the whole array, then one task per time node, which gets the node's
slot of that array and its fields from ``_space_tree`` (the x3, x2 and x1
passes).  ``inverse`` copies each node's (0, 0, 0) leaf into its output,
``diagnostics.norms`` reduces each node's fields to partial sums, and the
transport forms sum_j u_j d_j v, raises ``ValueError`` if that is not
finite, and writes its forward x1, x2 and x3 passes (``_space_forward``, as
``forward``'s tasks do) over the slot, so it makes one whole array and
costs 14 one-dimensional passes per component (10 inverse, 4 forward).
``_finish_forward``, the tail of every forward transform, runs the forward
time pass, zeroes the Nyquist planes and makes the n1 = 0 plane
symmetric.  Only ``diagnostics._w21q`` calls ``_space_tree`` itself, once,
on the k = 0 plane, which needs no time pass.  Every complex pass whose
input is not needed again runs in place (numpy's ``out=``).  So does the
time pass of a spectrum its caller drops: ``_per_node``'s ``out`` takes
``spec.coeffs`` from ``diagnostics._w21q`` (its time derivative) and, through
``_inverse``, from ``forcing.manufactured`` (the forcing) and
``forcing.random_smooth`` (the masked spectrum).  Any other input is never
written, and its time pass makes the one whole array of the call.
The one thread rule: every transform is a ``numpy.fft`` call, which runs on
the thread that makes it.  Time passes run over the whole array on the
calling thread, and node tasks on ``_cores()`` threads, the caller among
them, each holding the arrays of one time node.  Worker threads call no
public function of the package, so a tracer that wraps those sees the
calling thread alone.  Every value comes from the same operations on any
thread, and callers combine per-node results in node order, so no result
depends on the thread count.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy import fft as _fft

from .domain import Grid
from .errors import NotHermitian

__all__ = [
    "PhysicalField",
    "SpectralField",
    "forward",
    "inverse",
    "time_mean_part",
    "oscillatory_part",
    "time_derivative",
    "gradient",
    "divergence",
    "coeff_norm",
]

_FLOOR = 1e-300
_IMAG_TOL = 1e-10
_NOT_FINITE = "field values must be finite"
# Spatial derivative orders (a1, a2, a3) of the gradient, in axis order.
_UNIT_INDICES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# Index pairs (m, -m) along one full axis: index 0 is its own partner, index i
# pairs with N - i, which is the reversed view of 1..N-1.
_MIRROR = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))


def _all_finite(values: np.ndarray) -> bool:
    """True if no value is NaN or infinite."""
    # max propagates NaN and shows +inf; min shows -inf; neither allocates
    return bool(np.isfinite(values.max()) and np.isfinite(values.min()))


def _with_component_axis(values: np.ndarray) -> np.ndarray:
    if values.ndim == 4:
        return values[np.newaxis]
    if values.ndim == 5:
        return values
    raise ValueError(f"field arrays must have 4 or 5 axes, got {values.ndim}")


@dataclass(frozen=True)
class PhysicalField:
    """Real samples on the space-time grid, shape (components, M, N3, N2, N1)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _with_component_axis(np.asarray(self.values, dtype=np.float64))
        if values.shape[1:] != self.grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {self.grid.shape}")
        if values.shape[0] not in (1, 3):
            raise ValueError(f"fields carry 1 or 3 components, got {values.shape[0]}")
        if not _all_finite(values):
            raise ValueError(_NOT_FINITE)
        object.__setattr__(self, "values", values)

    @property
    def components(self) -> int:
        return self.values.shape[0]

    def __mul__(self, scalar: float) -> "PhysicalField":
        return PhysicalField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpectralField:
    """Half-spectrum Fourier coefficients, shape (components,) + grid.spectral_shape."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _with_component_axis(np.asarray(self.coeffs, dtype=np.complex128))
        if coeffs.shape[1:] != self.grid.spectral_shape:
            raise ValueError(
                f"coeffs shape {coeffs.shape} does not match grid {self.grid.spectral_shape}"
            )
        if coeffs.shape[0] not in (1, 3):
            raise ValueError(f"fields carry 1 or 3 components, got {coeffs.shape[0]}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def _partner(plane: np.ndarray) -> np.ndarray:
    """conj(c(-m)) at every m of a plane shaped (components, full frequency axes...)."""
    out = np.empty_like(plane)
    for pairs in product(_MIRROR, repeat=plane.ndim - 1):
        here = (slice(None),) + tuple(p[0] for p in pairs)
        there = (slice(None),) + tuple(p[1] for p in pairs)
        out[here] = np.conj(plane[there])
    return out


def forward(field: PhysicalField) -> SpectralField:
    """Transform node values to half-spectrum coefficients.

    Each time node runs its spatial passes (``_space_forward``) on its own
    task; then ``_finish_forward`` runs the time pass, zeroes the Nyquist
    planes and makes the n1 = 0 plane exactly conjugate-symmetric (the
    transform leaves it so only to rounding).  Every multiplier of the package
    maps conjugate pairs to conjugate pairs bit for bit, so spectra computed
    from forward transforms stay exactly symmetric and ``inverse`` finds no
    defect in them.
    """
    grid = field.grid
    coeffs = np.empty((field.components,) + grid.spectral_shape, dtype=np.complex128)

    def node(t: int) -> None:
        _space_forward(field.values[:, t : t + 1], coeffs[:, t : t + 1])

    _on_every_core(node, grid.n_time)
    return _finish_forward(coeffs, grid)


def _space_forward(nodes: np.ndarray, out: np.ndarray) -> None:
    """The forward x1, x2 and x3 passes of ``nodes``, a run of time nodes, written into ``out``."""
    _fft.rfft(nodes, axis=4, norm="forward", out=out)
    _fft.fft(out, axis=3, norm="forward", out=out)
    _fft.fft(out, axis=2, norm="forward", out=out)


def _finish_forward(coeffs: np.ndarray, grid: Grid) -> SpectralField:
    """``forward``'s tail, in place on ``coeffs``: the time pass, Nyquist planes zeroed, n1 = 0 made symmetric."""
    _fft.fft(coeffs, axis=1, norm="forward", out=coeffs)
    m, n3, n2, n1h = grid.spectral_shape
    coeffs[:, m // 2] = 0.0
    coeffs[:, :, n3 // 2] = 0.0
    coeffs[:, :, :, n2 // 2] = 0.0
    coeffs[..., n1h - 1] = 0.0
    plane = coeffs[..., 0]
    plane += _partner(plane)
    plane *= 0.5
    return SpectralField(grid, coeffs)


def _plane_defect(coeffs: np.ndarray) -> float:
    """Largest |c(m) - conj(c(-m))| over the n1 = 0 and n1 = N1/2 planes.

    ``coeffs`` has a leading component axis, then full frequency axes, then
    the half x1 axis.
    """
    return max(
        float(np.abs(plane - _partner(plane)).max(initial=0.0))
        for plane in (coeffs[..., 0], coeffs[..., -1])
    )


def _check_real(coeffs: np.ndarray) -> None:
    """Raise ``NotHermitian`` unless ``coeffs`` is, to ``_IMAG_TOL``, a real field's half spectrum.

    Only a nonzero defect costs a pass over the whole spectrum, for the scale
    it is judged against.
    """
    defect = _plane_defect(coeffs)
    if defect > 0.0:
        scale = float(np.abs(coeffs).max(initial=0.0))
        if defect > _IMAG_TOL * max(scale, _FLOOR):
            raise NotHermitian(
                f"conjugate-pair defect {defect:.3e} on the n1 = 0 or n1 = N1/2 plane "
                f"exceeds {_IMAG_TOL:.1e} of coefficient magnitude {scale:.3e}"
            )


def _derivative_factor(grid: Grid, alpha: tuple[int, int, int]) -> np.ndarray:
    """Multiplier of the spatial derivative D^alpha, alpha = (a1, a2, a3)."""
    return (1j * grid.xi1) ** alpha[0] * (1j * grid.xi2) ** alpha[1] * (1j * grid.xi3) ** alpha[2]


def _nyquist_free(coeffs: np.ndarray) -> bool:
    """True if ``coeffs`` is zero on the n1 = N1/2 plane and the x2, x3 Nyquist rows of n1 = 0."""
    plane = coeffs[..., 0]
    n3, n2 = plane.shape[-2:]
    return not (coeffs[..., -1].any() or plane[:, :, n3 // 2].any() or plane[..., n2 // 2].any())


def _raised_passes(
    values: np.ndarray, orders: Iterable[int], ixi: np.ndarray, transform: Callable[..., np.ndarray]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(a, transform(ixi**a * values, last))`` for the ascending ``orders`` along one axis.

    ``values`` is raised from one order to the next in place, one ``*= ixi``
    per unit of order, and only the last transform (``last`` true) may write
    its result over it.
    """
    orders = list(orders)
    done = 0
    for a in orders:
        for _ in range(a - done):
            values *= ixi
        done = a
        yield a, transform(values, a == orders[-1])


def _complex_pass(function: Callable[..., np.ndarray], axis: int) -> Callable[[np.ndarray, bool], np.ndarray]:
    """A complex pass along ``axis`` for ``_raised_passes``: in place on its input's last use."""
    return lambda values, last: function(values, axis=axis, norm="forward", out=values if last else None)


def _gated_tree(
    spec: SpectralField, orders: Sequence[tuple[int, int, int]]
) -> dict[int, dict[int, list[int]]]:
    """Check ``spec`` for the derivative ``orders``; return them as the tree a3 -> a2 -> [a1].

    Each order raises ``NotHermitian`` when the n1 = 0 or n1 = N1/2 plane of
    ``spec.coeffs * factor`` has a conjugate-pair defect above 1e-10 of its
    largest coefficient.  The factor maps conjugate pairs to
    conjugate pairs bit for bit except where it fails to change sign with the
    mode: on the n1 = N1/2 plane and on the x2 and x3 Nyquist rows of the
    n1 = 0 plane.  So an input with no defect and nothing there yields
    symmetric fields, and only other inputs are checked order by order.
    """
    coeffs = spec.coeffs
    if _plane_defect(coeffs) > 0.0 or not _nyquist_free(coeffs):
        for alpha in orders:
            _check_real(coeffs * _derivative_factor(spec.grid, alpha))
    tree: dict[int, dict[int, list[int]]] = {}
    for a1, a2, a3 in sorted(set(orders), key=lambda alpha: alpha[::-1]):
        tree.setdefault(a3, {}).setdefault(a2, []).append(a1)
    return tree


def _space_tree(
    timed: np.ndarray, grid: Grid, tree: dict[int, dict[int, list[int]]]
) -> Iterator[tuple[tuple[int, int, int], np.ndarray]]:
    """Yield ``(alpha, nodes)`` for the orders of ``tree`` from ``timed``, inverted over time already.

    One x3 pass per a3, one x2 pass per (a3, a2), one real x1 pass per field,
    on one thread.  Each axis visits its orders upwards, raised in place on
    the shared array, so fields come once each, ascending in (a3, a2, a1).
    ``timed`` (any run of time nodes) is raised in place and its last x3
    pass runs in place on it.
    """
    x3_pass, x2_pass = _complex_pass(_fft.ifft, 2), _complex_pass(_fft.ifft, 3)

    def x1_pass(values: np.ndarray, last: bool) -> np.ndarray:
        return _fft.irfft(values, n=grid.n_space[0], axis=4, norm="forward")

    # Each ``del`` drops an array before the pass that replaces it is made.
    for a3, along_x3 in _raised_passes(timed, tree, 1j * grid.xi3, x3_pass):
        for a2, along_x2 in _raised_passes(along_x3, tree[a3], 1j * grid.xi2, x2_pass):
            for a1, nodes in _raised_passes(along_x2, tree[a3][a2], 1j * grid.xi1, x1_pass):
                yield (a1, a2, a3), nodes
                del nodes
            del along_x2
        del along_x3


def _per_node(
    spec: SpectralField, orders: Sequence[tuple[int, int, int]], task: Callable, out: np.ndarray | None = None
) -> tuple:
    """``task(t, slot, fields)`` for each time node t; the time-passed spectrum and the results in node order.

    ``fields`` yields ``(alpha, nodes)``, the node values of D^alpha ``spec``
    at node t shaped (components, 1, N3, N2, N1), in ``_space_tree``'s order;
    ``slot``, node t of the time-passed spectrum, may be written once they are taken.
    The time pass writes into ``out`` as numpy's ``out=`` does: a caller that
    drops ``spec`` afterwards hands ``spec.coeffs`` over, and the pass runs in
    place on it.  Without ``out``, ``spec.coeffs`` is never written.
    ``_gated_tree`` raises ``NotHermitian`` before any pass, so before any write.
    """
    tree = _gated_tree(spec, orders)
    timed = _fft.ifft(spec.coeffs, axis=1, norm="forward", out=out)

    def node(t: int):
        slot = timed[:, t : t + 1]
        return task(t, slot, _space_tree(slot, spec.grid, tree))

    return timed, _on_every_core(node, spec.grid.n_time)


def _cores() -> int:
    """Threads of the node pipeline: the cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_every_core(task: Callable[[int], object], count: int) -> list:
    """``task(i)`` for i = 0 .. count - 1 on ``_cores()`` threads, the caller among them; the results in order.

    Each thread takes the next untaken task until none is left.  The helper
    threads run in copies of the caller's context, so numpy's error state
    applies to every task alike.  A task's exception is raised once every
    thread has ended.  The caller works rather than waits: one future per
    task, with the caller idle, made a ``picard-aniso`` solve 12-16% slower
    on 2 cores.
    """
    results: list = [None] * count
    untaken = iter(range(count))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = next(untaken, None)
            if i is None:
                return
            results[i] = task(i)

    helpers = _cores() - 1
    with ThreadPoolExecutor(max(helpers, 1)) as pool:
        futures = [pool.submit(contextvars.copy_context().run, work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()
    return results


def _transport(v: SpectralField, u_nodes: np.ndarray | None = None) -> SpectralField:
    """Spectrum of (u . grad) v in convective form, without dealiasing, as ``forward`` returns it.

    With ``u_nodes`` omitted u is v, and its nodes share the transform passes
    of its gradient; B(u, v) is ``_transport(v, inverse(u).values)``.  Raises
    ``NotHermitian`` where ``_gated_tree`` does, and ``ValueError`` where
    ``forward`` would find the product not finite.
    """
    if v.components != 3:
        raise ValueError("transport expects a 3-component field")
    orders = _UNIT_INDICES if u_nodes is not None else ((0, 0, 0),) + _UNIT_INDICES

    # each task writes its forward spatial passes over its used-up slot: one whole array in all
    def transport(t: int, slot: np.ndarray, fields) -> None:
        u = next(fields)[1] if u_nodes is None else u_nodes[:, t : t + 1]
        total = None
        for alpha, dv_j in fields:
            dv_j *= u[alpha.index(1)]
            total = dv_j if total is None else np.add(total, dv_j, out=total)
        if not _all_finite(total):
            raise ValueError(_NOT_FINITE)
        _space_forward(total, slot)

    spectrum, _ = _per_node(v, orders, transport)
    return _finish_forward(spectrum, v.grid)


def inverse(spec: SpectralField) -> PhysicalField:
    """Transform half-spectrum coefficients back to real node values.

    Each node task of ``_per_node`` writes its (0, 0, 0) leaf: one pass
    over each axis.  The rectangle rule is exact for trigonometric
    polynomials, so the time mean of the returned nodes is the node field of
    the k = 0 plane alone, which ``diagnostics.norms`` uses.

    Raises
    ------
    NotHermitian
        If a conjugate pair on the n1 = 0 or n1 = N1/2 plane disagrees by
        more than 1e-10 times the largest coefficient, which means the
        coefficients are not the spectrum of a real field.
    """
    return _inverse(spec)


def _inverse(spec: SpectralField, out: np.ndarray | None = None) -> PhysicalField:
    """``inverse``, its time pass written into ``out`` (see ``_per_node``): ``spec.coeffs`` hands the spectrum over."""
    values = np.empty((spec.components,) + spec.grid.shape)

    def leaf(t: int, slot: np.ndarray, fields) -> None:
        values[:, t : t + 1] = next(fields)[1]

    _per_node(spec, ((0, 0, 0),), leaf, out)
    return PhysicalField(spec.grid, values)


def time_mean_part(spec: SpectralField) -> SpectralField:
    """Projection onto the k = 0 plane: the time-averaged (steady) part."""
    out = np.zeros_like(spec.coeffs)
    out[:, 0] = spec.coeffs[:, 0]
    return SpectralField(spec.grid, out)


def oscillatory_part(spec: SpectralField) -> SpectralField:
    """Complementary projection onto k != 0: the zero-time-mean part."""
    out = spec.coeffs.copy()
    out[:, 0] = 0.0
    return SpectralField(spec.grid, out)


def time_derivative(spec: SpectralField) -> SpectralField:
    return SpectralField(spec.grid, spec.coeffs * (1j * spec.grid.omega))


def gradient(spec: SpectralField) -> SpectralField:
    """Spatial gradient of a scalar field, returned as a 3-component field."""
    if spec.components != 1:
        raise ValueError("gradient expects a scalar field")
    c = spec.coeffs[0]
    g = spec.grid
    out = np.stack([c * (1j * g.xi1), c * (1j * g.xi2), c * (1j * g.xi3)])
    return SpectralField(g, out)


def divergence(spec: SpectralField) -> SpectralField:
    """Spatial divergence of a 3-component field, returned as a scalar field."""
    if spec.components != 3:
        raise ValueError("divergence expects a 3-component field")
    c = spec.coeffs
    g = spec.grid
    out = c[0] * (1j * g.xi1) + c[1] * (1j * g.xi2) + c[2] * (1j * g.xi3)
    return SpectralField(g, out[np.newaxis])


def _lattice_dot(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """Re sum conj(a) b over the whole lattice, in one pass over the (re, im) float views.

    A stored x1 plane counts ``grid.x1_weight`` times: twice off n1 = 0 and n1 = N1/2, for the partners.
    """
    rows = 2 * a.shape[-1]
    parts_a, parts_b = (np.ascontiguousarray(c).view(np.float64).reshape(-1, rows) for c in (a, b))
    return float(np.einsum("ij,ij->j", parts_a, parts_b) @ np.repeat(grid.x1_weight, 2))


def _lattice_norm(coeffs: np.ndarray, grid: Grid) -> float:
    """2-norm of ``coeffs`` over the whole lattice."""
    return math.sqrt(_lattice_dot(coeffs, coeffs, grid))


def coeff_norm(spec: SpectralField) -> float:
    """2-norm of the coefficients over the whole lattice (the grid rms by Parseval)."""
    return _lattice_norm(spec.coeffs, spec.grid)

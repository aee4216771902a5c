"""Test helpers that relate the half-spectrum layout to the full complex lattice, and a pass counter."""

import collections
import math
import threading
from fractions import Fraction

import numpy as np
import scipy.fft

from periodicflow import SpectralField


def negate_modes(coeffs, axes=(-4, -3, -2, -1)):
    """Index map m -> -m (mod lattice) on the given frequency axes."""
    out = coeffs
    for ax in axes:
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def full_spectrum(coeffs, grid):
    """Complete half-spectrum coefficients to the full lattice by conjugate symmetry.

    Stored modes n1 = 0..N1/2 are copied; each mode with n1 < 0 is the
    conjugate of its stored partner at -m.  The result has the storage
    layout of ``scipy.fft.fftn`` divided by the node count.
    """
    n1 = grid.n_space[0]
    full = np.zeros(coeffs.shape[:-1] + (n1,), dtype=np.complex128)
    full[..., : n1 // 2 + 1] = coeffs
    partners = np.conj(coeffs[..., 1 : n1 // 2][..., ::-1])
    full[..., n1 // 2 + 1 :] = negate_modes(partners, axes=(-4, -3, -2))
    return full


def full_forward(values, grid):
    """Reference transform: complex fftn over all four axes, Nyquist planes zeroed."""
    full = scipy.fft.fftn(values, axes=(-4, -3, -2, -1)) / grid.size
    for axis, n in zip((-4, -3, -2, -1), grid.shape):
        index = [slice(None)] * full.ndim
        index[axis] = n // 2
        full[tuple(index)] = 0.0
    return full


def spectral_zeros(grid, components=3):
    return np.zeros((components,) + grid.spectral_shape, dtype=np.complex128)


def wrong_branch_half_derivative(spec):
    """Negative control for ``half_time_derivative``: the root of (i*omega) in the upper half plane.

    On k < 0 this picks e^{+i pi/4} instead of the principal e^{-i pi/4}, so
    conjugate pairs stop mapping to conjugate pairs.
    """
    factor = np.exp(1j * math.pi / 4.0) * np.sqrt(np.abs(spec.grid.omega))
    return SpectralField(spec.grid, spec.coeffs * factor)


class CountingFFT:
    """Stands in for ``numpy.fft`` inside ``fourier`` and sums the volume each function transforms along each axis.

    The volume of a call is the size of its input in units of one field of
    ``components`` components: node values for a real input, a half spectrum
    for a complex one.  A pass cut into time nodes therefore counts as one
    pass however many calls, on however many threads, it takes; a lock keeps the
    sums exact when calls come from several threads at once.
    """

    def __init__(self, grid, components=3):
        real, half_spectrum = math.prod(grid.shape), math.prod(grid.spectral_shape)
        self.units = {False: components * real, True: components * half_spectrum}
        self.volume = collections.Counter()
        self.lock = threading.Lock()

    def __getattr__(self, name):
        function = getattr(np.fft, name)

        def counted(x, *args, **kwargs):
            key = name, kwargs.get("axis", kwargs.get("axes"))
            share = Fraction(x.size, self.units[np.iscomplexobj(x)])
            with self.lock:
                self.volume[key] += share
            return function(x, *args, **kwargs)

        return counted

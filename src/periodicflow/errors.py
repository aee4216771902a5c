"""Exception types shared across the solver and its command line front end."""

from __future__ import annotations

__all__ = [
    "SolverError",
    "MeanModeNonzero",
    "NoConvergence",
    "Diverging",
    "NotSolenoidal",
    "NotHermitian",
    "FieldFormatError",
    "GridMismatch",
]


class SolverError(Exception):
    """Base class for every failure mode this package raises deliberately."""


class MeanModeNonzero(SolverError):
    """The space-time mean mode of the forcing is not removable.

    The diagonal symbol vanishes at the zero frequency, so a forcing whose
    solenoidal part carries a nonzero space-time mean has no periodic
    solution on the box.
    """


class _IterationError(SolverError):
    def __init__(self, message: str, update_history: tuple[float, ...] = ()):
        super().__init__(message)
        self.update_history = tuple(update_history)


class NoConvergence(_IterationError):
    """Fixed-point iteration hit the iteration cap before meeting tolerance."""


class Diverging(_IterationError):
    """Fixed-point updates grew persistently; the data is outside the contraction regime."""


class NotSolenoidal(SolverError):
    """An operation requiring a divergence-free field received one that is not."""


class NotHermitian(SolverError):
    """Spectral coefficients lack the conjugate symmetry of a real field."""


class FieldFormatError(SolverError):
    """A field file is malformed or truncated."""


class GridMismatch(FieldFormatError):
    """A field file's grid header disagrees with the expected grid."""

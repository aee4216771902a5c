"""Pseudo-spectral solver for time-periodic incompressible flow with a constant drift.

The unknowns live on a periodic box crossed with a time circle, so one
space-time Fourier transform diagonalizes the linear part of the momentum
equation and a Picard iteration absorbs the transport term.  Submodules:

``domain``       grids and drift/period parameters
``fourier``      fields, transforms, spectral calculus
``multipliers``  projections, the drift resolvent, fractional derivatives
``nonlinear``    dealiased transport terms
``forcing``      manufactured solutions and random solenoidal forcing
``solver``       the fixed-point loop, pressure recovery, residuals
``diagnostics``  norm reports, energy bookkeeping, identity checks
``fieldio``      portable field files and config parsing
``cli``          the ``periodicflow`` command

Each module's ``__all__`` is the one list of its public names; the package
exports their union.
"""

from . import diagnostics, domain, errors, fieldio, forcing, fourier, multipliers, nonlinear, solver
from .diagnostics import *  # noqa: F403
from .domain import *  # noqa: F403
from .errors import *  # noqa: F403
from .fieldio import *  # noqa: F403
from .forcing import *  # noqa: F403
from .fourier import *  # noqa: F403
from .multipliers import *  # noqa: F403
from .nonlinear import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *diagnostics.__all__,
    *domain.__all__,
    *errors.__all__,
    *fieldio.__all__,
    *forcing.__all__,
    *fourier.__all__,
    *multipliers.__all__,
    *nonlinear.__all__,
    *solver.__all__,
    "__version__",
]

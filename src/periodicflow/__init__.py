"""Pseudo-spectral solver for time-periodic incompressible flow with a constant drift.

The unknowns live on a periodic box crossed with a time circle, so one
space-time Fourier transform diagonalizes the linear part of the momentum
equation and a Picard iteration absorbs the transport term.  Submodules:

``domain``       grids, frequency lattices, drift/period parameters
``fourier``      fields, transforms, spectral calculus
``multipliers``  projections, the drift resolvent, fractional derivatives
``nonlinear``    dealiased transport terms
``forcing``      manufactured solutions and random solenoidal forcing
``solver``       the fixed-point loop, pressure recovery, residuals
``diagnostics``  norm reports, energy bookkeeping, identity checks
``fieldio``      portable field files and config parsing
``cli``          the ``periodicflow`` command
"""

from .diagnostics import (
    EnergyReport,
    NormReport,
    OseenTerms,
    RegularityReport,
    SpectrumTable,
    cross_orthogonality,
    energy_balance,
    energy_inequality_check,
    norms,
    regularity_bootstrap_check,
    spectrum_decay,
)
from .domain import Grid, Params, make_grid
from .errors import (
    Diverging,
    FieldFormatError,
    GridMismatch,
    MeanModeNonzero,
    NoConvergence,
    NotAGradient,
    NotHermitian,
    NotSolenoidal,
    SolverError,
)
from .fieldio import load_config, read_field, write_field
from .forcing import PRESET_NAMES, manufactured, manufactured_preset, random_smooth
from .fourier import (
    PhysicalField,
    SpectralField,
    coeff_norm,
    divergence,
    forward,
    gradient,
    hermitian_defect,
    inverse,
    laplacian,
    oscillatory_part,
    spatial_derivative,
    spectral_sum,
    time_derivative,
    time_mean_part,
)
from .multipliers import (
    MultiplierReport,
    PROBE_SYMBOLS,
    half_time_derivative,
    helmholtz,
    marcinkiewicz_probe,
    oseen_apply,
    oseen_inverse,
    oseen_symbol,
    regularity_multiplier,
    regularity_multiplier_bound,
)
from .nonlinear import (
    convective,
    convective_bilinear,
    dealias,
    dealiased_tensor_product,
    divergence_form,
    energy_neutrality_defect,
)
from .solver import (
    Solution,
    SolverConfig,
    pde_residual,
    picard_step,
    recover_pressure,
    solve,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "EnergyReport",
    "NormReport",
    "OseenTerms",
    "RegularityReport",
    "SpectrumTable",
    "cross_orthogonality",
    "energy_balance",
    "energy_inequality_check",
    "norms",
    "regularity_bootstrap_check",
    "spectrum_decay",
    "Grid",
    "Params",
    "make_grid",
    "Diverging",
    "FieldFormatError",
    "GridMismatch",
    "MeanModeNonzero",
    "NoConvergence",
    "NotAGradient",
    "NotHermitian",
    "NotSolenoidal",
    "SolverError",
    "load_config",
    "read_field",
    "write_field",
    "PRESET_NAMES",
    "manufactured",
    "manufactured_preset",
    "random_smooth",
    "PhysicalField",
    "SpectralField",
    "coeff_norm",
    "divergence",
    "forward",
    "gradient",
    "hermitian_defect",
    "inverse",
    "laplacian",
    "oscillatory_part",
    "spatial_derivative",
    "spectral_sum",
    "time_derivative",
    "time_mean_part",
    "MultiplierReport",
    "PROBE_SYMBOLS",
    "half_time_derivative",
    "helmholtz",
    "marcinkiewicz_probe",
    "oseen_apply",
    "oseen_inverse",
    "oseen_symbol",
    "regularity_multiplier",
    "regularity_multiplier_bound",
    "convective",
    "convective_bilinear",
    "dealias",
    "dealiased_tensor_product",
    "divergence_form",
    "energy_neutrality_defect",
    "Solution",
    "SolverConfig",
    "pde_residual",
    "picard_step",
    "recover_pressure",
    "solve",
    "split",
    "__version__",
]

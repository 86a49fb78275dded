"""Simulator and verification laboratory for the planar compressible,
viscous, non-resistive MHD system with vertical magnetic field.

The solver integrates the three-level regularized system (Galerkin velocity
dimension n, artificial viscosity epsilon, artificial pressure delta) on a
rectangle with trigonometric collocation; the diagnostics certify the
conserved totals, balance residuals, entropy production and inequality
constants the construction rests on; the sweep drivers measure the three
limit passages as parameter ladders.
"""

from .errors import (
    CflError,
    ConfigError,
    DomainError,
    GridMismatchError,
    MhdError,
    NewtonError,
    SnapshotError,
    StepFailure,
)
from .grid import (
    GalerkinBasis,
    Grid,
    ScalarField,
    VectorField,
    divergence,
    gradient,
    inner_product,
    integrate,
    laplacian_neumann,
    project_velocity,
    reconstruct,
)
from .solver import (
    InitialData,
    RegParams,
    Schedule,
    State,
    StepReport,
    Trajectory,
    advance_momentum,
    advance_scalar,
    advance_temperature,
    regularize_initial_data,
    run,
    step,
)
from .thermo import (
    EosParams,
    ThermoPoint,
    entropy,
    gibbs_residual,
    heat_flux,
    helmholtz,
    internal_energy,
    pressure,
    stability_check,
    transport,
    viscous_stress,
)

__version__ = "0.1.0"

"""Simulator and verification laboratory for the planar compressible,
viscous, non-resistive MHD system with vertical magnetic field.

The solver integrates the three-level regularized system (Galerkin velocity
dimension n, artificial viscosity epsilon, artificial pressure delta) on a
rectangle with trigonometric collocation; the diagnostics certify the
conserved totals, balance residuals, entropy production and inequality
constants the construction rests on; the sweep drivers measure the three
limit passages as parameter ladders.
"""

import ctypes
import sys

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


def _keep_freed_heap():
    """Keep freed heap memory in the process, under glibc.

    A step or a report frees up to 2 MB of temporaries that the next one
    allocates again.  Under glibc's default thresholds (trim once 128 kB at
    the top of the heap is free) that memory goes back to the kernel every
    time and is faulted in again: 17 000 to 26 000 page faults in a 64^2
    workload, 7-10 % of its run time on a 2-core VM.  These are the
    thresholds glibc's own adaptive rule ends at once a large buffer is
    freed, which importing scipy used to trigger as a side effect.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, the adaptive rule's ceiling
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, twice it, as that rule sets


_keep_freed_heap()

"""Exception types shared across the package."""


class MhdError(Exception):
    """Base class for all package errors."""


class DomainError(MhdError, ValueError):
    """Thermodynamic input outside the admissible domain (rho, theta > 0)."""


class GridMismatchError(MhdError, ValueError):
    """Fields defined on different grids were combined."""


class BasisError(MhdError, ValueError):
    """Requested Galerkin basis is inadmissible for the grid."""


class CflError(MhdError, RuntimeError):
    """Advective CFL bound violated.

    Attributes
    ----------
    suggested_dt : largest admissible step for the offending velocity.
    t : time of the state whose velocity the step violates.
    """

    def __init__(self, dt, suggested_dt, t):
        self.dt = dt
        self.suggested_dt = suggested_dt
        self.t = t
        super().__init__(
            f"dt={dt:g} violates the advective CFL bound at t = {t:g}; "
            f"use dt <= {suggested_dt:g}"
        )


class StepFailure(MhdError, RuntimeError):
    """A solver sub-step could not complete (positivity loss, solve failure)."""


class NewtonError(StepFailure):
    """Implicit temperature solve failed to converge."""


class ConfigError(MhdError, ValueError):
    """Configuration rejected; carries every violation, not just the first.

    Attributes
    ----------
    violations : list of human-readable violation strings.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SnapshotError(MhdError, ValueError):
    """Snapshot file rejected (bad magic, version, or truncation)."""

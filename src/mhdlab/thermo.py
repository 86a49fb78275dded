"""Constitutive laws for the planar MHD gas.

Pressure, internal energy and entropy combine a molecular part (Boyle term
plus a gamma-law cold component) with a quartic radiative part:

    p(rho, theta) = rho*theta + rho**gamma + (a/3)*theta**4
    e(rho, theta) = rho**(gamma-1)/(gamma-1) + c_V*theta + a*theta**4/rho
    s(rho, theta) = log(theta**c_V / rho) + (4a/3)*theta**3/rho

The three are tied together by the Gibbs relation
theta*Ds = De + p*D(1/rho), which this module can verify numerically
(`gibbs_residual`).  The `ThermoPoint` functions accept scalars or numpy
arrays and reject non-positive densities and temperatures outright; flooring
is a solver decision, not a property of the math layer, so the nodal forms
(volumetric densities, partials, conductivities) take raw arrays unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "EosParams",
    "ThermoPoint",
    "pressure",
    "pressure_split",
    "eos_pressure",
    "pressure_drho",
    "rho_e",
    "rho_e_drho",
    "rho_e_dtheta",
    "rho_s",
    "rho_s_drho",
    "rho_s_dtheta",
    "gibbs_bracket",
    "kappa_delta",
    "K_delta",
    "internal_energy",
    "internal_energy_split",
    "entropy",
    "entropy_split",
    "gibbs_residual",
    "stability_check",
    "helmholtz",
    "helmholtz_drho",
    "coercivity_margin",
    "transport",
    "viscous_stress",
    "heat_flux",
]


@dataclass(frozen=True)
class EosParams:
    """Constitutive constants.

    gamma   : adiabatic exponent, > 1
    a       : radiation constant, > 0
    c_V     : specific heat at constant volume, > 0
    mu0,mu1 : shear viscosity mu(theta) = mu0 + mu1*theta
    kappa0, kappa2, kappa3 : conductivity kappa(theta) = k0 + k2 th^2 + k3 th^3

    Defaults are the documented desk-scale choice (gamma = 5/3, all other
    constants 1); the functional forms are fixed, the magnitudes are not.
    """

    gamma: float = 5.0 / 3.0
    a: float = 1.0
    c_V: float = 1.0
    mu0: float = 1.0
    mu1: float = 1.0
    kappa0: float = 1.0
    kappa2: float = 1.0
    kappa3: float = 1.0

    def __post_init__(self):
        # the comparisons are written so that NaN fails them
        if not 1.0 < self.gamma < np.inf:
            raise DomainError(f"gamma must be finite and > 1, got {self.gamma}")
        for name in ("a", "c_V", "mu0", "mu1", "kappa0", "kappa2", "kappa3"):
            val = getattr(self, name)
            if not 0.0 < val < np.inf:
                raise DomainError(f"{name} must be finite and > 0, got {val}")

    def mu(self, theta):
        """Shear viscosity mu(theta) = mu0 + mu1*theta."""
        return self.mu0 + self.mu1 * theta

    def kappa(self, theta):
        """Heat conductivity kappa(theta) = kappa0 + kappa2 th^2 + kappa3 th^3."""
        return self.kappa0 + self.kappa2 * theta**2 + self.kappa3 * theta**3


@dataclass(frozen=True)
class ThermoPoint:
    """A density/temperature pair; both strictly positive (scalar or array)."""

    rho: object
    theta: object

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        if rho.size == 0 or theta.size == 0:
            raise DomainError("empty thermodynamic state")
        if not np.all(rho > 0.0):
            raise DomainError(f"rho must be > 0, min={rho.min() if rho.size else '∅'}")
        if not np.all(theta > 0.0):
            raise DomainError(f"theta must be > 0, min={theta.min()}")
        object.__setattr__(self, "rho", rho if rho.ndim else float(rho))
        object.__setattr__(self, "theta", theta if theta.ndim else float(theta))


def pressure_split(pt: ThermoPoint, p: EosParams):
    """Molecular and radiative pressure parts (p_M, p_R)."""
    return _pressure_parts(pt.rho, pt.theta, p)


def pressure(pt: ThermoPoint, p: EosParams):
    return eos_pressure(pt.rho, pt.theta, p)


def internal_energy_split(pt: ThermoPoint, p: EosParams):
    """Molecular and radiative specific internal energy parts (e_M, e_R)."""
    rho_e_m, rho_e_r = _rho_e_parts(pt.rho, pt.theta, p)
    return rho_e_m / pt.rho, rho_e_r / pt.rho


def internal_energy(pt: ThermoPoint, p: EosParams):
    e_m, e_r = internal_energy_split(pt, p)
    return e_m + e_r


def entropy_split(pt: ThermoPoint, p: EosParams):
    """Molecular and radiative specific entropy parts (s_M, s_R)."""
    rho_s_m, rho_s_r = _rho_s_parts(pt.rho, pt.theta, p)
    return rho_s_m / pt.rho, rho_s_r / pt.rho


def entropy(pt: ThermoPoint, p: EosParams):
    s_m, s_r = entropy_split(pt, p)
    return s_m + s_r


def _central4(f, x, h):
    """Five-point fourth-order central difference of f at x."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def gibbs_residual(pt: ThermoPoint, p: EosParams, h: float) -> float:
    """Central-difference check of theta*Ds = De + p*D(1/rho).

    Both partial-derivative identities (in rho and in theta) are formed with
    five-point central differences of step ``h`` and the larger violation is
    returned, relative to max(1, |e|).  The analytic identity holds exactly,
    so the result is pure truncation error; the fourth-order stencil keeps it
    below 1e-6 even at rho = 0.1 where the log term's high derivatives blow
    up a second-order stencil.
    """
    if not h > 0.0:
        raise DomainError(f"step h must be > 0, got {h}")
    rho = np.asarray(pt.rho, dtype=float)
    theta = np.asarray(pt.theta, dtype=float)
    if np.any(rho - 2 * h <= 0.0) or np.any(theta - 2 * h <= 0.0):
        raise DomainError("finite-difference stencil leaves the domain rho, theta > 0")

    p_val = pressure(pt, p)
    e_val = internal_energy(pt, p)

    ds_drho = _central4(lambda r: entropy(ThermoPoint(r, theta), p), rho, h)
    de_drho = _central4(lambda r: internal_energy(ThermoPoint(r, theta), p), rho, h)
    dinv_drho = _central4(lambda r: 1.0 / r, rho, h)
    res_rho = theta * ds_drho - de_drho - p_val * dinv_drho

    ds_dth = _central4(lambda t: entropy(ThermoPoint(rho, t), p), theta, h)
    de_dth = _central4(lambda t: internal_energy(ThermoPoint(rho, t), p), theta, h)
    res_th = theta * ds_dth - de_dth

    scale = np.maximum(1.0, np.abs(e_val))
    return float(np.max(np.maximum(np.abs(res_rho), np.abs(res_th)) / scale))


def stability_check(pt: ThermoPoint, p: EosParams, h: float | None = None):
    """Thermodynamic stability partials (dp/drho, de/dtheta), both > 0.

    With the default ``h=None`` the closed forms
    dp/drho = theta + gamma*rho**(gamma-1) and
    de/dtheta = c_V + 4a theta^3 / rho are returned; passing a step ``h``
    returns the central-difference estimates instead, so the two routes can
    be compared against each other.
    """
    rho, theta = pt.rho, pt.theta
    if h is None:
        return pressure_drho(rho, theta, p), rho_e_dtheta(rho, theta, p) / rho
    if not h > 0.0:
        raise DomainError(f"step h must be > 0, got {h}")
    if np.any(np.asarray(rho) - h <= 0.0) or np.any(np.asarray(theta) - h <= 0.0):
        raise DomainError("finite-difference stencil leaves the domain rho, theta > 0")
    inv2h = 1.0 / (2.0 * h)
    dpdrho = (
        pressure(ThermoPoint(rho + h, theta), p)
        - pressure(ThermoPoint(rho - h, theta), p)
    ) * inv2h
    dedtheta = (
        internal_energy(ThermoPoint(rho, theta + h), p)
        - internal_energy(ThermoPoint(rho, theta - h), p)
    ) * inv2h
    return dpdrho, dedtheta


def helmholtz(pt: ThermoPoint, p: EosParams, theta_bar: float):
    """Helmholtz function H = rho*e - theta_bar * rho*s.

    For fixed rho the map theta -> H is minimized at theta = theta_bar.
    """
    if not theta_bar > 0.0:
        raise DomainError(f"theta_bar must be > 0, got {theta_bar}")
    return rho_e(pt.rho, pt.theta, p) - theta_bar * rho_s(pt.rho, pt.theta, p)


def helmholtz_drho(rho, p: EosParams, theta_bar: float, theta):
    """d/drho of H_theta_bar(rho, theta), closed form."""
    return rho_e_drho(rho, theta, p) - theta_bar * rho_s_drho(rho, theta, p)


def coercivity_margin(pt: ThermoPoint, p: EosParams, theta_bar: float = 1.0,
                      rho_bar: float = 1.0):
    """Margin (LHS - RHS) of the Helmholtz coercivity bound.

    The bound controls H_tb(rho, theta) from below by
    (1/4)(rho e + tb rho |s|) minus an affine-in-rho pivot evaluated at
    (rho_bar, 2 tb); a nonnegative margin certifies it at the sampled point.
    """
    rho, theta = pt.rho, pt.theta
    pivot_pt = ThermoPoint(rho_bar, 2.0 * theta_bar)
    h_pivot = helmholtz(pivot_pt, p, 2.0 * theta_bar)
    dh_pivot = helmholtz_drho(rho_bar, p, 2.0 * theta_bar, 2.0 * theta_bar)
    rhs = 0.25 * (rho_e(rho, theta, p) + theta_bar * np.abs(rho_s(rho, theta, p))) \
        - np.abs((rho - rho_bar) * dh_pivot + h_pivot)
    return helmholtz(pt, p, theta_bar) - rhs


def transport(theta, p: EosParams, delta: float, Gamma: float):
    """Transport coefficients and the augmented-conductivity primitive.

    Returns (mu, kappa, kappa_delta, K_delta) where
    kappa_delta = kappa + delta*(theta**Gamma + 1/theta) and
    K_delta(theta) = int_1^theta kappa_delta(z) dz in closed form.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(theta > 0.0):
        raise DomainError("theta must be > 0")
    if delta < 0.0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    if Gamma < 2.0:
        raise DomainError(f"Gamma must be >= 2, got {Gamma}")
    out = (p.mu(theta), p.kappa(theta), kappa_delta(theta, p, delta, Gamma),
           K_delta(theta, p, delta, Gamma))
    if theta.ndim == 0:
        return tuple(float(v) for v in out)
    return out


def viscous_stress(grad_u, theta, p: EosParams):
    """Traceless viscous stress S = mu(theta)(grad u + grad u^T - div u I)."""
    g = np.asarray(grad_u, dtype=float)
    if g.shape != (2, 2):
        raise DomainError(f"grad_u must be 2x2, got shape {g.shape}")
    div = g[0, 0] + g[1, 1]
    s = g + g.T
    s[0, 0] -= div
    s[1, 1] -= div
    return p.mu(theta) * s


def heat_flux(grad_theta, theta, p: EosParams):
    """Fourier flux q = -kappa(theta) * grad theta."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(theta > 0.0):
        raise DomainError("theta must be > 0")
    return -p.kappa(theta) * np.asarray(grad_theta, dtype=float)


# ---------------------------------------------------------------------------
# nodal forms (raw arrays, no domain check)
# ---------------------------------------------------------------------------

def _pressure_parts(rho, theta, p: EosParams):
    """Molecular and radiative pressure (p_M, p_R) of nodal arrays."""
    return rho * theta + rho**p.gamma, (p.a / 3.0) * theta**4


def eos_pressure(rho, theta, p: EosParams):
    """p(rho, theta) = p_M + p_R of nodal arrays."""
    p_m, p_r = _pressure_parts(rho, theta, p)
    return p_m + p_r


def pressure_drho(rho, theta, p: EosParams):
    """dp/drho = theta + gamma*rho^(gamma-1); the radiative part is rho-free."""
    return theta + p.gamma * rho ** (p.gamma - 1.0)


def _rho_e_parts(rho, theta, p: EosParams):
    """Molecular and radiative volumetric internal energy (rho e_M, rho e_R)."""
    return rho**p.gamma / (p.gamma - 1.0) + p.c_V * rho * theta, p.a * theta**4


def rho_e(rho, theta, p: EosParams):
    """Volumetric internal energy rho*e(rho, theta)."""
    rho_e_m, rho_e_r = _rho_e_parts(rho, theta, p)
    return rho_e_m + rho_e_r


def _rho_s_parts(rho, theta, p: EosParams):
    """Molecular and radiative volumetric entropy (rho s_M, rho s_R)."""
    return p.c_V * rho * np.log(theta) - rho * np.log(rho), (4.0 * p.a / 3.0) * theta**3


def rho_s(rho, theta, p: EosParams):
    """Volumetric entropy rho*s(rho, theta)."""
    rho_s_m, rho_s_r = _rho_s_parts(rho, theta, p)
    return rho_s_m + rho_s_r


# partials of the volumetric densities, each at fixed other variable

def rho_e_drho(rho, theta, p: EosParams):
    return p.gamma * rho ** (p.gamma - 1.0) / (p.gamma - 1.0) + p.c_V * theta


def rho_e_dtheta(rho, theta, p: EosParams):
    return p.c_V * rho + 4.0 * p.a * theta**3


def rho_s_drho(rho, theta, p: EosParams):
    return p.c_V * np.log(theta) - np.log(rho) - 1.0


def rho_s_dtheta(rho, theta, p: EosParams):
    return p.c_V * rho / theta + 4.0 * p.a * theta**2


def gibbs_bracket(rho, theta, p: EosParams):
    """theta*s - e - p/rho, which equals theta d(rho s)/drho - d(rho e)/drho;
    the radiative parts cancel, leaving the molecular bracket."""
    return theta * rho_s_drho(rho, theta, p) - rho_e_drho(rho, theta, p)


def kappa_delta(theta, p: EosParams, delta: float, Gamma: float):
    """Augmented conductivity kappa + delta*(theta^Gamma + 1/theta)."""
    return p.kappa(theta) + delta * (theta**Gamma + 1.0 / theta)


def K_delta(theta, p: EosParams, delta: float, Gamma: float):
    """Primitive int_1^theta kappa_delta(z) dz in closed form."""
    return (
        p.kappa0 * (theta - 1.0)
        + p.kappa2 * (theta**3 - 1.0) / 3.0
        + p.kappa3 * (theta**4 - 1.0) / 4.0
        + delta * ((theta ** (Gamma + 1.0) - 1.0) / (Gamma + 1.0) + np.log(theta))
    )

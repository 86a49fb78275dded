"""Time integration of the regularized planar MHD system.

One step advances, in order: the parabolic continuity and magnetic equations
(advection explicit, eps-diffusion implicit, both diagonal in cosine space),
the internal-energy equation (safeguarded Newton on nodal temperature with
the augmented-conductivity diffusion and the delta/theta^2 - eps*theta^5
source treated implicitly, each direction by conjugate gradients on cosine
coefficients in the Kirchhoff variable), and the Galerkin momentum equation
(viscous operator implicit, advection / total pressure / eps grad-rho
coupling explicit).  This mirrors the fix-velocity-then-solve-scalars
structure of the underlying construction; an optional second or third Picard
sweep repeats the cycle with the updated velocity.

Both scalar advances share one linear update, so fields that start
proportional stay proportional to round-off, and the k = 0 cosine mode is
untouched, so nodal masses are conserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# unused here: bench/hooks.py binds solver.gmres to count Krylov matvecs
from scipy.sparse.linalg import gmres  # noqa: F401

from .errors import (
    CflError,
    DomainError,
    GridMismatchError,
    NewtonError,
    StepFailure,
)
from .grid import (
    COS,
    SIN,
    GalerkinBasis,
    Grid,
    ScalarField,
    VectorField,
    _deriv_coeffs,
    bwd2,
    from_fine,
    fwd2,
    galerkin_load,
    gradient,
    laplacian_neumann,
    project_velocity,
    reconstruct,
    to_fine,
    velocity_gradient,
)
from .thermo import (
    EosParams,
    K_delta,
    eos_pressure,
    kappa_delta,
    pressure_drho,
    rho_e,
    rho_e_dtheta,
)
from .tolerances import TOLERANCES

__all__ = [
    "RegParams",
    "State",
    "InitialData",
    "Schedule",
    "StepReport",
    "Trajectory",
    "regularize_initial_data",
    "advance_scalar",
    "advance_temperature",
    "advance_momentum",
    "step",
    "run",
    "cfl_bound",
    "Terms",
    "state_terms",
    "artificial_energy",
    "artificial_energy_rate",
    "momentum_pressure",
    "rho_gradient_coupling",
]

THETA_FLOOR = TOLERANCES["theta_floor"]
# temperature Newton: scaled max-norm residual to reach, and the iteration cap
NEWTON_TOL = 1e-11
MAX_NEWTON = 40


@dataclass(frozen=True)
class RegParams:
    """Regularization ladder parameters.

    epsilon : artificial viscosity in the continuity/magnetic equations
    delta   : artificial pressure weight
    Gamma   : artificial pressure exponent (>= TOLERANCES["gamma_cap_min"];
              config load also enforces Gamma >= 2*gamma against the EOS)
    n       : Galerkin dimension (modes per velocity component)
    theta_bar : reference temperature for the Helmholtz diagnostics
    """

    epsilon: float
    delta: float
    Gamma: float = 8.0
    n: int = 8
    theta_bar: float = 1.0

    def __post_init__(self):
        # the comparisons are written so that NaN fails them
        for name in ("epsilon", "delta", "theta_bar"):
            val = getattr(self, name)
            if not 0.0 < val < np.inf:
                raise DomainError(f"{name} must be finite and > 0, got {val}")
        gamma_min = TOLERANCES["gamma_cap_min"]
        if not gamma_min <= self.Gamma < np.inf:
            raise DomainError(
                f"Gamma must be finite and >= {gamma_min:g}, got {self.Gamma}"
            )
        if not self.n >= 1:
            raise DomainError(f"n must be >= 1, got {self.n}")


@dataclass
class State:
    """Discrete fields at one time level."""

    t: float
    rho: ScalarField
    b: ScalarField
    theta: ScalarField
    u: VectorField
    floor_violations: dict = field(default_factory=lambda: {"theta": 0})

    @property
    def grid(self) -> Grid:
        return self.rho.grid

    def copy(self):
        return State(
            self.t,
            self.rho.copy(),
            self.b.copy(),
            self.theta.copy(),
            self.u.copy(),
            dict(self.floor_violations),
        )

    def validate_positive(self):
        # written so that a NaN node fails the check
        for name in ("rho", "b", "theta"):
            low = getattr(self, name).values.min()
            if not low > 0.0:
                raise StepFailure(f"{name} lost positivity (min {low:g})")


@dataclass
class InitialData:
    """Initial fields plus the domination constants of b0/rho0."""

    rho0: ScalarField
    b0: ScalarField
    theta0: ScalarField
    u0: VectorField
    c_star: float = field(init=False)  # min and max of b0/rho0
    c_star_upper: float = field(init=False)

    def __post_init__(self):
        for name, f in (("rho0", self.rho0), ("b0", self.b0), ("theta0", self.theta0)):
            if not f.values.min() > 0.0:
                raise DomainError(f"{name} must be strictly positive")
            if f.grid != self.rho0.grid:
                raise GridMismatchError("initial fields live on different grids")
        zeta = self.b0.values / self.rho0.values
        self.c_star = float(zeta.min())
        self.c_star_upper = float(zeta.max())


@dataclass(frozen=True)
class Schedule:
    t_final: float
    dt: float
    snapshot_stride: int = 1

    def __post_init__(self):
        # written so that NaN fails
        if not (0.0 < self.t_final < np.inf and 0.0 < self.dt < np.inf):
            raise DomainError(
                f"t_final and dt must be finite and > 0, got {self.t_final}, {self.dt}"
            )
        if self.snapshot_stride < 1:
            raise DomainError("snapshot_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        n = int(round(self.t_final / self.dt))
        return max(n, 1)


@dataclass
class StepReport:
    """Per-step record; the temperature counts are those of the last Picard
    sweep, the Krylov and backtrack counts summed over its Newton loop."""

    t: float
    dt: float
    newton_iterations: int
    newton_residual: float
    theta_floor_hits: int
    cfl_limit: float
    source_rate: float  # integral of delta/theta^2 - eps*theta^5 at the new level
    krylov_iterations: int
    line_search_backtracks: int


@dataclass
class Trajectory:
    states: list
    step_reports: list
    diagnostics: list
    dt: float
    stride: int
    reg: RegParams
    eos: EosParams

    def final(self) -> State:
        return self.states[-1]


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _heat_filter(values, grid: Grid, tau: float):
    """Smooth by the cosine-space heat kernel exp(-tau |k|^2).

    The kernel is a positive convolution on the evenly extended torus, so
    pointwise bounds and pointwise inequalities between fields survive.
    """
    c = fwd2(values, (COS, COS))
    return bwd2(np.exp(-tau * grid.k2_cc) * c, (COS, COS))


def regularize_initial_data(raw: InitialData, reg: RegParams) -> InitialData:
    """Spectrally mollify initial data, preserving bounds and domination.

    Every scalar is smoothed with the same positive heat kernel, run for the
    time 4.5*h^2 with h the smaller grid spacing, so the
    two-sided bounds of each field and the pointwise domination
    c_star*rho0 <= b0 <= c_star_upper*rho0 are preserved (up to kernel
    truncation, far below 1e-10); the output has exact Neumann structure.
    """
    grid = raw.rho0.grid
    for name, f in (("rho0", raw.rho0), ("b0", raw.b0), ("theta0", raw.theta0)):
        if not f.values.min() > 0.0:
            raise DomainError(f"{name} must be strictly positive")
    h = min(grid.hx, grid.hy)
    mollify_time = 4.5 * h * h
    rho = ScalarField(grid, _heat_filter(raw.rho0.values, grid, mollify_time))
    b = ScalarField(grid, _heat_filter(raw.b0.values, grid, mollify_time))
    theta = ScalarField(grid, _heat_filter(raw.theta0.values, grid, mollify_time))
    return InitialData(rho, b, theta, raw.u0.copy())


# ---------------------------------------------------------------------------
# pointwise terms of the regularized system
# ---------------------------------------------------------------------------
# With the nodal forms in `thermo`, the one place the pointwise physics is
# written: the stepper, tendencies, diagnostics and forcings all build on it.

def artificial_energy(rho, b, reg: RegParams):
    """Energy density of the artificial pressure,
    delta*(rho^G/(G-1) + rho^2 + b^G/(G-1) + b^2)."""
    G = reg.Gamma
    return reg.delta * (rho**G / (G - 1.0) + rho**2 + b**G / (G - 1.0) + b**2)


def artificial_energy_rate(rho, b, rho_dot, b_dot, reg: RegParams):
    """Time derivative of `artificial_energy` along (rho_dot, b_dot)."""
    G = reg.Gamma
    return reg.delta * (
        (G * rho ** (G - 1.0) / (G - 1.0) + 2.0 * rho) * rho_dot
        + (G * b ** (G - 1.0) / (G - 1.0) + 2.0 * b) * b_dot
    )


def heat_source(theta, reg: RegParams):
    """Internal-energy source delta/theta^2 - eps*theta^5."""
    return reg.delta / theta**2 - reg.epsilon * theta**5


def momentum_pressure(rho, b, theta, reg: RegParams, p: EosParams):
    """Isotropic momentum flux p(rho, theta) + b^2/2 plus the artificial
    pressure delta*(rho^G + rho^2 + b^G + b^2)."""
    G = reg.Gamma
    return (
        eos_pressure(rho, theta, p) + 0.5 * b * b
        + reg.delta * (rho**G + rho * rho + b**G + b * b)
    )


def rho_gradient_coupling(grho: VectorField, grads_u, reg: RegParams):
    """eps*(grad rho . grad) u, stacked by component."""
    u1x, u1y, u2x, u2y = grads_u
    gx, gy = grho.vx, grho.vy
    return reg.epsilon * np.stack([gx * u1x + gy * u1y, gx * u2x + gy * u2y])


@dataclass
class Terms:
    """Pointwise terms of the regularized system at one (rho, b, theta, u).

    Derivatives come from the spectral operators (`state_terms`) or, for a
    manufactured solution, analytically; grads_u is (u1x, u1y, u2x, u2y).
    Construction forms, once for every consumer: `div_u`, the traceless
    stress `stress` = (S11, S12) = mu(theta)(D, A12), the shear heating
    `shear` = S:grad u, `gb2` = |grad b|^2, the gradient heating `art_heat`,
    the `source` and the heating sum `heating` = S:grad u - p div u +
    eps |grad b|^2 + art_heat; `sigma15` and `sigma` on first use.
    """

    rho: np.ndarray
    b: np.ndarray
    theta: np.ndarray
    grads_u: tuple
    grad_rho: VectorField
    grad_b: VectorField
    grad_theta: VectorField | None  # needed only by sigma15
    reg: RegParams
    p: EosParams

    def __post_init__(self):
        reg, G = self.reg, self.reg.Gamma
        rho, b, th, gr, gb = self.rho, self.b, self.theta, self.grad_rho, self.grad_b
        u1x, u1y, u2x, u2y = self.grads_u
        self.div_u = u1x + u2y
        mu, d, a12 = self.p.mu(th), u1x - u2y, u1y + u2x
        self.stress = (mu * d, mu * a12)
        self.shear = mu * (d * d + a12 * a12)
        self.gb2 = gb.vx * gb.vx + gb.vy * gb.vy
        self.art_heat = reg.epsilon * reg.delta * (
            (G * rho ** (G - 2.0) + 2.0) * (gr.vx * gr.vx + gr.vy * gr.vy)
            + (G * b ** (G - 2.0) + 2.0) * self.gb2
        )
        self.source = heat_source(th, reg)
        self.heating = (
            self.shear - eos_pressure(rho, th, self.p) * self.div_u
            + reg.epsilon * self.gb2 + self.art_heat
        )

    @cached_property
    def sigma15(self):
        """Entropy production 1/theta [S:grad u + kappa_delta/theta
        |grad theta|^2 + delta/theta^2] + eps/theta |grad b|^2 + gradient
        heating/theta; every term is a nonnegative product."""
        th, reg, gth = self.theta, self.reg, self.grad_theta
        cond = kappa_delta(th, self.p, reg.delta, reg.Gamma) / th
        return (
            (self.shear + cond * (gth.vx**2 + gth.vy**2) + reg.delta / th**2) / th
            + reg.epsilon * self.gb2 / th
            + self.art_heat / th
        )

    @cached_property
    def sigma(self):
        """Dissipation density sigma15 + eps/(rho*theta) dp/drho |grad rho|^2."""
        rho, th, grho = self.rho, self.theta, self.grad_rho
        dp_drho, grho2 = pressure_drho(rho, th, self.p), grho.vx**2 + grho.vy**2
        return self.sigma15 + self.reg.epsilon * dp_drho * grho2 / (rho * th)


def state_terms(state: State, reg: RegParams, p: EosParams) -> Terms:
    """The terms of a state, with spectral derivatives."""
    return Terms(
        state.rho.values, state.b.values, state.theta.values,
        velocity_gradient(state.u), gradient(state.rho), gradient(state.b),
        gradient(state.theta), reg, p,
    )


def cfl_bound(u: VectorField) -> float:
    """Largest admissible dt for explicit advection, 0.5*h/max|u|."""
    speed = float(np.hypot(u.vx, u.vy).max())
    h = min(u.grid.hx, u.grid.hy)
    if speed == 0.0:
        return np.inf
    return 0.5 * h / speed


# ---------------------------------------------------------------------------
# scalar advance (used for rho and b)
# ---------------------------------------------------------------------------

class VelocityWorkspace:
    """Per-step cache of the velocity on the 3/2 fine grid (u_fine, stacked
    x then y components).

    A velocity reconstructed from a basis carries its sine-sine
    coefficients, which are scattered into place instead of transforming
    the nodal field again.
    """

    def __init__(self, u: VectorField):
        self.u = u
        if u.coeffs is not None and u.basis is not None:
            u_ss = u.basis.scatter(u.coeffs)
        else:
            u_ss = fwd2(np.stack([u.vx, u.vy]), (SIN, SIN))
        self.u_fine = to_fine(u_ss, (SIN, SIN))


def _advective_divergence_cc(f_cc, uw: VelocityWorkspace, grid: Grid):
    """Cosine-space projection of div(f*u) from coefficient inputs.

    The flux components are dealiased quadratic products; their derivative
    series contain no k = 0 cosine mode, so the (0,0) output is identically
    zero and is pinned there to shed round-off (this is what makes the
    advance exactly conservative).
    """
    f_fine = to_fine(f_cc, (COS, COS))
    q1, q2 = from_fine(f_fine * uw.u_fine, (SIN, SIN), grid.shape)
    dq1, px = _deriv_coeffs(q1, 1, SIN, grid.lx)
    dq2, py = _deriv_coeffs(q2, 0, SIN, grid.ly)
    adv = fwd2(bwd2(dq1, (SIN, px)) + bwd2(dq2, (py, SIN)), (COS, COS))
    adv[0, 0] = 0.0
    return adv


def advance_scalar(
    f: ScalarField,
    u: VectorField,
    epsilon: float,
    dt: float,
    workspace: VelocityWorkspace | None = None,
    forcing_cc=None,
) -> ScalarField:
    """One IMEX step of d_t f + div(f u) = eps*Lap(f) with Neumann walls."""
    if dt <= 0.0:
        raise DomainError(f"dt must be > 0, got {dt}")
    bound = cfl_bound(u)
    if dt > bound:
        raise CflError(dt, bound)
    grid = f.grid
    if u.grid != grid:
        raise GridMismatchError("scalar and velocity grids differ")
    if workspace is None:
        workspace = VelocityWorkspace(u)
    f_cc = fwd2(f.values, (COS, COS))
    adv = _advective_divergence_cc(f_cc, workspace, grid)
    rhs = f_cc - dt * adv
    if forcing_cc is not None:
        rhs = rhs + dt * forcing_cc
    new_cc = rhs / (1.0 + dt * epsilon * grid.k2_cc)
    return ScalarField(grid, bwd2(new_cc, (COS, COS)))


# ---------------------------------------------------------------------------
# temperature advance
# ---------------------------------------------------------------------------

def _kirchhoff_operator(a, dt: float, grid: Grid):
    """z_cc -> cosine coefficients of a*z - dt*Lap z.

    This is the temperature Newton operator in the Kirchhoff variable
    z = kappa_delta*v: symmetric in the inner product sum(w_cc*f*g) (the
    nodal one) and positive definite when a > 0.
    """
    k2dt = dt * grid.k2_cc

    def apply(z_cc):
        return fwd2(a * bwd2(z_cc, (COS, COS)), (COS, COS)) + k2dt * z_cc

    return apply


def _pcg(apply, rhs_cc, symbol, grid: Grid, rtol: float, atol: float,
         maxiter: int = 200):
    """Conjugate gradients on cosine coefficients, preconditioned by division
    by `symbol`; returns (x_cc, iterations).

    Inner products carry grid.w_cc, so norms are the nodal 2-norms and the
    loop stops at ||r|| <= max(rtol*||rhs||, atol).  A non-finite right-hand
    side, a breakdown (non-positive or non-finite curvature, for instance
    from a non-finite operator) and reaching `maxiter` raise NewtonError.
    """
    w, nodes = grid.w_cc, rhs_cc.size
    with np.errstate(all="ignore"):
        r_norm = float(np.sqrt(nodes * np.sum(w * rhs_cc * rhs_cc)))
        if not np.isfinite(r_norm):
            raise NewtonError("temperature linear solve: non-finite right-hand side")
        tol = max(rtol * r_norm, atol)
        x, r, p, rz_old = np.zeros_like(rhs_cc), rhs_cc.copy(), None, 0.0
        iterations = 0
        while not r_norm <= tol:
            if iterations == maxiter:
                raise NewtonError(
                    f"temperature linear solve: residual {r_norm:.3e} above "
                    f"{tol:.3e} after {maxiter} PCG iterations"
                )
            z = r / symbol
            rz = float(np.sum(w * r * z))
            p = z if p is None else z + (rz / rz_old) * p
            q = apply(p)
            pq = float(np.sum(w * p * q))
            if not (0.0 < rz < np.inf and 0.0 < pq < np.inf):
                raise NewtonError(
                    f"temperature linear solve broke down (r.Mr = {rz:.3e}, "
                    f"p.Ap = {pq:.3e})"
                )
            alpha = rz / pq
            x += alpha * p
            r -= alpha * q
            rz_old = rz
            iterations += 1
            r_norm = float(np.sqrt(nodes * np.sum(w * r * r)))
    return x, iterations


def _newton_direction(res, diag, kd, dt: float, grid: Grid, atol: float):
    """Solve diag*v - dt*Lap(kd*v) = -res; returns (v, PCG iterations).

    In z = kd*v the system is (diag/kd)*z - dt*Lap z = -res, with the same
    residual vector, so the tolerance is the inexact-Newton one of the nodal
    system.  The symbol mean(diag/kd) + dt*|k|^2 is exact at high frequency
    and for uniform coefficients.
    """
    a = diag / kd
    symbol = float(a.mean()) + dt * grid.k2_cc
    # inexact Newton: a loose inner tolerance keeps the step cheap
    z_cc, iterations = _pcg(
        _kirchhoff_operator(a, dt, grid), fwd2(-res, (COS, COS)), symbol, grid,
        rtol=1e-6, atol=atol,
    )
    return bwd2(z_cc, (COS, COS)) / kd, iterations


@dataclass
class TemperatureSolveInfo:
    iterations: int
    residual: float
    floor_hits: int
    krylov_iterations: int  # PCG iterations, summed over the Newton loop
    line_search_backtracks: int


def advance_temperature(
    state: State,
    reg: RegParams,
    p: EosParams,
    dt: float,
    rho_new: ScalarField | None = None,
    b_new: ScalarField | None = None,
    forcing_nodal=None,
    workspace: VelocityWorkspace | None = None,
    *,
    grad_rho: VectorField | None = None,
    grads_u=None,
):
    """Implicit step of the internal-energy equation; returns (theta, info).

    Diffusion enters through the primitive K_delta (so the implicit operator
    is Lap(K_delta(theta))) and the singular sources delta/theta^2 and
    -eps*theta^5 are solved implicitly as well; advection, shear heating,
    pressure work and the gradient heating terms are explicit.  The Newton
    direction is solved by conjugate gradients on cosine coefficients in the
    Kirchhoff variable z = kappa_delta*v, where the system is symmetric
    positive definite and preconditioned by its mean symbol (exact for
    uniform coefficients); a positivity line search keeps iterates in
    theta > 0, and any node that still lands below the 1e-10 floor is
    clamped and counted rather than hidden.  Every failure of the inner
    solve raises NewtonError.
    """
    grid = state.grid
    if rho_new is None:
        rho_new = state.rho
    if b_new is None:
        b_new = state.b
    rho_o = state.rho.values
    th_o = state.theta.values
    rho_n = rho_new.values

    if grad_rho is None:
        grad_rho = gradient(rho_new)
    if grads_u is None:
        grads_u = velocity_gradient(state.u)
    explicit = Terms(
        rho_n, b_new.values, th_o, grads_u, grad_rho, gradient(b_new), None, reg, p,
    ).heating
    if forcing_nodal is not None:
        explicit = explicit + forcing_nodal

    # advective internal-energy flux, explicit at the old level
    rhoe_old = rho_e(rho_o, th_o, p)
    if workspace is None:
        workspace = VelocityWorkspace(state.u)
    adv = bwd2(
        _advective_divergence_cc(fwd2(rhoe_old, (COS, COS)), workspace, grid),
        (COS, COS),
    )

    w = rhoe_old - dt * adv + dt * explicit
    scale = max(1.0, float(np.abs(w).max()))

    def residual(theta):
        kirchhoff = ScalarField(grid, K_delta(theta, p, reg.delta, reg.Gamma))
        return (
            rho_e(rho_n, theta, p)
            - dt * laplacian_neumann(kirchhoff).values
            - dt * heat_source(theta, reg)
            - w
        )

    theta = th_o.copy()
    res = residual(theta)
    res_norm = float(np.abs(res).max()) / scale
    iterations = krylov = backtracks_total = 0

    # the comparisons are written so that a NaN residual is never accepted
    while np.isfinite(res_norm) and res_norm > NEWTON_TOL and iterations < MAX_NEWTON:
        # d(rho e)/dtheta minus dt times the derivative of the heat source
        diag = rho_e_dtheta(rho_n, theta, p) + dt * (
            2.0 * reg.delta / theta**3 + 5.0 * reg.epsilon * theta**4
        )
        kd = kappa_delta(theta, p, reg.delta, reg.Gamma)
        dth, its = _newton_direction(res, diag, kd, dt, grid, 1e-12 * scale)
        krylov += its

        # positivity guard: keep theta + alpha*dth >= 0.1*theta pointwise
        alpha = 1.0
        neg = dth < 0.0
        if np.any(neg):
            limit = float(np.min(-0.9 * theta[neg] / dth[neg]))
            alpha = min(1.0, limit)
        trial = theta + alpha * dth
        trial_res = residual(trial)
        trial_norm = float(np.abs(trial_res).max()) / scale
        backtracks = 0
        while not trial_norm <= (1.0 - 1e-4 * alpha) * res_norm and backtracks < 8:
            alpha *= 0.5
            trial = theta + alpha * dth
            trial_res = residual(trial)
            trial_norm = float(np.abs(trial_res).max()) / scale
            backtracks += 1
        theta, res, res_norm = trial, trial_res, trial_norm
        iterations += 1
        backtracks_total += backtracks

    if not res_norm <= NEWTON_TOL:
        raise NewtonError(
            f"temperature Newton stalled at residual {res_norm:.3e} "
            f"after {iterations} iterations"
        )

    floor_hits = int(np.count_nonzero(theta < THETA_FLOOR))
    if floor_hits:
        theta = np.maximum(theta, THETA_FLOOR)
    return ScalarField(grid, theta), TemperatureSolveInfo(
        iterations, res_norm, floor_hits, krylov, backtracks_total
    )


# ---------------------------------------------------------------------------
# momentum advance
# ---------------------------------------------------------------------------

def _cosine_integrals(cc, basis: GalerkinBasis):
    """Flat quadratures int f cos(p pi x/lx) cos(q pi y/ly), at slot (q, p),
    from the cosine-cosine coefficients of f."""
    c = basis.mode_norm2 * cc
    c[0, :] *= 2.0
    c[:, 0] *= 2.0
    return c.ravel()


def _mass_matrix(rho_cc, basis: GalerkinBasis):
    """Gram matrix int rho phi_m phi_m' from the cosine-cosine coefficients
    of rho (a lookup; see GalerkinBasis.pair_slots); exactly symmetric."""
    c = _cosine_integrals(rho_cc, basis)
    dd, ds, sd, ss, _, _ = basis.pair_slots
    return 0.25 * (c[dd] - c[ds] - c[sd] + c[ss])


def _viscous_matrix(theta, basis: GalerkinBasis, p: EosParams):
    """Galerkin matrix of u -> S(theta, grad u) tested against the basis.

    With D = d_x u1 - d_y u2 and A12 = d_y u1 + d_x u2 the weak form is
    int mu (D D' + A12 A12'), so the diagonal blocks hold
    P = int mu (phi_x phi_x' + phi_y phi_y') and the coupling block is
    Q = A - A^T with A = int mu phi_y phi_x'.  phi_x phi_x' and phi_y phi_y'
    are cosine-cosine modes and phi_y phi_x' are sine-sine modes, so both
    are lookups into the coefficients of mu(theta).
    """
    mu = p.mu(np.asarray(theta))
    c = _cosine_integrals(fwd2(mu, (COS, COS)), basis)
    s = np.zeros(basis.grid.shape)
    s[1:, 1:] = basis.mode_norm2 * fwd2(mu, (SIN, SIN))[:-1, :-1]
    s = s.ravel()
    dd, ds, sd, ss, sgn_x, sgn_y = basis.pair_slots
    aa = np.outer(basis.ax, basis.ax)
    bb = np.outer(basis.ay, basis.ay)
    p_blk = 0.25 * ((aa + bb) * (c[dd] - c[ss]) + (aa - bb) * (c[ds] - c[sd]))
    a_blk = 0.25 * np.outer(basis.ay, basis.ax) * (
        s[ss] + sgn_y * s[ds] + sgn_x * (s[sd] + sgn_y * s[dd])
    )
    q_blk = a_blk - a_blk.T
    return np.block([[p_blk, q_blk], [q_blk.T, p_blk]])


def _advection_tensor(rho_cc, uw: VelocityWorkspace, shape):
    """Nodal rho*u_i*u_j (stacked t11, t12, t22) with pairwise 3/2-dealiased
    products."""
    rho_fine = to_fine(rho_cc, (COS, COS))
    ru_fine = to_fine(from_fine(rho_fine * uw.u_fine, (SIN, SIN), shape), (SIN, SIN))
    u1, u2 = uw.u_fine
    prods = np.stack([ru_fine[0] * u1, ru_fine[0] * u2, ru_fine[1] * u2])
    return bwd2(from_fine(prods, (COS, COS), shape), (COS, COS))


def _momentum_load(basis, uw, rho_cc, rho, b, theta, grho, grads_u, reg, p):
    """Galerkin load of the explicit momentum terms.

    The advection tensor comes from rho_cc and the workspace velocity; the
    momentum pressure from (rho, b, theta) and the eps*(grad rho . grad) u
    coupling from grho and grads_u = (u1x, u1y, u2x, u2y).
    """
    t11, t12, t22 = _advection_tensor(rho_cc, uw, basis.grid.shape)
    p_tot = momentum_pressure(rho, b, theta, reg, p)
    return galerkin_load(
        basis, -rho_gradient_coupling(grho, grads_u, reg),
        np.stack([t11 + p_tot, t12]), np.stack([t12, t22 + p_tot]),
    )


def _basis_coeffs(u: VectorField, basis: GalerkinBasis):
    """The basis coefficients u carries, else its projection onto the basis."""
    return u.coeffs if u.coeffs is not None else project_velocity(u, basis)


def advance_momentum(
    state: State,
    reg: RegParams,
    p: EosParams,
    dt: float,
    rho_new: ScalarField | None = None,
    b_new: ScalarField | None = None,
    theta_new: ScalarField | None = None,
    forcing_vec=None,
    workspace: VelocityWorkspace | None = None,
    *,
    grad_rho: VectorField | None = None,
    grads_u=None,
) -> VectorField:
    """One step of the Galerkin momentum equation; returns the new velocity.

    Solves (M(rho_new) + dt*V(theta_new)) c = M(rho_old) c_old + dt*f with
    f collecting the explicit advection tensor, the total-pressure work and
    the eps*(grad rho . grad) u coupling; the dense symmetric system has
    dimension 2n.  No-slip holds exactly because every basis mode does.
    Under Picard re-sweeps the step passes the improved velocity through
    `workspace` and `grads_u`, while c_old stays the time-t coefficients of
    `state.u`, the velocity the step started from.
    """
    basis = state.u.basis
    if basis is None:
        raise StepFailure("momentum advance requires a velocity with a basis")
    if rho_new is None:
        rho_new = state.rho
    if b_new is None:
        b_new = state.b
    if theta_new is None:
        theta_new = state.theta
    n = basis.n

    rho_cc, rho_new_cc = fwd2(np.stack([state.rho.values, rho_new.values]), (COS, COS))
    m_old = _mass_matrix(rho_cc, basis)
    m_new = _mass_matrix(rho_new_cc, basis)

    if workspace is None:
        workspace = VelocityWorkspace(state.u)
    if grad_rho is None:
        grad_rho = gradient(rho_new)
    if grads_u is None:
        grads_u = velocity_gradient(state.u)
    rhs = _momentum_load(
        basis, workspace, rho_cc, rho_new.values, b_new.values, theta_new.values,
        grad_rho, grads_u, reg, p,
    )
    if forcing_vec is not None:
        rhs = rhs + forcing_vec

    lhs = dt * _viscous_matrix(theta_new.values, basis, p)
    lhs[:n, :n] += m_new
    lhs[n:, n:] += m_new

    c_old = _basis_coeffs(state.u, basis)
    b_vec = (c_old.reshape(2, n) @ m_old).ravel() + dt * rhs
    try:
        c_new = np.linalg.solve(lhs, b_vec)
    except np.linalg.LinAlgError as exc:
        raise StepFailure(f"momentum linear solve failed: {exc}") from exc
    return reconstruct(c_new, basis)


# ---------------------------------------------------------------------------
# full step and run loop
# ---------------------------------------------------------------------------

def step(
    state: State,
    reg: RegParams,
    p: EosParams,
    dt: float,
    sweeps: int = 1,
    forcing=None,
) -> tuple[State, StepReport]:
    """Advance the coupled system by dt with `sweeps` Picard iterations."""
    if sweeps < 1:
        raise DomainError("at least one Picard sweep is required")
    bound = cfl_bound(state.u)
    if dt > bound:
        raise CflError(dt, bound)

    f_rho = f_b = f_e = f_u = None
    if forcing is not None:
        f_rho, f_b, f_e, f_u = forcing.at(state.t)

    u_current = state.u
    rho_new = b_new = theta_new = u_new = None
    info = None
    for _ in range(sweeps):
        # the advances start from the time-t state; every velocity-dependent
        # input comes from the current sweep's velocity
        uw = VelocityWorkspace(u_current)
        rho_new = advance_scalar(
            state.rho, u_current, reg.epsilon, dt, workspace=uw, forcing_cc=f_rho
        )
        b_new = advance_scalar(
            state.b, u_current, reg.epsilon, dt, workspace=uw, forcing_cc=f_b
        )
        # both advances read these; form them once per sweep
        grho, grads_u = gradient(rho_new), velocity_gradient(u_current)
        theta_new, info = advance_temperature(
            state, reg, p, dt, rho_new=rho_new, b_new=b_new, forcing_nodal=f_e,
            workspace=uw, grad_rho=grho, grads_u=grads_u,
        )
        u_new = advance_momentum(
            state, reg, p, dt,
            rho_new=rho_new, b_new=b_new, theta_new=theta_new, forcing_vec=f_u,
            workspace=uw, grad_rho=grho, grads_u=grads_u,
        )
        u_current = u_new

    new_state = State(
        state.t + dt,
        rho_new,
        b_new,
        theta_new,
        u_new,
        {"theta": state.floor_violations.get("theta", 0) + info.floor_hits},
    )
    new_state.validate_positive()

    source_rate = float(heat_source(theta_new.values, reg).sum() * state.grid.weight)
    report = StepReport(
        t=new_state.t,
        dt=dt,
        newton_iterations=info.iterations,
        newton_residual=info.residual,
        theta_floor_hits=info.floor_hits,
        cfl_limit=bound,
        source_rate=source_rate,
        krylov_iterations=info.krylov_iterations,
        line_search_backtracks=info.line_search_backtracks,
    )
    return new_state, report


@dataclass
class Tendencies:
    """Instantaneous semi-discrete rates at a state (no time discretization)."""

    rho_dot: np.ndarray
    b_dot: np.ndarray
    rhoe_dot: np.ndarray
    c_dot: np.ndarray
    u_dot: VectorField
    terms: Terms  # the pointwise terms the rates were formed from


def tendencies(state: State, reg: RegParams, p: EosParams, forcing=None) -> Tendencies:
    """Evaluate the spatial operator at a state.

    Every term is formed exactly as the stepper forms it (same projections,
    same dealiasing), so an equilibrium of the stepper has identically zero
    tendencies and the instantaneous balance residuals in the diagnostics
    measure only the spatial (variational-crime) defects.
    """
    grid = state.grid
    basis = state.u.basis
    if basis is None:
        raise StepFailure("tendencies require a velocity with a basis")
    rho, b, th = state.rho.values, state.b.values, state.theta.values

    f_rho = f_b = f_e = f_u = None
    if forcing is not None:
        f_rho, f_b, f_e, f_u = forcing.at(state.t)

    uw = VelocityWorkspace(state.u)
    rho_cc, b_cc = fwd2(np.stack([rho, b]), (COS, COS))
    rates_cc = []
    for f_cc, f_f in ((rho_cc, f_rho), (b_cc, f_b)):
        rate = -_advective_divergence_cc(f_cc, uw, grid) \
            - reg.epsilon * grid.k2_cc * f_cc
        rates_cc.append(rate if f_f is None else rate + f_f)
    rho_dot, b_dot = bwd2(np.stack(rates_cc), (COS, COS))

    terms = state_terms(state, reg, p)
    adv_e = bwd2(
        _advective_divergence_cc(fwd2(rho_e(rho, th, p), (COS, COS)), uw, grid),
        (COS, COS),
    )
    kirchhoff = ScalarField(grid, K_delta(th, p, reg.delta, reg.Gamma))
    rhoe_dot = (
        -adv_e
        + laplacian_neumann(kirchhoff).values
        + terms.heating
        + terms.source
    )
    if f_e is not None:
        rhoe_dot = rhoe_dot + f_e

    n = basis.n
    rhs = _momentum_load(
        basis, uw, rho_cc, rho, b, th, terms.grad_rho, terms.grads_u, reg, p
    )
    if f_u is not None:
        rhs = rhs + f_u
    c = _basis_coeffs(state.u, basis)
    rhs -= _viscous_matrix(th, basis, p) @ c
    # d/dt (M c) = rhs, so M c_dot = rhs - dM/dt c with dM/dt = M(rho_dot)
    rhs -= (c.reshape(2, n) @ _mass_matrix(rates_cc[0], basis)).ravel()
    c_dot = np.linalg.solve(_mass_matrix(rho_cc, basis), rhs.reshape(2, n).T).T.ravel()
    return Tendencies(
        rho_dot, b_dot, rhoe_dot, c_dot, reconstruct(c_dot, basis), terms
    )


def initial_state(initial: InitialData, basis: GalerkinBasis) -> State:
    """Attach the Galerkin representation of u0 and stamp t = 0."""
    coeffs = project_velocity(initial.u0, basis)
    return State(
        0.0,
        initial.rho0.copy(),
        initial.b0.copy(),
        initial.theta0.copy(),
        reconstruct(coeffs, basis),
    )


def run(
    initial: InitialData,
    reg: RegParams,
    p: EosParams,
    schedule: Schedule,
    forcing=None,
    sweeps: int = 1,
    diagnostics_every: int = 1,
    basis: GalerkinBasis | None = None,
) -> Trajectory:
    """Integrate to t_final, collecting strided snapshots and diagnostics."""
    grid = initial.rho0.grid
    if basis is None:
        basis = GalerkinBasis(grid, reg.n)
    state = initial_state(initial, basis)

    diag_fn = None
    if diagnostics_every:
        from . import diagnostics as _diag  # deferred: diagnostics imports solver

        diag_fn = _diag.report

    states = [state.copy()]
    reports = []
    diags = []
    if diag_fn is not None:
        diags.append(diag_fn(state, reg, p))
    for k in range(schedule.n_steps):
        state, rep = step(state, reg, p, schedule.dt, sweeps=sweeps, forcing=forcing)
        reports.append(rep)
        if (k + 1) % schedule.snapshot_stride == 0 or k + 1 == schedule.n_steps:
            states.append(state.copy())
        if diag_fn is not None and (k + 1) % diagnostics_every == 0:
            diags.append(diag_fn(state, reg, p))
    return Trajectory(
        states, reports, diags, schedule.dt, schedule.snapshot_stride, reg, p
    )

"""Time integration of the regularized planar MHD system.

One step advances, in order: the parabolic continuity and magnetic equations
(advection explicit, eps-diffusion implicit, both diagonal in cosine space),
the internal-energy equation (safeguarded Newton on nodal temperature with
the augmented-conductivity diffusion and the delta/theta^2 - eps*theta^5
source treated implicitly), and the Galerkin momentum equation (viscous
operator implicit, advection / total pressure / eps grad-rho coupling
explicit).  This mirrors the fix-velocity-then-solve-scalars structure of
the underlying construction; an optional second or third Picard sweep
repeats the cycle with the updated velocity.

Both scalar advances share one linear update, so fields that start
proportional stay proportional to round-off, and the k = 0 cosine mode is
untouched, so nodal masses are conserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

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


@dataclass(frozen=True)
class RegParams:
    """Regularization ladder parameters.

    epsilon : artificial viscosity in the continuity/magnetic equations
    delta   : artificial pressure weight
    Gamma   : artificial pressure exponent (>= 4; config load also enforces
              Gamma >= 2*gamma against the EOS)
    n       : Galerkin dimension (modes per velocity component)
    theta_bar : reference temperature for the Helmholtz diagnostics
    """

    epsilon: float
    delta: float
    Gamma: float = 8.0
    n: int = 8
    theta_bar: float = 1.0

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise DomainError(f"epsilon must be > 0, got {self.epsilon}")
        if not self.delta > 0.0:
            raise DomainError(f"delta must be > 0, got {self.delta}")
        if self.Gamma < 4.0:
            raise DomainError(f"Gamma must be >= 4, got {self.Gamma}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if not self.theta_bar > 0.0:
            raise DomainError(f"theta_bar must be > 0, got {self.theta_bar}")


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
    c_star: float = 0.0
    c_star_upper: float = 0.0

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
        if not (self.t_final > 0.0 and self.dt > 0.0):
            raise DomainError("t_final and dt must be > 0")
        if self.snapshot_stride < 1:
            raise DomainError("snapshot_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        n = int(round(self.t_final / self.dt))
        return max(n, 1)


@dataclass
class StepReport:
    t: float
    dt: float
    newton_iterations: int
    newton_residual: float
    theta_floor_hits: int
    cfl_limit: float
    source_rate: float  # integral of delta/theta^2 - eps*theta^5 at the new level


@dataclass
class Trajectory:
    states: list
    step_reports: list
    diagnostics: list
    dt: float
    stride: int
    reg: "RegParams | None" = None
    eos: "EosParams | None" = None

    @property
    def times(self):
        return [s.t for s in self.states]

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


def regularize_initial_data(
    raw: InitialData, reg: RegParams, mollify_time: float | None = None
) -> InitialData:
    """Spectrally mollify initial data, preserving bounds and domination.

    Every scalar is smoothed with the same positive heat kernel, so the
    two-sided bounds of each field and the pointwise domination
    c_star*rho0 <= b0 <= c_star_upper*rho0 are preserved (up to kernel
    truncation, far below 1e-10); the output has exact Neumann structure.
    """
    grid = raw.rho0.grid
    for name, f in (("rho0", raw.rho0), ("b0", raw.b0), ("theta0", raw.theta0)):
        if not f.values.min() > 0.0:
            raise DomainError(f"{name} must be strictly positive")
    if mollify_time is None:
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

def _lap_cc(values, grid: Grid):
    c = fwd2(values, (COS, COS))
    return bwd2(-grid.k2_cc * c, (COS, COS))


@dataclass
class TemperatureSolveInfo:
    iterations: int
    residual: float
    floor_hits: int


def advance_temperature(
    state: State,
    reg: RegParams,
    p: EosParams,
    dt: float,
    rho_new: ScalarField | None = None,
    b_new: ScalarField | None = None,
    forcing_nodal=None,
    newton_tol: float = 1e-11,
    max_newton: int = 40,
    workspace: VelocityWorkspace | None = None,
):
    """Implicit step of the internal-energy equation; returns (theta, info).

    Diffusion enters through the primitive K_delta (so the implicit operator
    is Lap(K_delta(theta))) and the singular sources delta/theta^2 and
    -eps*theta^5 are solved implicitly as well; advection, shear heating,
    pressure work and the gradient heating terms are explicit.  The Newton
    direction comes from a preconditioned GMRES solve (direct spectral solve
    when the Jacobian coefficients are spatially uniform); a positivity line
    search keeps iterates in theta > 0, and any node that still lands below
    the 1e-10 floor is clamped and counted rather than hidden.
    """
    grid = state.grid
    if rho_new is None:
        rho_new = state.rho
    if b_new is None:
        b_new = state.b
    rho_o = state.rho.values
    th_o = state.theta.values
    rho_n = rho_new.values

    explicit = Terms(
        rho_n, b_new.values, th_o, velocity_gradient(state.u),
        gradient(rho_new), gradient(b_new), None, reg, p,
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
        return (
            rho_e(rho_n, theta, p)
            - dt * _lap_cc(K_delta(theta, p, reg.delta, reg.Gamma), grid)
            - dt * heat_source(theta, reg)
            - w
        )

    theta = th_o.copy()
    res = residual(theta)
    res_norm = float(np.abs(res).max()) / scale
    iterations = 0
    nn = grid.ny * grid.nx

    # the comparisons are written so that a NaN residual is never accepted
    while np.isfinite(res_norm) and res_norm > newton_tol and iterations < max_newton:
        # d(rho e)/dtheta minus dt times the derivative of the heat source
        diag = rho_e_dtheta(rho_n, theta, p) + dt * (
            2.0 * reg.delta / theta**3 + 5.0 * reg.epsilon * theta**4
        )
        kd = kappa_delta(theta, p, reg.delta, reg.Gamma)
        mean_diag = float(diag.mean())
        mean_kd = float(kd.mean())
        symbol = mean_diag + dt * mean_kd * grid.k2_cc

        uniform = (
            float(np.ptp(diag)) <= 1e-12 * abs(mean_diag)
            and float(np.ptp(kd)) <= 1e-12 * abs(mean_kd)
        )
        if uniform:
            # the preconditioner is the exact Jacobian here
            dth = bwd2(fwd2(-res, (COS, COS)) / symbol, (COS, COS))
        else:
            def matvec(v):
                v2 = v.reshape(grid.shape)
                return (diag * v2 - dt * _lap_cc(kd * v2, grid)).ravel()

            def precond(v):
                v2 = v.reshape(grid.shape)
                return bwd2(fwd2(v2, (COS, COS)) / symbol, (COS, COS)).ravel()

            op = LinearOperator((nn, nn), matvec=matvec)
            pre = LinearOperator((nn, nn), matvec=precond)
            # inexact Newton: a loose inner tolerance keeps the step cheap
            delta_theta, info = gmres(
                op, -res.ravel(), M=pre, rtol=1e-6, atol=1e-12 * scale, maxiter=200
            )
            if info != 0:
                raise NewtonError(
                    f"temperature linear solve failed (gmres info={info})"
                )
            dth = delta_theta.reshape(grid.shape)

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

    if not res_norm <= newton_tol:
        raise NewtonError(
            f"temperature Newton stalled at residual {res_norm:.3e} "
            f"after {iterations} iterations"
        )

    floor_hits = int(np.count_nonzero(theta < THETA_FLOOR))
    if floor_hits:
        theta = np.maximum(theta, THETA_FLOOR)
    return ScalarField(grid, theta), TemperatureSolveInfo(
        iterations, res_norm, floor_hits
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
    c_old=None,
) -> VectorField:
    """One step of the Galerkin momentum equation; returns the new velocity.

    Solves (M(rho_new) + dt*V(theta_new)) c = M(rho_old) c_old + dt*f with
    f collecting the explicit advection tensor, the total-pressure work and
    the eps*(grad rho . grad) u coupling; the dense symmetric system has
    dimension 2n.  No-slip holds exactly because every basis mode does.
    Under Picard re-sweeps the explicit terms use the improved velocity in
    `state.u` while `c_old` stays anchored at the time-t coefficients.
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
    rhs = _momentum_load(
        basis, workspace, rho_cc, rho_new.values, b_new.values, theta_new.values,
        gradient(rho_new), velocity_gradient(state.u), reg, p,
    )
    if forcing_vec is not None:
        rhs = rhs + forcing_vec

    lhs = dt * _viscous_matrix(theta_new.values, basis, p)
    lhs[:n, :n] += m_new
    lhs[n:, n:] += m_new

    if c_old is None:
        c_old = state.u.coeffs
    if c_old is None:
        c_old = project_velocity(state.u, basis)
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
        work = State(state.t, state.rho, state.b, state.theta, u_current,
                     state.floor_violations)
        uw = VelocityWorkspace(u_current)
        rho_new = advance_scalar(
            state.rho, u_current, reg.epsilon, dt, workspace=uw, forcing_cc=f_rho
        )
        b_new = advance_scalar(
            state.b, u_current, reg.epsilon, dt, workspace=uw, forcing_cc=f_b
        )
        theta_new, info = advance_temperature(
            work, reg, p, dt, rho_new=rho_new, b_new=b_new, forcing_nodal=f_e,
            workspace=uw,
        )
        u_new = advance_momentum(
            work, reg, p, dt,
            rho_new=rho_new, b_new=b_new, theta_new=theta_new, forcing_vec=f_u,
            workspace=uw, c_old=state.u.coeffs,
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
    rhoe_dot = (
        -adv_e
        + _lap_cc(K_delta(th, p, reg.delta, reg.Gamma), grid)
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
    c = state.u.coeffs
    if c is None:
        c = project_velocity(state.u, basis)
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

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
from .thermo import EosParams
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
    "total_pressure",
    "rho_e",
    "shear_heating",
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
        if self.rho.values.min() <= 0.0:
            raise StepFailure(f"rho lost positivity (min {self.rho.values.min():g})")
        if self.b.values.min() <= 0.0:
            raise StepFailure(f"b lost positivity (min {self.b.values.min():g})")
        if self.theta.values.min() <= 0.0:
            raise StepFailure(
                f"theta lost positivity (min {self.theta.values.min():g})"
            )


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
            if f.values.min() <= 0.0:
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
        if f.values.min() <= 0.0:
            raise DomainError(f"{name} must be strictly positive")
    if mollify_time is None:
        h = min(grid.hx, grid.hy)
        mollify_time = 4.5 * h * h
    rho = ScalarField(grid, _heat_filter(raw.rho0.values, grid, mollify_time))
    b = ScalarField(grid, _heat_filter(raw.b0.values, grid, mollify_time))
    theta = ScalarField(grid, _heat_filter(raw.theta0.values, grid, mollify_time))
    return InitialData(rho, b, theta, raw.u0.copy())


# ---------------------------------------------------------------------------
# pointwise building blocks
# ---------------------------------------------------------------------------

def rho_e(rho, theta, p: EosParams):
    """Volumetric internal energy rho*e(rho, theta)."""
    return rho**p.gamma / (p.gamma - 1.0) + p.c_V * rho * theta + p.a * theta**4


def total_pressure(rho, theta, b, reg: RegParams, p: EosParams):
    """p(rho,theta) + b^2/2 + delta*(rho^G + rho^2 + b^G + b^2)."""
    G = reg.Gamma
    return (
        rho * theta
        + rho**p.gamma
        + (p.a / 3.0) * theta**4
        + 0.5 * b * b
        + reg.delta * (rho**G + rho * rho + b**G + b * b)
    )


def shear_heating(u: VectorField, theta, p: EosParams):
    """Nodal S(theta, grad u) : grad u = mu(theta) (D^2 + A12^2) >= 0."""
    u1x, u1y, u2x, u2y = velocity_gradient(u)
    d = u1x - u2y
    a12 = u1y + u2x
    return p.mu(theta) * (d * d + a12 * a12), (u1x, u1y, u2x, u2y)


def grad_squared(f: ScalarField):
    g = gradient(f)
    return g.vx * g.vx + g.vy * g.vy, g


def artificial_gradient_heating(rho: ScalarField, b: ScalarField, reg: RegParams):
    """eps*delta*[(G rho^{G-2}+2)|grad rho|^2 + (G b^{G-2}+2)|grad b|^2]."""
    G = reg.Gamma
    gr2, grho = grad_squared(rho)
    gb2, _ = grad_squared(b)
    heat = reg.epsilon * reg.delta * (
        (G * rho.values ** (G - 2.0) + 2.0) * gr2
        + (G * b.values ** (G - 2.0) + 2.0) * gb2
    )
    return heat, gb2, grho


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

def _kappa_delta(theta, reg: RegParams, p: EosParams):
    return p.kappa(theta) + reg.delta * (theta**reg.Gamma + 1.0 / theta)


def _K_delta(theta, reg: RegParams, p: EosParams):
    G = reg.Gamma
    return (
        p.kappa0 * (theta - 1.0)
        + p.kappa2 * (theta**3 - 1.0) / 3.0
        + p.kappa3 * (theta**4 - 1.0) / 4.0
        + reg.delta * ((theta ** (G + 1.0) - 1.0) / (G + 1.0) + np.log(theta))
    )


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

    heating, grads_u = shear_heating(state.u, th_o, p)
    div_u = grads_u[0] + grads_u[3]  # u1x + u2y
    pressure_work = (
        rho_n * th_o + rho_n**p.gamma + (p.a / 3.0) * th_o**4
    ) * div_u
    art_heat, gb2, _ = artificial_gradient_heating(rho_new, b_new, reg)
    explicit = heating - pressure_work + reg.epsilon * gb2 + art_heat
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
            - dt * _lap_cc(_K_delta(theta, reg, p), grid)
            - dt * (reg.delta / theta**2 - reg.epsilon * theta**5)
            - w
        )

    theta = th_o.copy()
    res = residual(theta)
    res_norm = float(np.abs(res).max()) / scale
    iterations = 0
    nn = grid.ny * grid.nx

    while res_norm > newton_tol and iterations < max_newton:
        diag = (
            p.c_V * rho_n
            + 4.0 * p.a * theta**3
            + dt * (2.0 * reg.delta / theta**3 + 5.0 * reg.epsilon * theta**4)
        )
        kd = _kappa_delta(theta, reg, p)
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
        while trial_norm > (1.0 - 1e-4 * alpha) * res_norm and backtracks < 8:
            alpha *= 0.5
            trial = theta + alpha * dth
            trial_res = residual(trial)
            trial_norm = float(np.abs(trial_res).max()) / scale
            backtracks += 1
        theta, res, res_norm = trial, trial_res, trial_norm
        iterations += 1

    if res_norm > newton_tol:
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
    total pressure from (rho, b, theta) and the eps*(grad rho . grad) u
    coupling from grho and grads_u = (u1x, u1y, u2x, u2y).
    """
    t11, t12, t22 = _advection_tensor(rho_cc, uw, basis.grid.shape)
    p_tot = total_pressure(rho, theta, b, reg, p)
    u1x, u1y, u2x, u2y = grads_u
    eps_u = reg.epsilon * np.stack([
        grho.vx * u1x + grho.vy * u1y,
        grho.vx * u2x + grho.vy * u2y,
    ])
    return galerkin_load(
        basis, -eps_u, np.stack([t11 + p_tot, t12]), np.stack([t12, t22 + p_tot])
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

    th = theta_new.values
    source_rate = float(
        (reg.delta / th**2 - reg.epsilon * th**5).sum() * state.grid.weight
    )
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
    rho_cc = fwd2(rho, (COS, COS))
    b_cc = fwd2(b, (COS, COS))
    rho_dot_cc = -_advective_divergence_cc(rho_cc, uw, grid) \
        - reg.epsilon * grid.k2_cc * rho_cc
    b_dot_cc = -_advective_divergence_cc(b_cc, uw, grid) \
        - reg.epsilon * grid.k2_cc * b_cc
    if f_rho is not None:
        rho_dot_cc = rho_dot_cc + f_rho
    if f_b is not None:
        b_dot_cc = b_dot_cc + f_b
    rho_dot = bwd2(rho_dot_cc, (COS, COS))
    b_dot = bwd2(b_dot_cc, (COS, COS))

    heating, grads_u = shear_heating(state.u, th, p)
    div_u = grads_u[0] + grads_u[3]
    pressure_work = (rho * th + rho**p.gamma + (p.a / 3.0) * th**4) * div_u
    art_heat, gb2, grho = artificial_gradient_heating(state.rho, state.b, reg)
    adv_e = bwd2(
        _advective_divergence_cc(fwd2(rho_e(rho, th, p), (COS, COS)), uw, grid),
        (COS, COS),
    )
    rhoe_dot = (
        -adv_e
        + _lap_cc(_K_delta(th, reg, p), grid)
        + heating
        - pressure_work
        + reg.epsilon * gb2
        + art_heat
        + reg.delta / th**2
        - reg.epsilon * th**5
    )
    if f_e is not None:
        rhoe_dot = rhoe_dot + f_e

    n = basis.n
    rhs = _momentum_load(basis, uw, rho_cc, rho, b, th, grho, grads_u, reg, p)
    if f_u is not None:
        rhs = rhs + f_u
    c = state.u.coeffs
    if c is None:
        c = project_velocity(state.u, basis)
    rhs -= _viscous_matrix(th, basis, p) @ c
    # d/dt (M c) = rhs, so M c_dot = rhs - dM/dt c with dM/dt = M(rho_dot)
    rhs -= (c.reshape(2, n) @ _mass_matrix(rho_dot_cc, basis)).ravel()
    c_dot = np.linalg.solve(_mass_matrix(rho_cc, basis), rhs.reshape(2, n).T).T.ravel()
    return Tendencies(rho_dot, b_dot, rhoe_dot, c_dot, reconstruct(c_dot, basis))


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

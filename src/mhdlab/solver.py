"""Time integration of the regularized planar MHD system.

One step advances, in order: the parabolic continuity and magnetic equations
(advection explicit, eps-diffusion implicit, both diagonal in cosine space),
the internal-energy equation (safeguarded Newton on nodal temperature with
the augmented-conductivity diffusion and the delta/theta^2 - eps*theta^5
source treated implicitly, each direction by conjugate gradients on cosine
coefficients in the Kirchhoff variable), and the Galerkin momentum equation
(viscous operator implicit, advection / total pressure / eps grad-rho
coupling explicit).  This mirrors the fix-velocity-then-solve-scalars
structure of the underlying construction, in one pass per step.

The Galerkin momentum system for the 2n coefficients (c_x, c_y) is solved
as one n x n complex system in z = c_x + i*c_y.  Its viscous coupling block
Q = A - A^T is antisymmetric, so M(rho) (x) I_2 + dt*V(theta) is the real
form of the Hermitian positive-definite H = M + dt*(P - i*Q).  Below a
crossover in n relative to the grid (`_MATRIX_FREE_RATIO`) H is assembled
by lookups and factorized; above it no Galerkin matrix is formed: each
product with H is one Galerkin load of the reconstructed velocity, and H
is inverted by conjugate gradients preconditioned by its symbol.  The
temperature and momentum solves share that one PCG loop (`_pcg`).

rho and b advance in one stacked linear update, so fields that start
proportional stay proportional to round-off, and the k = 0 cosine mode is
untouched, so nodal masses are conserved exactly.

Each term is formed once per state.  The time-t transport terms come from
`State.workspace`, the state's one evaluation, which a report on the same
state shares; so does the old-level energy flux, rho*e and div(rho*e u),
keyed by theta and the EOS.  The terms a step forms at the new level and a
report on the new state reads again (the gradients of rho and b, the
momentum pressure, below the crossover V(theta) and M(rho), the heat
source, and the last Newton residual's conduction term unless a floor clamp
changed theta) are handed to the new state (`State.handed`), keyed by the
parameters they depend on, and read through `VelocityWorkspace.term`.  The
step from a state releases them, whether a report read them or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    "heating_parts",
    "state_terms",
    "artificial_energy",
    "artificial_energy_rate",
    "momentum_pressure",
    "rho_gradient_coupling",
]


def __getattr__(name):
    # nothing here calls gmres, but bench/hooks.py binds solver.gmres; it is
    # imported on request, since scipy.sparse costs about 9 MB at import.
    # This goes once the benchmark stops binding it.
    if name == "gmres":
        from scipy.sparse.linalg import gmres

        return gmres
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """Discrete fields at one time level.

    `handed` holds the terms of this level that the step which produced the
    state formed, for a report on it to read (see `VelocityWorkspace.term`);
    the step from the state empties it.
    """

    t: float
    rho: ScalarField
    b: ScalarField
    theta: ScalarField
    u: VectorField
    floor_violations: dict = field(default_factory=lambda: {"theta": 0})
    handed: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def grid(self) -> Grid:
        return self.rho.grid

    @cached_property
    def workspace(self) -> VelocityWorkspace:
        """The state's one evaluation of its transport terms, formed part by
        part on first use and shared by every reader of this state."""
        uw = VelocityWorkspace(self.rho, self.b, self.u)
        uw.handed = self.handed
        return uw

    def copy(self):
        """Copies of the fields; the copy carries no evaluation and no
        handed-on terms."""
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
            values = getattr(self, name).values
            low, high = values.min(), values.max()
            if not -np.inf < low <= high < np.inf:
                raise StepFailure(f"{name} is not finite (min {low:g}, max {high:g})")
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
        # a run takes whole steps, so it ends at t_final only on a multiple
        ratio = self.t_final / self.dt
        whole = np.rint(ratio)  # inf stays inf and then fails the comparison
        if not (whole >= 1.0 and abs(ratio - whole) <= 1e-9 * ratio):
            raise DomainError(f"t_final = {self.t_final:g} is not a whole number "
                              f"of steps of dt = {self.dt:g} ({ratio:.12g})")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)


@dataclass
class StepReport:
    """Per-step record; the Krylov and backtrack counts are summed over the
    temperature Newton loop, and the momentum Krylov count is that of the
    matrix-free momentum solve (0 below its crossover)."""

    t: float
    dt: float
    newton_iterations: int
    newton_residual: float
    theta_floor_hits: int
    cfl_limit: float
    source_rate: float  # integral of delta/theta^2 - eps*theta^5 at the new level
    krylov_iterations: int
    line_search_backtracks: int
    momentum_krylov_iterations: int


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


def heating_parts(rho, b, theta, grads_u, grad_rho, grad_b, reg: RegParams,
                  p: EosParams):
    """The explicit heating of the internal-energy equation and its parts:
    (div_u, shear, gb2, art_heat, heating) with the shear heating S:grad u,
    gb2 = |grad b|^2, the gradient heating art_heat and the sum heating =
    S:grad u - p div u + eps |grad b|^2 + art_heat."""
    G = reg.Gamma
    u1x, u1y, u2x, u2y = grads_u
    div_u = u1x + u2y
    d, a12 = u1x - u2y, u1y + u2x
    shear = p.mu(theta) * (d * d + a12 * a12)
    gb2 = grad_b.vx * grad_b.vx + grad_b.vy * grad_b.vy
    art_heat = reg.epsilon * reg.delta * (
        (G * rho ** (G - 2.0) + 2.0) * (grad_rho.vx * grad_rho.vx
                                        + grad_rho.vy * grad_rho.vy)
        + (G * b ** (G - 2.0) + 2.0) * gb2
    )
    heating = (shear - eos_pressure(rho, theta, p) * div_u
               + reg.epsilon * gb2 + art_heat)
    return div_u, shear, gb2, art_heat, heating


@dataclass
class Terms:
    """Pointwise terms of the regularized system at one (rho, b, theta, u).

    Derivatives come from the spectral operators (`state_terms`) or, for a
    manufactured solution, analytically; grads_u is (u1x, u1y, u2x, u2y).
    Construction forms, once for every consumer, the `heating_parts`
    (`div_u`, `shear`, `gb2`, `art_heat`, `heating`) and the `source`; the
    traceless stress `stress` = (S11, S12) = mu(theta)(D, A12), `sigma15` and
    `sigma` on first use.  A `source` passed in must be
    heat_source(theta, reg).
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
    source: np.ndarray | None = None

    def __post_init__(self):
        self.div_u, self.shear, self.gb2, self.art_heat, self.heating = (
            heating_parts(self.rho, self.b, self.theta, self.grads_u,
                          self.grad_rho, self.grad_b, self.reg, self.p))
        if self.source is None:
            self.source = heat_source(self.theta, self.reg)

    @cached_property
    def stress(self):
        u1x, u1y, u2x, u2y = self.grads_u
        mu = self.p.mu(self.theta)
        return mu * (u1x - u2y), mu * (u1y + u2x)

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
    """The terms of a state, with spectral derivatives and its workspace's
    grads_u; the gradients of rho and b and the heat source as the step that
    produced the state handed them on, if it did."""
    uw, th = state.workspace, state.theta.values
    return Terms(
        state.rho.values, state.b.values, th, uw.grads_u,
        uw.term(("grad_rho",), None, lambda: gradient(state.rho)),
        uw.term(("grad_b",), None, lambda: gradient(state.b)),
        gradient(state.theta), reg, p,
        uw.term(("heat_source", reg), th, lambda: heat_source(th, reg)),
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
    """A state's one evaluation, each part formed on first use: the CFL bound
    `cfl_limit`, the velocity on the 3/2 fine grid `u_fine` (x then y), its
    Jacobian `grads_u`, the cosine coefficients of (rho, b) `scalar_cc`,
    their advective divergences `scalar_adv_cc`, the `advection_tensor`,
    below the matrix-free crossover the Galerkin `mass` matrix M(rho) in
    the velocity's basis, and the old-level energy flux (`energy`).  The
    terms handed on by the step that produced the state are read through
    `term`.

    It holds the state's fields and handed-on terms, never the state, so a
    dropped state is freed at once.  A velocity from a basis is evaluated on
    the fine grid from its coefficients (`GalerkinBasis.evaluate`) instead
    of transforming the nodal field again.
    """

    def __init__(self, rho: ScalarField, b: ScalarField, u: VectorField):
        self.rho, self.b, self.u = rho, b, u
        self.handed = {}
        self._energy = None

    def term(self, key, theta, form):
        """The term `key` as the step that produced the state handed it on,
        else `form()`.

        A key is the term's name and the parameters it depends on, so a
        reader with other parameters never reads it; a term that depends on
        the temperature is read only at the very `theta` array it was formed
        at (None for one that does not).
        """
        hit = self.handed.get(key)
        if hit is not None and hit[0] is theta:
            return hit[1]
        return form()

    def energy(self, theta, p: EosParams):
        """(rho*e, nodal div(rho*e u)) at `theta`: the explicit old-level
        energy flux that `tendencies` and the temperature stage both read,
        formed once per theta array and EOS and kept with the state."""
        e = self._energy
        if e is None or e[0] is not theta or e[1] != p:
            rhoe = rho_e(self.rho.values, theta, p)
            e = self._energy = (theta, p, rhoe, _energy_advection(rhoe, self))
        return e[2], e[3]

    @cached_property
    def cfl_limit(self) -> float:
        return cfl_bound(self.u)

    @cached_property
    def u_fine(self):
        u = self.u
        if u.coeffs is not None:
            return u.basis.evaluate(u.coeffs, fine=True)
        return to_fine(fwd2(np.stack([u.vx, u.vy]), (SIN, SIN)), (SIN, SIN))

    @cached_property
    def grads_u(self):
        """(u1x, u1y, u2x, u2y)."""
        return velocity_gradient(self.u)

    @cached_property
    def scalar_cc(self):
        return fwd2(np.stack([self.rho.values, self.b.values]), (COS, COS))

    @cached_property
    def mass_flux(self):
        """Sine-sine coefficients of the dealiased mass flux rho*u (x then
        y), read by the rho advance and the advection tensor."""
        return _flux_cc(self.scalar_cc[0], self)

    @cached_property
    def scalar_adv_cc(self):
        grid = self.u.grid
        return np.stack([
            _flux_divergence_cc(self.mass_flux, grid),
            _advective_divergence_cc(self.scalar_cc[1], self, grid),
        ])

    @cached_property
    def advection_tensor(self):
        """Nodal rho*u_i*u_j (stacked t11, t12, t22) with pairwise
        3/2-dealiased products.

        Each fine-grid stack is dropped once read and the products are
        written into one array: this is the largest transient of a step.
        """
        ru_fine = to_fine(self.mass_flux, (SIN, SIN))
        u1, u2 = self.u_fine
        prods = np.empty((3,) + u1.shape)
        np.multiply(ru_fine[0], u1, out=prods[0])
        np.multiply(ru_fine[0], u2, out=prods[1])
        np.multiply(ru_fine[1], u2, out=prods[2])
        del ru_fine
        return bwd2(from_fine(prods, (COS, COS)), (COS, COS))

    @cached_property
    def mass(self):
        # the transform of the stack is the transform of each field, so a
        # handed-on M(rho) equals the one formed here bitwise
        return self.term(("mass",), None,
                         lambda: _mass_matrix(self.scalar_cc[0], self.u.basis))


def _flux_cc(f_cc, uw: VelocityWorkspace):
    """Sine-sine coefficients of the flux f*u, a dealiased quadratic product,
    from the cosine coefficients of f."""
    return from_fine(to_fine(f_cc, (COS, COS)) * uw.u_fine, (SIN, SIN))


def _advective_divergence_cc(f_cc, uw: VelocityWorkspace, grid: Grid):
    """Cosine-space projection of div(f*u) from coefficient inputs."""
    return _flux_divergence_cc(_flux_cc(f_cc, uw), grid)


def _flux_divergence_cc(flux, grid: Grid):
    """Cosine coefficients of the divergence of a flux given by its
    sine-sine coefficients.

    The derivative series contain no k = 0 cosine mode, so the (0,0) output
    is identically zero and is pinned there to shed round-off (this is what
    makes the advance exactly conservative).
    """
    q1, q2 = flux
    dq1, px = _deriv_coeffs(q1, 1, SIN, grid.lx)
    dq2, py = _deriv_coeffs(q2, 0, SIN, grid.ly)
    adv = fwd2(bwd2(dq1, (SIN, px)) + bwd2(dq2, (py, SIN)), (COS, COS))
    adv[0, 0] = 0.0
    return adv


def _energy_advection(rhoe, uw: VelocityWorkspace):
    """Nodal div(rho*e u), dealiased like the scalar advances' fluxes."""
    adv_cc = _advective_divergence_cc(fwd2(rhoe, (COS, COS)), uw, uw.u.grid)
    return bwd2(adv_cc, (COS, COS))


def advance_scalar(state: State, epsilon: float, dt: float, forcing_cc=None):
    """One IMEX step of d_t f + div(f u) = eps*Lap(f) with Neumann walls for
    f = rho, b stacked (forcing_cc too, in cosine coefficients); returns
    (rho_new, b_new)."""
    if dt <= 0.0:
        raise DomainError(f"dt must be > 0, got {dt}")
    uw = state.workspace
    # written so that NaN fails: a non-finite velocity bounds dt by nan or 0
    if not uw.cfl_limit > 0.0:
        raise StepFailure(f"velocity is not finite at t = {state.t:g} "
                          f"(CFL bound {uw.cfl_limit:g})")
    if dt > uw.cfl_limit:
        raise CflError(dt, uw.cfl_limit)
    grid = state.grid
    if state.u.grid != grid or state.b.grid != grid:
        raise GridMismatchError("scalar and velocity grids differ")
    rhs = uw.scalar_cc - dt * uw.scalar_adv_cc
    if forcing_cc is not None:
        rhs = rhs + dt * forcing_cc
    rho_new, b_new = bwd2(rhs / (1.0 + dt * epsilon * grid.k2_cc), (COS, COS))
    return ScalarField(grid, rho_new), ScalarField(grid, b_new)


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


def _kirchhoff_laplacian(theta, grid: Grid, reg: RegParams, p: EosParams):
    """Nodal Lap K_delta(theta), the conduction term of the energy equation."""
    kirchhoff = ScalarField(grid, K_delta(theta, p, reg.delta, reg.Gamma))
    return laplacian_neumann(kirchhoff).values


def _pcg(apply, rhs, symbol, dot, fail, rtol: float, atol: float,
         maxiter: int = 200):
    """Conjugate gradients for an `apply` that is self-adjoint and positive
    definite in the inner product `dot`, preconditioned by division by
    `symbol`; returns (x, iterations).

    Norms are those of `dot`, and the loop stops at
    ||r|| <= max(rtol*||rhs||, atol).  A non-finite right-hand side, a
    breakdown (non-positive or non-finite curvature, for instance from a
    non-finite operator) and reaching `maxiter` raise `fail(reason)`, the
    reason naming the residual.
    """
    with np.errstate(all="ignore"):
        r_norm = float(np.sqrt(dot(rhs, rhs)))
        if not np.isfinite(r_norm):
            raise fail(f"non-finite right-hand side (residual {r_norm:.3e})")
        tol = max(rtol * r_norm, atol)
        x, r, p, rz_old = np.zeros_like(rhs), rhs.copy(), None, 0.0
        iterations = 0
        while not r_norm <= tol:
            if iterations == maxiter:
                raise fail(f"residual {r_norm:.3e} above {tol:.3e} after "
                           f"{maxiter} PCG iterations")
            z = r / symbol
            rz = dot(r, z)
            p = z if p is None else z + (rz / rz_old) * p
            q = apply(p)
            pq = dot(p, q)
            if not (0.0 < rz < np.inf and 0.0 < pq < np.inf):
                raise fail(f"broke down at residual {r_norm:.3e} "
                           f"(r.Mr = {rz:.3e}, p.Ap = {pq:.3e})")
            alpha = rz / pq
            x += alpha * p
            r -= alpha * q
            rz_old = rz
            iterations += 1
            r_norm = float(np.sqrt(dot(r, r)))
    return x, iterations


def _cosine_dot(grid: Grid):
    """The nodal inner product of two cosine coefficient arrays,
    nx*ny*sum(w_cc*f*g).  nx*ny is a power of two, so the PCG ratios come out
    as if the sum alone were taken."""
    w, nodes = grid.w_cc, grid.nx * grid.ny
    return lambda f, g: nodes * float(np.sum(w * f * g))


def _temperature_failure(reason: str):
    return NewtonError(f"temperature linear solve: {reason}")


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
        _kirchhoff_operator(a, dt, grid), fwd2(-res, (COS, COS)), symbol,
        _cosine_dot(grid), _temperature_failure, rtol=1e-6, atol=atol,
    )
    return bwd2(z_cc, (COS, COS)) / kd, iterations


def _check_finite(stage: str, t: float, **fields):
    """Raise StepFailure naming the stage, t and the first field with a
    non-finite node."""
    for name, f in fields.items():
        if not np.isfinite(f.values).all():
            raise StepFailure(f"{stage} at t = {t:g}: {name} is not finite")


@dataclass
class MomentumSolveInfo:
    krylov_iterations: int  # PCG iterations of the matrix-free solve, else 0
    terms: dict  # new-level terms to hand on, keyed as VelocityWorkspace.term


@dataclass
class TemperatureSolveInfo:
    iterations: int
    residual: float
    floor_hits: int
    krylov_iterations: int  # PCG iterations, summed over the Newton loop
    line_search_backtracks: int
    terms: dict  # new-level terms to hand on, keyed as VelocityWorkspace.term


def advance_temperature(
    state: State,
    reg: RegParams,
    p: EosParams,
    dt: float,
    rho_new: ScalarField,
    b_new: ScalarField,
    grad_rho: VectorField,
    forcing_nodal=None,
):
    """Implicit step of the internal-energy equation from `state` to the new
    rho and b (grad_rho is the gradient of rho_new); returns (theta, info).

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
    solve raises NewtonError; a non-finite rho_new or b_new raises
    StepFailure before anything is formed from them.

    `info.terms` holds the new-level terms to hand on: grad b_new, the heat
    source at the returned theta and, unless a floor clamp changed theta,
    the last residual's conduction term.
    """
    _check_finite("temperature advance", state.t, rho_new=rho_new, b_new=b_new)
    grid = state.grid
    uw = state.workspace
    th_o = state.theta.values
    rho_n = rho_new.values

    grad_b = gradient(b_new)
    explicit = heating_parts(
        rho_n, b_new.values, th_o, uw.grads_u, grad_rho, grad_b, reg, p
    )[-1]
    if forcing_nodal is not None:
        explicit = explicit + forcing_nodal

    # advective internal-energy flux, explicit at the old level
    rhoe_old, adv = uw.energy(th_o, p)

    w = rhoe_old - dt * adv + dt * explicit
    scale = max(1.0, float(np.abs(w).max()))

    def residual(theta):
        """The residual and its conduction term and heat source."""
        lap = _kirchhoff_laplacian(theta, grid, reg, p)
        source = heat_source(theta, reg)
        return rho_e(rho_n, theta, p) - dt * lap - dt * source - w, lap, source

    theta = th_o.copy()
    res, lap, source = residual(theta)
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
        trial_res, trial_lap, trial_source = residual(trial)
        trial_norm = float(np.abs(trial_res).max()) / scale
        backtracks = 0
        while not trial_norm <= (1.0 - 1e-4 * alpha) * res_norm and backtracks < 8:
            alpha *= 0.5
            trial = theta + alpha * dth
            trial_res, trial_lap, trial_source = residual(trial)
            trial_norm = float(np.abs(trial_res).max()) / scale
            backtracks += 1
        theta, res, res_norm = trial, trial_res, trial_norm
        lap, source = trial_lap, trial_source
        iterations += 1
        backtracks_total += backtracks

    if not res_norm <= NEWTON_TOL:
        raise NewtonError(
            f"temperature Newton stalled at residual {res_norm:.3e} "
            f"after {iterations} iterations"
        )

    terms = {("grad_b",): (None, grad_b)}
    floor_hits = int(np.count_nonzero(theta < THETA_FLOOR))
    if floor_hits:
        theta = np.maximum(theta, THETA_FLOOR)
        source = heat_source(theta, reg)
    else:
        terms[("kirchhoff_laplacian", reg, p)] = (theta, lap)
    terms[("heat_source", reg)] = (theta, source)
    return ScalarField(grid, theta), TemperatureSolveInfo(
        iterations, res_norm, floor_hits, krylov, backtracks_total, terms
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
    """Galerkin matrix of u -> S(theta, grad u) tested against the basis, as
    the n x n complex Hermitian P - i*Q acting on c_x + i*c_y.

    With D = d_x u1 - d_y u2 and A12 = d_y u1 + d_x u2 the weak form is
    int mu (D D' + A12 A12'), so the real 2n x 2n matrix is
    [[P, Q], [Q^T, P]] with P = int mu (phi_x phi_x' + phi_y phi_y')
    symmetric and Q = A - A^T, A = int mu phi_y phi_x'.  Q^T = -Q exactly,
    so that matrix is the real form of P - i*Q, which is stored instead:
    half the entries, and one complex solve in place of a real one of twice
    the dimension.  phi_x phi_x' and phi_y phi_y' are cosine-cosine modes and
    phi_y phi_x' are sine-sine modes, so both parts are lookups into the
    coefficients of mu(theta).
    """
    mu = p.mu(np.asarray(theta))
    c = _cosine_integrals(fwd2(mu, (COS, COS)), basis)
    s = np.zeros(basis.grid.shape)
    s[1:, 1:] = basis.mode_norm2 * fwd2(mu, (SIN, SIN))[:-1, :-1]
    s = s.ravel()
    dd, ds, sd, ss, sgn_x, sgn_y = basis.pair_slots
    aa = np.outer(basis.ax, basis.ax)
    bb = np.outer(basis.ay, basis.ay)
    v = np.empty(dd.shape, dtype=complex)
    # formed in place: the assembly is bound by memory traffic, and each
    # n x n temporary is a fresh allocation (512 kB at n = 256)
    # P = ((aa + bb)(c_dd - c_ss) + (aa - bb)(c_ds - c_sd))/4
    p_blk = c.take(dd)
    p_blk -= c.take(ss)
    p_blk *= aa + bb
    t = c.take(ds)
    t -= c.take(sd)
    t *= aa - bb
    p_blk += t
    np.multiply(p_blk, 0.25, out=v.real)
    # A = ay ax'/4 (s_ss + sgn_y s_ds + sgn_x (s_sd + sgn_y s_dd))
    a_blk = s.take(dd)
    a_blk *= sgn_y
    a_blk += s.take(sd)
    a_blk *= sgn_x
    t = s.take(ds)
    t *= sgn_y
    t += s.take(ss)
    a_blk += t
    a_blk *= 0.25 * np.outer(basis.ay, basis.ax)
    np.subtract(a_blk.T, a_blk, out=v.imag)
    return v


def _momentum_load(uw: VelocityWorkspace, p_tot, grho, reg):
    """Galerkin load of the explicit momentum terms.

    The advection tensor and the velocity Jacobian come from the workspace
    of the time-t state; p_tot is the `momentum_pressure` and grho enters
    the eps*(grad rho . grad) u coupling.
    """
    t11, t12, t22 = uw.advection_tensor
    return galerkin_load(
        uw.u.basis, -rho_gradient_coupling(grho, uw.grads_u, reg),
        np.stack([t11 + p_tot, t12]), np.stack([t12, t22 + p_tot]),
    )


# Galerkin dimensions with n*n >= _MATRIX_FREE_RATIO*nx*ny solve the momentum
# system matrix-free.  Dense costs n^2 lookups plus an n^3 factorization, a
# PCG iteration one evaluation, one Jacobian and one Galerkin load on the
# velocity's mode corner (see GalerkinBasis).  One advance_momentum on a
# random state, dense / matrix-free, best of 7 alternating calls on one or
# two states, one BLAS thread of a 2-core Xeon (PCG iterations in brackets):
#   64^2:  n = 112  1.15 / 1.47 ms (9)      n = 128  1.23-1.47 / 1.44-1.48 ms (9)
#          n = 144  1.67-1.79 / 1.45 ms (9) n = 192  3.05 / 1.44 ms (9)
#          n = 256  5.65 / 1.68 ms (10)
#   128^2: n = 160  2.94 / 3.47 ms (8)      n = 192  3.52-3.74 / 3.45-3.47 ms (8)
#          n = 224  4.97 / 3.83 ms (8)      n = 256  6.65-7.18 / 3.40-3.74 ms (8)
#          n = 512  37 / 5.0 ms (9)
# so the paths cross near n*n = 4 nx*ny on 64^2 and 2 nx*ny on 128^2.  The
# ratio sits at the 64^2 crossing; on 128^2 it keeps the dense path up to
# n = 255, up to 1.2 ms per advance slower there.
_MATRIX_FREE_RATIO = 4


def _matrix_free(basis: GalerkinBasis) -> bool:
    g = basis.grid
    return basis.n * basis.n >= _MATRIX_FREE_RATIO * g.nx * g.ny


def _operator_load(u: VectorField, rho, mu=None):
    """(M(rho) + V(mu)) c for the coefficients c of u, never assembled.

    It is the Galerkin load of rho*u and, unless mu is None, of the
    traceless stress mu*(D, A12) of u: midpoint quadrature integrates the
    products of modes and weights exactly (see GalerkinBasis), so this is
    the product with `_mass_matrix` and `_viscous_matrix` to round-off.
    """
    f = rho * np.stack([u.vx, u.vy])
    if mu is None:
        return galerkin_load(u.basis, f)
    u1x, u1y, u2x, u2y = velocity_gradient(u)
    s11, s12 = mu * (u1x - u2y), mu * (u1y + u2x)
    # a PCG product is the peak of a matrix-free step: drop each grid
    # stack once read
    del u1x, u1y, u2x, u2y
    fx, fy = np.stack([s11, s12]), np.stack([s12, -s11])
    del s11, s12
    return galerkin_load(u.basis, f, fx, fy)


def _complex_solve(basis: GalerkinBasis, rho, mu, rhs, what: str):
    """Solve (M(rho) + V(mu)) c = rhs (2n, mu None for M alone) matrix-free
    by PCG in z = c_x + i*c_y, where the operator is Hermitian; returns
    (c, iterations).

    Each product is one `_operator_load`.  The preconditioner is the
    operator's symbol for uniform coefficients, norm^2*(mean rho +
    mean mu*|k|^2), diagonal in the modes.  A failure raises StepFailure,
    its message led by `what`.
    """
    n = basis.n

    def apply(z):
        u = reconstruct(np.concatenate([z.real, z.imag]), basis)
        load = _operator_load(u, rho, mu)
        return load[:n] + 1j * load[n:]

    def fail(reason):
        return StepFailure(f"{what}: {reason}")

    symbol = float(np.mean(rho))
    if mu is not None:
        symbol = symbol + float(np.mean(mu)) * (basis.ax**2 + basis.ay**2)
    z, iterations = _pcg(
        apply, rhs[:n] + 1j * rhs[n:], basis.mode_norm2 * symbol,
        lambda a, b: np.vdot(a, b).real, fail, rtol=1e-13, atol=0.0,
    )
    return np.concatenate([z.real, z.imag]), iterations


def advance_momentum(
    state: State,
    reg: RegParams,
    p: EosParams,
    dt: float,
    rho_new: ScalarField,
    b_new: ScalarField,
    theta_new: ScalarField,
    grad_rho: VectorField,
    forcing_vec=None,
) -> tuple[VectorField, MomentumSolveInfo]:
    """One step of the Galerkin momentum equation; returns the new velocity
    and a `MomentumSolveInfo`: the number of PCG iterations (0 when solved
    densely) and the new-level terms to hand on, the momentum pressure and,
    when solved densely, V(theta_new) and M(rho_new).

    Solves (M(rho_new) + dt*V(theta_new)) c = M(rho_old) c_old + dt*f with
    f collecting the explicit advection tensor, the total-pressure work and
    the eps*(grad rho . grad) u coupling.  The 2n-dimensional real system is
    the real form of the n x n Hermitian positive-definite one in
    z = c_x + i*c_y (see `_viscous_matrix`), which is the one solved.
    Below the crossover `_MATRIX_FREE_RATIO` the matrices are assembled by
    lookups and H is factorized; above it no matrix is formed: the products
    with M and H are Galerkin loads (`_operator_load`) and H is inverted by
    PCG to 1e-13 relative, whose failures raise StepFailure.  A non-finite
    new-level field raises StepFailure before anything is formed from it.
    No-slip holds exactly because every basis mode does.
    """
    basis = state.u.basis
    if basis is None:
        raise StepFailure("momentum advance requires a velocity with a basis")
    _check_finite("momentum advance", state.t,
                  rho_new=rho_new, b_new=b_new, theta_new=theta_new)
    n = basis.n
    uw = state.workspace
    theta = theta_new.values

    p_tot = momentum_pressure(rho_new.values, b_new.values, theta, reg, p)
    terms = {("momentum_pressure", reg, p): (theta, p_tot)}
    rhs = _momentum_load(uw, p_tot, grad_rho, reg)
    if forcing_vec is not None:
        rhs = rhs + forcing_vec
    if _matrix_free(basis):
        rhs = _operator_load(state.u, state.rho.values) + dt * rhs
        c, iterations = _complex_solve(
            basis, rho_new.values, dt * p.mu(theta), rhs,
            f"momentum linear solve at t = {state.t:g}",
        )
        return reconstruct(c, basis), MomentumSolveInfo(iterations, terms)

    rhs = state.u.coeffs.reshape(2, n) @ uw.mass + dt * rhs.reshape(2, n)

    viscous = _viscous_matrix(theta, basis, p)
    mass = _mass_matrix(fwd2(rho_new.values, (COS, COS)), basis)
    terms[("viscous", p)] = (theta, viscous)
    terms[("mass",)] = (None, mass)
    lhs = dt * viscous
    lhs.real += mass
    try:
        z = np.linalg.solve(lhs, rhs[0] + 1j * rhs[1])
    except np.linalg.LinAlgError as exc:
        raise StepFailure(f"momentum linear solve failed: {exc}") from exc
    if not np.isfinite(z).all():
        raise StepFailure(f"momentum linear solve at t = {state.t:g} returned "
                          "non-finite coefficients")
    return (reconstruct(np.concatenate([z.real, z.imag]), basis),
            MomentumSolveInfo(0, terms))


# ---------------------------------------------------------------------------
# full step and run loop
# ---------------------------------------------------------------------------

def step(
    state: State,
    reg: RegParams,
    p: EosParams,
    dt: float,
    forcing=None,
) -> tuple[State, StepReport]:
    """Advance the coupled system by dt in one pass with the time-t velocity:
    rho and b, then theta, then u.  The time-t terms come from
    `state.workspace`, shared with a report on the same state.  The terms
    the stages form at the new level are handed to the new state for a
    report on it; those handed to `state` are released first, read or not,
    since no stage reads them."""
    state.handed.clear()
    f_scalar = f_e = f_u = None
    if forcing is not None:
        f_rho, f_b, f_e, f_u = forcing.at(state.t)
        f_scalar = np.stack([f_rho, f_b])

    rho_new, b_new = advance_scalar(state, reg.epsilon, dt, f_scalar)
    # both advances read grad rho_new; form it once
    grho = gradient(rho_new)
    theta_new, info = advance_temperature(
        state, reg, p, dt, rho_new, b_new, grho, f_e
    )
    u_new, momentum = advance_momentum(
        state, reg, p, dt, rho_new, b_new, theta_new, grho, f_u
    )

    handed = {("grad_rho",): (None, grho), **info.terms, **momentum.terms}
    new_state = State(
        state.t + dt,
        rho_new,
        b_new,
        theta_new,
        u_new,
        {"theta": state.floor_violations.get("theta", 0) + info.floor_hits},
        handed,
    )
    new_state.validate_positive()

    source = handed[("heat_source", reg)][1]
    source_rate = float(source.sum() * state.grid.weight)
    report = StepReport(
        t=new_state.t,
        dt=dt,
        newton_iterations=info.iterations,
        newton_residual=info.residual,
        theta_floor_hits=info.floor_hits,
        cfl_limit=state.workspace.cfl_limit,
        source_rate=source_rate,
        krylov_iterations=info.krylov_iterations,
        line_search_backtracks=info.line_search_backtracks,
        momentum_krylov_iterations=momentum.krylov_iterations,
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
    measure only the spatial (variational-crime) defects.  The terms the
    step that produced the state handed on are read, not formed again.
    """
    grid = state.grid
    basis = state.u.basis
    if basis is None:
        raise StepFailure("tendencies require a velocity with a basis")
    rho, b, th = state.rho.values, state.b.values, state.theta.values

    f_e = f_u = None
    uw = state.workspace
    rates_cc = -uw.scalar_adv_cc - reg.epsilon * grid.k2_cc * uw.scalar_cc
    if forcing is not None:
        f_rho, f_b, f_e, f_u = forcing.at(state.t)
        rates_cc = rates_cc + np.stack([f_rho, f_b])
    rho_dot, b_dot = bwd2(rates_cc, (COS, COS))

    terms = state_terms(state, reg, p)
    rhoe_dot = (
        -uw.energy(th, p)[1]
        + uw.term(("kirchhoff_laplacian", reg, p), th,
                  lambda: _kirchhoff_laplacian(th, grid, reg, p))
        + terms.heating
        + terms.source
    )
    if f_e is not None:
        rhoe_dot = rhoe_dot + f_e

    n = basis.n
    p_tot = uw.term(("momentum_pressure", reg, p), th,
                    lambda: momentum_pressure(rho, b, th, reg, p))
    rhs = _momentum_load(uw, p_tot, terms.grad_rho, reg)
    if f_u is not None:
        rhs = rhs + f_u
    # d/dt (M c) = rhs - V c, so M c_dot = rhs - V c - dM/dt c with
    # dM/dt = M(rho_dot)
    if _matrix_free(basis):
        rhs = rhs - _operator_load(state.u, rho_dot, p.mu(th))
        c_dot, _ = _complex_solve(basis, rho, None, rhs,
                                  f"momentum tendency mass solve at t = {state.t:g}")
    else:
        c = state.u.coeffs.reshape(2, n)
        viscous = uw.term(("viscous", p), th, lambda: _viscous_matrix(th, basis, p))
        vz = viscous @ (c[0] + 1j * c[1])
        rhs = rhs.reshape(2, n) - np.stack([vz.real, vz.imag])
        rhs -= c @ _mass_matrix(rates_cc[0], basis)
        c_dot = np.linalg.solve(uw.mass, rhs.T).T.ravel()
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
        state, rep = step(state, reg, p, schedule.dt, forcing=forcing)
        reports.append(rep)
        if (k + 1) % schedule.snapshot_stride == 0 or k + 1 == schedule.n_steps:
            states.append(state.copy())
        if diag_fn is not None and (k + 1) % diagnostics_every == 0:
            diags.append(diag_fn(state, reg, p))
    return Trajectory(
        states, reports, diags, schedule.dt, schedule.snapshot_stride, reg, p
    )

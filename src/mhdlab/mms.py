"""Manufactured solutions and residual forcings for order verification.

A manufactured state is built from separable factors with hand-coded
first and second derivatives: cosine modes for exactly representable
fields and a Poisson-kernel factor (geometric coefficient decay r^k)
whose truncation error stays measurable across desk-scale grids, which is
what makes a spatial-order study meaningful for a spectral method.  The
velocity is a combination of Galerkin basis modes so it lies in the
discrete velocity space exactly.

Forcings are the strong-form residuals of the regularized system
evaluated pointwise from the analytic derivatives; adding them to the
solver makes the manufactured state an exact solution, so the measured
deviation isolates discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisError, DomainError
from .grid import (
    COS,
    GalerkinBasis,
    Grid,
    ScalarField,
    VectorField,
    fwd2,
    galerkin_load,
)
from .solver import (
    InitialData,
    RegParams,
    Schedule,
    State,
    Terms,
    momentum_pressure,
    rho_gradient_coupling,
    run,
)
from .thermo import EosParams, kappa_delta, rho_e, rho_e_drho, rho_e_dtheta

__all__ = [
    "CosineFactor",
    "PoissonFactor",
    "ConstantFactor",
    "TimeFactor",
    "SeparableField",
    "ModalVelocity",
    "ManufacturedSolution",
    "manufactured_forcing",
    "MmsForcing",
    "standard_smooth_solution",
    "spectral_probe_solution",
    "spatial_order_study",
    "temporal_order_study",
]


class ConstantFactor:
    """Factor identically one."""

    def tables(self, coord, length):
        one = np.ones_like(coord)
        zero = np.zeros_like(coord)
        return one, zero, zero


class CosineFactor:
    """cos(k pi x / L); zero normal derivative at both walls."""

    def __init__(self, k: int):
        self.k = int(k)

    def tables(self, coord, length):
        a = self.k * np.pi / length
        c, s = np.cos(a * coord), np.sin(a * coord)
        return c, -a * s, -a * a * c


class PoissonFactor:
    """Normalized Poisson kernel in cos(pi x/L), coefficients ~ r^k.

    W(s) = (1-r^2)/(1-2r cos s + r^2) has cosine coefficients 2 r^k; the
    returned factor is (W-1)(1-r)/(2r), bounded by 1 in magnitude, with
    zero normal derivative at the walls.
    """

    def __init__(self, r: float):
        if not 0.0 < r < 1.0:
            raise DomainError(f"Poisson factor needs 0 < r < 1, got {r}")
        self.r = r

    def tables(self, coord, length):
        r = self.r
        s = np.pi * coord / length
        ds = np.pi / length
        cs, sn = np.cos(s), np.sin(s)
        d = 1.0 - 2.0 * r * cs + r * r
        w = (1.0 - r * r) / d
        w1 = -(1.0 - r * r) * 2.0 * r * sn / d**2  # dW/ds
        w2 = -(1.0 - r * r) * 2.0 * r * (cs * d - 4.0 * r * sn * sn) / d**3
        scale = (1.0 - r) / (2.0 * r)
        return scale * (w - 1.0), scale * w1 * ds, scale * w2 * ds * ds


@dataclass(frozen=True)
class TimeFactor:
    """tau(t) = 1 + amp*sin(omega t); amp = 0 gives a steady field."""

    amp: float = 0.0
    omega: float = 0.0

    def value(self, t):
        return 1.0 + self.amp * np.sin(self.omega * t)

    def rate(self, t):
        return self.amp * self.omega * np.cos(self.omega * t)


class SeparableField:
    """f(t,x,y) = c0 + amp * tau(t) * X(x) * Y(y) with analytic derivatives."""

    def __init__(self, c0, amp, xfactor, yfactor, time=TimeFactor()):
        self.c0 = float(c0)
        self.amp = float(amp)
        self.xfactor = xfactor
        self.yfactor = yfactor
        self.time = time
        self._grid = None

    def bind(self, grid: Grid):
        if self._grid is grid:
            return
        x0, x1, x2 = self.xfactor.tables(grid.X, grid.lx)
        y0, y1, y2 = self.yfactor.tables(grid.Y, grid.ly)
        self._xy = (x0 * y0, x1 * y0, x0 * y1, x2 * y0, x0 * y2)
        self._grid = grid

    def value(self, t, grid):
        self.bind(grid)
        return self.c0 + self.amp * self.time.value(t) * self._xy[0]

    def dt(self, t, grid):
        self.bind(grid)
        return self.amp * self.time.rate(t) * self._xy[0]

    def dx(self, t, grid):
        self.bind(grid)
        return self.amp * self.time.value(t) * self._xy[1]

    def dy(self, t, grid):
        self.bind(grid)
        return self.amp * self.time.value(t) * self._xy[2]

    def dxx(self, t, grid):
        self.bind(grid)
        return self.amp * self.time.value(t) * self._xy[3]

    def dyy(self, t, grid):
        self.bind(grid)
        return self.amp * self.time.value(t) * self._xy[4]

    def scaled(self, factor: float) -> "SeparableField":
        return SeparableField(
            self.c0 * factor, self.amp * factor, self.xfactor, self.yfactor, self.time
        )


class ModalVelocity:
    """Velocity from sine-mode pairs, component-wise; lies in the basis span.

    modes: list of (component, k, l, amplitude).
    """

    def __init__(self, modes, time=TimeFactor()):
        self.modes = list(modes)
        self.time = time
        self._grid = None

    def bind(self, grid: Grid):
        if self._grid is grid:
            return
        zero = np.zeros(grid.shape)
        tabs = {name: [zero.copy(), zero.copy()] for name in ("v", "dx", "dy")}
        for comp, k, l, amp in self.modes:
            ax, ay = k * np.pi / grid.lx, l * np.pi / grid.ly
            sx, cx = np.sin(ax * grid.X), np.cos(ax * grid.X)
            sy, cy = np.sin(ay * grid.Y), np.cos(ay * grid.Y)
            tabs["v"][comp] += amp * sx * sy
            tabs["dx"][comp] += amp * ax * cx * sy
            tabs["dy"][comp] += amp * ay * sx * cy
        self._tabs = tabs
        self._grid = grid

    def _get(self, name, t, grid):
        self.bind(grid)
        tau = self.time.value(t)
        return tau * self._tabs[name][0], tau * self._tabs[name][1]

    def value(self, t, grid):
        return self._get("v", t, grid)

    def dt(self, t, grid):
        self.bind(grid)
        rate = self.time.rate(t)
        return rate * self._tabs["v"][0], rate * self._tabs["v"][1]

    def jacobian(self, t, grid):
        """(u1x, u1y, u2x, u2y) analytic."""
        dx1, dx2 = self._get("dx", t, grid)
        dy1, dy2 = self._get("dy", t, grid)
        return dx1, dy1, dx2, dy2

    def coeffs(self, t, basis: GalerkinBasis):
        c = np.zeros(2 * basis.n)
        tau = self.time.value(t)
        for comp, k, l, amp in self.modes:
            try:
                m = basis.modes.index((k, l))
            except ValueError:
                raise BasisError(
                    f"manufactured velocity mode {(k, l)} is outside the basis"
                ) from None
            c[comp * basis.n + m] = tau * amp
        return c


@dataclass
class ManufacturedSolution:
    rho: SeparableField
    theta: SeparableField
    b: SeparableField
    u: ModalVelocity

    def state_fields(self, t, grid: Grid):
        rho = self.rho.value(t, grid)
        th = self.theta.value(t, grid)
        b = self.b.value(t, grid)
        u1, u2 = self.u.value(t, grid)
        return rho, u1, u2, b, th

    def initial_data(self, grid: Grid) -> InitialData:
        rho, u1, u2, b, th = self.state_fields(0.0, grid)
        return InitialData(
            ScalarField(grid, rho),
            ScalarField(grid, b),
            ScalarField(grid, th),
            VectorField(grid, u1, u2),
        )

    def errors(self, state: State):
        """Relative L2 errors of each field against the exact solution."""
        grid = state.grid
        w = grid.weight
        rho, u1, u2, b, th = self.state_fields(state.t, grid)

        def norm(arr):
            return float(np.sqrt((arr**2).sum() * w))

        u_ref = max(norm(u1) + norm(u2), 1.0)
        return {
            "rho": norm(state.rho.values - rho) / norm(rho),
            "b": norm(state.b.values - b) / norm(b),
            "theta": norm(state.theta.values - th) / norm(th),
            "u": (norm(state.u.vx - u1) + norm(state.u.vy - u2)) / u_ref,
        }

    def combined_error(self, state: State) -> float:
        e = self.errors(state)
        return float(np.sqrt(sum(v * v for v in e.values())))


class MmsForcing:
    """Strong-form residual forcings; caches when the solution is steady."""

    def __init__(self, ms: ManufacturedSolution, reg: RegParams, p: EosParams,
                 grid: Grid, basis: GalerkinBasis):
        for field in (ms.rho, ms.theta, ms.b):
            field.bind(grid)
        ms.u.bind(grid)
        ms.u.coeffs(0.0, basis)  # raises if a mode is outside the basis
        self.ms = ms
        self.reg = reg
        self.p = p
        self.grid = grid
        self.basis = basis
        self._steady = (
            ms.rho.time.amp == 0.0
            and ms.theta.time.amp == 0.0
            and ms.b.time.amp == 0.0
            and ms.u.time.amp == 0.0
        )
        self._cache = None

    def at(self, t):
        if self._steady and self._cache is not None:
            return self._cache
        out = self._evaluate(t)
        if self._steady:
            self._cache = out
        return out

    def _evaluate(self, t):
        ms, reg, p, grid = self.ms, self.reg, self.p, self.grid
        G = reg.Gamma
        rho = ms.rho.value(t, grid)
        rho_t = ms.rho.dt(t, grid)
        rho_x, rho_y = ms.rho.dx(t, grid), ms.rho.dy(t, grid)
        lap_rho = ms.rho.dxx(t, grid) + ms.rho.dyy(t, grid)
        b = ms.b.value(t, grid)
        b_t = ms.b.dt(t, grid)
        b_x, b_y = ms.b.dx(t, grid), ms.b.dy(t, grid)
        lap_b = ms.b.dxx(t, grid) + ms.b.dyy(t, grid)
        th = ms.theta.value(t, grid)
        th_t = ms.theta.dt(t, grid)
        th_x, th_y = ms.theta.dx(t, grid), ms.theta.dy(t, grid)
        lap_th = ms.theta.dxx(t, grid) + ms.theta.dyy(t, grid)
        u1, u2 = ms.u.value(t, grid)
        u1_t, u2_t = ms.u.dt(t, grid)

        if not (np.all(rho > 0.0) and np.all(th > 0.0) and np.all(b > 0.0)):
            raise DomainError("manufactured fields must stay strictly positive")
        terms = Terms(
            rho, b, th, ms.u.jacobian(t, grid), VectorField(grid, rho_x, rho_y),
            VectorField(grid, b_x, b_y), None, reg, p,
        )
        div_u = terms.div_u

        g_rho = rho_t + rho_x * u1 + rho_y * u2 + rho * div_u \
            - reg.epsilon * lap_rho
        g_b = b_t + b_x * u1 + b_y * u2 + b * div_u - reg.epsilon * lap_b

        # internal energy equation
        d_rhoe_drho = rho_e_drho(rho, th, p)
        d_rhoe_dth = rho_e_dtheta(rho, th, p)
        rhoe = rho_e(rho, th, p)
        rhoe_t = d_rhoe_drho * rho_t + d_rhoe_dth * th_t
        rhoe_x = d_rhoe_drho * rho_x + d_rhoe_dth * th_x
        rhoe_y = d_rhoe_drho * rho_y + d_rhoe_dth * th_y
        # div(kappa_delta grad theta), with kappa_delta' by hand
        kappa_d_prime = (
            2.0 * p.kappa2 * th
            + 3.0 * p.kappa3 * th**2
            + reg.delta * (G * th ** (G - 1.0) - th**-2)
        )
        diff_th = kappa_d_prime * (th_x**2 + th_y**2) \
            + kappa_delta(th, p, reg.delta, G) * lap_th
        g_e = (
            rhoe_t
            + rhoe_x * u1 + rhoe_y * u2 + rhoe * div_u
            - diff_th
            - terms.heating
            - terms.source
        )

        # momentum forcing, assembled through the discrete quadrature of the
        # weak-form integrands (the same load the stepper computes), so the
        # midpoint rule's treatment of odd-parity integrands cancels and the
        # exact state is a discrete solution up to spectral-tail terms
        p_tot = momentum_pressure(rho, b, th, reg, p)
        t11 = rho * u1 * u1
        t12 = rho * u1 * u2
        t22 = rho * u2 * u2
        mom_t = np.stack([rho_t * u1 + rho * u1_t, rho_t * u2 + rho * u2_t])
        # S : grad(phi) for phi = phi_q e_i uses D(phi) = +/- d_i phi and
        # A12(phi) = d_(3-i) phi, mirroring the viscous assembly
        s_d, s_a = terms.stress

        f_rho, f_b = fwd2(np.stack([g_rho, g_b]), (COS, COS))
        g_u = galerkin_load(
            self.basis,
            mom_t + rho_gradient_coupling(terms.grad_rho, terms.grads_u, reg),
            -np.stack([t11 + p_tot - s_d, t12 - s_a]),
            -np.stack([t12 - s_a, t22 + p_tot + s_d]),
        )
        return f_rho, f_b, g_e, g_u


def manufactured_forcing(ms: ManufacturedSolution, reg: RegParams, p: EosParams,
                         grid: Grid, basis: GalerkinBasis) -> MmsForcing:
    """Forcings that make `ms` an exact solution of the regularized system."""
    return MmsForcing(ms, reg, p, grid, basis)


def _order_study(ms: ManufacturedSolution, reg: RegParams, p: EosParams, cases,
                 t_final: float):
    """Run the forced solver once per (grid, dt) case; returns (errors, orders)
    with the orders log2 of consecutive error ratios."""
    errors = []
    for grid, dt in cases:
        basis = GalerkinBasis(grid, reg.n)
        traj = run(
            ms.initial_data(grid), reg, p,
            Schedule(t_final=t_final, dt=dt, snapshot_stride=10**9),
            forcing=manufactured_forcing(ms, reg, p, grid, basis),
            diagnostics_every=0, basis=basis,
        )
        errors.append(ms.combined_error(traj.final()))
    orders = [
        float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)
    ]
    return errors, orders


def spatial_order_study(
    reg: RegParams,
    p: EosParams,
    grid_sizes=(32, 64, 128),
    t_final: float = 0.5,
    dt: float = 2e-3,
    r: float = 0.8,
):
    """Grid-doubling study against the steady spectral probe.

    Returns (errors, orders); the solution is steady, so the discrete fixed
    point is independent of dt and the measured error is purely spatial.
    """
    cases = [(Grid(n_side, n_side, 1.0, 1.0), dt) for n_side in grid_sizes]
    return _order_study(spectral_probe_solution(r), reg, p, cases, t_final)


def temporal_order_study(
    reg: RegParams,
    p: EosParams,
    grid_size: int = 32,
    dts=(8e-3, 4e-3, 2e-3),
    t_final: float = 0.4,
):
    """dt-halving study against the unsteady low-mode solution.

    Returns (errors, orders); the fields are exactly representable, so the
    spatial error is negligible and the measured order is temporal.
    """
    grid = Grid(grid_size, grid_size, 1.0, 1.0)
    cases = [(grid, dt) for dt in dts]
    return _order_study(standard_smooth_solution(unsteady=True), reg, p, cases, t_final)


def standard_smooth_solution(unsteady: bool = True) -> ManufacturedSolution:
    """Low-mode trig solution, exactly representable on any grid >= 16^2.

    Spatial discretization error is negligible for it, which isolates the
    temporal order.
    """
    tf = TimeFactor(0.4, 2.0 * np.pi) if unsteady else TimeFactor()
    tu = TimeFactor(0.5, 3.0) if unsteady else TimeFactor()
    rho = SeparableField(1.0, 0.08, CosineFactor(1), CosineFactor(1), tf)
    theta = SeparableField(1.0, 0.06, CosineFactor(1), ConstantFactor(), tf)
    b = rho.scaled(2.0)
    u = ModalVelocity([(0, 1, 1, 0.05), (1, 2, 1, 0.03)], tu)
    return ManufacturedSolution(rho, theta, b, u)


def spectral_probe_solution(r: float = 0.85) -> ManufacturedSolution:
    """Steady solution with geometric spectral tails (coefficients ~ r^k).

    Its truncation error decays like r^N under grid refinement, so observed
    spatial orders under grid doubling are large but bounded away from the
    round-off floor on 32^2 .. 128^2 grids.
    """
    rho = SeparableField(1.0, 0.1, PoissonFactor(r), PoissonFactor(r))
    theta = SeparableField(1.0, 0.08, PoissonFactor(r), ConstantFactor())
    b = rho.scaled(1.5)
    u = ModalVelocity([(0, 1, 1, 0.04), (1, 1, 2, 0.02)])
    return ManufacturedSolution(rho, theta, b, u)

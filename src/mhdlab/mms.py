"""Manufactured solutions and residual forcings for order verification.

A manufactured state is built from separable factors with hand-coded
first and second derivatives: cosine modes for exactly representable
fields and a Poisson-kernel factor (geometric coefficient decay r^k)
whose truncation error stays measurable across desk-scale grids, which is
what makes a spatial-order study meaningful for a spectral method.  The
velocity is a combination of Galerkin basis modes so it lies in the
discrete velocity space exactly.  Each exact field gives its value and
derivatives in one `jet(t, grid)` call: (f, f_t, f_x, f_y, Lap f) for a
scalar, (u, u_t, grad u) for the velocity.

Forcings are the strong-form residuals of the regularized system
evaluated pointwise from the jets; adding them to the solver makes the
manufactured state an exact solution, so the measured deviation isolates
discretization error.  `MmsForcing.at(t)` returns three parts: the
stacked cosine coefficients of the (rho, b) forcings, the nodal
internal-energy forcing and the Galerkin momentum load.  The order studies
run their forced rungs through `solver.run_ladder`.
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
    State,
    Terms,
    log2_orders,
    momentum_flux,
    momentum_pressure,
    rho_gradient_coupling,
    run_ladder,
)
from .thermo import (
    EosParams, kappa_delta, kappa_delta_dtheta, rho_e, rho_e_drho, rho_e_dtheta,
)

__all__ = [
    "CosineFactor",
    "PoissonFactor",
    "ConstantFactor",
    "TimeFactor",
    "SeparableField",
    "ModalVelocity",
    "ManufacturedSolution",
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

    def jet(self, t, grid: Grid):
        """(f, d_t f, d_x f, d_y f, Lap f) at time t on `grid`."""
        if self._grid is not grid:
            x0, x1, x2 = self.xfactor.tables(grid.X, grid.lx)
            y0, y1, y2 = self.yfactor.tables(grid.Y, grid.ly)
            self._xy, self._grid = (x0 * y0, x1 * y0, x0 * y1, x2 * y0, x0 * y2), grid
        xy, a = self._xy, self.amp * self.time.value(t)
        return (self.c0 + a * xy[0], self.amp * self.time.rate(t) * xy[0],
                a * xy[1], a * xy[2], a * xy[3] + a * xy[4])

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

    def jet(self, t, grid: Grid):
        """((u1, u2), (d_t u1, d_t u2), (u1x, u1y, u2x, u2y)) at time t on
        `grid`, each a stacked array."""
        if self._grid is not grid:
            v, jac = np.zeros((2,) + grid.shape), np.zeros((4,) + grid.shape)
            for comp, k, l, amp in self.modes:
                ax, ay = k * np.pi / grid.lx, l * np.pi / grid.ly
                sx, cx = np.sin(ax * grid.X), np.cos(ax * grid.X)
                sy, cy = np.sin(ay * grid.Y), np.cos(ay * grid.Y)
                v[comp] += amp * sx * sy
                jac[2 * comp] += amp * ax * cx * sy
                jac[2 * comp + 1] += amp * ay * sx * cy
            self._tabs, self._grid = (v, jac), grid
        (v, jac), tau = self._tabs, self.time.value(t)
        return tau * v, self.time.rate(t) * v, tau * jac


@dataclass
class ManufacturedSolution:
    rho: SeparableField
    theta: SeparableField
    b: SeparableField
    u: ModalVelocity

    def state_fields(self, t, grid: Grid):
        rho, b, th = (f.jet(t, grid)[0] for f in (self.rho, self.b, self.theta))
        u1, u2 = self.u.jet(t, grid)[0]
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
    """Strong-form residual forcings that make `ms` an exact solution:
    `at(t)` returns (scalar_cc, energy, momentum), the cosine coefficients of
    the (rho, b) forcings stacked, the nodal internal-energy forcing and the
    Galerkin momentum load; cached when the solution is steady."""

    def __init__(self, ms: ManufacturedSolution, reg: RegParams, p: EosParams,
                 grid: Grid, basis: GalerkinBasis):
        for _, k, l, _ in ms.u.modes:
            if (k, l) not in basis.modes:
                raise BasisError(
                    f"manufactured velocity mode {(k, l)} is outside the basis")
        self.ms = ms
        self.reg = reg
        self.p = p
        self.grid = grid
        self.basis = basis
        self._steady = all(f.time.amp == 0.0 for f in (ms.rho, ms.theta, ms.b, ms.u))
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
        rho, rho_t, rho_x, rho_y, lap_rho = ms.rho.jet(t, grid)
        b, b_t, b_x, b_y, lap_b = ms.b.jet(t, grid)
        th, th_t, th_x, th_y, lap_th = ms.theta.jet(t, grid)
        u, u_t, grads_u = ms.u.jet(t, grid)
        u1, u2 = u

        if not (np.all(rho > 0.0) and np.all(th > 0.0) and np.all(b > 0.0)):
            raise DomainError("manufactured fields must stay strictly positive")
        terms = Terms(
            rho, b, th, grads_u, VectorField(grid, rho_x, rho_y),
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
        # div(kappa_delta grad theta)
        diff_th = kappa_delta_dtheta(th, p, reg.delta, G) * (th_x**2 + th_y**2) \
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
        fx, fy = momentum_flux((rho * u1 * u1, rho * u1 * u2, rho * u2 * u2),
                               momentum_pressure(rho, b, th, reg, p), terms.stress)
        g_u = galerkin_load(
            self.basis,
            rho_t * u + rho * u_t
            + rho_gradient_coupling(terms.grad_rho, terms.grads_u, reg),
            -fx, -fy,
        )
        return fwd2(np.stack([g_rho, g_b]), (COS, COS)), g_e, g_u


def _forced_rung(ms: ManufacturedSolution, reg: RegParams, p: EosParams,
                 grid: Grid, t_final: float, dt: float):
    """A `run_ladder` rung: `ms` on `grid`, forced to be an exact solution."""
    basis = GalerkinBasis(grid, reg.n)
    return (ms.initial_data(grid), reg, p, t_final, dt,
            MmsForcing(ms, reg, p, grid, basis), basis)


def _measured_orders(ms: ManufacturedSolution, rungs):
    """(errors against `ms` of each rung's final state, log2 orders)."""
    finals, error = run_ladder(rungs)
    if error is not None:
        raise error
    errors = [ms.combined_error(s) for s in finals]
    return errors, log2_orders(errors)


def spatial_order_study(reg: RegParams, p: EosParams, grid_sizes=(32, 64, 128)):
    """Grid-doubling study against the steady spectral probe, to t = 0.5
    in steps of 2e-3.

    Returns (errors, orders); the solution is steady, so the discrete fixed
    point is independent of dt and the measured error is purely spatial.
    """
    if len(grid_sizes) < 2:
        raise DomainError(f"an order study needs two grids or more, got {grid_sizes}")
    ms = spectral_probe_solution()
    return _measured_orders(ms, (
        _forced_rung(ms, reg, p, Grid(n_side, n_side, 1.0, 1.0), 0.5, 2e-3)
        for n_side in grid_sizes
    ))


def temporal_order_study(reg: RegParams, p: EosParams):
    """dt-halving study (8e-3, 4e-3, 2e-3) against the unsteady low-mode
    solution on a 32^2 grid, to t = 0.4.

    Returns (errors, orders); the fields are exactly representable, so the
    spatial error is negligible and the measured order is temporal.
    """
    ms = standard_smooth_solution(unsteady=True)
    grid = Grid(32, 32, 1.0, 1.0)
    return _measured_orders(ms, (
        _forced_rung(ms, reg, p, grid, 0.4, dt) for dt in (8e-3, 4e-3, 2e-3)
    ))


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


def spectral_probe_solution() -> ManufacturedSolution:
    """Steady solution with geometric spectral tails (coefficients ~ r^k, r = 0.8).

    Its truncation error decays like r^N under grid refinement, so observed
    spatial orders under grid doubling are large.  At c09's regularization
    the 32^2 and 64^2 errors are truncation errors, but the 128^2 error
    (about 6e-15) sits at the round-off floor, so the 64 -> 128 order is
    measured against round-off, not truncation.
    """
    r = 0.8
    rho = SeparableField(1.0, 0.1, PoissonFactor(r), PoissonFactor(r))
    theta = SeparableField(1.0, 0.08, PoissonFactor(r), ConstantFactor())
    b = rho.scaled(1.5)
    u = ModalVelocity([(0, 1, 1, 0.04), (1, 1, 2, 0.02)])
    return ManufacturedSolution(rho, theta, b, u)

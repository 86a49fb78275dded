"""Test oracles for the weak-form and forcing terms built from the term layer.

These are the hand-expanded integrands that `diagnostics.weak_residuals`
and `mms.MmsForcing` wrote out before they took the momentum flux and the
half-delta entropy production from `solver` (`momentum_flux`,
`Terms.entropy_production`); the new code is checked against them.
`weak_residuals(trajectory)` tests against its own fixed table of nodal
test arrays; the weak-form oracle reads that same table through
`diagnostics._weak_tests`, so it checks the expanded integrands, not the
test functions.
"""

from collections import defaultdict

import numpy as np

from mhdlab.diagnostics import _ENTROPY_TESTS, _weak_tests
from mhdlab.grid import VectorField, galerkin_load
from mhdlab.solver import Terms, momentum_pressure, rho_gradient_coupling, state_terms
from mhdlab.thermo import gibbs_bracket, kappa_delta, rho_s

_np_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def weak_entropy_momentum_table(trajectory):
    """The ("entropy", name) and ("momentum", name) entries of the weak
    residual table, with sigma written out in its half-delta form and the
    momentum integrand expanded by hand; the tests are the same nodal
    arrays, read through `_weak_tests`."""
    states = trajectory.states
    reg, p = trajectory.reg, trajectory.eos
    grid = states[0].grid
    scalar, vector = _weak_tests(grid)
    entropy_tests = {name: scalar[name] for name in _ENTROPY_TESTS}
    times = [s.t for s in states]
    t_end = times[-1]
    w = grid.weight
    series = defaultdict(list)
    for s in states:
        psi, dpsi = (1.0 - s.t / t_end) ** 2, -2.0 * (1.0 - s.t / t_end) / t_end
        rho, b, th = s.rho.values, s.b.values, s.theta.values
        u1, u2 = s.u.vx, s.u.vy
        t = state_terms(s, reg, p)
        grho, gth = t.grad_rho, t.grad_theta
        u1x, u1y, u2x, u2y = t.grads_u
        mu = p.mu(th)
        s11, s12 = mu * (u1x - u2y), mu * (u1y + u2x)
        p_tot = momentum_pressure(rho, b, th, reg, p)
        rhos = rho_s(rho, th, p)
        kappa, kd = p.kappa(th), kappa_delta(th, p, reg.delta, reg.Gamma)
        cond = kd / th
        bracket = gibbs_bracket(rho, th, p)
        sigma_half = (
            t.shear + 0.5 * (kappa + kd) / th * (gth.vx**2 + gth.vy**2)
            + reg.delta / th**2
        ) / th + reg.epsilon * t.gb2 / th + 0.5 * t.art_heat / th
        eps1, eps2 = rho_gradient_coupling(grho, t.grads_u, reg)
        for name, (chi, gx, gy) in entropy_tests.items():
            integrand = (
                dpsi * rhos * chi
                + psi * rhos * (u1 * gx + u2 * gy)
                - psi * cond * (gth.vx * gx + gth.vy * gy)
                - psi * reg.epsilon * bracket / th
                * (grho.vx * gx + grho.vy * gy)
                + psi * chi * (sigma_half - reg.epsilon * th**4)
            )
            series[("entropy", name)].append(float(integrand.sum() * w))
        for name, (chi, (c1x, c1y, c2x, c2y)) in vector.items():
            s_dot_gchi = s11 * (c1x - c2y) + s12 * (c1y + c2x)
            conv = rho * (
                u1 * (u1 * c1x + u2 * c1y) + u2 * (u1 * c2x + u2 * c2y)
            )
            integrand = (
                dpsi * rho * (u1 * chi[0] + u2 * chi[1])
                + psi * conv
                + psi * p_tot * (c1x + c2y)
                - psi * s_dot_gchi
                - psi * (eps1 * chi[0] + eps2 * chi[1])
            )
            series[("momentum", name)].append(float(integrand.sum() * w))

    results = {key: float(_np_trapezoid(np.asarray(v), np.asarray(times)))
               for key, v in series.items()}
    s0 = states[0]
    psi0 = (1.0 - s0.t / t_end) ** 2
    rhos0 = rho_s(s0.rho.values, s0.theta.values, p)
    for name, (chi, _, _) in entropy_tests.items():
        results[("entropy", name)] += psi0 * float((rhos0 * chi).sum() * w)
    for name, (chi, _) in vector.items():
        results[("momentum", name)] += psi0 * float(
            (s0.rho.values * (s0.u.vx * chi[0] + s0.u.vy * chi[1])).sum() * w
        )
    return results


def mms_momentum_forcing(forcing, t):
    """The momentum forcing of an `MmsForcing` at time t, with the flux rows
    rho u_i u_j + p_tot delta_ij - S_ij written out by hand."""
    ms, reg, p, grid = forcing.ms, forcing.reg, forcing.p, forcing.grid
    rho, rho_t, rho_x, rho_y, _ = ms.rho.jet(t, grid)
    b, _, b_x, b_y, _ = ms.b.jet(t, grid)
    th = ms.theta.jet(t, grid)[0]
    (u1, u2), (u1_t, u2_t), grads_u = ms.u.jet(t, grid)
    terms = Terms(
        rho, b, th, grads_u, VectorField(grid, rho_x, rho_y),
        VectorField(grid, b_x, b_y), None, reg, p,
    )
    u1x, u1y, u2x, u2y = terms.grads_u
    mu = p.mu(th)
    s_d, s_a = mu * (u1x - u2y), mu * (u1y + u2x)
    p_tot = momentum_pressure(rho, b, th, reg, p)
    t11 = rho * u1 * u1
    t12 = rho * u1 * u2
    t22 = rho * u2 * u2
    mom_t = np.stack([rho_t * u1 + rho * u1_t, rho_t * u2 + rho * u2_t])
    return galerkin_load(
        forcing.basis,
        mom_t + rho_gradient_coupling(terms.grad_rho, terms.grads_u, reg),
        -np.stack([t11 + p_tot - s_d, t12 - s_a]),
        -np.stack([t12 - s_a, t22 + p_tot + s_d]),
    )

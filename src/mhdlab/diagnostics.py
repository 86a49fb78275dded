"""Numerical certification of the balance laws and inequalities.

A `DiagnosticsReport` collects, for one time slice, every conserved total,
the nonnegative dissipation functional, the domination envelope of b/rho and
the instantaneous defects of the total-energy and entropy balances (computed
from the semi-discrete tendencies, so an exact equilibrium reports zeros).
Windowed residuals (centered differences over stored snapshots), weak-form
residual tables, cut-off renormalization checks and empirical constants for
the Korn / Poincare / coercivity inequalities live alongside.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from . import solver as _solver
from .errors import DomainError
from .grid import (
    COS,
    SIN,
    Grid,
    ScalarField,
    VectorField,
    bwd2,
    deriv_nodal,
    gradient,
    laplacian_neumann,
    velocity_gradient,
)
from .solver import (
    RegParams,
    State,
    Terms,
    artificial_energy,
    artificial_energy_rate,
    momentum_pressure,
    rho_gradient_coupling,
    state_terms,
)
from .thermo import (
    EosParams,
    gibbs_bracket,
    kappa_delta,
    rho_e,
    rho_e_drho,
    rho_e_dtheta,
    rho_s,
    rho_s_drho,
    rho_s_dtheta,
)

__all__ = [
    "DiagnosticsReport",
    "TestFunction",
    "report",
    "sigma_nodal",
    "energy_total",
    "energy_defect",
    "mechanical_energy_total",
    "mechanical_energy_defect",
    "entropy_balance_residual",
    "weak_residuals",
    "canonical_test_functions",
    "cutoff_T",
    "cutoff_T_prime",
    "cutoff_L",
    "renormalized_residual",
    "inequality_constants",
    "write_diagnostics_csv",
]


@dataclass
class DiagnosticsReport:
    t: float
    mass_rho: float
    mass_b: float
    kinetic_energy: float
    magnetic_energy: float
    internal_energy_total: float
    artificial_energy: float
    total_energy: float
    entropy_total: float
    sigma_integral: float
    domination_min: float
    domination_max: float
    energy_balance_residual: float
    entropy_balance_residual: float
    helmholtz_functional: float
    floor_violations: int


CSV_COLUMNS = [f.name for f in dataclass_fields(DiagnosticsReport)]


def sigma_nodal(state: State, reg: RegParams, p: EosParams):
    """Nodal dissipation density; every term is a nonnegative product.

    1/theta * [ S:grad u + kappa_delta/theta |grad theta|^2 + delta/theta^2 ]
    + eps/theta |grad b|^2 + eps*delta/theta * gradient heating
    + eps/(rho*theta) dp_M/drho |grad rho|^2.
    """
    return state_terms(state, reg, p).sigma


def energy_total(state: State, reg: RegParams, p: EosParams) -> float:
    """Total energy including the artificial delta-terms."""
    internal = rho_e(state.rho.values, state.theta.values, p).sum() * state.grid.weight
    return mechanical_energy_total(state, reg, p) + float(internal)


def _entropy_production_terms(t: Terms, grid: Grid):
    """Production side of the pointwise entropy balance (full-delta form):
    sigma15 + eps*(Lap rho / theta)(theta*s - e - p/rho) - eps*theta^4."""
    rho, th, eps = t.rho, t.theta, t.reg.epsilon
    lap_rho = laplacian_neumann(ScalarField(grid, rho)).values
    gibbs_coupling = eps * lap_rho / th * gibbs_bracket(rho, th, t.p)
    return t.sigma15 + gibbs_coupling - eps * th**4


def report(state: State, reg: RegParams, p: EosParams) -> DiagnosticsReport:
    """One time slice of every certified quantity; pure in its inputs."""
    grid = state.grid
    w = grid.weight
    rho, b, th = state.rho.values, state.b.values, state.theta.values
    u2 = state.u.vx**2 + state.u.vy**2

    # the tendencies carry the pointwise terms of this state; sigma and the
    # entropy production are formed from them rather than rebuilt
    tend = _solver.tendencies(state, reg, p)

    mass_rho = float(rho.sum() * w)
    mass_b = float(b.sum() * w)
    kinetic = float((0.5 * rho * u2).sum() * w)
    magnetic = float((0.5 * b * b).sum() * w)
    internal = float(rho_e(rho, th, p).sum() * w)
    artificial = float(artificial_energy(rho, b, reg).sum() * w)
    total = kinetic + magnetic + internal + artificial
    entropy_tot = float(rho_s(rho, th, p).sum() * w)
    sigma_int = float(tend.terms.sigma.sum() * w)
    zeta = b / rho

    de_dt = float(
        (
            0.5 * tend.rho_dot * u2
            + rho * (state.u.vx * tend.u_dot.vx + state.u.vy * tend.u_dot.vy)
            + tend.rhoe_dot
            + b * tend.b_dot
            + artificial_energy_rate(rho, b, tend.rho_dot, tend.b_dot, reg)
        ).sum()
        * w
    )
    energy_res = de_dt - float(tend.terms.source.sum() * w)

    th_dot = (tend.rhoe_dot - rho_e_drho(rho, th, p) * tend.rho_dot) \
        / rho_e_dtheta(rho, th, p)
    rhos_dot = rho_s_drho(rho, th, p) * tend.rho_dot + rho_s_dtheta(rho, th, p) * th_dot
    entropy_res = float(
        (rhos_dot - _entropy_production_terms(tend.terms, grid)).sum() * w
    )

    return DiagnosticsReport(
        t=state.t,
        mass_rho=mass_rho,
        mass_b=mass_b,
        kinetic_energy=kinetic,
        magnetic_energy=magnetic,
        internal_energy_total=internal,
        artificial_energy=artificial,
        total_energy=total,
        entropy_total=entropy_tot,
        sigma_integral=sigma_int,
        domination_min=float(zeta.min()),
        domination_max=float(zeta.max()),
        energy_balance_residual=energy_res,
        entropy_balance_residual=entropy_res,
        helmholtz_functional=total - reg.theta_bar * entropy_tot,
        floor_violations=int(state.floor_violations.get("theta", 0)),
    )


def energy_defect(trajectory) -> float:
    """Run-level defect of the discrete total-energy identity.

    E(T) - E(0) - sum over steps of dt * (source rate at the new level);
    the source is accounted exactly as the stepper injects it, so the
    defect isolates the O(dt) coupling errors of the splitting.
    """
    reg, p = trajectory.reg, trajectory.eos
    e_final = energy_total(trajectory.states[-1], reg, p)
    e_init = energy_total(trajectory.states[0], reg, p)
    injected = sum(r.dt * r.source_rate for r in trajectory.step_reports)
    return e_final - e_init - injected


def mechanical_energy_total(state: State, reg: RegParams, p: EosParams) -> float:
    """Kinetic + magnetic + artificial energy (no internal part)."""
    rho, b = state.rho.values, state.b.values
    u2 = state.u.vx**2 + state.u.vy**2
    density = 0.5 * rho * u2 + 0.5 * b * b + artificial_energy(rho, b, reg)
    return float(density.sum() * state.grid.weight)


def mechanical_energy_defect(trajectory) -> float:
    """Run-level defect of the kinetic + magnetic + artificial identity.

    The identity balances the mechanical energy change against the time
    integral of S:grad u - p div u plus the eps and eps*delta gradient
    dissipations; needs snapshots at every step (stride 1).  First order
    in dt by construction of the splitting.
    """
    if trajectory.stride != 1:
        raise DomainError("mechanical defect needs snapshots at every step")
    reg, p = trajectory.reg, trajectory.eos
    states = trajectory.states
    e_final = mechanical_energy_total(states[-1], reg, p)
    e_init = mechanical_energy_total(states[0], reg, p)
    w = states[0].grid.weight
    drained = 0.0
    for s in states[1:]:
        drained += trajectory.dt * float(state_terms(s, reg, p).heating.sum() * w)
    return e_final - e_init + drained


def entropy_balance_residual(window, reg: RegParams, p: EosParams) -> float:
    """Centered-difference residual of the entropy balance over a window.

    Takes >= 3 consecutive equally spaced states; the time derivative of the
    total entropy is centered at the middle state and compared against the
    integrated production terms there (fluxes integrate to zero).
    """
    if len(window) < 3:
        raise DomainError("entropy residual needs a window of >= 3 states")
    mid = len(window) // 2
    before, center, after = window[mid - 1], window[mid], window[mid + 1]
    dt1 = center.t - before.t
    dt2 = after.t - center.t
    if not np.isclose(dt1, dt2, rtol=1e-10):
        raise DomainError("window states must be equally spaced in time")
    w = center.grid.weight
    s_after = float(rho_s(after.rho.values, after.theta.values, p).sum() * w)
    s_before = float(rho_s(before.rho.values, before.theta.values, p).sum() * w)
    ds_dt = (s_after - s_before) / (dt1 + dt2)
    production = _entropy_production_terms(state_terms(center, reg, p), center.grid)
    return ds_dt - float(production.sum() * w)


# ---------------------------------------------------------------------------
# weak-formulation residuals
# ---------------------------------------------------------------------------

@dataclass
class TestFunction:
    """Separable space-time test function with analytic derivatives.

    For scalar tests `spatial(x, y)` returns one array and `spatial_grad`
    returns (d/dx, d/dy); for vector tests both return pairs/quadruples
    ((chi1, chi2) and (chi1_x, chi1_y, chi2_x, chi2_y)).  The temporal
    factor vanishes at the comparison horizon; the default quadratic factor
    makes trapezoidal time quadrature of its derivative exact.
    """

    name: str
    spatial: object
    spatial_grad: object
    temporal: object
    dtemporal: object
    vector: bool = False
    compact_support: bool = False
    nonneg: bool = False
    space_constant: bool = False


def _quadratic_window(t_final):
    def psi(t):
        return (1.0 - t / t_final) ** 2

    def dpsi(t):
        return -2.0 * (1.0 - t / t_final) / t_final

    return psi, dpsi


def canonical_test_functions(grid: Grid, t_final: float):
    """The 12 canonical test functions used by the residual tables."""
    lx, ly = grid.lx, grid.ly
    psi, dpsi = _quadratic_window(t_final)
    ax, ay = np.pi / lx, np.pi / ly

    def cos_mode(kx, ky):
        def f(x, y):
            return np.cos(kx * ax * x) * np.cos(ky * ay * y)

        def g(x, y):
            cx, cy = np.cos(kx * ax * x), np.cos(ky * ay * y)
            sx, sy = np.sin(kx * ax * x), np.sin(ky * ay * y)
            return (-kx * ax * sx * cy, -ky * ay * cx * sy)

        return f, g

    def bump(x, y):
        return np.sin(ax * x) ** 4 * np.sin(ay * y) ** 4

    def bump_grad(x, y):
        sx, sy = np.sin(ax * x), np.sin(ay * y)
        cx, cy = np.cos(ax * x), np.cos(ay * y)
        return (
            4.0 * ax * sx**3 * cx * sy**4,
            4.0 * ay * sx**4 * sy**3 * cy,
        )

    tests = [
        TestFunction(
            "const",
            lambda x, y: np.ones_like(x),
            lambda x, y: (np.zeros_like(x), np.zeros_like(x)),
            psi,
            dpsi,
            nonneg=True,
            space_constant=True,
        )
    ]
    for name, (kx, ky) in [
        ("cosx", (1, 0)),
        ("cosy", (0, 1)),
        ("cosxy", (1, 1)),
        ("cos2x", (2, 0)),
        ("cos2y", (0, 2)),
    ]:
        f, g = cos_mode(kx, ky)
        tests.append(TestFunction(name, f, g, psi, dpsi))

    tests.append(TestFunction("bump", bump, bump_grad, psi, dpsi, nonneg=True))
    tests.append(
        TestFunction(
            "halfcos",
            lambda x, y: 0.5 * (1.0 + np.cos(ax * x)),
            lambda x, y: (-0.5 * ax * np.sin(ax * x), np.zeros_like(y)),
            psi,
            dpsi,
            nonneg=True,
        )
    )

    def vec_test(name, weight_fn, weight_grad, component):
        def f(x, y):
            wv = bump(x, y) * weight_fn(x, y)
            zero = np.zeros_like(wv)
            return (wv, zero) if component == 0 else (zero, wv)

        def g(x, y):
            bx, by = bump_grad(x, y)
            wx, wy = weight_grad(x, y)
            wv = weight_fn(x, y)
            dx = bx * wv + bump(x, y) * wx
            dy = by * wv + bump(x, y) * wy
            zero = np.zeros_like(dx)
            if component == 0:
                return (dx, dy, zero, zero)
            return (zero, zero, dx, dy)

        return TestFunction(
            name, f, g, psi, dpsi, vector=True, compact_support=True
        )

    one = (lambda x, y: 1.0, lambda x, y: (0.0, 0.0))
    cosx = (
        lambda x, y: np.cos(ax * x),
        lambda x, y: (-ax * np.sin(ax * x), 0.0),
    )
    tests.append(vec_test("mom_x", one[0], one[1], 0))
    tests.append(vec_test("mom_y", one[0], one[1], 1))
    tests.append(vec_test("mom_xcos", cosx[0], cosx[1], 0))
    tests.append(vec_test("mom_ycos", cosx[0], cosx[1], 1))
    return tests


_np_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _trapz(values, times):
    return float(_np_trapezoid(np.asarray(values), np.asarray(times)))


def weak_residuals(trajectory, tests, p: EosParams, reg: RegParams):
    """Residuals of the weak identities for the regularized system.

    Returns {(equation, test name): value} over the stored snapshots, with
    trapezoidal quadrature in time and analytic test-function derivatives.
    The regularization fluxes (eps-diffusion, delta-pressure, the
    eps grad-rho couplings) are kept inside the tested identities so the
    residuals measure pure time-discretization error; the entropy entry is
    the signed slack of the production inequality (<= 0 up to that error).
    Pure over immutable snapshots; distinct (trajectory, test) pairs can be
    evaluated concurrently by the caller.
    """
    states = trajectory.states
    if len(states) < 2:
        raise DomainError("weak residuals need at least two snapshots")
    grid = states[0].grid
    times = [s.t for s in states]
    w = grid.weight
    x, y = grid.X, grid.Y

    scalar_tests, vector_tests = [], []
    t_end = times[-1]
    for tf in tests:
        if abs(tf.temporal(t_end)) > 1e-12:
            raise DomainError(
                f"test '{tf.name}': temporal factor must vanish at t = {t_end:g}"
            )
        if tf.vector:
            if not tf.compact_support:
                raise DomainError(
                    f"momentum test '{tf.name}' must be compactly supported"
                )
            chi = tf.spatial(x, y)
            grad = tf.spatial_grad(x, y)
            vector_tests.append((tf, chi, grad))
        else:
            chi = np.broadcast_to(np.asarray(tf.spatial(x, y), dtype=float),
                                  grid.shape)
            if tf.nonneg and chi.min() < 0.0:
                raise DomainError(
                    f"entropy test '{tf.name}' is flagged nonneg but dips to "
                    f"{chi.min():g}"
                )
            gx, gy = tf.spatial_grad(x, y)
            gx = np.broadcast_to(np.asarray(gx, dtype=float), grid.shape)
            gy = np.broadcast_to(np.asarray(gy, dtype=float), grid.shape)
            scalar_tests.append((tf, chi, gx, gy))

    series = defaultdict(list)
    # single pass over snapshots; every state-dependent field is computed once
    for s in states:
        rho, b, th = s.rho.values, s.b.values, s.theta.values
        u1, u2 = s.u.vx, s.u.vy
        t = state_terms(s, reg, p)
        grho, gb, gth = t.grad_rho, t.grad_b, t.grad_theta
        s11, s12 = t.stress
        p_tot = momentum_pressure(rho, b, th, reg, p)
        rhos = rho_s(rho, th, p)
        kappa, kd = p.kappa(th), kappa_delta(th, p, reg.delta, reg.Gamma)
        cond = kd / th
        bracket = gibbs_bracket(rho, th, p)
        # half-delta form: the delta parts of the conductivity and of the
        # gradient heating enter with weight 1/2
        sigma_half = (
            t.shear + 0.5 * (kappa + kd) / th * (gth.vx**2 + gth.vy**2)
            + reg.delta / th**2
        ) / th + reg.epsilon * t.gb2 / th + 0.5 * t.art_heat / th
        source = float(t.source.sum() * w)
        eps1, eps2 = rho_gradient_coupling(grho, t.grads_u, reg)

        for tf, chi, gx, gy in scalar_tests:
            psi, dpsi = tf.temporal(s.t), tf.dtemporal(s.t)
            adv = u1 * gx + u2 * gy
            for eq, f, gf in (("continuity", rho, grho), ("magnetic", b, gb)):
                series[(eq, tf.name)].append(float(
                    (dpsi * f * chi + psi * f * adv
                     - psi * reg.epsilon * (gf.vx * gx + gf.vy * gy)).sum() * w
                ))
            if tf.space_constant:
                series[("energy", tf.name)].append(
                    dpsi * energy_total(s, reg, p) + psi * source
                )
            if tf.nonneg:
                integrand = (
                    dpsi * rhos * chi
                    + psi * rhos * adv
                    - psi * cond * (gth.vx * gx + gth.vy * gy)
                    - psi * reg.epsilon * bracket / th
                    * (grho.vx * gx + grho.vy * gy)
                    + psi * chi * (sigma_half - reg.epsilon * th**4)
                )
                series[("entropy", tf.name)].append(float(integrand.sum() * w))

        for tf, chi, grad in vector_tests:
            psi, dpsi = tf.temporal(s.t), tf.dtemporal(s.t)
            c1x, c1y, c2x, c2y = grad
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
            series[("momentum", tf.name)].append(float(integrand.sum() * w))

    # time quadrature plus the initial-data term psi(t0) * int f0 chi
    results = {key: _trapz(values, times) for key, values in series.items()}
    s0 = states[0]
    rhos0 = rho_s(s0.rho.values, s0.theta.values, p)
    for tf, chi, _, _ in scalar_tests:
        psi0 = tf.temporal(s0.t)
        for eq, f0 in (("continuity", s0.rho.values), ("magnetic", s0.b.values)):
            results[(eq, tf.name)] += psi0 * float((f0 * chi).sum() * w)
        if tf.space_constant:
            results[("energy", tf.name)] += psi0 * energy_total(s0, reg, p)
        if tf.nonneg:
            results[("entropy", tf.name)] += psi0 * float((rhos0 * chi).sum() * w)
    for tf, chi, _ in vector_tests:
        results[("momentum", tf.name)] += tf.temporal(s0.t) * float(
            (s0.rho.values * (s0.u.vx * chi[0] + s0.u.vy * chi[1])).sum() * w
        )
    return results


# ---------------------------------------------------------------------------
# cut-off functions and renormalized residuals
# ---------------------------------------------------------------------------

def _check_cutoff_args(z, k):
    if np.any(z < 0.0):
        raise DomainError("cutoff argument must be >= 0")
    if not k >= 1.0:
        raise DomainError("cutoff level k must be >= 1")


def cutoff_T(z, k: float = 1.0):
    """Concave cut-off T_k(z) = k*T(z/k): identity below k, 2k above 3k,
    quadratic Hermite bridge between (the unique cubic degenerates)."""
    z = np.asarray(z, dtype=float)
    _check_cutoff_args(z, k)
    s = (z / k - 1.0) / 2.0
    mid = k * (1.0 + 2.0 * s - s**2)
    out = np.where(z <= k, z, np.where(z >= 3.0 * k, 2.0 * k, mid))
    return out if out.ndim else float(out)


def cutoff_T_prime(z, k: float = 1.0):
    z = np.asarray(z, dtype=float)
    _check_cutoff_args(z, k)
    s = (z / k - 1.0) / 2.0
    out = np.where(z <= k, 1.0, np.where(z >= 3.0 * k, 0.0, 1.0 - s))
    return out if out.ndim else float(out)


def cutoff_L(rho, k: float = 1.0):
    """L_k(rho) = integral from 1 to rho of T_k(z)/z^2 dz, closed form."""
    rho = np.asarray(rho, dtype=float)
    _check_cutoff_args(rho, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        low = np.log(rho)  # log(0) = -inf is the correct limit here
        mid = -rho / (4.0 * k) + 1.5 * np.log(rho) + k / (4.0 * rho) \
            - 0.5 * np.log(k)
        high = 1.5 * np.log(3.0) + np.log(k) - 2.0 * k / rho
    out = np.where(rho <= k, low, np.where(rho >= 3.0 * k, high, mid))
    return out if out.ndim else float(out)


def renormalized_residual(window, k: float, reg: RegParams,
                          which: str = "rho") -> float:
    """Residual of the cut-off transport identity over a snapshot window.

    d_t T_k(f) + div(T_k(f) u) + (T_k'(f) f - T_k(f)) div u
    = eps * T_k'(f) Lap f, integrated over the domain, centered at the
    middle state.  For k above the field's range T_k is the identity there
    and the value coincides with the plain continuity-mass residual.
    """
    if len(window) < 3:
        raise DomainError("renormalized residual needs a window of >= 3 states")
    if which not in ("rho", "b"):
        raise DomainError(f"which must be rho or b, got {which!r}")
    mid = len(window) // 2
    before, center, after = window[mid - 1], window[mid], window[mid + 1]
    dt2 = after.t - before.t
    grid = center.grid
    w = grid.weight
    eps = reg.epsilon

    f_b = getattr(before, which).values
    f_a = getattr(after, which).values
    f_c = getattr(center, which).values
    tf_b = cutoff_T(f_b, k)
    tf_a = cutoff_T(f_a, k)
    tf_c = cutoff_T(f_c, k)
    tfp_c = cutoff_T_prime(f_c, k)

    ddt = (tf_a.sum() - tf_b.sum()) * w / dt2

    flux1 = tf_c * center.u.vx
    flux2 = tf_c * center.u.vy
    div_flux = (
        deriv_nodal(flux1, 1, SIN, grid.lx) + deriv_nodal(flux2, 0, SIN, grid.ly)
    ).sum() * w

    u1x, _, _, u2y = velocity_gradient(center.u)
    div_u = u1x + u2y
    defect = ((tfp_c * f_c - tf_c) * div_u).sum() * w

    lap_f = laplacian_neumann(getattr(center, which)).values
    diffusion = eps * (tfp_c * lap_f).sum() * w

    return float(ddt + div_flux + defect - diffusion)


# ---------------------------------------------------------------------------
# empirical inequality constants
# ---------------------------------------------------------------------------

# random samples: coefficients up to mode _SAMPLE_MODES per axis, decaying
# like exp(-_SAMPLE_DECAY*(k + l))
_SAMPLE_MODES = 8
_SAMPLE_DECAY = 0.4


def _random_neumann_scalar(grid: Grid, rng):
    c = np.zeros(grid.shape)
    kx = min(_SAMPLE_MODES, grid.nx - 1)
    ky = min(_SAMPLE_MODES, grid.ny - 1)
    block = rng.standard_normal((ky + 1, kx + 1))
    block *= np.exp(
        -_SAMPLE_DECAY * (np.arange(ky + 1)[:, None] + np.arange(kx + 1)[None, :])
    )
    c[: ky + 1, : kx + 1] = block
    return ScalarField(grid, bwd2(c, (COS, COS)))


def _random_noslip_vector(grid: Grid, rng):
    m = _SAMPLE_MODES
    comps = []
    for _ in range(2):
        c = np.zeros(grid.shape)
        block = rng.standard_normal((m, m))
        block *= np.exp(-_SAMPLE_DECAY * (np.arange(m)[:, None] + np.arange(m)[None, :]))
        c[:m, :m] = block
        comps.append(bwd2(c, (SIN, SIN)))
    return VectorField(grid, comps[0], comps[1])


def inequality_constants(grid: Grid, samples: int = 100, seed: int = 0):
    """Empirical (korn_ratio_max, poincare_ratio_max, coercivity_min_margin).

    Korn: ||grad U|| / ||grad U + grad U^T - div U I|| over random no-slip
    fields.  Poincare: ||u||_{W^{1,2}} / (||grad u|| + ||u||_{L^2(left half)})
    over random Neumann scalars.  Coercivity: minimum margin of the
    Helmholtz lower bound over the thermodynamic sample grid {0.1..10}^2
    with unit reference state.  Degenerate (numerically zero) samples are
    skipped.
    """
    if samples < 100:
        raise DomainError("at least 100 samples are required")
    rng = np.random.default_rng(seed)
    w = grid.weight
    half = grid.X < 0.5 * grid.lx

    korn_max = 0.0
    poincare_max = 0.0
    for _ in range(samples):
        u = _random_noslip_vector(grid, rng)
        u1x, u1y, u2x, u2y = velocity_gradient(u)
        grad2 = (u1x**2 + u1y**2 + u2x**2 + u2y**2).sum() * w
        d = u1x - u2y
        a12 = u1y + u2x
        a2 = (2.0 * d * d + 2.0 * a12 * a12).sum() * w
        if a2 > 1e-28:
            korn_max = max(korn_max, float(np.sqrt(grad2 / a2)))

        f = _random_neumann_scalar(grid, rng)
        gf = gradient(f)
        grad_norm = np.sqrt((gf.vx**2 + gf.vy**2).sum() * w)
        l2 = np.sqrt((f.values**2).sum() * w)
        w12 = np.sqrt(l2**2 + grad_norm**2)
        l2_half = np.sqrt((f.values[half] ** 2).sum() * w)
        denom = grad_norm + l2_half
        if denom > 1e-14:
            poincare_max = max(poincare_max, float(w12 / denom))

    from .thermo import ThermoPoint, coercivity_margin

    vals = np.linspace(0.1, 10.0, 34)
    rr, tt = np.meshgrid(vals, vals)
    margin = coercivity_margin(
        ThermoPoint(rr.ravel(), tt.ravel()), EosParams(), 1.0, 1.0
    )
    return korn_max, poincare_max, float(np.min(margin))


def write_diagnostics_csv(reports, path):
    """One row per report, columns exactly in DiagnosticsReport order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow(
                ["%.17g" % getattr(r, c) if c != "floor_violations"
                 else str(getattr(r, c)) for c in CSV_COLUMNS]
            )

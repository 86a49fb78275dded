"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with -s to see them).  Budgets are desk scale:
grids <= 128^2, each criterion's wall time asserted against its limit.
"""

import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mhdlab import diagnostics as diag
from mhdlab.config import parse_config
from mhdlab.errors import ConfigError
from mhdlab.grid import Grid, ScalarField, VectorField, GalerkinBasis
from mhdlab.mms import spatial_order_study, temporal_order_study
from mhdlab.snapshot import read_snapshot, write_snapshot
from mhdlab.solver import (
    InitialData,
    RegParams,
    Schedule,
    State,
    advance_scalar,
    initial_state,
    run,
)
from mhdlab.sweeps import SweepPlan, sweep
from mhdlab.thermo import (
    EosParams,
    ThermoPoint,
    coercivity_margin,
    gibbs_residual,
    helmholtz,
    stability_check,
)
from mhdlab.tolerances import TOLERANCES

P = EosParams()
REG = RegParams(epsilon=1e-2, delta=1e-2, Gamma=8.0, n=4)
RATIO_LO = TOLERANCES["richardson_ratio_lo"]
RATIO_HI = TOLERANCES["richardson_ratio_hi"]


def report_line(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail}; "
          f"{elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def thermo_grid():
    vals = np.linspace(TOLERANCES["thermo_grid_lo"],
                       TOLERANCES["thermo_grid_hi"], 34)
    rr, tt = np.meshgrid(vals, vals)
    return ThermoPoint(rr.ravel(), tt.ravel())


def smooth_init(grid, amp, zeta_expr="const", n=4):
    rho = ScalarField(
        grid,
        1.0 + amp * np.cos(np.pi * grid.X / grid.lx)
        * np.cos(np.pi * grid.Y / grid.ly),
    )
    if zeta_expr == "const":
        b = ScalarField(grid, 2.0 * rho.values)
    else:
        b = ScalarField(
            grid, rho.values * (2.0 + 0.2 * np.cos(np.pi * grid.X / grid.lx))
        )
    theta = ScalarField(
        grid, 1.0 + amp * np.cos(np.pi * grid.Y / grid.ly)
    )
    basis = GalerkinBasis(grid, n)
    u = VectorField(grid, amp * basis.phi[0].reshape(grid.shape),
                    np.zeros(grid.shape))
    return InitialData(rho, b, theta, u)


@pytest.fixture(scope="module")
def run_proportional():
    t0 = time.time()
    grid = Grid(64, 64)
    init = smooth_init(grid, 0.05, "const")
    traj = run(init, REG, P, Schedule(t_final=0.25, dt=2.5e-3),
               diagnostics_every=1)
    return init, traj, time.time() - t0


@pytest.fixture(scope="module")
def run_generic():
    t0 = time.time()
    grid = Grid(64, 64)
    init = smooth_init(grid, 0.05, "generic")
    traj = run(init, REG, P, Schedule(t_final=0.25, dt=2.5e-3),
               diagnostics_every=1)
    return init, traj, time.time() - t0


@pytest.fixture(scope="module")
def richardson_runs():
    # dt ladder sits inside the asymptotic first-order range (coarser steps
    # pick up a visible second-order correction)
    t0 = time.time()
    grid = Grid(32, 32)
    init = smooth_init(grid, 0.05, "generic")
    runs = {}
    for dt in (2e-3, 1e-3, 5e-4, 2.5e-4):
        runs[dt] = run(init, REG, P, Schedule(t_final=0.2, dt=dt),
                       diagnostics_every=0)
    return runs, time.time() - t0


def test_c01_constitutive_consistency():
    t0 = time.time()
    pt = thermo_grid()
    res = gibbs_residual(pt, P, TOLERANCES["gibbs_fd_step"])
    dpdrho, dedtheta = stability_check(pt, P)
    ok = (res <= TOLERANCES["gibbs_relative_residual"]
          and bool(np.all(dpdrho > 0)) and bool(np.all(dedtheta > 0)))
    report_line(
        1, "constitutive consistency", ok,
        f"gibbs={res:.2e}, min partials=({np.min(dpdrho):.2e}, "
        f"{np.min(dedtheta):.2e})", time.time() - t0, 1.0,
    )


def test_c02_helmholtz_properties():
    t0 = time.time()
    thetas = np.linspace(0.1, 10.0, 34)
    cell = thetas[1] - thetas[0]
    min_ok = True
    for rho in (0.3, 1.0, 4.0):
        h = helmholtz(ThermoPoint(np.full_like(thetas, rho), thetas), P, 1.0)
        theta_min = thetas[np.argmin(h)]
        min_ok = min_ok and abs(theta_min - 1.0) <= cell
    margin = float(np.min(coercivity_margin(thermo_grid(), P, 1.0, 1.0)))
    ok = min_ok and margin >= TOLERANCES["coercivity_min_margin"]
    report_line(
        2, "helmholtz properties", ok,
        f"minimum within one cell of theta_bar, coercivity margin={margin:.3f}",
        time.time() - t0, 1.0,
    )


def test_c03_conservation(run_proportional):
    t0 = time.time()
    _, traj, setup_elapsed = run_proportional
    d0 = traj.diagnostics[0]
    drift_rho = max(abs(d.mass_rho - d0.mass_rho) for d in traj.diagnostics)
    drift_b = max(abs(d.mass_b - d0.mass_b) for d in traj.diagnostics)
    tol = TOLERANCES["mass_relative_drift"]
    ok = (drift_rho <= tol * abs(d0.mass_rho)
          and drift_b <= tol * abs(d0.mass_b))
    report_line(
        3, "conservation", ok,
        f"relative drifts ({drift_rho / d0.mass_rho:.2e}, "
        f"{drift_b / d0.mass_b:.2e}) over 100 steps at 64^2",
        time.time() - t0 + setup_elapsed, 30.0,
    )


def test_c04_domination(run_proportional, run_generic):
    t0 = time.time()
    tol = TOLERANCES["domination_drift"]
    _, traj_p, _ = run_proportional
    final = traj_p.final()
    prop_gap = float(np.abs(final.b.values - 2.0 * final.rho.values).max())

    init_g, traj_g, setup_elapsed = run_generic
    lo = min(d.domination_min for d in traj_g.diagnostics)
    hi = max(d.domination_max for d in traj_g.diagnostics)
    ok = (prop_gap <= tol
          and lo >= init_g.c_star - tol
          and hi <= init_g.c_star_upper + tol)
    report_line(
        4, "domination", ok,
        f"|b-2rho|={prop_gap:.2e}, envelope [{lo:.6f}, {hi:.6f}] within "
        f"[{init_g.c_star:.6f}, {init_g.c_star_upper:.6f}] +/- {tol:g}",
        time.time() - t0 + setup_elapsed, 60.0,
    )


def test_c05_energy_balance_first_order(richardson_runs):
    t0 = time.time()
    runs, setup_elapsed = richardson_runs
    dts = sorted(runs, reverse=True)
    defects = [abs(diag.energy_defect(runs[dt])) for dt in dts]
    ratios = [defects[i] / defects[i + 1] for i in range(len(defects) - 1)]
    ok = all(RATIO_LO <= r <= RATIO_HI for r in ratios)
    report_line(
        5, "energy balance first order", ok,
        "ratios " + ", ".join(f"{r:.2f}" for r in ratios),
        time.time() - t0 + setup_elapsed, 60.0,
    )


def test_c06_entropy_structure(run_proportional, run_generic, richardson_runs):
    t0 = time.time()
    floor = TOLERANCES["sigma_nodal_floor"]
    sigma_min = np.inf
    for _, traj, _ in (run_proportional, run_generic):
        for s in traj.states:
            sigma_min = min(sigma_min, float(diag.sigma_nodal(s, REG, P).min()))
    runs, _ = richardson_runs
    residuals = []
    for dt in sorted(runs, reverse=True):
        traj = runs[dt]
        k = round(0.1 / dt)
        residuals.append(abs(diag.entropy_balance_residual(
            traj.states[k - 1:k + 2], REG, P)))
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    ok = sigma_min >= floor and all(RATIO_LO <= r <= RATIO_HI for r in ratios)
    report_line(
        6, "entropy structure", ok,
        f"min nodal sigma={sigma_min:.2e}, residual ratios "
        + ", ".join(f"{r:.2f}" for r in ratios),
        time.time() - t0, 60.0,
    )


def test_c07_temperature_equilibrium():
    t0 = time.time()
    grid = Grid(16, 16)

    # exact fixed point at delta = eps
    reg_eq = RegParams(epsilon=0.5, delta=0.5, n=1)
    init_eq = InitialData(
        ScalarField.constant(grid, 1.0), ScalarField.constant(grid, 1.0),
        ScalarField.constant(grid, 1.0), VectorField.zero(grid),
    )
    traj_eq = run(init_eq, reg_eq, P, Schedule(t_final=0.2, dt=1e-2),
                  diagnostics_every=0)
    eq_drift = float(np.abs(traj_eq.final().theta.values - 1.0).max())

    # relaxation to (delta/eps)^(1/7), checked against an ODE oracle
    reg = RegParams(epsilon=1.0, delta=2.0, n=1)
    init = InitialData(
        ScalarField.constant(grid, 1.0), ScalarField.constant(grid, 1.0),
        ScalarField.constant(grid, 1.3), VectorField.zero(grid),
    )
    t_final = 8.0
    traj = run(init, reg, P, Schedule(t_final=t_final, dt=2e-3,
                                      snapshot_stride=10**9),
               diagnostics_every=0)
    theta_num = float(traj.final().theta.values.mean())

    def ode_rhs(t, yv):
        th = yv[0]
        return [(reg.delta / th**2 - reg.epsilon * th**5)
                / (P.c_V + 4.0 * P.a * th**3)]

    oracle = solve_ivp(ode_rhs, [0.0, t_final], [1.3], rtol=1e-11,
                       atol=1e-13).y[0, -1]
    theta_star = (reg.delta / reg.epsilon) ** (1.0 / 7.0)
    gap_oracle = abs(theta_num - oracle)
    ok = (eq_drift <= TOLERANCES["theta_equal_rates_drift"]
          and gap_oracle <= TOLERANCES["theta_star_error"]
          and abs(theta_num - theta_star) <= TOLERANCES["theta_star_error"])
    report_line(
        7, "temperature equilibrium", ok,
        f"delta=eps drift={eq_drift:.2e}, |theta-oracle|={gap_oracle:.2e}, "
        f"theta*={theta_star:.6f}", time.time() - t0, 30.0,
    )


def test_c08_scalar_transport_oracle():
    t0 = time.time()
    grid = Grid(32, 32, 1.0, 1.0)
    eps, dt, t_final = 0.01, 1e-3, 1.0
    f = ScalarField(grid, 1.0 + 0.1 * np.cos(np.pi * grid.X))
    u = VectorField.zero(grid)
    for _ in range(int(round(t_final / dt))):
        f, _ = advance_scalar(State(0.0, f, f, f, u), eps, dt)
    amp = float((f.values * np.cos(np.pi * grid.X)).sum() * grid.weight
                / (grid.area / 2.0))
    exact = 0.1 * np.exp(-eps * (np.pi / grid.lx) ** 2 * t_final)
    err = abs(amp - exact)
    ok = err <= TOLERANCES["scalar_decay_error"]
    report_line(
        8, "scalar transport oracle", ok,
        f"|amp - exact| = {err:.2e} at t = 1", time.time() - t0, 30.0,
    )


def test_c09_mms_orders():
    t0 = time.time()
    s_err, s_orders = spatial_order_study(REG, P, grid_sizes=(32, 64, 128))
    t_err, t_orders = temporal_order_study(REG, P)
    ok = (all(o >= TOLERANCES["mms_spatial_order"] for o in s_orders)
          and all(o >= TOLERANCES["mms_temporal_order"] for o in t_orders))
    report_line(
        9, "mms orders", ok,
        "spatial " + ", ".join(f"{o:.2f}" for o in s_orders)
        + "; temporal " + ", ".join(f"{o:.2f}" for o in t_orders),
        time.time() - t0, 300.0,
    )


def test_c10_weak_residuals():
    t0 = time.time()
    grid = Grid(64, 64)
    reg = RegParams(epsilon=1e-4, delta=1e-4, n=4)
    init = smooth_init(grid, 0.005, "const")
    traj = run(init, reg, P, Schedule(t_final=0.25, dt=5e-4),
               diagnostics_every=0)
    table = diag.weak_residuals(traj)
    mass_ok = (abs(table[("continuity", "const")])
               <= TOLERANCES["weak_mass_residual"]
               and abs(table[("magnetic", "const")])
               <= TOLERANCES["weak_mass_residual"])
    slack = max(v for (eq, _), v in table.items() if eq == "entropy")
    slack_ok = slack <= TOLERANCES["entropy_slack"]

    # first-order decrease of separable-test residuals under dt halving
    grid_r = Grid(32, 32)
    init_r = smooth_init(grid_r, 0.05, "generic")
    tables = {}
    for dt in (4e-3, 2e-3):
        traj_r = run(init_r, REG, P, Schedule(t_final=0.2, dt=dt),
                     diagnostics_every=0)
        tables[dt] = diag.weak_residuals(traj_r)
    ratios = [
        abs(tables[4e-3][key]) / abs(tables[2e-3][key])
        for key in [("continuity", "cosx"), ("continuity", "cosxy"),
                    ("magnetic", "cosy")]
    ]
    richardson_ok = all(RATIO_LO <= r <= RATIO_HI for r in ratios)
    ok = mass_ok and slack_ok and richardson_ok
    report_line(
        10, "weak residuals", ok,
        f"mass=({abs(table[('continuity', 'const')]):.1e}, "
        f"{abs(table[('magnetic', 'const')]):.1e}), slack={slack:+.2e}, "
        "ratios " + ", ".join(f"{r:.2f}" for r in ratios),
        time.time() - t0, 120.0,
    )


def test_c11_limit_ladders():
    t0 = time.time()
    grid = Grid(64, 64)
    init = smooth_init(grid, 0.05, "generic")

    eps_plan = SweepPlan("epsilon", (0.1, 0.05, 0.025, 0.0125),
                         RegParams(epsilon=0.0125, delta=1e-2, n=4))
    eps_rep = sweep(eps_plan, init, P)
    eps_ok = (eps_rep.failed_rung is None
              and all(eps_rep.monotone[c] for c in
                      ("dist_l1_rho", "dist_l2_rho", "dist_l1_b", "dist_l2_b",
                       "dist_l1_theta", "dist_l2_theta"))
              and eps_rep.monotone["zeta_metric"])

    delta_plan = SweepPlan("delta", (0.1, 0.05, 0.025, 0.0125),
                           RegParams(epsilon=1e-2, delta=0.0125, n=4))
    delta_rep = sweep(delta_plan, init, P)
    delta_ok = (delta_rep.failed_rung is None
                and all(delta_rep.monotone[c] for c in
                        ("dist_l1_rho", "dist_l2_rho", "dist_l1_b",
                         "dist_l2_b", "dist_l1_theta", "dist_l2_theta")))

    n_plan = SweepPlan("n", (4, 8, 16, 32),
                       RegParams(epsilon=1e-2, delta=1e-2, n=32))
    n_rep = sweep(n_plan, init, P)
    n_ok = n_rep.failed_rung is None and n_rep.monotone["dist_l2_u"]

    ok = eps_ok and delta_ok and n_ok
    report_line(
        11, "limit ladders", ok,
        f"eps monotone={eps_ok}, delta monotone={delta_ok}, "
        f"n u-distance monotone={n_ok}", time.time() - t0, 600.0,
    )


def test_c12_inequality_estimators():
    t0 = time.time()
    samples = int(TOLERANCES["inequality_samples"])
    korn64, poi64, margin = diag.inequality_constants(
        Grid(64, 64), samples=samples, seed=0
    )
    korn128, poi128, _ = diag.inequality_constants(
        Grid(128, 128), samples=samples, seed=0
    )
    factor = TOLERANCES["constant_stability_factor"]
    ok = (np.isfinite([korn64, korn128, poi64, poi128]).all()
          and korn64 > 0 and poi64 > 0
          and max(korn64, korn128) / min(korn64, korn128) <= factor
          and max(poi64, poi128) / min(poi64, poi128) <= factor
          and margin >= TOLERANCES["coercivity_min_margin"])
    report_line(
        12, "inequality estimators", ok,
        f"korn {korn64:.4f}/{korn128:.4f}, poincare {poi64:.4f}/{poi128:.4f}, "
        f"coercivity margin {margin:.3f}", time.time() - t0, 60.0,
    )


def test_c13_serialization(tmp_path):
    t0 = time.time()
    grid = Grid(16, 16, 1.2, 0.8)
    rng = np.random.default_rng(42)
    init = InitialData(
        ScalarField(grid, 1.0 + 0.2 * rng.random(grid.shape)),
        ScalarField(grid, 2.0 + 0.2 * rng.random(grid.shape)),
        ScalarField(grid, 1.0 + 0.2 * rng.random(grid.shape)),
        VectorField(grid, rng.standard_normal(grid.shape),
                    rng.standard_normal(grid.shape)),
    )
    st = initial_state(init, GalerkinBasis(grid, 2))
    path = tmp_path / "state.mhdw"
    write_snapshot(st, path)
    back = read_snapshot(path)
    round_trip_ok = (
        np.array_equal(back.rho.values, st.rho.values)
        and np.array_equal(back.b.values, st.b.values)
        and np.array_equal(back.theta.values, st.theta.values)
        and np.array_equal(back.u.vx, st.u.vx)
        and np.array_equal(back.u.vy, st.u.vy)
        and back.t == st.t
    )

    base = ("[grid]\nnx = 16\nny = 16\n[reg]\nepsilon = 0.01\ndelta = 0.01\n"
            "[time]\nt_final = 0.1\ndt = 0.01\n")
    try:
        parse_config(base.replace("nx = 16", "nx = 16\nbogus_key = 1"))
        unknown_ok = False
    except ConfigError as exc:
        unknown_ok = any("bogus_key" in v for v in exc.violations)
    try:
        parse_config(base.replace("epsilon = 0.01",
                                  "epsilon = 0.01\ngamma_cap = 2"))
        gamma_ok = False
    except ConfigError as exc:
        gamma_ok = any("gamma_cap" in v for v in exc.violations)

    ok = round_trip_ok and unknown_ok and gamma_ok
    report_line(
        13, "serialization", ok,
        f"round trip bit-exact={round_trip_ok}, rejections=({unknown_ok}, "
        f"{gamma_ok})", time.time() - t0, 1.0,
    )

"""Command-line surface: run, sweep, check, mms.

Every command exits 0 exactly when all of its assertions pass; outputs are
deterministic given a config (sampling commands take an explicit --seed).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import diagnostics as diag
from .config import load_config
from .errors import BasisError, ConfigError, DomainError, MhdError
from .grid import Grid
from .solver import regularize_initial_data, run as run_solver
from .snapshot import write_snapshot
from .thermo import EosParams, ThermoPoint, gibbs_residual, stability_check, transport
from .tolerances import TOLERANCES


def _fail(msg: str, code: int = 1) -> int:
    print(f"FAIL: {msg}")
    return code


def _initial_data(cfg):
    """Initial data of a run or sweep: expression data gets the positive
    mollifier; a snapshot restart is already a solver state, used verbatim."""
    initial = cfg.build_initial_data()
    if cfg.snapshot_path is None:
        initial = regularize_initial_data(initial, cfg.reg)
    return initial


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    initial = _initial_data(cfg)
    out_dir = args.output_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    traj = run_solver(initial, cfg.reg, cfg.eos, cfg.schedule, diagnostics_every=1)

    if "snapshot" in cfg.output_formats:
        for i, state in enumerate(traj.states):
            write_snapshot(state, os.path.join(out_dir, f"snap_{i:06d}.mhdw"))
    if "csv" in cfg.output_formats:
        diag.write_diagnostics_csv(
            traj.diagnostics, os.path.join(out_dir, "diagnostics.csv")
        )

    status = 0
    final = traj.final()
    floor_hits = final.floor_violations.get("theta", 0)
    sigma_min = min(
        float(diag.sigma_nodal(s, cfg.reg, cfg.eos).min()) for s in traj.states
    )
    for d in traj.diagnostics:
        row = [getattr(d, c) for c in diag.CSV_COLUMNS]
        if not all(np.isfinite(v) for v in row):
            status = _fail(f"non-finite diagnostics at t = {d.t:g}")
            break
    if sigma_min < TOLERANCES["sigma_nodal_floor"]:
        status = _fail(f"sigma integrand dipped to {sigma_min:.3e}")
    if floor_hits:
        status = _fail(f"temperature floor was hit {floor_hits} times")
    print(
        f"run: {len(traj.step_reports)} steps to t = {final.t:g}, "
        f"{len(traj.states)} snapshots -> {out_dir}"
    )
    print(f"run: min nodal sigma = {sigma_min:.3e}, floor hits = {floor_hits}")
    if status == 0:
        print("run: PASS")
    return status


def _parse_ladder(text: str, which: str) -> tuple:
    """Comma-separated finite numbers; integers for an n-ladder."""
    try:
        ladder = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"ladder values must be numbers, got {text!r}") from None
    if not all(np.isfinite(ladder)):
        raise DomainError(f"ladder values must be finite, got {text!r}")
    if which == "n":
        if not all(v.is_integer() for v in ladder):
            raise DomainError(f"n-ladder rungs must be integers, got {text!r}")
        ladder = tuple(int(v) for v in ladder)
    return ladder


def _parse_grid_sizes(text: str) -> tuple:
    """Comma-separated sizes of admissible grids: at least two, strictly
    increasing."""
    try:
        sizes = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"grid sizes must be integers, got {text!r}") from None
    if len(sizes) < 2 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise DomainError(
            f"grid sizes must be at least two, strictly increasing, got {text!r}"
        )
    for n in sizes:
        Grid(n, n)  # GridMismatchError for a size no grid takes
    return sizes


def cmd_sweep(args) -> int:
    from . import sweeps as sweeps_mod  # only this command loads it

    cfg = load_config(args.config)
    try:
        ladder = _parse_ladder(args.ladder, args.which)
        plan = sweeps_mod.SweepPlan(
            which=args.which,
            ladder=ladder,
            base=cfg.reg,
            t_cmp=args.t_cmp,
            dt=cfg.schedule.dt,
        )
    except MhdError as exc:
        return _fail(str(exc), 2)
    try:
        report = sweeps_mod.sweep(plan, _initial_data(cfg), cfg.eos)
    except BasisError as exc:
        return _fail(str(exc), 2)
    out_dir = args.output_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"sweep_{args.which}.csv")
    sweeps_mod.write_sweep_csv(report, path)
    if report.failed_rung is not None:
        return _fail(f"rung {report.failed_rung} failed; partial report in {path}")
    print(f"sweep: {len(report.values)} rungs -> {path}")
    for col, ok in report.monotone.items():
        print(f"sweep: monotone {col}: {'yes' if ok else 'NO'}")
    key = "dist_l2_u" if args.which == "n" else "dist_l2_rho"
    if not report.monotone[key]:
        return _fail(f"{key} not monotone along the {args.which}-ladder")
    print("sweep: PASS")
    return 0


def cmd_check(args) -> int:
    try:  # bad arguments exit 2 before any check runs
        grid = Grid(args.grid, args.grid)
        diag.check_samples(args.samples)
        if args.seed < 0:
            raise DomainError(f"seed must be >= 0, got {args.seed}")
    except MhdError as exc:
        return _fail(str(exc), 2)
    status = 0
    p = EosParams()
    vals = np.linspace(
        TOLERANCES["thermo_grid_lo"], TOLERANCES["thermo_grid_hi"], 34
    )
    rr, tt = np.meshgrid(vals, vals)
    pt = ThermoPoint(rr.ravel(), tt.ravel())

    gibbs = gibbs_residual(pt, p, TOLERANCES["gibbs_fd_step"])
    ok = gibbs <= TOLERANCES["gibbs_relative_residual"]
    print(f"check: gibbs residual max = {gibbs:.3e} "
          f"(tol {TOLERANCES['gibbs_relative_residual']:g}) "
          f"{'PASS' if ok else 'FAIL'}")
    status |= 0 if ok else 1

    dpdrho, dedtheta = stability_check(pt, p)
    ok = bool(np.all(dpdrho > 0) and np.all(dedtheta > 0))
    print(f"check: stability partials min = ({np.min(dpdrho):.3e}, "
          f"{np.min(dedtheta):.3e}) {'PASS' if ok else 'FAIL'}")
    status |= 0 if ok else 1

    thetas = np.linspace(0.2, 4.0, 50)
    _, _, _, K = transport(thetas, p, 0.1, 8.0)
    ok = bool(np.all(np.diff(K) > 0))
    print(f"check: K_delta strictly increasing {'PASS' if ok else 'FAIL'}")
    status |= 0 if ok else 1

    korn, poincare, margin = diag.inequality_constants(
        grid, samples=args.samples, seed=args.seed
    )
    ok = margin >= TOLERANCES["coercivity_min_margin"]
    print(f"check: korn ratio max = {korn:.4f}")
    print(f"check: poincare ratio max = {poincare:.4f}")
    print(f"check: coercivity min margin = {margin:.6f} "
          f"{'PASS' if ok else 'FAIL'}")
    status |= 0 if ok else 1

    if status == 0:
        print("check: PASS")
    return status


def cmd_mms(args) -> int:
    from . import mms as mms_mod  # only this command loads it

    try:
        sizes = _parse_grid_sizes(args.grid_sizes)
    except MhdError as exc:
        return _fail(str(exc), 2)
    if args.config:
        cfg = load_config(args.config)
        reg, eos = cfg.reg, cfg.eos
    else:
        from .solver import RegParams

        reg, eos = RegParams(epsilon=1e-2, delta=1e-2, Gamma=8.0, n=4), EosParams()

    errors, orders = mms_mod.spatial_order_study(reg, eos, grid_sizes=sizes)
    print("mms: spatial errors:", " ".join(f"{e:.3e}" for e in errors))
    print("mms: spatial orders:", " ".join(f"{o:.2f}" for o in orders))
    spatial_ok = all(o >= TOLERANCES["mms_spatial_order"] for o in orders)

    errors_t, orders_t = mms_mod.temporal_order_study(reg, eos)
    print("mms: temporal errors:", " ".join(f"{e:.3e}" for e in errors_t))
    print("mms: temporal orders:", " ".join(f"{o:.2f}" for o in orders_t))
    temporal_ok = all(o >= TOLERANCES["mms_temporal_order"] for o in orders_t)

    if spatial_ok and temporal_ok:
        print("mms: PASS")
        return 0
    return _fail("observed orders below the required thresholds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhdlab",
        description="Planar compressible non-resistive MHD simulator and "
        "verification laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a config and write outputs")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output-dir", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="parameter-ladder convergence study")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--which", required=True, choices=["n", "epsilon", "delta"])
    p_sweep.add_argument("--ladder", required=True,
                         help="comma-separated rung values, finest last")
    p_sweep.add_argument("--t-cmp", type=float, default=0.5)
    p_sweep.add_argument("--output-dir", default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_check = sub.add_parser(
        "check", help="constitutive and inequality property suite (no simulation)"
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--grid", type=int, default=64)
    p_check.add_argument("--samples", type=int, default=100)
    p_check.set_defaults(fn=cmd_check)

    p_mms = sub.add_parser("mms", help="manufactured-solution order study")
    p_mms.add_argument("--config", default=None)
    p_mms.add_argument("--grid-sizes", default="32,64,128")
    p_mms.set_defaults(fn=cmd_mms)
    return parser


def _dispatch(args) -> int:
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("config rejected:")
        for v in exc.violations:
            print(f"  - {v}")
        return 2
    except MhdError as exc:
        return _fail(str(exc), 1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at exit
    except BrokenPipeError:
        # stdout closed early (say, piped into `head`): send the rest of the
        # output, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())

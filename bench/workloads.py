"""Seeded inputs, the four workloads and their correctness gates.

Every workload drives the public ``mhdlab`` API exactly as a user would.
Its ``run`` part is what the benchmark times; its ``check`` part evaluates
the correctness gate afterwards, untimed.

Inputs come from ``--seed``.  Seeds fall into ``VARIANTS`` classes
(``seed % VARIANTS``) so that every input the benchmark can generate has a
recorded reference in ``reference.json``; variant 0 is exactly the shipped
``configs/smooth.ini``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

VARIANTS = 16

# amplitudes of the low-mode perturbations in configs/smooth.ini
BASE_AMPLITUDES = {"rho": 0.05, "b": 0.2, "theta": 0.05, "u": 0.05}


def amplitudes(variant: int) -> dict:
    """Perturbation amplitudes: the smooth.ini ones, or each drawn within
    +-20 % of them (rounded to 4 digits so the config text stays short)."""
    if variant == 0:
        return dict(BASE_AMPLITUDES)
    rng = np.random.default_rng(variant)
    return {
        k: round(a * (1.0 + 0.2 * rng.uniform(-1.0, 1.0)), 4)
        for k, a in BASE_AMPLITUDES.items()
    }


def config_text(variant: int, nx: int = 64, t_final: float = 0.5) -> str:
    """Config text in the smooth.ini family; with the defaults and variant 0
    it parses to exactly the fields of configs/smooth.ini."""
    a = amplitudes(variant)
    bump = f"1 + {a['rho']!r}*cos(pi*x)*cos(pi*y)"
    return (
        f"[grid]\nnx = {nx}\nny = {nx}\n\n"
        "[reg]\nepsilon = 0.0125\ndelta = 0.01\nn = 4\n\n"
        f"[time]\nt_final = {t_final!r}\ndt = 0.0025\n"
        "snapshot_stride = 20\n\n"
        "[initial]\n"
        f"rho = {bump}\n"
        f"b = ({bump})*(2 + {a['b']!r}*cos(pi*x))\n"
        f"theta = 1 + {a['theta']!r}*cos(pi*y)\n"
        f"ux = {a['u']!r}*sin(pi*x)*sin(pi*y)\n"
        "uy = 0\n"
    )


@dataclass
class Outcome:
    """What a workload's timed part hands to its untimed check."""

    value: object = None
    workdir: str | None = None


FIELD_NAMES = ("rho", "b", "theta", "u1", "u2")


def _fields(state):
    return (state.rho.values, state.b.values, state.theta.values,
            state.u.vx, state.u.vy)


# ---------------------------------------------------------------------------
# certified_run_64: `mhdlab run` on smooth.ini, diagnostics every step
# ---------------------------------------------------------------------------

def certified_prepare(variant, workdir):
    path = os.path.join(workdir, "smooth.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text(variant))
    return path


def certified_run(path, workdir):
    from mhdlab import cli

    out_dir = os.path.join(workdir, "out")
    code = cli.main(["run", "--config", path, "--output-dir", out_dir])
    return Outcome(code, out_dir)


def certified_check(outcome, finals):
    from mhdlab.snapshot import read_snapshot

    out_dir = outcome.workdir
    snaps = sorted(f for f in os.listdir(out_dir) if f.startswith("snap_"))
    with open(os.path.join(out_dir, "diagnostics.csv")) as fh:
        rows = sum(1 for _ in fh)
    last = read_snapshot(os.path.join(out_dir, snaps[-1])) if snaps else None
    final = finals[-1] if finals else None
    return {
        "cli_exit_0": outcome.value == 0,
        "snapshots_11": len(snaps) == 11,
        "csv_rows_202": rows == 202,
        "last_snapshot_is_final_state": last is not None and final is not None
        and all(np.array_equal(a, b) for a, b in zip(_fields(last), _fields(final))),
    }


# ---------------------------------------------------------------------------
# n_ladder_64: sweeps.sweep over n = 4, 32, 256 without diagnostics
# ---------------------------------------------------------------------------

def ladder_prepare(variant, workdir):
    return config_text(variant)


def ladder_run(text, workdir):
    from mhdlab import sweeps
    from mhdlab.config import parse_config
    from mhdlab.solver import regularize_initial_data

    cfg = parse_config(text)
    initial = regularize_initial_data(cfg.build_initial_data(), cfg.reg)
    plan = sweeps.SweepPlan(which="n", ladder=(4, 32, 256), base=cfg.reg,
                            t_cmp=0.125, dt=cfg.schedule.dt)
    return Outcome(sweeps.sweep(plan, initial, cfg.eos))


def ladder_check(outcome, finals):
    report = outcome.value
    return {
        "no_failed_rung": report.failed_rung is None,
        "dist_l2_u_monotone": bool(report.monotone.get("dist_l2_u")),
        "three_rungs": len(finals) == 3,
    }


# ---------------------------------------------------------------------------
# fine_run_128: solver.run at 128^2, 100 steps, no diagnostics
# ---------------------------------------------------------------------------

def fine_prepare(variant, workdir):
    return config_text(variant, nx=128, t_final=0.25)


def fine_run(text, workdir):
    from mhdlab.config import parse_config
    from mhdlab.solver import regularize_initial_data, run

    cfg = parse_config(text)
    initial = regularize_initial_data(cfg.build_initial_data(), cfg.reg)
    traj = run(initial, cfg.reg, cfg.eos, cfg.schedule, diagnostics_every=0)
    return Outcome(traj)


def fine_check(outcome, finals):
    from mhdlab.tolerances import TOLERANCES

    traj = outcome.value
    first, final = traj.states[0], traj.final()
    w = final.grid.weight
    drift = max(
        abs(a.values.sum() * w - b.values.sum() * w) / abs(b.values.sum() * w)
        for a, b in ((final.rho, first.rho), (final.b, first.b))
    )
    return {
        "steps_100": len(traj.step_reports) == 100,
        "positive": all(
            min(s.rho.values.min(), s.b.values.min(), s.theta.values.min()) > 0.0
            for s in traj.states
        ),
        "no_floor_hits": final.floor_violations.get("theta", 0) == 0,
        "mass_drift": drift <= TOLERANCES["mass_relative_drift"],
    }


# ---------------------------------------------------------------------------
# mms_temporal_32: the `mhdlab mms` temporal order study
# ---------------------------------------------------------------------------

def mms_prepare(variant, workdir):
    return None


def mms_run(_, workdir):
    from mhdlab.mms import temporal_order_study
    from mhdlab.solver import RegParams
    from mhdlab.thermo import EosParams

    # the regularization `mhdlab mms` uses when no config is given
    reg = RegParams(epsilon=1e-2, delta=1e-2, Gamma=8.0, n=4)
    return Outcome(temporal_order_study(reg, EosParams()))


def mms_check(outcome, finals):
    from mhdlab.tolerances import TOLERANCES

    _, orders = outcome.value
    return {
        "orders": all(o >= TOLERANCES["mms_temporal_order"] for o in orders),
        "three_runs": len(finals) == 3,
    }


@dataclass(frozen=True)
class Workload:
    prepare: object   # (variant, workdir) -> input, untimed
    run: object       # (input, workdir) -> Outcome, timed
    check: object     # (Outcome, final states of every solver run) -> gates
    last_run_steps: bool = False  # step percentiles from the last solver run only
    seeded: bool = True  # False: the input is fixed and the seed is ignored

    def variant(self, seed: int) -> int:
        """The input variant a seed selects."""
        return seed % VARIANTS if self.seeded else 0


WORKLOADS = {
    "certified_run_64": Workload(certified_prepare, certified_run, certified_check),
    "n_ladder_64": Workload(ladder_prepare, ladder_run, ladder_check,
                            last_run_steps=True),
    "fine_run_128": Workload(fine_prepare, fine_run, fine_check),
    # the manufactured solution has no free input
    "mms_temporal_32": Workload(mms_prepare, mms_run, mms_check, seeded=False),
}


# ---------------------------------------------------------------------------
# reference fingerprints of final fields
# ---------------------------------------------------------------------------

# |fingerprint - reference| <= REF_RTOL * (reference rms of the same field)
REF_RTOL = 1e-8


def fingerprint(state) -> list:
    """Mean, rms and a fixed-weight mean of each of the five final fields."""
    out = []
    for arr in _fields(state):
        weights = np.random.default_rng(2020).uniform(-1.0, 1.0, arr.shape)
        out += [float(arr.mean()), float(np.sqrt((arr * arr).mean())),
                float((weights * arr).mean())]
    return out


def fingerprint_mismatch(got: list, ref: list) -> str | None:
    """None when every final state matches its reference, else the reason."""
    if len(got) != len(ref):
        return f"{len(got)} final states, reference has {len(ref)}"
    for k, (g, r) in enumerate(zip(got, ref)):
        for f, name in enumerate(FIELD_NAMES):
            scale = abs(r[3 * f + 1])
            err = max(abs(a - b) for a, b in zip(g[3 * f:3 * f + 3], r[3 * f:3 * f + 3]))
            if not err <= REF_RTOL * scale:
                return (f"final state {k}: {name} differs from reference by "
                        f"{err:.3e} (rms {scale:.3e})")
    return None

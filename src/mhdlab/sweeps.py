"""Parameter ladders for the three limit passages (n, eps, delta).

A sweep runs the solver once per ladder rung (`solver.run_ladder`) with
everything else held fixed, then measures Cauchy-style distances of each
field to the finest rung at the comparison time, the b/rho compactness
metric against the finest rung's ratio field, and the L1 norms of the
artificial terms.  The finest rung is the reference: the true limit object
is unknown, so decreasing distances along the ladder are the honest
measurable proxy for the limit passages (the analytic convergences are
weak/weak-* along subsequences; this gap is documented, not hidden).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, GridMismatchError
from .grid import ScalarField, check_basis_size
from .solver import InitialData, RegParams, Schedule, State, run_ladder
from .solver import strictly_decreasing
from .thermo import EosParams

__all__ = [
    "SweepPlan",
    "ConvergenceReport",
    "zeta_field",
    "zeta_metric",
    "artificial_norms",
    "sweep",
    "write_sweep_csv",
]

DISTANCE_COLUMNS = [
    "dist_l1_rho", "dist_l2_rho", "dist_l1_b", "dist_l2_b",
    "dist_l1_theta", "dist_l2_theta", "dist_l2_u",
]
NORM_COLUMNS = ["art_rho_pow", "art_rho_sq", "art_b_pow", "art_b_sq", "art_theta_inv"]
# b/rho is undefined where rho vanishes; the metric weights those nodes by rho
ZETA_FALLBACK = 0.0


@dataclass(frozen=True)
class SweepPlan:
    """One limit passage: which parameter, its ladder, and the base setup.

    The ladder must be strictly monotone with at least three entries:
    decreasing for epsilon/delta, increasing for n.  The last entry is the
    finest rung and serves as the reference.  Every rung's RegParams and the
    schedule (t_cmp finite and a whole number of steps of dt) are checked
    here, before any rung runs.
    """

    which: str
    ladder: tuple
    base: RegParams
    t_cmp: float = 0.5
    dt: float = 2.5e-3

    def __post_init__(self):
        if self.which not in ("n", "epsilon", "delta"):
            raise DomainError(f"which must be n, epsilon or delta, got {self.which!r}")
        ladder = tuple(self.ladder)
        if len(ladder) < 3:
            raise DomainError("ladder requires >= 3 entries")
        increasing = self.which == "n"
        if not strictly_decreasing(ladder[::-1] if increasing else ladder):
            direction = "increasing" if increasing else "decreasing"
            raise DomainError(f"{self.which}-ladder must be strictly {direction}")
        for v in ladder:
            self.reg_for(v)
        object.__setattr__(self, "ladder", ladder)
        Schedule(self.t_cmp, self.dt)  # rejects non-finite times, partial steps

    def reg_for(self, value) -> RegParams:
        if self.which == "n":
            return replace(self.base, n=value)
        return replace(self.base, **{self.which: float(value)})


@dataclass
class ConvergenceReport:
    which: str
    values: list
    distances: list          # dict per rung, vs the finest; empty if one failed
    zeta_metrics: list
    artificial: list         # dict per rung
    monotone: dict           # column -> bool over the non-finest rungs
    failed_rung: object = None


def zeta_field(state: State) -> ScalarField:
    """b/rho where rho > 0, ZETA_FALLBACK elsewhere."""
    rho = state.rho.values
    vals = np.where(rho > 0.0, state.b.values / np.where(rho > 0.0, rho, 1.0),
                    ZETA_FALLBACK)
    return ScalarField(state.grid, vals)


def zeta_metric(state: State, reference_zeta: ScalarField) -> float:
    """Compactness metric int rho |zeta - zeta_ref| dx (>= 0)."""
    if reference_zeta.grid != state.grid:
        raise GridMismatchError("reference zeta lives on a different grid")
    zeta = zeta_field(state).values
    diff = np.abs(zeta - reference_zeta.values)
    return float((state.rho.values * diff).sum() * state.grid.weight)


def artificial_norms(state: State, reg: RegParams) -> dict:
    """L1 norms of the artificial terms delta*(rho^G, rho^2, b^G, b^2, 1/th^2)."""
    w = state.grid.weight
    rho, b, th = state.rho.values, state.b.values, state.theta.values
    G = reg.Gamma
    d = reg.delta
    return {
        "art_rho_pow": float(d * (rho**G).sum() * w),
        "art_rho_sq": float(d * (rho**2).sum() * w),
        "art_b_pow": float(d * (b**G).sum() * w),
        "art_b_sq": float(d * (b**2).sum() * w),
        "art_theta_inv": float(d * (th**-2).sum() * w),
    }


def _distances(state: State, ref: State) -> dict:
    w = state.grid.weight
    out = {}
    for name in ("rho", "b", "theta"):
        d = getattr(state, name).values - getattr(ref, name).values
        out[f"dist_l1_{name}"] = float(np.abs(d).sum() * w)
        out[f"dist_l2_{name}"] = float(np.sqrt((d**2).sum() * w))
    du2 = (state.u.vx - ref.u.vx) ** 2 + (state.u.vy - ref.u.vy) ** 2
    out["dist_l2_u"] = float(np.sqrt(du2.sum() * w))
    return out


def sweep(plan: SweepPlan, initial: InitialData, p: EosParams) -> ConvergenceReport:
    """Run every ladder rung in sequence and compare against the finest one.

    A failing rung stops the sweep: the report names it and holds the
    artificial norms of the rungs that ran.  An n-ladder whose finest rung
    exceeds the grid's basis size raises BasisError before any rung runs.
    """
    if plan.which == "n":
        check_basis_size(initial.rho0.grid, plan.ladder[-1])
    finals, error = run_ladder(
        (initial, plan.reg_for(v), p, plan.t_cmp, plan.dt, None, None)
        for v in plan.ladder
    )
    values = list(plan.ladder[: len(finals)])
    arts = [artificial_norms(s, plan.reg_for(v)) for s, v in zip(finals, values)]
    if error is not None:
        return ConvergenceReport(plan.which, values, [], [], arts, {},
                                 plan.ladder[len(finals)])

    ref = finals[-1]
    ref_zeta = zeta_field(ref)
    distances = [_distances(s, ref) for s in finals]
    zetas = [zeta_metric(s, ref_zeta) for s in finals]
    monotone = {
        col: strictly_decreasing([d[col] for d in distances[:-1]])
        for col in DISTANCE_COLUMNS
    }
    monotone["zeta_metric"] = strictly_decreasing(zetas[:-1])
    return ConvergenceReport(
        plan.which, values, distances, zetas, arts, monotone, None
    )


def write_sweep_csv(report: ConvergenceReport, path):
    """One row per rung that ran: swept value, distances, zeta metric,
    artificial norms; a failed sweep leaves the distance and zeta cells empty."""
    header = ["value"] + DISTANCE_COLUMNS + ["zeta_metric"] + NORM_COLUMNS
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, v in enumerate(report.values):
            row = [v]
            if report.distances:
                row += ["%.17g" % report.distances[i][c] for c in DISTANCE_COLUMNS]
                row.append("%.17g" % report.zeta_metrics[i])
            else:
                row += [""] * (len(DISTANCE_COLUMNS) + 1)
            row += ["%.17g" % report.artificial[i][c] for c in NORM_COLUMNS]
            writer.writerow(row)

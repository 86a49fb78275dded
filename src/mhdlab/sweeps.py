"""Parameter-ladder drivers for the three limit passages (n, eps, delta).

A sweep runs the solver once per ladder rung with everything else held
fixed, then measures Cauchy-style distances of each field to the finest
rung at the comparison time, the b/rho compactness metric against the
finest rung's ratio field, and the L1 norms of the artificial terms.  The
finest rung is the reference: the true limit object is unknown, so
decreasing distances along the ladder are the honest measurable proxy for
the limit passages (the analytic convergences are weak/weak-* along
subsequences; this gap is documented, not hidden).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, GridMismatchError, MhdError
from .grid import ScalarField, check_basis_size
from .solver import InitialData, RegParams, Schedule, State, run
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
    finest rung and serves as the reference.
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
        diffs = np.diff(ladder)
        if self.which == "n":
            if not np.all(diffs > 0):
                raise DomainError("n-ladder must be strictly increasing")
        elif not np.all(diffs < 0):
            raise DomainError(f"{self.which}-ladder must be strictly decreasing")
        # written so that NaN fails
        if not 0.0 < self.t_cmp < np.inf:
            raise DomainError(f"t_cmp must be finite and > 0, got {self.t_cmp}")
        if not 0.0 < self.dt < np.inf:
            raise DomainError(f"dt must be finite and > 0, got {self.dt}")
        object.__setattr__(self, "ladder", ladder)

    def reg_for(self, value) -> RegParams:
        if self.which == "n":
            return replace(self.base, n=int(value))
        return replace(self.base, **{self.which: float(value)})


@dataclass
class ConvergenceReport:
    which: str
    values: list
    distances: list          # dict per rung, vs the finest rung
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


def zeta_metric(state: State, reference_zeta: ScalarField, pexp: float = 1.0) -> float:
    """Compactness metric int rho |zeta - zeta_ref|^p dx (>= 0)."""
    if pexp < 1.0:
        raise DomainError(f"pexp must be >= 1, got {pexp}")
    if reference_zeta.grid != state.grid:
        raise GridMismatchError("reference zeta lives on a different grid")
    zeta = zeta_field(state).values
    diff = np.abs(zeta - reference_zeta.values) ** pexp
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

    def l1(a):
        return float(np.abs(a).sum() * w)

    def l2(a):
        return float(np.sqrt((a**2).sum() * w))

    drho = state.rho.values - ref.rho.values
    db = state.b.values - ref.b.values
    dth = state.theta.values - ref.theta.values
    du2 = (state.u.vx - ref.u.vx) ** 2 + (state.u.vy - ref.u.vy) ** 2
    return {
        "dist_l1_rho": l1(drho),
        "dist_l2_rho": l2(drho),
        "dist_l1_b": l1(db),
        "dist_l2_b": l2(db),
        "dist_l1_theta": l1(dth),
        "dist_l2_theta": l2(dth),
        "dist_l2_u": float(np.sqrt(du2.sum() * w)),
    }


def sweep(plan: SweepPlan, initial: InitialData, p: EosParams) -> ConvergenceReport:
    """Run every ladder rung in sequence and compare against the finest one.

    A failing rung aborts the sweep and the partial report records which
    one.  An n-ladder whose finest rung exceeds the grid's basis size raises
    BasisError before any rung runs.
    """
    if plan.which == "n":
        check_basis_size(initial.rho0.grid, int(plan.ladder[-1]))
    schedule = Schedule(t_final=plan.t_cmp, dt=plan.dt, snapshot_stride=10**9)

    finals = []
    values = list(plan.ladder)
    for v in values:
        try:
            finals.append(run(initial, plan.reg_for(v), p, schedule,
                              diagnostics_every=0).final())
        except MhdError:
            return ConvergenceReport(plan.which, values[: len(finals)], [], [], [],
                                     {}, v)

    ref = finals[-1]
    ref_zeta = zeta_field(ref)
    distances = [_distances(s, ref) for s in finals]
    zetas = [zeta_metric(s, ref_zeta, 1.0) for s in finals]
    arts = [
        artificial_norms(s, plan.reg_for(v)) for s, v in zip(finals, values)
    ]

    monotone = {}
    for col in DISTANCE_COLUMNS:
        series = [d[col] for d in distances[:-1]]
        monotone[col] = bool(
            all(series[i] > series[i + 1] for i in range(len(series) - 1))
        )
    monotone["zeta_metric"] = bool(
        all(zetas[i] > zetas[i + 1] for i in range(len(zetas) - 2))
    )
    return ConvergenceReport(
        plan.which, values, distances, zetas, arts, monotone, None
    )


def write_sweep_csv(report: ConvergenceReport, path):
    """One row per rung: swept value, distances, zeta metric, artificial norms."""
    header = ["value"] + DISTANCE_COLUMNS + ["zeta_metric"] + NORM_COLUMNS
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, v in enumerate(report.values):
            if i >= len(report.distances):
                break
            row = [v]
            row += ["%.17g" % report.distances[i][c] for c in DISTANCE_COLUMNS]
            row.append("%.17g" % report.zeta_metrics[i])
            row += ["%.17g" % report.artificial[i][c] for c in NORM_COLUMNS]
            writer.writerow(row)

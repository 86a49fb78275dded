"""Golden values of `diagnostics.report` along a short smooth run.

`data/report_smooth32.csv` holds every report (the initial slice plus ten
steps) of the `smooth.ini` problem on a 32^2 grid with n = 4.  It was
recorded before the pointwise physics was gathered into one layer and
re-recorded when the temperature Newton direction moved to PCG in the
Kirchhoff variable (which moved no column by more than 5.7e-13 relative),
and again when the temperature Newton solve started from the extrapolated
theta history.  Both solves meet the Newton tolerance but stop at other
residuals; the largest move was entropy_total, 6.0e-12 relative.  Against a
solve to a 100 times tighter Newton tolerance the old values were off by up
to 7.4e-12 relative and the new ones by up to 2.4e-12.  It was re-recorded
once more when the Newton start became the cubic extrapolation, the
Laplacian and the energy flux fused chains of axis operators and the
advection load moved to the fine grid: the largest move was entropy_total,
4.0e-12 relative (the balance residuals 3.6e-15 absolute).  Against the same
tighter solve the old values were off by up to 2.4e-12 relative and the new
ones by up to 5.3e-12; both stop inside the Newton tolerance, the new ones
after fewer iterations.
Any drift in a constitutive or regularization term moves these values, also
away from an equilibrium where the balance residuals are not zero by
symmetry.

Re-record (only when a change of the numbers is intended) with
``PYTHONPATH=src python tests/test_golden_report.py``.
"""

import csv
import math
from pathlib import Path

import pytest

from mhdlab import diagnostics as diag
from mhdlab.config import parse_config
from mhdlab.solver import regularize_initial_data, run

GOLDEN = Path(__file__).parent / "data" / "report_smooth32.csv"

CONFIG = """
[grid]
nx = 32
ny = 32

[reg]
epsilon = 0.0125
delta = 0.01
n = 4

[time]
t_final = 0.025
dt = 0.0025

[initial]
rho = 1 + 0.05*cos(pi*x)*cos(pi*y)
b = (1 + 0.05*cos(pi*x)*cos(pi*y))*(2 + 0.2*cos(pi*x))
theta = 1 + 0.05*cos(pi*y)
ux = 0.05*sin(pi*x)*sin(pi*y)
uy = 0
"""

# the balance residuals are themselves round-off-scale differences
ABSOLUTE = {"energy_balance_residual", "entropy_balance_residual"}
TOL = 1e-14


def golden_run():
    cfg = parse_config(CONFIG)
    initial = regularize_initial_data(cfg.build_initial_data(), cfg.reg)
    return run(initial, cfg.reg, cfg.eos, cfg.schedule)


@pytest.fixture(scope="module")
def trajectory():
    return golden_run()


def test_report_matches_golden_csv(trajectory):
    with open(GOLDEN, newline="") as fh:
        rows = list(csv.DictReader(fh))
    reports = trajectory.diagnostics
    assert len(rows) == len(reports) == 11
    assert list(rows[0]) == diag.CSV_COLUMNS
    for row, rep in zip(rows, reports):
        for col in diag.CSV_COLUMNS:
            want, got = float(row[col]), float(getattr(rep, col))
            if col in ABSOLUTE:
                ok = abs(got - want) <= TOL
            else:
                ok = math.isclose(got, want, rel_tol=TOL, abs_tol=0.0)
            assert ok, f"{col} at t = {rep.t:g}: {got!r} != golden {want!r}"


def test_pcg_iterations_per_newton_iteration(trajectory):
    # the mean-symbol preconditioner keeps the inner solve short on every step
    for rep in trajectory.step_reports:
        assert rep.newton_iterations >= 1
        per_newton = rep.krylov_iterations / rep.newton_iterations
        assert 1 <= per_newton <= 10, f"t = {rep.t:g}: {per_newton} PCG per Newton"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    diag.write_diagnostics_csv(golden_run().diagnostics, GOLDEN)
    print(f"wrote {GOLDEN}")

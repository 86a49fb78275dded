"""Golden values of `diagnostics.report` along a short smooth run.

`data/report_smooth32.csv` holds every report (the initial slice plus ten
steps) of the `smooth.ini` problem on a 32^2 grid with n = 4, recorded
before the pointwise physics was gathered into one layer.  Any drift in a
constitutive or regularization term moves these values, also away from an
equilibrium where the balance residuals are not zero by symmetry.

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


def golden_reports():
    cfg = parse_config(CONFIG)
    initial = regularize_initial_data(cfg.build_initial_data(), cfg.reg)
    return run(initial, cfg.reg, cfg.eos, cfg.schedule).diagnostics


def test_report_matches_golden_csv():
    with open(GOLDEN, newline="") as fh:
        rows = list(csv.DictReader(fh))
    reports = golden_reports()
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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    diag.write_diagnostics_csv(golden_reports(), GOLDEN)
    print(f"wrote {GOLDEN}")

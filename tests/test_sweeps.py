import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mhdlab import solver
from mhdlab.errors import BasisError, DomainError, StepFailure
from mhdlab.grid import Grid, ScalarField, VectorField, GalerkinBasis
from mhdlab.solver import InitialData, RegParams, initial_state
from mhdlab.sweeps import (
    SweepPlan,
    artificial_norms,
    sweep,
    write_sweep_csv,
    zeta_field,
    zeta_metric,
)
from mhdlab.thermo import EosParams

P = EosParams()


def make_state(grid, rho_vals, b_vals):
    init = InitialData(
        ScalarField(grid, np.asarray(rho_vals, dtype=float)
                    * np.ones(grid.shape)),
        ScalarField(grid, np.asarray(b_vals, dtype=float) * np.ones(grid.shape)),
        ScalarField.constant(grid, 1.0),
        VectorField.zero(grid),
    )
    return initial_state(init, GalerkinBasis(grid, 2))


@pytest.mark.parametrize("module, other", [("mms", "sweeps"), ("sweeps", "mms")])
def test_ladder_modules_import_apart(module, other):
    # both reach the ladder driver through `solver`; importing one must not
    # load the other, whose import time every order study or sweep would pay
    script = (f"import sys, mhdlab.{module}\n"
              f"assert 'mhdlab.{other}' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestZetaMetric:
    def test_proportional_fields_give_zero(self):
        g = Grid(16, 16, 1.0, 1.0)
        st = make_state(g, 1.3, 2.6)
        ref = ScalarField.constant(g, 2.0)
        st_ref = make_state(g, 1.0, 2.0)
        assert zeta_metric(st, zeta_field(st_ref)) == pytest.approx(0.0, abs=1e-14)

    def test_unit_gap_value(self):
        # zeta = 2, reference 3, rho = 1 on the unit square, p = 1 -> 1.0
        g = Grid(16, 16, 1.0, 1.0)
        st = make_state(g, 1.0, 2.0)
        ref = ScalarField.constant(g, 3.0)
        assert zeta_metric(st, ref) == pytest.approx(1.0, rel=1e-13)

    def test_homogeneous_in_rho(self):
        g = Grid(16, 16, 1.0, 1.0)
        ref = ScalarField.constant(g, 3.0)
        m1 = zeta_metric(make_state(g, 1.0, 2.0), ref)
        m2 = zeta_metric(make_state(g, 4.0, 8.0), ref)
        assert m2 == pytest.approx(4.0 * m1, rel=1e-13)

    def test_self_distance_zero(self):
        g = Grid(16, 16)
        st = make_state(g, 1.7, 3.3)
        assert zeta_metric(st, zeta_field(st)) == 0.0

    def test_two_sided_bound(self):
        # if both zeta fields live in [C*, C^*], the metric is bounded by
        # (C^* - C*) times the mass
        g = Grid(16, 16, 1.0, 1.0)
        rho = 1.0 + 0.5 * np.cos(np.pi * g.X)
        zeta = 2.0 + 0.3 * np.cos(np.pi * g.Y)
        st = make_state(g, rho, rho * zeta)
        ref = ScalarField.constant(g, 2.15)
        both = np.concatenate([zeta_field(st).values.ravel(), ref.values.ravel()])
        bound = (both.max() - both.min()) * float(rho.sum() * g.weight)
        assert 0.0 < zeta_metric(st, ref) <= bound + 1e-13


class TestArtificialNorms:
    def test_uniform_unit_state(self):
        g = Grid(16, 16, 1.0, 1.0)
        st = make_state(g, 1.0, 1.0)
        reg = RegParams(epsilon=1e-2, delta=0.37)
        norms = artificial_norms(st, reg)
        for v in norms.values():
            assert v == pytest.approx(0.37, rel=1e-13)

    def test_linear_in_delta(self):
        g = Grid(16, 16)
        st = make_state(g, 1.4, 2.1)
        n1 = artificial_norms(st, RegParams(epsilon=1e-2, delta=0.1))
        n2 = artificial_norms(st, RegParams(epsilon=1e-2, delta=0.2))
        for key in n1:
            assert n2[key] == pytest.approx(2.0 * n1[key], rel=1e-13)
            assert n1[key] >= 0.0


class TestSweepPlan:
    def test_short_ladder_rejected(self):
        with pytest.raises(DomainError):
            SweepPlan("epsilon", (0.1, 0.05), RegParams(epsilon=0.05, delta=0.01))

    def test_monotonicity_enforced(self):
        base = RegParams(epsilon=0.05, delta=0.01)
        with pytest.raises(DomainError):
            SweepPlan("epsilon", (0.1, 0.2, 0.05), base)
        with pytest.raises(DomainError):
            SweepPlan("n", (8, 4, 16), base)

    def test_non_integral_n_rung_rejected(self):
        # a truncating n-ladder would run rung 4 twice
        with pytest.raises(DomainError):
            SweepPlan("n", (4, 4.5, 8), RegParams(epsilon=0.05, delta=0.01))

    @pytest.mark.parametrize("field, value", [
        ("t_cmp", np.inf), ("dt", np.inf), ("dt", np.nan),
    ])
    def test_non_finite_times_rejected(self, field, value):
        base = RegParams(epsilon=0.05, delta=0.01)
        with pytest.raises(DomainError):
            SweepPlan("epsilon", (0.1, 0.05, 0.025), base, **{field: value})

    @pytest.mark.parametrize("which, ladder", [
        ("epsilon", (0.1, 0.05, -0.01)), ("n", (0, 4, 8)), ("delta", (0.1, 0.05, 0.0)),
    ])
    def test_rung_outside_reg_params_rejected(self, which, ladder):
        with pytest.raises(DomainError):
            SweepPlan(which, ladder, RegParams(epsilon=0.05, delta=0.01))

    def test_comparison_time_off_the_step_grid_rejected(self):
        base = RegParams(epsilon=0.05, delta=0.01)
        with pytest.raises(DomainError):
            SweepPlan("epsilon", (0.1, 0.05, 0.025), base, t_cmp=0.051, dt=5e-3)

    def test_reg_override(self):
        base = RegParams(epsilon=0.05, delta=0.01, n=4)
        plan = SweepPlan("delta", (0.1, 0.05, 0.025), base)
        assert plan.reg_for(0.05).delta == 0.05
        assert plan.reg_for(0.05).epsilon == 0.05
        plan_n = SweepPlan("n", (2, 4, 8), base)
        assert plan_n.reg_for(8).n == 8


@pytest.fixture(scope="module")
def setup():
    g = Grid(16, 16, 1.0, 1.0)
    rho = ScalarField(g, 1.0 + 0.05 * np.cos(np.pi * g.X))
    basis = GalerkinBasis(g, 4)
    u = VectorField(g, 0.05 * basis.phi[0].reshape(g.shape),
                    np.zeros(g.shape))
    return InitialData(rho, ScalarField(g, 2 * rho.values),
                       ScalarField.constant(g, 1.0), u)


class TestSweep:
    def test_epsilon_sweep_structure(self, setup, tmp_path):
        base = RegParams(epsilon=0.025, delta=1e-2, n=4)
        plan = SweepPlan("epsilon", (0.1, 0.05, 0.025), base,
                         t_cmp=0.05, dt=5e-3)
        report = sweep(plan, setup, P)
        assert report.failed_rung is None
        assert len(report.values) == 3
        assert len(report.distances) == 3
        # finest rung is its own reference
        assert report.distances[-1]["dist_l2_rho"] == 0.0
        assert report.zeta_metrics[-1] == 0.0
        assert all(z >= 0.0 for z in report.zeta_metrics)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(report, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("value,dist_l1_rho")

    def test_n_ladder_beyond_basis_rejected_before_any_rung(self, setup, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a rung ran")

        monkeypatch.setattr(solver, "run", no_run)
        plan = SweepPlan("n", (4, 8, 50), RegParams(epsilon=0.025, delta=1e-2))
        with pytest.raises(BasisError):
            sweep(plan, setup, P)  # 16x16 grid: at most 49 modes

    def test_deterministic(self, setup):
        base = RegParams(epsilon=0.025, delta=1e-2, n=4)
        plan = SweepPlan("epsilon", (0.1, 0.05, 0.025), base,
                         t_cmp=0.05, dt=5e-3)
        r1 = sweep(plan, setup, P)
        r2 = sweep(plan, setup, P)
        assert r1.distances == r2.distances
        assert r1.zeta_metrics == r2.zeta_metrics

    def test_delta_ladder_artificial_norms_at_least_linear(self, setup):
        # halving delta at fixed comparison time must at least halve each
        # artificial norm (exact at t = 0, approximate after evolution)
        base = RegParams(epsilon=1e-2, delta=0.025, n=4)
        plan = SweepPlan("delta", (0.1, 0.05, 0.025), base,
                         t_cmp=0.05, dt=5e-3)
        report = sweep(plan, setup, P)
        assert report.failed_rung is None
        for key in report.artificial[0]:
            series = [a[key] for a in report.artificial]
            for i in range(len(series) - 1):
                assert series[i] >= 1.8 * series[i + 1]

    def test_failed_sweep_keeps_the_rungs_that_ran(self, setup, tmp_path,
                                                    monkeypatch):
        base = RegParams(epsilon=0.025, delta=1e-2, n=4)
        plan = SweepPlan("epsilon", (0.1, 0.05, 0.025), base,
                         t_cmp=0.05, dt=5e-3)
        finals = []
        orig_run = solver.run

        def run_two(initial, reg, *args, **kwargs):
            if len(finals) == 2:
                raise StepFailure("the last rung fails")
            traj = orig_run(initial, reg, *args, **kwargs)
            finals.append((traj.final(), reg))
            return traj

        monkeypatch.setattr(solver, "run", run_two)
        report = sweep(plan, setup, P)
        assert report.failed_rung == 0.025
        assert report.values == [0.1, 0.05]
        assert report.distances == [] and report.zeta_metrics == []
        path = tmp_path / "sweep.csv"
        write_sweep_csv(report, path)
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 2
        for row, v, (final, reg) in zip(rows, (0.1, 0.05), finals):
            cells = row.split(",")
            assert float(cells[0]) == v
            assert cells[1:9] == [""] * 8  # distances and zeta metric
            norms = artificial_norms(final, reg)
            assert [float(c) for c in cells[9:]] == list(norms.values())

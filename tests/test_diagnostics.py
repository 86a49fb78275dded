from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from weak_form_oracles import weak_entropy_momentum_table

from mhdlab import diagnostics as diag
from mhdlab.errors import DomainError
from mhdlab.grid import Grid, ScalarField, VectorField, GalerkinBasis
from mhdlab.solver import (
    InitialData,
    RegParams,
    Schedule,
    initial_state,
    run,
)
from mhdlab.thermo import EosParams
from mhdlab.tolerances import TOLERANCES

P = EosParams()
REG = RegParams(epsilon=1e-2, delta=1e-2, Gamma=8.0, n=4)


def equilibrium_state(grid, b=2.0):
    init = InitialData(
        ScalarField.constant(grid, 1.0),
        ScalarField.constant(grid, b),
        ScalarField.constant(grid, 1.0),
        VectorField.zero(grid),
    )
    return initial_state(init, GalerkinBasis(grid, REG.n))


def smooth_state(grid, amp=0.05, seed=0):
    rng = np.random.default_rng(seed)
    basis = GalerkinBasis(grid, REG.n)
    rho = ScalarField(
        grid, 1.0 + amp * np.cos(np.pi * grid.X) * np.cos(np.pi * grid.Y)
    )
    b = ScalarField(grid, rho.values * (2.0 + amp * np.cos(np.pi * grid.X)))
    theta = ScalarField(grid, 1.0 + amp * np.cos(np.pi * grid.Y))
    c = amp * rng.standard_normal(2 * basis.n)
    init = InitialData(rho, b, theta, VectorField.zero(grid))
    st = initial_state(init, basis)
    from mhdlab.grid import reconstruct

    st.u = reconstruct(c, basis)
    return st


class TestReport:
    def test_equilibrium_values(self):
        g = Grid(16, 16, 1.0, 1.0)
        st = equilibrium_state(g)
        rep = diag.report(st, REG, P)
        assert rep.energy_balance_residual == pytest.approx(0.0, abs=1e-12)
        assert rep.entropy_balance_residual == pytest.approx(0.0, abs=1e-12)
        # only the delta/theta^3 production term survives at the equilibrium
        assert rep.sigma_integral == pytest.approx(REG.delta * g.area, rel=1e-14)
        assert rep.domination_min == pytest.approx(2.0)
        assert rep.domination_max == pytest.approx(2.0)
        assert rep.mass_rho == pytest.approx(1.0, rel=1e-14)
        assert rep.total_energy == rep.kinetic_energy + rep.magnetic_energy \
            + rep.internal_energy_total + rep.artificial_energy

    def test_sigma_nonnegative_on_random_state(self):
        g = Grid(32, 32)
        st = smooth_state(g, seed=3)
        sig = diag.sigma_nodal(st, REG, P)
        assert float(sig.min()) >= -1e-12

    def test_report_deterministic(self):
        g = Grid(16, 16)
        st = smooth_state(g, seed=5)
        r1 = diag.report(st, REG, P)
        r2 = diag.report(st.copy(), REG, P)
        for col in diag.CSV_COLUMNS:
            assert getattr(r1, col) == getattr(r2, col)

    def test_report_forms_each_term_once(self, monkeypatch):
        # sigma and the entropy production reuse the terms of the tendencies:
        # one bundle (shear and gradient heating), one gradient per field, one
        # workspace with no CFL bound, and the advective divergences of b and
        # rho*e once each (that of rho comes from the workspace's mass flux,
        # that of rho*e is the nodal energy advection)
        from mhdlab import solver

        calls = {"gradient": 0, "velocity_gradient": 0, "__post_init__": 0,
                 "__init__": 0, "cfl_bound": 0, "_advective_divergence_cc": 0,
                 "_energy_advection": 0}
        for owner, name in ((solver, "gradient"), (solver, "velocity_gradient"),
                            (solver.Terms, "__post_init__"),
                            (solver.VelocityWorkspace, "__init__"),
                            (solver, "cfl_bound"), (solver, "_advective_divergence_cc"),
                            (solver, "_energy_advection")):
            def counted(*args, _orig=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        diag.report(smooth_state(Grid(16, 16), seed=1), REG, P)
        assert calls == {"gradient": 3, "velocity_gradient": 1, "__post_init__": 1,
                         "__init__": 1, "cfl_bound": 0, "_advective_divergence_cc": 1,
                         "_energy_advection": 1}

    def test_csv_column_order(self, tmp_path):
        g = Grid(16, 16)
        rep = diag.report(equilibrium_state(g), REG, P)
        path = tmp_path / "diag.csv"
        diag.write_diagnostics_csv([rep], path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(diag.CSV_COLUMNS)
        assert diag.CSV_COLUMNS[0] == "t"
        assert diag.CSV_COLUMNS[-1] == "floor_violations"


class TestEntropyWindow:
    def test_equilibrium_window_zero(self):
        g = Grid(16, 16)
        init = InitialData(
            ScalarField.constant(g, 1.0), ScalarField.constant(g, 2.0),
            ScalarField.constant(g, 1.0), VectorField.zero(g),
        )
        traj = run(init, REG, P, Schedule(t_final=0.02, dt=5e-3),
                   diagnostics_every=0)
        res = diag.entropy_balance_residual(traj.states[:3], REG, P)
        assert abs(res) <= 1e-12

    def test_window_too_short(self):
        g = Grid(16, 16)
        st = equilibrium_state(g)
        with pytest.raises(DomainError):
            diag.entropy_balance_residual([st, st], REG, P)


class TestCutoffs:
    def test_identity_below_k(self):
        for k in (1.0, 2.5, 7.0):
            z = np.linspace(0.0, k, 20)
            assert np.array_equal(diag.cutoff_T(z, k), z)

    def test_saturates_at_2k(self):
        for k in (1.0, 3.0):
            z = np.linspace(3 * k, 6 * k, 9)
            assert np.allclose(diag.cutoff_T(z, k), 2 * k)

    def test_continuous_nondecreasing_concave(self):
        z = np.linspace(0.0, 10.0, 4001)
        t = diag.cutoff_T(z, 2.0)
        dz = z[1] - z[0]
        slopes = np.diff(t) / dz
        assert np.all(slopes >= -1e-12)          # non-decreasing
        assert np.all(np.diff(slopes) <= 1e-9)   # concave
        assert np.abs(np.diff(t)).max() <= 2 * dz  # no jumps

    def test_prime_matches_finite_difference(self):
        z = np.linspace(0.05, 9.0, 200)
        h = 1e-6
        fd = (diag.cutoff_T(z + h, 2.0) - diag.cutoff_T(z - h, 2.0)) / (2 * h)
        assert np.abs(fd - diag.cutoff_T_prime(z, 2.0)).max() <= 1e-6

    def test_L_zero_at_one(self):
        for k in (1.0, 2.0, 5.0):
            assert diag.cutoff_L(1.0, k) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("k", [1.0, 2.0])
    @pytest.mark.parametrize("rho", [0.3, 0.9, 1.5, 2.5, 7.0, 12.0])
    def test_L_matches_quadrature_oracle(self, k, rho):
        expected = quad(lambda z: diag.cutoff_T(z, k) / z**2, 1.0, rho,
                        epsabs=1e-12, epsrel=1e-12)[0]
        assert diag.cutoff_L(rho, k) == pytest.approx(expected, abs=1e-9)

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            diag.cutoff_T(-0.1, 1.0)
        with pytest.raises(DomainError):
            diag.cutoff_L(np.array([1.0, -2.0]), 1.0)
        with pytest.raises(DomainError):
            diag.cutoff_T_prime(np.array([0.5, 2.0]), 0.0)
        # NaN is no admissible argument either
        with pytest.raises(DomainError):
            diag.cutoff_T(np.nan, 1.0)
        with pytest.raises(DomainError):
            diag.cutoff_T_prime(np.array([np.nan, 1.0]), 1.0)
        with pytest.raises(DomainError):
            diag.cutoff_L(np.nan, 1.0)


@pytest.fixture(scope="module")
def short_run():
    g = Grid(32, 32)
    rho = ScalarField(g, 1.0 + 0.05 * np.cos(np.pi * g.X))
    basis = GalerkinBasis(g, 4)
    u = VectorField(g, 0.05 * basis.phi[0].reshape(g.shape),
                    np.zeros(g.shape))
    init = InitialData(rho, ScalarField(g, 2 * rho.values),
                       ScalarField.constant(g, 1.0), u)
    return run(init, REG, P, Schedule(t_final=0.02, dt=2e-3),
               diagnostics_every=0)


@pytest.fixture(scope="module")
def trajectory():
    g = Grid(32, 32)
    rho = ScalarField(
        g, 1.0 + 0.03 * np.cos(np.pi * g.X) * np.cos(np.pi * g.Y)
    )
    basis = GalerkinBasis(g, 4)
    u = VectorField(g, 0.03 * basis.phi[0].reshape(g.shape),
                    np.zeros(g.shape))
    init = InitialData(rho, ScalarField(g, 2 * rho.values),
                       ScalarField(g, 1.0 + 0.03 * np.cos(np.pi * g.Y)), u)
    return run(init, REG, P, Schedule(t_final=0.1, dt=2e-3),
               diagnostics_every=0)


class TestRenormalized:
    def test_large_k_equals_continuity_residual(self, short_run):
        window = short_run.states[4:7]
        big_k = 100.0  # far above max(rho)
        renorm = diag.renormalized_residual(window, big_k, REG, "rho")
        # continuity residual: same formula with the identity cut-off
        ddt = (
            window[2].rho.values.sum() - window[0].rho.values.sum()
        ) * window[1].grid.weight / (window[2].t - window[0].t)
        assert abs(renorm - ddt) <= TOLERANCES["renormalized_vs_continuity"]

    def test_uniform_state_zero(self):
        g = Grid(16, 16)
        init = InitialData(
            ScalarField.constant(g, 1.0), ScalarField.constant(g, 2.0),
            ScalarField.constant(g, 1.0), VectorField.zero(g),
        )
        traj = run(init, REG, P, Schedule(t_final=0.01, dt=2e-3),
                   diagnostics_every=0)
        res = diag.renormalized_residual(traj.states[:3], 1.0, REG, "rho")
        assert abs(res) <= 1e-12

    def test_window_and_field_validation(self, short_run):
        with pytest.raises(DomainError):
            diag.renormalized_residual(short_run.states[:2], 1.0, REG, "rho")
        with pytest.raises(DomainError):
            diag.renormalized_residual(short_run.states[:3], 1.0, REG, "phi")

    def test_active_cutoff_differs_from_continuity(self, short_run):
        window = short_run.states[4:7]
        active = diag.renormalized_residual(window, 1.0, REG, "rho")
        plain = diag.renormalized_residual(window, 100.0, REG, "rho")
        assert active != pytest.approx(plain, abs=1e-10)


@pytest.fixture(scope="module")
def dt_pair():
    g = Grid(32, 32)
    rho = ScalarField(g, 1.0 + 0.05 * np.cos(np.pi * g.X)
                      * np.cos(np.pi * g.Y))
    b = ScalarField(g, rho.values * (2.0 + 0.2 * np.cos(np.pi * g.X)))
    th = ScalarField(g, 1.0 + 0.05 * np.cos(np.pi * g.Y))
    basis = GalerkinBasis(g, 4)
    u = VectorField(g, 0.05 * basis.phi[0].reshape(g.shape),
                    np.zeros(g.shape))
    init = InitialData(rho, b, th, u)
    return {
        dt: run(init, REG, P, Schedule(t_final=0.1, dt=dt),
                diagnostics_every=0)
        for dt in (1e-3, 5e-4)
    }


class TestRichardson:
    def test_mechanical_energy_identity_first_order(self, dt_pair):
        defects = [abs(diag.mechanical_energy_defect(dt_pair[dt]))
                   for dt in (1e-3, 5e-4)]
        ratio = defects[0] / defects[1]
        assert 1.7 <= ratio <= 2.3

    def test_renormalized_residual_first_order(self, dt_pair):
        residuals = []
        for dt in (1e-3, 5e-4):
            traj = dt_pair[dt]
            k = round(0.05 / dt)
            window = traj.states[k - 1:k + 2]
            # k = 1 bites: rho ranges above 1, so the concave bridge is active
            residuals.append(abs(diag.renormalized_residual(window, 1.0, REG,
                                                            "rho")))
        ratio = residuals[0] / residuals[1]
        assert 1.6 <= ratio <= 2.4

    def test_mechanical_defect_needs_stride_one(self, dt_pair):
        strided = replace(dt_pair[1e-3], stride=2)
        with pytest.raises(DomainError):
            diag.mechanical_energy_defect(strided)


class TestWeakResiduals:
    def test_space_constant_tests_reproduce_mass_conservation(self, trajectory):
        table = diag.weak_residuals(trajectory)
        assert abs(table[("continuity", "const")]) <= 1e-9
        assert abs(table[("magnetic", "const")]) <= 1e-9

    def test_table_has_the_24_fixed_rows(self, trajectory):
        scalar = ["const", "cosx", "cosy", "cosxy", "cos2x", "cos2y", "bump",
                  "halfcos"]
        entropy = ["const", "bump", "halfcos"]
        momentum = ["mom_x", "mom_y", "mom_xcos", "mom_ycos"]
        table = diag.weak_residuals(trajectory)
        assert set(table) == (
            {(eq, name) for eq in ("continuity", "magnetic") for name in scalar}
            | {("energy", "const")}
            | {("entropy", name) for name in entropy}
            | {("momentum", name) for name in momentum}
        )
        # the entropy inequality is tested only on nonnegative tests
        tests, _ = diag._weak_tests(trajectory.states[0].grid)
        assert all(tests[name][0].min() >= 0.0 for name in entropy)

    def test_late_start_keeps_the_mass_rows(self, trajectory):
        # sliced to start at t0 > 0, the initial-data term psi(t0) int f0 chi
        # carries a window value below 1 and still closes the mass identities
        late = replace(trajectory, states=trajectory.states[5:])
        assert late.states[0].t > 0.0
        table = diag.weak_residuals(late)
        for eq in ("continuity", "magnetic"):
            assert abs(table[(eq, "const")]) <= TOLERANCES["weak_mass_residual"]

    def test_entropy_and_momentum_entries_match_the_hand_expanded_oracle(
            self, dt_pair):
        # the half-delta entropy production and the momentum flux now come
        # from the term layer; the hand-expanded integrands agree to round-off
        traj = dt_pair[1e-3]
        table = diag.weak_residuals(traj)
        want = weak_entropy_momentum_table(traj)
        assert {k[0] for k in want} == {"entropy", "momentum"}
        for key, value in want.items():
            assert table[key] == pytest.approx(value, rel=0.0, abs=1e-14), key


class TestInequalityConstants:
    def test_korn_is_inverse_sqrt2_for_noslip_fields(self):
        # in L2 the cross terms integrate out for no-slip fields, so
        # |grad U| = |A(U)| / sqrt(2); the empirical ratio sits there up to
        # the quadrature's second-order treatment of the odd cross terms
        g = Grid(32, 32)
        korn, _, _ = diag.inequality_constants(g, samples=100, seed=1)
        assert korn == pytest.approx(1.0 / np.sqrt(2.0), abs=5e-3)

    def test_poincare_constant_field_ratio(self):
        # a constant scalar gives ratio sqrt(|Omega| / |Omega'|) = sqrt(2)
        g = Grid(16, 16, 1.0, 1.0)
        f = ScalarField.constant(g, 3.0)
        w = g.weight
        half = g.X < 0.5
        l2 = np.sqrt((f.values**2).sum() * w)
        l2_half = np.sqrt((f.values[half] ** 2).sum() * w)
        assert l2 / l2_half == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_requires_hundred_samples(self):
        with pytest.raises(DomainError):
            diag.inequality_constants(Grid(16, 16), samples=10)

    def test_deterministic_given_seed(self):
        g = Grid(16, 16)
        a = diag.inequality_constants(g, samples=100, seed=7)
        b = diag.inequality_constants(g, samples=100, seed=7)
        assert a == b


class TestHelmholtzFunctional:
    def test_bounded_along_equilibrium_run(self):
        g = Grid(16, 16)
        init = InitialData(
            ScalarField.constant(g, 1.0), ScalarField.constant(g, 2.0),
            ScalarField.constant(g, 1.0), VectorField.zero(g),
        )
        traj = run(init, REG, P, Schedule(t_final=0.05, dt=5e-3))
        h0 = traj.diagnostics[0].helmholtz_functional
        for d in traj.diagnostics:
            assert d.helmholtz_functional <= h0 + 1e-10

    def test_growth_bounded_by_measured_rate(self):
        g = Grid(32, 32)
        rho = ScalarField(g, 1.0 + 0.05 * np.cos(np.pi * g.X))
        basis = GalerkinBasis(g, 4)
        u = VectorField(g, 0.05 * basis.phi[0].reshape(g.shape),
                        np.zeros(g.shape))
        init = InitialData(rho, ScalarField(g, 2 * rho.values),
                           ScalarField.constant(g, 1.0), u)
        traj = run(init, REG, P, Schedule(t_final=0.1, dt=2e-3))
        h = [d.helmholtz_functional for d in traj.diagnostics]
        increments = np.diff(h)
        c_rate = max(0.0, increments.max() / traj.dt)
        n_steps = len(traj.step_reports)
        assert h[-1] <= h[0] + c_rate * traj.dt * n_steps + 1e-12
        # the measured growth rate is bounded by the source scale
        source_scale = max(
            abs(r.source_rate) for r in traj.step_reports
        )
        assert c_rate <= 2.0 * source_scale + 1e-12

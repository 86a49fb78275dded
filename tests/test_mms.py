import numpy as np
import pytest
from weak_form_oracles import mms_momentum_forcing

from mhdlab.errors import BasisError, DomainError
from mhdlab.grid import Grid, GalerkinBasis, ScalarField, VectorField, project_velocity
from mhdlab.mms import (
    CosineFactor,
    ManufacturedSolution,
    MmsForcing,
    ModalVelocity,
    PoissonFactor,
    SeparableField,
    TimeFactor,
    spatial_order_study,
    spectral_probe_solution,
    standard_smooth_solution,
)
from mhdlab.solver import (
    InitialData, RegParams, Schedule, initial_state, run, tendencies,
)
from mhdlab.thermo import EosParams, rho_e_drho, rho_e_dtheta

P = EosParams()
REG = RegParams(epsilon=1e-2, delta=1e-2, Gamma=8.0, n=4)


class TestFactorDerivatives:
    """The hand-coded derivatives are the load-bearing part; check each
    against central differences."""

    @pytest.mark.parametrize("factor", [CosineFactor(2), PoissonFactor(0.7)])
    def test_factor_tables_match_finite_differences(self, factor):
        length = 1.3
        xs = np.linspace(0.1, 1.2, 23)
        h = 1e-5
        v, d1, d2 = factor.tables(xs, length)
        vp, _, _ = factor.tables(xs + h, length)
        vm, _, _ = factor.tables(xs - h, length)
        assert np.abs((vp - vm) / (2 * h) - d1).max() <= 1e-7
        assert np.abs((vp - 2 * v + vm) / h**2 - d2).max() <= 1e-4

    def test_field_time_derivative(self):
        grid = Grid(16, 16)
        f = SeparableField(1.0, 0.1, CosineFactor(1), CosineFactor(2),
                           TimeFactor(0.3, 2.0))
        h = 1e-6
        fd = (f.jet(0.4 + h, grid)[0] - f.jet(0.4 - h, grid)[0]) / (2 * h)
        assert np.abs(fd - f.jet(0.4, grid)[1]).max() <= 1e-8

    def test_velocity_jacobian_and_second(self):
        grid = Grid(32, 32, 1.1, 0.9)
        u = ModalVelocity([(0, 1, 2, 0.5), (1, 2, 1, 0.25)], TimeFactor(0.2, 1.0))
        from mhdlab.grid import VectorField, velocity_gradient

        t = 0.3
        (u1, u2), _, jac = u.jet(t, grid)
        spectral = velocity_gradient(VectorField(grid, u1, u2))
        for analytic, numeric in zip(jac, spectral):
            assert np.abs(analytic - numeric).max() <= 1e-10


class TestForcing:
    def test_uniform_equilibrium_forcing_vanishes(self):
        grid = Grid(16, 16)
        from mhdlab.mms import ConstantFactor

        zero_time = TimeFactor()
        ms = ManufacturedSolution(
            rho=SeparableField(1.0, 0.0, ConstantFactor(), ConstantFactor(), zero_time),
            theta=SeparableField(1.0, 0.0, ConstantFactor(), ConstantFactor(), zero_time),
            b=SeparableField(2.0, 0.0, ConstantFactor(), ConstantFactor(), zero_time),
            u=ModalVelocity([]),
        )
        reg = RegParams(epsilon=0.05, delta=0.05, n=2)
        basis = GalerkinBasis(grid, 2)
        forcing = MmsForcing(ms, reg, P, grid, basis)
        g_scalar, g_e, g_u = forcing.at(0.0)
        assert np.abs(g_scalar).max() <= 1e-12
        assert np.abs(g_e).max() <= 1e-12
        assert np.abs(g_u).max() <= 1e-12

    def test_exact_state_has_tiny_tendencies(self):
        # forced semi-discrete residual at the exact manufactured state
        grid = Grid(64, 64)
        basis = GalerkinBasis(grid, 4)
        ms = standard_smooth_solution(unsteady=False)
        forcing = MmsForcing(ms, REG, P, grid, basis)
        st = initial_state(ms.initial_data(grid), basis)
        tend = tendencies(st, REG, P, forcing=forcing)
        assert np.abs(tend.rho_dot).max() <= 1e-10
        assert np.abs(tend.b_dot).max() <= 1e-10
        assert np.abs(tend.rhoe_dot).max() <= 1e-9
        assert np.abs(tend.c_dot).max() <= 1e-10

    def test_unsteady_exact_state_has_the_exact_rates(self):
        # the forced tendencies at the exact state are its time derivatives,
        # which the steady test above cannot see
        grid = Grid(64, 64)
        basis = GalerkinBasis(grid, 4)
        ms = standard_smooth_solution(unsteady=True)
        t = 0.13
        rho, u1, u2, b, th = ms.state_fields(t, grid)
        st = initial_state(InitialData(ScalarField(grid, rho), ScalarField(grid, b),
                                       ScalarField(grid, th), VectorField(grid, u1, u2)),
                           basis)
        st.t = t
        tend = tendencies(st, REG, P, forcing=MmsForcing(ms, REG, P, grid, basis))
        rho_t, b_t, th_t = (f.jet(t, grid)[1] for f in (ms.rho, ms.b, ms.theta))
        rhoe_t = rho_e_drho(rho, th, P) * rho_t + rho_e_dtheta(rho, th, P) * th_t
        c_t = project_velocity(VectorField(grid, *ms.u.jet(t, grid)[1]), basis)
        assert np.abs(tend.rho_dot - rho_t).max() <= 1e-10
        assert np.abs(tend.b_dot - b_t).max() <= 1e-10
        assert np.abs(tend.rhoe_dot - rhoe_t).max() <= 1e-9
        assert np.abs(tend.c_dot - c_t).max() <= 1e-10

    @pytest.mark.parametrize("ms, t", [
        (standard_smooth_solution(unsteady=True), 0.0),
        (standard_smooth_solution(unsteady=True), 0.13),
        (spectral_probe_solution(), 0.0),
    ])
    def test_momentum_forcing_matches_the_hand_expanded_oracle(self, ms, t):
        grid = Grid(32, 32)
        basis = GalerkinBasis(grid, 4)
        p = EosParams(gamma=1.4, mu0=2.0, mu1=0.5, kappa2=2.0, a=0.5)
        forcing = MmsForcing(ms, REG, p, grid, basis)
        want = mms_momentum_forcing(forcing, t)
        got = forcing.at(t)[2]
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=4 * np.finfo(float).eps * np.abs(want).max())

    def test_velocity_mode_outside_basis_rejected(self):
        grid = Grid(32, 32)
        basis = GalerkinBasis(grid, 2)  # modes (1,1), (1,2)
        ms = ManufacturedSolution(
            rho=SeparableField(1.0, 0.05, CosineFactor(1), CosineFactor(1)),
            theta=SeparableField(1.0, 0.0, CosineFactor(1), CosineFactor(1)),
            b=SeparableField(2.0, 0.0, CosineFactor(1), CosineFactor(1)),
            u=ModalVelocity([(0, 3, 3, 0.1)]),
        )
        with pytest.raises(BasisError):
            MmsForcing(ms, REG, P, grid, basis)


class TestOrderStudies:
    def test_single_case_measures_no_order(self):
        with pytest.raises(DomainError):
            spatial_order_study(REG, P, grid_sizes=(32,))

    def test_unsteady_solution_tracks_exact(self):
        grid = Grid(32, 32)
        basis = GalerkinBasis(grid, 4)
        ms = standard_smooth_solution(unsteady=True)
        forcing = MmsForcing(ms, REG, P, grid, basis)
        traj = run(ms.initial_data(grid), REG, P,
                   Schedule(t_final=0.3, dt=2e-3, snapshot_stride=10**9),
                   forcing=forcing, diagnostics_every=0, basis=basis)
        assert ms.combined_error(traj.final()) <= 5e-3

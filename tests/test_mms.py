import numpy as np
import pytest

from mhdlab.errors import BasisError
from mhdlab.grid import Grid, GalerkinBasis
from mhdlab.mms import (
    CosineFactor,
    ManufacturedSolution,
    ModalVelocity,
    PoissonFactor,
    SeparableField,
    TimeFactor,
    manufactured_forcing,
    spatial_order_study,
    standard_smooth_solution,
    temporal_order_study,
)
from mhdlab.solver import RegParams, Schedule, initial_state, run, tendencies
from mhdlab.thermo import EosParams

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
        fd = (f.value(0.4 + h, grid) - f.value(0.4 - h, grid)) / (2 * h)
        assert np.abs(fd - f.dt(0.4, grid)).max() <= 1e-8

    def test_velocity_jacobian_and_second(self):
        grid = Grid(32, 32, 1.1, 0.9)
        u = ModalVelocity([(0, 1, 2, 0.5), (1, 2, 1, 0.25)], TimeFactor(0.2, 1.0))
        from mhdlab.grid import VectorField, velocity_gradient

        t = 0.3
        u1, u2 = u.value(t, grid)
        jac = u.jacobian(t, grid)
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
        forcing = manufactured_forcing(ms, reg, P, grid, basis)
        g_rho, g_b, g_e, g_u = forcing.at(0.0)
        assert np.abs(g_rho).max() <= 1e-12
        assert np.abs(g_b).max() <= 1e-12
        assert np.abs(g_e).max() <= 1e-12
        assert np.abs(g_u).max() <= 1e-12

    def test_exact_state_has_tiny_tendencies(self):
        # forced semi-discrete residual at the exact manufactured state
        grid = Grid(64, 64)
        basis = GalerkinBasis(grid, 4)
        ms = standard_smooth_solution(unsteady=False)
        forcing = manufactured_forcing(ms, REG, P, grid, basis)
        st = initial_state(ms.initial_data(grid), basis)
        tend = tendencies(st, REG, P, forcing=forcing)
        assert np.abs(tend.rho_dot).max() <= 1e-10
        assert np.abs(tend.b_dot).max() <= 1e-10
        assert np.abs(tend.rhoe_dot).max() <= 1e-9
        assert np.abs(tend.c_dot).max() <= 1e-10

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
            manufactured_forcing(ms, REG, P, grid, basis)


class TestOrderStudies:
    def test_spatial_probe_converges_on_coarse_pair(self):
        errors, orders = spatial_order_study(
            REG, P, grid_sizes=(16, 32), t_final=0.2, dt=4e-3
        )
        assert errors[1] < errors[0]
        assert orders[0] >= 1.9

    def test_temporal_first_order_quick(self):
        errors, orders = temporal_order_study(
            REG, P, grid_size=16, dts=(8e-3, 4e-3), t_final=0.2
        )
        assert orders[0] >= 0.9

    def test_unsteady_solution_tracks_exact(self):
        grid = Grid(32, 32)
        basis = GalerkinBasis(grid, 4)
        ms = standard_smooth_solution(unsteady=True)
        forcing = manufactured_forcing(ms, REG, P, grid, basis)
        traj = run(ms.initial_data(grid), REG, P,
                   Schedule(t_final=0.3, dt=2e-3, snapshot_stride=10**9),
                   forcing=forcing, diagnostics_every=0, basis=basis)
        assert ms.combined_error(traj.final()) <= 5e-3

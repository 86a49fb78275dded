import gc
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import dblquad

from mhdlab.errors import CflError, DomainError, NewtonError, StepFailure
from mhdlab.grid import (
    COS, Grid, ScalarField, VectorField, GalerkinBasis, fwd2, gradient, integrate,
    laplacian_neumann, reconstruct,
)
from mhdlab.solver import (
    InitialData,
    RegParams,
    Schedule,
    State,
    advance_momentum,
    advance_scalar,
    advance_temperature,
    cfl_bound,
    initial_state,
    regularize_initial_data,
    run,
    step,
    tendencies,
    _kirchhoff_operator,
    _cosine_dot,
    _newton_direction,
    _pcg,
    _temperature_failure,
)
from mhdlab.thermo import EosParams, kappa_delta, rho_e_dtheta
from mhdlab.tolerances import TOLERANCES

P = EosParams()


def smooth_initial(grid, amp=0.05, n=4, zeta="2"):
    rho = ScalarField.from_function(
        grid, lambda x, y: 1 + amp * np.cos(np.pi * x / grid.lx)
        * np.cos(np.pi * y / grid.ly)
    )
    if zeta == "2":
        b = ScalarField(grid, 2.0 * rho.values)
    else:
        b = ScalarField(
            grid, rho.values * (2.0 + 0.2 * np.cos(np.pi * grid.X / grid.lx))
        )
    theta = ScalarField.from_function(
        grid, lambda x, y: 1 + amp * np.cos(np.pi * y / grid.ly)
    )
    basis = GalerkinBasis(grid, n)
    u = VectorField(grid, amp * basis.phi[0].reshape(grid.shape),
                    np.zeros(grid.shape))
    return InitialData(rho, b, theta, u), basis


def uniform_state(grid, n=2, rho=1.0, b=1.0, theta=1.0):
    init = InitialData(
        ScalarField.constant(grid, rho),
        ScalarField.constant(grid, b),
        ScalarField.constant(grid, theta),
        VectorField.zero(grid),
    )
    return initial_state(init, GalerkinBasis(grid, n))


def advance_one_scalar(f, u, epsilon, dt):
    """`advance_scalar` of f alone: a state whose rho and b are both f."""
    rho_new, _ = advance_scalar(State(0.0, f, f, f, u), epsilon, dt)
    return rho_new


def frozen_temperature(st, reg, dt):
    """`advance_temperature` with rho and b held at their time-t values."""
    return advance_temperature(st, reg, P, dt, st.rho, st.b, gradient(st.rho))


def frozen_momentum(st, reg, dt):
    """The velocity of `advance_momentum` with rho, b and theta held at their
    time-t values."""
    u, _ = advance_momentum(st, reg, P, dt, st.rho, st.b, st.theta, gradient(st.rho))
    return u


class TestSchedule:
    @pytest.mark.parametrize("t_final, dt", [
        (0.25, 0.1),    # would stop at t = 0.2
        (0.04, 0.1),    # would take one full step to t = 0.1
        (0.3 + 1e-8, 0.1),
    ])
    def test_end_time_off_the_step_grid_rejected(self, t_final, dt):
        with pytest.raises(DomainError):
            Schedule(t_final=t_final, dt=dt)

    @pytest.mark.parametrize("t_final, dt, n", [
        (0.3, 0.1, 3), (0.5, 2.5e-3, 200), (0.4, 8e-3, 50), (1e-3, 1e-3, 1),
    ])
    def test_whole_multiples_accepted(self, t_final, dt, n):
        assert Schedule(t_final=t_final, dt=dt).n_steps == n


class TestRegParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            RegParams(epsilon=0.0, delta=0.1)
        with pytest.raises(DomainError):
            RegParams(epsilon=0.1, delta=-1.0)
        with pytest.raises(DomainError):
            RegParams(epsilon=0.1, delta=0.1, Gamma=3.0)


class TestInitialData:
    def test_domination_constants(self):
        g = Grid(16, 16)
        rho = ScalarField.constant(g, 1.0)
        b = ScalarField(g, 2.0 * rho.values)
        init = InitialData(rho, b, ScalarField.constant(g, 1.0),
                           VectorField.zero(g))
        assert init.c_star == pytest.approx(2.0)
        assert init.c_star_upper == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        g = Grid(16, 16)
        bad = ScalarField.constant(g, 1.0)
        bad.values[0, 0] = -0.1
        with pytest.raises(DomainError):
            InitialData(bad, ScalarField.constant(g, 1.0),
                        ScalarField.constant(g, 1.0), VectorField.zero(g))


class TestRegularizeInitialData:
    def test_constant_data_unchanged(self):
        g = Grid(16, 16)
        init = InitialData(
            ScalarField.constant(g, 1.5), ScalarField.constant(g, 3.0),
            ScalarField.constant(g, 0.8), VectorField.zero(g),
        )
        reg = RegParams(epsilon=1e-2, delta=1e-2)
        out = regularize_initial_data(init, reg)
        assert np.abs(out.rho0.values - 1.5).max() <= 1e-13
        assert out.c_star == pytest.approx(2.0, abs=1e-12)
        assert out.c_star_upper == pytest.approx(2.0, abs=1e-12)

    def test_proportional_fields_keep_ratio(self):
        g = Grid(32, 32)
        rho = ScalarField.from_function(
            g, lambda x, y: 1.0 + 0.5 * (x > 0.5)  # step profile
        )
        init = InitialData(rho, ScalarField(g, 2.0 * rho.values),
                           ScalarField.constant(g, 1.0), VectorField.zero(g))
        out = regularize_initial_data(init, RegParams(epsilon=1e-2, delta=1e-2))
        assert out.c_star >= 2.0 - 1e-10
        assert out.c_star_upper <= 2.0 + 1e-10

    def test_step_data_keeps_two_sided_bounds(self):
        g = Grid(64, 64)
        rho = ScalarField.from_function(g, lambda x, y: np.where(x < 0.5, 1.0, 2.0))
        init = InitialData(rho, ScalarField(g, 3.0 * rho.values),
                           ScalarField.constant(g, 1.0), VectorField.zero(g))
        out = regularize_initial_data(init, RegParams(epsilon=1e-2, delta=1e-2))
        assert out.rho0.values.min() >= 1.0 - 1e-10
        assert out.rho0.values.max() <= 2.0 + 1e-10
        # mollified field is genuinely smoothed, not a copy
        assert 1.0 + 1e-3 < out.rho0.values.mean() < 2.0 - 1e-3

    def test_domination_preserved_on_generic_data(self):
        g = Grid(32, 32)
        rho = ScalarField.from_function(g, lambda x, y: 1 + 0.4 * (x > 0.3))
        b = ScalarField(g, rho.values * (2.0 + 0.5 * (g.Y > 0.6)))
        init = InitialData(rho, b, ScalarField.constant(g, 1.0),
                           VectorField.zero(g))
        out = regularize_initial_data(init, RegParams(epsilon=1e-2, delta=1e-2))
        assert out.c_star >= init.c_star - 1e-10
        assert out.c_star_upper <= init.c_star_upper + 1e-10


class TestAdvanceScalar:
    def test_constant_unchanged(self):
        g = Grid(16, 16)
        f = ScalarField.constant(g, 2.3)
        out = advance_one_scalar(f, VectorField.zero(g), 0.05, 1e-2)
        assert np.abs(out.values - 2.3).max() <= 1e-14

    def test_diffusive_decay_matches_heat_kernel(self):
        # u = 0 reduces to the heat equation; dt-refined backward Euler
        # must match the analytic mode decay within 1e-6 at t = 1
        g = Grid(32, 32, 1.0, 1.0)
        eps, dt, t_final = 0.01, 1e-3, 1.0
        f = ScalarField.from_function(g, lambda x, y: 1 + 0.1 * np.cos(np.pi * x))
        u = VectorField.zero(g)
        for _ in range(int(round(t_final / dt))):
            f = advance_one_scalar(f, u, eps, dt)
        amp = float(
            (f.values * np.cos(np.pi * g.X)).sum() * g.weight / (g.area / 2.0)
        )
        exact = 0.1 * np.exp(-eps * np.pi**2 * t_final)
        assert abs(amp - exact) <= 1e-6

    def test_mass_conserved_with_advection(self):
        g = Grid(32, 32)
        basis = GalerkinBasis(g, 4)
        u = VectorField(
            g,
            0.1 * basis.phi[0].reshape(g.shape),
            0.05 * basis.phi[2].reshape(g.shape),
        )
        f = ScalarField.from_function(
            g, lambda x, y: 1 + 0.3 * np.cos(np.pi * x) * np.cos(2 * np.pi * y)
        )
        m0 = integrate(f)
        for _ in range(20):
            f = advance_one_scalar(f, u, 1e-2, 5e-3)
        assert abs(integrate(f) - m0) <= 1e-12 * abs(m0)

    def test_cfl_violation_reports_suggested_dt(self):
        g = Grid(16, 16)
        u = VectorField(g, np.full(g.shape, 2.0) * np.sin(np.pi * g.X),
                        np.zeros(g.shape))
        f = ScalarField.constant(g, 1.0)
        with pytest.raises(CflError) as err:
            advance_one_scalar(f, u, 1e-2, 1.0)
        assert err.value.suggested_dt == pytest.approx(cfl_bound(u))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_velocity_fails_the_cfl_check(self, bad):
        # cfl_bound is nan (or 0) for such a velocity; the step must stop at
        # the check, naming the velocity, before rho and b turn non-finite
        # and the temperature Newton reports a misleading stall
        init, basis = smooth_initial(Grid(16, 16))
        st = initial_state(init, basis)
        c = st.u.coeffs.copy()
        c[1] = bad
        st = State(0.0, st.rho, st.b, st.theta, reconstruct(c, basis))
        with pytest.raises(StepFailure, match="velocity is not finite") as err:
            step(st, RegParams(epsilon=1e-2, delta=1e-2, n=4), P, 1e-3)
        assert type(err.value) is StepFailure


class TestAdvanceTemperature:
    def test_equilibrium_fixed_point(self):
        g = Grid(16, 16)
        st = uniform_state(g)
        reg = RegParams(epsilon=0.3, delta=0.3)
        theta, info = frozen_temperature(st, reg, 1e-2)
        assert np.abs(theta.values - 1.0).max() <= 1e-12
        assert info.iterations == 0
        assert info.krylov_iterations == info.line_search_backtracks == 0

    def test_relaxes_toward_power_balance(self):
        # uniform state: theta drifts toward (delta/eps)^{1/7}
        g = Grid(16, 16)
        st = uniform_state(g, theta=1.2)
        reg = RegParams(epsilon=1.0, delta=2.0)
        theta_star = 2.0 ** (1.0 / 7.0)
        th = st.theta
        for _ in range(50):
            th, _ = frozen_temperature(State(0.0, st.rho, st.b, th, st.u), reg, 5e-3)
        assert abs(th.values.mean() - 1.2) > 0.01  # moved
        assert np.abs(th.values - theta_star).max() < abs(1.2 - theta_star)

    def test_linearized_diffusion_rate(self):
        # frozen rho, u = 0, tiny regularization: the leading cosine mode
        # decays at kappa(1) k^2 / (c_V rho + 4a) to within 2%
        g = Grid(32, 32, 1.0, 1.0)
        st = uniform_state(g)
        reg = RegParams(epsilon=1e-12, delta=1e-12)
        amp0 = 1e-3
        th = ScalarField(g, 1.0 + amp0 * np.cos(np.pi * g.X))
        dt, nsteps = 5e-4, 100

        def mode_amp(field):
            return float(
                (field.values * np.cos(np.pi * g.X)).sum() * g.weight
                / (g.area / 2.0)
            )

        cur = th
        for _ in range(nsteps):
            cur, _ = frozen_temperature(State(0.0, st.rho, st.b, cur, st.u), reg, dt)
        rate = -np.log(mode_amp(cur) / amp0) / (nsteps * dt)
        expected = P.kappa(1.0) * np.pi**2 / (P.c_V * 1.0 + 4.0 * P.a)
        assert rate == pytest.approx(expected, rel=0.02)


class TestKirchhoffPcg:
    """The temperature Newton direction: PCG on cosine coefficients in the
    Kirchhoff variable, against the dense nodal Jacobian."""

    DT = 1e-2
    REG = RegParams(epsilon=1e-2, delta=1e-2)

    def newton_system(self, g, seed=0):
        # theta varies by 30 %; res is rough, so every mode is excited
        rng = np.random.default_rng(seed)
        theta = 1.0 + 0.3 * np.cos(np.pi * g.X / g.lx) * np.cos(np.pi * g.Y / g.ly)
        rho = 1.0 + 0.2 * np.cos(np.pi * g.Y / g.ly)
        reg, dt = self.REG, self.DT
        diag = rho_e_dtheta(rho, theta, P) + dt * (
            2.0 * reg.delta / theta**3 + 5.0 * reg.epsilon * theta**4
        )
        kd = kappa_delta(theta, P, reg.delta, reg.Gamma)
        return rng.standard_normal(g.shape), diag, kd

    def test_direction_matches_dense_nodal_jacobian(self):
        g = Grid(16, 16, 1.3, 0.8)
        res, diag, kd = self.newton_system(g)
        nn = g.nx * g.ny
        lap = np.stack(
            [laplacian_neumann(ScalarField(g, e.reshape(g.shape))).values.ravel()
             for e in np.eye(nn)], axis=1
        )
        jac = np.diag(diag.ravel()) - self.DT * lap * kd.ravel()[None, :]
        v_ref = np.linalg.solve(jac, -res.ravel()).reshape(g.shape)
        v, iterations = _newton_direction(res, diag, kd, self.DT, g, atol=0.0)
        assert 1 < iterations < 50
        err = np.linalg.norm(v - v_ref) / np.linalg.norm(v_ref)
        assert err <= 1e-5

    def test_operator_symmetric_in_coefficient_weight(self):
        g = Grid(16, 32, 1.3, 0.8)
        _, diag, kd = self.newton_system(g)
        apply = _kirchhoff_operator(diag / kd, self.DT, g)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2,) + g.shape)
        xay = np.sum(g.w_cc * apply(x) * y)
        axy = np.sum(g.w_cc * x * apply(y))
        assert abs(xay - axy) <= 1e-12 * abs(xay)
        # the weight is the nodal inner product of cosine coefficients
        f, h = rng.standard_normal((2,) + g.shape)
        nodal = np.sum(f * h)
        coeff = g.nx * g.ny * np.sum(g.w_cc * fwd2(f, (COS, COS)) * fwd2(h, (COS, COS)))
        assert coeff == pytest.approx(nodal, rel=1e-12)

    def test_uniform_coefficients_converge_in_one_iteration(self):
        g = Grid(32, 16)
        a = np.full(g.shape, 3.7)
        symbol = 3.7 + self.DT * g.k2_cc
        rhs = np.random.default_rng(2).standard_normal(g.shape)
        x, iterations = _pcg(
            _kirchhoff_operator(a, self.DT, g), rhs, symbol, _cosine_dot(g),
            _temperature_failure, rtol=1e-6, atol=0.0,
        )
        assert iterations == 1
        assert np.abs(x - rhs / symbol).max() <= 1e-12 * np.abs(rhs / symbol).max()

    @pytest.mark.parametrize("case", [
        "nan_rhs", "inf_rhs", "nan_operator", "negative_curvature",
        "zero_preconditioner", "iteration_cap",
    ])
    def test_failures_raise_newton_error(self, case):
        g = Grid(16, 16)
        res, diag, kd = self.newton_system(g)
        a, rhs = diag / kd, fwd2(-res, (COS, COS))
        symbol = float(a.mean()) + self.DT * g.k2_cc
        dt, maxiter = self.DT, 200
        if case == "nan_rhs":
            rhs[3, 4] = np.nan
        elif case == "inf_rhs":
            rhs[0, 0] = np.inf
        elif case == "nan_operator":
            a[5, 2] = np.nan
        elif case == "negative_curvature":
            a, dt = -a, -dt  # the operator's negative, the symbol unchanged
        elif case == "zero_preconditioner":
            symbol = np.zeros(g.shape)
        else:
            maxiter = 1
        apply = _kirchhoff_operator(a, dt, g)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(NewtonError, match="temperature linear solve"):
                _pcg(apply, rhs, symbol, _cosine_dot(g), _temperature_failure,
                     rtol=1e-6, atol=0.0, maxiter=maxiter)


class TestAdvanceMomentum:
    def test_uniform_state_stays_at_rest(self):
        g = Grid(16, 16)
        st = uniform_state(g, n=4)
        reg = RegParams(epsilon=1e-2, delta=1e-2, n=4)
        u = frozen_momentum(st, reg, 1e-2)
        assert np.abs(u.coeffs).max() <= 1e-13

    def test_non_finite_solution_raises_step_failure(self):
        # np.linalg.solve returns NaN for a NaN right-hand side, it does not raise
        init, basis = smooth_initial(Grid(16, 16))
        st = initial_state(init, basis)
        f_u = np.zeros(2 * basis.n)
        f_u[0] = np.nan
        with pytest.raises(StepFailure, match="non-finite coefficients"):
            advance_momentum(st, RegParams(epsilon=1e-2, delta=1e-2, n=4), P,
                             1e-3, st.rho, st.b, st.theta, gradient(st.rho), f_u)

    def test_single_mode_decay_matches_stokes_eigenvalue(self):
        # oracle: assemble mass and viscous matrices independently with
        # adaptive quadrature, predict the per-step decay factor from the
        # dominant generalized eigenvalue reachable from the initial mode
        g = Grid(32, 32, 1.0, 1.0)
        n = 2
        basis = GalerkinBasis(g, n)
        st = uniform_state(g, n=n)
        amp = 1e-6
        c = np.zeros(2 * n)
        c[0] = amp
        st = State(0.0, st.rho, st.b, st.theta, reconstruct(c, basis))
        reg = RegParams(epsilon=1e-2, delta=1e-2, n=n)
        dt = 5e-3

        def phi(m):
            k, l = basis.modes[m]
            return lambda x, y: np.sin(k * np.pi * x) * np.sin(l * np.pi * y)

        def grad_phi(m):
            k, l = basis.modes[m]
            ax, ay = k * np.pi, l * np.pi
            return (
                lambda x, y: ax * np.cos(ax * x) * np.sin(ay * y),
                lambda x, y: ay * np.sin(ax * x) * np.cos(ay * y),
            )

        m_oracle = np.zeros((2 * n, 2 * n))
        v_oracle = np.zeros((2 * n, 2 * n))
        mu = P.mu(1.0)
        for a_i in range(2 * n):
            for b_i in range(2 * n):
                ca, ma = divmod(a_i, n)
                cb, mb = divmod(b_i, n)
                fa, fb = phi(ma), phi(mb)
                gax, gay = grad_phi(ma)
                gbx, gby = grad_phi(mb)
                if ca == cb:
                    m_oracle[a_i, b_i] = dblquad(
                        lambda y, x: fa(x, y) * fb(x, y), 0, 1, 0, 1,
                        epsabs=1e-12,
                    )[0]

                def d_comp(comp, gx, gy):
                    return (lambda x, y: gx(x, y)) if comp == 0 else (
                        lambda x, y: -gy(x, y)
                    )

                def a_comp(comp, gx, gy):
                    return (lambda x, y: gy(x, y)) if comp == 0 else (
                        lambda x, y: gx(x, y)
                    )

                da = d_comp(ca, gax, gay)
                db = d_comp(cb, gbx, gby)
                aa = a_comp(ca, gax, gay)
                ab = a_comp(cb, gbx, gby)
                v_oracle[a_i, b_i] = mu * dblquad(
                    lambda y, x: da(x, y) * db(x, y) + aa(x, y) * ab(x, y),
                    0, 1, 0, 1, epsabs=1e-12,
                )[0]

        iteration = np.linalg.solve(m_oracle + dt * v_oracle, m_oracle)
        c_pred = c.copy()
        current = st
        for _ in range(30):
            u_new = frozen_momentum(current, reg, dt)
            c_pred = iteration @ c_pred
            current = State(0.0, st.rho, st.b, st.theta, u_new)
        measured = frozen_momentum(current, reg, dt).coeffs
        factor_meas = np.linalg.norm(measured) / np.linalg.norm(
            current.u.coeffs
        )
        c_next = iteration @ c_pred
        factor_pred = np.linalg.norm(c_next) / np.linalg.norm(c_pred)
        assert factor_meas == pytest.approx(factor_pred, rel=0.01)


class TestStep:
    def test_equilibrium_invariant(self):
        g = Grid(16, 16)
        st = uniform_state(g, n=4, b=2.0)
        reg = RegParams(epsilon=1e-2, delta=1e-2, n=4)
        new, rep = step(st, reg, P, 1e-2)
        tol = TOLERANCES["equilibrium_drift"]
        assert np.abs(new.rho.values - 1.0).max() <= tol
        assert np.abs(new.b.values - 2.0).max() <= tol
        assert np.abs(new.theta.values - 1.0).max() <= tol
        assert np.abs(new.u.coeffs).max() <= tol
        assert rep.theta_floor_hits == 0
        assert rep.krylov_iterations == rep.line_search_backtracks == 0

    def test_proportional_fields_stay_proportional(self):
        g = Grid(32, 32)
        init, basis = smooth_initial(g, amp=0.05)
        st = initial_state(init, basis)
        reg = RegParams(epsilon=1e-2, delta=1e-2, n=4)
        for _ in range(100):
            st, _ = step(st, reg, P, 2.5e-3)
        drift = np.abs(st.b.values - 2.0 * st.rho.values).max()
        assert drift <= TOLERANCES["proportional_fields_drift"]

    def test_masses_conserved(self):
        g = Grid(32, 32)
        init, basis = smooth_initial(g, amp=0.05, zeta="generic")
        st = initial_state(init, basis)
        reg = RegParams(epsilon=1e-2, delta=1e-2, n=4)
        m_rho, m_b = integrate(st.rho), integrate(st.b)
        for _ in range(100):
            st, _ = step(st, reg, P, 2.5e-3)
        assert abs(integrate(st.rho) - m_rho) <= 1e-12 * m_rho
        assert abs(integrate(st.b) - m_b) <= 1e-12 * m_b

    def test_cfl_guard(self):
        g = Grid(16, 16)
        basis = GalerkinBasis(g, 1)
        init = InitialData(
            ScalarField.constant(g, 1.0), ScalarField.constant(g, 1.0),
            ScalarField.constant(g, 1.0),
            VectorField(g, 3.0 * basis.phi[0].reshape(g.shape),
                        np.zeros(g.shape)),
        )
        st = initial_state(init, basis)
        with pytest.raises(CflError):
            step(st, RegParams(epsilon=1e-2, delta=1e-2, n=1), P, 0.5)

    def test_step_evaluates_its_velocity_once(self, monkeypatch):
        # the state's one workspace carries the CFL bound, the Jacobian and
        # the advective divergences of rho and b that the stages read; that
        # of rho is formed from the workspace's mass flux, the other
        # divergence is the energy advection.  The step forms grad
        # rho_new and grad b_new once each, and one conduction term per
        # Newton residual (two iterations here); handing its new-level terms
        # on forms no workspace for the new state
        st = initial_state(*smooth_initial(Grid(16, 16), amp=0.02))
        calls = count_evaluations(monkeypatch)
        _, rep = step(st, RegParams(epsilon=1e-2, delta=1e-2, n=4), P, 2e-3)
        assert rep.newton_iterations == 2
        assert calls == {"cfl_bound": 1, "velocity_gradient": 1, "__init__": 1,
                         "_advective_divergence_cc": 2, "_mass_matrix": 2,
                         "gradient": 2, "_kirchhoff_laplacian": 3}
        assert rep.cfl_limit == cfl_bound(st.u)
        assert st.workspace is st.workspace
        assert "workspace" not in vars(st.copy())

    def test_stepped_state_is_freed_without_the_cycle_collector(self):
        # the workspace holds the state's fields, never the state, so a
        # state that was reported on, stepped from and dropped dies at once
        from mhdlab.diagnostics import report

        reg = RegParams(epsilon=1e-2, delta=1e-2, n=4)
        st = initial_state(*smooth_initial(Grid(16, 16), amp=0.02))
        gc.collect()
        gc.disable()
        try:
            report(st, reg, P)
            new, _ = step(st, reg, P, 2e-3)
            ref = weakref.ref(st)
            del st
            assert ref() is None
            assert new.workspace.u is new.u
        finally:
            gc.enable()


def count_evaluations(monkeypatch):
    """Count the workspaces, CFL bounds, velocity gradients, advective
    divergences, Galerkin mass matrices, scalar gradients and conduction
    terms formed from here on."""
    from mhdlab import solver

    calls = {"cfl_bound": 0, "velocity_gradient": 0, "__init__": 0,
             "_advective_divergence_cc": 0, "_mass_matrix": 0, "gradient": 0,
             "_kirchhoff_laplacian": 0}
    for owner, name in ((solver, "cfl_bound"), (solver, "velocity_gradient"),
                        (solver.VelocityWorkspace, "__init__"),
                        (solver, "_advective_divergence_cc"),
                        (solver, "_mass_matrix"), (solver, "gradient"),
                        (solver, "_kirchhoff_laplacian")):
        def counted(*args, _orig=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestRoughDataPipeline:
    def test_step_data_mollified_then_integrated(self):
        # bounded step-like data is the admissible worst case: mollify,
        # then integrate and check every structural invariant survives
        g = Grid(32, 32)
        rho = ScalarField.from_function(
            g, lambda x, y: np.where((x > 0.4) & (y > 0.3), 2.0, 1.0)
        )
        zeta = 2.0 + 0.5 * (g.X < 0.6)
        raw = InitialData(rho, ScalarField(g, rho.values * zeta),
                          ScalarField.from_function(
                              g, lambda x, y: np.where(x < 0.5, 0.8, 1.2)),
                          VectorField.zero(g))
        reg = RegParams(epsilon=1e-2, delta=1e-2, n=4)
        init = regularize_initial_data(raw, reg)
        assert init.c_star >= raw.c_star - 1e-10
        assert init.c_star_upper <= raw.c_star_upper + 1e-10

        st = initial_state(init, GalerkinBasis(g, reg.n))
        m_rho, m_b = integrate(st.rho), integrate(st.b)
        # the smoothed step drives strong accelerations; stay under CFL
        for _ in range(100):
            st, rep = step(st, reg, P, 5e-4)
            assert rep.theta_floor_hits == 0
        st.validate_positive()
        assert abs(integrate(st.rho) - m_rho) <= 1e-12 * m_rho
        assert abs(integrate(st.b) - m_b) <= 1e-12 * m_b
        # the tight 1e-8 envelope is a resolved-smooth-run property; on the
        # smoothed step the discrete maximum-principle analogue holds to the
        # resolution of its internal layer
        zeta_run = st.b.values / st.rho.values
        assert zeta_run.min() >= init.c_star - 1e-5
        assert zeta_run.max() <= init.c_star_upper + 1e-5


class TestRandomizedInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_structural_invariants_on_random_smooth_data(self, seed):
        rng = np.random.default_rng(seed)
        g = Grid(16, 16)
        kx = np.arange(g.nx)
        decay = np.exp(-1.5 * (kx[:, None] + kx[None, :]))
        from mhdlab.grid import COS, bwd2

        def random_positive(base):
            c = rng.standard_normal(g.shape) * decay
            c[0, 0] = 0.0
            vals = bwd2(0.05 * c, (COS, COS))
            return ScalarField(g, base + vals - vals.min() + 0.5)

        basis = GalerkinBasis(g, 4)
        zeta0 = 1.5 + 0.5 * rng.random()
        rho = random_positive(1.0)
        init = InitialData(rho, ScalarField(g, zeta0 * rho.values),
                           random_positive(1.0),
                           VectorField(g, 0.03 * basis.phi[0].reshape(g.shape),
                                       0.02 * basis.phi[1].reshape(g.shape)))
        reg = RegParams(epsilon=1e-2, delta=1e-2, n=4)
        st = initial_state(init, basis)
        m0 = integrate(st.rho)
        from mhdlab.diagnostics import sigma_nodal

        for _ in range(20):
            st, rep = step(st, reg, P, 2e-3)
            assert rep.theta_floor_hits == 0
            assert float(sigma_nodal(st, reg, P).min()) >= -1e-12
        st.validate_positive()
        assert abs(integrate(st.rho) - m0) <= 1e-12 * m0
        assert np.abs(st.b.values - zeta0 * st.rho.values).max() <= 1e-8


class TestPositivityGuard:
    def test_state_validation_rejects_nonpositive_fields(self):
        g = Grid(16, 16)
        st = uniform_state(g)
        st.rho.values[3, 3] = -1e-4
        with pytest.raises(StepFailure):
            st.validate_positive()
        st2 = uniform_state(g)
        st2.theta.values[0, 0] = 0.0
        with pytest.raises(StepFailure):
            st2.validate_positive()

    # a NaN node compares false both ways, so every guard must fail on it

    @pytest.mark.parametrize("name", ["rho", "b", "theta"])
    def test_state_validation_rejects_nan(self, name):
        st = uniform_state(Grid(16, 16))
        getattr(st, name).values[2, 5] = np.nan
        with pytest.raises(StepFailure):
            st.validate_positive()

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["rho", "b", "theta"])
    def test_state_validation_names_a_non_finite_field(self, name, value):
        st = uniform_state(Grid(16, 16))
        getattr(st, name).values[3, 3] = value
        with pytest.raises(StepFailure, match=f"^{name} is not finite"):
            st.validate_positive()

    def test_nan_temperature_is_not_converged(self):
        st = uniform_state(Grid(16, 16))
        st.theta.values[2, 5] = np.nan
        with pytest.raises(NewtonError):
            frozen_temperature(st, RegParams(epsilon=0.3, delta=0.3), 1e-2)

    @pytest.mark.parametrize("name", ["rho", "theta"])
    def test_step_rejects_nan_state(self, name):
        st = uniform_state(Grid(16, 16))
        getattr(st, name).values[2, 5] = np.nan
        with pytest.raises(StepFailure):
            step(st, RegParams(epsilon=0.3, delta=0.3, n=2), P, 1e-2)

    def test_initial_data_rejects_nan(self):
        g = Grid(16, 16)
        bad = ScalarField.constant(g, 1.0)
        bad.values[0, 0] = np.nan
        with pytest.raises(DomainError):
            InitialData(ScalarField.constant(g, 1.0), ScalarField.constant(g, 1.0),
                        bad, VectorField.zero(g))

    def test_regularize_rejects_nan(self):
        g = Grid(16, 16)
        init = InitialData(
            ScalarField.constant(g, 1.0), ScalarField.constant(g, 1.0),
            ScalarField.constant(g, 1.0), VectorField.zero(g),
        )
        init.b0.values[4, 4] = np.nan
        with pytest.raises(DomainError):
            regularize_initial_data(init, RegParams(epsilon=1e-2, delta=1e-2))


class TestTendencies:
    def test_matches_small_step_finite_difference(self):
        g = Grid(32, 32)
        init, basis = smooth_initial(g, amp=0.03)
        st = initial_state(init, basis)
        reg = RegParams(epsilon=1e-2, delta=1e-2, n=4)
        tend = tendencies(st, reg, P)
        dt = 1e-7
        new, _ = step(st, reg, P, dt)
        fd_rho = (new.rho.values - st.rho.values) / dt
        scale = np.abs(tend.rho_dot).max()
        assert np.abs(fd_rho - tend.rho_dot).max() <= 1e-4 * max(scale, 1.0)
        fd_c = (new.u.coeffs - st.u.coeffs) / dt
        cscale = max(np.abs(tend.c_dot).max(), 1.0)
        assert np.abs(fd_c - tend.c_dot).max() <= 1e-4 * cscale


class TestRun:
    def test_equilibrium_run_diagnostics_quiet(self):
        g = Grid(16, 16)
        init = InitialData(
            ScalarField.constant(g, 1.0), ScalarField.constant(g, 2.0),
            ScalarField.constant(g, 1.0), VectorField.zero(g),
        )
        reg = RegParams(epsilon=1e-2, delta=1e-2, n=2)
        traj = run(init, reg, P, Schedule(t_final=0.05, dt=5e-3))
        for d in traj.diagnostics:
            assert abs(d.energy_balance_residual) <= 1e-10
            assert abs(d.entropy_balance_residual) <= 1e-10
            assert abs(d.mass_rho - 1.0) <= 1e-12
        assert len(traj.states) == 11

    def test_run_evaluates_each_state_once(self, monkeypatch):
        # 5 steps and 6 reports: the report on a state and the step from it
        # share its workspace, M(rho), the mass flux (the advective
        # divergence of rho) and the energy advection included; the
        # final state needs no CFL bound.  Each step forms M(rho_new), grad
        # rho_new, grad b_new and one conduction term per Newton residual
        # (10 iterations in all) and hands them to the report on its result,
        # so only the report on the initial state forms its own; each report
        # forms grad theta and M(rho_dot)
        init, basis = smooth_initial(Grid(16, 16), amp=0.05)
        calls = count_evaluations(monkeypatch)
        traj = run(init, RegParams(epsilon=1e-2, delta=1e-2, n=4), P,
                   Schedule(t_final=1.25e-2, dt=2.5e-3), basis=basis)
        assert len(traj.diagnostics) == 6
        assert sum(r.newton_iterations for r in traj.step_reports) == 10
        assert calls == {"__init__": 6, "cfl_bound": 5, "velocity_gradient": 6,
                         "_advective_divergence_cc": 12, "_mass_matrix": 12,
                         "gradient": 18, "_kirchhoff_laplacian": 16}

    def test_snapshot_stride(self):
        g = Grid(16, 16)
        init = InitialData(
            ScalarField.constant(g, 1.0), ScalarField.constant(g, 2.0),
            ScalarField.constant(g, 1.0), VectorField.zero(g),
        )
        reg = RegParams(epsilon=1e-2, delta=1e-2, n=2)
        traj = run(init, reg, P,
                   Schedule(t_final=0.05, dt=5e-3, snapshot_stride=5),
                   diagnostics_every=0)
        assert len(traj.states) == 3  # t = 0, 0.025, 0.05
        assert traj.final().t == pytest.approx(0.05)

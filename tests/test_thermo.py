import math

import numpy as np
import pytest

from mhdlab.errors import DomainError
from mhdlab.thermo import (
    EosParams,
    ThermoPoint,
    _central4,
    coercivity_margin,
    entropy,
    entropy_split,
    eos_pressure,
    gibbs_bracket,
    gibbs_residual,
    heat_flux,
    helmholtz,
    internal_energy,
    internal_energy_split,
    pressure,
    pressure_drho,
    pressure_split,
    rho_e,
    rho_e_drho,
    rho_e_dtheta,
    rho_s,
    rho_s_drho,
    rho_s_dtheta,
    stability_check,
    transport,
    viscous_stress,
)
from mhdlab.tolerances import TOLERANCES

P_A3 = EosParams(gamma=5.0 / 3.0, a=3.0, c_V=1.0)


def sample_grid():
    vals = np.linspace(0.1, 10.0, 34)
    r, t = np.meshgrid(vals, vals)
    return r.ravel(), t.ravel()


class TestPressure:
    def test_unit_point(self):
        assert pressure(ThermoPoint(1.0, 1.0), P_A3) == pytest.approx(3.0, abs=1e-14)

    def test_rho8_theta2(self):
        assert pressure(ThermoPoint(8.0, 2.0), P_A3) == pytest.approx(64.0, abs=1e-12)

    def test_radiative_split_is_definitional(self):
        p = EosParams(a=2.7)
        _, p_r = pressure_split(ThermoPoint(1.0, 1.3), p)
        assert p_r == pytest.approx((2.7 / 3.0) * 1.3**4, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ThermoPoint(0.0, 1.0)
        with pytest.raises(DomainError):
            ThermoPoint(1.0, -2.0)


class TestInternalEnergy:
    @pytest.mark.parametrize(
        "rho,theta,expected",
        [(1.0, 1.0, 5.5), (8.0, 1.0, 7.375), (1.0, 2.0, 51.5)],
    )
    def test_frozen_values(self, rho, theta, expected):
        assert internal_energy(ThermoPoint(rho, theta), P_A3) == pytest.approx(
            expected, abs=1e-12
        )

    def test_split_adds_up(self):
        pt = ThermoPoint(2.3, 0.7)
        e_m, e_r = internal_energy_split(pt, P_A3)
        assert e_m + e_r == pytest.approx(internal_energy(pt, P_A3), rel=1e-15)


class TestEntropy:
    def test_unit_point(self):
        assert entropy(ThermoPoint(1.0, 1.0), P_A3) == pytest.approx(4.0, abs=1e-14)

    def test_rho_e(self):
        expected = -1.0 + 4.0 / math.e
        assert entropy(ThermoPoint(math.e, 1.0), P_A3) == pytest.approx(
            expected, rel=1e-14
        )

    def test_theta_e(self):
        expected = 1.0 + 4.0 * math.e**3
        assert entropy(ThermoPoint(1.0, math.e), P_A3) == pytest.approx(
            expected, rel=1e-14
        )

    def test_split_adds_up(self):
        pt = ThermoPoint(0.4, 3.1)
        s_m, s_r = entropy_split(pt, P_A3)
        assert s_m + s_r == pytest.approx(entropy(pt, P_A3), rel=1e-14)


class TestGibbs:
    @pytest.mark.parametrize("rho,theta", [(1.0, 1.0), (2.0, 0.5)])
    def test_residual_is_truncation_error(self, rho, theta):
        assert gibbs_residual(ThermoPoint(rho, theta), P_A3, 1e-4) <= 1e-6

    def test_residual_on_full_grid(self):
        # standing consistency requirement on {0.1..10}^2 with h = 1e-4
        rho, theta = sample_grid()
        res = gibbs_residual(ThermoPoint(rho, theta), EosParams(), 1e-4)
        assert res <= 1e-6

    def test_step_leaving_domain_rejected(self):
        with pytest.raises(DomainError):
            gibbs_residual(ThermoPoint(1.0, 1.0), P_A3, 0.5)
        with pytest.raises(DomainError):
            gibbs_residual(ThermoPoint(0.3, 1.0), P_A3, 0.2)
        with pytest.raises(DomainError):
            gibbs_residual(ThermoPoint(1.0, 1.0), P_A3, -1e-4)


class TestNodalPartials:
    @pytest.mark.parametrize("p", [EosParams(), P_A3], ids=["default", "a3"])
    def test_partials_match_central_differences(self, p):
        # closed-form partials of the nodal forms against fourth-order central
        # differences of rho_e, rho_s and eos_pressure on the thermo grid
        vals = np.linspace(
            TOLERANCES["thermo_grid_lo"], TOLERANCES["thermo_grid_hi"], 34
        )
        rr, tt = np.meshgrid(vals, vals)
        rho, theta = rr.ravel(), tt.ravel()
        h = TOLERANCES["gibbs_fd_step"]

        def d_rho(f):
            return _central4(lambda r: f(r, theta, p), rho, h)

        def d_theta(f):
            return _central4(lambda t: f(rho, t, p), theta, h)

        differences = {
            pressure_drho: d_rho(eos_pressure),
            rho_e_drho: d_rho(rho_e),
            rho_e_dtheta: d_theta(rho_e),
            rho_s_drho: d_rho(rho_s),
            rho_s_dtheta: d_theta(rho_s),
            gibbs_bracket: theta * d_rho(rho_s) - d_rho(rho_e),
        }
        for partial, fd in differences.items():
            exact = partial(rho, theta, p)
            err = np.max(np.abs(fd - exact) / np.maximum(1.0, np.abs(exact)))
            assert err <= TOLERANCES["gibbs_relative_residual"], partial.__name__


class TestStability:
    def test_dpdrho_closed_form(self):
        dpdrho, _ = stability_check(ThermoPoint(1.0, 1.0), EosParams())
        assert dpdrho == pytest.approx(1.0 + 5.0 / 3.0, rel=1e-14)

    def test_dedtheta_closed_form(self):
        _, dedtheta = stability_check(ThermoPoint(1.0, 1.0), P_A3)
        assert dedtheta == pytest.approx(13.0, rel=1e-14)

    def test_positive_on_grid(self):
        rho, theta = sample_grid()
        dpdrho, dedtheta = stability_check(ThermoPoint(rho, theta), EosParams())
        assert np.all(dpdrho > 0.0)
        assert np.all(dedtheta > 0.0)

    def test_closed_form_matches_central_differences(self):
        pt = ThermoPoint(1.7, 2.4)
        exact = stability_check(pt, P_A3)
        fd = stability_check(pt, P_A3, h=1e-5)
        assert fd[0] == pytest.approx(exact[0], rel=1e-8)
        assert fd[1] == pytest.approx(exact[1], rel=1e-8)


class TestHelmholtz:
    def test_value_at_unit_state(self):
        assert helmholtz(ThermoPoint(1.0, 1.0), P_A3, 1.0) == pytest.approx(
            1.5, abs=1e-13
        )

    def test_minimum_at_theta_bar(self):
        h0 = helmholtz(ThermoPoint(1.0, 1.0), P_A3, 1.0)
        assert helmholtz(ThermoPoint(1.0, 1.1), P_A3, 1.0) >= h0
        assert helmholtz(ThermoPoint(1.0, 0.9), P_A3, 1.0) >= h0

    @pytest.mark.parametrize("rho", [0.3, 1.0, 4.0])
    def test_monotone_on_each_side(self, rho):
        thetas_left = np.linspace(0.05, 0.999, 40)
        h_left = helmholtz(ThermoPoint(rho * np.ones_like(thetas_left), thetas_left),
                           EosParams(), 1.0)
        assert np.all(np.diff(h_left) <= 1e-12)
        thetas_right = np.linspace(1.001, 8.0, 40)
        h_right = helmholtz(ThermoPoint(rho * np.ones_like(thetas_right), thetas_right),
                            EosParams(), 1.0)
        assert np.all(np.diff(h_right) >= -1e-12)

    def test_coercivity_margin_on_grid(self):
        rho, theta = sample_grid()
        margin = coercivity_margin(ThermoPoint(rho, theta), EosParams(), 1.0, 1.0)
        assert np.min(margin) >= 0.0

    def test_coercivity_at_unit_point(self):
        margin = coercivity_margin(ThermoPoint(1.0, 1.0), P_A3, 1.0, 1.0)
        assert margin >= 0.0


class TestTransport:
    def test_mu(self):
        mu, _, _, _ = transport(2.0, EosParams(), 0.0, 8.0)
        assert mu == pytest.approx(3.0, rel=1e-15)

    def test_kappa(self):
        _, kappa, _, _ = transport(2.0, EosParams(), 0.0, 8.0)
        assert kappa == pytest.approx(13.0, rel=1e-15)

    def test_K0_closed_form(self):
        _, _, _, K = transport(2.0, EosParams(), 0.0, 8.0)
        assert K == pytest.approx(85.0 / 12.0, rel=1e-14)

    def test_K_delta_matches_quadrature_oracle(self):
        # independent oracle: adaptive quadrature of the integrand
        from scipy.integrate import quad

        p = EosParams(kappa0=0.5, kappa2=2.0, kappa3=0.25)
        delta, Gamma = 0.3, 8.0

        def integrand(z):
            return p.kappa(z) + delta * (z**Gamma + 1.0 / z)

        for theta in (0.2, 1.0, 1.7, 3.0):
            expected = quad(integrand, 1.0, theta, epsabs=1e-13, epsrel=1e-13)[0]
            _, _, _, K = transport(theta, p, delta, Gamma)
            assert K == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_K_delta_increasing_and_zero_at_one(self):
        thetas = np.linspace(0.2, 4.0, 60)
        _, _, _, K = transport(thetas, EosParams(), 0.1, 8.0)
        assert np.all(np.diff(K) > 0.0)
        _, _, _, K1 = transport(1.0, EosParams(), 0.1, 8.0)
        assert K1 == pytest.approx(0.0, abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            transport(-1.0, EosParams(), 0.1, 8.0)
        with pytest.raises(DomainError):
            transport(1.0, EosParams(), 0.1, 1.0)


class TestViscousStress:
    def test_identity_gradient_gives_zero(self):
        s = viscous_stress(np.eye(2), 1.0, EosParams())
        assert np.abs(s).max() == pytest.approx(0.0, abs=1e-15)

    def test_pure_shear(self):
        p = EosParams(mu0=0.5, mu1=0.5)  # mu(1) = 1
        s = viscous_stress([[0.0, 1.0], [0.0, 0.0]], 1.0, p)
        assert np.allclose(s, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_symmetric_tracefree_and_dissipative(self):
        rng = np.random.default_rng(7)
        p = EosParams()
        for _ in range(50):
            g = rng.standard_normal((2, 2))
            s = viscous_stress(g, 1.3, p)
            assert abs(s[0, 0] + s[1, 1]) <= 1e-13 * max(1.0, np.abs(s).max())
            assert np.allclose(s, s.T, atol=1e-14)
            contraction = float(np.sum(s * g))
            assert contraction >= -1e-12
            # S : grad u equals (mu/2) |grad u + grad u^T - div u I|^2
            a = g + g.T - np.trace(g) * np.eye(2)
            assert contraction == pytest.approx(
                0.5 * p.mu(1.3) * float(np.sum(a * a)), rel=1e-12
            )


class TestHeatFlux:
    def test_zero_gradient(self):
        assert np.allclose(heat_flux([0.0, 0.0], 1.0, EosParams()), 0.0)

    def test_value(self):
        q = heat_flux([1.0, 0.0], 1.0, EosParams())
        assert np.allclose(q, [-3.0, 0.0])

    def test_antiparallel(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.standard_normal(2)
            q = heat_flux(g, 0.8, EosParams())
            assert float(q @ g) <= 0.0

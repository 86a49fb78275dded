"""The terms a step forms at the new level are handed to the report on its
result: that report must equal, bitwise, the report on a copy of the state,
which forms every term itself; a reader with other parameters, or a state
whose temperature a floor clamp changed, must never read a handed-on term.
Non-finite new-level fields are refused before anything is formed from them.
"""

import numpy as np
import pytest

from mhdlab import diagnostics, solver
from mhdlab.errors import StepFailure
from mhdlab.grid import GalerkinBasis, Grid, ScalarField, VectorField, gradient
from mhdlab.solver import (
    InitialData,
    RegParams,
    advance_momentum,
    advance_temperature,
    initial_state,
    step,
    tendencies,
)
from mhdlab.thermo import EosParams

P = EosParams()
DT = 1e-3


def wave_state(n, grid=None):
    """A smooth state on 64^2: n = 4 takes the dense momentum path, n = 256
    the matrix-free one."""
    grid = grid or Grid(64, 64, 1.3, 0.7)
    x, y = grid.X / grid.lx, grid.Y / grid.ly
    rho = ScalarField(grid, 1.0 + 0.05 * np.cos(np.pi * x) * np.cos(np.pi * y))
    init = InitialData(
        rho,
        ScalarField(grid, rho.values * (2.0 + 0.2 * np.cos(np.pi * x))),
        ScalarField(grid, 1.0 + 0.05 * np.cos(np.pi * y)),
        VectorField(grid, 0.05 * np.sin(np.pi * x) * np.sin(np.pi * y),
                    0.03 * np.sin(2 * np.pi * x) * np.sin(np.pi * y)),
    )
    return initial_state(init, GalerkinBasis(grid, n))


def reg_for(n, **kw):
    return RegParams(**{"epsilon": 1e-2, "delta": 1e-2, "n": n, **kw})


def assert_tendencies_equal(got, want):
    for name in ("rho_dot", "b_dot", "rhoe_dot", "c_dot"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.u_dot.vx, want.u_dot.vx)
    assert np.array_equal(got.u_dot.vy, want.u_dot.vy)
    assert np.array_equal(got.terms.sigma, want.terms.sigma)


@pytest.mark.parametrize("n", [4, 256])
def test_report_on_a_stepped_state_equals_the_cold_report(n):
    reg = reg_for(n)
    st = wave_state(n)
    diagnostics.report(st, reg, P)  # forms the energy flux the step reads
    new, _ = step(st, reg, P, DT)
    keys = {("grad_rho",), ("grad_b",), ("momentum_pressure", reg, P),
            ("kirchhoff_laplacian", reg, P), ("heat_source", reg)}
    assert set(new.handed) == keys
    cold = new.copy()
    assert cold.handed == {}
    assert diagnostics.report(new, reg, P) == diagnostics.report(cold, reg, P)
    assert_tendencies_equal(tendencies(new, reg, P), tendencies(cold, reg, P))
    # the step from a state releases what was handed to it
    step(new, reg, P, DT)
    assert new.handed == {}


@pytest.mark.parametrize("other", ["reg", "eos"])
def test_tendencies_with_other_parameters_equal_the_cold_ones(other):
    reg, p = reg_for(4), P
    if other == "reg":
        reg = reg_for(4, epsilon=2e-2, delta=3e-2, Gamma=9.0)
    else:
        p = EosParams(gamma=1.4, mu0=2.0, mu1=0.5, kappa2=2.0, a=0.5)
    st = wave_state(4)
    tendencies(st, reg_for(4), P)  # the energy flux under the step's EOS
    new, _ = step(st, reg_for(4), P, DT)
    assert new.handed
    # the stepped-from state keeps its energy flux, the new one its handed
    # terms; neither may be read under other parameters
    for state in (st, new):
        assert_tendencies_equal(tendencies(state, reg, p),
                                tendencies(state.copy(), reg, p))
        assert diagnostics.report(state, reg, p) \
            == diagnostics.report(state.copy(), reg, p)


def test_report_after_a_floor_clamp_equals_the_cold_report(monkeypatch):
    # theta spans [0.95, 1.05]: a floor at 1 clamps about half the nodes
    monkeypatch.setattr(solver, "THETA_FLOOR", 1.0)
    reg = reg_for(4)
    st = wave_state(4)
    new, rep = step(st, reg, P, DT)
    assert rep.theta_floor_hits > 0
    assert new.theta.values.min() == 1.0
    # the Newton residual's terms were formed before the clamp, so only the
    # heat source, formed again at the clamped theta, is handed on
    assert ("kirchhoff_laplacian", reg, P) not in new.handed
    theta, _ = new.handed[("heat_source", reg)]
    assert theta is new.theta.values
    assert diagnostics.report(new, reg, P) == diagnostics.report(new.copy(), reg, P)
    assert_tendencies_equal(tendencies(new, reg, P), tendencies(new.copy(), reg, P))


def new_level(st):
    """New-level fields for a stage: those of the state, copied."""
    return st.rho.copy(), st.b.copy(), st.theta.copy()


@pytest.mark.parametrize("n", [4, 256])
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("field", ["rho_new", "b_new", "theta_new"])
def test_momentum_refuses_a_non_finite_new_level(field, value, n):
    st = wave_state(n)
    fields = dict(zip(("rho_new", "b_new", "theta_new"), new_level(st)))
    grho = gradient(fields["rho_new"])
    fields[field].values[7, 3] = value
    with pytest.raises(StepFailure,
                       match=f"momentum advance at t = 0: {field} is not finite"):
        advance_momentum(st, reg_for(n), P, DT, *fields.values(), grho)


@pytest.mark.parametrize("n", [4, 256])
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("field", ["rho_new", "b_new"])
def test_temperature_refuses_a_non_finite_new_level(field, value, n):
    st = wave_state(n)
    rho_new, b_new, _ = new_level(st)
    grho = gradient(rho_new)
    {"rho_new": rho_new, "b_new": b_new}[field].values[7, 3] = value
    with pytest.raises(StepFailure,
                       match=f"temperature advance at t = 0: {field} is not finite"):
        advance_temperature(st, reg_for(n), P, DT, rho_new, b_new, grho)


def test_terms_of_a_replaced_temperature_are_not_read():
    reg = reg_for(4)
    new, _ = step(wave_state(4), reg, P, DT)
    new.theta = ScalarField(new.grid, 1.01 * new.theta.values)
    assert diagnostics.report(new, reg, P) == diagnostics.report(new.copy(), reg, P)

"""Mode-space Galerkin assembly against the dense nodal-table oracle.

The oracle forms every Galerkin quantity as a product of the (n, nx*ny)
tables phi, phi_x, phi_y that the basis evaluates on request; the package
itself assembles from the per-axis mode tables and never reads the nodal
ones.  The oracle also keeps the real 2n x 2n momentum system, which the
package solves as its n x n complex Hermitian form: assembled from the mode
tables and factorized below the crossover in n, matrix-free by PCG above it.
"""

import tracemalloc

import numpy as np
import pytest

from mhdlab import diagnostics, solver
from mhdlab import grid as grid_module
from mhdlab.errors import NewtonError, StepFailure
from mhdlab.grid import (
    GalerkinBasis,
    Grid,
    ScalarField,
    VectorField,
    galerkin_load,
    gradient,
    project_velocity,
    reconstruct,
)
from mhdlab.mms import MmsForcing, standard_smooth_solution
from mhdlab.solver import (
    InitialData,
    RegParams,
    _assemble,
    _complex_solve,
    _matrix_free,
    _momentum_load,
    _operator_load,
    advance_momentum,
    initial_state,
    momentum_pressure,
    step,
    tendencies,
)
from mhdlab.thermo import EosParams

P = EosParams()
RTOL = 1e-13

CASES = [
    (Grid(16, 16, 1.2, 0.8), 1),
    (Grid(16, 16, 1.2, 0.8), 4),
    (Grid(16, 16, 1.2, 0.8), 49),  # every mode: kmax * lmax
    (Grid(64, 64, 1.3, 0.7), 32),
    (Grid(64, 64, 1.3, 0.7), 256),
    # kmax != lmax on a grid with nx != ny: a swapped l/k gather shows here
    (Grid(64, 128, 1.3, 0.7), 100),
    (Grid(128, 64, 0.7, 1.3), 5),
]
IDS = [f"{g.nx}x{g.ny}-n{n}" for g, n in CASES]


# -- dense oracle -------------------------------------------------------------

def dense_mass(rho, basis):
    w = rho.ravel() * basis.grid.weight
    return basis.phi @ (basis.phi * w).T


def dense_viscous(theta, basis, p):
    mu_w = p.mu(theta).ravel() * basis.grid.weight
    phi_x, phi_y = basis.phi_x, basis.phi_y
    g1w, g2w = phi_x * mu_w, phi_y * mu_w
    p_blk = g1w @ phi_x.T + g2w @ phi_y.T
    q_blk = g2w @ phi_x.T - g1w @ phi_y.T
    return np.block([[p_blk, q_blk], [q_blk.T, p_blk]])


def dense_load(basis, f, fx, fy):
    w = basis.grid.weight
    phi, phi_x, phi_y = basis.phi, basis.phi_x, basis.phi_y
    return np.concatenate([
        phi @ (f[i].ravel() * w) + phi_x @ (fx[i].ravel() * w)
        + phi_y @ (fy[i].ravel() * w)
        for i in range(2)
    ])


def dense_project(v, basis):
    w = basis.grid.weight / basis.mode_norm2
    return np.concatenate([basis.phi @ v.vx.ravel() * w, basis.phi @ v.vy.ravel() * w])


def dense_reconstruct(c, basis):
    n = basis.n
    return np.stack([c[:n] @ basis.phi, c[n:] @ basis.phi]).reshape(
        (2,) + basis.grid.shape
    )


def real_form(h):
    """The real 2n x 2n matrix acting on (Re z, Im z) as h acts on z."""
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def dense_momentum(state, reg, p, dt, rho_new, b_new, theta_new, grad_rho):
    """New coefficients of `advance_momentum` by the real 2n-dimensional
    solve, with the nodal-table mass and viscous matrices."""
    n = state.u.basis.n
    m_old = dense_mass(state.rho.values, state.u.basis)
    m_new = dense_mass(rho_new.values, state.u.basis)
    lhs = dt * dense_viscous(theta_new.values, state.u.basis, p)
    lhs[:n, :n] += m_new
    lhs[n:, n:] += m_new
    p_tot = momentum_pressure(rho_new.values, b_new.values, theta_new.values, reg, p)
    rhs = _momentum_load(state.workspace, p_tot, grad_rho, reg)
    b_vec = (state.u.coeffs.reshape(2, n) @ m_old).ravel() + dt * rhs
    return np.linalg.solve(lhs, b_vec)


def assert_rel_close(got, want):
    assert got.shape == want.shape
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= RTOL, err


def positive_field(rng, grid, lo):
    return lo + rng.random(grid.shape)


# -- agreement ----------------------------------------------------------------

@pytest.mark.parametrize("grid, n", CASES, ids=IDS)
class TestAgainstDenseOracle:
    def test_mass_matrix(self, grid, n):
        basis = GalerkinBasis(grid, n)
        rho = positive_field(np.random.default_rng(1), grid, 0.5)
        got = _assemble(basis, rho, None)
        assert not got.imag.any()
        assert_rel_close(got.real, dense_mass(rho, basis))

    def test_viscous_matrix(self, grid, n):
        # M(0) = 0 exactly, so this is V alone
        basis = GalerkinBasis(grid, n)
        theta = positive_field(np.random.default_rng(2), grid, 0.3)
        got = _assemble(basis, np.zeros(grid.shape), P.mu(theta))
        assert got.shape == (n, n)
        assert_rel_close(real_form(got), dense_viscous(theta, basis, P))

    def test_viscous_matrix_is_hermitian(self, grid, n):
        basis = GalerkinBasis(grid, n)
        rng = np.random.default_rng(2)
        theta = positive_field(rng, grid, 0.3)
        h = _assemble(basis, positive_field(rng, grid, 0.5), P.mu(theta))
        assert np.array_equal(h, h.conj().T)

    def test_load(self, grid, n):
        basis = GalerkinBasis(grid, n)
        rng = np.random.default_rng(3)
        f, fx, fy = (rng.standard_normal((2,) + grid.shape) for _ in range(3))
        assert_rel_close(galerkin_load(basis, f, fx, fy), dense_load(basis, f, fx, fy))

    def test_project_and_reconstruct(self, grid, n):
        basis = GalerkinBasis(grid, n)
        rng = np.random.default_rng(4)
        v = VectorField(grid, *rng.standard_normal((2,) + grid.shape))
        assert_rel_close(project_velocity(v, basis), dense_project(v, basis))
        c = rng.standard_normal(2 * n)
        u = reconstruct(c, basis)
        assert_rel_close(np.stack([u.vx, u.vy]), dense_reconstruct(c, basis))


def momentum_state(n, seed):
    """A 64^2 state with random positive scalars and random coefficients,
    plus the new-level fields an advance_momentum reads."""
    grid = Grid(64, 64, 1.3, 0.7)
    rng = np.random.default_rng(seed)
    basis = GalerkinBasis(grid, n)
    rho = ScalarField(grid, positive_field(rng, grid, 0.5))
    st = initial_state(
        InitialData(rho, ScalarField(grid, 2.0 * rho.values),
                    ScalarField(grid, positive_field(rng, grid, 0.5)),
                    VectorField.zero(grid)),
        basis,
    )
    st.u = reconstruct(0.05 * rng.standard_normal(2 * n), basis)
    rho_new = ScalarField(grid, positive_field(rng, grid, 0.5))
    new = (rho_new, ScalarField(grid, 2.0 * rho_new.values),
           ScalarField(grid, positive_field(rng, grid, 0.5)), gradient(rho_new))
    return st, new


def test_crossover_depends_on_the_grid():
    # n*n >= 2*nx*ny: n = 128 is matrix-free on 64^2 but dense on 128^2
    assert [_matrix_free(GalerkinBasis(Grid(64, 64), n)) for n in (90, 91, 128)] \
        == [False, True, True]
    assert [_matrix_free(GalerkinBasis(Grid(128, 128), n)) for n in (128, 181, 182)] \
        == [False, False, True]


# n = 4 is dense on 64^2, n = 256 and 961 (every mode) matrix-free
@pytest.mark.parametrize("n", [4, 256, 961])
def test_momentum_solve_matches_real_oracle(n):
    st, new = momentum_state(n, seed=5)
    reg = RegParams(epsilon=1e-2, delta=1e-2, n=n)
    got, info = advance_momentum(st, reg, P, 2.5e-3, *new)
    assert (info.krylov_iterations > 0) == (n > 4)
    assert_rel_close(got.coeffs, dense_momentum(st, reg, P, 2.5e-3, *new))


@pytest.mark.parametrize("n", [4, 256])
def test_step_reports_momentum_krylov_iterations(n):
    reg = RegParams(epsilon=0.05, delta=0.05, n=n)
    _, rep = step(analytic_state(Grid(64, 64, 1.2, 0.8), n), reg, P, 1e-3)
    if n == 4:
        assert rep.momentum_krylov_iterations == 0
    else:
        assert 0 < rep.momentum_krylov_iterations < 50


@pytest.mark.parametrize("n", [32, 256])
def test_matrix_free_operator_matches_assembled(n):
    grid, dt = Grid(64, 64, 1.3, 0.7), 2.5e-3
    basis = GalerkinBasis(grid, n)
    rng = np.random.default_rng(7)
    rho, theta = positive_field(rng, grid, 0.5), positive_field(rng, grid, 0.3)
    u = reconstruct(rng.standard_normal(2 * n), basis)
    z = u.coeffs[:n] + 1j * u.coeffs[n:]
    mass = _assemble(basis, rho, None)
    h = _assemble(basis, rho, dt * P.mu(theta))
    for got, hz in ((_operator_load(u, rho), mass @ z),
                    (_operator_load(u, rho, dt * P.mu(theta)), h @ z)):
        want = np.concatenate([hz.real, hz.imag])
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err <= 1e-14, err


def test_matrix_free_tendencies_match_assembled(monkeypatch):
    grid = Grid(64, 64, 1.3, 0.7)
    reg = RegParams(epsilon=1e-2, delta=1e-2, n=256)
    st = analytic_state(grid, reg.n)
    st.u = reconstruct(0.02 * np.random.default_rng(8).standard_normal(512),
                       st.u.basis)
    got = tendencies(st, reg, P).c_dot
    monkeypatch.setattr(solver, "_MATRIX_FREE_RATIO", np.inf)
    assert_rel_close(got, tendencies(st.copy(), reg, P).c_dot)


def test_matrix_free_product_scatters_one_corner(monkeypatch):
    # a PCG product evaluates the velocity and its Jacobian from one corner,
    # and the matrix-free tendencies read the workspace's Jacobian instead
    # of differentiating the state's velocity again
    calls = {"_corner": 0, "velocity_gradient": 0}
    for owner, name in ((GalerkinBasis, "_corner"), (solver, "velocity_gradient")):
        def counted(*args, _orig=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(owner, name, counted)
    grid = Grid(64, 64, 1.3, 0.7)
    basis = GalerkinBasis(grid, 256)
    rng = np.random.default_rng(11)
    rho, theta = positive_field(rng, grid, 0.5), positive_field(rng, grid, 0.3)
    _, iterations = _complex_solve(basis, rho, 2.5e-3 * P.mu(theta),
                                   rng.standard_normal(2 * basis.n), "test solve")
    assert iterations > 0
    assert calls == {"_corner": iterations, "velocity_gradient": 0}

    tendencies(analytic_state(grid, 256), RegParams(epsilon=1e-2, delta=1e-2,
                                                    n=256), P)
    assert calls["velocity_gradient"] == 1


@pytest.mark.parametrize("case", ["nan_theta", "nan_rho"])
def test_matrix_free_momentum_failure_names_the_momentum_solve(case):
    # a non-finite new-level field is refused before the solve forms anything
    st, (rho_new, b_new, theta_new, grho) = momentum_state(256, seed=9)
    if case == "nan_theta":
        theta_new.values[3, 7] = np.nan
    else:
        rho_new.values[5, 2] = np.nan
    reg = RegParams(epsilon=1e-2, delta=1e-2, n=256)
    field = case.split("_")[1]
    with pytest.raises(StepFailure, match=f"momentum advance at t = 0: {field}_new "
                                          "is not finite") as caught:
        advance_momentum(st, reg, P, 2.5e-3, rho_new, b_new, theta_new, grho)
    assert not isinstance(caught.value, NewtonError)
    assert "temperature" not in str(caught.value)


def test_matrix_free_momentum_solve_names_a_non_finite_load():
    st, new = momentum_state(256, seed=9)
    f_u = np.zeros(512)
    f_u[3] = np.nan
    reg = RegParams(epsilon=1e-2, delta=1e-2, n=256)
    with pytest.raises(StepFailure, match=r"momentum linear solve at t = 0: "
                                          r"non-finite right-hand side \(residual"):
        advance_momentum(st, reg, P, 2.5e-3, *new, f_u)


@pytest.mark.parametrize("case", ["nan_operator", "indefinite_operator"])
def test_matrix_free_breakdown_raises_the_given_failure(case):
    grid = Grid(64, 64)
    basis = GalerkinBasis(grid, 256)
    rho = np.ones(grid.shape)
    mu = np.full(grid.shape, 1e-3)
    if case == "nan_operator":
        mu[4, 4] = np.nan
    else:
        rho = -rho  # -M is negative definite, and so is its symbol
        mu = None
    rhs = np.random.default_rng(10).standard_normal(2 * basis.n)
    with pytest.raises(StepFailure, match="test solve: broke down at residual"):
        _complex_solve(basis, rho, mu, rhs, "test solve")


def test_dense_advance_takes_no_full_transform(monkeypatch):
    # below the crossover the old-level M(rho) c is a Galerkin load and the
    # matrix is assembled from the mode tables: with the workspace parts a
    # step's earlier stages form, the advance transforms no grid field
    st, new = momentum_state(4, seed=12)
    reg = RegParams(epsilon=1e-2, delta=1e-2, n=4)
    assert not _matrix_free(st.u.basis)
    want, _ = advance_momentum(st, reg, P, 2.5e-3, *new)
    warm = st.copy()
    warm.workspace.grads_u, warm.workspace.advection_load
    calls = []
    for mod in (grid_module, solver):
        for name in ("fwd2", "bwd2"):
            def counted(*args, _orig=getattr(mod, name), _name=name, **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    got, _ = advance_momentum(warm, reg, P, 2.5e-3, *new)
    assert calls == []
    assert np.array_equal(got.coeffs, want.coeffs)


@pytest.mark.parametrize("n", [4, 256])
def test_zero_density_tendencies_raise_step_failure(n):
    # M(0) is singular: the dense solve's LinAlgError and the PCG breakdown
    # both leave the package as the tendency mass solve's StepFailure
    st = analytic_state(Grid(64, 64, 1.2, 0.8), n)
    st.rho = ScalarField(st.grid, np.zeros(st.grid.shape))
    reg = RegParams(epsilon=1e-2, delta=1e-2, n=n)
    for evaluate in (tendencies, diagnostics.report):
        with pytest.raises(StepFailure, match="momentum tendency mass solve at t = 0"):
            evaluate(st.copy(), reg, P)


def test_momentum_advance_peak_allocation():
    # the real 2n-dimensional form (an np.block assembly, then an LU of
    # twice the dimension) peaked at 8.0 MB here; the complex form needs one
    # n x n complex matrix and its factor
    st, new = momentum_state(256, seed=6)
    reg = RegParams(epsilon=1e-2, delta=1e-2, n=256)
    advance_momentum(st, reg, P, 2.5e-3, *new)  # basis and transform tables
    fresh = st.copy()
    # a step forms these in its scalar and temperature stages
    fresh.workspace.grads_u, fresh.workspace.scalar_adv_cc
    tracemalloc.start()
    try:
        advance_momentum(fresh, reg, P, 2.5e-3, *new)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak


def test_matrix_free_advance_peak_allocation():
    # every mode of 64^2: matrix-free, no n x n array is formed (0.95 MB)
    st, new = momentum_state(961, seed=6)
    reg = RegParams(epsilon=1e-2, delta=1e-2, n=961)
    advance_momentum(st, reg, P, 2.5e-3, *new)  # transform matrices
    fresh = st.copy()
    fresh.workspace.grads_u, fresh.workspace.scalar_adv_cc
    tracemalloc.start()
    try:
        advance_momentum(fresh, reg, P, 2.5e-3, *new)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak


# -- the package never reads the nodal tables -----------------------------------

@pytest.fixture
def no_tables(monkeypatch):
    def refuse(self):
        raise AssertionError("nodal basis table read")

    for name in ("phi", "phi_x", "phi_y"):
        monkeypatch.setattr(GalerkinBasis, name, property(refuse))


def analytic_state(grid, n):
    x, y = grid.X / grid.lx, grid.Y / grid.ly
    wave = np.cos(np.pi * x) * np.cos(np.pi * y)
    rho = ScalarField(grid, 1.0 + 0.05 * wave)
    init = InitialData(
        rho,
        ScalarField(grid, 2.0 * rho.values),
        ScalarField(grid, 1.0 + 0.05 * np.cos(np.pi * y)),
        VectorField(grid, 0.05 * np.sin(np.pi * x) * np.sin(np.pi * y),
                    0.03 * np.sin(2 * np.pi * x) * np.sin(np.pi * y)),
    )
    return initial_state(init, GalerkinBasis(grid, n))


def test_step_tendencies_report_forcing_read_no_tables(no_tables):
    grid, reg = Grid(16, 16, 1.2, 0.8), RegParams(epsilon=0.05, delta=0.05, n=6)
    st = analytic_state(grid, reg.n)
    new, _ = step(st, reg, P, 1e-3)
    assert np.isfinite(tendencies(new, reg, P).c_dot).all()
    assert np.isfinite(diagnostics.report(new, reg, P).t)
    basis = GalerkinBasis(Grid(16, 16), 4)
    forcing = MmsForcing(
        standard_smooth_solution(), reg, P, basis.grid, basis
    )
    assert np.isfinite(forcing.at(0.1)[2]).all()


@pytest.fixture
def no_assembly(monkeypatch):
    def refuse(*args):
        raise AssertionError("Galerkin matrix assembled")

    monkeypatch.setattr(GalerkinBasis, "gram", refuse)


def test_matrix_free_step_and_report_assemble_no_matrix(no_assembly):
    grid, reg = Grid(64, 64, 1.2, 0.8), RegParams(epsilon=0.05, delta=0.05, n=961)
    st = analytic_state(grid, reg.n)
    new, rep = step(st, reg, P, 1e-3)
    assert rep.momentum_krylov_iterations > 0
    assert np.isfinite(diagnostics.report(new, reg, P).energy_balance_residual)


def test_largest_basis_stores_no_tables():
    grid = Grid(128, 128)
    tracemalloc.start()
    try:
        basis = GalerkinBasis(grid, 3969)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.n == 3969
    assert peak < 5e6, peak

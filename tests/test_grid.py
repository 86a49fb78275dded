import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dctn

from dealias_oracles import (
    advection_load_chain,
    dealiased_product,
    energy_advection_chain,
    fft_bwd1,
    fine_shape,
    flux_divergence_chain,
    laplacian_chain,
    pad_axis,
    pocketfft_axis,
    restrict_nodal,
    restriction_chain,
)
from mhdlab import grid as grid_module
from mhdlab.errors import BasisError, GridMismatchError
from mhdlab.grid import (
    COS,
    SIN,
    Grid,
    ScalarField,
    VectorField,
    GalerkinBasis,
    bwd2,
    deriv_nodal,
    divergence,
    fine_length,
    from_fine,
    fwd2,
    galerkin_load,
    gradient,
    inner_product,
    integrate,
    laplacian_neumann,
    project_velocity,
    reconstruct,
    sine_to_cosine,
    to_fine,
    velocity_gradient,
)
from mhdlab.solver import (
    VelocityWorkspace,
    _energy_advection,
    _flux_cc,
    _flux_divergence_cc,
)
from mhdlab.tolerances import TOLERANCES


@pytest.fixture
def grid():
    return Grid(32, 32, 1.3, 0.9)


def random_cc_field(grid, seed, decay=0.5):
    """Random Neumann scalar with decaying spectrum (grid-resolved)."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.shape)
    kx = np.arange(grid.nx)
    ky = np.arange(grid.ny)
    c *= np.exp(-decay * (ky[:, None] + kx[None, :]))
    return ScalarField(grid, bwd2(c, (COS, COS)))


def random_ss_vector(grid, seed, decay=0.5):
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(2):
        c = rng.standard_normal(grid.shape)
        kx = np.arange(1, grid.nx + 1)
        ky = np.arange(1, grid.ny + 1)
        c *= np.exp(-decay * (ky[:, None] + kx[None, :]))
        c[-1, :] = 0.0
        c[:, -1] = 0.0
        comps.append(bwd2(c, (SIN, SIN)))
    return VectorField(grid, comps[0], comps[1])


INITIAL = """
import resource
import sys

import numpy as np
from mhdlab import diagnostics, solver
from mhdlab.grid import (COS, GalerkinBasis, Grid, ScalarField, VectorField,
                         deriv_nodal, fwd2, laplacian_neumann)
from mhdlab.thermo import EosParams


def initial(n):
    g = Grid(n, n)
    rho = 1.0 + 0.05 * np.cos(np.pi * g.X) * np.cos(np.pi * g.Y)
    return solver.InitialData(
        ScalarField(g, rho), ScalarField(g, 2.0 * rho),
        ScalarField(g, 1.0 + 0.05 * np.cos(np.pi * g.Y)),
        VectorField(g, 0.05 * np.sin(np.pi * g.X) * np.sin(np.pi * g.Y),
                    np.zeros(g.shape)))
"""

# five 128^2 steps at n = 4, a 64^2 report, a 64^2 step at n = 256 and
# transforms, Laplacians and derivatives on 256^2 and 512^2 grids
NO_SCIPY_SCRIPT = INITIAL + """
eos = EosParams()
reg = solver.RegParams(epsilon=1e-2, delta=1e-2, n=4)
init = solver.regularize_initial_data(initial(128), reg)
traj = solver.run(init, reg, eos, solver.Schedule(t_final=5e-3, dt=1e-3),
                  diagnostics_every=0)
assert len(traj.step_reports) == 5
diagnostics.report(solver.initial_state(initial(64), GalerkinBasis(Grid(64, 64), 4)),
                   reg, eos)
reg256 = solver.RegParams(epsilon=1e-2, delta=1e-2, n=256)
solver.step(solver.initial_state(initial(64), GalerkinBasis(Grid(64, 64), 256)),
            reg256, eos, 1e-3)
for n in (256, 512):
    v = np.random.default_rng(n).standard_normal((n, n))
    fwd2(v, (COS, COS))
    laplacian_neumann(ScalarField(Grid(n, n), v))
    deriv_nodal(v, 1, COS, 1.0)
loaded = [m for m in sys.modules if m.startswith("scipy")]
assert not loaded, loaded
"""


# a 64^2 report frees about 1.8 MB of temporaries; once warm, the next
# reports take them from the heap again without a page fault
HEAP_SCRIPT = INITIAL + """
reg, eos = solver.RegParams(epsilon=1e-2, delta=1e-2, n=4), EosParams()
st = solver.initial_state(initial(64), GalerkinBasis(Grid(64, 64), 4))
diagnostics.report(st.copy(), reg, eos)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    diagnostics.report(st.copy(), reg, eos)
faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
assert faults < 20, faults
"""


def run_in_fresh_process(script):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_desk_scale_runs_leave_scipy_unloaded():
    # the package needs numpy alone, at every grid size
    run_in_fresh_process(NO_SCIPY_SCRIPT)


def test_cosine_transform_matches_dctn():
    v = np.random.default_rng(0).standard_normal((256, 256))
    want = dctn(v, type=2) / v.size
    want[0] *= 0.5
    want[:, 0] *= 0.5
    assert np.abs(fwd2(v, (COS, COS)) - want).max() <= 1e-14 * 256 * np.abs(want).max()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's thresholds")
def test_reports_take_their_temporaries_from_the_heap():
    run_in_fresh_process(HEAP_SCRIPT)


class TestGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(GridMismatchError):
            Grid(12, 16)
        with pytest.raises(GridMismatchError):
            Grid(4, 16)
        with pytest.raises(GridMismatchError):
            Grid(16, 16, -1.0, 1.0)
        with pytest.raises(GridMismatchError):
            Grid(16, 16, 1.0, np.inf)

    def test_node_count(self):
        g = Grid(16, 8, 2.0, 3.0)
        assert g.X.shape == (8, 16)
        assert g.X.size == 16 * 8


class TestTransforms:
    @pytest.mark.parametrize("parity", [(COS, COS), (SIN, SIN), (COS, SIN), (SIN, COS)])
    def test_round_trip_from_random_coefficients(self, grid, parity):
        rng = np.random.default_rng(11)
        c = rng.standard_normal(grid.shape)
        for ax, p in enumerate(parity):
            if p == SIN:  # Nyquist sine mode is not representable
                sl = [slice(None)] * 2
                sl[ax] = -1
                c[tuple(sl)] = 0.0
        vals = bwd2(c, parity)
        c2 = fwd2(vals, parity)
        tol = TOLERANCES["transform_round_trip"]
        assert np.abs(c2 - c).max() <= tol * max(1.0, np.abs(c).max())
        vals2 = bwd2(c2, parity)
        assert np.abs(vals2 - vals).max() <= tol * max(1.0, np.abs(vals).max())


PARITIES = [(COS, COS), (SIN, SIN), (COS, SIN), (SIN, COS)]


def fft_2d(kind, v, parity):
    return pocketfft_axis(kind, pocketfft_axis(kind, v, -1, parity[1]), -2, parity[0])


def assert_close(got, ref, n):
    assert np.abs(got - ref).max() <= 1e-15 * n * np.abs(ref).max()


class TestDenseTransforms:
    """The matrices against the pocketfft chains of the same operators, up
    to 1024 nodes.  A stack of fields takes the same path through `_axis`
    at every length, so it is compared up to 192 nodes only."""

    @pytest.mark.parametrize("n, kind", [
        (n, kind)
        for n in (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 540, 1024)
        for kind in ("fwd", "bwd", "deriv", "to_fine", "from_fine")
        if kind != "from_fine" or n % 3 == 0  # from_fine reads a 3/2 fine axis
    ])
    def test_matrix_matches_pocketfft(self, n, kind):
        rng = np.random.default_rng(n)
        shapes = ((n, n), (3, n, n)) if n <= 192 else ((n, n),)
        for parity in PARITIES:
            for shape in shapes:
                v = rng.standard_normal(shape)
                got = v
                for axis, p in ((-1, parity[1]), (-2, parity[0])):
                    got = grid_module._axis(kind, got, axis, p)
                assert_close(got, fft_2d(kind, v, parity), n)

    @pytest.mark.parametrize("shape", [(16, 16), (64, 64), (64, 128), (128, 64), (128, 128)])
    def test_public_transforms_match_pocketfft(self, shape):
        ny, nx = shape
        g = Grid(nx, ny, 1.3, 0.9)
        rng = np.random.default_rng(nx + ny)
        n = max(nx, ny)
        for parity in PARITIES:
            for stack in ((), (3,)):
                v = rng.standard_normal(stack + g.shape)
                assert_close(fwd2(v, parity), fft_2d("fwd", v, parity), n)
                assert_close(bwd2(v, parity), fft_2d("bwd", v, parity), n)
                fine = to_fine(v, parity)
                assert_close(fine, fft_2d("to_fine", v, parity), n)
                padded = v
                for axis, p, m in ((-1, parity[1], 3 * nx // 2), (-2, parity[0], 3 * ny // 2)):
                    padded = pad_axis(padded, axis, p, m)
                assert_close(fine, bwd2(padded, parity), n)
                assert_close(from_fine(fine, parity), fft_2d("from_fine", fine, parity), n)
                for axis, length, p in ((-1, g.lx, parity[1]), (-2, g.ly, parity[0])):
                    ref = pocketfft_axis("deriv", v, axis, p) * (np.pi / length)
                    assert_close(deriv_nodal(v, axis, p, length), ref, n)

    @pytest.mark.parametrize("shape", [(16, 16), (64, 64), (128, 128), (64, 128)])
    def test_constant_is_exact(self, shape):
        ny, nx = shape
        g = Grid(nx, ny, 1.3, 0.9)
        f = ScalarField.constant(g, 3.7)
        assert np.abs(laplacian_neumann(f).values).max() == 0.0
        grad = gradient(f)
        assert np.abs(grad.vx).max() == 0.0
        assert np.abs(grad.vy).max() == 0.0
        assert np.abs(divergence(grad).values).max() == 0.0
        c = fwd2(f.values, (COS, COS))
        assert c[0, 0] == 3.7
        c[0, 0] = 0.0
        assert np.abs(c).max() == 0.0

    def test_cache_does_not_grow_with_the_domain(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((32, 32))
        sizes = []
        for lx in (1.0, 1.3, 0.7, 2.9, 0.25):
            gradient(ScalarField(Grid(32, 32, lx, 0.9), values))
            sizes.append(grid_module._matrix.cache_info().currsize)
        assert max(sizes) == sizes[0]

    @pytest.mark.parametrize("n", [64, 128])
    def test_stacked_derivative_matches_each_field(self, n):
        stack = np.random.default_rng(7).standard_normal((3, n, n))
        for parity in (COS, SIN):
            for axis in (-1, -2):
                got = deriv_nodal(stack, axis, parity, 1.3)
                for k in range(3):
                    assert_close(got[k], deriv_nodal(stack[k], axis % 2, parity, 1.3), n)
                dc, flipped = grid_module._deriv_coeffs(stack, axis, parity, 1.3)
                for k in range(3):
                    one, same = grid_module._deriv_coeffs(stack[k], axis % 2, parity, 1.3)
                    assert np.array_equal(dc[k], one) and flipped == same

    @pytest.mark.parametrize("n", [64, 128])
    def test_velocity_gradient_differentiates_the_stack_twice(self, n, monkeypatch):
        calls = []
        orig = grid_module.deriv_nodal

        def counted(values, axis, parity, length):
            calls.append(np.shape(values))
            return orig(values, axis, parity, length)

        monkeypatch.setattr(grid_module, "deriv_nodal", counted)
        g = Grid(n, n, 1.3, 0.9)
        velocity_gradient(random_ss_vector(g, 8))
        assert calls == [(2, n, n), (2, n, n)]


def chain_axis(kind, v, axis, parity, m):
    """One fused axis operator as a chain of pocketfft passes (on an axis of
    length pi, as its matrix is); the cosine second derivative as two first
    derivatives."""
    if kind == "lap":
        return pocketfft_axis("deriv", pocketfft_axis("deriv", v, axis, COS), axis, SIN)
    if kind == "refine":
        c = pocketfft_axis("fwd", v, axis, parity)
        return pocketfft_axis("to_fine", c, axis, parity, m)
    c = pocketfft_axis("from_fine", v, axis, parity, m)
    if kind == "restrict_deriv":
        c, parity = grid_module._deriv_coeffs(c, axis, parity, np.pi)
    return fft_bwd1(c, axis, parity)


# (kind, parity, input length, output length) of the fused operators, on the
# parities the solver uses and on grids up to 512^2 with fine axes of about
# their dealiasing lengths
FUSED = (
    [("lap", COS, n, None) for n in (16, 64, 128, 160, 256, 540)]
    + [("refine", COS, n, m) for n, m in ((16, 18), (64, 72), (128, 135),
                                          (128, 160), (256, 270), (512, 540))]
    + [(kind, SIN, m, n) for kind in ("restrict", "restrict_deriv")
       for n, m in ((16, 18), (64, 72), (128, 135), (128, 160), (256, 270),
                    (512, 540))]
)


class TestFusedOperators:
    """The operators that fuse a chain of axis operators, as matrices and as
    the oracle's fused pocketfft passes, against that chain."""

    @pytest.mark.parametrize("kind, parity, n, m", FUSED,
                             ids=[f"{k}-{p}-{n}-{m or n}" for k, p, n, m in FUSED])
    def test_both_paths_match_the_chain(self, kind, parity, n, m):
        rng = np.random.default_rng(n + (m or 0))
        for shape in ((n, n), (3, n, n)):
            v = rng.standard_normal(shape)
            for axis in (-1, -2):
                want = chain_axis(kind, v, axis, parity, m)
                dense = grid_module._axis(kind, v, axis, parity, m)
                fft = pocketfft_axis(kind, v, axis, parity, m)
                assert_close(dense, want, max(n, m or n))
                assert_close(fft, want, max(n, m or n))

    @pytest.mark.parametrize("shape", [(16, 16), (128, 128), (256, 256), (64, 128),
                                       (128, 64)])
    def test_laplacian_of_a_constant_is_exactly_zero(self, shape):
        ny, nx = shape
        f = ScalarField.constant(Grid(nx, ny, 1.3, 0.9), 3.7)
        assert np.all(laplacian_neumann(f).values == 0.0)

    def test_refinement_keeps_a_constant(self):
        v = np.full((2, 128, 128), 3.7)
        assert np.all(grid_module._axis("refine", v, -1, COS, 135) == 3.7)
        assert np.all(grid_module._axis("refine", v, -2, COS, 160) == 3.7)

    @pytest.mark.parametrize("shape", [(16, 16), (64, 64), (128, 128), (64, 128),
                                       (128, 64), (256, 256)])
    def test_laplacian_matches_the_chain(self, shape):
        ny, nx = shape
        g = Grid(nx, ny, 1.3, 0.9)
        f = random_cc_field(g, nx + ny, decay=0.05)
        assert rel_err(laplacian_neumann(f).values, laplacian_chain(f.values, g)) <= 1e-13


class TestOperators:
    def test_gradient_of_cosine_mode(self, grid):
        f = ScalarField.from_function(grid, lambda x, y: np.cos(np.pi * x / grid.lx))
        v = gradient(f)
        exact = -(np.pi / grid.lx) * np.sin(np.pi * grid.X / grid.lx)
        assert np.abs(v.vx - exact).max() <= TOLERANCES["spectral_derivative"]
        assert np.abs(v.vy).max() <= 1e-12

    def test_laplacian_of_constant_is_zero(self, grid):
        f = ScalarField.constant(grid, 3.7)
        assert np.abs(laplacian_neumann(f).values).max() == 0.0

    def test_divergence_of_gradient_is_laplacian(self, grid):
        f = random_cc_field(grid, 5)
        lap1 = divergence(gradient(f)).values
        lap2 = laplacian_neumann(f).values
        scale = max(1.0, np.abs(lap2).max())
        assert np.abs(lap1 - lap2).max() <= 1e-10 * scale

    def test_integration_by_parts(self, grid):
        f = random_cc_field(grid, 1)
        v = random_ss_vector(grid, 2)
        lhs = inner_product(gradient(f), v)
        rhs = -inner_product(f, divergence(v))
        tol = TOLERANCES["integration_by_parts"]
        assert lhs == pytest.approx(rhs, abs=tol * max(1.0, abs(rhs)))

    def test_velocity_gradient_matches_analytic(self, grid):
        ax, ay = np.pi / grid.lx, 2 * np.pi / grid.ly
        u = VectorField(
            grid,
            np.sin(ax * grid.X) * np.sin(ay * grid.Y),
            np.zeros(grid.shape),
        )
        u1x, u1y, u2x, u2y = velocity_gradient(u)
        tol = TOLERANCES["spectral_derivative"]
        assert np.abs(u1x - ax * np.cos(ax * grid.X) * np.sin(ay * grid.Y)).max() <= tol
        assert np.abs(u1y - ay * np.sin(ax * grid.X) * np.cos(ay * grid.Y)).max() <= tol
        assert np.abs(u2x).max() == 0.0
        assert np.abs(u2y).max() == 0.0


class TestQuadrature:
    def test_integrate_constant(self):
        g = Grid(16, 16, 1.0, 1.0)
        assert integrate(ScalarField.constant(g, 1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_integrate_cos_squared(self):
        g = Grid(16, 16, 1.0, 1.0)
        f = ScalarField.from_function(g, lambda x, y: np.cos(np.pi * x) ** 2)
        assert integrate(f) == pytest.approx(0.5, rel=1e-13)

    def test_sine_modes_orthogonal(self, grid):
        basis = GalerkinBasis(grid, 6)
        shape = grid.shape
        for i in range(6):
            for j in range(6):
                fi = ScalarField(grid, basis.phi[i].reshape(shape))
                fj = ScalarField(grid, basis.phi[j].reshape(shape))
                expected = basis.mode_norm2 if i == j else 0.0
                assert inner_product(fi, fj) == pytest.approx(expected, abs=1e-14)

    def test_grid_mismatch_rejected(self):
        f = ScalarField.constant(Grid(16, 16), 1.0)
        g = ScalarField.constant(Grid(32, 32), 1.0)
        with pytest.raises(GridMismatchError):
            inner_product(f, g)


class TestDealiasing:
    def test_product_of_cosine_modes_exact(self, grid):
        # cos(a)cos(b) = (cos(a+b) + cos(a-b))/2, modes 1 and 2 in x
        c1 = np.zeros(grid.shape)
        c1[0, 1] = 1.0
        c2 = np.zeros(grid.shape)
        c2[0, 2] = 1.0
        cp, parity = dealiased_product(c1, (COS, COS), c2, (COS, COS))
        assert parity == (COS, COS)
        expected = np.zeros(grid.shape)
        expected[0, 3] = 0.5
        expected[0, 1] = 0.5
        assert np.abs(cp - expected).max() <= 1e-13

    def test_matches_fine_grid_projection_oracle(self):
        # oracle: evaluate the product on a 4x finer grid and project
        g = Grid(16, 16, 1.0, 1.0)
        fine = Grid(64, 64, 1.0, 1.0)
        rng = np.random.default_rng(3)
        ca = rng.standard_normal(g.shape) * np.exp(
            -0.7 * (np.arange(16)[:, None] + np.arange(16)[None, :])
        )
        cb = rng.standard_normal(g.shape) * np.exp(
            -0.7 * (np.arange(16)[:, None] + np.arange(16)[None, :])
        )
        cp, _ = dealiased_product(ca, (COS, COS), cb, (COS, COS))

        pad_a = np.zeros(fine.shape)
        pad_a[:16, :16] = ca
        pad_b = np.zeros(fine.shape)
        pad_b[:16, :16] = cb
        prod_fine = bwd2(pad_a, (COS, COS)) * bwd2(pad_b, (COS, COS))
        cp_oracle = fwd2(prod_fine, (COS, COS))[:16, :16]
        assert np.abs(cp - cp_oracle).max() <= 1e-12


class TestBasis:
    def test_mode_ordering(self):
        g = Grid(64, 64, 1.0, 1.0)
        basis = GalerkinBasis(g, 4)
        assert basis.modes == [(1, 1), (1, 2), (2, 1), (2, 2)]

    @pytest.mark.parametrize("nx, ny", [(16, 16), (64, 128), (128, 128)])
    def test_modes_match_the_sorted_tuples(self, nx, ny):
        kmax, lmax = nx // 2 - 1, ny // 2 - 1
        oracle = sorted(((k, l) for k in range(1, kmax + 1) for l in range(1, lmax + 1)),
                        key=lambda kl: (kl[0] ** 2 + kl[1] ** 2, kl[0], kl[1]))
        for n in (1, 4, kmax * lmax):
            basis = GalerkinBasis(Grid(nx, ny), n)
            assert basis.modes == oracle[:n]
            assert list(zip(basis.k, basis.l)) == oracle[:n]

    def test_too_large_rejected(self):
        g = Grid(16, 16)
        with pytest.raises(BasisError):
            GalerkinBasis(g, 7 * 7 + 1)
        with pytest.raises(BasisError):
            GalerkinBasis(g, 0)

    def test_modes_vanish_on_boundary(self):
        g = Grid(16, 16, 1.7, 0.8)
        basis = GalerkinBasis(g, 8)
        ys = np.linspace(0.0, g.ly, 13)
        xs = np.linspace(0.0, g.lx, 13)
        # mode m is sin(ax[m] x) sin(ay[m] y), evaluated here at the walls
        for ax, ay in zip(basis.ax, basis.ay):
            def mode(x, y, ax=ax, ay=ay):
                return np.sin(ax * np.asarray(x)) * np.sin(ay * np.asarray(y))

            assert np.abs(mode(0.0, ys)).max() <= 1e-14
            assert np.abs(mode(g.lx, ys)).max() <= 1e-13
            assert np.abs(mode(xs, 0.0)).max() <= 1e-14
            assert np.abs(mode(xs, g.ly)).max() <= 1e-13

    def test_single_mode_projects_to_unit_coefficient(self, grid):
        basis = GalerkinBasis(grid, 5)
        v = VectorField(grid, basis.phi[0].reshape(grid.shape), np.zeros(grid.shape))
        c = project_velocity(v, basis)
        expected = np.zeros(2 * 5)
        expected[0] = 1.0
        assert np.abs(c - expected).max() <= 1e-13

    def test_projection_round_trip(self, grid):
        basis = GalerkinBasis(grid, 7)
        rng = np.random.default_rng(9)
        c = rng.standard_normal(2 * 7)
        v = reconstruct(c, basis)
        c2 = project_velocity(v, basis)
        assert np.abs(c2 - c).max() <= TOLERANCES["projection_round_trip"]

    def test_projection_is_contraction(self, grid):
        basis = GalerkinBasis(grid, 4)
        v = random_ss_vector(grid, 21)
        c = project_velocity(v, basis)
        pv = reconstruct(c, basis)
        norm_v = inner_product(v, v)
        norm_pv = inner_product(pv, pv)
        assert norm_pv <= norm_v * (1.0 + 1e-12)

    def test_coefficients_travel_with_their_basis(self, grid):
        basis, zero = GalerkinBasis(grid, 2), np.zeros(grid.shape)
        with pytest.raises(BasisError):
            VectorField(grid, zero, zero, basis=basis)
        with pytest.raises(BasisError):
            VectorField(grid, zero, zero, coeffs=np.zeros(4))

    def test_out_of_span_projection_shrinks_norm(self, grid):
        basis = GalerkinBasis(grid, 2)
        # mode (3,3) is outside span(basis)
        ax, ay = 3 * np.pi / grid.lx, 3 * np.pi / grid.ly
        v = VectorField(
            grid, np.sin(ax * grid.X) * np.sin(ay * grid.Y), np.zeros(grid.shape)
        )
        c = project_velocity(v, basis)
        assert np.abs(c).max() <= 1e-13


# -- band-limited transforms of basis velocities ---------------------------------

BAND_GRIDS = [(16, 16), (64, 64), (128, 128), (64, 128), (128, 64)]
BAND_CASES = [
    ((ny, nx), n)
    for ny, nx in BAND_GRIDS
    for n in (1, 4, 32, 256, (nx // 2 - 1) * (ny // 2 - 1))
    if n <= (nx // 2 - 1) * (ny // 2 - 1)
]


def nodal_tables(basis, block):
    """Rows `block` of the nodal tables phi, phi_x, phi_y, formed as the
    basis forms them (a block at a time keeps the largest basis small)."""
    t = basis.tables
    k, l = basis.k[block] - 1, basis.l[block] - 1

    def outer(ty, tx):
        return (ty[l][:, :, None] * tx[k][:, None, :]).reshape(len(k), -1)

    return outer(t.sy, t.sx), outer(t.sy, t.dx), outer(t.dy, t.sx)


def table_oracle(basis, c, f, fx, fy):
    """Nodal values and Jacobian of the velocity with coefficients c, and the
    quadratures of f*phi + fx*d_x(phi) + fy*d_y(phi) and of f*phi alone,
    as products with the nodal tables."""
    n, w = basis.n, basis.grid.weight
    cs = c.reshape(2, n)
    nodes = basis.grid.nx * basis.grid.ny
    vals, jac = np.zeros((2, nodes)), np.zeros((4, nodes))
    load, load0 = np.zeros((2, n)), np.zeros((2, n))
    flat = [a.reshape(2, -1) for a in (f, fx, fy)]
    for start in range(0, n, 128):
        block = slice(start, min(start + 128, n))
        phi, phi_x, phi_y = nodal_tables(basis, block)
        vals += cs[:, block] @ phi
        # (u1x, u2x, u1y, u2y) reordered to (u1x, u1y, u2x, u2y)
        jac += np.concatenate([cs[:, block] @ phi_x,
                               cs[:, block] @ phi_y])[[0, 2, 1, 3]]
        load0[:, block] = w * (flat[0] @ phi.T)
        load[:, block] = load0[:, block] + w * (flat[1] @ phi_x.T + flat[2] @ phi_y.T)
    shape = basis.grid.shape
    return (vals.reshape((2,) + shape), jac.reshape((4,) + shape),
            load.ravel(), load0.ravel())


def rel_err(got, want):
    return np.abs(np.asarray(got) - want).max() / np.abs(want).max()


def band_length(n, kmax):
    """n + kmax//2 fine nodes."""
    return n + kmax // 2


class TestBandLimited:
    """Reconstruction, Jacobian, fine-grid values, Galerkin loads and
    projection of basis velocities, on their mode corner, against products
    with the nodal tables phi, phi_x, phi_y and against the full transforms."""

    @pytest.mark.parametrize("shape, n", BAND_CASES,
                             ids=[f"{s[1]}x{s[0]}-n{n}" for s, n in BAND_CASES])
    def test_matches_the_nodal_tables(self, shape, n):
        ny, nx = shape
        g = Grid(nx, ny, 1.3, 0.9)
        basis = GalerkinBasis(g, n)
        rng = np.random.default_rng(n + nx)
        c = rng.standard_normal(2 * n)
        f, fx, fy = (rng.standard_normal((2,) + g.shape) for _ in range(3))
        vals, jac, load, load0 = table_oracle(basis, c, f, fx, fy)

        u = reconstruct(c, basis)
        assert rel_err(np.stack([u.vx, u.vy]), vals) <= 1e-14
        grads = velocity_gradient(u)
        assert max(rel_err(d, want) for d, want in zip(grads, jac)) <= 1e-13
        assert rel_err(galerkin_load(basis, f, fx, fy), load) <= 1e-14
        assert rel_err(galerkin_load(basis, f), load0) <= 1e-14
        proj = project_velocity(VectorField(g, *f), basis)
        assert rel_err(proj, load0 / basis.mode_norm2) <= 1e-14
        # the band-sized fine grid against the full transforms of the nodal
        # values
        ws = VelocityWorkspace(None, None, u)
        band = (band_length(ny, basis.lmax), band_length(nx, basis.kmax))
        assert ws.u_fine.shape == (2,) + band
        assert all(m < m32 for m, m32 in zip(band, fine_shape(shape)))
        full = to_fine(fwd2(vals, (SIN, SIN)), (SIN, SIN), band)
        assert rel_err(ws.u_fine, full) <= 1e-14

    @pytest.mark.parametrize("shape, n", BAND_CASES,
                             ids=[f"{s[1]}x{s[0]}-n{n}" for s, n in BAND_CASES])
    def test_band_product_matches_the_3_2_rule(self, shape, n):
        # both products the step dealiases against a basis velocity: cosine
        # times u to sine (the fluxes), sine times u to cosine (the
        # advection tensor)
        ny, nx = shape
        g = Grid(nx, ny, 1.3, 0.9)
        basis = GalerkinBasis(g, n)
        rng = np.random.default_rng(n + 2 * nx)
        u = reconstruct(rng.standard_normal(2 * n), basis)
        ws = VelocityWorkspace(None, None, u)
        u_cc = fwd2(np.stack([u.vx, u.vy]), (SIN, SIN))
        f, q = rng.standard_normal((2,) + g.shape)
        band = ws.u_fine.shape[1:]
        flux = _flux_cc(f, ws)
        prod = from_fine(to_fine(q, (SIN, SIN), band) * ws.u_fine, (COS, COS), g.shape)
        for i in range(2):
            want, parity = dealiased_product(f, (COS, COS), u_cc[i], (SIN, SIN))
            assert parity == (SIN, SIN) and rel_err(flux[i], want) <= 1e-13
            want, parity = dealiased_product(q, (SIN, SIN), u_cc[i], (SIN, SIN))
            assert parity == (COS, COS) and rel_err(prod[i], want) <= 1e-13

    @pytest.mark.parametrize("shape, n, band", [
        ((128, 128), 4, (129, 129)), ((64, 64), 4, (65, 65)),
        ((64, 64), 32, (67, 67)), ((128, 128), 3969, (159, 159)),
        ((64, 64), 961, (79, 79)), ((16, 16), 1, (16, 16)),
    ])
    def test_fine_grid_is_sized_from_the_band(self, shape, n, band):
        ny, nx = shape
        u = reconstruct(np.ones(2 * n), GalerkinBasis(Grid(nx, ny), n))
        assert VelocityWorkspace(None, None, u).u_fine.shape == (2,) + band

    def test_fine_length_is_the_next_fast_length(self):
        # a dense axis operator is as fast at every length, so the fast
        # length is the least one that dealiases, unrounded
        for n in range(1, 1025):
            for kmax in range((n + 1) // 2):
                assert fine_length(n, kmax) == n + kmax // 2

    def test_nodal_tables_are_the_basis_tables(self):
        basis = GalerkinBasis(Grid(16, 32, 1.3, 0.9), 40)
        phi, phi_x, phi_y = nodal_tables(basis, slice(None))
        assert np.array_equal(phi, basis.phi)
        assert np.array_equal(phi_x, basis.phi_x)
        assert np.array_equal(phi_y, basis.phi_y)

    @pytest.mark.parametrize("shape", BAND_GRIDS)
    def test_axis_tables(self, shape):
        # the sines are the rows of the transform's own trigonometric table;
        # every table is the analytic mode to round-off
        ny, nx = shape
        g = Grid(nx, ny, 1.3, 0.9)
        basis = GalerkinBasis(g, (nx // 2 - 1) * (ny // 2 - 1))
        t = basis.tables
        assert (basis.kmax, basis.lmax) == (nx // 2 - 1, ny // 2 - 1)
        assert np.array_equal(t.sx, grid_module._trig(nx, SIN)[:basis.kmax])
        assert np.array_equal(t.sy, grid_module._trig(ny, SIN)[:basis.lmax])
        assert np.array_equal(t.sxt, t.sx.T) and np.array_equal(t.dxt, t.dx.T)
        for s, d, fine, m, length, nodes in (
            (t.sx, t.dx, t.sx_fine, basis.kmax, g.lx, g.x),
            (t.sy, t.dy, t.sy_fine, basis.lmax, g.ly, g.y),
        ):
            a = np.arange(1, m + 1)[:, None] * np.pi / length
            m_fine = band_length(len(nodes), m)
            fine_nodes = (np.arange(m_fine) + 0.5) * length / m_fine
            assert np.abs(s - np.sin(a * nodes)).max() <= 1e-13
            assert np.abs(d - a * np.cos(a * nodes)).max() <= 1e-13 * a.max()
            assert np.abs(fine - np.sin(a * fine_nodes)).max() <= 1e-13

    def test_basis_velocity_gradient_is_analytic(self):
        # a mode sum differentiated on its corner, against the analytic
        # derivative: closer than the full transform of its nodal values
        # (2.5e-14 here)
        g, n = Grid(64, 64, 1.3, 0.9), 4
        basis = GalerkinBasis(g, n)
        c = np.random.default_rng(3).standard_normal(2 * n)
        u = reconstruct(c, basis)
        exact = np.zeros((4,) + g.shape)
        for m, (k, l) in enumerate(basis.modes):
            ax, ay = k * np.pi / g.lx, l * np.pi / g.ly
            sx, cx = np.sin(ax * g.X), np.cos(ax * g.X)
            sy, cy = np.sin(ay * g.Y), np.cos(ay * g.Y)
            exact += np.stack([c[m] * ax * cx * sy, c[m] * ay * sx * cy,
                               c[n + m] * ax * cx * sy, c[n + m] * ay * sx * cy])
        band = max(rel_err(d, e) for d, e in zip(velocity_gradient(u), exact))
        nodal = VectorField(g, u.vx, u.vy)
        full = max(rel_err(d, e) for d, e in zip(velocity_gradient(nodal), exact))
        assert band <= 2e-15
        assert band < full

    def test_matrix_free_product_takes_no_full_transform(self, monkeypatch):
        from mhdlab import solver
        from mhdlab.solver import _operator_load

        g = Grid(64, 64, 1.3, 0.9)
        basis = GalerkinBasis(g, 256)
        rng = np.random.default_rng(5)
        u = reconstruct(rng.standard_normal(512), basis)
        rho, mu = 0.5 + rng.random(g.shape), 1e-3 * (1.0 + rng.random(g.shape))
        want = _operator_load(u, rho, mu)
        calls = []
        for mod in (grid_module, solver):
            for name in ("fwd2", "bwd2", "to_fine", "from_fine", "deriv_nodal"):
                if hasattr(mod, name):
                    def counted(*args, _orig=getattr(mod, name), _name=name, **kwargs):
                        calls.append(_name)
                        return _orig(*args, **kwargs)

                    monkeypatch.setattr(mod, name, counted)
        got = _operator_load(u, rho, mu)
        assert calls == []
        assert np.array_equal(got, want)


class TestFusedChains:
    """The one-matrix chains of the solver against the nodal round trips
    they replace."""

    @pytest.mark.parametrize("shape", BAND_GRIDS)
    def test_flux_divergence_matches_the_round_trip(self, shape):
        ny, nx = shape
        g = Grid(nx, ny, 1.3, 0.9)
        flux = np.random.default_rng(nx + ny).standard_normal((2,) + g.shape)
        got = _flux_divergence_cc(flux, g)
        assert got[0, 0] == 0.0
        assert rel_err(got, flux_divergence_chain(flux, g)) <= 1e-13

    @pytest.mark.parametrize("shape", BAND_GRIDS)
    def test_sine_to_cosine_round_trips_the_nodal_values(self, shape):
        ny, nx = shape
        c = np.random.default_rng(nx + 2 * ny).standard_normal((3, ny, nx))
        c[:, -1, :] = c[:, :, -1] = 0.0  # no Nyquist sine slot
        for axis, parity in ((-2, (SIN, COS)), (-1, (COS, SIN))):
            got = bwd2(sine_to_cosine(c, axis), (COS, COS))
            assert rel_err(got, bwd2(c, parity)) <= 1e-13

    @pytest.mark.parametrize("shape", BAND_GRIDS)
    def test_restriction_matches_the_round_trip(self, shape):
        ny, nx = shape
        rng = np.random.default_rng(nx * ny)
        for fine in (fine_shape(shape), (band_length(ny, 2), band_length(nx, 2))):
            v = rng.standard_normal((3,) + fine)
            got = restrict_nodal(v, shape)
            assert rel_err(got, restriction_chain(v, shape)) <= 1e-13
            assert np.all(restrict_nodal(np.full(fine, 3.7), shape) == 3.7)

    @pytest.mark.parametrize("shape", BAND_GRIDS + [(256, 256)])
    def test_energy_advection_matches_the_chain(self, shape):
        ny, nx = shape
        g = Grid(nx, ny, 1.3, 0.9)
        rng = np.random.default_rng(nx + 3 * ny)
        rhoe = 2.0 + random_cc_field(g, nx).values
        for u in (reconstruct(rng.standard_normal(8), GalerkinBasis(g, 4)),
                  random_ss_vector(g, ny)):  # band-sized and 3/2 fine grids
            uw = VelocityWorkspace(None, None, u)
            got = _energy_advection(rhoe, uw)
            # a derivative of rough data: round-off grows with the modes
            assert rel_err(got, energy_advection_chain(rhoe, uw)) <= 2e-15 * max(shape)

    @pytest.mark.parametrize("nx, n", [(64, 4), (64, 32), (64, 256), (128, 4),
                                       (256, 4)])
    def test_advection_load_matches_the_load_of_the_restricted_tensor(self, nx, n):
        g = Grid(nx, nx, 1.3, 0.9)
        rng = np.random.default_rng(nx + n)
        rho = ScalarField(g, 1.5 + random_cc_field(g, n).values)
        u = reconstruct(rng.standard_normal(2 * n), GalerkinBasis(g, n))
        uw = VelocityWorkspace(rho, rho, u)
        assert rel_err(uw.advection_load, advection_load_chain(uw)) <= 1e-13

    def test_fine_load_tables_are_built_on_first_use(self):
        basis = GalerkinBasis(Grid(64, 64, 1.3, 0.9), 4)
        assert "fine_load_tables" not in vars(basis) and "tables" not in vars(basis)
        t = basis.fine_load_tables
        my, mx = basis.tables.sy_fine.shape[1], basis.tables.sx_fine.shape[1]
        assert t.sxt.shape == t.dxt.shape == (mx, basis.kmax)
        assert t.sy.shape == t.dy.shape == (basis.lmax, my)

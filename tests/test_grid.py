import numpy as np
import pytest

from mhdlab.errors import BasisError, GridMismatchError
from mhdlab.grid import (
    COS,
    SIN,
    Grid,
    ScalarField,
    VectorField,
    GalerkinBasis,
    bwd2,
    dealiased_product,
    divergence,
    fwd2,
    gradient,
    inner_product,
    integrate,
    laplacian_neumann,
    project_velocity,
    reconstruct,
    velocity_gradient,
)


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
        assert np.abs(c2 - c).max() <= 1e-12 * max(1.0, np.abs(c).max())
        vals2 = bwd2(c2, parity)
        assert np.abs(vals2 - vals).max() <= 1e-12 * max(1.0, np.abs(vals).max())


class TestOperators:
    def test_gradient_of_cosine_mode(self, grid):
        f = ScalarField.from_function(grid, lambda x, y: np.cos(np.pi * x / grid.lx))
        v = gradient(f)
        exact = -(np.pi / grid.lx) * np.sin(np.pi * grid.X / grid.lx)
        assert np.abs(v.vx - exact).max() <= 1e-10
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
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))

    def test_velocity_gradient_matches_analytic(self, grid):
        ax, ay = np.pi / grid.lx, 2 * np.pi / grid.ly
        u = VectorField(
            grid,
            np.sin(ax * grid.X) * np.sin(ay * grid.Y),
            np.zeros(grid.shape),
        )
        u1x, u1y, u2x, u2y = velocity_gradient(u)
        assert np.abs(u1x - ax * np.cos(ax * grid.X) * np.sin(ay * grid.Y)).max() <= 1e-10
        assert np.abs(u1y - ay * np.sin(ax * grid.X) * np.cos(ay * grid.Y)).max() <= 1e-10
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
        for m in range(8):
            assert np.abs(basis.mode_values(m, 0.0, ys)).max() <= 1e-14
            assert np.abs(basis.mode_values(m, g.lx, ys)).max() <= 1e-13
            assert np.abs(basis.mode_values(m, xs, 0.0)).max() <= 1e-14
            assert np.abs(basis.mode_values(m, xs, g.ly)).max() <= 1e-13

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
        assert np.abs(c2 - c).max() <= 1e-12

    def test_projection_is_contraction(self, grid):
        basis = GalerkinBasis(grid, 4)
        v = random_ss_vector(grid, 21)
        c = project_velocity(v, basis)
        pv = reconstruct(c, basis)
        norm_v = inner_product(v, v)
        norm_pv = inner_product(pv, pv)
        assert norm_pv <= norm_v * (1.0 + 1e-12)

    def test_out_of_span_projection_shrinks_norm(self, grid):
        basis = GalerkinBasis(grid, 2)
        # mode (3,3) is outside span(basis)
        ax, ay = 3 * np.pi / grid.lx, 3 * np.pi / grid.ly
        v = VectorField(
            grid, np.sin(ax * grid.X) * np.sin(ay * grid.Y), np.zeros(grid.shape)
        )
        c = project_velocity(v, basis)
        assert np.abs(c).max() <= 1e-13

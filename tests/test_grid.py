import numpy as np
import pytest

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
    dealiased_product,
    deriv_nodal,
    divergence,
    fine_shape,
    from_fine,
    fwd2,
    galerkin_load,
    gradient,
    inner_product,
    integrate,
    laplacian_neumann,
    project_velocity,
    reconstruct,
    to_fine,
    velocity_gradient,
)
from mhdlab.solver import VelocityWorkspace
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


def fft_axis(kind, v, axis, parity):
    """pocketfft reference for one axis operator (deriv on an axis of length pi)."""
    g = grid_module
    n = v.shape[axis]
    if kind == "fwd":
        return g._fft_fwd1(v, axis, parity)
    if kind == "bwd":
        return g._fft_bwd1(v, axis, parity)
    if kind == "deriv":
        dc, flipped = g._deriv_coeffs(g._fft_fwd1(v, axis, parity), axis, parity, np.pi)
        return g._fft_bwd1(dc, axis, flipped)
    if kind == "to_fine":
        return g._fft_bwd1(g._pad_axis(v, axis, parity, 3 * n // 2), axis, parity)
    return g._truncate_axis(g._fft_fwd1(v, axis, parity), axis, parity, 2 * n // 3)


def fft_2d(kind, v, parity):
    return fft_axis(kind, fft_axis(kind, v, -1, parity[1]), -2, parity[0])


def assert_close(got, ref, n):
    assert np.abs(got - ref).max() <= 1e-15 * n * np.abs(ref).max()


class TestDenseTransforms:
    """The matrix path against the pocketfft primitives it replaces up to
    96 nodes per axis; the path is chosen per axis length, never per grid."""

    @pytest.mark.parametrize("n, kind", [
        (n, kind)
        for n in (8, 12, 16, 24, 32, 48, 64, 96, 128, 192)
        for kind in ("fwd", "bwd", "deriv", "to_fine", "from_fine")
        if kind != "from_fine" or n % 3 == 0  # from_fine reads a 3/2 fine axis
    ])
    def test_matrix_matches_pocketfft(self, n, kind):
        rng = np.random.default_rng(n)
        for parity in PARITIES:
            for shape in ((n, n), (3, n, n)):
                v = rng.standard_normal(shape)
                got = v
                for axis, p in ((-1, parity[1]), (-2, parity[0])):
                    got = grid_module._dense(kind, got, axis, p)
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
                    padded = grid_module._pad_axis(padded, axis, p, m)
                assert_close(fine, bwd2(padded, parity), n)
                assert_close(from_fine(fine, parity), fft_2d("from_fine", fine, parity), n)
                for axis, length, p in ((-1, g.lx, parity[1]), (-2, g.ly, parity[0])):
                    ref = fft_axis("deriv", v, axis, p) * (np.pi / length)
                    assert_close(deriv_nodal(v, axis, p, length), ref, n)

    @pytest.mark.parametrize("shape", [(64, 128), (128, 64), (128, 128)])
    def test_each_axis_takes_its_own_path(self, shape):
        def axis_path(kind, v, axis, parity):
            if v.shape[axis] <= 96:
                return grid_module._dense(kind, v, axis, parity)
            return fft_axis(kind, v, axis, parity)

        coarse = np.random.default_rng(4).standard_normal((3,) + shape)
        fine = np.random.default_rng(5).standard_normal((3,) + fine_shape(shape))
        for parity in PARITIES:
            for kind, op, v in (("fwd", fwd2, coarse), ("bwd", bwd2, coarse),
                                ("to_fine", to_fine, coarse),
                                ("from_fine", from_fine, fine)):
                ref = axis_path(kind, axis_path(kind, v, -1, parity[1]), -2, parity[0])
                assert np.array_equal(op(v, parity), ref), (kind, parity)

    def test_grids_of_128_build_no_matrix(self):
        g = Grid(128, 128, 1.3, 0.9)
        f = random_cc_field(g, 6)
        grid_module._matrix.cache_clear()
        divergence(gradient(f))
        laplacian_neumann(f)
        velocity_gradient(random_ss_vector(g, 7))
        dealiased_product(fwd2(f.values, (COS, COS)), (COS, COS),
                          fwd2(f.values, (COS, COS)), (COS, COS))
        assert grid_module._matrix.cache_info().currsize == 0

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
        # the 3/2 fine grid against the full transforms of the nodal values
        ws = VelocityWorkspace(None, None, u)
        full = to_fine(fwd2(vals, (SIN, SIN)), (SIN, SIN))
        assert rel_err(ws.u_fine, full) <= 1e-14

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
            m_fine = 3 * len(nodes) // 2
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

"""Rectangle grids, trigonometric collocation and the velocity basis.

All fields live on the midpoint collocation grid

    x_i = (i + 1/2) lx/nx,   y_j = (j + 1/2) ly/ny,

where both the cosine family cos(k pi x/lx) (zero normal derivative at the
walls, used for density, magnetic field and temperature) and the sine family
sin(m pi x/lx) (vanishing at the walls, used for velocity) are discretely
orthogonal under the plain nodal quadrature.  Midpoint quadrature integrates
any trigonometric polynomial with fewer than 2*nx modes exactly, so products
of two resolved fields are integrated without error and quadratic dealiasing
by zero-padding to 3N/2 recovers exact L2 projections of products.

Nodal arrays are shaped (ny, nx): axis 0 is y, axis 1 is x.  Parity tags
follow the same axis order, e.g. ("c", "s") means even (cosine) in y and odd
(sine) in x.  Sine coefficient slot i along an axis holds mode i+1; the
Nyquist sine mode is dropped.  The 2D transforms and the dealiasing helpers
act on the last two axes, so a stack of fields (k, ny, nx) transforms in one
call.

Each axis takes one of two transform paths, chosen by its length alone, so
a 128x64 grid takes one path in y and the other in x.  Up to 96 nodes (the
16^2 to 64^2 grids and their 3/2 fine grids of 24, 48 and 96) an axis is one
product with a cached dense matrix: at those lengths a scipy.fft call costs
mostly dispatch, and a chain of axis operators folds into one matrix (the
derivative, the zero-pad-then-evaluate of `to_fine`, the analyse-then-
truncate of `from_fine`).  From 128 nodes on, the O(n^2) work per line
loses to pocketfft, which serves those axes.  Both paths map a constant
exactly onto the first cosine slot.

A velocity from the Galerkin basis fills only the (lmax, kmax) corner of
sine space, kmax and lmax its largest mode indices.  Its transforms are
band-limited: evaluation on the grid and on the 3/2 fine grid, the Jacobian,
the Galerkin load and the projection are small matrix products with the
basis's per-axis mode tables (see `GalerkinBasis`), never full transforms.
A velocity without coefficients takes the full transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np
from scipy.fft import dct, dst, idct, idst

from .errors import BasisError, GridMismatchError

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "GalerkinBasis",
    "check_basis_size",
    "gradient",
    "divergence",
    "velocity_gradient",
    "laplacian_neumann",
    "integrate",
    "inner_product",
    "project_velocity",
    "galerkin_load",
    "reconstruct",
]

COS = "c"
SIN = "s"


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class Grid:
    """Midpoint collocation grid on the rectangle [0, lx] x [0, ly]."""

    def __init__(self, nx: int, ny: int, lx: float = 1.0, ly: float = 1.0):
        if nx < 8 or ny < 8 or not (_is_pow2(nx) and _is_pow2(ny)):
            raise GridMismatchError(
                f"nx, ny must be powers of two >= 8, got ({nx}, {ny})"
            )
        if not (0.0 < lx < np.inf and 0.0 < ly < np.inf):
            raise GridMismatchError(f"lx, ly must be finite and > 0, got ({lx}, {ly})")
        self.nx, self.ny = int(nx), int(ny)
        self.lx, self.ly = float(lx), float(ly)
        self.hx = self.lx / self.nx
        self.hy = self.ly / self.ny
        self.weight = self.hx * self.hy
        self.x = (np.arange(self.nx) + 0.5) * self.hx
        self.y = (np.arange(self.ny) + 0.5) * self.hy
        self.X, self.Y = np.meshgrid(self.x, self.y)
        kx = np.arange(self.nx) * np.pi / self.lx
        ky = np.arange(self.ny) * np.pi / self.ly
        # |k|^2 for the cosine-cosine representation (Neumann Laplacian)
        self.k2_cc = ky[:, None] ** 2 + kx[None, :] ** 2
        # weight of the cosine-cosine coefficients in the nodal inner product:
        # sum(f*g) = nx*ny*sum(w_cc*f_cc*g_cc)
        self.w_cc = np.full(self.shape, 0.25)
        self.w_cc[0, :] = self.w_cc[:, 0] = 0.5
        self.w_cc[0, 0] = 1.0

    @property
    def shape(self):
        return (self.ny, self.nx)

    @property
    def area(self):
        return self.lx * self.ly

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and (self.nx, self.ny, self.lx, self.ly)
            == (other.nx, other.ny, other.lx, other.ly)
        )

    def __hash__(self):
        return hash((self.nx, self.ny, self.lx, self.ly))

    def __repr__(self):
        return f"Grid({self.nx}x{self.ny}, lx={self.lx}, ly={self.ly})"


def _check_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError(f"grid mismatch: {f.grid} vs {g}")
    return g


@dataclass
class ScalarField:
    """Nodal scalar on a grid.

    Density, magnetic field and temperature instances carry Neumann (cosine)
    spectral structure; operator outputs such as divergences reuse the same
    container without that promise.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    @classmethod
    def from_function(cls, grid: Grid, fn):
        vals = np.asarray(fn(grid.X, grid.Y), dtype=float)
        if vals.shape != grid.shape:
            vals = np.broadcast_to(vals, grid.shape).copy()
        return cls(grid, vals)

    @classmethod
    def constant(cls, grid: Grid, value: float):
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self):
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    """Two-component nodal field; x-component odd in x, y-component odd in y.

    Velocity instances are reconstructed from a GalerkinBasis and carry the
    basis coefficients (length 2n, x-block then y-block); their components
    vanish identically on the walls.  `coeffs` and `basis` are set together
    or not at all.
    """

    grid: Grid
    vx: np.ndarray
    vy: np.ndarray
    coeffs: np.ndarray | None = None
    basis: "GalerkinBasis | None" = field(default=None, repr=False)

    def __post_init__(self):
        self.vx = np.asarray(self.vx, dtype=float)
        self.vy = np.asarray(self.vy, dtype=float)
        for comp in (self.vx, self.vy):
            if comp.shape != self.grid.shape:
                raise GridMismatchError(
                    f"component shape {comp.shape} != grid shape {self.grid.shape}"
                )
        if (self.coeffs is None) != (self.basis is None):
            raise BasisError("a velocity carries its coefficients with their basis")

    @classmethod
    def zero(cls, grid: Grid):
        z = np.zeros(grid.shape)
        return cls(grid, z, z.copy())

    def copy(self):
        c = None if self.coeffs is None else self.coeffs.copy()
        return VectorField(self.grid, self.vx.copy(), self.vy.copy(), c, self.basis)


# ---------------------------------------------------------------------------
# one-dimensional transform primitives
# ---------------------------------------------------------------------------

# Axis lengths up to this take cached dense matrices, longer ones pocketfft.
# A 2D cosine transform, forward / backward, on one BLAS thread of a 2-core
# Xeon: 12-21 / 6-11 us as matrix products against 21-57 / 22-34 us through
# scipy.fft at 16-48 nodes per axis, 69 / 54 against 78 / 82 us at 96, but
# 184 / 155 against 147 / 143 us at 128 and 906 / 539 against 292 / 325 us
# at 192.
_DENSE_MAX = 96


def _sl(ndim, axis, index):
    sl = [slice(None)] * ndim
    sl[axis] = index
    return tuple(sl)


def _fft_fwd1(values, axis, parity, overwrite=False):
    v = np.asarray(values, dtype=float)
    n = v.shape[axis]
    if parity == COS:
        c = dct(v, type=2, axis=axis, overwrite_x=overwrite)
        c *= 1.0 / n
        c[_sl(c.ndim, axis, 0)] *= 0.5
    else:
        c = dst(v, type=2, axis=axis, overwrite_x=overwrite)
        c *= 1.0 / n
        c[_sl(c.ndim, axis, -1)] = 0.0  # Nyquist sine mode dropped
    return c


def _fft_bwd1(coeffs, axis, parity, overwrite=False):
    c = np.asarray(coeffs, dtype=float)
    if overwrite:
        c *= c.shape[axis]
    else:
        c = c * c.shape[axis]
    if parity == COS:
        c[_sl(c.ndim, axis, 0)] *= 2.0
        return idct(c, type=2, axis=axis, overwrite_x=True)
    return idst(c, type=2, axis=axis, overwrite_x=True)


def _phase(k, n):
    """P[s, i] = pi k_s (i + 1/2)/n, the phase of mode k_s at node i of n.

    The integer phase k(2i + 1) is reduced mod 4n first, so its cosine and
    sine are within a few ulp of exact whatever the mode.
    """
    return (np.outer(k, 2 * np.arange(n) + 1) % (4 * n)) * (np.pi / (2 * n))


def _trig(n, parity):
    """T[s, i] = cos or sin(pi k (i + 1/2)/n) for the mode k held by slot s."""
    k = np.arange(n) + (parity == SIN)
    return (np.cos if parity == COS else np.sin)(_phase(k, n))


def _build(kind, n, parity):
    """Dense matrix (output by input) of one axis operator on n inputs."""
    if kind == "fwd":
        mat = (2.0 / n) * _trig(n, parity)
        if parity == COS:
            mat[0] *= 0.5
        else:
            mat[-1] = 0.0  # Nyquist sine mode dropped
        return mat
    if kind == "bwd":
        mat = _trig(n, parity).T.copy()
        if parity == SIN:
            mat[:, -1] *= 0.5  # what idst gives the Nyquist slot
        return mat
    if kind == "deriv":  # on an axis of length pi (wavenumbers k, to an ulp)
        dc, flipped = _deriv_coeffs(_build("fwd", n, parity), 0, parity, np.pi)
        return _build("bwd", n, flipped) @ dc
    if kind == "to_fine":  # zero-pad n slots to 3n/2, then evaluate
        return _truncate_axis(_build("bwd", 3 * n // 2, parity), 1, parity, n)
    # from_fine: analyse n fine nodes, then keep the first 2n/3 slots
    return _truncate_axis(_build("fwd", n, parity), 0, parity, 2 * n // 3)


@cache
def _matrix(kind, n, parity):
    """The dense matrix M of a one-axis operator on an input axis of n nodes
    or slots, stored read-only as a C-contiguous M.T.

    Along the last axis `v @ M.T` reads it as stored, along the others
    `M @ v` reads its transposed view; either way BLAS gets no transposed
    right operand, which is up to 1.7x faster than `v @ M.T` on a stored M.
    Keyed by kind, length and parity only: the derivative is built for an
    axis of length pi and scaled by `deriv_nodal`, so the cache stays bounded
    whatever the grid's lx and ly.
    """
    mt = np.ascontiguousarray(_build(kind, n, parity).T)
    mt.flags.writeable = False
    return mt


def _dense(kind, values, axis, parity):
    """Apply a cached matrix along one axis of an array or a stack.

    Cosine analysis maps a constant exactly onto slot 0, as pocketfft does
    (a Neumann Laplacian of a constant is 0.0, not round-off): rows past
    slot 0, and the derivative, annihilate constants, so the product acts on
    v - v0, v0 the first node along the axis, and v0 goes back into slot 0.
    """
    v = np.asarray(values, dtype=float)
    mt = _matrix(kind, v.shape[axis], parity)
    shift = parity == COS and kind in ("fwd", "deriv", "from_fine")
    if shift:
        first = _sl(v.ndim, axis, slice(0, 1))
        v0 = v[first]
        v = v - v0
    if axis % v.ndim == v.ndim - 1:
        out = v @ mt
    else:
        out = (mt.T @ v.swapaxes(axis, -2)).swapaxes(axis, -2)
    if shift and kind != "deriv":
        out[first] += v0
    return out


def _fwd1(values, axis, parity, overwrite=False):
    if np.shape(values)[axis] <= _DENSE_MAX:
        return _dense("fwd", values, axis, parity)
    return _fft_fwd1(values, axis, parity, overwrite)


def _bwd1(coeffs, axis, parity, overwrite=False):
    if np.shape(coeffs)[axis] <= _DENSE_MAX:
        return _dense("bwd", coeffs, axis, parity)
    return _fft_bwd1(coeffs, axis, parity, overwrite)


# On the pocketfft path the second pass of a 2D transform works in place on
# the first pass's output: a fresh output per pass costs up to 1.5x on
# stacked fine grids.
def fwd2(values, parity):
    """Nodal -> coefficients, parity given per axis (y, x)."""
    return _fwd1(_fwd1(values, -1, parity[1]), -2, parity[0], overwrite=True)


def bwd2(coeffs, parity):
    """Coefficients -> nodal, parity given per axis (y, x)."""
    return _bwd1(_bwd1(coeffs, -1, parity[1]), -2, parity[0], overwrite=True)


def _deriv_coeffs(coeffs, axis, parity, length):
    """Differentiate a coefficient array along one axis; returns flipped parity."""
    nd = coeffs.ndim
    n = coeffs.shape[axis]
    out = np.zeros_like(coeffs)
    shape = [1] * nd
    shape[axis] = n - 1
    m = (np.arange(1, n) * np.pi / length).reshape(shape)
    if parity == COS:
        out[_sl(nd, axis, slice(0, n - 1))] = -m * coeffs[_sl(nd, axis, slice(1, n))]
        return out, SIN
    out[_sl(nd, axis, slice(1, n))] = m * coeffs[_sl(nd, axis, slice(0, n - 1))]
    return out, COS


def deriv_nodal(values, axis, parity, length):
    """Spectral derivative of a nodal array, or a stack, along one axis."""
    if np.shape(values)[axis] <= _DENSE_MAX:
        d = _dense("deriv", values, axis, parity)
        d *= np.pi / length
        return d
    c = _fft_fwd1(values, axis, parity)
    dc, new_parity = _deriv_coeffs(c, axis, parity, length)
    return _fft_bwd1(dc, axis, new_parity, overwrite=True)


def _pad_axis(c, axis, parity, m):
    """Zero-pad a coefficient array to m slots along an axis.

    Cosine slots map directly; sine slot i holds mode i+1, so modes 1..n-1
    also map to the same slots.
    """
    shape = list(c.shape)
    n = shape[axis]
    shape[axis] = m
    out = np.zeros(shape, dtype=c.dtype)
    if parity == COS:
        out[_sl(c.ndim, axis, slice(0, n))] = c
    else:
        out[_sl(c.ndim, axis, slice(0, n - 1))] = c[_sl(c.ndim, axis, slice(0, n - 1))]
    return out


def _truncate_axis(c, axis, parity, n):
    out = c[_sl(c.ndim, axis, slice(0, n))].copy()
    if parity == SIN:
        out[_sl(c.ndim, axis, -1)] = 0.0
    return out


def _mul_parity(pa, pb):
    return COS if pa == pb else SIN


def fine_shape(shape):
    """Quadratic-dealiasing (3/2 rule) grid size for a coarse shape."""
    return (3 * shape[0] // 2, 3 * shape[1] // 2)


def _to_fine1(coeffs, axis, parity):
    m = 3 * coeffs.shape[axis] // 2
    if m <= _DENSE_MAX:
        return _dense("to_fine", coeffs, axis, parity)
    return _fft_bwd1(_pad_axis(coeffs, axis, parity, m), axis, parity, overwrite=True)


def _from_fine1(fine_values, axis, parity):
    m = fine_values.shape[axis]
    if m <= _DENSE_MAX:
        return _dense("from_fine", fine_values, axis, parity)
    return _truncate_axis(_fft_fwd1(fine_values, axis, parity), axis, parity, 2 * m // 3)


def to_fine(coeffs, parity):
    """Evaluate a coefficient-space field on the 3/2 zero-padded nodal grid."""
    return _to_fine1(_to_fine1(coeffs, -1, parity[1]), -2, parity[0])


def from_fine(fine_values, parity):
    """Project fine-grid nodal values back onto the coarse coefficient slots
    (two thirds of the fine ones per axis, as `fine_shape` sizes them)."""
    return _from_fine1(_from_fine1(fine_values, -1, parity[1]), -2, parity[0])


def dealiased_product(ca, pa, cb, pb):
    """Exact L2 projection of the product of two coefficient-space fields.

    Inputs are 2D coefficient arrays with per-axis parities; the product is
    formed nodally on a 3/2 zero-padded grid and truncated back, following
    the usual quadratic dealiasing rule.  Returns (coeffs, parity).
    """
    pp = (_mul_parity(pa[0], pb[0]), _mul_parity(pa[1], pb[1]))
    prod = to_fine(ca, pa) * to_fine(cb, pb)
    return from_fine(prod, pp), pp


# ---------------------------------------------------------------------------
# differential operators and quadrature
# ---------------------------------------------------------------------------

def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient of a Neumann scalar; normal trace vanishes."""
    g = f.grid
    vx = deriv_nodal(f.values, 1, COS, g.lx)
    vy = deriv_nodal(f.values, 0, COS, g.ly)
    return VectorField(g, vx, vy)


def divergence(v: VectorField) -> ScalarField:
    """Spectral divergence; requires normal-parity components (odd across
    the walls they face), which holds for velocities, gradients and fluxes
    of the form scalar*velocity."""
    g = v.grid
    d = deriv_nodal(v.vx, 1, SIN, g.lx) + deriv_nodal(v.vy, 0, SIN, g.ly)
    return ScalarField(g, d)


def velocity_gradient(u: VectorField):
    """Full Jacobian (u1x, u1y, u2x, u2y) of a sine-sine velocity field; a
    basis velocity is differentiated on its mode corner."""
    if u.coeffs is not None:
        return u.basis.jacobian(u.coeffs)
    g = u.grid
    uv = np.stack([u.vx, u.vy])
    u1x, u2x = deriv_nodal(uv, -1, SIN, g.lx)
    u1y, u2y = deriv_nodal(uv, -2, SIN, g.ly)
    return u1x, u1y, u2x, u2y


def laplacian_neumann(f: ScalarField) -> ScalarField:
    """Neumann Laplacian, diagonal in the cosine representation."""
    g = f.grid
    c = fwd2(f.values, (COS, COS))
    return ScalarField(g, bwd2(-g.k2_cc * c, (COS, COS)))


def integrate(f) -> float:
    """Nodal quadrature of a scalar over the rectangle."""
    if isinstance(f, ScalarField):
        return float(f.values.sum() * f.grid.weight)
    raise TypeError("integrate expects a ScalarField")


def inner_product(f, g) -> float:
    """Discrete L2 inner product of two scalars or two vector fields."""
    if isinstance(f, VectorField) and isinstance(g, VectorField):
        grid = _check_same_grid(f, g)
        return float((f.vx * g.vx + f.vy * g.vy).sum() * grid.weight)
    if isinstance(f, ScalarField) and isinstance(g, ScalarField):
        grid = _check_same_grid(f, g)
        return float((f.values * g.values).sum() * grid.weight)
    raise TypeError("inner_product expects two ScalarFields or two VectorFields")


# ---------------------------------------------------------------------------
# velocity basis
# ---------------------------------------------------------------------------

def check_basis_size(grid: Grid, n: int):
    """Raise BasisError unless 1 <= n <= (nx/2 - 1)(ny/2 - 1), the number of
    sine modes whose pairwise products the grid integrates exactly."""
    most = (grid.nx // 2 - 1) * (grid.ny // 2 - 1)
    if n < 1 or n > most:
        raise BasisError(f"n must lie in [1, {most}] for a {grid.nx}x{grid.ny} grid")


class ModeTables(NamedTuple):
    """Per-axis tables of the basis modes; k <= kmax in x, l <= lmax in y.

    Rows are modes, columns nodes: sine values on the grid (`sx`, `sy`) and
    on its 3/2 fine grid (`sx_fine`, `sy_fine`), and derivative values
    (k pi/lx) cos(k pi x/lx) (`dx`, `dy`).  The x tables also come
    transposed (`sxt`, `dxt`), since they are the right operand of a matrix
    product in both directions.
    """

    sx: np.ndarray
    sxt: np.ndarray
    dx: np.ndarray
    dxt: np.ndarray
    sx_fine: np.ndarray
    sy: np.ndarray
    dy: np.ndarray
    sy_fine: np.ndarray


def _axis_tables(kmax, n, length):
    """Sine, derivative and fine-grid sine tables of modes 1..kmax on an
    axis of n midpoint nodes."""
    k = np.arange(1, kmax + 1)
    phase = _phase(k, n)
    deriv = (k * np.pi / length)[:, None] * np.cos(phase)
    return np.sin(phase), deriv, np.sin(_phase(k, 3 * n // 2))


class GalerkinBasis:
    """The first n tensor sine modes per velocity component.

    Modes (k, l) are ordered by k^2 + l^2 with lexicographic tie-break, so a
    truncation to any n is deterministic.  Each mode satisfies the no-slip
    condition identically and the family is discretely L2-orthogonal with
    norm^2 = lx*ly/4.

    Every basis velocity lives in the (lmax, kmax) corner of sine space,
    kmax and lmax the largest mode indices, at most a quarter of the sine
    slots.  So evaluation, differentiation and testing against the modes are
    small matrix products with per-axis tables (`tables`, a few kB, built
    on first use): values on the grid are Sy^T C Sx for the corner C of
    the coefficients, the Jacobian Sy^T C Dx and Dy^T C Sx, values on the
    3/2 fine grid the same with the fine tables, and the quadratures of
    f phi + fx d_x(phi) + fy d_y(phi) are Sy (f Sx^T + fx Dx^T) + Dy fy Sx^T,
    gathered at the modes.  The (n, ny*nx) nodal tables `phi`, `phi_x`,
    `phi_y` are formed only on request.

    Products of two modes are four cosine (or sine) modes of index |k-k'| or
    k+k' <= nx-2, and midpoint quadrature integrates them, times any weight
    on the grid, exactly.  So a Gram-type matrix is either assembled by
    lookups into the coefficients of the weight (`pair_slots`, n x n int64
    arrays, formed on first use), or never formed: its product with a
    coefficient vector is the Galerkin load of the weighted reconstruction,
    equal to round-off.  The momentum solve assembles below its crossover in
    n and works matrix-free above it (see `solver`).
    """

    def __init__(self, grid: Grid, n: int):
        check_basis_size(grid, n)
        kmax = grid.nx // 2 - 1
        lmax = grid.ny // 2 - 1
        self.grid = grid
        self.n = int(n)
        candidates = [(k, l) for k in range(1, kmax + 1) for l in range(1, lmax + 1)]
        candidates.sort(key=lambda kl: (kl[0] ** 2 + kl[1] ** 2, kl[0], kl[1]))
        self.modes = candidates[:n]
        self.mode_norm2 = grid.lx * grid.ly / 4.0
        self.k, self.l = np.array(self.modes).T
        self.ax = self.k * np.pi / grid.lx
        self.ay = self.l * np.pi / grid.ly
        self.kmax, self.lmax = int(self.k.max()), int(self.l.max())
        # flat index of mode (k, l) in a (lmax, kmax) corner
        self.corner_index = (self.l - 1) * self.kmax + (self.k - 1)

    @cached_property
    def tables(self) -> ModeTables:
        g = self.grid
        sx, dx, sx_fine = _axis_tables(self.kmax, g.nx, g.lx)
        sy, dy, sy_fine = _axis_tables(self.lmax, g.ny, g.ly)
        return ModeTables(sx, np.ascontiguousarray(sx.T), dx,
                          np.ascontiguousarray(dx.T), sx_fine, sy, dy, sy_fine)

    def _nodal(self, ty, tx):
        """(n, ny*nx) table of the mode products ty[l-1](y) tx[k-1](x)."""
        return (ty[self.l - 1][:, :, None] * tx[self.k - 1][:, None, :]).reshape(
            self.n, -1)

    @property
    def phi(self):
        """Nodal mode values, shape (n, ny*nx); evaluated on request."""
        return self._nodal(self.tables.sy, self.tables.sx)

    @property
    def phi_x(self):
        """Nodal x-derivatives of the modes, shape (n, ny*nx); evaluated on request."""
        return self._nodal(self.tables.sy, self.tables.dx)

    @property
    def phi_y(self):
        """Nodal y-derivatives of the modes, shape (n, ny*nx); evaluated on request."""
        return self._nodal(self.tables.dy, self.tables.sx)

    @cached_property
    def pair_slots(self):
        """Flat (y, x) slots met by the products of two modes, per mode pair.

        sin(k x) sin(k' x) = (cos(|k-k'| x) - cos((k+k') x))/2, and likewise
        in y, so pair (m, m') meets the slots (dl, dk), (dl, sk), (sl, dk) and
        (sl, sk), with d = |difference| and s = sum of the indices.  Also
        returns sign(k-k') and sign(l'-l) for the sine-cosine products.
        Built on first use and kept: it is the size of the Galerkin matrices.
        """
        nx = self.grid.nx
        dk = np.abs(self.k[:, None] - self.k[None, :])
        sk = self.k[:, None] + self.k[None, :]
        dl = np.abs(self.l[:, None] - self.l[None, :])
        sl = self.l[:, None] + self.l[None, :]
        return (
            dl * nx + dk, dl * nx + sk, sl * nx + dk, sl * nx + sk,
            np.sign(self.k[:, None] - self.k[None, :]),
            np.sign(self.l[None, :] - self.l[:, None]),
        )

    def _corner(self, coeffs):
        """2n coefficients -> the (2, lmax, kmax) corner of sine space."""
        c = np.zeros((2, self.lmax * self.kmax))
        c[:, self.corner_index] = np.reshape(coeffs, (2, self.n))
        return c.reshape(2, self.lmax, self.kmax)

    def evaluate(self, coeffs, fine=False):
        """(2, ny, nx) nodal values of the velocity with coefficients
        `coeffs`, or its values on the 3/2 fine grid."""
        t = self.tables
        if fine:
            return t.sy_fine.T @ (self._corner(coeffs) @ t.sx_fine)
        return t.sy.T @ (self._corner(coeffs) @ t.sx)

    def jacobian(self, coeffs):
        """(u1x, u1y, u2x, u2y) of the velocity with coefficients `coeffs`."""
        t, c = self.tables, self._corner(coeffs)
        (u1x, u2x), (u1y, u2y) = t.sy.T @ (c @ t.dx), t.dy.T @ (c @ t.sx)
        return u1x, u1y, u2x, u2y

    def analyse(self, f, fx=None, fy=None):
        """Nodal sums of f_i*phi + fx_i*d_x(phi) + fy_i*d_y(phi) for every
        mode, per component i of the (2, ny, nx) stacks: the 2n quadratures
        without the weight hx*hy (x block then y block)."""
        t = self.tables
        g = f @ t.sxt
        if fx is not None:
            g += fx @ t.dxt
            c = t.sy @ g + t.dy @ (fy @ t.sxt)
        else:
            c = t.sy @ g
        return c.reshape(2, -1)[:, self.corner_index].ravel()

    def mode_values(self, m, x, y):
        """Evaluate mode m at arbitrary coordinates (vanishes on the walls)."""
        k, l = self.modes[m]
        return np.sin(k * np.pi * np.asarray(x) / self.grid.lx) * np.sin(
            l * np.pi * np.asarray(y) / self.grid.ly
        )


def project_velocity(v: VectorField, basis: GalerkinBasis) -> np.ndarray:
    """L2-project a vector field onto the basis; returns 2n coefficients."""
    if v.grid != basis.grid:
        raise GridMismatchError("vector field and basis live on different grids")
    sums = basis.analyse(np.stack([v.vx, v.vy]))
    return (basis.grid.weight / basis.mode_norm2) * sums


def galerkin_load(basis: GalerkinBasis, f, fx=None, fy=None) -> np.ndarray:
    """Quadrature of f_i*phi + fx_i*d_x(phi) + fy_i*d_y(phi) against every mode.

    f, fx, fy are nodal stacks (2, ny, nx), one integrand per velocity
    component i, fx and fy given together or not at all; returns the 2n
    load (x block then y block).
    """
    return basis.grid.weight * basis.analyse(f, fx, fy)


def reconstruct(coeffs: np.ndarray, basis: GalerkinBasis) -> VectorField:
    """Evaluate basis coefficients nodally; attaches coeffs to the result."""
    coeffs = np.array(coeffs, dtype=float)
    if coeffs.shape != (2 * basis.n,):
        raise BasisError(f"expected {2 * basis.n} coefficients, got {coeffs.shape}")
    vx, vy = basis.evaluate(coeffs)
    return VectorField(basis.grid, vx, vy, coeffs=coeffs, basis=basis)

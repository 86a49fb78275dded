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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    vanish identically on the walls.
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

def _sl(ndim, axis, index):
    sl = [slice(None)] * ndim
    sl[axis] = index
    return tuple(sl)


def _fwd1(values, axis, parity, overwrite=False):
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


def _bwd1(coeffs, axis, parity, overwrite=False):
    c = np.asarray(coeffs, dtype=float)
    if overwrite:
        c *= c.shape[axis]
    else:
        c = c * c.shape[axis]
    if parity == COS:
        c[_sl(c.ndim, axis, 0)] *= 2.0
        return idct(c, type=2, axis=axis, overwrite_x=True)
    return idst(c, type=2, axis=axis, overwrite_x=True)


# The second pass of a 2D transform works in place on the first pass's
# output: a fresh output per pass costs up to 1.5x on stacked fine grids.
def fwd2(values, parity):
    """Nodal -> coefficients, parity given per axis (y, x)."""
    return _fwd1(_fwd1(values, -1, parity[1]), -2, parity[0], overwrite=True)


def bwd2(coeffs, parity):
    """Coefficients -> nodal, parity given per axis (y, x)."""
    return _bwd1(_bwd1(coeffs, -1, parity[1]), -2, parity[0], overwrite=True)


def _deriv_coeffs(coeffs, axis, parity, length):
    """Differentiate a coefficient array along one axis; returns flipped parity."""
    n = coeffs.shape[axis]
    out = np.zeros_like(coeffs)
    m = np.arange(1, n) * np.pi / length
    if axis == 0:
        m = m[:, None]
    if parity == COS:
        out[_sl(2, axis, slice(0, n - 1))] = -m * coeffs[_sl(2, axis, slice(1, n))]
        return out, SIN
    out[_sl(2, axis, slice(1, n))] = m * coeffs[_sl(2, axis, slice(0, n - 1))]
    return out, COS


def deriv_nodal(values, axis, parity, length):
    """Spectral derivative of a nodal array along one axis."""
    c = _fwd1(values, axis, parity)
    dc, new_parity = _deriv_coeffs(c, axis, parity, length)
    return _bwd1(dc, axis, new_parity)


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


def to_fine(coeffs, parity):
    """Evaluate a coefficient-space field on the 3/2 zero-padded nodal grid."""
    my, mx = fine_shape(coeffs.shape[-2:])
    return bwd2(
        _pad_axis(_pad_axis(coeffs, -1, parity[1], mx), -2, parity[0], my), parity
    )


def from_fine(fine_values, parity, coarse_shape):
    """Project fine-grid nodal values back onto the coarse coefficient slots."""
    c = fwd2(fine_values, parity)
    return _truncate_axis(
        _truncate_axis(c, -1, parity[1], coarse_shape[1]), -2, parity[0], coarse_shape[0]
    )


def dealiased_product(ca, pa, cb, pb):
    """Exact L2 projection of the product of two coefficient-space fields.

    Inputs are 2D coefficient arrays with per-axis parities; the product is
    formed nodally on a 3/2 zero-padded grid and truncated back, following
    the usual quadratic dealiasing rule.  Returns (coeffs, parity).
    """
    pp = (_mul_parity(pa[0], pb[0]), _mul_parity(pa[1], pb[1]))
    prod = to_fine(ca, pa) * to_fine(cb, pb)
    return from_fine(prod, pp, ca.shape), pp


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
    """Full Jacobian (u1x, u1y, u2x, u2y) of a sine-sine velocity field."""
    g = u.grid
    u1x = deriv_nodal(u.vx, 1, SIN, g.lx)
    u1y = deriv_nodal(u.vx, 0, SIN, g.ly)
    u2x = deriv_nodal(u.vy, 1, SIN, g.lx)
    u2y = deriv_nodal(u.vy, 0, SIN, g.ly)
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


class GalerkinBasis:
    """The first n tensor sine modes per velocity component.

    Modes (k, l) are ordered by k^2 + l^2 with lexicographic tie-break, so a
    truncation to any n is deterministic.  Each mode satisfies the no-slip
    condition identically and the family is discretely L2-orthogonal with
    norm^2 = lx*ly/4.

    The basis stores no nodal tables: mode m is the sine-sine coefficient
    slot (l-1, k-1), so projection, reconstruction and the Galerkin loads are
    transforms plus a gather or scatter at `slots`.  Products of two modes
    are four cosine (or sine) modes of index |k-k'| or k+k' <= nx-2, and
    midpoint quadrature integrates them exactly, so Gram-type matrices are
    lookups into the coefficients of the weight (`pair_slots`).
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
        # flat slot of mode (k, l) in a (ny, nx) sine-sine coefficient array
        self.slots = (self.l - 1) * grid.nx + (self.k - 1)

    def _trig(self):
        g = self.grid
        return (
            np.sin(self.ax[:, None] * g.x), np.cos(self.ax[:, None] * g.x),
            np.sin(self.ay[:, None] * g.y), np.cos(self.ay[:, None] * g.y),
        )

    @property
    def phi(self):
        """Nodal mode values, shape (n, ny*nx); evaluated on request."""
        sx, _, sy, _ = self._trig()
        return (sy[:, :, None] * sx[:, None, :]).reshape(self.n, -1)

    @property
    def phi_x(self):
        """Nodal x-derivatives of the modes, shape (n, ny*nx); evaluated on request."""
        _, cx, sy, _ = self._trig()
        return ((self.ax[:, None] * cx)[:, None, :] * sy[:, :, None]).reshape(self.n, -1)

    @property
    def phi_y(self):
        """Nodal y-derivatives of the modes, shape (n, ny*nx); evaluated on request."""
        sx, _, _, cy = self._trig()
        return ((self.ay[:, None] * cy)[:, :, None] * sx[:, None, :]).reshape(self.n, -1)

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

    def scatter(self, coeffs):
        """2n basis coefficients -> (2, ny, nx) sine-sine coefficient arrays."""
        out = np.zeros((2, self.grid.ny * self.grid.nx))
        out[:, self.slots] = np.reshape(coeffs, (2, self.n))
        return out.reshape((2,) + self.grid.shape)

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
    c = fwd2(np.stack([v.vx, v.vy]), (SIN, SIN))
    return c.reshape(2, -1)[:, basis.slots].ravel()


def galerkin_load(basis: GalerkinBasis, f, fx, fy) -> np.ndarray:
    """Quadrature of f_i*phi + fx_i*d_x(phi) + fy_i*d_y(phi) against every mode.

    f, fx, fy are nodal stacks (2, ny, nx), one integrand per velocity
    component i; returns the 2n load (x block then y block).  d_x(phi) is
    a_k cos(a_k x) sin(b_l y), so its integrals are the (sine, cosine)
    coefficients at slot (l-1, k) scaled by a_k*norm^2, and likewise in y.
    """
    s, nx = basis.slots, basis.grid.nx
    c_ss = fwd2(f, (SIN, SIN)).reshape(2, -1)[:, s]
    c_sc = fwd2(fx, (SIN, COS)).reshape(2, -1)[:, s + 1]
    c_cs = fwd2(fy, (COS, SIN)).reshape(2, -1)[:, s + nx]
    return (basis.mode_norm2 * (c_ss + basis.ax * c_sc + basis.ay * c_cs)).ravel()


def reconstruct(coeffs: np.ndarray, basis: GalerkinBasis) -> VectorField:
    """Evaluate basis coefficients nodally; attaches coeffs to the result."""
    coeffs = np.array(coeffs, dtype=float)
    if coeffs.shape != (2 * basis.n,):
        raise BasisError(f"expected {2 * basis.n} coefficients, got {coeffs.shape}")
    vx, vy = bwd2(basis.scatter(coeffs), (SIN, SIN))
    return VectorField(basis.grid, vx, vy, coeffs=coeffs, basis=basis)

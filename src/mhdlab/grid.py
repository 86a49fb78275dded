"""Rectangle grids, trigonometric collocation and the velocity basis.

All fields live on the midpoint collocation grid

    x_i = (i + 1/2) lx/nx,   y_j = (j + 1/2) ly/ny,

where both the cosine family cos(k pi x/lx) (zero normal derivative at the
walls, used for density, magnetic field and temperature) and the sine family
sin(m pi x/lx) (vanishing at the walls, used for velocity) are discretely
orthogonal under the plain nodal quadrature.  Midpoint quadrature integrates
any trigonometric polynomial with fewer than 2*nx modes exactly, so products
of two resolved fields are integrated without error, and a product formed
on a zero-padded fine grid projects back exactly (see `fine_length`).

Nodal arrays are shaped (ny, nx): axis 0 is y, axis 1 is x.  Parity tags
follow the same axis order, e.g. ("c", "s") means even (cosine) in y and odd
(sine) in x.  Sine coefficient slot i along an axis holds mode i+1; the
Nyquist sine mode is dropped.  The 2D transforms and the dealiasing helpers
act on the last two axes, so a stack of fields (k, ny, nx) transforms in one
call.

Each axis operator (`_axis`) is one product with a cached dense matrix, at
every axis length, and each chain of linear axis operators between two
pointwise products folds into one matrix (the derivative, the second
derivative of `laplacian_neumann`, `to_fine`, `from_fine`, the nodal
refinement `refine_nodal`, the restriction and the restriction with a
derivative of `restricted_divergence`, the sine-to-cosine change
`sine_to_cosine`).  A pass over a 2D field of n^2 nodes costs O(n^3): on
the 64^2 and 128^2 grids of a desk-scale run that matches or beats an FFT
chain, past 256^2 it falls behind (a step takes 2.1x as long at 1024^2).
The module needs numpy alone.  A constant maps exactly onto the first
cosine slot.

A velocity from the Galerkin basis fills only the (lmax, kmax) corner of
sine space, kmax and lmax its largest mode indices.  Its transforms are
band-limited: evaluation on the grid and on the fine grid, the Jacobian,
the Galerkin load and the projection are small matrix products with the
basis's per-axis mode tables (see `GalerkinBasis`), never full transforms;
so is the load of fine-grid integrands, with the tables composed with the
restriction.
A velocity without coefficients takes the full transforms.

Every product the scheme dealiases has one such velocity as a factor, so
its fine grid is sized from the velocity's band (`fine_length`), not by
the 3/2 rule for two full-band factors: with a basis of 4 modes 128^2
dealiases on 129^2 and 64^2 on 65^2, with the full sine space on 159^2 and
79^2.  A velocity without a basis keeps the 3/2 grid, the default of
`to_fine` and `from_fine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

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

def _sl(ndim, axis, index):
    sl = [slice(None)] * ndim
    sl[axis] = index
    return tuple(sl)


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


def _build(kind, n, parity, m=None):
    """Dense matrix (output by input) of one axis operator on n inputs; m is
    the output length of `to_fine` (3n/2 by default), `from_fine` (2n/3 by
    default), `refine`, `restrict` and `restrict_deriv`.  A chain of
    operators is the product of its links' matrices."""
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
    if kind == "lap":  # second derivative on an axis of length pi
        k2 = np.arange(n) ** 2.0
        return _build("bwd", n, parity) @ (-k2[:, None] * _build("fwd", n, parity))
    if kind == "s2c":  # sine slots -> cosine slots of the same nodal values
        return _build("fwd", n, COS) @ _build("bwd", n, SIN)
    if kind == "to_fine":  # zero-pad n slots to m, then evaluate
        return _truncate_axis(_build("bwd", m or 3 * n // 2, parity), 1, parity, n)
    if kind == "refine":  # analyse n nodes, then to_fine onto m nodes
        return _build("to_fine", n, parity, m) @ _build("fwd", n, parity)
    if kind == "restrict":  # from_fine onto m slots, then evaluate
        return _build("bwd", m, parity) @ _build("from_fine", n, parity, m)
    if kind == "restrict_deriv":  # from_fine onto m slots, differentiate, evaluate
        dc, flipped = _deriv_coeffs(_build("from_fine", n, parity, m), 0, parity, np.pi)
        return _build("bwd", m, flipped) @ dc
    # from_fine: analyse n fine nodes, then keep the first m slots
    return _truncate_axis(_build("fwd", n, parity), 0, parity, m or 2 * n // 3)


@cache
def _matrix(kind, n, parity, m=None):
    """The dense matrix M of a one-axis operator on an input axis of n nodes
    or slots (and m outputs, where the kind takes them), stored read-only as
    a C-contiguous M.T.

    Along the last axis `v @ M.T` reads it as stored, along the others
    `M @ v` reads its transposed view; either way BLAS gets no transposed
    right operand, which is up to 1.7x faster than `v @ M.T` on a stored M.
    Keyed by kind, lengths and parity only: the derivative is built for an
    axis of length pi and scaled by `deriv_nodal`, so the cache stays bounded
    whatever the grid's lx and ly.
    """
    mt = np.ascontiguousarray(_build(kind, n, parity, m).T)
    mt.flags.writeable = False
    return mt


def _axis(kind, values, axis, parity, m=None):
    """Every transform of the module: one axis operator along `axis` of an
    array or a stack (m outputs for the kinds that change the length), as
    one product with its cached matrix.

    Cosine analysis maps a constant exactly onto slot 0, as the DCT does
    (a Neumann Laplacian of a constant is 0.0, not round-off): rows past
    slot 0, and the derivatives, annihilate constants, so the product acts on
    v - v0, v0 the first node along the axis, and v0 goes back into slot 0,
    or onto every node for the nodal outputs of `refine` and `restrict`.
    """
    v = np.asarray(values, dtype=float)
    mt = _matrix(kind, v.shape[axis], parity, m)
    shift = parity == COS and kind not in ("bwd", "to_fine", "s2c")
    if shift:
        first = _sl(v.ndim, axis, slice(0, 1))
        v0 = v[first]
        v = v - v0
    if axis % v.ndim == v.ndim - 1:
        out = v @ mt
    else:
        out = (mt.T @ v.swapaxes(axis, -2)).swapaxes(axis, -2)
    if shift and kind in ("refine", "restrict"):
        out += v0
    elif shift and kind in ("fwd", "from_fine"):
        out[first] += v0
    return out


def _along_yx(kind, values, parity, shape=(None, None)):
    """Apply one kind along x, the last axis, then along y, with output
    lengths `shape` (ny, nx) where the kind takes them."""
    once = _axis(kind, values, -1, parity[1], shape[1])
    return _axis(kind, once, -2, parity[0], shape[0])


def fwd2(values, parity):
    """Nodal -> coefficients, parity given per axis (y, x)."""
    return _along_yx("fwd", values, parity)


def bwd2(coeffs, parity):
    """Coefficients -> nodal, parity given per axis (y, x)."""
    return _along_yx("bwd", coeffs, parity)


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
    d = _axis("deriv", values, axis, parity)
    d *= np.pi / length
    return d


def _truncate_axis(c, axis, parity, n):
    out = c[_sl(c.ndim, axis, slice(0, n))].copy()
    if parity == SIN:
        out[_sl(c.ndim, axis, -1)] = 0.0
    return out


def fine_length(n, kmax):
    """Nodes of a fine axis on which the product of a field of n slots with
    a sine series of modes up to kmax projects back onto the n slots
    exactly.

    The product holds modes up to n - 1 + kmax, and on m midpoint nodes a
    mode K >= m reads as mode 2m - K (up to sign), which stays outside the
    n kept slots while m >= n + kmax/2 - 1/2, that is m >= n + kmax//2,
    the length returned, unrounded: a dense axis operator costs the same at
    any length.  A basis has kmax <= n/2 - 1, so m is under 5n/4, short of
    the 3/2 rule's 3n/2 for two full-band factors.
    """
    return n + kmax // 2


def to_fine(coeffs, parity, shape=None):
    """Evaluate a coefficient-space field on the zero-padded nodal grid of
    `shape` (ny, nx), by default the 3/2 rule's."""
    ny, nx = coeffs.shape[-2:]
    return _along_yx("to_fine", coeffs, parity, shape or (3 * ny // 2, 3 * nx // 2))


def from_fine(fine_values, parity, shape=None):
    """Project fine-grid nodal values back onto the coefficient slots of the
    coarse `shape` (ny, nx), by default two thirds of the fine ones per
    axis."""
    my, mx = fine_values.shape[-2:]
    shape = shape or (2 * my // 3, 2 * mx // 3)
    return _along_yx("from_fine", fine_values, parity, shape)


def refine_nodal(values, shape):
    """Values on the fine grid of `shape` (ny, nx) of the cosine-cosine field
    with nodal `values` (or a stack), to_fine(fwd2(v, (COS, COS))) as one
    operator per axis."""
    return _along_yx("refine", values, (COS, COS), shape)


def restricted_divergence(flux, grid: Grid):
    """Nodal divergence on `grid` of the projection of a fine-grid flux whose
    components (x then y) are odd across the walls they face.

    Each component is projected and differentiated along its own axis in one
    operator (`restrict_deriv`: from_fine, derivative, bwd) and projected
    along the other by the sine restriction: two passes per component.
    """
    q1, q2 = flux
    ny, nx = grid.shape
    d1 = _axis("restrict_deriv", q1, -1, SIN, nx)
    d1 = _axis("restrict", d1, -2, SIN, ny)
    d2 = _axis("restrict", q2, -1, SIN, nx)
    d2 = _axis("restrict_deriv", d2, -2, SIN, ny)
    d1 *= np.pi / grid.lx
    d1 += (np.pi / grid.ly) * d2
    return d1


def sine_to_cosine(coeffs, axis):
    """Cosine coefficients along `axis` of the nodal values that sine
    coefficients describe there, fwd(COS) of bwd(SIN) as one operator; the
    other axis is left as it is."""
    return _axis("s2c", coeffs, axis, SIN)


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
    """Neumann Laplacian, diagonal in the cosine representation: the second
    derivative along x plus that along y, each one operator (`lap`, bwd of
    -k^2 times fwd) on its axis, since the cosine round trip along the other
    axis is the identity."""
    g = f.grid
    lap = _axis("lap", f.values, -1, COS)
    lap *= (np.pi / g.lx) ** 2
    lap += (np.pi / g.ly) ** 2 * _axis("lap", f.values, -2, COS)
    return ScalarField(g, lap)


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
    on the fine grid that dealiases products with the basis velocities
    (`sx_fine`, `sy_fine`, on fine_length(nx, kmax) and fine_length(ny,
    lmax) nodes), and derivative values (k pi/lx) cos(k pi x/lx) (`dx`,
    `dy`).  The x tables also come
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


class LoadTables(NamedTuple):
    """The tables `GalerkinBasis.analyse` contracts a load with: the x sine
    and derivative tables transposed (`sxt`, `dxt`, nodes by modes) and the
    y ones (`sy`, `dy`, modes by nodes)."""

    sxt: np.ndarray
    dxt: np.ndarray
    sy: np.ndarray
    dy: np.ndarray


def _axis_tables(kmax, n, length):
    """Sine, derivative and fine-grid sine tables of modes 1..kmax on an
    axis of n midpoint nodes."""
    k = np.arange(1, kmax + 1)
    phase = _phase(k, n)
    deriv = (k * np.pi / length)[:, None] * np.cos(phase)
    return np.sin(phase), deriv, np.sin(_phase(k, fine_length(n, kmax)))


@cache
def _pairs(m, symmetric):
    """Index pairs (a, b) of m table rows, each unordered pair once when
    `symmetric` (the rows of a table times themselves), and the (m, m)
    slot of each pair among them."""
    if not symmetric:
        a, b = np.indices((m, m)).reshape(2, -1)
        return a, b, np.arange(m * m).reshape(m, m)
    a, b = np.triu_indices(m)
    slot = np.empty((m, m), dtype=np.intp)
    slot[a, b] = slot[b, a] = np.arange(len(a))
    return a, b, slot


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
    band-sized fine grid the same with the fine tables, and the quadratures
    of f phi + fx d_x(phi) + fy d_y(phi) are Sy (f Sx^T + fx Dx^T) +
    Dy fy Sx^T, gathered at the modes; those of fine-grid integrands,
    restricted to the grid, the same with Sy Ry, Dy Ry, Rx^T Sx^T and
    Rx^T Dx^T for the cosine restriction R (`fine_load_tables`, also built
    on first use).  The (n, ny*nx) nodal tables `phi`, `phi_x`, `phi_y` are
    formed only on request.

    Products of two modes are four cosine (or sine) modes of index |k-k'| or
    k+k' <= nx-2, and midpoint quadrature integrates them, times any weight
    on the grid, exactly.  So a Gram-type matrix is either assembled from
    the same per-axis tables (`gram`), or never formed: its product with a
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
        k, l = np.indices((kmax, lmax)).reshape(2, -1) + 1
        first = np.lexsort((l, k, k * k + l * l))[:n]
        self.k, self.l = k[first], l[first]
        self.modes = list(zip(self.k.tolist(), self.l.tolist()))
        self.mode_norm2 = grid.lx * grid.ly / 4.0
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

    @cached_property
    def fine_load_tables(self) -> LoadTables:
        """The load tables composed with the cosine restriction of the fine
        axes of `tables`: the quadratures, on the grid, of the cosine-cosine
        projection of fine-grid integrands, taken on the fine grid.  Built on
        first use from the restriction's dense matrix."""
        g, t = self.grid, self.tables
        ry = _build("restrict", t.sy_fine.shape[1], COS, g.ny)
        rx = _build("restrict", t.sx_fine.shape[1], COS, g.nx)
        return LoadTables(rx.T @ t.sxt, rx.T @ t.dxt, t.sy @ ry, t.dy @ ry)

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

    def gram(self, w, ty, tx, ty2=None, tx2=None):
        """The n x n quadratures int w phi_m psi_m' of the nodal weight w
        against two mode families given by per-axis tables (rows of
        `tables`): phi_m = ty[l-1](y) tx[k-1](x) and psi_m' likewise from
        ty2, tx2, the first family again when those are None.

        A product of two modes separates by axis, so the pair rows
        tx[k] tx2[k'] and ty[l] ty2[l'] are formed per axis, the weight is
        contracted with the x rows, then with the y rows, and the result is
        gathered at the mode pairs.  Where a table meets itself, a pair and
        its reverse share one row, so with one family the matrix is exactly
        symmetric.
        """
        if ty2 is None:
            ty2, tx2 = ty, tx
        ay, by, slot_y = _pairs(len(ty), ty is ty2)
        ax, bx, slot_x = _pairs(len(tx), tx is tx2)
        g = (ty[ay] * ty2[by]) @ (w @ (tx[ax] * tx2[bx]).T)
        l, k = self.l - 1, self.k - 1
        return self.grid.weight * g[slot_y[l[:, None], l], slot_x[k[:, None], k]]

    def _corner(self, coeffs):
        """2n coefficients -> the (2, lmax, kmax) corner of sine space."""
        c = np.zeros((2, self.lmax * self.kmax))
        c[:, self.corner_index] = np.reshape(coeffs, (2, self.n))
        return c.reshape(2, self.lmax, self.kmax)

    def evaluate(self, coeffs, fine=False):
        """(2, ny, nx) nodal values of the velocity with coefficients
        `coeffs`, or its values on the fine grid of the mode tables."""
        t = self.tables
        if fine:
            return t.sy_fine.T @ (self._corner(coeffs) @ t.sx_fine)
        return t.sy.T @ (self._corner(coeffs) @ t.sx)

    def jacobian(self, coeffs):
        """(u1x, u1y, u2x, u2y) of the velocity with coefficients `coeffs`."""
        c = self._corner(coeffs)
        return self._jacobian(c, c @ self.tables.sx)

    def evaluate_with_jacobian(self, coeffs):
        """`evaluate` and `jacobian` of the same coefficients from one
        corner and one C Sx; returns ((2, ny, nx) values, Jacobian)."""
        c = self._corner(coeffs)
        csx = c @ self.tables.sx
        return self.tables.sy.T @ csx, self._jacobian(c, csx)

    def _jacobian(self, c, csx):
        t = self.tables
        (u1x, u2x), (u1y, u2y) = t.sy.T @ (c @ t.dx), t.dy.T @ csx
        return u1x, u1y, u2x, u2y

    def analyse(self, f, fx=None, fy=None, fine=False):
        """Nodal sums of f_i*phi + fx_i*d_x(phi) + fy_i*d_y(phi) for every
        mode, per component i of the (2, ny, nx) stacks: the 2n quadratures
        without the weight hx*hy (x block then y block).  f may be None
        where fx and fy are given.  With `fine`, the stacks live on the fine
        grid of the mode tables and are restricted first (see
        `fine_load_tables`)."""
        t = self.fine_load_tables if fine else self.tables
        if fx is None:
            c = t.sy @ (f @ t.sxt)
        else:
            g = fx @ t.dxt
            if f is not None:
                g += f @ t.sxt
            c = t.sy @ g + t.dy @ (fy @ t.sxt)
        return c.reshape(2, -1)[:, self.corner_index].ravel()


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

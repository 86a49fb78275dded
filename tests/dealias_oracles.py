"""Test oracles for the dealiased products and the fused chains of the solver.

The 3/2 rule dealiases the product of any two resolved fields; the solver's
band-sized fine grid and its one-matrix chains are checked against these
longer forms, which are the forms the solver used before each chain was
fused.  Every axis operator of `grid` is a dense matrix; `pocketfft_axis`
is the same operator as its chain of scipy.fft passes, the reference the
matrices are checked against at every length.
"""

import numpy as np
from scipy.fft import dct, dst, idct, idst

from mhdlab.grid import (
    COS,
    SIN,
    _along_yx,
    _deriv_coeffs,
    _sl,
    _truncate_axis,
    bwd2,
    from_fine,
    fwd2,
    galerkin_load,
    to_fine,
)


def fft_fwd1(values, axis, parity):
    """Nodal values -> cosine or sine coefficients along one axis."""
    n = values.shape[axis]
    if parity == COS:
        c = dct(values, type=2, axis=axis)
        c *= 1.0 / n
        c[_sl(c.ndim, axis, 0)] *= 0.5
    else:
        c = dst(values, type=2, axis=axis)
        c *= 1.0 / n
        c[_sl(c.ndim, axis, -1)] = 0.0  # Nyquist sine mode dropped
    return c


def fft_bwd1(coeffs, axis, parity):
    """Cosine or sine coefficients -> nodal values along one axis."""
    c = coeffs * coeffs.shape[axis]
    if parity == COS:
        c[_sl(c.ndim, axis, 0)] *= 2.0
        return idct(c, type=2, axis=axis)
    return idst(c, type=2, axis=axis)


def pad_axis(c, axis, parity, m):
    """Zero-pad a coefficient array to m slots along an axis.

    Cosine slots map directly; sine slot i holds mode i+1, so modes 1..n-1
    also map to the same slots.
    """
    shape = list(c.shape)
    n = shape[axis]
    shape[axis] = m
    out = np.zeros(shape, dtype=c.dtype)
    keep = n if parity == COS else n - 1
    out[_sl(c.ndim, axis, slice(0, keep))] = c[_sl(c.ndim, axis, slice(0, keep))]
    return out


def pocketfft_axis(kind, values, axis, parity, m=None):
    """One axis operator of `grid._axis` as its chain of pocketfft passes;
    the derivatives are taken on an axis of length pi, as the matrices are,
    and m defaults to the 3/2 rule's lengths as in `to_fine` and
    `from_fine`."""
    n = values.shape[axis]
    if kind == "bwd":
        return fft_bwd1(values, axis, parity)
    if kind == "to_fine":
        return fft_bwd1(pad_axis(values, axis, parity, m or 3 * n // 2), axis, parity)
    if kind == "s2c":
        return fft_fwd1(fft_bwd1(values, axis, SIN), axis, COS)
    c = fft_fwd1(values, axis, parity)
    if kind == "fwd":
        return c
    if kind == "deriv":
        dc, flipped = _deriv_coeffs(c, axis, parity, np.pi)
        return fft_bwd1(dc, axis, flipped)
    if kind == "lap":
        shape = [1] * c.ndim
        shape[axis] = n
        c *= -np.arange(n).reshape(shape) ** 2.0
        return fft_bwd1(c, axis, parity)
    if kind == "refine":
        return fft_bwd1(pad_axis(c, axis, parity, m), axis, parity)
    c = _truncate_axis(c, axis, parity, m or 2 * n // 3)
    if kind == "from_fine":
        return c
    if kind == "restrict_deriv":
        c, parity = _deriv_coeffs(c, axis, parity, np.pi)
    return fft_bwd1(c, axis, parity)  # restrict


def fine_shape(shape):
    """Quadratic-dealiasing (3/2 rule) grid size for a coarse shape."""
    return (3 * shape[0] // 2, 3 * shape[1] // 2)


def _mul_parity(pa, pb):
    return COS if pa == pb else SIN


def dealiased_product(ca, pa, cb, pb):
    """Exact L2 projection of the product of two coefficient-space fields.

    Inputs are 2D coefficient arrays with per-axis parities; the product is
    formed nodally on a 3/2 zero-padded grid and truncated back, following
    the usual quadratic dealiasing rule.  Returns (coeffs, parity).
    """
    pp = (_mul_parity(pa[0], pb[0]), _mul_parity(pa[1], pb[1]))
    prod = to_fine(ca, pa) * to_fine(cb, pb)
    return from_fine(prod, pp), pp


def flux_divergence_chain(flux, grid):
    """Cosine coefficients of div(flux) from its sine-sine coefficients, as
    a nodal round trip: both derivative series to the grid, summed, then
    analysed."""
    q1, q2 = flux
    dq1, px = _deriv_coeffs(q1, 1, SIN, grid.lx)
    dq2, py = _deriv_coeffs(q2, 0, SIN, grid.ly)
    adv = fwd2(bwd2(dq1, (SIN, px)) + bwd2(dq2, (py, SIN)), (COS, COS))
    adv[0, 0] = 0.0
    return adv


def restriction_chain(fine_values, shape):
    """Coarse nodal values of the cosine-cosine projection of fine-grid
    values: analyse, truncate, evaluate."""
    return bwd2(from_fine(fine_values, (COS, COS), shape), (COS, COS))


def restrict_nodal(fine_values, shape):
    """Nodal values on the coarse `shape` of the cosine-cosine projection of
    fine-grid nodal values, `restriction_chain` as one operator per axis:
    what the advection tensor went through before its load was taken on the
    fine grid."""
    return _along_yx("restrict", fine_values, (COS, COS), shape)


def laplacian_chain(values, grid):
    """Neumann Laplacian as analysis, -|k|^2 and evaluation in 2D."""
    return bwd2(-grid.k2_cc * fwd2(values, (COS, COS)), (COS, COS))


def energy_advection_chain(rhoe, uw):
    """Nodal div(rho*e u) through cosine coefficients: analyse rho*e, pad it
    to the fine grid, form the flux there, project it, take the cosine
    coefficients of its divergence and evaluate them."""
    u_fine = uw.u_fine
    f_cc = fwd2(rhoe, (COS, COS))
    f_fine = to_fine(f_cc, (COS, COS), u_fine.shape[-2:])
    flux = from_fine(f_fine * u_fine, (SIN, SIN), f_cc.shape[-2:])
    return bwd2(flux_divergence_chain(flux, uw.u.grid), (COS, COS))


def advection_tensor(uw):
    """Nodal rho*u_i*u_j (t11, t12, t22) on the grid: the pairwise products
    of the fine-grid mass flux and velocity, restricted."""
    u1, u2 = uw.u_fine
    ru1, ru2 = to_fine(uw.mass_flux, (SIN, SIN), u1.shape)
    return restrict_nodal(np.stack([ru1 * u1, ru1 * u2, ru2 * u2]), uw.u.grid.shape)


def advection_load_chain(uw):
    """Galerkin load of the restricted advection tensor as the momentum flux
    rows (t11, t12), (t12, t22)."""
    t11, t12, t22 = advection_tensor(uw)
    zero = np.zeros_like(t11)
    return galerkin_load(uw.u.basis, np.stack([zero, zero]),
                         np.stack([t11, t12]), np.stack([t12, t22]))

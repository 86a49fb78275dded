"""Test oracles for the dealiased products and the fused chains of the solver.

The 3/2 rule dealiases the product of any two resolved fields; the solver's
band-sized fine grid and its one-matrix chains are checked against these
longer forms, which are the forms the solver used before each chain was
fused.
"""

import numpy as np

from mhdlab.grid import (
    COS,
    SIN,
    _along_yx,
    _deriv_coeffs,
    bwd2,
    from_fine,
    fwd2,
    galerkin_load,
    to_fine,
)


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

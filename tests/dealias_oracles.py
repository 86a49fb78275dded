"""Test oracles for the dealiased products and the fused chains of the solver.

The 3/2 rule dealiases the product of any two resolved fields; the solver's
band-sized fine grid and its one-matrix chains are checked against these
longer forms.
"""

from mhdlab.grid import COS, SIN, _deriv_coeffs, bwd2, from_fine, fwd2, to_fine


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

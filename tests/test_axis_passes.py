"""Single-field axis passes of the fused operators and of the step's stages.

Every transform of `grid` goes through `grid._axis`, so wrapping it counts
the passes; a pass over a stack of k fields counts k.  The benchmark's own
transform counter wraps only `fwd2` and `bwd2` and misses these.
"""

import numpy as np
import pytest

from mhdlab import grid as grid_module
from mhdlab.grid import (
    COS,
    SIN,
    GalerkinBasis,
    Grid,
    ScalarField,
    VectorField,
    gradient,
    laplacian_neumann,
)
from mhdlab.solver import (
    InitialData,
    RegParams,
    _energy_advection,
    advance_momentum,
    initial_state,
    tendencies,
)
from mhdlab.thermo import EosParams

P = EosParams()
REG = RegParams(epsilon=1e-2, delta=1e-2, n=4)


@pytest.fixture
def passes(monkeypatch):
    """(kind, parity, fields) of every axis pass from here on."""
    seen = []

    def counted(kind, values, axis, parity, m=None, _orig=grid_module._axis):
        seen.append((kind, parity, int(np.prod(np.shape(values)[:-2]))))
        return _orig(kind, values, axis, parity, m)

    monkeypatch.setattr(grid_module, "_axis", counted)
    return seen


def total(seen, kind=None, parity=None):
    return sum(k for kd, p, k in seen
               if kind in (None, kd) and parity in (None, p))


def smooth_state(nx=64, ny=64):
    g = Grid(nx, ny, 1.3, 0.9)
    mode = np.cos(np.pi * g.X / g.lx) * np.cos(np.pi * g.Y / g.ly)
    basis = GalerkinBasis(g, REG.n)
    u = VectorField(g, 0.05 * np.sin(np.pi * g.X / g.lx) * np.sin(np.pi * g.Y / g.ly),
                    np.zeros(g.shape))
    init = InitialData(ScalarField(g, 1.0 + 0.05 * mode),
                       ScalarField(g, 2.0 + 0.1 * mode),
                       ScalarField(g, 1.0 + 0.05 * np.cos(np.pi * g.Y / g.ly)), u)
    return initial_state(init, basis)


@pytest.mark.parametrize("shape", [(64, 64), (128, 128), (64, 128)])
def test_laplacian_takes_one_pass_per_axis(passes, shape):
    ny, nx = shape
    laplacian_neumann(ScalarField(Grid(nx, ny), np.ones(shape)))
    assert passes == [("lap", COS, 1)] * 2


@pytest.mark.parametrize("nx", [64, 128])
def test_energy_advection_takes_six_passes(passes, nx):
    st = smooth_state(nx, nx)
    uw = st.workspace
    uw.u_fine  # from the mode tables, no pass
    assert passes == []
    _energy_advection(st.rho.values * st.theta.values, uw)
    assert total(passes) == 6
    assert [total(passes, kind) for kind in ("refine", "restrict_deriv", "restrict")] \
        == [2, 2, 2]


def test_momentum_advance_restricts_nothing(passes):
    st = smooth_state()
    advance_momentum(st, REG, P, 2.5e-3, st.rho, st.b, st.theta, gradient(st.rho))
    assert passes and total(passes, "restrict") == 0


def test_tendencies_restrict_only_the_energy_flux(passes):
    # the energy flux's two sine restrictions; the advection tensor is
    # loaded on the fine grid, never restricted
    tendencies(smooth_state(), REG, P)
    assert total(passes, "restrict", SIN) == 2
    assert total(passes, "restrict", COS) == 0

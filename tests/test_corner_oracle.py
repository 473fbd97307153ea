"""The corner path of the blowup ladders against full chopped polytopes.

``verify_expansion`` and ``gram_convergence`` compute every ladder point
from the parent's integrals and integrals over the removed corner simplex.
Building and integrating each chopped polytope P_eps is the oracle: both
must give the same ladder values at every depth of the default grid.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from toricstab import blowup, catalog, invariants as inv, quadrature, testconfig as tcg
from toricstab.polytope import DelzantPolytope
from toricstab.profiles import builtin

CUBE4 = DelzantPolytope(4, [(tuple(s * (i == k) for i in range(4)), 1)
                            for k in range(4) for s in (1, -1)], name="cube4")
POLYTOPES = [P for P in map(catalog.load, catalog.names()) if P.dim in (2, 3)] + [CUBE4]


def weights(family, n):
    xi = np.linspace(0.4, -0.3, n) if family == "soliton" else None
    return builtin(family, n, xi=xi)


def configurations(P, W):
    """A product configuration (with a twist) and a non-product one whose
    crease runs through the middle of P."""
    n = P.dim
    ones = (1,) * n
    sums = [sum(v) for v in P.vertices]
    crease = -(min(sums) + max(sums)) / 2
    twist = np.linspace(0.3, -0.5, n)
    product = tcg.ToricTC(P, W, tcg.PLConvex.make([(ones, crease)]), twist)
    other = tcg.ToricTC(P, W, tcg.PLConvex.make([((0,) * n, 0), (ones, crease)]), twist)
    assert product.is_product() and not other.is_product()
    return product, other


def chopped(quantity, P_eps, W, beta, tc):
    if quantity == "volume":
        return inv.vol_w(P_eps, W)
    if quantity == "futaki":
        return inv.futaki(P_eps, W, beta)
    on = tcg.ToricTC(P_eps, W, tc.phi, tc.twist_vector, tc.c0)
    return tcg.df(on) if quantity == "df" else tcg.df_T(on)


@pytest.mark.parametrize("family", ["cscK", "soliton"])
@pytest.mark.parametrize("P", POLYTOPES, ids=lambda P: P.name)
def test_corner_ladders_match_full_chops(P, family):
    n = P.dim
    W = weights(family, n)
    vertex = len(P.vertices) // 2
    grid = blowup.default_eps_grid(P, vertex)
    chops = [P.corner_chop(vertex, eps) for eps in grid]
    beta = np.linspace(1.0, -0.4, n)
    for tc in configurations(P, W):
        for quantity in ("volume", "futaki", "df", "dft"):
            r = blowup.verify_expansion(quantity, P, W, vertex, beta=beta, tc=tc)
            oracle = np.array([chopped(quantity, Q, W, beta, tc) for Q in chops])
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert np.max(np.abs(np.array(r.exact) - oracle)) <= 1e-12 * scale, quantity
            assert r.passed, (quantity, r)
    g0 = inv.gram(P, W)
    oracle = np.array([np.linalg.norm(inv.gram(Q, W) - g0) for Q in chops])
    r = blowup.gram_convergence(P, W, vertex)
    assert np.max(np.abs(np.array(r.exact) - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(g0)))
    assert r.passed


@pytest.mark.parametrize("P", POLYTOPES, ids=lambda P: P.name)
def test_volume_deltas_match_closed_form_moments(P):
    # -dVol_w is the weighted volume of the corner simplex: the exact
    # rational volume for cscK weights (w = 1), the divided-difference
    # exponential moment for soliton ones.
    vertex = len(P.vertices) // 2
    grid = blowup.default_eps_grid(P, vertex)
    corners = [P.corner(vertex, eps) for eps in grid]
    for eps, D in zip(grid, corners):
        assert quadrature.moments(D) == eps ** P.dim / math.factorial(P.dim)
    W = weights("cscK", P.dim)
    r = blowup.verify_expansion("volume", P, W, vertex)
    exact = [-float(quadrature.moments(D)) for D in corners]
    assert r.deltas == pytest.approx(exact, rel=1e-14, abs=0)
    W = weights("soliton", P.dim)
    r = blowup.verify_expansion("volume", P, W, vertex)
    oracle = [-quadrature.moments(D, xi=W.xi, mode="exponential") for D in corners]
    assert r.deltas == pytest.approx(oracle, rel=1e-12, abs=0)


def test_corner_is_what_the_chop_removes(cube):
    eps = cube.admissible_chop(3) / 3
    D, Q = cube.corner(3, eps), cube.corner_chop(3, eps)
    assert D.validate_delzant() == [] and len(D.facets) == 4
    assert D.volume() + Q.volume() == cube.volume()
    assert DelzantPolytope(3, D.facets)._enumerate() == D._enumerate()

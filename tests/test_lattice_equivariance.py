"""Lattice equivariance of the invariants in dimensions 2-4.

Every invariant is defined through the lattice measure, so an affine map
x -> U x + tau with U unimodular changes none of them once the data moves
along: xi and beta by U^-T, each PL piece (a, c) to (U^-T a, c - <U^-T a,
tau>), and the weight profiles re-centred by <U^-T xi, tau>.  The image
polytope has other vertex orders, charts and triangulations, so this checks
the exact layer and the integrators together.
"""

from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings, strategies as st

from toricstab import _linalg as la, invariants as inv, testconfig as tcg
from toricstab.polytope import DelzantPolytope
from toricstab.profiles import WeightPair, builtin
from toricstab.testconfig import PLConvex, ToricTC

REL = 1e-12


def simplex(n):
    return DelzantPolytope(n, [(tuple(int(i == k) for i in range(n)), 0)
                               for k in range(n)] + [((-1,) * n, 2)])


def cube(n):
    return DelzantPolytope(n, [(tuple(s * (i == k) for i in range(n)), 1)
                               for k in range(n) for s in (1, -1)])


@st.composite
def chopped(draw):
    n = draw(st.integers(2, 4))
    P = draw(st.sampled_from((simplex, cube)))(n)
    for _ in range(draw(st.integers(1, 2 if n < 4 else 1))):
        vi = draw(st.integers(0, len(P.vertices) - 1))
        P = P.corner_chop(vi, P.admissible_chop(vi) * F(draw(st.integers(1, 9)), 10))
    return P


@st.composite
def unimodular(draw, n):
    """A product of elementary integer matrices and a sign flip."""
    u = np.eye(n, dtype=int)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.permutations(range(n)))[:2]
        e = np.eye(n, dtype=int)
        e[i, j] = draw(st.sampled_from((-1, 1)))
        u = e @ u
    u[draw(st.integers(0, n - 1))] *= draw(st.sampled_from((-1, 1)))
    return [[int(x) for x in row] for row in u]


def _close(a, b, scale):
    assert abs(a - b) <= REL * max(abs(a), abs(b), scale), (a, b)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_invariants_under_unimodular_maps(data):
    P = data.draw(chopped())
    n = P.dim
    u = data.draw(unimodular(n))
    tau = data.draw(st.tuples(*[st.builds(F, st.integers(-4, 4), st.integers(1, 3))] * n))
    image = P.unimodular_image(u, tau)
    uinvT = np.array(la.invert_integer_matrix(u), dtype=float).T
    uinvT_exact = [[F(x) for x in row] for row in zip(*la.invert_integer_matrix(u))]

    family = data.draw(st.sampled_from(("cscK", "soliton")))
    xi = np.array(data.draw(st.tuples(*[st.integers(-3, 3)] * n))) / 10
    W = builtin(family, n, xi=xi)
    xi_img = uinvT @ W.xi
    W_img = WeightPair(xi_img, W.f, W.g, n, family=family).recentered(
        F(float(xi_img @ np.array([float(t) for t in tau]))))

    vol, per = inv.vol_w(P, W), inv.per_v(P, W)
    _close(inv.vol_w(image, W_img), vol, 0)
    _close(inv.per_v(image, W_img), per, 0)
    for b in np.eye(n):
        _close(inv.futaki(image, W_img, uinvT @ b), inv.futaki(P, W, b), per)

    vi = data.draw(st.integers(0, len(P.vertices) - 1))
    grad = data.draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))
    phi = PLConvex.make([((0,) * n, 0),
                         (grad, -la.dot(grad, P.vertices[vi]) + F(1, 3))])
    pieces = []
    for g, c in phi.pieces:
        g_img = tuple(la.dot(row, g) for row in uinvT_exact)
        pieces.append((g_img, c - la.dot(g_img, tau)))
    tc, tc_img = ToricTC(P, W, phi), ToricTC(image, W_img, PLConvex.make(pieces))
    scale = per * max(abs(float(tc.value(v)[0])) for v in P.vertices_floats())
    _close(tcg.df(tc_img), tcg.df(tc), scale)
    _close(tcg.df_T(tc_img), tcg.df_T(tc), scale)

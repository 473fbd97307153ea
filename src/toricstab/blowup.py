"""Corner-chop expansion engine.

Chopping the corner at a fixed point p to lattice depth eps realises the
blowup with class deficit eps at that point.  The invariants of the chopped
polytope admit expansions in eps whose leading corrections are predicted in
closed form from unchopped data:

    weighted volume:   - w(p) / n!                        at order eps^n
    Futaki character:  + v(p) (<p,beta> - mean) / (n-2)!  at order eps^(n-1)
    df / df_T:         - v(p) * chow / (n-2)!             at order eps^(n-1)

with chow the (plain or torus-orthogonal) weighted Chow weight of p.

The chopped polytope is P_eps = P minus the corner simplex Delta_eps that
the blowup removes, and no P_eps is built.  Every integral over it is the
parent's plus a corner integral: I(P_eps) = I(P) - I(Delta_eps) inside, and
I(dP_eps) = I(dP) - I(dDelta_eps) + 2 I(F_eps) on the boundary, F_eps the
new facet; phi's cells are cut on Delta_eps alone.  A corner integral has
the integrand and integration parts that define the parent's own (the
chart pull-backs of ``quadrature``, the beta-moments and Gram second
moments of ``invariants``, the PL parts of ``testconfig``), on Delta_eps.
s_hat, the Futaki character, the Gram matrix (shifted by the change of
means), df and the df_T projection follow algebraically, so dQ(eps) =
Q(P_eps) - Q(P) is computed from small numbers, never as a difference of
O(1) ones.  The engine fits these differences on a geometric eps-grid
against the predicted leading monomial, and reports the fitted coefficient
plus the log-log slope of the remainder.  These fits are what pins the
global sign conventions of the whole package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import invariants, testconfig
from .quadrature import (DEFAULT_RULE, boundary_parts, integrate_parts,
                         product_degree)

QUANTITIES = ("volume", "futaki", "df", "dft", "gram")

# Relative roundoff allowed in a ladder difference, against the sum of the
# absolute values of the terms it is computed from.
NOISE = 1e-13


@dataclass(frozen=True)
class ExpansionReport:
    quantity: str
    vertex: tuple
    eps_grid: tuple
    exact: tuple             # Q(P_eps) = Q(P) + deltas
    predicted: dict          # order -> coefficient
    fitted: dict             # leading order -> coefficient
    remainder_exponent: float
    expected_next_order: float
    coefficient_rel_error: float
    passed: bool
    deltas: tuple = ()       # Q(P_eps) - Q(P), as fitted
    # For a leading coefficient predicted exactly zero: |fitted| and the
    # roundoff floor it is held to, in place of a relative error.
    zero_coefficient_error: float | None = None
    zero_coefficient_floor: float | None = None

    def series(self):
        """(eps, exact, predicted-model) triples for plotting."""
        rows = []
        for e, y in zip(self.eps_grid, self.exact):
            model = sum(c * float(e) ** k for k, c in self.predicted.items())
            rows.append((float(e), y, model))
        return rows


def default_eps_grid(P, vertex, points=8):
    """Geometric grid from admissible/4 downward by halving, exact rationals."""
    start = P.admissible_chop(vertex) / 4
    return tuple(start / 2 ** k for k in range(points))


def _vertex_point(P, vertex):
    """The vertex data and the float point of a vertex to expand at."""
    v = P.vertex_data_at(vertex)
    if P.dim < 2:
        raise ValueError("expansions need dimension >= 2")
    return v, np.array([float(c) for c in v.coords])


def predict_volume_expansion(P, W, vertex, rule=DEFAULT_RULE):
    """Orders {0: Vol_w, n: -w(p)/n!}; remainder O(eps^{n+1})."""
    _, p = _vertex_point(P, vertex)
    return {0: invariants.vol_w(P, W, rule),
            P.dim: -float(W.w(p)) / math.factorial(P.dim)}


def predict_futaki_expansion(P, W, vertex, beta, rule=DEFAULT_RULE):
    """Orders {0: F(beta), n-1: v(p)(<p,beta> - mean)/(n-2)!}; O(eps^n) rest."""
    _, p = _vertex_point(P, vertex)
    n, beta = P.dim, np.asarray(beta, dtype=float)
    bbar = float(invariants.barycenter_w(P, W, rule) @ beta)
    coeff = float(W.v(p)) * (float(p @ beta) - bbar) / math.factorial(n - 2)
    return {0: invariants.futaki(P, W, beta, rule), n - 1: coeff}


def predict_df_expansions(tc, vertex, rule=DEFAULT_RULE):
    """Leading corrections of df and df_T under the chop at the vertex.

    Both corrections sit at order n-1 with coefficients -v(p) Ch / (n-2)!,
    using the plain and the torus-orthogonal Chow weight respectively.  On
    a product configuration (an exact test) phi is affine, so df_T and
    every torus-orthogonal Chow weight vanish identically, and df and every
    Chow weight too if phi is constant: those orders are exact zeros.
    """
    P, W, n = tc.polytope, tc.weights, tc.polytope.dim
    v, p = _vertex_point(P, vertex)
    vp = float(W.v(p))
    fac = math.factorial(n - 2)
    zero = {0: 0.0, n - 1: 0.0}
    product = tc.is_product()
    # phi - <x, twist> on the one cell of a product: constant if its gradient is.
    constant = product and all(g == Fraction(t) for g, t in zip(
        tc.phi.pieces[tc.cells()[0][0]][0], tc.twist_vector))
    return {
        "df": zero if constant else {
            0: testconfig.df(tc, rule),
            n - 1: -vp * testconfig.chow(tc, v.coords, rule) / fac},
        "dft": zero if product else {
            0: testconfig.df_T(tc, rule),
            n - 1: -vp * testconfig.chow_T(tc, v.coords, rule) / fac},
    }


# The ladders at one (P, vertex) read the same corner simplices, with their
# triangulations and charts.  A blowup_ladder cycle visits seven (P, vertex)
# pairs, four ladders each, and later cycles draw the same pairs again.
# Replaying whole benchmark runs (seeds 301-302: 26-27 entries needed, of
# 27-30 distinct) and runs of twice that length (31-32), 32 entries rebuild
# corners only where an unbounded cache does.
@lru_cache(maxsize=32)
def _corners(P, k, grid):
    """The corner simplices of P at vertex k on the grid, each with its facet
    indices, F_eps first.  ``lru_cache`` stores no exception: a depth past
    the admissible one raises on every call."""
    through = {P.facets[i] for i in P.vertex_facets[k]}
    out = []
    for D in (P.corner(k, eps) for eps in grid):
        facets = sorted(range(len(D.facets)), key=lambda j: D.facets[j] in through)
        out.append((D, facets))
    return tuple(out)


class _Corner:
    """The corner simplices Delta_eps of one (P, vertex, W) on an eps grid
    and the difference algebra of the ladders over them.

    Each ladder method returns the terms of one difference dQ(eps) =
    Q(P_eps) - Q(P) as arrays over the grid: their sum is dQ, and the sum of
    their absolute values sets its roundoff floor.
    """

    def __init__(self, P, W, vertex, eps_grid, rule):
        self.P, self.W, self.rule = P, W, rule
        self.at = (P.vertices.index(vertex.coords), tuple(eps_grid))
        self.simplices = _corners(P, *self.at)

    def integrals(self, tag, integrals):
        """Corner integrals as an array (depth, integral), one scalar-cache
        entry under ``tag``.  ``integrals(D, facets)`` lists the integrals
        over the corner D, each as its integration parts; the parts of all
        depths, of whatever dimension, go through one integrate_parts call."""
        def compute():
            lists = [integrals(D, facets) for D, facets in self.simplices]
            results = iter(integrate_parts(
                [p for ls in lists for ps in ls for p in ps], self.rule))
            return tuple(tuple(sum(next(results).value for _ in ps) for ps in ls)
                         for ls in lists)
        return np.array(invariants._cached((tag, self.at), self.P, self.W,
                                           self.rule, compute), dtype=float)

    def weighted(self, tag, inside, boundary):
        """Columns: int_Delta f dx, then int g dsigma on each facet of
        Delta, F_eps first (lattice measure), for the (integrand, degree)
        pairs ``inside`` = (f, .) and ``boundary`` = (g, .)."""
        return self.integrals(tag, lambda D, facets: [
            [(inside[0], D.triangulation_floats(), inside[1])],
            *([p] for p in boundary_parts(D, *boundary, facets))])

    @staticmethod
    def boundary(facets):
        """Terms of I(dP_eps) - I(dP) = -I(dDelta_eps) + 2 I(F_eps), from
        the per-facet columns, F_eps first."""
        return [-facets.sum(axis=1), 2 * facets[:, 0]]

    @cached_property
    def shat(self):
        """(V_Delta, V_eps, ds, s_eps): the corner's and P_eps's Vol_w, and
        s_hat(P_eps) = s_eps = s_hat(P) + ds, where ds = (V dPer +
        Per V_Delta) / (V V_eps)."""
        P, W, rule = self.P, self.W, self.rule
        cols = self.weighted("corner", (W.w, W.w_degree), (W.v, W.v_degree))
        V, per = invariants.vol_w(P, W, rule), invariants.per_v(P, W, rule)
        V_d = cols[:, 0]
        ds = (V * sum(self.boundary(cols[:, 1:])) + per * V_d) / (V * (V - V_d))
        return V_d, V - V_d, ds, per / V + ds

    def futaki(self, beta):
        """Terms of F(beta) at P_eps minus at P: ds M - s_eps M_Delta - dN,
        M and N the beta-moments of w inside and of v on the boundary."""
        beta = np.asarray(beta, dtype=float)
        *_, ds, s_eps = self.shat
        cols = self.weighted(("moment", beta.tobytes()),
                             *invariants.moment_integrands(self.W, beta))
        M = invariants._moment_w(self.P, self.W, beta, self.rule)
        return [ds * M, -s_eps * cols[:, 0], *(-t for t in self.boundary(cols[:, 1:]))]

    def pl(self, tc):
        """Columns of the configuration's corner integrals: int_Delta phi w,
        int_Delta phi x_i w for each i, then int phi v dsigma on each facet
        of Delta, F_eps first; phi's cells are cut on Delta alone."""
        W, n = self.W, self.P.dim
        moment = product_degree(2, W.w_degree)

        def integrals(D, facets):
            on = testconfig.ToricTC(D, W, tc.phi, tc.twist_vector, tc.c0)
            # phi x_i w is multiplied left to right: pl_parts with the
            # weight x_i w rounds differently, in the last bits of df_T.
            first = [[(lambda x, g=g, c=c, i=i: (x @ g + c) * x[:, i] * W.w(x),
                       cell.triangulation_floats(), moment)
                      for cell, g, c in on.affine_cells()] for i in range(n)]
            return [testconfig.pl_parts(on), *first,
                    *(testconfig.pl_facet_parts(on, j) for j in facets)]
        key = ("pl", tc.phi, tc.twist_vector.tobytes(), tc.c0)
        return self.integrals(key, integrals)

    def df(self, tc):
        """Terms of df at P_eps minus at P: dB - ds A + s_eps A_Delta, A and
        B the integrals of phi w inside and of phi v on the boundary."""
        *_, ds, s_eps = self.shat
        cols = self.pl(tc)
        A = testconfig.integrate_pl(tc, rule=self.rule)
        return [*self.boundary(cols[:, 1 + self.P.dim:]), -ds * A, s_eps * cols[:, 0]]

    def dft(self, tc):
        """Terms of df_T at P_eps minus at P.  df_T = df + F(c), with
        c = G^-1 m the torus part of phi (read from the df_T projection),
        m_i = int phi (x_i - b_i) w and b the w-barycenter.  So the
        difference is d(df) + F_eps(dc) + dF(c), where dc = G_eps^-1 (dm -
        dG c) and dm = -C_Delta - d A_eps + b A_Delta, with C_Delta the
        corner integrals of phi x w and d = b_eps - b."""
        P, W, rule = self.P, self.W, self.rule
        basis = np.eye(P.dim)
        G = invariants.gram(P, W, rule=rule)
        c = testconfig._projection(tc, rule)[2]
        dG, d = self.gram_shift()
        cols = self.pl(tc)
        A, A_d, C_d = (testconfig.integrate_pl(tc, rule=rule), cols[:, 0],
                       cols[:, 1:1 + P.dim])
        b = invariants.barycenter_w(P, W, rule)
        dm = -C_d - d * (A - A_d)[:, None] + b * A_d[:, None]
        dc = np.linalg.solve(G + dG, (dm - dG @ c)[..., None])[..., 0]
        d_fut = [self.futaki(e) for e in basis]
        F_eps = np.stack([invariants.futaki(P, W, e, rule) + sum(t)
                          for e, t in zip(basis, d_fut)], axis=1)
        return [*self.df(tc), *(dc * F_eps).T,
                *(ci * t for ci, terms in zip(c, d_fut) for t in terms)]

    def gram_shift(self):
        """(dG, d): G(P_eps) - G(P) = -S - V_eps d d^T in the standard basis,
        where S is the corner's second moment about P's w-barycenter b and
        d = b_eps - b = -(int_Delta (x - b) w) / V_eps; the corner's volume,
        first and second moments are one cache entry."""
        W, n = self.W, self.P.dim
        b, basis = invariants.barycenter_w(self.P, W, self.rule), np.eye(n)

        def integrals(D, facets):
            tri = D.triangulation_floats()
            first = [[(lambda x, i=i: (x @ basis[i] - b[i]) * W.w(x), tri,
                       product_degree(1, W.w_degree))] for i in range(n)]
            return [[(W.w, tri, W.w_degree)], *first,
                    *([p] for p in invariants.gram_parts(tri, W, basis, b))]
        cols, (i, j) = self.integrals("gram", integrals), np.triu_indices(n)
        S = np.zeros((len(cols), n, n))
        S[:, i, j] = S[:, j, i] = cols[:, 1 + n:]
        V_e = invariants.vol_w(self.P, W, self.rule) - cols[:, 0]
        d = -cols[:, 1:1 + n] / V_e[:, None]
        return -S - V_e[:, None, None] * d[:, :, None] * d[:, None, :], d


def _lstsq_ladder(eps, y, orders):
    cols = np.stack([eps ** k for k in orders], axis=1)
    scale = np.max(np.abs(cols), axis=0)
    coef, *_ = np.linalg.lstsq(cols / scale, y, rcond=None)
    return coef / scale


def _slope(eps, resid, floor):
    """Log-log decay rate of the remainder, from the asymptotic (small-eps)
    half of the grid; infinite when the remainder sits at roundoff."""
    mask = np.abs(resid) > floor
    if np.count_nonzero(mask) < 3:
        return math.inf
    order = np.argsort(eps)
    keep = order[: max(3, len(order) // 2 + 1)]
    keep = np.array([i for i in keep if mask[i]])
    if len(keep) < 3:
        keep = np.where(mask)[0]
    s, _ = np.polyfit(np.log(eps[keep]), np.log(np.abs(resid[keep])), 1)
    return float(s)


def _require_normal_powers(eps_grid, power):
    """Refuse a grid with a positive depth whose eps**power is not a normal
    float: a fit of that power underflows (or overflows) there.  A depth
    that is not positive is the chop's own error."""
    lo, hi = Fraction(sys.float_info.min), Fraction(sys.float_info.max)
    for k, eps in enumerate(map(Fraction, eps_grid)):
        if eps > 0 and not lo <= eps ** power <= hi:
            raise ValueError(f"eps grid leaves the float range: eps**{power} "
                             f"at depth {k} is not a positive normal float")


def verify_expansion(quantity, P, W, vertex, eps_grid=None, beta=None,
                     tc=None, rule=DEFAULT_RULE, rel_tol=1e-6):
    """Fit the ladder differences against the predicted leading monomial.

    The differences dQ(eps) = Q(P_eps) - Q(P) are divided by eps^lead and
    fitted by a polynomial in eps of up to five more orders, so the genuine
    higher-order tail cannot contaminate the leading coefficient.  Passes
    when that coefficient is reproduced to ``rel_tol`` relative error (or,
    when it is predicted exactly zero, to within the roundoff floor of the
    terms dQ is computed from) and the residual's log-log slope reaches the
    next expected order minus 0.1.  A grid on which a fitted power of eps
    is not a positive normal float is refused before any integral.
    """
    v = P.vertex_data_at(vertex)
    invariants._require_positive(P, W)  # also refuses weights that overflow
    if eps_grid is None:
        eps_grid = default_eps_grid(P, v)
    if len(set(eps_grid)) < 4:
        raise ValueError("eps grid too narrow to fit the expansion "
                         f"(got {len(set(eps_grid))} distinct depths, need >= 4)")
    if quantity == "gram":
        return gram_convergence(P, W, v, eps_grid=eps_grid, rule=rule)
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    # The leading order of each prediction, and the orders fitted past it.
    lead = P.dim - (quantity != "volume")
    extra = min(5, len(eps_grid) - 2)
    _require_normal_powers(eps_grid, lead + extra)
    corner = _Corner(P, W, v, eps_grid, rule)
    if quantity == "volume":
        predicted = predict_volume_expansion(P, W, v, rule)
        terms = [-corner.shat[0]]
    elif quantity == "futaki":
        if beta is None:
            raise ValueError("futaki expansion needs beta")
        predicted = predict_futaki_expansion(P, W, v, beta, rule)
        terms = corner.futaki(beta)
    else:
        if tc is None:
            raise ValueError("df expansions need a test configuration")
        predicted = predict_df_expansions(tc, v, rule)[quantity]
        terms = corner.df(tc) if quantity == "df" else corner.dft(tc)
    deltas = sum(terms)
    floor = NOISE * sum(np.abs(t) for t in terms)
    eps = np.array([float(e) for e in eps_grid])
    z = deltas / eps ** lead
    coef = float(_lstsq_ladder(eps, z, range(extra + 1))[0])
    # The remainder against the *predicted* model decays at the next order.
    exponent = _slope(eps, deltas - predicted[lead] * eps ** lead, floor)
    zero_error = zero_floor = None
    if predicted[lead] == 0:
        rel_err = 0.0
        zero_error, zero_floor = abs(coef), float(np.max(floor / eps ** lead))
        ok = zero_error <= zero_floor
    else:
        rel_err = abs(coef - predicted[lead]) / max(abs(predicted[lead]), 1e-14)
        ok = rel_err <= rel_tol
    passed = ok and exponent >= lead + 1 - 0.1
    return ExpansionReport(quantity, v.coords, tuple(eps_grid),
                           tuple(float(predicted[0] + x) for x in deltas),
                           predicted, {lead: coef}, exponent, lead + 1,
                           rel_err, passed, tuple(float(x) for x in deltas),
                           zero_error, zero_floor)


def gram_convergence(P, W, vertex, eps_grid=None, rule=DEFAULT_RULE):
    """Decay rate of the Gram-matrix deficit under chopping.

    The deficit is a corner integral of order eps^n, stronger than the
    generic bound; the report passes when the fitted exponent reaches
    n - 1/2.  A grid on which eps^n is not a positive normal float is
    refused before any integral.
    """
    n = P.dim
    v = P.vertex_data_at(vertex)
    invariants._require_positive(P, W)
    if eps_grid is None:
        eps_grid = default_eps_grid(P, v)
    _require_normal_powers(eps_grid, n)
    dG, _ = _Corner(P, W, v, eps_grid, rule).gram_shift()
    exact = tuple(float(np.linalg.norm(g)) for g in dG)
    keep = [k for k, x in enumerate(exact) if x > 1e-14 * max(1.0, *exact)]
    exponent = math.inf
    if len(keep) >= 3:
        log_eps = np.log([float(eps_grid[k]) for k in keep])
        exponent = float(np.polyfit(log_eps, np.log([exact[k] for k in keep]), 1)[0])
    passed = exponent >= n - 0.5
    return ExpansionReport("gram", v.coords, tuple(eps_grid), exact,
                           {}, {}, exponent, n - 0.5, 0.0, passed, exact)

"""Corner-chop expansion engine.

Chopping the corner at a fixed point p to lattice depth eps realises the
blowup with class deficit eps at that point.  The invariants of the chopped
polytope admit expansions in eps whose leading corrections are predicted in
closed form from unchopped data:

    weighted volume:   - w(p) / n!                        at order eps^n
    Futaki character:  + v(p) (<p,beta> - mean) / (n-2)!  at order eps^(n-1)
    df / df_T:         - v(p) * chow / (n-2)!             at order eps^(n-1)

with chow the (plain or torus-orthogonal) weighted Chow weight of p.  The
engine computes the exact invariant on a geometric eps-grid of chopped
polytopes, least-squares fits the predicted monomial ladder, and reports the
fitted coefficients plus the log-log slope of the remainder.  These fits are
what pins the global sign conventions of the whole package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import invariants, testconfig
from .quadrature import DEFAULT_RULE

QUANTITIES = ("volume", "futaki", "df", "dft", "gram")


@dataclass(frozen=True)
class ExpansionReport:
    quantity: str
    vertex: tuple
    eps_grid: tuple
    exact: tuple
    predicted: dict          # order -> coefficient
    fitted: dict             # order -> coefficient
    remainder_exponent: float
    expected_next_order: float
    coefficient_rel_error: float
    passed: bool

    def series(self):
        """(eps, exact, predicted-model) triples for plotting."""
        rows = []
        for e, y in zip(self.eps_grid, self.exact):
            model = sum(c * float(e) ** k for k, c in self.predicted.items())
            rows.append((float(e), y, model))
        return rows


def default_eps_grid(P, vertex, points=8):
    """Geometric grid from admissible/4 downward by halving, exact rationals."""
    bound = P.admissible_chop(vertex)
    start = bound / 4
    return tuple(start / 2 ** k for k in range(points))


def predict_volume_expansion(P, W, vertex, rule=DEFAULT_RULE):
    """Orders {0: Vol_w, n: -w(p)/n!}; remainder O(eps^{n+1})."""
    v = P.vertex_data_at(vertex)
    if P.dim < 2:
        raise ValueError("expansions need dimension >= 2")
    p = np.array([float(c) for c in v.coords])
    return {
        0: invariants.vol_w(P, W, rule),
        P.dim: -float(W.w(p)) / math.factorial(P.dim),
    }


def predict_futaki_expansion(P, W, vertex, beta, rule=DEFAULT_RULE):
    """Orders {0: F(beta), n-1: v(p)(<p,beta> - mean)/(n-2)!}; O(eps^n) rest."""
    v = P.vertex_data_at(vertex)
    n = P.dim
    if n < 2:
        raise ValueError("expansions need dimension >= 2")
    beta = np.asarray(beta, dtype=float)
    p = np.array([float(c) for c in v.coords])
    bbar = float(invariants.barycenter_w(P, W, rule) @ beta)
    coeff = float(W.v(p)) * (float(p @ beta) - bbar) / math.factorial(n - 2)
    return {0: invariants.futaki(P, W, beta, rule), n - 1: coeff}


def predict_df_expansions(tc, vertex, rule=DEFAULT_RULE):
    """Leading corrections of df and df_T under the chop at the vertex.

    Both corrections sit at order n-1 with coefficients -v(p) Ch / (n-2)!,
    using the plain and the torus-orthogonal Chow weight respectively.
    """
    P, W = tc.polytope, tc.weights
    v = P.vertex_data_at(vertex)
    n = P.dim
    if n < 2:
        raise ValueError("expansions need dimension >= 2")
    p = np.array([float(c) for c in v.coords])
    vp = float(W.v(p))
    ch = testconfig.chow(tc, v.coords, rule)
    ch_t = testconfig.chow_T(tc, v.coords, rule)
    fac = math.factorial(n - 2)
    return {
        "df": {0: testconfig.df(tc, rule), n - 1: -vp * ch / fac},
        "dft": {0: testconfig.df_T(tc, rule), n - 1: -vp * ch_t / fac},
    }


def _lstsq_ladder(eps, y, orders):
    cols = np.stack([eps ** k for k in orders], axis=1)
    scale = np.max(np.abs(cols), axis=0)
    coef, *_ = np.linalg.lstsq(cols / scale, y, rcond=None)
    return coef / scale


def _fit(grid, values, predicted, extra=5):
    """Least-squares coefficients on the monomial ladder.

    The ladder is extended past the predicted orders so the genuine
    higher-order tail cannot contaminate the coefficients under test.  The
    leading correction is refined by dividing out its power first, which
    makes the wanted coefficient the dominant (constant) column; grid points
    whose amplified noise floor would swamp the divided values carry no
    information at this order and are dropped from that refinement.
    """
    eps = np.array([float(e) for e in grid])
    y = np.array(values)
    orders = sorted(predicted)
    all_orders = sorted(set(orders) | {max(orders) + 1 + j for j in range(extra)})
    coef = _lstsq_ladder(eps, y, all_orders)
    fitted = dict(zip(all_orders, (float(c) for c in coef)))
    out = {k: fitted[k] for k in orders}
    lead = max(orders)
    if lead > 0:
        z = (y - predicted[0]) / eps ** lead
        noise = 1e-13 * (1.0 + abs(predicted[0])) / eps ** lead
        zscale = max(float(np.median(np.abs(z))), 1e-300)
        keep = np.where(noise <= 3e-6 * zscale)[0]
        if len(keep) < min(4, len(eps)):
            keep = np.argsort(-eps)[: min(4, len(eps))]
        tail = min(extra, len(keep) - 2)
        zcoef = _lstsq_ladder(eps[keep], z[keep], list(range(tail + 1)))
        out[lead] = float(zcoef[0])
    return out


def _slope(grid, resid, floor):
    """Log-log decay rate of the remainder, from the asymptotic (small-eps)
    half of the grid; infinite when the remainder sits at roundoff."""
    eps = np.array([float(e) for e in grid])
    resid = np.asarray(resid)
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


def verify_expansion(quantity, P, W, vertex, eps_grid=None, beta=None,
                     tc=None, rule=DEFAULT_RULE, rel_tol=1e-6,
                     exponent_slack=0.1):
    """Fit exact chopped values against the predicted monomial ladder.

    Passes when every predicted coefficient is reproduced to ``rel_tol``
    relative error and the residual's log-log slope reaches the next
    expected order minus ``exponent_slack``.
    """
    n = P.dim
    v = P.vertex_data_at(vertex)
    if eps_grid is None:
        eps_grid = default_eps_grid(P, v)
    if len(set(eps_grid)) < 4:
        raise ValueError("eps grid too narrow to fit the expansion "
                         f"(got {len(set(eps_grid))} distinct depths, need >= 4)")
    chops = (P.corner_chop(v, eps) for eps in eps_grid)
    if quantity == "volume":
        predicted = predict_volume_expansion(P, W, v, rule)
        next_order = n + 1
        exact = tuple(invariants.vol_w(Pe, W, rule) for Pe in chops)
    elif quantity == "futaki":
        if beta is None:
            raise ValueError("futaki expansion needs beta")
        predicted = predict_futaki_expansion(P, W, v, beta, rule)
        next_order = n
        exact = tuple(invariants.futaki(Pe, W, beta, rule) for Pe in chops)
    elif quantity in ("df", "dft"):
        if tc is None:
            raise ValueError("df expansions need a test configuration")
        predicted = predict_df_expansions(tc, v, rule)[quantity]
        next_order = n
        df = testconfig.df if quantity == "df" else testconfig.df_T
        exact = tuple(df(testconfig.ToricTC(Pe, W, tc.phi, tc.twist_vector,
                                            tc.c0), rule) for Pe in chops)
    elif quantity == "gram":
        return gram_convergence(P, W, v, eps_grid=eps_grid, rule=rule)
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    orders = sorted(predicted)
    fitted = _fit(eps_grid, exact, predicted)
    # The remainder is measured against the model built from the *predicted*
    # coefficients: its decay rate is the next order of the expansion.
    eps_f = np.array([float(e) for e in eps_grid])
    model = sum(predicted[k] * eps_f ** k for k in orders)
    resid = np.array(exact) - model
    scale = max(1.0, float(np.max(np.abs(exact))))
    exponent = _slope(eps_grid, resid, 5e-13 * scale)
    rel_err = 0.0
    for k in orders:
        if k == 0:
            continue  # the base value is checked through the fit residual
        denom = max(abs(predicted[k]), 1e-14)
        rel_err = max(rel_err, abs(fitted[k] - predicted[k]) / denom)
    passed = rel_err <= rel_tol and exponent >= next_order - exponent_slack
    return ExpansionReport(quantity, v.coords, tuple(eps_grid), exact,
                           predicted, fitted, exponent, next_order,
                           rel_err, passed)


def gram_convergence(P, W, vertex, basis=None, eps_grid=None,
                     rule=DEFAULT_RULE, exponent_threshold=None):
    """Decay rate of the Gram-matrix deficit under chopping.

    The deficit is a corner integral of order eps^n, stronger than the
    generic bound; the report passes when the fitted exponent reaches
    n - 1/2.
    """
    n = P.dim
    v = P.vertex_data_at(vertex)
    if eps_grid is None:
        eps_grid = default_eps_grid(P, v)
    if exponent_threshold is None:
        exponent_threshold = n - 0.5
    g0 = invariants.gram(P, W, basis=basis, rule=rule)
    grams = (invariants.gram(P.corner_chop(v, eps), W, basis=basis, rule=rule)
             for eps in eps_grid)
    exact = tuple(float(np.linalg.norm(g - g0)) for g in grams)
    scale = max(float(np.max(np.abs(exact))), 1e-300)
    mask = [x > 1e-14 * max(1.0, scale) for x in exact]
    if sum(mask) < 3:
        exponent = math.inf
    else:
        eps = np.array([float(e) for e, m in zip(eps_grid, mask) if m])
        y = np.array([x for x, m in zip(exact, mask) if m])
        exponent, _ = np.polyfit(np.log(eps), np.log(y), 1)
        exponent = float(exponent)
    passed = exponent >= exponent_threshold
    return ExpansionReport("gram", v.coords, tuple(eps_grid), exact,
                           {}, {}, exponent, exponent_threshold, 0.0, passed)

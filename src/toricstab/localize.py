"""Vertex-localisation backend: fixed-point sums over polytope vertices.

For a profile h and a direction xi the two basic quantities are

    class_sum(P, h, xi)  = sum_v h(<v, xi>) / e_v(xi),
    c1_sum(P, h, xi)     = sum_v c1_v(xi) h(<v, xi>) / e_v(xi),

with Euler product e_v(xi) = prod_i(-<u_{v,i}, xi>) and c1 restriction
c1_v(xi) = sum_i(-<u_{v,i}, xi>) over the inward primitive edge generators
u_{v,i} at each vertex.  These reproduce the polytope integrals

    int_P h^(n)(<x, xi>) dx      and      int_{boundary P} h^(n-1)(<x, xi>) dsigma

and serve as the second, independent evaluation backend; a derivative
along beta is the vertex sum of the terms' derivatives.  Terms blow up near
non-generic xi while the sum stays analytic; where they cancel past
``AGREE_TOL`` (see ``_trusted``), the limit is taken: near xi = 0 as the
Taylor series about 0, whose terms are monomial sums at one direction,
elsewhere along a generic auxiliary direction with symmetric Richardson
extrapolation.

Every value reads one kernel, ``_at``: the vertex pairings, the edge
pairings and the Euler products at a stack of directions, from float
arrays (vertices and inward edge generators) converted from the exact
vertex data once per polytope and kept, read-only, in its cache.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .profiles import Monomial

# Relative accuracy asked of a vertex sum, and of the two backends' agreement.
AGREE_TOL = 1e-8
EPS = sys.float_info.epsilon


def agree(a, b, scale, tol=AGREE_TOL):
    """Whether |a - b| <= tol * scale, for a ``scale`` homogeneous in the
    weights, so that scaling them moves no verdict.  NaN never agrees."""
    return abs(a - b) <= tol * scale


class DegenerateDirectionError(ValueError):
    """xi pairs to zero against some vertex edge; the plain sum is singular."""


class ExtrapolationError(RuntimeError):
    """A limit toward a degenerate direction did not settle."""


@dataclass(frozen=True)
class VertexWeights:
    """Localisation data of one fixed point at a given direction."""

    point: tuple
    pairing: float        # <v, xi>
    euler: float          # prod_i(-<u_i, xi>)
    c1: float             # sum_i(-<u_i, xi>)


def _edge_arrays(polytope):
    """``(verts, edges)``, read-only floats: the vertices (nv, n) and the
    inward edge generators at each vertex (nv, n, n).  Built from the exact
    vertex data once per polytope and kept in its cache."""
    if "localize" not in polytope._cache:
        edges = np.array([[[float(c) for c in u] for u in v.inward_edges]
                          for v in polytope.vertex_data()])
        edges.flags.writeable = False
        polytope._cache["localize"] = polytope.vertices_floats(), edges
    return polytope._cache["localize"]


def _at(polytope, xis):
    """The localisation data of the polytope at each row of xis (m, n):
    ``(pairs, pair_edges, euler)``, the vertex pairings <v, xi> (m, nv), the
    edge pairings <u_{v,i}, xi> (m, nv, n) and the Euler products
    prod_i(-<u_{v,i}, xi>) (m, nv).  Each pairing is a stacked matvec, which
    rounds a row as a one-row call does (``xis @ verts.T`` and ``einsum``
    may not)."""
    verts, edges = _edge_arrays(polytope)
    pair_edges = np.matmul(edges, xis[:, None, :, None])[..., 0]
    return np.matmul(verts, xis[:, :, None])[..., 0], pair_edges, (-pair_edges).prod(axis=2)


def vertex_weights(polytope, xi):
    """Per-vertex localisation data; raises where an Euler product is 0."""
    xi = np.asarray(xi, dtype=float)
    _, pair_edges, euler = (a[0] for a in _at(polytope, xi[None]))
    if not euler.all():
        raise DegenerateDirectionError(
            f"direction {tuple(xi)} pairs to zero against a vertex edge")
    verts = _edge_arrays(polytope)[0]
    # Each pairing is its own dot product: the matrix product that the sums
    # use may round some pairings differently.
    return [VertexWeights(coords, float(v @ xi), float(e), float(c))
            for coords, v, e, c in zip(polytope.vertices, verts, euler,
                                       np.sum(-pair_edges, axis=1))]


def is_generic(polytope, xi):
    """Whether no Euler product at xi is 0: its sums may still cancel."""
    return bool(_at(polytope, np.asarray(xi, dtype=float)[None])[2].all())


# A tiny Euler product overflows its term: no sum trusts inf or NaN.
@np.errstate(over="ignore", invalid="ignore")
def _terms(h, at, kind, beta=None):
    """The terms of the vertex sum at each row of the localisation data, in
    one ``h.value`` call; if it raises, each row that raises alone holds its
    exception in its place (see :func:`_ok`).  Given ``beta``, the pairings
    (<v, beta>, <u_{v,i}, beta>), the terms of the derivative along beta:
    [h'(<v,xi>) <v,beta> - h(<v,xi>) sum_i <u_i,beta>/<u_i,xi>] / e_v, plus
    c1_v(beta) h(<v,xi>) / e_v in the product rule of the c1 sum."""
    pairs, pair_edges, euler = at
    try:
        hv = np.asarray(h.value(pairs), dtype=float)
        if beta is not None:
            hpv = np.asarray(h.derivative(1).value(pairs), dtype=float)
    except Exception as e:
        return [e] if len(pairs) == 1 else [
            _terms(h, [a[r:r + 1] for a in at], kind, beta)[0] for r in range(len(pairs))]
    if beta is None:
        terms = hv / euler
        return terms * np.sum(-pair_edges, axis=2) if kind == "c1" else terms
    terms = hpv * beta[0] - hv * np.sum(beta[1] / pair_edges, axis=2)
    if kind == "c1":
        terms = np.sum(-beta[1], axis=1) * hv + np.sum(-pair_edges, axis=2) * terms
    return terms / euler


def _ok(outcome):
    """A row's outcome, raised if an exception: each row keeps its first, so
    raising them in row order raises what a row-by-row evaluation would."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _trusted(terms):
    """The fsum of the terms, or None where its rounding error, about
    eps * sum |terms| (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4), may exceed ``AGREE_TOL * (1 + |sum|)``."""
    terms = terms.tolist()
    try:
        size = math.fsum(map(abs, terms))
    except OverflowError:  # finite terms whose sum leaves the float range
        return None
    total = math.fsum(terms) if math.isfinite(size) else math.nan
    return total if EPS * size <= AGREE_TOL * (1 + abs(total)) else None


def eval_class(polytope, h, xi):
    """(h-class)(xi) = int_P h^(n)(<x, xi>) dx, by the vertex sum."""
    return _eval(polytope, h, xi, "volume")


def eval_c1_class(polytope, h, xi):
    """(c1 h-class)(xi) = boundary integral of h^(n-1), by the vertex sum."""
    return _eval(polytope, h, xi, "c1")


def _eval(polytope, h, xi, kind, beta=None):
    """The vertex sum at xi, or its derivative along ``beta`` (see
    :func:`_terms`): the trusted sum of its terms, else its limit."""
    at = _at(polytope, (xi := np.asarray(xi, dtype=float))[None])
    if at[2].all() and (value := _trusted(_ok(_terms(h, at, kind, beta)[0]))) is not None:
        return value
    return _limit(polytope, kind, h, xi, beta)


@lru_cache(maxsize=None)
def _sample_offsets(n):
    """The offsets s t eta (3, 8, n) of the samples xi + s t eta of a limit,
    t = 0.1 / 2^k for k < 4, s = 1 then -1, for each of three deterministic
    irrational-ish directions eta, very unlikely to pair to zero against
    any small integer edge vector."""
    base = [1.0]
    r = 1.0 / math.sqrt(2.0)
    for _ in range(n - 1):
        base.append(base[-1] * r + 0.1)
    phi = (1 + math.sqrt(5)) / 2
    etas = np.array([base, [phi ** (-k - 1) for k in range(n)],
                     [math.pi ** (-k - 1) + 0.05 * k for k in range(n)]])
    steps = np.array([s * 0.1 * 0.5 ** k for k in range(4) for s in (1, -1)])
    out = steps[:, None] * np.array([eta / np.linalg.norm(eta) for eta in etas])[:, None]
    out.flags.writeable = False
    return out


def eval_at_degenerate(polytope, kind, h, xi):
    """Limit of the vertex sum along xi + t eta as t -> 0 (see :func:`_limit`)."""
    if kind not in ("volume", "c1"):
        raise ValueError("kind must be 'volume' or 'c1'")
    return _limit(polytope, kind, h, np.asarray(xi, dtype=float))


# Up to this |xi|_inf a limit is a series of at most SERIES_TERMS terms: the
# Richardson samples come within 0.0125 of 0, where derivative terms blow up.
NEAR_ZERO, SERIES_TERMS = 1 / 32, 64


def _series(polytope, kind, h, xi, beta):
    """The limit at xi near 0.  The vertex sums of t^k / k! vanish for k < n
    (Brion, Ann. Sci. ENS 21, 1988), so a sum of order m (n for a volume
    class, n - 1 for a c1 class, one more along beta) is the sum over k >= m
    of h^(k)(0) times the sum of ``Monomial(k)``, homogeneous of degree k - m
    in xi: at xi = 0 its first term, at the first eta of _sample_offsets;
    else each at xi / 2^e (|.|_inf in [1/2, 1)), scaled back exactly, to the
    degree of a polynomial h, or until the bounds |h^(k)(0)| R^(k-m)/(k-m)!,
    R = max_v |<v, xi>|, of two running terms are 2^-52 of their total."""
    m = polytope.dim - (kind == "c1") + (beta is not None)
    g = h.derivative(m)
    if not xi.any():
        return g.value(0.0) * _eval(polytope, Monomial(m), _sample_offsets(polytope.dim)[0, 0],
                                    kind, beta)
    e, poly = math.frexp(np.abs(xi).max())[1], hasattr(h, "coeffs")
    unit, reach = np.ldexp(xi, -e), float(np.abs(_edge_arrays(polytope)[0] @ xi).max())
    terms, bounds = [], []
    for j in range(len(h.coeffs) - m if poly else SERIES_TERMS):
        if d := g.value(0.0):
            terms.append(d * math.ldexp(_eval(polytope, Monomial(m + j), unit, kind, beta), e * j))
        bounds.append(abs(d) * reach ** j / math.factorial(j))
        if not poly and j and bounds[-1] + bounds[-2] <= EPS * math.fsum(bounds):
            return math.fsum(terms)
        g = g.derivative()
    if not poly:
        raise ExtrapolationError(f"the series about xi = 0 did not settle in {SERIES_TERMS} terms")
    return math.fsum(terms)


def _limit(polytope, kind, h, xi, beta=None):
    """The limit at xi: near 0 by :func:`_series`; elsewhere symmetric sums
    at +-t, which kill the odd orders, along the first eta generic at each
    t = 0.1 / 2^k, k < 4, and Richardson extrapolation, which removes the
    leading even ones.  The samples cancel by design and are summed
    unchecked, in one :func:`_at` and one :func:`_terms`."""
    if np.abs(xi).max() <= NEAR_ZERO:
        return _series(polytope, kind, h, xi, beta)
    at = [a.reshape(3, 8, *a.shape[1:])  # (eta, 8, ...)
          for a in _at(polytope, (xi + _sample_offsets(xi.size)).reshape(-1, xi.size))]
    generic = at[2].all(axis=(1, 2))
    if not generic.any():
        raise DegenerateDirectionError(
            "no generic auxiliary direction found for the degenerate limit")
    samples = _terms(h, [a[generic.argmax()] for a in at], kind, beta)  # (+t, -t) for each t
    col = [0.5 * (math.fsum(_ok(plus).tolist()) + math.fsum(_ok(minus).tolist()))
           for plus, minus in zip(samples[::2], samples[1::2])]
    for j in (1, 2, 3):  # the Richardson table, column by column
        prev, col = col, [(4.0 ** j * hi - lo) / (4.0 ** j - 1.0)
                          for lo, hi in zip(col, col[1:])]
    best, est = col[0], abs(col[0] - prev[-1])
    if not est <= 1e-7 * (1.0 + abs(best)):
        raise ExtrapolationError(f"Richardson extrapolation did not settle (estimate {est:.3e})")
    return best


@np.errstate(over="ignore", invalid="ignore")
def directional_derivative(kind, polytope, h, xi, beta):
    """d/ds of the vertex sum along xi + s beta, at s = 0: the vertex sum of
    the terms' derivatives (see :func:`_terms`), else its limit, both linear
    in beta and judged with a beta that pairs to 2 or more scaled exactly,
    by 2^-s, to a largest pairing in [1, 2).  A beta whose pairings leave
    the float range raises ``FloatingPointError``."""
    if kind not in ("volume", "c1"):
        raise ValueError("kind must be 'volume' or 'c1'")
    beta = np.asarray(beta, dtype=float)
    pairs = [a @ beta for a in _edge_arrays(polytope)]
    if not all(np.isfinite(p).all() for p in pairs):
        raise FloatingPointError(f"beta = {beta.tolist()} pairs past the float range")
    s = max(0, math.frexp(max(np.abs(p).max() for p in pairs))[1] - 1)
    return float(np.ldexp(_eval(polytope, h, xi, kind, [np.ldexp(p, -s) for p in pairs]), s))

"""Vertex-localisation backend: fixed-point sums over polytope vertices.

For a profile h and a direction xi the two basic quantities are

    class_sum(P, h, xi)  = sum_v h(<v, xi>) / e_v(xi),
    c1_sum(P, h, xi)     = sum_v c1_v(xi) h(<v, xi>) / e_v(xi),

with Euler product e_v(xi) = prod_i(-<u_{v,i}, xi>) and c1 restriction
c1_v(xi) = sum_i(-<u_{v,i}, xi>) over the inward primitive edge generators
u_{v,i} at each vertex.  These reproduce the polytope integrals

    int_P h^(n)(<x, xi>) dx      and      int_{boundary P} h^(n-1)(<x, xi>) dsigma

and serve as the second, independent evaluation backend.  Individual terms
blow up near non-generic xi while the sum stays analytic; where they cancel
past ``AGREE_TOL`` (see ``_trusted``), the limit is taken along a generic
auxiliary direction with symmetric Richardson extrapolation.

Every value reads one kernel, ``_at``: the vertex pairings, the edge
pairings and the Euler products at a stack of directions, from float
arrays (vertices and inward edge generators) converted from the exact
vertex data once per polytope and kept, read-only, in its cache.  A
degenerate limit is one stacked kernel call on its 8 samples and one
``h.value`` call; so are the 4 points of a central difference, and then
the limits of all its points that need one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Relative accuracy asked of a vertex sum, and of the two backends' agreement.
AGREE_TOL = 1e-8


def agree(a, b, scale, tol=AGREE_TOL):
    """Whether |a - b| <= tol * scale, for a ``scale`` homogeneous in the
    weights, so that scaling them moves no verdict.  NaN never agrees."""
    return abs(a - b) <= tol * scale


class DegenerateDirectionError(ValueError):
    """xi pairs to zero against some vertex edge; the plain sum is singular."""


class ExtrapolationError(RuntimeError):
    """Richardson extrapolation toward a degenerate direction failed."""


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
def _terms(h, at, kind):
    """The terms of the vertex sum at each row of the localisation data, in
    one ``h.value`` call; if it raises, each row that raises alone holds
    its exception in its place (see :func:`_ok`)."""
    pairs, pair_edges, euler = at
    try:
        terms = np.asarray(h.value(pairs), dtype=float) / euler
    except Exception as e:
        return [e] if len(pairs) == 1 else [
            _terms(h, [a[r:r + 1] for a in at], kind)[0] for r in range(len(pairs))]
    return terms * np.sum(-pair_edges, axis=2) if kind == "c1" else terms


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
    return total if sys.float_info.epsilon * size <= AGREE_TOL * (1 + abs(total)) else None


def eval_class(polytope, h, xi):
    """(h-class)(xi) = int_P h^(n)(<x, xi>) dx, by the vertex sum."""
    return _eval(polytope, h, np.asarray(xi, dtype=float)[None], "volume")[0]


def eval_c1_class(polytope, h, xi):
    """(c1 h-class)(xi) = boundary integral of h^(n-1), by the vertex sum."""
    return _eval(polytope, h, np.asarray(xi, dtype=float)[None], "c1")[0]


def _eval(polytope, h, xis, kind):
    """The vertex sum at each row of xis: the trusted sum of its terms, else
    its limit, the limits of all such rows in one :func:`_limits`."""
    at = _at(polytope, xis)
    generic = at[2].all(axis=1).tolist()
    rows, out = [r for r, g in enumerate(generic) if g], [None] * len(generic)
    for r, terms in zip(rows, _terms(h, at if len(rows) == len(out) else
                                     [a[rows] for a in at], kind) if rows else ()):
        out[r] = terms if isinstance(terms, Exception) else _trusted(terms)
    todo = [r for r, v in enumerate(out) if v is None]
    for r, v in zip(todo, _limits(polytope, kind, h, xis[todo]) if todo else ()):
        out[r] = v
    return [_ok(v) for v in out]


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
    """Limit of the vertex sum along xi + t eta as t -> 0.

    Symmetric evaluation at +-t kills the odd orders, and Richardson
    extrapolation over the geometric t-grid 0.1 / 2^k, k < 4, removes the
    leading even ones.  The auxiliary direction eta is the first candidate
    that is generic at every grid point.  Its samples cancel by design and
    are summed unchecked: routing them to this limit would recurse.
    """
    if kind not in ("volume", "c1"):
        raise ValueError("kind must be 'volume' or 'c1'")
    return _ok(_limits(polytope, kind, h, np.asarray(xi, dtype=float)[None])[0])


def _limits(polytope, kind, h, xis):
    """The limit at each row of xis, or its first exception: one :func:`_at`
    call (or two, where a row needs another eta) and one :func:`_terms`."""
    offsets = _sample_offsets(polytope.dim)
    for offsets in (offsets[:1], offsets):  # the first eta nearly always serves every row
        samples = xis[:, None, None] + offsets  # (m, eta, 8, n)
        at = [a.reshape(*samples.shape[:3], *a.shape[1:])
              for a in _at(polytope, samples.reshape(-1, polytope.dim))]
        generic = at[2].all(axis=(2, 3))
        if generic.any(axis=1).all():
            break
    rows, pick = np.arange(len(xis)), generic.argmax(axis=1)
    found, out = generic[rows, pick], []
    terms = iter(_terms(h, [a[rows, pick][found].reshape(-1, *a.shape[3:]) for a in at], kind))
    for ok in found:
        try:
            if not ok:
                raise DegenerateDirectionError(
                    "no generic auxiliary direction found for the degenerate limit")
            samples = [next(terms) for _ in range(8)]  # (+t, -t) for each t
            col = [0.5 * (math.fsum(_ok(plus).tolist()) + math.fsum(_ok(minus).tolist()))
                   for plus, minus in zip(samples[::2], samples[1::2])]
            for j in (1, 2, 3):  # the Richardson table, column by column
                prev, col = col, [(4.0 ** j * hi - lo) / (4.0 ** j - 1.0)
                                  for lo, hi in zip(col, col[1:])]
            best, est = col[0], abs(col[0] - prev[-1])
            if not est <= 1e-7 * (1.0 + abs(best)):
                raise ExtrapolationError(
                    f"Richardson extrapolation did not settle (estimate {est:.3e})")
            out.append(best)
        except Exception as e:
            out.append(e)
    return out


@np.errstate(over="ignore", invalid="ignore")
def directional_derivative(kind, polytope, h, xi, beta):
    """d/ds of the vertex sum along xi + s beta, at s = 0.

    Closed form at generic xi:

        d/ds [h(<v, xi>)/e_v] = [h'(<v,xi>) <v,beta>
                                  - h(<v,xi>) sum_i <u_i,beta>/<u_i,xi>] / e_v

    and for the c1 sum the product rule adds a c1_v(beta) term.  At
    degenerate xi, or where that sum cancels past ``AGREE_TOL``, the
    derivative falls back to symmetric differences of the values, all four
    points in one :func:`_eval`.
    """
    if kind not in ("volume", "c1"):
        raise ValueError("kind must be 'volume' or 'c1'")
    xi = np.asarray(xi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    pairs, pe_xi, euler = (a[0] for a in _at(polytope, xi[None]))
    if euler.all():
        verts, edges = _edge_arrays(polytope)
        pe_b = edges @ beta
        pair_b = verts @ beta
        hv = np.asarray(h.value(pairs), dtype=float)
        hpv = np.asarray(h.derivative(1).value(pairs), dtype=float)
        log_der = np.sum(pe_b / pe_xi, axis=1)
        terms = hpv * pair_b - hv * log_der
        if kind == "c1":
            terms = np.sum(-pe_b, axis=1) * hv + np.sum(-pe_xi, axis=1) * terms
        value = _trusted(terms / euler)
        if value is not None:
            return value
    # Central differences with one Richardson step on s^2.  The plain norm
    # squares the components: rescale it where that overflows.
    norm = float(np.linalg.norm(beta))
    if norm == math.inf and (big := float(np.max(np.abs(beta)))) < math.inf:
        norm = big * float(np.linalg.norm(beta / big))
    if norm == math.inf:  # the step would be 0
        raise FloatingPointError(f"|beta| overflows for beta = {beta.tolist()}")
    s0 = 0.05 / max(1.0, norm)
    v = _eval(polytope, h, xi + np.array([s0, -s0, s0 / 2, -s0 / 2])[:, None] * beta, kind)
    d1, d2 = ((v[i] - v[i + 1]) / (2 * s) for i, s in ((0, s0), (2, s0 / 2)))
    return (4 * d2 - d1) / 3

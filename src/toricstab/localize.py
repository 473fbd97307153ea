"""Vertex-localisation backend: fixed-point sums over polytope vertices.

For a profile h and a direction xi the two basic quantities are

    class_sum(P, h, xi)  = sum_v h(<v, xi>) / e_v(xi),
    c1_sum(P, h, xi)     = sum_v c1_v(xi) h(<v, xi>) / e_v(xi),

with Euler product e_v(xi) = prod_i(-<u_{v,i}, xi>) and c1 restriction
c1_v(xi) = sum_i(-<u_{v,i}, xi>) over the inward primitive edge generators
u_{v,i} at each vertex.  These reproduce the polytope integrals

    int_P h^(n)(<x, xi>) dx      and      int_{boundary P} h^(n-1)(<x, xi>) dsigma

and serve as the second, independent evaluation backend.  Individual terms
blow up at non-generic xi while the sum stays analytic; the degenerate path
takes the limit along a generic auxiliary direction with symmetric Richardson
extrapolation.

Every value reads one kernel, ``_at``: the vertex pairings, the edge
pairings and the Euler products at one direction, or None where that
direction is degenerate, so genericity is decided with the data the sums
use.  The kernel reads per-polytope float arrays (vertices, inward edge
generators and their lengths) converted from the exact vertex data once
per polytope and kept, read-only, in its cache.  A degenerate limit
evaluates the kernel at 8 points and sums each of them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GENERICITY_TOL = 1e-9


class DegenerateDirectionError(ValueError):
    """xi pairs to ~zero against some vertex edge; the plain sum is singular."""


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
    """``(verts, edges, norms)`` of the polytope as read-only float arrays:
    the vertices (nv, n), the inward edge generators at each vertex
    (nv, n, n) and their Euclidean lengths (nv, n).  Built from the exact
    vertex data once per polytope and kept in its cache."""
    if "localize" not in polytope._cache:
        edges = np.array([[[float(c) for c in u] for u in v.inward_edges]
                          for v in polytope.vertex_data()])
        norms = np.linalg.norm(edges, axis=2)
        edges.flags.writeable = norms.flags.writeable = False
        polytope._cache["localize"] = polytope.vertices_floats(), edges, norms
    return polytope._cache["localize"]


def _at(polytope, xi):
    """The localisation data of the polytope at xi, or None where xi is zero
    or pairs to about zero with some edge: ``(pairs, pair_edges, euler)``,
    the vertex pairings <v, xi> (nv,), the edge pairings <u_{v,i}, xi>
    (nv, n) and the Euler products prod_i(-<u_{v,i}, xi>) (nv,)."""
    xi = np.asarray(xi, dtype=float)
    verts, edges, norms = _edge_arrays(polytope)
    nxi = float(np.linalg.norm(xi))
    pair_edges = edges @ xi
    if nxi == 0.0 or not (np.min(np.abs(pair_edges) / (norms * nxi))
                          > GENERICITY_TOL):
        return None
    return verts @ xi, pair_edges, np.prod(-pair_edges, axis=1)


def vertex_weights(polytope, xi):
    """Per-vertex localisation data; raises on degenerate directions."""
    xi = np.asarray(xi, dtype=float)
    at = _at(polytope, xi)
    if at is None:
        raise DegenerateDirectionError(
            f"direction {tuple(xi)} pairs to zero against a vertex edge")
    _, pair_edges, euler = at
    verts = _edge_arrays(polytope)[0]
    # Each pairing is its own dot product: the matrix product that the sums
    # use may round some pairings differently.
    return [VertexWeights(coords, float(v @ xi), float(e), float(c))
            for coords, v, e, c in zip(polytope.vertices, verts, euler,
                                       np.sum(-pair_edges, axis=1))]


def is_generic(polytope, xi):
    return _at(polytope, xi) is not None


def _sum(h, at, kind):
    """The vertex sum of one kind over the localisation data ``at``."""
    pairs, pair_edges, euler = at
    terms = np.asarray(h.value(pairs), dtype=float) / euler
    if kind == "c1":
        terms = terms * np.sum(-pair_edges, axis=1)
    return math.fsum(terms.tolist())


def eval_class(polytope, h, xi):
    """(h-class)(xi) = int_P h^(n)(<x, xi>) dx, by the vertex sum."""
    return _eval(polytope, h, xi, "volume")


def eval_c1_class(polytope, h, xi):
    """(c1 h-class)(xi) = boundary integral of h^(n-1), by the vertex sum."""
    return _eval(polytope, h, xi, "c1")


def _eval(polytope, h, xi, kind):
    at = _at(polytope, xi)
    if at is None:
        return eval_at_degenerate(polytope, kind, h, xi)
    return _sum(h, at, kind)


def _candidate_directions(n):
    # Deterministic irrational-ish directions, very unlikely to pair to zero
    # against any small integer edge vector.
    base = [1.0]
    r = 1.0 / math.sqrt(2.0)
    for _ in range(n - 1):
        base.append(base[-1] * r + 0.1)
    cands = [np.array(base)]
    phi = (1 + math.sqrt(5)) / 2
    cands.append(np.array([phi ** (-k - 1) for k in range(n)]))
    cands.append(np.array([math.pi ** (-k - 1) + 0.05 * k for k in range(n)]))
    return [c / np.linalg.norm(c) for c in cands]


def eval_at_degenerate(polytope, kind, h, xi):
    """Limit of the vertex sum along xi + t eta as t -> 0.

    Symmetric evaluation at +-t kills the odd orders, and Richardson
    extrapolation over the geometric t-grid 0.1 / 2^k, k < 4, removes the
    leading even ones.  The auxiliary direction eta is the first candidate
    that is generic at every grid point.
    """
    if kind not in ("volume", "c1"):
        raise ValueError("kind must be 'volume' or 'c1'")
    xi = np.asarray(xi, dtype=float)
    ts = [0.1 * 0.5 ** k for k in range(4)]
    for eta in _candidate_directions(polytope.dim):
        ats = [[_at(polytope, xi + s * t * eta) for s in (1, -1)] for t in ts]
        if all(at is not None for pair in ats for at in pair):
            break
    else:
        raise DegenerateDirectionError(
            "no generic auxiliary direction found for the degenerate limit")
    rows = []
    for k, (plus, minus) in enumerate(ats):
        row = [0.5 * (_sum(h, plus, kind) + _sum(h, minus, kind))]
        for j in range(1, k + 1):
            row.append((4.0 ** j * row[j - 1] - rows[k - 1][j - 1])
                       / (4.0 ** j - 1.0))
        rows.append(row)
    best = rows[-1][-1]
    est = abs(rows[-1][-1] - rows[-1][-2])
    if not est <= 1e-7 * (1.0 + abs(best)):
        raise ExtrapolationError(
            f"Richardson extrapolation did not settle (estimate {est:.3e})")
    return best


def directional_derivative(kind, polytope, h, xi, beta):
    """d/ds of the vertex sum along xi + s beta, at s = 0.

    Closed form at generic xi:

        d/ds [h(<v, xi>)/e_v] = [h'(<v,xi>) <v,beta>
                                  - h(<v,xi>) sum_i <u_i,beta>/<u_i,xi>] / e_v

    and for the c1 sum the product rule adds a c1_v(beta) term.  At
    degenerate xi the derivative falls back to symmetric differences of the
    extrapolated values.
    """
    if kind not in ("volume", "c1"):
        raise ValueError("kind must be 'volume' or 'c1'")
    xi = np.asarray(xi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    at = _at(polytope, xi)
    if at is None:
        # Central differences with one Richardson step on s^2.
        s0 = 0.05 / max(1.0, float(np.linalg.norm(beta)))
        d1, d2 = ((_eval(polytope, h, xi + s * beta, kind)
                   - _eval(polytope, h, xi - s * beta, kind)) / (2 * s)
                  for s in (s0, s0 / 2))
        return (4 * d2 - d1) / 3
    pairs, pe_xi, euler = at
    verts, edges, _ = _edge_arrays(polytope)
    pe_b = edges @ beta
    pair_b = verts @ beta
    hv = np.asarray(h.value(pairs), dtype=float)
    hpv = np.asarray(h.derivative(1).value(pairs), dtype=float)
    log_der = np.sum(pe_b / pe_xi, axis=1)
    terms = hpv * pair_b - hv * log_der
    if kind == "c1":
        terms = np.sum(-pe_b, axis=1) * hv + np.sum(-pe_xi, axis=1) * terms
    return math.fsum((terms / euler).tolist())

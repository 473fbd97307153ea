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

Every sum reads the same per-polytope float data: the vertices, the inward
edge generators and their lengths, converted from the exact vertex data
once per polytope and kept, read-only, in its cache.  A degenerate limit
makes 16 genericity checks and vertex sums on one polytope, none of which
converts a ``Fraction``.
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


def vertex_weights(polytope, xi):
    """Per-vertex localisation data; raises on degenerate directions."""
    xi = np.asarray(xi, dtype=float)
    verts, edges, norms = _edge_arrays(polytope)
    pair_edges = edges @ xi  # (nv, n)
    if not _generic(norms, pair_edges, xi):
        raise DegenerateDirectionError(
            f"direction {tuple(xi)} pairs to zero against a vertex edge")
    out = []
    for v, pe, coords in zip(verts, pair_edges, polytope.vertices):
        out.append(VertexWeights(coords, float(v @ xi),
                                 float(np.prod(-pe)), float(np.sum(-pe))))
    return out


def _generic(norms, pair_edges, xi):
    nxi = float(np.linalg.norm(xi))
    if nxi == 0.0:
        return False
    return bool(np.min(np.abs(pair_edges) / (norms * nxi)) > GENERICITY_TOL)


def is_generic(polytope, xi):
    xi = np.asarray(xi, dtype=float)
    _, edges, norms = _edge_arrays(polytope)
    return _generic(norms, edges @ xi, xi)


def _raw_sum(polytope, h, xi, kind):
    xi = np.asarray(xi, dtype=float)
    verts, edges, _ = _edge_arrays(polytope)
    pair_edges = edges @ xi
    pairs = verts @ xi
    hvals = np.asarray(h.value(pairs), dtype=float)
    euler = np.prod(-pair_edges, axis=1)
    terms = hvals / euler
    if kind == "c1":
        terms = terms * np.sum(-pair_edges, axis=1)
    return math.fsum(terms.tolist())


def eval_class(polytope, h, xi, on_degenerate="perturb", eta=None):
    """(h-class)(xi) = int_P h^(n)(<x, xi>) dx, by the vertex sum."""
    return _eval(polytope, h, xi, "volume", on_degenerate, eta)


def eval_c1_class(polytope, h, xi, on_degenerate="perturb", eta=None):
    """(c1 h-class)(xi) = boundary integral of h^(n-1), by the vertex sum."""
    return _eval(polytope, h, xi, "c1", on_degenerate, eta)


def _eval(polytope, h, xi, kind, on_degenerate, eta):
    xi = np.asarray(xi, dtype=float)
    if is_generic(polytope, xi):
        return _raw_sum(polytope, h, xi, kind)
    if on_degenerate == "error":
        raise DegenerateDirectionError(
            f"direction {tuple(xi)} is degenerate for this polytope")
    return eval_at_degenerate(polytope, kind, h, xi, eta0=eta)


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


def eval_at_degenerate(polytope, kind, h, xi, eta0=None, t0=0.1, levels=4):
    """Limit of the vertex sum along xi + t eta0 as t -> 0.

    Symmetric evaluation at +-t kills the odd orders, and Richardson
    extrapolation over a geometric t-grid (ratio 1/2) removes the leading
    even ones.  The auxiliary direction must be generic at every grid level.
    """
    if kind not in ("volume", "c1"):
        raise ValueError("kind must be 'volume' or 'c1'")
    xi = np.asarray(xi, dtype=float)
    candidates = [np.asarray(eta0, dtype=float)] if eta0 is not None \
        else _candidate_directions(polytope.dim)
    ts = [t0 * 0.5 ** k for k in range(levels)]
    eta = None
    for cand in candidates:
        if all(is_generic(polytope, xi + s * t * cand)
               for t in ts for s in (1, -1)):
            eta = cand
            break
    if eta is None:
        raise DegenerateDirectionError(
            "no generic auxiliary direction found for the degenerate limit")
    rows = []
    for k, t in enumerate(ts):
        sym = 0.5 * (_raw_sum(polytope, h, xi + t * eta, kind)
                     + _raw_sum(polytope, h, xi - t * eta, kind))
        row = [sym]
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


def directional_derivative(kind, polytope, h, xi, beta, on_degenerate="perturb"):
    """d/ds of the vertex sum along xi + s beta, at s = 0.

    Closed form at generic xi:

        d/ds [h(<v, xi>)/e_v] = [h'(<v,xi>) <v,beta>
                                  - h(<v,xi>) sum_i <u_i,beta>/<u_i,xi>] / e_v

    and for the c1 sum the product rule adds a c1_v(beta) term.  At
    degenerate xi the derivative falls back to symmetric differences of the
    extrapolated values.
    """
    xi = np.asarray(xi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if is_generic(polytope, xi):
        hp = h.derivative(1)
        verts, edges, _ = _edge_arrays(polytope)
        pe_xi = edges @ xi
        pe_b = edges @ beta
        pairs = verts @ xi
        pair_b = verts @ beta
        hv = np.asarray(h.value(pairs), dtype=float)
        hpv = np.asarray(hp.value(pairs), dtype=float)
        euler = np.prod(-pe_xi, axis=1)
        log_der = np.sum(pe_b / pe_xi, axis=1)
        if kind == "volume":
            terms = (hpv * pair_b - hv * log_der) / euler
        elif kind == "c1":
            c1_xi = np.sum(-pe_xi, axis=1)
            c1_b = np.sum(-pe_b, axis=1)
            terms = (c1_b * hv + c1_xi * (hpv * pair_b - hv * log_der)) / euler
        else:
            raise ValueError("kind must be 'volume' or 'c1'")
        return math.fsum(terms.tolist())
    if on_degenerate == "error":
        raise DegenerateDirectionError(
            f"direction {tuple(xi)} is degenerate for this polytope")

    def value_at(s):
        return _eval(polytope, h, xi + s * beta, kind, "perturb", None)

    # Central differences with one Richardson step on s^2.
    s0 = 0.05 / max(1.0, float(np.linalg.norm(beta)))
    d1 = (value_at(s0) - value_at(-s0)) / (2 * s0)
    d2 = (value_at(s0 / 2) - value_at(-s0 / 2)) / s0
    return (4 * d2 - d1) / 3

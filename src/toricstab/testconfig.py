"""Toric test configurations: piecewise-linear convex data on the polytope.

A configuration is a PL convex function phi(x) = max_k(<a_k, x> + c_k) with
rational pieces, an optional real twist vector tau (subtracted as <tau, x>,
so twisting never disturbs the rational cell structure), and a scalar
normalisation offset c0.  Affine phi corresponds to a product degeneration.

The sign conventions form one consistent chain, pinned by the blowup
expansion cross-checks in :mod:`toricstab.blowup`:

    df(associated_product(beta)) = futaki(beta)
    df(twist(TC, beta))          = df(TC) + futaki(beta)
    chow(TC, p)                  = phi(p) - mean_w(phi)
    lambda-pairing               = int (-phi - mean_w(-phi))(<x,beta> - mean) w

With these, chow_T(TC, p) coincides with the value at p of the component of
phi orthogonal to the affine functions, which is why a non-product
configuration always has a vertex with positive chow_T.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import invariants, quadrature
from .polytope import _as_fraction, _clip
from .quadrature import DEFAULT_RULE, integrate_simplices


@dataclass(frozen=True)
class PLConvex:
    """max of affine pieces with exact rational data."""

    pieces: tuple  # ((gradient tuple[Fraction], constant Fraction), ...)

    @staticmethod
    def make(pieces):
        norm = []
        for grad, const in pieces:
            norm.append((tuple(_as_fraction(g) for g in grad),
                         _as_fraction(const)))
        if not norm:
            raise ValueError("a PL convex function needs at least one piece")
        return PLConvex(tuple(sorted(set(norm))))

    @property
    def dim(self):
        return len(self.pieces[0][0])

    def grads_floats(self):
        return np.array([[float(g) for g in grad] for grad, _ in self.pieces])

    def consts_floats(self):
        return np.array([float(c) for _, c in self.pieces])

    def value_floats(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.max(pts @ self.grads_floats().T + self.consts_floats(), axis=1)

    def value_exact(self, point):
        point = [_as_fraction(c) for c in point]
        return max(sum(g * x for g, x in zip(grad, point)) + const
                   for grad, const in self.pieces)


def trivial_phi(dim):
    return PLConvex.make([(tuple([0] * dim), 0)])


def random_pl(rng, dim, pieces=3):
    """PL convex function with random small rational pieces from ``rng``."""
    out = []
    for _ in range(pieces):
        grad = tuple(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                     for _ in range(dim))
        const = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
        out.append((grad, const))
    return PLConvex.make(out)


# Each entry holds its cells with their charts and triangulations.  A blowup
# ladder cycle re-reads about 60 (polytope, phi) pairs; twice that is kept.
@lru_cache(maxsize=128)
def _cells(P, phi):
    """Nonempty full-dimensional regions where one piece is the maximum.

    Returns ((piece_index, region), ...); the regions partition the polytope
    up to measure zero, and the piece indices absent from the result are
    exactly the redundant pieces.
    """
    out = []
    for k, (gk, ck) in enumerate(phi.pieces):
        rows = []
        for j, (gj, cj) in enumerate(phi.pieces):
            if j == k:
                continue
            normal = tuple(a - b for a, b in zip(gk, gj))
            if all(c == 0 for c in normal):
                if ck < cj or (ck == cj and k > j):
                    rows = None
                    break
                continue
            rows.append((normal, ck - cj))
        if rows is None:
            continue
        cell = _clip(P, rows)
        if cell is not None:
            out.append((k, cell))
    return tuple(out)


class ToricTC:
    """A toric test configuration over a fixed polytope and weight pair."""

    def __init__(self, polytope, weights, phi=None, twist=None, c0=0.0):
        self.polytope = polytope
        self.weights = weights
        self.phi = phi if phi is not None else trivial_phi(polytope.dim)
        if self.phi.dim != polytope.dim:
            raise ValueError("piece dimension does not match the polytope")
        self.twist_vector = (np.zeros(polytope.dim) if twist is None
                             else np.asarray(twist, dtype=float))
        self.c0 = float(c0)

    def value(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (self.phi.value_floats(pts) - pts @ self.twist_vector + self.c0)

    def cells(self):
        return _cells(self.polytope, self.phi)

    def redundant_pieces(self):
        active = {k for k, _ in self.cells()}
        return tuple(k for k in range(len(self.phi.pieces)) if k not in active)

    def cell_affine(self, k):
        """Gradient and constant of phi (twist and c0 included) on cell k."""
        grad, const = self.phi.pieces[k]
        g = np.array([float(x) for x in grad]) - self.twist_vector
        return g, float(const) + self.c0

    def is_product(self):
        return len(self.cells()) == 1

    def with_offset(self, c0):
        return ToricTC(self.polytope, self.weights, self.phi,
                       self.twist_vector, c0)

    def to_json(self):
        doc = {
            "pieces": [{"gradient": [str(g) for g in grad],
                        "constant": str(const)}
                       for grad, const in self.phi.pieces],
            "twist": [float(t) for t in self.twist_vector],
        }
        if self.c0:
            doc["c0"] = self.c0
        return doc

    @staticmethod
    def from_json(doc, polytope, weights):
        if isinstance(doc, str):
            doc = json.loads(doc)
        pieces = [(tuple(Fraction(str(g)) for g in p["gradient"]),
                   Fraction(str(p["constant"])))
                  for p in doc["pieces"]]
        twist = doc.get("twist") or [0.0] * polytope.dim
        return ToricTC(polytope, weights, PLConvex.make(pieces),
                       twist, float(doc.get("c0", 0.0)))


def trivial_tc(P, W):
    return ToricTC(P, W)


def associated_product(P, W, beta):
    """Product configuration of beta: phi = -<x, beta> (via the twist slot)."""
    return ToricTC(P, W, trivial_phi(P.dim), np.asarray(beta, dtype=float), 0.0)


def twist(tc, beta):
    """Twist by beta: phi -> phi - <x, beta>."""
    return ToricTC(tc.polytope, tc.weights, tc.phi,
                   tc.twist_vector + np.asarray(beta, dtype=float), tc.c0)


# -- PL integrals -----------------------------------------------------------


def integrate_pl(tc, weight_fn=None, rule=DEFAULT_RULE):
    """int_P phi * weight dx, cell by cell (integrands smooth per cell)."""
    W = tc.weights
    weight = weight_fn if weight_fn is not None else W.w
    total = 0.0
    for k, cell in tc.cells():
        g, c = tc.cell_affine(k)
        total += quadrature.integrate(
            cell, lambda x, g=g, c=c: (x @ g + c) * weight(x), rule).value
    return total


def integrate_pl_boundary(tc, weight_fn=None, rule=DEFAULT_RULE):
    """int_dP phi * weight dsigma with the lattice boundary measure."""
    P = tc.polytope
    weight = weight_fn if weight_fn is not None else tc.weights.v
    if P.dim == 1:
        pts = P.vertices_floats()
        vals = tc.value(pts) * np.asarray(weight(pts), dtype=float)
        return float(np.sum(vals))
    # Each piece is the cell's own facet on P.facets[i]; its chart shares
    # P's chart coordinates, since both depend on that facet alone.
    total = 0.0
    for i in P.genuine_facet_indices():
        chart = P.facet_chart(i)
        for k, cell in tc.cells():
            j = cell.facets.index(P.facets[i])
            if j not in cell.genuine_facet_indices():
                continue
            g, c = tc.cell_affine(k)
            total += quadrature.integrate(
                cell.facet_chart(j).polytope,
                lambda y, g=g, c=c: ((chart.map_floats(y) @ g) + c)
                * np.asarray(weight(chart.map_floats(y)), dtype=float),
                rule).value
    return total


# -- simplex clipping for absolute-value integrands ---------------------------


def clip_simplex(verts, grad, const, tol=1e-13):
    """Sub-simplices of one simplex where <grad, x> + const >= 0.

    Case analysis over the sign pattern of the vertices; handles dimensions
    one to three (vertices on the cutting hyperplane are treated as kept,
    which only ever affects zero-measure overlaps).
    """
    verts = np.asarray(verts, dtype=float)
    vals = verts @ np.asarray(grad, dtype=float) + const
    scale = max(1.0, float(np.max(np.abs(vals))))
    pos = [i for i, v in enumerate(vals) if v > tol * scale]
    neg = [i for i, v in enumerate(vals) if v < -tol * scale]
    zero = [i for i in range(len(vals)) if i not in pos and i not in neg]
    if not neg:
        return [verts]
    if not pos:
        return []

    def cut(i, j):
        t = vals[i] / (vals[i] - vals[j])
        return verts[i] + t * (verts[j] - verts[i])

    if len(pos) == 1:
        p = pos[0]
        pts = [verts[p]] + [verts[z] for z in zero] + [cut(p, m) for m in neg]
        return [np.array(pts)]
    if len(neg) == 1:
        m = neg[0]
        a = [verts[i] for i in pos]
        c = [cut(i, m) for i in pos]
        z = [verts[i] for i in zero]
        out = []
        for i in range(len(a)):
            pts = a[: i + 1] + c[i:] + z
            out.append(np.array(pts))
        return out
    # Remaining case: dimension 3 with a 2/2 split.
    if len(pos) == 2 and len(neg) == 2 and not zero:
        a, b = pos
        c, d = neg
        tri1 = [verts[a], cut(a, c), cut(a, d)]
        tri2 = [verts[b], cut(b, c), cut(b, d)]
        return [
            np.array([tri1[0], tri1[1], tri1[2], tri2[0]]),
            np.array([tri1[1], tri1[2], tri2[0], tri2[1]]),
            np.array([tri1[2], tri2[0], tri2[1], tri2[2]]),
        ]
    raise NotImplementedError(
        f"simplex clipping with sign split ({len(pos)}, {len(neg)}, {len(zero)})")


def integrate_abs_affine(region, grad, const, weight, rule=DEFAULT_RULE):
    """int over region of |<grad, x> + const| * weight(x) dx.

    The region is cut along the zero set of the affine form; each side is a
    smooth integrand.  The cut positions only need float accuracy since the
    integrand vanishes there.
    """
    total = 0.0
    for sign in (1.0, -1.0):
        pieces = []
        for s in region.triangulation_floats():
            pieces.extend(clip_simplex(s, sign * np.asarray(grad, float),
                                       sign * const))
        if not pieces:
            continue

        def f(x, sign=sign):
            return sign * (x @ np.asarray(grad, float) + const) \
                * np.asarray(weight(x), dtype=float)

        for s in pieces:
            total += integrate_simplices(f, np.array([s]), rule).value
    return total


# -- invariants of configurations ---------------------------------------------


def df(tc, rule=DEFAULT_RULE, shat=None):
    """Weighted Donaldson-Futaki invariant of the configuration.

    df(phi) = int_dP phi v dsigma - s_hat int_P phi w dx; adding a constant
    to phi does not change the value because s_hat * Vol_w = Per_v.
    """
    P, W = tc.polytope, tc.weights
    sh = shat if shat is not None else invariants.s_hat(P, W, rule)
    return integrate_pl_boundary(tc, rule=rule) - sh * integrate_pl(tc, rule=rule)


def mean_w(tc, rule=DEFAULT_RULE):
    """w-weighted average of phi over the polytope."""
    return integrate_pl(tc, rule=rule) / invariants.vol_w(tc.polytope, tc.weights, rule)


def normalize_chow(tc, rule=DEFAULT_RULE):
    """Shift the offset so the w-weighted average of phi vanishes."""
    return tc.with_offset(tc.c0 - mean_w(tc, rule))


def lambda_pairing(tc, beta, rule=DEFAULT_RULE):
    """Weighted pairing of the configuration generator with beta in t.

    Realised as int_P (phit - mean)(.) (<x,beta> - mean) w dx with
    phit = -phi; for a product configuration of beta' this is the Gram
    pairing <beta', beta>.
    """
    P, W = tc.polytope, tc.weights
    beta = np.asarray(beta, dtype=float)
    bbar = float(invariants.barycenter_w(P, W, rule) @ beta)
    # int (phit)(<x,beta> - bbar) w; the mean of phit drops out.
    val = integrate_pl(tc, weight_fn=lambda x: ((x @ beta) - bbar) * W.w(x),
                       rule=rule)
    return -val


def gram_orthonormal_basis(P, W, rule=DEFAULT_RULE):
    """Basis vectors (columns) orthonormal for the weighted Gram product."""
    g = invariants.gram(P, W, rule=rule)
    chol = np.linalg.cholesky(g)
    return np.linalg.inv(chol).T


def df_T(tc, rule=DEFAULT_RULE, shat=None):
    """Torus-orthogonal Donaldson-Futaki invariant (twist invariant)."""
    P, W = tc.polytope, tc.weights
    basis = gram_orthonormal_basis(P, W, rule)
    sh = shat if shat is not None else invariants.s_hat(P, W, rule)
    total = df(tc, rule, shat=sh)
    for j in range(basis.shape[1]):
        bj = basis[:, j]
        total -= lambda_pairing(tc, bj, rule) * invariants.futaki(
            P, W, bj, rule, shat=sh)
    return total


def l1_norm(tc, rule=DEFAULT_RULE):
    """Weighted L1 norm: int_P |phi - mean_w(phi)| w dx."""
    P, W = tc.polytope, tc.weights
    mean = mean_w(tc, rule)
    total = 0.0
    for k, cell in tc.cells():
        g, c = tc.cell_affine(k)
        total += integrate_abs_affine(cell, g, c - mean, W.w, rule)
    return total


def orthogonal_part(tc, rule=DEFAULT_RULE):
    """Configuration with the affine component of phi projected away.

    Returns ``(tc_perp, norm)`` where tc_perp realises
    phi - (w-weighted L2 projection of phi onto affine functions) and norm is
    its weighted L1 norm.  Affine phi projects to the zero configuration.
    """
    P, W = tc.polytope, tc.weights
    g = invariants.gram(P, W, rule=rule)
    bary = invariants.barycenter_w(P, W, rule)
    mean = mean_w(tc, rule)
    m = np.array([-lambda_pairing(tc, e, rule) for e in np.eye(P.dim)])
    coeff = np.linalg.solve(g, m)
    const = mean - float(coeff @ bary)
    tc_perp = ToricTC(P, W, tc.phi, tc.twist_vector + coeff, tc.c0 - const)
    return tc_perp, l1_norm(tc_perp, rule)


def _vertex_coords(tc, p):
    P = tc.polytope
    if isinstance(p, int):
        return P.vertices[p]
    coords = tuple(_as_fraction(c) for c in (p.coords if hasattr(p, "coords") else p))
    if coords not in P.vertices:
        raise ValueError(f"{tuple(map(str, coords))} is not a vertex of the polytope")
    return coords


def chow(tc, p, rule=DEFAULT_RULE):
    """Weighted Chow weight of a fixed point: phi(p) - mean_w(phi).

    Invariant under phi -> phi + const; under a twist by beta it changes by
    -(<p, beta> - mean_w(<x, beta>)).
    """
    coords = _vertex_coords(tc, p)
    pt = np.array([[float(c) for c in coords]])
    return float(tc.value(pt)[0]) - mean_w(tc, rule)


def chow_T(tc, p, rule=DEFAULT_RULE):
    """Torus-orthogonal weighted Chow weight (twist invariant).

    chow plus the Gram-orthonormal correction; identical to evaluating the
    affine-orthogonal part of phi at the vertex, hence zero for products.
    """
    coords = _vertex_coords(tc, p)
    mean, corr = _chow_data(tc, rule)
    pt = np.array([[float(c) for c in coords]])
    return float(tc.value(pt)[0]) - mean + float(pt[0] @ corr[0] + corr[1])


def _chow_data(tc, rule):
    """Shared pieces of the chow_T computation: the w-mean of phi and the
    affine correction x -> <x, g> + c from the Gram-orthonormal pairings."""
    P, W = tc.polytope, tc.weights
    mean = mean_w(tc, rule)
    basis = gram_orthonormal_basis(P, W, rule)
    bary = invariants.barycenter_w(P, W, rule)
    grad = np.zeros(P.dim)
    const = 0.0
    for j in range(basis.shape[1]):
        bj = basis[:, j]
        lam = lambda_pairing(tc, bj, rule)
        grad += lam * bj
        const -= lam * float(bary @ bj)
    return mean, (grad, const)


def chow_T_table(tc, rule=DEFAULT_RULE):
    """chow and chow_T at every vertex, sharing the projection data."""
    mean, (grad, const) = _chow_data(tc, rule)
    rows = []
    for v in tc.polytope.vertices:
        pt = np.array([[float(c) for c in v]])
        ch = float(tc.value(pt)[0]) - mean
        rows.append((v, ch, ch + float(pt[0] @ grad) + const))
    return tuple(rows)


@dataclass(frozen=True)
class DestabilizingVertex:
    product: bool
    vertex: tuple
    chow_t: float
    ratio: float
    ties: tuple
    table: tuple
    norm_perp: float


def destabilizing_vertex(tc, rule=DEFAULT_RULE, product_tol=1e-9):
    """Vertex maximising chow_T, with the normalised positivity ratio.

    For a configuration with positive orthogonal L1 norm the maximum is
    positive; the ratio chow_T * Vol_w / norm_perp is reported against the
    uniform positivity expected of it.  Ties are returned together, with the
    lexicographically smallest designated.
    """
    P, W = tc.polytope, tc.weights
    _, norm_perp = orthogonal_part(tc, rule)
    if norm_perp <= product_tol:
        table = tuple((v, 0.0) for v in P.vertices)
        return DestabilizingVertex(True, None, 0.0, 0.0, (), table, norm_perp)
    vals = [(v, cht) for v, _, cht in chow_T_table(tc, rule)]
    best = max(val for _, val in vals)
    tie_tol = 1e-9 * (1.0 + abs(best))
    ties = tuple(v for v, val in vals if best - val <= tie_tol)
    vstar = min(ties)
    ratio = best * invariants.vol_w(P, W, rule) / norm_perp
    return DestabilizingVertex(False, vstar, best, ratio, ties,
                               tuple(vals), norm_perp)

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

The relative invariants come from one torus projection, the part tc_perp
of phi w-L2-orthogonal to the affine functions: chow_T(TC, p) = tc_perp(p),
which is why a non-product configuration always has a vertex with positive
chow_T, df_T = df(tc_perp), and the orthogonal L1 norm is that of tc_perp.
An L1 norm is 2 int f_+ w - int f w: the positive side of f on each cell is
cut along its zero set, in any dimension.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from . import _linalg as la, invariants
from .polytope import Facet, _as_fraction, _clip
from .quadrature import DEFAULT_RULE, Integrand, integrate_parts, integrate_sum


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

    @cached_property
    def _hash(self):
        return hash(self.pieces)

    def __hash__(self):
        return self._hash  # cell caches key on it; see Facet.__hash__

    @cached_property
    def _scaled(self):
        """The pieces times their common denominator, as integers: the
        halfspace where one piece exceeds another is the same at any
        positive scale."""
        scale = lcm(*(x.denominator for grad, const in self.pieces
                      for x in (*grad, const)))
        return tuple(
            (tuple(x.numerator * (scale // x.denominator) for x in grad),
             const.numerator * (scale // const.denominator))
            for grad, const in self.pieces)

    @cached_property
    def _floats(self):
        """The gradients (one row per piece) and constants as float arrays."""
        return (np.array([[float(g) for g in grad] for grad, _ in self.pieces]),
                np.array([float(c) for _, c in self.pieces]))

    def value_floats(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        grads, consts = self._floats
        return np.max(pts @ grads.T + consts, axis=1)

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


# Each entry holds its cells with their triangulations and those of their
# facets, none of its own for a cell that is P itself.  A blowup ladder cycle
# reads 63 (polytope, phi) pairs, seven parents and their 56 corner simplices.
# Over whole benchmark runs (seed 301: 8 blowup_ladder cycles, 50 pl_sweep
# cycles) 128 entries miss only where an unbounded cache misses.
@lru_cache(maxsize=128)
def _cells(P, phi):
    """Nonempty full-dimensional regions where one piece is the maximum.

    Returns ((piece_index, region), ...); the regions partition the polytope
    up to measure zero, and the piece indices absent from the result are
    exactly the redundant pieces.  A region no other piece cuts is P itself
    (``_clip``): a product configuration has the one cell ``((k, P),)``.
    """
    out = []
    pieces = phi._scaled
    for k, (gk, ck) in enumerate(pieces):
        rows = []
        for j, (gj, cj) in enumerate(pieces):
            if j == k:
                continue
            normal = tuple(a - b for a, b in zip(gk, gj))
            if not any(normal):
                if ck < cj or (ck == cj and k > j):
                    rows = None
                    break
                continue
            prim, factor = la.primitivize(normal)
            rows.append(Facet(prim, Fraction(ck - cj, factor)))
        if rows is None:
            continue
        cell = _clip(P, rows)
        if cell is not None:
            out.append((k, cell))
    return tuple(out)


def _twist_vector(twist, n):
    """A twist as a float vector of shape (n,), zero if None."""
    vec = np.zeros(n) if twist is None else np.asarray(twist, dtype=float)
    if vec.shape != (n,):
        raise ValueError(f"twist has shape {vec.shape}, expected ({n},)")
    return vec


class ToricTC:
    """A toric test configuration over a fixed polytope and weight pair.

    A configuration is not mutated after construction (``twist`` and
    ``with_offset`` return new ones), so results derived from it can be
    cached by identity.
    """

    def __init__(self, polytope, weights, phi=None, twist=None, c0=0.0):
        self.polytope = polytope
        self.weights = weights
        self.phi = phi if phi is not None else trivial_phi(polytope.dim)
        if self.phi.dim != polytope.dim:
            raise ValueError("piece dimension does not match the polytope")
        self.twist_vector = _twist_vector(twist, polytope.dim)
        self.c0 = float(c0)

    def value(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (self.phi.value_floats(pts) - pts @ self.twist_vector + self.c0)

    def cells(self):
        return _cells(self.polytope, self.phi)

    def redundant_pieces(self):
        active = {k for k, _ in self.cells()}
        return tuple(k for k in range(len(self.phi.pieces)) if k not in active)

    def affine_cells(self):
        """(cell, gradient, constant) of phi on each cell, twist and c0 included."""
        grads, consts = self.phi._floats
        return [(cell, grads[k] - self.twist_vector, float(consts[k]) + self.c0)
                for k, cell in self.cells()]

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
        twist = [float(t) for t in doc.get("twist") or [0.0] * polytope.dim]
        c0 = float(doc.get("c0", 0.0))
        numbers = [*twist, c0] + [x for g, c in pieces for x in (*g, c)]
        if not all(abs(x) <= sys.float_info.max for x in numbers):
            raise ValueError("numbers must be finite and within the float range")
        return ToricTC(polytope, weights, PLConvex.make(pieces), twist, c0)


def trivial_tc(P, W):
    return ToricTC(P, W)


def associated_product(P, W, beta):
    """Product configuration of beta: phi = -<x, beta> (via the twist slot)."""
    return ToricTC(P, W, trivial_phi(P.dim), np.asarray(beta, dtype=float), 0.0)


def twist(tc, beta):
    """Twist by beta: phi -> phi - <x, beta>."""
    return ToricTC(tc.polytope, tc.weights, tc.phi,
                   tc.twist_vector + _twist_vector(beta, tc.polytope.dim), tc.c0)


# -- PL integrals -----------------------------------------------------------


def pl_parts(tc, weight=None, factors=()):
    """Integration parts of int_P phi * factors * weight dx, one per cell
    of phi (the integrand is smooth on each), multiplied left to right.
    ``weight`` is an :class:`Integrand`'s weight, w unless given."""
    weight = tc.weights.w_weight if weight is None else weight
    return [(Integrand(weight, [(g, c), *factors]), cell.triangulation_floats())
            for cell, g, c in tc.affine_cells()]


def pl_facet_parts(tc, facets):
    """Integration parts of int phi * v dsigma over each facet i of P in
    ``facets``, a list per facet: phi v pulled back through P's chart of
    facet i, over each cell of phi with a facet of its own there, in its
    chart of that facet (a chart depends on the hyperplane alone)."""
    P, v, cells = tc.polytope, tc.weights.v_weight, tc.affine_cells()
    return [[(Integrand(v, [(g, c)], chart=chart), cell.facet_triangulation_floats(j))
             for cell, g, c in cells
             if (j := cell.facets.index(P.facets[i])) in cell.genuine_facet_indices()]
            for i, chart in ((i, P.facet_chart(i)) for i in facets)]


# df, mean_w (so chow and the projection) and a blowup ladder of one
# configuration read int_P phi w three times or more: it is kept per
# (configuration, rule), configurations by identity, as the projection is.
# int_dP phi v is read once per configuration, by df.
@lru_cache(maxsize=128)
def integrate_pl(tc, rule=DEFAULT_RULE):
    """int_P phi * w dx."""
    return integrate_sum(pl_parts(tc), rule).value


def integrate_pl_boundary(tc, rule=DEFAULT_RULE):
    """int_dP phi * v dsigma with the lattice boundary measure."""
    P = tc.polytope
    if P.dim == 1:
        pts = P.vertices_floats()
        return float(np.sum(tc.value(pts) * np.asarray(tc.weights.v(pts), dtype=float)))
    return integrate_sum([p for ps in pl_facet_parts(tc, P.genuine_facet_indices())
                          for p in ps], rule).value


# -- simplex clipping along the zero set of an affine form --------------------


def clip_simplex(verts, grad, const):
    """Sub-simplices of one simplex where h(x) = <grad, x> + const >= 0.

    Pulling recursion, in any dimension: the kept part of S is the cone from
    its vertex p of largest h over the kept part of the facet opposite p and
    over the section S & {h = 0}; a section is the cone from the cut point c
    of the edge from p to the vertex q of smallest h over the sections of
    the facets opposite p and q (only p's if c = p).  |h| <= 1e-13 (relative
    to the largest |h|, at least 1) counts as zero, and zero as kept, so each
    piece of the cut comes out once.
    """
    verts = np.asarray(verts, dtype=float)
    h = (verts @ np.asarray(grad, dtype=float) + const).tolist()
    if not all(map(math.isfinite, h)):  # no cut of such data: its integrals are not finite
        return [verts]
    zero = 1e-13 * max(1.0, max(map(abs, h)))
    h = [0.0 if abs(x) <= zero else x for x in h]
    if min(h) >= 0:
        return [verts]
    if max(h) <= 0:
        return []

    def cone(apex, faces):
        return [[apex, *f] for f in faces]

    def keep(idx):
        if min(h[i] for i in idx) >= 0:
            return [[verts[i] for i in idx]]
        if max(h[i] for i in idx) <= 0:
            return []
        p = max(idx, key=h.__getitem__)
        return cone(verts[p], keep([i for i in idx if i != p]) + section(idx))

    def section(idx):
        if min(h[i] for i in idx) >= 0 or max(h[i] for i in idx) < 0:
            return []
        p = max(idx, key=h.__getitem__)
        q = min(idx, key=h.__getitem__)
        c = verts[p] + h[p] / (h[p] - h[q]) * (verts[q] - verts[p])
        if len(idx) == 2:
            return [[c]]
        opposite = (p, q) if h[p] > 0 else (p,)
        return cone(c, [s for o in opposite
                        for s in section([i for i in idx if i != o])])

    return [np.array(s) for s in keep(list(range(len(verts))))]


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
    """w-weighted average of phi over the polytope; the weights must pass
    the positivity gate, which chow, the projection and L1 norms meet here."""
    invariants._require_positive(tc.polytope, tc.weights)
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
    val = integrate_sum(pl_parts(tc, Integrand(W.w_weight, [(beta, -bbar)])),
                        rule).value
    return -val


# One projection per configuration serves chow_T, df_T and the orthogonal
# norm; configurations hash by identity.
@lru_cache(maxsize=128)
def _projection(tc, rule):
    """(tc_perp, mean_w(phi), coeff): tc_perp is phi minus its w-weighted L2
    projection onto the affine functions, a twist by coeff = G^-1 m with
    m_i = -lambda_pairing(e_i) and an offset that zeroes the w-mean.
    """
    P, W = tc.polytope, tc.weights
    mean = mean_w(tc, rule)
    m = np.array([-lambda_pairing(tc, e, rule) for e in np.eye(P.dim)])
    coeff = np.linalg.solve(invariants.gram(P, W, rule=rule), m)
    bary = invariants.barycenter_w(P, W, rule)
    perp = ToricTC(P, W, tc.phi, tc.twist_vector + coeff,
                   tc.c0 - mean + float(coeff @ bary))
    return perp, mean, coeff


def df_T(tc, rule=DEFAULT_RULE, shat=None):
    """Torus-orthogonal Donaldson-Futaki invariant (twist invariant).

    df of the orthogonal part: df ignores constants and a twist by beta adds
    futaki(beta), so this is df minus futaki of phi's torus component.
    """
    return df(_projection(tc, rule)[0], rule, shat=shat)


def l1_norm(tc, rule=DEFAULT_RULE):
    """Weighted L1 norm: int_P |phi - mean_w(phi)| w dx."""
    return _l1_about(tc, mean_w(tc, rule), rule)


def _l1_about(tc, mean, rule):
    """int_P |phi - mean| w dx, as 2 int (phi - mean)_+ w - int (phi - mean) w
    (|f| = 2 f_+ - f for any mean).  On each cell f is affine: its positive
    side is cut along the zero set, so both parts of a cell are smooth and
    share one integrand.  Only rounding can take the sum below 0.  A sum
    that overflows, or has a part of infinite error, is NaN."""
    parts = []
    for cell, g, c in tc.affine_cells():
        f, tris = Integrand(tc.weights.w_weight, [(g, c - mean)]), cell.triangulation_floats()
        pos = [s for tri in tris for s in clip_simplex(tri, g, c - mean)]
        parts += [(f, np.array(pos).reshape(-1, *tris.shape[1:])), (f, tris)]
    res = integrate_parts(parts, rule)
    if not all(math.isfinite(r.error) for r in res):
        return math.nan
    total = sum(2 * pos.value - whole.value for pos, whole in zip(res[::2], res[1::2]))
    return 0.0 if total < 0 else total


def orthogonal_part(tc, rule=DEFAULT_RULE):
    """Configuration with the affine component of phi projected away.

    Returns ``(tc_perp, norm)`` where tc_perp realises
    phi - (w-weighted L2 projection of phi onto affine functions) and norm is
    its weighted L1 norm.  Affine phi projects to the zero configuration.
    """
    perp = _projection(tc, rule)[0]
    return perp, _l1_about(perp, 0.0, rule)  # perp's w-mean is zero


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
    return _value_at(tc, _vertex_coords(tc, p)) - mean_w(tc, rule)


def chow_T(tc, p, rule=DEFAULT_RULE):
    """Torus-orthogonal weighted Chow weight (twist invariant).

    The orthogonal part of phi evaluated at the vertex, hence zero for
    products.
    """
    return _value_at(_projection(tc, rule)[0], _vertex_coords(tc, p))


def chow_T_table(tc, rule=DEFAULT_RULE):
    """chow and chow_T at every vertex, sharing the projection."""
    perp, mean, _ = _projection(tc, rule)
    return tuple((v, _value_at(tc, v) - mean, _value_at(perp, v))
                 for v in tc.polytope.vertices)


def _value_at(tc, coords):
    return float(tc.value(np.array([[float(c) for c in coords]]))[0])


@dataclass(frozen=True)
class DestabilizingVertex:
    product: bool
    vertex: tuple
    chow_t: float
    ratio: float
    ties: tuple
    table: tuple
    norm_perp: float


def destabilizing_vertex(tc, rule=DEFAULT_RULE):
    """Vertex maximising chow_T, with the normalised positivity ratio.

    For a configuration with positive orthogonal L1 norm the maximum is
    positive; the ratio chow_T * Vol_w / norm_perp is reported against the
    uniform positivity expected of it.  A norm of at most 1e-9 is reported
    as a product, and a NaN norm, whose integrals overflowed, raises
    ``FloatingPointError``.  Ties are returned together, with the
    lexicographically smallest designated.
    """
    P, W = tc.polytope, tc.weights
    perp, norm_perp = orthogonal_part(tc, rule)
    if math.isnan(norm_perp):  # its integrals overflowed
        raise FloatingPointError("the orthogonal L1 norm is NaN")
    if norm_perp <= 1e-9:
        table = tuple((v, 0.0) for v in P.vertices)
        return DestabilizingVertex(True, None, 0.0, 0.0, (), table, norm_perp)
    vals = [(v, _value_at(perp, v)) for v in P.vertices]
    best = max(val for _, val in vals)
    tie_tol = 1e-9 * (1.0 + abs(best))
    ties = tuple(v for v, val in vals if best - val <= tie_tol)
    vstar = min(ties)
    ratio = best * invariants.vol_w(P, W, rule) / norm_perp
    return DestabilizingVertex(False, vstar, best, ratio, ties,
                               tuple(vals), norm_perp)

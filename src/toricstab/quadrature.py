"""Numerical and exact integration over polytopes and their boundaries.

Interior integrals run Grundmann-Moller simplex cubature (exact to a
configurable polynomial degree) over an exact triangulation, with adaptive
longest-edge bisection for analytic non-polynomial integrands.  One engine,
:func:`integrate_parts`, takes a list of (integrand, simplices) parts of
any dimensions, such as the facets of a boundary or the cells of a PL
function; :func:`integrate_sum` adds their results.  An integrand is an
:class:`Integrand` value, which knows its polynomial degree, or a plain
callable.  If the rule (of degree 2s+1) integrates that degree exactly, the
part is evaluated once on its own simplices, and its value is the ``fsum``
of their rule sums with error 0.  A power law of <xi, x> times affine
factors (``Integrand.power``: the Sasaki and ckem weights) has a closed
form on each simplex and a rounding bound (:func:`_power_law_parts`),
taken in one stacked pass over all the node sets and parts of a call
that share an exponent and a simplex shape.
Every other part is analytic: the first pass calls its integrand once on
its simplices and their bisection halves, and an error estimate against the
embedded lower rule sees every direction (:func:`_estimate`); the part then
refines on its own, in rounds of one integrand call (:func:`_refine`).
Parts of one dimension whose integrands are equal enter the first pass as
one, their simplices concatenated, and then part again; each keeps its own
rule sums, refinement and result.  Shared passes are bit-identical to one
evaluation per simplex for an integrand that is row-wise to the bit (see
:func:`integrate_parts`).  Boundary integrals pull each facet back through
its unimodular chart, which is affine, so a pulled-back polynomial keeps
its degree and the lattice boundary measure is built in.  In dimension 1 a
facet is a point, a 0-simplex, which the rule's one node takes exactly.

The geometry of a simplex stack (its bisection into halves and the |det|
of simplices and halves) depends on neither the rule nor the integrand, and
the same few triangulations and refinement trees recur across the
invariants and both kinds of kernel.  So it is computed once per
stack, all new stacks of one dimension in a call in one bisection and one
batched determinant, and kept in a bounded LRU of read-only arrays keyed by
the stack's shape and bytes (``_GEOMETRY_CACHE_SIZE`` entries).  Every
result is bit-identical to evaluating one simplex at a time, cache or no
cache: bisection and determinant act simplex by simplex, and numpy computes
each row of the stacked rule sum as the same 1-D dot.

``moments`` provides an independent closed-form path used as an oracle
against the cubature backend: x^m is expanded once in the barycentric
coordinates of each simplex, and each barycentric monomial integrates to a
divided difference, exactly (a rational) for monomial moments and through
confluent divided differences of exp, in numpy, for exponential ones.
"""

from __future__ import annotations

import math
import struct
import sys
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, product

import numpy as np

from . import _linalg as la
from .profiles import PowerLaw, ProfileDomainError


@dataclass(frozen=True)
class QuadratureRule:
    """Cubature configuration.

    ``degree`` is the polynomial exactness target on each simplex; the
    underlying Grundmann-Moller rule has odd degree 2s+1 >= degree.
    """

    degree: int = 12
    tol_abs: float = 1e-12
    tol_rel: float = 1e-10
    max_depth: int = 12

    @property
    def gm_order(self):
        return max(0, self.degree // 2)  # smallest s with 2s+1 >= degree

    def __hash__(self):  # every scalar cache key hashes its rule
        return self._hash

    @cached_property
    def _hash(self):
        return hash((self.degree, self.tol_abs, self.tol_rel, self.max_depth))


DEFAULT_RULE = QuadratureRule()


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error: float
    converged: bool

    def __float__(self):
        return self.value


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def gm_table(dim, s):
    """Grundmann-Moller nodes (barycentric) and weights for the dim-simplex.

    Weights are normalised to sum to 1, so a simplex integral is
    ``volume * sum(w_i * f(node_i))``.  The rule is exact on polynomials of
    total degree <= 2s+1.
    """
    n, d = dim, 2 * s + 1
    acc = {}
    for i in range(s + 1):
        w = (Fraction(-1) ** i * Fraction(2) ** (-2 * s)
             * Fraction((d + n - 2 * i) ** d,
                        math.factorial(i) * math.factorial(d + n - i)))
        for beta in _compositions(s - i, n + 1):
            pt = tuple(Fraction(2 * b + 1, d + n - 2 * i) for b in beta)
            acc[pt] = acc.get(pt, Fraction(0)) + w
    pts = sorted(acc)
    bary = np.array([[float(c) for c in p] for p in pts])
    wts = np.array([float(acc[p] * math.factorial(n)) for p in pts])
    return bary, wts


@lru_cache(maxsize=None)
def _lower_rule(dim, s):
    """``(rows, weights)`` of the degree-(2s-1) rule, its nodes as rows of
    ``gm_table(dim, s)``'s, or None at s = 0: its nodes of index i are the
    upper rule's of index i + 1 (Genz and Cools, ACM TOMS 29, 2003)."""
    if s:
        rows = {p.tobytes(): r for r, p in enumerate(gm_table(dim, s)[0])}
        bary, wts = gm_table(dim, s - 1)
        return np.array([rows[p.tobytes()] for p in bary]), wts


@lru_cache(maxsize=None)
def _edges(n1):
    return np.triu_indices(n1, 1)  # (i, j) pairs, i < j, in loop order


# The geometry of simplex stacks by (shape, bytes), least recently used
# first; see :func:`_geometry`.  Replaying the engine's stack streams of
# whole benchmark runs (seeds 301-302) through an LRU, none needed more than
# 2,732 entries (pl_sweep; weight_sweep 817, and blowup_ladder meets only
# 308 stacks at seed 301, its corner parts that share an integrand merged
# into one stack) to miss only where an unbounded cache misses; a
# weight_sweep run's closed power-law parts meet 30 stacks more at most.  A
# pl_sweep run of twice that length needs 5,067 and misses 0.5% more at
# this bound.  A full cache holds about 7 MB (1.7 KB per pl_sweep entry
# with halves; about a third of that without).
_GEOMETRY_CACHE_SIZE = 4096
_geometry_cache = OrderedDict()


def _geometry(stacks, halves):
    """``(kids, allv, dets, charts)`` of each (k, n+1, n) stack, all of one
    n.

    If ``halves[i]``, each simplex of stack i is bisected across its first
    longest edge into the two halves ``kids`` (k, 2, n+1, n); ``allv`` holds
    the k simplices, then their 2k halves, and ``dets`` their 3k |det| (n!
    times the volume); ``charts`` starts empty, for the closed form's data
    per chart (:func:`_in_chart`).  A stack that no adaptive part
    integrates needs no halves: its entry has ``kids`` None and the k
    simplices alone, and is built anew with halves if a later call needs
    them.  None of it depends on the rule or the integrand, so it is kept
    per stack under its shape and bytes (the shape tells apart stacks of
    equal bytes), with read-only arrays.  The misses of one call, each stack
    once, share one bisection and one batched ``det``; both act simplex by
    simplex, so a stored entry has the bits a fresh one would.
    """
    keys = [(s.shape, s.tobytes()) for s in stacks]
    out = [_geometry_cache.get(key) for key in keys]
    need = {}  # key -> (stack, halves) of each entry to build
    for i, key in enumerate(keys):
        if out[i] is not None and (out[i][0] is not None or not halves[i]):
            _geometry_cache.move_to_end(key)
        else:
            need[key] = (stacks[i], halves[i] or key in need and need[key][1])
    if not need:
        return out
    verts = np.concatenate([s for s, _ in need.values()])
    k, n1, n = verts.shape
    if any(h for _, h in need.values()):
        iu, ju = _edges(n1)
        longest = np.argmax(np.sum((verts[:, iu] - verts[:, ju]) ** 2, axis=2), axis=1)
        rows, i, j = np.arange(k), iu[longest], ju[longest]
        mid = (verts[rows, i] + verts[rows, j]) / 2
        kids = np.repeat(verts[:, None], 2, axis=1)
        kids[rows, 0, i] = mid
        kids[rows, 1, j] = mid
    bounds = [0, *accumulate(len(s) for s, _ in need.values())]
    blocks = []
    for (_, h), a, b in zip(need.values(), bounds, bounds[1:]):
        blocks.append(verts[a:b])
        if h:
            blocks.append(kids[a:b].reshape(-1, n1, n))
    allv = np.concatenate(blocks)
    dets = np.abs(np.linalg.det(allv[:, 1:] - allv[:, :1]))
    end, built = 0, {}
    for (key, (_, h)), a, b in zip(need.items(), bounds, bounds[1:]):
        start, end = end, end + (3 if h else 1) * (b - a)
        part_v, part_dets = allv[start:end].copy(), dets[start:end].copy()
        part_v.flags.writeable = part_dets.flags.writeable = False
        part_kids = part_v[b - a:].reshape(-1, 2, n1, n) if h else None
        built[key] = _geometry_cache[key] = (part_kids, part_v, part_dets, {})
    while len(_geometry_cache) > _GEOMETRY_CACHE_SIZE:
        _geometry_cache.popitem(last=False)
    return [built.get(key, geo) for key, geo in zip(keys, out)]


def _rule_sums(f, allv, vols, bary, wts, lower=None):
    """Volume times rule sum of ``f`` on each simplex of an (N, n+1, n)
    stack, n = 0 too, with one call of ``f`` on all their nodes, and, given the
    ``lower`` rule (:func:`_lower_rule`), |Q_s - Q_(s-1)| on each (else
    None).  Each rule sum is one stacked ``matmul`` of (1, L) rows by (L,
    1) weights, which numpy computes as the same 1-D dot per row as
    ``float(wts @ r)``: both keep the bits of a per-simplex sum for an
    integrand that is row-wise to the bit (see :func:`integrate_parts`)."""
    vals = np.asarray(f((bary @ allv).reshape(len(allv) * len(bary), -1)), dtype=float)
    vals = vals.reshape(len(vols), -1)
    sums = vols * np.matmul(vals[:, None, :], wts[:, None])[:, 0, 0]
    if lower is None:
        return sums, None
    rows, low = lower
    vals = vals.take(rows, axis=1)  # C order, as numpy's per-row dot needs
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, never converged
        return sums, np.abs(sums - vols * np.matmul(vals[:, None, :], low[:, None])[:, 0, 0])


def _estimate(parts, bary, wts, lower):
    """Fine values, errors and halves of each simplex of each part.

    ``parts`` holds ``(f, verts, exact)`` triples, each ``verts`` a
    (k, n+1, n) stack.  The halves and volumes come from :func:`_geometry`.
    Each part's integrand is called once, on that part's own block of nodes
    (its k simplices, then their 2k halves), exactly the array a one-part
    call would pass it.  A simplex's value is the rule on its halves, its
    error max(|coarse - fine|, the sum over its halves of |Q_s - Q_(s-1)|),
    or |coarse - fine| alone at s = 0 (``lower`` None).  An ``exact`` part,
    whose integrand the rule integrates exactly, is called on its k
    simplices alone and gets their rule sums, with errors and halves None.
    A part here may be several parts of :func:`integrate_parts` that share
    an integrand, merged; their integrand must then be row-wise to the bit
    for each to keep the bits of a pass of its own (see there).
    """
    out, n_factorial = [], math.factorial(bary.shape[1] - 1)
    geometry = _geometry([v for _, v, _ in parts], [not e for _, _, e in parts])
    for (f, verts, exact), (kids, allv, dets, _) in zip(parts, geometry):
        m = len(verts)
        if exact:
            out.append((_rule_sums(f, allv[:m], dets[:m] / n_factorial, bary, wts)[0].tolist(),
                        None, None))
            continue
        est, null = _rule_sums(f, allv, dets / n_factorial, bary, wts, lower)
        fine = est[m::2] + est[m + 1::2]
        err = np.abs(est[:m] - fine)
        if null is not None:
            err = np.maximum(err, null[m::2] + null[m + 1::2])
        out.append((fine.tolist(), err.tolist(), kids))
    return out


def _refine(f, fine, errs, kids, bary, wts, lower, rule):
    """Finish one part from its first pass.

    An exact part (errors None) sums its rule values, with error 0, or
    infinite if that sum is not finite.  Any other part refines in rounds
    while the ``fsum`` of its leaf errors exceeds the tolerance: a round
    bisects every leaf whose error is at least the mean leaf error and
    whose depth is below ``max_depth``, all in one :func:`_estimate` call,
    then takes one ``fsum`` of the leaf values and one of their errors, and
    stops if it can bisect none.  A non-finite error never converges.
    """
    if errs is None:
        value = math.fsum(fine)
        finite = math.isfinite(value)
        return IntegrationResult(value, 0.0 if finite else math.inf, finite)

    depth = None
    while True:
        value, err = math.fsum(fine), math.fsum(errs)
        tol = max(rule.tol_abs, rule.tol_rel * abs(value))
        if err > tol:
            if depth is None:  # the first pass's lists become arrays to refine
                fine, errs, depth = np.array(fine), np.array(errs), np.zeros(len(fine), int)
            # The rounded mean can exceed every leaf's error; the largest cannot.
            pick = (errs >= min(err / len(errs), errs.max())) & (depth < rule.max_depth)
        if not (err > tol and pick.any()):
            return IntegrationResult(value, err, err <= tol and math.isfinite(err))
        halves = [(f, kids[pick].reshape(-1, *kids.shape[2:]), False)]
        new = (*_estimate(halves, bary, wts, lower)[0], np.repeat(depth[pick] + 1, 2))
        fine, errs, kids, depth = (np.concatenate([old[~pick], add]) for old, add
                                   in zip((fine, errs, kids, depth), new))


_PowerForm = namedtuple("_PowerForm", "closed k a b xi chart factors")


def _read_only(a):
    """``a`` if it is a read-only contiguous float array, else such a copy."""
    if not (type(a) is np.ndarray and a.dtype == float and not a.flags.writeable
            and a.flags.c_contiguous):
        a = np.array(a, dtype=float)
        a.flags.writeable = False
    return a


class Integrand:
    """A product of affine forms times a weight, as a value.

    ``x -> A_1(x) * ... * A_k(x) * weight(x)``, multiplied left to right;
    each A in ``factors`` is a (gradient, constant) pair, A(x) = ``x @
    gradient + constant``, or ``x @ gradient`` if the constant is None.
    ``weight`` is a (profile, xi) pair, ``profile.value(x @ xi)``, or an
    integrand or other callable, so ``Integrand(Integrand(w, [B]), [A])`` is
    ``A * (B * w)``.  A facet ``chart`` pulls the value back, ``y ->
    f(chart.map_floats(y))``.  Nothing changes an integrand once built (its
    arrays are read-only; a writeable one given is copied), and equal ones
    evaluate alike: equal profiles, the same float bits, charts
    of one hyperplane, the same callable.  ``degree`` is the number of
    factors plus the weight's degree: 0 for a profile at xi = 0, else the
    profile's or inner integrand's, None if that is no polynomial or a
    plain callable.

    ``power`` unfolds a :class:`PowerLaw` of integer exponent -k (innermost,
    with no chart inside the outermost integrand; else None) as A (b + <xi,
    x>)^-k times ``factors`` ``(gradient, constant)``.  ``closed`` says that
    :func:`integrate_parts` takes it in closed form: xi is not 0, and with d
    factors on dim-simplices (of the chart if any), k >= dim + d + 1.
    """

    __slots__ = ("weight", "factors", "chart", "degree", "power", "_key", "_hash")

    def __init__(self, weight, factors=(), chart=None):
        self.factors = tuple([(_read_only(g), c if c is None else float(c))
                              for g, c in factors])
        inner, key = weight.degree if isinstance(weight, Integrand) else None, weight
        if type(weight) is tuple:
            weight = (weight[0], _read_only(weight[1]))
            inner = weight[0].degree if any(weight[1].tolist()) else 0
            key = (weight[0], weight[1].tobytes())
        self.weight, self.chart = weight, chart
        self.degree = None if inner is None else len(self.factors) + inner
        power = weight.power if isinstance(weight, Integrand) else None
        if type(weight) is tuple and isinstance(weight[0], PowerLaw) and weight[0]._order:
            power = _PowerForm(False, weight[0]._order, *weight[0]._floats[:2], weight[1],
                               None, ())
        self.power = None
        if power is not None and power.chart is None:
            _, k, a, b, xi, _, factors = power
            factors = tuple((g, c or 0.0) for g, c in self.factors) + factors
            dim = len(xi) if chart is None else len(chart.basis)
            closed = any(xi.tolist()) and k >= dim + len(factors) + 1
            self.power = _PowerForm(closed, k, a, b, xi, chart, factors)
        # Floats are compared and hashed by their bytes: -0.0 is not 0.0.
        self._key = (key, tuple([(g.tobytes(), c if c is None else struct.pack("d", c))
                                 for g, c in self.factors]), chart)
        self._hash = hash(self._key)

    def __eq__(self, other):
        return type(other) is Integrand and other._key == self._key

    def __hash__(self):
        return self._hash

    def __call__(self, x):
        if self.chart is not None:
            x = self.chart.map_floats(x)
        out = None
        for g, c in self.factors:
            a = x @ g if c is None else x @ g + c
            out = a if out is None else out * a
        w = self.weight
        w = w[0].value(x @ w[1]) if type(w) is tuple else w(x)
        return w if out is None else out * w


def integrate_parts(parts, rule=DEFAULT_RULE):
    """Integration of several ``(f, simplices)`` parts at once.

    ``f`` is an :class:`Integrand` or any vectorised callable, and
    ``simplices`` a float stack of shape (k, n+1, n), of any n (an empty
    part integrates to 0).  An integrand whose ``degree`` the rule
    integrates exactly (at most ``2 * rule.gm_order + 1``) takes one pass
    with error 0, and so does any integrand on points (n = 0), where the
    rule is one node of weight 1: the point value.  Any other integrand
    whose ``power`` is closed takes the closed form of
    :func:`_power_law_parts`, all such parts of the call together; the
    rule's degree and depth do not matter to it, its tolerances decide
    ``converged``.  Every other part, a plain callable too, is adaptive.
    Returns one :class:`IntegrationResult` per part: the first pass of the
    nonempty exact and adaptive parts of each n is one batched
    :func:`_estimate`, after which each part has its own sum, tolerance
    test and refinement.

    Parts of one n whose integrands are equal (as values; a function by
    identity) enter that pass as one part, their simplices concatenated in
    part order, so the integrand is called once for all of them; each then
    takes back its own simplices' values, errors and halves, and refines
    in rounds (:func:`_refine`).  Each result is bit-identical to
    integrating that part alone if its integrand is row-wise to the bit,
    that is, a row's value does not depend on the other rows or on the
    array's length.  The numpy matrix products and ufuncs of every
    integrand here are, on OpenBLAS, for arrays of 2 rows or more; a 1-row
    product can round apart from the same row in a longer array, so a part
    whose first pass is one row (one simplex of a one-node rule, exact)
    keeps a pass of its own.  A refinement call has at least 6.
    """
    def exact(f, s):
        degree = f.degree if isinstance(f, Integrand) else None
        return s.shape[-1] == 0 or degree is not None and degree <= 2 * rule.gm_order + 1

    parts = [(f, np.asarray(s, dtype=float)) for f, s in parts]
    parts = [(f, s, exact(f, s)) for f, s in parts]
    out = [IntegrationResult(0.0, 0.0, True)] * len(parts)
    closed = {i: (f, s) for i, (f, s, ex) in enumerate(parts) if len(s) and not ex
              and isinstance(f, Integrand) and f.power and f.power.closed}
    if closed:
        for i, res in zip(closed, _power_law_parts(list(closed.values()), rule)):
            out[i] = res
    for n in {s.shape[2] for i, (_, s, _) in enumerate(parts) if len(s) and i not in closed}:
        bary, wts = gm_table(n, rule.gm_order)
        lower = _lower_rule(n, rule.gm_order)
        shared = {}  # integrand -> its parts of this n, all alike exact or not
        for i, (f, s, ex) in enumerate(parts):
            if len(s) and s.shape[2] == n and i not in closed:
                one_row = ex and len(s) * len(bary) == 1
                shared.setdefault((i,) if one_row else f, []).append(i)
        groups = list(shared.values())
        merged = [(parts[g[0]][0], np.concatenate([parts[i][1] for i in g])
                   if len(g) > 1 else parts[g[0]][1], parts[g[0]][2]) for g in groups]
        for g, (fine, errs, kids) in zip(groups, _estimate(merged, bary, wts, lower)):
            end = 0
            for i in g:
                start, end = end, end + len(parts[i][1])
                leaves = [None if a is None else a[start:end] for a in (fine, errs, kids)]
                out[i] = _refine(parts[i][0], *leaves, bary, wts, lower, rule)
    return out


def integrate_simplices(f, simplices, rule=DEFAULT_RULE):
    """The one-part call of :func:`integrate_parts`."""
    return integrate_parts([(f, simplices)], rule)[0]


def integrate_sum(parts, rule):
    """The sum of the :func:`integrate_parts` results, values and errors
    added in part order from 0.0; converged only if every part is."""
    value = error = 0.0
    converged = True
    for res in integrate_parts(parts, rule):
        value += res.value
        error += res.error
        converged = converged and res.converged
    return IntegrationResult(value, error, converged)


def integrate(polytope, f, rule=DEFAULT_RULE):
    """Integrate an integrand (see :func:`integrate_parts`) over the polytope."""
    return integrate_parts([(f, polytope.triangulation_floats())], rule)[0]


def integrate_boundary(polytope, f, rule=DEFAULT_RULE):
    """Integrate over the boundary with the lattice measure: each facet
    is pulled back through its unimodular chart and integrated as an
    (n-1)-dimensional interior integral.  In dimension one the facets are
    the two endpoints, points of measure one, and a sum that is not finite
    does not converge.
    """
    return integrate_sum(boundary_parts(polytope, f), rule)


def boundary_parts(polytope, f):
    """The parts of the boundary integral of ``f`` over a polytope: each
    genuine facet's triangulation, in facet order, with ``f`` pulled back
    through the facet's chart (a point's, in dimension 1)."""
    return [(Integrand(f, chart=polytope.facet_chart(i)), polytope.facet_triangulation_floats(i))
            for i in polytope.genuine_facet_indices()]


# -- closed-form oracles -------------------------------------------------------


def _barycentric_expansion(simplex, m):
    """x^m on a simplex as {e: c}, the Fraction coefficients of the
    monomials prod_i lambda_i^e_i in its barycentric coordinates lambda."""
    poly = {(0,) * len(simplex): Fraction(1)}
    for k, power in enumerate(m):
        lin = [(i, Fraction(v[k])) for i, v in enumerate(simplex) if v[k]]
        for _ in range(power):
            out = {}
            for e, c in poly.items():
                for i, a in lin:
                    e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
                    out[e2] = out.get(e2, 0) + c * a
            poly = out
    return poly


def _simplex_moment(simplex, m, nodes, dd):
    """int_S x^m h(<xi, x>) dx over one rational simplex S.

    ``nodes`` are the values <xi, v_i> at its vertices, and ``dd`` maps
    N + 1 nodes to the divided difference over them of an N-fold
    antiderivative of h.  By Hermite-Genocchi, int_S lambda^e h(<xi, x>) dx
    = |det| e! dd(node i repeated e_i + 1 times), with |det| = n! vol(S).
    """
    det = la.det([[a - b for a, b in zip(v, simplex[0])] for v in simplex[1:]])
    return abs(det) * sum(
        c * math.prod(map(math.factorial, e))
        * dd([t for t, k in zip(nodes, e) for _ in range(k + 1)])
        for e, c in _barycentric_expansion(simplex, m).items())


@lru_cache(maxsize=None)
def _power_table(n1, d, k):
    """For d affine factors on simplices of n1 vertices and the exponent -k:
    the 0/1 matrix that bins the ordered products of the factors' vertex
    values (row i_1 ... i_d in C order) into the exponents e, |e| = d, of
    the barycentric monomials lambda^e; each e's nodes, vertex i taken
    e_i + 1 times; and e! / prod_{j=1..N} (k - j), N = n1 - 1 + d."""
    es = list(_compositions(d, n1))
    bins = np.zeros((n1 ** d, len(es)))
    for row, idx in enumerate(product(range(n1), repeat=d)):
        bins[row, es.index(tuple(map(idx.count, range(n1))))] = 1
    nodes = np.array([[i for i, ei in enumerate(e) for _ in range(ei + 1)] for e in es])
    scale = [math.prod(map(math.factorial, e)) / math.prod(range(k - n1 + 1 - d, k))
             for e in es]
    return bins, nodes, np.array(scale)


def _in_chart(geo, chart):
    """``(x, x_abs, norms)`` of the k simplices of a stack's
    :func:`_geometry` entry ``geo``: their vertices' images under ``chart``
    (the vertices themselves if None), the magnitudes of the data each image
    coordinate is rounded from, and the product of each simplex's edge
    norms, read-only and kept in the entry per chart."""
    out = geo[3].get(chart)
    if out is None:
        s = geo[1][:len(geo[1]) if geo[0] is None else len(geo[0])]
        edges = s[:, 1:] - s[:, :1]
        x, x_abs = s, np.abs(s)
        if chart is not None:
            origin, basis = chart._float_frame
            basis = basis.reshape(s.shape[2], len(origin))
            x, x_abs = origin + s @ basis, np.abs(origin) + x_abs @ np.abs(basis)
        out = geo[3][chart] = x, x_abs, np.sqrt((edges * edges).sum(axis=2).prod(axis=1))
        for a in out:
            a.flags.writeable = False
    return out


@np.errstate(over="ignore", invalid="ignore")
def _power_law_parts(parts, rule):
    """:class:`IntegrationResult` of each ``(f, simplices)`` part whose
    integrand ``f`` is a closed power law (``f.power``), in closed form.

    The integrand is A (b + <xi, x>)^-k times d affine factors on
    dim-simplices, k >= N + 1 with N = dim + d.  On a simplex with vertices
    X_i (their images under the chart) the factors' product is sum_e c_e
    lambda^e, and by Hermite-Genocchi (see :func:`_simplex_moment`)

        int lambda^e A (b + <xi, x>)^-k = |det| e! A prod_i y_i^(e_i + 1)
            h_(k-N-1)(y; e + 1) / prod_{j=1..N} (k - j),

    with y_i = 1 / (b + <xi, X_i>) and h_m the complete homogeneous
    symmetric polynomial of the nodes y_i each taken e_i + 1 times: the
    divided difference of an N-fold antiderivative of (b + t)^-k.  Every
    term is positive and repeated nodes need no special case.  |det| is
    taken in the simplex's own coordinates (the lattice measure on a chart).

    The error is eps |A| (rho |det| + dim^3 prod |edge|) times the sum of
    the terms' magnitudes, plus eps |value|.  A node or factor value is
    rounded in at most ``steps`` steps (chart map, dot product, adding b or
    the constant), so its relative error is at most eps ``steps`` cond,
    cond the ratio of its data's magnitude to it; a term is a monomial of
    degree k in the 1/(b + t).  rho adds the kernel's steps, and dim^3
    times the Hadamard ratio prod |edge| / |det| bounds the determinant's.
    ``converged`` says that the error meets the rule's tolerance; terms
    that overflow give an infinite error.  b + t <= 0 at a vertex raises
    :class:`ProfileDomainError` (the first such node set's).

    The parts of one (n1, k, ambient dimension, chart or not, d) are one
    pass.  Each node set (stack, chart, xi, b and A) enters once, the
    weight-free data of its stack's :func:`_geometry` entry (|det|, and per
    chart the vertices' images, their magnitudes and edge norms) concatenated
    and its b, A and xi repeated to its rows; the bases, conditions and
    factor values are stacked matvecs, which round a row as a one-row
    product does.  Every step acts row by row, and for d <= 2 each bin of
    ``prods @ bins`` adds at most two entries, exactly, so a part keeps the
    bits it has alone.
    """
    eps, out, groups = sys.float_info.epsilon, [None] * len(parts), {}
    for i, (f, s) in enumerate(parts):
        power = f.power
        groups.setdefault((s.shape[1], power.k, len(power.xi), power.chart is None,
                           len(power.factors)), []).append(i)
    for (n1, k, amb, plain, d), idx in groups.items():
        dim, lens = n1 - 1, [len(parts[i][1]) for i in idx]
        sets, stacks, params, rows = {}, [], [], []
        for i in idx:
            f, s = parts[i]
            _, _, a, b, xi, chart, _ = f.power
            key = (s.shape, s.tobytes(), chart, xi.tobytes(), b, a)
            if key not in sets:
                sets[key] = sum(map(len, stacks))
                stacks.append(s)
                params.append((a, b, xi, chart))
            rows.extend(range(sets[key], sets[key] + len(s)))
        sizes, rows = [len(s) for s in stacks], np.array(rows)
        geometry = _geometry(stacks, [False] * len(stacks))
        x, x_abs, norms, det = (np.concatenate(col) for col in zip(*(
            (*_in_chart(geo, p[3]), geo[2][:size])
            for geo, p, size in zip(geometry, params, sizes))))
        steps = n1 if plain else amb + n1 + 2  # dot product, adding b; chart map
        a, b = np.array([p[:2] for p in params]).repeat(sizes, axis=0).T
        xi = np.array([p[2] for p in params]).repeat(sizes, axis=0)
        base = b[:, None] + np.matmul(x, xi[:, :, None])[..., 0]
        bad = ~(base.min(axis=1) > 0)
        if bad.any():
            raise ProfileDomainError(
                f"power-law pole: b + t <= 0 at a vertex, b={float(b[bad.argmax()])}")
        cond = ((np.abs(b)[:, None] + np.matmul(x_abs, np.abs(xi)[:, :, None])[..., 0])
                / base).max(axis=1)
        big_n = n1 - 1 + d
        rho = (k * (steps * cond + 2) + 2 * (big_n + 1) * (k - big_n) + big_n
               + math.comb(big_n, d) + d * (steps + 1) + n1 ** d + 6)
        bins, nodes, scale = _power_table(n1, d, k)
        y = (1 / base)[:, nodes]
        h = [np.ones(y.shape[:2])] + [np.zeros(y.shape[:2])] * (k - y.shape[2])
        for col in range(y.shape[2]):
            for j in range(1, len(h)):
                h[j] = h[j] + y[:, :, col] * h[j - 1]
        terms = (y.prod(axis=2) * h[-1] * scale)[rows]
        prods = np.ones((2, len(rows), 1))  # of the values, then of their magnitudes
        for j in range(d):
            g, c = (np.array([parts[i][0].power.factors[j][col] for i in idx]).repeat(
                lens, axis=0) for col in (0, 1))
            vals = np.array([np.matmul(x[rows], g[:, :, None])[..., 0] + c[:, None],
                             np.matmul(x_abs[rows], np.abs(g)[:, :, None])[..., 0]
                             + np.abs(c)[:, None]])
            prods = (prods[..., None] * vals[:, :, None, :]).reshape(2, len(rows), -1)
        values, units = (np.array([a * det, np.abs(a) * (rho * det + dim ** 3 * norms)])[:, rows]
                         * (prods @ bins * terms).sum(axis=2))
        end, value_list = 0, values.tolist()
        for i, size in zip(idx, lens):
            start, end = end, end + size
            err = eps * float(units[start:end].sum())
            finite = math.isfinite(err)  # then so is every value
            value = math.fsum(value_list[start:end]) if finite else float(values[start:end].sum())
            err = err + eps * abs(value) if finite else math.inf
            out[i] = IntegrationResult(value, err, finite and err <= max(
                rule.tol_abs, rule.tol_rel * abs(value)))
    return out


def _monomial_moment_simplex(simplex, m):
    """Exact integral of x^m over one rational simplex: h = 1, whose
    divided difference over N + 1 nodes is 1/N!."""
    return _simplex_moment(simplex, m, [0] * len(simplex),
                           lambda nodes: Fraction(1, math.factorial(len(nodes) - 1)))


def divided_difference_exp(nodes):
    """Confluent divided difference of exp over the node list.

    It is the corner entry of exp(Z), Z upper bidiagonal with the nodes on
    the diagonal and ones above it (Opitz); exact node repetitions are
    allowed.  exp(Z) is a Taylor sum of Z / 2**s, ||Z / 2**s||_1 <= 1/2,
    squared s times (McCurdy, Ng and Parlett, Math. Comp. 43, 1984).  Each
    entry of exp(Z / 2**k) is a positive multiple of a divided difference of
    exp and so positive: the squarings add positive terms and cancel nothing.
    """
    m = len(nodes)
    z = np.diag(np.asarray(nodes, dtype=float)) + np.eye(m, k=1)
    s = max(0, math.frexp(np.abs(z).sum(axis=0).max())[1] + 1)
    a = z / 2 ** s
    eye = np.eye(m)
    # The j-th Taylor term past an entry's first is at most (1/2)**j / j! of
    # it, so 16 more than the corner's m - 1 leave under 1e-18.
    terms = m + 16
    e = eye + a / terms
    for k in range(terms - 1, 0, -1):
        e = eye + a @ e / k
    for _ in range(s):
        e = e @ e
    return float(e[0, -1])


def _exp_moment_simplex(simplex, m, xi):
    """Integral of x^m e^{<xi,x>} over one rational simplex (float)."""
    xi = np.asarray(xi, dtype=float)
    nodes = [float(xi @ np.array([float(c) for c in v])) for v in simplex]
    return float(_simplex_moment(simplex, m, nodes, divided_difference_exp))


def moments(polytope, m=None, xi=None, mode="monomial"):
    """Closed-form moments, independent of the cubature path.

    ``mode='monomial'`` returns the exact rational integral of x^m over the
    polytope; ``mode='exponential'`` returns the float integral of
    x^m e^{<xi, x>} via confluent divided differences of exp at the simplex
    vertex values.
    """
    if m is None:
        m = tuple([0] * polytope.dim)
    m = tuple(int(k) for k in m)
    if mode == "monomial":
        return sum((_monomial_moment_simplex(s, m) for s in polytope.triangulate()),
                   Fraction(0))
    if mode == "exponential":
        if xi is None:
            raise ValueError("exponential moments need xi")
        return math.fsum(_exp_moment_simplex(s, m, xi)
                         for s in polytope.triangulate())
    raise ValueError(f"unknown mode {mode!r}")

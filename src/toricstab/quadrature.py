"""Numerical and exact integration over polytopes and their boundaries.

Interior integrals run Grundmann-Moller simplex cubature (exact to a
configurable polynomial degree) over an exact triangulation, with adaptive
longest-edge bisection driven by a coarse/fine error estimate for analytic
non-polynomial integrands.  One engine, :func:`integrate_parts`, takes a
list of (integrand, simplices[, degree]) parts of any dimensions, such as
the facets of a boundary or the cells of a PL function; :func:`integrate_sum`
adds their results.  A part may declare its integrand a polynomial of some
degree; if the rule (of degree 2s+1) integrates that degree exactly, the
part is evaluated once on its own simplices, and its value is the ``fsum``
of their rule sums with error 0.  Every other part is analytic: the first
pass calls its integrand once on its simplices and their bisection halves,
and sums its rule in one stacked product.  It then refines on its own, in
rounds: each evaluates, in one integrand call, the halves of up to
``_ROUND_CAP`` leaves the part must bisect before it can stop, then
replays the one-leaf-at-a-time loop exactly; every stop test reads exact
running sums of the leaves (see :func:`_refine`).  Parts of one dimension
that pass the same integrand object enter the first pass as one, their
simplices concatenated, and then part again; each keeps its own rule sums,
refinement and result.  Rounds and shared passes are bit-identical to one
evaluation per simplex for an integrand that is row-wise to the bit (see
:func:`integrate_parts`).
Boundary integrals pull each facet back through its unimodular chart,
which is affine, so a pulled-back polynomial keeps its degree and the
lattice boundary measure is built in.

The geometry of a simplex stack (its bisection into halves and the volumes
of simplices and halves) depends on neither the rule nor the integrand, and
the same few triangulations and refinement trees recur across the
invariants.  So it is computed once per stack, all new stacks of one
dimension in a call in one bisection and one batched determinant, and
kept in a bounded LRU of read-only arrays keyed by the stack's shape and
bytes (``_GEOMETRY_CACHE_SIZE`` entries).  Every result is bit-identical to
evaluating one simplex at a time, cache or no cache: bisection and
determinant act simplex by simplex, and numpy computes each row of the
stacked rule sum as the same 1-D dot.

``moments`` provides an independent closed-form path used as an oracle
against the cubature backend: x^m is expanded once in the barycentric
coordinates of each simplex, and each barycentric monomial integrates to a
divided difference, exactly (a rational) for monomial moments and through
confluent divided differences of exp, in numpy, for exponential ones.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count

import numpy as np

from . import _linalg as la


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
def _edges(n1):
    return np.triu_indices(n1, 1)  # (i, j) pairs, i < j, in loop order


# Halves and volumes of simplex stacks by (shape, bytes), least recently
# used first; see :func:`_geometry`.  Replaying the stack streams of whole
# benchmark runs (seeds 301-302) through an LRU, none needed more than 2,732
# entries (pl_sweep; weight_sweep 817, and blowup_ladder meets only 308
# stacks at seed 301, its corner parts that share an integrand merged into
# one stack) to miss only where an unbounded cache misses.  A
# pl_sweep run of twice that length needs
# 5,067 and misses 0.5% more at this bound.  A full cache holds about 7 MB
# (1.7 KB per pl_sweep entry with halves; about a third of that without).
_GEOMETRY_CACHE_SIZE = 4096
_geometry_cache = OrderedDict()


def _geometry(stacks, halves):
    """``(kids, allv, vols)`` of each (k, n+1, n) stack, all of one n.

    If ``halves[i]``, each simplex of stack i is bisected across its first
    longest edge into the two halves ``kids`` (k, 2, n+1, n); ``allv`` holds
    the k simplices, then their 2k halves, and ``vols`` their 3k volumes.
    A stack that only exact parts integrate needs no halves: its entry has
    ``kids`` None and the k simplices and volumes alone, and is built anew
    with halves if a later call needs them.  None of it depends on the rule
    or the integrand, so it is kept per stack under its shape and bytes (the
    shape tells apart stacks of equal bytes), with read-only arrays.  The
    misses of one call share one bisection and one batched ``det``; both act
    simplex by simplex, so a stored entry has the bits a fresh one would.
    """
    keys = [(s.shape, s.tobytes()) for s in stacks]
    out = [_geometry_cache.get(key) for key in keys]
    for i, key in enumerate(keys):
        if out[i] is not None and (out[i][0] is not None or not halves[i]):
            _geometry_cache.move_to_end(key)
        else:
            out[i] = None
    miss = [i for i, geo in enumerate(out) if geo is None]
    if not miss:
        return out
    verts = np.concatenate([stacks[i] for i in miss])
    k, n1, n = verts.shape
    if any(halves[i] for i in miss):
        iu, ju = _edges(n1)
        longest = np.argmax(np.sum((verts[:, iu] - verts[:, ju]) ** 2, axis=2), axis=1)
        rows, i, j = np.arange(k), iu[longest], ju[longest]
        mid = (verts[rows, i] + verts[rows, j]) / 2
        kids = np.repeat(verts[:, None], 2, axis=1)
        kids[rows, 0, i] = mid
        kids[rows, 1, j] = mid
    bounds = [0, *accumulate(len(stacks[i]) for i in miss)]
    blocks = []
    for i, a, b in zip(miss, bounds, bounds[1:]):
        blocks.append(verts[a:b])
        if halves[i]:
            blocks.append(kids[a:b].reshape(-1, n1, n))
    allv = np.concatenate(blocks)
    vols = np.abs(np.linalg.det(allv[:, 1:] - allv[:, :1])) / math.factorial(n)
    end = 0
    for i, a, b in zip(miss, bounds, bounds[1:]):
        start, end = end, end + (3 if halves[i] else 1) * (b - a)
        part_v, part_vols = allv[start:end].copy(), vols[start:end].copy()
        part_v.flags.writeable = part_vols.flags.writeable = False
        part_kids = part_v[b - a:].reshape(-1, 2, n1, n) if halves[i] else None
        out[i] = _geometry_cache[keys[i]] = (part_kids, part_v, part_vols)
    while len(_geometry_cache) > _GEOMETRY_CACHE_SIZE:
        _geometry_cache.popitem(last=False)
    return out


def _rule_sums(f, allv, vols, bary, wts):
    """Volume times rule sum of ``f`` on each simplex of an (N, n+1, n)
    stack, with one call of ``f`` on all their nodes, simplex after
    simplex.  The rule sums are one stacked ``matmul`` of (1, L) rows by the
    (L, 1) weights, which numpy computes as the same 1-D dot per row as
    ``float(wts @ r)``: both keep the bits of a per-simplex evaluation, for
    an integrand that is row-wise to the bit (see :func:`integrate_parts`)."""
    vals = np.asarray(f((bary @ allv).reshape(-1, allv.shape[2])), dtype=float)
    vals = vals.reshape(len(vols), -1)
    return vols * np.matmul(vals[:, None, :], wts[:, None])[:, 0, 0]


def _estimate(parts, bary, wts):
    """Fine values, errors and halves of each simplex of each part.

    ``parts`` holds ``(f, verts, exact)`` triples, each ``verts`` a
    (k, n+1, n) stack.  The halves and volumes come from :func:`_geometry`.
    Each part's integrand is called once, on that part's own block of nodes
    (its k simplices, then their 2k halves), exactly the array a one-part
    call would pass it.  An ``exact`` part, whose integrand the rule
    integrates exactly, needs no halves: it is called on its k simplices
    alone and gets the k rule sums as values, with errors and halves None.
    A part here may be several parts of :func:`integrate_parts` that share
    an integrand, merged; their integrand must then be row-wise to the bit
    for each to keep the bits of a pass of its own (see there).
    """
    out = []
    geometry = _geometry([v for _, v, _ in parts], [not e for _, _, e in parts])
    for (f, verts, exact), (kids, allv, vols) in zip(parts, geometry):
        m = len(verts)
        if exact:
            out.append((_rule_sums(f, allv[:m], vols[:m], bary, wts).tolist(), None, None))
            continue
        est = _rule_sums(f, allv, vols, bary, wts)
        fine = est[m::2] + est[m + 1::2]
        out.append((fine.tolist(), np.abs(est[:m] - fine).tolist(), kids))
    return out


def _estimate_leaves(f, halves, bary, wts):
    """:func:`_estimate` of several leaves of one part, each given as the
    (2, n+1, n) stack of its halves: one :func:`_geometry` lookup per leaf,
    as a pass of its own would make, and one integrand call on the nodes of
    every leaf in turn.  Returns each leaf's (fine, errs, kids)."""
    kids, allv, vols = zip(*_geometry(halves, [True] * len(halves)))
    est = _rule_sums(f, np.concatenate(allv), np.concatenate(vols), bary, wts)
    est = est.reshape(len(halves), 6)  # 2 halves, then their 4 halves
    fine = est[:, 2::2] + est[:, 3::2]
    return zip(fine.tolist(), np.abs(est[:, :2] - fine).tolist(), kids)


class _RunningSum:
    """Exact sum of a changing multiset of floats, equal to ``math.fsum`` of
    its members.

    Every finite double is a whole number of 2**-1074 units, so the finite
    members are one integer count of units: adding or removing one is exact,
    and ``total`` rounds once (int/int division is correctly rounded).  Only
    a total that itself overflows raises ``OverflowError``, where ``fsum``
    also raises on an overflow along the way.  Non-finite members are
    counted apart and then decide the total, as in ``fsum``.
    """

    def __init__(self, members):
        self.units = 0
        self.special = {}
        for x in members:
            self.add(x)

    def add(self, x):
        if math.isfinite(x):
            num, den = x.as_integer_ratio()  # den = 2**k, k <= 1074
            self.units += num << (1075 - den.bit_length())
        else:
            self.special[repr(x)] = self.special.get(repr(x), 0) + 1

    def remove(self, x):
        if math.isfinite(x):
            self.add(-x)
        else:
            self.special[repr(x)] -= 1

    def total(self):
        special = [float(k) for k, c in self.special.items() if c]
        return math.fsum(special) if special else self.units / (1 << 1074)


# The most leaves a refinement round pops.  At caps 1, 4, 8, 16 and 32,
# replaying the refinements of 4 weight_sweep cycles (seed 0) took 0.48,
# 0.35, 0.35, 0.37 and 0.37 s of CPU, and gram plus vol_w on the cube with
# ckem weights at xi = (0.5, 0, 0), a = 1/8 took 4.9, 3.3, 3.3, 3.5 and
# 4.5 s (medians of interleaved runs, shared 2-core x86-64 machine): more
# popped leaves are outranked by a new child and pushed back.
_ROUND_CAP = 8


def _refine(f, fine, errs, kids, bary, wts, rule):
    """Finish one part from its first pass.

    An exact part (errors None) sums its rule values, with error 0, or
    infinite if that sum is not finite.  Any other part bisects its worst
    leaf (largest |coarse - fine|, the earlier leaf on a tie) until the
    summed error meets the tolerance or every such leaf is at
    ``max_depth``.  An infinite or NaN error never counts as converged.
    The value and error are exact running sums of the leaves
    (:class:`_RunningSum`), read after every bisection: each equals the
    ``fsum`` of the leaves, and every stop test reads them.

    It does so in rounds of at most one integrand call.  A round pops, in
    key order and up to ``_ROUND_CAP``, the leaves that must be bisected
    before the loop can stop: while the error left after removing theirs
    still exceeds the tolerance (their children's errors are not negative).
    It evaluates the halves of those not yet evaluated in one
    :func:`_estimate_leaves` call, and then replays the one-leaf loop
    exactly.  Before each bisection the loop ends if the tolerance is met;
    if a child pushed in this round outranks the next popped leaf, that
    leaf and the rest go back on the heap, their halves' results kept for
    a later round.  So every leaf is bisected, and every child pushed, in
    the order of the one-leaf loop, with its bits.
    """
    if errs is None:
        value = math.fsum(fine)
        finite = math.isfinite(value)
        return IntegrationResult(value, 0.0 if finite else math.inf, finite)

    def tol(value):
        return max(rule.tol_abs, rule.tol_rel * abs(value))

    def converged(value, err):
        return err <= tol(value) and math.isfinite(err)  # inf <= tol(inf)

    value, err = math.fsum(fine), math.fsum(errs)
    if err <= tol(value):
        return IntegrationResult(value, err, converged(value, err))

    values, errors = _RunningSum(fine), _RunningSum(errs)
    # Heap entries (-error, key, depth, halves, value): worst, then oldest.
    heap = [(-e, key, 0, halves, v)
            for key, (v, e, halves) in enumerate(zip(fine, errs, kids))]
    heapq.heapify(heap)
    counter = count(len(heap))
    kept = {}  # key -> its halves' (fine, errs, kids), evaluated ahead
    while heap and err > tol(value):
        batch = []
        left = err - tol(value)
        while heap and len(batch) < _ROUND_CAP and (not batch or left > 0):
            batch.append(heapq.heappop(heap))
            if batch[-1][2] < rule.max_depth:
                left += batch[-1][0]
        new = [leaf for leaf in batch
               if leaf[2] < rule.max_depth and leaf[1] not in kept]
        if new:
            kept.update(zip([leaf[1] for leaf in new], _estimate_leaves(
                f, [leaf[3] for leaf in new], bary, wts)))
        for i, leaf in enumerate(batch):
            # The loop's own test negated: a NaN error stops here as there.
            if i and (heap and heap[0] < leaf or not err > tol(value)):
                for rest in batch[i:]:
                    heapq.heappush(heap, rest)
                break
            neg_e, key, depth, _, v = leaf
            if depth >= rule.max_depth:
                continue  # leaf stays counted but cannot be refined further
            values.remove(v)
            errors.remove(-neg_e)
            for v, e, halves in zip(*kept.pop(key)):
                values.add(v)
                errors.add(e)
                heapq.heappush(heap, (-e, next(counter), depth + 1, halves, v))
            value, err = values.total(), errors.total()
    return IntegrationResult(value, err, converged(value, err))


def product_degree(*degrees):
    """Degree of a product of polynomials of the given degrees; None (not a
    polynomial) if any factor's degree is None."""
    return None if None in degrees else sum(degrees)


def integrate_parts(parts, rule=DEFAULT_RULE):
    """Integration of several ``(f, simplices[, degree])`` parts at once.

    ``f`` is a vectorised integrand and ``simplices`` a float stack of shape
    (k, n+1, n), of any n (an empty part integrates to 0).  ``degree``
    declares ``f`` a polynomial of at most that degree; None, the default,
    means analytic.  A declared degree the rule integrates exactly (at most
    ``2 * rule.gm_order + 1``) takes one pass with error 0; every other part
    is adaptive.  Returns one :class:`IntegrationResult` per part: the first
    pass of the nonempty parts of each n is one batched :func:`_estimate`,
    after which each part has its own sum, tolerance test and refinement.

    Parts of one n that pass the same integrand object (``is``, not ``==``)
    and are alike exact or adaptive enter that pass as one part, their
    simplices concatenated in part order, so the integrand is called once
    for all of them; each then takes back its own simplices' values, errors
    and halves.  A part's refinement, too, evaluates the halves of several
    leaves in one call (:func:`_refine`).  Each result is bit-identical to
    integrating that part alone, one leaf per call, if its integrand is
    row-wise to the bit, that is, a row's value does not depend on the
    other rows or on the array's length.  The numpy matrix products and
    ufuncs of every integrand here are, on OpenBLAS, for arrays of 2 rows
    or more; a 1-row product can round apart from the same row in a longer
    array, so a part whose first pass is one row (one simplex of a one-node
    rule, exact) keeps a pass of its own.  A refinement call has at least 6.
    """
    def exact(degree=None):
        return degree is not None and degree <= 2 * rule.gm_order + 1

    parts = [(f, np.asarray(s, dtype=float), exact(*degree))
             for f, s, *degree in parts]
    out = [IntegrationResult(0.0, 0.0, True)] * len(parts)
    for n in {s.shape[2] for _, s, _ in parts if len(s)}:
        bary, wts = gm_table(n, rule.gm_order)
        shared = {}  # (integrand, exact) -> its parts of this n
        for i, (f, s, ex) in enumerate(parts):
            if len(s) and s.shape[2] == n:
                one_row = ex and len(s) * len(bary) == 1
                shared.setdefault((i,) if one_row else (id(f), ex), []).append(i)
        groups = list(shared.values())
        merged = [(parts[g[0]][0], np.concatenate([parts[i][1] for i in g])
                   if len(g) > 1 else parts[g[0]][1], parts[g[0]][2]) for g in groups]
        for g, (fine, errs, kids) in zip(groups, _estimate(merged, bary, wts)):
            end = 0
            for i in g:
                start, end = end, end + len(parts[i][1])
                out[i] = _refine(parts[i][0], fine[start:end],
                                 None if errs is None else errs[start:end],
                                 None if kids is None else kids[start:end],
                                 bary, wts, rule)
    return out


def integrate_simplices(f, simplices, rule=DEFAULT_RULE, degree=None):
    """Integration of a vectorised integrand over float simplices: the
    one-part call of :func:`integrate_parts`."""
    return integrate_parts([(f, simplices, degree)], rule)[0]


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


def integrate(polytope, f, rule=DEFAULT_RULE, degree=None):
    """Integrate a vectorised scalar function over the polytope; ``degree``
    as in :func:`integrate_parts`."""
    return integrate_simplices(f, polytope.triangulation_floats(), rule, degree)


def integrate_boundary(polytope, f, rule=DEFAULT_RULE, degree=None):
    """Integrate over the boundary with the lattice measure; ``degree`` as
    in :func:`integrate_parts`.

    In dimension one the boundary consists of the two endpoints, each of
    measure one.  Otherwise each facet is pulled back through its unimodular
    chart and integrated as an (n-1)-dimensional interior integral.
    """
    if polytope.dim == 1:
        pts = polytope.vertices_floats()
        vals = np.asarray(f(pts), dtype=float)
        return IntegrationResult(float(np.sum(vals)), 0.0, True)
    return integrate_sum([(pullback(polytope.facet_chart(i), f),
                           polytope.facet_triangulation_floats(i), degree)
                          for i in polytope.genuine_facet_indices()], rule)


def pullback(chart, f):
    """f pulled back through a facet chart, y -> f(chart(y)): an integrand
    over the facet's triangulation in chart coordinates.  The float chart
    depends on the facet's hyperplane alone."""
    return lambda y: f(chart.map_floats(y))


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

import decimal
import heapq
import json
import math
from collections import Counter, OrderedDict
from decimal import Decimal
from fractions import Fraction as F
from itertools import count, product
from pathlib import Path

import numpy as np
import pytest

from toricstab import catalog, quadrature
from toricstab.invariants import gram_integrands, moment_integrands
from toricstab.polytope import DelzantPolytope, Facet, _clip
from toricstab.profiles import builtin
from toricstab.quadrature import (DEFAULT_RULE, IntegrationResult,
                                  QuadratureRule, _estimate, _RunningSum,
                                  divided_difference_exp, gm_table, integrate,
                                  integrate_boundary, integrate_parts,
                                  integrate_simplices, integrate_sum, moments)


class TestRuleExactness:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_weights_sum_to_one(self, dim):
        _, w = gm_table(dim, DEFAULT_RULE.gm_order)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_monomial_exactness_on_reference_simplex(self, dim):
        s = DEFAULT_RULE.gm_order
        degree = 2 * s + 1
        bary, w = gm_table(dim, s)
        verts = np.vstack([np.zeros(dim), np.eye(dim)])
        nodes = bary @ verts
        vol = 1.0 / math.factorial(dim)
        for m in product(range(degree + 1), repeat=dim):
            if sum(m) > degree:
                continue
            approx = vol * float(w @ np.prod(nodes ** np.array(m), axis=1))
            exact = (np.prod([math.factorial(k) for k in m])
                     / math.factorial(dim + sum(m)))
            assert approx == pytest.approx(exact, rel=5e-13, abs=1e-15), m


class TestIntegrate:
    def test_unit_square_constant(self, square):
        res = integrate(square, lambda x: np.ones(len(x)))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.converged

    def test_interval_exponential(self, unit_interval):
        res = integrate(unit_interval, lambda x: np.exp(x[:, 0]))
        assert res.value == pytest.approx(math.e - 1, rel=1e-12)

    def test_simplex_xy_moment(self, simplex):
        res = integrate(simplex, lambda x: x[:, 0] * x[:, 1])
        assert res.value == pytest.approx(1 / 24, rel=1e-13)

    def test_agrees_with_exact_moments(self, trapezoid):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = (int(rng.integers(0, 7)), int(rng.integers(0, 6)))
            exact = float(moments(trapezoid, m))
            got = integrate(trapezoid, lambda x: x[:, 0] ** m[0] * x[:, 1] ** m[1]).value
            assert abs(got - exact) <= 1e-12 * (1 + abs(exact)), m

    def test_additivity_over_subdivision(self, square):
        # Integrating over the two chop cells reproduces the whole.
        left = DelzantPolytope(2, list(square.facets) + [((-1, -1), F(3, 4))])
        right = DelzantPolytope(2, list(square.facets) + [((1, 1), F(-3, 4))])
        f = lambda x: np.exp(0.3 * x[:, 0] - 0.7 * x[:, 1])
        total = integrate(square, f).value
        assert (integrate(left, f).value + integrate(right, f).value
                == pytest.approx(total, rel=1e-10))

    def test_nonconvergence_is_flagged(self, unit_interval):
        rule = QuadratureRule(degree=2, tol_abs=1e-30, tol_rel=1e-30,
                              max_depth=2)
        res = integrate(unit_interval, lambda x: np.exp(5 * x[:, 0]), rule)
        assert not res.converged


# -- per-simplex reference: the adaptive scheme one simplex at a time --------


def _simplex_volume(verts):
    n = verts.shape[1]
    return abs(np.linalg.det(verts[1:] - verts[0])) / math.factorial(n)


def _gm_apply(f, verts, bary, wts):
    nodes = bary @ verts
    vals = np.asarray(f(nodes), dtype=float)
    return _simplex_volume(verts) * float(wts @ vals)


def _bisect(verts):
    n1 = verts.shape[0]
    best = (0, 1)
    best_d = -1.0
    for i in range(n1):
        for j in range(i + 1, n1):
            d = float(np.sum((verts[i] - verts[j]) ** 2))
            if d > best_d:
                best_d = d
                best = (i, j)
    i, j = best
    mid = (verts[i] + verts[j]) / 2
    a = verts.copy()
    a[i] = mid
    b = verts.copy()
    b[j] = mid
    return a, b


def reference_integrate_simplices(f, simplices, rule=DEFAULT_RULE):
    if len(simplices) == 0:
        return IntegrationResult(0.0, 0.0, True)
    bary, wts = gm_table(simplices.shape[2], rule.gm_order)

    counter = count()
    entries = {}
    heap = []

    def push(verts, depth):
        coarse = _gm_apply(f, verts, bary, wts)
        kids = _bisect(verts)
        fine = _gm_apply(f, kids[0], bary, wts) + _gm_apply(f, kids[1], bary, wts)
        err = abs(coarse - fine)
        key = next(counter)
        entries[key] = (fine, err)
        heapq.heappush(heap, (-err, key, verts, depth, kids))

    for s in simplices:
        push(np.asarray(s, dtype=float), 0)

    def totals():
        vals = [v for v, _ in entries.values()]
        errs = [e for _, e in entries.values()]
        return math.fsum(vals), math.fsum(errs)

    value, err = totals()
    while heap:
        tol = max(rule.tol_abs, rule.tol_rel * abs(value))
        if err <= tol:
            break
        _, key, verts, depth, kids = heapq.heappop(heap)
        if depth >= rule.max_depth:
            continue  # leaf stays counted but cannot be refined further
        del entries[key]
        push(kids[0], depth + 1)
        push(kids[1], depth + 1)
        value, err = totals()
    return IntegrationResult(value, err, err <= max(rule.tol_abs, rule.tol_rel * abs(value)))


def _counted(f):
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return f(x)
    return wrapped, calls


INTEGRANDS = {
    "polynomial": lambda x: 1.0 + np.sum(x ** 3, axis=1) - 2.0 * x[:, 0] * x[:, -1],
    "exponential": lambda x: np.exp(x @ np.linspace(0.7, -1.3, x.shape[1])),
    "near_pole": lambda x: (np.sum(x, axis=1) + 0.02) ** -1.5,
}


@pytest.fixture
def geometry_cache(monkeypatch):
    """An empty stack-geometry cache for one test."""
    cache = OrderedDict()
    monkeypatch.setattr(quadrature, "_geometry_cache", cache)
    return cache


def cold_then_warm(cache, run):
    """``run()`` on an empty geometry cache, then again on the cache it
    filled; the second pass must find every stack there."""
    cache.clear()
    cold = run()
    size = len(cache)
    warm = run()
    assert len(cache) == size
    return cold, warm


def _recorded(f):
    """f, and a log of the rows of each call to it."""
    log = []

    def wrapped(x):
        log.append(np.array(x))
        return f(x)
    return wrapped, log


def _rows(log):
    return Counter(row.tobytes() for x in log for row in x)


class TestBatchedMatchesPerSimplex:
    """The batched engine returns the per-simplex scheme's bits exactly, from
    an empty geometry cache and from a filled one.  Its integrand sees
    exactly the rows the per-simplex scheme evaluates, no leaf more, in at
    most one call per pass (1 + the number of refinements): refinement
    evaluates in rounds, one call for every leaf a round must bisect, and
    replays the one-leaf loop.  Every stop test reads exact running sums,
    which must equal the reference's ``fsum`` over every leaf."""

    @pytest.fixture(autouse=True)
    def _cache(self, geometry_cache):
        self.cache = geometry_cache

    def check(self, f, simplices, rule=DEFAULT_RULE):
        """The reference result, its number of refinements and the calls
        the batched engine made."""
        ref_f, ref_log = _recorded(f)
        want = reference_integrate_simplices(ref_f, simplices, rule)
        # The reference makes 3 rule applications per leaf it creates:
        # one per input simplex and two per refinement.
        refinements = (len(ref_log) // 3 - len(simplices)) // 2

        def run():
            new_f, log = _recorded(f)
            got = integrate_simplices(new_f, simplices, rule)
            assert _rows(log) == _rows(ref_log)
            assert len(log) <= (1 + refinements if len(simplices) else 0)
            return got, len(log)

        (cold, calls), (warm, warm_calls) = cold_then_warm(self.cache, run)
        assert calls == warm_calls
        for got in (cold, warm):
            assert got.value == want.value
            assert got.error == want.error
            assert got.converged == want.converged
        return want, refinements, calls

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(INTEGRANDS))
    def test_random_stacks(self, dim, kind):
        rng = np.random.default_rng(100 + dim)
        simplices = rng.random((int(rng.integers(1, 6)), dim + 1, dim))
        rule = QuadratureRule(degree=6, tol_rel=1e-9)
        _, refinements, calls = self.check(INTEGRANDS[kind], simplices, rule)
        if kind == "near_pole":
            assert 0 < refinements and calls < 1 + refinements

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", range(7))
    def test_every_order(self, dim, s):
        rng = np.random.default_rng(10 * dim + s)
        simplices = rng.random((2, dim + 1, dim))
        self.check(INTEGRANDS["near_pole"], simplices,
                   QuadratureRule(degree=2 * s, tol_rel=1e-8, max_depth=6))

    @pytest.mark.parametrize("dim", [3, 4])
    def test_standard_simplex_ties(self, dim):
        # The edges e_i - e_j (i, j >= 1) tie for longest: the tie-break
        # decides the bisection, and refinement makes it matter.
        simplices = np.vstack([np.zeros(dim), np.eye(dim)])[None]
        _, refinements, calls = self.check(
            lambda x: np.exp(3 * x[:, 0] - 2 * x[:, -1]),
            simplices, QuadratureRule(degree=4, tol_rel=1e-7))
        assert refinements > 1 and calls < 1 + refinements

    def test_depth_cap(self):
        simplices = np.array([[[0.0], [1.0]], [[1.0], [3.0]]])
        want, refinements, _ = self.check(
            lambda x: np.exp(5 * x[:, 0]), simplices,
            QuadratureRule(degree=2, tol_abs=1e-30, tol_rel=1e-30, max_depth=2))
        assert not want.converged and refinements == 6

    def test_empty_stack(self):
        want, _, _ = self.check(INTEGRANDS["polynomial"], np.zeros((0, 3, 2)))
        assert want == IntegrationResult(0.0, 0.0, True)

    SQUARE = np.array([[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]], float)

    @pytest.mark.parametrize("f, rule, converged", [
        (lambda x: (x[:, 0] + 0.3 * x[:, 1] + 0.01) ** -1.5,
         QuadratureRule(degree=2, tol_rel=1e-12, max_depth=9), False),
        (lambda x: np.exp(4 * x[:, 0] - 3 * x[:, 1]),
         QuadratureRule(degree=4, tol_rel=1e-12), True)], ids=["depth_cap", "converges"])
    def test_many_leaves(self, f, rule, converged):
        # About 1,000 and 2,000 refinements: the running sums must still
        # give the bits of a full fsum over every leaf at every stop test.
        want, refinements, calls = self.check(f, self.SQUARE, rule)
        assert refinements > 500 and want.converged == converged
        assert calls < (1 + refinements) / 2

    def test_exact_sums_decide_a_stop_inside_the_float_bound(self):
        # The tolerance is the exact error sum of a state the loop passes,
        # closer to it than float sums' roundoff: the exact running sums
        # must stop the loop there, at the first state whose error sum
        # meets it, and not one bisection earlier or later.
        f = lambda x: np.exp(4 * x[:, 0] - 3 * x[:, 1])
        stop = integrate_simplices(f, self.SQUARE, QuadratureRule(degree=4, tol_rel=1e-9))
        want, _, _ = self.check(f, self.SQUARE,
                                QuadratureRule(degree=4, tol_abs=stop.error, tol_rel=0.0))
        assert want.error == stop.error and want.converged


class TestIntegrateParts:
    """One engine call over several parts returns, part by part, what a
    one-part call returns, with one integrand call per part in the shared
    first pass."""

    RULE = QuadratureRule(degree=6, tol_rel=1e-9, max_depth=3)

    def parts(self):
        rng = np.random.default_rng(11)
        tri = np.array([[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]], float)
        return {
            "empty": (INTEGRANDS["polynomial"], np.zeros((0, 3, 2))),
            "first_pass": (INTEGRANDS["polynomial"], rng.random((3, 3, 2))),
            "refines": (INTEGRANDS["exponential"], 2 * rng.random((2, 3, 2))),
            "depth_cap": (lambda x: (x[:, 0] + 0.3 * x[:, 1] + 0.01) ** -1.5, tri),
        }

    def test_equals_one_part_calls(self, geometry_cache):
        parts = self.parts()
        alone = {}
        for name, (f, s) in parts.items():
            alone_f, alone_calls = _counted(f)
            alone[name] = (integrate_simplices(alone_f, s, self.RULE), alone_calls[0])

        def run():
            counted = {name: _counted(f) for name, (f, _) in parts.items()}
            got = integrate_parts([(counted[name][0], s)
                                   for name, (_, s) in parts.items()], self.RULE)
            return got, {name: c[0] for name, (_, c) in counted.items()}

        for got, calls in cold_then_warm(geometry_cache, run):
            for (name, (f, s)), res in zip(parts.items(), got):
                one, one_calls = alone[name]
                assert (res.value, res.error, res.converged) == (
                    one.value, one.error, one.converged), name
                assert res == reference_integrate_simplices(f, s, self.RULE), name
                assert calls[name] == one_calls, name
            assert calls["empty"] == 0 and calls["first_pass"] == 1
            assert calls["refines"] > 1 and calls["depth_cap"] > 1
            assert got[1].converged and got[2].converged and not got[3].converged

    def test_no_parts_and_only_empty_parts(self, geometry_cache):
        empty = (INTEGRANDS["polynomial"], np.zeros((0, 3, 2)))
        for _ in range(2):
            assert integrate_parts([]) == []
            assert integrate_parts([empty, empty]) == [IntegrationResult(0.0, 0.0, True)] * 2
        assert not geometry_cache


class TestSharedIntegrand:
    """Parts of one n that pass the same integrand object and are alike
    exact or adaptive enter the first pass as one part, their simplices
    concatenated; each part still gets, bit for bit, what a one-part call
    gives it."""

    RULE = QuadratureRule(degree=6, tol_rel=1e-9, max_depth=3)

    @staticmethod
    def recording(f, log):
        """f, logging the (rows, n) of each call under the wrapper."""
        def g(x):
            log.setdefault(g, []).append(x.shape)
            return f(x)
        return g

    def test_shared_parts_equal_one_part_calls(self, geometry_cache):
        rng = np.random.default_rng(16)
        tri = np.array([[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]], float)
        poly, exp = INTEGRANDS["polynomial"], INTEGRANDS["exponential"]
        pole = lambda x: (x[:, 0] + 0.3 * x[:, 1] + 0.01) ** -1.5
        parts = [(poly, rng.random((3, 3, 2)), 3),             # exact
                 (exp, 2 * rng.random((2, 3, 2))),              # refines
                 (pole, tri),                                   # stops at max_depth
                 (poly, np.zeros((0, 3, 2)), 3),                # empty
                 (exp, rng.random((2, 4, 3))),                  # another n
                 (INTEGRANDS["near_pole"], rng.random((2, 3, 2))),  # unshared
                 (poly, rng.random((2, 3, 2))),                 # adaptive, same object
                 (exp, rng.random((1, 2, 1))),                  # n = 1
                 (pole, rng.random((2, 3, 2)) + 0.2),
                 (exp, 2 * rng.random((3, 3, 2))),
                 (poly, np.zeros((0, 4, 3))),
                 (exp, rng.random((3, 4, 3)), 3),               # exact in n = 3
                 (poly, rng.random((1, 3, 2)), 3)]
        want = [integrate_simplices(*p[:2], self.RULE, *p[2:]) for p in parts]
        assert want[0].error == 0.0 and want[3] == IntegrationResult(0.0, 0.0, True)
        assert want[1].converged and not want[2].converged
        for got in cold_then_warm(geometry_cache,
                                  lambda: integrate_parts(parts, self.RULE)):
            assert got == want
        for i in (1, 2, 6, 8, 9):
            f, s = parts[i]
            assert want[i] == reference_integrate_simplices(f, s, self.RULE), i

    def test_one_first_pass_call_per_shared_integrand(self, geometry_cache):
        rng = np.random.default_rng(17)
        base = {"poly": INTEGRANDS["polynomial"], "exp": INTEGRANDS["exponential"],
                "own": INTEGRANDS["near_pole"]}
        parts = [("poly", rng.random((3, 3, 2)), 3), ("exp", 2 * rng.random((2, 3, 2))),
                 ("own", rng.random((2, 3, 2))), ("poly", rng.random((2, 3, 2))),
                 ("exp", rng.random((2, 4, 3))), ("poly", rng.random((1, 3, 2)), 3),
                 ("exp", 2 * rng.random((3, 3, 2))), ("poly", rng.random((2, 4, 3)), 3)]
        log = {}
        shared = {name: self.recording(f, log) for name, f in base.items()}
        integrate_parts([(shared[name], *rest) for name, *rest in parts], self.RULE)
        # Per integrand and n: one first-pass call on the rows of all its
        # exact parts and one on those of all its adaptive parts, in order
        # of first appearance, then the refinements a one-part call of each
        # part makes.
        first, refinements = {}, Counter()
        for name, s, *degree in parts:
            n, nodes = s.shape[2], len(gm_table(s.shape[2], self.RULE.gm_order)[0])
            rows = len(s) * (1 if degree else 3) * nodes
            first.setdefault((name, n), Counter())[bool(degree)] += rows
            alone = {}
            integrate_parts([(self.recording(base[name], alone), s, *degree)], self.RULE)
            [calls] = alone.values()
            assert calls[0] == (rows, n)
            refinements[name, n] += len(calls) - 1
        assert refinements["exp", 2] > 0 and refinements["own", 2] > 0
        assert len(first["poly", 2]) == 2
        for (name, n), rows in first.items():
            calls = [shape for shape in log[shared[name]] if shape[1] == n]
            assert calls[:len(rows)] == [(r, n) for r in rows.values()], (name, n)
            assert len(calls) == len(rows) + refinements[name, n], (name, n)

    def test_one_row_blocks_are_not_shared(self, geometry_cache):
        # A one-node rule on one simplex: a 1-row product, which can round
        # apart from the same row inside a longer array.
        rule = QuadratureRule(degree=1)
        rng = np.random.default_rng(18)
        log = {}
        f = self.recording(INTEGRANDS["exponential"], log)
        parts = [(f, rng.random((1, 3, 2)), 1), (f, rng.random((2, 3, 2)), 1),
                 (f, rng.random((1, 3, 2)), 1), (f, rng.random((3, 3, 2)), 1)]
        got = integrate_parts(parts, rule)
        assert log[f] == [(1, 2), (5, 2), (1, 2)]
        assert got == [integrate_simplices(*p[:2], rule, p[2]) for p in parts]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_many_parts_equal_each_alone_at_every_order(self, dim, geometry_cache):
        # One integrand over many exact and adaptive parts keeps each
        # part's bits at every rule order (one node at s = 0), beside parts
        # with integrands of their own.
        rng = np.random.default_rng(50 + dim)
        g = rng.standard_normal(dim)
        f = lambda x: np.exp(x @ g) * (x[:, 0] + 1.5) ** -1.5
        for s in range(7):
            rule = QuadratureRule(degree=2 * s + 1, max_depth=1)
            parts = [(f if rng.random() < 0.7 else lambda x: np.cos(x @ g),
                      rng.random((int(rng.integers(1, 6)), dim + 1, dim)),
                      *([2 * s + 1] if rng.random() < 0.5 else [])) for _ in range(25)]
            assert integrate_parts(parts, rule) == [
                integrate_simplices(p[0], p[1], rule, *p[2:]) for p in parts], s


def _abs_moment(P, m):
    """int_P |x^m| dx, exactly: |moments| summed over the pieces of P in
    the orthants of the coordinates with odd exponents."""
    odd = [k for k, e in enumerate(m) if e % 2]
    total = F(0)
    for signs in product((1, -1), repeat=len(odd)):
        piece = _clip(P, [Facet.make([s * (i == k) for i in range(P.dim)], 0)
                          for s, k in zip(signs, odd)]) if odd else P
        if piece is not None:
            total += abs(moments(piece, m))
    return total


def _catalog_and_chops():
    """Every catalog polytope and, from dimension 2 on, one corner chop."""
    out = []
    for name in catalog.names():
        P = catalog.load(name)
        out.append(P)
        if P.dim >= 2:
            out.append(P.corner_chop(0, P.admissible_chop(0) / 2))
    return out


class TestDeclaredDegree:
    """A part declared a polynomial within the rule's exactness takes one
    pass with error 0; any other part is adaptive, bit for bit."""

    RULE = QuadratureRule(degree=6, tol_rel=1e-9, max_depth=3)

    @pytest.mark.parametrize("P", _catalog_and_chops(), ids=lambda P: P.name)
    def test_monomials_match_exact_moments(self, P):
        for m in product(range(4), repeat=P.dim):
            if sum(m) > 3:
                continue
            res = integrate(P, lambda x: np.prod(x ** np.array(m), axis=1),
                            degree=sum(m))
            # Relative to int |x^m|: the rule's weights alternate in sign,
            # so its rounding scales with that, not with |int x^m|.
            exact = moments(P, m)
            assert abs(res.value - exact) <= 1e-14 * _abs_moment(P, m), m
            assert res.error == 0.0 and res.converged, m

    def test_one_call_on_the_simplices_alone(self, geometry_cache):
        simplices = np.random.default_rng(12).random((5, 4, 3))
        f, calls = _counted(INTEGRANDS["polynomial"])
        points = []
        res = integrate_simplices(lambda x: points.append(len(x)) or f(x),
                                  simplices, self.RULE, degree=3)
        bary, wts = gm_table(3, self.RULE.gm_order)
        assert calls[0] == 1 and points == [len(simplices) * len(bary)]
        rows = [_gm_apply(INTEGRANDS["polynomial"], s, bary, wts) for s in simplices]
        assert res == IntegrationResult(math.fsum(rows), 0.0, True)

    @pytest.mark.parametrize("kind", sorted(INTEGRANDS))
    def test_undeclared_and_too_high_stay_adaptive(self, kind, geometry_cache):
        simplices = np.random.default_rng(13).random((4, 3, 2))
        f = INTEGRANDS[kind]
        want = reference_integrate_simplices(f, simplices, self.RULE)
        too_high = 2 * self.RULE.gm_order + 2
        assert integrate_simplices(f, simplices, self.RULE) == want
        assert integrate_simplices(f, simplices, self.RULE, too_high) == want
        assert integrate_parts([(f, simplices), (f, simplices, None),
                                (f, simplices, too_high)], self.RULE) == [want] * 3

    def test_mixed_parts_equal_one_part_calls(self, geometry_cache):
        # Exact and adaptive parts of dimensions 1, 2 and 3, interleaved,
        # and an empty part: one batch per dimension, results in part order.
        rng = np.random.default_rng(14)
        parts = [(INTEGRANDS["polynomial"], rng.random((3, 3, 2)), 3),
                 (INTEGRANDS["near_pole"], rng.random((2, 2, 1))),
                 (INTEGRANDS["near_pole"], rng.random((2, 3, 2))),
                 (INTEGRANDS["polynomial"], np.zeros((0, 4, 3)), 3),
                 (INTEGRANDS["exponential"], rng.random((2, 4, 3))),
                 (INTEGRANDS["polynomial"], rng.random((3, 2, 1)), 3),
                 (INTEGRANDS["exponential"], rng.random((2, 3, 2)), None)]
        want = [integrate_simplices(*p[:2], self.RULE, *p[2:]) for p in parts]
        assert want[3] == IntegrationResult(0.0, 0.0, True)
        for got in cold_then_warm(geometry_cache,
                                  lambda: integrate_parts(parts, self.RULE)):
            assert got == want

    def test_exact_parts_store_no_halves_until_needed(self, geometry_cache):
        simplices = np.random.default_rng(15).random((3, 3, 2))
        f = INTEGRANDS["polynomial"]
        exact = integrate_simplices(f, simplices, self.RULE, degree=3)
        [(kids, allv, vols)] = geometry_cache.values()
        assert kids is None and len(allv) == len(vols) == 3
        # An adaptive part on the same stack rebuilds the entry with halves,
        # and an exact part reads the k volumes from that entry too.
        assert (integrate_simplices(f, simplices, self.RULE)
                == reference_integrate_simplices(f, simplices, self.RULE))
        [(kids, allv, vols)] = geometry_cache.values()
        assert kids.shape == (3, 2, 3, 2) and len(allv) == len(vols) == 9
        assert integrate_simplices(f, simplices, self.RULE, degree=3) == exact
        assert len(geometry_cache) == 1

    def test_overflowing_part_is_not_converged(self):
        # Infinite at the one node nearest the vertex (1, 0), whose weight
        # is positive.
        res = integrate_simplices(
            lambda x: np.where(x[:, 0] == x[:, 0].max(), np.inf, 1.0),
            [[[0, 0], [1, 0], [0, 1]]], degree=0)
        assert res.value == math.inf and res.error == math.inf
        assert not res.converged


class TestGeometryCache:
    """Stack geometry is kept per (shape, bytes), bounded, read-only, and
    changes no bit of any result."""

    def test_equal_bytes_of_other_shape_are_another_stack(self, geometry_cache):
        flat = np.random.default_rng(5).random(12)
        f = INTEGRANDS["exponential"]
        rule = QuadratureRule(degree=4, tol_rel=1e-9, max_depth=3)
        for shape in [(1, 4, 3), (2, 3, 2), (1, 4, 3)]:
            simplices = flat.reshape(shape)
            assert (integrate_simplices(f, simplices, rule)
                    == reference_integrate_simplices(f, simplices, rule)), shape
        assert {shape for shape, _ in geometry_cache} >= {(1, 4, 3), (2, 3, 2)}

    def test_size_stays_within_the_bound(self, geometry_cache, monkeypatch):
        monkeypatch.setattr(quadrature, "_GEOMETRY_CACHE_SIZE", 3)
        sizes = []

        def f(x):
            sizes.append(len(geometry_cache))
            return INTEGRANDS["near_pole"](x)

        rng = np.random.default_rng(8)
        for dim in (1, 2, 3):
            simplices = rng.random((3, dim + 1, dim))
            rule = QuadratureRule(degree=4, tol_rel=1e-10, max_depth=4)
            assert (integrate_simplices(f, simplices, rule)
                    == reference_integrate_simplices(INTEGRANDS["near_pole"],
                                                     simplices, rule))
            sizes.append(len(geometry_cache))
        assert len(sizes) > 20 and max(sizes) == 3

    def test_cached_arrays_are_read_only(self, geometry_cache):
        integrate_simplices(INTEGRANDS["exponential"],
                            np.random.default_rng(9).random((2, 3, 2)))
        [(kids, allv, vols)] = geometry_cache.values()
        for array in (kids, allv, vols):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_stacked_rule_sums_equal_per_row_dots(self, dim, geometry_cache):
        # A matrix-vector product (``vals @ wts``) sums in another order
        # and changes some of these bits.
        rng = np.random.default_rng(40 + dim)
        stacks = [rng.random((int(rng.integers(1, 8)), dim + 1, dim)) for _ in range(40)]
        for degree in (2, 6, 12):
            bary, wts = gm_table(dim, degree // 2)
            for verts in stacks:
                f = lambda x: np.exp(x @ rng.standard_normal(dim)) + 1 / (x[:, 0] + 0.01)
                nodes, vals = [], []

                def g(x):
                    nodes.append(x)
                    vals.append(f(x))
                    return vals[-1]

                [(fine, errs, kids), (exact, no_errs, no_kids)] = _estimate(
                    [(g, verts, False), (g, verts, True)], bary, wts)
                _, allv, vols = quadrature._geometry([verts], [True])[0]
                rows = vals[0].reshape(len(allv), -1)
                est = [v * float(wts @ r) for v, r in zip(vols, rows)]
                m = len(verts)
                want = [est[m + 2 * r] + est[m + 2 * r + 1] for r in range(m)]
                assert fine == want
                assert errs == [abs(c - x) for c, x in zip(est[:m], want)]
                # An exact part takes the same rule sums on its simplices alone.
                assert np.array_equal(nodes[1], nodes[0][:len(nodes[1])])
                assert exact == [v * float(wts @ r) for v, r in
                                 zip(vols[:m], vals[1].reshape(m, -1))]
                assert no_errs is None and no_kids is None


def test_infinite_integral_is_not_converged():
    res = integrate_simplices(lambda x: np.where(x[:, 0] > 0.89, np.inf, 1.0),
                              [[[0, 0], [1, 0], [0, 1]]], QuadratureRule(max_depth=3))
    assert res.value == math.inf and res.error == math.inf
    assert not res.converged


def test_infinite_leaf_found_by_refinement():
    # x = 1/16 is a node only of simplices two bisections down, so the
    # running sums first meet the infinity while refining.
    res = integrate_simplices(
        lambda x: np.where(x[:, 0] == 0.0625, np.inf, np.exp(5 * x[:, 0])),
        [[[0.0], [1.0]]], QuadratureRule(degree=2, tol_rel=1e-12, max_depth=4))
    assert res.value == math.inf and res.error == math.inf
    assert not res.converged


class TestIntegrateSum:
    """``integrate_sum`` adds the ``integrate_parts`` results in part order,
    from 0.0."""

    def test_equals_sequential_sum_of_parts(self, geometry_cache):
        rule = QuadratureRule(degree=6, tol_rel=1e-9, max_depth=2)
        tri = np.array([[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]], float)
        parts = [
            (lambda x: np.full(len(x), 1e17), tri),
            (INTEGRANDS["exponential"], 2 * np.random.default_rng(3).random((2, 3, 2))),
            (lambda x: (x[:, 0] + 0.3 * x[:, 1] + 0.01) ** -1.5, tri),  # depth cap
            (lambda x: np.full(len(x), -0.0), tri),
            (lambda x: np.full(len(x), -1e17), tri),
        ]
        results = integrate_parts(parts, rule)
        assert [r.converged for r in results] == [True, True, False, True, True]
        value = error = 0.0
        for r in results:
            value += r.value
            error += r.error
        got = integrate_sum(parts, rule)
        assert (repr(got.value), repr(got.error), got.converged) == (
            repr(value), repr(error), False)
        # The values are far apart in size, so the order of additions shows.
        assert math.fsum(r.value for r in results) != value

    def test_negative_zero_part_sums_to_positive_zero(self, monkeypatch):
        monkeypatch.setattr(quadrature, "integrate_parts",
                            lambda parts, rule: [IntegrationResult(-0.0, 0.0, True)])
        got = integrate_sum([None], DEFAULT_RULE)
        assert repr(got.value) == "0.0" and got.converged


class TestRunningSum:
    """The running sum equals math.fsum of the current members."""

    def test_cancellation_with_adds_and_removes(self):
        rng = np.random.default_rng(5)
        acc, members = _RunningSum([]), []
        for _ in range(3000):
            if members and rng.random() < 0.45:
                x = members.pop(int(rng.integers(len(members))))
                acc.remove(x)
            else:
                big = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.integers(-30, 30))
                # A value and a near-negation of it, so the sum cancels hard.
                for x in (big * rng.random(), -big * rng.random(), 1e-3 * rng.random()):
                    members.append(x)
                    acc.add(x)
            assert acc.total() == math.fsum(members)

    def test_exact_cancellation(self):
        members = [1e16, 1.0, -1e16, 1e-16, 3.0, -1.0]
        acc = _RunningSum(members)
        assert acc.total() == math.fsum(members) == 3.0
        for x in (1e16, -1e16, 3.0):
            acc.remove(x)
        assert acc.total() == math.fsum([1.0, 1e-16, -1.0]) == 1e-16

    def test_non_finite_members(self):
        inf = float("inf")
        acc = _RunningSum([1.0, inf, 2.0])
        assert acc.total() == inf
        acc.add(float("nan"))
        assert math.isnan(acc.total())
        acc.remove(float("nan"))
        acc.remove(inf)
        assert acc.total() == 3.0
        acc.add(inf)
        acc.add(-inf)
        with pytest.raises(ValueError):
            acc.total()

    def test_whole_exponent_range(self):
        # Members from subnormal to 2**1000, signs mixed, added and removed.
        rng = np.random.default_rng(8)
        acc, members = _RunningSum([]), []
        for _ in range(2000):
            if members and rng.random() < 0.4:
                x = members.pop(int(rng.integers(len(members))))
                acc.remove(x)
            else:
                x = math.ldexp(float(rng.choice([-1.0, 1.0]) * rng.random()),
                               int(rng.integers(-1074, 1001)))
                members.append(x)
                acc.add(x)
            assert repr(acc.total()) == repr(math.fsum(members))

    @pytest.mark.parametrize("members", [
        [5e-324], [5e-324, 5e-324, -5e-324], [2.2250738585072014e-308, -5e-324],
        [1e-310, 3e-320, -1e-310], [-0.0], [-0.0, -0.0], [0.0, -0.0],
        [-5e-324, 5e-324, -0.0], [],
        [1.7976931348623157e308, -1.7976931348623157e308, 1.0],
        [1e308, -1e308, 1e292, -1e-300], [-1e308, 5e307, 4e307],
        [-1.7976931348623157e308, 9e307, 9e307],
    ])
    def test_edges_of_the_range(self, members):
        acc = _RunningSum(members)
        assert repr(acc.total()) == repr(math.fsum(members))
        for x in members:
            acc.remove(x)
        assert repr(acc.total()) == repr(math.fsum([]))

    def test_overflow(self):
        # fsum raises on an overflow along the way, though the exact total
        # is finite; the integer sum returns that total.
        members = [1e308, 1e308, -1e308]
        with pytest.raises(OverflowError):
            math.fsum(members)
        assert _RunningSum(members).total() == 1e308
        # A total that overflows raises in both.
        with pytest.raises(OverflowError):
            _RunningSum([1e308, 1e308]).total()
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308])


class TestBoundary:
    def test_simplex_lattice_perimeter(self, simplex):
        res = integrate_boundary(simplex, lambda x: np.ones(len(x)))
        assert res.value == pytest.approx(3.0, abs=1e-12)

    def test_interval_two_points(self, interval):
        res = integrate_boundary(interval, lambda x: np.ones(len(x)))
        assert res.value == 2.0 and res.error == 0.0

    def test_square_x_moment(self, square):
        res = integrate_boundary(square, lambda x: x[:, 0])
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_unimodular_invariance_for_affine(self, trapezoid):
        u = [[1, 2], [0, 1]]
        image = trapezoid.unimodular_image(u)
        # phi(x) = <c, x> transforms with the inverse transpose.
        c = np.array([0.4, -1.1])
        uinv = np.linalg.inv(np.array(u, dtype=float))
        c_img = uinv.T @ c
        base = integrate_boundary(trapezoid, lambda x: x @ c).value
        img = integrate_boundary(image, lambda x: x @ c_img).value
        assert img == pytest.approx(base, rel=1e-11)


class TestMoments:
    def test_interval_mean(self, unit_interval):
        assert moments(unit_interval, (1,)) == F(1, 2)

    def test_interval_exponential(self, unit_interval):
        t = 0.8
        got = moments(unit_interval, (0,), [t], "exponential")
        assert got == pytest.approx((math.exp(t) - 1) / t, rel=1e-13)

    def test_simplex_exponential_against_vertex_formula(self, simplex):
        # Rational-exponential sum over the three corners.
        t1, t2 = 0.9, -0.4
        brion = (1.0 / (t1 * t2)
                 + math.exp(t1) / (t1 * (t1 - t2))
                 + math.exp(t2) / (t2 * (t2 - t1)))
        got = moments(simplex, (0, 0), [t1, t2], "exponential")
        assert got == pytest.approx(brion, rel=1e-12)

    def test_exponential_moment_with_monomial(self, unit_interval):
        t = 0.6
        exact = ((t - 1) * math.exp(t) + 1) / t ** 2  # int_0^1 x e^{tx}
        got = moments(unit_interval, (1,), [t], "exponential")
        assert got == pytest.approx(exact, rel=1e-12)

    def test_cube_factorizes(self, cube):
        got = moments(cube, (1, 2, 0))
        assert got == F(1, 2) * F(1, 3) * F(1)


def test_divided_difference_exp_repeated_nodes():
    # All nodes zero: f[0,...,0] (m+1 nodes) = 1/m!
    assert divided_difference_exp([0.0] * 5) == pytest.approx(1 / 24, rel=1e-13)
    # Two distinct nodes: (e^a - e^b)/(a - b)
    a, b = 0.3, -1.2
    assert divided_difference_exp([a, b]) == pytest.approx(
        (math.exp(a) - math.exp(b)) / (a - b), rel=1e-13)


def _decimal_divided_difference_exp(nodes, terms=200):
    """exp[t_0, ..., t_N] as the series sum_k h_k(t) / (N + k)!, h_k the
    complete homogeneous symmetric polynomial of degree k, in 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        h = [Decimal(1)] + [Decimal(0)] * terms
        for t in nodes:
            for k in range(1, terms + 1):
                h[k] += Decimal(t) * h[k - 1]
        n = len(nodes) - 1
        return sum(h[k] / math.factorial(n + k) for k in range(terms + 1))


@pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "repeated"])
def test_divided_difference_exp_against_decimal_series(repeats):
    rng = np.random.default_rng(2024 + repeats)
    for _ in range(100):
        nodes = rng.uniform(-10, 10, rng.integers(1, 7))
        if repeats:
            nodes = rng.choice(nodes, rng.integers(2, 9))
        nodes = [float(t) for t in nodes]
        ref = _decimal_divided_difference_exp(nodes)
        got = Decimal(divided_difference_exp(nodes))
        assert abs(got - ref) <= Decimal("1e-13") * ref, nodes


@pytest.mark.parametrize("name", catalog.names())
def test_moments_volume_is_exact(name):
    P = catalog.load(name)
    chops = [P.corner_chop(0, P.admissible_chop(0) / 3)] if P.dim > 1 else []
    for Q in [P, *chops]:
        assert moments(Q) == Q.volume()


class TestLatticeMeasureIdentity:
    @pytest.mark.parametrize("name", ["cp2-reflexive", "bl1cp2-reflexive",
                                      "bl3cp2-reflexive"])
    def test_divergence_identity_on_reflexive_polytopes(self, name):
        # For a polytope with all facet offsets one, the flux of h*x gives
        #   int_dP h dsigma = n int_P h dx + int_P <x, grad h> dx,
        # an identity tying the lattice boundary measure to interior
        # integrals with no shared code path.
        from toricstab import catalog
        P = catalog.load(name)
        xi = np.array([0.37, -0.21])
        lhs = integrate_boundary(P, lambda x: np.exp(x @ xi)).value
        rhs = (P.dim * integrate(P, lambda x: np.exp(x @ xi)).value
               + integrate(P, lambda x: (x @ xi) * np.exp(x @ xi)).value)
        assert lhs == pytest.approx(rhs, rel=1e-11)


# The bits of adaptive refinement, recorded by ``_refine_bits()`` into
# tests/data/refine_bits.json: value, error and converged of each weighted
# integral that refines, and of one-part calls that stop at the depth cap
# or meet an infinite leaf.  A change to refinement must keep each exactly.
REFINE_POLYTOPES = ("cp2", "bl1cp2", "cube")
# Power-law weights at pole distance 1/8 along a generic direction whose
# <x, xi> spans REFINE_WIDTH over P; soliton weights along an axis.
REFINE_XI = (0.3, -0.2, 0.1)
REFINE_WIDTH = 0.375
REFINE_AXIS_XI = (0.8, 0.0, 0.0)
DATA = Path(__file__).parent / "data"


def _result_bits(res):
    return {"value": res.value.hex(), "error": res.error.hex(),
            "converged": res.converged}


def _weighted_bits(P, W, rule=DEFAULT_RULE):
    """vol_w, the beta-moments on the lattice basis, gram, per_v and the
    boundary beta-moments, as the invariants define their integrands."""
    basis = np.eye(P.dim)
    tri = P.triangulation_floats()
    vol = integrate(P, W.w, rule, W.w_degree)
    moments = [moment_integrands(W, b) for b in basis]
    moments_w = [integrate(P, f, rule, degree) for (f, degree), _ in moments]
    means = np.array([m.value for m in moments_w]) / vol.value
    grams = integrate_parts([(f, tri, degree) for f, degree
                             in gram_integrands(W, basis, means)], rule)
    bits = {"vol_w": vol, "per_v": integrate_boundary(P, W.v, rule, W.v_degree)}
    for i, (_, (g, degree)) in enumerate(moments):
        bits[f"moment_w {i}"] = moments_w[i]
        bits[f"moment_boundary_v {i}"] = integrate_boundary(P, g, rule, degree)
    for k, res in enumerate(grams):
        bits[f"gram {k}"] = res
    return {key: _result_bits(res) for key, res in bits.items()}


def _refine_bits():
    bits = {}
    for name in REFINE_POLYTOPES:
        P = catalog.load(name)
        n = P.dim
        verts = P.vertices_floats()
        xi = np.array(REFINE_XI[:n])
        xi = xi * (REFINE_WIDTH / np.ptp(verts @ xi))
        a = F(1, 8) - F(float(np.min(verts @ xi)))
        weights = {fam: builtin(fam, n, xi=xi, a=a) for fam in ("ckem", "sasaki")}
        weights["soliton"] = builtin("soliton", n, xi=REFINE_AXIS_XI[:n])
        for fam, W in weights.items():
            for key, res in _weighted_bits(P, W).items():
                bits[f"{name} {fam} {key}"] = res
    square = np.array([[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]], float)
    bits["depth_cap pole"] = _result_bits(integrate_simplices(
        lambda x: (x[:, 0] + 0.3 * x[:, 1] + 0.01) ** -1.5, square,
        QuadratureRule(degree=2, tol_rel=1e-12, max_depth=9)))
    bits["depth_cap exp"] = _result_bits(integrate_simplices(
        lambda x: np.exp(5 * x[:, 0]), np.array([[[0.0], [1.0]], [[1.0], [3.0]]]),
        QuadratureRule(degree=2, tol_abs=1e-30, tol_rel=1e-30, max_depth=2)))
    bits["infinite_leaf"] = _result_bits(integrate_simplices(
        lambda x: np.where(x[:, 0] == 0.0625, np.inf, np.exp(5 * x[:, 0])),
        [[[0.0], [1.0]]], QuadratureRule(degree=2, tol_rel=1e-12, max_depth=4)))
    return bits


def test_refine_bits_are_pinned():
    want = json.loads((DATA / "refine_bits.json").read_text())
    got = _refine_bits()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key

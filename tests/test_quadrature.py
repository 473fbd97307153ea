import decimal
import json
import math
from collections import Counter, OrderedDict
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from toricstab import catalog, quadrature
from toricstab.invariants import gram_integrands, moment_integrands
from toricstab.polytope import DelzantPolytope, Facet, _clip
from toricstab.profiles import Monomial, Polynomial, Profile, builtin
from toricstab.quadrature import (DEFAULT_RULE, Integrand, IntegrationResult,
                                  QuadratureRule, _estimate, _lower_rule,
                                  divided_difference_exp, gm_table, integrate,
                                  integrate_boundary, integrate_parts,
                                  integrate_simplices, integrate_sum, moments)


class TestRuleExactness:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_weights_sum_to_one(self, dim):
        _, w = gm_table(dim, DEFAULT_RULE.gm_order)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", range(8))
    def test_lower_rule_is_embedded(self, dim, s):
        # The degree-(2s-1) rule's nodes are among the degree-(2s+1) rule's.
        lower = _lower_rule(dim, s)
        if s == 0:
            assert lower is None
            return
        rows, wts = lower
        assert rows.tolist() == _lower_weights(dim, s)[0]
        assert np.array_equal(gm_table(dim, s)[0][rows], gm_table(dim, s - 1)[0])
        assert np.array_equal(wts, gm_table(dim, s - 1)[1])

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


def _lower_weights(n, s):
    """The degree-(2s-1) rule as (rows, weights) on the nodes of the
    degree-(2s+1) rule, found by matching nodes: each of its nodes is one."""
    bary, _ = gm_table(n, s)
    low, wts = gm_table(n, s - 1)
    where = {p.tobytes(): w for p, w in zip(low, wts)}
    rows = [r for r, p in enumerate(bary) if p.tobytes() in where]
    assert len(rows) == len(low)
    return rows, np.array([where[bary[r].tobytes()] for r in rows])


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


def reference_run(f, simplices, rule=DEFAULT_RULE):
    """The adaptive scheme one simplex at a time: its result, its number of
    rounds and its final number of leaves.  A leaf's error is max(|coarse
    - fine|, the sum over its halves of |upper - lower rule|), each rule sum
    one 1-D dot; a round bisects every leaf at or above the mean error
    (capped by the largest) and below the depth cap."""
    if len(simplices) == 0:
        return IntegrationResult(0.0, 0.0, True), 0, 0
    n, s = simplices.shape[2], rule.gm_order
    bary, wts = gm_table(n, s)
    rows, low = _lower_weights(n, s) if s else (None, None)

    def leaf(verts, depth):
        kids = _bisect(verts)
        coarse = _gm_apply(f, verts, bary, wts)
        halves = []
        for kid in kids:
            vals = np.asarray(f(bary @ kid), dtype=float)
            vol = _simplex_volume(kid)
            halves.append((vol * float(wts @ vals),
                           None if s == 0 else vol * float(low @ vals[rows])))
        fine = halves[0][0] + halves[1][0]
        err = abs(coarse - fine)
        if s:
            err = float(np.maximum(err, sum(abs(q - ql) for q, ql in halves)))
        return fine, err, depth, kids

    leaves = [leaf(np.asarray(v, dtype=float), 0) for v in simplices]
    rounds = 0
    while True:
        value = math.fsum(v for v, _, _, _ in leaves)
        err = math.fsum(e for _, e, _, _ in leaves)
        tol = max(rule.tol_abs, rule.tol_rel * abs(value))
        if not err > tol:
            break
        mean = min(err / len(leaves), max(e for _, e, _, _ in leaves))
        pick = [e >= mean and d < rule.max_depth for _, e, d, _ in leaves]
        if not any(pick):
            break
        leaves = ([x for x, p in zip(leaves, pick) if not p]
                  + [leaf(kid, d + 1) for (_, _, d, kids), p in zip(leaves, pick) if p
                     for kid in kids])
        rounds += 1
    return IntegrationResult(value, err, err <= tol and math.isfinite(err)), rounds, len(leaves)


def reference_integrate_simplices(f, simplices, rule=DEFAULT_RULE):
    return reference_run(f, simplices, rule)[0]


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


def poly(n):
    """A cubic of <xi, x> in dimension n as an integrand of degree 3, built
    anew on each call: equal values, distinct objects."""
    return Integrand((Polynomial.make([1, 0, -2, 1]), np.linspace(0.7, -1.3, n)))


def monomial(m):
    """x^m as an integrand of degree sum(m): coordinate factors times 1."""
    eye = np.eye(len(m))
    return Integrand((Monomial(0), [0.0] * len(m)),
                     [(eye[k], None) for k, e in enumerate(m) for _ in range(e)])


@pytest.fixture
def engine_calls(monkeypatch):
    """The (integrand, shape of its argument) of each integrand call that
    the engine makes; it calls integrands only in ``_rule_sums``."""
    log, rule_sums = [], quadrature._rule_sums

    def logged(f, *args):
        def g(x):
            log.append((f, x.shape))
            return f(x)
        return rule_sums(g, *args)
    monkeypatch.setattr(quadrature, "_rule_sums", logged)
    return log


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
    exactly the rows the per-simplex scheme evaluates, no leaf more, in one
    call per pass: the first pass, then one per round, on the halves of
    every leaf that round bisects."""

    @pytest.fixture(autouse=True)
    def _cache(self, geometry_cache):
        self.cache = geometry_cache

    def check(self, f, simplices, rule=DEFAULT_RULE):
        """The reference result, its number of rounds and of leaves."""
        ref_f, ref_log = _recorded(f)
        want, rounds, leaves = reference_run(ref_f, simplices, rule)

        def run():
            new_f, log = _recorded(f)
            got = integrate_simplices(new_f, simplices, rule)
            assert _rows(log) == _rows(ref_log)
            assert len(log) == (1 + rounds if len(simplices) else 0)
            return got

        for got in cold_then_warm(self.cache, run):
            assert got.value == want.value
            assert got.error == want.error
            assert got.converged == want.converged
        return want, rounds, leaves

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(INTEGRANDS))
    def test_random_stacks(self, dim, kind):
        rng = np.random.default_rng(100 + dim)
        simplices = rng.random((int(rng.integers(1, 6)), dim + 1, dim))
        rule = QuadratureRule(degree=6, tol_rel=1e-9)
        _, rounds, _ = self.check(INTEGRANDS[kind], simplices, rule)
        if kind == "near_pole":
            assert rounds > 0

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
        _, rounds, _ = self.check(
            lambda x: np.exp(3 * x[:, 0] - 2 * x[:, -1]),
            simplices, QuadratureRule(degree=6, tol_rel=1e-7))
        assert rounds > 1

    def test_depth_cap(self):
        simplices = np.array([[[0.0], [1.0]], [[1.0], [3.0]]])
        want, rounds, leaves = self.check(
            lambda x: np.exp(5 * x[:, 0]), simplices,
            QuadratureRule(degree=2, tol_abs=1e-30, tol_rel=1e-30, max_depth=2))
        # A round bisects only the leaves at or above the mean error: [1, 3]
        # and then its right half, whose halves reach the cap.
        assert not want.converged and (rounds, leaves) == (2, 4)

    def test_empty_stack(self):
        want, _, _ = self.check(INTEGRANDS["polynomial"], np.zeros((0, 3, 2)))
        assert want == IntegrationResult(0.0, 0.0, True)

    SQUARE = np.array([[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]], float)

    @pytest.mark.parametrize("rule, converged", [
        (QuadratureRule(degree=4, tol_rel=1e-12, max_depth=9), False),
        (QuadratureRule(degree=6, tol_rel=1e-12), True)], ids=["depth_cap", "converges"])
    def test_many_leaves(self, rule, converged):
        # Hundreds of leaves bisected in a few dozen rounds, one call each.
        want, rounds, leaves = self.check(lambda x: np.exp(4 * x[:, 0] - 3 * x[:, 1]),
                                          self.SQUARE, rule)
        assert leaves > 500 and rounds < 30 and want.converged == converged


class TestIntegrateParts:
    """One engine call over several parts returns, part by part, what a
    one-part call returns, with one integrand call per part in the shared
    first pass."""

    RULE = QuadratureRule(degree=6, tol_rel=1e-9, max_depth=4)

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
    """Parts of one n whose integrands are equal enter the first pass as
    one part, their simplices concatenated; each part still gets, bit for
    bit, what a one-part call gives it."""

    RULE = QuadratureRule(degree=6, tol_rel=1e-9, max_depth=3)

    def test_shared_parts_equal_one_part_calls(self, geometry_cache):
        rng = np.random.default_rng(16)
        tri = np.array([[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]], float)
        exp = INTEGRANDS["exponential"]
        pole = lambda x: (x[:, 0] + 0.3 * x[:, 1] + 0.01) ** -1.5
        parts = [(poly(2), rng.random((3, 3, 2))),                 # exact
                 (exp, 2 * rng.random((2, 3, 2))),                  # refines
                 (pole, tri),                                       # stops at max_depth
                 (poly(2), np.zeros((0, 3, 2))),                    # empty
                 (exp, rng.random((2, 4, 3))),                      # another n
                 (INTEGRANDS["near_pole"], rng.random((2, 3, 2))),  # unshared
                 (INTEGRANDS["polynomial"], rng.random((2, 3, 2))),  # adaptive
                 (exp, rng.random((1, 2, 1))),                      # n = 1
                 (pole, rng.random((2, 3, 2)) + 0.2),
                 (exp, 2 * rng.random((3, 3, 2))),
                 (poly(3), np.zeros((0, 4, 3))),
                 (poly(3), rng.random((3, 4, 3))),                  # exact in n = 3
                 (poly(2), rng.random((1, 3, 2)))]
        want = [integrate_simplices(f, s, self.RULE) for f, s in parts]
        assert want[0].error == 0.0 and want[3] == IntegrationResult(0.0, 0.0, True)
        assert want[1].converged and not want[2].converged
        for got in cold_then_warm(geometry_cache,
                                  lambda: integrate_parts(parts, self.RULE)):
            assert got == want
        for i in (1, 2, 6, 8, 9):
            f, s = parts[i]
            assert want[i] == reference_integrate_simplices(f, s, self.RULE), i

    def test_one_first_pass_call_per_shared_integrand(self, geometry_cache,
                                                      engine_calls):
        rng = np.random.default_rng(17)
        make = {"poly": poly, "exp": lambda n: INTEGRANDS["exponential"],
                "own": lambda n: INTEGRANDS["near_pole"]}
        parts = [("poly", rng.random((3, 3, 2))), ("exp", 2 * rng.random((2, 3, 2))),
                 ("own", rng.random((2, 3, 2))), ("poly", rng.random((2, 3, 2))),
                 ("exp", rng.random((2, 4, 3))), ("poly", rng.random((1, 3, 2))),
                 ("exp", 2 * rng.random((3, 3, 2))), ("poly", rng.random((2, 4, 3)))]
        # Each "poly" part passes a value of its own, equal to the others.
        integrate_parts([(make[name](s.shape[2]), s) for name, s in parts], self.RULE)
        log = list(engine_calls)
        # Per integrand and n: one first-pass call on the rows of all its
        # parts, then the refinements a one-part call of each part makes.
        first, refinements = Counter(), Counter()
        for name, s in parts:
            n, nodes = s.shape[2], len(gm_table(s.shape[2], self.RULE.gm_order)[0])
            f = make[name](n)
            rows = len(s) * (1 if isinstance(f, Integrand) else 3) * nodes
            first[name, n] += rows
            engine_calls.clear()
            integrate_parts([(f, s)], self.RULE)
            assert engine_calls[0][1] == (rows, n)
            refinements[name, n] += len(engine_calls) - 1
        assert refinements["exp", 2] > 0 and refinements["own", 2] > 0
        for (name, n), rows in first.items():
            f = make[name](n)
            calls = [shape for g, shape in log if g == f and shape[1] == n]
            assert calls[0] == (rows, n), (name, n)
            assert len(calls) == 1 + refinements[name, n], (name, n)

    def test_one_row_blocks_are_not_shared(self, geometry_cache, engine_calls):
        # A one-node rule on one simplex: a 1-row product, which can round
        # apart from the same row inside a longer array.
        rule = QuadratureRule(degree=1)
        rng = np.random.default_rng(18)
        line = lambda: Integrand((Monomial(1), (0.7, -1.3)))  # degree 1, exact
        parts = [(line(), rng.random((1, 3, 2))), (line(), rng.random((2, 3, 2))),
                 (line(), rng.random((1, 3, 2))), (line(), rng.random((3, 3, 2)))]
        got = integrate_parts(parts, rule)
        assert [shape for _, shape in engine_calls] == [(1, 2), (5, 2), (1, 2)]
        assert got == [integrate_simplices(f, s, rule) for f, s in parts]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_many_parts_equal_each_alone_at_every_order(self, dim, geometry_cache):
        # One integrand over many adaptive parts, and equal values over
        # many exact ones, keep each part's bits at every rule order (one
        # node at s = 0), beside parts with integrands of their own.
        rng = np.random.default_rng(50 + dim)
        g = rng.standard_normal(dim)
        f = lambda x: np.exp(x @ g) * (x[:, 0] + 1.5) ** -1.5
        for s in range(7):
            rule = QuadratureRule(degree=2 * s + 1, max_depth=1)
            parts = []
            for _ in range(25):
                r = rng.random()
                parts.append((f if r < 0.35 else
                              Integrand((Monomial(2 * s + 1), g)) if r < 0.7 else
                              lambda x: np.cos(x @ g),
                              rng.random((int(rng.integers(1, 6)), dim + 1, dim))))
            assert integrate_parts(parts, rule) == [
                integrate_simplices(f, x, rule) for f, x in parts], s


class TestIntegrand:
    """An integrand value evaluates in the order its structure states,
    knows its degree and merges only with an equal value."""

    RULE = QuadratureRule(degree=6, tol_rel=1e-9, max_depth=3)

    def test_equal_values_make_one_integrand_call(self, geometry_cache, engine_calls):
        # Built twice, as a caller building its integrands per part does.
        W = builtin("soliton", 2, xi=[0.4, -0.3])
        rng = np.random.default_rng(19)
        stacks = [rng.random((2, 3, 2)), rng.random((3, 3, 2))]
        for make in (lambda: Integrand(W.w_weight, [((1.0, 2.0), 0.5)]),   # adaptive
                     lambda: Integrand(builtin("cscK", 2).w_weight,
                                       [((1.0, 2.0), 0.5)])):             # exact
            a, b = make(), make()
            assert a == b and a is not b and hash(a) == hash(b)
            engine_calls.clear()
            alone = [integrate_simplices(f, s, self.RULE) for f, s in zip((a, b), stacks)]
            refinements = len(engine_calls) - 2
            engine_calls.clear()
            assert integrate_parts([(a, stacks[0]), (b, stacks[1])], self.RULE) == alone
            assert len(engine_calls) == 1 + refinements

    def test_values_differing_in_a_factor_xi_or_chart_do_not_merge(self, engine_calls):
        cp2 = catalog.load("cp2")
        soliton = builtin("soliton", 2, xi=[0.4, -0.3]).v_weight
        def pulled(weight=soliton, factors=[((1.0, 2.0), 0.5)], facet=0):
            return Integrand(weight, factors, chart=cp2.facet_chart(facet))
        base = pulled()
        others = [pulled(factors=[((1.0, 2.0), 0.25)]),
                  pulled(factors=[((1.0, 2.0), None)]),
                  pulled(factors=[((1.0, 2.0), -0.0)]),
                  pulled(factors=[((1.0, 2.0), 0.5), ((1.0, 0.0), None)]),
                  pulled(weight=builtin("soliton", 2, xi=[0.4, -0.2]).v_weight),
                  pulled(facet=1)]
        assert pulled() == base and all(f != base for f in others)
        assert len(set(others)) == len(others)
        tri = cp2.facet_triangulation_floats(0)
        integrate_parts([(f, tri) for f in [base, *others]], self.RULE)
        assert len({f for f, _ in engine_calls}) == 1 + len(others)
        # A plain callable is its own integrand only.
        f = INTEGRANDS["exponential"]
        assert Integrand(f) == Integrand(f)
        assert Integrand(f) != Integrand(lambda x: f(x))

    def test_a_factor_without_constant_keeps_negative_zero(self):
        # numpy's matmul on OpenBLAS sums from +0.0 and returns no -0.0, so
        # a stand-in node array whose products read -0.0 gives the factor
        # one: <x, beta> must keep it, where <x, beta> + 0.0 would not.
        class Nodes:
            def __matmul__(self, g):
                return np.array([-0.0, 2.0])

        one = (Monomial(0), (0.0,))
        bare, plus_zero = (Integrand(one, [((1.0,), c)]) for c in (None, 0.0))
        assert np.signbit(bare(Nodes())).tolist() == [True, False]
        assert np.signbit(plus_zero(Nodes())).tolist() == [False, False]
        assert bare != plus_zero

    def test_arrays_are_copied_only_when_writeable(self):
        W = builtin("sasaki", 2, xi=[0.7, -0.2], a=3)  # W.xi is read-only
        g = np.array([1.0, 2.0])
        f = Integrand(W.w_weight, [(g, None)])
        kept = f.factors[0][0]
        assert f.weight[1] is W.xi and kept is not g and not kept.flags.writeable
        g[0] = 5.0
        assert kept.tolist() == [1.0, 2.0]
        assert Integrand(f, [(kept, 1.0)]).factors[0][0] is kept

    def test_repeated_construction_makes_no_fraction_and_hashes_no_facet(
            self, monkeypatch):
        W = builtin("ckem", 2, xi=[0.7, -0.2], a=3)
        chart = catalog.load("cp2").facet_chart(0)

        def make():
            inner = Integrand(W.v_weight, [((1.0, 0.0), None)])
            return Integrand(inner, chart=chart)

        first = make()
        assert first.power.closed
        made, hashed = [], []
        new, facet_hash = F.__new__, Facet.__hash__
        monkeypatch.setattr(F, "__new__",
                            lambda cls, *a, **k: made.append(1) or new(cls, *a, **k))
        monkeypatch.setattr(Facet, "__hash__", lambda f: hashed.append(1) or facet_hash(f))
        for _ in range(3):
            assert make() == first and make().power.closed
        assert made == [] and hashed == []

    @pytest.mark.parametrize("family, a", [("soliton", None), ("sasaki", 3), ("ckem", 3)])
    def test_degree(self, family, a):
        at_zero = builtin(family, 2, xi=[0.0, 0.0], a=a)
        generic = builtin(family, 2, xi=[0.7, -0.2], a=a)
        assert Integrand(generic.w_weight).degree is None
        assert Integrand(generic.v_weight, [((1.0, 0.0), None)]).degree is None
        w = Integrand(at_zero.w_weight)
        assert w.degree == 0
        inner = Integrand(at_zero.w_weight, [((1.0, 0.0), 2.0)])
        assert Integrand(inner, [((0.0, 1.0), None)]).degree == 2
        assert Integrand(w, chart=catalog.load("cp2").facet_chart(0)).degree == 0
        assert Integrand(INTEGRANDS["polynomial"]).degree is None
        assert Integrand((Monomial(3), (1.0, 0.0)), [((1.0, 0.0), None)]).degree == 4


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
    """An integrand whose degree the rule integrates exactly takes one pass
    with error 0; any other part is adaptive, bit for bit."""

    RULE = QuadratureRule(degree=6, tol_rel=1e-9, max_depth=3)

    @pytest.mark.parametrize("P", _catalog_and_chops(), ids=lambda P: P.name)
    def test_monomials_match_exact_moments(self, P):
        for m in product(range(4), repeat=P.dim):
            if sum(m) > 3:
                continue
            f = monomial(m)
            assert f.degree == sum(m)
            res = integrate(P, f)
            # Relative to int |x^m|: the rule's weights alternate in sign,
            # so its rounding scales with that, not with |int x^m|.
            exact = moments(P, m)
            assert abs(res.value - exact) <= 1e-14 * _abs_moment(P, m), m
            assert res.error == 0.0 and res.converged, m

    def test_one_call_on_the_simplices_alone(self, geometry_cache, engine_calls):
        simplices = np.random.default_rng(12).random((5, 4, 3))
        f = poly(3)
        res = integrate_simplices(f, simplices, self.RULE)
        bary, wts = gm_table(3, self.RULE.gm_order)
        assert engine_calls == [(f, (len(simplices) * len(bary), 3))]
        rows = [_gm_apply(f, s, bary, wts) for s in simplices]
        assert res == IntegrationResult(math.fsum(rows), 0.0, True)

    @pytest.mark.parametrize("kind", sorted(INTEGRANDS))
    def test_undeclared_and_too_high_stay_adaptive(self, kind, geometry_cache):
        simplices = np.random.default_rng(13).random((4, 3, 2))
        f = INTEGRANDS[kind]
        want = reference_integrate_simplices(f, simplices, self.RULE)
        assert integrate_simplices(f, simplices, self.RULE) == want
        # An integrand whose weight is a plain callable has no degree.
        assert integrate_parts([(f, simplices), (Integrand(f), simplices)],
                               self.RULE) == [want] * 2
        high = Integrand((Monomial(2 * self.RULE.gm_order + 1), (0.7, -1.3)),
                         [((1.0, 0.5), None)])
        assert high.degree == 2 * self.RULE.gm_order + 2
        res = integrate_simplices(high, simplices, self.RULE)
        assert res == reference_integrate_simplices(high, simplices, self.RULE)
        assert res.error > 0

    def test_mixed_parts_equal_one_part_calls(self, geometry_cache):
        # Exact and adaptive parts of dimensions 1, 2 and 3, interleaved,
        # and an empty part: one batch per dimension, results in part order.
        rng = np.random.default_rng(14)
        parts = [(poly(2), rng.random((3, 3, 2))),
                 (INTEGRANDS["near_pole"], rng.random((2, 2, 1))),
                 (INTEGRANDS["near_pole"], rng.random((2, 3, 2))),
                 (poly(3), np.zeros((0, 4, 3))),
                 (INTEGRANDS["exponential"], rng.random((2, 4, 3))),
                 (poly(1), rng.random((3, 2, 1))),
                 (INTEGRANDS["exponential"], rng.random((2, 3, 2)))]
        want = [integrate_simplices(f, s, self.RULE) for f, s in parts]
        assert want[3] == IntegrationResult(0.0, 0.0, True)
        for got in cold_then_warm(geometry_cache,
                                  lambda: integrate_parts(parts, self.RULE)):
            assert got == want

    def test_exact_parts_store_no_halves_until_needed(self, geometry_cache):
        simplices = np.random.default_rng(15).random((3, 3, 2))
        f = poly(2)
        exact = integrate_simplices(f, simplices, self.RULE)
        [(kids, allv, dets, _)] = geometry_cache.values()
        assert kids is None and len(allv) == len(dets) == 3
        # An adaptive part on the same stack rebuilds the entry with halves,
        # and an exact part reads the k volumes from that entry too.
        assert (integrate_simplices(lambda x: f(x), simplices, self.RULE)
                == reference_integrate_simplices(f, simplices, self.RULE))
        [(kids, allv, dets, _)] = geometry_cache.values()
        assert kids.shape == (3, 2, 3, 2) and len(allv) == len(dets) == 9
        assert integrate_simplices(f, simplices, self.RULE) == exact
        assert len(geometry_cache) == 1

    def test_overflowing_part_is_not_converged(self):
        # Infinite at the one node nearest the vertex (1, 0), whose weight
        # is positive; a profile declared constant, so the part is exact.
        res = integrate_simplices(Integrand((_Spike(), (1.0, 0.0))),
                                  [[[0, 0], [1, 0], [0, 1]]])
        assert res.value == math.inf and res.error == math.inf
        assert not res.converged


@dataclass(frozen=True, eq=False)
class _Spike(Profile):
    """inf at the largest argument of a call and 1 elsewhere, declared a
    constant."""

    degree = 0

    def value(self, t):
        return np.where(t == t.max(), np.inf, 1.0)


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
        [(kids, allv, dets, _)] = geometry_cache.values()
        for array in (kids, allv, dets):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_stacked_rule_sums_equal_per_row_dots(self, dim, geometry_cache):
        # A matrix-vector product (``vals @ wts``) sums in another order
        # and changes some of these bits.
        rng = np.random.default_rng(40 + dim)
        stacks = [rng.random((int(rng.integers(1, 8)), dim + 1, dim)) for _ in range(40)]
        for degree in (0, 2, 6, 12):
            bary, wts = gm_table(dim, degree // 2)
            lower = _lower_rule(dim, degree // 2)
            for verts in stacks:
                f = lambda x: np.exp(x @ rng.standard_normal(dim)) + 1 / (x[:, 0] + 0.01)
                nodes, vals = [], []

                def g(x):
                    nodes.append(x)
                    vals.append(f(x))
                    return vals[-1]

                [(fine, errs, kids), (exact, no_errs, no_kids)] = _estimate(
                    [(g, verts, False), (g, verts, True)], bary, wts, lower)
                _, allv, dets, _ = quadrature._geometry([verts], [True])[0]
                vols = dets / math.factorial(dim)
                rows = vals[0].reshape(len(allv), -1)
                est = [v * float(wts @ r) for v, r in zip(vols, rows)]
                m = len(verts)
                want = [est[m + 2 * r] + est[m + 2 * r + 1] for r in range(m)]
                assert fine == want
                coarse = [abs(c - x) for c, x in zip(est[:m], want)]
                if lower is None:
                    assert errs == coarse
                else:
                    # The lower rule's sums are 1-D dots on its own nodes.
                    low_rows, low = _lower_weights(dim, degree // 2)
                    null = [abs(e - v * float(low @ r[low_rows]))
                            for e, v, r in zip(est[m:], vols[m:], rows[m:])]
                    assert errs == [max(c, null[2 * r] + null[2 * r + 1])
                                             for r, c in enumerate(coarse)]
                # An exact part takes the same rule sums on its simplices alone.
                assert np.array_equal(nodes[1], nodes[0][:len(nodes[1])])
                assert exact == [v * float(wts @ r) for v, r in
                                 zip(vols[:m], vals[1].reshape(m, -1))]
                assert no_errs is None and no_kids is None


class TestEmbeddedEstimate:
    """The error estimate sees every direction: an integral that reports
    ``converged`` meets its tolerance against the closed form."""

    POLYTOPES = ("cp2", "bl1cp2", "cube")
    XI = [(10, 0, 0), (20, 0, 0), (40, 0, 0), (10, 10, 0), (20, 6, -12), (40, 12, -24)]

    @pytest.mark.parametrize("name", POLYTOPES)
    @pytest.mark.parametrize("xi", XI, ids=str)
    def test_soliton_weights_meet_their_tolerance(self, name, xi):
        P = catalog.load(name)
        n = P.dim
        W = builtin("soliton", n, xi=xi[:n])
        e1 = np.eye(n)[0]
        converged = []
        for m, f in (((0,) * n, Integrand(W.w_weight)),
                     ((1,) + (0,) * (n - 1), Integrand(W.w_weight, [(e1, None)]))):
            exact = moments(P, m, xi[:n], mode="exponential")
            for g in (f, f.__call__):
                res = integrate(P, g)
                tol = max(DEFAULT_RULE.tol_abs, DEFAULT_RULE.tol_rel * abs(exact))
                assert not res.converged or abs(res.value - exact) <= tol, (m, res)
                converged.append(res.converged)
        # Along an axis every one of them converges.
        assert all(converged) or xi[1]

    def test_roadmap_triangle(self):
        # (1/8 + x/2)^-7 varies only along x; the longest edge, from (0, 0)
        # to (0, 2), lies in its kernel, so |coarse - fine| alone reads 0 on
        # the first pass (true error 96).  Exactly: 2 [8 u^-5 / 5 - u^-6 / 2]
        # from u = 1/8 to 3/8.
        def antiderivative(u):
            return 2 * (8 * u ** -5 / 5 - u ** -6 / 2)

        exact = float(antiderivative(F(3, 8)) - antiderivative(F(1, 8)))
        tri = np.array([[[0, 0], [0, 2], [0.5, 1]]], float)
        f = lambda x: (0.125 + x[:, 0] / 2) ** -7
        first = _estimate([(f, tri, False)], *gm_table(2, DEFAULT_RULE.gm_order),
                          _lower_rule(2, DEFAULT_RULE.gm_order))[0]
        assert first[1][0] >= abs(first[0][0] - exact) >= 96
        res = integrate_simplices(f, tri)
        assert not res.converged or abs(res.value - exact) <= res.error

    def test_one_geometry_entry_per_round(self, geometry_cache, engine_calls):
        # Each round evaluates the halves of all the leaves it bisects as one
        # stack, so leaf stacks used once cannot crowd out the triangulations.
        cube = catalog.load("cube")
        f = Integrand(builtin("soliton", 3, xi=(40, 0, 0)).w_weight)
        res = integrate(cube, f)
        rounds = len(engine_calls) - 1
        assert res.converged and rounds > 5
        assert len(geometry_cache) <= 1 + rounds


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
        rule = QuadratureRule(degree=6, tol_rel=1e-9, max_depth=3)
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


class TestBoundary:
    def test_simplex_lattice_perimeter(self, simplex):
        res = integrate_boundary(simplex, lambda x: np.ones(len(x)))
        assert res.value == pytest.approx(3.0, abs=1e-12)

    def test_interval_two_points(self, interval):
        res = integrate_boundary(interval, lambda x: np.ones(len(x)))
        assert res.value == 2.0 and res.error == 0.0

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_interval_sum_that_is_not_finite_is_not_converged(self, interval, bad):
        res = integrate_boundary(interval, lambda x: np.where(x[:, 0] > 0, bad, 1.0))
        assert res.error == math.inf and not res.converged
        assert repr(res.value) == repr(bad)
        finite = integrate_boundary(interval, lambda x: x[:, 0] + 0.3)
        assert finite == IntegrationResult(float(np.sum([-0.2, 0.8])), 0.0, True)

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


def _weighted_bits(P, W, rule=DEFAULT_RULE, plain=False):
    """vol_w, the beta-moments on the lattice basis, gram, per_v and the
    boundary beta-moments, as the invariants define their integrands.  With
    ``plain`` each integrand is passed as its bound ``__call__``, a plain
    callable, which the engine refines where it would take a power law in
    closed form."""
    def wrap(f):
        return f.__call__ if plain else f

    basis = np.eye(P.dim)
    tri = P.triangulation_floats()
    vol = integrate(P, wrap(Integrand(W.w_weight)), rule)
    moments = [tuple(map(wrap, moment_integrands(W, b))) for b in basis]
    moments_w = [integrate(P, f, rule) for f, _ in moments]
    means = np.array([m.value for m in moments_w]) / vol.value
    grams = integrate_parts([(wrap(f), tri) for f in gram_integrands(W, basis, means)],
                            rule)
    bits = {"vol_w": vol,
            "per_v": integrate_boundary(P, wrap(Integrand(W.v_weight)), rule)}
    for i, (_, g) in enumerate(moments):
        bits[f"moment_w {i}"] = moments_w[i]
        bits[f"moment_boundary_v {i}"] = integrate_boundary(P, g, rule)
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
            for key, res in _weighted_bits(P, W, plain=fam != "soliton").items():
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

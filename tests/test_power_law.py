"""Power-law parts in closed form, against exact divided differences.

An integrand A (b + <xi, x>)^-k times affine factors, with k large enough
that no logarithm appears, is integrated by ``quadrature.integrate_parts``
in closed form.  The oracle here computes the same integrals in
``Fraction``s: the factors' product in barycentric coordinates and, by
Hermite-Genocchi, confluent divided differences of an antiderivative by
their recursive definition.  It shares no code with the kernel.  Every
closed result must lie within its error of the exact value, and its error
within the tolerance.
"""

import math
import warnings
from collections import OrderedDict
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest

from toricstab import _linalg as la, catalog, invariants, quadrature
from toricstab.invariants import gram, invariant_report, vol_w
from toricstab.polytope import DelzantPolytope
from toricstab.profiles import Exponential, Log, PowerLaw, ProfileDomainError, builtin
from toricstab.quadrature import DEFAULT_RULE, Integrand, integrate_parts

CUBE4 = DelzantPolytope(4, [(tuple(int(i == j) * s for j in range(4)), o)
                            for i in range(4) for s, o in ((1, 0), (-1, 1))],
                        name="cube4")
POLYTOPES = [catalog.load(name) for name in catalog.names()] + [CUBE4]
GENERIC_XI = (0.3, -0.2, 0.1, 0.07)
WIDTH = 0.5  # the span of <xi, x> over P
POLE_DISTANCES = (F(1, 32), F(1, 4), F(1))


def exact_part(profile, xi, factors, simplices, chart=None, before_chart=()):
    """int of profile(<xi, x>) times the affine factors (gradient, constant)
    over the float simplices, mapped through ``chart`` if given (lattice
    measure), in Fractions; the factors ``before_chart`` take the chart
    coordinates."""
    k, A, b = -int(profile.p), F(profile.a), F(profile.b)
    xi = [F(c) for c in xi]
    total = F(0)
    for s in simplices:
        ys = [[F(c) for c in v] for v in s]
        xs = [chart.map_exact(y) for y in ys] if chart is not None else ys
        n1 = len(ys)
        det = abs(la.det([[p - q for p, q in zip(v, ys[0])] for v in ys[1:]])) if n1 > 1 else 1
        big_n = n1 - 1 + len(factors) + len(before_chart)
        # H, an N-fold antiderivative of A (b + t)^-k, is c (b + t)^q.
        q = big_n - k
        c = A / math.prod(F(i - k) for i in range(1, big_n + 1))

        @lru_cache(maxsize=None)
        def dd(nodes):  # sorted
            if nodes[0] == nodes[-1]:
                j = len(nodes) - 1
                return (c * math.prod(q - i for i in range(j)) * (b + nodes[0]) ** (q - j)
                        / math.factorial(j))
            return (dd(nodes[1:]) - dd(nodes[:-1])) / (nodes[-1] - nodes[0])

        poly = {(0,) * n1: F(1)}
        for (g, c0), pts in [(f, xs) for f in factors] + [(f, ys) for f in before_chart]:
            vals = [sum(F(gj) * xj for gj, xj in zip(g, x)) + F(c0 or 0) for x in pts]
            out = {}
            for e, coef in poly.items():
                for i, a in enumerate(vals):
                    e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
                    out[e2] = out.get(e2, 0) + coef * a
            poly = out
        t = [sum(p * x for p, x in zip(xi, x)) for x in xs]
        total += det * sum(
            coef * math.prod(map(math.factorial, e))
            * dd(tuple(sorted(t[i] for i, ei in enumerate(e) for _ in range(ei + 1))))
            for e, coef in poly.items())
    return total


def _weights(P, family, kind, dist):
    n = P.dim
    xi = np.array(GENERIC_XI[:n]) if kind == "generic" else np.eye(n)[0]
    verts = P.vertices_floats()
    # Dyadic components keep the oracle's Fractions short.
    xi = np.round(xi * (WIDTH / np.ptp(verts @ xi)) * 2 ** 10) / 2 ** 10
    return builtin(family, n, xi=xi, a=dist - F(float(np.min(verts @ xi))))


def _parts(P, W):
    """(profile, factors, chart, factors before the chart, integrand,
    simplices) of the interior parts with 0, 1 and 2 factors and the
    boundary parts with 0 and 1 on three facets, as the invariants build
    them, and with one factor of the chart coordinates (outside the chart,
    so not closed)."""
    n, tri = P.dim, P.triangulation_floats()
    beta = np.array(GENERIC_XI[:n]) + 0.5
    # Centred at the vertex mean less 1/4: a product whose integral does
    # not vanish.  One that vanishes meets no relative tolerance, and its
    # absolute one only far enough from the pole.
    low = P.vertices_floats().mean(axis=0) - 0.25
    gram_factors = [(np.eye(n)[0], -low[0]), (np.eye(n)[-1], -low[-1])]
    out = [(W.w_profile, fs, None, [], Integrand(W.w_weight, fs), tri)
           for fs in ([], [(beta, None)], gram_factors)]
    if n > 1:
        for i in P.genuine_facet_indices()[:3]:  # the oracle's time goes on facets
            chart = P.facet_chart(i)
            tri = P.facet_triangulation_floats(i)
            for fs in ([], [(beta, None)]):
                out.append((W.v_profile, fs, chart, [],
                            Integrand(Integrand(W.v_weight, fs), chart=chart), tri))
            pre = [(np.ones(n - 1), 0.5 - np.min(tri.sum(axis=2)))]  # >= 1/2
            out.append((W.v_profile, [], chart, pre,
                        Integrand(Integrand(W.v_weight, chart=chart), pre), tri))
    return out


@pytest.mark.parametrize("P", POLYTOPES, ids=lambda P: P.name)
def test_closed_form_meets_the_exact_value(P):
    checked = 0
    for family in ("sasaki", "ckem"):
        for kind in ("generic", "axis"):
            for dist in POLE_DISTANCES:
                W = _weights(P, family, kind, dist)
                for profile, factors, chart, pre, f, simplices in _parts(P, W):
                    if pre:  # a factor of the chart coordinates: adaptive
                        assert f.power is None
                        continue
                    if not f.power.closed:  # ckem on cp1 with two factors: a log
                        assert (P.dim, family, len(factors)) == (1, "ckem", 2)
                        continue
                    res = integrate_parts([(f, simplices)])[0]
                    exact = exact_part(profile, W.xi, factors, simplices, chart, pre)
                    where = (family, kind, dist, len(factors), chart is not None)
                    assert abs(F(res.value) - exact) <= F(res.error), where
                    assert res.error <= max(DEFAULT_RULE.tol_abs,
                                            DEFAULT_RULE.tol_rel * abs(res.value)), where
                    assert res.converged, where
                    checked += 1
    assert checked


@pytest.mark.parametrize("P", [P for P in POLYTOPES if P.dim > 1], ids=lambda P: P.name)
def test_factor_before_the_chart_meets_the_exact_value_adaptively(P):
    # The adaptive engine converges at these pole distances (not at 1/32 on
    # cube4).
    for family in ("sasaki", "ckem"):
        for kind in ("generic", "axis"):
            for dist in POLE_DISTANCES[1:]:
                W = _weights(P, family, kind, dist)
                for profile, factors, chart, pre, f, simplices in _parts(P, W):
                    if not pre:
                        continue
                    assert f.power is None
                    res = integrate_parts([(f, simplices)])[0]
                    exact = exact_part(profile, W.xi, factors, simplices, chart, pre)
                    where = (family, kind, dist, chart.facet)
                    assert res.converged, where
                    assert abs(F(res.value) - exact) <= max(
                        DEFAULT_RULE.tol_abs, DEFAULT_RULE.tol_rel * abs(res.value)), where


def _closed_parts(names, kinds, dist):
    return [(f, s) for name in names for family in ("sasaki", "ckem") for kind in kinds
            for *_, f, s in _parts(catalog.load(name),
                                   _weights(catalog.load(name), family, kind, dist))
            if f.power is not None and f.power.closed]


def test_mixed_call_keeps_the_bits_of_each_part_alone():
    # Interior parts (vol, beta-moment, Gram) and chart-pulled facets;
    # sasaki and ckem; generic and axis xi; planar and solid polytopes,
    # whose facet and interior node sets have the same number of vertices:
    # all in one call.
    parts = _closed_parts(("cp2", "bl3cp2", "cube"), ("generic", "axis"), F(1, 4))
    assert len({len(f.power.factors) for f, _ in parts}) == 3
    mixed = quadrature._power_law_parts(parts, DEFAULT_RULE)
    for (f, s), res in zip(parts, mixed):
        alone = quadrature._power_law_parts([(f, s)], DEFAULT_RULE)[0]
        assert (float(res.value).hex(), float(res.error).hex(), res.converged) == (
            float(alone.value).hex(), float(alone.error).hex(), alone.converged)


def _refused(P):
    """Integrands that keep the adaptive path, with their simplices."""
    tri = P.triangulation_floats()
    xi = np.full(P.dim, 0.4)
    m = -0.5
    ckem1 = builtin("ckem", 1, xi=[0.5], a=1)  # k = 3 = dim + 2 factors: a log
    return {
        "ckem n=1, two factors": (Integrand(ckem1.w_weight, [([1.0], m), ([1.0], m)]),
                                  catalog.load("cp1").triangulation_floats()),
        "fractional exponent": (Integrand((PowerLaw(F(1), F(2), F(-11, 2)), xi)), tri),
        "log": (Integrand((Log(F(1), F(2)), xi)), tri),
        "soliton": (Integrand((Exponential(), xi)), tri),
    }


@pytest.mark.parametrize("case", list(_refused(catalog.load("cp2"))))
def test_refused_parts_stay_adaptive(case):
    f, simplices = _refused(catalog.load("cp2"))[case]
    assert f.power is None or not f.power.closed
    assert integrate_parts([(f, simplices)]) == integrate_parts([(f.__call__, simplices)])


@pytest.mark.parametrize("family", ["sasaki", "ckem"])
def test_xi_zero_stays_exact(family):
    P = catalog.load("bl1cp2")
    W = builtin(family, 2, xi=[0.0, 0.0], a=F(1, 3))
    f = Integrand(W.w_weight, [(np.array([1.0, 0.0]), None)])
    assert not f.power.closed and f.degree == 1
    res = integrate_parts([(f, P.triangulation_floats())])[0]
    want = W.w_profile.value(0.0) * float(quadrature.moments(P, (1, 0)))
    assert res.error == 0.0 and res.value == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("chart", [False, True])
def test_vertex_on_the_pole_raises(chart):
    P = catalog.load("cp2")
    xi = np.array([0.5, 0.25])
    W = builtin("sasaki", 2, xi=xi, a=-F(float(np.min(P.vertices_floats() @ xi))))
    with pytest.raises(ProfileDomainError):
        if chart:
            quadrature.integrate_boundary(P, Integrand(W.v_weight))
        else:
            quadrature.integrate(P, Integrand(W.w_weight))


def test_overflow_reports_an_infinite_error():
    P = catalog.load("cp2")
    xi = np.array([1.0, 0.0])
    f = Integrand((PowerLaw(F(1), F(1, 2 ** 60), F(-40)), xi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_parts([(f, P.triangulation_floats())])[0]
    assert res.error == math.inf and not res.converged


@pytest.mark.parametrize("family", ["sasaki", "ckem"])
def test_power_law_reports_refine_no_part(monkeypatch, family):
    P = catalog.load("cube")
    W = builtin(family, 3, xi=[0.3, -0.2, 0.1], a=F(5, 4))
    monkeypatch.setattr(invariants, "_scalar_cache", type(invariants._scalar_cache)())
    seen = []
    real = quadrature._estimate
    monkeypatch.setattr(quadrature, "_estimate",
                        lambda parts, *a: seen.extend(parts) or real(parts, *a))
    invariant_report(P, W)
    assert seen == []


@pytest.mark.parametrize("family, exact", [("ckem", F(1365245952, 15625)),
                                           ("sasaki", None)])
def test_heavy_cube_case(family, exact):
    """cube, xi = (0.5, 0, 0), a = 1/8: w depends on x_1 alone, so vol_w is a
    1-D integral and the Gram entries off the diagonal vanish exactly."""
    P = catalog.load("cube")
    W = builtin(family, 3, xi=[0.5, 0.0, 0.0], a=F(1, 8))
    k = -int(W.w_profile.p)
    if exact is None:  # int_0^1 (1/8 + x/2)^-k dx
        exact = 2 * (F(1, 8) ** (1 - k) - F(5, 8) ** (1 - k)) / (k - 1)
    assert abs(vol_w(P, W) - exact) <= 1e-12 * exact
    g = gram(P, W)
    assert np.all(np.abs(g[~np.eye(3, dtype=bool)]) <= 1e-12)


class _Logged(OrderedDict):
    """A geometry cache that logs the key of each entry put in it."""

    def __init__(self):
        super().__init__()
        self.built = []

    def __setitem__(self, key, value):
        self.built.append(key)
        super().__setitem__(key, value)


def _stack_key(s):
    return (s.shape, s.tobytes())


@pytest.mark.parametrize("name", ["bl1cp2", "cube"])
def test_report_builds_each_stack_geometry_once(monkeypatch, name):
    P = catalog.load(name)
    cache = _Logged()
    monkeypatch.setattr(invariants, "_scalar_cache", OrderedDict())
    monkeypatch.setattr(quadrature, "_geometry_cache", cache)
    for family in ("sasaki", "ckem"):
        for dist in POLE_DISTANCES:
            W = _weights(P, family, "generic", dist)
            invariant_report(P, W, backend="both")
            invariants.futaki(P, W, np.full(P.dim, 0.5))
    # The interior stack and each facet's (facets with equal stacks share
    # one): once each, for every weight and every part, and without halves;
    # each holds the chart maps of its facets.
    facets = P.genuine_facet_indices()
    stacks = [P.triangulation_floats()] + [P.facet_triangulation_floats(i) for i in facets]
    assert len(set(cache.built)) == len(cache.built)
    assert set(cache.built) == set(map(_stack_key, stacks))
    assert all(cache[key][0] is None for key in cache.built)
    assert cache[_stack_key(stacks[0])][3].keys() == {None}
    for i, s in zip(facets, stacks[1:]):
        assert P.facet_chart(i) in cache[_stack_key(s)][3]
    assert sum(len(cache[key][3]) for key in cache.built) == 1 + len(facets)


@pytest.mark.parametrize("name", ["bl1cp2", "cube"])
def test_csck_then_sasaki_reports_take_each_det_once(monkeypatch, name):
    # The closed form reads |det| from the stack entries the exact parts of
    # the cscK report made: every determinant is one row of an entry built
    # once.
    P = catalog.load(name)
    cache, rows, det = _Logged(), [], np.linalg.det
    monkeypatch.setattr(invariants, "_scalar_cache", OrderedDict())
    monkeypatch.setattr(quadrature, "_geometry_cache", cache)
    monkeypatch.setattr(np.linalg, "det", lambda a: rows.append(len(a)) or det(a))
    invariant_report(P, builtin("cscK", P.dim))
    built = len(cache.built)
    invariant_report(P, _weights(P, "sasaki", "generic", F(1, 4)))
    assert len(cache.built) == built and len(set(cache.built)) == built
    assert sum(rows) == sum(len(cache[key][1]) for key in cache.built)


@pytest.mark.parametrize("first", ["exact", "adaptive"])
def test_closed_bits_do_not_depend_on_the_part_that_made_the_entry(monkeypatch, first):
    # An exact part makes entries without halves, an adaptive one with them;
    # the closed form reads the same |det| from either.
    parts = _closed_parts(("cp2", "cube"), ("generic",), F(1, 4))
    maker = {"exact": lambda n: Integrand(builtin("cscK", n).w_weight),
             "adaptive": lambda n: lambda x: np.exp(x[:, 0])}[first]

    def run(made_by):
        cache = OrderedDict()
        monkeypatch.setattr(quadrature, "_geometry_cache", cache)
        if made_by is not None:
            for _, s in parts:  # one call each: equal integrands would merge stacks
                integrate_parts([(made_by(s.shape[2]), s)])
            assert len(cache) == len({_stack_key(s) for _, s in parts})
            assert all((kids is None) == (first == "exact") for kids, *_ in cache.values())
        return [(r.value.hex(), r.error.hex(), r.converged) for r in integrate_parts(parts)]

    assert run(maker) == run(None)


def test_geometry_cache_stays_at_its_bound(monkeypatch):
    P = catalog.load("cube")
    W = _weights(P, "ckem", "generic", F(1, 4))
    monkeypatch.setattr(invariants, "_scalar_cache", OrderedDict())
    monkeypatch.setattr(quadrature, "_geometry_cache", OrderedDict())
    want = invariant_report(P, W)
    invariants._scalar_cache.clear()
    cache = _Logged()
    monkeypatch.setattr(quadrature, "_geometry_cache", cache)
    monkeypatch.setattr(quadrature, "_GEOMETRY_CACHE_SIZE", 1)
    sizes, build = [], quadrature._geometry

    def logged(*args):
        geo = build(*args)
        sizes.append(len(cache))
        return geo

    monkeypatch.setattr(quadrature, "_geometry", logged)
    assert invariant_report(P, W) == want
    # The cube's two stacks (interior and facet) evict each other.
    assert len(cache.built) > 2 and max(sizes) == 1

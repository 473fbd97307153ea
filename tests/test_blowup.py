import json
import math
from collections import Counter, OrderedDict
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from toricstab import blowup, catalog, invariants as inv, quadrature, testconfig as tcg
from toricstab.polytope import ChopDepthError, DelzantPolytope
from toricstab.profiles import builtin
from toricstab.quadrature import Integrand

from conftest import vertex_index

DATA = Path(__file__).parent / "data"


def richardson_limit(eps, values, orders):
    """Neville elimination of the given integer orders on a ratio-2 grid."""
    rows = list(values)
    for j in orders:
        rows = [(2 ** j * rows[k + 1] - rows[k]) / (2 ** j - 1)
                for k in range(len(rows) - 1)]
    return rows[-1]


class TestVolumeExpansion:
    def test_constant_weights_exact(self, square):
        W = builtin("cscK", 2)
        r = blowup.verify_expansion("volume", square, W, 0, rel_tol=1e-11)
        assert r.passed
        assert r.predicted[2] == pytest.approx(-0.5)
        assert r.remainder_exponent == math.inf  # deficit is exactly eps^2/2

    def test_soliton_coefficient(self, square):
        W = builtin("soliton", 2, xi=[0.6, -0.2])
        i = vertex_index(square, (0, 0))
        r = blowup.verify_expansion("volume", square, W, i, rel_tol=1e-8)
        assert r.passed
        assert r.predicted[2] == pytest.approx(-float(W.w(np.zeros(2))) / 2)

    def test_two_vertices_scale_by_weight_ratio(self, square):
        W = builtin("soliton", 2, xi=[0.5, 0.3])
        i0 = vertex_index(square, (0, 0))
        i1 = vertex_index(square, (1, 1))
        c0 = blowup.predict_volume_expansion(square, W, i0)[2]
        c1 = blowup.predict_volume_expansion(square, W, i1)[2]
        p0, p1 = np.zeros(2), np.ones(2)
        assert c0 / c1 == pytest.approx(float(W.w(p0) / W.w(p1)), rel=1e-12)

    def test_dimension_one_rejected(self, interval):
        with pytest.raises(ValueError):
            blowup.predict_volume_expansion(interval, builtin("cscK", 1), 0)


class TestFutakiExpansion:
    def test_barycentric_direction_gives_zero(self, square):
        # beta orthogonal to p - barycenter makes the coefficient vanish.
        W = builtin("cscK", 2)
        i = vertex_index(square, (0, 0))
        pred = blowup.predict_futaki_expansion(square, W, i, [1.0, -1.0])
        assert pred[1] == pytest.approx(0.0, abs=1e-13)

    def test_cp2_corner_coefficient(self, simplex):
        W = builtin("cscK", 2)
        i = vertex_index(simplex, (1, 0))
        r = blowup.verify_expansion("futaki", simplex, W, i, beta=[1.0, 0.0])
        assert r.passed
        # v(p) (<p, e1> - mean of x) = 1 - 1/3.
        assert r.predicted[1] == pytest.approx(1 - 1 / 3, rel=1e-12)

    def test_weighted_coefficient_scales_by_v(self, simplex):
        i = vertex_index(simplex, (1, 0))
        W = builtin("soliton", 2, xi=[0.4, -0.1])
        pred = blowup.predict_futaki_expansion(simplex, W, i, [1.0, 0.0])
        p = np.array([1.0, 0.0])
        bary = inv.barycenter_w(simplex, W)
        expected = float(W.v(p)) * (1.0 - float(bary[0]))
        assert pred[1] == pytest.approx(expected, rel=1e-12)
        r = blowup.verify_expansion("futaki", simplex, W, i, beta=[1.0, 0.0])
        assert r.passed

    def test_coefficient_linear_in_beta(self, simplex):
        W = builtin("cscK", 2)
        i = vertex_index(simplex, (1, 0))
        b1, b2 = np.array([1.0, 0.0]), np.array([0.3, 0.7])
        c1 = blowup.predict_futaki_expansion(simplex, W, i, b1)[1]
        c2 = blowup.predict_futaki_expansion(simplex, W, i, b2)[1]
        c12 = blowup.predict_futaki_expansion(simplex, W, i, b1 + b2)[1]
        assert c12 == pytest.approx(c1 + c2, rel=1e-11)


class TestDFExpansions:
    def test_product_vanishes_identically(self, simplex):
        W = builtin("cscK", 2)
        tc = tcg.associated_product(simplex, W, [0.0, 0.0])
        df = blowup.predict_df_expansions(tc, 0, "df")
        dft = blowup.predict_df_expansions(tc, 0, "dft")
        assert df[0] == pytest.approx(0.0, abs=1e-12)
        assert dft[1] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("quantity", ["df", "dft"])
    def test_nonproduct_fit(self, simplex, quantity):
        W = builtin("cscK", 2)
        tc = tcg.ToricTC(simplex, W,
                         tcg.PLConvex.make([((0, 0), 0), ((1, 1), F(-1, 2))]))
        i = vertex_index(simplex, (1, 0))
        r = blowup.verify_expansion(quantity, simplex, W, i, tc=tc)
        assert r.passed
        assert abs(r.predicted[1]) > 1e-3  # genuinely nonzero coefficient

    def test_df_coefficient_is_minus_v_chow(self, simplex):
        W = builtin("soliton", 2, xi=[0.2, 0.3])
        tc = tcg.ToricTC(simplex, W,
                         tcg.PLConvex.make([((0, 0), 0), ((1, 1), F(-1, 2))]))
        i = vertex_index(simplex, (0, 1))
        pred = blowup.predict_df_expansions(tc, i, "df")
        p = np.array([0.0, 1.0])
        ch = tcg.chow(tc, (F(0), F(1)))
        assert pred[1] == pytest.approx(-float(W.v(p)) * ch, rel=1e-12)

    @pytest.mark.parametrize("quantity", ["volume", "futaki", "gram", "DF", "df_T"])
    def test_unknown_quantity_raises(self, simplex, quantity):
        # On a product configuration too, whose prediction is all zeros.
        W = builtin("cscK", 2)
        for phi in ([((0, 0), 0), ((1, 1), F(-1, 2))], [((1, 0), 0)]):
            tc = tcg.ToricTC(simplex, W, tcg.PLConvex.make(phi))
            with pytest.raises(ValueError, match="unknown quantity"):
                blowup.predict_df_expansions(tc, 1, quantity)

    def test_normalized_tc_gives_same_prediction(self, simplex):
        W = builtin("cscK", 2)
        tc = tcg.ToricTC(simplex, W,
                         tcg.PLConvex.make([((0, 0), 0), ((1, 1), F(-1, 2))]))
        i = vertex_index(simplex, (1, 0))
        a = blowup.predict_df_expansions(tc, i, "df")[1]
        b = blowup.predict_df_expansions(tcg.normalize_chow(tc), i, "df")[1]
        assert a == pytest.approx(b, rel=1e-11)


class TestProductLadders:
    def test_dft_coefficients_are_exact_zeros(self, simplex):
        W = builtin("cscK", 2)
        tc = tcg.associated_product(simplex, W, [1.0, 0.0])
        r = blowup.verify_expansion("dft", simplex, W, 0, tc=tc)
        assert r.predicted == {0: 0.0, 1: 0.0}
        assert r.passed and r.coefficient_rel_error == 0.0
        assert r.zero_coefficient_error <= r.zero_coefficient_floor < 1e-12

    def test_constant_configuration_df_coefficients_are_exact_zeros(self, simplex):
        W = builtin("soliton", 2, xi=[0.3, -0.2])
        tc = tcg.ToricTC(simplex, W, tcg.PLConvex.make(
            [((0, 0), F(1, 3)), ((-1, -4), 0)]))
        for quantity in ("df", "dft"):
            r = blowup.verify_expansion(quantity, simplex, W, 1, tc=tc)
            assert r.predicted == {0: 0.0, 1: 0.0} and r.passed

    def test_rounded_zero_prediction_passes_at_the_floor(self):
        # A product df ladder of the blowup_ladder benchmark (seed 0): its
        # prediction -v(p) chow(p) is exactly 0, but computes as 1.6e-15.
        # Against the absolute floor 1e-14 its fit read 0.072 and failed.
        P, W = catalog.load("bl2cp2"), builtin("cscK", 2)
        phi = tcg.PLConvex.make([((-1, F(-1, 2)), F(-1, 4)), ((-1, F(2, 3)), F(-3, 2))])
        tc = tcg.ToricTC(P, W, phi)
        [(k, cell)] = tc.cells()
        (g1, g2), c = phi.pieces[k]
        mean = (g1 * quadrature.moments(cell, (1, 0))
                + g2 * quadrature.moments(cell, (0, 1))) / P.volume() + c
        assert P.vertices[1] == (0, 1) and phi.value_exact(P.vertices[1]) == mean == F(-3, 4)
        r = blowup.verify_expansion("df", P, W, 1, tc=tc)
        assert 0 < abs(r.predicted[1]) < 1e-14
        assert r.passed

    @pytest.mark.parametrize("name", ["cp2", "bl1cp2", "cube"])
    @pytest.mark.parametrize("fam", ["cscK", "soliton"])
    def test_df_of_a_product_is_futaki_of_its_slope_at_every_depth(self, name, fam):
        # phi = <x, g> + c twisted by t is -<x, t - g> + c, so df = F(t - g)
        # on P and on every P_eps: the product's df ladder and the futaki
        # ladder at beta = t - g have equal differences, to the roundoff
        # floors of the terms of both.
        P = catalog.load(name)
        n = P.dim
        W = builtin(fam, n, xi=BITS_XI[:n] if fam == "soliton" else None)
        (g, c), = BITS_PHI["product"]
        t = np.array([0.25, -0.5, 0.75][:n])
        tc = tcg.ToricTC(P, W, tcg.PLConvex.make([(g[:n], c)]), t)
        beta = t - np.array([float(x) for x in g[:n]])
        r_df = blowup.verify_expansion("df", P, W, 1, tc=tc)
        r_fut = blowup.verify_expansion("futaki", P, W, 1, beta=beta)
        assert r_df.passed and r_fut.passed
        corner = blowup._Corner(P, W, P.vertex_data_at(1), r_df.eps_grid,
                                blowup.DEFAULT_RULE)
        floor = blowup.NOISE * sum(np.abs(x) for x in [*corner.df(tc), *corner.futaki(beta)])
        assert np.all(np.abs(np.subtract(r_df.deltas, r_fut.deltas)) <= floor)
        for k in (0, n - 1):
            assert r_df.predicted[k] == pytest.approx(r_fut.predicted[k], rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("P", ["cp2", "cube"])
    def test_spurious_leading_term_fails(self, monkeypatch, P):
        # A signal far below any real coefficient, but above roundoff.
        P = catalog.load(P)
        n = P.dim
        W = builtin("soliton", n, xi=[0.3, -0.2, 0.1][:n])
        tc = tcg.associated_product(P, W, [0.5, 1.0, -0.5][:n])
        dft = blowup._Corner.dft

        def spurious(self, tc):
            eps = np.array([float(e) for e in self.at[1]])
            return [*dft(self, tc), 1e-10 * eps ** (n - 1)]

        assert blowup.verify_expansion("dft", P, W, 0, tc=tc).passed
        monkeypatch.setattr(blowup._Corner, "dft", spurious)
        r = blowup.verify_expansion("dft", P, W, 0, tc=tc)
        assert not r.passed
        assert r.zero_coefficient_error > r.zero_coefficient_floor
        assert r.fitted[n - 1] == pytest.approx(1e-10, rel=1e-3)


class TestContinuity:
    def test_futaki_extrapolates_to_unchopped(self, simplex):
        # Richardson over the smallest grid entries recovers the base value.
        W = builtin("soliton", 2, xi=[0.3, 0.2])
        i = vertex_index(simplex, (1, 0))
        grid = blowup.default_eps_grid(simplex, i)[-5:]
        vals = blowup.verify_expansion("futaki", simplex, W, i, eps_grid=grid,
                                       beta=[1.0, 0.0]).exact
        limit = richardson_limit(grid, vals, orders=[1, 2, 3, 4])
        base = inv.futaki(simplex, W, [1.0, 0.0])
        assert limit == pytest.approx(base, abs=1e-10 * (1 + abs(base)))

    def test_df_extrapolates_to_unchopped(self, simplex):
        W = builtin("soliton", 2, xi=[0.3, 0.2])
        tc = tcg.ToricTC(simplex, W,
                         tcg.PLConvex.make([((0, 0), 0), ((1, 1), F(-1, 2))]))
        i = vertex_index(simplex, (1, 0))
        grid = blowup.default_eps_grid(simplex, i)[-5:]
        vals = blowup.verify_expansion("df", simplex, W, i, eps_grid=grid,
                                       tc=tc).exact
        limit = richardson_limit(grid, vals, orders=[1, 2, 3, 4])
        base = tcg.df(tc)
        assert limit == pytest.approx(base, abs=1e-10 * (1 + abs(base)))


class TestGramConvergence:
    def test_square_constant_weights(self, square):
        W = builtin("cscK", 2)
        r = blowup.gram_convergence(square, W, 0)
        assert r.passed and r.remainder_exponent >= 1.5
        assert r.remainder_exponent == pytest.approx(2.0, abs=0.1)

    def test_square_soliton(self, square):
        W = builtin("soliton", 2, xi=[0.4, 0.1])
        r = blowup.gram_convergence(square, W, 0)
        assert r.remainder_exponent == pytest.approx(2.0, abs=0.1)

    def test_cube(self, cube):
        W = builtin("cscK", 3)
        r = blowup.gram_convergence(cube, W, 0)
        assert r.remainder_exponent == pytest.approx(3.0, abs=0.1)


class TestHarness:
    def test_unimodular_invariance_of_fit(self, simplex):
        u = [[1, 1], [0, 1]]
        image = simplex.unimodular_image(u)
        uinvT = np.linalg.inv(np.array(u, dtype=float)).T
        W = builtin("cscK", 2)
        i = vertex_index(simplex, (1, 0))
        r1 = blowup.verify_expansion("futaki", simplex, W, i, beta=[1.0, 0.0])
        p_img = tuple(sum(u[r][c] * [F(1), F(0)][c] for c in range(2))
                      for r in range(2))
        i_img = vertex_index(image, p_img)
        r2 = blowup.verify_expansion("futaki", image, W, i_img,
                                     beta=uinvT @ np.array([1.0, 0.0]))
        assert r1.passed and r2.passed
        assert r2.predicted[1] == pytest.approx(r1.predicted[1], rel=1e-10)
        assert r2.fitted[1] == pytest.approx(r1.fitted[1], rel=1e-8)

    def test_inadmissible_grid_rejected(self, simplex):
        W = builtin("cscK", 2)
        bad = (F(1, 2),)  # equals the admissible bound at the corner
        with pytest.raises(Exception):
            blowup.verify_expansion("volume", simplex, W, 0, eps_grid=bad)

    def test_chop_past_admissible_depth_raises_every_time(self, simplex):
        W = builtin("cscK", 2)
        bound = simplex.admissible_chop(0)
        grid = (bound, bound / 2, bound / 4, bound / 8)
        for quantity in ("volume", "volume", "gram"):
            with pytest.raises(ChopDepthError):
                blowup.verify_expansion(quantity, simplex, W, 0, eps_grid=grid)

    def test_series_rows(self, square):
        W = builtin("cscK", 2)
        r = blowup.verify_expansion("volume", square, W, 0)
        rows = r.series()
        assert len(rows) == len(r.eps_grid)
        eps, exact, model = rows[0]
        assert exact == pytest.approx(model, abs=1e-12)


class TestHigherDimensions:
    def test_cube_soliton_expansions(self, cube):
        W = builtin("soliton", 3, xi=[0.3, -0.2, 0.1])
        i = vertex_index(cube, (0, 0, 0))
        r = blowup.verify_expansion("volume", cube, W, i)
        assert r.passed and r.coefficient_rel_error < 1e-6
        r = blowup.verify_expansion("futaki", cube, W, i, beta=[1.0, 0, 0])
        assert r.passed and r.remainder_exponent >= 2.9

    def test_four_dimensional_factorial_normalisation(self):
        # At n = 4 the 1/(n-2)! factor in the character coefficient is 1/2,
        # so this fit distinguishes the normalisation (invisible for n <= 3).
        from toricstab.polytope import DelzantPolytope
        facets = []
        for k in range(4):
            e = [0] * 4
            e[k] = 1
            facets.append((tuple(e), 0))
            e2 = [0] * 4
            e2[k] = -1
            facets.append((tuple(e2), 1))
        cube4 = DelzantPolytope(4, facets)
        W = builtin("cscK", 4)
        i = vertex_index(cube4, (0, 0, 0, 0))
        r = blowup.verify_expansion("futaki", cube4, W, i,
                                    beta=[1.0, 0, 0, 0], rel_tol=1e-4)
        assert r.predicted[3] == pytest.approx(-0.25)  # 1*(0 - 1/2)/2!
        assert r.passed and r.remainder_exponent >= 3.9


def test_grid_past_the_float_range_refused_before_integrating(monkeypatch, simplex):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused grid was integrated")

    monkeypatch.setattr(inv.quadrature, "integrate_parts", refuse)
    W = builtin("cscK", 2)
    # Normal depths whose squares underflow; one whose cube overflows.
    tiny = tuple(F(1, 2 ** (600 + k)) for k in range(8))
    with pytest.raises(ValueError, match=r"eps\*\*7 at depth 0 is not a positive"):
        blowup.verify_expansion("volume", simplex, W, 0, eps_grid=tiny)
    with pytest.raises(ValueError, match=r"eps\*\*2 at depth 0 is not a positive"):
        blowup.gram_convergence(simplex, W, 0, eps_grid=tiny)
    with pytest.raises(ValueError, match=r"eps\*\*3 at depth 0 is not a positive"):
        blowup.verify_expansion("futaki", simplex, W, 0, beta=[1.0, 0.0],
                                eps_grid=(F(10 ** 120), F(1, 16), F(1, 32), F(1, 64)))


@pytest.mark.parametrize("name", ["cp2", "cube"])
def test_each_corner_integrand_is_called_once_per_dimension(monkeypatch, name):
    # cscK corner parts are all exact, so every integrand call is a first
    # pass: one per integrand and dimension for all 8 depths, not one per
    # depth.  Only each F_eps, a hyperplane of its own, serves one depth.
    monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
    P = catalog.load(name)
    n = P.dim
    W = builtin("cscK", n)
    phi = tcg.PLConvex.make([(g[:n], c) for g, c in BITS_PHI["nonproduct"]])
    tc = tcg.ToricTC(P, W, phi)
    integrate_parts, rule_sums, seen = quadrature.integrate_parts, quadrature._rule_sums, []
    integrals, corner = blowup._Corner.integrals, []

    def marked(self, *args):
        corner.append(1)
        try:
            return integrals(self, *args)
        finally:
            corner.pop()

    def spy(parts, rule):
        # The engine calls an integrand only in _rule_sums: count those
        # calls of the corner integrals by integrand value and dimension.
        if not corner:
            return integrate_parts(parts, rule)
        calls = Counter()

        def counting(f, allv, *rest):
            calls[f, allv.shape[2]] += 1
            return rule_sums(f, allv, *rest)
        seen.append((Counter(f for f, _ in parts), calls,
                     {(f, s.shape[2]) for f, s in parts}))
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_rule_sums", counting)
            return integrate_parts(parts, rule)

    monkeypatch.setattr(blowup._Corner, "integrals", marked)
    monkeypatch.setattr(quadrature, "integrate_parts", spy)
    for quantity in ("volume", "futaki", "df", "dft"):
        blowup.verify_expansion(quantity, P, W, 1, beta=BITS_BETA[:n], tc=tc)
    # The corner integrals, in order: s_hat's, the futaki ladder's
    # beta-moments, the PL integrals, the Gram moments, then the moments of
    # each basis vector (dft).
    weighted = {8: 1 + n, 1: 8}  # w or a beta-moment inside, v on each facet
    gram = {8: 1 + n + n * (n + 1) // 2}
    assert len(seen) == 4 + n
    for k, (parts, calls, dims) in enumerate(seen):
        assert set(calls) == dims and set(calls.values()) == {1}, k
        if k != 2:  # the PL integrals: one integrand per piece of phi
            assert Counter(parts.values()) == (gram if k == 3 else weighted), k
    assert max(seen[2][0].values()) == 8


def test_f_eps_of_two_depths_is_two_hyperplanes():
    # Each depth's F_eps has a chart, and a pulled-back integrand, of its
    # own: its parts never merge with another depth's.  The facets through
    # the vertex are one hyperplane at every depth, and merge.
    P = catalog.load("cp2")
    (D1, f1), (D2, f2) = blowup._corners(P, 0, (F(1, 8), F(1, 16)))
    c1, c2 = D1.facet_chart(f1[0]), D2.facet_chart(f2[0])
    assert c1.basis == c2.basis and c1 != c2
    assert c1.map_floats([[0.5]]).tolist() == [[-0.375, 0.5]]
    assert c2.map_floats([[0.5]]).tolist() == [[-0.4375, 0.5]]
    v = Integrand(builtin("cscK", 2).v_weight)
    assert Integrand(v, chart=c1) != Integrand(v, chart=c2)
    d1, d2 = D1.facet_chart(f1[1]), D2.facet_chart(f2[1])
    assert d1 == d2 and hash(d1) == hash(d2)
    assert Integrand(v, chart=d1) == Integrand(v, chart=d2)


@pytest.mark.parametrize("name", ["cp2", "bl1cp2", "cube"])
def test_smallest_corner_is_its_own_cell(name):
    # At a vertex inside one cell of phi, the smallest corner of the grid
    # lies inside that cell too: its one cell is the corner itself.
    P = catalog.load(name)
    phi = tcg.PLConvex.make([(g[:P.dim], c) for g, c in BITS_PHI["nonproduct"]])
    inside = 0
    for k, v in enumerate(P.vertices):
        values = [sum(a * b for a, b in zip(g, v)) + c for g, c in phi.pieces]
        if values.count(max(values)) > 1:
            continue
        D = P.corner(k, blowup.default_eps_grid(P, k)[-1])
        # Uncached: an equal corner from another test may hold the entry.
        (piece, cell), = tcg._cells.__wrapped__(D, phi)
        assert piece == values.index(max(values)) and cell is D
        inside += 1
    assert inside >= len(P.vertices) - 1


def test_product_df_ladder_builds_no_cell(monkeypatch):
    # A shape used nowhere else, so no cache holds its corners or cells.
    P = DelzantPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), 3), ((0, -1), 2)])
    W = builtin("cscK", 2)
    tc = tcg.associated_product(P, W, [1.0, 0.0])
    built, init = [], DelzantPolytope.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DelzantPolytope, "__init__", counted)
    assert blowup.verify_expansion("df", P, W, 0, tc=tc).passed
    # The corner simplices are built once each; their cells and P's are
    # the polytopes themselves.
    corners = [D for D, _ in blowup._corners(P, 0, blowup.default_eps_grid(P, 0))]
    assert len(corners) == 8 and [id(Q) for Q in built] == [id(D) for D in corners]


@pytest.mark.parametrize("name", ["cp2", "cube"])
def test_product_dft_ladder_integrates_nothing(monkeypatch, name):
    # The torus-orthogonal part of a product is zero on P and on every
    # P_eps: its dft ladder is exact zeros, decided in L0.
    P = catalog.load(name)
    n = P.dim
    W = builtin("soliton", n, xi=BITS_XI[:n])
    phi = tcg.PLConvex.make([(g[:n], c) for g, c in BITS_PHI["product"]])
    tc = tcg.ToricTC(P, W, phi, [0.25, -0.5, 0.75][:n])
    # A grid used nowhere else, so no cache holds its corners, and a cold store.
    grid = tuple(F(3, 5) * e for e in blowup.default_eps_grid(P, 1))
    monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
    integrate_parts, calls = quadrature.integrate_parts, []
    built, init = [], DelzantPolytope.__init__

    def spy(parts, rule):
        calls.append(parts)
        return integrate_parts(parts, rule)

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_parts", spy)
    monkeypatch.setattr(DelzantPolytope, "__init__", counted)
    r = blowup.verify_expansion("dft", P, W, 1, eps_grid=grid, tc=tc)
    corners = [D for D, _ in blowup._corners(P, 1, grid)]
    assert calls == [] and [id(Q) for Q in built] == [id(D) for D in corners]
    assert r.passed and r.predicted == {0: 0.0, n - 1: 0.0}
    assert {_hex(x) for x in (*r.deltas, *r.exact, *r.fitted.values())} == {"0x0.0p+0"}
    assert r.zero_coefficient_error == r.zero_coefficient_floor == 0.0
    # The corners are built first: a depth past the admissible one raises.
    bound = P.admissible_chop(1)
    with pytest.raises(ChopDepthError):
        blowup.verify_expansion("dft", P, W, 1, tc=tc,
                                eps_grid=(bound, bound / 2, bound / 4, bound / 8))


@pytest.mark.parametrize("quantity", ["df", "dft"])
def test_configuration_of_another_problem_refused_before_integrating(monkeypatch, quantity):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused configuration was integrated")

    P, other = catalog.load("cp2"), catalog.load("bl1cp2")
    W, soliton = builtin("cscK", 2), builtin("soliton", 2, xi=[0.3, -0.2])
    # The second piece holds only the corner x + y < 1/8 that bl1cp2 chops
    # off: a product on bl1cp2, not on cp2.
    phi = tcg.PLConvex.make([((0, 0), 0), ((-1, -1), F(1, 8))])
    assert tcg.ToricTC(other, W, phi).is_product()
    assert not tcg.ToricTC(P, W, phi).is_product()
    monkeypatch.setattr(quadrature, "integrate_parts", refuse)
    for tc in (tcg.ToricTC(other, W, phi), tcg.ToricTC(P, soliton, phi)):
        with pytest.raises(ValueError, match="not on the polytope and weights"):
            blowup.verify_expansion(quantity, P, W, 1, tc=tc)


def test_narrow_grid_rejected(simplex):
    W = builtin("cscK", 2)
    with pytest.raises(ValueError, match="too narrow"):
        blowup.verify_expansion("volume", simplex, W, 0,
                                eps_grid=(F(1, 16), F(1, 32)))


# The bits of every ladder and of the L2 integrals it is assembled from,
# recorded by ``_ladder_bits()`` into tests/data/ladder_bits.json.  A
# refactor of the corner integrals must keep each float exactly, and each
# failure's exception type.
BITS_POLYTOPES = ("cp2", "bl1cp2", "cube")
BITS_XI = (0.3, -0.2, 0.1)
BITS_BETA = (0.5, 1.0, -0.7)
# An affine phi (a product configuration) and a two-piece one whose crease
# crosses each of the three polytopes.
BITS_PHI = {"product": [((F(1, 2), F(-1, 3), F(1, 4)), F(1, 5))],
            "nonproduct": [((0, 0, 0), 0), ((F(1), F(-1, 2), F(1, 3)), F(-1, 4))]}


def _hex(x):
    if isinstance(x, (tuple, list, np.ndarray)):
        return [_hex(y) for y in np.ravel(np.asarray(x, dtype=float))]
    return float(x).hex()


def _bits_of_call(fn):
    try:
        return fn()
    except (ValueError, ArithmeticError) as e:
        return type(e).__name__


def _report_bits(r):
    return {"deltas": _hex(r.deltas), "exact": _hex(r.exact),
            "fitted": _hex([c for _, c in sorted(r.fitted.items())]),
            "remainder_exponent": _hex(r.remainder_exponent)}


def _ladder_bits():
    bits = {}
    for name in BITS_POLYTOPES:
        P = catalog.load(name)
        n = P.dim
        beta = np.array(BITS_BETA[:n])
        for fam in ("cscK", "soliton"):
            W = builtin(fam, n, xi=BITS_XI[:n] if fam == "soliton" else None)
            key = f"{name} {fam}"
            bits[f"{key} vol_w"] = _hex(inv.vol_w(P, W))
            bits[f"{key} per_v"] = _hex(inv.per_v(P, W))
            bits[f"{key} _moment_w"] = _hex(inv._moment_w(P, W, beta, blowup.DEFAULT_RULE))
            bits[f"{key} _moment_boundary_v"] = _hex(
                inv._moment_boundary_v(P, W, beta, blowup.DEFAULT_RULE))
            bits[f"{key} gram"] = _hex(inv.gram(P, W))
            bits[f"{key} ladder volume"] = _bits_of_call(lambda: _report_bits(
                blowup.verify_expansion("volume", P, W, 1)))
            bits[f"{key} ladder futaki"] = _bits_of_call(lambda: _report_bits(
                blowup.verify_expansion("futaki", P, W, 1, beta=beta)))
            bits[f"{key} ladder gram"] = _bits_of_call(lambda: _report_bits(
                blowup.gram_convergence(P, W, 1)))
            for kind, pieces in BITS_PHI.items():
                phi = tcg.PLConvex.make([(g[:n], c) for g, c in pieces])
                tc = tcg.ToricTC(P, W, phi)
                assert tc.is_product() == (kind == "product")
                k = f"{key} {kind}"
                bits[f"{k} integrate_pl"] = _hex(tcg.integrate_pl(tc))
                bits[f"{k} integrate_pl_boundary"] = _hex(tcg.integrate_pl_boundary(tc))
                bits[f"{k} lambda_pairing"] = _hex(tcg.lambda_pairing(tc, beta))
                bits[f"{k} df"] = _hex(tcg.df(tc))
                bits[f"{k} df_T"] = _hex(tcg.df_T(tc))
                bits[f"{k} l1_norm"] = _hex(tcg.l1_norm(tc))
                for q in ("df", "dft"):
                    bits[f"{k} ladder {q}"] = _bits_of_call(lambda: _report_bits(
                        blowup.verify_expansion(q, P, W, 1, tc=tc)))
    return bits


def test_ladder_bits_are_pinned():
    want = json.loads((DATA / "ladder_bits.json").read_text())
    got = _ladder_bits()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


def test_normal_powers_are_checked_once_per_grid_and_power():
    check = blowup._require_normal_powers
    check.cache_clear()
    grid = tuple(F(1, 2 ** k) for k in range(3, 7))
    for _ in range(3):
        check(grid, 4)
    assert (check.cache_info().hits, check.cache_info().misses) == (2, 1)
    # A refused grid raises on every call: no exception is cached.
    bad = (F(1, 2 ** 300),) + grid
    for _ in range(2):
        with pytest.raises(ValueError, match="leaves the float range: eps\\*\\*4 at depth 0"):
            check(bad, 4)

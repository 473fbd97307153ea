import math
from fractions import Fraction as F

import numpy as np
import pytest

from toricstab import blowup, invariants as inv, testconfig as tcg
from toricstab.profiles import builtin

from conftest import vertex_index


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
        pred = blowup.predict_df_expansions(tc, 0)
        assert pred["df"][0] == pytest.approx(0.0, abs=1e-12)
        assert pred["dft"][1] == pytest.approx(0.0, abs=1e-10)

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
        pred = blowup.predict_df_expansions(tc, i)
        p = np.array([0.0, 1.0])
        ch = tcg.chow(tc, (F(0), F(1)))
        assert pred["df"][1] == pytest.approx(-float(W.v(p)) * ch, rel=1e-12)

    def test_normalized_tc_gives_same_prediction(self, simplex):
        W = builtin("cscK", 2)
        tc = tcg.ToricTC(simplex, W,
                         tcg.PLConvex.make([((0, 0), 0), ((1, 1), F(-1, 2))]))
        i = vertex_index(simplex, (1, 0))
        a = blowup.predict_df_expansions(tc, i)["df"][1]
        b = blowup.predict_df_expansions(tcg.normalize_chow(tc), i)["df"][1]
        assert a == pytest.approx(b, rel=1e-11)


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


def test_narrow_grid_rejected(simplex):
    W = builtin("cscK", 2)
    with pytest.raises(ValueError, match="too narrow"):
        blowup.verify_expansion("volume", simplex, W, 0,
                                eps_grid=(F(1, 16), F(1, 32)))

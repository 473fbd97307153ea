import gc
import weakref
from collections import Counter, OrderedDict
from fractions import Fraction as F

import numpy as np
import pytest

from toricstab import catalog, invariants as inv, localize, polytope, quadrature
from toricstab import testconfig as tcg
from toricstab.acceptance import BL1CP2_SOLITON_T
from toricstab.invariants import BackendError
from toricstab.profiles import PositivityError, Profile, builtin, require_positive
from toricstab.quadrature import DEFAULT_RULE, Integrand


class TestSHat:
    def test_line(self, interval):
        assert inv.s_hat(interval, builtin("cscK", 1)) == pytest.approx(2.0)

    def test_plane(self, simplex):
        assert inv.s_hat(simplex, builtin("cscK", 2)) == pytest.approx(6.0)

    def test_soliton_at_zero_matches_constant(self, trapezoid):
        a = inv.s_hat(trapezoid, builtin("soliton", 2, xi=[0, 0]))
        b = inv.s_hat(trapezoid, builtin("cscK", 2))
        assert a == pytest.approx(b, rel=1e-12)

    def test_both_backends_agree(self, trapezoid):
        W = builtin("soliton", 2, xi=[0.4, 0.7])
        assert inv.s_hat(trapezoid, W, backend="both") == pytest.approx(
            inv.s_hat(trapezoid, W), rel=1e-12)

    def test_positivity_enforced(self, simplex):
        bad = builtin("sasaki", 2, xi=[1.0, 0.0], a=F(0))
        with pytest.raises(PositivityError):
            inv.s_hat(simplex, bad)


class TestFutaki:
    def test_vector_checks_each_backend_on_its_own_s_hat(self, monkeypatch):
        # A quadrature Per_v 1% high moves the quadrature s_hat and F alone;
        # the localisation F, from its own s_hat, disagrees on each e_i.
        P, W = catalog.load("cp2"), builtin("cscK", 2, xi=[0.3, -0.2])
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        per_v = inv.per_v

        def high(P, W, rule=DEFAULT_RULE, backend="quadrature"):
            return per_v(P, W, rule, backend) * (1.01 if backend == "quadrature" else 1)

        monkeypatch.setattr(inv, "per_v", high)
        for b in np.eye(2):
            with pytest.raises(BackendError):
                inv.futaki(P, W, b, backend="both")
        with pytest.raises(BackendError):
            inv.futaki_vector(P, W, backend="both")

    @pytest.mark.parametrize("backend", ["quadrature", "localization", "both"])
    def test_beta_of_another_shape_is_refused(self, monkeypatch, backend):
        # A beta is keyed by its bytes, which do not hold its shape: a (1, 2)
        # beta was integrated as the (2,) one.  Refused before any integral.
        P, W = catalog.load("cp2"), builtin("cscK", 2)
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        monkeypatch.setattr(quadrature, "integrate_parts", None)  # a call raises TypeError
        for beta, shape in (([[1.0, 0.5]], r"\(1, 2\)"), ([1.0, 0.5, 0.0], r"\(3,\)")):
            with pytest.raises(ValueError, match=rf"beta has shape {shape}, expected \(2,\)"):
                inv.futaki(P, W, beta, backend=backend)

    def test_vanishes_on_symmetric_simplex(self, simplex):
        W = builtin("cscK", 2)
        for b in np.eye(2):
            assert inv.futaki(simplex, W, b) == pytest.approx(0.0, abs=1e-12)

    def test_translation_leaves_value(self, simplex):
        # Constant weights: F is unchanged under any translation of P.
        W = builtin("cscK", 2)
        moved = simplex.translate([F(-1, 3), F(-1, 3)])
        for b in np.eye(2):
            assert inv.futaki(moved, W, b) == pytest.approx(0.0, abs=1e-12)

    def test_nonzero_on_asymmetric_blowup(self, trapezoid):
        val = inv.futaki(trapezoid, builtin("cscK", 2), [1, 1])
        assert abs(val) > 1e-3

    def test_linearity(self, trapezoid):
        W = builtin("soliton", 2, xi=[0.2, -0.3])
        rng = np.random.default_rng(5)
        for _ in range(5):
            b1, b2 = rng.uniform(-1, 1, (2, 2))
            lhs = inv.futaki(trapezoid, W, b1 + b2)
            rhs = inv.futaki(trapezoid, W, b1) + inv.futaki(trapezoid, W, b2)
            assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_backend_assembly_agreement(self, trapezoid):
        for W in (builtin("soliton", 2, xi=[0.4, 0.9]),
                  builtin("sasaki", 2, xi=[0.3, 0.8], a=F(4))):
            for b in np.eye(2):
                q = inv.futaki(trapezoid, W, b)
                l = inv.futaki(trapezoid, W, b, backend="localization")
                assert abs(q - l) <= 1e-8 * (1 + abs(q))

    def test_translation_covariance_with_recentered_profiles(self):
        P = catalog.load("bl1cp2")
        xi = [0.6, 0.6]
        W = builtin("soliton", 2, xi=xi)
        eta = [F(-1, 2), F(1, 4)]
        shift = F(-1, 2) * F(6, 10) + F(1, 4) * F(6, 10)
        moved = P.translate(eta)
        W2 = builtin("soliton", 2, xi=xi).recentered(
            sum(F(e) * F(x) for e, x in zip(eta, [F(6, 10), F(6, 10)])))
        for b in np.eye(2):
            assert inv.futaki(moved, W2, b) == pytest.approx(
                inv.futaki(P, W, b), abs=1e-11)


class TestGram:
    def test_interval_variance(self, interval):
        g = inv.gram(interval, builtin("cscK", 1))
        assert g[0, 0] == pytest.approx(1 / 12, rel=1e-12)

    def test_square_diagonal(self, square):
        g = inv.gram(square, builtin("cscK", 2))
        assert np.allclose(np.diag(g), 1 / 12)
        assert abs(g[0, 1]) < 1e-13

    def test_positive_definite_all_families(self, trapezoid):
        rng = np.random.default_rng(9)
        xi = rng.uniform(-0.5, 0.5, 2)
        for name, a in (("cscK", None), ("soliton", None),
                        ("sasaki", F(4)), ("ckem", F(4))):
            W = builtin(name, 2, xi=xi, a=a)
            g = inv.gram(trapezoid, W)
            assert np.min(np.linalg.eigvalsh(g)) > 0

    def test_collinear_basis_rejected(self, square):
        for _ in range(2):  # a dependent basis is never cached
            with pytest.raises(ValueError, match="linearly dependent"):
                inv.gram(square, builtin("cscK", 2), basis=[[1, 0], [2, 0]])

    def test_rank_checked_once_per_basis(self, monkeypatch, square):
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        ranks = []
        rank = np.linalg.matrix_rank
        monkeypatch.setattr(inv.np.linalg, "matrix_rank",
                            lambda *a: ranks.append(1) or rank(*a))
        W = builtin("cscK", 2)
        for _ in range(3):
            inv.gram(square, W)
        assert len(ranks) == 1


class TestExtremalField:
    def test_symmetric_case_is_constant(self, simplex):
        ext = inv.extremal_field(simplex, builtin("cscK", 2))
        assert np.allclose(ext.chi, 0, atol=1e-10)
        assert ext.a == pytest.approx(6.0)

    def test_blowup_extremal_direction_on_axis(self, trapezoid):
        ext = inv.extremal_field(trapezoid, builtin("cscK", 2))
        assert ext.chi[0] == pytest.approx(ext.chi[1], rel=1e-9)
        assert abs(ext.chi[0]) > 0.1

    def test_residual_contract(self, trapezoid):
        W = builtin("soliton", 2, xi=[0.25, -0.1])
        ext = inv.extremal_field(trapezoid, W)
        g = inv.gram(trapezoid, W)
        chi = np.asarray(ext.chi)
        rng = np.random.default_rng(12)
        for _ in range(20):
            beta = rng.uniform(-1, 1, 2)
            f = inv.futaki(trapezoid, W, beta)
            assert abs(f + float(chi @ g @ beta)) <= 1e-8 * (1 + abs(f))

    def test_average_identity(self, trapezoid):
        # mean_w(w_ext) = s_hat by the choice of the constant term.
        W = builtin("cscK", 2)
        ext = inv.extremal_field(trapezoid, W)
        bary = inv.barycenter_w(trapezoid, W)
        sh = inv.s_hat(trapezoid, W)
        assert float(np.asarray(ext.chi) @ bary) + ext.a == pytest.approx(sh)

    def test_basis_independence_of_the_function(self, trapezoid):
        # w_ext is basis independent: solving in a rescaled basis gives the
        # same affine function.
        W = builtin("cscK", 2)
        ext = inv.extremal_field(trapezoid, W)
        g2 = inv.gram(trapezoid, W, basis=[[2, 0], [0, 3]])
        f2 = np.array([inv.futaki(trapezoid, W, [2, 0]),
                       inv.futaki(trapezoid, W, [0, 3])])
        chi2 = np.linalg.solve(g2, -f2)
        recovered = np.array([2 * chi2[0], 3 * chi2[1]])
        assert np.allclose(recovered, ext.chi, rtol=1e-9)


class TestFutakiSigned:
    def test_reduces_to_futaki_for_unit_affine(self, trapezoid):
        W = builtin("cscK", 2)
        for b in np.eye(2):
            a = inv.futaki_signed(trapezoid, W, ((0.0, 0.0), 1.0), b)
            assert a == pytest.approx(inv.futaki(trapezoid, W, b), abs=1e-12)

    def test_vanishes_at_extremal_data(self, trapezoid):
        for W in (builtin("cscK", 2), builtin("soliton", 2, xi=[0.3, 0.1])):
            ext = inv.extremal_field(trapezoid, W)
            for b in np.eye(2):
                assert inv.futaki_signed(trapezoid, W, ext, b) == \
                    pytest.approx(0.0, abs=1e-8)

    def test_zero_mass_branch(self, interval):
        # On the symmetric interval the affine <x, 1> has zero w-mass, so the
        # average is replaced by one.
        W = builtin("cscK", 1)
        val = inv.futaki_signed(interval, W, ((1.0,), 0.0), [1.0])
        # With average 1: 1 * int x*x dx - int_boundary x dsigma = 1/12 - 0.
        assert val == pytest.approx(1 / 12 - (0.5 - 0.5), rel=1e-10)


class TestSoliton:
    def test_symmetric_reflexive_zero(self):
        for name in ("cp2-reflexive", "cp1xcp1-reflexive", "bl3cp2-reflexive"):
            res = inv.soliton_field(catalog.load(name))
            assert np.linalg.norm(res.xi) <= 1e-9
            assert res.converged

    def test_blowup_matches_oracle(self):
        res = inv.soliton_field(catalog.load("bl1cp2-reflexive"))
        assert res.converged and res.normalization_consistent
        assert res.oracle_gap <= 1e-8
        assert res.xi[0] == pytest.approx(res.xi[1], abs=1e-10)

    def test_requires_reflexive(self, simplex):
        with pytest.raises(ValueError):
            inv.soliton_field(simplex)

    def test_oracle_uses_no_cubature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the soliton oracle integrated by cubature")

        monkeypatch.setattr(quadrature, "integrate_parts", refuse)
        xi = inv.soliton_oracle(catalog.load("bl1cp2-reflexive"))
        assert max(abs(c - BL1CP2_SOLITON_T) for c in xi) <= 1e-13


class TestUnimodularInvariance:
    def test_invariants_transform_correctly(self, trapezoid):
        u = np.array([[1, 1], [0, 1]])
        image = trapezoid.unimodular_image(u.tolist())
        uinvT = np.linalg.inv(u.astype(float)).T
        xi = np.array([0.35, 0.15])
        W = builtin("soliton", 2, xi=xi)
        W_img = builtin("soliton", 2, xi=uinvT @ xi)
        assert inv.s_hat(image, W_img) == pytest.approx(
            inv.s_hat(trapezoid, W), rel=1e-11)
        for b in np.eye(2):
            assert inv.futaki(image, W_img, uinvT @ b) == pytest.approx(
                inv.futaki(trapezoid, W, b), abs=1e-11)


class TestReport:
    def test_fields_and_invariants(self, trapezoid):
        W = builtin("cscK", 2)
        rep = inv.invariant_report(trapezoid, W, backend="both")
        assert rep.vol_w > 0 and rep.per_v > 0
        g = np.array(rep.gram)
        assert np.allclose(g, g.T)
        assert np.min(np.linalg.eigvalsh(g)) > 0
        assert rep.backend_discrepancy <= 1e-8

    def test_backend_error_surfaces(self, trapezoid, monkeypatch):
        monkeypatch.setattr(inv, "agree", lambda a, b, scale: abs(a - b) <= 1e-18 * scale)
        W = builtin("cscK", 2)
        with pytest.raises(BackendError):
            inv.invariant_report(trapezoid, W, backend="both")

    @staticmethod
    def weights(P, family, kind):
        xi = np.array([0.3, -0.2, 0.1][:P.dim]) if kind == "generic" else 0.4 * np.eye(P.dim)[0]
        a = None  # the pole of a power law 1/4 away from P
        if family in ("sasaki", "ckem"):
            a = F(1, 4) - F(float(np.min(P.vertices_floats() @ xi)))
        return builtin(family, P.dim, xi=xi, a=a)

    @pytest.mark.parametrize("name", catalog.names())
    def test_equals_one_quantity_per_call(self, monkeypatch, name):
        P = catalog.load(name)
        eye, (i, j) = np.eye(P.dim), np.triu_indices(P.dim)
        inside = lambda f: quadrature.integrate(P, f).value
        boundary = lambda f: quadrature.integrate_boundary(P, f).value
        for family in ("cscK", "soliton", "sasaki", "ckem"):
            for kind in ("generic", "axis"):
                W = self.weights(P, family, kind)
                monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
                rep = inv.invariant_report(P, W)
                vol, per = inside(Integrand(W.w_weight)), boundary(Integrand(W.v_weight))
                moments = [inside(inv.moment_integrands(W, e)[0]) for e in eye]
                bmoments = [boundary(inv.moment_integrands(W, e)[1]) for e in eye]
                grams = [inside(f) for f in
                         inv.gram_integrands(W, eye, np.array(moments) / vol)]
                where = (family, kind)
                assert (rep.vol_w, rep.per_v, rep.s_hat) == (vol, per, per / vol), where
                assert rep.futaki == tuple(per / vol * m - b
                                           for m, b in zip(moments, bmoments)), where
                assert [rep.gram[a][b] for a, b in zip(i, j)] == grams, where
                assert [inv._moment_w(P, W, e, DEFAULT_RULE) for e in eye] == moments, where

    @pytest.mark.parametrize("family, name", [
        pytest.param(family, name, id=family if name == "cube" else f"{family}-{name}")
        for name in ("cube", "cp1") for family in ("sasaki", "ckem")])
    def test_power_law_report_makes_two_engine_calls(self, monkeypatch, family, name):
        P = catalog.load(name)
        calls = []
        engine = inv.quadrature.integrate_parts
        monkeypatch.setattr(inv.quadrature, "integrate_parts",
                            lambda parts, *a: calls.append(len(parts)) or engine(parts, *a))
        W = self.weights(P, family, "generic")
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        inv.invariant_report(P, W)
        assert len(calls) == 2
        # Both backends: the localisation values first, then Vol_w, Per_v
        # and the moments in one call, one boundary part per facet (cp1's
        # two points too), then the Gram matrix once the check passes; a
        # report that fails it has integrated its moments.
        n, facets = P.dim, len(P.genuine_facet_indices())
        first = 1 + facets + n + n * facets
        for backend in ("localization", "both"):
            monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
            calls.clear()
            inv.invariant_report(P, W, backend=backend)
            assert calls == [first, n * (n + 1) // 2], backend
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        monkeypatch.setattr(inv, "agree", lambda a, b, scale: False)  # cp1's agree to the bit
        calls.clear()
        with pytest.raises(BackendError):
            inv.invariant_report(P, W, backend="both")
        assert calls == [first]

    def test_report_whose_localisation_raises_integrates_nothing(self, monkeypatch):
        # ckem weights at an axis xi send localisation to a limit that does
        # not settle (at xi = 0 the limit is an identity, and the report runs).
        calls = []
        engine = inv.quadrature.integrate_parts
        monkeypatch.setattr(inv.quadrature, "integrate_parts",
                            lambda parts, *a: calls.append(len(parts)) or engine(parts, *a))
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        W = builtin("ckem", 2, xi=[-0.3, 0.0], a=F(1, 2))
        with pytest.raises(localize.ExtrapolationError):
            inv.invariant_report(catalog.load("cp2"), W, backend="both")
        assert calls == []
        inv.invariant_report(catalog.load("cp2"), builtin("ckem", 2, a=F(1, 2)), backend="both")

    @pytest.mark.parametrize("name", catalog.names())
    def test_futaki_and_extremal_as_their_own_functions(self, monkeypatch, name):
        # The report builds F and w_ext from its one call's values; each
        # equals, bit for bit, what futaki_vector, gram, s_hat and
        # barycenter_w read from the store one value at a time.
        P = catalog.load(name)
        for family in ("cscK", "soliton", "sasaki", "ckem"):
            W = self.weights(P, family, "generic")
            monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
            rep = inv.invariant_report(P, W)
            monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
            f, g = np.array(inv.futaki_vector(P, W)), inv.gram(P, W)
            chi = np.linalg.solve(g, -f)
            ext = inv.ExtremalData(tuple(float(c) for c in chi),
                                   inv.s_hat(P, W) - float(chi @ inv.barycenter_w(P, W)),
                                   float(np.max(np.abs(f + g @ chi))))
            assert rep.futaki == tuple(f) and rep.extremal == ext, family
            monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
            assert inv.extremal_field(P, W) == ext, family


def _interval_weights():
    """cscK, soliton, sasaki and ckem weights on cp1 at generic xi, the
    power laws' poles 1/8 to 1 away from the interval."""
    P, rng = catalog.load("cp1"), np.random.default_rng(39)
    out = [builtin("cscK", 1)]
    for _ in range(6):
        xi = rng.uniform(-1.0, 1.0, 1)
        low = F(float(np.min(P.vertices_floats() @ xi)))
        out += [builtin("soliton", 1, xi=xi)] + [
            builtin(family, 1, xi=xi, a=d - low) for family in ("sasaki", "ckem")
            for d in (F(1, 8), F(1, 4), F(1, 2), F(1))]
    return out


class TestIntervalBoundary:
    """cp1's boundary is its two endpoints, each a point that the engine
    evaluates once with weight 1 and adds in facet order from 0.0: the
    endpoint sum ``float(np.sum(f(P.vertices_floats())))``, bit for bit."""

    U = 2.0 ** -53

    @staticmethod
    def endpoint_sum(P, f):
        return float(np.sum(np.asarray(f(P.vertices_floats()), dtype=float)))

    def test_per_v_and_boundary_moments(self, monkeypatch, interval):
        betas = np.array([[1.0], [-0.7], [0.3], [0.0]])
        for W in _interval_weights():
            monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
            want = [self.endpoint_sum(interval, Integrand(W.v_weight))] + [
                self.endpoint_sum(interval, inv.moment_integrands(W, b)[1]) for b in betas]
            got = [inv.per_v(interval, W)] + [
                inv._moment_boundary_v(interval, W, b, DEFAULT_RULE) for b in betas]
            assert [x.hex() for x in got] == [x.hex() for x in want], W.family

    def test_pl_boundary(self, interval):
        # Untwisted, the parent's endpoint sum of phi v to the bit.  A twist
        # and an offset enter the gradient and constant of each cell's
        # affine piece first, so the bits may move, within the rounding
        # bound of that order: per endpoint the float gradient and constant,
        # the twist and offset added to them, the affine sum and its product
        # with v, then the sum of the two, at most 5u times the sum of the
        # absolute terms |x g v|, |x t v|, |c v| and |c0 v| to first order.
        rng = np.random.default_rng(40)
        for W in _interval_weights():
            for _ in range(4):
                phi = tcg.random_pl(rng, 1)
                tc = tcg.ToricTC(interval, W, phi)
                want = self.endpoint_sum(interval, lambda x: tc.value(x) * W.v(x))
                assert tcg.integrate_pl_boundary(tc).hex() == want.hex(), W.family
                t, c0 = rng.uniform(-1.0, 1.0, 2)
                twisted = tcg.ToricTC(interval, W, phi, [t], c0)
                v = Integrand(W.v_weight)(interval.vertices_floats())
                exact = total = F(0)
                for (x,), vx in zip(interval.vertices, map(F, v.tolist())):
                    (g,), c = max(phi.pieces, key=lambda p: p[0][0] * x + p[1])
                    exact += (x * (g - F(t)) + c + F(c0)) * vx
                    total += (abs(x * g) + abs(x * F(t)) + abs(c) + abs(F(c0))) * abs(vx)
                err = abs(F(tcg.integrate_pl_boundary(twisted)) - exact)
                assert err <= 5 * self.U * total * (1 + 1e-12), W.family


class TestBackendArgument:
    def test_unknown_backend_raises(self, simplex):
        # "localisation" is a misspelling of a backend, not a fourth one.
        W = builtin("soliton", 2, xi=[0.4, 0.7])
        calls = (inv.s_hat, inv.futaki_vector, inv.invariant_report,
                 lambda P, W, rule, backend: inv.futaki(P, W, [1.0, 0.0], rule, backend))
        for call in calls:
            for backend in ("localisation", "Both", None):
                with pytest.raises(ValueError, match="'quadrature', 'localization' or 'both'"):
                    call(simplex, W, DEFAULT_RULE, backend)
        # Vol_w and Per_v have no cross-check of their own: "both" is refused too.
        for call in (inv.vol_w, inv.per_v):
            for backend in ("localisation", "Both", None, "both"):
                with pytest.raises(ValueError, match="'quadrature' or 'localization', not"):
                    call(simplex, W, DEFAULT_RULE, backend)


class TestDegenerateBackend:
    def test_localisation_assembly_at_zero_direction(self, trapezoid):
        # Constant weights sit at xi = 0, where every vertex sum is singular;
        # the extrapolated limit must still match quadrature.
        W = builtin("cscK", 2)
        for b in (np.array([1.0, 1.0]), np.array([1.0, 0.0])):
            q = inv.futaki(trapezoid, W, b)
            l = inv.futaki(trapezoid, W, b, backend="localization")
            assert abs(q - l) <= 1e-8 * (1 + abs(q))
        assert inv.s_hat(trapezoid, W, backend="localization") == \
            pytest.approx(inv.s_hat(trapezoid, W), rel=1e-9)


class TestPowerSeriesWeights:
    def test_truncated_exponential_series_matches_soliton(self, trapezoid):
        import math
        from toricstab.profiles import PowerSeries, WeightPair
        xi = [0.3, -0.2]
        coeffs = [F(1, math.factorial(k)) for k in range(25)]
        ps = PowerSeries.make(coeffs, 3.0)
        Wps = WeightPair(xi, ps, ps, 2, family="custom")
        Wexp = builtin("soliton", 2, xi=xi)
        assert inv.s_hat(trapezoid, Wps) == pytest.approx(
            inv.s_hat(trapezoid, Wexp), rel=1e-12)
        assert inv.futaki(trapezoid, Wps, [1, 1]) == pytest.approx(
            inv.futaki(trapezoid, Wexp, [1, 1]), abs=1e-12)


class TestExactRationalOracle:
    def test_blowup_extremal_data_closed_form(self, trapezoid):
        # Hand-derived in exact rational arithmetic for the chopped simplex
        # {x, y >= 0, 1/4 <= x + y <= 1} with constant weights:
        #   Vol = 15/32, Per = 11/4, s_hat = 88/15,
        #   int x = 21/128, boundary int x = 1, so F(e1) = -3/80,
        #   G11 = 131/5120, G12 = -163/10240, hence chi = (128/33, 128/33)
        #   and a = 88/15 - 2*(128/33)*(7/20) = 104/33.
        W = builtin("cscK", 2)
        assert float(trapezoid.volume()) == F(15, 32)
        assert inv.per_v(trapezoid, W) == pytest.approx(11 / 4, rel=1e-12)
        assert inv.s_hat(trapezoid, W) == pytest.approx(88 / 15, rel=1e-12)
        assert inv.futaki(trapezoid, W, [1, 0]) == pytest.approx(
            -3 / 80, abs=1e-12)
        ext = inv.extremal_field(trapezoid, W)
        assert ext.chi[0] == pytest.approx(128 / 33, rel=1e-10)
        assert ext.chi[1] == pytest.approx(128 / 33, rel=1e-10)
        assert ext.a == pytest.approx(104 / 33, rel=1e-10)


class TestScalarCache:
    def test_distinct_weights_cannot_grow_it_past_its_bound(self, monkeypatch,
                                                            simplex):
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        monkeypatch.setattr(inv, "_SCALAR_CACHE_SIZE", 8)
        integrals = []
        integrate = inv.quadrature.integrate_parts
        monkeypatch.setattr(inv.quadrature, "integrate_parts",
                            lambda *a, **k: integrals.append(1) or integrate(*a, **k))
        kept = builtin("soliton", 2, xi=[0.1, 0.1])
        first = inv.gram(simplex, kept)
        for k in range(12):
            W = builtin("soliton", 2, xi=[0.2 + k / 50, -0.1])
            inv.vol_w(simplex, W)
            inv.per_v(simplex, W)
            inv.gram(simplex, W)
            assert len(inv._scalar_cache) <= 8
            # A re-read entry is the most recently used one, so it stays.
            before = len(integrals)
            assert np.array_equal(inv.gram(simplex, kept), first)
            assert len(integrals) == before
        assert len(inv._scalar_cache) == 8 and integrals  # the spy sees the engine

    def test_positivity_checked_once_per_polytope_and_weights(self, monkeypatch,
                                                              simplex):
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        checks = []
        check = inv.positivity_check
        monkeypatch.setattr(inv, "positivity_check",
                            lambda W, P: checks.append(1) or check(W, P))
        W = builtin("cscK", 2)
        first = inv.s_hat(simplex, W)
        inv.invariant_report(simplex, W)
        assert inv.s_hat(simplex, W) == first and len(checks) == 1
        # A failing verdict is cached too, and raises on every call.
        bad = builtin("sasaki", 2, xi=[1.0, 0.0], a=F(0))
        with pytest.raises(PositivityError) as uncached:
            require_positive(bad, simplex)
        for call in (inv.s_hat, inv.invariant_report, inv.s_hat):
            with pytest.raises(PositivityError) as e:
                call(simplex, bad)
            assert str(e.value) == str(uncached.value)
        assert len(checks) == 2

    @pytest.mark.parametrize("family", ["cscK", "soliton"])
    def test_interval_boundary_enters_the_batched_call(self, monkeypatch, interval, family):
        # cp1's two endpoints are the parts of its boundary, each a point in
        # its facet's chart, in the store's one call like any facet's.
        calls = []
        engine = inv.quadrature.integrate_parts
        monkeypatch.setattr(inv.quadrature, "integrate_parts", lambda parts, *a:
                            calls.append(parts) or engine(parts, *a))
        W = builtin(family, 1, xi=[0.3])
        charts = [interval.facet_chart(i) for i in interval.genuine_facet_indices()]
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        inv.per_v(interval, W)
        [parts] = calls
        assert [f for f, _ in parts] == [Integrand(Integrand(W.v_weight), chart=c)
                                         for c in charts]
        assert [s.shape for _, s in parts] == [(1, 1, 0)] * 2
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        calls.clear()
        inv.invariant_report(interval, W)
        boundary = [Integrand(W.v_weight), inv.moment_integrands(W, np.eye(1)[0])[1]]
        inside = [Integrand(W.w_weight), inv.moment_integrands(W, np.eye(1)[0])[0]]
        assert len(calls) == 2 and Counter(f for f, _ in calls[0]) == Counter(
            inside + [Integrand(f, chart=c) for f in boundary for c in charts])

    def test_report_integrates_each_moment_once(self, monkeypatch, trapezoid):
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        calls = []
        engine = inv.quadrature.integrate_parts
        monkeypatch.setattr(inv.quadrature, "integrate_parts", lambda parts, *a:
                            calls.append([f for f, _ in parts]) or engine(parts, *a))
        W = builtin("soliton", 2, xi=[0.3, -0.2])
        inv.invariant_report(trapezoid, W)
        # Vol_w, Per_v and one interior and one boundary moment per basis
        # direction in the first call, shared by the Futaki vector, the
        # extremal field, the Gram means and the barycenter; the Gram
        # entries, centred at those means, in the second.
        eye, facets = np.eye(2), trapezoid.genuine_facet_indices()
        inside = [Integrand(W.w_weight)] + [inv.moment_integrands(W, e)[0] for e in eye]
        boundary = [Integrand(W.v_weight)] + [inv.moment_integrands(W, e)[1] for e in eye]
        charted = [Integrand(f, chart=trapezoid.facet_chart(i))
                   for f in boundary for i in facets]
        means = np.array([inv._moment_w(trapezoid, W, e, DEFAULT_RULE) for e in eye])
        assert len(calls) == 2
        assert Counter(calls[0]) == Counter(inside + charted)
        assert calls[1] == inv.gram_integrands(W, eye, means / inv.vol_w(trapezoid, W))
        # A Futaki value at a basis vector integrates nothing more; at a new
        # beta its two moments take one call, one part per moment and facet.
        inv.futaki(trapezoid, W, eye[1])
        beta = np.array([0.5, 0.25])
        inv.futaki(trapezoid, W, beta)
        mom, bmom = inv.moment_integrands(W, beta)
        assert len(calls) == 3 and Counter(calls[2]) == Counter(
            [mom] + [Integrand(bmom, chart=trapezoid.facet_chart(i)) for i in facets])

    def test_repeated_lookup_hashes_no_fraction(self, monkeypatch, cube):
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        W = builtin("cscK", 3)
        chopped = cube.corner_chop(2, cube.admissible_chop(2) * F(3, 7))
        value = inv.vol_w(chopped, W)
        hashes = []
        fraction_hash = F.__hash__
        monkeypatch.setattr(F, "__hash__",
                            lambda q: hashes.append(1) or fraction_hash(q))
        for _ in range(3):
            assert inv.vol_w(chopped, W) == value
        assert hashes == []

    def test_repeated_lookup_hashes_no_facet(self, monkeypatch, cube):
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        W = builtin("cscK", 3)
        chopped = cube.corner_chop(2, cube.admissible_chop(2) * F(3, 7))
        value = inv.vol_w(chopped, W)
        hashes = []
        facet_hash = polytope.Facet.__hash__
        monkeypatch.setattr(polytope.Facet, "__hash__",
                            lambda f: hashes.append(1) or facet_hash(f))
        for _ in range(3):
            assert inv.vol_w(chopped, W) == value
        assert hashes == []
        # The key hashes its facets once, and holds no polytope.
        assert not any(isinstance(part, polytope.DelzantPolytope)
                       for key in inv._scalar_cache for part in (*key, *key[1]))

    @pytest.mark.parametrize("family, a", [("soliton", None), ("sasaki", 3)])
    def test_repeated_lookup_hashes_no_profile_and_the_rule_once(
            self, monkeypatch, trapezoid, family, a):
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        W = builtin(family, 2, xi=[0.3, -0.2], a=a)
        rule = quadrature.QuadratureRule(degree=10)
        value = inv.vol_w(trapezoid, W, rule)
        hashes = []
        monkeypatch.setattr(Profile, "__hash__", lambda p: hashes.append(p) or p._key[1])
        for _ in range(3):
            assert inv.vol_w(trapezoid, W, rule) == value
        assert hashes == [] and rule.__dict__["_hash"] == hash(
            (rule.degree, rule.tol_abs, rule.tol_rel, rule.max_depth))

    def test_entries_do_not_keep_polytopes_alive(self, monkeypatch, cube):
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        W = builtin("cscK", 3)
        depth = cube.admissible_chop(2) * F(3, 7)
        chopped = cube.corner_chop(2, depth)
        value = inv.vol_w(chopped, W)
        ref = weakref.ref(chopped)
        del chopped
        gc.collect()
        assert ref() is None
        # An equal polytope built afresh reads the entry without integrating.
        monkeypatch.setattr(inv.quadrature, "integrate", None)
        assert inv.vol_w(cube.corner_chop(2, depth), W) == value

    def test_localisation_sums_computed_once(self, monkeypatch, trapezoid):
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        calls = []
        for name in ("eval_class", "eval_c1_class"):
            fn = getattr(inv.localize, name)
            monkeypatch.setattr(inv.localize, name,
                                lambda *a, fn=fn, name=name, **k:
                                calls.append(name) or fn(*a, **k))
        W = builtin("soliton", 2, xi=[0.3, -0.2])
        vol = inv.vol_w(trapezoid, W, backend="localization")
        assert inv.vol_w(trapezoid, W, backend="localization") == vol
        assert calls == ["eval_class"]
        # The report and the Futaki check that follows it share both sums,
        # and neither backend reads the other's entries.
        inv.invariant_report(trapezoid, W, backend="both")
        inv.futaki(trapezoid, W, [1.0, 0.0], backend="both")
        assert calls == ["eval_class", "eval_c1_class"]
        assert inv.vol_w(trapezoid, W) != vol
        assert inv.vol_w(trapezoid, W) == inv.quadrature.integrate(
            trapezoid, W.w).value

    def test_unsettled_limit_raises_on_every_call(self, monkeypatch, simplex):
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        limits = []
        fn = inv.localize._limit
        monkeypatch.setattr(inv.localize, "_limit",
                            lambda *a, **k: limits.append(1) or fn(*a, **k))
        # ckem weights at an axis xi: the extrapolated volume does not settle.
        W = builtin("ckem", 2, xi=[-0.3, 0.0], a=F(1, 2))
        for attempt in (1, 2):
            with pytest.raises(inv.localize.ExtrapolationError):
                inv.vol_w(simplex, W, backend="localization")
            assert len(limits) == attempt
        # At xi = 0 the limit is a monomial sum, which agrees with cubature.
        W = builtin("ckem", 2, a=F(1, 2))
        assert inv.vol_w(simplex, W, backend="localization") == pytest.approx(
            inv.vol_w(simplex, W), rel=1e-12)

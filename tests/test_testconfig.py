import gc
import json
import math
import re
import weakref
from collections import OrderedDict
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricstab import catalog, invariants as inv, quadrature, testconfig as tcg
from toricstab.polytope import DelzantPolytope, Facet, _clip
from toricstab.profiles import PositivityError, builtin
from toricstab.quadrature import DEFAULT_RULE, moments
from toricstab.testconfig import PLConvex, ToricTC, clip_simplex

from test_corner_oracle import CUBE4
from test_power_law import exact_part


def _pl(*pieces):
    return PLConvex.make(pieces)


@pytest.fixture
def csck2():
    return builtin("cscK", 2)


@pytest.fixture
def kinked(simplex, csck2):
    return ToricTC(simplex, csck2, _pl(((0, 0), 0), ((1, 1), F(-1, 2))))


class TestPLConvex:
    def test_max_of_pieces(self):
        phi = _pl(((1, 0), 0), ((0, 1), F(1, 4)))
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.2, 0.1]])
        assert np.allclose(phi.value_floats(pts), [1.0, 1.25, 0.35])

    def test_exact_evaluation(self):
        phi = _pl(((1, 2), F(-1, 3)), ((0, 0), 0))
        assert phi.value_exact((F(1, 2), F(1, 4))) == F(2, 3)

    def test_redundant_piece_flagged(self, square, csck2):
        tc = ToricTC(square, csck2,
                     _pl(((0, 0), 0), ((1, 0), -5)))  # second never active
        assert tc.redundant_pieces() == (1,)

    def test_product_cell_is_the_polytope(self, simplex, csck2):
        # One cell covering P is P itself, with P's cached triangulations
        # (uncached: an equal polytope may hold the cache entry).
        for phi in (tcg.trivial_phi(2), _pl(((1, -2), F(1, 3))),
                    _pl(((0, 0), 10), ((1, 0), 0))):
            cells = tcg._cells.__wrapped__(simplex, phi)
            assert cells == ((0, simplex),) and cells[0][1] is simplex
            assert ToricTC(simplex, csck2, phi).is_product()

    def test_convexity_max_attained_at_vertex(self, trapezoid, csck2):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pieces = [(tuple(F(int(rng.integers(-3, 4)), 2) for _ in range(2)),
                       F(int(rng.integers(-2, 3)), 3)) for _ in range(3)]
            tc = ToricTC(trapezoid, csck2, _pl(*pieces))
            verts = trapezoid.vertices_floats()
            vmax = np.max(tc.value(verts))
            # Dense interior sample never exceeds the vertex maximum.
            lam = rng.dirichlet(np.ones(len(verts)), size=300)
            inside = lam @ verts
            assert np.max(tc.value(inside)) <= vmax + 1e-12


class TestDF:
    def test_product_equals_futaki(self, simplex, csck2):
        rng = np.random.default_rng(8)
        for name in ("cp2", "cp1xcp1", "bl1cp2", "hirzebruch-a"):
            P = catalog.load(name)
            beta = rng.uniform(-1, 1, 2)
            tc = tcg.associated_product(P, csck2, beta)
            assert tcg.df(tc) == pytest.approx(
                inv.futaki(P, csck2, beta), abs=1e-11)

    def test_trivial_and_constant_are_zero(self, simplex, csck2):
        assert tcg.df(tcg.trivial_tc(simplex, csck2)) == pytest.approx(0, abs=1e-13)
        shifted = tcg.trivial_tc(simplex, csck2).with_offset(3.7)
        assert tcg.df(shifted) == pytest.approx(0, abs=1e-12)

    def test_offset_invariance(self, kinked):
        base = tcg.df(kinked)
        assert tcg.df(kinked.with_offset(kinked.c0 + 2.25)) == pytest.approx(
            base, abs=1e-11)

    def test_semistable_on_csck_plane(self, simplex, csck2):
        rng = np.random.default_rng(21)
        for _ in range(25):
            pieces = [(tuple(F(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                             for _ in range(2)),
                       F(int(rng.integers(-2, 3)), int(rng.integers(1, 4))))
                      for _ in range(3)]
            tc = ToricTC(simplex, csck2, _pl(*pieces))
            assert tcg.df(tc) >= -1e-10


class TestTwist:
    def test_twist_of_trivial_is_product(self, square, csck2):
        beta = np.array([0.3, -0.9])
        a = tcg.twist(tcg.trivial_tc(square, csck2), beta)
        b = tcg.associated_product(square, csck2, beta)
        pts = np.random.default_rng(0).uniform(0, 1, (20, 2))
        assert np.allclose(a.value(pts), b.value(pts))

    def test_df_twist_identity(self, kinked, simplex, csck2):
        rng = np.random.default_rng(13)
        for _ in range(10):
            beta = rng.uniform(-1, 1, 2)
            lhs = tcg.df(tcg.twist(kinked, beta))
            rhs = tcg.df(kinked) + inv.futaki(simplex, csck2, beta)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_twist_round_trip(self, kinked):
        beta = np.array([0.4, 0.8])
        back = tcg.twist(tcg.twist(kinked, beta), -beta)
        pts = np.random.default_rng(1).uniform(0, 1, (10, 2))
        assert np.allclose(back.value(pts), kinked.value(pts), atol=1e-14)

    def test_product_addition(self, square, csck2):
        b1, b2 = np.array([0.2, 0.5]), np.array([-0.7, 0.1])
        a = tcg.associated_product(square, csck2, b1 + b2)
        b = tcg.twist(tcg.associated_product(square, csck2, b1), b2)
        pts = np.random.default_rng(2).uniform(0, 1, (10, 2))
        assert np.allclose(a.value(pts), b.value(pts))

    @pytest.mark.parametrize("twist", [[0.5], [0.5, 0.1, 0.2], [[0.5, 0.1]], 0.5],
                             ids=["short", "long", "matrix", "scalar"])
    def test_twist_of_the_wrong_shape_is_refused(self, twist):
        # It used to broadcast: [0.5] twisted both coordinates by 0.5.
        P, W = catalog.load("cp2"), builtin("cscK", 2)
        shape = np.shape(twist)
        with pytest.raises(ValueError, match=rf"twist has shape {re.escape(str(shape))}, "
                                             r"expected \(2,\)"):
            ToricTC(P, W, twist=twist)
        for make in (lambda: tcg.associated_product(P, W, twist),
                     lambda: tcg.twist(tcg.trivial_tc(P, W), twist)):
            with pytest.raises(ValueError, match="twist has shape"):
                make()


class TestLambdaPairing:
    def test_product_reduces_to_gram(self, trapezoid, csck2):
        g = inv.gram(trapezoid, csck2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            bp = rng.uniform(-1, 1, 2)
            beta = rng.uniform(-1, 1, 2)
            tc = tcg.associated_product(trapezoid, csck2, bp)
            assert tcg.lambda_pairing(tc, beta) == pytest.approx(
                float(bp @ g @ beta), abs=1e-12)

    def test_trivial_is_zero(self, square, csck2):
        assert tcg.lambda_pairing(tcg.trivial_tc(square, csck2), [1, 0]) == \
            pytest.approx(0.0, abs=1e-14)

    def test_symmetry_on_affine_arguments(self, trapezoid, csck2):
        b1, b2 = np.array([0.3, 0.7]), np.array([-0.2, 0.4])
        t1 = tcg.associated_product(trapezoid, csck2, b1)
        t2 = tcg.associated_product(trapezoid, csck2, b2)
        assert tcg.lambda_pairing(t1, b2) == pytest.approx(
            tcg.lambda_pairing(t2, b1), abs=1e-12)


class TestDFT:
    def test_products_vanish(self, csck2):
        rng = np.random.default_rng(14)
        for name in ("cp2", "bl1cp2", "hirzebruch-a"):
            P = catalog.load(name)
            beta = rng.uniform(-1, 1, 2)
            tc = tcg.associated_product(P, csck2, beta)
            assert tcg.df_T(tc) == pytest.approx(0.0, abs=1e-10)

    def test_twist_invariance(self, kinked):
        rng = np.random.default_rng(15)
        base = tcg.df_T(kinked)
        for _ in range(5):
            beta = rng.uniform(-1, 1, 2)
            assert tcg.df_T(tcg.twist(kinked, beta)) == pytest.approx(
                base, abs=1e-10)

    def test_equals_df_of_antiprojected_twist(self, kinked, simplex, csck2):
        basis = np.linalg.inv(np.linalg.cholesky(inv.gram(simplex, csck2))).T
        proj = np.zeros(2)
        for j in range(2):
            bj = basis[:, j]
            proj += tcg.lambda_pairing(kinked, bj) * bj
        assert tcg.df(tcg.twist(kinked, -proj)) == pytest.approx(
            tcg.df_T(kinked), abs=1e-10)

    def test_extremal_consistency_on_products(self, trapezoid, csck2):
        # A product configuration has df_T = 0 and, at the extremal data,
        # the signed-weight Futaki pairing also vanishes.
        ext = inv.extremal_field(trapezoid, csck2)
        beta = np.array([0.5, -0.3])
        tc = tcg.associated_product(trapezoid, csck2, beta)
        assert tcg.df_T(tc) == pytest.approx(0.0, abs=1e-9)
        assert inv.futaki_signed(trapezoid, csck2, ext, beta) == \
            pytest.approx(0.0, abs=1e-9)

    def test_semistable_blowup(self, trapezoid, csck2):
        rng = np.random.default_rng(22)
        for _ in range(25):
            pieces = [(tuple(F(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                             for _ in range(2)),
                       F(int(rng.integers(-2, 3)), int(rng.integers(1, 4))))
                      for _ in range(3)]
            tc = ToricTC(trapezoid, csck2, _pl(*pieces))
            assert tcg.df_T(tc) >= -1e-10


class TestNorms:
    def test_affine_has_zero_orthogonal_norm(self, square, csck2):
        tc = tcg.associated_product(square, csck2, [0.7, -0.4])
        _, norm = tcg.orthogonal_part(tc)
        assert norm <= 1e-12

    def test_absolute_value_on_interval(self, interval):
        W = builtin("cscK", 1)
        tc = ToricTC(interval, W, _pl(((1,), 0), ((-1,), 0)))
        assert tcg.l1_norm(tc) == pytest.approx(1 / 8, rel=1e-11)
        _, norm = tcg.orthogonal_part(tc)
        assert norm == pytest.approx(1 / 8, rel=1e-11)

    def test_positivity_iff_nonconstant(self, square, csck2):
        assert tcg.l1_norm(tcg.trivial_tc(square, csck2)) <= 1e-13
        tc = ToricTC(square, csck2, _pl(((0, 0), 0), ((1, 1), F(-1, 2))))
        assert tcg.l1_norm(tc) > 1e-3

    def test_projection_idempotent(self, kinked):
        perp, norm = tcg.orthogonal_part(kinked)
        perp2, norm2 = tcg.orthogonal_part(perp)
        assert norm2 == pytest.approx(norm, rel=1e-9)
        assert np.allclose(perp2.twist_vector, perp.twist_vector, atol=1e-10)

    def test_norm_invariant_under_twist(self, kinked):
        # The orthogonal component, hence its norm, ignores twisting.
        _, norm = tcg.orthogonal_part(kinked)
        _, norm2 = tcg.orthogonal_part(tcg.twist(kinked, [0.9, -1.4]))
        assert norm2 == pytest.approx(norm, rel=1e-10)


def _exact_affine(piece, W, g, c):
    """int over the polytope ``piece`` of (<g, x> + c) w dx: exact for
    constant and power-law weights, closed-form floats for soliton ones."""
    if W.family in ("sasaki", "ckem"):
        return exact_part(W.w_profile, W.xi, [(g, c)], piece.triangulate())
    n = piece.dim
    if W.family == "soliton":
        def moment(m):
            return F(moments(piece, m, W.xi, mode="exponential"))
    else:
        def moment(m):
            return F(W.w_profile.value(0.0)) * moments(piece, m)
    return (sum(gi * moment(tuple(int(i == j) for j in range(n))) for i, gi in enumerate(g))
            + c * moment((0,) * n))


def _exact_l1(tc, offset):
    """int_P |phi - offset| w dx with each cell of phi cut along the
    rational zero set of phi - offset and each side integrated by
    :func:`_exact_affine`."""
    assert tc.c0 == 0 and not tc.twist_vector.any()
    total = F(0)
    for k, cell in tc.cells():
        g, c = tc.phi.pieces[k]
        c -= F(offset)
        for s in (1, -1):
            if any(g):
                side = _clip(cell, [Facet.make([s * x for x in g], s * c)])
            else:
                side = cell if s * c > 0 else None
            if side is not None:
                total += s * _exact_affine(side, tc.weights, g, c)
    return total


L1_XI = (F(1, 4), F(-1, 8), F(3, 8))
L1_PHI = [((0, 0, 0), 0), ((1, F(-1, 2), F(1, 3)), F(-1, 4)), ((F(-1, 2), 1, 0), F(-1, 3))]


def _l1_case(name, family, pieces=3, xi=L1_XI, a=1):
    P = catalog.load(name)
    n = P.dim
    W = builtin(family, n, xi=[float(x) for x in xi[:n]] if family != "cscK" else None,
                a=a if family in ("sasaki", "ckem") else None)
    return ToricTC(P, W, _pl(*[(g[:n], c) for g, c in L1_PHI[:pieces]]))


class TestL1Oracle:
    """L1 norms against the exact integral over the cut cells."""

    @pytest.mark.parametrize("family", ["cscK", "soliton", "sasaki", "ckem"])
    @pytest.mark.parametrize("name", ["cp2", "bl1cp2", "cube"])
    def test_norm_meets_the_exact_value(self, name, family):
        tc = _l1_case(name, family)
        assert not tc.is_product()
        mean = tcg.mean_w(tc)
        for got, offset in ((tcg.l1_norm(tc), mean),
                            (tcg._l1_about(tc, F(1, 8), DEFAULT_RULE), F(1, 8))):
            exact = _exact_l1(tc, offset)
            assert abs(F(got) - exact) <= F(1e-12) * exact, (offset, got, float(exact))

    @pytest.mark.parametrize("family", ["sasaki", "ckem"])
    def test_heavy_cube_norm_meets_the_exact_value(self, family):
        # The pole at distance 1/8 along the x1 axis.
        tc = _l1_case("cube", family, pieces=2, xi=(F(1, 2), 0, 0), a=F(1, 8))
        exact = _exact_l1(tc, tcg.mean_w(tc))
        assert abs(F(tcg.l1_norm(tc)) - exact) <= F(1e-12) * exact

    def test_large_soliton_xi_meets_the_exact_values(self):
        # phi = max(0, x1 - x2/2 + x3/3 - 1/4) on the cube at xi = (40, 0, 0),
        # where the cubature's |coarse - fine| estimate alone is blind along
        # ker xi.  The exact mean is the sum over the cells of
        # _exact_affine over moments(mode="exponential") of the cube.
        tc = _l1_case("cube", "soliton", pieces=2, xi=(40, 0, 0))
        mean = tcg.mean_w(tc)
        assert abs(mean - 0.6416666709229033) <= 1e-10
        exact = _exact_l1(tc, mean)
        assert abs(F(tcg.l1_norm(tc)) - exact) <= F(1e-10) * exact

    @pytest.mark.parametrize("family", ["cscK", "soliton", "sasaki"])
    def test_product_norm_is_rounding(self, family):
        rng = np.random.default_rng(11)
        for name in ("cp2", "bl1cp2", "cp1xcp1", "cube"):
            P = catalog.load(name)
            n = P.dim
            W = builtin(family, n, xi=[0.25, -0.125, 0.375][:n] if family != "cscK" else None,
                        a=1 if family == "sasaki" else None)
            for _ in range(4):
                tc = ToricTC(P, W, tcg.random_pl(rng, n, pieces=1),
                             twist=rng.uniform(-1, 1, n), c0=rng.uniform(-1, 1))
                _, norm = tcg.orthogonal_part(tc)
                assert 0.0 <= norm <= 1e-9, (name, norm)


class TestChow:
    def test_trivial_vanishes(self, simplex, csck2):
        tc = tcg.trivial_tc(simplex, csck2)
        for v in simplex.vertices:
            assert tcg.chow(tc, v) == pytest.approx(0.0, abs=1e-14)

    def test_product_value(self, simplex, csck2):
        beta = np.array([1.0, 0.5])
        tc = tcg.associated_product(simplex, csck2, beta)
        bary = inv.barycenter_w(simplex, csck2)
        for v in simplex.vertices:
            pv = np.array([float(c) for c in v])
            expected = float(bary @ beta) - float(pv @ beta)
            assert tcg.chow(tc, v) == pytest.approx(expected, abs=1e-12)

    def test_twist_law(self, kinked, simplex, csck2):
        beta = np.array([0.6, -0.2])
        bary = inv.barycenter_w(simplex, csck2)
        tw = tcg.twist(kinked, beta)
        for v in simplex.vertices:
            pv = np.array([float(c) for c in v])
            change = tcg.chow(tw, v) - tcg.chow(kinked, v)
            assert change == pytest.approx(
                -(float(pv @ beta) - float(bary @ beta)), abs=1e-12)

    def test_normalize_chow_preserves_values(self, kinked):
        normed = tcg.normalize_chow(kinked)
        assert tcg.mean_w(normed) == pytest.approx(0.0, abs=1e-12)
        for v in kinked.polytope.vertices:
            assert tcg.chow(normed, v) == pytest.approx(
                tcg.chow(kinked, v), abs=1e-12)

    def test_chow_T_zero_on_products(self, trapezoid, csck2):
        tc = tcg.associated_product(trapezoid, csck2, [0.8, 0.3])
        for v in trapezoid.vertices:
            assert tcg.chow_T(tc, v) == pytest.approx(0.0, abs=1e-10)

    def test_chow_T_twist_invariant(self, kinked):
        tw = tcg.twist(kinked, [1.3, -0.5])
        for v in kinked.polytope.vertices:
            assert tcg.chow_T(tw, v) == pytest.approx(
                tcg.chow_T(kinked, v), abs=1e-10)

    def test_chow_T_is_orthogonal_part_at_vertex(self, kinked):
        perp, _ = tcg.orthogonal_part(kinked)
        for v in kinked.polytope.vertices:
            pv = np.array([[float(c) for c in v]])
            assert tcg.chow_T(kinked, v) == pytest.approx(
                float(perp.value(pv)[0]), abs=1e-10)

    def test_non_vertex_rejected(self, simplex, csck2):
        with pytest.raises(ValueError):
            tcg.chow(tcg.trivial_tc(simplex, csck2), (F(1, 3), F(1, 3)))


class TestDestabilizingVertex:
    def test_product_verdict(self, square, csck2):
        dv = tcg.destabilizing_vertex(
            tcg.associated_product(square, csck2, [0.4, 0.2]))
        assert dv.product and dv.vertex is None

    def test_hinge_on_square(self, square, csck2):
        tc = ToricTC(square, csck2, _pl(((0, 0), 0), ((1, 0), F(-1, 2))))
        dv = tcg.destabilizing_vertex(tc)
        assert not dv.product
        assert dv.chow_t > 0
        assert dv.ratio > 0.01

    def test_ties_reported_for_symmetric_data(self, square, csck2):
        tc = ToricTC(square, csck2,
                     _pl(((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)))
        dv = tcg.destabilizing_vertex(tc)
        assert len(dv.ties) == 4
        assert dv.vertex == min(dv.ties)


class TestClipSimplex:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_volume_partition(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(25):
            verts = rng.uniform(-1, 1, (dim + 1, dim))
            vol = abs(np.linalg.det(verts[1:] - verts[0])) / math.factorial(dim)
            if vol < 1e-3:
                continue
            g = rng.uniform(-1, 1, dim)
            c = rng.uniform(-0.5, 0.5)
            kept = clip_simplex(verts, g, c)
            cut = clip_simplex(verts, -g, -c)
            total = sum(abs(np.linalg.det(s[1:] - s[0])) / math.factorial(dim)
                        for s in kept + cut)
            assert total == pytest.approx(vol, rel=1e-10)

    def test_no_cut_returns_whole(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        kept = clip_simplex(verts, np.array([1.0, 1.0]), 1.0)
        assert len(kept) == 1 and np.allclose(kept[0], verts)


class TestDimensionFour:
    """Random configurations on the 4-simplex and the 4-cube; their L1
    integrands cut simplices in every sign pattern of dimension four."""

    SIMPLEX4 = DelzantPolytope(4, [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0),
                                   ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0),
                                   ((-1, -1, -1, -1), 2)], name="simplex4")
    CUBE4 = DelzantPolytope(4, [(tuple(s * (i == k) for i in range(4)), 1)
                                for k in range(4) for s in (1, -1)], name="cube4")

    @pytest.mark.parametrize("P", [SIMPLEX4, CUBE4], ids=lambda P: P.name)
    def test_destabilizing_vertex(self, P):
        rng = np.random.default_rng(5)
        W = builtin("cscK", 4)
        nonproduct = 0
        for _ in range(5):
            dv = tcg.destabilizing_vertex(ToricTC(P, W, tcg.random_pl(rng, 4)))
            if dv.product:
                continue
            nonproduct += 1
            assert dv.chow_t > 0
            assert dv.ratio > 0.01
        assert nonproduct >= 3

    def test_twist_invariance(self):
        rng = np.random.default_rng(5)
        W = builtin("cscK", 4)
        tc = ToricTC(self.SIMPLEX4, W, tcg.random_pl(rng, 4))
        tw = tcg.twist(tc, rng.uniform(-1, 1, 4))
        assert tcg.df_T(tw) == pytest.approx(tcg.df_T(tc), abs=1e-10)
        assert tcg.orthogonal_part(tw)[1] == pytest.approx(
            tcg.orthogonal_part(tc)[1], rel=1e-10)
        assert tcg.l1_norm(tc) > 0


class TestSerialization:
    def test_round_trip(self, simplex, csck2):
        tc = ToricTC(simplex, csck2, _pl(((0, 0), 0), ((1, 1), F(-1, 2))),
                     twist=[0.25, -0.5], c0=1.5)
        doc = json.loads(json.dumps(tc.to_json()))
        again = ToricTC.from_json(doc, simplex, csck2)
        pts = np.random.default_rng(4).uniform(0, 1, (10, 2))
        assert np.allclose(again.value(pts), tc.value(pts))

    def test_twist_field_optional(self, simplex, csck2):
        doc = {"pieces": [{"gradient": ["0", "0"], "constant": "0"}]}
        tc = ToricTC.from_json(doc, simplex, csck2)
        assert np.allclose(tc.twist_vector, 0)


class TestValueStore:
    """A configuration's integrals and projection are cached by value in
    the scalar cache, so no entry keeps a configuration alive."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        monkeypatch.setattr(inv, "_scalar_cache", OrderedDict())
        calls, engine = [], quadrature.integrate_parts
        monkeypatch.setattr(quadrature, "integrate_parts",
                            lambda parts, *a: calls.append(parts) or engine(parts, *a))
        return calls

    def test_equal_configuration_recomputes_nothing(self, engine_calls):
        P = catalog.load("bl1cp2")
        W = builtin("cscK", 2)
        tc = ToricTC(P, W, _pl(((0, 0), 0), ((1, 1), F(-1, 2))), twist=[0.25, -0.5])
        first = tcg.destabilizing_vertex(tc), tcg.df_T(tc)
        again = ToricTC.from_json(tc.to_json(), P, W)
        engine_calls.clear()
        assert (tcg.destabilizing_vertex(again), tcg.df_T(again)) == first
        # Neither int phi w, the lambda-pairings nor the projection: only
        # the uncached int_dP phi_perp v of df_T.
        perp = tcg._projection(again, DEFAULT_RULE)[0]
        assert engine_calls == [[p for ps in tcg.pl_facet_parts(perp, P.genuine_facet_indices())
                                 for p in ps]]

    def test_configuration_is_collected_once_dropped(self, engine_calls, trapezoid, csck2):
        tc = ToricTC(trapezoid, csck2, _pl(((0, 0), 0), ((1, 1), F(-1, 2))))
        tcg.destabilizing_vertex(tc)
        tcg.df_T(tc)
        ref = weakref.ref(tc)
        del tc
        gc.collect()
        assert ref() is None

    def test_cold_projection_integrates_once(self, engine_calls, trapezoid, csck2):
        # With the polytope's scalars cached, int phi w and the two
        # lambda-pairings take one engine call.
        inv.extremal_field(trapezoid, csck2)
        tc = ToricTC(trapezoid, csck2, _pl(((0, 0), 0), ((1, 1), F(-1, 2))))
        engine_calls.clear()
        perp, mean, coeff = tcg._projection(tc, DEFAULT_RULE)
        assert len(engine_calls) == 1
        assert mean == tcg.mean_w(tc)
        assert list(-coeff @ inv.gram(trapezoid, csck2)) == pytest.approx(
            [tcg.lambda_pairing(tc, e) for e in np.eye(2)], abs=1e-14)
        assert len(engine_calls) == 1

    def test_cold_product_integrates_nothing(self, engine_calls, monkeypatch):
        # A product pays for no integral: not int phi w (its mean, which no
        # product verdict reads), no lambda-pairing, no Gram solve, no
        # orthogonal L1 norm and no df of its zero part.
        P, W = catalog.load("bl1cp2"), builtin("cscK", 2)
        inv.extremal_field(P, W)
        # The L1 norm reaches the engine through testconfig's own import.
        monkeypatch.setattr(tcg, "integrate_parts", quadrature.integrate_parts)
        tc = ToricTC(P, W, _pl(((1, -2), F(1, 3))), twist=[0.25, -0.5], c0=1.5)
        engine_calls.clear()
        assert tcg.destabilizing_vertex(tc).product and tcg.df_T(tc) == 0.0
        assert engine_calls == []

    def test_beta_of_another_shape_is_refused(self, engine_calls, csck2):
        # A beta is keyed by its bytes, which do not hold its shape: a (1, 2)
        # beta was paired as the (2,) one.  Refused before any integral.
        tc = ToricTC(catalog.load("cp2"), csck2, _pl(((0, 0), 0), ((1, 1), -1)))
        for beta, shape in (([[1.0, 0.5]], r"\(1, 2\)"), ([1.0, 0.5, 0.0], r"\(3,\)")):
            with pytest.raises(ValueError, match=rf"beta has shape {shape}, expected \(2,\)"):
                tcg.lambda_pairing(tc, np.array(beta))
        assert engine_calls == []

    def test_twist_is_a_read_only_copy(self, csck2):
        P = catalog.load("cp2")
        phi = _pl(((0, 0), 0), ((1, 1), -1))
        tw = np.array([0.25, 0.0])
        tc = ToricTC(P, csck2, phi, tw)
        first = tcg.chow(tc, 1)
        tw[0] = 3.0
        # An alias would move tc's values but not its cached mean_w.
        assert list(tc.twist_vector) == [0.25, 0.0]
        assert tcg.chow(tc, 1) == first == tcg.chow(ToricTC(P, csck2, phi, tc.twist_vector), 1)
        with pytest.raises(ValueError):
            tc.twist_vector[0] = 3.0


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_chow_invariant_under_constant_shift_hypothesis(c):
    P = catalog.load("cp2")
    W = builtin("cscK", 2)
    tc = ToricTC(P, W, _pl(((0, 0), 0), ((1, 1), F(-1, 2))))
    shifted = tc.with_offset(tc.c0 + c)
    for v in P.vertices:
        assert tcg.chow(shifted, v) == pytest.approx(tcg.chow(tc, v), abs=1e-12)


class TestUnimodularInvariance:
    def test_df_dft_chow_under_lattice_maps(self, trapezoid):
        u = [[1, 1], [0, 1]]
        uinvT = np.linalg.inv(np.array(u, dtype=float)).T
        image = trapezoid.unimodular_image(u, [1, -2])
        W = builtin("cscK", 2)
        phi = _pl(((0, 0), 0), ((1, F(1, 2)), F(-1, 4)))
        tc = ToricTC(trapezoid, W, phi)
        # Transform the pieces with the inverse transpose and track the
        # translation in the constants so phi'(Ux + tau) = phi(x).
        tau = np.array([1.0, -2.0])
        pieces_img = []
        for grad, const in phi.pieces:
            g_img = tuple(F(x).limit_denominator(10 ** 9) for x in
                          (np.array([[F(1), F(0)], [F(-1), F(1)]])
                           @ np.array([F(c) for c in grad])))
            shift = sum(F(g) * F(int(t)) for g, t in zip(g_img, [1, -2]))
            pieces_img.append((tuple(g_img), F(const) - shift))
        tc_img = ToricTC(image, W, PLConvex.make(pieces_img))
        assert tcg.df(tc_img) == pytest.approx(tcg.df(tc), abs=1e-10)
        assert tcg.df_T(tc_img) == pytest.approx(tcg.df_T(tc), abs=1e-10)
        assert tcg.l1_norm(tc_img) == pytest.approx(tcg.l1_norm(tc), rel=1e-9)
        for v in trapezoid.vertices:
            x = np.array([float(c) for c in v])
            vimg = tuple(F(int(round(y))) if abs(y - round(y)) < 1e-12 else
                         F(y).limit_denominator(10 ** 9)
                         for y in (np.array(u, dtype=float) @ x + tau))
            assert tcg.chow(tc_img, vimg) == pytest.approx(
                tcg.chow(tc, v), abs=1e-11)


def test_overflowing_l1_norm_is_nan_not_a_product():
    # max(x1, x2) twisted by (1e308, 1e308) on cp2: its integrals overflow.
    # The norm was read as max(0.0, nan) = 0.0, and the configuration as a
    # product.
    P, W = catalog.load("cp2"), builtin("cscK", 2)
    tc = ToricTC(P, W, PLConvex.make([((1, 0), 0), ((0, 1), 0)]), twist=(1e308, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(tcg.l1_norm(tc))
        assert math.isnan(tcg.orthogonal_part(tc)[1])
        with pytest.raises(FloatingPointError, match="orthogonal L1 norm is NaN"):
            tcg.destabilizing_vertex(tc)


class TestProductPath:
    """A product is decided in exact arithmetic (phi has one cell on P), and
    its orthogonal part is the zero configuration: its outputs are exact
    zeros, not rounding."""

    @pytest.mark.parametrize("family", ["cscK", "soliton", "sasaki", "ckem"])
    def test_orthogonal_outputs_are_exact_zeros(self, family):
        for P in [*map(catalog.load, catalog.names()), CUBE4]:  # every catalog polytope
            n = P.dim
            W = builtin(family, n, xi=None if family == "cscK" else np.linspace(0.2, -0.1, n),
                        a=4 if family in ("sasaki", "ckem") else None)
            # The second piece is nowhere the maximum: one cell, two pieces.
            phi = _pl((tuple(F(k + 1, 3) for k in range(n)), F(1, 2)), ((0,) * n, -9))
            for twist in (None, np.linspace(0.7, -0.3, n)):
                tc = ToricTC(P, W, phi, twist, c0=0.25)
                assert tc.is_product(), P.name
                dv = tcg.destabilizing_vertex(tc)
                assert dv.product and dv.norm_perp == 0.0, P.name
                assert tcg.orthogonal_part(tc)[1] == 0.0 and tcg.df_T(tc) == 0.0, P.name
                assert [t for *_, t in tcg.chow_T_table(tc)] == [0.0] * len(P.vertices)
                assert all(tcg.chow_T(tc, v) == 0.0 for v in P.vertices), P.name

    def test_product_keeps_the_positivity_gate(self, simplex):
        bad = builtin("sasaki", 2, xi=[1.0, 0.0], a=F(0))
        tc = tcg.associated_product(simplex, bad, [0.5, 0.25])
        for call in (tcg.df_T, lambda tc: tcg.chow_T(tc, 0), tcg.destabilizing_vertex):
            with pytest.raises(PositivityError):
                call(tc)

    @pytest.mark.parametrize("e", ["1e-12", "1e-20"])
    def test_thin_second_cell_is_no_product(self, e, csck2):
        # max(0, x1 + x2 - 1 + e) on cp2 has a second cell of width about e,
        # whose orthogonal norm rounds to 3.0e-36 at e = 1e-12 and to 0.0 at
        # 1e-20.  The float test read both as products; at 1e-20 the ratio
        # would divide by the norm.
        tc = ToricTC(catalog.load("cp2"), csck2, _pl(((0, 0), 0), ((1, 1), F(e) - 1)))
        assert not tc.is_product()
        if e == "1e-12":
            dv = tcg.destabilizing_vertex(tc)
            assert not dv.product and 0 < dv.norm_perp < 1e-30
        else:
            with pytest.raises(FloatingPointError, match="orthogonal L1 norm is 0"):
                tcg.destabilizing_vertex(tc)

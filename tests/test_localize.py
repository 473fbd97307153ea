import math

import numpy as np
import pytest

from toricstab import localize
from toricstab.localize import (DegenerateDirectionError, directional_derivative,
                                eval_at_degenerate, eval_c1_class, eval_class,
                                vertex_weights)
from toricstab.profiles import Exponential, Monomial
from toricstab.quadrature import integrate, integrate_boundary


class TestVertexWeightIdentities:
    @pytest.mark.parametrize("name", ["cp1", "cp2", "cp1xcp1", "bl1cp2",
                                      "hirzebruch-a", "cube"])
    def test_euler_reciprocals_sum_to_zero(self, name):
        from toricstab import catalog
        P = catalog.load(name)
        rng = np.random.default_rng(3)
        for _ in range(5):
            xi = rng.uniform(-1, 1, P.dim)
            if not localize.is_generic(P, xi):
                continue
            vw = vertex_weights(P, xi)
            assert math.fsum(1 / v.euler for v in vw) == pytest.approx(0.0, abs=1e-9)

    def test_top_moment_reproduces_volume(self, trapezoid):
        rng = np.random.default_rng(4)
        vol = float(trapezoid.volume())
        for _ in range(5):
            xi = rng.uniform(-1, 1, 2)
            if not localize.is_generic(trapezoid, xi):
                continue
            vw = vertex_weights(trapezoid, xi)
            n = trapezoid.dim
            got = math.fsum(v.pairing ** n / v.euler for v in vw)
            assert got == pytest.approx(math.factorial(n) * vol, rel=1e-9)

    def test_cp2_characteristic_number(self, simplex):
        vw = vertex_weights(simplex, [1.0, 2.0])
        assert math.fsum(v.c1 ** 2 / v.euler for v in vw) == pytest.approx(9.0)

    def test_degenerate_direction_raises(self, square):
        with pytest.raises(DegenerateDirectionError):
            vertex_weights(square, [1.0, 0.0])


class TestEvalClass:
    def test_interval_brion_exponential(self, unit_interval):
        t = 0.7
        got = eval_class(unit_interval, Exponential(), [t])
        assert got == pytest.approx((math.exp(t) - 1) / t, rel=1e-13)

    def test_top_monomial_gives_volume(self, interval, simplex, trapezoid):
        for P in (interval, simplex, trapezoid):
            got = eval_class(P, Monomial(P.dim), [0.31] * P.dim
                             if P.dim > 1 else [0.77])
            assert got == pytest.approx(float(P.volume()), rel=1e-10)

    def test_against_quadrature(self, trapezoid):
        xi = np.array([0.45, -0.8])
        h = Exponential()
        got = eval_class(trapezoid, h, xi)
        want = integrate(trapezoid, lambda x: np.exp(x @ xi)).value
        assert got == pytest.approx(want, rel=1e-10)

    def test_low_degree_sums_vanish(self, simplex):
        # h = x^k/k! with k < n integrates to zero through the vertex sum.
        got = eval_class(simplex, Monomial(1), [0.618, 0.271])
        assert got == pytest.approx(0.0, abs=1e-12)


class TestEvalC1Class:
    def test_simplex_affine(self, simplex):
        t1, t2 = 0.35, 0.8
        got = eval_c1_class(simplex, Monomial(2), [t1, t2])
        assert got == pytest.approx(t1 + t2, rel=1e-12)

    def test_interval_point_count(self, interval):
        got = eval_c1_class(interval, Monomial(0), [0.9])
        assert got == pytest.approx(2.0, rel=1e-13)

    def test_simplex_lattice_perimeter(self, simplex):
        got = eval_c1_class(simplex, Monomial(1), [0.35, 0.8])
        assert got == pytest.approx(3.0, rel=1e-12)

    def test_against_boundary_quadrature(self, trapezoid):
        xi = np.array([0.52, 0.17])
        got = eval_c1_class(trapezoid, Exponential(), xi)
        want = integrate_boundary(trapezoid, lambda x: np.exp(x @ xi)).value
        assert got == pytest.approx(want, rel=1e-9)


class TestDegenerateDirections:
    def test_zero_direction_volume(self, simplex):
        got = eval_at_degenerate(simplex, "volume", Monomial(2), [0.0, 0.0])
        assert got == pytest.approx(0.5, rel=1e-9)

    def test_zero_direction_perimeter(self, simplex, square):
        for P, per in ((simplex, 3.0), (square, 4.0)):
            got = eval_at_degenerate(P, "c1", Monomial(1), [0.0, 0.0])
            assert got == pytest.approx(per, rel=1e-9)

    def test_edge_aligned_direction(self, square):
        xi = np.array([0.8, 0.0])  # kills the horizontal edges
        got = eval_class(square, Exponential(), xi)
        want = integrate(square, lambda x: np.exp(x @ xi)).value
        assert got == pytest.approx(want, rel=1e-8)

    def test_explicit_error_mode(self, square):
        with pytest.raises(DegenerateDirectionError):
            eval_class(square, Exponential(), [1.0, 0.0], on_degenerate="error")


class TestDirectionalDerivative:
    def test_constant_in_xi_gives_zero(self, simplex):
        # Volume of P is independent of the direction.
        got = directional_derivative("volume", simplex, Monomial(2),
                                     [0.4, 0.9], [1.0, -0.5])
        assert got == pytest.approx(0.0, abs=1e-11)

    def test_interval_exponential_derivative(self, unit_interval):
        t = 0.7
        got = directional_derivative("volume", unit_interval, Exponential(),
                                     [t], [1.0])
        exact = (math.exp(t) * (t - 1) + 1) / t ** 2
        assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("kind", ["volume", "c1"])
    def test_matches_five_point_stencil(self, trapezoid, kind):
        rng = np.random.default_rng(11)
        h = Exponential()
        for _ in range(5):
            xi = rng.uniform(0.2, 1.0, 2) * np.array([1, -1])
            beta = rng.uniform(-1, 1, 2)
            if not localize.is_generic(trapezoid, xi):
                continue
            fn = eval_class if kind == "volume" else eval_c1_class
            s = 1e-3
            stencil = (fn(trapezoid, h, xi - 2 * s * beta)
                       - 8 * fn(trapezoid, h, xi - s * beta)
                       + 8 * fn(trapezoid, h, xi + s * beta)
                       - fn(trapezoid, h, xi + 2 * s * beta)) / (12 * s)
            got = directional_derivative(kind, trapezoid, h, xi, beta)
            assert got == pytest.approx(stencil, rel=1e-6)


def test_unimodular_invariance(trapezoid):
    u = [[1, 1], [1, 2]]
    image = trapezoid.unimodular_image(u, [1, 3])
    xi = np.array([0.37, 0.61])
    uarr = np.array(u, dtype=float)
    xi_img = np.linalg.inv(uarr).T @ xi
    a = eval_class(trapezoid, Exponential(), xi)
    # The pairing shifts by <xi_img, tau> under the translation part.
    shift = float(xi_img @ np.array([1.0, 3.0]))
    b = eval_class(image, Exponential(), xi_img)
    assert b == pytest.approx(a * math.exp(shift), rel=1e-10)


class TestEdgeArrays:
    def test_equal_a_fresh_build_from_the_vertex_data(self, cube):
        from toricstab import catalog
        chop = cube.corner_chop(5, cube.admissible_chop(5) / 3)
        for P in [catalog.load(name) for name in catalog.names()] + [chop]:
            verts, edges, norms = localize._edge_arrays(P)
            fresh = np.array([[[float(c) for c in u] for u in v.inward_edges]
                              for v in P.vertex_data()])
            assert np.array_equal(verts, [[float(c) for c in v]
                                          for v in P.vertices]), P
            assert np.array_equal(edges, fresh), P
            assert np.array_equal(norms, np.linalg.norm(fresh, axis=2)), P
            assert localize._edge_arrays(P) is localize._edge_arrays(P)

    def test_are_read_only(self, trapezoid):
        for arr in localize._edge_arrays(trapezoid):
            with pytest.raises(ValueError):
                arr[0] = 1.0

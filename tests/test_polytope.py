from fractions import Fraction as F

import numpy as np
import pytest

from toricstab import blowup, invariants, testconfig
from toricstab.polytope import (ChopDepthError, DelzantPolytope, Facet,
                                NonSimpleVertexError, PolytopeError)
from toricstab.profiles import builtin

from conftest import vertex_index


class TestVertexEnumeration:
    def test_interval_endpoints(self, interval):
        assert interval.vertices == ((F(-1, 2),), (F(1, 2),))
        data = interval.vertex_data()
        edges = {v.coords: v.inward_edges for v in data}
        assert edges[(F(-1, 2),)] == ((1,),)
        assert edges[(F(1, 2),)] == ((-1,),)

    def test_unit_simplex(self, simplex):
        assert simplex.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
        edges = {v.coords: set(v.inward_edges) for v in simplex.vertex_data()}
        assert edges[(F(0), F(0))] == {(1, 0), (0, 1)}
        assert edges[(F(1), F(0))] == {(-1, 0), (-1, 1)}
        assert edges[(F(0), F(1))] == {(0, -1), (1, -1)}

    def test_square_axis_parallel_edges(self, square):
        assert len(square.vertices) == 4
        for v in square.vertex_data():
            for e in v.inward_edges:
                assert sorted(map(abs, e)) == [0, 1]

    def test_cube_vertex_count_power_of_two(self, cube):
        assert len(cube.vertices) == 2 ** 3

    def test_non_simple_vertex_diagnostic(self):
        # Four facets of a square pyramid cross section meeting at one point.
        P = DelzantPolytope(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0),
                                ((-1, -1), 1)])
        with pytest.raises(NonSimpleVertexError) as err:
            P.vertex_data()
        assert len(err.value.facet_indices) > 2


class TestValidation:
    def test_simplex_valid(self, simplex):
        assert simplex.validate_delzant() == []

    def test_square_valid(self, square):
        assert square.validate_delzant() == []

    def test_non_unimodular_triangle(self):
        P = DelzantPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])
        diags = P.validate_delzant()
        assert len(diags) == 1
        assert "(0, 1)".replace(" ", "") in diags[0].replace("'", "").replace(" ", "")
        assert "determinant" in diags[0]

    def test_unbounded_detected(self):
        P = DelzantPolytope(2, [((1, 0), 0), ((0, 1), 0)])
        assert any("unbounded" in d for d in P.validate_delzant())

    def test_redundant_facet_detected(self, square):
        P = DelzantPolytope(2, list(square.facets) + [((1, 1), 5)])
        assert any("redundant" in d for d in P.validate_delzant())

    def test_empty_detected(self):
        P = DelzantPolytope(1, [((1,), 0), ((-1,), -1)])
        assert any("empty" in d for d in P.validate_delzant())


class TestTriangulate:
    def test_simplex_is_itself(self, simplex):
        tri = simplex.triangulate()
        assert len(tri) == 1
        assert set(tri[0]) == set(simplex.vertices)

    def test_square_two_triangles(self, square):
        tri = square.triangulate()
        assert len(tri) == 2
        assert sum(_area(s) for s in tri) == 1

    def test_chopped_square_three_triangles(self, square):
        pent = square.corner_chop(vertex_index(square, (0, 0)), F(1, 4))
        tri = pent.triangulate()
        assert len(tri) == 3
        assert sum(_area(s) for s in tri) == 1 - F(1, 4) ** 2 / 2

    def test_volume_additivity_against_moments(self, trapezoid):
        from toricstab.quadrature import moments
        total = sum(
            _simplex_moment(s, (1, 1)) for s in trapezoid.triangulate())
        assert total == moments(trapezoid, (1, 1))


def _area(simplex):
    (a, b, c) = simplex
    return abs((b[0] - a[0]) * (c[1] - a[1])
               - (b[1] - a[1]) * (c[0] - a[0])) / 2


def _simplex_moment(s, m):
    from toricstab.quadrature import _monomial_moment_simplex
    return _monomial_moment_simplex(s, m)


def test_cached_float_arrays_are_read_only(cube):
    P = cube.corner_chop(0, cube.admissible_chop(0) / 3)
    arrays = [P.vertices_floats(), P.triangulation_floats(),
              *(P.facet_triangulation_floats(i) for i in P.genuine_facet_indices())]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr += 1.0


class TestFacetChart:
    def test_hypotenuse_lattice_length_one(self, simplex):
        i = next(i for i, f in enumerate(simplex.facets)
                 if f.normal == (-1, -1))
        chart = simplex.facet_chart(i)
        # Chart is a segment of lattice length 1 mapping onto the facet.
        ends = sorted(chart.coords.values())
        assert [len(y) for y in ends] == [1, 1]
        assert ends[-1][0] - ends[0][0] == 1
        assert {chart.map_exact(y) for y in ends} == {(F(1), F(0)), (F(0), F(1))}

    def test_square_side_length_one(self, square):
        i = next(i for i, f in enumerate(square.facets) if f.normal == (1, 0))
        chart = square.facet_chart(i)
        ends = sorted(chart.coords.values())
        assert ends[-1][0] - ends[0][0] == 1
        for y in ends:
            assert chart.map_exact(y)[0] == 0

    def test_map_floats_bits(self, cube):
        # The float frame is built once per chart and maps with the bits of
        # converting origin and basis on every call.
        rng = np.random.default_rng(2)
        P = cube.corner_chop(0, cube.admissible_chop(0) / 3)
        for i in P.genuine_facet_indices():
            chart = P.facet_chart(i)
            y = rng.random((7, 2)) * 3 - 1
            want = (np.array([float(c) for c in chart.origin])
                    + y @ np.array(chart.basis, dtype=float))
            assert np.array_equal(chart.map_floats(y), want)
            assert chart._float_frame is chart._float_frame

    def test_interval_endpoint_chart(self, interval):
        chart = interval.facet_chart(0)
        assert chart.basis == ()
        assert len(chart.origin) == 1


class TestCornerChop:
    def test_square_quarter_chop(self, square):
        pent = square.corner_chop(vertex_index(square, (0, 0)), F(1, 4))
        new = [f for f in pent.facets if f.normal == (1, 1)]
        assert len(new) == 1 and new[0].offset == F(-1, 4)
        assert pent.volume() == 1 - F(1, 32)
        assert pent.validate_delzant() == []

    def test_simplex_chop_gives_trapezoid(self, simplex):
        trap = simplex.corner_chop(vertex_index(simplex, (0, 0)), F(1, 4))
        assert len(trap.vertices) == 4
        assert trap.validate_delzant() == []
        assert (F(1, 4), F(0)) in trap.vertices

    def test_cube_volume_deficit(self, cube):
        eps = F(1, 10)
        chopped = cube.corner_chop(vertex_index(cube, (0, 0, 0)), eps)
        assert chopped.volume() == 1 - eps ** 3 / 6

    def test_facet_and_vertex_counts(self, simplex):
        trap = simplex.corner_chop(0, F(1, 8))
        assert len(trap.facets) == len(simplex.facets) + 1
        assert len(trap.vertices) == len(simplex.vertices) + simplex.dim - 1

    def test_depth_guard(self, square):
        bound = square.admissible_chop(0)
        with pytest.raises(ChopDepthError) as err:
            square.corner_chop(0, bound + F(1, 100))
        assert err.value.admissible == bound

    def test_dimension_one_rejected(self, interval):
        with pytest.raises(PolytopeError):
            interval.corner_chop(0, F(1, 10))

    def test_delzant_preserved_by_translate_and_chop(self, trapezoid):
        moved = trapezoid.translate([F(3, 7), F(-1, 5)])
        assert moved.validate_delzant() == []
        chopped = moved.corner_chop(0, moved.admissible_chop(0) / 3)
        assert chopped.validate_delzant() == []


class TestChopCache:
    def test_errors_raise_on_every_repeat(self, square):
        bound = square.admissible_chop(0)
        for _ in range(3):
            with pytest.raises(ChopDepthError):
                square.corner_chop(0, bound)
            with pytest.raises(PolytopeError, match="positive"):
                square.corner_chop(0, 0)
            with pytest.raises(PolytopeError, match="positive"):
                square.corner_chop(0, F(-1, 8))

    def test_vertex_index_out_of_range(self, simplex):
        for vertex in (3, 99, -1):
            with pytest.raises(PolytopeError, match=r"0\.\.2"):
                simplex.corner_chop(vertex, F(1, 8))
            with pytest.raises(PolytopeError, match=r"0\.\.2"):
                simplex.admissible_chop(vertex)

    def test_equal_parents_with_other_names(self, square):
        twin = DelzantPolytope(2, square.facets, name="twin")
        unnamed = DelzantPolytope(2, square.facets)
        assert twin == square == unnamed
        chops = [Q.corner_chop(0, F(1, 8)) for Q in (square, twin, unnamed)]
        assert [c.name for c in chops] == [
            "cp1xcp1-chopped", "twin-chopped", None]
        assert chops[0] == chops[1] == chops[2]

    def test_shared_chops_leave_reports_unchanged(self, trapezoid):
        W = builtin("soliton", 2, xi=[0.3, -0.2])
        tc = testconfig.ToricTC(trapezoid, W, testconfig.PLConvex.make(
            [((0, 0), 0), ((1, 1), F(-1, 2))]))
        order = ("volume", "futaki", "df", "dft")

        def reports(quantities):
            return {q: blowup.verify_expansion(q, trapezoid, W, 2, tc=tc,
                                               beta=[0.7, -0.4])
                    for q in quantities}

        shared = reports(order)
        blowup._corners.cache_clear()
        invariants._scalar_cache.clear()
        testconfig._cells.cache_clear()
        assert reports(reversed(order)) == shared


class TestTranslation:
    def test_unit_interval_midpoint(self, unit_interval):
        moved, shift = unit_interval.midpoint_normalize([1])
        assert shift == F(-1, 2)
        assert moved.vertices == ((F(-1, 2),), (F(1, 2),))

    def test_symmetric_identity(self, interval):
        moved, shift = interval.midpoint_normalize([1])
        assert shift == 0 and moved is interval

    def test_simplex_direction_e1(self, simplex):
        moved, shift = simplex.midpoint_normalize([1, 0])
        assert shift == F(-1, 2)
        assert moved == simplex.translate([F(-1, 2), F(0)])

    def test_translate_offsets(self, square):
        moved = square.translate([F(1), F(2)])
        assert moved.contains((1, 2)) and moved.contains((2, 3))
        assert not moved.contains((0, 0))


class TestSerialization:
    def test_round_trip(self, trapezoid):
        doc = trapezoid.to_json()
        again = DelzantPolytope.from_json(doc)
        assert again == trapezoid
        assert again.name == trapezoid.name

    def test_offsets_are_fraction_strings(self, interval):
        doc = interval.to_json()
        assert all(isinstance(f["offset"], str) for f in doc["facets"])

    def test_vertices_never_serialized(self, simplex):
        assert "vertices" not in simplex.to_json()


class TestUnimodularInvariance:
    def test_volume_and_validity(self, trapezoid):
        u = [[1, 1], [0, 1]]
        image = trapezoid.unimodular_image(u, [2, -1])
        assert image.volume() == trapezoid.volume()
        assert image.validate_delzant() == []
        assert len(image.vertices) == len(trapezoid.vertices)

    def test_facet_normals_stay_primitive(self, simplex):
        image = simplex.unimodular_image([[2, 1], [1, 1]])
        from math import gcd
        for f in image.facets:
            assert gcd(*map(abs, f.normal)) == 1


def test_facet_make_clears_denominators():
    f = Facet.make((F(1, 2), F(1, 3)), F(1, 6))
    assert f.normal == (3, 2)
    assert f.offset == F(1)


def test_facet_objects_not_in_normal_form_are_normalised():
    P = DelzantPolytope(1, [Facet((2,), 0), Facet((-1,), 1), Facet.make((-3,), 3)])
    assert P.facets == (Facet.make((-1,), 1), Facet.make((1,), 0))
    assert all(type(f.offset) is F for f in P.facets)


def test_facet_chart_of_infeasible_facet_raises():
    # x >= 0 is redundant behind x >= 1, and its line (in dimension 1 its
    # point) misses the polytope.
    for P in (DelzantPolytope(2, [((1, 0), 0), ((1, 0), -1), ((-1, 0), 3),
                                  ((0, 1), 0), ((0, -1), 1)]),
              DelzantPolytope(1, [((1,), 0), ((1,), -1), ((-1,), 3)])):
        i = next(i for i, f in enumerate(P.facets)
                 if f == Facet.make((1,) + (0,) * (P.dim - 1), 0))
        with pytest.raises(PolytopeError, match="infeasible"):
            P.facet_chart(i)
        assert P.volume() == 2


def test_facet_chart_accepts_facet_object(simplex):
    f = simplex.facets[0]
    assert simplex.facet_chart(f) is simplex.facet_chart(0)

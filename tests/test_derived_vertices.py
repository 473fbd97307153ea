"""Vertices derived from a parent polytope against brute-force enumeration.

PL cells and corner chops inherit their vertices and incidences from the
polytope they are cut from, and facet charts their vertex coordinates.  Each
case here rebuilds the same facet list as a fresh ``DelzantPolytope``, which
enumerates every n-subset of facets, and asks for identical answers.

Triangulations pull on the parent's incidences instead of recursing through
chart sub-polytopes; the chart recursion is kept below as their oracle.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricstab import _linalg as la, catalog, testconfig
from toricstab.polytope import DelzantPolytope, Facet, PolytopeError, _clip

SIMPLEX4 = DelzantPolytope(4, [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0),
                               ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0),
                               ((-1, -1, -1, -1), 2)], name="simplex4")
CUBE4 = DelzantPolytope(4, [(tuple(s * (i == k) for i in range(4)), 1)
                            for k in range(4) for s in (1, -1)], name="cube4")
POLYTOPES = [catalog.load(name) for name in catalog.names()] + [SIMPLEX4, CUBE4]
SOLIDS = [P for P in POLYTOPES if P.dim >= 2]


def _ids(P):
    return P.name


def assert_matches_enumeration(Q):
    ref = DelzantPolytope(Q.dim, Q.facets)
    assert Q.facets == ref.facets
    assert Q.vertices == ref.vertices
    assert Q.vertex_facets == ref.vertex_facets


def assert_charts_match(Q):
    """Each chart's frame and vertex coordinates against a fresh enumeration
    of the chart polytope that :func:`_oracle_chart` builds."""
    if Q.dim == 1:
        return
    for i in Q.genuine_facet_indices():
        chart = Q.facet_chart(i)
        origin, basis, sub = _oracle_chart(Q, i)
        assert (chart.origin, chart.basis) == (origin, basis)
        ref = DelzantPolytope(sub.dim, sub.facets)
        assert sorted(chart.coords.values()) == list(ref.vertices)


small = st.integers(-3, 3)
rational = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def cut_rows(draw, P):
    """Halfspaces cutting P, with the degenerate kinds mixed in: through a
    vertex, parallel or coincident to the previous row, equal or opposite
    to a facet of P."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ("generic", "vertex", "parallel", "coincident", "facet", "opposite")))
        if kind in ("parallel", "coincident") and rows:
            normal, offset = rows[-1]
            if kind == "parallel":
                offset = offset + draw(rational.filter(bool))
            else:
                scale = draw(st.integers(1, 3))
                normal, offset = tuple(scale * c for c in normal), scale * offset
        elif kind in ("facet", "opposite"):
            f = draw(st.sampled_from(P.facets))
            normal, offset = f.normal, f.offset
            if kind == "opposite":
                normal = tuple(-c for c in normal)
                offset = -offset + draw(st.sampled_from((0, F(1, 2), 1)))
        else:
            normal = draw(st.tuples(*[small] * P.dim).filter(any))
            if kind == "vertex":
                offset = -la.dot(normal, draw(st.sampled_from(P.vertices)))
            else:
                offset = draw(rational)
        rows.append((normal, offset))
    return rows


@pytest.mark.parametrize("P", POLYTOPES, ids=_ids)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_clip_matches_enumeration(P, data):
    rows = data.draw(cut_rows(P))
    cell = _clip(P, rows)
    ref = DelzantPolytope(P.dim, list(P.facets) + rows)
    if cell is None:
        assert ref.is_empty() or not ref.is_full_dimensional()
    else:
        assert not ref.is_empty() and ref.is_full_dimensional()
        assert_matches_enumeration(cell)
        assert_charts_match(cell)


@st.composite
def pl_functions(draw, P):
    """PL convex functions whose pieces include coincident and parallel
    break hyperplanes, equal gradients, and a piece that ties another one
    along a hyperplane through a vertex of P."""
    pieces = [(draw(st.tuples(*[rational] * P.dim)), draw(rational))
              for _ in range(draw(st.integers(1, 3)))]
    grad, const = pieces[0]
    if len(pieces) > 1 and draw(st.booleans()):
        g1, c1 = pieces[1]
        pieces.append((tuple(2 * b - a for a, b in zip(grad, g1)), 2 * c1 - const))
    if len(pieces) > 1 and draw(st.booleans()):
        g1, c1 = pieces[1]
        pieces.append((g1, c1 + draw(rational.filter(bool))))
    if draw(st.booleans()):
        v = draw(st.sampled_from(P.vertices))
        g2 = tuple(g + d for g, d in zip(grad, draw(st.tuples(*[small] * P.dim))))
        pieces.append((g2, const - la.dot([a - b for a, b in zip(g2, grad)], v)))
    return testconfig.PLConvex.make(pieces)


@pytest.mark.parametrize("P", SOLIDS, ids=_ids)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_cells_match_enumeration_and_partition(P, data):
    phi = data.draw(pl_functions(P))
    cells = testconfig._cells(P, phi)
    kept = {k for k, _ in cells}
    for k, (gk, ck) in enumerate(phi.pieces):
        rows = [(tuple(a - b for a, b in zip(gk, gj)), ck - cj)
                for j, (gj, cj) in enumerate(phi.pieces) if j != k]
        # A zero-gradient difference with a positive constant is no cut.
        if any(not any(n) and c < 0 for n, c in rows):
            assert k not in kept
            continue
        ref = DelzantPolytope(P.dim, list(P.facets) + [r for r in rows if any(r[0])])
        assert (k in kept) == (not ref.is_empty() and ref.is_full_dimensional())
    for _, cell in cells:
        assert_matches_enumeration(cell)
    if P.dim <= 3:  # exact volumes of 4-D cells take seconds
        assert sum(cell.volume() for _, cell in cells) == P.volume()
        for _, cell in cells:
            assert_triangulations_match(cell)


@pytest.mark.parametrize("P", SOLIDS, ids=_ids)
def test_corner_chops_match_enumeration(P):
    for vi in range(len(P.vertices)):
        bound = P.admissible_chop(vi)
        for depth in (bound * F(9, 10), bound / 7):
            assert_matches_enumeration(P.corner_chop(vi, depth))
    assert_charts_match(P.corner_chop(0, P.admissible_chop(0) / 3))
    # A chop of a chop derives from derived data.
    Q = P.corner_chop(0, P.admissible_chop(0) / 3)
    R = Q.corner_chop(len(Q.vertices) - 1, Q.admissible_chop(len(Q.vertices) - 1) / 2)
    assert_matches_enumeration(R)


@pytest.mark.parametrize("P", SOLIDS, ids=_ids)
def test_facet_charts_match_enumeration(P):
    assert_charts_match(P)


def test_unbounded_parent_falls_back_to_enumeration():
    quadrant = DelzantPolytope(2, [((1, 0), 0), ((0, 1), 0)])
    cut = _clip(quadrant, [((-1, -1), 3)])
    assert_matches_enumeration(cut)
    assert cut.volume() == F(9, 2)


def test_clip_does_not_join_diagonal_non_simple_vertices():
    # The supporting cut x3 + x4 <= 2 makes the four vertices of the 2-face
    # x3 = x4 = 1 of the 4-cube non-simple.  The next cut separates both
    # diagonals of that face; a diagonal's ends share n-1 = 3 facets but
    # span no edge, so no cut point may be added on it.
    face = _clip(CUBE4, [((0, 0, -1, -1), 2)])
    on_face = [v for v, act in zip(face.vertices, face.vertex_facets)
               if v[2:] == (1, 1)]
    assert len(on_face) == 4 and all(
        len(act) == 5 for v, act in zip(face.vertices, face.vertex_facets)
        if v in on_face)
    cut = _clip(face, [((1, 2, 0, 0), F(1, 2))])
    assert_matches_enumeration(cut)
    for diagonal_cut in ((F(-1, 6), F(-1, 6), 1, 1), (F(1, 2), F(-1, 2), 1, 1)):
        assert diagonal_cut not in cut.vertices


def test_derived_polytopes_never_enumerate(monkeypatch):
    runs = []
    enumerate_facets = DelzantPolytope._enumerate

    def counted(self):
        if "enum" not in self._cache:
            runs.append(self)
        return enumerate_facets(self)

    monkeypatch.setattr(DelzantPolytope, "_enumerate", counted)
    # A shape used nowhere else, so the cell cache holds nothing for it.
    P = DelzantPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 4),
                            ((1, 1), -1)])
    P.triangulate()
    assert len(runs) == 1
    rng = np.random.default_rng(5)
    for _ in range(5):
        for _, cell in testconfig._cells(P, testconfig.random_pl(rng, 2)):
            cell.triangulate()
            for i in cell.genuine_facet_indices():
                cell.facet_triangulation(i)
    Q = P.corner_chop(1, P.admissible_chop(1) / 2)
    Q.corner_chop(0, Q.admissible_chop(0) / 2).triangulate()
    assert runs == [P]
    P.translate((1, 0)).vertices
    assert len(runs) == 2


# -- triangulation against the chart recursion --------------------------------


def _oracle_chart(Q, facet_index):
    """The facet chart as the library built it before triangulations pulled
    on incidences (verbatim): ``(origin, basis, chart polytope)``."""
    f = Q.facets[facet_index]
    z, basis = la.unimodular_complement(f.normal)
    origin = tuple(-f.offset * zi for zi in z)
    rows = {}
    for j, g in enumerate(Q.facets):
        if j == facet_index:
            continue
        ny = tuple(la.dot(g.normal, b) for b in basis)
        off = g.offset + la.dot(g.normal, origin)
        if all(c == 0 for c in ny):
            if off < 0:
                raise PolytopeError(f"facet {facet_index} is infeasible")
            continue
        rows[j] = Facet.make(ny, off)
    sub = DelzantPolytope(Q.dim - 1, rows.values())
    # Chart vertices: ours on the facet, solving x - origin = s z + y.basis.
    slot = {j: sub.facets.index(g) for j, g in rows.items()}
    inv = la.invert_integer_matrix((z,) + basis)
    enum = sorted(
        (tuple(sum(inv[k][r] * (v[k] - origin[k]) for k in range(Q.dim))
               for r in range(1, Q.dim)),
         tuple(sorted({slot[j] for j in act if j in slot})))
        for v, act in zip(Q.vertices, Q.vertex_facets)
        if facet_index in act)
    sub._cache["enum"] = (tuple(v for v, _ in enum),
                          tuple(a for _, a in enum))
    return origin, basis, sub


def _oracle_genuine(Q):
    """Facets supporting an (n-1)-face, by the affine rank of their vertices
    alone (verbatim but for the cache)."""
    out = []
    for i in range(len(Q.facets)):
        on_facet = [v for v, act in zip(Q.vertices, Q.vertex_facets)
                    if i in act]
        if len(on_facet) >= Q.dim and la.affine_rank(on_facet) == Q.dim - 1:
            out.append(i)
    return tuple(out)


def _oracle_triangulate(Q):
    """The chart recursion (verbatim but for the cache): cone the
    lexicographically smallest vertex over triangulations of the facets it
    does not lie on, each triangulated as its chart polytope."""
    if Q.is_empty() or not Q.is_full_dimensional():
        return ()
    if Q.dim == 1:
        return ((Q.vertices[0], Q.vertices[-1]),)
    apex = Q.vertices[0]
    apex_facets = set(Q.vertex_facets[0])
    sims = []
    for i in _oracle_genuine(Q):
        if i in apex_facets:
            continue
        origin, basis, sub = _oracle_chart(Q, i)
        for s in _oracle_triangulate(sub):
            sims.append((apex,) + tuple(
                tuple(origin[k] + sum(F(y[r]) * basis[r][k]
                                      for r in range(len(basis)))
                      for k in range(len(origin)))
                for y in s))
    return tuple(sims)


def assert_triangulations_match(Q):
    assert Q.genuine_facet_indices() == _oracle_genuine(Q)
    assert Q.triangulate() == _oracle_triangulate(Q)
    if Q.dim == 1:
        return
    for i in _oracle_genuine(Q):
        sims = _oracle_triangulate(_oracle_chart(Q, i)[2])
        ref = np.array([[[float(c) for c in v] for v in s] for s in sims],
                       dtype=float)
        got = Q.facet_triangulation_floats(i)
        assert got.shape == ref.shape and np.array_equal(got, ref)


def _through_vertex_cells(P):
    """Cells of max(0, <g, x - v>) for cuts through vertices of P, which
    leave the cells vertices where more than n facets meet."""
    out = []
    for vi in (0, len(P.vertices) // 2):
        v = P.vertices[vi]
        for g in ((1, -1) + (0,) * (P.dim - 2), (1,) * P.dim):
            phi = testconfig.PLConvex.make(
                [((0,) * P.dim, 0), (g, -la.dot(g, v))])
            out.extend(cell for _, cell in testconfig._cells(P, phi))
    return out


@pytest.mark.parametrize("P", POLYTOPES, ids=_ids)
def test_triangulation_matches_chart_recursion(P):
    assert_triangulations_match(P)
    if P.dim == 1:
        return
    bound = P.admissible_chop(0)
    for depth in (bound * F(9, 10), bound / 7):
        assert_triangulations_match(P.corner_chop(0, depth))
    Q = P.corner_chop(len(P.vertices) - 1, P.admissible_chop(len(P.vertices) - 1) / 3)
    assert_triangulations_match(Q)
    assert_triangulations_match(Q.corner_chop(0, Q.admissible_chop(0) / 2))
    cells = _through_vertex_cells(P)
    assert any(len(act) > P.dim for cell in cells for act in cell.vertex_facets)
    for cell in cells:
        assert_triangulations_match(cell)


def test_triangulating_a_chop_builds_no_polytope(monkeypatch):
    P = catalog.load("cube")
    Q = P.corner_chop(3, P.admissible_chop(3) * F(5, 11))
    built = []
    init = DelzantPolytope.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DelzantPolytope, "__init__", counted)
    Q.triangulate()
    for i in Q.genuine_facet_indices():
        Q.facet_triangulation_floats(i)
    assert built == []

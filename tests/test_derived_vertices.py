"""Vertices derived from a parent polytope against brute-force enumeration.

PL cells, corner chops and facet charts inherit their vertices and
incidences from the polytope they are cut from.  Each case here rebuilds the
same facet list as a fresh ``DelzantPolytope``, which enumerates every
n-subset of facets, and asks for identical answers.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricstab import _linalg as la, catalog, testconfig
from toricstab.polytope import DelzantPolytope, _clip

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
    if Q.dim == 1:
        return
    for i in Q.genuine_facet_indices():
        assert_matches_enumeration(Q.facet_chart(i).polytope)


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
                cell.facet_chart(i).polytope.triangulate()
    Q = P.corner_chop(1, P.admissible_chop(1) / 2)
    Q.corner_chop(0, Q.admissible_chop(0) / 2).triangulate()
    assert runs == [P]
    P.translate((1, 0)).vertices
    assert len(runs) == 2

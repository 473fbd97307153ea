"""Vertices derived from a parent polytope against brute-force enumeration.

PL cells and corner chops inherit their vertices and incidences from the
polytope they are cut from, and facet charts their vertex coordinates.  Each
case here rebuilds the same facet list as a fresh ``DelzantPolytope``, which
enumerates every n-subset of facets, and asks for identical answers.

Triangulations pull on the parent's incidences instead of recursing through
chart sub-polytopes; the chart recursion is kept below as their oracle.
"""

from fractions import Fraction as F
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricstab import _linalg as la, catalog, testconfig
from toricstab.polytope import DelzantPolytope, Facet, PolytopeError, _clip, _frame

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


# -- the integer L0 against its Fraction form ----------------------------------
#
# Vertices, chart coordinates and cut points are integers over one common
# denominator.  The functions below are the Fraction versions the library
# had before (verbatim but for returning their results instead of filling a
# polytope's cache); every exact value, every choice and every float must
# come out the same.


def _oracle_clip(parent, rows):
    """``(facets, vertices, vertex_facets)`` of a bounded full-dimensional
    ``parent`` cut by ``rows``, or None, by Fraction double description."""
    out = DelzantPolytope(parent.dim, parent.facets + tuple(rows))
    n = parent.dim
    index = {f: i for i, f in enumerate(out.facets)}
    verts = [(v, frozenset(index[parent.facets[i]] for i in act))
             for v, act in zip(parent.vertices, parent.vertex_facets)]
    old = {index[f] for f in parent.facets}
    for j, f in enumerate(out.facets):
        if j in old:
            continue
        vals = [f.value(v) for v, _ in verts]
        if not any(h > 0 for h in vals):
            return None
        kept = [(v, act | {j} if h == 0 else act)
                for (v, act), h in zip(verts, vals) if h >= 0]
        for a, (u, au) in enumerate(verts):
            if vals[a] <= 0:
                continue
            for b, (w, aw) in enumerate(verts):
                if vals[b] >= 0:
                    continue
                common = au & aw
                if len(common) < n - 1:
                    continue
                if (len(au) != n and len(aw) != n
                        and (any(common <= az for c, (_, az) in enumerate(verts)
                                 if c != a and c != b)
                             or la.rank([out.facets[i].normal for i in common],
                                        n) != n - 1)):
                    continue
                t = vals[a] / (vals[a] - vals[b])
                kept.append((tuple(x + t * (y - x) for x, y in zip(u, w)),
                             common | {j}))
        verts = kept
    verts.sort(key=lambda va: va[0])
    return (out.facets, tuple(v for v, _ in verts),
            tuple(tuple(sorted(act)) for _, act in verts))


def _oracle_chart_coords(point, origin, proj):
    return tuple(sum(c * (p - o) for c, p, o in zip(row, point, origin) if c)
                 for row in proj)


def _oracle_facet_chart(P, facet_index):
    """``(origin, basis, coords)`` of a facet chart, in Fractions."""
    f = P.facets[facet_index]
    z, basis, proj = _frame(f.normal)
    origin = tuple(-f.offset * zi for zi in z)
    coords = {k: _oracle_chart_coords(v, origin, proj)
              for k, (v, act) in enumerate(zip(P.vertices, P.vertex_facets))
              if facet_index in act}
    return origin, basis, coords


def _oracle_is_facet(P, T, coords, d):
    if P.is_bounded() and any(len(P.vertex_facets[k]) == P.dim for k in T):
        return True
    return len(T) >= d and la.affine_rank([coords[k] for k in T]) == d - 1


def _oracle_pull(P, coords, origin, basis):
    order = sorted(coords, key=coords.__getitem__)
    d = len(basis)
    if d == 1:
        return ((order[0], order[-1]),)
    members = {}
    for k in order:
        for j in P.vertex_facets[k]:
            members.setdefault(j, []).append(k)
    facets = {}
    for j, T in members.items():
        T = tuple(T)
        if (T[0] != order[0] and len(T) < len(order) and T not in facets
                and _oracle_is_facet(P, T, coords, d)):
            g = P.facets[j]
            prim, factor = la.primitivize([la.dot(g.normal, b) for b in basis])
            facets[T] = (prim, g.value(origin) / factor)
    sims = []
    columns = tuple(zip(*basis))
    for T, (normal, offset) in sorted(facets.items(), key=lambda tf: tf[1]):
        z, frame, proj = _frame(normal)
        o = tuple(-offset * zi for zi in z)
        sub_origin = tuple(x + la.dot(o, col) for x, col in zip(origin, columns))
        sub_basis = tuple(tuple(la.dot(b, col) for col in columns) for b in frame)
        sub = {k: _oracle_chart_coords(coords[k], o, proj) for k in T}
        sims.extend((order[0],) + s for s in _oracle_pull(P, sub, sub_origin, sub_basis))
    return tuple(sims)


def _floats(rows):
    return np.array([[[float(c) for c in v] for v in s] for s in rows], dtype=float)


def assert_matches_fraction_l0(Q):
    """Exact data, choices and float bits of ``Q`` against the oracles."""
    V = Q.vertices
    assert Q.vertices_floats().tobytes() == np.array(
        [[float(c) for c in v] for v in V], dtype=float).tobytes()
    genuine = tuple(i for i in range(len(Q.facets)) if _oracle_is_facet(
        Q, [k for k, act in enumerate(Q.vertex_facets) if i in act], V, Q.dim))
    assert Q.genuine_facet_indices() == genuine
    if Q.dim == 1:
        return
    facet_sims = {}
    for i in genuine:
        origin, basis, coords = _oracle_facet_chart(Q, i)
        chart = Q.facet_chart(i)
        assert (chart.origin, chart.basis, chart.coords) == (origin, basis, coords)
        facet_sims[i] = _oracle_pull(Q, coords, origin, basis)
        assert Q.facet_triangulation(i) == facet_sims[i]
        got = Q.facet_triangulation_floats(i)
        want = _floats([[coords[k] for k in s] for s in facet_sims[i]])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    sims = tuple((0,) + s for i in genuine if i not in Q.vertex_facets[0]
                 for s in facet_sims[i])
    assert Q.triangulate() == tuple(tuple(V[k] for k in s) for s in sims)
    got, want = Q.triangulation_floats(), _floats(Q.triangulate())
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _cutting(P, rows):
    """The rows not positive at every vertex of P: those a cut of P reads."""
    return [row for row in rows
            if not all(Facet.make(*row).value(v) > 0 for v in P.vertices)]


def assert_floats_match_enumeration(Q, full):
    """Float triangulations of ``Q``, inside and on each genuine facet, byte
    for byte against ``full``: the same polytope with more facets, none of
    them through a vertex, enumerated from scratch."""
    got, want = Q.triangulation_floats(), full.triangulation_floats()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    genuine = [Q.facets[j] for j in Q.genuine_facet_indices()]
    assert genuine == [full.facets[i] for i in full.genuine_facet_indices()]
    if Q.dim == 1:
        return
    for f in genuine:
        got = Q.facet_triangulation_floats(Q.facets.index(f))
        want = full.facet_triangulation_floats(full.facets.index(f))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("P", POLYTOPES, ids=_ids)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_integer_clip_matches_fraction_clip(P, data):
    # A row positive at every vertex of P cuts nothing and is no facet of
    # the cut, so the oracle clips by the other rows only.
    rows = data.draw(cut_rows(P))
    cutting = _cutting(P, rows)
    cell, ref = _clip(P, rows), _oracle_clip(P, cutting)
    assert (cell is None) == (ref is None)
    if cell is None:
        return
    if not cutting:
        assert cell is P
    assert (cell.facets, cell.vertices, cell.vertex_facets) == ref
    assert_matches_fraction_l0(cell)
    assert_floats_match_enumeration(cell, DelzantPolytope(P.dim, P.facets + tuple(rows)))


# -- rows that cut nothing ------------------------------------------------------


def _away(f, shift):
    """The row ``f`` moved outward by ``shift``: f + shift >= 0."""
    return (f.normal, f.offset + shift)


def _chop_row(P, k):
    """The row through vertex k with the corner chop's normal: zero at that
    vertex and positive at every other one."""
    v = P.vertex_data()[k]
    m = tuple(sum(P.facets[i].normal[c] for i in v.adjacent_facets)
              for c in range(P.dim))
    return m, -la.dot(m, v.coords)


@pytest.mark.parametrize("P", POLYTOPES, ids=_ids)
def test_cut_positive_nowhere_is_empty(P):
    f = P.facets[0]
    back = tuple(-c for c in f.normal)
    assert _clip(P, [(back, -f.offset - 1)]) is None
    # Positive nowhere but zero on a facet: what is left is flat.
    assert _clip(P, [(back, -f.offset)]) is None
    assert _clip(P, [_away(P.facets[-1], 1), (back, -f.offset)]) is None


@pytest.mark.parametrize("P", POLYTOPES, ids=_ids)
def test_cut_positive_everywhere_is_the_parent(P):
    rows = [_away(f, F(1, 3)) for f in P.facets]
    assert _clip(P, rows) is P
    # Raw, unnormalised and Facet rows alike.
    f = P.facets[0]
    assert _clip(P, [(tuple(2 * c for c in f.normal), 2 * f.offset + 1)]) is P
    assert _clip(P, [Facet(f.normal, f.offset + 1)], name="other") is P
    assert _clip(P, []) is P


@pytest.mark.parametrize("P", SOLIDS, ids=_ids)
def test_partly_redundant_cut_drops_the_redundant_row(P):
    redundant = _away(P.facets[-1], 2)
    cut = _chop_row(P, 0)
    cut = (cut[0], cut[1] - P.admissible_chop(0))
    cell = _clip(P, [redundant, cut])
    assert cell is not P and Facet.make(*redundant) not in cell.facets
    assert (cell.facets, cell.vertices, cell.vertex_facets) == _oracle_clip(P, [cut])
    assert_floats_match_enumeration(
        cell, DelzantPolytope(P.dim, P.facets + (redundant, cut)))


@pytest.mark.parametrize("P", SOLIDS, ids=_ids)
def test_touching_row_is_kept(P):
    touch = _chop_row(P, len(P.vertices) - 1)
    cell = _clip(P, [touch])
    assert cell is not P
    assert (cell.facets, cell.vertices, cell.vertex_facets) == _oracle_clip(P, [touch])
    j = cell.facets.index(Facet.make(*touch))
    assert [k for k, act in enumerate(cell.vertex_facets) if j in act] == [
        cell.vertices.index(P.vertices[-1])]
    assert j not in cell.genuine_facet_indices()
    assert_matches_fraction_l0(cell)


@pytest.mark.parametrize("P", SOLIDS, ids=_ids)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_integer_chops_match_fraction_chops(P, data):
    Q = P
    for _ in range(data.draw(st.integers(1, 2))):
        k = data.draw(st.integers(0, len(Q.vertices) - 1))
        eps = Q.admissible_chop(k) * F(data.draw(st.integers(1, 19)), 20)
        v = Q.vertex_data()[k]
        m = tuple(sum(Q.facets[i].normal[c] for i in v.adjacent_facets)
                  for c in range(Q.dim))
        assert Q.admissible_chop(k) == min(
            la.dot(m, q) - la.dot(m, v.coords) for q in Q.vertices if q != v.coords) / 2
        ref = _oracle_clip(Q, [(m, -la.dot(m, v.coords) - eps)])
        Q = Q.corner_chop(k, eps)
        assert (Q.facets, Q.vertices, Q.vertex_facets) == ref
    assert_matches_fraction_l0(Q)


@pytest.mark.parametrize("P", POLYTOPES, ids=_ids)
def test_catalog_l0_matches_fraction_l0(P):
    assert_matches_fraction_l0(P)
    assert P.volume() == sum(
        abs(la.det([[s[i + 1][k] - s[0][k] for k in range(P.dim)]
                    for i in range(P.dim)])) for s in P.triangulate()) / factorial(P.dim)


# A float of n / D with |n| or D past 2**53 is correctly rounded only by
# integer true division: converting each to float first rounds twice.
past_53 = st.builds(lambda a, b: F(a, 2 ** 53 + b), st.integers(-5, 5), st.integers(1, 99))


@pytest.mark.parametrize("P", SOLIDS, ids=_ids)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_floats_of_denominators_past_2_53(P, data):
    normal = data.draw(st.tuples(*[small] * P.dim).filter(any))
    v = data.draw(st.sampled_from(P.vertices))
    cell = _clip(P, [(normal, data.draw(past_53) - la.dot(normal, v))])
    if cell is not None:
        assert_matches_fraction_l0(cell)


def test_float_of_one_over_2_53_plus_1():
    square = catalog.load("cp1xcp1")
    cell = _clip(square, [((1, 0), -F(1, 2 ** 53 + 1))])
    assert cell.vertices_floats()[0, 0] == 1 / (2 ** 53 + 1) != 2.0 ** -53
    assert_matches_fraction_l0(cell)

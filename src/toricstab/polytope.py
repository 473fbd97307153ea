"""Delzant polytopes as facet-inequality data with exact rational arithmetic.

A polytope is stored as ``P = {x : <n_F, x> + c_F >= 0 for all facets F}``
with primitive integer inward normals ``n_F`` and rational offsets ``c_F``.
Vertices, charts, triangulations and validity diagnostics are all derived
from the facet data; combinatorial questions (simplicity, unimodularity,
redundancy) are decided exactly over the rationals.  Floats appear only in
the cached arrays handed to the numerical integration layer.

Only raw facet data (catalog, JSON, user input, ``translate``,
``unimodular_image``) runs the C(m, n) vertex enumeration; corner chops and
PL cells inherit their vertices from the parent polytope.  Corner chops are
shared: a bounded module-level LRU returns the same chopped polytope, with
its cached triangulation, for every chop of an equal parent (same name) at
the same vertex and depth, so the expansion ladders at one vertex build
each chopped polytope once.

Triangulation is by pulling (De Loera-Rambau-Santos, *Triangulations*,
2010, Section 4.3) on the polytope's own vertex-facet incidences: a face is
a set of vertex indices with chart coordinates, its facets are its
intersections with the facets of the polytope, and no polytope is built for
a face, a facet chart included.  The apex of every face is its smallest
vertex in lexicographic order of that face's chart coordinates, and its
facets are visited in the sorted order of their primitive chart
``(normal, offset)``.

All objects are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import _linalg as la


class PolytopeError(ValueError):
    pass


class NonSimpleVertexError(PolytopeError):
    """More than ``dim`` facets meet at a point."""

    def __init__(self, point, facet_indices):
        self.point = point
        self.facet_indices = tuple(facet_indices)
        super().__init__(
            f"non-simple vertex at {tuple(map(str, point))}: "
            f"facets {self.facet_indices} meet there"
        )


class ChopDepthError(PolytopeError):
    """Requested corner chop would cut beyond the admissible depth."""

    def __init__(self, requested, admissible):
        self.requested = requested
        self.admissible = admissible
        super().__init__(
            f"chop depth {requested} exceeds admissible bound {admissible}"
        )


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class Facet:
    """One inequality ``<normal, x> + offset >= 0`` with primitive normal."""

    normal: tuple
    offset: Fraction

    @staticmethod
    def make(normal, offset):
        normal = tuple(_as_fraction(x) for x in normal)
        offset = _as_fraction(offset)
        scale = 1
        for x in normal:
            scale = scale * x.denominator // la.gcd(scale, x.denominator)
        ints = tuple(int(x * scale) for x in normal)
        prim, factor = la.primitivize(ints)
        return Facet(prim, offset * scale / factor)

    def value(self, point):
        return la.dot(self.normal, point) + self.offset

    @cached_property
    def _hash(self):
        return hash((self.normal, self.offset))

    def __hash__(self):
        # Set, dict and cache keys hash a facet many times; each hash of
        # its Fractions is a Python-level call.
        return self._hash


def _read_only(arr):
    """``arr``, flagged read-only: cached float arrays are shared by every
    caller."""
    arr.flags.writeable = False
    return arr


def _is_normal(f):
    """Whether ``f`` is already in the form :meth:`Facet.make` gives."""
    return (type(f.offset) is Fraction and type(f.normal) is tuple
            and all(type(c) is int for c in f.normal)
            and la.vec_gcd(f.normal) == 1)


@dataclass(frozen=True)
class VertexData:
    """A simple unimodular vertex: coordinates, inward primitive edge
    generators spanning the tangent cone, and the indices of the facets
    meeting there."""

    coords: tuple
    inward_edges: tuple
    adjacent_facets: tuple


@dataclass(frozen=True)
class FacetChart:
    """Unimodular affine parametrisation of a facet.

    ``x = origin + sum_i y_i basis[i]`` maps chart coordinates ``y`` onto the
    facet's hyperplane, and Lebesgue measure in ``y`` pushes forward to the
    lattice boundary measure on the facet (primitive normal together with
    the basis spans the integer lattice with determinant +-1).  ``coords``
    holds the chart coordinates of the polytope's vertices on the facet, by
    vertex index.  For 1-dimensional polytopes the chart is a single point
    of measure one.
    """

    facet_index: int
    origin: tuple
    basis: tuple
    coords: dict = field(repr=False, compare=False)

    def map_exact(self, y):
        return tuple(
            self.origin[k] + sum(Fraction(y[i]) * self.basis[i][k]
                                 for i in range(len(self.basis)))
            for k in range(len(self.origin))
        )

    @cached_property
    def _float_frame(self):
        return (np.array([float(c) for c in self.origin]),
                np.array(self.basis, dtype=float))

    def map_floats(self, pts):
        """Map an (N, n-1) float array of chart coordinates into ambient space."""
        origin, B = self._float_frame
        if len(self.basis) == 0:
            return np.broadcast_to(origin, (len(pts), len(origin))).copy()
        return origin + np.asarray(pts, dtype=float) @ B


class DelzantPolytope:
    """Moment polytope in facet representation.

    The facet list is the source of truth; everything else (vertices, edge
    generators, charts, triangulations) is derived lazily and cached.
    Construction never validates the Delzant conditions -- use
    :meth:`validate_delzant` for diagnostics -- so the same class also serves
    for the auxiliary regions produced by halfspace intersections.
    """

    def __init__(self, dim, facets, name=None):
        if dim < 1:
            raise PolytopeError("dimension must be >= 1")
        self.dim = int(dim)
        normalized = []
        for f in facets:
            if not isinstance(f, Facet):
                f = Facet.make(*f)
            elif not _is_normal(f):
                f = Facet.make(f.normal, f.offset)
            if len(f.normal) != self.dim:
                raise PolytopeError("facet normal has wrong length")
            normalized.append(f)
        self.facets = tuple(sorted(set(normalized),
                                   key=lambda f: (f.normal, f.offset)))
        self._hash = hash((self.dim, self.facets))
        self.name = name
        self._cache = {}

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, DelzantPolytope)
                and self.dim == other.dim and self.facets == other.facets)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return (f"<DelzantPolytope{label} dim={self.dim} "
                f"facets={len(self.facets)} vertices={len(self.vertices)}>")

    # -- core enumeration --------------------------------------------------

    def _enumerate(self):
        """Vertices and facet incidence, tolerating non-simple corners; tries
        every n-subset of facets unless inherited (:func:`_clip`)."""
        if "enum" in self._cache:
            return self._cache["enum"]
        n = self.dim
        points = {}
        for comb in combinations(range(len(self.facets)), n):
            m = [self.facets[i].normal for i in comb]
            if la.det(m) == 0:
                continue
            x = la.solve(m, [-self.facets[i].offset for i in comb])
            if all(f.value(x) >= 0 for f in self.facets):
                points[x] = True
        vertices = sorted(points)
        active = [tuple(i for i, f in enumerate(self.facets) if f.value(v) == 0)
                  for v in vertices]
        self._cache["enum"] = (tuple(vertices), tuple(active))
        return self._cache["enum"]

    @property
    def vertices(self):
        """Sorted vertex coordinates as tuples of Fractions."""
        return self._enumerate()[0]

    @property
    def vertex_facets(self):
        """For each vertex, the indices of all facets through it."""
        return self._enumerate()[1]

    def vertex_data(self):
        """Full vertex data; requires every vertex simple and unimodular."""
        if "vertex_data" in self._cache:
            return self._cache["vertex_data"]
        out = []
        for v, act in zip(self.vertices, self.vertex_facets):
            if len(act) != self.dim:
                raise NonSimpleVertexError(v, act)
            m = [self.facets[i].normal for i in act]
            inv = la.invert_integer_matrix(m)  # raises if not unimodular
            edges = tuple(tuple(inv[r][c] for r in range(self.dim))
                          for c in range(self.dim))
            out.append(VertexData(v, edges, act))
        self._cache["vertex_data"] = tuple(out)
        return self._cache["vertex_data"]

    def vertex_data_at(self, vertex):
        """Vertex data of one vertex, given by its index in :attr:`vertices`
        or as :class:`VertexData` (returned as is)."""
        if isinstance(vertex, VertexData):
            return vertex
        count = len(self.vertices)
        if not 0 <= vertex < count:
            raise PolytopeError(f"vertex index {vertex} is out of range: "
                                f"valid indices are 0..{count - 1}")
        return self.vertex_data()[vertex]

    def genuine_facet_indices(self):
        """Indices of facets supporting an (n-1)-dimensional face
        (:func:`_is_facet`)."""
        if "genuine" not in self._cache:
            self._cache["genuine"] = tuple(
                i for i in range(len(self.facets))
                if _is_facet(self, [k for k, act in enumerate(self.vertex_facets)
                                    if i in act], self.vertices, self.dim))
        return self._cache["genuine"]

    def is_empty(self):
        return len(self.vertices) == 0

    def is_full_dimensional(self):
        if "full" not in self._cache:
            self._cache["full"] = la.affine_rank(list(self.vertices)) == self.dim
        return self._cache["full"]

    def is_bounded(self):
        """Exact recession-cone test: bounded iff no feasible ray exists."""
        if "bounded" not in self._cache:
            normals = [f.normal for f in self.facets]
            rays = (la.kernel_direction([normals[i] for i in comb], self.dim)
                    for comb in combinations(range(len(normals)), self.dim - 1))
            self._cache["bounded"] = not any(
                all(la.dot(nf, cand) >= 0 for nf in normals)
                for ray in rays if ray is not None
                for cand in (ray, tuple(-x for x in ray)))
        return self._cache["bounded"]

    # -- validation ---------------------------------------------------------

    def validate_delzant(self):
        """Diagnostics list; empty iff this is a valid Delzant polytope."""
        diags = []
        if self.is_empty():
            return ["polytope is empty (no vertex satisfies all inequalities)"]
        if not self.is_bounded():
            diags.append("polytope is unbounded (recession ray exists)")
        if not self.is_full_dimensional():
            diags.append("polytope is not full-dimensional")
        for v, act in zip(self.vertices, self.vertex_facets):
            if len(act) != self.dim:
                diags.append(
                    f"non-simple vertex {tuple(map(str, v))}: facets {act} meet"
                )
                continue
            d = la.det([self.facets[i].normal for i in act])
            if abs(d) != 1:
                diags.append(
                    f"vertex {tuple(map(str, v))} is not unimodular: "
                    f"normal determinant {d}"
                )
        genuine = set(self.genuine_facet_indices())
        for i, f in enumerate(self.facets):
            if i not in genuine:
                diags.append(
                    f"facet {i} (normal {f.normal}, offset {f.offset}) is redundant"
                )
        return diags

    # -- geometry ------------------------------------------------------------

    def contains(self, point):
        return all(f.value([_as_fraction(c) for c in point]) >= 0
                   for f in self.facets)

    def interval(self, xi):
        """Exact range of <xi, x> over the polytope (min, max over vertices)."""
        xi = [_as_fraction(c) for c in xi]
        vals = [la.dot(xi, v) for v in self.vertices]
        return min(vals), max(vals)

    def facet_chart(self, facet_index):
        if isinstance(facet_index, Facet):
            facet_index = self.facets.index(facet_index)
        key = ("chart", facet_index)
        if key not in self._cache:
            f = self.facets[facet_index]
            z, basis, proj = _frame(f.normal)
            origin = tuple(-f.offset * zi for zi in z)
            # Only a parallel facet is constant on the facet's hyperplane.
            back = tuple(-c for c in f.normal)
            if self.dim > 1 and any(g.normal == f.normal and g.offset < f.offset
                                    or g.normal == back and g.offset < -f.offset
                                    for g in self.facets):
                raise PolytopeError(f"facet {facet_index} is infeasible")
            coords = {k: _chart_coords(v, origin, proj)
                      for k, (v, act) in enumerate(zip(self.vertices, self.vertex_facets))
                      if facet_index in act}
            self._cache[key] = FacetChart(facet_index, origin, basis, coords)
        return self._cache[key]

    def facet_triangulation(self, i):
        """Triangulation of facet ``i`` (dimension >= 2) as tuples of n
        vertex indices; empty if the facet is not genuine.  The same
        simplices, in the same order, as triangulating the facet as a
        polytope in its chart coordinates."""
        key = ("facet_tri", i)
        if key not in self._cache:
            chart = self.facet_chart(i)
            self._cache[key] = (_pull(self, chart.coords, chart.origin, chart.basis)
                                if i in self.genuine_facet_indices() else ())
        return self._cache[key]

    def facet_triangulation_floats(self, i):
        """Triangulation of facet ``i`` as a float array of shape (k, n, n-1)
        in its chart coordinates, for integrals with the lattice measure."""
        key = ("facet_tri_float", i)
        if key not in self._cache:
            coords = self.facet_chart(i).coords
            self._cache[key] = _read_only(np.array(
                [[[float(c) for c in coords[k]] for k in s]
                 for s in self.facet_triangulation(i)], dtype=float))
        return self._cache[key]

    def triangulate(self):
        """Partition into simplices (tuples of n+1 rational vertex tuples).

        Pulling triangulation: cone the lexicographically smallest vertex
        over the triangulations of the genuine facets it does not lie on,
        in facet order (:meth:`facet_triangulation`, which recurses the same
        way through the faces, choosing apexes in chart coordinates).  The
        simplices cover the polytope up to measure zero.
        """
        if "triangulation" not in self._cache:
            if self.is_empty() or not self.is_full_dimensional():
                sims = ()
            elif self.dim == 1:
                sims = ((self.vertices[0], self.vertices[-1]),)
            else:
                apex_facets = self.vertex_facets[0]
                sims = tuple((self.vertices[0],) + tuple(self.vertices[k] for k in s)
                             for i in self.genuine_facet_indices()
                             if i not in apex_facets
                             for s in self.facet_triangulation(i))
            self._cache["triangulation"] = sims
        return self._cache["triangulation"]

    def triangulation_floats(self):
        """Triangulation as a float array of shape (k, n+1, n)."""
        if "tri_float" not in self._cache:
            tri = self.triangulate()
            self._cache["tri_float"] = _read_only(np.array(
                [[[float(c) for c in v] for v in s] for s in tri], dtype=float))
        return self._cache["tri_float"]

    def volume(self):
        """Exact Euclidean volume as a Fraction."""
        if "volume" not in self._cache:
            total = Fraction(0)
            nfact = 1
            for k in range(2, self.dim + 1):
                nfact *= k
            for s in self.triangulate():
                rows = [[s[i + 1][k] - s[0][k] for k in range(self.dim)]
                        for i in range(self.dim)]
                total += abs(la.det(rows)) / nfact
            self._cache["volume"] = total
        return self._cache["volume"]

    def vertices_floats(self):
        if "vert_float" not in self._cache:
            self._cache["vert_float"] = _read_only(np.array(
                [[float(c) for c in v] for v in self.vertices], dtype=float))
        return self._cache["vert_float"]

    # -- transformations -----------------------------------------------------

    def translate(self, eta):
        """Translate by a rational vector: x -> x + eta."""
        eta = [_as_fraction(c) for c in eta]
        facets = [(f.normal, f.offset - la.dot(f.normal, eta))
                  for f in self.facets]
        return DelzantPolytope(self.dim, facets, name=self.name)

    def midpoint_normalize(self, xi):
        """Translate so the interval <P, xi> is symmetric about zero.

        Returns ``(translated_polytope, shift)`` where ``shift`` is the scalar
        added to ``<xi, x>`` for every point (the midpoint, negated).  The
        translation direction is ``xi`` itself, so the result is exact for
        rational ``xi`` (floats are taken at face value as exact rationals).
        """
        xi = [_as_fraction(c) for c in xi]
        lo, hi = self.interval(xi)
        shift = -(lo + hi) / 2
        if shift == 0:
            return self, Fraction(0)
        norm2 = la.dot(xi, xi)
        eta = [shift * c / norm2 for c in xi]
        return self.translate(eta), shift

    def unimodular_image(self, u, tau=None):
        """Image under x -> U x + tau for unimodular integer U."""
        uinv = la.invert_integer_matrix(u)
        if tau is None:
            tau = [0] * self.dim
        tau = [_as_fraction(c) for c in tau]
        facets = []
        for f in self.facets:
            normal = tuple(la.dot(f.normal, [uinv[r][c] for r in range(self.dim)])
                           for c in range(self.dim))
            facets.append((normal, f.offset - la.dot(normal, tau)))
        return DelzantPolytope(self.dim, facets, name=self.name)

    # -- corner chop -----------------------------------------------------------

    def _chop_data(self, vertex):
        v = self.vertex_data_at(vertex)
        m = tuple(sum(self.facets[i].normal[k] for i in v.adjacent_facets)
                  for k in range(self.dim))
        prim, factor = la.primitivize(m)
        if factor != 1:
            raise PolytopeError("chop normal is not primitive; vertex not unimodular")
        return v, m

    def admissible_chop(self, vertex):
        """Largest safe chop depth: half the smallest lattice-affine distance
        from the chop hyperplane at the vertex to any other vertex."""
        v, m = self._chop_data(vertex)
        dists = [la.dot(m, q) - la.dot(m, v.coords)
                 for q in self.vertices if q != v.coords]
        return min(dists) / 2

    def corner_chop(self, vertex, eps):
        """Truncate the corner at ``vertex`` to lattice depth ``eps``.

        In vertex-adapted coordinates (vertex at the origin, inward edges the
        standard basis) the new facet is ``{y_1 + ... + y_n = eps}``.  The
        result is again Delzant and loses exactly the corner simplex of
        volume eps^n / n!.
        """
        if self.dim < 2:
            raise PolytopeError("corner chop needs dimension >= 2")
        eps = _as_fraction(eps)
        if eps <= 0:
            raise PolytopeError("chop depth must be positive")
        return _chop(self, self.name, self.vertex_data_at(vertex).coords, eps)

    # -- serialisation ----------------------------------------------------------

    def to_json(self):
        doc = {
            "dim": self.dim,
            "facets": [{"normal": list(f.normal), "offset": str(f.offset)}
                       for f in self.facets],
        }
        if self.name:
            doc["name"] = self.name
        return doc

    @staticmethod
    def from_json(doc):
        if isinstance(doc, str):
            doc = json.loads(doc)
        facets = [(f["normal"], Fraction(str(f["offset"])))
                  for f in doc["facets"]]
        return DelzantPolytope(doc["dim"], facets, name=doc.get("name"))


# An expansion ladder chops one vertex at 8 depths, and every ladder at that
# vertex re-reads those chops.  Replaying the chop keys of whole benchmark
# runs (216-240 distinct chops each) through an LRU, 256 is the smallest
# power of two that rebuilds no chop.
@lru_cache(maxsize=256)
def _chop(parent, name, coords, eps):
    """The corner chop of ``parent`` at the vertex ``coords`` to depth
    ``eps``.  Polytope equality ignores names, so the parent's name, from
    which the chop's is built, is part of the key.  ``lru_cache`` stores no
    exception: a depth past the admissible bound raises on every call."""
    v, m = parent._chop_data(parent.vertices.index(coords))
    bound = parent.admissible_chop(v)
    if eps >= bound:
        raise ChopDepthError(eps, bound)
    new = (m, -la.dot(m, v.coords) - eps)
    return _clip(parent, [new], name=f"{name}-chopped" if name else None)


def _clip(parent, rows, name=None):
    """``parent`` cut by the halfspaces ``rows``; None if empty or not
    full-dimensional.  A bounded full-dimensional parent passes its vertices
    through one double-description update per new facet h (Fukuda-Prodon,
    1996): keep those with h >= 0, add the h = 0 point of each edge from
    h > 0 to h < 0.  Two vertices span an edge iff they share n-1 facets
    and one of them is simple (its n facets have independent normals, so
    any n-1 of them cut out an edge from it); between two non-simple
    vertices, iff the shared facets have rank n-1 and no third vertex is on
    all of them.  The parent's facets are passed on already normalised."""
    out = DelzantPolytope(parent.dim, parent.facets + tuple(rows), name=name)
    if not (parent.is_full_dimensional() and parent.is_bounded()):
        return None if out.is_empty() or not out.is_full_dimensional() else out
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
    out._cache.update(enum=(tuple(v for v, _ in verts),
                            tuple(tuple(sorted(act)) for _, act in verts)),
                      full=True, bounded=True)
    return out


# Frames depend on the primitive normal alone, and faces at every level
# share few normals: a whole pl_sweep benchmark run (50 cycles of random PL
# cells) meets 415, eight blowup_ladder cycles 56, so 1024 evicts none.
@lru_cache(maxsize=1024)
def _frame(normal):
    """``(z, basis, proj)`` for a primitive normal: ``<normal, z> = 1``,
    ``basis`` spans the lattice orthogonal to it, and the rows of ``proj``
    take ``x`` to its ``y`` in ``x = s z + y . basis`` (the last n-1 columns
    of the integer inverse of the matrix with rows ``z, *basis``)."""
    z, basis = la.unimodular_complement(normal)
    inv = la.invert_integer_matrix((z,) + basis)
    return z, basis, tuple(zip(*inv))[1:]


def _chart_coords(point, origin, proj):
    """The ``y`` of ``point = origin + s z + y . basis`` (see :func:`_frame`)."""
    return tuple(sum(c * (p - o) for c, p, o in zip(row, point, origin) if c)
                 for row in proj)


def _is_facet(P, T, coords, d):
    """Whether the vertices ``T`` (indices into P's vertices, at ``coords``)
    of a d-face of ``P`` span a facet of that face.  In a bounded polytope
    they do when one of them is simple in P: the facets through a simple
    vertex cut out a boolean lattice of faces.  Otherwise their affine rank
    decides."""
    if P.is_bounded() and any(len(P.vertex_facets[k]) == P.dim for k in T):
        return True
    return len(T) >= d and la.affine_rank([coords[k] for k in T]) == d - 1


def _pull(P, coords, origin, basis):
    """Pulling triangulation of a face of ``P`` of dimension >= 1, as tuples
    of vertex indices of ``P``.

    ``coords`` maps the face's vertex indices to their chart coordinates,
    and ``x = origin + y . basis`` maps the chart into P's coordinates.  The
    facets of the face are its intersections T with the facets of P that
    meet it without containing it that :func:`_is_facet` accepts.  The apex
    is the smallest vertex in chart coordinates, and the facets not through
    it come in the sorted order of their primitive chart (normal, offset):
    the choices triangulating the face's chart polytope would make.
    """
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
                and _is_facet(P, T, coords, d)):
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
        sub = {k: _chart_coords(coords[k], o, proj) for k in T}
        sims.extend((order[0],) + s for s in _pull(P, sub, sub_origin, sub_basis))
    return tuple(sims)

"""Delzant polytopes as facet-inequality data with exact rational arithmetic.

A polytope is stored as ``P = {x : <n_F, x> + c_F >= 0 for all facets F}``
with primitive integer inward normals ``n_F`` and rational offsets ``c_F``.
Vertices, charts, triangulations and validity diagnostics are all derived
from the facet data; combinatorial questions (simplicity, unimodularity,
redundancy) are decided exactly over the rationals.  Floats appear only in
the cached arrays handed to the numerical integration layer.

Only raw facet data (catalog, JSON, user input, ``translate``,
``unimodular_image``) runs the C(m, n) vertex enumeration; corner chops, PL
cells and facet charts inherit their vertices from the parent polytope.

All objects are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
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

    ``x = origin + sum_i y_i basis[i]`` maps the (n-1)-dimensional chart
    polytope onto the facet, and Lebesgue measure in ``y`` pushes forward to
    the lattice boundary measure on the facet (primitive normal together
    with the basis spans the integer lattice with determinant +-1).
    For 1-dimensional polytopes the chart is a single point of measure one.
    """

    facet_index: int
    origin: tuple
    basis: tuple
    polytope: "DelzantPolytope"

    def map_exact(self, y):
        return tuple(
            self.origin[k] + sum(Fraction(y[i]) * self.basis[i][k]
                                 for i in range(len(self.basis)))
            for k in range(len(self.origin))
        )

    def map_floats(self, pts):
        """Map an (N, n-1) float array of chart coordinates into ambient space."""
        origin = np.array([float(c) for c in self.origin])
        if len(self.basis) == 0:
            return np.broadcast_to(origin, (len(pts), len(origin))).copy()
        B = np.array(self.basis, dtype=float)
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
            if isinstance(f, Facet):
                f = Facet.make(f.normal, f.offset)
            else:
                f = Facet.make(*f)
            if len(f.normal) != self.dim:
                raise PolytopeError("facet normal has wrong length")
            normalized.append(f)
        self.facets = tuple(sorted(set(normalized),
                                   key=lambda f: (f.normal, f.offset)))
        self.name = name
        self._cache = {}

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, DelzantPolytope)
                and self.dim == other.dim and self.facets == other.facets)

    def __hash__(self):
        return hash((self.dim, self.facets))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return (f"<DelzantPolytope{label} dim={self.dim} "
                f"facets={len(self.facets)} vertices={len(self.vertices)}>")

    # -- core enumeration --------------------------------------------------

    def _enumerate(self):
        """Vertices and facet incidence, tolerating non-simple corners; tries
        every n-subset of facets unless inherited (:func:`_clip`, charts)."""
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

    def genuine_facet_indices(self):
        """Indices of facets supporting an (n-1)-dimensional face."""
        if "genuine" in self._cache:
            return self._cache["genuine"]
        out = []
        for i in range(len(self.facets)):
            on_facet = [v for v, act in zip(self.vertices, self.vertex_facets)
                        if i in act]
            if len(on_facet) >= self.dim and la.affine_rank(on_facet) == self.dim - 1:
                out.append(i)
        self._cache["genuine"] = tuple(out)
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
        if key in self._cache:
            return self._cache[key]
        f = self.facets[facet_index]
        z, basis = la.unimodular_complement(f.normal)
        origin = tuple(-f.offset * zi for zi in z)
        if self.dim == 1:
            chart = FacetChart(facet_index, origin, (), None)
        else:
            rows = {}
            for j, g in enumerate(self.facets):
                if j == facet_index:
                    continue
                ny = tuple(la.dot(g.normal, b) for b in basis)
                off = g.offset + la.dot(g.normal, origin)
                if all(c == 0 for c in ny):
                    if off < 0:
                        raise PolytopeError(f"facet {facet_index} is infeasible")
                    continue
                rows[j] = Facet.make(ny, off)
            sub = DelzantPolytope(self.dim - 1, rows.values())
            # Chart vertices: ours on the facet, solving x - origin = s z + y.basis.
            slot = {j: sub.facets.index(g) for j, g in rows.items()}
            inv = la.invert_integer_matrix((z,) + basis)
            enum = sorted(
                (tuple(sum(inv[k][r] * (v[k] - origin[k]) for k in range(self.dim))
                       for r in range(1, self.dim)),
                 tuple(sorted({slot[j] for j in act if j in slot})))
                for v, act in zip(self.vertices, self.vertex_facets)
                if facet_index in act)
            sub._cache["enum"] = (tuple(v for v, _ in enum),
                                  tuple(a for _, a in enum))
            chart = FacetChart(facet_index, origin, basis, sub)
        self._cache[key] = chart
        return chart

    def triangulate(self):
        """Partition into simplices (tuples of n+1 rational vertex tuples).

        Recursive pyramid construction: cone the lexicographically smallest
        vertex over triangulations of the facets it does not lie on.  The
        simplices cover the polytope up to measure zero.
        """
        if "triangulation" in self._cache:
            return self._cache["triangulation"]
        if self.is_empty() or not self.is_full_dimensional():
            self._cache["triangulation"] = ()
            return ()
        if self.dim == 1:
            sims = ((self.vertices[0], self.vertices[-1]),)
            self._cache["triangulation"] = sims
            return sims
        apex = self.vertices[0]
        apex_facets = set(self.vertex_facets[0])
        sims = []
        for i in self.genuine_facet_indices():
            if i in apex_facets:
                continue
            chart = self.facet_chart(i)
            for sub in chart.polytope.triangulate():
                sims.append((apex,) + tuple(chart.map_exact(y) for y in sub))
        self._cache["triangulation"] = tuple(sims)
        return self._cache["triangulation"]

    def triangulation_floats(self):
        """Triangulation as a float array of shape (k, n+1, n)."""
        if "tri_float" not in self._cache:
            tri = self.triangulate()
            arr = np.array([[[float(c) for c in v] for v in s] for s in tri],
                           dtype=float)
            self._cache["tri_float"] = arr
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
            self._cache["vert_float"] = np.array(
                [[float(c) for c in v] for v in self.vertices], dtype=float)
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
        if isinstance(vertex, VertexData):
            v = vertex
        else:
            v = self.vertex_data()[vertex]
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
        v, m = self._chop_data(vertex)
        bound = self.admissible_chop(vertex)
        if eps >= bound:
            raise ChopDepthError(eps, bound)
        new = (m, -la.dot(m, v.coords) - eps)
        name = f"{self.name}-chopped" if self.name else None
        return _clip(self, [new], name=name)

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


def _clip(parent, rows, name=None):
    """``parent`` cut by the halfspaces ``rows``; None if empty or not
    full-dimensional.  A bounded full-dimensional parent passes its vertices
    through one double-description update per new facet h (Fukuda-Prodon,
    1996): keep those with h >= 0, add the h = 0 point of each edge from
    h > 0 to h < 0.  Two vertices span an edge iff the facets through both
    have rank n-1 and no third vertex is on all of them."""
    out = DelzantPolytope(parent.dim, list(parent.facets) + list(rows), name=name)
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
                if (len(common) < n - 1
                        or any(common <= az for c, (_, az) in enumerate(verts)
                               if c != a and c != b)
                        or la.rank([out.facets[i].normal for i in common], n) != n - 1):
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

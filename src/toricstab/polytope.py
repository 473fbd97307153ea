"""Delzant polytopes as facet-inequality data with exact integer arithmetic.

A polytope is stored as ``P = {x : <n_F, x> + c_F >= 0 for all facets F}``
with primitive integer inward normals ``n_F`` and rational offsets ``c_F``;
everything else is derived from the facets and decided exactly, in Python
ints.  The vertices are integer tuples over one common denominator D > 0 (a
Delzant polytope's lie in (1/D)Z^n, a PL cell's cut points need not), and so
are chart coordinates, chart bases being unimodular.  A positive scale keeps
lexicographic order, so each choice made on the ints is the rationals' one.
``Fraction``s are built on first use at the public edges (``vertices``,
``vertex_data``, ``facet_chart``, ``triangulate``, ``volume``); the floats
handed to the integrators are the correctly rounded ``n / D``.

Only raw facet data (catalog, JSON, user input, ``translate``,
``unimodular_image``) runs the C(m, n) vertex enumeration; corner chops,
corner simplices and PL cells inherit their vertices from the parent
polytope.  All objects are immutable after construction and safe to share.

Triangulation is by pulling (De Loera-Rambau-Santos, *Triangulations*,
2010, Section 4.3) on the polytope's own vertex-facet incidences; no
polytope is built for a face.  The apex of every face is its smallest
vertex in lexicographic order of that face's chart coordinates, and its
facets are visited in the sorted order of their primitive chart
``(normal, offset)``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from itertools import combinations
from math import factorial, gcd, lcm

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
    if isinstance(x, (int, np.integer, str, float)):
        return Fraction(int(x) if isinstance(x, np.integer) else x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class Facet:
    """One inequality ``<normal, x> + offset >= 0`` with primitive normal."""

    normal: tuple
    offset: Fraction

    @staticmethod
    def make(normal, offset):
        normal = [x if type(x) is int else _as_fraction(x) for x in normal]
        scale = lcm(*(x.denominator for x in normal))
        prim, factor = la.primitivize([x.numerator * (scale // x.denominator)
                                       for x in normal])
        return Facet(prim, _as_fraction(offset) * scale / factor)

    def value(self, point):
        return la.dot(self.normal, point) + self.offset

    def scaled_value(self, x, d):
        """The value at ``x / d`` (d > 0) times d and the offset's denominator."""
        return (self.offset.denominator * la.dot(self.normal, x)
                + self.offset.numerator * d)

    @cached_property
    def _hash(self):
        return hash((self.normal, self.offset))

    def __hash__(self):
        # Set, dict and cache keys hash a facet many times; each hash of
        # its Fractions is a Python-level call.
        return self._hash


class _HashedTuple(tuple):
    """A tuple that hashes its items once: each facet or profile hash is a
    Python-level call."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


def _read_only(arr):
    """``arr``, flagged read-only: cached arrays are shared by every caller."""
    arr.flags.writeable = False
    return arr


def _vector(x, n, name="beta"):
    """``x`` as a new float vector, refused unless its shape is (n,): a
    vector is keyed by its bytes, which do not hold its shape."""
    vec = np.array(x, dtype=float)
    if vec.shape != (n,):
        raise ValueError(f"{name} has shape {vec.shape}, expected ({n},)")
    return vec


def _memo(method):
    """Cache ``method`` per polytope in ``_cache``, by name and arguments."""
    name = method.__name__

    @wraps(method)
    def cached(self, *args):
        key = (name, *args) if args else name
        if key not in self._cache:
            self._cache[key] = method(self, *args)
        return self._cache[key]
    return cached


def _normalized(f, dim):
    """A facet or ``(normal, offset)`` pair in the form :meth:`Facet.make`
    gives, checked to lie in dimension ``dim``."""
    if not isinstance(f, Facet):
        f = Facet.make(*f)
    elif not (type(f.offset) is Fraction and type(f.normal) is tuple
              and all(type(c) is int for c in f.normal) and gcd(*f.normal) == 1):
        f = Facet.make(f.normal, f.offset)
    if len(f.normal) != dim:
        raise PolytopeError("facet normal has wrong length")
    return f


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
    of measure one.  ``origin`` and ``coords`` are built on first use from
    ``facet``, the hyperplane, and ``_exact``: z and the integer coordinates
    over their scale.  Two charts are equal if they map alike: the charts
    of one hyperplane, whatever the facet's index in its polytope.
    """

    facet_index: int = field(compare=False)
    basis: tuple
    facet: Facet
    _exact: tuple = field(repr=False, compare=False)

    @cached_property
    def origin(self):
        return tuple(-self.facet.offset * zi for zi in self._exact[0])

    @cached_property
    def coords(self):
        _, scale, ints = self._exact
        return {k: tuple(Fraction(y, scale) for y in ys) for k, ys in ints.items()}

    def map_exact(self, y):
        return tuple(
            self.origin[k] + sum(Fraction(y[i]) * self.basis[i][k]
                                 for i in range(len(self.basis)))
            for k in range(len(self.origin))
        )

    @cached_property
    def _float_frame(self):
        p, q, z = self.facet.offset.numerator, self.facet.offset.denominator, self._exact[0]
        return (np.array([-p * zi / q for zi in z]),
                np.array(self.basis, dtype=float).reshape(len(self.basis), len(z)))

    @cached_property
    def _hash(self):
        return hash((self.basis, self.facet))

    def __hash__(self):  # as Facet's: integrand and cache keys hash charts
        return self._hash

    def map_floats(self, pts):
        """Map an (N, n-1) float array of chart coordinates into ambient space."""
        origin, B = self._float_frame
        return origin + np.asarray(pts, dtype=float) @ B


class DelzantPolytope:
    """Moment polytope in facet representation.

    The facet list is the source of truth; everything else (vertices, edge
    generators, charts, triangulations) is derived lazily and cached.
    Construction never validates the Delzant conditions -- use
    :meth:`validate_delzant` for diagnostics -- so the same class also serves
    for the auxiliary regions produced by halfspace intersections.
    ``key`` is ``(dim, facets)``, hashed once, for caches that must not keep
    the polytope alive.
    """

    def __init__(self, dim, facets, name=None):
        if dim < 1:
            raise PolytopeError("dimension must be >= 1")
        self.dim = int(dim)
        normalized = [_normalized(f, self.dim) for f in facets]
        self.facets = tuple(sorted(set(normalized),
                                   key=lambda f: (f.normal, f.offset)))
        self.key = _HashedTuple((self.dim, self.facets))
        self._hash = self.key._hash
        self.name = name
        self._cache = {}

    def __eq__(self, other):
        return (isinstance(other, DelzantPolytope)
                and self.dim == other.dim and self.facets == other.facets)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return (f"<DelzantPolytope{label} dim={self.dim} "
                f"facets={len(self.facets)} vertices={len(self._enumerate()[1])}>")

    def _enumerate(self):
        """``(D, X, active)``: the sorted vertices ``X[k] / D`` (D = 1 if none
        is cached) and the indices ``active[k]`` of all facets through each,
        tolerating non-simple corners; enumerated unless inherited (_clip)."""
        if "enum" not in self._cache:
            points = set()
            for comb in combinations(self.facets, self.dim):
                x = la.solve([f.normal for f in comb], [-f.offset for f in comb])
                if x is not None and all(f.scaled_value(*x) >= 0 for f in self.facets):
                    points.add(x)
            scale = lcm(*(d for _, d in points))
            X = sorted(tuple(c * (scale // d) for c in x) for x, d in points)
            active = tuple(tuple(i for i, f in enumerate(self.facets)
                                 if f.scaled_value(x, scale) == 0) for x in X)
            self._cache.update(enum=(tuple(X), active), scale=scale)
        X, active = self._cache["enum"]
        return self._cache.get("scale", 1), X, active

    @property
    @_memo
    def vertices(self):
        """Sorted vertex coordinates as tuples of Fractions."""
        scale, X, _ = self._enumerate()
        return tuple(tuple(Fraction(c, scale) for c in x) for x in X)

    @property
    def vertex_facets(self):
        """For each vertex, the indices of all facets through it."""
        return self._enumerate()[2]

    @_memo
    def vertex_data(self):
        """Full vertex data; requires every vertex simple and unimodular."""
        out = []
        for v, act in zip(self.vertices, self.vertex_facets):
            if len(act) != self.dim:
                raise NonSimpleVertexError(v, act)
            m = [self.facets[i].normal for i in act]
            edges = tuple(zip(*la.invert_integer_matrix(m)))  # raises if not unimodular
            out.append(VertexData(v, edges, act))
        return tuple(out)

    def vertex_data_at(self, vertex):
        """Vertex data of one vertex, given by its index in :attr:`vertices`
        or as :class:`VertexData` (returned as is)."""
        if isinstance(vertex, VertexData):
            return vertex
        count = len(self._enumerate()[1])
        if not 0 <= vertex < count:
            raise PolytopeError(f"vertex index {vertex} is out of range: "
                                f"valid indices are 0..{count - 1}")
        return self.vertex_data()[vertex]

    @_memo
    def genuine_facet_indices(self):
        """Indices of facets supporting an (n-1)-dimensional face
        (:func:`_is_facet`)."""
        _, X, active = self._enumerate()
        return tuple(i for i in range(len(self.facets)) if _is_facet(
            self, [k for k, act in enumerate(active) if i in act], X, self.dim))

    def is_empty(self):
        return len(self._enumerate()[1]) == 0

    @_memo
    def is_full_dimensional(self):
        return la.affine_rank(self._enumerate()[1]) == self.dim

    @_memo
    def is_bounded(self):
        """Exact recession-cone test: bounded iff no ray y has <n_F, y> >= 0
        for every F.  Normals of rank < n leave a line; else a ray lies on an
        edge, orthogonal to n-1 independent normals (their cross product)."""
        normals = [f.normal for f in self.facets]
        n = self.dim
        rays = ([(-1) ** j * la.det([r[:j] + r[j + 1:] for r in comb])
                 for j in range(n)] for comb in combinations(normals, n - 1))
        return la.rank(normals, n) == n and not any(
            all(la.dot(nf, ray) >= 0 for nf in normals)
            or all(la.dot(nf, ray) <= 0 for nf in normals) for ray in rays if any(ray))

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
                diags.append(f"non-simple vertex {tuple(map(str, v))}: "
                             f"facets {act} meet")
                continue
            d = la.det([self.facets[i].normal for i in act])
            if abs(d) != 1:
                diags.append(f"vertex {tuple(map(str, v))} is not unimodular: "
                             f"normal determinant {d}")
        genuine = set(self.genuine_facet_indices())
        return diags + [f"facet {i} (normal {f.normal}, offset {f.offset}) is redundant"
                        for i, f in enumerate(self.facets) if i not in genuine]

    def contains(self, point):
        return all(f.value([_as_fraction(c) for c in point]) >= 0
                   for f in self.facets)

    def interval(self, xi):
        """Exact range of <xi, x> over the polytope (min, max over vertices)."""
        xi = [_as_fraction(c) for c in xi]
        s = lcm(*(c.denominator for c in xi))
        xi = [c.numerator * (s // c.denominator) for c in xi]
        scale, X, _ = self._enumerate()
        vals = [la.dot(xi, x) for x in X]
        return Fraction(min(vals), s * scale), Fraction(max(vals), s * scale)

    @_memo
    def _chart(self, i):
        """``(basis, coords)`` of facet ``i``: the chart basis, and the chart
        coordinates over the vertex scale of the vertices on the facet."""
        f = self.facets[i]
        _, basis, proj = _frame(f.normal)
        _, X, active = self._enumerate()
        # The frame's origin -offset * z has chart coordinates zero.
        coords = {k: tuple(la.dot(row, X[k]) for row in proj)
                  for k, act in enumerate(active) if i in act}
        # A facet through a vertex meets the polytope.  Otherwise only a
        # parallel facet, constant on its hyperplane, can cut that off.
        back = tuple(-c for c in f.normal)
        if not coords and any(
                g.normal == f.normal and g.offset < f.offset
                or g.normal == back and g.offset < -f.offset for g in self.facets):
            raise PolytopeError(f"facet {i} is infeasible")
        return basis, coords

    @_memo
    def facet_chart(self, i):
        if isinstance(i, Facet):
            return self.facet_chart(self.facets.index(i))
        f, (basis, coords) = self.facets[i], self._chart(i)
        return FacetChart(i, basis, f, (_frame(f.normal)[0], self._enumerate()[0],
                                        coords))

    @_memo
    def facet_triangulation(self, i):
        """Triangulation of facet ``i`` as tuples of n vertex indices (in
        dimension 1 its one vertex); empty if the facet is not genuine.  The
        same simplices, in the same order, as triangulating the facet as a
        polytope in its chart coordinates."""
        basis, coords = self._chart(i)
        return _pull(self, coords, basis) if i in self.genuine_facet_indices() else ()

    @_memo
    def facet_triangulation_floats(self, i):
        """Triangulation of facet ``i`` as a float array of shape (k, n, n-1)
        in its chart coordinates, for integrals with the lattice measure; a
        point's is (1, 1, 0)."""
        scale, coords = self._enumerate()[0], self._chart(i)[1]
        return _read_only(np.array([[[y / scale for y in coords[k]] for k in s]
                                    for s in self.facet_triangulation(i)], dtype=float))

    @_memo
    def _simplices(self):
        """:meth:`triangulate` as tuples of vertex indices."""
        _, X, active = self._enumerate()
        if not X or not self.is_full_dimensional():
            return ()
        return tuple((0,) + s for i in self.genuine_facet_indices()
                     if i not in active[0] for s in self.facet_triangulation(i))

    @_memo
    def triangulate(self):
        """Partition into simplices (tuples of n+1 rational vertex tuples).

        Pulling triangulation: cone the lexicographically smallest vertex
        over the triangulations of the genuine facets it does not lie on,
        in facet order (:meth:`facet_triangulation`, which recurses the same
        way through the faces, choosing apexes in chart coordinates).  The
        simplices cover the polytope up to measure zero.
        """
        V = self.vertices
        return tuple(tuple(V[k] for k in s) for s in self._simplices())

    @_memo
    def triangulation_floats(self):
        """Triangulation as a float array of shape (k, n+1, n)."""
        sims = self._simplices()
        return _read_only(self.vertices_floats()[np.array(sims)] if sims
                          else np.array([], dtype=float))

    @_memo
    def volume(self):
        """Exact Euclidean volume as a Fraction."""
        scale, X, _ = self._enumerate()
        n = self.dim
        total = sum(abs(la.det([[X[s[i + 1]][k] - X[s[0]][k] for k in range(n)]
                                for i in range(n)])) for s in self._simplices())
        return Fraction(total, scale ** n * factorial(n))

    @_memo
    def vertices_floats(self):
        scale, X, _ = self._enumerate()
        return _read_only(np.array([[c / scale for c in x] for x in X], dtype=float))

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

    def _chop_data(self, vertex):
        """``(k, m)``: the vertex index and the primitive normal of the chop
        there, the sum of the normals of the facets through it."""
        v = self.vertex_data_at(vertex)
        m = tuple(sum(self.facets[i].normal[c] for i in v.adjacent_facets)
                  for c in range(self.dim))
        prim, factor = la.primitivize(m)
        if factor != 1:
            raise PolytopeError("chop normal is not primitive; vertex not unimodular")
        return self.vertices.index(v.coords), m

    @_memo
    def admissible_chop(self, vertex):
        """Largest safe chop depth: half the smallest lattice-affine distance
        from the chop hyperplane at the vertex to any other vertex."""
        k, m = self._chop_data(vertex)
        scale, X, _ = self._enumerate()
        at = la.dot(m, X[k])
        return Fraction(min(la.dot(m, x) - at for j, x in enumerate(X) if j != k),
                        2 * scale)

    def _corner_cut(self, vertex, eps):
        """``(k, m, at, eps)`` of the chop at ``vertex`` to depth ``eps``:
        the vertex index, the chop normal, ``<m, vertex>`` and the depth,
        checked to lie strictly between 0 and :meth:`admissible_chop`."""
        if self.dim < 2:
            raise PolytopeError("corner chop needs dimension >= 2")
        eps = _as_fraction(eps)
        if eps <= 0:
            raise PolytopeError("chop depth must be positive")
        k, m = self._chop_data(vertex)
        bound = self.admissible_chop(k)
        if eps >= bound:
            raise ChopDepthError(eps, bound)
        scale, X, _ = self._enumerate()
        return k, m, Fraction(la.dot(m, X[k]), scale), eps

    def corner_chop(self, vertex, eps):
        """Truncate the corner at ``vertex`` to lattice depth ``eps``.

        In vertex-adapted coordinates (vertex at the origin, inward edges the
        standard basis) the new facet is ``{y_1 + ... + y_n = eps}``.  The
        result is again Delzant and loses exactly the corner simplex of
        volume eps^n / n! (:meth:`corner`).  Polytope equality ignores names;
        the chop's is built from this polytope's.
        """
        _, m, at, eps = self._corner_cut(vertex, eps)
        return _clip(self, [Facet(m, -at - eps)],
                     name=f"{self.name}-chopped" if self.name else None)

    def corner(self, vertex, eps):
        """The corner simplex that :meth:`corner_chop` cuts off, with the
        same checks: the n facets through ``vertex`` and the new facet
        ``<m, x> <= <m, vertex> + eps``, in vertex-adapted coordinates
        ``{y >= 0, y_1 + ... + y_n <= eps}``.  A Delzant simplex; it
        inherits its vertices, the vertex and vertex + eps * u_i for the
        inward edges u_i, and their facets from this polytope."""
        k, m, at, eps = self._corner_cut(vertex, eps)
        scale, X, active = self._enumerate()
        new = Facet(tuple(-c for c in m), at + eps)
        out = DelzantPolytope(self.dim, [self.facets[i] for i in active[k]] + [new])
        index = {f: j for j, f in enumerate(out.facets)}
        through = [index[self.facets[i]] for i in active[k]]
        a, b = eps.numerator, eps.denominator
        p = [c * b for c in X[k]]
        # <n_j, u_i> = delta_ij, so vertex + eps * u_i leaves facet j = i only.
        verts = [(tuple(p), through)] + [
            (tuple(c + a * scale * e for c, e in zip(p, u)),
             [index[new]] + through[:i] + through[i + 1:])
            for i, u in enumerate(self.vertex_data_at(k).inward_edges)]
        g = gcd(scale * b, *(c for x, _ in verts for c in x))
        verts.sort()
        out._cache.update(
            enum=(tuple(tuple(c // g for c in x) for x, _ in verts),
                  tuple(tuple(sorted(act)) for _, act in verts)),
            scale=scale * b // g, is_full_dimensional=True, is_bounded=True)
        return out

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
        if not all(abs(c) <= sys.float_info.max for _, c in facets):
            raise ValueError("facet offsets must lie within the float range")
        return DelzantPolytope(doc["dim"], facets, name=doc.get("name"))


def _clip(parent, rows, name=None):
    """``parent`` cut by the halfspaces ``rows`` (facets or ``(normal,
    offset)`` pairs); None if empty or not full-dimensional.  Over a bounded
    full-dimensional parent each row h is first read at the parent's
    vertices, which span every point of the cut: h > 0 at none leaves
    nothing; h > 0 at all cuts nothing, so the row is dropped (one with
    min h = 0 stays); with no row left the cut is ``parent`` itself, its
    name and caches kept (``corner_chop``'s row always cuts).  The rest pass
    the parent's vertices through one double-description update per new
    facet h (Fukuda-Prodon, 1996): keep those with h >= 0, add the h = 0
    point of each edge from h > 0 to h < 0.  Two vertices span an edge iff
    they share n-1 facets and one of them is simple (its n facets have
    independent normals, so any n-1 of them cut out an edge from it);
    between two non-simple vertices, iff the shared facets have rank n-1
    and no third vertex is on all of them.  A vertex is x / d in lowest
    terms and h its :meth:`Facet.scaled_value`, so a cut point is
    (h_a x_b - h_b x_a) / (h_a d_b - h_b d_a)."""
    n, rows = parent.dim, [_normalized(f, parent.dim) for f in rows]
    if not (parent.is_full_dimensional() and parent.is_bounded()):
        out = DelzantPolytope(n, parent.facets + tuple(rows), name=name)
        return None if out.is_empty() or not out.is_full_dimensional() else out
    scale, X, active = parent._enumerate()
    cutting = []
    for f in rows:
        vals = [f.scaled_value(x, scale) for x in X]
        if max(vals) <= 0:
            return None
        if min(vals) <= 0:
            cutting.append(f)
    if not cutting:
        return parent
    out = DelzantPolytope(n, parent.facets + tuple(cutting), name=name)
    index = {f: i for i, f in enumerate(out.facets)}
    verts = [(scale, x, frozenset(index[parent.facets[i]] for i in act))
             for x, act in zip(X, active)]
    old = {index[f] for f in parent.facets}
    for j, f in enumerate(out.facets):
        if j in old:
            continue
        vals = [f.scaled_value(x, d) for d, x, _ in verts]
        if not any(h > 0 for h in vals):
            return None
        kept = [(d, x, act | {j} if h == 0 else act)
                for (d, x, act), h in zip(verts, vals) if h >= 0]
        for a, (da, u, au) in enumerate(verts):
            ha = vals[a]
            if ha <= 0:
                continue
            for b, (db, w, aw) in enumerate(verts):
                hb = vals[b]
                if hb >= 0:
                    continue
                common = au & aw
                if len(common) < n - 1:
                    continue
                if (len(au) != n and len(aw) != n
                        and (any(common <= az for c, (_, _, az) in enumerate(verts)
                                 if c != a and c != b)
                             or la.rank([out.facets[i].normal for i in common],
                                        n) != n - 1)):
                    continue
                x = [ha * y - hb * c for c, y in zip(u, w)]
                d = ha * db - hb * da
                g = gcd(d, *x)
                kept.append((d // g, tuple(c // g for c in x), common | {j}))
        verts = kept
    scale = lcm(*(d for d, _, _ in verts))
    X = [tuple(c * (scale // d) for c in x) for d, x, _ in verts]
    g = gcd(scale, *(c for x in X for c in x))
    order = sorted(range(len(X)), key=X.__getitem__)
    out._cache.update(enum=(tuple(tuple(c // g for c in X[k]) for k in order),
                            tuple(tuple(sorted(verts[k][2])) for k in order)),
                      scale=scale // g, is_full_dimensional=True, is_bounded=True)
    return out


# Frames depend on the primitive normal alone, and faces at every level
# share few normals: a whole pl_sweep benchmark run (50 cycles of random PL
# cells) meets 415, eight blowup_ladder cycles 57, so 1024 evicts none.
@lru_cache(maxsize=1024)
def _frame(normal):
    """``(z, basis, proj)`` for a primitive normal: ``<normal, z> = 1``,
    ``basis`` spans the lattice orthogonal to it, and the rows of ``proj``
    take ``x`` to its ``y`` in ``x = s z + y . basis`` (the last n-1 columns
    of the integer inverse of the matrix with rows ``z, *basis``)."""
    z, basis = la.unimodular_complement(normal)
    inv = la.invert_integer_matrix((z,) + basis)
    return z, basis, tuple(zip(*inv))[1:]


def _is_facet(P, T, coords, d):
    """Whether the vertices ``T`` (indices into P's vertices, at ``coords``)
    of a d-face of ``P`` span a facet of that face.  In a bounded polytope
    they do when one of them is simple in P: the facets through a simple
    vertex cut out a boolean lattice of faces.  Else their affine rank does."""
    active = P._enumerate()[2]
    if P.is_bounded() and any(len(active[k]) == P.dim for k in T):
        return True
    return len(T) >= d and la.affine_rank([coords[k] for k in T]) == d - 1


def _pull(P, coords, basis):
    """Pulling triangulation of a face of ``P``, as tuples of vertex indices
    of ``P``: a 0-face is its one vertex, a 0-simplex.

    ``coords`` maps the face's vertex indices to their chart coordinates
    over P's vertex scale, and ``basis`` maps the chart into P's lattice.
    The facets of the face are its intersections T with the facets of P
    that meet it without containing it that :func:`_is_facet` accepts.  The
    apex is the smallest vertex in chart coordinates, and the facets not
    through it come in the sorted order of their primitive chart (normal,
    offset = -<normal, y> at any y of T), as in the face's chart polytope.
    """
    order = sorted(coords, key=coords.__getitem__)
    d = len(basis)
    if d <= 1:  # a point is its vertex, a segment its two ends
        return ((order[0], order[-1])[:d + 1],)
    active = P._enumerate()[2]
    members = {}
    for k in order:
        for j in active[k]:
            members.setdefault(j, []).append(k)
    facets = {}
    for j, T in members.items():
        T = tuple(T)
        if (T[0] != order[0] and len(T) < len(order) and T not in facets
                and _is_facet(P, T, coords, d)):
            prim, _ = la.primitivize([la.dot(P.facets[j].normal, b) for b in basis])
            facets[T] = (prim, -la.dot(prim, coords[T[0]]))
    sims = []
    columns = tuple(zip(*basis))
    for T, (normal, _) in sorted(facets.items(), key=lambda tf: tf[1]):
        _, frame, proj = _frame(normal)
        sub_basis = tuple(tuple(la.dot(b, col) for col in columns) for b in frame)
        sub = {k: tuple(la.dot(row, coords[k]) for row in proj) for k in T}
        sims.extend((order[0],) + s for s in _pull(P, sub, sub_basis))
    return tuple(sims)

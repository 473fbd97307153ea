"""Delzant polytopes: facet data, validation, charts and corner chops.

Everything downstream works on a moment polytope given by facet
inequalities with primitive integer inward normals and rational offsets.
This script walks through the basic data model on the built-in catalog.
"""

from fractions import Fraction

from toricstab import DelzantPolytope, catalog

# The catalog ships the standard smooth toric surfaces (plus an interval and
# a cube).  Vertices are always derived from the facets, never stored.
for name in catalog.names():
    P = catalog.load(name)
    diags = P.validate_delzant()
    print(f"{name:22s} dim={P.dim}  facets={len(P.facets)}  "
          f"vertices={len(P.vertices)}  volume={P.volume()}  "
          f"valid={'yes' if not diags else diags}")

# A polytope that is *not* Delzant: the triangle x, y >= 0, x + 2y <= 2 has a
# non-unimodular corner, and the diagnostics name it.
bad = DelzantPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])
print("\nnon-Delzant triangle diagnostics:")
for d in bad.validate_delzant():
    print("  -", d)

# Corner chops realise blowups: chopping the origin corner of the square at
# depth 1/4 produces a pentagon with one extra facet and volume 1 - 1/32.
square = catalog.load("cp1xcp1")
pent = square.corner_chop(0, Fraction(1, 4))
print("\nchopped square:")
print("  new facet:", [(f.normal, str(f.offset)) for f in pent.facets
                       if f.normal == (1, 1)])
print("  volume:", pent.volume(), "=", float(pent.volume()))
print("  still Delzant:", not pent.validate_delzant())
print("  admissible depth at the opposite corner:",
      pent.admissible_chop(len(pent.vertices) - 1))

# Facet charts parametrise each facet by a unimodular affine map; Lebesgue
# measure in chart coordinates *is* the lattice boundary measure.  The
# hypotenuse of the unit simplex has lattice length 1, not sqrt(2).
simplex = catalog.load("cp2")
i = next(i for i, f in enumerate(simplex.facets) if f.normal == (-1, -1))
chart = simplex.facet_chart(i)
ends = sorted(chart.coords.values())
print("\nhypotenuse chart: origin", chart.origin, "basis", chart.basis,
      "lattice length", ends[-1][0] - ends[0][0])

# Exact triangulations back both the quadrature layer and exact volumes.
print("\npentagon triangulation:")
for s in pent.triangulate():
    print("  simplex", [tuple(map(str, v)) for v in s])

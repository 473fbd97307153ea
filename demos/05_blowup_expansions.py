"""Blowup expansions: predicted coefficients vs the chopped polytopes.

Chopping the corner at a fixed point p at lattice depth eps is the blowup
with class deficit eps.  The invariants of the chopped polytope expand as

    Vol_w:  - w(p)/n!              at order eps^n,
    F:      + v(p)(<p,b> - mean)   at order eps^(n-1)   (n = 2 here),
    df/df_T:- v(p) * Chow weight   at order eps^(n-1),

and fitting the differences Q(P_eps) - Q(P) over a geometric eps-grid
recovers each leading coefficient.  Each difference comes from integrals
over the corner simplex that the chop removes, so no chopped polytope is
built.  These fits are the arbiter that pinned every sign convention in the
package.
"""

from fractions import Fraction

from toricstab import (PLConvex, ToricTC, builtin, catalog, gram_convergence,
                       verify_expansion)


def show(r):
    print(f"  {r.quantity:7s} predicted "
          + ", ".join(f"eps^{k}: {c:+.8f}" for k, c in sorted(r.predicted.items()))
          + f"\n          fitted    "
          + ", ".join(f"eps^{k}: {c:+.8f}" for k, c in sorted(r.fitted.items()))
          + f"\n          remainder exponent {r.remainder_exponent:.3f}, "
          f"coefficient rel err {r.coefficient_rel_error:.2e}, "
          f"passed={r.passed}")


P = catalog.load("cp2")
vertex = 1  # the vertex (0, 1)

for family, xi in (("cscK", None), ("soliton", [0.4, -0.3])):
    W = builtin(family, 2, xi=xi)
    tc = ToricTC(P, W, PLConvex.make([((0, 0), 0), ((1, 1), Fraction(-1, 2))]))
    print(f"\n=== cp2, {family} weights, chopping vertex {vertex} ===")
    show(verify_expansion("volume", P, W, vertex))
    show(verify_expansion("futaki", P, W, vertex, beta=[1.0, 0.0]))
    show(verify_expansion("df", P, W, vertex, tc=tc))
    show(verify_expansion("dft", P, W, vertex, tc=tc))

# The Gram matrix deficit decays at the full corner order eps^n, stronger
# than the generic eps^(n - delta) guarantee.
print("\n=== Gram deficit exponents ===")
for name, family in (("cp1xcp1", "cscK"), ("cp1xcp1", "soliton"),
                     ("cube", "cscK")):
    Pq = catalog.load(name)
    W = builtin(family, Pq.dim,
                xi=None if family == "cscK" else [0.3] * Pq.dim)
    r = gram_convergence(Pq, W, 0)
    print(f"  {name}/{family}: exponent {r.remainder_exponent:.3f} "
          f"(dimension {Pq.dim})")

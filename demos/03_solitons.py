"""Soliton directions on reflexive polytopes.

On a reflexive polytope (all facet offsets one, origin interior) the soliton
direction is the unique xi where the extremal field of the exponential
weights equals xi itself; equivalently, the exponential-weighted barycenter
vanishes.  A damped Newton iteration on the Futaki/Gram residual finds it,
and an independent oracle cross-checks it: damped Newton on the convex
log-volume, from closed-form exponential moments.
"""

import numpy as np

from toricstab import builtin, catalog, extremal_field, soliton_field

for name in ("cp2-reflexive", "cp1xcp1-reflexive", "bl3cp2-reflexive",
             "bl1cp2-reflexive", "bl2cp2-reflexive"):
    P = catalog.load(name)
    res = soliton_field(P)
    print(f"{name:20s} xi* = {np.round(res.xi, 12)}  "
          f"residual={res.residual:.2e}  iters={res.iterations}  "
          f"oracle gap={res.oracle_gap:.2e}")

# The symmetric catalogs lock the direction at the origin; the one- and
# two-point blowups are genuinely asymmetric.  Self-consistency check: the
# extremal field of the soliton weights at xi* is xi* again.
P = catalog.load("bl1cp2-reflexive")
res = soliton_field(P)
W = builtin("soliton", 2, xi=res.xi)
ext = extremal_field(P, W)
print("\nself-consistency on bl1cp2-reflexive:")
print("  xi*      =", res.xi)
print("  chi(xi*) =", ext.chi)

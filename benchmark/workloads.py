"""Seeded inputs, one operation and its check, for each benchmark workload.

A workload is an endless sequence of cycles built from a single seed.  A
cycle visits every stratum of the workload's design (for example every
catalog polytope) a fixed number of times, in a random order and with fresh
random parameters.  A
run stops only at the end of a cycle, so every run sees the same mix
however many cycles it completes.

The library receives only the generated inputs.  Every operation calls it
through module attributes (``testconfig.df_T``, not a name bound at import)
so that the traced run's wrappers see each call.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from toricstab import blowup, catalog, invariants, testconfig
from toricstab.profiles import builtin


class Op:
    """One operation: a label naming its stratum and a call returning
    ``(output, problem)``; ``problem`` is None or ``(kind, wrong)``."""

    __slots__ = ("label", "call")

    def __init__(self, label, call):
        self.label = label
        self.call = call


def execute(op):
    """Run one operation; any exception becomes a problem named by its type.

    ``wrong`` marks an output that contradicts the check although the library
    returned it without complaint; exceptions and results the library itself
    flags as failed are counted as failures but are not wrong outputs.
    """
    try:
        return op.call()
    except Exception as e:  # every library failure is tallied, never fatal
        return (type(e).__name__, str(e)), (type(e).__name__, False)


def _finite(values):
    return all(math.isfinite(x) for x in np.ravel(np.asarray(values, dtype=float)))


def random_pl(rng, dim, pieces):
    """Random PL convex function, shaped like the acceptance suite's sampler:
    gradients in [-4, 4] / {1, 2, 3}, constants in [-3, 3] / {1, .., 4}."""
    out = []
    for _ in range(pieces):
        grad = tuple(Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                     for _ in range(dim))
        const = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
        out.append((grad, const))
    return testconfig.PLConvex.make(out)


def random_tc(rng, P, W, pieces, product):
    """Random configuration of ``random_pl`` shape that is a product
    configuration (one piece is the maximum on all of P) exactly when
    ``product`` is true.  Drawing the product share by design, not by luck,
    keeps the mix of cheap product and costlier non-product operations the
    same in every run.  Decided from P's vertices in exact arithmetic,
    without calling the library on the configuration."""
    for _ in range(1000):
        phi = random_pl(rng, P.dim, pieces)
        vals = [[sum(g * x for g, x in zip(grad, v)) + c for grad, c in phi.pieces]
                for v in P.vertices]
        single = any(all(row[j] == max(row) for row in vals)
                     for j in range(len(phi.pieces)))
        if single == product:
            return testconfig.ToricTC(P, W, phi)
    raise RuntimeError(f"no {'product' if product else 'non-product'} "
                       f"configuration drawn on {P!r}")


# -- pl_sweep -------------------------------------------------------------------


def _pl_call(tc):
    dv = testconfig.destabilizing_vertex(tc)
    dft = testconfig.df_T(tc)
    out = (dv.product, dv.vertex, dv.chow_t, dv.ratio, dv.norm_perp, dv.table, dft)
    if not _finite([dv.chow_t, dv.ratio, dv.norm_perp, dft]):
        return out, ("non_finite", True)
    if dv.product:
        if any(val != 0.0 for _, val in dv.table):
            return out, ("product_table_nonzero", True)
    elif not (dv.chow_t > 0 and dv.ratio > 0.01):
        return out, ("chow_T_bound", True)
    return out, None


def _pl_cycle(rng, index):
    # Two configurations per polytope but one on the cube, whose operations
    # cost five times the others': at a cube share of 1/8 the p90 sat at the
    # lower edge of the cube's latencies and jumped from seed to seed.
    # Every third configuration of a polytope is a product one (about the
    # share random 3-piece functions give on the surfaces).
    ops = []
    for k, name in enumerate(catalog.BASE_NAMES):
        P = catalog.load(name)
        W = builtin("cscK", P.dim)
        per = 1 if P.dim == 3 else 2
        for j in range(per):
            product = (index * per + j + k) % 3 == 0
            tc = random_tc(rng, P, W, 3, product)
            ops.append(Op(f"{name} cscK {'product' if product else 'nonproduct'}",
                          lambda tc=tc: _pl_call(tc)))
    return [ops[i] for i in rng.permutation(len(ops))]


# -- weight_sweep -------------------------------------------------------------------

FAMILIES = ("cscK", "soliton", "sasaki", "ckem")
XI_KINDS = ("generic", "zero", "axis")
POLE_DISTANCE = (Fraction(1, 8), Fraction(1))
# The log pole-distance range is cut into this many bins; each stratum
# visits them in turn, cycle by cycle, so a run's few slow small-distance
# operations do not depend on the luck of the draw.
POLE_BINS = 4
# Width of <x, xi> over P for the power-law families.  With the pole
# distance d >= 1/8 this keeps (a + <x, xi>) within a factor (d + 1/2) / d
# <= 5 over P; at twice that width one cube operation takes over 40 s.
POWER_WIDTH = (0.25, 0.5)


def _vertex_array(P):
    return np.array([[float(c) for c in v] for v in P.vertices])


def _direction(rng, n, kind):
    if kind == "generic":
        return rng.uniform(-1.0, 1.0, n)
    xi = np.zeros(n)
    if kind == "axis":
        xi[int(rng.integers(n))] = rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 1.0)
    return xi


def _weight_call(P, W, beta):
    rep = invariants.invariant_report(P, W, backend="both")
    fb = invariants.futaki(P, W, beta, backend="both")
    out = (rep.vol_w, rep.per_v, rep.s_hat, rep.futaki, rep.gram,
           rep.extremal.chi, rep.extremal.a, rep.extremal.residual,
           rep.backend_discrepancy, fb)
    flat = [rep.vol_w, rep.per_v, rep.s_hat, *rep.futaki, *np.ravel(rep.gram),
            *rep.extremal.chi, rep.extremal.a, fb]
    if not _finite(flat):
        return out, ("non_finite", True)
    return out, None


def _weight_cycle(rng, index):
    strata = [(name, fam, kind) for name in catalog.BASE_NAMES
              for fam in FAMILIES for kind in XI_KINDS]
    lo, hi = (math.log(d) for d in POLE_DISTANCE)
    ops = []
    for i in rng.permutation(len(strata)):
        name, fam, kind = strata[i]
        P = catalog.load(name)
        n = P.dim
        xi = _direction(rng, n, kind)
        a = None
        if fam in ("sasaki", "ckem"):
            width = np.ptp(_vertex_array(P) @ xi)
            if width > 0:
                xi = xi * (rng.uniform(*POWER_WIDTH) / width)
            # min over P of a + <x, xi> is the pole distance, log-uniform.
            bin_ = (index + i) % POLE_BINS
            pole = math.exp(lo + (hi - lo) * (bin_ + rng.uniform()) / POLE_BINS)
            a = Fraction(pole - float(np.min(_vertex_array(P) @ xi))).limit_denominator(1000)
        W = builtin(fam, n, xi=xi, a=a)
        beta = (_direction(rng, n, "axis") if rng.uniform() < 0.5
                else rng.uniform(-1.0, 1.0, n))
        ops.append(Op(f"{name} {fam} xi={kind}",
                      lambda P=P, W=W, beta=beta: _weight_call(P, W, beta)))
    return ops


# -- blowup_ladder -------------------------------------------------------------------

QUANTITIES = ("volume", "futaki", "df", "dft")


def _blowup_call(quantity, P, W, vertex, beta, tc):
    rep = blowup.verify_expansion(quantity, P, W, vertex, beta=beta, tc=tc)
    out = (rep.exact, tuple(sorted(rep.fitted.items())), rep.remainder_exponent,
           rep.coefficient_rel_error, rep.passed)
    if not _finite(rep.exact):
        return out, ("non_finite", True)
    if not rep.passed:
        return out, ("ExpansionNotPassed", False)
    return out, None


def _blowup_cycle(rng, index):
    ops = []
    for k, name in enumerate(catalog.BASE_NAMES):
        P = catalog.load(name)
        n = P.dim
        if n < 2:
            continue
        # One vertex, weight pair and configuration per polytope in a cycle,
        # so its four ladders on (P, vertex, W) re-read the scalar cache.
        # The family alternates cycle by cycle and the configuration is a
        # product one every other pair of cycles, so every four cycles hold
        # the same mix of (costlier) soliton and non-product ladders.
        vertex = int(rng.integers(len(P.vertices)))
        fam = ("cscK", "soliton")[(index + k) % 2]
        W = builtin(fam, n, xi=rng.uniform(-0.5, 0.5, n) if fam == "soliton" else None)
        product = (index // 2 + k) % 2 == 0
        tc = random_tc(rng, P, W, 2, product)
        for q in QUANTITIES:
            beta = rng.uniform(-1.0, 1.0, n) if q == "futaki" else None
            ops.append(Op(f"{name} {fam} {'product' if product else 'nonproduct'} {q}",
                          lambda q=q, P=P, W=W, v=vertex, b=beta, tc=tc:
                          _blowup_call(q, P, W, v, b, tc)))
    return [ops[i] for i in rng.permutation(len(ops))]


CYCLES = {
    "pl_sweep": _pl_cycle,
    "weight_sweep": _weight_cycle,
    "blowup_ladder": _blowup_cycle,
}


def cycles(workload, seed):
    """Endless, deterministic sequence of cycles (lists of operations)."""
    rng = np.random.default_rng(seed)
    make = CYCLES[workload]
    index = 0
    while True:
        yield make(rng, index)
        index += 1

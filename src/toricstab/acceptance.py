"""Acceptance suite: one callable per criterion, shared by pytest and the CLI.

Each criterion runs the full sweep it describes at its stated tolerance and
returns an :class:`AcceptanceResult`; ``run_all`` executes everything in
order.  Expected constants that admit independent derivations (lattice
perimeter over volume ratios, the localisation characteristic number, the
soliton direction of the asymmetric reflexive surface) are frozen here from
closed-form computations done outside this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import blowup, catalog, invariants, localize, testconfig
from .profiles import builtin
from .quadrature import DEFAULT_RULE

# Soliton direction of the asymmetric reflexive surface bl1cp2-reflexive:
# its polytope reduces the volume to the single integral
# int_{-1}^{1} (u + 2) e^{t u} du along the diagonal; the critical t was
# root-solved at 40-digit precision.
BL1CP2_SOLITON_T = -0.5276195198969628


@dataclass(frozen=True)
class AcceptanceResult:
    criterion: str
    passed: bool
    detail: str


def _families_for(P, rng):
    """The four weight families with safe parameters for this polytope."""
    n = P.dim
    out = [("cscK", builtin("cscK", n))]
    xi = _generic_direction(P, rng)
    out.append(("soliton", builtin("soliton", n, xi=xi)))
    for name in ("sasaki", "ckem"):
        xi2 = _generic_direction(P, rng)
        a = _safe_a(P, xi2)
        out.append((name, builtin(name, n, xi=xi2, a=a)))
    return out


def _generic_direction(P, rng):
    for _ in range(100):
        xi = rng.uniform(-1.0, 1.0, P.dim)
        if localize.is_generic(P, xi):
            return xi
    raise RuntimeError("could not sample a generic direction")


def _safe_a(P, xi):
    pairings = [abs(float(np.array([float(c) for c in v]) @ np.asarray(xi)))
                for v in P.vertices]
    return Fraction(1) + Fraction(math.ceil(4 * max(pairings)), 2)


def criterion_1_backend_agreement(rule=DEFAULT_RULE):
    """Quadrature and vertex localisation agree on both class types, to
    ``AGREE_TOL`` of the (positive) quadrature value."""
    rng = np.random.default_rng(101)
    worst, count, passed = 0.0, 0, True
    for name in catalog.BASE_NAMES:
        P = catalog.load(name)
        n = P.dim
        for _ in range(10):
            xi = _generic_direction(P, rng)
            fams = [("cscK", builtin("cscK", n, xi=xi)),
                    ("soliton", builtin("soliton", n, xi=xi)),
                    ("sasaki", builtin("sasaki", n, xi=xi, a=_safe_a(P, xi))),
                    ("ckem", builtin("ckem", n, xi=xi, a=_safe_a(P, xi)))]
            for _, W in fams:
                for quantity in (invariants.vol_w, invariants.per_v):
                    q = quantity(P, W, rule)
                    l = quantity(P, W, rule, backend="localization")
                    worst = max(worst, abs(q - l) / q)
                    passed = passed and localize.agree(q, l, q)
                    count += 1
    return AcceptanceResult(
        "backend agreement",
        passed,
        f"{count} comparisons, worst relative discrepancy {worst:.3e} (tol 1e-8)")


def criterion_2_derived_constants(rule=DEFAULT_RULE):
    """s_hat on the line and the plane; the localisation characteristic sum."""
    rng = np.random.default_rng(102)
    checks = []
    s1 = invariants.s_hat(catalog.load("cp1"), builtin("cscK", 1), rule, "both")
    checks.append(("s_hat(cp1) = 2", abs(s1 - 2.0)))
    s2 = invariants.s_hat(catalog.load("cp2"), builtin("cscK", 2), rule, "both")
    checks.append(("s_hat(cp2) = 6", abs(s2 - 6.0)))
    P = catalog.load("cp2")
    for _ in range(5):
        xi = _generic_direction(P, rng)
        vw = localize.vertex_weights(P, xi)
        total = math.fsum(v.c1 ** 2 / v.euler for v in vw)
        checks.append(("sum c1^2/e = 9", abs(total - 9.0)))
    worst = max(err for _, err in checks)
    passed = all(err <= 1e-9 for _, err in checks)
    return AcceptanceResult(
        "derived constants",
        passed,
        f"s_hat(cp1)={s1:.12f}, s_hat(cp2)={s2:.12f}, "
        f"worst abs error {worst:.3e} (tol 1e-9)")


def criterion_3_symmetry_vanishing(rule=DEFAULT_RULE):
    """Futaki character vanishes for symmetric polytopes, not for bl1cp2."""
    worst = 0.0
    for name in ("cp2", "cp1xcp1", "bl3cp2"):
        P = catalog.load(name)
        for W in (builtin("cscK", 2), builtin("soliton", 2, xi=[0.0, 0.0])):
            for b in np.eye(2):
                worst = max(worst, abs(invariants.futaki(P, W, b, rule)))
    P = catalog.load("bl1cp2")
    f_axis = invariants.futaki(P, builtin("cscK", 2), [1, 1], rule)
    passed = worst <= 1e-10 and abs(f_axis) > 1e-3
    return AcceptanceResult(
        "symmetry vanishing",
        passed,
        f"max |F| on symmetric catalogs {worst:.3e} (tol 1e-10); "
        f"bl1cp2 axis value {f_axis:.6f} (must exceed 1e-3)")


def criterion_4_extremal_residual(rule=DEFAULT_RULE):
    """F(beta) = -<w_ext, beta>, to ``AGREE_TOL`` of the Futaki scale
    width_beta Per_v (see ``invariants.futaki``), and the signed-weight
    vanishing."""
    rng = np.random.default_rng(104)
    worst, worst_signed, ok = 0.0, 0.0, True
    for name in catalog.BASE_NAMES:
        P = catalog.load(name)
        for _, W in _families_for(P, rng):
            ext = invariants.extremal_field(P, W, rule)
            g = invariants.gram(P, W, rule=rule)
            chi = np.asarray(ext.chi)
            for _ in range(20):
                beta = rng.uniform(-1, 1, P.dim)
                f = invariants.futaki(P, W, beta, rule)
                pair = float(chi @ g @ beta)
                width = float(np.ptp(P.vertices_floats() @ beta))
                scale = width * invariants.per_v(P, W, rule)
                worst = max(worst, abs(f + pair) / scale)
                ok = ok and localize.agree(f, -pair, scale)
            for b in np.eye(P.dim):
                fs = invariants.futaki_signed(P, W, ext, b, rule)
                worst_signed = max(worst_signed, abs(fs))
    passed = ok and worst_signed <= 1e-8
    return AcceptanceResult(
        "extremal-field residual",
        passed,
        f"worst |F + <w_ext, .>| rel {worst:.3e}, worst signed-weight "
        f"|F_(v,w w_ext)| {worst_signed:.3e} (tol 1e-8)")


def criterion_5_soliton_oracle(rule=DEFAULT_RULE):
    """Newton soliton direction vs the independent convex-volume oracle."""
    res = invariants.soliton_field(catalog.load("bl1cp2-reflexive"), rule)
    gap = res.oracle_gap
    frozen = max(abs(c - BL1CP2_SOLITON_T) for c in res.xi)
    sym_worst = 0.0
    for name in ("cp2-reflexive", "cp1xcp1-reflexive", "bl3cp2-reflexive"):
        r = invariants.soliton_field(catalog.load(name), rule)
        sym_worst = max(sym_worst, float(np.linalg.norm(r.xi)))
    passed = (res.converged and gap <= 1e-8 and frozen <= 1e-8
              and sym_worst <= 1e-9)
    return AcceptanceResult(
        "soliton oracle",
        passed,
        f"bl1cp2 xi* = ({res.xi[0]:.12f}, {res.xi[1]:.12f}), oracle gap "
        f"{gap:.3e}, frozen-value gap {frozen:.3e} (tol 1e-8); symmetric "
        f"catalogs |xi*| <= {sym_worst:.3e} (tol 1e-9)")


def criterion_6_twist_identities(rule=DEFAULT_RULE):
    """df/df_T twist laws and chow normalisation invariance."""
    rng = np.random.default_rng(106)
    worst_df = worst_dft = worst_chow = 0.0
    names = ("cp2", "cp1xcp1", "bl1cp2", "hirzebruch-a")
    for trial in range(50):
        P = catalog.load(names[trial % len(names)])
        W = builtin("cscK", 2) if trial % 2 == 0 else \
            builtin("soliton", 2, xi=rng.uniform(-0.5, 0.5, 2))
        tc = testconfig.ToricTC(P, W, testconfig.random_pl(rng, 2))
        beta = rng.uniform(-1, 1, 2)
        f = invariants.futaki(P, W, beta, rule)
        tw = testconfig.twist(tc, beta)
        worst_df = max(worst_df, abs(testconfig.df(tw, rule)
                                     - testconfig.df(tc, rule) - f))
        worst_dft = max(worst_dft, abs(testconfig.df_T(tw, rule)
                                       - testconfig.df_T(tc, rule)))
        vtx = P.vertices[int(rng.integers(0, len(P.vertices)))]
        ch = testconfig.chow(tc, vtx, rule)
        ch_norm = testconfig.chow(testconfig.normalize_chow(tc, rule), vtx, rule)
        ch_shift = testconfig.chow(tc.with_offset(tc.c0 + 0.375), vtx, rule)
        worst_chow = max(worst_chow, abs(ch - ch_norm), abs(ch - ch_shift))
    passed = worst_df <= 1e-10 and worst_dft <= 1e-10 and worst_chow <= 1e-12
    return AcceptanceResult(
        "twist identities",
        passed,
        f"50 trials: |df twist defect| {worst_df:.3e}, |df_T twist defect| "
        f"{worst_dft:.3e} (tol 1e-10), chow shift invariance {worst_chow:.3e} "
        f"(tol 1e-12)")


def criterion_7_blowup_expansions(rule=DEFAULT_RULE):
    """The sign-pinning suite: all expansion fits pass simultaneously."""
    rows = []
    for pname in ("cp2", "cp1xcp1"):
        P = catalog.load(pname)
        vertex = 1 if pname == "cp2" else 0
        for fam in ("cscK", "soliton"):
            W = builtin(fam, 2, xi=[0.4, -0.3] if fam == "soliton" else None)
            tc = testconfig.ToricTC(
                P, W, testconfig.PLConvex.make(
                    [((0, 0), 0), ((1, 1), Fraction(-1, 2))]))
            r_vol = blowup.verify_expansion(
                "volume", P, W, vertex, rule=rule,
                rel_tol=1e-8 if fam != "cscK" else 1e-11)
            r_fut = blowup.verify_expansion("futaki", P, W, vertex,
                                            beta=[1.0, 0.0], rule=rule)
            r_df = blowup.verify_expansion("df", P, W, vertex, tc=tc, rule=rule)
            r_dft = blowup.verify_expansion("dft", P, W, vertex, tc=tc, rule=rule)
            for r in (r_vol, r_fut, r_df, r_dft):
                rows.append((pname, fam, r.quantity, r.passed,
                             r.coefficient_rel_error, r.remainder_exponent))
    passed = all(ok for _, _, _, ok, _, _ in rows)
    worst = max(err for *_, err, _ in rows)
    detail = (f"{len(rows)} expansion fits, worst coefficient rel error "
              f"{worst:.3e}; all signs consistent"
              if passed else "failing fits: " + ", ".join(
                  f"{p}/{f}/{q} (rel {e:.2e}, exp {x:.2f})"
                  for p, f, q, ok, e, x in rows if not ok))
    return AcceptanceResult("blowup expansions (sign pinning)", passed, detail)


def criterion_8_destabilizing_vertex(rule=DEFAULT_RULE):
    """Positive torus-orthogonal Chow weight for non-product configurations."""
    rng = np.random.default_rng(108)
    min_chow = math.inf
    min_ratio = math.inf
    used = 0
    for name in catalog.BASE_NAMES:
        P = catalog.load(name)
        W = builtin("cscK", P.dim)
        done = 0
        while done < 100:
            tc = testconfig.ToricTC(P, W, testconfig.random_pl(rng, P.dim))
            dv = testconfig.destabilizing_vertex(tc, rule)
            if dv.product or dv.norm_perp <= 1e-6:
                continue
            done += 1
            used += 1
            min_chow = min(min_chow, dv.chow_t)
            min_ratio = min(min_ratio, dv.ratio)
    passed = min_chow > 0 and min_ratio > 0.01
    return AcceptanceResult(
        "destabilizing vertex",
        passed,
        f"{used} non-product trials: min chow_T {min_chow:.6e} (> 0), "
        f"min ratio chow_T*V_w/norm {min_ratio:.4f} (> 0.01)")


def criterion_9_semistability(rule=DEFAULT_RULE):
    """df >= 0 on the plane (cscK) and df_T >= 0 on the blowup (extremal)."""
    rng = np.random.default_rng(109)
    P = catalog.load("cp2")
    W = builtin("cscK", 2)
    min_df = math.inf
    for _ in range(100):
        tc = testconfig.ToricTC(P, W, testconfig.random_pl(rng, 2))
        min_df = min(min_df, testconfig.df(tc, rule))
    P2 = catalog.load("bl1cp2")
    min_dft = math.inf
    for _ in range(100):
        tc = testconfig.ToricTC(P2, W, testconfig.random_pl(rng, 2))
        min_dft = min(min_dft, testconfig.df_T(tc, rule))
    passed = min_df >= -1e-10 and min_dft >= -1e-10
    return AcceptanceResult(
        "semistability spot-check",
        passed,
        f"min df on cp2 {min_df:.6e}, min df_T on bl1cp2 {min_dft:.6e} "
        "(both >= -1e-10 over 100 random convex PL each)")


def criterion_10_gram_convergence(rule=DEFAULT_RULE):
    """Gram deficit under chopping decays at least like eps^(n - 1/2)."""
    rows = []
    cases = [("cp2", builtin("cscK", 2)), ("cp1xcp1", builtin("cscK", 2)),
             ("cp1xcp1", builtin("soliton", 2, xi=[0.3, 0.2])),
             ("cube", builtin("cscK", 3))]
    for name, W in cases:
        P = catalog.load(name)
        r = blowup.gram_convergence(P, W, 0, rule=rule)
        rows.append((name, W.family, r.remainder_exponent, P.dim, r.passed))
    passed = all(ok for *_, ok in rows)
    detail = "; ".join(f"{n}/{f}: exponent {e:.3f} (n={d})"
                       for n, f, e, d, ok in rows)
    return AcceptanceResult("gram blowup convergence", passed, detail)


CRITERIA = (
    criterion_1_backend_agreement,
    criterion_2_derived_constants,
    criterion_3_symmetry_vanishing,
    criterion_4_extremal_residual,
    criterion_5_soliton_oracle,
    criterion_6_twist_identities,
    criterion_7_blowup_expansions,
    criterion_8_destabilizing_vertex,
    criterion_9_semistability,
    criterion_10_gram_convergence,
)


def run_all(rule=DEFAULT_RULE):
    return [fn(rule) for fn in CRITERIA]

"""Metamorphic test: scaling the weights changes no verdict.

Vol_w, Per_v, the Futaki character, df, df_T, the Gram matrix and every
blowup coefficient are homogeneous of degree one in the weights (v, w), so
s_hat, the Chow ratios and every verdict built on them must read the same
for (v, w) and (c v, c w) (Chen et al., "Metamorphic testing", ACM CSUR 51,
2018).  Each pair is built twice, from profiles whose coefficients (a
``Polynomial``'s) or prefactor (``PowerLaw.a``, ``Exponential.a``) are
multiplied by c = 2^k, so that every weight value scales exactly.  The
cubature runs at ``tol_abs = 0``: an absolute floor would stop refinement at
different depths at different scales.  Soliton weights run on bl1cp2 and
hirzebruch-a alone: at ``tol_abs = 0`` an integral that vanishes by symmetry
bisects to the depth cap.
"""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from toricstab import blowup, catalog, cli, invariants as inv, testconfig as tcg
from toricstab.invariants import BackendError
from toricstab.localize import ExtrapolationError
from toricstab.profiles import (Exponential, Polynomial, PowerLaw, WeightPair,
                                weights_to_json)
from toricstab.quadrature import QuadratureRule

RULE = QuadratureRule(tol_abs=0.0)
KS = (-60, -20, 20, 60)
XI = (0.31, -0.23, 0.17)
CASES = [(name, family) for name in catalog.BASE_NAMES
         for family in ("cscK", "extremal", "sasaki", "ckem")]
CASES += [("bl1cp2", "soliton"), ("hirzebruch-a", "soliton")]


def weights(P, family, c):
    """The family's weights at the generic direction XI, times c: v = w = c
    (cscK); v = c, w = c (1 + <xi, x>/4) (extremal); the power laws of
    ``profiles.builtin``, their pole 1/4 away from P (sasaki, ckem); or
    v = w = c e^<xi, x> (soliton)."""
    n, xi = P.dim, XI[:P.dim]
    if family in ("cscK", "extremal"):
        f = Polynomial.make([0] * n + [c / math.factorial(n)])
        g = [0] * (n + 1) + [c / math.factorial(n + 1)]
        if family == "extremal":
            g.append(c / 4 / math.factorial(n + 2))
        return WeightPair(xi, f, Polynomial.make(g), n, family)
    if family == "soliton":
        return WeightPair(xi, Exponential(float(c)), Exponential(float(c)), n, family)
    pole = F(1, 4) - P.interval([F(x) for x in xi])[0]
    pv, pw = (-n - 1, -n - 3) if family == "sasaki" else (-2 * n + 1, -2 * n - 1)
    return WeightPair(xi, PowerLaw(c, pole, F(pv)).antiderivative(n),
                      PowerLaw(c, pole, F(pw)).antiderivative(n + 1), n, family)


def outcome(call, *args):
    """The name of the tolerance error that the call raised, else "ok"."""
    try:
        call(*args)
    except (BackendError, ExtrapolationError) as e:
        return type(e).__name__
    return "ok"


def verdicts(P, W, c):
    """Every verdict of the library on (P, W), and the Futaki values of the
    signed weights divided by c."""
    n = P.dim
    betas = [np.eye(n)[0], np.array([0.7, -0.4, 0.9][:n])]
    found = {
        "report": outcome(inv.invariant_report, P, W, RULE, "both"),
        "s_hat": outcome(inv.s_hat, P, W, RULE, "both"),
        "futaki": [outcome(inv.futaki, P, W, b, RULE, "both") for b in betas],
    }
    # The extremal field, and an affine function of vanishing w-mass: the
    # two branches of the signed average.  (Soliton weights skip the second:
    # its mass vanishes, so at tol_abs = 0 it bisects to the depth cap.)
    ext = inv.extremal_field(P, W, RULE)
    affines = [(ext.chi, ext.a), (np.eye(n)[0], -inv.barycenter_w(P, W, RULE)[0])]
    affines = affines[:1] if W.family == "soliton" else affines
    signed = [inv.futaki_signed(P, W, a, np.eye(n)[-1], RULE) / c for a in affines]
    rng = np.random.default_rng(7)
    tcs = [tcg.associated_product(P, W, betas[1]),
           tcg.ToricTC(P, W, tcg.random_pl(rng, n), twist=betas[0] / 3)]
    found["destabilize"] = [(dv.product, dv.vertex, dv.ties) for dv in
                            (tcg.destabilizing_vertex(t, RULE) for t in tcs)]
    if n > 1:
        found["ladders"] = [
            blowup.verify_expansion(q, P, W, 1, beta=betas[1], tc=tcs[1], rule=RULE).passed
            for q in ("volume", "futaki", "df", "dft")]
    return found, signed


def exit_codes(tmp_path, P, W):
    """The exit codes of the strict CLI commands on (P, W), and the first
    word of the report's verdict.  ``futaki --backend both`` also runs the
    report of ``invariants --backend both``.  The report's configuration
    (seed 1) has a df_T at rounding level, below 0 on 15 of the cases; it
    is left out for soliton weights, whose configuration integrals take
    most of this test's time at tol_abs = 0."""
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(weights_to_json(W)))
    common = ["--catalog", P.name, "--weights", str(path), "--tol-abs", "0",
              "--out", str(tmp_path / "out.json"), "--strict"]
    beta = ",".join(map(str, [0.7, -0.4, 0.9][:P.dim]))
    codes = [cli.main(["futaki", *common, "--backend", "both", "--beta", beta]),
             cli.main(["extremal-field", *common])]
    if W.family == "soliton":
        return codes
    codes.append(cli.main(["report", *common, "--sample", "1", "--seed", "1"]))
    return codes, json.loads((tmp_path / "out.json").read_text())["verdict"].split()[0]


@pytest.mark.parametrize("name, family", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_verdicts_do_not_depend_on_the_weight_scale(tmp_path, name, family):
    P = catalog.load(name)
    W = weights(P, family, F(1))
    base, signed = verdicts(P, W, 1)
    codes = exit_codes(tmp_path, P, W)
    for k in KS:
        c = F(2) ** k
        Wc = weights(P, family, c)
        found, signed_c = verdicts(P, Wc, float(c))
        assert found == base, k
        # A branch flip of the signed average moves the value by the factor
        # Per_v / mass.
        assert signed_c == pytest.approx(signed, rel=1e-9, abs=1e-12), k
        assert exit_codes(tmp_path, P, Wc) == codes, k

"""Command-line interface.

Commands: validate, invariants, futaki, extremal-field, soliton,
testconfig {df,dft,norm,chow,destabilize}, blowup-expand, report, selftest.
Output is deterministic JSON (fixed field order, %.12e floats) unless --csv
or --text is selected.  Exit codes: 0 success, 2 argument/parse errors,
3 precondition violations, 4 tolerance failures under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import acceptance, blowup, catalog, invariants, report, testconfig
from .polytope import DelzantPolytope, PolytopeError
from .profiles import PositivityError, builtin, weights_from_json
from .quadrature import QuadratureRule

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_TOLERANCE = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _add_common(p):
    p.add_argument("--catalog", help="built-in polytope name")
    p.add_argument("--polytope", help="polytope JSON file")
    p.add_argument("--weights", help="weight configuration JSON file")
    p.add_argument("--family", default="cscK",
                   help="weight family (cscK, extremal, soliton, sasaki, ckem)")
    p.add_argument("--xi", help="comma-separated direction, e.g. '0.3,-0.2'")
    p.add_argument("--a", help="shift parameter for sasaki/ckem weights")
    p.add_argument("--backend", default="quadrature",
                   choices=("quadrature", "localization", "both"))
    p.add_argument("--quad-degree", type=int, default=12)
    p.add_argument("--tol-abs", type=float, default=1e-12)
    p.add_argument("--tol-rel", type=float, default=1e-10)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--json", action="store_true", help="JSON output (default)")
    p.add_argument("--csv", help="emit CSV plot data (expansion|chow|gram)")
    p.add_argument("--text", action="store_true", help="plain text summary")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 on tolerance or validity failures")
    p.add_argument("--seed", type=int, default=0)


def _load_polytope(args):
    if args.catalog:
        try:
            return catalog.load(args.catalog)
        except KeyError as e:
            raise CliError(str(e), EXIT_PARSE) from e
    if args.polytope:
        try:
            with open(args.polytope) as fh:
                return DelzantPolytope.from_json(json.load(fh))
        except (OSError, ValueError, KeyError) as e:
            raise CliError(f"cannot read polytope file: {e}", EXIT_PARSE) from e
    raise CliError("need --catalog or --polytope", EXIT_PARSE)


def _load_weights(args, P):
    if args.weights:
        try:
            with open(args.weights) as fh:
                return weights_from_json(json.load(fh), P.dim)
        except (OSError, ValueError, KeyError) as e:
            raise CliError(f"cannot read weight config: {e}", EXIT_PARSE) from e
    xi = None
    if args.xi:
        try:
            xi = [float(s) for s in args.xi.split(",")]
        except ValueError as e:
            raise CliError(f"bad --xi: {e}", EXIT_PARSE) from e
    a = Fraction(args.a) if args.a else None
    try:
        return builtin(args.family, P.dim, xi=xi, a=a)
    except ValueError as e:
        raise CliError(str(e), EXIT_PARSE) from e


def _load_tc(args, P, W):
    if getattr(args, "tc", None):
        try:
            with open(args.tc) as fh:
                return testconfig.ToricTC.from_json(json.load(fh), P, W)
        except (OSError, ValueError, KeyError) as e:
            raise CliError(f"cannot read test configuration: {e}", EXIT_PARSE) from e
    if getattr(args, "beta", None):
        beta = [float(s) for s in args.beta.split(",")]
        return testconfig.associated_product(P, W, beta)
    raise CliError("need --tc or --beta", EXIT_PARSE)


def _rule(args):
    return QuadratureRule(degree=args.quad_degree, tol_abs=args.tol_abs,
                          tol_rel=args.tol_rel, max_depth=args.max_depth)


def _emit(args, doc):
    if args.csv:
        text = report.emit_plot_data(doc, args.csv)
    elif args.text:
        lines = []

        def walk(prefix, obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(f"{prefix}{k}.", v) if isinstance(v, (dict,)) \
                        else lines.append(f"{prefix}{k} = {v}")
            else:
                lines.append(f"{prefix} = {obj}")

        walk("", doc)
        text = "\n".join(lines) + "\n"
    else:
        text = report.dumps(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args):
    P = _load_polytope(args)
    diags = P.validate_delzant()
    doc = {"polytope": P.name or "unnamed", "valid": not diags,
           "diagnostics": list(diags),
           "vertices": [[str(c) for c in v] for v in P.vertices]}
    _emit(args, doc)
    return EXIT_TOLERANCE if (args.strict and diags) else 0


def _cmd_invariants(args):
    P = _load_polytope(args)
    W = _load_weights(args, P)
    rep = invariants.invariant_report(P, W, _rule(args), backend=args.backend)
    _emit(args, report.invariant_doc(rep, name=P.name))
    return 0


def _cmd_futaki(args):
    P = _load_polytope(args)
    W = _load_weights(args, P)
    rule = _rule(args)
    beta = [float(s) for s in args.beta.split(",")]
    val = invariants.futaki(P, W, beta, rule, backend=args.backend)
    rep = invariants.invariant_report(P, W, rule, backend=args.backend)
    doc = report.invariant_doc(rep, name=P.name)
    doc["beta"] = beta
    doc["futaki_beta"] = val
    _emit(args, doc)
    return 0


def _cmd_extremal(args):
    P = _load_polytope(args)
    W = _load_weights(args, P)
    rule = _rule(args)
    rep = invariants.invariant_report(P, W, rule, backend=args.backend)
    _emit(args, report.invariant_doc(rep, name=P.name))
    if args.strict and rep.extremal.residual > 1e-8:
        return EXIT_TOLERANCE
    return 0


def _cmd_soliton(args):
    P = _load_polytope(args)
    rule = _rule(args)
    res = invariants.soliton_field(P, rule)
    from .profiles import builtin
    W = builtin("soliton", P.dim, xi=res.xi)
    rep = invariants.invariant_report(P, W, rule, backend=args.backend)
    doc = report.invariant_doc(rep, name=P.name)
    doc.update(report.soliton_doc(res))
    _emit(args, doc)
    if args.strict and not (res.converged and res.normalization_consistent):
        return EXIT_TOLERANCE
    return 0


def _cmd_testconfig(args):
    P = _load_polytope(args)
    W = _load_weights(args, P)
    tc = _load_tc(args, P, W)
    rule = _rule(args)
    sub = args.tc_command
    if sub == "df":
        doc = {"df": testconfig.df(tc, rule)}
    elif sub == "dft":
        doc = {"df_T": testconfig.df_T(tc, rule)}
    elif sub == "norm":
        _, norm_perp = testconfig.orthogonal_part(tc, rule)
        doc = {"l1_norm": testconfig.l1_norm(tc, rule),
               "l1_norm_orthogonal": norm_perp}
    elif sub == "chow":
        doc = {"chow_table": [{"vertex": [str(c) for c in v],
                               "chow": ch, "chow_T": cht}
                              for v, ch, cht in testconfig.chow_T_table(tc, rule)]}
    elif sub == "destabilize":
        dv = testconfig.destabilizing_vertex(tc, rule)
        doc = {"product": dv.product, "l1_norm_orthogonal": dv.norm_perp}
        if not dv.product:
            doc.update({
                "vertex": [str(c) for c in dv.vertex],
                "chow_T": dv.chow_t,
                "ratio": dv.ratio,
                "ties": [[str(c) for c in v] for v in dv.ties],
            })
    else:
        raise CliError(f"unknown testconfig subcommand {sub!r}", EXIT_PARSE)
    _emit(args, doc)
    return 0


def _cmd_blowup(args):
    P = _load_polytope(args)
    W = _load_weights(args, P)
    rule = _rule(args)
    vertex = args.vertex
    beta = [float(s) for s in args.beta.split(",")] if args.beta else None
    tc = None
    if args.quantity in ("df", "dft"):
        tc = _load_tc(args, P, W)
    grid = None
    if args.eps_max:
        start = Fraction(args.eps_max) / 4
        grid = tuple(start / 2 ** k for k in range(args.eps_points))
    try:
        rep = blowup.verify_expansion(args.quantity, P, W, vertex,
                                      eps_grid=grid, beta=beta, tc=tc,
                                      rule=rule)
    except (PolytopeError, ValueError) as e:
        raise CliError(str(e), EXIT_PRECONDITION) from e
    _emit(args, report.expansion_doc(rep))
    return EXIT_TOLERANCE if (args.strict and not rep.passed) else 0


def _cmd_report(args):
    P = _load_polytope(args)
    W = _load_weights(args, P)
    rule = _rule(args)
    tcs = []
    if args.tc:
        with open(args.tc) as fh:
            tcs.append(testconfig.ToricTC.from_json(json.load(fh), P, W))
    if args.sample:
        rng = np.random.default_rng(args.seed)
        for _ in range(args.sample):
            tcs.append(testconfig.ToricTC(P, W, testconfig.random_pl(rng, P.dim)))
    expansions = []
    if args.expand_vertex is not None:
        v = args.expand_vertex
        expansions.append(blowup.verify_expansion("volume", P, W, v, rule=rule))
        for tc in tcs:
            expansions.append(blowup.verify_expansion("df", P, W, v, tc=tc,
                                                      rule=rule))
            expansions.append(blowup.verify_expansion("dft", P, W, v, tc=tc,
                                                      rule=rule))
    doc = report.dossier(P, W, tcs, expansions, rule=rule,
                         backend=args.backend, name=P.name)
    _emit(args, doc)
    if args.strict and (doc["verdict"].startswith("violation")
                        or not all(e["passed"] for e in doc["expansions"])):
        return EXIT_TOLERANCE
    return 0


def _cmd_selftest(args):
    results = acceptance.run_all(_rule(args))
    ok = True
    for r in results:
        ok = ok and r.passed
        sys.stdout.write(f"[{'PASS' if r.passed else 'FAIL'}] "
                         f"{r.criterion}: {r.detail}\n")
    sys.stdout.write(("all criteria passed\n" if ok
                      else "some criteria FAILED\n"))
    return 0 if ok else EXIT_TOLERANCE


def build_parser():
    ap = argparse.ArgumentParser(
        prog="toricstab",
        description="Weighted K-stability invariants of toric manifolds "
                    "from moment-polytope data.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the Delzant conditions")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("invariants", help="volume, perimeter, s_hat, Futaki, "
                                          "Gram, extremal field")
    _add_common(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("futaki", help="Futaki character on a direction")
    _add_common(p)
    p.add_argument("--beta", required=True)
    p.set_defaults(func=_cmd_futaki)

    p = sub.add_parser("extremal-field", help="affine extremal potential")
    _add_common(p)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("soliton", help="soliton direction on a reflexive polytope")
    _add_common(p)
    p.set_defaults(func=_cmd_soliton)

    p = sub.add_parser("testconfig", help="invariants of a test configuration")
    p.add_argument("tc_command",
                   choices=("df", "dft", "norm", "chow", "destabilize"))
    _add_common(p)
    p.add_argument("--tc", help="test configuration JSON file")
    p.add_argument("--beta", help="product configuration direction")
    p.set_defaults(func=_cmd_testconfig)

    p = sub.add_parser("blowup-expand", help="expansion fit under corner chops")
    _add_common(p)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--quantity", required=True, choices=blowup.QUANTITIES)
    p.add_argument("--tc", help="test configuration JSON file")
    p.add_argument("--beta", help="direction for the futaki quantity")
    p.add_argument("--eps-max", help="largest admissible chop depth (rational)")
    p.add_argument("--eps-points", type=int, default=8)
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("report", help="full stability dossier")
    _add_common(p)
    p.add_argument("--tc", help="test configuration JSON file")
    p.add_argument("--sample", type=int, default=0,
                   help="add this many random PL configurations")
    p.add_argument("--expand-vertex", type=int, default=None,
                   help="include blowup expansion reports at this vertex")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    _add_common(p)
    p.set_defaults(func=_cmd_selftest)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.code
    except (PolytopeError, PositivityError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())

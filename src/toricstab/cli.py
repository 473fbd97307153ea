"""Command-line interface.

Commands: validate, invariants, futaki, extremal-field, soliton,
testconfig {df,dft,norm,chow,destabilize}, blowup-expand, report, selftest.
Each command but selftest returns its document and whether it fails
--strict; ``main`` emits the document and applies --strict in one place.
Output is deterministic JSON (fixed field order, %.12e floats) unless --csv
or --text is selected.  Exit codes: 0 success, 2 argument/parse errors
(also bad cubature flags, non-finite, subnormal or out-of-float-range
numbers, a --csv kind the command's document lacks, fewer than 4 or
underflowing --eps-points, a negative --sample or report --seed, all
checked before any work, and an unwritable --out), 3 precondition
violations (any overflow or non-finite number among them), 4 tolerance
failures: under --strict, and always when the two backends disagree or a
localisation limit does not settle (only at a nonzero xi: at xi = 0 it is
one monomial sum).  The backends disagree past 1e-8 of the
quadrature Vol_w, Per_v or s_hat, or of width_beta Per_v for a Futaki value
(width_beta the spread of <x, beta> over the vertices); --backend
localization fails --strict on the same discrepancy.  A "remainder_exponent"
of "inf" (a string) means the remainder sits at roundoff.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import (acceptance, blowup, catalog, invariants, localize, report,
               testconfig)
from .polytope import DelzantPolytope, PolytopeError
from .profiles import (PositivityError, builtin, check_components,
                       weights_from_json)
from .quadrature import QuadratureRule

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_TOLERANCE = 4

#: The --csv kind of each command's document (testconfig by subcommand);
#: ``main`` refuses any other before the command does any work.
CSV_KIND = {"invariants": "gram", "futaki": "gram", "extremal-field": "gram",
            "soliton": "gram", "testconfig chow": "chow",
            "blowup-expand": "expansion"}


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
    p.add_argument("--csv", choices=("expansion", "chow", "gram"),
                   help="emit CSV plot data")
    p.add_argument("--text", action="store_true", help="plain text summary")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 on tolerance or validity failures")
    p.add_argument("--seed", type=int, default=0)


def _read_json(path, what, parse):
    """``parse`` of the JSON document in the file ``path``; a file that
    cannot be opened or parsed exits 2 as "cannot read <what>"."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as e:
        raise CliError(f"cannot read {what}: {e}", EXIT_PARSE) from e


def _vector(text, flag, dim):
    """The ``dim`` comma-separated floats given to the option ``flag``."""
    try:
        vec = [float(s) for s in text.split(",")]
        if len(vec) != dim:
            raise ValueError(f"{len(vec)} components, need {dim}")
        check_components(vec, text)
    except ValueError as e:
        raise CliError(f"bad {flag}: {e}", EXIT_PARSE) from e
    return vec


def _fraction(text, flag):
    """The rational number given to the option ``flag``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise CliError(f"bad {flag}: {e}", EXIT_PARSE) from e


def _load_polytope(args, solid=True):
    """The polytope of --catalog or --polytope; unless ``solid`` is false
    (validate), an empty, unbounded or lower-dimensional one is refused."""
    if args.catalog:
        try:
            return catalog.load(args.catalog)
        except KeyError as e:
            raise CliError(str(e), EXIT_PARSE) from e
    if not args.polytope:
        raise CliError("need --catalog or --polytope", EXIT_PARSE)
    P = _read_json(args.polytope, "polytope file", DelzantPolytope.from_json)
    if solid and (diags := [d for d in P.validate_delzant()
                            if d.startswith("polytope is ")]):
        raise PolytopeError("; ".join(diags))
    return P


def _load_weights(args, P):
    if args.weights:
        return _read_json(args.weights, "weight config",
                          lambda doc: weights_from_json(doc, P.dim))
    xi = _vector(args.xi, "--xi", P.dim) if args.xi else None
    a = _fraction(args.a, "--a") if args.a else None
    try:
        return builtin(args.family, P.dim, xi=xi, a=a)
    except ValueError as e:
        raise CliError(str(e), EXIT_PARSE) from e


def _load_tc(args, P, W):
    if getattr(args, "tc", None):
        return _read_json(args.tc, "test configuration",
                          lambda doc: testconfig.ToricTC.from_json(doc, P, W))
    if getattr(args, "beta", None):
        return testconfig.associated_product(P, W, _vector(args.beta, "--beta", P.dim))
    raise CliError("need --tc or --beta", EXIT_PARSE)


def _rule(args):
    # Degree 31 is the rule of order s = 15.  Above it the float weights
    # drift (in dimension 1 they sum to 1 within 8.2e-13 at s = 15, but
    # 1.2e-11 at s = 18), and the exact table of nodes grows as s**n.
    if not 0 <= args.quad_degree <= 31:
        raise CliError(f"bad --quad-degree: {args.quad_degree} (need 0..31)",
                       EXIT_PARSE)
    for flag, value in (("--max-depth", args.max_depth),
                        ("--tol-abs", args.tol_abs), ("--tol-rel", args.tol_rel)):
        if not 0 <= value < math.inf:
            raise CliError(f"bad {flag}: {value} (need a finite value >= 0)",
                           EXIT_PARSE)
    return QuadratureRule(degree=args.quad_degree, tol_abs=args.tol_abs,
                          tol_rel=args.tol_rel, max_depth=args.max_depth)


def _text_lines(doc, prefix=""):
    """``key = value`` lines of a document, nested keys joined by dots."""
    for k, v in doc.items():
        if isinstance(v, dict):
            yield from _text_lines(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k} = {v}"


def _emit(args, doc):
    if args.csv:
        text = report.emit_plot_data(doc, args.csv)
    elif args.text:
        text = "\n".join(_text_lines(doc)) + "\n"
    else:
        text = report.dumps(doc)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError(f"cannot write {args.out}: {e}", EXIT_PARSE) from e
    else:
        sys.stdout.write(text)


def _cmd_validate(args):
    P = _load_polytope(args, solid=False)
    diags = P.validate_delzant()
    doc = {"polytope": P.name or "unnamed", "valid": not diags,
           "diagnostics": list(diags),
           "vertices": [[str(c) for c in v] for v in P.vertices]}
    return doc, bool(diags)


def _cmd_invariants(args):
    P = _load_polytope(args)
    W = _load_weights(args, P)
    rep = invariants.invariant_report(P, W, _rule(args), backend=args.backend)
    return report.invariant_doc(rep, name=P.name), False


def _cmd_futaki(args):
    P = _load_polytope(args)
    W = _load_weights(args, P)
    rule = _rule(args)
    beta = _vector(args.beta, "--beta", P.dim)
    val = invariants.futaki(P, W, beta, rule, backend=args.backend)
    rep = invariants.invariant_report(P, W, rule, backend=args.backend)
    doc = report.invariant_doc(rep, name=P.name)
    doc["beta"] = beta
    doc["futaki_beta"] = val
    return doc, False


def _cmd_extremal(args):
    P = _load_polytope(args)
    W = _load_weights(args, P)
    rule = _rule(args)
    rep = invariants.invariant_report(P, W, rule, backend=args.backend)
    # The Futaki scale of ``invariants.futaki``, maximised over the basis.
    width = float(np.max(np.ptp(P.vertices_floats(), axis=0)))
    return (report.invariant_doc(rep, name=P.name),
            not localize.agree(rep.extremal.residual, 0.0, width * rep.per_v))


def _cmd_soliton(args):
    P = _load_polytope(args)
    rule = _rule(args)
    res = invariants.soliton_field(P, rule)
    W = builtin("soliton", P.dim, xi=res.xi)
    rep = invariants.invariant_report(P, W, rule, backend=args.backend)
    doc = report.invariant_doc(rep, name=P.name)
    doc.update(report.soliton_doc(res))
    return doc, not (res.converged and res.normalization_consistent)


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
        doc = {"chow_table": report.chow_rows(tc, rule)}
    else:  # destabilize
        dv = testconfig.destabilizing_vertex(tc, rule)
        doc = {"product": dv.product, "l1_norm_orthogonal": dv.norm_perp}
        if not dv.product:
            doc.update({
                "vertex": [str(c) for c in dv.vertex],
                "chow_T": dv.chow_t,
                "ratio": dv.ratio,
                "ties": [[str(c) for c in v] for v in dv.ties],
            })
    return doc, False


def _cmd_blowup(args):
    P = _load_polytope(args)
    W = _load_weights(args, P)
    rule = _rule(args)
    vertex = args.vertex
    beta = _vector(args.beta, "--beta", P.dim) if args.beta else None
    tc = None
    if args.quantity in ("df", "dft"):
        tc = _load_tc(args, P, W)
    eps_max = _fraction(args.eps_max, "--eps-max") if args.eps_max else None
    if eps_max is not None and not abs(eps_max) <= sys.float_info.max:
        raise CliError(f"bad --eps-max: {args.eps_max} is past the float range",
                       EXIT_PARSE)
    start = (eps_max / 4 if eps_max is not None
             else blowup.default_eps_grid(P, vertex, 1)[0])
    # At least 4 depths, the smallest (start / 2**(n - 1)) a normal float.
    n = args.eps_points
    if n < 4 or 0 < start and math.ldexp(float(start), 1 - n) < sys.float_info.min:
        raise CliError(f"bad --eps-points: {n} (need at least 4 depths, "
                       "the smallest a normal float)", EXIT_PARSE)
    grid = tuple(start / 2 ** k for k in range(n))
    rep = blowup.verify_expansion(args.quantity, P, W, vertex, eps_grid=grid,
                                  beta=beta, tc=tc, rule=rule)
    return report.expansion_doc(rep), not rep.passed


def _cmd_report(args):
    for flag, value in (("--sample", args.sample), ("--seed", args.seed)):
        if value < 0:
            raise CliError(f"bad {flag}: {value} (need a value >= 0)", EXIT_PARSE)
    P = _load_polytope(args)
    W = _load_weights(args, P)
    rule = _rule(args)
    tcs = []
    if args.tc:
        tcs.append(_load_tc(args, P, W))
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
    return doc, (doc["verdict"].startswith("violation")
                 or not all(e["passed"] for e in doc["expansions"]))


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


@cache  # one per process: a parse builds a new namespace, never a parser
def build_parser():
    ap = argparse.ArgumentParser(
        prog="toricstab",
        description="Weighted K-stability invariants of toric manifolds "
                    "from moment-polytope data.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        _add_common(p)
        p.set_defaults(func=func)
        return p

    command("validate", _cmd_validate, "check the Delzant conditions")
    command("invariants", _cmd_invariants,
            "volume, perimeter, s_hat, Futaki, Gram, extremal field")
    p = command("futaki", _cmd_futaki, "Futaki character on a direction")
    p.add_argument("--beta", required=True)
    command("extremal-field", _cmd_extremal, "affine extremal potential")
    command("soliton", _cmd_soliton, "soliton direction on a reflexive polytope")

    p = command("testconfig", _cmd_testconfig,
                "invariants of a test configuration")
    p.add_argument("tc_command",
                   choices=("df", "dft", "norm", "chow", "destabilize"))
    p.add_argument("--tc", help="test configuration JSON file")
    p.add_argument("--beta", help="product configuration direction")

    p = command("blowup-expand", _cmd_blowup, "expansion fit under corner chops")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--quantity", required=True, choices=blowup.QUANTITIES)
    p.add_argument("--tc", help="test configuration JSON file")
    p.add_argument("--beta", help="direction for the futaki quantity")
    p.add_argument("--eps-max", help="largest admissible chop depth (rational)")
    p.add_argument("--eps-points", type=int, default=8)

    p = command("report", _cmd_report, "full stability dossier")
    p.add_argument("--tc", help="test configuration JSON file")
    p.add_argument("--sample", type=int, default=0,
                   help="add this many random PL configurations")
    p.add_argument("--expand-vertex", type=int, default=None,
                   help="include blowup expansion reports at this vertex")

    command("selftest", _cmd_selftest, "run the acceptance suite")
    return ap


def _not_finite(doc, path=""):
    """``PATH is VALUE`` for the first float of ``doc`` that is not finite."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        paths = (_not_finite(v, f"{path}.{k}" if path else str(k)) for k, v in items)
        return next(filter(None, paths), None)
    if isinstance(doc, float) and not math.isfinite(doc):
        return f"{path} is {doc}"


def main(argv=None):
    args = build_parser().parse_args(argv)
    name = " ".join(filter(None, (args.command, getattr(args, "tc_command", None))))
    try:
        # An overflow raises unless the library's own errstate ignores it.
        with np.errstate(over="raise", invalid="raise"):
            if args.func is _cmd_selftest:
                return _cmd_selftest(args)
            kind = CSV_KIND.get(name)
            if args.csv and args.csv != kind:
                has = f"only --csv {kind}" if kind else "no CSV output"
                raise CliError(f"cannot emit --csv {args.csv}: {name} has {has}",
                               EXIT_PARSE)
            doc, failed = args.func(args)
            if where := _not_finite(doc):
                raise FloatingPointError(where)
            _emit(args, doc)
        # --backend localization fails --strict on a discrepancy past the
        # agreement tolerance, on which --backend both raises.
        inv = doc.get("invariants", doc)
        failed = failed or inv.get("backend_discrepancy", 0.0) > localize.AGREE_TOL
        return EXIT_TOLERANCE if args.strict and failed else 0
    except CliError as e:
        message, code = e, e.code
    except (PolytopeError, PositivityError, ValueError) as e:
        message, code = e, EXIT_PRECONDITION
    except (invariants.BackendError, localize.ExtrapolationError) as e:
        message, code = e, EXIT_TOLERANCE
    except FloatingPointError as e:
        message, code = f"{name}: a value leaves the float range ({e})", EXIT_PRECONDITION
    sys.stderr.write(f"error: {message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

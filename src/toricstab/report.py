"""Report documents and deterministic serialisation.

Reports are plain ordered dicts rendered by a small JSON emitter with a
fixed float format (%.12e), so identical configurations produce
byte-identical output regardless of platform float repr choices.
"""

from __future__ import annotations

import io
from fractions import Fraction

import numpy as np

from . import invariants, testconfig
from .localize import agree
from .quadrature import DEFAULT_RULE

FLOAT_FORMAT = "%.12e"

#: The one global sign convention, pinned by the blowup expansion suite.
SIGN_CONVENTION = {
    "product": "df(associated_product(beta)) = futaki(beta), phi = -<x, beta>",
    "twist": "df(twist(TC, beta)) = df(TC) + futaki(beta), phi -> phi - <x, beta>",
    "chow": "chow(TC, p) = phi(p) - mean_w(phi); twist by beta adds -(<p, beta> - mean_w<x, beta>)",
    "df_expansion": "df(chop eps at p) = df - v(p) chow(p) eps^(n-1)/(n-2)! + O(eps^n)",
}


def _render(obj, out):
    if isinstance(obj, dict):
        out.write("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.write(", ")
            _render(str(k), out)
            out.write(": ")
            _render(v, out)
        out.write("}")
    elif isinstance(obj, str):
        out.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, Fraction):
        out.write('"' + str(obj) + '"')
    elif isinstance(obj, (float, np.floating)):  # finite: see ``cli.main``
        out.write(FLOAT_FORMAT % float(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.write("[")
        for i, v in enumerate(list(obj)):
            if i:
                out.write(", ")
            _render(v, out)
        out.write("]")
    else:
        raise TypeError(f"cannot serialise {type(obj)}")


def dumps(doc):
    out = io.StringIO()
    _render(doc, out)
    out.write("\n")
    return out.getvalue()


def invariant_doc(report, name=None):
    doc = {}
    if name:
        doc["polytope"] = name
    doc.update({
        "s_hat": report.s_hat,
        "futaki": list(report.futaki),
        "gram": [list(r) for r in report.gram],
        "chi": list(report.extremal.chi),
        "a": report.extremal.a,
        "extremal_residual": report.extremal.residual,
        "vol_w": report.vol_w,
        "per_v": report.per_v,
        "backend_discrepancy": report.backend_discrepancy,
    })
    return doc


def soliton_doc(result):
    return {
        "xi": list(result.xi),
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "oracle_xi": list(result.oracle_xi),
        "oracle_gap": result.oracle_gap,
        "normalization_consistent": result.normalization_consistent,
    }


def expansion_doc(r):
    doc = {
        "quantity": r.quantity,
        "vertex": [str(c) for c in r.vertex],
        "eps": [float(e) for e in r.eps_grid],
        "exact": list(r.exact),
        "predicted": {str(k): v for k, v in sorted(r.predicted.items())},
        "fitted": {str(k): v for k, v in sorted(r.fitted.items())},
        "remainder_exponent": ("inf" if r.remainder_exponent == float("inf")
                               else r.remainder_exponent),  # "inf": at roundoff
        "expected_next_order": float(r.expected_next_order),
        "coefficient_rel_error": r.coefficient_rel_error,
    }
    if r.zero_coefficient_error is not None:
        doc["zero_coefficient_error"] = r.zero_coefficient_error
        doc["zero_coefficient_floor"] = r.zero_coefficient_floor
    doc["passed"] = r.passed
    return doc


def chow_rows(tc, rule):
    """The vertex table of plain and torus-orthogonal Chow weights."""
    return [{"vertex": [str(c) for c in v], "chow": ch, "chow_T": cht}
            for v, ch, cht in testconfig.chow_T_table(tc, rule)]


def tc_doc(tc, rule):
    """The configuration's document, and its S_phi (see ``destabilizing_vertex``)."""
    chow_table = chow_rows(tc, rule)
    dv = testconfig.destabilizing_vertex(tc, rule)
    doc = {
        "df": testconfig.df(tc, rule),
        "df_T": testconfig.df_T(tc, rule),
        "l1_norm": testconfig.l1_norm(tc, rule),
        "l1_norm_orthogonal": dv.norm_perp,
        "chow_table": chow_table,
        "product": dv.product,
    }
    if not dv.product:
        doc["destabilizing_vertex"] = [str(c) for c in dv.vertex]
        doc["destabilizing_chow_T"] = dv.chow_t
        doc["chow_norm_ratio"] = dv.ratio
    return doc, dv.scale


def verdict_line(tc_docs, scales):
    """A violation is a df_T below -1e-9 times its scale S_phi Per_v."""
    violations = [d["df_T"] for d, s in zip(tc_docs, scales)
                  if d["df_T"] < 0 and not agree(d["df_T"], 0.0, s, 1e-9)]
    if violations:
        worst = min(violations)
        return (f"violation found: df_T = {FLOAT_FORMAT % worst} < 0 "
                f"w.r.t. supplied family")
    return ("relatively weighted K-semistable w.r.t. supplied family: "
            "no violations found")


def dossier(P, W, tcs=(), expansions=(), rule=None, backend="quadrature",
            name=None):
    """Full stability dossier for one polytope, weight pair and TC batch."""
    rule = rule or DEFAULT_RULE
    rep = invariants.invariant_report(P, W, rule, backend=backend)
    rows = [tc_doc(t, rule) for t in tcs]
    tc_docs = [doc for doc, _ in rows]
    return {
        "invariants": invariant_doc(rep, name=name),
        "test_configurations": tc_docs,
        "expansions": [expansion_doc(r) for r in expansions],
        "sign_convention": SIGN_CONVENTION,
        "verdict": verdict_line(tc_docs, [s * rep.per_v for _, s in rows]),
    }


def emit_plot_data(doc, kind):
    """CSV extraction from a report document.

    ``expansion`` emits (eps, exact, predicted) triples, ``chow`` the vertex
    table, ``gram`` the matrix.  The document must hold the kind's data;
    the CLI checks each command's kind before any work.
    """
    out = io.StringIO()
    if kind == "expansion":
        out.write("eps,exact,predicted\n")
        predicted = {int(k): v for k, v in doc["predicted"].items()}
        for e, y in zip(doc["eps"], doc["exact"]):
            model = sum(c * e ** k for k, c in predicted.items())
            out.write(f"{FLOAT_FORMAT % e},{FLOAT_FORMAT % y},{FLOAT_FORMAT % model}\n")
    elif kind == "chow":
        out.write("vertex,chow,chow_T\n")
        for row in doc["chow_table"]:
            vtx = " ".join(row["vertex"])
            out.write(f"\"{vtx}\",{FLOAT_FORMAT % row['chow']},{FLOAT_FORMAT % row['chow_T']}\n")
    elif kind == "gram":
        for row in doc["gram"]:
            out.write(",".join(FLOAT_FORMAT % x for x in row) + "\n")
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    return out.getvalue()

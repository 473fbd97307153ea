"""Spans and counters around each toricstab module, recorded from outside.

``install`` replaces the public callables of each module with wrappers that
open a span, call through and close it; results pass through untouched.
Every toricstab module that imported one of those callables by name (for
example ``testconfig`` imports ``integrate_simplices``) gets the same
wrapper, so no call goes uncounted.  A name a later version of the library
no longer has is skipped, and its time then shows as its caller's.

A span records its name, start, end, parent span and operation id.  A
layer's self time is the duration of its spans minus the time their child
spans cover; the single-threaded closed loop makes child spans nest strictly
inside their parent, so that is the sum of the direct children's durations.
"""

from __future__ import annotations

import gzip
import json
import sys
import weakref
from collections import Counter
from time import perf_counter

from toricstab import (_linalg, blowup, invariants, localize, polytope,
                       quadrature, testconfig)

# "bench" is the benchmark's own root span per operation (check included).
LAYERS = ("bench", "polytope", "testconfig.cells", "quadrature", "localize",
          "invariants", "testconfig", "blowup")
BIT = {name: 1 << i for i, name in enumerate(LAYERS)}
DEGENERATE = 1 << len(LAYERS)  # marks a localisation limit at degenerate xi

_POLYTOPE_METHODS = (
    "__init__", "vertices", "vertex_facets", "vertex_data",
    "genuine_facet_indices", "is_empty", "is_full_dimensional", "is_bounded",
    "validate_delzant", "contains", "interval", "facet_chart", "triangulate",
    "triangulation_floats", "volume", "vertices_floats", "translate",
    "midpoint_normalize", "unimodular_image", "admissible_chop", "corner_chop",
)
_QUADRATURE = ("integrate_simplices", "integrate", "integrate_boundary", "moments")
_LOCALIZE = ("vertex_weights", "is_generic", "eval_class", "eval_c1_class",
             "eval_at_degenerate", "directional_derivative")
_INVARIANTS = ("vol_w", "per_v", "s_hat", "futaki", "futaki_vector",
               "barycenter_w", "gram", "extremal_field", "futaki_signed",
               "soliton_field", "invariant_report")
_CACHED_SCALARS = ("vol_w", "per_v", "gram", "barycenter_w")
_TESTCONFIG = ("integrate_pl", "integrate_pl_boundary", "integrate_abs_affine",
               "df", "mean_w", "normalize_chow", "lambda_pairing",
               "gram_orthonormal_basis", "df_T", "l1_norm", "orthogonal_part",
               "chow", "chow_T", "chow_T_table", "destabilizing_vertex")
_BLOWUP = ("predict_volume_expansion", "predict_futaki_expansion",
           "predict_df_expansions", "verify_expansion", "gram_convergence")

_FAILED = object()


class Tracer:
    """In-memory span log plus per-layer self time and counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = Counter()
        self.max_error = 0.0
        self.op = -1
        self._seen_triangulations = {}
        self._cells_misses = 0

    # A frame is [span index, layer, name, parent, start, child time,
    # reached bits, duration]; lists keep the per-call cost low.
    def open(self, layer, name, mark=0):
        parent = self.stack[-1][0] if self.stack else -1
        frame = [len(self.spans), layer, name, parent, 0.0, 0.0, mark, 0.0]
        self.spans.append(None)
        self.stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def close(self, frame):
        end = perf_counter()
        self.stack.pop()
        idx, layer, name, parent, start, child, reached, _ = frame
        dur = end - start
        frame[7] = dur
        self.self_s[layer] += dur - child
        self.spans[idx] = (name, start, end, parent, self.op)
        frame[6] = reached | BIT[layer]
        if self.stack:
            up = self.stack[-1]
            up[5] += dur
            up[6] |= frame[6]

    def wrap(self, layer, name, fn, after=None, mark=0):
        def wrapper(*args, **kwargs):
            frame = self.open(layer, name, mark)
            out = _FAILED
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(frame)
                if after is not None:
                    after(frame, args, out)
        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        """Write the spans as JSON lines (gzip): name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- hooks ---------------------------------------------------------------

    def _built(self, frame, args, out):
        self.counts["polytope.built"] += 1

    def _triangulated(self, frame, args, out):
        # triangulate() is cached per polytope: count each polytope once.
        P = args[0]
        ref = self._seen_triangulations.get(id(P))
        if out is not _FAILED and (ref is None or ref() is not P):
            self._seen_triangulations[id(P)] = weakref.ref(P)
            self.counts["polytope.simplices"] += len(out)

    def _chopped(self, frame, args, out):
        self.counts["blowup.chops"] += 1

    def _cells_done(self, lru_misses):
        def after(frame, args, out):
            self.counts["testconfig.cells_s"] += frame[7]
            if out is _FAILED:
                return
            misses = lru_misses()
            if misses is None or misses > self._cells_misses:
                self.counts["testconfig.cells"] += len(out)
                self._cells_misses = misses or 0
        return after

    def _localized(self, frame, args, out):
        if self.stack and self.stack[-1][1] == "localize":
            return  # only calls entering the module from outside count
        self.counts["localize.calls"] += 1
        if frame[6] & DEGENERATE:
            self.counts["localize.degenerate_calls"] += 1
            self.counts["localize.degenerate_s"] += frame[7]

    def _invariant(self, name):
        def after(frame, args, out):
            self.counts["invariants.calls"] += 1
            reached = frame[6]
            if name in _CACHED_SCALARS and out is not _FAILED \
                    and not reached & BIT["localize"]:
                self.counts["_scalar_lookups"] += 1
                if not reached & BIT["quadrature"]:
                    self.counts["_scalar_hits"] += 1
        return after

    def _integrate_simplices(self, fn):
        nodes_cache = {}

        def nodes_per_rule(dim, rule):
            key = (dim, rule)
            if key not in nodes_cache:
                table = getattr(quadrature, "gm_table", None)
                nodes_cache[key] = (len(table(dim, rule.gm_order)[0])
                                    if table is not None and hasattr(rule, "gm_order")
                                    else 1)
            return nodes_cache[key]

        def integrate_simplices(f, simplices, *args, **kwargs):
            rule = args[0] if args else kwargs.get("rule", quadrature.DEFAULT_RULE)
            points = [0]

            def counted(x):
                points[0] += x.size // x.shape[-1]
                return f(x)

            frame = self.open("quadrature", "integrate_simplices")
            out = _FAILED
            try:
                out = fn(counted, simplices, *args, **kwargs)
                return out
            finally:
                self.close(frame)
                c = self.counts
                c["quadrature.calls"] += 1
                c["quadrature.simplices_in"] += len(simplices)
                if len(simplices):
                    c["quadrature.integrand_evals"] += (
                        points[0] / nodes_per_rule(simplices.shape[-1], rule))
                if out is not _FAILED:
                    c["quadrature.nonconverged"] += not out.converged
                    self.max_error = max(self.max_error, float(out.error))

        integrate_simplices.__wrapped__ = fn
        return integrate_simplices

    # -- metrics ---------------------------------------------------------------

    def metrics(self, wall_s, ops):
        """Per-layer metrics of a traced loop of ``ops`` operations."""
        c = self.counts
        named = sum(v for k, v in self.self_s.items() if k != "bench")
        out = {
            "polytope.self_s": (self.self_s["polytope"], "s"),
            "polytope.built": (c["polytope.built"], "count"),
            "polytope.simplices": (c["polytope.simplices"], "count"),
            "linalg.det_calls": (c["linalg.det_calls"], "count"),
            "testconfig.cells_s": (c["testconfig.cells_s"], "s"),
            "testconfig.cells": (c["testconfig.cells"], "count"),
            "quadrature.self_s": (self.self_s["quadrature"], "s"),
            "quadrature.calls": (c["quadrature.calls"], "count"),
            "quadrature.simplices_in": (c["quadrature.simplices_in"], "count"),
            "quadrature.integrand_evals": (c["quadrature.integrand_evals"], "count"),
            "quadrature.evals_per_simplex": (
                c["quadrature.integrand_evals"] / max(1, c["quadrature.simplices_in"]),
                "count"),
            "quadrature.nonconverged": (c["quadrature.nonconverged"], "count"),
            "quadrature.max_error": (self.max_error, "abs_err"),
            "localize.self_s": (self.self_s["localize"], "s"),
            "localize.calls": (c["localize.calls"], "count"),
            "localize.degenerate_calls": (c["localize.degenerate_calls"], "count"),
            "localize.degenerate_s": (c["localize.degenerate_s"], "s"),
            "invariants.self_s": (self.self_s["invariants"], "s"),
            "invariants.calls": (c["invariants.calls"], "count"),
            "invariants.cache_hit_frac": (
                c["_scalar_hits"] / max(1, c["_scalar_lookups"]), "fraction"),
            "testconfig.self_s": (self.self_s["testconfig"], "s"),
            "blowup.self_s": (self.self_s["blowup"], "s"),
            "blowup.chops": (c["blowup.chops"], "count"),
            "trace.unaccounted_frac": (1.0 - named / wall_s, "fraction"),
            "trace.wall_s": (wall_s, "s"),
            "trace.ops": (ops, "count"),
            "trace.spans": (len(self.spans), "count"),
        }
        for layer in LAYERS[1:]:
            out[f"{layer}.self_frac"] = (self.self_s[layer] / wall_s, "fraction")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def _replace(old, new):
    """Point every toricstab module's reference to ``old`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "toricstab" or modname.startswith("toricstab."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


def install(tracer):
    """Wrap the public callables of every traced module, in place."""
    cls = polytope.DelzantPolytope
    hooks = {"__init__": tracer._built, "triangulate": tracer._triangulated,
             "corner_chop": tracer._chopped}
    for name in _POLYTOPE_METHODS:
        attr = vars(cls).get(name)
        if isinstance(attr, property):
            setattr(cls, name, property(tracer.wrap("polytope", name, attr.fget)))
        elif callable(attr):
            setattr(cls, name, tracer.wrap("polytope", name, attr, hooks.get(name)))

    det = getattr(_linalg, "det", None)
    if det is not None:
        def counted_det(*args, **kwargs):
            tracer.counts["linalg.det_calls"] += 1
            return det(*args, **kwargs)
        _replace(det, counted_det)

    cells = getattr(testconfig, "_cells", None)
    if cells is not None:
        info = getattr(cells, "cache_info", None)
        misses = (lambda: info().misses) if info is not None else (lambda: None)
        tracer._cells_misses = misses() or 0
        _replace(cells, tracer.wrap("testconfig.cells", "_cells", cells,
                                    tracer._cells_done(misses)))

    simplices = getattr(quadrature, "integrate_simplices", None)
    if simplices is not None:
        _replace(simplices, tracer._integrate_simplices(simplices))
    for name in _QUADRATURE[1:]:
        fn = getattr(quadrature, name, None)
        if fn is not None:
            _replace(fn, tracer.wrap("quadrature", name, fn))

    for name in _LOCALIZE:
        fn = getattr(localize, name, None)
        if fn is not None:
            mark = DEGENERATE if name == "eval_at_degenerate" else 0
            _replace(fn, tracer.wrap("localize", name, fn, tracer._localized, mark))

    for module, layer, names, hook in (
            (invariants, "invariants", _INVARIANTS, tracer._invariant),
            (testconfig, "testconfig", _TESTCONFIG, None),
            (blowup, "blowup", _BLOWUP, None)):
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                _replace(fn, tracer.wrap(layer, name, fn,
                                         hook(name) if hook else None))

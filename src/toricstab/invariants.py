"""Base-manifold invariants assembled from polytope integrals.

All quantities are defined through the polytope normalisation

    volume class:    int_P  h^(n)(<x, xi>) dx
    boundary class:  int_dP h^(n-1)(<x, xi>) dsigma

so with weights v = f^(n)(<xi, x>), w = g^(n+1)(<xi, x>):

    Vol_w = int_P w dx,   Per_v = int_dP v dsigma,   s_hat = Per_v / Vol_w,

    F(beta) = s_hat * int_P <x, beta> w dx - int_dP <x, beta> v dsigma.

F(beta) is (minus) the classical toric Donaldson pairing in the unweighted
case and equals the invariant of the product degeneration generated by beta.
Both a cubature and a vertex-localisation evaluation path are provided and
can be run together to cross-check each other.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import reduce
from itertools import islice, product
from operator import add

import numpy as np

from . import localize, quadrature
from .localize import AGREE_TOL, agree
from .polytope import _vector
from .profiles import builtin, positivity_check, raise_unless_positive
from .quadrature import DEFAULT_RULE, Integrand


class BackendError(RuntimeError):
    """The two evaluation backends disagree beyond tolerance."""


@dataclass(frozen=True)
class ExtremalData:
    """Affine extremal potential w_ext(x) = <x, chi> + a."""

    chi: tuple
    a: float
    residual: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return x @ np.asarray(self.chi) + self.a


@dataclass(frozen=True)
class SolitonResult:
    xi: tuple
    residual: float
    iterations: int
    converged: bool
    oracle_xi: tuple
    oracle_gap: float
    normalization_consistent: bool


@dataclass(frozen=True)
class InvariantReport:
    vol_w: float
    per_v: float
    s_hat: float
    futaki: tuple
    gram: tuple
    extremal: ExtremalData
    backend_discrepancy: float


# Every cached L2 value by (tag, (dim, facets), weight key, rule), least
# recently used first: quadrature-backend scalars, beta-moments, localisation
# sums, positivity verdicts, configuration integrals and projections (by
# ToricTC.key) and blowup corner integrals.  A key holds the facets alone
# (DelzantPolytope.key, hashed once; polytope equality is (dim, facets)), so
# no entry keeps a polytope or a configuration alive; the weight key is
# WeightPair.key.  The localisation sums ("lvol", "lper") are keyed with rule
# None, apart from the cubature values.  Replaying the key streams of whole
# benchmark runs (seeds 301-302) through an LRU, none needed more than 1,788
# entries (weight_sweep; blowup_ladder 864, pl_sweep 177) to miss only where
# an unbounded cache misses, nor did runs twice that long (weight_sweep 1,897
# at seed 302, blowup_ladder 1,670 at seed 301).
_SCALAR_CACHE_SIZE = 2048
_scalar_cache = OrderedDict()


def _integrals(P, W, rule, tags, build):
    """The cached values of (P, W) at ``rule`` named by ``tags``, a tuple per
    tag.  ``build(tag)`` lists a missing tag's integrals, each as its parts
    (a list) or its value (kept as it is).  The parts of all misses take one
    :func:`quadrature.integrate_parts` call, none if there are none; a sum
    of several parts adds from 0.0 in part order, one part is its value."""
    values, missing = [], {}
    for tag in tags:
        key = (tag, P.key, W.key, rule)
        value = _scalar_cache.get(key)  # a value is a tuple
        if value is None:
            missing.setdefault(key, []).append(len(values))
        else:
            _scalar_cache.move_to_end(key)
        values.append(value)
    if not missing:
        return values
    built = [build(key[0]) for key in missing]
    parts = [p for integrals in built for ps in integrals if type(ps) is list for p in ps]
    results = iter([r.value for r in quadrature.integrate_parts(parts, rule)] if parts else ())
    for (key, at), integrals in zip(missing.items(), built):
        value = _scalar_cache[key] = tuple(
            ps if type(ps) is not list else next(results) if len(ps) == 1
            else reduce(add, islice(results, len(ps)), 0.0) for ps in integrals)
        for i in at:
            values[i] = value
    while len(_scalar_cache) > _SCALAR_CACHE_SIZE:
        _scalar_cache.popitem(last=False)
    return values


def _cached(tag, P, W, rule, compute):
    return _integrals(P, W, rule, [tag], lambda _: [compute()])[0][0]


def _scalars(P, W, rule, tags):
    """The quadrature scalars of (P, W) named by ``tags``: "vol" (Vol_w),
    "per" (Per_v), and ("mom", beta) and ("bmom", beta), the beta-moments
    of w inside and of v on the boundary (over its facets' charts, points
    in dimension 1)."""
    def build(tag):
        name, beta = (tag, None) if isinstance(tag, str) else tag
        inside = name in ("vol", "mom")
        f = Integrand(W.w_weight if inside else W.v_weight,
                      [] if beta is None else [(np.frombuffer(beta), None)])
        return [[(f, P.triangulation_floats())] if inside else quadrature.boundary_parts(P, f)]

    tags = [tag if isinstance(tag, str) else
            (tag[0], _vector(tag[1], P.dim).tobytes()) for tag in tags]
    return [value for value, in _integrals(P, W, rule, tags, build)]


def _check_backend(backend, allowed=("quadrature", "localization", "both")):
    if backend not in allowed:
        *rest, last = map(repr, allowed)
        raise ValueError(f"backend must be {', '.join(rest)} or {last}, not {backend!r}")


def vol_w(P, W, rule=DEFAULT_RULE, backend="quadrature"):
    """int_P w dx."""
    _check_backend(backend, ("quadrature", "localization"))
    if backend == "localization":
        return _cached("lvol", P, W, None,
                       lambda: localize.eval_class(P, W.g.derivative(1), W.xi))
    return _scalars(P, W, rule, ["vol"])[0]


def per_v(P, W, rule=DEFAULT_RULE, backend="quadrature"):
    """int_dP v dsigma (lattice boundary measure)."""
    _check_backend(backend, ("quadrature", "localization"))
    if backend == "localization":
        return _cached("lper", P, W, None,
                       lambda: localize.eval_c1_class(P, W.f.derivative(1), W.xi))
    return _scalars(P, W, rule, ["per"])[0]


def _require_positive(P, W):
    """profiles.require_positive with the verdicts computed once per (P, W)."""
    raise_unless_positive(_cached("pos", P, W, None, lambda: positivity_check(W, P)))


def s_hat(P, W, rule=DEFAULT_RULE, backend="quadrature"):
    """Average weighted scalar curvature Per_v / Vol_w."""
    _check_backend(backend)
    _require_positive(P, W)
    if backend == "both":
        q = per_v(P, W, rule) / vol_w(P, W, rule)
        l = (per_v(P, W, rule, "localization")
             / vol_w(P, W, rule, "localization"))
        if not agree(q, l, abs(q)):
            raise BackendError(f"s_hat backends disagree: {q} vs {l}")
        return q
    return per_v(P, W, rule, backend) / vol_w(P, W, rule, backend)


def moment_integrands(W, beta):
    """(f, g) of the beta-moments: f = <x, beta> w inside and g = <x, beta>
    v on the boundary."""
    return (Integrand(W.w_weight, [(beta, None)]),
            Integrand(W.v_weight, [(beta, None)]))


def _moment_w(P, W, beta, rule):
    return _scalars(P, W, rule, [("mom", beta)])[0]


def _moment_boundary_v(P, W, beta, rule):
    return _scalars(P, W, rule, [("bmom", beta)])[0]


def futaki(P, W, beta, rule=DEFAULT_RULE, backend="quadrature"):
    """Weighted Futaki character evaluated on beta.

    With the localisation backend the two beta-moments are directional
    derivatives of the g- and f-classes along beta.  The backends agree to
    ``AGREE_TOL`` of width_beta Per_v, width_beta the spread of <x, beta>
    over the vertices, which bounds |F|: F ignores constants added to
    <x, beta>, and s_hat Vol_w = Per_v.
    """
    _check_backend(backend)
    beta = _vector(beta, P.dim)
    if backend == "both":
        q = futaki(P, W, beta, rule, "quadrature")
        l = futaki(P, W, beta, rule, "localization")
        width = float(np.ptp(P.vertices_floats() @ beta))
        if not agree(q, l, width * per_v(P, W, rule)):
            raise BackendError(f"futaki backends disagree: {q} vs {l}")
        return q
    if backend == "localization":
        sh = s_hat(P, W, rule, "localization")
        mom = localize.directional_derivative("volume", P, W.g, W.xi, beta)
        bmom = localize.directional_derivative("c1", P, W.f, W.xi, beta)
        return sh * mom - bmom
    sh = s_hat(P, W, rule)
    mom, bmom = _scalars(P, W, rule, [("mom", beta), ("bmom", beta)])
    return sh * mom - bmom


def futaki_vector(P, W, rule=DEFAULT_RULE, backend="quadrature"):
    """F evaluated on the standard lattice basis."""
    return tuple(futaki(P, W, b, rule, backend) for b in np.eye(P.dim))


def barycenter_w(P, W, rule=DEFAULT_RULE):
    """w-weighted barycenter of the polytope."""
    def compute():
        vw, *moments = _scalars(P, W, rule, ["vol", *(("mom", e) for e in np.eye(P.dim))])
        return tuple(m / vw for m in moments)

    return np.array(_cached("bary", P, W, rule, compute))


def gram(P, W, basis=None, rule=DEFAULT_RULE):
    """Weighted inner product matrix of centered affine generators.

    G_ij = int_P (<x, b_i> - mean_i)(<x, b_j> - mean_j) w dx, which is
    symmetric positive definite for a linearly independent basis.
    """
    if basis is None:
        basis = np.eye(P.dim)
    basis = np.asarray(basis, dtype=float)

    def compute():  # a dependent basis raises here, so it is never cached
        if np.linalg.matrix_rank(basis) < len(basis):
            raise ValueError("gram basis is linearly dependent")
        vw, *moments = _scalars(P, W, rule, ["vol", *(("mom", b) for b in basis)])
        means = np.array(moments) / vw
        tri = P.triangulation_floats()
        results = quadrature.integrate_parts(
            [(f, tri) for f in gram_integrands(W, basis, means)], rule)
        r, (i, j) = len(basis), np.triu_indices(len(basis))
        g = np.zeros((r, r))
        g[i, j] = g[j, i] = [res.value for res in results]
        return tuple(tuple(row) for row in g)

    return np.array(_cached(("gram", basis.tobytes()), P, W, rule, compute))


def gram_integrands(W, basis, means):
    """The Gram second moments (<x, b_i> - m_i)(<x, b_j> - m_j) w, one per
    i <= j in np.triu_indices order."""
    r = len(basis)
    return [Integrand(W.w_weight, [(basis[i], -means[i]), (basis[j], -means[j])])
            for i in range(r) for j in range(i, r)]


def extremal_field(P, W, rule=DEFAULT_RULE):
    """The unique affine candidate w_ext = <x, chi> + a, from :func:`invariant_report`.

    chi solves G chi = -F in the standard basis, and a matches the w-average
    of w_ext to s_hat.  The returned residual is the worst violation of
    F(beta) + <w_ext, beta> = 0 over the basis directions.
    """
    return invariant_report(P, W, rule).extremal


def futaki_signed(P, W, affine, beta, rule=DEFAULT_RULE):
    """Futaki pairing with the signed second weight w' = (affine) * w.

    ``affine`` is an ExtremalData or a pair (chi, a).  The average uses
    Per_v / int w' when the w'-mass is nonzero; for sign-balanced w' with
    vanishing mass (at most 1e-12 of max_v |<v, chi> + a| Vol_w, which
    bounds int |w'|), the average is replaced by 1.
    """
    if isinstance(affine, ExtremalData):
        chi, a = np.asarray(affine.chi, dtype=float), affine.a
    else:
        chi, a = np.asarray(affine[0], dtype=float), float(affine[1])
    beta = np.asarray(beta, dtype=float)

    wprime = Integrand(W.w_weight, [(chi, a)])
    mass = quadrature.integrate(P, wprime, rule).value
    bound = float(np.max(np.abs(P.vertices_floats() @ chi + a))) * vol_w(P, W, rule)
    sh = 1.0 if agree(mass, 0.0, bound, 1e-12) else per_v(P, W, rule) / mass
    # <x, beta> times w': (<x, beta> (<x, chi> + a)) w rounds apart.
    mom = quadrature.integrate(P, Integrand(wprime, [(beta, None)]), rule).value
    bmom = _moment_boundary_v(P, W, beta, rule)
    return sh * mom - bmom


def soliton_field(P, rule=DEFAULT_RULE):
    """Soliton direction on a reflexive polytope by damped Newton iteration.

    From xi = 0, up to 50 steps bring the residual to 1e-10.  At each xi
    the exponential weights v = w = exp(<xi, x>) give a Futaki character
    F_xi and a Gram form G_xi; the soliton equation is the self-consistency
    of the extremal direction,

        R(xi)(beta) = F_xi(beta) + <xi, beta>_{G_xi} = 0 for all beta,

    whose solution is the unique critical point of the strictly convex
    volume xi -> int_P exp(<xi, x>) dx.  That critical point, found by
    direct minimisation of the closed-form volume, serves as an independent
    oracle; a gap past 1e-8 is flagged as a normalisation inconsistency.
    """
    n = P.dim
    if any(f.offset != 1 for f in P.facets):
        raise ValueError(
            "soliton_field needs a reflexive polytope (all facet offsets 1)")

    def residual(xi):  # the weights W at xi, their Gram form g and R(xi)
        W = builtin("soliton", n, xi=xi)
        g = gram(P, W, rule=rule)
        return W, g, np.array([futaki(P, W, e, rule) for e in np.eye(n)]) + g @ xi

    xi, resid, iterations = np.zeros(n), np.full(n, np.inf), 0
    for iterations in range(1, 51):
        W, g, resid = residual(xi)
        if float(np.max(np.abs(resid))) <= 1e-10:
            break
        vw = vol_w(P, W, rule)
        bary = barycenter_w(P, W, rule)
        m = g + vw * np.outer(bary, bary)
        step = np.linalg.solve(m, resid)
        # Damped update: R is the negative exponential barycenter, whose
        # Jacobian is -m.
        scale = 1.0
        for _ in range(30):
            cand = xi + scale * step
            rc = residual(cand)[2]
            if np.linalg.norm(rc) < np.linalg.norm(resid) or scale < 1e-4:
                xi = cand
                break
            scale *= 0.5
    converged = float(np.max(np.abs(resid))) <= 1e-10
    oracle = soliton_oracle(P)
    gap = float(np.max(np.abs(np.asarray(oracle) - xi)))
    return SolitonResult(tuple(float(c) for c in xi),
                         float(np.max(np.abs(resid))), iterations, converged,
                         tuple(float(c) for c in oracle), gap,
                         gap <= 1e-8)


def soliton_oracle(P):
    """Critical point of xi -> int_P exp(<xi, x>) dx.

    Damped Newton on the strictly convex log-volume, entirely from the
    closed-form exponential moments (divided differences) and so independent
    of the cubature and Futaki/Gram machinery: the gradient is the
    exponential barycenter, the Hessian its covariance, and a step is halved
    while the volume rises (beyond 1e-12 relative, its rounding noise).
    """
    basis = np.eye(P.dim, dtype=int)

    def moment(m, xi):
        return quadrature.moments(P, m, xi, "exponential")

    xi = np.zeros(P.dim)
    for _ in range(100):
        vol = moment(None, xi)
        bary = np.array([moment(a, xi) for a in basis]) / vol
        second = np.array([[moment(a + b, xi) for b in basis]
                           for a in basis]) / vol
        step = np.linalg.solve(second - np.outer(bary, bary), -bary)
        while (np.max(np.abs(step)) > 1e-12
               and moment(None, xi + step) > vol * (1 + 1e-12)):
            step /= 2
        xi = xi + step
        if np.max(np.abs(step)) <= 1e-12:
            break
    return tuple(float(c) for c in xi)


def invariant_report(P, W, rule=DEFAULT_RULE, backend="quadrature"):
    """Assemble the headline invariants, optionally cross-checking backends."""
    _check_backend(backend)
    _require_positive(P, W)
    n, local = P.dim, backend != "quadrature"
    if local:  # First: a report on which localisation raises integrates nothing.
        vw_l, pv_l = vol_w(P, W, rule, "localization"), per_v(P, W, rule, "localization")
    # One call: a report that fails the check has integrated its moments too.
    vw_q, pv_q, *moments = _scalars(P, W, rule, ["vol", "per", *product(("mom", "bmom"),
                                                                        np.eye(n))])
    # Both are positive: the positivity gate has passed.
    discrepancy = max(abs(vw_q - vw_l) / vw_q, abs(pv_q - pv_l) / pv_q) if local else 0.0
    if backend == "both" and not (agree(vw_q, vw_l, vw_q) and agree(pv_q, pv_l, pv_q)):
        raise BackendError(f"backend discrepancy {discrepancy:.3e} exceeds {AGREE_TOL}")
    sh, mom, bmom = pv_q / vw_q, moments[:n], moments[n:]  # product lists every "mom" first
    fvec = tuple(sh * m - b for m, b in zip(mom, bmom))  # as futaki builds it
    f, g = np.array(fvec), gram(P, W, rule=rule)
    try:  # the extremal field: G chi = -F, and a matches the w-barycenter to s_hat
        chi = np.linalg.solve(g, -f)
    except np.linalg.LinAlgError as e:
        raise ValueError(f"gram matrix is singular: {e}") from e
    ext = ExtremalData(tuple(float(c) for c in chi), sh - float(chi @ (np.array(mom) / vw_q)),
                       float(np.max(np.abs(f + g @ chi))))
    return InvariantReport(vw_q, pv_q, sh, fvec,
                           tuple(tuple(float(x) for x in row) for row in g),
                           ext, discrepancy)

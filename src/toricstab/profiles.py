"""Analytic weight profiles and the weight pairs they induce.

A weight pair consists of a direction ``xi`` in the torus Lie algebra and two
analytic profiles ``f``, ``g`` of one real variable.  The weights on the
moment polytope are the pulled-back derivatives

    v(x) = f^(n)(<xi, x>),        w(x) = g^(n+1)(<xi, x>),

and the localisation backend additionally evaluates ``f`` and ``g``
themselves at vertex values of ``<xi, x>``.  Every built-in profile carries
closed-form derivatives and antiderivatives of all orders, so no truncation
error enters anywhere except for the explicitly second-class power-series
variant.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np


class ProfileDomainError(ValueError):
    """Evaluation outside the profile's interval of analyticity."""


class PositivityError(ValueError):
    """A weight fails to be positive on the polytope."""


def _falling(p, k):
    """p (p-1) ... (p-k+1) for integer or Fraction p."""
    out = Fraction(1)
    for i in range(k):
        out *= (Fraction(p) - i)
    return out


class Profile:
    """Base class; subclasses are immutable closed-form profiles."""

    #: open interval of analyticity (floats, +-inf allowed)
    domain = (-math.inf, math.inf)

    def value(self, t):
        raise NotImplementedError

    def derivative(self, k=1):
        raise NotImplementedError

    def antiderivative(self, k=1):
        raise NotImplementedError

    def shift_arg(self, s):
        """Profile of t -> self(t - s)."""
        raise NotImplementedError

    def __call__(self, t):
        return self.value(t)


@dataclass(frozen=True)
class Monomial(Profile):
    """t^k / k!  (the constant-weight generators)."""

    k: int

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = t ** self.k / math.factorial(self.k)
        return out if out.ndim else float(out)

    def derivative(self, k=1):
        if k > self.k:
            return Polynomial((Fraction(0),))
        return Monomial(self.k - k)

    def antiderivative(self, k=1):
        return Monomial(self.k + k)

    def shift_arg(self, s):
        # binomial expansion of (t - s)^k / k!
        s = Fraction(s)
        coeffs = [Fraction(0)] * (self.k + 1)
        for j in range(self.k + 1):
            coeffs[j] = (Fraction(math.comb(self.k, j)) * (-s) ** (self.k - j)
                         / math.factorial(self.k))
        return Polynomial(tuple(coeffs))


@dataclass(frozen=True)
class Exponential(Profile):
    """a * e^t."""

    a: float = 1.0

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = self.a * np.exp(t)
        return out if out.ndim else float(out)

    def derivative(self, k=1):
        return self

    def antiderivative(self, k=1):
        return self

    def shift_arg(self, s):
        return Exponential(self.a * math.exp(-float(s)))


@dataclass(frozen=True)
class PowerLaw(Profile):
    """a * (b + t)^p on the interval b + t > 0."""

    a: Fraction
    b: Fraction
    p: Fraction

    @cached_property
    def _floats(self):
        return float(self.a), float(self.b), float(self.p)

    @cached_property
    def _hash(self):
        return hash((self.a, self.b, self.p))

    def __hash__(self):
        # Weight cache keys hash their profiles; each hash of a Fraction
        # is a Python-level call.
        return self._hash

    @property
    def domain(self):
        return (-float(self.b), math.inf)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        a, b, p = self._floats
        base = b + t
        if np.any(base <= 0):
            raise ProfileDomainError(
                f"power-law pole: b + t <= 0 at b={self.b}"
            )
        out = a * base ** p
        return out if out.ndim else float(out)

    def derivative(self, k=1):
        a = Fraction(self.a) * _falling(self.p, k)
        if a == 0:
            return Polynomial((Fraction(0),))
        return PowerLaw(a, self.b, Fraction(self.p) - k)

    def antiderivative(self, k=1):
        prof = self
        for _ in range(k):
            p = Fraction(prof.p)
            if p == -1:
                prof = Log(Fraction(prof.a), prof.b)
            else:
                prof = PowerLaw(Fraction(prof.a) / (p + 1), prof.b, p + 1)
        return prof

    def shift_arg(self, s):
        return PowerLaw(self.a, Fraction(self.b) - Fraction(s), self.p)


@dataclass(frozen=True)
class Log(Profile):
    """a * log(b + t); appears as an antiderivative of 1/(b+t)."""

    a: Fraction
    b: Fraction

    @cached_property
    def _floats(self):
        return float(self.a), float(self.b)

    @cached_property
    def _hash(self):
        return hash((self.a, self.b))

    def __hash__(self):
        return self._hash

    @property
    def domain(self):
        return (-float(self.b), math.inf)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        a, b = self._floats
        base = b + t
        if np.any(base <= 0):
            raise ProfileDomainError(f"log singularity: b + t <= 0 at b={self.b}")
        out = a * np.log(base)
        return out if out.ndim else float(out)

    def derivative(self, k=1):
        if k == 0:
            return self
        return PowerLaw(self.a, self.b, Fraction(-1)).derivative(k - 1)

    def shift_arg(self, s):
        return Log(self.a, Fraction(self.b) - Fraction(s))


@dataclass(frozen=True)
class Polynomial(Profile):
    """sum coeffs[j] t^j with exact rational coefficients."""

    coeffs: tuple

    @staticmethod
    def make(coeffs):
        cs = tuple(Fraction(c) for c in coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        return Polynomial(cs)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t, dtype=float)
        for c in reversed(self.coeffs):
            out = out * t + float(c)
        return out if out.ndim else float(out)

    def derivative(self, k=1):
        cs = list(self.coeffs)
        for _ in range(k):
            cs = [Fraction(j) * cs[j] for j in range(1, len(cs))] or [Fraction(0)]
        return Polynomial.make(cs)

    def antiderivative(self, k=1):
        cs = list(self.coeffs)
        for _ in range(k):
            cs = [Fraction(0)] + [c / (j + 1) for j, c in enumerate(cs)]
        return Polynomial.make(cs)

    def shift_arg(self, s):
        s = Fraction(s)
        n = len(self.coeffs)
        out = [Fraction(0)] * n
        for j, c in enumerate(self.coeffs):
            for i in range(j + 1):
                out[i] += c * math.comb(j, i) * (-s) ** (j - i)
        return Polynomial.make(out)


@dataclass(frozen=True)
class PowerSeries(Profile):
    """sum coeffs[j] t^j, convergent for |t| < radius.

    Second-class citizen: derivatives are term-wise (still a power series),
    truncation enters only through the stored coefficients, and the radius is
    checked on every evaluation.
    """

    coeffs: tuple
    radius: float

    @staticmethod
    def make(coeffs, radius):
        return PowerSeries(tuple(Fraction(c) for c in coeffs), float(radius))

    @property
    def domain(self):
        return (-self.radius, self.radius)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(np.abs(t) >= self.radius):
            raise ProfileDomainError(
                f"power series evaluated at |t| >= radius {self.radius}"
            )
        out = np.zeros_like(t, dtype=float)
        for c in reversed(self.coeffs):
            out = out * t + float(c)
        return out if out.ndim else float(out)

    def derivative(self, k=1):
        cs = list(self.coeffs)
        for _ in range(k):
            cs = [Fraction(j) * cs[j] for j in range(1, len(cs))] or [Fraction(0)]
        return PowerSeries(tuple(cs), self.radius)


def profile_from_json(doc):
    kind = doc["variant"]
    if kind == "monomial":
        return Monomial(int(doc["k"]))
    if kind == "exponential":
        return Exponential(float(doc.get("a", 1.0)))
    if kind == "powerlaw":
        return PowerLaw(Fraction(str(doc["a"])), Fraction(str(doc["b"])),
                        Fraction(str(doc["p"])))
    if kind == "log":
        return Log(Fraction(str(doc["a"])), Fraction(str(doc["b"])))
    if kind == "polynomial":
        return Polynomial.make([Fraction(str(c)) for c in doc["coeffs"]])
    if kind == "powerseries":
        return PowerSeries.make([Fraction(str(c)) for c in doc["coeffs"]],
                                doc["radius"])
    raise ValueError(f"unknown profile variant {kind!r}")


def profile_to_json(p):
    if isinstance(p, Monomial):
        return {"variant": "monomial", "k": p.k}
    if isinstance(p, Exponential):
        return {"variant": "exponential", "a": p.a}
    if isinstance(p, PowerLaw):
        return {"variant": "powerlaw", "a": str(p.a), "b": str(p.b), "p": str(p.p)}
    if isinstance(p, Log):
        return {"variant": "log", "a": str(p.a), "b": str(p.b)}
    if isinstance(p, Polynomial):
        return {"variant": "polynomial", "coeffs": [str(c) for c in p.coeffs]}
    if isinstance(p, PowerSeries):
        return {"variant": "powerseries", "coeffs": [str(c) for c in p.coeffs],
                "radius": p.radius}
    raise TypeError(f"not a profile: {p!r}")


class WeightPair:
    """Direction xi plus profiles f, g inducing v = f^(n), w = g^(n+1).

    ``xi`` is a read-only copy of the direction given, so ``key``, the
    ``(n, xi, f, g)`` tuple that caches of weight-dependent values are keyed
    by, is built once here and stays true to the pair.
    """

    def __init__(self, xi, f, g, n, family=None):
        self.xi = np.array(xi, dtype=float)
        self.xi.flags.writeable = False
        self.n = int(n)
        if self.xi.shape != (self.n,):
            raise ValueError(
                f"xi has shape {self.xi.shape}, expected ({self.n},)")
        self.f = f
        self.g = g
        self.family = family
        self.key = (self.n, tuple(self.xi.tolist()), f, g)
        self._v = f.derivative(self.n)
        self._w = g.derivative(self.n + 1)

    @property
    def v_profile(self):
        return self._v

    @property
    def w_profile(self):
        return self._w

    def pair(self, x):
        """<xi, x> for a point or an (N, n) array of points."""
        x = np.asarray(x, dtype=float)
        return x @ self.xi

    def v(self, x):
        return self._v.value(self.pair(x))

    def w(self, x):
        return self._w.value(self.pair(x))

    def eval_weight(self, which, x):
        if which == "v":
            return self.v(x)
        if which == "w":
            return self.w(x)
        raise ValueError("which must be 'v' or 'w'")

    def recentered(self, shift):
        """Weight pair for the polytope translated so <xi, x> gains ``shift``.

        The profiles are precomposed with t -> t - shift, leaving v and w
        pointwise unchanged on the translated polytope.
        """
        s = Fraction(shift) if not isinstance(shift, Fraction) else shift
        return WeightPair(self.xi, self.f.shift_arg(s), self.g.shift_arg(s),
                          self.n, family=self.family)


def builtin(name, n, xi=None, a=None):
    """Construct one of the standard weight families.

    cscK / extremal use constant weights; soliton uses v = w = exp(<xi, x>);
    sasaki and ckem use the power weights (a + <xi, x>)^p with the exponent
    pairs (-n-1, -n-3) and (-2n+1, -2n-1).  For the power families ``f`` and
    ``g`` are produced by closed-form antidifferentiation of the target
    weight, with all integration constants set to zero.
    """
    n = int(n)
    if xi is None:
        xi = [0.0] * n
    name = name.lower()
    if name in ("csck", "extremal"):
        return WeightPair(xi, Monomial(n), Monomial(n + 1), n, family=name)
    if name == "soliton":
        return WeightPair(xi, Exponential(), Exponential(), n, family=name)
    if name in ("sasaki", "ckem"):
        if a is None:
            raise ValueError(f"{name} weights need the parameter a")
        a = Fraction(a)
        if not abs(a) <= sys.float_info.max:
            raise ValueError(f"{name} weights need |a| within the float range")
        pv = Fraction(-n - 1) if name == "sasaki" else Fraction(-2 * n + 1)
        pw = Fraction(-n - 3) if name == "sasaki" else Fraction(-2 * n - 1)
        f = PowerLaw(Fraction(1), a, pv).antiderivative(n)
        g = PowerLaw(Fraction(1), a, pw).antiderivative(n + 1)
        return WeightPair(xi, f, g, n, family=name)
    raise ValueError(f"unknown weight family {name!r}")


def weights_from_json(doc, n):
    xi = [float(c) for c in doc.get("xi", [0.0] * n)]
    if not all(map(math.isfinite, xi)):
        raise ValueError(f"xi {xi} has a non-finite component")
    family = doc.get("family", "custom")
    if "profiles" in doc and doc["profiles"]:
        f = profile_from_json(doc["profiles"]["f"])
        g = profile_from_json(doc["profiles"]["g"])
        return WeightPair(xi, f, g, n, family=family)
    params = doc.get("params", {})
    a = params.get("a")
    return builtin(family, n, xi=xi, a=a)


def weights_to_json(w):
    return {
        "xi": [float(c) for c in w.xi],
        "family": w.family or "custom",
        "params": {},
        "profiles": {"f": profile_to_json(w.f), "g": profile_to_json(w.g)},
    }


@dataclass(frozen=True)
class PositivityVerdict:
    positive: bool
    margin: float
    witness: object
    certified: bool
    detail: str


def _check_profile_positive(prof, lo, hi, samples=512):
    """Lower bound for a profile on [lo, hi]; certified where closed forms allow."""
    if isinstance(prof, Exponential):
        if prof.a <= 0:
            return (False, prof.a * math.exp(hi), lo, True,
                    "exponential with non-positive coefficient")
        return (True, prof.a * math.exp(lo), None, True, "exponential is positive")
    if isinstance(prof, (PowerLaw, Log)):
        pole = -float(prof.b)
        if pole >= lo:
            return (False, -math.inf, pole, True,
                    f"pole of (b + t) at t = {pole} inside [{lo}, {hi}]")
        if isinstance(prof, PowerLaw):
            # (b + t)^p > 0 on the domain, so the sign is the sign of a.
            if prof.a <= 0:
                return (False, float(prof.a), lo, True, "negative coefficient")
            vals = prof.value(np.array([lo, hi]))
            return (True, float(min(vals)), None, True,
                    "positive power law, monotone between endpoints")
    if isinstance(prof, (Monomial, Polynomial)):
        poly = prof if isinstance(prof, Polynomial) else prof.shift_arg(0)
        coeffs = [float(c) for c in poly.coeffs]
        pts = [lo, hi]
        if len(coeffs) > 1:
            roots = np.roots(list(reversed(coeffs)))
            for r in roots:
                if abs(r.imag) < 1e-9 and lo - 1e-12 <= r.real <= hi + 1e-12:
                    pts.append(float(r.real))
        pts = sorted(pts)
        # Evaluate at candidate minima and between consecutive roots.
        probes = pts + [(pts[i] + pts[i + 1]) / 2 for i in range(len(pts) - 1)]
        vals = poly.value(np.array(probes))
        i = int(np.argmin(vals))
        margin = float(vals[i])
        if margin <= 0:
            return (False, margin, probes[i], True,
                    f"polynomial is non-positive at t = {probes[i]}")
        return (True, margin, None, True, "no real root in the interval")
    # Fallback: dense sampling with interval padding (power series, log tails).
    pad = 0.01 * (hi - lo + 1e-12)
    grid_lo = max(lo - pad, prof.domain[0] + 1e-12) if math.isfinite(prof.domain[0]) else lo - pad
    grid_hi = min(hi + pad, prof.domain[1] - 1e-12) if math.isfinite(prof.domain[1]) else hi + pad
    ts = np.linspace(grid_lo, grid_hi, samples)
    vals = np.asarray(prof.value(ts))
    i = int(np.argmin(vals))
    margin = float(vals[i])
    if margin <= 0:
        return (False, margin, float(ts[i]), False,
                f"sampled non-positive value at t = {ts[i]}")
    return (True, margin, None, False, "positive on a dense sample grid")


def positivity_check(weights, polytope):
    """Verify v > 0 and w > 0 on the polytope, with a margin.

    Returns a dict with per-weight verdicts; closed-form variants give
    certified bounds, the power-series variant is sample-based.
    """
    lo, hi = polytope.interval([Fraction(c) for c in weights.xi])
    lo, hi = float(lo), float(hi)
    out = {}
    for which, prof in (("v", weights.v_profile), ("w", weights.w_profile)):
        if lo <= prof.domain[0] or hi >= prof.domain[1]:
            out[which] = PositivityVerdict(
                False, -math.inf, prof.domain[0], True,
                f"analyticity domain {prof.domain} does not cover [{lo}, {hi}]")
            continue
        ok, margin, witness, certified, detail = _check_profile_positive(prof, lo, hi)
        out[which] = PositivityVerdict(ok, margin, witness, certified, detail)
    return out


def raise_unless_positive(verdicts):
    """Raise PositivityError naming every failed verdict; return the verdicts."""
    bad = [w for w, v in verdicts.items() if not v.positive]
    if bad:
        msgs = "; ".join(f"{w}: {verdicts[w].detail}" for w in bad)
        raise PositivityError(f"weight positivity fails ({msgs})")
    return verdicts


def require_positive(weights, polytope):
    return raise_unless_positive(positivity_check(weights, polytope))

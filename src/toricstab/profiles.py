"""Analytic weight profiles and the weight pairs they induce.

A weight pair consists of a direction ``xi`` in the torus Lie algebra and two
analytic profiles ``f``, ``g`` of one real variable.  The weights on the
moment polytope are the pulled-back derivatives

    v(x) = f^(n)(<xi, x>),        w(x) = g^(n+1)(<xi, x>),

and the localisation backend additionally evaluates ``f`` and ``g``
themselves at vertex values of ``<xi, x>``.  Every profile has closed-form
derivatives of all orders (a power series is the polynomial of its stored
coefficients), and the positivity of v and w is decided exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction

import numpy as np

from .polytope import _HashedTuple


class ProfileDomainError(ValueError):
    """Evaluation outside the profile's interval of analyticity."""


class PositivityError(ValueError):
    """A weight fails to be positive on the polytope."""


class Profile:
    """Base class of immutable closed-form profiles with ``value(t)`` and
    ``derivative(k)``.  The polynomial variants (monomial, polynomial, power
    series) give exact ``coeffs``; the others are monotone on their domain.
    """

    #: open interval of analyticity (floats, +-inf allowed)
    domain = (-math.inf, math.inf)
    #: polynomial degree, or None for a profile that is not a polynomial
    degree = None

    def shift_arg(self, s):
        """Profile of t -> self(t - s)."""
        raise NotImplementedError

    # The field values and their hash, once: weight cache keys hash their
    # profiles, and each hash of a Fraction is a Python-level call.
    @cached_property
    def _key(self):
        values = tuple([getattr(self, name) for name in self.__dataclass_fields__])
        return values, hash(values)

    def __eq__(self, other):
        return type(other) is type(self) and other._key[0] == self._key[0]

    def __hash__(self):
        return self._key[1]


@dataclass(frozen=True, eq=False)
class Monomial(Profile):
    """t^k / k!  (the constant-weight generators)."""

    k: int

    @property
    def degree(self):
        return self.k

    @property
    def coeffs(self):
        return (Fraction(0),) * self.k + (Fraction(1, math.factorial(self.k)),)

    def value(self, t):
        out = np.asarray(t, dtype=float) ** self.k / math.factorial(self.k)
        return out if out.ndim else float(out)

    def derivative(self, k=1):
        return Monomial(self.k - k) if k <= self.k else Polynomial((Fraction(0),))

    def shift_arg(self, s):
        return Polynomial(self.coeffs).shift_arg(s)


@dataclass(frozen=True, eq=False)
class Exponential(Profile):
    """a * e^t."""

    a: float = 1.0

    def value(self, t):
        out = self.a * np.exp(np.asarray(t, dtype=float))
        return out if out.ndim else float(out)

    def derivative(self, k=1):
        return self

    def shift_arg(self, s):
        return Exponential(self.a * math.exp(-float(s)))


@dataclass(frozen=True, eq=False)
class _Pole(Profile):
    """a * h(b + t) on the interval b + t > 0: a power law or a log."""

    a: Fraction
    b: Fraction

    @cached_property
    def _floats(self):
        return tuple(map(float, self._key[0]))

    @property
    def domain(self):
        return (-float(self.b), math.inf)

    def value(self, t):
        base = self._floats[1] + np.asarray(t, dtype=float)
        if np.any(base <= 0):
            raise ProfileDomainError(f"{self._pole}: b + t <= 0 at b={self.b}")
        out = self._floats[0] * self._h(base)
        return out if out.ndim else float(out)

    def shift_arg(self, s):
        return replace(self, b=Fraction(self.b) - Fraction(s))


@dataclass(frozen=True, eq=False)
class PowerLaw(_Pole):
    """a * (b + t)^p on the interval b + t > 0."""

    p: Fraction
    _pole = "power-law pole"

    def _h(self, base):
        return base ** self._floats[2]

    @cached_property
    def _order(self):  # k if p is the negative integer -k, else None
        p = Fraction(self.p)
        return -p.numerator if p < 0 and p.denominator == 1 else None

    def derivative(self, k=1):  # a p (p-1) ... (p-k+1) (b + t)^(p-k)
        p = Fraction(self.p)
        a = math.prod((p - i for i in range(k)), start=Fraction(self.a))
        return PowerLaw(a, self.b, p - k) if a else Polynomial((Fraction(0),))

    def antiderivative(self, k=1):
        prof = self
        for _ in range(k):
            a, p = Fraction(prof.a), Fraction(prof.p) + 1
            prof = Log(a, prof.b) if p == 0 else PowerLaw(a / p, prof.b, p)
        return prof


@dataclass(frozen=True, eq=False)
class Log(_Pole):
    """a * log(b + t); appears as an antiderivative of 1/(b+t)."""

    _pole = "log singularity"
    _h = staticmethod(np.log)

    def derivative(self, k=1):
        return PowerLaw(self.a, self.b, Fraction(-1)).derivative(k - 1) if k else self


@dataclass(frozen=True, eq=False)
class Polynomial(Profile):
    """sum coeffs[j] t^j with exact rational coefficients."""

    coeffs: tuple

    @staticmethod
    def make(coeffs):
        cs = tuple(Fraction(c) for c in coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        return Polynomial(cs)

    def _like(self, coeffs):  # the same variant with other coefficients
        return Polynomial.make(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

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
        return self._like(cs)

    def shift_arg(self, s):
        s = Fraction(s)
        return Polynomial.make(
            sum(c * math.comb(j, i) * (-s) ** (j - i)
                for j, c in enumerate(self.coeffs[i:], i))
            for i in range(len(self.coeffs)))


@dataclass(frozen=True, eq=False)
class PowerSeries(Polynomial):
    """sum coeffs[j] t^j, convergent for |t| < radius: a polynomial that
    is evaluated only inside its radius and is not declared a polynomial to
    the cubature (``degree`` None).  It keeps trailing zero coefficients."""

    radius: float
    degree = None
    shift_arg = Profile.shift_arg  # another centre moves the disc

    @staticmethod
    def make(coeffs, radius):
        return PowerSeries(tuple(Fraction(c) for c in coeffs), float(radius))

    def _like(self, coeffs):
        return PowerSeries(tuple(coeffs), self.radius)

    @property
    def domain(self):
        return (-self.radius, self.radius)

    def value(self, t):
        if np.any(np.abs(np.asarray(t, dtype=float)) >= self.radius):
            raise ProfileDomainError(
                f"power series evaluated at |t| >= radius {self.radius}")
        return super().value(t)


# A profile file may give a polynomial variant of degree at most MAX_DEGREE
# whose coefficients, over their least common denominator, are integers of
# at most MAX_BITS bits.  That keeps the Sturm count of its weights under
# 0.1 s, and the k! of Monomial.value a float.
MAX_DEGREE = 24
MAX_BITS = 128


def _integers(coeffs):
    """Over the least common denominator, without leading zeros."""
    den = math.lcm(*(c.denominator for c in coeffs))
    out = [c.numerator * (den // c.denominator) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _reader(convert, ok, what):
    """Reads a JSON number or string by ``convert``; refuses one not ``ok``."""
    def read(x):
        if not ok(y := convert(str(x))):
            raise ValueError(f"{x} is {what}")
        return y
    return read


_rational = _reader(Fraction, lambda q: abs(q) <= sys.float_info.max,
                    "outside the float range")
_real = _reader(float, math.isfinite, "not a finite number")
_radius = _reader(float, lambda r: 0 < r < math.inf, "not a positive finite radius")
_degree = _reader(int, lambda k: 0 <= k <= MAX_DEGREE,
                  f"not a degree in 0..{MAX_DEGREE}")


def _coeffs(x):
    if type(x) is not list or not 1 <= len(x) <= MAX_DEGREE + 1:
        raise ValueError(f"coefficients need a list of 1 to {MAX_DEGREE + 1} numbers")
    cs = [_rational(c) for c in x]
    if max(abs(c).bit_length() for c in _integers(cs)) > MAX_BITS:
        raise ValueError(f"coefficients exceed {MAX_BITS} bits over their least "
                         "common denominator")
    return cs


def _strs(cs):
    return [str(c) for c in cs]


# The JSON form of each variant: its class, its constructor, and a reader
# and a writer for each field.
_VARIANTS = {
    "monomial": (Monomial, Monomial, {"k": (_degree, int)}),
    "exponential": (Exponential, Exponential, {"a": (_real, float)}),
    "powerlaw": (PowerLaw, PowerLaw, {"a": (_rational, str), "b": (_rational, str),
                                      "p": (_rational, str)}),
    "log": (Log, Log, {"a": (_rational, str), "b": (_rational, str)}),
    "polynomial": (Polynomial, Polynomial.make, {"coeffs": (_coeffs, _strs)}),
    "powerseries": (PowerSeries, PowerSeries.make,
                    {"coeffs": (_coeffs, _strs), "radius": (_radius, float)}),
}


def profile_from_json(doc):
    if doc["variant"] not in _VARIANTS:
        raise ValueError(f"unknown profile variant {doc['variant']!r}")
    _, make, codecs = _VARIANTS[doc["variant"]]  # a field left out takes its default
    return make(**{name: read(doc[name]) for name, (read, _) in codecs.items()
                   if name in doc})


def profile_to_json(p):
    for kind, (cls, _, codecs) in _VARIANTS.items():
        if type(p) is cls:
            return {"variant": kind, **{name: write(getattr(p, name))
                                        for name, (_, write) in codecs.items()}}
    raise TypeError(f"not a profile: {p!r}")


class WeightPair:
    """Direction xi plus profiles f, g inducing v = f^(n), w = g^(n+1).

    ``xi`` is a read-only copy of the direction given, so ``key``, the
    ``(n, xi, f, g)`` tuple that caches of weight-dependent values are keyed
    by, is built and hashed once here and stays true to the pair.
    ``v_weight`` and ``w_weight`` are the (profile, xi) pairs of v and w,
    ``v_profile`` = f^(n) and ``w_profile`` = g^(n+1): the weight of a
    ``quadrature.Integrand``.
    """

    def __init__(self, xi, f, g, n, family=None):
        self.xi = np.array(xi, dtype=float)
        self.xi.flags.writeable = False
        self.n = int(n)
        if self.xi.shape != (self.n,):
            raise ValueError(f"xi has shape {self.xi.shape}, expected ({self.n},)")
        self.f, self.g, self.family = f, g, family
        self.key = _HashedTuple((self.n, tuple(self.xi.tolist()), f, g))
        self.v_profile = f.derivative(self.n)
        self.w_profile = g.derivative(self.n + 1)
        self.v_weight, self.w_weight = (self.v_profile, self.xi), (self.w_profile, self.xi)

    def v(self, x):  # at a point or at each row of an (N, n) array
        return self.v_profile.value(np.asarray(x, dtype=float) @ self.xi)

    def w(self, x):
        return self.w_profile.value(np.asarray(x, dtype=float) @ self.xi)

    def eval_weight(self, which, x):
        if which not in ("v", "w"):
            raise ValueError("which must be 'v' or 'w'")
        return getattr(self, which)(x)

    def recentered(self, shift):
        """Weight pair for the polytope translated so <xi, x> gains ``shift``:
        the profiles are precomposed with t -> t - shift, leaving v and w
        pointwise unchanged on the translated polytope."""
        s = Fraction(shift)
        return WeightPair(self.xi, self.f.shift_arg(s), self.g.shift_arg(s),
                          self.n, family=self.family)


def builtin(name, n, xi=None, a=None):
    """Construct one of the standard weight families.

    cscK / extremal use constant weights; soliton uses v = w = exp(<xi, x>);
    sasaki and ckem use the power weights (a + <xi, x>)^p with the exponent
    pairs (-n-1, -n-3) and (-2n+1, -2n-1), whose ``f`` and ``g`` are
    closed-form antiderivatives with all integration constants zero.
    """
    n, name = int(n), name.lower()
    xi = [0.0] * n if xi is None else xi
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
        pv, pw = (-n - 1, -n - 3) if name == "sasaki" else (-2 * n + 1, -2 * n - 1)
        f = PowerLaw(Fraction(1), a, Fraction(pv)).antiderivative(n)
        g = PowerLaw(Fraction(1), a, Fraction(pw)).antiderivative(n + 1)
        return WeightPair(xi, f, g, n, family=name)
    raise ValueError(f"unknown weight family {name!r}")


def check_components(vec, what):
    """Refuse a component that is not finite or is subnormal: a pairing with
    a subnormal can round to 0 where a product with it does not."""
    if not all(c == 0 or sys.float_info.min <= abs(c) < math.inf for c in vec):
        raise ValueError(f"{what} has a non-finite or subnormal component")


def weights_from_json(doc, n):
    xi = [float(c) for c in doc.get("xi", [0.0] * n)]
    check_components(xi, f"xi {xi}")
    family = doc.get("family", "custom")
    if doc.get("profiles"):
        f, g = (profile_from_json(doc["profiles"][k]) for k in "fg")
        return WeightPair(xi, f, g, n, family=family)
    return builtin(family, n, xi=xi, a=doc.get("params", {}).get("a"))


def weights_to_json(w):
    return {"xi": [float(c) for c in w.xi], "family": w.family or "custom",
            "params": {}, "profiles": {k: profile_to_json(p) for k, p in
                                       (("f", w.f), ("g", w.g))}}


@dataclass(frozen=True)
class PositivityVerdict:
    """A weight's sign on [lo, hi]: ``margin`` is its smaller end value, or
    on a failure its value at ``witness``, a point of [lo, hi] at or next
    to a non-positive value (-inf if undefined or not finite).  Every
    verdict is exact: ``certified`` is always true."""

    positive: bool
    margin: float
    witness: object
    certified: bool
    detail: str


def _sign(p, x):
    """Sign of the integer polynomial p at the rational x."""
    u, v, acc, vk = x.numerator, x.denominator, p[-1], 1
    for c in p[-2::-1]:
        vk *= v
        acc = acc * u + c * vk
    return (acc > 0) - (acc < 0)


def _changes(chain, x):
    """Sign changes along the chain at x."""
    signs = [s for s in (_sign(p, x) for p in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _sturm(p):
    """Sturm chain of p: p, p', then each remainder negated, kept primitive
    in integers by pseudo-division with |leading coefficient| multipliers."""
    chain, r = [p], [j * c for j, c in enumerate(p)][1:]
    while r:
        g = math.gcd(*r)
        chain.append(b := [c // g for c in r])
        m, s, r = abs(b[-1]), (b[-1] > 0) - (b[-1] < 0), list(chain[-2])
        while len(r) >= len(b):
            q = s * r.pop()
            r = [m * c for c in r]
            for j in range(len(b) - 1):
                r[len(r) - len(b) + 1 + j] -= q * b[j]
        while r and r[-1] == 0:
            r.pop()
        r = [-c for c in r]
    return chain


def _polynomial_failure(coeffs, lo, hi):
    """None if the exact coefficients are positive on the exact [lo, hi]:
    at both ends, with no real root between by a Sturm count (Basu-Pollack-
    Roy, *Algorithms in Real Algebraic Geometry*, 2006, ch. 2).  Else
    (t, detail), t non-positive or, by bisection, within 2^-53 (|lo| + |hi|)
    of a root."""
    p = _integers(coeffs)
    for t in (lo, hi):
        if _sign(p, t) <= 0:
            return t, f"polynomial is non-positive at t = {float(t)}"
    chain = _sturm(p)
    a, b, ca, cb = lo, hi, _changes(chain, lo), _changes(chain, hi)
    if ca == cb:
        return None
    while b - a > (abs(lo) + abs(hi)) / 2 ** 53:
        m = (a + b) / 2
        if _sign(p, m) <= 0:
            return m, f"polynomial is non-positive at t = {float(m)}"
        if ca - cb > 1:
            cm = _changes(chain, m)
            a, b, ca, cb = (a, m, ca, cm) if cm < ca else (m, b, cm, cb)
        # One root, where p > 0 around it: a root of even multiplicity,
        # where gcd(p, p'), the chain's last term, changes sign.
        elif _sign(chain[-1], m) != _sign(chain[-1], a):
            b = m
        else:
            a = m
    return (m := (a + b) / 2), f"polynomial has a real root next to t = {float(m)}"


def _to_float(t):
    """A Fraction as a float, +-inf past the float range."""
    try:
        return float(t)
    except OverflowError:
        return math.inf if t > 0 else -math.inf


# The largest weight value that cubature may be given.  A degree-13 rule
# sums up to 166 times the largest value it sees (the sum of the absolute
# Grundmann-Moller weights, dimensions 1-4), and moments and Gram entries
# multiply it by coordinates, so this stays 2**10 below the float range.
OVERFLOW_LIMIT = sys.float_info.max / 2 ** 10


def _verdict(prof, exact, lo, hi):
    if lo <= prof.domain[0] or hi >= prof.domain[1]:
        return PositivityVerdict(
            False, -math.inf, prof.domain[0], True,
            f"analyticity domain {prof.domain} does not cover [{lo}, {hi}]")
    with np.errstate(over="ignore", invalid="ignore"):
        ends = np.asarray(prof.value(np.array([lo, hi])), dtype=float)
    if not np.all(np.abs(ends) <= OVERFLOW_LIMIT):
        k = 0 if not abs(ends[0]) <= OVERFLOW_LIMIT else 1
        t = (lo, hi)[k]
        detail = (f"weight is not finite at t = {t} in [{lo}, {hi}]"
                  if not math.isfinite(ends[k]) else
                  f"weight reaches {abs(ends[k]):.3e} at t = {t} in [{lo}, {hi}], "
                  f"past {OVERFLOW_LIMIT:.3e}: its integrals would overflow")
        return PositivityVerdict(False, -math.inf, t, True, detail)
    (low, high), failure = ends.tolist(), None
    if (coeffs := getattr(prof, "coeffs", None)) is not None:
        failure = _polynomial_failure(coeffs, *exact)
    elif not min(low, high) > 0:  # monotone: the least value is at an end
        failure = (lo, f"weight is {low} at t = {lo}") if not low > 0 else (
            hi, f"weight is {high} at t = {hi}")
    if failure is None:
        return PositivityVerdict(True, min(low, high), None, True,
                                 "positive at both ends, and monotone or root-free")
    t = float(failure[0])
    return PositivityVerdict(False, float(prof.value(t)), t, True, failure[1])


def positivity_check(weights, polytope):
    """The verdicts of v and w on [lo, hi], the exact range of <xi, x>.

    A weight fails if [lo, hi] leaves its domain, or if at lo or hi, which
    vertices attain, it is not finite or exceeds ``OVERFLOW_LIMIT``.  Then
    one of two exact rules decides.  A monotone variant (exponential, power
    law) is positive if both those end values are; a polynomial variant
    (monomial, polynomial, power series) if its exact coefficients are
    positive at lo and hi with no real root between, by a Sturm count.
    """
    exact = polytope.interval([Fraction(c) for c in weights.xi])
    lo, hi = map(_to_float, exact)
    return {which: _verdict(prof, exact, lo, hi)
            for which, prof in (("v", weights.v_profile), ("w", weights.w_profile))}


def raise_unless_positive(verdicts):
    """Raise PositivityError naming every failed verdict; return the verdicts."""
    bad = [w for w, v in verdicts.items() if not v.positive]
    if bad:
        msgs = "; ".join(f"{w}: {verdicts[w].detail}" for w in bad)
        raise PositivityError(f"weight positivity fails ({msgs})")
    return verdicts


def require_positive(weights, polytope):
    return raise_unless_positive(positivity_check(weights, polytope))

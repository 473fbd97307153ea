import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toricstab import catalog
from toricstab.polytope import DelzantPolytope
from toricstab.profiles import (MAX_BITS, MAX_DEGREE, Exponential, Log,
                                Monomial, Polynomial, PositivityError,
                                PowerLaw, PowerSeries, ProfileDomainError,
                                WeightPair, builtin, positivity_check,
                                profile_from_json, profile_to_json,
                                require_positive, weights_from_json,
                                weights_to_json)


class TestEvalWeight:
    def test_constant_family(self, simplex):
        W = builtin("cscK", 2, xi=[0.3, -0.4])
        pts = np.array([[0.1, 0.2], [0.5, 0.25]])
        assert np.allclose(W.v(pts), 1.0)
        assert np.allclose(W.w(pts), 1.0)

    def test_soliton_family(self):
        xi = np.array([0.7, -0.2])
        W = builtin("soliton", 2, xi=xi)
        pts = np.array([[0.1, 0.9], [0.4, 0.0]])
        expected = np.exp(pts @ xi)
        assert np.allclose(W.v(pts), expected)
        assert np.allclose(W.w(pts), expected)

    def test_sasaki_exponents(self):
        n, a = 2, F(3)
        W = builtin("sasaki", n, xi=[1.0, 0.0], a=a)
        t = 0.37
        pt = np.array([t, 0.0])
        assert W.v(pt) == pytest.approx((3 + t) ** (-n - 1), rel=1e-14)
        assert W.w(pt) == pytest.approx((3 + t) ** (-n - 3), rel=1e-14)

    def test_ckem_exponents_n2(self):
        W = builtin("ckem", 2, xi=[1.0, 0.0], a=F(2))
        t = 0.21
        pt = np.array([t, 0.5])
        assert W.v(pt) == pytest.approx((2 + t) ** (-3), rel=1e-14)
        assert W.w(pt) == pytest.approx((2 + t) ** (-5), rel=1e-14)

    def test_ckem_dimension_one_uses_log_antiderivative(self):
        W = builtin("ckem", 1, xi=[1.0], a=F(2))
        assert isinstance(W.f, Log)
        assert W.v(np.array([0.3])) == pytest.approx((2.3) ** (-1), rel=1e-14)

    def test_powerlaw_pole_raises(self):
        W = builtin("sasaki", 2, xi=[1.0, 0.0], a=F(1, 10))
        with pytest.raises(ProfileDomainError):
            W.v(np.array([-0.5, 0.0]))

    def test_eval_weight_dispatch(self):
        W = builtin("soliton", 1, xi=[1.0])
        x = np.array([0.25])
        assert W.eval_weight("v", x) == W.v(x)
        with pytest.raises(ValueError):
            W.eval_weight("u", x)


class TestDerivatives:
    @pytest.mark.parametrize("profile, lo, hi", [
        (Polynomial.make([1, F(-2, 3), 0, F(1, 5), F(2, 7)]), -1.0, 1.0),
        (Exponential(1.5), -1.0, 1.0),
        (PowerLaw(F(2), F(3), F(-5, 2)), -1.0, 1.0),
        (Monomial(5), -1.0, 1.0),
        (Log(F(1), F(4)), -1.0, 1.0),
    ])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_central_differences(self, profile, lo, hi, order):
        rng = np.random.default_rng(42)
        ts = rng.uniform(lo + 0.05, hi - 0.05, 20)
        h = 1e-5
        dk = profile.derivative(order)
        dk1 = profile.derivative(order - 1)
        approx = (dk1.value(ts + h) - dk1.value(ts - h)) / (2 * h)
        exact = dk.value(ts)
        scale = np.maximum(1.0, np.abs(exact))
        assert np.max(np.abs(exact - approx) / scale) < 1e-8

    def test_monomial_derivative_closed_form(self):
        p = Monomial(4)
        assert p.derivative(4).value(3.7) == pytest.approx(1.0)
        assert p.derivative(5).value(0.3) == 0.0

    def test_antiderivative_inverts_derivative(self):
        p = PowerLaw(F(1), F(2), F(-3))
        q = p.antiderivative(2).derivative(2)
        ts = np.linspace(-1, 1, 7)
        assert np.allclose(p.value(ts), q.value(ts), rtol=1e-13)

    def test_powerlaw_antiderivative_passes_through_log(self):
        p = PowerLaw(F(1), F(1), F(-1))
        anti = p.antiderivative(1)
        assert isinstance(anti, Log)
        assert anti.derivative(1).value(0.5) == pytest.approx(1 / 1.5)

    def test_powerseries_termwise(self):
        # exp(t) truncated: coefficients 1/k!
        coeffs = [F(1, math.factorial(k)) for k in range(16)]
        ps = PowerSeries.make(coeffs, 2.0)
        assert ps.derivative(3).value(0.5) == pytest.approx(math.exp(0.5), rel=1e-9)
        with pytest.raises(ProfileDomainError):
            ps.value(2.5)


class TestBuiltinFamilies:
    def test_csck_constant(self, simplex):
        W = builtin("cscK", 2)
        pts = simplex.vertices_floats()
        assert np.allclose(W.v(pts), 1.0) and np.allclose(W.w(pts), 1.0)

    def test_soliton_at_zero_matches_csck(self, square):
        W0 = builtin("soliton", 2, xi=[0.0, 0.0])
        Wc = builtin("cscK", 2)
        pts = np.random.default_rng(1).uniform(0, 1, (40, 2))
        assert np.allclose(W0.v(pts), Wc.v(pts))
        assert np.allclose(W0.w(pts), Wc.w(pts))

    def test_sasaki_pole_accept_reject(self, simplex):
        ok = builtin("sasaki", 2, xi=[1.0, 0.0], a=F(3))
        require_positive(ok, simplex)
        bad = builtin("sasaki", 2, xi=[1.0, 0.0], a=F(0))
        with pytest.raises(PositivityError):
            require_positive(bad, simplex)

    def test_missing_a_rejected(self):
        with pytest.raises(ValueError):
            builtin("ckem", 2, xi=[1.0, 0.0])


class TestWeightDegrees:
    """The x-degrees of v and w that the integrals declare to the cubature."""

    @pytest.mark.parametrize("profile, degree", [
        (Monomial(3), 3), (Polynomial.make([1, 0, 2]), 2),
        (Polynomial.make([5, 0, 0]), 0), (Exponential(), None),
        (PowerLaw(F(1), F(2), F(-3)), None), (Log(F(1), F(2)), None),
        (PowerSeries.make([1, 1], 2), None)])
    def test_profile_degree(self, profile, degree):
        assert profile.degree == degree

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_csck_is_constant_at_any_xi(self, n):
        for family in ("cscK", "extremal"):
            for xi in ([0.0] * n, [0.3] * n):
                W = builtin(family, n, xi=xi)
                assert (W.v_degree, W.w_degree) == (0, 0)

    @pytest.mark.parametrize("family, a", [("soliton", None), ("sasaki", 3),
                                           ("ckem", 3)])
    def test_other_families_are_constant_only_at_xi_zero(self, family, a):
        W = builtin(family, 2, xi=[0.0, -0.0], a=a)
        assert (W.v_degree, W.w_degree) == (0, 0)
        W = builtin(family, 2, xi=[0.7, -0.2], a=a)
        assert (W.v_degree, W.w_degree) == (None, None)

    def test_polynomial_profiles(self):
        # v = f'' and w = g''' in dimension 2.
        W = WeightPair([0.5, 1.0], Polynomial.make([0, 0, 1, 0, 0, 2]),
                       Monomial(4), 2)
        assert (W.v_degree, W.w_degree) == (3, 1)


class TestPositivityCheck:
    def test_exponential_margin(self, interval):
        W = builtin("soliton", 1, xi=[1.0])
        verdicts = positivity_check(W, interval)
        assert verdicts["v"].positive and verdicts["v"].certified
        assert verdicts["v"].margin == pytest.approx(math.exp(-0.5))

    def test_powerlaw_pole_inside(self, interval):
        W = builtin("sasaki", 1, xi=[1.0], a=F(1, 4))
        verdicts = positivity_check(W, interval)
        assert not verdicts["v"].positive
        assert verdicts["v"].witness == pytest.approx(-0.25)

    def test_polynomial_sign_change_witness(self, interval):
        # g^(2) = t, which changes sign on [-1/2, 1/2].
        g = Polynomial.make([0, 0, 0, F(1, 6)])
        W = WeightPair([1.0], Monomial(1), g, 1)
        verdicts = positivity_check(W, interval)
        assert not verdicts["w"].positive
        assert verdicts["w"].witness is not None
        assert float(g.derivative(2).value(verdicts["w"].witness)) <= 0


def _on_interval(coeffs, lo, hi):
    """The verdict of v = p (coefficients ``coeffs``) on the polytope
    [lo, hi] along xi = 1, where <xi, x> ranges exactly over [lo, hi]."""
    P = DelzantPolytope(1, [((1,), -lo), ((-1,), hi)])
    f = Polynomial.make([0] + [F(c) / (j + 1) for j, c in enumerate(coeffs)])
    return positivity_check(WeightPair([1.0], f, Monomial(2), 1), P)["v"]


def _at(coeffs, t):
    return sum(F(c) * F(t) ** j for j, c in enumerate(coeffs))


def _times(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


class TestExactPolynomialVerdict:
    """Monomial, polynomial and power-series weights are decided by an
    exact count of real roots, so a near-double root is not missed."""

    def test_quartics_below_zero_near_a_double_root_are_not_positive(self):
        # (t - r)^4 - 1e-20 is negative on |t - r| < 1e-5.
        for k in range(1, 400):
            r = F(k, 401)
            quartic = [r ** 4 - F(1, 10 ** 20), -4 * r ** 3, 6 * r ** 2, -4 * r, 1]
            verdict = _on_interval(quartic, 0, 1)
            assert not verdict.positive and verdict.certified, k
            assert 0 <= verdict.witness <= 1 and _at(quartic, verdict.witness) <= 0, k

    def test_touching_root_gives_a_witness_next_to_it(self):
        square = _times([F(-1, 3), 1], [F(-1, 3), 1])    # (t - 1/3)^2 >= 0
        verdict = _on_interval(square, 0, 1)
        assert not verdict.positive and verdict.certified
        assert abs(verdict.witness - 1 / 3) <= 2 ** -52
        assert _on_interval([F(1, 10 ** 30), *square[1:]], 0, 1).positive is False
        assert _on_interval([square[0] + F(1, 10 ** 30), *square[1:]], 0, 1).positive

    def test_monomial_and_power_series_share_the_rule(self, interval):
        # cp1 is [-1/2, 1/2]: t^2 / 2! is 0 at the midpoint, t^3 / 3! < 0
        # at the lower end.
        for k, witness in ((2, 0.0), (3, -0.5)):
            verdict = positivity_check(
                WeightPair([1.0], Monomial(k + 1), Monomial(2), 1), interval)["v"]
            assert not verdict.positive and verdict.witness == witness
        series = PowerSeries.make([0, 1, 0, 0], 1.0)     # f = t: v = 1
        assert positivity_check(WeightPair([0.5], series, Monomial(2), 1),
                                interval)["v"].positive

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_verdict_matches_exact_roots_and_values(self, data):
        # p = c prod (t - r)^m prod ((t - s)^2 + e): its real roots are the
        # r, and e as small as 1e-20 puts complex roots next to the axis.
        rat = st.fractions(min_value=-2, max_value=2, max_denominator=60)
        roots = data.draw(st.lists(st.tuples(rat, st.integers(1, 3)), max_size=3))
        pairs = data.draw(st.lists(st.tuples(rat, st.sampled_from(
            [F(1), F(1, 10 ** 6), F(1, 10 ** 20)])), max_size=2))
        p = [data.draw(st.sampled_from([F(1), F(-3, 2), F(2, 7)]))]
        for r, m in roots:
            for _ in range(m):
                p = _times(p, [-r, 1])
        for s0, e in pairs:
            p = _times(p, [s0 * s0 + e, -2 * s0, 1])
        lo, hi = sorted(data.draw(st.lists(rat, min_size=2, max_size=2, unique=True)))
        verdict = _on_interval(p, lo, hi)
        inside = [r for r, _ in roots if lo <= r <= hi]
        assert verdict.certified
        assert verdict.positive == (not inside and _at(p, lo) > 0)
        if verdict.positive:
            grid = [lo + (hi - lo) * F(i, 64) for i in range(65)]
            assert all(_at(p, t) > 0 for t in grid)
        else:
            w = F(verdict.witness)
            assert float(lo) <= verdict.witness <= float(hi)
            assert _at(p, w) <= 0 or min(abs(w - r) for r in inside) <= (
                abs(lo) + abs(hi)) * F(1, 2 ** 50)

    def test_certificates_at_the_file_bounds_are_fast(self):
        # Profiles as large as a file may give (degree MAX_DEGREE, MAX_BITS
        # bits over the common denominator): a random f, and one whose
        # v = f' has a touching root.  Each verdict takes under 0.1 s (best
        # of three).
        import random
        import time
        rng = random.Random(7)
        touching = _times(_times([F(-1), F(3)], [F(-1), F(3)]),
                          [F(rng.getrandbits(80) + 1) for _ in range(MAX_DEGREE - 2)])
        random_f = [F(rng.getrandbits(MAX_BITS - 1)) for _ in range(MAX_DEGREE + 1)]
        touching_f = [0] + [c / (j + 1) for j, c in enumerate(touching)]
        for f, lo, hi in ((random_f, F(-0.3), F(0.7001)),
                          (touching_f, F(-0.9), F(0.8))):
            doc = {"variant": "polynomial", "coeffs": [str(c) for c in f]}
            p = profile_from_json(json.loads(json.dumps(doc)))
            assert p.degree == MAX_DEGREE
            P = DelzantPolytope(1, [((1,), -lo), ((-1,), hi)])
            W = WeightPair([1.0], p, Monomial(2), 1)
            best = math.inf
            for _ in range(3):
                start = time.process_time()
                verdict = positivity_check(W, P)["v"]
                best = min(best, time.process_time() - start)
            assert best < 0.1, (verdict, best)


class TestRecentering:
    def test_midpoint_recentering_fixes_weights(self, unit_interval):
        W = builtin("soliton", 1, xi=[1.0])
        moved, shift = unit_interval.midpoint_normalize([1.0])
        W2 = W.recentered(shift)
        xs = np.linspace(0, 1, 9).reshape(-1, 1)
        moved_xs = xs + float(shift)
        assert np.allclose(W.v(xs), W2.v(moved_xs), rtol=1e-13)
        assert np.allclose(W.w(xs), W2.w(moved_xs), rtol=1e-13)

    @pytest.mark.parametrize("family, a", [("cscK", None), ("sasaki", F(5))])
    def test_recentering_other_families(self, unit_interval, family, a):
        W = builtin(family, 1, xi=[1.0], a=a)
        W2 = W.recentered(F(-1, 2))
        xs = np.linspace(0.0, 1.0, 7).reshape(-1, 1)
        assert np.allclose(W.v(xs), W2.v(xs - 0.5), rtol=1e-13)


class TestSerialization:
    @pytest.mark.parametrize("profile", [
        Monomial(3),
        Exponential(2.5),
        PowerLaw(F(1, 3), F(2), F(-7, 2)),
        Log(F(2), F(3)),
        Polynomial.make([F(1, 2), 0, F(-1, 3)]),
        PowerSeries.make([1, 1, F(1, 2)], 1.5),
    ])
    def test_profile_round_trip(self, profile):
        assert profile_from_json(profile_to_json(profile)) == profile

    def test_weight_config_round_trip(self):
        W = builtin("sasaki", 2, xi=[0.25, -0.5], a=F(4))
        doc = weights_to_json(W)
        W2 = weights_from_json(doc, 2)
        pts = np.array([[0.1, 0.2], [-0.3, 0.4]])
        assert np.allclose(W.v(pts), W2.v(pts))
        assert np.allclose(W.w(pts), W2.w(pts))

    def test_family_config_without_profiles(self):
        doc = {"xi": [0.5, 0.0], "family": "soliton", "params": {}}
        W = weights_from_json(doc, 2)
        assert W.family == "soliton"
        assert isinstance(W.f, Exponential)


class TestHashing:
    @pytest.mark.parametrize("make", [
        lambda: PowerLaw(F(1), F(3, 2), F(-5)),
        lambda: Log(F(-2, 3), F(1, 4)),
        lambda: builtin("sasaki", 2, a=F(1, 3)).f,
        lambda: builtin("ckem", 2, a=F(1, 3)).g,
    ], ids=["powerlaw", "log", "sasaki-f", "ckem-g"])
    def test_equal_profiles_hash_equal(self, make):
        p, q = make(), make()
        assert p is not q
        assert p == q and hash(p) == hash(q)
        assert hash(p) == hash(tuple(getattr(p, f) for f in p.__dataclass_fields__))

    def test_values_keep_their_bits(self):
        t = np.linspace(-0.4, 2.0, 7)
        p = PowerLaw(F(3, 7), F(1, 2), F(-7, 3))
        assert np.array_equal(p.value(t), 3 / 7 * (0.5 + t) ** (-7 / 3))
        q = Log(F(3, 7), F(1, 2))
        assert np.array_equal(q.value(t), 3 / 7 * np.log(0.5 + t))


class TestWeightPairKey:
    def test_mutating_the_callers_xi_changes_neither_xi_nor_key(self):
        xi = np.array([0.3, -0.2])
        W = builtin("sasaki", 2, xi=xi, a=F(1))
        key = W.key
        xi[0] = 5.0
        assert W.xi.tolist() == [0.3, -0.2] and W.key == key
        assert key == (2, (0.3, -0.2), W.f, W.g)
        with pytest.raises(ValueError):
            W.xi[0] = 5.0

    def test_equal_pairs_share_a_key(self):
        W = builtin("ckem", 3, xi=[0.1, 0.2, 0.3], a=F(2))
        V = builtin("ckem", 3, xi=(0.1, 0.2, 0.3), a=F(2))
        assert W.key == V.key and hash(W.key) == hash(V.key)
        assert W.key != builtin("ckem", 3, xi=[0.1, 0.2, 0.3], a=F(3)).key


# The JSON document of one instance of each variant, and the positivity
# verdict of every built-in family on every catalog polytope, recorded by
# ``_profile_pins()`` into tests/data/profile_pins.json.  A refactor of the
# profiles must keep each document byte for byte, and each verdict's
# ``positive``, ``certified`` and ``witness`` (and a failure's ``detail``,
# which error messages carry).
DATA = Path(__file__).parent / "data"
PIN_PROFILES = {"monomial": Monomial(3), "exponential": Exponential(2.5),
                "powerlaw": PowerLaw(F(1, 3), F(2), F(-7, 2)),
                "log": Log(F(2), F(3)),
                "polynomial": Polynomial.make([F(1, 2), 0, F(-1, 3)]),
                "powerseries": PowerSeries.make([1, 1, F(1, 2)], 1.5)}
# (family, a): a = 1/10 puts the power-law pole inside most catalog
# polytopes along the generic and axis directions, a = -2 at every xi.
PIN_FAMILIES = (("cscK", None), ("extremal", None), ("soliton", None),
                ("sasaki", F(3)), ("sasaki", F(1, 10)), ("sasaki", F(-2)),
                ("ckem", F(3)), ("ckem", F(1, 10)), ("ckem", F(-2)))
# "large" takes the soliton weight past the overflow limit.
PIN_XI = {"generic": (0.7, -0.3, 0.2), "zero": (0.0, 0.0, 0.0),
          "axis": (1.0, 0.0, 0.0), "large": (800.0, 0.0, 0.0)}


def _verdict_pin(v):
    witness = None if v.witness is None else float(v.witness).hex()
    return [v.positive, v.certified, witness, None if v.positive else v.detail]


def _profile_pins():
    pins = {"json": {name: json.dumps(profile_to_json(p))
                     for name, p in PIN_PROFILES.items()}}
    for name in catalog.names():
        P = catalog.load(name)
        for fam, a in PIN_FAMILIES:
            for kind, xi in PIN_XI.items():
                W = builtin(fam, P.dim, xi=xi[:P.dim], a=a)
                key = f"{name} {fam} a={a} xi={kind}"
                pins[key] = {w: _verdict_pin(v)
                             for w, v in positivity_check(W, P).items()}
    return pins


def test_profile_pins():
    want = json.loads((DATA / "profile_pins.json").read_text())
    got = _profile_pins()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("name", sorted(PIN_PROFILES))
def test_pinned_documents_round_trip(name):
    p = PIN_PROFILES[name]
    doc = json.loads(json.dumps(profile_to_json(p)))
    assert profile_from_json(doc) == p
    assert hash(profile_from_json(doc)) == hash(p)

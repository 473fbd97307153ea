import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from toricstab import _linalg as la, catalog, invariants, localize
from toricstab.localize import (DegenerateDirectionError, directional_derivative,
                                eval_at_degenerate, eval_c1_class, eval_class,
                                vertex_weights)
from toricstab.polytope import DelzantPolytope
from toricstab.profiles import (Exponential, Monomial, PowerLaw,
                                ProfileDomainError, builtin)
from toricstab.quadrature import (Integrand, QuadratureRule, boundary_parts, integrate,
                                  integrate_boundary, integrate_parts, moments)

DATA = Path(__file__).parent / "data"


class TestVertexWeightIdentities:
    @pytest.mark.parametrize("name", ["cp1", "cp2", "cp1xcp1", "bl1cp2",
                                      "hirzebruch-a", "cube"])
    def test_euler_reciprocals_sum_to_zero(self, name):
        from toricstab import catalog
        P = catalog.load(name)
        rng = np.random.default_rng(3)
        for _ in range(5):
            xi = rng.uniform(-1, 1, P.dim)
            if not localize.is_generic(P, xi):
                continue
            vw = vertex_weights(P, xi)
            assert math.fsum(1 / v.euler for v in vw) == pytest.approx(0.0, abs=1e-9)

    def test_top_moment_reproduces_volume(self, trapezoid):
        rng = np.random.default_rng(4)
        vol = float(trapezoid.volume())
        for _ in range(5):
            xi = rng.uniform(-1, 1, 2)
            if not localize.is_generic(trapezoid, xi):
                continue
            vw = vertex_weights(trapezoid, xi)
            n = trapezoid.dim
            got = math.fsum(v.pairing ** n / v.euler for v in vw)
            assert got == pytest.approx(math.factorial(n) * vol, rel=1e-9)

    def test_cp2_characteristic_number(self, simplex):
        vw = vertex_weights(simplex, [1.0, 2.0])
        assert math.fsum(v.c1 ** 2 / v.euler for v in vw) == pytest.approx(9.0)

    def test_degenerate_direction_raises(self, square):
        with pytest.raises(DegenerateDirectionError):
            vertex_weights(square, [1.0, 0.0])


class TestEvalClass:
    def test_interval_brion_exponential(self, unit_interval):
        t = 0.7
        got = eval_class(unit_interval, Exponential(), [t])
        assert got == pytest.approx((math.exp(t) - 1) / t, rel=1e-13)

    def test_top_monomial_gives_volume(self, interval, simplex, trapezoid):
        for P in (interval, simplex, trapezoid):
            got = eval_class(P, Monomial(P.dim), [0.31] * P.dim
                             if P.dim > 1 else [0.77])
            assert got == pytest.approx(float(P.volume()), rel=1e-10)

    def test_against_quadrature(self, trapezoid):
        xi = np.array([0.45, -0.8])
        h = Exponential()
        got = eval_class(trapezoid, h, xi)
        want = integrate(trapezoid, lambda x: np.exp(x @ xi)).value
        assert got == pytest.approx(want, rel=1e-10)

    def test_low_degree_sums_vanish(self, simplex):
        # h = x^k/k! with k < n integrates to zero through the vertex sum.
        got = eval_class(simplex, Monomial(1), [0.618, 0.271])
        assert got == pytest.approx(0.0, abs=1e-12)


class TestEvalC1Class:
    def test_simplex_affine(self, simplex):
        t1, t2 = 0.35, 0.8
        got = eval_c1_class(simplex, Monomial(2), [t1, t2])
        assert got == pytest.approx(t1 + t2, rel=1e-12)

    def test_interval_point_count(self, interval):
        got = eval_c1_class(interval, Monomial(0), [0.9])
        assert got == pytest.approx(2.0, rel=1e-13)

    def test_simplex_lattice_perimeter(self, simplex):
        got = eval_c1_class(simplex, Monomial(1), [0.35, 0.8])
        assert got == pytest.approx(3.0, rel=1e-12)

    def test_against_boundary_quadrature(self, trapezoid):
        xi = np.array([0.52, 0.17])
        got = eval_c1_class(trapezoid, Exponential(), xi)
        want = integrate_boundary(trapezoid, lambda x: np.exp(x @ xi)).value
        assert got == pytest.approx(want, rel=1e-9)


class TestDegenerateDirections:
    def test_zero_direction_volume(self, simplex):
        got = eval_at_degenerate(simplex, "volume", Monomial(2), [0.0, 0.0])
        assert got == pytest.approx(0.5, rel=1e-9)

    def test_zero_direction_perimeter(self, simplex, square):
        for P, per in ((simplex, 3.0), (square, 4.0)):
            got = eval_at_degenerate(P, "c1", Monomial(1), [0.0, 0.0])
            assert got == pytest.approx(per, rel=1e-9)

    def test_edge_aligned_direction(self, square):
        xi = np.array([0.8, 0.0])  # kills the horizontal edges
        got = eval_class(square, Exponential(), xi)
        want = integrate(square, lambda x: np.exp(x @ xi)).value
        assert got == pytest.approx(want, rel=1e-8)


def _near_degenerate(P):
    """xi0 + 10^-k eta for k = 2..12, about each xi0 orthogonal to an edge
    direction of P: on the catalog surfaces these include the axes.  On the
    cube, xi0 is an axis or orthogonal to one edge only."""
    if P.dim == 3:
        bases = [(0.7, 0.0, 0.0), (0.7, 0.4, 0.0)]
    else:
        edges = {tuple(int(c) for c in u) for v in P.vertex_data()
                 for u in v.inward_edges}
        bases = sorted({(-0.7 * u[1], 0.7 * u[0]) for u in edges
                        if u > tuple(-c for c in u)})
    return [np.array(x0) + x for x0 in bases for x in _near_zero(P)]


def _near_zero(P):
    """10^-k eta for k = 2..12: xi0 = 0."""
    eta = np.array([0.31, 0.83, 0.57][:P.dim])
    return [10.0 ** -k * eta for k in range(2, 13)]


# Tight enough that the power-law closed form is exact to rounding.
CLOSED_FORM = QuadratureRule(tol_abs=0.0, tol_rel=1e-13)


def _closed_form_moment(P, W, m=None):
    """int_P x^m w dx: exact for cscK (w = 1), exponential for solitons,
    the closed form of the cubature for power laws (sasaki and ckem)."""
    if W.family == "cscK":
        return float(moments(P, m))
    if W.family == "soliton":
        return moments(P, m, W.xi, "exponential")
    factors = [] if m is None else [(np.array(m, dtype=float), None)]
    return integrate_parts([(Integrand(W.w_weight, factors), P.triangulation_floats())],
                           CLOSED_FORM)[0].value


NEAR_DEGENERATE = [name for name in catalog.names()
                   if catalog.load(name).dim == 2] + ["cube"]


NEAR_FAMILIES = ["soliton", "cscK", "sasaki", "ckem"]


class TestNearDegenerateDirections:
    """Near a degenerate direction the vertex terms grow and cancel: each
    sum must agree with the closed form to 1e-8, relative as the backends
    must (to 1 + |value|), or raise.  Sasaki and ckem weights take a = 2."""

    @staticmethod
    def volumes_agree(P, family, xis):
        for xi in xis:
            W = builtin(family, P.dim, xi=xi, a=F(2))
            try:
                got = eval_class(P, W.g.derivative(1), xi)
            except localize.ExtrapolationError:
                continue
            want = _closed_form_moment(P, W)
            assert abs(got - want) <= 1e-8 * (1 + abs(want)), xi

    @staticmethod
    def derivatives_agree(P, family, xis):
        # The derivative at a sum that cancels is the limit of the sums of
        # the terms' derivatives, as at a degenerate direction.
        beta = np.array([0.5, 1.0, -0.7][:P.dim])
        for xi in xis:
            W = builtin(family, P.dim, xi=xi, a=F(2))
            try:
                got = directional_derivative("volume", P, W.g, xi, beta)
            except localize.ExtrapolationError:
                continue
            # The g-class changes along beta by the beta-moment of w.
            want = math.fsum(b * _closed_form_moment(P, W, m)
                             for b, m in zip(beta, np.eye(P.dim, dtype=int)))
            assert abs(got - want) <= 1e-8 * (1 + abs(want)), xi

    @pytest.mark.parametrize("family", NEAR_FAMILIES)
    @pytest.mark.parametrize("name", NEAR_DEGENERATE)
    def test_weighted_volume(self, name, family):
        P = catalog.load(name)
        self.volumes_agree(P, family, _near_degenerate(P))

    @pytest.mark.parametrize("family", NEAR_FAMILIES)
    @pytest.mark.parametrize("name", NEAR_DEGENERATE)
    def test_moment_derivative(self, name, family):
        P = catalog.load(name)
        self.derivatives_agree(P, family, _near_degenerate(P))

    @pytest.mark.parametrize("family", NEAR_FAMILIES)
    @pytest.mark.parametrize("name", NEAR_DEGENERATE)
    def test_weighted_volume_near_zero(self, name, family):
        P = catalog.load(name)
        self.volumes_agree(P, family, _near_zero(P))

    @pytest.mark.parametrize("family", NEAR_FAMILIES)
    @pytest.mark.parametrize("name", NEAR_DEGENERATE)
    def test_moment_derivative_near_zero(self, name, family):
        P = catalog.load(name)
        self.derivatives_agree(P, family, _near_zero(P))

    @pytest.mark.parametrize("name, beta", [("cp1", [1.0]), ("cp2", [1.0, -1.0])])
    def test_vanishing_sums_are_summed_directly(self, name, beta):
        # The beta-moments of cscK weights vanish by symmetry here, and their
        # sums cancel to the last bits: the trust test's 1 + |sum| keeps them
        # from the limit path, which reads otherwise.
        P = catalog.load(name)
        want = {"cp1": ["0x0.0p+0"] * 4,
                "cp2": ["0x1.0000000000000p-54", "0x1.0000000000000p-53",
                        "0x0.0p+0", "0x0.0p+0"]}[name]
        got = []
        for xi in ([0.37, -0.21], [-0.61, 0.29]):
            W = builtin("cscK", P.dim, xi=xi[:P.dim])
            got += [directional_derivative(kind, P, h, xi[:P.dim], beta).hex()
                    for kind, h in (("volume", W.g), ("c1", W.f))]
        assert got == want


class TestDirectionalDerivative:
    def test_constant_in_xi_gives_zero(self, simplex):
        # Volume of P is independent of the direction.
        got = directional_derivative("volume", simplex, Monomial(2),
                                     [0.4, 0.9], [1.0, -0.5])
        assert got == pytest.approx(0.0, abs=1e-11)

    def test_interval_exponential_derivative(self, unit_interval):
        t = 0.7
        got = directional_derivative("volume", unit_interval, Exponential(),
                                     [t], [1.0])
        exact = (math.exp(t) * (t - 1) + 1) / t ** 2
        assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("kind", ["volume", "c1"])
    def test_matches_five_point_stencil(self, trapezoid, kind):
        rng = np.random.default_rng(11)
        h = Exponential()
        for _ in range(5):
            xi = rng.uniform(0.2, 1.0, 2) * np.array([1, -1])
            beta = rng.uniform(-1, 1, 2)
            if not localize.is_generic(trapezoid, xi):
                continue
            fn = eval_class if kind == "volume" else eval_c1_class
            s = 1e-3
            stencil = (fn(trapezoid, h, xi - 2 * s * beta)
                       - 8 * fn(trapezoid, h, xi - s * beta)
                       + 8 * fn(trapezoid, h, xi + s * beta)
                       - fn(trapezoid, h, xi + 2 * s * beta)) / (12 * s)
            got = directional_derivative(kind, trapezoid, h, xi, beta)
            assert got == pytest.approx(stencil, rel=1e-6)


def test_unimodular_invariance(trapezoid):
    u = [[1, 1], [1, 2]]
    image = trapezoid.unimodular_image(u, [1, 3])
    xi = np.array([0.37, 0.61])
    uarr = np.array(u, dtype=float)
    xi_img = np.linalg.inv(uarr).T @ xi
    a = eval_class(trapezoid, Exponential(), xi)
    # The pairing shifts by <xi_img, tau> under the translation part.
    shift = float(xi_img @ np.array([1.0, 3.0]))
    b = eval_class(image, Exponential(), xi_img)
    assert b == pytest.approx(a * math.exp(shift), rel=1e-10)


class TestEdgeArrays:
    def test_equal_a_fresh_build_from_the_vertex_data(self, cube):
        from toricstab import catalog
        chop = cube.corner_chop(5, cube.admissible_chop(5) / 3)
        for P in [catalog.load(name) for name in catalog.names()] + [chop]:
            verts, edges = localize._edge_arrays(P)
            fresh = np.array([[[float(c) for c in u] for u in v.inward_edges]
                              for v in P.vertex_data()])
            assert np.array_equal(verts, [[float(c) for c in v]
                                          for v in P.vertices]), P
            assert np.array_equal(edges, fresh), P
            assert localize._edge_arrays(P) is localize._edge_arrays(P)

    def test_are_read_only(self, trapezoid):
        for arr in localize._edge_arrays(trapezoid):
            with pytest.raises(ValueError):
                arr[0] = 1.0


CUBE4 = DelzantPolytope(4, [(tuple(int(i == j) * s for j in range(4)), o)
                            for i in range(4) for s, o in ((1, 0), (-1, 1))],
                        name="cube4")


ALL_POLYTOPES = [catalog.load(name) for name in catalog.names()] + [CUBE4]
ZERO_FAMILIES = [("cscK", None), ("extremal", None), ("soliton", None),
                 *((family, a) for family in ("sasaki", "ckem")
                   for a in (F(1, 2), F(2), F(1000)))]


@pytest.mark.parametrize("P", ALL_POLYTOPES, ids=lambda P: P.name)
def test_zero_direction_is_an_exact_moment(P):
    # At xi = 0 the class of g' is w(0) Vol, the c1 class of f' is v(0) Per,
    # and the derivatives of the classes of g and f along beta are w(0) and
    # v(0) times the beta-moments, inside and on the boundary.  An exact 0
    # (a moment of a centred polytope) is held to its scale width_beta M.
    n, zero = P.dim, np.zeros(P.dim)
    betas = [np.array([0.5, 1.0, -0.7, 0.3][:n]), np.eye(n)[-1]]
    verts = localize._edge_arrays(P)[0]
    for family, a in ZERO_FAMILIES:
        W = builtin(family, n, a=a)
        cases = [(eval_class(P, W.g.derivative(1), zero), W.w_profile, None, False),
                 (eval_c1_class(P, W.f.derivative(1), zero), W.v_profile, None, True)]
        cases += [(directional_derivative(kind, P, h, zero, beta), weight, beta, kind == "c1")
                  for beta in betas for kind, h, weight in (
                      ("volume", W.g, W.w_profile), ("c1", W.f, W.v_profile))]
        for got, weight, beta, boundary in cases:
            want = float(F(weight.value(0.0)) * _exact_moment(P, beta, boundary))
            scale = abs(want) or abs(weight.value(0.0)) * float(
                _exact_moment(P, None, boundary)) * float(np.ptp(verts @ beta))
            assert abs(got - want) <= 1e-12 * scale, (family, a, beta, boundary, got, want)


@pytest.mark.parametrize("P", ALL_POLYTOPES, ids=lambda P: P.name)
def test_backends_agree_at_the_zero_direction(P):
    # The localisation Vol_w and Per_v agree with cubature to 1e-12 relative,
    # and each Futaki value to 1e-14 of width_beta Per_v, and to 1e-12
    # relative where |F| is at least 1e-3 width_beta Per_v.
    n = P.dim
    for family, a in ZERO_FAMILIES:
        W = builtin(family, n, a=a)
        for fn in (invariants.vol_w, invariants.per_v):
            q, l = fn(P, W), fn(P, W, backend="localization")
            assert abs(l - q) <= 1e-12 * abs(q), (family, a, fn.__name__)
        for beta in [np.array([0.5, 1.0, -0.7, 0.3][:n]), *np.eye(n)]:
            q = invariants.futaki(P, W, beta)
            l = invariants.futaki(P, W, beta, backend="localization")
            scale = float(np.ptp(localize._edge_arrays(P)[0] @ beta)) * invariants.per_v(P, W)
            assert abs(l - q) <= 1e-14 * scale, (family, a, beta)
            if abs(q) >= 1e-3 * scale:
                assert abs(l - q) <= 1e-12 * abs(q), (family, a, beta)


@pytest.mark.parametrize("P", ALL_POLYTOPES, ids=lambda P: P.name)
def test_stacked_kernel_equals_one_direction_at_a_time(P):
    # Random scales, axis and zero directions; bl3cp2 has vertices whose
    # pairings a plain matrix product of the stack rounds otherwise.
    rng = np.random.default_rng(5)
    n = P.dim
    xis = np.concatenate([rng.normal(size=(60, n)) * 10.0 ** rng.uniform(-8, 2, (60, 1)),
                          np.eye(n), -0.7 * np.eye(n), np.zeros((1, n))])
    pairs, pair_edges, euler = localize._at(P, xis)
    verts, edges = localize._edge_arrays(P)
    for r, xi in enumerate(xis):
        one = localize._at(P, xi[None])
        assert all(a[r].tobytes() == b[0].tobytes() for a, b in zip((pairs, pair_edges, euler), one))
        # The one-direction products that the kernel replaced.
        assert pairs[r].tobytes() == (verts @ xi).tobytes()
        assert pair_edges[r].tobytes() == (edges @ xi).tobytes()
        assert euler[r].tobytes() == np.prod(-(edges @ xi), axis=1).tobytes()


@pytest.mark.parametrize("name", ["cp2", "bl3cp2", "cube"])
@pytest.mark.parametrize("kind", ["volume", "c1"])
def test_stacked_limits_equal_one_limit_at_a_time(name, kind):
    # A limit takes the samples of its three etas in one kernel call and the
    # terms at the first generic eta's 8 samples in one call: summed one
    # sample at a time, its symmetric sums and Richardson table read alike.
    P = catalog.load(name)
    n = P.dim
    for xi in (np.eye(n)[0] * 0.8, np.eye(n)[-1] * -0.3, np.array([0.3, -0.2, 0.1][:n])):
        samples = next(s for s in xi + localize._sample_offsets(n)
                       if all(localize.is_generic(P, x) for x in s))
        for h in (Exponential(), PowerLaw(F(1), F(3), F(-3)), Monomial(n + 1)):
            sums = [math.fsum(localize._terms(h, localize._at(P, x[None]), kind)[0].tolist())
                    for x in samples]
            col = [0.5 * (plus + minus) for plus, minus in zip(sums[::2], sums[1::2])]
            for j in (1, 2, 3):
                col = [(4.0 ** j * hi - lo) / (4.0 ** j - 1.0) for lo, hi in zip(col, col[1:])]
            assert float(eval_at_degenerate(P, kind, h, xi)).hex() == col[0].hex()


class _Refusing(Monomial):
    """t^k / k! that refuses t below -LIMIT, and then t above LIMIT, each
    with its own message: a stacked call meets the low refusal of a later
    sample before the high one of an earlier sample."""

    LIMIT = 0.02

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -self.LIMIT):
            raise ValueError(f"low t {float(t.min())}")
        if np.any(t > self.LIMIT):
            raise ValueError(f"high t {float(t.max())}")
        return super().value(t)


def _first_refusal(h, rows):
    """The message h raises first when called on each row in turn."""
    for row in rows:
        try:
            h.value(row)
        except ValueError as e:
            return str(e)
    return None


class TestFallbackExceptionOrder:
    """A stacked fallback raises what evaluating its samples one by one, in
    today's order, raises first."""

    # An axis xi past NEAR_ZERO: its limit takes samples (near 0 it sums the
    # series, which reads h at no sample).
    XI = np.array([0.04, 0.0])

    def test_degenerate_limit(self, simplex):
        h = _Refusing(3)
        samples = self.XI + localize._sample_offsets(2)[0]  # the first eta serves
        want = _first_refusal(h, localize._at(simplex, samples)[0])
        assert want.startswith("high t")  # sample +t0 before -t0
        with pytest.raises(ValueError) as err:
            eval_at_degenerate(simplex, "volume", h, self.XI)
        assert str(err.value) == want

    def test_derivative_limit(self, simplex):
        # The derivative's samples evaluate h, then h', at each sample.
        h = _Refusing(3)
        samples = self.XI + localize._sample_offsets(2)[0]
        want = _first_refusal(h, localize._at(simplex, samples)[0])
        with pytest.raises(ValueError) as err:
            directional_derivative("volume", simplex, h, self.XI, [0.6, 0.3])
        assert str(err.value) == want

    def test_no_samples_at_zero(self, simplex):
        # At xi = 0 the limit reads h^(n)(0) alone: no sample, no refusal.
        assert eval_at_degenerate(simplex, "volume", _Refusing(3), np.zeros(2)) == 0.0


# The bits of every localisation value, recorded by ``_localisation_bits()``
# into tests/data/localize_bits.json.  Refactors of the vertex sums must
# keep each float exactly, and each failure's exception type.
BITS_DIRECTIONS = {"generic": (0.37, -0.21, 0.13), "zero": (0.0, 0.0, 0.0),
                   "axis": (0.8, 0.0, 0.0)}
BITS_PROFILES = {"Exponential": lambda n: Exponential(),
                 "PowerLaw": lambda n: PowerLaw(F(1), F(3), F(-3)),
                 "Monomial": lambda n: Monomial(n + 1),
                 # Limits that do not settle, and steps that cross a pole.
                 "ckem": lambda n: builtin("ckem", n, a=F(1, 2)).g,
                 "PowerLaw-pole": lambda n: PowerLaw(F(1), F(1, 20), F(-3))}


def _bits_of(fn):
    try:
        out = fn()
    except (DegenerateDirectionError, localize.ExtrapolationError,
            ProfileDomainError) as e:
        return type(e).__name__
    if isinstance(out, list):
        return [[float(w.pairing).hex(), float(w.euler).hex(),
                 float(w.c1).hex()] for w in out]
    return float(out).hex()


def _localisation_bits():
    from toricstab import catalog
    bits = {}
    # bl3cp2 has vertices whose pairings a matrix product rounds otherwise.
    for name in ("cp2", "bl1cp2", "bl3cp2", "cube"):
        P = catalog.load(name)
        n = P.dim
        beta = [0.5, 1.0, -0.7][:n]
        for xi_name, xi in BITS_DIRECTIONS.items():
            xi = list(xi[:n])
            bits[f"{name} {xi_name} vertex_weights"] = _bits_of(
                lambda: vertex_weights(P, xi))
            for prof_name, make in BITS_PROFILES.items():
                h = make(n)
                key = f"{name} {xi_name} {prof_name}"
                bits[f"{key} eval_class"] = _bits_of(
                    lambda: eval_class(P, h, xi))
                bits[f"{key} eval_c1_class"] = _bits_of(
                    lambda: eval_c1_class(P, h, xi))
                for kind in ("volume", "c1"):
                    bits[f"{key} directional_derivative {kind}"] = _bits_of(
                        lambda: directional_derivative(kind, P, h, xi, beta))
    return bits


def _exact_moment(P, beta, boundary):
    """int_P <x, beta> dx, or over the boundary of P with the lattice
    measure, as a Fraction; for beta None, the volume or the perimeter.  A
    facet simplex in chart coordinates has the lattice measure of its
    Euclidean volume there, and <x, beta> is affine on it."""
    if not boundary:
        return moments(P) if beta is None else sum(
            F(b) * moments(P, m) for b, m in zip(beta, np.eye(P.dim, dtype=int)))
    scale, total, k = P._enumerate()[0], F(0), P.dim - 1
    for i in P.genuine_facet_indices():
        coords = P._chart(i)[1]
        for s in P.facet_triangulation(i):
            y = [coords[j] for j in s]
            vol = F(abs(la.det([[a - b for a, b in zip(p, y[0])] for p in y[1:]])),
                    scale ** k * math.factorial(k))
            total += vol if beta is None else vol * sum(
                F(b) * P.vertices[j][c] for j in s for c, b in enumerate(beta)) / len(s)
    return total


def _localisation_reference(key):
    """What the ``_localisation_bits`` entry ``key`` approximates, or None
    for vertex weights.  A sum of order m (see ``localize._series``) at
    xi = 0: h^(m)(0) times the exact moment.  Elsewhere the integral it
    localises: the exponential moments for an exponential class, else the
    cubature, exact for a polynomial and in closed form for a power law."""
    name, xi_name, prof_name, fn, *kind = key.split()
    if fn == "vertex_weights":
        return None
    P = catalog.load(name)
    n = P.dim
    boundary = fn == "eval_c1_class" or kind == ["c1"]
    beta = np.array([0.5, 1.0, -0.7][:n]) if kind else None
    h = BITS_PROFILES[prof_name](n).derivative(n - boundary + (beta is not None))
    xi = np.array(BITS_DIRECTIONS[xi_name][:n])
    if not xi.any():
        return float(F(h.value(0.0)) * _exact_moment(P, beta, boundary))
    if prof_name == "Exponential" and not boundary:
        return math.fsum(b * moments(P, m, xi, "exponential") for b, m in zip(
            beta, np.eye(n, dtype=int))) if kind else moments(P, None, xi, "exponential")
    f = Integrand((h, xi), [] if beta is None else [(beta, None)])
    parts = boundary_parts(P, f) if boundary else [(f, P.triangulation_floats())]
    return math.fsum(r.value for r in integrate_parts(parts, CLOSED_FORM))


def test_localisation_bits_are_pinned():
    want = json.loads((DATA / "localize_bits.json").read_text())
    got = _localisation_bits()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key

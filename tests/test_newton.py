import itertools
import math
import random
from fractions import Fraction

import pytest

from monodiv import (
    ExactRootError,
    MathDomainError,
    PolyInt,
    PolyModP,
    build_polygon,
    dedekind_p_maximal,
    discriminant,
    ind_phi,
    index_report,
    phi_development,
    residual_polynomial,
)
from monodiv import certify
from monodiv.newton import PolygonSide, _dedekind, _polygon_from_values
from monodiv.poly import PolyFq, factor_mod_p

F3 = lambda alpha: PolyInt((-3, -alpha, -6, 0, 1))
T_MINUS = lambda t0: PolyInt((-t0, 1))


# --- polygon construction ----------------------------------------------------


def test_polygon_of_f3_alpha2_at_2():
    dev = phi_development(F3(2), T_MINUS(1))
    pg = build_polygon(dev, 2)
    assert pg.points == ((0, 1), (1, 1), (2, None), (3, 2), (4, 0))
    assert pg.sides == (PolygonSide(0, 1, 4, 0, 1),)
    assert pg.sides[0].slope == Fraction(-1, 4)


def test_polygon_montes_shape():
    pg = _polygon_from_values([1, 0, 0, 0])
    assert pg.sides == (PolygonSide(0, 1, 1, 0, 1),)


def test_polygon_collinear_points_merge():
    pg = _polygon_from_values([2, 1, 0])
    assert pg.sides == (PolygonSide(0, 2, 2, 0, 2),)
    assert pg.sides[0].slope == Fraction(-1)


def test_polygon_exact_root_signal():
    dev = phi_development(PolyInt((0, 4, 1)), PolyInt((0, 1)))  # x | x^2 + 4x
    with pytest.raises(ExactRootError):
        build_polygon(dev, 2)


def test_polygon_multiple_sides():
    pg = _polygon_from_values([3, 1, None, 0])
    assert pg.sides == (PolygonSide(0, 3, 1, 1, 1), PolygonSide(1, 1, 3, 0, 1))
    assert [s.slope for s in pg.sides] == [Fraction(-2), Fraction(-1, 2)]


# --- lattice counting --------------------------------------------------------


def test_ind_phi_one_side_from_height_one_is_zero():
    for k in (1, 2, 3, 4, 7):
        pg = _polygon_from_values([1] + [0] * k)
        assert ind_phi(pg, 1) == 0
        assert ind_phi(pg, 3) == 0


def test_ind_phi_triangle_example():
    pg = _polygon_from_values([2, None, 0])
    assert ind_phi(pg, 1) == 1  # exactly the point (1, 1)
    assert ind_phi(pg, 2) == 2


def test_ind_phi_empty_polygon():
    pg = _polygon_from_values([0, 0, 1])
    assert pg.sides == ()
    assert ind_phi(pg, 1) == 0


def test_ind_phi_steeper_examples():
    assert ind_phi(_polygon_from_values([4, None, 0]), 1) == 2  # column x=1, height 2
    assert ind_phi(_polygon_from_values([3, None, None, 0]), 1) == 3  # heights 2, 1
    assert ind_phi(_polygon_from_values([2, 2, 1, 0]), 1) == 1  # hull (0,2)->(3,0)


def _ind_phi_fraction_reference(polygon, deg_phi):
    """The former count: the side's height at x as a Fraction, floored
    when it is at least 1."""
    total = 0
    for idx, side in enumerate(polygon.sides):
        start = side.x0 if idx == 0 else side.x0 + 1
        for x in range(max(start, 1), side.x1 + 1):
            h = Fraction(side.y0) + side.slope * (x - side.x0)
            if h >= 1:
                total += math.floor(h)
    return deg_phi * total


def test_ind_phi_matches_the_fraction_count():
    rng = random.Random(20261018)
    checked = positive = 0
    while checked < 12000:
        vals = [rng.choice([None, 0, 1, 2, 3, 5, 9]) for _ in range(rng.randint(2, 12))]
        if vals[0] is None:
            vals[0] = rng.randint(1, 20)
        if vals[-1] is None:
            vals[-1] = 0
        pg = _polygon_from_values(vals)
        deg_phi = rng.randint(1, 3)
        expected = _ind_phi_fraction_reference(pg, deg_phi)
        assert ind_phi(pg, deg_phi) == expected, vals
        checked += 1
        positive += expected > 0
    assert positive > 6000


# --- residual polynomials ----------------------------------------------------


def _build_dev(p, a0, a1, a2, a3):
    # development of a quartic around T - 1 with prescribed terms
    phi = T_MINUS(1)
    from monodiv.poly import PhiDevelopment

    terms = (
        PolyInt((a0,)),
        PolyInt((a1,)),
        PolyInt((a2,)),
        PolyInt((a3,)),
        PolyInt.one(),
    )
    dev = PhiDevelopment(phi=phi, terms=terms)
    return dev


def test_residual_polynomial_degree_two_side():
    # points (0,2),(1,2),(2,1),(3,1),(4,0): one side (0,2)->(4,0) of degree 2
    p = 5
    dev = _build_dev(p, 25 * 1, 25 * 1, 5 * 2, 5 * 1)
    pg = build_polygon(dev, p)
    assert pg.sides == (PolygonSide(0, 2, 4, 0, 2),)
    rs = residual_polynomial(dev, p, pg.sides[0])
    values = [c.coeffs for c in rs.coeffs]
    assert values == [(1,), (2,), (1,)]  # y^2 + 2y + 1 = (y+1)^2
    assert not rs.is_separable()
    # changing the middle residual coefficient to 1 gives irreducible y^2+y+1
    dev2 = _build_dev(p, 25, 25, 5 * 1, 5)
    rs2 = residual_polynomial(dev2, p, build_polygon(dev2, p).sides[0])
    assert [c.coeffs for c in rs2.coeffs] == [(1,), (1,), (1,)]
    assert rs2.is_separable()
    assert ind_phi(pg, 1) == 2


def test_residual_linear_side_always_separable():
    dev = phi_development(F3(2), T_MINUS(1))
    pg = build_polygon(dev, 2)
    rs = residual_polynomial(dev, 2, pg.sides[0])
    assert rs.degree == 1 == pg.sides[0].degree
    assert rs.is_separable()
    assert not rs.coeffs[0].is_zero and not rs.coeffs[-1].is_zero


def test_residual_rejects_foreign_side():
    dev = phi_development(F3(2), T_MINUS(1))
    with pytest.raises(MathDomainError):
        residual_polynomial(dev, 2, PolygonSide(0, 3, 4, 0, 1))


# --- index reports -----------------------------------------------------------


def test_index_report_guided_examples():
    rep = index_report(F3(2), 2, lifts=[T_MINUS(1)])
    assert rep.ind_p_lower_bound == 0 and rep.exact
    assert rep.per_phi[0].a0_val == 1

    rep = index_report(F3(3), 3, lifts=[PolyInt((0, 1))])
    assert rep.ind_p_lower_bound == 0 and rep.exact
    assert rep.per_phi[0].a0_val == 1  # F3(0) = -3

    rep = index_report(F3(13), 3, lifts=[T_MINUS(4)])
    assert rep.ind_p_lower_bound == 0 and rep.exact
    assert F3(13)(4) == 105
    assert rep.per_phi[0].a0_val == 1


def test_index_report_rejects_bad_lift():
    with pytest.raises(MathDomainError):
        index_report(F3(2), 2, lifts=[PolyInt((0, 1))])  # x is not a factor mod 2


def test_index_report_requires_squarefree():
    with pytest.raises(MathDomainError):
        index_report(PolyInt((1, 2, 1)), 2)


def test_index_report_simple_factors_skipped():
    # alpha odd: F3 irreducible mod 2, no repeated factors, nothing to develop
    rep = index_report(F3(3), 2)
    assert rep.per_phi == ()
    assert rep.ind_p_lower_bound == 0 and rep.exact


def test_index_report_exact_root_lift():
    # x divides x^2 + 4x exactly; polygon is built from the remaining points
    f = PolyInt((0, 4, 1))
    rep = index_report(f, 2, lifts=[PolyInt((0, 1))])
    assert rep.ind_p_lower_bound == 2 and rep.exact
    assert rep.per_phi[0].a0_val is None
    assert not dedekind_p_maximal(f, 2)
    # v_2 of the true index: disc = 16, etale algebra Q x Q has disc 1
    assert discriminant(f) == 16

    g = PolyInt((0, 8, 6, 1))  # x(x+2)(x+4), disc 256, index 2^4
    rep = index_report(g, 2, lifts=[PolyInt((0, 1))])
    assert rep.ind_p_lower_bound == 4 and rep.exact


def test_index_report_lift_choice():
    # x^2 + 4x at p = 2: lift x is exact with the true index, lift x + 2
    # yields an inseparable residual and only an inexact lower bound
    f = PolyInt((0, 4, 1))
    exact = index_report(f, 2, lifts=[PolyInt((0, 1))])
    assert (exact.ind_p_lower_bound, exact.exact) == (2, True)
    inexact = index_report(f, 2, lifts=[PolyInt((2, 1))])
    assert (inexact.ind_p_lower_bound, inexact.exact) == (1, False)


def test_index_report_lift_invariance_when_exact():
    # two different lifts of T - 1 mod 2 give the same exact answer
    for lift in (T_MINUS(1), T_MINUS(3), PolyInt((5, 1))):
        rep = index_report(F3(2), 2, lifts=[lift])
        assert (rep.ind_p_lower_bound, rep.exact) == (0, True)
    # the same holds for a positive index: x and x + 4 both divide x^2 + 4x
    # exactly and give the identical exact bound 2
    f = PolyInt((0, 4, 1))
    for lift in (PolyInt((0, 1)), PolyInt((4, 1))):
        rep = index_report(f, 2, lifts=[lift])
        assert (rep.ind_p_lower_bound, rep.exact) == (2, True)


def test_index_report_quadratic_residue_field():
    # (x^2+1)^2 + 3: the repeated factor mod 3 is an irreducible quadratic,
    # so residual data lives in F_9; one side (0,1)->(2,0), index 0
    f1 = PolyInt((4, 0, 2, 0, 1))
    rep = index_report(f1, 3)
    assert rep.per_phi[0].phi == PolyInt((1, 0, 1))
    assert (rep.ind_p_lower_bound, rep.exact) == (0, True)
    assert dedekind_p_maximal(f1, 3)

    # (x^2+1)^2 + 3x(x^2+1) + 9: side (0,2)->(2,0) of degree 2, residual
    # y^2 + x*y + 1 over F_9, separable; exact index 2 (disc has 3^4)
    f2 = PolyInt((10, 3, 2, 3, 1))
    assert discriminant(f2) == 91449 == 3**4 * 1129
    rep = index_report(f2, 3)
    pr = rep.per_phi[0]
    assert (rep.ind_p_lower_bound, rep.exact) == (2, True)
    assert pr.polygon.sides == (PolygonSide(0, 2, 2, 0, 2),)
    assert [c.coeffs for c in pr.residuals[0].coeffs] == [
        (1,),
        (0, 1),
        (1,),
    ]
    assert pr.residuals[0].is_separable()
    assert not dedekind_p_maximal(f2, 3)


def test_index_report_two_repeated_factors():
    # x(x+1)(x+3)(x+4) = x^2 (x+1)^2 mod 3: both factors contribute 1
    f = PolyInt((0, 12, 19, 8, 1))
    assert discriminant(f) == 5184 == 2**6 * 3**4
    rep = index_report(f, 3)
    assert [(pr.phi.to_text(), pr.exponent, pr.ind_phi) for pr in rep.per_phi] == [
        ("0,1", 2, 1),
        ("1,1", 2, 1),
    ]
    assert (rep.ind_p_lower_bound, rep.exact) == (2, True)
    assert not dedekind_p_maximal(f, 3)


# --- factorization witnesses --------------------------------------------------


def _mod(p, *pairs):
    return [(PolyModP(p, coeffs), e) for coeffs, e in pairs]


# F3(13) = T (T - 1)^3 mod 3 (T - 1 = T + 2); each witness is wrong in one way
@pytest.mark.parametrize(
    "witness, reason",
    [
        (_mod(3, ((0, 1), 1), ((2, 1), 2)), "witness product"),
        # T^2 - T = T (T - 1) is reducible; the product still matches
        (_mod(3, ((0, 2, 1), 1), ((2, 1), 2)), "is not irreducible"),
        (_mod(3, ((0, 1), 1), ((2, 1), 1), ((2, 1), 2)), "not pairwise distinct"),
        (_mod(5, ((0, 1), 1)) + _mod(3, ((2, 1), 3)), "is not a polynomial mod p = 3"),
        # (2T) (2T - 2)^3 = 16 T (T - 1)^3, the right product with non-monic factors
        (_mod(3, ((0, 2), 1), ((1, 2), 3)), "is not monic"),
        (_mod(3, ((0, 1), 1), ((2, 1), 3), ((1, 1), 0)), "multiplicity 0 < 1"),
        ([(PolyInt((0, 1)), 1), (PolyInt((-1, 1)), 3)], "is not a polynomial mod p = 3"),
    ],
)
def test_index_report_rejects_wrong_witness(witness, reason):
    good = _mod(3, ((2, 1), 3), ((0, 1), 1))
    assert index_report(F3(13), 3, factors=good) == index_report(F3(13), 3)
    with pytest.raises(MathDomainError, match=reason):
        index_report(F3(13), 3, lifts=[T_MINUS(4)], factors=witness)


def test_witness_path_matches_factor_mod_p_path():
    rng = random.Random(20261019)
    compared = nonlinear = 0
    for Phi, p in _dedekind_corpus(rng, 800):
        if discriminant(Phi) == 0:
            continue
        factors = factor_mod_p(Phi.reduce_mod(p))
        witness = factors[:]
        rng.shuffle(witness)
        assert index_report(Phi, p, factors=witness) == index_report(Phi, p), (Phi, p)
        compared += 1
        nonlinear += any(fac.degree > 1 and e > 1 for fac, e in factors)
    assert compared > 500 and nonlinear > 20


def test_polygon_points_above_sides():
    rng = random.Random(115)
    for _ in range(200):
        vals = [rng.choice([None, 0, 1, 2, 3, 4]) for _ in range(rng.randint(2, 7))]
        if vals[-1] is None:
            vals[-1] = 0
        if all(v is None for v in vals[:-1]):
            continue
        pg = _polygon_from_values(vals)
        slopes = [s.slope for s in pg.sides]
        assert slopes == sorted(slopes)
        assert all(s < 0 for s in slopes)
        for j, v in pg.points:
            if v is None:
                continue
            for side in pg.sides:
                if side.x0 <= j <= side.x1:
                    assert Fraction(v) >= side.y0 + side.slope * (j - side.x0)


# --- Dedekind criterion ------------------------------------------------------


def test_dedekind_examples():
    for p in (2, 3, 5):
        assert dedekind_p_maximal(F3(2), p)
    for p in (2, 3, 5, 7):
        assert not dedekind_p_maximal(PolyInt((-p * p, 0, 1)), p)  # T^2 - p^2
        assert dedekind_p_maximal(PolyInt((-p, 0, 1)), p)  # T^2 - p


def test_montes_vs_dedekind_small_corpus(rng):
    # exactness holds on most of the corpus; whenever it does, the zero-index
    # conclusion must match Dedekind's criterion
    checked = 0
    trials = 0
    while checked < 200 and trials < 4000:
        trials += 1
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-40, 40) for _ in range(deg)] + [1]
        f = PolyInt(coeffs)
        if discriminant(f) == 0:
            continue
        p = rng.choice([2, 3, 5, 7, 11, 13])
        rep = index_report(f, p)
        assert rep.dedekind == dedekind_p_maximal(f, p)
        if rep.exact:
            assert (rep.ind_p_lower_bound == 0) == dedekind_p_maximal(f, p)
            checked += 1
        else:
            if rep.ind_p_lower_bound > 0:
                assert not dedekind_p_maximal(f, p)
    assert checked >= 200


# --- Dedekind on the factor list against the former gcd form -------------------


def _dedekind_gcd_reference(Phi, p, factors):
    """The former form: with g = prod phi_i and h a lift of Phi-bar / g-bar,
    test gcd((gh - Phi)/p, g, h) = 1 over F_p."""
    fbar = Phi.reduce_mod(p)
    g_bar = PolyModP(p, (1,))
    for fac, _ in factors:
        g_bar = g_bar * fac
    h_bar = fbar // g_bar
    g, h = g_bar.lift(), h_bar.lift()
    F_bar = (g * h - Phi).exact_scalar_div(p).reduce_mod(p)
    d = g_bar.gcd(h_bar)
    if not F_bar.is_zero:
        d = d.gcd(F_bar)
    return d.degree == 0


def _dedekind_corpus(rng, cases):
    """Monic integer Phi of degree 1-8 with a prime p; every other case is a
    product of prime powers mod p (p-th powers included), perturbed by p*g."""
    for i in range(cases):
        p = rng.choice([2, 3, 5, 7, 11, 13, 31, 10007])
        deg = rng.randint(1, 8)
        if i % 2:
            yield PolyInt([rng.randint(-50, 50) for _ in range(deg)] + [1]), p
            continue
        Phi = PolyInt.one()
        while Phi.degree < deg:
            d = rng.randint(1, min(2, deg - Phi.degree))
            base = PolyInt([rng.randrange(p) for _ in range(d)] + [1])
            e = rng.choice([1, 2, 3, p]) if p <= 8 else rng.choice([1, 2, 3])
            e = max(1, min(e, (deg - Phi.degree) // d))
            Phi = Phi * base**e
        if Phi.degree > 1:
            scale = p * rng.choice([1, 1, p])
            tail = [rng.randint(-9, 9) for _ in range(rng.randint(0, Phi.degree))]
            Phi = Phi + PolyInt(scale * c for c in tail)
        yield Phi, p


def test_dedekind_on_factor_list_matches_gcd_form():
    outcomes = []
    for Phi, p in _dedekind_corpus(random.Random(20261018), 3000):
        factors = factor_mod_p(Phi.reduce_mod(p))
        expected = _dedekind_gcd_reference(Phi, p, factors)
        assert _dedekind(Phi, p, factors) == expected, (Phi, p)
        outcomes.append(expected)
    assert outcomes.count(False) > 300 and outcomes.count(True) > 300


def test_certificate_dedekind_rows_match_gcd_form():
    rows = 0
    for alpha in range(-300, 301):
        for row in certify(alpha).primes:
            f3 = F3(alpha)
            factors = factor_mod_p(f3.reduce_mod(row.p))
            assert row.dedekind == _dedekind_gcd_reference(f3, row.p, factors), (alpha, row.p)
            rows += 1
    assert rows > 1000


# --- polynomials over F_p[x]/(phi) against the former free functions ---------


class _RefElem:
    """An element of F_p[x]/(phi) for the reference below: a PolyModP
    reduced mod phi, whose inverse is found by search over the field."""

    def __init__(self, phi, value):
        self.phi, self.value = phi, value % phi

    @property
    def is_zero(self):
        return self.value.is_zero

    def __bool__(self):
        return not self.is_zero

    def __sub__(self, other):
        return _RefElem(self.phi, self.value - other.value)

    def __mul__(self, other):
        other = other.value if isinstance(other, _RefElem) else other
        return _RefElem(self.phi, self.value * other)

    def inverse(self):
        p, one = self.phi.p, PolyModP(self.phi.p, (1,))
        for digits in itertools.product(range(p), repeat=self.phi.degree):
            y = _RefElem(self.phi, PolyModP(p, digits))
            if (self * y).value == one:
                return y
        raise ZeroDivisionError("zero has no inverse")


def _ref_normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return tuple(coeffs)


def _ref_divrem(a, b):
    a, b = list(a), list(b)
    inv = b[-1].inverse()
    q = [b[-1] - b[-1]] * max(0, len(a) - len(b) + 1)
    r = a[:]
    d = len(b) - 1
    for i in range(len(r) - 1 - d, -1, -1):
        c = r[i + d] * inv
        if c:
            q[i] = c
            for j, bc in enumerate(b):
                r[i + j] = r[i + j] - c * bc
    return _ref_normalize(q), _ref_normalize(r[:d])


def _ref_gcd(a, b):
    a, b = _ref_normalize(a), _ref_normalize(b)
    while b:
        _, r = _ref_divrem(a, b)
        a, b = b, r
    inv = a[-1].inverse()
    return _ref_normalize(c * inv for c in a)


def _ref_is_separable(a):
    a = _ref_normalize(a)
    da = _ref_normalize(c * i for i, c in enumerate(a) if i)
    if not da:
        return False
    return len(_ref_gcd(a, da)) == 1


def test_residue_field_polynomials_match_reference():
    rng = random.Random(20261018)
    for p in (2, 3, 5, 7):
        for d in (1, 2, 3):
            while True:
                phi = PolyModP(p, [rng.randrange(p) for _ in range(d)] + [1])
                if phi.is_irreducible():
                    break

            def elem(nonzero=False):
                while True:
                    x = PolyModP(p, [rng.randrange(p) for _ in range(d)])
                    if not x.is_zero or not nonzero:
                        return x

            def poly(deg):
                return PolyFq(phi, [elem() for _ in range(deg)] + [elem(nonzero=True)])

            def ref(f):
                return [_RefElem(phi, c) for c in f.coeffs]

            def values(coeffs):
                return tuple(c.value for c in coeffs)

            for _ in range(25):
                x, y = elem(), elem()
                xy = (_RefElem(phi, x) * _RefElem(phi, y)).value
                assert PolyFq(phi, [x]) * PolyFq(phi, [y]) == PolyFq(phi, [xy])
                if not x.is_zero:
                    assert PolyFq(phi)._inverse(x) == _RefElem(phi, x).inverse().value
                f, g = poly(rng.randint(1, 3)), poly(rng.randint(0, 3))
                if rng.random() < 0.5:
                    f = f * f * g  # a repeated factor
                q, r = _ref_divrem(ref(f), ref(g))
                assert f.divrem(g) == (PolyFq(phi, values(q)), PolyFq(phi, values(r)))
                assert f.gcd(g).coeffs == values(_ref_gcd(ref(f), ref(g)))
                assert f.is_separable() == _ref_is_separable(ref(f))


def test_fq_inverse_of_every_nonzero_element():
    for p in (2, 3, 5, 7):
        one = PolyModP(p, (1,))
        for d in (1, 2, 3):
            for tail in itertools.product(range(p), repeat=d):
                phi = PolyModP(p, tail + (1,))
                if not phi.is_irreducible():
                    continue
                for digits in itertools.product(range(p), repeat=d):
                    c = PolyModP(p, digits)
                    if not c.is_zero:
                        unit = PolyFq(phi, [c]).monic()
                        assert unit.coeffs == (one,) and unit.is_monic, (phi, c)


def _linear_fq_cases():
    """Seeded quadratics over F_q = F_p[x]/(x + r) at two large p: for each p,
    a random quadratic and b (a T + c)^2, whose repeated root is -c/a."""
    rng = random.Random("fq-linear-modulus")
    for p in (2**31 - 1, 2**61 - 1):
        phi = PolyModP(p, (rng.randrange(p), 1))
        for _ in range(8):
            a, b, c = (PolyModP(p, (rng.randrange(1, p),)) for _ in range(3))
            yield PolyFq(phi, (c, b, a)), None
            root = PolyModP(p, (-c.coeffs[0] * pow(a.coeffs[0], p - 2, p),))
            yield PolyFq(phi, (b,)) * PolyFq(phi, (c, a)) ** 2, root


def test_fq_inverse_over_a_linear_modulus_at_large_p():
    # deg phi = 1 inverts with pow(c, -1, p); the expected values are those
    # of the Fermat power c^(p-2) it replaces
    rng = random.Random("fq-linear-inverse")
    for p in (2**31 - 1, 2**61 - 1):
        phi = PolyModP(p, (rng.randrange(p), 1))
        for _ in range(20):
            c = PolyModP(p, (rng.randrange(1, p),))
            inv = PolyFq(phi)._inverse(c)
            assert c * inv % phi == PolyModP(p, (1,))
            assert inv.coeffs == (pow(c.coeffs[0], p - 2, p),)
    verdicts = []
    for f, root in _linear_fq_cases():
        verdicts.append(f.is_separable())
        if root is not None:
            one = PolyModP(root.p, (1,))
            assert f.gcd(f.derivative()) == PolyFq(f.modulus, (-root, one))
    assert verdicts == [True, False] * 16  # as the Fermat inverse gave them

import functools
import gc
import math
from fractions import Fraction

import pytest

from monodiv import (
    MathDomainError,
    PolyRat,
    SingularCurveError,
    T_to_x,
    WeierstrassCurve,
    discriminant,
    fueter,
    fueter_disc,
    fueter_value,
    psi,
    psi_fueter_identity_check,
    psi_value,
    tate_curve,
    verdure_disc,
)
from conftest import random_curve, random_rational_curve, random_tate_params
from references import (
    b_invariants,
    delta_fraction,
    double_x,
    psi_fueter_identity_fraction,
    two_torsion_poly,
    x_to_T,
)


# --- curve models ------------------------------------------------------------


def test_tate_curve_invariants():
    tc = tate_curve(2, 1)
    w = tc.weierstrass
    assert tc.a == 10
    # Delta = beta^4 (alpha - 8 beta) a^7 and c4 = a^2 (alpha^2 - 48 beta^2)
    assert w.delta == (2 - 8) * (2 + 8) ** 7 == -6 * 10**7
    u, b2, b4, _, _ = w.integral_model
    assert u == 1 and b2**2 - 24 * b4 == 10**2 * (2**2 - 48)
    assert tate_curve(0, 1).weierstrass.delta == -(2**24)


def test_tate_curve_rejects_singular_and_non_coprime():
    with pytest.raises(SingularCurveError):
        tate_curve(8, 1)
    with pytest.raises(SingularCurveError):
        tate_curve(-8, 1)
    with pytest.raises(MathDomainError):
        tate_curve(2, 4)


def test_tate_delta_closed_form_random(rng):
    for _ in range(25):
        alpha, beta = random_tate_params(rng)
        tc = tate_curve(alpha, beta)
        assert tc.weierstrass.delta == beta**4 * (alpha - 8 * beta) * (alpha + 8 * beta) ** 7


def test_weierstrass_b_identity(rng):
    for _ in range(20):
        for c in (random_curve(rng), random_rational_curve(rng)):
            u, b2, b4, b6, b8 = c.integral_model
            assert all(type(b) is int for b in (u, b2, b4, b6, b8))
            assert 4 * b8 == b2 * b6 - b4**2


def test_integral_model_matches_the_fraction_formulas(rng):
    curves = [random_rational_curve(rng, bound=40) for _ in range(25)]
    curves += [
        tate_curve(*random_tate_params(rng, bound=500)).weierstrass for _ in range(10)
    ] + [tate_curve(a, b).weierstrass for a, b in ((3, -10), (-1399, -40), (-12, 1), (0, 1))]
    # b2 = 0 with u = 1 and with u = 48
    curves += [
        WeierstrassCurve(0, 0, 1, -1, 0),
        WeierstrassCurve(Fraction(1, 2), Fraction(-1, 16), Fraction(1, 3), 2, Fraction(-5, 4)),
    ]
    assert sum(w.integral_model[0] > 1 for w in curves) >= 25
    for w in curves:
        u, *b = w.integral_model
        assert u == math.lcm(*(c.denominator for c in (w.a1, w.a2, w.a3, w.a4, w.a6)))
        assert all(type(x) is int for x in (u, *b))
        assert [Fraction(bi, u**i) for bi, i in zip(b, (2, 4, 6, 8))] == list(b_invariants(w))
        assert w.delta == delta_fraction(w) != 0, w


def test_singular_curves_with_denominators_are_rejected(rng):
    # y^2 = (x - r)^2 (x - s) has a node or a cusp at x = r
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, Fraction(1, 4), 0, 0, 0)
    for _ in range(10):
        r = Fraction(rng.randint(-30, 30), rng.randint(2, 12))
        s = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        a2, a4, a6 = -(2 * r + s), r * r + 2 * r * s, -r * r * s
        # y -> y + (a1 x + a3)/2 gives the same curve an a1 and an a3
        a1, a3 = Fraction(rng.randint(-9, 9), 2), Fraction(rng.randint(-9, 9), 3)
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(
                a1, a2 - a1 * a1 / 4, a3, a4 - a1 * a3 / 2, a6 - a3 * a3 / 4
            )


def test_fueter_disc_rejects_beta_zero():
    with pytest.raises(SingularCurveError, match="singular Tate parameters"):
        fueter_disc(3, 5, 0)
    with pytest.raises(SingularCurveError) as from_curve:
        tate_curve(1, 0)
    with pytest.raises(SingularCurveError) as from_disc:
        fueter_disc(5, 1, 0)
    assert str(from_disc.value) == str(from_curve.value)
    # the other singular parameters still give the vanishing discriminant
    assert fueter_disc(3, 8, 1) == fueter_disc(5, -16, -2) == 0


# --- coordinate change -------------------------------------------------------


def test_coordinate_change_examples():
    tc = tate_curve(2, 1)
    assert x_to_T(0, tc) == 1
    assert T_to_x(1, tc) == 0
    assert T_to_x(-1, tc) == -20


def test_coordinate_change_round_trip(rng):
    tc = tate_curve(3, 2)
    for _ in range(20):
        T = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        if T == 0:
            continue
        assert x_to_T(T_to_x(T, tc), tc) == T


def test_coordinate_change_poles():
    tc = tate_curve(2, 1)
    with pytest.raises(MathDomainError):
        T_to_x(0, tc)
    with pytest.raises(MathDomainError):
        x_to_T(-10, tc)  # x = -a*beta


# --- division polynomials ----------------------------------------------------


def test_psi_small_values_on_tate_curve():
    tc = tate_curve(2, 1)
    w = tc.weierstrass
    a, b = 10, 1
    p3 = psi(w, 3)
    assert not p3.even_part
    assert p3.poly(0) == b**3 * a**5
    p4 = psi(w, 4)
    assert p4.even_part
    assert p4.poly(0) == 0  # psi_4(0) = psi_2(0) * f4(0) with f4(0) = 0


def _psi_values_at(w, x, nmax):
    """Value-level recursion oracle: psi-part values at a fixed abscissa."""
    b2, b4, b6, b8 = b_invariants(w)
    B = ((4 * x + b2) * x + 2 * b4) * x + b6
    v = {
        1: Fraction(1),
        2: Fraction(1),
        3: ((((3 * x + b2) * x + 3 * b4) * x + 3 * b6) * x) + b8,
        4: (
            ((((((2 * x + b2) * x + 5 * b4) * x + 10 * b6) * x + 10 * b8) * x)
             + (b2 * b8 - b4 * b6)) * x
            + (b4 * b8 - b6 * b6)
        ),
    }
    for n in range(5, nmax + 1):
        if n % 2:
            m = (n - 1) // 2
            if m % 2 == 0:
                v[n] = B * B * v[m + 2] * v[m] ** 3 - v[m - 1] * v[m + 1] ** 3
            else:
                v[n] = v[m + 2] * v[m] ** 3 - B * B * v[m - 1] * v[m + 1] ** 3
        else:
            m = n // 2
            v[n] = v[m] * (v[m + 2] * v[m - 1] ** 2 - v[m - 2] * v[m + 1] ** 2)
    return v


def test_psi_vanishing_at_zero_iff_4_divides_n():
    for alpha, beta, poly_cap in ((2, 1, 24), (3, 2, 12)):
        tc = tate_curve(alpha, beta)
        w = tc.weierstrass
        a3 = Fraction(beta * tc.a**2)
        values = _psi_values_at(w, Fraction(0), 40)
        for n in range(1, 41):
            value = values[n] * (a3 if n % 2 == 0 else 1)
            assert (value == 0) == (n % 4 == 0), n
            if n <= poly_cap:  # anchor the oracle to the full polynomials
                assert psi(w, n).poly(0) == values[n], n


def test_psi_degrees_and_leading_coefficients(rng):
    w = random_curve(rng)
    for n in range(1, 14):
        dp = psi(w, n)
        if n % 2:
            assert dp.poly.degree == (n * n - 1) // 2
            assert dp.poly.lc == n
        elif n > 2:
            assert dp.poly.degree == (n * n - 4) // 2
            assert dp.poly.lc == Fraction(n, 2)


def test_fueter_closed_forms():
    tc = tate_curve(2, 1)
    assert fueter(tc, 3).poly == PolyRat((-3, -2, -6, 0, 1))
    f4 = fueter(tc, 4)
    assert f4.poly == PolyRat((-2, -2, -10, 0, 10, 2, 2))
    assert f4.poly * Fraction(2, 4) == PolyRat((-1, -1, -5, 0, 5, 1, 1))
    f5 = fueter(tc, 5)
    assert f5.poly.degree == 12 and f5.poly.is_monic


def test_fueter_four_torsion_part_symbolic(rng):
    # F_4 / F_2 = 2T^6 + q T^5 + 10 T^4 - 10 T^2 - q T - 2 with q = alpha/beta
    for _ in range(10):
        alpha, beta = random_tate_params(rng)
        q = Fraction(alpha, beta)
        assert fueter(tate_curve(alpha, beta), 4).poly == PolyRat(
            (-2, -q, -10, 0, 10, q, 2)
        )


def test_fueter_degrees_and_monic(rng):
    tc = tate_curve(5, 2)
    for n in range(3, 14, 2):
        f = fueter(tc, n).poly
        assert f.degree == (n * n - 1) // 2 and f.is_monic
    for n in range(4, 13, 2):
        f = fueter(tc, n).poly
        assert f.degree == (n * n - 4) // 2 and f.lc == Fraction(n, 2)


def _fueter_from_psi(tc, n):
    """Independent route: change of variables applied to psi_n.

    For odd n:  F_n = (-1)^((n-1)/2) (a b)^(-d) sum_i c_i (a b)^i (1-T)^i T^(d-i).
    For even n: same with d = (n^2-4)/2, sign (-1)^((n+2)/2), c_i from psi_n/psi_2.
    """
    ab = tc.a * tc.beta
    dp = psi(tc.weierstrass, n)
    if n % 2:
        d = (n * n - 1) // 2
        sign = -1 if ((n - 1) // 2) % 2 else 1
    else:
        d = (n * n - 4) // 2
        sign = -1 if ((n + 2) // 2) % 2 else 1
    one_minus_T = PolyRat((1, -1))
    T = PolyRat((0, 1))
    out = PolyRat(())
    for i, c in enumerate(dp.poly.coeffs):
        if c:
            out = out + c * Fraction(ab) ** i * one_minus_T**i * T ** (d - i)
    return out * (Fraction(sign) / Fraction(ab) ** d)


@pytest.mark.parametrize("alpha,beta", [(2, 1), (3, 1), (5, 2), (-7, 3)])
def test_fueter_recurrence_matches_transform_route(alpha, beta):
    tc = tate_curve(alpha, beta)
    for n in range(1, 10):
        assert fueter(tc, n).poly == _fueter_from_psi(tc, n), (alpha, beta, n)


def test_psi_fueter_identity_examples():
    tc = tate_curve(2, 1)
    assert psi_fueter_identity_check(tc, 1, 5)
    assert psi_fueter_identity_check(tc, 3, 2)


def test_psi_fueter_identity_sweep(rng):
    for _ in range(5):
        alpha, beta = random_tate_params(rng)
        tc = tate_curve(alpha, beta)
        for n in (3, 5, 7, 9):
            for _ in range(4):
                T = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                if T == 0:
                    continue
                assert psi_fueter_identity_check(tc, n, T)


def test_psi_fueter_identity_matches_the_fraction_form(rng):
    curves = [tate_curve(*random_tate_params(rng, bound=300)) for _ in range(4)]
    curves += [tate_curve(a, b) for a, b in ((3, -10), (-1399, -40), (977, 37), (-7, -1))]
    points = [
        Fraction(1), Fraction(-1), Fraction(1, 7), Fraction(-40, 3),
        Fraction(3, 2**64 + 13), Fraction(-(2**65) - 3, 7), Fraction(2**65 + 3, 3**41),
    ]
    for tc in curves:
        for n in (1, 3, 5, 7, 9):
            for T in points + [Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))]:
                expected = psi_fueter_identity_fraction(tc, n, T)
                assert expected and psi_fueter_identity_check(tc, n, T), (tc, n, T)


def test_psi_fueter_identity_rejects_even_n():
    with pytest.raises(MathDomainError):
        psi_fueter_identity_check(tate_curve(2, 1), 4, 2)


# --- doubling ----------------------------------------------------------------


def test_double_x_examples():
    tc = tate_curve(2, 1)
    assert double_x(tc, 0) == -10
    x2 = double_x(tate_curve(13, 1), -32)
    assert (x2.numerator - (-16) * x2.denominator) % 5 == 0  # == -2^4 mod 5


def test_double_x_two_torsion_pole():
    tc = tate_curve(2, 1)
    with pytest.raises(MathDomainError):
        double_x(tc, -10)  # double_x(0) = -10 is a 2-torsion abscissa


def test_double_x_reduction_lemma_sweep(rng):
    # for odd p | alpha - 8 beta the image of the singular abscissa is
    # -2^4 beta^2 mod p, which differs from the singular -2^5 beta^2
    from monodiv.arith import factor

    count = 0
    while count < 30:
        alpha, beta = random_tate_params(rng)
        for p in factor(alpha - 8 * beta).primes():
            if p == 2 or beta % p == 0:
                continue
            x2 = double_x(tate_curve(alpha, beta), -32 * beta * beta)
            num = x2.numerator + 16 * beta * beta * x2.denominator
            assert num % p == 0
            diff = (-16 * beta * beta) - (-32 * beta * beta)
            assert diff % p != 0
            count += 1


# --- discriminant closed forms -----------------------------------------------


def test_verdure_examples():
    assert verdure_disc(3, 7) == -27 * 49
    assert verdure_disc(5, 3) == 5**11 * 3**22


def test_verdure_odd_matches_discriminant(rng):
    curves = [random_curve(rng) for _ in range(4)] + [tate_curve(2, 1).weierstrass]
    for w in curves:
        for n in (3, 5, 7):
            assert discriminant(psi(w, n).poly) == verdure_disc(n, w.delta)


def test_verdure_even_matches_discriminant(rng):
    curves = [random_curve(rng) for _ in range(5)]
    for w in curves:
        assert verdure_disc(2, w.delta) == 1  # degree-0 carrier, empty product
        for n in (4, 6, 8):
            assert discriminant(psi(w, n).poly) == verdure_disc(n, w.delta)


def test_verdure_large_n_on_tate_curve():
    w = tate_curve(2, 1).weierstrass
    for n in (9, 11, 13):
        assert discriminant(psi(w, n).poly) == verdure_disc(n, w.delta)


def test_fueter_disc_examples_and_sweep():
    assert fueter_disc(3, 2, 1) == -27 * (2 - 8) ** 2 * (2 + 8) ** 2
    for alpha, beta in ((2, 1), (3, 1), (5, 2), (-11, 4)):
        tc = tate_curve(alpha, beta)
        for n in (3, 5, 7, 9):
            assert discriminant(fueter(tc, n).poly) == fueter_disc(n, alpha, beta)


def test_field_disc_shape():
    # disc(F_3) = -27 (alpha - 8)^2 (alpha + 8)^2 for beta = 1
    for alpha in range(-12, 13):
        if alpha in (8, -8):
            continue
        tc = tate_curve(alpha, 1)
        assert discriminant(fueter(tc, 3).poly) == -27 * (alpha - 8) ** 2 * (alpha + 8) ** 2


# --- memoization contract ----------------------------------------------------


def test_psi_concurrent_consistency():
    import threading

    w = tate_curve(7, 1).weierstrass
    results = []

    def worker():
        results.append(psi(w, 9).poly)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_recurrence_leaves_no_cyclic_garbage():
    # each call's table of intermediate terms must die by reference counting
    tc = tate_curve(7, 3)
    w = WeierstrassCurve(1, -1, 0, Fraction(3, 2), -5)
    gc.collect()
    gc.disable()
    try:
        psi(w, 13)
        psi(tc.weierstrass, 12)
        fueter(tc, 13)
        psi_value(w, 13, Fraction(2, 3))
        fueter_value(tc, 12, Fraction(-5, 7))
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- differential test against the former two-recurrence implementation ------
#
# psi and fueter used to run two copies of the division recurrence, each
# memoized across calls.  Both copies are frozen here, unchanged apart from
# the memo, the former TateNormalCurve.fueter_quadratic written out and the
# b-invariants read through `b_invariants`, as the reference for the shared
# per-call recurrence.


@functools.lru_cache(maxsize=None)
def _reference_psi_part(curve, n):
    P = functools.partial(_reference_psi_part, curve)
    b2, b4, b6, b8 = b_invariants(curve)
    if n in (1, 2):
        return PolyRat.one()
    if n == 3:
        return PolyRat((b8, 3 * b6, 3 * b4, b2, 3))
    if n == 4:
        return PolyRat(
            (b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2)
        )
    B = two_torsion_poly(curve)
    if n % 2:
        m = (n - 1) // 2
        if m % 2 == 0:
            return B * B * P(m + 2) * P(m) ** 3 - P(m - 1) * P(m + 1) ** 3
        return P(m + 2) * P(m) ** 3 - B * B * P(m - 1) * P(m + 1) ** 3
    m = n // 2
    return P(m) * (P(m + 2) * P(m - 1) ** 2 - P(m - 2) * P(m + 1) ** 2)


@functools.lru_cache(maxsize=None)
def _reference_fueter_part(curve, n):
    F = functools.partial(_reference_fueter_part, curve)
    q = Fraction(curve.alpha, curve.beta)
    if n in (1, 2):
        return PolyRat.one()
    if n == 3:
        return PolyRat((-3, -q, -6, 0, 1))
    if n == 4:
        return PolyRat((-2, -q, -10, 0, 10, q, 2))
    C = PolyRat((4, q, 4))  # F_2^2 = 4T^2 + (alpha/beta) T + 4
    if n % 2:
        m = (n - 1) // 2
        sign = -1 if (m + 1) % 2 else 1
        if m % 2 == 0:
            val = C * C * F(m + 2) * F(m) ** 3 - F(m - 1) * F(m + 1) ** 3
        else:
            val = F(m + 2) * F(m) ** 3 - C * C * F(m - 1) * F(m + 1) ** 3
        return val * sign
    m = n // 2
    sign = -1 if m % 2 else 1
    return sign * F(m) * (F(m + 2) * F(m - 1) ** 2 - F(m - 2) * F(m + 1) ** 2)


def _assert_matches_reference(curve, ns):
    for n in ns:
        dp = psi(curve, n)
        assert (dp.n, dp.even_part) == (n, n % 2 == 0)
        assert dp.poly.coeffs == _reference_psi_part(curve, n).coeffs, n


def test_psi_matches_reference_on_random_weierstrass_curves(rng):
    for _ in range(3):
        _assert_matches_reference(random_curve(rng), range(1, 14))


def test_psi_and_fueter_match_reference_on_random_tate_curves(rng):
    for _ in range(3):
        tc = tate_curve(*random_tate_params(rng))
        _assert_matches_reference(tc.weierstrass, range(1, 14))
        for n in range(1, 14):
            dp = fueter(tc, n)
            assert (dp.n, dp.even_part) == (n, n % 2 == 0)
            assert dp.poly.coeffs == _reference_fueter_part(tc, n).coeffs, n


def test_psi_and_fueter_match_reference_at_large_n():
    tc = tate_curve(2, 1)
    _assert_matches_reference(tc.weierstrass, (16, 25))
    for n in (16, 25):
        assert fueter(tc, n).poly.coeffs == _reference_fueter_part(tc, n).coeffs, n


def test_psi_matches_reference_on_rational_weierstrass_curves(rng):
    # a-invariants with denominators: the integral model has u > 1
    for _ in range(6):
        w = random_rational_curve(rng)
        _assert_matches_reference(w, range(1, 12))
    w = WeierstrassCurve(Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(3, 4), -7)
    _assert_matches_reference(w, (12, 13))
    for dp in (psi(w, 13), fueter(tate_curve(3, 29), 13)):
        assert type(dp.poly) is PolyRat
        assert all(type(c) is Fraction for c in dp.poly.coeffs)


@pytest.mark.parametrize("alpha,beta", [(-1399, 40), (977, 37), (3, 29)])
def test_psi_and_fueter_match_reference_for_large_beta(alpha, beta):
    tc = tate_curve(alpha, beta)
    ns = (5, 10, 13, 16, 25)
    _assert_matches_reference(tc.weierstrass, ns)
    for n in ns:
        assert fueter(tc, n).poly.coeffs == _reference_fueter_part(tc, n).coeffs, n


@pytest.mark.parametrize("alpha,beta", [(3, -10), (-1399, -40), (-7, -1), (977, -37)])
def test_psi_and_fueter_match_reference_for_negative_beta(alpha, beta):
    tc = tate_curve(alpha, beta)
    ns = (*range(1, 11), 13)
    _assert_matches_reference(tc.weierstrass, ns)
    for n in ns:
        f = fueter(tc, n).poly
        assert f.coeffs == _reference_fueter_part(tc, n).coeffs, n
        assert f.den > 0 and math.gcd(f.den, *f.num) == 1, n


@pytest.mark.parametrize("family", ["rational", "negative_beta"])
def test_psi_is_canonical(rng, family):
    # den = (ld mu)^deg must come out positive and coprime to num both when
    # u > 1 scales the integral model and when beta < 0
    if family == "rational":
        curves = [random_rational_curve(rng) for _ in range(6)]
        assert all(w.integral_model[0] > 1 for w in curves)
    else:
        params = [(3, -10), (-1399, -40), (-7, -1), (977, -37)]
        curves = [tate_curve(a, b).weierstrass for a, b in params]
    for w in curves:
        for n in (*range(1, 11), 13):
            f = psi(w, n).poly
            assert f.den > 0 and math.gcd(f.den, *f.num) == 1, (w, n)


def _value_points(rng, count):
    points = [Fraction(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(count)]
    return [x for x in points if x] + [Fraction(1), Fraction(-1)]


# psi_value/fueter_value evaluate each base as den^d B(num/den) over Z.  These
# points add x = 0, integral points, denominators above 2^64, and points whose
# denominator shares a prime with the betas below (2, 5, 37).
_VALUE_POINTS = [
    *map(Fraction, (0, 12, -(2**70) - 1)),
    Fraction(7, 8),
    Fraction(40, 11),
    Fraction(-3, 1600),
    Fraction(2, 37),
    Fraction(3, 2**64 + 13),
    Fraction(2**65 + 3, 3**41),
]


def test_values_match_polynomials_at_random_points(rng):
    # b2 = 0 for alpha = -12 beta; F_2^2 = 4 + 4 S^2, with a zero S term, for alpha = 0
    curves = [tate_curve(*random_tate_params(rng)) for _ in range(3)]
    curves += [tate_curve(a, b) for a, b in ((-1399, 40), (977, 37), (3, -10), (-12, 1), (0, 1))]
    for tc in curves:
        for n in range(1, 14):
            psi_poly, fueter_poly = psi(tc.weierstrass, n).poly, fueter(tc, n).poly
            for x in _value_points(rng, 4) + _VALUE_POINTS:
                assert psi_value(tc.weierstrass, n, x) == psi_poly(x), (tc, n, x)
                assert fueter_value(tc, n, x) == fueter_poly(x), (tc, n, x)
    # u > 1, also past n = 13; b2 = 0 with u = 1 and with u = 48
    rational = [random_rational_curve(rng) for _ in range(3)] + [
        WeierstrassCurve(0, 0, 1, -1, 0),
        WeierstrassCurve(Fraction(1, 2), Fraction(-1, 16), Fraction(1, 3), 2, Fraction(-5, 4)),
    ]
    for w in rational:
        for n in (*range(1, 12), 14, 15):
            psi_poly = psi(w, n).poly
            for x in _value_points(rng, 3) + _VALUE_POINTS:
                assert psi_value(w, n, x) == psi_poly(x), (w, n, x)
    # the CLI's largest n, on the Fueter side (psi_41 takes seconds to build)
    tc = tate_curve(-7, 3)
    for n in (40, 41):
        fueter_poly = fueter(tc, n).poly
        for T in (Fraction(0), Fraction(-2), Fraction(5, 9), Fraction(2**65 + 3, 7)):
            assert fueter_value(tc, n, T) == fueter_poly(T), (n, T)


def test_values_match_polynomials_at_singular_points():
    from monodiv.arith import factor
    from monodiv.valuation import singular_case, singular_fueter_T, singular_x

    for alpha, beta in ((13, 1), (2, 1), (1, 5), (33, 1), (-1399, 40), (977, 37)):
        tc = tate_curve(alpha, beta)
        for part in (beta, alpha - 8 * beta, alpha + 8 * beta):
            for p in factor(part).primes():
                if p == 2:
                    continue
                case = singular_case(tc, p)
                x, T = singular_x(case, tc), singular_fueter_T(case, tc)
                for n in (1, 3, 4, 5, 8, 9, 11):
                    assert psi_value(tc.weierstrass, n, x) == psi(tc.weierstrass, n).poly(x)
                    assert fueter_value(tc, n, T) == fueter(tc, n).poly(T)


def test_values_reject_nonpositive_n():
    for n in (0, -3):
        with pytest.raises(MathDomainError):
            psi_value(tate_curve(2, 1).weierstrass, n, 1)
        with pytest.raises(MathDomainError):
            fueter_value(tate_curve(2, 1), n, 1)


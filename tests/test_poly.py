import math
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from monodiv import (
    MathDomainError,
    PolyInt,
    PolyModP,
    PolyRat,
    discriminant,
    factor_mod_p,
    fueter,
    index_report,
    phi_development,
    psi,
    resultant,
    tate_curve,
)
from monodiv import poly as poly_module
from monodiv.poly import PolyFq
from conftest import sympy_poly, to_sympy
from references import (
    count_real_roots,
    factor_mod_p_yun,
    is_irreducible_rabin,
    rational_roots,
    reconstruct,
)

F3_ALPHA2 = PolyInt((-3, -2, -6, 0, 1))  # T^4 - 6T^2 - 2T - 3

int_polys = st.lists(st.integers(-30, 30), min_size=0, max_size=7).map(PolyInt)
nonzero_int_polys = int_polys.filter(lambda f: not f.is_zero)
primes = st.sampled_from([2, 3, 5, 7, 11, 13])


def monic(coeffs):
    return PolyInt(tuple(coeffs) + (1,))


# --- ring arithmetic ---------------------------------------------------------


def test_divrem_examples():
    q, r = PolyInt((-1, 0, 1)).divrem(PolyInt((-1, 1)))
    assert q == PolyInt((1, 1)) and r.is_zero
    _, r = F3_ALPHA2.divrem(PolyInt((-1, 1)))
    assert r == PolyInt((-10,))
    assert (F3_ALPHA2 * PolyInt.zero()).is_zero


def test_divrem_requires_monic_over_z():
    with pytest.raises(MathDomainError):
        PolyInt((1, 1)).divrem(PolyInt((1, 2)))


def test_poly_text_round_trip():
    assert PolyInt.from_text("-3,-2,-6,0,1") == F3_ALPHA2
    assert F3_ALPHA2.to_text() == "-3,-2,-6,0,1"
    assert PolyRat((Fraction(1, 2), -3, 0, 2)).to_text() == "1/2,-3,0,2"


@given(int_polys, st.lists(st.integers(-30, 30), max_size=4))
def test_divrem_reconstruction_int(f, tail):
    g = monic(tail)
    q, r = f.divrem(g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


@given(int_polys, nonzero_int_polys, primes)
def test_divrem_reconstruction_mod_p(f, g, p):
    fp, gp = f.reduce_mod(p), g.reduce_mod(p)
    if gp.is_zero:
        return
    q, r = fp.divrem(gp)
    assert q * gp + r == fp
    assert r.is_zero or r.degree < gp.degree


@given(int_polys, nonzero_int_polys)
def test_divrem_reconstruction_rat(f, g):
    fq, gq = PolyRat(f.coeffs), PolyRat(g.coeffs)
    q, r = fq.divrem(gq)
    assert q * gq + r == fq


rat_polys = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=7), max_size=5
).map(PolyRat)


@given(int_polys, rat_polys)
def test_pow_matches_repeated_product(f, g):
    for poly in (f, g):
        product = type(poly).one()
        for e in range(7):
            assert poly**e == product, e
            product = product * poly
        with pytest.raises(MathDomainError):
            poly**-1


def test_equality_is_exact_in_type_and_ring():
    assert PolyInt((1, 2)) != PolyRat((1, 2))
    assert PolyRat((1, 2)) != PolyInt((1, 2))
    assert PolyModP(5, (1, 2)) != PolyModP(7, (1, 2))
    assert PolyModP(5, (1, 2)) != PolyInt((1, 2))
    for a, b in (
        (PolyInt((1, 2, 0)), PolyInt([1, 2])),
        (PolyRat((Fraction(1, 2), 1)), PolyRat(("1/2", 1))),
        (PolyModP(5, (6, 2)), PolyModP(5, (1, -3))),
    ):
        assert a == b and hash(a) == hash(b)


def test_polyfq_equality_reads_the_modulus():
    # x^2 + 1 and x^2 + x + 2 are both irreducible over F_3
    phi, chi = PolyModP(3, (1, 0, 1)), PolyModP(3, (2, 1, 1))
    coeffs = (PolyModP(3, (1, 1)), PolyModP(3, (2,)))
    assert PolyFq(phi, coeffs) != PolyFq(chi, coeffs)
    a = PolyFq(phi, coeffs)
    b = PolyFq(phi, (coeffs[0] + phi, coeffs[1]))  # reduced mod phi on entry
    assert a == b and hash(a) == hash(b)


def test_polymodp_value_at_an_integer_is_the_sum_mod_p():
    f = PolyModP(7, (3, 5, 1, 6))
    for x in (-20, -8, -1, 0, 3, 7, 13, 100, 10**12 + 1):
        value = f(x)
        assert 0 <= value < 7, x
        assert value == sum(c * x**i for i, c in enumerate(f.coeffs)) % 7, x


def test_polyfq_value_at_a_polymodp_point_is_the_sum_mod_phi():
    # x^2 + 2 is irreducible over F_5 (-2 is not a square mod 5)
    phi = PolyModP(5, (2, 0, 1))
    g = PolyFq(phi, (PolyModP(5, (1, 2)), PolyModP(5, (3,)), PolyModP(5, (4, 1)), PolyModP(5, (0, 3))))
    for z in (PolyModP(5, (1, 3, 4)), PolyModP(5, (2, 0, 0, 1)), PolyModP(5, (4,))):
        total = PolyModP(5, ())
        for i, c in enumerate(g.coeffs):
            total = total + c * z**i
        value = g(z)
        assert value == total % phi, z
        assert value.degree < phi.degree, z


def test_reprs_of_the_rational_and_extension_polynomials():
    assert repr(PolyRat((Fraction(1, 2), 0, -3))) == "PolyRat(['1/2', '0', '-3'])"
    phi = PolyModP(3, (1, 0, 1))
    f = PolyFq(phi, (PolyModP(3, (2, 1)), PolyModP(3, (1,))))
    assert repr(f) == "PolyFq(PolyModP(3, [1, 0, 1]), [PolyModP(3, [2, 1]), PolyModP(3, [1])])"


def _old_lcm_form(coeffs):
    """(num, den) of a nonzero or zero rational polynomial as PolyRat's
    former clear_denominators gave it: the lcm of the reduced denominators,
    each coefficient scaled to it."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    d = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (d // c.denominator) for c in coeffs), d


def test_polyrat_is_one_canonical_numerator_over_one_denominator():
    rng = random.Random(230)
    dens = (1, 2, 3, 7**9, 2**64 + 13, 3**48, 2**77 - 1, 10**20 + 39)
    polys = [(), (0, 0), (5,), (-3, 0, 2), (Fraction(4, 2), Fraction(-6, 3))]
    while len(polys) < 300:
        kind = len(polys) % 3  # integral, one shared denominator, mixed
        deg = rng.randint(0, 9)
        shared = rng.choice(dens)
        coeffs = []
        for _ in range(deg + 1):
            den = 1 if kind == 0 else shared if kind == 1 else rng.choice(dens) * rng.randint(1, 9)
            coeffs.append(Fraction(rng.choice((-1, 1)) * rng.randint(0, 2**80), den))
        if rng.random() < 0.2:
            coeffs.append(0)  # a trailing zero
        polys.append(tuple(coeffs))
    for coeffs in polys:
        f = PolyRat(coeffs)
        num, den = _old_lcm_form(coeffs)
        assert (f.num, f.den) == (num, den), coeffs
        assert den > 0 and math.gcd(den, *num) == 1
        assert all(type(c) is int for c in f.num)
        assert f.degree == len(num) - 1 and f.is_zero == (not num) == (not f)
        expected = tuple(Fraction(c, den) for c in num)
        assert f.coeffs == expected and PolyRat(f.coeffs) == f
        assert f.clear_denominators() == (PolyInt(num), den)
        # the same polynomial from an integer numerator over any positive
        # multiple of its denominator
        k = rng.choice((1, 2, 9, 2**70 + 1))
        g = poly_module._rat_from_integral([c * k for c in num] + [0], den * k)
        assert (g.num, g.den) == (num, den), (coeffs, k)
        assert g == f and hash(g) == hash(f)
        assert g.coeffs == expected and g.to_text() == f.to_text()
        assert (g * g, g + g, -g) == (f * f, f + f, -f)


def test_polyint_takes_integral_values_only():
    with pytest.raises(MathDomainError):
        PolyInt((Fraction(3, 2),))
    with pytest.raises(MathDomainError):
        PolyInt((1, 2, 3)) * Fraction(1, 2)
    with pytest.raises(MathDomainError):
        Fraction(1, 2) * PolyInt((1, 2, 3))
    with pytest.raises(MathDomainError):
        PolyInt((1, "2"))
    # an integral Fraction is accepted and stored as an int
    for f, expected in (
        (PolyInt((Fraction(6, 3), Fraction(-4), 5)), PolyInt((2, -4, 5))),
        (PolyInt((1, 2, 3)) * Fraction(4, 2), PolyInt((2, 4, 6))),
        (Fraction(-3) * PolyInt((1, 2)), PolyInt((-3, -6))),
    ):
        assert f == expected and all(type(c) is int for c in f.coeffs)


def test_polymodp_takes_integral_values_only():
    # 1/2 is 3 mod 5: truncating it to 0 would be a wrong residue, not an error
    with pytest.raises(MathDomainError):
        PolyModP(5, (Fraction(1, 2), 1))
    with pytest.raises(MathDomainError):
        PolyModP(5, (1, 2, 3)) * Fraction(1, 2)
    with pytest.raises(MathDomainError):
        Fraction(1, 2) * PolyModP(5, (1, 2, 3))
    for f, expected in (
        (PolyModP(5, (Fraction(12, 2), -1)), PolyModP(5, (1, 4))),
        (PolyModP(5, (1, 2, 3)) * Fraction(4, 2), PolyModP(5, (2, 4, 1))),
    ):
        assert f == expected and all(type(c) is int for c in f.coeffs)


def test_polyint_ring_operations_keep_int_coefficients():
    f, g = PolyInt((3, -1, 0, 2)), PolyInt((-5, 1))
    q, r = f.divrem(g)
    for h in (f + g, f - g, -f, f * g, 3 * f, f**3, pow(f, 5, g), f.derivative(), q, r):
        assert all(type(c) is int for c in h.coeffs), h
    # arithmetic across rings raises TypeError, so no Fraction enters a PolyInt
    rat, mod = PolyRat((Fraction(1, 2), 1)), PolyModP(5, (1, 2))
    for a, b in ((f, rat), (rat, f), (f, mod), (mod, f), (rat, mod)):
        for op in (operator.add, operator.sub, operator.mul, operator.mod, operator.floordiv, type(a).divrem):
            with pytest.raises(TypeError):
                op(a, b)


# --- phi-adic developments ---------------------------------------------------


def test_phi_development_taylor_example():
    dev = phi_development(F3_ALPHA2, PolyInt((-1, 1)))
    assert [t.to_text() for t in dev.terms] == ["-10", "-10", "0", "4", "1"]
    assert reconstruct(dev) == F3_ALPHA2


def test_phi_development_trivial_cases():
    phi = PolyInt((-1, 0, 1))
    dev = phi_development(phi, phi)
    assert [list(t.coeffs) for t in dev.terms] == [[], [1]]
    dev = phi_development(F3_ALPHA2, PolyInt((0, 1)))
    assert tuple(t(0) for t in dev.terms) == F3_ALPHA2.coeffs


@given(st.lists(st.integers(-9, 9), max_size=6), st.lists(st.integers(-9, 9), min_size=1, max_size=3))
def test_phi_development_reconstructs(ftail, gtail):
    Phi, phi = monic(ftail), monic(gtail)
    dev = phi_development(Phi, phi)
    assert reconstruct(dev) == Phi
    assert all(t.is_zero or t.degree < phi.degree for t in dev.terms)


# --- factorization over F_p --------------------------------------------------


def test_factor_mod_2_irreducible_for_odd_alpha():
    for alpha in (1, 3, 7, 9):
        fbar = PolyInt((-3, -alpha, -6, 0, 1)).reduce_mod(2)
        factors = factor_mod_p(fbar)
        assert factors == [(fbar.monic(), 1)]
        assert fbar.is_irreducible()


def test_factor_mod_3_repeated_root_shape():
    # alpha not divisible by 3: T^4 - alpha T = T * (T - alpha)^3 mod 3
    for alpha in (1, 2, 4, 13):
        fbar = PolyInt((-3, -alpha, -6, 0, 1)).reduce_mod(3)
        factors = factor_mod_p(fbar)
        expected = sorted(
            [(PolyModP(3, (0, 1)), 1), (PolyModP(3, (-alpha, 1)), 3)],
            key=lambda t: (t[0].degree, t[0].coeffs),
        )
        assert factors == expected


def test_factor_mod_5_split_quadratic():
    factors = factor_mod_p(PolyModP(5, (1, 0, 1)))
    assert factors == [(PolyModP(5, (2, 1)), 1), (PolyModP(5, (3, 1)), 1)]


def test_factor_mod_p_deterministic():
    f = PolyModP(13, tuple(range(1, 12)))
    assert factor_mod_p(f) == factor_mod_p(f)


@given(nonzero_int_polys, primes)
def test_factor_mod_p_product_and_irreducibility(f, p):
    fp = f.reduce_mod(p)
    if fp.is_zero or fp.degree < 1:
        return
    factors = factor_mod_p(fp)
    prod = PolyModP(p, (1,))
    for fac, e in factors:
        assert fac.is_monic and fac.is_irreducible()
        for _ in range(e):
            prod = prod * fac
    assert prod == fp.monic()


@given(nonzero_int_polys, primes)
def test_factor_mod_p_matches_sympy(f, p):
    fp = f.reduce_mod(p)
    if fp.is_zero or fp.degree < 1:
        return
    x = sympy.Symbol("x")
    _, sfactors = sympy.factor_list(to_sympy(f), modulus=p)
    ours = {(fac.coeffs, e) for fac, e in factor_mod_p(fp)}
    theirs = set()
    for g, e in sfactors:
        gp = sympy.Poly(g, x, modulus=p).monic()
        coeffs = tuple(int(c) % p for c in reversed(gp.all_coeffs()))
        if len(coeffs) > 1:
            theirs.add((coeffs, e))
    assert ours == theirs


def _seeded_polys_mod_p():
    """Products of 1-4 random monic factors with exponents 1, 2, 3, p or 2p,
    scaled by a unit, and random polynomials of degree 0-8: up to degree 24
    for small p, and up to degree 8 for p = 2^31 - 1."""
    rng = random.Random(15)
    for p, cap in [(2, 24), (3, 24), (5, 24), (7, 24), (11, 24), (13, 24), (101, 24), (2**31 - 1, 8)]:
        for _ in range(50):
            f = PolyModP(p, (rng.randrange(1, p),))
            for _ in range(rng.randint(1, 4)):
                deg, e = rng.randint(1, 4), rng.choice((1, 2, 3, p, 2 * p))
                if f.degree + deg * e <= cap:
                    f = f * PolyModP(p, [rng.randrange(p) for _ in range(deg)] + [1]) ** e
            yield f
        for _ in range(22):
            deg = rng.randint(0, 8)
            yield PolyModP(p, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])


def test_factor_mod_p_and_irreducibility_match_rabin_and_yun_with_special_cases():
    cases = list(_seeded_polys_mod_p())
    assert len(cases) == 576
    irreducible = pth_powers = 0
    for f in cases:
        factors = factor_mod_p(f)
        assert factors == factor_mod_p_yun(f), f
        assert f.is_irreducible() == is_irreducible_rabin(f), f
        irreducible += f.is_irreducible()
        pth_powers += any(e % f.p == 0 for _, e in factors)
        for fac, _ in factors:
            assert fac.is_irreducible() and is_irreducible_rabin(fac), fac
    assert irreducible >= 40 and pth_powers >= 40


def test_irreducibility_and_witness_checks_never_factor_an_integer(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("integer factoring reached")

    rng = random.Random(7)
    polys = [
        PolyModP(p, [rng.randrange(p) for _ in range(d)] + [1])
        for p in (2, 3, 5, 7, 101)
        for d in range(2, 13)
        for _ in range(3)
    ]
    expected = [is_irreducible_rabin(f) for f in polys]
    Phi = PolyInt((4, 0, 2, 0, 1))  # (x^2 + 1)^2 mod 3, and x^2 + 1 is irreducible mod 3
    witness = [(PolyModP(3, (1, 0, 1)), 2)]
    monkeypatch.setattr("monodiv.arith.factor", boom)
    monkeypatch.setattr("monodiv.poly.factor", boom, raising=False)
    assert [f.is_irreducible() for f in polys] == expected
    assert True in expected and False in expected
    report = index_report(Phi, 3, factors=witness)
    assert [(r.phi, r.exponent) for r in report.per_phi] == [(PolyInt((1, 0, 1)), 2)]


@pytest.mark.parametrize("p", [15, 9, 4, 1, -7])
def test_factoring_and_irreducibility_reject_a_modulus_that_is_not_prime(p):
    # Z/15 is not a field, yet x^2 + 1 once came back irreducible there
    f = PolyModP(p, (1, 0, 1))
    with pytest.raises(MathDomainError, match="not a prime"):
        factor_mod_p(f)
    with pytest.raises(MathDomainError, match="not a prime"):
        f.is_irreducible()


def test_gcd_mod_p_examples():
    assert PolyModP(5, (-1, 0, 1)).gcd(PolyModP(5, (-1, 1))) == PolyModP(5, (-1, 1))
    f = PolyModP(7, (1, 1, 1))
    assert f.gcd(f.derivative()).degree == 0
    assert PolyModP(3, (0, 0, 0, 1)).gcd(PolyModP(3, (0, 0, 1))) == PolyModP(3, (0, 0, 1))


# --- resultants and discriminants -------------------------------------------


def test_resultant_discriminant_examples():
    assert discriminant(F3_ALPHA2) == -97200
    assert discriminant(PolyInt((-1, 0, 1))) == 4
    assert resultant(PolyInt((-3, 1)), PolyInt((-5, 1))) == -2


def test_discriminant_rejects_constants():
    with pytest.raises(MathDomainError):
        discriminant(PolyInt((5,)))


def _sylvester_resultant(f, g):
    """Definitional oracle: determinant of the Sylvester matrix."""
    if f.degree == 0:
        return sympy.Integer(f.coeffs[0]) ** g.degree
    if g.degree == 0:
        return sympy.Integer(g.coeffs[0]) ** f.degree
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    m, n = f.degree, g.degree
    rows = [[0] * i + fd + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gd + [0] * (m - 1 - i) for i in range(m)]
    return sympy.Matrix(rows).det()


@given(nonzero_int_polys, nonzero_int_polys)
def test_resultant_matches_sylvester_determinant(f, g):
    assert resultant(f, g) == _sylvester_resultant(f, g)


@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=5).map(PolyInt).filter(
        lambda f: not f.is_zero and f.degree >= 1
    ),
    st.lists(st.integers(-9, 9), min_size=2, max_size=5).map(PolyInt).filter(
        lambda f: not f.is_zero and f.degree >= 1
    ),
)
def test_disc_multiplicativity(f, g):
    fq, gq = PolyRat(f.coeffs), PolyRat(g.coeffs)
    if fq.gcd(gq).degree != 0:
        return
    if discriminant(fq) == 0 or discriminant(gq) == 0:
        return
    lhs = discriminant(fq * gq)
    rhs = discriminant(fq) * discriminant(gq) * resultant(fq, gq) ** 2
    assert lhs == rhs


def test_clear_denominators_and_discriminant_on_large_mixed_denominators():
    rng = random.Random(20261019)
    dens = (1, 2**64 + 13, 3**40, 2**70, 10**25 + 9, 7 * 11 * 13 * 17 * 19 * 23, 2**61 - 1)
    for k in range(200):
        deg = rng.randint(1, 6 if k < 40 else 9)
        coeffs = [Fraction(rng.randint(-(10**30), 10**30), rng.choice(dens) * rng.randint(1, 99)) for _ in range(deg)]
        coeffs.append(Fraction(rng.choice((1, -1, 3)) * rng.randint(1, 10**20), rng.choice(dens)))
        f = PolyRat(coeffs)
        d = math.lcm(*(c.denominator for c in f.coeffs))
        F, den = f.clear_denominators()
        assert (F, den) == (PolyInt(int(c * d) for c in f.coeffs), d)
        assert F.degree == f.degree and all(type(c) is int for c in F.coeffs)
        if k < 40:  # sympy's discriminant is slow on the larger degrees
            oracle = sympy_poly(f).discriminant()
            assert discriminant(f) == Fraction(int(oracle.p), int(oracle.q)), f


# --- differential test against the former PolyInt subresultant ---------------
#
# The subresultant PRS used to run on PolyInt objects.  That version is frozen
# here, unchanged apart from spelling out PolyInt.content(), as the reference
# for the int-list version.


def _reference_prem(a, b):
    d = b.degree
    lb = b.lc
    r = a
    e = a.degree - d + 1
    while not r.is_zero and r.degree >= d:
        lr = r.lc
        shift = PolyInt([0] * (r.degree - d) + [lr])
        r = r * lb - b * shift
        e -= 1
    if e > 0:
        r = r * lb**e
    return r


def _reference_exact_int_div(a, b):
    q, r = divmod(a, b)
    assert not r
    return q


def _reference_resultant_int(a, b):
    if a.is_zero or b.is_zero:
        return 0
    s = 1
    if a.degree < b.degree:
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            s = -s
        a, b = b, a
    if b.degree == 0:
        return s * b.coeffs[0] ** a.degree
    ca, cb = abs(math.gcd(*a.coeffs)), abs(math.gcd(*b.coeffs))
    a, b = a.exact_scalar_div(ca), b.exact_scalar_div(cb)
    mult = ca**b.degree * cb**a.degree
    g = h = 1
    while True:
        da, db = a.degree, b.degree
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = _reference_prem(a, b)
        if r.is_zero:
            return 0
        a = b
        b = r.exact_scalar_div(g * h**delta)
        g = a.lc
        if delta > 0:
            h = _reference_exact_int_div(g**delta, h ** (delta - 1))
        if b.degree == 0:
            da = a.degree
            return s * mult * _reference_exact_int_div(b.coeffs[0] ** da, h ** (da - 1))


def _check_against_reference(f, g):
    assert poly_module._resultant_int(f.coeffs, g.coeffs) == _reference_resultant_int(f, g)
    if not f.is_zero and not g.is_zero and f.degree >= g.degree:
        assert PolyInt(poly_module._prem(f.coeffs, g.coeffs)) == _reference_prem(f, g)


def _chain_deltas(f, g):
    """The degree drop delta = deg a - deg b of each step the subresultant
    PRS of nonzero f, g runs, read off the primitive remainder sequence,
    whose members have the same degrees."""
    a, b = (f, g) if f.degree >= g.degree else (g, f)
    deltas = []
    while b.degree >= 1:
        deltas.append(a.degree - b.degree)
        r = _reference_prem(a, b)
        if r.is_zero:
            break
        a, b = b, r.exact_scalar_div(math.gcd(*r.coeffs))
    return deltas


# composite contents up to 78 bits, put on the inputs or into a remainder
CONTENTS = (2**64, 3**40, 2**20 * 3**12 * 5**7, 10007 * 10009, 6**30, -(7**11) * 11**9)


def test_subresultant_matches_polyint_reference():
    rng = random.Random(20261018)
    for _ in range(400):
        f = PolyInt(rng.randint(-50, 50) for _ in range(rng.randint(0, 9)))
        g = PolyInt(rng.randint(-50, 50) for _ in range(rng.randint(0, 9)))
        _check_against_reference(f, g)
        # shared factors and common content make the sequence end early
        h = PolyInt(rng.randint(-5, 5) for _ in range(rng.randint(1, 3)))
        _check_against_reference(f * h * 6, g * h * 4)
        _check_against_reference(f * rng.choice(CONTENTS), g * rng.choice(CONTENTS))
    # sparse inputs: zero subleading coefficients make a remainder drop two or
    # more degrees, so a later step runs with delta >= 2
    mid_chain_drops = 0
    for _ in range(300):
        f, g = (
            PolyInt([rng.choice((0, 0, rng.randint(-20, 20))) for _ in range(deg)] + [rng.choice((1, -1, 2, -3))])
            for deg in (rng.randint(3, 9), rng.randint(2, 7))
        )
        mid_chain_drops += any(delta >= 2 for delta in _chain_deltas(f, g)[1:])
        _check_against_reference(f, g)
    assert mid_chain_drops >= 10
    # f = q g + k r: the first pseudo-remainder carries the composite content k
    for _ in range(200):
        g = PolyInt([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))] + [rng.choice((1, -2, 3))])
        q = PolyInt(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        r = PolyInt(rng.randint(-9, 9) for _ in range(rng.randint(1, g.degree)))
        f = q * g + r * rng.choice(CONTENTS)
        _check_against_reference(f, g)
        _check_against_reference(f * rng.choice(CONTENTS), g)
    for alpha in range(-40, 41):
        quartic = PolyInt((-3, -alpha, -6, 0, 1))
        _check_against_reference(quartic, quartic.derivative())
    for alpha, beta in ((2, 1), (-1399, 40), (7, 3)):
        tc = tate_curve(alpha, beta)
        for n in (3, 4, 5, 7):
            F, _ = fueter(tc, n).poly.clear_denominators()
            _check_against_reference(F, F.derivative())
        F, _ = psi(tc.weierstrass, 6).poly.clear_denominators()
        _check_against_reference(F, F.derivative())
    # the longest chains: F_9 (degree 40) and psi_7 (degree 24) of a seeded curve
    alpha, beta = 0, 0
    while math.gcd(alpha, beta) != 1 or abs(alpha) == 8 * beta:
        alpha, beta = rng.randint(-1500, 1500), rng.randint(1, 40)
    tc = tate_curve(alpha, beta)
    for division_poly in (fueter(tc, 9), psi(tc.weierstrass, 7)):
        F, _ = division_poly.poly.clear_denominators()
        _check_against_reference(F, F.derivative())


def test_subresultant_exactness_guard_fires(monkeypatch):
    """A remainder corrupted in one coefficient at the second step makes the
    scalar's division by g h^delta inexact, and the chain says so."""
    prem, calls = poly_module._prem, []

    def corrupted_prem(a, b):
        r = prem(a, b)
        calls.append(len(r))
        return [r[0] + 1] + r[1:] if len(calls) == 2 else r

    monkeypatch.setattr(poly_module, "_prem", corrupted_prem)
    f = PolyInt((1, 2, 0, 3, 5))
    with pytest.raises(ArithmeticError, match="subresultant division was not exact"):
        poly_module._resultant_int(f.coeffs, f.derivative().coeffs)
    assert len(calls) == 2


def _reference_discriminant(f):
    """The former route: differentiate f in its own ring, then the resultant
    clears the denominators of f and f' separately."""
    d = f.degree
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.lc


def test_discriminant_matches_the_former_route():
    rng = random.Random(20261019)
    corpus = []
    for _ in range(600):
        deg = rng.randint(1, 9)
        lead = rng.choice([1, -1, 2, -3, 6, 7])
        corpus.append(PolyInt([rng.randint(-30, 30) for _ in range(deg)] + [lead]))
        corpus.append(
            PolyRat(
                [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(deg)]
                + [Fraction(rng.choice([1, -1, 3, -5]), rng.randint(1, 12))]
            )
        )
    for alpha, beta in ((2, 1), (-1399, 40), (7, 3), (977, 37)):
        tc = tate_curve(alpha, beta)
        corpus += [fueter(tc, n).poly for n in (3, 4, 5, 7)]
        corpus.append(psi(tc.weierstrass, 6).poly)
    for f in corpus:
        assert discriminant(f) == _reference_discriminant(f), f


# --- real roots and rational roots -------------------------------------------


def test_count_real_roots_examples():
    assert count_real_roots(PolyInt((1, 0, 1))) == 0
    assert count_real_roots(PolyInt((-1, 0, 1))) == 2
    assert count_real_roots(PolyInt((-3, -9, -6, 0, 1))) == 2


def test_count_real_roots_rejects_non_squarefree():
    with pytest.raises(MathDomainError):
        count_real_roots(PolyInt((1, 2, 1)))


def test_sturm_against_sympy_oracle():
    rng = random.Random(20240817)
    x = sympy.Symbol("x")
    checked = 0
    while checked < 100:
        coeffs = [rng.randint(-20, 20) for _ in range(4)] + [rng.randint(1, 20)]
        f = PolyInt(coeffs)
        sf = sympy.Poly(to_sympy(f), x)
        if sympy.discriminant(sf.as_expr(), x) == 0:
            continue
        assert count_real_roots(f) == sf.count_roots()
        checked += 1


def test_rational_roots_examples():
    assert rational_roots(PolyInt((-1, 0, 1))) == [Fraction(-1), Fraction(1)]
    assert rational_roots(PolyInt((-2, 0, 0, 1))) == []
    assert rational_roots(PolyInt((-3, 2))) == [Fraction(3, 2)]
    assert rational_roots(PolyInt((0, 0, 1))) == [Fraction(0)]


@given(nonzero_int_polys)
def test_rational_roots_are_roots_and_complete_over_small_grid(f):
    roots = rational_roots(f)
    assert all(f(r) == 0 for r in roots)
    for num in range(-12, 13):
        for den in (1, 2, 3):
            cand = Fraction(num, den)
            if f(cand) == 0:
                assert cand in roots

import math
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
    phi_development,
    psi,
    resultant,
    tate_curve,
)
from monodiv import poly as poly_module
from conftest import to_sympy
from references import count_real_roots, rational_roots, reconstruct

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


def test_subresultant_matches_polyint_reference():
    rng = random.Random(20261018)
    for _ in range(400):
        f = PolyInt(rng.randint(-50, 50) for _ in range(rng.randint(0, 9)))
        g = PolyInt(rng.randint(-50, 50) for _ in range(rng.randint(0, 9)))
        _check_against_reference(f, g)
        # shared factors and common content make the sequence end early
        h = PolyInt(rng.randint(-5, 5) for _ in range(rng.randint(1, 3)))
        _check_against_reference(f * h * 6, g * h * 4)
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

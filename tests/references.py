"""Reference implementations that the package no longer carries.

The tests keep them as frozen references:
the Sturm count and the rational-root search check ``galois_signature``'s
closed forms, ``x_to_T``/``double_x`` check the coordinate change and the
reduction lemma behind the singular Fueter point, ``singular_T`` checks the
lifts of ``certify._row``, ``closed_form`` (the factorization of the quartic
mod each prime of its certificate, which ``certify`` once handed to
``index_report`` as a witness) is the oracle of those rows and of Dedekind's
criterion there, ``reconstruct`` is the oracle of
``phi_development``, ``two_torsion_poly`` that of the division recurrence,
``b_invariants`` and ``delta_fraction``, the Fraction formulas that
``WeierstrassCurve`` carried before it kept only its integral model, the
oracles of that model and of every test that reads b2..b8,
``psi_fueter_identity_fraction``, the former Fraction form of the identity
check, its oracle,
``R_fraction``, the Fraction form of the floor sequence, that of ``R``,
``slope``, the Fraction slope that ``PolygonSide`` once carried, that of
``PolygonSide.slope_text`` and of the tests that reason about hull slopes, and
Rabin's test and Yun's loop with its special cases, the package's former
irreducibility test and squarefree split mod p, are the oracles of the
distinct-degree test and the plain loop that replaced them.  ``tate_reference``,
Tate's algorithm at any prime, which the package never carried, is the oracle
of ``reduction.classify``'s closed forms."""

import math
import random
from fractions import Fraction
from typing import NamedTuple

from monodiv import (
    MathDomainError,
    PhiDevelopment,
    PolyInt,
    PolyModP,
    PolyRat,
    SingularCase,
    TateNormalCurve,
    WeierstrassCurve,
)
from monodiv import poly
from monodiv.arith import divisors, factor, vp
from monodiv.elliptic import T_to_x, fueter_value, psi_value
from monodiv.valuation import singular_fueter_T


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def count_real_roots(f) -> int:
    """Number of distinct real roots of a squarefree rational polynomial."""
    f = PolyRat(f.coeffs) if isinstance(f, PolyInt) else f
    if f.is_zero:
        raise MathDomainError("zero polynomial")
    if f.degree < 1:
        return 0
    if f.gcd(f.derivative()).degree != 0:
        raise MathDomainError("Sturm count requires a squarefree polynomial")
    chain = [f, f.derivative()]
    while chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero:
        chain.pop()

    def variations(signs: list[int]) -> int:
        signs = [x for x in signs if x]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    at_plus = [_sign(g.lc) for g in chain]
    at_minus = [_sign(g.lc) * (-1 if g.degree % 2 else 1) for g in chain]
    return variations(at_minus) - variations(at_plus)


def rational_roots(f: PolyInt) -> list[Fraction]:
    """All rational roots, ascending, via divisor search on the ends."""
    if f.is_zero:
        raise MathDomainError("zero polynomial")
    roots = set()
    coeffs = list(f.coeffs)
    while coeffs and coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs.pop(0)
    g = PolyInt(coeffs)
    if g.degree >= 1:
        a0, lead = abs(g.coeffs[0]), abs(g.lc)
        for r in divisors(a0):
            for ss in divisors(lead):
                for cand in (Fraction(r, ss), Fraction(-r, ss)):
                    if g(cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def x_to_T(x: Fraction | int, curve: TateNormalCurve) -> Fraction:
    """Fueter coordinate of a Weierstrass x: T = a*beta / (x + a*beta)."""
    ab = curve.a * curve.beta
    x = Fraction(x)
    if x == -ab:
        raise MathDomainError("x = -a*beta has no Fueter coordinate (pole)")
    return Fraction(ab) / (x + ab)


def b_invariants(curve: WeierstrassCurve) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """b2, b4, b6, b8 of the curve, by their Fraction formulas in a1..a6."""
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    return (
        a1**2 + 4 * a2,
        2 * a4 + a1 * a3,
        a3**2 + 4 * a6,
        a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2,
    )


def delta_fraction(curve: WeierstrassCurve) -> Fraction:
    """The discriminant, by its Fraction formula in b2..b8."""
    b2, b4, b6, b8 = b_invariants(curve)
    return -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6


def psi_fueter_identity_fraction(curve: TateNormalCurve, n: int, T: Fraction | int) -> bool:
    """psi_n(x(T)) == (-1)^((n-1)/2) (a*beta/T)^((n^2-1)/2) F_n(T), odd n,
    compared as Fractions."""
    T = Fraction(T)
    lhs = psi_value(curve.weierstrass, n, T_to_x(T, curve))
    d = (n * n - 1) // 2
    sign = -1 if ((n - 1) // 2) % 2 else 1
    rhs = sign * (Fraction(curve.a * curve.beta) / T) ** d * fueter_value(curve, n, T)
    return lhs == rhs


def double_x(curve: WeierstrassCurve | TateNormalCurve, x: Fraction | int) -> Fraction:
    """x-coordinate duplication map; errors on 2-torsion input."""
    if isinstance(curve, TateNormalCurve):
        curve = curve.weierstrass
    x = Fraction(x)
    den = two_torsion_poly(curve)(x)
    if den == 0:
        raise MathDomainError("x is a 2-torsion abscissa (duplication pole)")
    _, b4, b6, b8 = b_invariants(curve)
    num = x**4 - b4 * x**2 - 2 * b6 * x - b8
    return num / den


def two_torsion_poly(curve: WeierstrassCurve) -> PolyRat:
    """4x^3 + b2 x^2 + 2 b4 x + b6 (the square of psi_2 on the curve)."""
    b2, b4, b6, _ = b_invariants(curve)
    return PolyRat((b6, 2 * b4, b2, 4))


def singular_T(case: SingularCase, curve: TateNormalCurve, p: int) -> int:
    """Repeated-root location of F_n mod p, as an element of [0, p): the
    reduction of `singular_fueter_T`.  Its denominator divides a - 32 beta,
    which is -16 beta mod p when p | alpha - 8 beta: a unit for odd p prime
    to beta."""
    T = singular_fueter_T(case, curve)
    return T.numerator * pow(T.denominator, -1, p) % p


def reconstruct(dev: PhiDevelopment) -> PolyInt:
    """sum_j a_j phi^j: the polynomial a phi-development expands."""
    out = PolyInt.zero()
    power = PolyInt.one()
    for a in dev.terms:
        out = out + a * power
        power = power * dev.phi
    return out


def slope(side) -> Fraction:
    """The slope of a polygon side as a Fraction."""
    return Fraction(side.y1 - side.y0, side.x1 - side.x0)


def R_fraction(n: int, a: int, ell: int) -> int:
    """R_n(a, l) with each floor taken of an exact Fraction (ell nonzero)."""
    L = abs(ell)
    ahat = a % L
    nahat = (n * a) % L
    first = Fraction(n * n * ahat * (ell - ahat), 2 * ell)
    second = Fraction(nahat * (ell - nahat), 2 * ell)
    return math.floor(first) - math.floor(second)


def is_irreducible_rabin(f: PolyModP) -> bool:
    """Rabin's test: f of degree d is irreducible over F_p iff x^(p^d) = x
    mod f and gcd(f, x^(p^(d/q)) - x) = 1 for every prime q dividing d."""
    d = f.degree
    if d < 1:
        return False
    if d == 1:
        return True
    f = f.monic()
    p = f.p
    x = PolyModP(p, (0, 1))
    if pow(x, p**d, f) != x % f:
        return False
    for q in factor(d).primes():
        if f.gcd(pow(x, p ** (d // q), f) - x).degree != 0:
            return False
    return True


def squarefree_parts_yun(f: PolyModP) -> list[tuple[PolyModP, int]]:
    """Yun's loop with a branch for f' = 0 and a stop once no p-th power is left."""
    p = f.p
    out = []
    e = 1
    while f.degree > 0:
        df = f.derivative()
        if df.is_zero:
            f = f.pth_root()
            e *= p
            continue
        c = f.gcd(df)
        w = f // c
        i = 1
        while w.degree > 0:
            y = w.gcd(c)
            z = w // y
            if z.degree > 0:
                out.append((z, i * e))
            w = y
            c = c // y
            i += 1
        if c.degree > 0:
            f = c.pth_root()
            e *= p
        else:
            break
    return out


def factor_mod_p_yun(f: PolyModP) -> list[tuple[PolyModP, int]]:
    """`factor_mod_p` on `squarefree_parts_yun`, with its branch for constants."""
    if f.is_zero:
        raise MathDomainError("cannot factor the zero polynomial")
    if f.degree < 1:
        return []
    rng = random.Random(poly._FACTOR_SEED)
    out = []
    for part, mult in squarefree_parts_yun(f.monic()):
        for d, prod in poly._distinct_degree(part):
            for irr in poly._equal_degree(prod, d, rng):
                out.append((irr, mult))
    out.sort(key=poly.factor_order)
    return out


# Phi = T^4 - 6T^2 - alpha*T - 3 mod p, at every prime `certify` visits:
# - p | alpha - 8 (p >= 5): Phi = (T^4 - 6T^2 - 8T - 3) - (alpha - 8)T, and
#   T^4 - 6T^2 - 8T - 3 = (T + 1)^3 (T - 3), so Phi-bar = (T + 1)^3 (T - 3);
# - p | alpha + 8 (p >= 5): the same with T -> -T, Phi-bar = (T - 1)^3 (T + 3);
#   the cases are exclusive, as p | (alpha + 8) - (alpha - 8) = 16 forces
#   p = 2, and T + 1 != T - 3 (T - 1 != T + 3) since p does not divide 4;
# - p = 3: Phi-bar = T^4 - alpha*T = T (T^3 - alpha^3) = T (T - alpha)^3,
#   as alpha^3 = alpha mod 3 and cubing is additive in characteristic 3;
#   that is T^4 when 3 | alpha;
# - p = 2 (alpha even): Phi-bar = T^4 + 1 = (T + 1)^4.
# Dedekind at p | alpha - 8 in closed form: Phi - (T + 1)^3 (T - 3) =
# -(alpha - 8) T, so F = -((alpha - 8)/p) T, and (T + 1) divides F-bar iff
# F-bar = 0, i.e. iff p^2 | alpha - 8 (the criterion does not depend on the
# lifts of the factors).  At p | alpha + 8, (T - 1) | F-bar iff p^2 | alpha + 8.
def closed_form(alpha: int, p: int) -> tuple[PolyInt, list[tuple[PolyModP, int]]]:
    """Development base T - T0 of the curve analysis and the factorization of
    the quartic mod p, for a prime of the certificate (3 or a prime of
    alpha -+ 8).  T0 is the root of the repeated factor mod p."""
    if p == 2:
        t0, roots = 1, [(1, 4)]
    elif p == 3:
        t0 = (0, 4, -4)[alpha % 3]
        roots = [(0, 4)] if t0 == 0 else [(0, 1), (t0, 3)]
    elif (alpha - 8) % p == 0:
        t0, roots = p - 1, [(p - 1, 3), (3, 1)]
    else:
        t0, roots = 1, [(1, 3), (-3, 1)]
    return PolyInt((-t0, 1)), [(PolyModP(p, (-r, 1)), e) for r, e in roots]


class TateRow(NamedTuple):
    """Local data by Tate's algorithm: the Kodaira kind ("good", "I", "I*",
    "II", "III", "IV", "IV*", "III*", "II*"), its index n (I and I* only),
    the conductor exponent f, the Tamagawa number c, and the number of
    scalings by p it took to reach a minimal model."""

    kind: str
    n: int | None
    f: int
    c: int
    scalings: int


def _invariants(a):
    a1, a2, a3, a4, a6 = a
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8, -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _shift(a, r=0, s=0, t=0):
    """The model after x -> x + r, y -> y + s x + t (u = 1)."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def _roots(coeffs, p):
    """The roots in [0, p) of the polynomial with coefficients coeffs,
    constant term first, by a search over residues."""
    return [x for x in range(p) if sum(c * x**i for i, c in enumerate(coeffs)) % p == 0]


def _multiplicity(coeffs, x, p) -> int:
    """How many times T - x divides the polynomial mod p, by synthetic
    division."""
    k = 0
    while len(coeffs) > 1:
        quotient = [0]
        for c in reversed(coeffs):
            quotient.append((quotient[-1] * x + c) % p)
        if quotient[-1]:
            return k
        coeffs, k = quotient[-2:0:-1], k + 1
    return k


def _root(coeffs, p):
    """The one root mod p of a polynomial known to have a single root there."""
    (x,) = _roots(coeffs, p)
    return x


def tate_reference(a, p: int) -> TateRow:
    """Tate's algorithm at the prime p on the integral model a = (a1, a2, a3,
    a4, a6), in the loop form of Cremona, Algorithms for Modular Elliptic
    Curves, 3.2 (Silverman, Advanced Topics, IV.9.4), on exact integers.
    Every root is found by a search over residues, and a double root of the
    cubic is told from a triple one by 3C - B^2, which is -(rho - sigma)^2 for
    (T - rho)^2 (T - sigma) and 0 for a cube in every characteristic; roots
    are never read off derivatives, which fails in characteristic 2 and 3."""
    scalings = 0
    while True:
        n = vp(_invariants(a)[4], p)
        if n == 0:
            return TateRow("good", None, 0, 1, scalings)
        # move the singular point of the reduction to (0, 0): for odd p its
        # y is the root of 2y + a1 x + a3
        a1, _, a3, _, _ = a
        points = [
            (x0, y0)
            for x0 in range(p)
            for y0 in (range(2) if p == 2 else [-(a1 * x0 + a3) * pow(2, -1, p) % p])
        ]
        a = next(
            m
            for m in (_shift(a, x0, 0, y0) for x0, y0 in points)
            if m[2] % p == m[3] % p == m[4] % p == 0
        )
        a1, a2, a3, a4, a6 = a
        b2, b4, b6, b8, _ = _invariants(a)
        if b2 % p:  # nodal: the tangents y^2 + a1 y - a2 at (0, 0) are distinct
            split = len(_roots((-a2, a1, 1), p)) == 2
            return TateRow("I", n, 1, n if split else 2 - n % 2, scalings)
        if a6 % p**2:
            return TateRow("II", None, n, 1, scalings)
        if b8 % p**3:
            return TateRow("III", None, n - 1, 2, scalings)
        if b6 % p**3:
            c = 3 if _roots((-a6 // p**2, a3 // p, 1), p) else 1
            return TateRow("IV", None, n - 2, c, scalings)
        # p | a1, a2; p^2 | a3, a4; p^3 | a6
        s = next(s for s in range(p) if (a1 + 2 * s) % p == (a2 - s * a1 - s * s) % p == 0)
        a = _shift(a, s=s)
        a = next(
            m
            for m in (_shift(a, t=p * j) for j in range(p))
            if m[2] % p**2 == m[3] % p**2 == m[4] % p**3 == 0
        )
        a1, a2, a3, a4, a6 = a
        B, C, D = a2 // p, a4 // p**2, a6 // p**3
        disc = B * B * C * C - 4 * C**3 - 4 * B**3 * D - 27 * D * D + 18 * B * C * D
        cubic = (D, C, B, 1)
        if disc % p:
            return TateRow("I*", 0, n - 4, 1 + len(_roots(cubic, p)), scalings)
        if (3 * C - B * B) % p:
            # a double root rho and a simple sigma: move rho to 0
            rho = next(x for x in _roots(cubic, p) if _multiplicity(cubic, x, p) == 2)
            a = _shift(a, r=p * rho)
            mx = my = p * p
            m = 1
            while True:
                a1, a2, a3, a4, a6 = a
                xa3, xa6 = a3 // my, a6 // (mx * my)
                if (xa3 * xa3 + 4 * xa6) % p:
                    c = 4 if _roots((-xa6, xa3, 1), p) else 2
                    break
                a = _shift(a, t=my * _root((-xa6, xa3, 1), p))
                my *= p
                m += 1
                a1, a2, a3, a4, a6 = a
                xa2, xa4, xa6 = a2 // p, a4 // (p * mx), a6 // (mx * my)
                if (xa4 * xa4 - 4 * xa2 * xa6) % p:
                    c = 4 if _roots((xa6, xa4, xa2), p) else 2
                    break
                a = _shift(a, r=mx * _root((xa6, xa4, xa2), p))
                mx *= p
                m += 1
            return TateRow("I*", m, n - m - 4, c, scalings)
        # a triple root: move it to 0
        a = _shift(a, r=p * _root(cubic, p))
        a1, a2, a3, a4, a6 = a
        x3, x6 = a3 // p**2, a6 // p**4
        if (x3 * x3 + 4 * x6) % p:
            return TateRow("IV*", None, n - 6, 3 if _roots((-x6, x3, 1), p) else 1, scalings)
        a = _shift(a, t=p * p * _root((-x6, x3, 1), p))
        a1, a2, a3, a4, a6 = a
        if a4 % p**4:
            return TateRow("III*", None, n - 7, 2, scalings)
        if a6 % p**6:
            return TateRow("II*", None, n - 8, 1, scalings)
        a = tuple(x // p**i for x, i in zip(a, (1, 2, 3, 4, 6)))
        scalings += 1

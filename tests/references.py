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
``R_fraction``, the Fraction form of the floor sequence, that of ``R``, and
Rabin's test and Yun's loop with its special cases, the package's former
irreducibility test and squarefree split mod p, are the oracles of the
distinct-degree test and the plain loop that replaced them."""

import math
import random
from fractions import Fraction

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
from monodiv.arith import divisors, factor
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


def double_x(curve: WeierstrassCurve | TateNormalCurve, x: Fraction | int) -> Fraction:
    """x-coordinate duplication map; errors on 2-torsion input."""
    if isinstance(curve, TateNormalCurve):
        curve = curve.weierstrass
    x = Fraction(x)
    den = two_torsion_poly(curve)(x)
    if den == 0:
        raise MathDomainError("x is a 2-torsion abscissa (duplication pole)")
    num = x**4 - curve.b4 * x**2 - 2 * curve.b6 * x - curve.b8
    return num / den


def two_torsion_poly(curve: WeierstrassCurve) -> PolyRat:
    """4x^3 + b2 x^2 + 2 b4 x + b6 (the square of psi_2 on the curve)."""
    return PolyRat((curve.b6, 2 * curve.b4, curve.b2, 4))


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

"""Reference implementations that the package no longer carries.

The package never called these; the tests keep them as frozen references:
the Sturm count and the rational-root search check ``galois_signature``'s
closed forms, ``x_to_T``/``double_x`` check the coordinate change and the
reduction lemma behind the singular Fueter point, ``singular_T`` checks the
lifts of ``certify._closed_form``, ``reconstruct`` is the oracle of
``phi_development`` and ``two_torsion_poly`` that of the division
recurrence."""

from fractions import Fraction

from monodiv import (
    MathDomainError,
    PhiDevelopment,
    PolyInt,
    PolyRat,
    SingularCase,
    TateNormalCurve,
    WeierstrassCurve,
)
from monodiv.arith import divisors
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

"""Curve models, division polynomials, and Fueter polynomials.

Division polynomials are kept as (x-polynomial, parity flag) pairs: for odd n
the polynomial is the full psi_n(x); for even n it is psi_n / psi_2, with
psi_2^2 eliminated through the curve relation 4x^3 + b2 x^2 + 2 b4 x + b6.
The Fueter side mirrors this with F_2^2 = 4T^2 + (alpha/beta) T + 4.

One recurrence serves both, over any ring.  Polynomials are built over Z:
psi_n on the integral model b_i' = u^i b_i, u the lcm of the denominators of
a1..a6 (1 for Tate curves); psi_n is isobaric of weight w = n^2 - 1 (n^2 - 4
for the even part), so coefficient j is c_j u^(2j) / u^w.  F_n is built in
S = T/beta, where every base is integral, and coefficient j is g_j / beta^j.
``psi_value``/``fueter_value`` run it on the base values at one point.

Recurrence base cases and signs were cross-validated against the direct
coordinate-change route (see tests); in particular the 4-torsion factor is
F_4 / F_2 = 2T^6 + (a/b)T^5 + 10T^4 - 10T^2 - (a/b)T - 2."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import MathDomainError, SingularCurveError
from .poly import PolyInt, PolyRat

@dataclass(frozen=True)
class WeierstrassCurve:
    """Exact-rational Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.delta == 0:
            raise SingularCurveError("curve parameters have vanishing discriminant")

    @cached_property
    def b2(self) -> Fraction:
        return self.a1**2 + 4 * self.a2

    @cached_property
    def b4(self) -> Fraction:
        return 2 * self.a4 + self.a1 * self.a3

    @cached_property
    def b6(self) -> Fraction:
        return self.a3**2 + 4 * self.a6

    @cached_property
    def b8(self) -> Fraction:
        return (
            self.a1**2 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3**2
            - self.a4**2
        )

    @cached_property
    def delta(self) -> Fraction:
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6


@dataclass(frozen=True)
class TateNormalCurve:
    """Tate normal form for a rational 4-torsion point at (0, 0):
    y^2 + a xy + beta a^2 y = x^3 + beta a x^2 with a = alpha + 8 beta."""

    alpha: int
    beta: int

    def __post_init__(self):
        if math.gcd(self.alpha, self.beta) != 1:
            raise MathDomainError("alpha and beta must be coprime")
        if self.beta == 0 or self.alpha == 8 * self.beta or self.alpha == -8 * self.beta:
            raise SingularCurveError("singular Tate parameters (Delta = 0)")

    @property
    def a(self) -> int:
        return self.alpha + 8 * self.beta

    @cached_property
    def weierstrass(self) -> WeierstrassCurve:
        a, b = self.a, self.beta
        return WeierstrassCurve(
            Fraction(a), Fraction(b * a), Fraction(b * a * a), Fraction(0), Fraction(0)
        )


def tate_curve(alpha: int, beta: int) -> TateNormalCurve:
    """Tate-normal-form curve for coprime (alpha, beta); errors when singular."""
    return TateNormalCurve(alpha, beta)


def T_to_x(T: Fraction | int, curve: TateNormalCurve) -> Fraction:
    """Weierstrass x of a Fueter coordinate: x = a*beta/T - a*beta (T != 0)."""
    T = Fraction(T)
    if T == 0:
        raise MathDomainError("T = 0 is the Fueter identity (pole of x)")
    ab = curve.a * curve.beta
    return Fraction(ab) / T - ab


@dataclass(frozen=True)
class DivisionPoly:
    """Division (or Fueter) polynomial in the parity-split representation.

    For odd n, ``poly`` is the full polynomial; for even n it is the cofactor
    of psi_2 (resp. F_2), with leading coefficient n/2.
    """

    n: int
    even_part: bool
    poly: PolyRat


def _division_part(n: int, base3, base4, square, fueter_signs: bool):
    """Parity-split part of the n-th term of the division recurrence.

    ``square`` is the squared 2-torsion factor (psi_2^2 or F_2^2).  The
    Fueter normalization negates odd n = 2m+1 for even m and even n = 2m for
    odd m.  The indices n reaches, about five per halving, are listed from n
    down, then built bottom-up in a table that dies with the call.
    """
    if n < 1:
        raise MathDomainError("n must be positive")
    need, todo = set(), [n]
    while todo:
        k = todo.pop()
        if k > 4 and k not in need:
            need.add(k)
            todo.extend(range(k // 2 - 2 + k % 2, k // 2 + 3))
    one = square**0  # the 1 of the bases' ring
    P = {1: one, 2: one, 3: base3, 4: base4}
    square2 = square * square
    for k in sorted(need):
        m = k // 2
        if k % 2:
            if m % 2 == 0:
                val = square2 * P[m + 2] * P[m] ** 3 - P[m - 1] * P[m + 1] ** 3
            else:
                val = P[m + 2] * P[m] ** 3 - square2 * P[m - 1] * P[m + 1] ** 3
            negate = m % 2 == 0
        else:
            # the squared factors cancel, so one composition serves both
            # parities of m (each factor is already its parity-split part)
            val = P[m] * (P[m + 2] * P[m - 1] ** 2 - P[m - 2] * P[m + 1] ** 2)
            negate = m % 2 == 1
        P[k] = -val if fueter_signs and negate else val
    return P[n]


def _psi_bases(curve: WeierstrassCurve, u: int = 1) -> tuple[tuple, ...]:
    """Coefficients of psi_3, psi_4/psi_2 and psi_2^2 on the model b_i' = u^i b_i."""
    b2, b4, b6, b8 = curve.b2 * u**2, curve.b4 * u**4, curve.b6 * u**6, curve.b8 * u**8
    return (
        (b8, 3 * b6, 3 * b4, b2, 3),
        (b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2),
        (b6, 2 * b4, b2, 4),
    )


def _fueter_bases(curve: TateNormalCurve) -> tuple[tuple, ...]:
    """Integer coefficients of F_3, F_4/F_2 and F_2^2 in S = T/beta."""
    a, b2 = curve.alpha, curve.beta**2
    return (
        (-3, -a, -6 * b2, 0, b2 * b2),
        (-2, -a, -10 * b2, 0, 10 * b2 * b2, a * b2 * b2, 2 * b2**3),
        (4, a, 4 * b2),
    )


def psi(curve: WeierstrassCurve, n: int) -> DivisionPoly:
    """n-th division polynomial; even n returns the psi_2 cofactor."""
    u = math.lcm(*(c.denominator for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)))
    part = _division_part(n, *map(PolyInt, _psi_bases(curve, u)), fueter_signs=False)
    uw = u ** (n * n - (4 if n % 2 == 0 else 1))
    poly = PolyRat(Fraction(c * u ** (2 * j), uw) for j, c in enumerate(part.coeffs))
    return DivisionPoly(n=n, even_part=(n % 2 == 0), poly=poly)


def psi_value(curve: WeierstrassCurve, n: int, x: Fraction | int) -> Fraction:
    """psi(curve, n).poly(x), by the recurrence on the values of the bases at x."""
    values = (PolyRat(c)(Fraction(x)) for c in _psi_bases(curve))
    return _division_part(n, *values, fueter_signs=False)


def fueter(curve: TateNormalCurve, n: int) -> DivisionPoly:
    """n-th Fueter polynomial in T; even n returns the F_2 cofactor."""
    part = _division_part(n, *map(PolyInt, _fueter_bases(curve)), fueter_signs=True)
    poly = PolyRat(Fraction(g, curve.beta**j) for j, g in enumerate(part.coeffs))
    return DivisionPoly(n=n, even_part=(n % 2 == 0), poly=poly)


def fueter_value(curve: TateNormalCurve, n: int, T: Fraction | int) -> Fraction:
    """fueter(curve, n).poly(T), by the recurrence on the values of the bases at T."""
    values = (PolyRat(c)(Fraction(T) / curve.beta) for c in _fueter_bases(curve))
    return _division_part(n, *values, fueter_signs=True)


def psi_fueter_identity_check(
    curve: TateNormalCurve, n: int, T: Fraction | int
) -> bool:
    """Exact check of psi_n(x(T)) = (-1)^((n-1)/2) (a*beta/T)^((n^2-1)/2) F_n(T)."""
    if n % 2 == 0:
        raise MathDomainError("the identity is implemented for odd n")
    T = Fraction(T)
    lhs = psi_value(curve.weierstrass, n, T_to_x(T, curve))
    d = (n * n - 1) // 2
    sign = -1 if ((n - 1) // 2) % 2 else 1
    rhs = sign * (Fraction(curve.a * curve.beta) / T) ** d * fueter_value(curve, n, T)
    return lhs == rhs


def verdure_disc(n: int, delta: Fraction | int) -> Fraction:
    """Closed-form discriminant of the n-th division polynomial carrier.

    Odd n: (-1)^((n-1)/2) n^((n^2-3)/2) Delta^((n^4-4n^2+3)/24).
    Even n (for the psi_2 cofactor of leading coefficient n/2):
    (-1)^((n-2)/2) 16 n^((n^2-12)/2) Delta^((n^4-10n^2+24)/24).
    """
    if n < 1:
        raise MathDomainError("n must be positive")
    delta = Fraction(delta)
    if n % 2:
        sign = -1 if ((n - 1) // 2) % 2 else 1
        return sign * Fraction(n) ** ((n * n - 3) // 2) * delta ** ((n**4 - 4 * n * n + 3) // 24)
    sign = -1 if ((n - 2) // 2) % 2 else 1
    return (
        sign
        * 16
        * Fraction(n) ** ((n * n - 12) // 2)
        * delta ** ((n**4 - 10 * n * n + 24) // 24)
    )


def fueter_disc(n: int, alpha: int, beta: int) -> Fraction:
    """Closed-form discriminant of the odd Fueter polynomial F_n: the odd-n
    `verdure_disc` with Delta = (alpha - 8 beta)(alpha + 8 beta) / beta^2."""
    if n % 2 == 0:
        raise MathDomainError("the Fueter discriminant formula is for odd n")
    return verdure_disc(n, Fraction((alpha - 8 * beta) * (alpha + 8 * beta), beta * beta))

"""Curve models, division polynomials, and Fueter polynomials.

For odd n a division polynomial is the full psi_n(x); for even n it is
psi_n / psi_2, with psi_2^2 eliminated through the curve relation
4x^3 + b2 x^2 + 2 b4 x + b6.  The Fueter side mirrors this with
F_2^2 = 4T^2 + (alpha/beta) T + 4.

One recurrence serves both, over any ring, and a family is its model: the
integer coefficients of the third, the even and the squared 2-torsion base,
a substitution lam = ln/ld, an outer scale mu and the Fueter sign flag, with
P_n(z) = part_n(lam z) / mu^deg and deg the formal degree of the index.
psi runs on the integral model b_i' = u^i b_i, u the lcm of the denominators
of a1..a6 (1 for Tate curves), which the curve caches and also reads Delta
from; psi_n is isobaric of weight 2 deg, so lam = mu = u^2.  F runs in
S = T/beta, where every base is integral: lam = 1/beta and mu = 1.
The polynomial is one integer numerator over one denominator, coefficient j
being c_j ln^j ld^(deg-j) over (ld mu)^deg > 0.  A point value runs the
recurrence on integers at lam z = num/den, each base B of formal degree d
(4, 6 and 3; F_2^2 is padded with a zero top coefficient) entering as
den^d B(num/den); the value is the pair H_n, (den mu)^deg, which the
identity check cross-multiplies as integers.

Recurrence base cases and signs were cross-validated against the direct
coordinate-change route (see tests); in particular the 4-torsion factor is
F_4 / F_2 = 2T^6 + (a/b)T^5 + 10T^4 - 10T^2 - (a/b)T - 2."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import MathDomainError, SingularCurveError
from .poly import PolyInt, PolyRat, _rat_from_integral

_SINGULAR_TATE = "singular Tate parameters (Delta = 0)"

# Largest division/Fueter index accepted: the cost of psi_n grows steeply
# with n, and 41 is the largest n the layer measurements use.
MAX_N = 41


def _check_n(n: int) -> None:
    if n < 1:
        raise MathDomainError("n must be positive")
    if n > MAX_N:
        raise MathDomainError(f"n must be at most {MAX_N}")


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
    def integral_model(self) -> tuple[int, int, int, int, int]:
        """(u, b2', b4', b6', b8'): u is the lcm of the denominators of
        a1..a6, and b_i' = u^i b_i are the b-invariants of the integral model
        a_j' = u^j a_j (integers, since each u a_j is one)."""
        a = (self.a1, self.a2, self.a3, self.a4, self.a6)
        u = math.lcm(*(c.denominator for c in a))
        a1, a2, a3, a4, a6 = (
            c.numerator * (u**j // c.denominator) for c, j in zip(a, (1, 2, 3, 4, 6))
        )
        return (
            u,
            a1 * a1 + 4 * a2,
            2 * a4 + a1 * a3,
            a3 * a3 + 4 * a6,
            a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4,
        )

    @cached_property
    def delta(self) -> Fraction:
        """The discriminant, that of the integral model over u^12 (weight 12)."""
        u, b2, b4, b6, b8 = self.integral_model
        return Fraction(-b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6, u**12)


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
            raise SingularCurveError(_SINGULAR_TATE)

    @property
    def a(self) -> int:
        return self.alpha + 8 * self.beta

    @cached_property
    def weierstrass(self) -> WeierstrassCurve:
        a, b = self.a, self.beta
        return WeierstrassCurve(a, b * a, b * a * a, 0, 0)


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


class DivisionPoly(NamedTuple):
    """Division (or Fueter) polynomial in the parity-split representation.

    For odd n, ``poly`` is the full polynomial; for even n it is the cofactor
    of psi_2 (resp. F_2), with leading coefficient n/2.
    """

    n: int
    poly: PolyRat

    @property
    def even_part(self) -> bool:
        return self.n % 2 == 0


def _division_part(n: int, base3, base4, square, fueter_signs: bool):
    """Parity-split part of the n-th term of the division recurrence.

    ``square`` is the squared 2-torsion factor (psi_2^2 or F_2^2).  The
    Fueter normalization negates odd n = 2m+1 for even m and even n = 2m for
    odd m.  The indices n reaches, about five per halving, are listed from n
    down, then built bottom-up in a table that dies with the call.
    """
    _check_n(n)
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


def _formal_degree(n: int) -> int:
    """Degree of the n-th term of the recurrence: (n^2 - 1)/2 for odd n, and
    (n^2 - 4)/2 for the even part.  psi_n is isobaric of weight twice this."""
    return (n * n - (4 if n % 2 == 0 else 1)) // 2


def _psi_model(curve: WeierstrassCurve):
    """(bases, lam, mu, fueter_signs) of psi: psi_3, psi_4/psi_2 and psi_2^2
    on the integral model, lam = mu = u^2."""
    u, b2, b4, b6, b8 = curve.integral_model
    bases = (
        (b8, 3 * b6, 3 * b4, b2, 3),
        (b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2),
        (b6, 2 * b4, b2, 4),
    )
    return bases, Fraction(u * u), u * u, False


def _fueter_model(curve: TateNormalCurve):
    """(bases, lam, mu, fueter_signs) of F: F_3, F_4/F_2 and F_2^2 (padded to
    degree 3) in S = T/beta, lam = 1/beta and mu = 1."""
    a, b2 = curve.alpha, curve.beta**2
    bases = (
        (-3, -a, -6 * b2, 0, b2 * b2),
        (-2, -a, -10 * b2, 0, 10 * b2 * b2, a * b2 * b2, 2 * b2**3),
        (4, a, 4 * b2, 0),
    )
    return bases, Fraction(1, curve.beta), 1, True


def _homogeneous_values(bases, point: Fraction) -> list[int]:
    """den^d B(num/den) for each base B, with point = num/den and d the
    formal degree len(B) - 1, by Horner on c_j den^(d-j)."""
    num, den = point.numerator, point.denominator
    values = []
    for coeffs in bases:
        value, scale = 0, 1
        for c in reversed(coeffs):
            value = value * num + c * scale
            scale *= den
        values.append(value)
    return values


def _polynomial(model, n: int) -> DivisionPoly:
    """The n-th part P_n(z) = part_n(lam z) / mu^deg of a model: with
    lam = ln/ld, coefficient j is c_j ln^j ld^(deg-j) over (ld mu)^deg > 0."""
    bases, lam, mu, fueter_signs = model
    part = _division_part(n, *map(PolyInt, bases), fueter_signs=fueter_signs)
    ln, ld, deg = lam.numerator, lam.denominator, _formal_degree(n)
    num = [c * ln**j * ld ** (deg - j) for j, c in enumerate(part.coeffs)]
    return DivisionPoly(n=n, poly=_rat_from_integral(num, (ld * mu) ** deg))


def _pair(model, n: int, z: Fraction | int) -> tuple[int, int]:
    """(H, D) with _polynomial(model, n).poly(z) = H / D, D > 0, by the
    recurrence on integers: at lam z = num/den, H = den^deg part_n(num/den)
    and D = (den mu)^deg."""
    bases, lam, mu, fueter_signs = model
    point = Fraction(z) * lam
    H = _division_part(n, *_homogeneous_values(bases, point), fueter_signs=fueter_signs)
    return H, (point.denominator * mu) ** _formal_degree(n)


def psi(curve: WeierstrassCurve, n: int) -> DivisionPoly:
    """n-th division polynomial; even n returns the psi_2 cofactor."""
    return _polynomial(_psi_model(curve), n)


def psi_value(curve: WeierstrassCurve, n: int, x: Fraction | int) -> Fraction:
    """psi(curve, n).poly(x), by the recurrence on integers."""
    return Fraction(*_pair(_psi_model(curve), n, x))


def fueter(curve: TateNormalCurve, n: int) -> DivisionPoly:
    """n-th Fueter polynomial in T; even n returns the F_2 cofactor."""
    return _polynomial(_fueter_model(curve), n)


def fueter_value(curve: TateNormalCurve, n: int, T: Fraction | int) -> Fraction:
    """fueter(curve, n).poly(T), by the recurrence on integers."""
    return Fraction(*_pair(_fueter_model(curve), n, T))


def psi_fueter_identity_check(
    curve: TateNormalCurve, n: int, T: Fraction | int
) -> bool:
    """Exact check of psi_n(x(T)) = (-1)^((n-1)/2) (a*beta/T)^((n^2-1)/2) F_n(T).

    With T = t/s, psi_n(x(T)) = H/D and F_n(T) = G/E, the two sides agree
    if and only if H E t^d = sign (a beta s)^d G D, all integers."""
    if n % 2 == 0:
        raise MathDomainError("the identity is implemented for odd n")
    T = Fraction(T)
    H, D = _pair(_psi_model(curve.weierstrass), n, T_to_x(T, curve))
    G, E = _pair(_fueter_model(curve), n, T)
    d = (n * n - 1) // 2
    sign = -1 if ((n - 1) // 2) % 2 else 1
    return H * E * T.numerator**d == sign * (curve.a * curve.beta * T.denominator) ** d * G * D


def verdure_disc(n: int, delta: Fraction | int) -> Fraction:
    """Closed-form discriminant of the n-th division polynomial carrier.

    Odd n: (-1)^((n-1)/2) n^((n^2-3)/2) Delta^((n^4-4n^2+3)/24).
    Even n (for the psi_2 cofactor of leading coefficient n/2):
    (-1)^((n-2)/2) 16 n^((n^2-12)/2) Delta^((n^4-10n^2+24)/24).
    """
    _check_n(n)
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
    `verdure_disc` with Delta = (alpha - 8 beta)(alpha + 8 beta) / beta^2.
    beta = 0 is singular, as in `tate_curve`."""
    if n % 2 == 0:
        raise MathDomainError("the Fueter discriminant formula is for odd n")
    if beta == 0:
        raise SingularCurveError(_SINGULAR_TATE)
    return verdure_disc(n, Fraction((alpha - 8 * beta) * (alpha + 8 * beta), beta * beta))

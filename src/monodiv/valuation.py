"""Valuations of division and Fueter polynomials at singular points.

The closed forms (for odd n, odd p):

  p | alpha - 8 beta:  v_p(Psi_n(Q)) = v * (n^2-1)/8          (x(Q) = -2^5 beta^2)
  p | alpha + 8 beta:  v_p(Psi_n(0)) = v * 5(n^2-1)/8,  v_p(F_n(1)) =  v (n^2-1)/8
  p | beta:            v_p(Psi_n(0)) = v * 3(n^2-1)/8,  v_p(F_n(1)) = -v (n^2-1)/8

each paired with the observed v_p of the exact value that the recurrence
gives at the point (``psi_value``/``fueter_value``; no polynomial is built).
The floor sequence R_n(a, l) of the multiplicative-reduction analysis is here too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import require_prime, vp, vp_fraction
# perfbench/spans.py patches psi and fueter in this module by name, though
# nothing here calls them; drop both imports together with those patches.
from .elliptic import TateNormalCurve, fueter, fueter_value, psi, psi_value  # noqa: F401
from .errors import MathDomainError

class SingularCase(NamedTuple):
    """Which quantity p divides: 'minus' for alpha - 8 beta, 'plus' for
    alpha + 8 beta, 'beta' for beta; v is the corresponding valuation."""

    tag: str
    p: int
    v: int


def singular_case(curve: TateNormalCurve, p: int) -> SingularCase:
    """Classify an odd bad prime of the curve (the cases are exclusive)."""
    require_prime(p)
    if p == 2:
        raise MathDomainError("singular cases are analysed at odd primes")
    alpha, beta = curve.alpha, curve.beta
    if beta % p == 0:
        return SingularCase("beta", p, vp(beta, p))
    if (alpha - 8 * beta) % p == 0:
        return SingularCase("minus", p, vp(alpha - 8 * beta, p))
    if (alpha + 8 * beta) % p == 0:
        return SingularCase("plus", p, vp(alpha + 8 * beta, p))
    raise MathDomainError(f"good reduction at p = {p}")


def R(n: int, a: int, ell: int) -> int:
    """floor(n^2 a^(l - a^)/2l) - floor(na^(l - na^)/2l), hats reducing mod l."""
    if ell == 0:
        raise MathDomainError("ell must be nonzero")
    L = abs(ell)
    ahat = a % L
    nahat = (n * a) % L
    return n * n * ahat * (ell - ahat) // (2 * ell) - nahat * (ell - nahat) // (2 * ell)


def _odd_only(n: int) -> None:
    if n < 1 or n % 2 == 0:
        raise MathDomainError("the valuation formulas are stated for odd n")


# v_p(Psi_n) and v_p(F_n) at the singular point are these multiples of
# v (n^2 - 1)/8, by case tag (see the module docstring)
_MULTIPLIERS = {"minus": (1, 1), "plus": (5, 1), "beta": (3, -1)}


def _predicted(case: SingularCase, n: int) -> tuple[int, int]:
    """Predicted (v_p(Psi_n), v_p(F_n)) at the singular point, odd n."""
    _odd_only(n)
    if case.tag not in _MULTIPLIERS:
        raise MathDomainError(f"unknown case tag {case.tag!r}")
    k = case.v * ((n * n - 1) // 8)
    psi_m, fueter_m = _MULTIPLIERS[case.tag]
    return psi_m * k, fueter_m * k


def predicted_valuation(case: SingularCase, n: int) -> int:
    """Predicted v_p of Psi_n at the singular abscissa, odd n."""
    return _predicted(case, n)[0]


def predicted_fueter_valuation(case: SingularCase, n: int) -> int:
    """Predicted v_p of F_n at the corresponding Fueter point, odd n
    (negative for p | beta)."""
    return _predicted(case, n)[1]


def singular_x(case: SingularCase, curve: TateNormalCurve) -> int:
    """Weierstrass abscissa of the singular point (exact integer)."""
    if case.tag == "minus":
        return -(2**5) * curve.beta**2
    return 0


def singular_fueter_T(case: SingularCase, curve: TateNormalCurve) -> Fraction:
    """Exact rational Fueter coordinate above the singular point:
    T = a*beta / (x + a*beta), the inverse of `T_to_x`."""
    ab = curve.a * curve.beta
    return Fraction(ab, singular_x(case, curve) + ab)


def observed_psi_valuation(curve: TateNormalCurve, case: SingularCase, n: int) -> int:
    """v_p of the exact value Psi_n(singular x), from the recurrence at x."""
    _odd_only(n)
    value = psi_value(curve.weierstrass, n, singular_x(case, curve))
    return vp_fraction(value, case.p)


def observed_fueter_valuation(
    curve: TateNormalCurve, case: SingularCase, n: int
) -> int:
    """v_p of the exact rational F_n(singular T), from the recurrence at T."""
    _odd_only(n)
    value = fueter_value(curve, n, singular_fueter_T(case, curve))
    return vp_fraction(value, case.p)

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("ci")

_X = sympy.Symbol("x")


def to_sympy(f):
    """PolyInt/PolyRat -> sympy expression in x."""
    return sum(sympy.Rational(c) * _X**i for i, c in enumerate(f.coeffs))


def sympy_poly(f):
    return sympy.Poly(to_sympy(f), _X, domain="QQ")


@pytest.fixture
def rng():
    return random.Random(987654321)


def random_tate_params(rng, bound=60):
    """Coprime (alpha, beta) with nonzero discriminant."""
    import math

    while True:
        alpha = rng.randint(-bound, bound)
        beta = rng.randint(1, max(2, bound // 10))
        if beta == 0 or alpha in (8 * beta, -8 * beta):
            continue
        if math.gcd(alpha, beta) != 1:
            continue
        return alpha, beta


def random_curve(rng, bound=4):
    """Random nonsingular WeierstrassCurve with small integer invariants."""
    from monodiv import SingularCurveError, WeierstrassCurve

    while True:
        vals = [Fraction(rng.randint(-bound, bound)) for _ in range(5)]
        try:
            return WeierstrassCurve(*vals)
        except SingularCurveError:
            continue


def random_rational_curve(rng, bound=9):
    """Random nonsingular WeierstrassCurve whose a-invariants have denominators."""
    from monodiv import SingularCurveError, WeierstrassCurve

    while True:
        vals = [Fraction(rng.randint(-bound, bound), rng.randint(1, 6)) for _ in range(5)]
        if all(v.denominator == 1 for v in vals):
            continue
        try:
            return WeierstrassCurve(*vals)
        except SingularCurveError:
            continue

"""Each input check of the package raises, and with the exception type pinned
here: the exact class, not a base of it.  The messages are not pinned."""

import pytest

from monodiv import (
    MathDomainError,
    PolyInt,
    PolyModP,
    classify_odd,
    factor_mod_p,
    fueter,
    fueter_disc,
    fueter_value,
    phi_development,
    psi,
    psi_fueter_identity_check,
    psi_value,
    resultant,
    tate_curve,
    verdure_disc,
)
from monodiv.arith import factor, is_squarefree, legendre, vp
from monodiv.certify import is_irreducible_quartic
from monodiv.cli import run
from monodiv.elliptic import MAX_N
from monodiv.newton import PolygonSide, residual_polynomial
from monodiv.poly import PolyFq
from monodiv.valuation import observed_fueter_valuation, observed_psi_valuation, singular_case

CURVE = tate_curve(-7, 3)
# the least odd n above MAX_N, for the calls that reject even n first
ODD_PAST_MAX = MAX_N + 1 + MAX_N % 2

CASES = [
    pytest.param(lambda: vp(12, 1), ValueError, id="vp-p-below-2"),
    pytest.param(lambda: factor(0), ValueError, id="factor-zero"),
    pytest.param(lambda: is_squarefree(0), ValueError, id="is_squarefree-zero"),
    pytest.param(lambda: legendre(3, 2), ValueError, id="legendre-p-2"),
    pytest.param(lambda: legendre(2, 9), MathDomainError, id="legendre-composite-9"),
    pytest.param(lambda: legendre(3, 15), MathDomainError, id="legendre-composite-15"),
    pytest.param(
        # x^2 + 4 at "p" = 4 has the side (0, 1)-(2, 0) in x
        lambda: residual_polynomial(phi_development(PolyInt((4, 0, 1)), PolyInt((0, 1))), 4, PolygonSide(0, 1, 2, 0, 1)),
        MathDomainError,
        id="residual_polynomial-composite-4",
    ),
    pytest.param(
        lambda: is_irreducible_quartic(PolyInt((1, 0, 1))), MathDomainError, id="quartic-test-on-a-quadratic"
    ),
    pytest.param(lambda: verdure_disc(0, 1), MathDomainError, id="verdure_disc-n-0"),
    pytest.param(lambda: fueter_disc(4, 2, 1), MathDomainError, id="fueter_disc-even-n"),
    pytest.param(lambda: psi(CURVE.weierstrass, MAX_N + 1), MathDomainError, id="psi-n-past-max"),
    pytest.param(lambda: fueter(CURVE, MAX_N + 1), MathDomainError, id="fueter-n-past-max"),
    pytest.param(lambda: psi_value(CURVE.weierstrass, MAX_N + 1, 2), MathDomainError, id="psi_value-n-past-max"),
    pytest.param(lambda: fueter_value(CURVE, MAX_N + 1, 2), MathDomainError, id="fueter_value-n-past-max"),
    pytest.param(lambda: verdure_disc(MAX_N + 1, 5), MathDomainError, id="verdure_disc-n-past-max"),
    pytest.param(lambda: fueter_disc(ODD_PAST_MAX, -7, 3), MathDomainError, id="fueter_disc-n-past-max"),
    pytest.param(
        lambda: psi_fueter_identity_check(CURVE, ODD_PAST_MAX, 2), MathDomainError, id="identity-check-n-past-max"
    ),
    pytest.param(
        lambda: observed_psi_valuation(CURVE, singular_case(CURVE, 3), ODD_PAST_MAX),
        MathDomainError,
        id="observed_psi_valuation-n-past-max",
    ),
    pytest.param(
        lambda: observed_fueter_valuation(CURVE, singular_case(CURVE, 3), ODD_PAST_MAX),
        MathDomainError,
        id="observed_fueter_valuation-n-past-max",
    ),
    pytest.param(lambda: PolyInt(()).lc, MathDomainError, id="lc-of-zero"),
    pytest.param(lambda: PolyInt((1, 1)).divrem(PolyInt(())), MathDomainError, id="divrem-by-zero"),
    pytest.param(lambda: PolyInt(()).gcd(PolyInt(())), MathDomainError, id="gcd-zero-zero"),
    pytest.param(lambda: PolyInt((2, 3)).exact_scalar_div(2), MathDomainError, id="inexact-scalar-div"),
    pytest.param(lambda: PolyModP(3, (0, 1)).pth_root(), MathDomainError, id="pth_root-of-non-power"),
    pytest.param(lambda: factor_mod_p(PolyModP(5, ())), MathDomainError, id="factor_mod_p-zero"),
    pytest.param(
        lambda: PolyFq(PolyModP(5, (2, 1)), (PolyModP(5, (1,)),)).is_separable(),
        MathDomainError,
        id="is_separable-of-constant",
    ),
    pytest.param(
        lambda: phi_development(PolyInt((1, 0, 1)), PolyInt((1, 2))), MathDomainError, id="phi-not-monic"
    ),
    pytest.param(lambda: phi_development(PolyInt((1, 0, 1)), PolyInt((1,))), MathDomainError, id="phi-constant"),
    pytest.param(lambda: resultant(PolyInt(()), PolyInt((1, 1))), MathDomainError, id="resultant-with-zero"),
    pytest.param(lambda: classify_odd(2, 1, 2), MathDomainError, id="classify_odd-p-2"),
    pytest.param(
        lambda: run(["survey", "--family", "A", "--s", "3", "--t", "0:1"]),
        SystemExit,
        id="cli-range-without-colon",
    ),
]


@pytest.mark.parametrize("call, error", CASES)
def test_input_check_raises(call, error):
    with pytest.raises(error) as excinfo:
        call()
    assert excinfo.type is error
    if error is SystemExit:  # argparse's usage error
        assert excinfo.value.code == 2

from fractions import Fraction

import pytest

from monodiv import (
    InfiniteValuationError,
    MathDomainError,
    R,
    SingularCase,
    observed_fueter_valuation,
    observed_psi_valuation,
    predicted_fueter_valuation,
    predicted_valuation,
    singular_case,
    tate_curve,
)
from monodiv.arith import factor
from monodiv.valuation import singular_fueter_T, singular_x

from conftest import random_tate_params
from references import singular_T


# --- the floor sequence ------------------------------------------------------


def test_R_table_first_thirteen():
    assert [R(n, 1, 2) for n in range(1, 14)] == [
        0, 1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42,
    ]


def test_R_odd_closed_form():
    for n in range(1, 40, 2):
        assert R(n, 1, 2) == (n * n - 1) // 4


def test_R_first_term_always_zero():
    for a in range(-5, 6):
        for ell in (1, 2, 3, 5, 8, -3):
            if ell != 0:
                assert R(1, a, ell) == 0


def test_R_scaling_identity():
    # R_n(l/2, l) = (l/2) R_n(1, 2) for even l
    for ell in range(2, 42, 2):
        for n in range(1, 21):
            assert R(n, ell // 2, ell) == (ell // 2) * R(n, 1, 2)


def test_R_rejects_zero_modulus():
    with pytest.raises(MathDomainError):
        R(3, 1, 0)


# --- case classification -----------------------------------------------------


def test_singular_case_tags():
    assert singular_case(tate_curve(13, 1), 5) == SingularCase("minus", 5, 1)
    assert singular_case(tate_curve(2, 1), 5) == SingularCase("plus", 5, 1)
    assert singular_case(tate_curve(1, 5), 5) == SingularCase("beta", 5, 1)
    assert singular_case(tate_curve(33, 1), 5) == SingularCase("minus", 5, 2)
    with pytest.raises(MathDomainError):
        singular_case(tate_curve(2, 1), 7)
    with pytest.raises(MathDomainError):
        singular_case(tate_curve(2, 1), 2)


# --- predicted valuations ----------------------------------------------------


def test_predicted_examples():
    assert predicted_valuation(SingularCase("minus", 5, 1), 3) == 1
    assert predicted_valuation(SingularCase("beta", 5, 2), 5) == 18
    assert predicted_fueter_valuation(SingularCase("beta", 5, 2), 5) == -6
    assert predicted_valuation(SingularCase("plus", 5, 1), 3) == 5
    assert predicted_fueter_valuation(SingularCase("plus", 5, 1), 3) == 1
    assert predicted_fueter_valuation(SingularCase("minus", 5, 1), 3) == 1


def test_predicted_rejects_even_n():
    with pytest.raises(MathDomainError):
        predicted_valuation(SingularCase("plus", 5, 1), 4)


# --- observed valuations (the oracle itself) ----------------------------------


def test_observed_examples():
    tc = tate_curve(13, 1)
    case = singular_case(tc, 5)
    assert observed_psi_valuation(tc, case, 3) == 1

    tc = tate_curve(2, 1)
    case = singular_case(tc, 5)
    assert observed_psi_valuation(tc, case, 3) == 5  # v_5(10^5)

    tc = tate_curve(1, 5)
    case = singular_case(tc, 5)
    assert observed_psi_valuation(tc, case, 3) == 3  # v_5(5^3 * 41^5)


def test_observed_matches_predicted_all_cases(rng):
    # at least 50 (alpha, beta, p) triples per case, v >= 2 included
    cases = {"minus": 0, "plus": 0, "beta": 0}
    high_v = 0
    pool = [(33, 1, [5]), (57, 1, [7]), (117, 1, [5]), (2, 9, [3]), (41, 49, [7])]
    while min(cases.values()) < 50:
        if pool:
            alpha, beta, plist = pool.pop()
        else:
            alpha, beta = random_tate_params(rng, bound=90)
            plist = [
                p
                for p in factor(beta * (alpha - 8 * beta) * (alpha + 8 * beta)).primes()
                if p != 2
            ]
        tc = tate_curve(alpha, beta)
        for p in plist:
            case = singular_case(tc, p)
            for n in (3, 5, 7, 9):
                assert observed_psi_valuation(tc, case, n) == predicted_valuation(
                    case, n
                ), (alpha, beta, p, n)
                assert observed_fueter_valuation(
                    tc, case, n
                ) == predicted_fueter_valuation(case, n), (alpha, beta, p, n)
            cases[case.tag] += 1
            if case.v >= 2:
                high_v += 1
    assert high_v >= 5


def test_observed_matches_predicted_higher_v():
    # v_p >= 2 instances for each case
    picks = [
        (33, 1, 5, "minus", 2),   # alpha - 8 = 25
        (117, 1, 5, "plus", 2),   # alpha + 8 = 125: v = 3
        (2, 9, 3, "beta", 2),     # beta = 9
        (41, 49, 7, "beta", 2),
        (57, 1, 7, "minus", 2),   # alpha - 8 = 49
    ]
    for alpha, beta, p, tag, vmin in picks:
        tc = tate_curve(alpha, beta)
        case = singular_case(tc, p)
        assert case.tag == tag and case.v >= vmin
        for n in (3, 5, 7):
            assert observed_psi_valuation(tc, case, n) == predicted_valuation(case, n)
            assert observed_fueter_valuation(tc, case, n) == predicted_fueter_valuation(
                case, n
            )


# --- singular locations ------------------------------------------------------


def test_singular_T_examples():
    tc = tate_curve(2, 1)
    assert singular_T(singular_case(tc, 5), tc, 5) == 1
    tc = tate_curve(1, 5)
    assert singular_T(singular_case(tc, 5), tc, 5) == 1
    tc = tate_curve(13, 1)
    assert singular_T(singular_case(tc, 5), tc, 5) == 4  # = -1 mod 5


def test_singular_T_is_repeated_root_of_f3(rng):
    from monodiv import fueter

    for _ in range(40):
        alpha, beta = random_tate_params(rng, bound=60)
        tc = tate_curve(alpha, beta)
        f3 = fueter(tc, 3).poly
        for p in factor((alpha - 8 * beta) * (alpha + 8 * beta) * beta).primes():
            if p in (2, 3):
                continue
            case = singular_case(tc, p)
            if case.tag == "beta":
                # f3 reduces mod p only when beta is invertible mod p
                continue
            t0 = singular_T(case, tc, p)
            val = f3(Fraction(t0))
            dval = f3.derivative()(Fraction(t0))
            assert val.numerator % p == 0 and val.denominator % p != 0
            assert dval.numerator % p == 0


def test_minus_case_T_is_minus_one_mod_p(rng):
    for _ in range(30):
        alpha, beta = random_tate_params(rng, bound=80)
        tc = tate_curve(alpha, beta)
        for p in factor(alpha - 8 * beta).primes():
            if p == 2 or beta % p == 0:
                continue
            case = singular_case(tc, p)
            assert singular_T(case, tc, p) == p - 1


def test_singular_fueter_T_exact_values():
    tc = tate_curve(13, 1)
    case = singular_case(tc, 5)
    assert singular_x(case, tc) == -32
    assert singular_fueter_T(case, tc) == Fraction(21, -11)
    tc = tate_curve(2, 1)
    assert singular_fueter_T(singular_case(tc, 5), tc) == 1


def test_observed_zero_value_signals_infinite():
    # psi_3 vanishes at x = 0 only if b8 = 0, impossible here; instead check
    # the infinite-valuation signal on a constructed zero directly
    from monodiv.arith import vp_fraction

    with pytest.raises(InfiniteValuationError):
        vp_fraction(Fraction(0), 5)

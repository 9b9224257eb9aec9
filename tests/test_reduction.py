import hashlib
import importlib
import time
from collections import Counter

import pytest

from monodiv import (
    MathDomainError,
    SingularCurveError,
    classify_odd,
    classify_two,
    reduction_table,
    singular_case,
    tate_curve,
    vp,
)
from monodiv import arith
from monodiv.reduction import KodairaType, bad_primes
from monodiv.valuation import singular_fueter_T

from conftest import random_tate_params


def test_kodaira_rendering():
    assert str(KodairaType("I", 4)) == "I_4"
    assert str(KodairaType("I*", 1)) == "I*_1"
    assert str(KodairaType("III")) == "III"
    assert str(KodairaType("I*", 0)) == "I*_0"


def test_classify_odd_examples():
    data = classify_odd(2, 1, 3)  # 3 | alpha - 8
    assert (str(data.kodaira), data.f, data.c) == ("I_1", 1, 1)
    assert data.case_tag == "tate1-2b"

    data = classify_odd(2, 1, 5)  # 5 | alpha + 8, v odd
    assert (str(data.kodaira), data.f, data.c) == ("I*_1", 2, 4)
    assert data.case_tag == "tate1-3a"

    data = classify_odd(1, 3, 3)  # 3 | beta
    assert (str(data.kodaira), data.f, data.c) == ("I_4", 1, 4)
    assert data.case_tag == "tate1-1"


def test_classify_odd_case3b_legendre_branch():
    # alpha = 17, beta = 1: a = 25, v_5 = 2 even, w = 1, unit = 1 -> QR
    data = classify_odd(17, 1, 5)
    assert (str(data.kodaira), data.f, data.c) == ("I_2", 1, 2)
    assert data.case_tag == "tate1-3b" and data.minimal_shift_w == 1
    # alpha = 41, beta = 1: a = 49, v_7 = 2, unit = 1 -> c = v = 2
    data = classify_odd(41, 1, 7)
    assert (str(data.kodaira), data.c) == ("I_2", 2)
    # alpha = 67, beta = 2: a = 83... pick 2 | beta with p odd instead:
    # alpha = 9, beta = 5: a = 49, v_7 = 2, unit = 5 * 49 / 49 = 5, (5/7) = -1
    data = classify_odd(9, 5, 7)
    assert (str(data.kodaira), data.c) == ("I_2", 2)


def test_classify_odd_case2_congruence_branches():
    # p = 5 | alpha - 8 beta, p = 1 mod 4 -> c = v
    data = classify_odd(13, 1, 5)
    assert (str(data.kodaira), data.f, data.c, data.case_tag) == ("I_1", 1, 1, "tate1-2a")
    data = classify_odd(33, 1, 5)  # v_5(25) = 2
    assert (str(data.kodaira), data.c) == ("I_2", 2)
    # p = 3 mod 4: c = 1 when v odd, 2 when v even
    data = classify_odd(15, 1, 7)
    assert (str(data.kodaira), data.c, data.case_tag) == ("I_1", 1, "tate1-2b")
    data = classify_odd(57, 1, 7)  # alpha - 8 = 49
    assert (str(data.kodaira), data.c) == ("I_2", 2)


def test_classify_odd_good_prime_rejected():
    with pytest.raises(MathDomainError):
        classify_odd(2, 1, 7)


def test_classify_two_examples():
    data = classify_two(2, 1)
    assert (str(data.kodaira), data.f, data.c, data.case_tag) == ("I*_1", 3, 4, "tate2-1")
    data = classify_two(4, 1)
    assert (str(data.kodaira), data.case_tag) == ("III", "tate2-2")
    assert data.f is None and data.c is None
    data = classify_two(24, 1)  # a = 32, v = 5 odd > 1
    assert (str(data.kodaira), data.case_tag) == ("I*_5", "tate2-3")


def test_classify_two_beta_branch():
    data = classify_two(1, 2)
    assert (str(data.kodaira), data.f, data.c, data.case_tag) == ("I_4", 1, 4, "tate2-beta")
    data = classify_two(3, 4)
    assert (str(data.kodaira), data.c) == ("I_8", 8)


def test_classify_two_even_v_cases():
    # v_2(a) = 4: a = 16 k odd; alpha = 8 (singular), so use beta = 3: a = alpha + 24
    data = classify_two(8, 3)  # a = 32: v = 5 odd > 1
    assert data.case_tag == "tate2-3"
    data = classify_two(40, 3)  # a = 64: v = 6; t1 = (3*64 + 8*64 - 2^6)/2^7 = (192+512-64)/128 = 5 odd
    assert (str(data.kodaira), data.case_tag) == ("I*_2", "tate2-6a")
    data = classify_two(48, 1)  # a = 56 = 8*7: v = 3 odd > 1 -> I*_3
    assert (str(data.kodaira), data.case_tag) == ("I*_3", "tate2-3")
    data = classify_two(16, 3)  # a = 40: v = 3 -> I*_3
    assert data.case_tag == "tate2-3"
    # v = 4: alpha = 40, beta = 1 -> a = 48 = 16*3
    # t1 = (1*48 + 4*48 - 16)/32 = (48 + 192 - 16)/32 = 7 odd -> I*_0
    data = classify_two(40, 1)
    assert (str(data.kodaira), data.case_tag) == ("I*_0", "tate2-4")


def test_classify_two_v4_subcases():
    # need (beta a + 4a - 16)/32 even with v_2(a) = 4
    # beta = 1: a = 16u, t1 = (16u + 64u - 16)/32 = (80u - 16)/32 = (5u - 1)/2: even iff u = 1 mod 4
    # u = 5: alpha = 72: t1 = 12 even; beta a^2 / 2^8 = 6400/256 = 25 = 1 mod 4 -> I*_2
    data = classify_two(72, 1)
    assert (str(data.kodaira), data.case_tag) == ("I*_2", "tate2-5a")
    # u = 9: alpha = 136: t1 = 22 even; beta a^2/2^8 = 20736/256 = 81 = 1 mod 4 -> I*_2
    data = classify_two(136, 1)
    assert data.case_tag == "tate2-5a"
    # beta = 3, a = 16u with u = 3 mod 4 makes beta a^2 / 256 = 3 u^2 = 3 mod 4
    # u = 1: alpha = 16 - 24 = -8 beta? alpha = 16*1 - 24 = -8: singular. u = -1: a = -16:
    # alpha = -16 - 24 = -40: t1 = (3(-16) + 4(-16) - 16)/32 = (-48 - 64 - 16)/32 = -4 even
    # beta a^2 / 2^8 = 3*256/256 = 3 -> I*_3
    data = classify_two(-40, 3)
    assert (str(data.kodaira), data.case_tag) == ("I*_3", "tate2-5b")


def test_classify_two_high_even_v_cases():
    # v = 6, t1 even -> III*: beta = 1, a = 64u: t1 = (64u + 256u - 64)/128 = (5u - 1)/2
    # u = 1: alpha = 56: t1 = 2 even -> III*
    data = classify_two(56, 1)
    assert (str(data.kodaira), data.case_tag) == ("III*", "tate2-6bi")
    # v = 8: u = 1: alpha = 256 - 8 = 248: t1 = (5 - 1)/2 = 2 even -> nonsingular
    data = classify_two(248, 1)
    assert (data.kodaira.kind, data.case_tag) == ("good", "tate2-6bii")
    # v = 10: alpha = 1024 - 8 = 1016: t1 = 2 even -> I_{v-8} = I_2
    data = classify_two(1016, 1)
    assert (str(data.kodaira), data.case_tag) == ("I_2", "tate2-6biii")


def test_classify_two_good_reduction_rejected():
    with pytest.raises(MathDomainError):
        classify_two(1, 1)  # odd alpha, odd beta: odd discriminant


def test_reduction_table_examples():
    rows = reduction_table(2, 1)
    assert [(r.p, str(r.kodaira)) for r in rows] == [
        (2, "I*_1"),
        (3, "I_1"),
        (5, "I*_1"),
    ]
    rows = reduction_table(0, 1)
    assert [(r.p, str(r.kodaira)) for r in rows] == [(2, "I*_3")]
    # v_2(a) = 8: nonsingular at 2 after minimalization, so no p = 2 row
    rows = reduction_table(248, 1)
    assert [r.p for r in rows] == [3, 5]


def test_reduction_table_good_curve_shape():
    # no good curves exist with beta >= 1 and alpha != +-8... pick one with
    # tiny discriminant support instead
    rows = reduction_table(1, 1)  # delta = -7 * 9^7: primes 3, 7
    assert [r.p for r in rows] == [3, 7]


def test_ogg_consistency_sweep(rng):
    checked = 0
    while checked < 200:
        alpha, beta = random_tate_params(rng, bound=200)
        delta = beta**4 * (alpha - 8 * beta) * (alpha + 8 * beta) ** 7
        for p in bad_primes(alpha, beta):
            if p == 2:
                continue
            data = classify_odd(alpha, beta, p)
            m = data.kodaira.geometric_components
            v_delta_min = vp(delta, p) - 12 * data.minimal_shift_w
            assert v_delta_min == data.f + m - 1, (alpha, beta, p)
            checked += 1


def test_case_exclusivity(rng):
    # exactly one divisibility case fires at every odd bad prime
    for _ in range(100):
        alpha, beta = random_tate_params(rng, bound=120)
        for p in bad_primes(alpha, beta):
            if p == 2:
                continue
            hits = sum(
                1
                for q in (beta, alpha - 8 * beta, alpha + 8 * beta)
                if q % p == 0
            )
            assert hits == 1, (alpha, beta, p)


def test_ec_family_reduction_types(rng):
    # beta = 1 and alpha +- 8 squarefree: only I_1 and I*_1 appear
    from monodiv import is_squarefree

    found = 0
    alpha = 1
    while found < 50:
        alpha += 1
        if alpha in (8, -8):
            continue
        if not (is_squarefree(alpha - 8) and is_squarefree(alpha + 8)):
            continue
        for row in reduction_table(alpha, 1):
            assert str(row.kodaira) in ("I_1", "I*_1"), (alpha, row)
            if str(row.kodaira) == "I*_1":
                assert (alpha + 8) % row.p == 0 or row.p == 2
        found += 1


def test_singular_parameters_rejected():
    with pytest.raises(SingularCurveError):
        reduction_table(8, 1)
    with pytest.raises(MathDomainError):
        classify_odd(6, 3, 3)  # not coprime


def test_reduction_table_spends_one_budget_on_the_whole_request(monkeypatch):
    deadlines, budgets = [], []
    module = importlib.import_module("monodiv.reduction")

    def slow(n, _inner=module.factor):
        deadlines.append(arith._DEADLINE.get())
        budgets.append(max(0.0, 1000 * (deadlines[-1] - time.monotonic())))
        time.sleep(0.06)
        return _inner(n)

    expected = reduction_table(7, 3)
    monkeypatch.setattr(module, "factor", slow)
    # beta = 3, alpha - 8 beta = -17, alpha + 8 beta = 31: three factorizations
    assert reduction_table(7, 3, budget_ms=100) == expected
    assert len(budgets) == 3
    assert 60 < budgets[0] <= 100
    assert all(later <= earlier for earlier, later in zip(budgets, budgets[1:]))
    assert budgets[1] <= 40 and budgets[2] == 0.0
    assert None not in deadlines and len(set(deadlines)) == 1


def test_classify_and_singular_point_sweep_digests():
    # pins every classify_two/classify_odd row or error, and every singular
    # Fueter point at odd p, over a grid that reaches all sixteen table rows
    classify, fueter, tags = hashlib.sha256(), hashlib.sha256(), Counter()
    for alpha in range(-1100, 1101):
        for beta in (1, 2, 3, 5, 9):
            for p in (2, 3, 5, 7):
                try:
                    data = classify_two(alpha, beta) if p == 2 else classify_odd(alpha, beta, p)
                    line = repr(data)
                    tags[data.case_tag] += 1
                except MathDomainError as e:
                    line = f"{type(e).__name__}: {e}"
                classify.update(line.encode() + b"\n")
                if p == 2:
                    continue
                try:
                    curve = tate_curve(alpha, beta)
                    line = repr(singular_fueter_T(singular_case(curve, p), curve))
                except MathDomainError as e:
                    line = f"{type(e).__name__}: {e}"
                fueter.update(line.encode() + b"\n")
    assert classify.hexdigest() == (
        "ba2993e2dba57939c66751a00659e368945b2a42e7d831ede0cf277706b468eb"
    )
    assert fueter.hexdigest() == (
        "c1d927c808740bf09eebc46154e1420ba898d03c8abbbd6a5969a73c355fc3bb"
    )
    assert len(tags) == 16
    assert min(tags.values()) == tags["tate2-6biii"] == 4


def test_geometric_components_of_every_kind():
    kinds = (KodairaType("I", 4), KodairaType("I*", 1), KodairaType("III"), KodairaType("III*"), KodairaType("good"))
    assert [k.geometric_components for k in kinds] == [4, 6, None, None, 1]

import functools
import hashlib
import importlib
import math
import random
import time
from collections import Counter

import pytest

from monodiv import (
    MathDomainError,
    SingularCurveError,
    classify,
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
from references import _shift, tate_reference


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
    # v_2(a) = 4 with a = 16 a': m = v_2(alpha - 8 beta) = v_2(16 (a' - beta)) >= 5,
    # m = 5 (beta a' = 3 mod 4) is I*_0, and m >= 6 is I*_(m - 4)
    # beta = 1, a' = 5: alpha = 72, alpha - 8 = 64: m = 6 -> I*_2
    data = classify_two(72, 1)
    assert (str(data.kodaira), data.case_tag) == ("I*_2", "tate2-5a")
    # beta = 1, a' = 9: alpha = 136, alpha - 8 = 128: m = 7 -> I*_3
    data = classify_two(136, 1)
    assert (str(data.kodaira), data.case_tag) == ("I*_3", "tate2-5b")
    # beta = 3, a' = -1: a = -16, alpha = -16 - 24 = -40, alpha - 24 = -64:
    # m = 6 -> I*_2
    data = classify_two(-40, 3)
    assert (str(data.kodaira), data.case_tag) == ("I*_2", "tate2-5a")


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
        "950a66db45b15ae67bfba9d3c379d8485fdd20123c13cc6b464da54685a0bd7a"
    )
    assert fueter.hexdigest() == (
        "c1d927c808740bf09eebc46154e1420ba898d03c8abbbd6a5969a73c355fc3bb"
    )
    assert len(tags) == 16
    assert min(tags.values()) == tags["tate2-6biii"] == 4


def test_geometric_components_of_every_kind():
    kinds = (KodairaType("I", 4), KodairaType("I*", 1), KodairaType("III"), KodairaType("III*"), KodairaType("good"))
    assert [k.geometric_components for k in kinds] == [4, 6, None, None, 1]


def test_tate_reference_on_known_curves():
    # y^2 = x^3 - x (conductor 32), y^2 = x^3 + 1 (36), 11a1, 14a1, and
    # y^2 = x^3 - x scaled by 2 and by 3, which the reference makes minimal
    rows = [
        ((0, 0, 0, -1, 0), 2, ("III", None, 5, 2, 0)),
        ((0, 0, 0, 0, 1), 2, ("IV", None, 2, 3, 0)),
        ((0, 0, 0, 0, 1), 3, ("III", None, 2, 2, 0)),
        ((0, -1, 1, -10, -20), 11, ("I", 5, 1, 5, 0)),
        ((1, 0, 1, 4, -6), 2, ("I", 6, 1, 2, 0)),
        ((1, 0, 1, 4, -6), 7, ("I", 3, 1, 3, 0)),
        ((0, 0, 0, -16, 0), 2, ("III", None, 5, 2, 1)),
        ((0, 0, 0, -81, 0), 3, ("good", None, 0, 1, 1)),
    ]
    for a, p, expected in rows:
        ref = tate_reference(a, p)
        assert (ref.kind, ref.n, ref.f, ref.c, ref.scalings) == expected, (a, p)


def _tate_model(alpha, beta):
    """a1..a6 of tate_curve(alpha, beta), as integers."""
    a = alpha + 8 * beta
    return (a, beta * a, beta * a * a, 0, 0)


def _reference_row(alpha, beta, p):
    return tate_reference(_tate_model(alpha, beta), p)


def test_tate_reference_is_invariant_under_changes_of_coordinates():
    # x -> x + r, y -> y + s x + t keeps the curve, so the reference must
    # give the same row on the moved model, at 2, 3 and the odd bad primes
    rng = random.Random(4417)
    for _ in range(200):
        alpha, beta = random_tate_params(rng, bound=400)
        model = _tate_model(alpha, beta)
        moved = _shift(model, *(rng.randint(-50, 50) for _ in range(3)))
        for p in sorted({2, 3} | {p for p in bad_primes(alpha, beta) if p < 60}):
            assert tate_reference(moved, p) == tate_reference(model, p), (alpha, beta, p)


def _agrees(data, ref):
    """classify's row against Tate's algorithm: kind and n, and f and c
    where classify states them."""
    return (data.kodaira.kind, data.kodaira.n) == (ref.kind, ref.n) and all(
        mine is None or mine == theirs for mine, theirs in ((data.f, ref.f), (data.c, ref.c))
    )


@functools.cache
def _two_adic_grid():
    """(alpha, beta, classify_two row, reference row) for odd beta < 60 and
    |alpha| <= 600, alpha even: every tate2-* tag but tate2-beta."""
    rows = []
    for beta in range(1, 60, 2):
        for alpha in range(-600, 601, 2):
            if math.gcd(alpha, beta) == 1 and alpha not in (8 * beta, -8 * beta):
                rows.append((alpha, beta, classify_two(alpha, beta), _reference_row(alpha, beta, 2)))
    return rows


def test_classify_matches_tate_reference_at_every_bad_prime():
    # 2000 seeded curves, half with alpha near +-8 beta, where the 2-adic
    # valuations run high; every bad prime up to 150
    rng, rows = random.Random(20261021), Counter()
    for i in range(2000):
        beta = rng.randint(1, 3000)
        if i % 2:
            alpha = rng.choice((8, -8)) * beta + rng.randint(-512, 512)
        else:
            alpha = rng.randint(-(10**5), 10**5)
        if math.gcd(alpha, beta) != 1 or alpha in (8 * beta, -8 * beta):
            continue
        for p in bad_primes(alpha, beta):
            if p <= 150:
                data = classify(alpha, beta, p)
                assert _agrees(data, _reference_row(alpha, beta, p)), (alpha, beta, data)
                rows[data.case_tag] += 1
    # every tag but the two of v_2(alpha + 8 beta) >= 8, which the grid below holds
    assert len(rows) == 14 and sum(rows.values()) == 5175


def test_classify_two_matches_tate_reference_on_the_two_adic_grid():
    tags = Counter()
    for alpha, beta, data, ref in _two_adic_grid():
        assert _agrees(data, ref), (alpha, beta, data, ref)
        tags[data.case_tag] += 1
    assert len(tags) == 10 and min(tags.values()) == tags["tate2-6biii"] == 2


# geometric components of the types whose KodairaType does not state them
_COMPONENTS = {"III": 2, "III*": 8}


def test_ogg_formula_at_two():
    # v_2(Delta) - 12 w = f + m - 1, with f from Tate's algorithm: w is
    # v_2(alpha + 8 beta)/2 + 1 on the good and I_n rows of v >= 8
    assert classify_two(248, 1).minimal_shift_w == 5
    assert classify_two(1016, 1).minimal_shift_w == 6
    rows = list(_two_adic_grid())
    for beta in (2, 4, 8, 64, 256):
        for alpha in range(-99, 100, 2):
            rows.append((alpha, beta, classify_two(alpha, beta), _reference_row(alpha, beta, 2)))
    for alpha, beta, data, ref in rows:
        delta = beta**4 * (alpha - 8 * beta) * (alpha + 8 * beta) ** 7
        m = data.kodaira.geometric_components or _COMPONENTS[data.kodaira.kind]
        assert vp(delta, 2) - 12 * data.minimal_shift_w == ref.f + m - 1, (alpha, beta, data)


def test_classify_two_residue_identities():
    # the identities beside classify_two, at every odd a' and beta mod 16,
    # negative ones included: t1 = (beta a + 2^w a - 2^(2w)) / 2^(2w+1) with
    # a = 2^(2w) a' is odd iff beta a' = 3 mod 4, and at w = 2,
    # m = v_2(alpha - 8 beta) is 5 iff beta a' = 3 mod 4
    for a1 in range(-15, 16, 2):
        for beta in range(-15, 16, 2):
            three = beta * a1 % 4 == 3
            for w in range(2, 6):
                a = 2 ** (2 * w) * a1
                numerator = beta * a + 2**w * a - 2 ** (2 * w)
                assert numerator % 2 ** (2 * w + 1) == 0
                assert (numerator // 2 ** (2 * w + 1) % 2 == 1) == three, (a1, beta, w)
            if a1 != beta:
                m = vp(16 * a1 - 16 * beta, 2)  # alpha - 8 beta at a = 16 a'
                assert m >= 5 and (m == 5) == three, (a1, beta)

import hashlib
import importlib
import itertools
import json
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from sympy.combinatorics.galois import S4TransitiveSubgroups
from sympy.polys.numberfields.galoisgroups import galois_group

from monodiv import (
    BudgetExceededError,
    MathDomainError,
    PolyInt,
    certify,
    classify_odd,
    classify_two,
    dedekind_p_maximal,
    discriminant,
    factor,
    galois_signature,
    scan,
    singular_case,
    survey_family,
    tate_curve,
    three_torsion_quartic,
    unit_norm_check,
)
from monodiv import arith
from monodiv.arith import vp
from monodiv.certify import (
    _certificate,
    _row,
    field_discriminant,
    is_irreducible_quartic,
    montes_certificate,
)
from monodiv.newton import IndexReport, PolygonSide, ind_phi, index_report
from monodiv.poly import factor_mod_p
from references import closed_form, count_real_roots, rational_roots, singular_T

certify_module = importlib.import_module("monodiv.certify")
newton_module = importlib.import_module("monodiv.newton")
poly_module = importlib.import_module("monodiv.poly")

KNOWN_MONOGENIC = (2, 3, 5, 6, 7, 9, 11, 13, 14, 15, 18, 21, 22, 23, 25)


# --- hypotheses and helpers ---------------------------------------------------


def test_three_torsion_quartic():
    assert three_torsion_quartic(2).to_text() == "-3,-2,-6,0,1"


def test_irreducibility_tester():
    assert is_irreducible_quartic(three_torsion_quartic(2))
    assert is_irreducible_quartic(three_torsion_quartic(0))
    # alpha = 8: (T+1)^3 (T-3)
    assert not is_irreducible_quartic(three_torsion_quartic(8))
    # product of two integer quadratics
    from monodiv import PolyInt

    f = PolyInt((1, 1, 1)) * PolyInt((3, -2, 1))
    assert not is_irreducible_quartic(f)
    g = PolyInt((-1, 1)) * PolyInt((5, 1, 2, 1))
    assert not is_irreducible_quartic(g)


def test_irreducibility_tester_matches_sympy_on_seeded_quartics():
    # half random monic quartics, half products of monic integer factors of
    # degrees 2 + 2 or 1 + 3, so that both the root and the quadratic search decide
    rng = random.Random("quartic_split")
    x = sympy.Symbol("x")
    reducible = 0
    for i in range(600):
        if i % 2:
            split = rng.choice((1, 2, 2))
            f = PolyInt([rng.randint(-9, 9) for _ in range(split)] + [1]) * PolyInt(
                [rng.randint(-9, 9) for _ in range(4 - split)] + [1]
            )
        else:
            f = PolyInt([rng.randint(-40, 40) for _ in range(4)] + [1])
        oracle = sympy.Poly(list(reversed(f.coeffs)), x).is_irreducible
        assert is_irreducible_quartic(f) == oracle, f
        reducible += not oracle
    assert 300 <= reducible < 600


def test_quartic_is_reducible_exactly_at_alpha_plus_minus_8():
    # the closed form beside three_torsion_quartic, which certify,
    # galois_signature and unit_norm_check rely on instead of testing
    reducible = [
        a for a in range(-5000, 5001)
        if not is_irreducible_quartic(three_torsion_quartic(a))
    ]
    assert reducible == [-8, 8]
    rng = random.Random("closed_form_irreducible")
    for _ in range(200):
        alpha = rng.choice((-1, 1)) * rng.randrange(2**59, 2**61)
        assert is_irreducible_quartic(three_torsion_quartic(alpha)), alpha


def test_quartic_irreducibility_cases():
    # the proof above three_torsion_quartic, case by case.  A rational root
    # is a signed divisor of 3, and each one is a root for one alpha only:
    alpha, a, b, c, d, T = sympy.symbols("alpha a b c d T")
    quartic = T**4 - 6 * T**2 - alpha * T - 3
    assert sympy.Poly(three_torsion_quartic(5).coeffs[::-1], T).as_expr() == quartic.subs(alpha, 5)
    roots = {r: sympy.solve(quartic.subs(T, r), alpha) for r in (1, -1, 3, -3)}
    assert roots == {1: [-8], -1: [8], 3: [8], -3: [-8]}
    for r, (value,) in roots.items():
        assert three_torsion_quartic(int(value))(r) == 0
    # a split into monic integer quadratics: the T^3 term gives c = -a, and
    # then a^2 = b + d + 6, alpha = a(b - d) and bd = -3
    split = sympy.expand((T**2 + a * T + b) * (T**2 + c * T + d) - quartic)
    assert sympy.Poly(split, T).all_coeffs()[0] == a + c
    split = sympy.Poly(split.subs(c, -a), T).all_coeffs()
    assert [sympy.expand(x) for x in split] == [b + d - a**2 + 6, a * d - a * b + alpha, b * d + 3]
    squares = {(b, d): b + d + 6 for b, d in ((1, -3), (-1, 3), (3, -1), (-3, 1))}
    assert squares == {(1, -3): 4, (-1, 3): 8, (3, -1): 8, (-3, 1): 4}
    splits = {
        (a, b, d): a * (b - d)
        for (b, d), a2 in squares.items()
        if math.isqrt(a2) ** 2 == a2
        for a in (math.isqrt(a2), -math.isqrt(a2))
    }
    assert splits == {(2, 1, -3): 8, (-2, 1, -3): -8, (2, -3, 1): -8, (-2, -3, 1): 8}
    for (a, b, d), value in splits.items():
        assert PolyInt((b, a, 1)) * PolyInt((d, -a, 1)) == three_torsion_quartic(value)


def test_field_discriminant_formula():
    assert field_discriminant(2) == -97200
    assert all(discriminant(three_torsion_quartic(a)) == field_discriminant(a) for a in range(-50, 51))


def test_field_discriminant_is_the_discriminant_in_z_alpha():
    alpha, T = sympy.symbols("alpha T")
    disc = sympy.discriminant(T**4 - 6 * T**2 - alpha * T - 3, T)
    assert sympy.expand(disc - field_discriminant(alpha)) == 0


# --- certify ------------------------------------------------------------------


def test_certify_alpha_2():
    cert = certify(2)
    assert cert.verdict == "monogenic"
    assert cert.field_disc == -97200
    assert [row.p for row in cert.primes] == [2, 3, 5]
    assert all(
        row.ind_p_lower_bound == 0 and row.exact and row.dedekind for row in cert.primes
    )
    assert cert.reduction_ok is True
    assert cert.trust == ()


def test_certify_alpha_10_hypothesis_fails():
    cert = certify(10)
    assert cert.verdict == "hypothesis_failed"
    assert cert.hypothesis_ok is False
    assert "squarefree" in cert.reason


def test_certify_alpha_8_singular():
    assert certify(8).verdict == "hypothesis_failed"
    assert certify(-8).verdict == "hypothesis_failed"


@pytest.mark.parametrize("alpha", [2, -1038203453994206589])
def test_certify_factors_alpha_minus_plus_8_once_each(monkeypatch, alpha):
    # the prime list comes from the one walk certify made of each of
    # alpha -+ 8 and its completion, and reduction_ok is a closed form, so no
    # Kodaira classification runs and reduction never factors alpha -+ 8 a
    # second time.  arith.factor walks through arith.trial_walk, so a second
    # walk by any route is counted.
    walks, completed = [], []

    def walking(n, _inner=arith.trial_walk):
        walks.append((n, _inner(n)))
        return walks[-1][1]

    def completing(walk, *args, _inner=certify_module.complete_walk):
        completed.append(walk)
        return _inner(walk, *args)

    reduced = []
    reduction = importlib.import_module("monodiv.reduction")

    def reducing(n, _inner=reduction.factor, **kwargs):
        reduced.append(n)
        return _inner(n, **kwargs)

    for module in (arith, certify_module):
        monkeypatch.setattr(module, "trial_walk", walking)
    monkeypatch.setattr(certify_module, "complete_walk", completing)
    monkeypatch.setattr(reduction, "factor", reducing)
    cert = certify(alpha)
    assert cert.verdict == "monogenic" and cert.reduction_ok is True
    assert sorted(n for n, _ in walks) == [alpha - 8, alpha + 8]
    assert completed == [walk for _, walk in walks]
    assert reduced == []


def _deadline_left(deadlines):
    """Record the deadline in force and return the ms left of it, floored at 0."""
    deadlines.append(arith._DEADLINE.get())
    return max(0.0, 1000 * (deadlines[-1] - time.monotonic()))


def test_certify_spends_one_budget_on_both_factorizations(monkeypatch):
    deadlines, left = [], []

    def slow_first(walk, _inner=certify_module.complete_walk):
        left.append(_deadline_left(deadlines))
        if len(left) == 1:
            time.sleep(0.15)
        return _inner(walk)

    monkeypatch.setattr(certify_module, "complete_walk", slow_first)
    assert certify(2, budget_ms=1000).verdict == "monogenic"
    assert len(left) == 2 and 900 < left[0] <= 1000 and left[1] <= 850
    assert None not in deadlines and len(set(deadlines)) == 1


def test_certify_large_json_digest():
    # 60-bit alphas, whose cofactors reach rho; five carry trust caveats
    rng = random.Random("certify_large_json")
    alphas = [rng.choice((-1, 1)) * rng.randrange(2**59, 2**61) for _ in range(10)]
    texts = "\n".join(certify(a).to_json() for a in alphas)
    assert hashlib.sha256(texts.encode()).hexdigest() == (
        "cc493cf8e2d9b03aeb7de23e0270af94a46b205e7ca85154125c0c7c6e999879"
    )


def _closed_form_alphas():
    rng = random.Random("closed_forms")
    large = [rng.choice((-1, 1)) * rng.randrange(2**59, 2**61) for _ in range(200)]
    return [a for a in range(-2000, 2001) if a not in (8, -8)] + large


def test_certify_closed_forms_match_the_curve_analysis():
    # reference: the curve route that the closed forms replaced.  The lift at
    # p = 2 and 3 is the old table; at p >= 5 it is T - singular_T of
    # tate_curve(alpha, 1).  reduction_ok is the old Kodaira check: I_n or
    # I*_n with n = 1 at every prime of alpha -+ 8.
    curves = 0
    for alpha in _closed_form_alphas():
        cert = certify(alpha)
        if not cert.hypothesis_ok:
            continue
        bad = set(factor(alpha - 8).primes() + factor(alpha + 8).primes())
        plist = {3} | {q for q in bad if q >= 5} | ({2} if alpha % 2 == 0 else set())
        assert [row.p for row in cert.primes] == sorted(plist), alpha
        curve = tate_curve(alpha, 1)
        for row in cert.primes:
            if row.p == 2:
                t0 = 1
            elif row.p == 3:
                t0 = {0: 0, 1: 4, 2: -4}[alpha % 3]
            else:
                t0 = singular_T(singular_case(curve, row.p), curve, row.p)
                curves += 1
            assert [r.phi for r in row.per_phi] == [PolyInt((-t0, 1))], (alpha, row.p)
        kinds = [
            (classify_two(alpha, 1) if q == 2 else classify_odd(alpha, 1, q)).kodaira
            for q in bad
        ]
        types_ok = all(k.kind in ("I", "I*") and k.n == 1 for k in kinds)
        assert cert.reduction_ok is True and types_ok, alpha
    assert curves > 5000


def _visited_primes(alpha):
    """The primes certify visits for alpha: 3 and the primes of alpha -+ 8."""
    return sorted({3} | set(factor(alpha - 8).primes() + factor(alpha + 8).primes()))


def test_closed_form_matches_factor_mod_p():
    # also for alpha -+ 8 not squarefree: the closed form does not need it
    rng = random.Random("closed_form_mod_p")
    large = [rng.choice((-1, 1)) * rng.randrange(2**59, 2**61) for _ in range(40)]
    cases = set()
    for alpha in [a for a in range(-600, 601) if a not in (8, -8)] + large:
        f3 = three_torsion_quartic(alpha)
        for p in _visited_primes(alpha):
            lift, factors = closed_form(alpha, p)
            expected = factor_mod_p(f3.reduce_mod(p))
            assert sorted(factors, key=lambda t: (t[0].degree, t[0].coeffs)) == expected
            # the lift reduces to the repeated factor
            assert [fac for fac, e in factors if e >= 2] == [lift.reduce_mod(p)]
            if p == 3:
                cases.add("3 | alpha" if alpha % 3 == 0 else "3 !| alpha")
            elif p > 3:
                cases.add("alpha - 8" if (alpha - 8) % p == 0 else "alpha + 8")
            else:
                cases.add("2")
    assert cases == {"2", "3 | alpha", "3 !| alpha", "alpha - 8", "alpha + 8"}


def test_dedekind_at_p_dividing_alpha_minus_8_is_the_hypothesis():
    # Phi - (T + 1)^3 (T - 3) = -(alpha - 8) T; see the comment at
    # references.closed_form
    outcomes = []
    for alpha in range(-2000, 2001):
        if alpha in (8, -8):
            continue
        for p in factor(alpha - 8).primes():
            if p < 5:
                continue
            lift, factors = closed_form(alpha, p)
            rep = index_report(three_torsion_quartic(alpha), p, lift=lift, factors=factors)
            assert rep.dedekind == (vp(alpha - 8, p) < 2), (alpha, p)
            outcomes.append(rep.dedekind)
    assert outcomes.count(False) > 50 and outcomes.count(True) > 1000


def _row_cases(monkeypatch, alphas):
    """(alpha, p, row, whether _row fell back to index_report, whether
    alpha -+ 8 is squarefree) at every prime certify visits.  A fallback is
    index_report(f3, p, lift=lift) at the lift of closed_form; every other
    row's polygon is the hull of its own points, one per coefficient."""
    fallbacks = []

    def recorded(*args, **kwargs):
        fallbacks.append((args, kwargs))
        return index_report(*args, **kwargs)

    monkeypatch.setattr(certify_module, "index_report", recorded)
    for alpha in alphas:
        fact_minus, fact_plus = factor(alpha - 8), factor(alpha + 8)
        hypothesis = fact_minus.is_squarefree() and fact_plus.is_squarefree()
        f3 = three_torsion_quartic(alpha)
        for p in sorted({3} | set(fact_minus.primes() + fact_plus.primes())):
            fallbacks.clear()
            row = _row(alpha, p)
            lift, _ = closed_form(alpha, p)
            assert fallbacks in ([], [((f3, p), {"lift": lift})]), (alpha, p)
            if not fallbacks:
                points = row.per_phi[0].polygon.points
                assert [j for j, _ in points] == list(range(f3.degree + 1))
                assert row.per_phi[0].polygon == newton_module._polygon_from_values(
                    [v for _, v in points]
                ), (alpha, p)
            yield alpha, p, row, bool(fallbacks), hypothesis


def test_row_matches_index_report_at_every_prime(monkeypatch):
    # every row against the generic pass on the closed-form witness (which
    # index_report checks), at every prime of every alpha != +-8 in
    # [-3000, 3000], squarefree or not.  A fallback row is index_report
    # without a witness, so there the two paths agree as well;
    # test_closed_form_matches_factor_mod_p ties the witness to factor_mod_p,
    # and the seeded samples compare every row with both paths.  Both
    # comparisons on this whole range would take about 20 s.
    branches = Counter()
    alphas = [a for a in range(-3000, 3001) if a not in (8, -8)]
    for alpha, p, row, fell_back, hypothesis in _row_cases(monkeypatch, alphas):
        lift, factors = closed_form(alpha, p)
        f3 = three_torsion_quartic(alpha)
        assert row == index_report(f3, p, lift=lift, factors=factors), (alpha, p)
        assert not (hypothesis and fell_back), (alpha, p)
        if not hypothesis:
            branches["fallback" if fell_back else "fast"] += 1
    assert branches["fast"] > 1000 and branches["fallback"] > 1000


def test_row_matches_index_report_on_seeded_large_alphas(monkeypatch):
    rng = random.Random("row_differential")
    alphas = [rng.randrange(-(10**6), 10**6 + 1) for _ in range(150)]
    alphas += [rng.choice((-1, 1)) * rng.randrange(2**59, 2**61) for _ in range(200)]
    alphas = [a for a in alphas if a not in (8, -8)]
    branches = Counter()
    for alpha, p, row, fell_back, hypothesis in _row_cases(monkeypatch, alphas):
        lift, factors = closed_form(alpha, p)
        f3 = three_torsion_quartic(alpha)
        assert row == index_report(f3, p, lift=lift), (alpha, p)
        assert row == index_report(f3, p, lift=lift, factors=factors), (alpha, p)
        assert not (hypothesis and fell_back), (alpha, p)
        branches[hypothesis, fell_back] += 1
    assert branches[True, False] > 1000 and branches[False, True] > 10


# --- the proof above certify._row, for every alpha ---------------------------

ALPHA, T0, Y, P, K = sympy.symbols("alpha t0 y p k", integer=True)


def _phi(T):
    """three_torsion_quartic(alpha) in Z[alpha, T]."""
    return T**4 - 6 * T**2 - ALPHA * T - 3


def _p_order(expr) -> int:
    """The least power of p over the monomials of expr in Z[p, k]: p^m
    divides expr at every integer p and k (m = 99 for expr = 0)."""
    poly = sympy.Poly(sympy.expand(expr), P, K)
    assert poly.domain == sympy.ZZ, expr
    return 99 if poly.is_zero else min(m[0] for m in poly.monoms())


def test_row_taylor_and_dedekind_identities():
    # _phi is three_torsion_quartic, as both are linear in alpha
    for alpha in (0, 1):
        coeffs = sympy.Poly(_phi(Y).subs(ALPHA, alpha), Y).all_coeffs()[::-1]
        assert three_torsion_quartic(alpha).coeffs == tuple(coeffs)
    # _row's coefficients are the Taylor coefficients at t0, in Z[alpha, t0, y]
    a = certify_module._taylor(ALPHA, T0)
    assert sympy.expand(_phi(Y + T0) - sum(c * Y**j for j, c in enumerate(a))) == 0
    # Phi-bar = (T + 1)^3 (T - 3) at p | alpha - 8, and (T - 1)^3 (T + 3) at
    # p | alpha + 8 (T -> -T)
    assert sympy.expand(_phi(Y) - (Y + 1) ** 3 * (Y - 3) + (ALPHA - 8) * Y) == 0
    assert sympy.expand(_phi(Y) - (Y - 1) ** 3 * (Y + 3) + (ALPHA + 8) * Y) == 0


def test_row_proof_at_p_dividing_alpha_minus_8():
    # alpha = 8 + pk, t0 = p - 1: a0 = pk(1 - p) mod p^2, p | a1, p | a2 and
    # a3 = -4 mod p.  So v_p(a0) = 1 iff p does not divide k (alpha - 8
    # squarefree at p), and a3 is a unit for p >= 5: e = 3
    a0, a1, a2, a3, a4 = certify_module._taylor(8 + P * K, P - 1)
    assert _p_order(a0 - P * K * (1 - P)) >= 2
    assert _p_order(a1) >= 1 and _p_order(a2) >= 1
    assert _p_order(a3 + 4) >= 1 and a4 == 1


def test_row_proof_at_p_dividing_alpha_plus_8():
    # alpha = -8 + pk, t0 = 1: v_p(a0) = 1 iff p does not divide k, and
    # a3 = 4 is a unit for p >= 5: e = 3
    a = certify_module._taylor(-8 + P * K, 1)
    assert [sympy.expand(c) for c in a] == [-P * K, -P * K, 0, 4, 1]


@pytest.mark.parametrize("p", [2, 3])
def test_row_proof_at_every_class_mod_p2(monkeypatch, p):
    # _row reads alpha through t0, which depends on alpha mod p, and through
    # a0 and a1, which are linear in alpha; so alpha mod p^2 fixes v_p(a0)
    # and which a_j are units mod p, and one representative of each class of
    # alpha mod 27 (p = 3) or mod 64 (p = 2, where only even alpha have a
    # row) checks every alpha.  A class is admissible when p^2 divides
    # neither alpha - 8 nor alpha + 8.
    def refuse(*args, **kwargs):
        raise AssertionError("_row fell back to index_report")

    monkeypatch.setattr(certify_module, "index_report", refuse)
    modulus = {2: 64, 3: 27}[p]
    classes = [
        r for r in range(modulus)
        if (r - 8) % p**2 and (r + 8) % p**2 and (p == 3 or r % 2 == 0)
    ]
    assert len(classes) == {2: 16, 3: 21}[p]
    for alpha in classes:
        f3 = three_torsion_quartic(alpha)
        (r,) = _row(alpha, p).per_phi
        values = [v for _, v in r.polygon.points]
        e = values.index(0)
        assert r.a0_val == values[0] == 1 and e >= 3, alpha
        assert r.polygon.sides == (PolygonSide(0, 1, e, 0, 1),), alpha
        assert r.polygon == newton_module._polygon_from_values(values), alpha
        # Dedekind's criterion reads Phi mod p^2, so alpha mod p^2 fixes it
        assert dedekind_p_maximal(f3, p), alpha


def test_row_one_side_polygon_lemma():
    # v(a0) = 1, v(a_j) >= 1 for 0 < j < e and v(a_e) = 0: one side
    # (0, 1)-(e, 0) of degree 1, no lattice point under it, whatever follows
    # a_e; valuations above 2 and None (a_j = 0) lie above the side alike
    cases = 0
    for e in (1, 2, 3, 4):
        for middle in itertools.product((1, 2, None), repeat=e - 1):
            for tail in itertools.product((0, 1, None), repeat=4 - e):
                values = [1, *middle, 0, *tail]
                polygon = newton_module._polygon_from_values(values)
                assert polygon.sides == (PolygonSide(0, 1, e, 0, 1),), values
                assert ind_phi(polygon, 1) == 0
                cases += 1
    assert cases == 4 * 27


def test_certify_runs_no_generic_pass_under_the_hypothesis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generic pass called")

    for module, name in (
        (certify_module, "index_report"),
        (certify_module, "three_torsion_quartic"),
        (newton_module, "index_report"),
        (newton_module, "phi_development"),
        (poly_module, "phi_development"),
    ):
        monkeypatch.setattr(module, name, refuse)
    # nor a hull: certify writes the polygon of its proof, and calls
    # _polygon_from_values neither through newton nor through its own import
    monkeypatch.setattr(newton_module, "_polygon_from_values", refuse)
    monkeypatch.setattr(certify_module, "_polygon_from_values", refuse, raising=False)
    # nor any F_p object: the proof's residual is linear, so the row is
    # regular without one.  These modules build each PolyModP and PolyFq
    # through their own module-level name for the class
    class NoFp:
        def __new__(cls, *args, **kwargs):
            raise AssertionError("F_p object built")

    for module in (poly_module, newton_module, certify_module):
        for name in ("PolyModP", "PolyFq"):
            monkeypatch.setattr(module, name, NoFp, raising=False)
    rng = random.Random("no_generic_pass")
    alphas = [*KNOWN_MONOGENIC, *(-a for a in KNOWN_MONOGENIC)]
    alphas += [rng.choice((-1, 1)) * rng.randrange(2**59, 2**61) for _ in range(20)]
    certs = [certify(alpha) for alpha in alphas]
    assert all(cert.hypothesis_ok for cert in certs[: 2 * len(KNOWN_MONOGENIC)])
    assert sum(len(cert.primes) for cert in certs if cert.hypothesis_ok) > 60


def test_certify_proves_each_prime_once(monkeypatch):
    # the primes come from arith's trial walk and its completion, which runs
    # the probable-prime test on what trial division leaves above the square
    # of its bound, once per prime; certify builds its rows without asking
    # again, and nothing calls require_prime
    tested, required, depth = [], [], [0]
    is_probable_prime = arith.is_probable_prime

    def counted(n):
        tested.append((n, depth[0] > 0))
        return is_probable_prime(n)

    def factoring(inner):
        def inside(*args, **kwargs):
            depth[0] += 1
            try:
                return inner(*args, **kwargs)
            finally:
                depth[0] -= 1

        return inside

    monkeypatch.setattr(arith, "is_probable_prime", counted)
    for name in ("trial_walk", "complete_walk", "walk_probable"):
        monkeypatch.setattr(certify_module, name, factoring(getattr(certify_module, name)))
    for name in ("monodiv.arith", "monodiv.newton", "monodiv.poly", "monodiv.valuation"):
        monkeypatch.setattr(importlib.import_module(name), "require_prime", required.append)
    rng = random.Random("prove_once")
    certs = [certify(rng.choice((-1, 1)) * rng.randrange(2**59, 2**61)) for _ in range(60)]
    rows = [row.p for cert in certs for row in cert.primes]
    counts = Counter(n for n, _ in tested)
    large = [p for p in rows if p >= arith._TRIAL_BOUND**2]
    assert len(rows) > 100 and len(large) > 20
    assert all(inside for _, inside in tested)
    assert all(counts[p] == 1 for p in large)
    assert all(counts[p] <= 1 for p in rows)
    assert required == []


def _mirrored(cert):
    """What Phi_{-alpha}(T) = Phi_alpha(-T) keeps of a certificate: all but
    alpha, the trust lines, the lifts and the polygon points."""
    rows = [
        (r.p, r.ind_p_lower_bound, r.exact, r.dedekind,
         [(phi.a0_val, phi.polygon.sides, phi.ind_phi) for phi in r.per_phi])
        for r in cert.primes
    ]
    return cert.verdict, cert.hypothesis_ok, cert.field_disc, cert.reduction_ok, cert.reason, rows


def test_certify_of_minus_alpha_mirrors_certify_of_alpha():
    # alpha - 8 of -alpha is -(alpha + 8), so the trust lines swap their labels
    swap = {"alpha - 8": "alpha + 8", "alpha + 8": "alpha - 8"}
    rng = random.Random("mirror")
    trusted = 0
    for alpha in [*range(1, 3001), *(rng.randrange(2**59, 2**61) for _ in range(200))]:
        cert, mirror = certify(alpha), certify(-alpha)
        assert _mirrored(mirror) == _mirrored(cert), alpha
        swapped = [re.sub(r"alpha [-+] 8", lambda m: swap[m.group()], line) for line in mirror.trust]
        assert sorted(swapped) == sorted(cert.trust), alpha
        trusted += bool(cert.trust)
    assert trusted > 50


def test_reduction_ok_cases_under_the_hypothesis():
    # reduction_ok = True, case by case (the comment at the end of certify).
    # With alpha -+ 8 squarefree every bad prime of tate_curve(alpha, 1) has
    # v = 1, so classify_odd reads only its case tag and p mod 4, and
    # classify_two only v_2(alpha + 8) = 1.  The hypothesis alphas in
    # [-3000, 3000] reach each case and no other.
    expected = {
        ("minus", 1): ("I_1", "tate1-2a"),
        ("minus", 3): ("I_1", "tate1-2b"),
        ("plus", 1): ("I*_1", "tate1-3a"),
        ("plus", 3): ("I*_1", "tate1-3a"),
        ("two", 1): ("I*_1", "tate2-1"),
    }
    seen = set()
    for alpha in range(-3000, 3001):
        if alpha in (8, -8):
            continue
        minus, plus = factor(alpha - 8), factor(alpha + 8)
        if not (minus.is_squarefree() and plus.is_squarefree()):
            continue
        curve = tate_curve(alpha, 1)
        for p in sorted(set(minus.primes() + plus.primes())):
            if p == 2:
                case, data = ("two", vp(alpha + 8, 2)), classify_two(alpha, 1)
            else:
                tag = singular_case(curve, p)
                assert tag.v == 1, (alpha, p)
                case, data = (tag.tag, p % 4), classify_odd(alpha, 1, p)
            assert (str(data.kodaira), data.case_tag) == expected[case], (alpha, p)
            seen.add(case)
    assert seen == set(expected)


def test_certify_odd_alpha_has_no_p2_row():
    cert = certify(3)
    assert cert.verdict == "monogenic"
    assert [row.p for row in cert.primes] == [3, 5, 11]
    assert 2 not in [row.p for row in cert.primes]


def test_certify_even_alpha_p2_constant_term():
    cert = certify(2)
    row = next(r for r in cert.primes if r.p == 2)
    assert len(row.per_phi) == 1
    assert row.per_phi[0].a0_val == 1
    assert row.per_phi[0].phi.to_text() == "-1,1"


def test_certify_known_monogenic_list():
    for alpha in KNOWN_MONOGENIC:
        assert certify(alpha).verdict == "monogenic", alpha
        assert certify(-alpha).verdict == "monogenic", -alpha


def test_certificate_json_schema():
    data = json.loads(certify(2).to_json())
    assert data["version"] == 1
    assert data["alpha"] == 2
    assert data["verdict"] == "monogenic"
    assert data["field_disc"] == "-97200"
    row = data["primes"][0]
    assert row["p"] == 2
    assert row["lift"] == "-1,1"
    assert row["a0_val"] == 1
    assert set(row["polygon"]) == {"points", "sides", "ind_phi"}
    assert row["ind_p"] == 0 and row["exact"] is True and row["dedekind"] is True
    assert data["trust"] == []


@pytest.mark.parametrize(
    "make",
    [
        lambda: certify(2),
        lambda: certify(12),
        lambda: certify(8),
        lambda: certify(-867694787194699659),
        lambda: montes_certificate(three_torsion_quartic(4), alpha=4),
        lambda: montes_certificate(PolyInt((-3, 0, 1, -2, 1))),
    ],
    ids=["monogenic", "not-squarefree", "singular", "trust", "montes-inexact", "multi-lift"],
)
def test_to_json_is_compact_json_dumps(make):
    cert = make()
    assert cert.to_json() == json.dumps(cert.to_json_dict(), separators=(",", ":"))


def test_certify_soundness_dedekind_everywhere():
    # for certified alpha, Z[theta] must be maximal at every prime of disc(F3)
    from monodiv.arith import factor

    for alpha in (2, 3, 5, 13, 25, -7, -25):
        cert = certify(alpha)
        assert cert.verdict == "monogenic"
        f3 = three_torsion_quartic(alpha)
        for p in factor(int(discriminant(f3))).primes():
            assert dedekind_p_maximal(f3, p), (alpha, p)


# --- curve-blind Montes cross-checks -------------------------------------------


def test_generic_agrees_on_alpha_2():
    generic = montes_certificate(three_torsion_quartic(2), alpha=2)
    assert generic.verdict == certify(2).verdict == "monogenic"


def test_generic_and_guided_never_contradict():
    for alpha in range(-26, 27):
        if alpha in (8, -8):
            continue
        guided = certify(alpha)
        generic = montes_certificate(three_torsion_quartic(alpha), alpha=alpha)
        verdicts = {guided.verdict, generic.verdict}
        # contradiction = one path certifies monogenic while the other
        # exactly proves a positive index
        if "monogenic" in verdicts:
            other = (verdicts - {"monogenic"}) or {"monogenic"}
            for cert in (guided, generic):
                if cert.verdict != "monogenic":
                    assert not any(
                        row.exact and row.ind_p_lower_bound > 0 for row in cert.primes
                    ), alpha


def test_generic_alpha_16_exact_positive_index():
    cert = montes_certificate(three_torsion_quartic(16), alpha=16)
    assert cert.verdict == "not_certified"
    row = next(r for r in cert.primes if r.p == 2)
    assert row.ind_p_lower_bound == 3 and row.exact and not row.dedekind
    assert cert.reason == "p = 2: ind_p = 3, so p divides the index"
    # guided path refuses at the hypothesis stage; no contradiction
    assert certify(16).verdict == "hypothesis_failed"


def test_not_certified_reason_names_the_first_failing_prime():
    def row(p, ind, exact, dedekind):
        return IndexReport(p, (), ind, exact, dedekind)

    ok = row(2, 0, True, True)
    cases = [
        ([ok, row(3, 2, True, False), row(5, 0, False, True)],
         "p = 3: ind_p = 2, so p divides the index"),
        ([ok, row(3, 1, False, False)], "p = 3: ind_p >= 1, so p divides the index"),
        ([row(5, 0, False, True), row(7, 1, True, False)],
         "p = 5: ind_p >= 0 is inexact (a residual polynomial is inseparable)"),
        ([ok, row(7, 0, True, False)],
         "p = 7: Dedekind's criterion fails although ind_p = 0 is exact"),
    ]
    for reports, reason in cases:
        cert = _certificate(0, reports, -27, ())
        assert (cert.verdict, cert.field_disc, cert.reason) == ("not_certified", None, reason)
    cert = _certificate(0, [ok], -27, ())
    assert (cert.verdict, cert.field_disc, cert.reason) == ("monogenic", -27, None)


def test_generic_alpha_0():
    cert = montes_certificate(three_torsion_quartic(0), alpha=0)
    assert cert.verdict in ("monogenic", "not_certified")
    # F3 = T^4 - 6T^2 - 3 has disc -27*64*64 = -110592: index at 2 is positive
    assert cert.verdict == "not_certified"
    assert certify(0).verdict == "hypothesis_failed"


# --- galois and units -----------------------------------------------------------


def test_galois_signature_examples():
    sig = galois_signature(9)
    assert sig.group == "S4" and sig.real_roots == 2
    assert galois_signature(13).group == "S4"
    assert galois_signature(24).group == "other"  # 16 * 32 = 8^3 is a cube
    assert galois_signature(27).group == "S4"


def test_galois_signature_matches_resolvent_root_search():
    # reference: the rational-root search on the resolvent cubic that the
    # cube test replaced, and the Sturm count that the closed form replaced
    for alpha in range(-300, 301):
        f3 = three_torsion_quartic(alpha)
        if not is_irreducible_quartic(f3):
            continue
        disc = discriminant(f3)
        is_square = disc > 0 and all(
            math.isqrt(x) ** 2 == x for x in (disc.numerator, disc.denominator)
        )
        resolvent = PolyInt((72 - alpha * alpha, 12, 6, 1))
        expected = "S4" if not rational_roots(resolvent) and not is_square else "other"
        sig = galois_signature(alpha)
        assert sig.group == expected, alpha
        assert sig.real_roots == count_real_roots(f3), alpha


def test_galois_resolvent_is_a_shifted_cube():
    # the resolvent cubic of galois_signature, whose roots are the
    # r1 r2 + r3 r4 over the pairings of the quartic's roots
    alpha, x, T = sympy.symbols("alpha x T")
    resolvent = x**3 + 6 * x**2 + 12 * x + 72 - alpha**2
    assert sympy.expand(resolvent - ((x + 2) ** 3 - (alpha**2 - 64))) == 0
    r = sympy.Poly(T**4 - 6 * T**2 - 5 * T - 3, T).nroots(n=40)
    pairings = [r[0] * r[1] + r[2] * r[3], r[0] * r[2] + r[1] * r[3], r[0] * r[3] + r[1] * r[2]]
    y = sympy.Symbol("y")
    product = sympy.Poly(sympy.expand(sympy.prod(y - v for v in pairings)), y).all_coeffs()
    expected = sympy.Poly(resolvent.subs({alpha: 5, x: y}), y).all_coeffs()
    assert all(abs(complex(u - v)) < 1e-30 for u, v in zip(product, expected, strict=True))


def test_minus_disc_over_27_is_a_square_vanishing_only_at_plus_minus_8():
    alpha, T = sympy.symbols("alpha T")
    q = sympy.Poly(-sympy.discriminant(T**4 - 6 * T**2 - alpha * T - 3, T) / 27, alpha)
    assert q.domain == sympy.ZZ
    content, factors = q.factor_list()
    assert content == 1 and all(e % 2 == 0 for _, e in factors)
    h = sympy.prod((f ** (e // 2) for f, e in factors), start=sympy.Poly(1, alpha))
    assert h.domain == sympy.ZZ and h**2 == q
    # every root over C, with multiplicity
    assert sympy.roots(h) == {8: 1, -8: 1}


def test_discriminant_sign_counts_the_complex_conjugate_pairs():
    # a real quartic with distinct roots, s pairs of them complex conjugates,
    # has sign(disc) = (-1)^s; here on quartics built from their roots
    rng = random.Random("disc-sign")
    for _ in range(300):
        s = rng.randint(0, 2)
        pairs = rng.sample([(a, b) for a in range(-5, 6) for b in range(1, 6)], s)
        reals = rng.sample(range(-20, 21), 4 - 2 * s)
        f = PolyInt((1,))
        for a, b in pairs:
            f = f * PolyInt((a * a + b * b, -2 * a, 1))
        for r in reals:
            f = f * PolyInt((-r, 1))
        disc = discriminant(f)
        assert disc != 0 and (disc > 0) == (s % 2 == 0), (pairs, reals)


def test_galois_signature_matches_sympy_galois_group():
    T = sympy.Symbol("T")
    other = []
    for alpha in range(-40, 41):
        if alpha in (8, -8):
            continue
        group, _ = galois_group(sympy.Poly(T**4 - 6 * T**2 - alpha * T - 3, T), by_name=True)
        expected = "S4" if group == S4TransitiveSubgroups.S4 else "other"
        assert galois_signature(alpha).group == expected, alpha
        other += [alpha] * (expected == "other")
    assert other == [-24, 0, 24]


def test_galois_signature_factors_nothing_large(monkeypatch):
    def small_only(real):
        def guarded(x, *args, **kwargs):
            if abs(x) > 10**6:
                raise AssertionError(f"asked to factor {x}")
            return real(x, *args, **kwargs)

        return guarded

    for module_name in ("arith", "certify", "poly"):
        # the package re-exports certify(), so import the modules by path
        module = importlib.import_module(f"monodiv.{module_name}")
        for name in ("factor", "divisors"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, small_only(getattr(module, name)))
    assert galois_signature(10**30 + 57).group == "S4"


def test_galois_rejects_reducible():
    for alpha in (8, -8):
        with pytest.raises(MathDomainError, match="reducible"):
            galois_signature(alpha)


def test_unit_norm_examples():
    for alpha in (3, 6, 9, -3, -27, 300):
        assert unit_norm_check(alpha) in (1, -1)


def test_unit_norm_rejects_bad_input():
    for alpha in (4, 8, -8):
        with pytest.raises(MathDomainError, match="needs 3"):
            unit_norm_check(alpha)


def test_unit_norm_check_rejects_a_norm_that_is_not_a_unit(monkeypatch):
    monkeypatch.setattr(certify_module, "resultant", lambda f, g: Fraction(2))
    with pytest.raises(MathDomainError, match="norm 2 is not a unit; family claim violated"):
        unit_norm_check(3)


# --- scan -----------------------------------------------------------------------


def test_scan_window_matches_known_list():
    certs = scan(-25, 25)
    assert [c.alpha for c in certs] == list(range(-25, 26))
    good = sorted(c.alpha for c in certs if c.verdict == "monogenic")
    expected = sorted(list(KNOWN_MONOGENIC) + [-a for a in KNOWN_MONOGENIC])
    assert good == expected


def test_scan_empty_range():
    assert scan(5, 4) == []


# --- survey ---------------------------------------------------------------------


def test_survey_family_a_recovers_f3():
    entry = survey_family("A", (1, 1), (2, 2))[0]
    assert entry.poly == three_torsion_quartic(2)
    assert entry.predicted_disc == -97200
    assert entry.disc_ok


def test_survey_family_b_example():
    entry = survey_family("B", (0, 0), (1, 1))[0]
    assert entry.predicted_disc == -7803
    assert entry.disc_ok
    assert entry.verdict == "monogenic"


def test_survey_all_disc_formulas_on_grid():
    for family in ("A", "B", "C"):
        for entry in survey_family(family, (-2, 2), (-2, 2)):
            assert entry.disc_ok, (family, entry.s, entry.t)


def test_survey_reports_an_exhausted_budget_as_not_certified(monkeypatch):
    # squared factors t^2 - 64 for t = 2..8: -60, -55, -48, -39, -28, -15, 0
    verdicts = [e.verdict for e in survey_family("A", (1, 1), (2, 8))]
    assert verdicts == [None, "monogenic", None, "monogenic", None, "monogenic", None]

    def exhausted(n):
        raise BudgetExceededError(f"factorization budget exhausted on {n}")

    monkeypatch.setattr(certify_module, "is_squarefree", exhausted)
    # the budget runs out before squarefreeness is known: not_certified, not skipped
    verdicts = [e.verdict for e in survey_family("A", (1, 1), (2, 8), budget_ms=0)]
    assert verdicts == ["not_certified"] * 6 + [None]


def test_survey_sees_a_small_square_with_no_budget_left():
    # family A at s = 1, t = 2u: the squared factor t^2 - 64 = 4 (u - 4)(u + 4)
    # with u -+ 4 primes near 2^40.  The square 4 shows in the trial walk, so
    # the cell is known not to be squarefree without the rho split of the
    # 80-bit cofactor that the budget cannot pay for
    u = sympy.nextprime(2**40) + 4
    while not sympy.isprime(u + 4):
        u = sympy.nextprime(u) + 4
    entry = survey_family("A", (1, 1), (2 * u, 2 * u), budget_ms=0)[0]
    assert entry.squared_factor == 4 * (u - 4) * (u + 4)
    assert entry.disc_ok and entry.verdict is None


def test_survey_spends_one_budget_on_the_whole_request(monkeypatch):
    # the squarefree test of each squared factor, and inside each
    # montes_certificate the factorizations of c0 (arith.divisors ->
    # arith.factor) and of disc
    deadlines, budgets = [], []
    for module, name in ((certify_module, "is_squarefree"), (certify_module, "factor"), (arith, "factor")):
        def slow(n, _inner=getattr(module, name)):
            budgets.append(_deadline_left(deadlines))
            time.sleep(0.02)
            return _inner(n)

        monkeypatch.setattr(module, name, slow)
    survey_family("B", (0, 2), (0, 2), budget_ms=100)
    # five 20 ms sleeps use the budget up: each call gets what is left, of
    # the survey's one deadline
    assert None not in deadlines and len(set(deadlines)) == 1
    assert len(budgets) > 6
    assert 50 < budgets[0] <= 100
    assert all(later <= earlier for earlier, later in zip(budgets, budgets[1:]))
    assert all(left <= 100 - 20 * i for i, left in enumerate(budgets[:5]))
    assert budgets[6:] == [0.0] * len(budgets[6:])


def test_scan_spends_one_budget_on_the_whole_request(monkeypatch):
    deadlines, budgets = [], []

    def slow(walk, _inner=certify_module.complete_walk):
        budgets.append(_deadline_left(deadlines))
        time.sleep(0.02)
        return _inner(walk)

    expected = [c.to_json() for c in scan(1, 10)]
    monkeypatch.setattr(certify_module, "complete_walk", slow)
    certs = scan(1, 10, budget_ms=50)
    # alpha -+ 8 for six alphas: 8 returns early, and 1, 4 and 10 show a
    # small square, so no completion runs for them; each call gets what is left
    assert len(budgets) == 12
    assert 30 < budgets[0] <= 50
    assert all(later <= earlier for earlier, later in zip(budgets, budgets[1:]))
    assert budgets[3:] == [0.0] * len(budgets[3:])
    assert None not in deadlines and len(set(deadlines)) == 1
    # no rho work is needed at this size, so a spent budget changes no verdict
    assert [c.to_json() for c in certs] == expected


def test_survey_rejects_unknown_family():
    with pytest.raises(MathDomainError):
        survey_family("D", (0, 1), (0, 1))


# --- certificate JSON corner: several developed lifts at one prime ---------------


def test_multi_lift_row_json_shape():
    cert = montes_certificate(PolyInt((-3, 0, 1, -2, 1)))
    assert cert.verdict == "monogenic"
    row = next(r for r in cert.to_json_dict()["primes"] if r["p"] == 3)
    assert row["lift"] is None and row["a0_val"] is None and row["polygon"] is None
    assert [phi["lift"] for phi in row["phis"]] == ["0,1", "2,1"]
    assert row["ind_p"] == 0 and row["exact"] is True and row["dedekind"] is True
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == (
        "06b8c0557114ba10deb58b0bcffb8ae1d8b3b4f20bf3fa64a027d9b2085f43db"
    )


# --- Montes path: golden digest and one budget per request ------------------------


def test_certify_generic_json_digest():
    # 207 not_certified certificates, 82 with an inexact row, which scan never
    # reaches; each reason names the first failing prime
    texts = "\n".join(
        montes_certificate(three_torsion_quartic(a), alpha=a).to_json()
        for a in range(-200, 201)
        if a not in (8, -8)
    )
    assert hashlib.sha256(texts.encode()).hexdigest() == (
        "3a27df315afe1ff345502fd720c4a01500e14279100dc994c4cf1d3da50b36c3"
    )


def test_montes_spends_one_budget_on_the_whole_request(monkeypatch):
    # the irreducibility test factors c0 through arith.divisors -> arith.factor
    deadlines, budgets = [], []
    for module in (arith, certify_module):
        def recording(n, _inner=module.factor):
            budgets.append(_deadline_left(deadlines))
            time.sleep(0.01)
            return _inner(n)

        monkeypatch.setattr(module, "factor", recording)
    assert montes_certificate(three_torsion_quartic(2), budget_ms=1000).verdict == "monogenic"
    # c0 = -3, then disc: one deadline, and each gets what is left
    assert len(budgets) == 2 and None not in deadlines and len(set(deadlines)) == 1
    assert 900 < budgets[0] <= 1000 and budgets[1] <= 990


def test_montes_budget_covers_the_irreducibility_test():
    # c0 is a 122-bit semiprime: factoring it for the divisor search would
    # take minutes of rho
    n = (2**61 - 1) * 1152921504606847009
    start = time.monotonic()
    cert = montes_certificate(PolyInt((n, 1, 0, 0, 1)), budget_ms=50)
    assert time.monotonic() - start < 1.0
    assert cert.verdict == "not_certified"
    assert cert.reason.startswith("factorization budget exceeded")
    # the budget ran out before irreducibility was decided
    assert cert.hypothesis_ok is False


def test_montes_rejects_a_polynomial_that_is_not_squarefree():
    with pytest.raises(MathDomainError, match="polynomial must be squarefree over Q"):
        montes_certificate(PolyInt((1, 0, 2, 0, 1)))  # (T^2 + 1)^2


def test_certify_budget_runs_out_before_the_hypothesis_is_decided():
    # alpha - 8 is a 122-bit semiprime: rho cannot split it in a millisecond
    cert = certify((2**61 - 1) * 1152921504606847009 + 8, budget_ms=1)
    assert cert.verdict == "not_certified" and cert.hypothesis_ok is False
    assert cert.reason.startswith("factorization budget exceeded: ")


def test_montes_budget_spent_on_disc_keeps_the_decided_hypothesis(monkeypatch):
    # irreducibility is decided through arith.factor; only factor(disc) fails
    def exhausted(n, budget_ms=None):
        raise BudgetExceededError(f"factorization budget exhausted on {n}")

    monkeypatch.setattr(certify_module, "factor", exhausted)
    cert = montes_certificate(three_torsion_quartic(2), budget_ms=1000)
    assert cert.verdict == "not_certified" and cert.hypothesis_ok is True
    assert cert.reason.startswith("factorization budget exceeded")


# --- a small square refutes the hypothesis before rho runs -----------------------


def _from_full_factorizations(alpha):
    """The verdict and trust lines that complete factorizations of alpha -+ 8 give."""
    facts = [factor(alpha - 8), factor(alpha + 8)]
    trust = tuple(
        f"prime {q} of alpha {sgn} 8 is probable, not certified"
        for fact, sgn in zip(facts, "-+")
        for q in fact.probable
    )
    squarefree = all(fact.is_squarefree() for fact in facts)
    return ("monogenic" if squarefree else "hypothesis_failed"), trust


def _refuse_rho(n):
    raise AssertionError(f"rho ran on {n}")


def _cofactor(n):
    """|n| with every prime below the trial bound divided out."""
    n = abs(n)
    for p in arith.small_primes():
        while n % p == 0:
            n //= p
    return n


def test_certify_trust_and_verdict_match_full_factorizations():
    rng = random.Random("trust_rule_differential")
    alphas = [rng.choice((-1, 1)) * rng.randrange(2**59, 2**61) for _ in range(5000)]
    verdicts = Counter()
    for alpha in alphas:
        cert = certify(alpha)
        assert (cert.verdict, cert.trust) == _from_full_factorizations(alpha), alpha
        verdicts[cert.verdict, bool(cert.trust)] += 1
    assert all(verdicts[key] > 200 for key in itertools.product(("monogenic", "hypothesis_failed"), (False, True)))


def _refuted_with_cofactor(c, rho_free):
    """An alpha with 9 | alpha - 8 and alpha + 8 = s * c for a 2^12-smooth s.
    With ``rho_free``, s is picked so that alpha - 8 leaves a cofactor
    below DETERMINISTIC_BOUND, which needs no rho for its trust lines."""
    s = 7 * pow(c, -1, 9) % 9  # s * c = 16 mod 9
    while rho_free and _cofactor(s * c - 16) >= arith.DETERMINISTIC_BOUND:
        s += 9
    assert s < arith._TRIAL_BOUND
    return s * c - 8


@pytest.mark.parametrize("case", ["prime_at_the_bound", "composite_below_the_product", "4099_times_a_probable_prime"])
def test_certify_trust_rule_at_its_edges(monkeypatch, case):
    # the other side's cofactor at each edge of the trust-bound rule
    bound = arith.DETERMINISTIC_BOUND
    prime = sympy.nextprime(bound)
    c, listed = {
        "prime_at_the_bound": (prime, prime),
        "composite_below_the_product": (4099 * sympy.prevprime(bound * 2**12 // 4099), None),
        "4099_times_a_probable_prime": (4099 * prime, prime),
    }[case]
    rho_free = listed is None or c == listed
    alpha = _refuted_with_cofactor(c, rho_free)
    expected = {a: _from_full_factorizations(a) for a in (alpha, -alpha)}
    if rho_free:
        monkeypatch.setattr(arith, "_brent_rho", _refuse_rho)
    for a, sgn in ((alpha, "+"), (-alpha, "-")):
        cert = certify(a)
        assert (cert.verdict, cert.trust) == expected[a]
        assert cert.verdict == "hypothesis_failed"
        lines = [line for line in cert.trust if f"alpha {sgn} 8" in line]
        assert lines == ([] if listed is None else [f"prime {listed} of alpha {sgn} 8 is probable, not certified"])


def test_certify_finds_a_square_above_the_trial_bound_through_rho(monkeypatch):
    # alpha - 8 = 4099^2 r: no prime below 2^12 divides it, so only the
    # completion sees the square, and rho splits the cofactor to find it
    r = sympy.nextprime(2**40)
    while not factor(4099**2 * r + 16).is_squarefree():
        r = sympy.nextprime(r)
    alpha = 4099**2 * r + 8
    split, brent_rho = [], arith._brent_rho

    def recording(n):
        split.append(n)
        return brent_rho(n)

    monkeypatch.setattr(arith, "_brent_rho", recording)
    cert = certify(alpha)
    assert cert.verdict == "hypothesis_failed"
    assert split[0] == alpha - 8


def test_certify_refutes_small_squares_without_rho(monkeypatch):
    # seeded alphas that a square below 2^12 refutes, with both cofactors
    # below DETERMINISTIC_BOUND * 2^12: the trust lines need no rho either
    rng = random.Random("refuted_without_rho")
    squares = [p * p for p in arith.small_primes()]
    limit = arith.DETERMINISTIC_BOUND * arith._TRIAL_BOUND
    chosen = []
    while len(chosen) < 300:
        alpha = rng.choice((-1, 1)) * rng.randrange(2**59, 2**61)
        sides = (alpha - 8, alpha + 8)
        if any(n % sq == 0 for n in sides for sq in squares) and all(_cofactor(n) < limit for n in sides):
            chosen.append(alpha)
    expected = {alpha: _from_full_factorizations(alpha) for alpha in chosen}
    # at the parent each of these composite cofactors went to rho
    composite = [
        m for alpha in chosen for m in map(_cofactor, (alpha - 8, alpha + 8))
        if m >= 2**24 and not arith.is_probable_prime(m)
    ]
    assert len(composite) > 100
    assert any(trust for _, trust in expected.values())
    monkeypatch.setattr(arith, "_brent_rho", _refuse_rho)
    for alpha in chosen:
        cert = certify(alpha)
        assert cert.verdict == "hypothesis_failed"
        assert (cert.verdict, cert.trust) == expected[alpha]


def test_certify_budget_spares_a_hypothesis_the_small_primes_refute():
    # 4 divides alpha -+ 8, and alpha - 8 = 4 p q leaves a 57-bit composite
    # cofactor, below DETERMINISTIC_BOUND * 2^12: it has no probable prime,
    # so no rho runs and a spent budget still decides the hypothesis
    p = sympy.nextprime(2**28)
    q = sympy.nextprime(p + 2**20)
    alpha = 8 + 4 * p * q
    assert alpha < 2**60
    cert = certify(alpha, budget_ms=0)
    assert cert.verdict == "hypothesis_failed" and cert.trust == ()
    assert cert.to_json() == certify(alpha).to_json()
    # a trust line that needs rho still needs the budget: 4099 P with P prime
    # above the bound
    big = sympy.nextprime(arith.DETERMINISTIC_BOUND)
    alpha = 8 + 4 * 4099 * big
    assert certify(alpha, budget_ms=0).verdict == "not_certified"
    cert = certify(alpha)
    assert cert.verdict == "hypothesis_failed"
    assert f"prime {big} of alpha - 8 is probable, not certified" in cert.trust

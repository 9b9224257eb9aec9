import hashlib
import importlib
import json
import math
import random
import time
from collections import Counter

import pytest
import sympy

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
from monodiv.newton import IndexReport, index_report
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


def test_field_discriminant_formula():
    assert field_discriminant(2) == -97200


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
    # the prime list comes from the factorizations certify made, and
    # reduction_ok is a closed form, so no Kodaira classification runs and
    # reduction never factors alpha -+ 8 a second time
    calls = {}
    for name in ("monodiv.certify", "monodiv.reduction"):
        module = importlib.import_module(name)
        log = calls[name] = []

        def counted(n, _inner=module.factor, _log=log, **kwargs):
            _log.append(n)
            return _inner(n, **kwargs)

        monkeypatch.setattr(module, "factor", counted)
    cert = certify(alpha)
    assert cert.verdict == "monogenic" and cert.reduction_ok is True
    assert sorted(calls["monodiv.certify"]) == [alpha - 8, alpha + 8]
    assert calls["monodiv.reduction"] == []


def test_certify_spends_one_budget_on_both_factorizations(monkeypatch):
    budgets = []

    def slow_first(n, budget_ms=None, _inner=certify_module.factor):
        budgets.append(budget_ms)
        if len(budgets) == 1:
            time.sleep(0.15)
        return _inner(n, budget_ms=budget_ms)

    monkeypatch.setattr(certify_module, "factor", slow_first)
    assert certify(2, budget_ms=1000).verdict == "monogenic"
    assert budgets[0] == 1000 and budgets[1] <= 850


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
            rep = index_report(three_torsion_quartic(alpha), p, lifts=[lift], factors=factors)
            assert rep.dedekind == (vp(alpha - 8, p) < 2), (alpha, p)
            outcomes.append(rep.dedekind)
    assert outcomes.count(False) > 50 and outcomes.count(True) > 1000


def _row_cases(monkeypatch, alphas):
    """(alpha, p, row, whether _row fell back to index_report, whether
    alpha -+ 8 is squarefree) at every prime certify visits.  A fallback is
    index_report(f3, p, lifts=[lift]) at the lift of closed_form."""
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
            row = _row(f3, alpha, p)
            lift, _ = closed_form(alpha, p)
            assert fallbacks in ([], [((f3, p), {"lifts": [lift]})]), (alpha, p)
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
        assert row == index_report(f3, p, lifts=[lift], factors=factors), (alpha, p)
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
        assert row == index_report(f3, p, lifts=[lift]), (alpha, p)
        assert row == index_report(f3, p, lifts=[lift], factors=factors), (alpha, p)
        assert not (hypothesis and fell_back), (alpha, p)
        branches[hypothesis, fell_back] += 1
    assert branches[True, False] > 1000 and branches[False, True] > 10


def test_certify_runs_no_generic_pass_under_the_hypothesis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generic pass called")

    for module, name in (
        (certify_module, "index_report"),
        (newton_module, "index_report"),
        (newton_module, "phi_development"),
        (poly_module, "phi_development"),
    ):
        monkeypatch.setattr(module, name, refuse)
    rng = random.Random("no_generic_pass")
    alphas = [*KNOWN_MONOGENIC, *(-a for a in KNOWN_MONOGENIC)]
    alphas += [rng.choice((-1, 1)) * rng.randrange(2**59, 2**61) for _ in range(20)]
    certs = [certify(alpha) for alpha in alphas]
    assert all(cert.hypothesis_ok for cert in certs[: 2 * len(KNOWN_MONOGENIC)])
    assert sum(len(cert.primes) for cert in certs if cert.hypothesis_ok) > 60


def test_certify_proves_each_prime_once(monkeypatch):
    # the primes come from arith.factor, which runs the probable-prime test
    # on what trial division leaves above the square of its bound, once per
    # prime; certify builds its rows without asking again, and nothing calls
    # require_prime
    tested, required, depth = [], [], [0]
    is_probable_prime, factor_ = arith.is_probable_prime, certify_module.factor

    def counted(n):
        tested.append((n, depth[0] > 0))
        return is_probable_prime(n)

    def factoring(*args, **kwargs):
        depth[0] += 1
        try:
            return factor_(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(arith, "is_probable_prime", counted)
    monkeypatch.setattr(certify_module, "factor", factoring)
    for name in ("monodiv.arith", "monodiv.newton", "monodiv.valuation"):
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

    def exhausted(n, budget_ms=None):
        raise BudgetExceededError(f"factorization budget exhausted on {n}")

    monkeypatch.setattr(certify_module, "factor", exhausted)
    # the budget runs out before squarefreeness is known: not_certified, not skipped
    verdicts = [e.verdict for e in survey_family("A", (1, 1), (2, 8), budget_ms=0)]
    assert verdicts == ["not_certified"] * 6 + [None]


def test_survey_spends_one_budget_on_the_whole_request(monkeypatch):
    budgets = []

    def slow(n, budget_ms=None, _inner=certify_module.factor):
        budgets.append(budget_ms)
        time.sleep(0.02)
        return _inner(n, budget_ms=budget_ms)

    monkeypatch.setattr(certify_module, "factor", slow)
    survey_family("B", (0, 2), (0, 2), budget_ms=100)
    # five 20 ms sleeps use the budget up: each call gets what is left
    assert len(budgets) > 6
    assert 50 < budgets[0] <= 100
    assert all(later <= earlier for earlier, later in zip(budgets, budgets[1:]))
    assert all(left <= 100 - 20 * i for i, left in enumerate(budgets[:5]))
    assert budgets[6:] == [0.0] * len(budgets[6:])


def test_scan_spends_one_budget_on_the_whole_request(monkeypatch):
    budgets = []

    def slow(n, budget_ms=None, _inner=certify_module.factor):
        budgets.append(budget_ms)
        time.sleep(0.02)
        return _inner(n, budget_ms=budget_ms)

    expected = [c.to_json() for c in scan(1, 10)]
    monkeypatch.setattr(certify_module, "factor", slow)
    certs = scan(1, 10, budget_ms=50)
    # alpha -+ 8 for nine alphas (8 returns early); each call gets what is left
    assert len(budgets) == 18
    assert 30 < budgets[0] <= 50
    assert all(later <= earlier for earlier, later in zip(budgets, budgets[1:]))
    assert budgets[3:] == [0.0] * len(budgets[3:])
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
    budgets = []
    for module in (importlib.import_module("monodiv.arith"), certify_module):
        def recording(n, budget_ms=None, _inner=module.factor):
            budgets.append(budget_ms)
            time.sleep(0.01)
            return _inner(n, budget_ms=budget_ms)

        monkeypatch.setattr(module, "factor", recording)
    assert montes_certificate(three_torsion_quartic(2), budget_ms=1000).verdict == "monogenic"
    # c0 = -3, then disc: both finite, and each gets what is left
    assert len(budgets) == 2 and None not in budgets
    assert budgets[0] == 1000 and budgets[1] <= 990


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

import importlib
import json
import math

import pytest

from monodiv import (
    MathDomainError,
    PolyInt,
    certify,
    certify_generic,
    dedekind_p_maximal,
    discriminant,
    galois_signature,
    rational_roots,
    scan,
    survey_family,
    three_torsion_quartic,
    unit_norm_check,
)
from monodiv.certify import field_discriminant, is_irreducible_quartic

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


def test_field_discriminant_formula():
    assert field_discriminant(2) == -97200


# --- certify ------------------------------------------------------------------


def test_certify_alpha_2():
    cert = certify(2)
    assert cert.verdict == "monogenic"
    assert cert.field_disc == -97200
    assert [row.p for row in cert.primes] == [2, 3, 5]
    assert all(row.ind_p == 0 and row.exact and row.dedekind for row in cert.primes)
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
    # the Kodaira check reads the primes of the factorizations certify made,
    # so reduction never factors alpha -+ 8 a second time
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


def test_certify_odd_alpha_has_no_p2_row():
    cert = certify(3)
    assert cert.verdict == "monogenic"
    assert [row.p for row in cert.primes] == [3, 5, 11]
    assert 2 not in [row.p for row in cert.primes]


def test_certify_even_alpha_p2_constant_term():
    cert = certify(2)
    row = next(r for r in cert.primes if r.p == 2)
    assert len(row.phis) == 1
    assert row.phis[0].a0_val == 1
    assert row.phis[0].lift.to_text() == "-1,1"


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


# --- certify_generic cross-checks ----------------------------------------------


def test_generic_agrees_on_alpha_2():
    assert certify_generic(2).verdict == certify(2).verdict == "monogenic"


def test_generic_and_guided_never_contradict():
    for alpha in range(-26, 27):
        if alpha in (8, -8):
            continue
        guided = certify(alpha)
        generic = certify_generic(alpha)
        verdicts = {guided.verdict, generic.verdict}
        # contradiction = one path certifies monogenic while the other
        # exactly proves a positive index
        if "monogenic" in verdicts:
            other = (verdicts - {"monogenic"}) or {"monogenic"}
            for cert in (guided, generic):
                if cert.verdict != "monogenic":
                    assert not any(
                        row.exact and row.ind_p > 0 for row in cert.primes
                    ), alpha


def test_generic_alpha_16_exact_positive_index():
    cert = certify_generic(16)
    assert cert.verdict == "not_certified"
    row = next(r for r in cert.primes if r.p == 2)
    assert row.ind_p == 3 and row.exact and not row.dedekind
    # guided path refuses at the hypothesis stage; no contradiction
    assert certify(16).verdict == "hypothesis_failed"


def test_generic_alpha_0():
    cert = certify_generic(0)
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
    # cube test replaced
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
        assert galois_signature(alpha).group == expected, alpha


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
    with pytest.raises(MathDomainError):
        galois_signature(8)


def test_unit_norm_examples():
    for alpha in (3, 6, 9, -3, -27, 300):
        assert unit_norm_check(alpha) in (1, -1)


def test_unit_norm_rejects_bad_input():
    with pytest.raises(MathDomainError):
        unit_norm_check(4)


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


def test_survey_rejects_unknown_family():
    with pytest.raises(MathDomainError):
        survey_family("D", (0, 1), (0, 1))


# --- certificate JSON corner: several developed lifts at one prime ---------------


def test_multi_phi_evidence_json_shape():
    from monodiv import PolyInt
    from monodiv.certify import PhiEvidence, PrimeEvidence

    ev = PrimeEvidence(
        p=3,
        ind_p=2,
        exact=True,
        dedekind=False,
        dedekind_agrees=True,
        phis=(
            PhiEvidence(lift=PolyInt((0, 1)), a0_val=None, polygon_json={"points": []}),
            PhiEvidence(lift=PolyInt((1, 1)), a0_val=None, polygon_json={"points": []}),
        ),
    )
    row = ev.to_json_dict()
    assert row["lift"] is None and row["polygon"] is None
    assert [p["lift"] for p in row["phis"]] == ["0,1", "1,1"]
    assert row["ind_p"] == 2 and row["dedekind"] is False

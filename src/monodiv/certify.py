"""Monogenicity certificates for the quartic family T^4 - 6T^2 - alpha*T - 3.

The certifier walks the prime-by-prime analysis: p = 2 (only when alpha is
even; development base T - 1), p = 3 (base T, T - 4 or T + 4 according to
alpha mod 3), and every odd p >= 5 dividing (alpha - 8)(alpha + 8), with the
development base T - T0 placed at the singular Fueter coordinate.  At every
prime the polygon index bound must be exactly zero, and Dedekind's criterion
must concur; `index_report` runs both on one factorization mod p and keeps
Dedekind's answer in `IndexReport.dedekind`.  The Kodaira types of the curve
are classified at the primes of the same factorization of alpha -+ 8.  A
generic (curve-blind) Montes pass over all primes of the polynomial
discriminant serves as a cross-check, and also powers the survey over the
three experimental quartic families.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from .arith import _integer_nth_root, divisors, factor, vp
from .elliptic import TateNormalCurve, tate_curve
from .errors import BudgetExceededError, MathDomainError
# perfbench/spans.py patches dedekind_p_maximal and reduction_table in this
# module by name, though nothing here calls them; drop both imports together
# with those patches.
from .newton import IndexReport, dedekind_p_maximal, index_report  # noqa: F401
from .poly import PolyInt, count_real_roots, discriminant, rational_roots, resultant
from .reduction import classify_odd, classify_two, reduction_table  # noqa: F401
from .valuation import singular_T, singular_case

SCHEMA_VERSION = 1


def three_torsion_quartic(alpha: int) -> PolyInt:
    """The quartic T^4 - 6T^2 - alpha*T - 3 (3-torsion in Fueter form, beta=1)."""
    return PolyInt((-3, -alpha, -6, 0, 1))


def field_discriminant(alpha: int) -> int:
    """-27 (alpha-8)^2 (alpha+8)^2, the discriminant of the quartic."""
    return -27 * (alpha - 8) ** 2 * (alpha + 8) ** 2


def is_irreducible_quartic(f: PolyInt) -> bool:
    """Irreducibility over Q for monic integer quartics.

    Rational-root test plus exhaustive integer quadratic-splitting test
    (by Gauss, a monic integer quartic factors over Q iff over Z).
    """
    if f.degree != 4 or not f.is_monic:
        raise MathDomainError("expected a monic quartic")
    if rational_roots(f):
        return False
    c0, c1, c2, c3 = f.coeffs[0], f.coeffs[1], f.coeffs[2], f.coeffs[3]
    if c0 == 0:
        return False
    for b in (sign * q for q in divisors(c0) for sign in (1, -1)):
        d = c0 // b
        # (T^2 + aT + b)(T^2 + cT + d): a + c = c3, ac = c2 - b - d, ad + bc = c1
        s, prod = c3, c2 - b - d
        disc = s * s - 4 * prod
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for a_coef in {(s + r) // 2, (s - r) // 2}:
            if 2 * a_coef not in (s + r, s - r):
                continue
            c_coef = s - a_coef
            if a_coef * c_coef == prod and a_coef * d + b * c_coef == c1:
                return False
    return True


@dataclass(frozen=True)
class PhiEvidence:
    """One developed lift at one prime."""

    lift: PolyInt
    a0_val: int | None
    polygon_json: dict


@dataclass(frozen=True)
class PrimeEvidence:
    """Everything the certificate records about one prime."""

    p: int
    ind_p: int
    exact: bool
    dedekind: bool
    dedekind_agrees: bool
    phis: tuple[PhiEvidence, ...]

    def to_json_dict(self) -> dict:
        row: dict = {"p": self.p}
        if len(self.phis) == 1:
            ev = self.phis[0]
            row["lift"] = ev.lift.to_text()
            row["a0_val"] = ev.a0_val
            row["polygon"] = ev.polygon_json
        else:
            row["lift"] = None
            row["a0_val"] = None
            row["polygon"] = None
            row["phis"] = [
                {
                    "lift": ev.lift.to_text(),
                    "a0_val": ev.a0_val,
                    "polygon": ev.polygon_json,
                }
                for ev in self.phis
            ]
        row["ind_p"] = self.ind_p
        row["exact"] = self.exact
        row["dedekind"] = self.dedekind
        return row


@dataclass(frozen=True)
class MonogenicityCertificate:
    """Per-prime evidence plus the global verdict for one alpha."""

    alpha: int
    verdict: str  # "monogenic" | "not_certified" | "hypothesis_failed"
    hypothesis_ok: bool
    field_disc: int | None = None
    primes: tuple[PrimeEvidence, ...] = ()
    trust: tuple[str, ...] = field(default=())
    reduction_ok: bool | None = None
    reason: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "alpha": self.alpha,
            "verdict": self.verdict,
            "hypothesis_ok": self.hypothesis_ok,
            "field_disc": str(self.field_disc) if self.field_disc is not None else None,
            "primes": [row.to_json_dict() for row in self.primes],
            "trust": list(self.trust),
            "reduction_ok": self.reduction_ok,
            "reason": self.reason,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def _evidence_from_report(report: IndexReport) -> PrimeEvidence:
    ind, dedekind = report.ind_p_lower_bound, report.dedekind
    if report.exact:
        agrees = (ind == 0) == dedekind
    else:
        # an inexact positive bound still forces a positive index
        agrees = not (ind > 0 and dedekind)
    return PrimeEvidence(
        p=report.p,
        ind_p=ind,
        exact=report.exact,
        dedekind=dedekind,
        dedekind_agrees=agrees,
        phis=tuple(
            PhiEvidence(
                lift=r.phi,
                a0_val=r.a0_val,
                polygon_json=r.polygon.to_json_dict(ind=r.ind_phi),
            )
            for r in report.per_phi
        ),
    )


def _certificate(
    alpha: int,
    reports: list[IndexReport],
    field_disc: int,
    trust: tuple[str, ...],
    reduction_ok: bool | None = None,
) -> MonogenicityCertificate:
    """Per-prime rows and the verdict of a certificate whose hypothesis holds."""
    rows = tuple(_evidence_from_report(report) for report in reports)
    ok = all(row.ind_p == 0 and row.exact and row.dedekind_agrees for row in rows)
    return MonogenicityCertificate(
        alpha=alpha,
        verdict="monogenic" if ok else "not_certified",
        hypothesis_ok=True,
        field_disc=field_disc if ok else None,
        primes=rows,
        trust=trust,
        reduction_ok=reduction_ok,
        reason=None if ok else "a prime produced a nonzero or inexact index bound",
    )


def _guided_lift(alpha: int, p: int, curve: TateNormalCurve | None) -> PolyInt:
    """Development base prescribed by the curve analysis."""
    if p == 2:
        return PolyInt((-1, 1))
    if p == 3:
        r = alpha % 3
        t0 = 0 if r == 0 else (4 if r == 1 else -4)
        return PolyInt((-t0, 1))
    assert curve is not None
    case = singular_case(curve, p)
    t0 = singular_T(case, curve, p)
    return PolyInt((-t0, 1))


def _budget_left(budget_ms: int | None, start: float) -> float | None:
    """What is left of one request's budget since ``start``, floored at 0."""
    if budget_ms is None:
        return None
    return max(0.0, budget_ms - 1000.0 * (time.monotonic() - start))


def certify(alpha: int, budget_ms: int | None = None) -> MonogenicityCertificate:
    """Curve-guided monogenicity certificate for T^4 - 6T^2 - alpha*T - 3."""
    f3 = three_torsion_quartic(alpha)
    if alpha in (8, -8):
        return MonogenicityCertificate(
            alpha, "hypothesis_failed", False,
            reason="alpha = +-8 is singular (alpha -+ 8 vanishes)",
        )
    start = time.monotonic()  # one deadline for the whole request
    try:
        fact_minus = factor(alpha - 8, budget_ms=budget_ms)
        fact_plus = factor(alpha + 8, budget_ms=_budget_left(budget_ms, start))
    except BudgetExceededError as exc:
        return MonogenicityCertificate(
            alpha, "not_certified", False, reason=f"factorization budget exceeded: {exc}"
        )
    trust = tuple(
        f"prime {q} of alpha {sgn} 8 is probable, not certified"
        for fact, sgn in ((fact_minus, "-"), (fact_plus, "+"))
        for q in fact.probable
    )
    if not (fact_minus.is_squarefree() and fact_plus.is_squarefree()):
        return MonogenicityCertificate(
            alpha, "hypothesis_failed", False, trust=trust,
            reason="alpha - 8 or alpha + 8 is not squarefree",
        )
    if not is_irreducible_quartic(f3):
        return MonogenicityCertificate(
            alpha, "hypothesis_failed", False, trust=trust,
            reason="the quartic is reducible over Q",
        )
    curve = tate_curve(alpha, 1)
    bad = set(fact_minus.primes() + fact_plus.primes())
    plist = {3} | {q for q in bad if q >= 5}
    if alpha % 2 == 0:
        plist.add(2)
    reports = [
        index_report(f3, p, lifts=[_guided_lift(alpha, p, curve)]) for p in sorted(plist)
    ]
    # the Kodaira types at the primes of alpha -+ 8; an even alpha has
    # v_2(alpha + 8) = 1 here, so p = 2 is I*_1 and never a good prime
    kinds = [
        (classify_two(alpha, 1) if q == 2 else classify_odd(alpha, 1, q)).kodaira
        for q in bad
    ]
    types_ok = all(k.kind in ("I", "I*") and k.n == 1 for k in kinds)
    return _certificate(alpha, reports, field_discriminant(alpha), trust, types_ok)


def montes_certificate(
    poly: PolyInt,
    alpha: int | None = None,
    budget_ms: int | None = None,
) -> MonogenicityCertificate:
    """Curve-blind Montes pass over the primes of disc(poly), default lifts.

    Primes with v_p(disc) < 2 are skipped: disc = index^2 * disc_K, so they
    cannot divide the index.
    """
    label = alpha if alpha is not None else 0
    disc = discriminant(poly)
    if disc == 0:
        raise MathDomainError("polynomial must be squarefree over Q")
    if not is_irreducible_quartic(poly):
        return MonogenicityCertificate(
            label, "hypothesis_failed", False, reason="the quartic is reducible over Q"
        )
    try:
        fact = factor(int(disc), budget_ms=budget_ms)
    except BudgetExceededError as exc:
        return MonogenicityCertificate(
            label, "not_certified", True, reason=f"factorization budget exceeded: {exc}"
        )
    trust = tuple(f"prime {q} of disc is probable, not certified" for q in fact.probable)
    reports = [index_report(poly, p) for p in fact.primes() if vp(int(disc), p) >= 2]
    return _certificate(label, reports, int(disc), trust)


def certify_generic(alpha: int, budget_ms: int | None = None) -> MonogenicityCertificate:
    """Montes on T^4 - 6T^2 - alpha*T - 3 without elliptic-curve guidance."""
    return montes_certificate(
        three_torsion_quartic(alpha), alpha=alpha, budget_ms=budget_ms
    )


@dataclass(frozen=True)
class GaloisSignature:
    group: str  # "S4" | "other"
    real_roots: int


def galois_signature(alpha: int) -> GaloisSignature:
    """S4 detection (resolvent cubic + non-square discriminant) and the
    number of real embeddings via Sturm."""
    f3 = three_torsion_quartic(alpha)
    if not is_irreducible_quartic(f3):
        raise MathDomainError("the quartic is reducible; no Galois group of a field")
    # the resolvent x^3 + 6x^2 + 12x + 72 - alpha^2 is (x + 2)^3 - (alpha^2 - 64),
    # so it has a rational root iff alpha^2 - 64 is an integer cube
    m = abs(alpha * alpha - 64)
    resolvent_has_root = _integer_nth_root(m, 3) ** 3 == m
    disc = discriminant(f3)
    is_square = disc > 0 and all(
        math.isqrt(x) ** 2 == x for x in (disc.numerator, disc.denominator)
    )
    group = "S4" if not resolvent_has_root and not is_square else "other"
    return GaloisSignature(group=group, real_roots=count_real_roots(f3))


def unit_norm_check(alpha: int) -> int:
    """Norm of 1 + (alpha/3) theta + 2 theta^2 via a resultant; must be +-1."""
    if alpha % 3:
        raise MathDomainError("unit_norm_check needs 3 | alpha")
    f3 = three_torsion_quartic(alpha)
    if not is_irreducible_quartic(f3):
        raise MathDomainError("the quartic is reducible")
    norm = resultant(f3, PolyInt((1, alpha // 3, 2)))
    if norm not in (1, -1):
        raise MathDomainError(f"norm {norm} is not a unit; family claim violated")
    return int(norm)


def scan(lo: int, hi: int, budget_ms: int | None = None) -> list[MonogenicityCertificate]:
    """Certify every alpha in [lo, hi], ordered by alpha."""
    return [certify(a, budget_ms=budget_ms) for a in range(lo, hi + 1)]


@dataclass(frozen=True)
class FamilyEntry:
    """One (s, t) specialization of an experimental quartic family."""

    family: str
    s: int
    t: int
    poly: PolyInt
    predicted_disc: int
    disc_ok: bool
    squared_factor: int
    verdict: str | None  # Montes verdict when the squared factor is squarefree


_FAMILIES = {
    "A": {
        "poly": lambda s, t: PolyInt((-3 * s * s, -t, -6 * s, 0, 1)),
        "factor": lambda s, t: t * t - 64 * s**3,
        "disc": lambda s, t, sq: -27 * sq * sq,
    },
    "B": {
        "poly": lambda s, t: PolyInt((t, -(4 * t + 3 * s * s), -3 * s, -1, 1)),
        "factor": lambda s, t: 16 * t * t + (24 * s * s + 12 * s + 1) * t + 9 * s**4 + s**3,
        "disc": lambda s, t, sq: -27 * sq * sq,
    },
    "C": {
        "poly": lambda s, t: PolyInt((t, -(2 * t + 6 * s * s), -6 * s, -2, 1)),
        "factor": lambda s, t: t * t + (6 * s * s + 6 * s + 1) * t + 9 * s**4 + 2 * s**3,
        "disc": lambda s, t, sq: -16 * 27 * sq * sq,
    },
}


def survey_family(
    family: str,
    s_range: tuple[int, int],
    t_range: tuple[int, int],
    budget_ms: int | None = None,
) -> list[FamilyEntry]:
    """Symbolic discriminant check (and Montes verdicts where applicable)
    over an (s, t) grid of one of the three experimental families."""
    if family not in _FAMILIES:
        raise MathDomainError("family must be one of A, B, C")
    spec = _FAMILIES[family]
    out = []
    start = time.monotonic()  # one deadline for the whole request
    for s in range(s_range[0], s_range[1] + 1):
        for t in range(t_range[0], t_range[1] + 1):
            poly = spec["poly"](s, t)
            sq = spec["factor"](s, t)
            predicted = spec["disc"](s, t, sq)
            actual = discriminant(poly)
            disc_ok = actual == predicted
            verdict = None
            if sq != 0 and _squarefree_or_none(sq, _budget_left(budget_ms, start)):
                left = _budget_left(budget_ms, start)
                verdict = montes_certificate(poly, budget_ms=left).verdict
            out.append(
                FamilyEntry(
                    family=family,
                    s=s,
                    t=t,
                    poly=poly,
                    predicted_disc=predicted,
                    disc_ok=disc_ok,
                    squared_factor=sq,
                    verdict=verdict,
                )
            )
    return out


def _squarefree_or_none(n: int, budget_ms: int | None) -> bool:
    try:
        return factor(n, budget_ms=budget_ms).is_squarefree()
    except BudgetExceededError:
        return False

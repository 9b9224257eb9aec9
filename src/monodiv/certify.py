"""Monogenicity certificates for the quartic family T^4 - 6T^2 - alpha*T - 3.

The certifier walks the prime-by-prime analysis: p = 2 (only when alpha is
even; development base T - 1), p = 3 (base T, T - 4 or T + 4 according to
alpha mod 3), and every odd p >= 5 dividing (alpha - 8)(alpha + 8), with the
development base T - T0 placed at the singular Fueter coordinate.  Each row
of a certificate is the `IndexReport` that `index_report` returned for its
prime: the polygon index bound must be exactly zero and Dedekind's criterion
(`IndexReport.dedekind`, run on the same factorization mod p) must hold.
That factorization is the quartic's closed form mod p (`_closed_form`), which
`index_report` checks as a witness instead of factoring.

The family's closed forms stand in for re-checks and for the curve analysis:
the quartic has discriminant -27 (alpha - 8)^2 (alpha + 8)^2, which is never
a square and always negative (two real roots), and it is irreducible over Q
for every alpha except +-8 (see `three_torsion_quartic`).  With alpha -+ 8
squarefree, the guided lifts and the Kodaira types (`reduction_ok`) follow
from which of alpha - 8, alpha + 8 a prime divides, so `certify` builds no
curve.
A generic (curve-blind) Montes pass over all primes of the polynomial
discriminant serves as a cross-check, and also powers the survey over the
three experimental quartic families.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from .arith import _budget_left, _integer_nth_root, divisors, factor, vp
from .errors import BudgetExceededError, MathDomainError
# perfbench/spans.py patches dedekind_p_maximal and reduction_table in this
# module by name, though nothing here calls them; drop both imports together
# with those patches.
from .newton import IndexReport, dedekind_p_maximal, index_report  # noqa: F401
from .poly import PolyInt, PolyModP, discriminant, resultant
from .reduction import reduction_table  # noqa: F401

SCHEMA_VERSION = 1


# The quartic f = T^4 - 6T^2 - alpha*T - 3 is reducible over Q only for
# alpha = +-8.  A monic integer quartic that factors over Q factors over Z
# (Gauss).  Rational roots divide 3, and f(+-1) = -+alpha - 8 and
# f(+-3) = 24 -+ 3*alpha, so a root exists only at alpha = +-8.  A split
# (T^2 + aT + b)(T^2 - aT + d) needs bd = -3 and a^2 = b + d + 6, which is 4
# or 8; the only integer case is a = +-2 with {b, d} = {1, -3}, and then
# alpha = -a(d - b) = +-8.
def three_torsion_quartic(alpha: int) -> PolyInt:
    """The quartic T^4 - 6T^2 - alpha*T - 3 (3-torsion in Fueter form, beta=1)."""
    return PolyInt((-3, -alpha, -6, 0, 1))


def field_discriminant(alpha: int) -> int:
    """-27 (alpha-8)^2 (alpha+8)^2, the discriminant of the quartic."""
    return -27 * (alpha - 8) ** 2 * (alpha + 8) ** 2


def is_irreducible_quartic(f: PolyInt, budget_ms: int | None = None) -> bool:
    """Irreducibility over Q for monic integer quartics.

    By Gauss, a monic integer quartic factors over Q iff over Z, so its
    rational roots and the constant terms of its quadratic factors are signed
    divisors of c0.  Both tests run over the one factorization of c0, made
    within ``budget_ms`` (BudgetExceededError past it).
    """
    if f.degree != 4 or not f.is_monic:
        raise MathDomainError("expected a monic quartic")
    c0, c1, c2, c3 = f.coeffs[0], f.coeffs[1], f.coeffs[2], f.coeffs[3]
    if c0 == 0:
        return False
    for b in (sign * q for q in divisors(c0, budget_ms=budget_ms) for sign in (1, -1)):
        if f(b) == 0:
            return False
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
class MonogenicityCertificate:
    """The `IndexReport` of each prime plus the global verdict for one alpha."""

    alpha: int
    verdict: str  # "monogenic" | "not_certified" | "hypothesis_failed"
    hypothesis_ok: bool
    field_disc: int | None = None
    primes: tuple[IndexReport, ...] = ()
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
            "primes": [_row_json(report) for report in self.primes],
            "trust": list(self.trust),
            "reduction_ok": self.reduction_ok,
            "reason": self.reason,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def _row_json(report: IndexReport) -> dict:
    """The schema-v1 row of one prime; several lifts go under "phis"."""
    phis = [
        {
            "lift": r.phi.to_text(),
            "a0_val": r.a0_val,
            "polygon": r.polygon.to_json_dict(ind=r.ind_phi),
        }
        for r in report.per_phi
    ]
    row: dict = {"p": report.p}
    if len(phis) == 1:
        row.update(phis[0])
    else:
        row.update(lift=None, a0_val=None, polygon=None, phis=phis)
    row.update(ind_p=report.ind_p_lower_bound, exact=report.exact, dedekind=report.dedekind)
    return row


def _certificate(
    alpha: int,
    reports: list[IndexReport],
    field_disc: int,
    trust: tuple[str, ...],
    reduction_ok: bool | None = None,
) -> MonogenicityCertificate:
    """Per-prime rows and the verdict of a certificate whose hypothesis holds;
    a `not_certified` reason names the first failing prime and its cause."""
    reason = next((why for why in map(_row_failure, reports) if why), None)
    return MonogenicityCertificate(
        alpha=alpha,
        verdict="not_certified" if reason else "monogenic",
        hypothesis_ok=True,
        field_disc=None if reason else field_disc,
        primes=tuple(reports),
        trust=trust,
        reduction_ok=reduction_ok,
        reason=reason,
    )


def _row_failure(r: IndexReport) -> str | None:
    """Why the row of one prime does not prove Z[theta] maximal there."""
    if r.ind_p_lower_bound > 0:
        relation = "=" if r.exact else ">="
        return f"p = {r.p}: ind_p {relation} {r.ind_p_lower_bound}, so p divides the index"
    if not r.exact:
        return f"p = {r.p}: ind_p >= 0 is inexact (a residual polynomial is inseparable)"
    if not r.dedekind:
        return f"p = {r.p}: Dedekind's criterion fails although ind_p = 0 is exact"
    return None


# Phi = T^4 - 6T^2 - alpha*T - 3 mod p, at every prime `certify` visits:
# - p | alpha - 8 (p >= 5): Phi = (T^4 - 6T^2 - 8T - 3) - (alpha - 8)T, and
#   T^4 - 6T^2 - 8T - 3 = (T + 1)^3 (T - 3), so Phi-bar = (T + 1)^3 (T - 3);
# - p | alpha + 8 (p >= 5): the same with T -> -T, Phi-bar = (T - 1)^3 (T + 3);
#   the cases are exclusive, as p | (alpha + 8) - (alpha - 8) = 16 forces
#   p = 2, and T + 1 != T - 3 (T - 1 != T + 3) since p does not divide 4;
# - p = 3: Phi-bar = T^4 - alpha*T = T (T^3 - alpha^3) = T (T - alpha)^3,
#   as alpha^3 = alpha mod 3 and cubing is additive in characteristic 3;
#   that is T^4 when 3 | alpha;
# - p = 2 (alpha even): Phi-bar = T^4 + 1 = (T + 1)^4.
# Dedekind at p | alpha - 8 in closed form: Phi - (T + 1)^3 (T - 3) =
# -(alpha - 8) T, so F = -((alpha - 8)/p) T, and (T + 1) divides F-bar iff
# F-bar = 0, i.e. iff p^2 | alpha - 8 (the criterion does not depend on the
# lifts of the factors).  At p | alpha + 8, (T - 1) | F-bar iff p^2 | alpha + 8.
# So with alpha -+ 8 squarefree the paper's hypothesis is Dedekind's criterion
# at p >= 5; `index_report` still computes that answer itself.
def _closed_form(alpha: int, p: int) -> tuple[PolyInt, list[tuple[PolyModP, int]]]:
    """Development base T - T0 of the curve analysis and the factorization of
    the quartic mod p, for a prime of the certificate.  For p >= 5, T0 is
    the singular Fueter point of `tate_curve(alpha, 1)` reduced mod p
    (`valuation.singular_fueter_T`): -1 when p | alpha - 8, and 1 when
    p | alpha + 8.  T0 is the root of the repeated factor mod p in every
    case."""
    if p == 2:
        t0, roots = 1, [(1, 4)]
    elif p == 3:
        t0 = (0, 4, -4)[alpha % 3]
        roots = [(0, 4)] if t0 == 0 else [(0, 1), (t0, 3)]
    elif (alpha - 8) % p == 0:
        t0, roots = p - 1, [(p - 1, 3), (3, 1)]
    else:
        t0, roots = 1, [(1, 3), (-3, 1)]
    return PolyInt((-t0, 1)), [(PolyModP(p, (-r, 1)), e) for r, e in roots]


def certify(alpha: int, budget_ms: int | None = None) -> MonogenicityCertificate:
    """Curve-guided monogenicity certificate for T^4 - 6T^2 - alpha*T - 3."""
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
    # alpha != +-8, so the quartic is irreducible (see three_torsion_quartic)
    f3 = three_torsion_quartic(alpha)
    # 2 divides alpha -+ 8 exactly when alpha is even
    bad = set(fact_minus.primes() + fact_plus.primes())
    reports = []
    for p in sorted({3} | bad):
        lift, factors = _closed_form(alpha, p)
        reports.append(index_report(f3, p, lifts=[lift], factors=factors))
    # reduction_ok: squarefree alpha -+ 8 gives v = 1 at every bad prime of
    # tate_curve(alpha, 1), so classify_odd finds I_1 (case "minus") or I*_1
    # (case "plus", v odd: tate1-3a), and an even alpha has v_2(alpha + 8) = 1,
    # which classify_two finds to be I*_1 (tate2-1)
    return _certificate(alpha, reports, field_discriminant(alpha), trust, True)


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
    start = time.monotonic()  # one deadline for the whole request
    irreducible = False  # the hypothesis holds once the test has returned True
    try:
        if not is_irreducible_quartic(poly, budget_ms=budget_ms):
            return MonogenicityCertificate(
                label, "hypothesis_failed", False, reason="the quartic is reducible over Q"
            )
        irreducible = True
        fact = factor(int(disc), budget_ms=_budget_left(budget_ms, start))
    except BudgetExceededError as exc:
        return MonogenicityCertificate(
            label, "not_certified", irreducible, reason=f"factorization budget exceeded: {exc}"
        )
    trust = tuple(f"prime {q} of disc is probable, not certified" for q in fact.probable)
    reports = [index_report(poly, p) for p in fact.primes() if vp(int(disc), p) >= 2]
    return _certificate(label, reports, int(disc), trust)


@dataclass(frozen=True)
class GaloisSignature:
    group: str  # "S4" | "other"
    real_roots: int


def galois_signature(alpha: int) -> GaloisSignature:
    """S4 detection (resolvent cubic) and the number of real embeddings.
    The discriminant -27 (alpha - 8)^2 (alpha + 8)^2 is negative, so never a
    square, and the group is S4 iff the resolvent has no root; a real quartic
    with negative discriminant has two real roots and one complex pair."""
    if alpha in (8, -8):
        raise MathDomainError("the quartic is reducible; no Galois group of a field")
    # the resolvent x^3 + 6x^2 + 12x + 72 - alpha^2 is (x + 2)^3 - (alpha^2 - 64),
    # so it has a rational root iff alpha^2 - 64 is an integer cube
    m = abs(alpha * alpha - 64)
    resolvent_has_root = _integer_nth_root(m, 3) ** 3 == m
    return GaloisSignature(
        group="other" if resolvent_has_root else "S4",
        real_roots=2,
    )


def unit_norm_check(alpha: int) -> int:
    """Norm of 1 + (alpha/3) theta + 2 theta^2 via a resultant; must be +-1.

    3 | alpha excludes alpha = +-8, so the quartic is irreducible."""
    if alpha % 3:
        raise MathDomainError("unit_norm_check needs 3 | alpha")
    norm = resultant(three_torsion_quartic(alpha), PolyInt((1, alpha // 3, 2)))
    if norm not in (1, -1):
        raise MathDomainError(f"norm {norm} is not a unit; family claim violated")
    return int(norm)


def scan(lo: int, hi: int, budget_ms: int | None = None) -> list[MonogenicityCertificate]:
    """Certify every alpha in [lo, hi], ordered by alpha, under one budget."""
    start = time.monotonic()
    return [certify(a, budget_ms=_budget_left(budget_ms, start)) for a in range(lo, hi + 1)]


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
    # Montes verdict when the squared factor is squarefree, "not_certified"
    # when the budget runs out before that is known, else None
    verdict: str | None


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
            if sq != 0:
                try:
                    if factor(sq, budget_ms=_budget_left(budget_ms, start)).is_squarefree():
                        left = _budget_left(budget_ms, start)
                        verdict = montes_certificate(poly, budget_ms=left).verdict
                except BudgetExceededError:
                    verdict = "not_certified"
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

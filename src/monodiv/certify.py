"""Monogenicity certificates for the quartic family T^4 - 6T^2 - alpha*T - 3.

The certifier walks the prime-by-prime analysis: p = 2 (only when alpha is
even; development base T - 1), p = 3 (base T, T - 4 or T + 4 according to
alpha mod 3), and every odd p >= 5 dividing (alpha - 8)(alpha + 8), with the
development base T - T0 placed at the singular Fueter coordinate.  Each row
of a certificate is the `IndexReport` of its prime: the polygon index bound
must be exactly zero and Dedekind's criterion (`IndexReport.dedekind`) must
hold.  `_row` builds that report from the T0-development of the quartic in
closed form, with the proof in a comment, and falls back to the generic
`index_report` pass only where that proof does not apply, which no alpha
satisfying the hypothesis reaches.  `montes_certificate`, and with it the
survey, runs the generic pass at every prime, as the `index` command does.

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
from .newton import (  # noqa: F401
    IndexReport,
    PhiReport,
    _polygon_from_values,
    dedekind_p_maximal,
    index_report,
)
from .poly import PolyFq, PolyInt, PolyModP, discriminant, resultant
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
        # s = r mod 2 as s^2 - r^2 = 4*prod, so a, c = (s +- r)/2 are integers with ac = prod
        for a_coef in {(s + r) // 2, (s - r) // 2}:
            if a_coef * d + b * (s - a_coef) == c1:
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


# The row of one prime p of the certificate comes from the development
# Phi(y + t0) = sum a_j y^j at the lift T - t0, whose coefficients have a
# closed form: a4 = 1, a3 = 4 t0, a2 = 6 t0^2 - 6, a1 = Phi'(t0) =
# 4 t0^3 - 12 t0 - alpha, a0 = Phi(t0).  t0 is the root of the repeated factor
# of Phi mod p: 1 at p = 2 (Phi-bar = (T + 1)^4); 0, 4, -4 at p = 3 as alpha
# is 0, 1, 2 mod 3 (Phi-bar = T^4 - alpha T = T (T - alpha)^3); for p >= 5, the
# singular Fueter point of tate_curve(alpha, 1) mod p
# (`valuation.singular_fueter_T`): p - 1 when p | alpha - 8 (Phi-bar =
# (T + 1)^3 (T - 3), as Phi - (T + 1)^3 (T - 3) = -(alpha - 8) T) and 1 when
# p | alpha + 8 (T -> -T).  Let e be the first j with v_p(a_j) = 0: the
# multiplicity of T - t0 in Phi mod p.  When v_p(a0) = 1 and e >= deg Phi - 1:
# - hull: 0 < j < e gives v_p(a_j) >= 1 > 1 - j/e, so the polygon is the one
#   side (0, 1)-(e, 0), of degree gcd(1, e) = 1.  It has no lattice point
#   with x, y >= 1, and its residual (a0/p) + a_e y has degree 1, so it is
#   separable: ind_p = 0, and exactly.
# - Dedekind: F = (Phi - prod)/p, and prod vanishes at the lift t~ = t0 mod p
#   of the root that `_dedekind` takes, so F(t~) = Phi(t~)/p.  As
#   Phi(t0 + kp) = Phi(t0) + kp Phi'(t0) mod p^2 and p | Phi'(t0) = a1 when
#   e >= 2, Phi(t~) = a0 mod p^2, so F-bar(t0) != 0: T - t0 does not divide
#   F-bar.
# - no other repeated factor: with e >= 3 the cofactor of (T - t0)^e has
#   degree <= 1.
# The hypothesis (alpha -+ 8 squarefree) gives e >= 3 by the factorizations
# above, and v_p(a0) = 1:
# - p >= 5: a0 = Phi(p - 1) = Phi(-1) + p Phi'(-1) = (alpha - 8)(1 - p) mod p^2
#   when p | alpha - 8, and a0 = Phi(1) = -(alpha + 8) when p | alpha + 8;
# - p = 2: a0 = Phi(1) = -(alpha + 8);
# - p = 3, 3 | alpha: a0 = Phi(0) = -3;
# - p = 3, alpha = +-1 mod 3: a0 = Phi(+-4) = 157 -+ 4 alpha = -+4 (alpha -+ 1)
#   mod 9, and 9 | alpha -+ 1 iff 9 | alpha +- 8.
# So `index_report`, the generic pass, only builds the rows of other alphas.
def _row(f3: PolyInt, alpha: int, p: int) -> IndexReport:
    """The `IndexReport` of the quartic f3 = three_torsion_quartic(alpha) at a
    prime p of its certificate (3 or a prime of alpha -+ 8), at the lift
    T - t0 of the curve analysis.  Built in closed form when the hypothesis
    holds at p; `index_report` otherwise."""
    if p == 2:
        t0 = 1
    elif p == 3:
        t0 = (0, 4, -4)[alpha % 3]
    elif (alpha - 8) % p == 0:
        t0 = p - 1
    else:
        t0 = 1
    lift = PolyInt((-t0, 1))
    a = (t0**4 - 6 * t0**2 - alpha * t0 - 3, 4 * t0**3 - 12 * t0 - alpha, 6 * t0**2 - 6, 4 * t0, 1)
    values = [vp(c, p) if c else None for c in a]
    e = values.index(0)
    if values[0] != 1 or e < f3.degree - 1:
        return index_report(f3, p, lifts=[lift])
    residual = PolyFq(lift.reduce_mod(p), [PolyModP(p, (a[0] // p,)), PolyModP(p, (a[e],))])
    phi_report = PhiReport(
        phi=lift,
        exponent=e,
        polygon=_polygon_from_values(values),
        a0_val=1,
        ind_phi=0,
        regular=True,
        residuals=(residual,),
    )
    return IndexReport(p=p, per_phi=(phi_report,), ind_p_lower_bound=0, exact=True, dedekind=True)


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
    reports = [_row(f3, alpha, p) for p in sorted({3} | bad)]
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

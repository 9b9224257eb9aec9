"""Closed-form Kodaira classification for the Tate-normal-form family.

For odd bad primes the type is decided by which of beta, alpha - 8 beta,
alpha + 8 beta the prime divides (`valuation.singular_case`; the cases are
mutually exclusive for coprime parameters);
p = 2 needs its own case analysis on v_2(alpha + 8 beta).  `classify` picks
one of the two.  Conductor exponent
f and component count c are reported only where the closed forms state them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .arith import _budget_left, factor, legendre, vp
from .elliptic import tate_curve
from .errors import MathDomainError
from .valuation import singular_case


@dataclass(frozen=True)
class KodairaType:
    """Reduction type: kind in {"good", "I", "I*", "III", "III*"} (+ index n)."""

    kind: str
    n: int | None = None

    def __str__(self) -> str:
        if self.kind == "I":
            return f"I_{self.n}"
        if self.kind == "I*":
            return f"I*_{self.n}"
        return self.kind

    @property
    def geometric_components(self) -> int | None:
        """Component count m of the special fiber (Ogg: v(Delta_min) = f + m - 1)."""
        if self.kind == "I":
            return self.n
        if self.kind == "I*":
            return self.n + 5
        if self.kind == "good":
            return 1
        return None


@dataclass(frozen=True)
class ReductionData:
    """Local reduction data at one prime."""

    p: int
    kodaira: KodairaType
    f: int | None
    c: int | None
    case_tag: str
    minimal_shift_w: int


def classify_odd(alpha: int, beta: int, p: int) -> ReductionData:
    """Kodaira type, conductor exponent, component count at an odd bad prime."""
    curve = tate_curve(alpha, beta)
    if p == 2:
        raise MathDomainError("classify_odd needs an odd prime")
    case = singular_case(curve, p)
    v = case.v
    if case.tag == "beta":
        kind, n, f, c, tag, w = "I", 4 * v, 1, 4 * v, "tate1-1", 0
    elif case.tag == "minus" and p % 4 == 1:
        kind, n, f, c, tag, w = "I", v, 1, v, "tate1-2a", 0
    elif case.tag == "minus":
        kind, n, f, c, tag, w = "I", v, 1, 1 if v % 2 else 2, "tate1-2b", 0
    elif v % 2:
        kind, n, f, c, tag, w = "I*", v, 2, 4, "tate1-3a", v // 2
    else:
        unit = beta * curve.a // p**v  # v = 2w
        c = v if legendre(unit, p) == 1 else 2
        kind, n, f, tag, w = "I", v, 1, "tate1-3b", v // 2
    return ReductionData(p, KodairaType(kind, n), f, c, tag, w)


def classify_two(alpha: int, beta: int) -> ReductionData:
    """Reduction data at p = 2 (bad iff 2 | beta or 2 | alpha)."""
    a = tate_curve(alpha, beta).a
    if beta % 2 == 0:
        # same analysis as the odd beta-divisibility case, with p = 2
        v = vp(beta, 2)
        return ReductionData(2, KodairaType("I", 4 * v), 1, 4 * v, "tate2-beta", 0)
    if a % 2:
        raise MathDomainError("good reduction at p = 2")
    v = vp(a, 2)
    if v == 1:
        return ReductionData(2, KodairaType("I*", 1), 3, 4, "tate2-1", 0)
    w = v // 2
    # t1 is read for even v >= 4 only: there the stated (beta*a + 4a - 16)/32
    # is the w = 2 instance of the general (beta*a + 2^w a - 2^(2w)) / 2^(2w+1)
    t1 = (beta * a + 2**w * a - 2 ** (2 * w)) // 2 ** (2 * w + 1)
    if v == 2:
        kind, n, tag = "III", None, "tate2-2"
    elif v % 2:
        kind, n, tag = "I*", v, "tate2-3"
    elif v == 4 and t1 % 2:
        kind, n, tag = "I*", 0, "tate2-4"
    elif v == 4 and (beta * a * a // 2**8) % 4 == 1:
        kind, n, tag = "I*", 2, "tate2-5a"
    elif v == 4:
        kind, n, tag = "I*", 3, "tate2-5b"
    elif t1 % 2:
        kind, n, tag = "I*", v - 4, "tate2-6a"
    elif v == 6:
        kind, n, tag = "III*", None, "tate2-6bi"
    elif v == 8:
        kind, n, tag = "good", None, "tate2-6bii"
    else:
        kind, n, tag = "I", v - 8, "tate2-6biii"
    return ReductionData(2, KodairaType(kind, n), None, None, tag, w)


def bad_primes(alpha: int, beta: int, budget_ms: int | None = None) -> list[int]:
    """Primes dividing Delta = beta^4 (alpha - 8 beta) (alpha + 8 beta)^7,
    the three factorizations under one budget."""
    tate_curve(alpha, beta)
    start = time.monotonic()
    primes: set[int] = set()
    for part in (beta, alpha - 8 * beta, alpha + 8 * beta):
        if part not in (1, -1):
            primes.update(factor(part, budget_ms=_budget_left(budget_ms, start)).primes())
    return sorted(primes)


def classify(alpha: int, beta: int, p: int) -> ReductionData:
    """Reduction data at one bad prime: `classify_two` at 2, `classify_odd` else."""
    return classify_two(alpha, beta) if p == 2 else classify_odd(alpha, beta, p)


def reduction_table(
    alpha: int, beta: int, budget_ms: int | None = None
) -> list[ReductionData]:
    """Reduction data at every bad prime, ascending."""
    rows = [classify(alpha, beta, p) for p in bad_primes(alpha, beta, budget_ms=budget_ms)]
    # only p = 2 can read "good" (v_2(a) = 8): nonsingular at 2 after the
    # coordinate changes, so 2 divides Delta of the given model but is not a
    # bad prime
    return [r for r in rows if r.kodaira.kind != "good"]

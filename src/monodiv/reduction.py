"""Closed-form Kodaira classification for the Tate-normal-form family.

For odd bad primes the type is decided by which of beta, alpha - 8 beta,
alpha + 8 beta the prime divides (`valuation.singular_case`; the cases are
mutually exclusive for coprime parameters);
p = 2 needs its own case analysis on v_2(alpha + 8 beta).  Conductor exponent
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
        return ReductionData(
            p=p,
            kodaira=KodairaType("I", 4 * v),
            f=1,
            c=4 * v,
            case_tag="tate1-1",
            minimal_shift_w=0,
        )
    if case.tag == "minus":
        if p % 4 == 1:
            c = v
            tag = "tate1-2a"
        else:
            c = 1 if v % 2 else 2
            tag = "tate1-2b"
        return ReductionData(
            p=p,
            kodaira=KodairaType("I", v),
            f=1,
            c=c,
            case_tag=tag,
            minimal_shift_w=0,
        )
    w = v // 2
    if v % 2:
        return ReductionData(
            p=p,
            kodaira=KodairaType("I*", v),
            f=2,
            c=4,
            case_tag="tate1-3a",
            minimal_shift_w=w,
        )
    unit = beta * curve.a // p ** (2 * w)
    c = v if legendre(unit, p) == 1 else 2
    return ReductionData(
        p=p,
        kodaira=KodairaType("I", v),
        f=1,
        c=c,
        case_tag="tate1-3b",
        minimal_shift_w=w,
    )


def classify_two(alpha: int, beta: int) -> ReductionData:
    """Reduction data at p = 2 (bad iff 2 | beta or 2 | alpha)."""
    a = tate_curve(alpha, beta).a
    if beta % 2 == 0:
        # same analysis as the odd beta-divisibility case, with p = 2
        v = vp(beta, 2)
        return ReductionData(
            p=2,
            kodaira=KodairaType("I", 4 * v),
            f=1,
            c=4 * v,
            case_tag="tate2-beta",
            minimal_shift_w=0,
        )
    if a % 2:
        raise MathDomainError("good reduction at p = 2")
    v = vp(a, 2)
    w = v // 2
    if v == 1:
        return ReductionData(
            p=2,
            kodaira=KodairaType("I*", 1),
            f=3,
            c=4,
            case_tag="tate2-1",
            minimal_shift_w=0,
        )
    if v == 2:
        return ReductionData(
            p=2, kodaira=KodairaType("III"), f=None, c=None,
            case_tag="tate2-2", minimal_shift_w=w,
        )
    if v % 2:
        return ReductionData(
            p=2, kodaira=KodairaType("I*", v), f=None, c=None,
            case_tag="tate2-3", minimal_shift_w=w,
        )
    # v even, v >= 4: the stated (beta*a + 4a - 16)/32 is the w = 2 instance
    # of the general (beta*a + 2^w a - 2^(2w)) / 2^(2w+1)
    t1 = (beta * a + 2**w * a - 2 ** (2 * w)) // 2 ** (2 * w + 1)
    if v == 4:
        if t1 % 2:
            return ReductionData(
                p=2, kodaira=KodairaType("I*", 0), f=None, c=None,
                case_tag="tate2-4", minimal_shift_w=w,
            )
        u = beta * a * a // 2**8
        if u % 4 == 1:
            return ReductionData(
                p=2, kodaira=KodairaType("I*", 2), f=None, c=None,
                case_tag="tate2-5a", minimal_shift_w=w,
            )
        return ReductionData(
            p=2, kodaira=KodairaType("I*", 3), f=None, c=None,
            case_tag="tate2-5b", minimal_shift_w=w,
        )
    if t1 % 2:
        return ReductionData(
            p=2, kodaira=KodairaType("I*", v - 4), f=None, c=None,
            case_tag="tate2-6a", minimal_shift_w=w,
        )
    if v == 6:
        return ReductionData(
            p=2, kodaira=KodairaType("III*"), f=None, c=None,
            case_tag="tate2-6bi", minimal_shift_w=w,
        )
    if v == 8:
        return ReductionData(
            p=2, kodaira=KodairaType("good"), f=None, c=None,
            case_tag="tate2-6bii", minimal_shift_w=w,
        )
    return ReductionData(
        p=2, kodaira=KodairaType("I", v - 8), f=None, c=None,
        case_tag="tate2-6biii", minimal_shift_w=w,
    )


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


def reduction_table(
    alpha: int, beta: int, budget_ms: int | None = None
) -> list[ReductionData]:
    """Reduction data at every bad prime, ascending."""
    out = []
    for p in bad_primes(alpha, beta, budget_ms=budget_ms):
        if p == 2:
            data = classify_two(alpha, beta)
            # v_2(a) = 8: nonsingular at 2 after the coordinate changes, so
            # 2 divides Delta of the given model but is not a bad prime
            if data.kodaira.kind == "good":
                continue
            out.append(data)
        else:
            out.append(classify_odd(alpha, beta, p))
    return out

"""Workload inputs, operations and correctness checks for the monodiv benchmark.

Each workload turns a seed into an endless stream of inputs, runs one
operation per input through the public monodiv API, and checks the result
outside the timed region.  The library only ever sees the generated alphas
and curves.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace
from typing import Callable, Iterator

# Every benchmark run also runs the first ops of this seed (the anchors) once;
# for the certify workloads their semantic digest must match reference.json.
ANCHOR_SEED = "anchor"

SCAN_LIMIT = 10_000
SCAN_WINDOW = 4000
SCAN_CHUNK = 10
LARGE_BITS = (59, 61)
# Far above the slowest certify op (~0.1 s), so a budget hit is a fault.
LARGE_BUDGET_MS = 60_000
# Every block of 9 torsion ops holds each (n, m) pair once, so the cost mix
# of a run does not depend on the seed.  psi_9 and F_9 have degree 40.
TORSION_N = (5, 7, 9)
TORSION_M = (3, 5, 7)


def load_library() -> SimpleNamespace:
    """The monodiv modules the workloads call, looked up at call time so the
    traced run can patch them."""
    names = ("arith", "certify", "elliptic", "poly", "valuation")
    return SimpleNamespace(
        **{name: importlib.import_module(f"monodiv.{name}") for name in names}
    )


# ---------------------------------------------------------------------------
# certify workloads


def scan_small_inputs(seed) -> Iterator[range]:
    """Chunks of consecutive alphas from a seeded window with |alpha| <= 10^4,
    the window repeated.

    About half the alphas fail the squarefree hypothesis within microseconds
    and the rest take milliseconds, so one alpha per op would put the median
    latency on the edge between the two; a chunk mixes both."""
    rng = random.Random(f"scan_small/{seed}")
    start = rng.randrange(-SCAN_LIMIT, SCAN_LIMIT - SCAN_WINDOW + 1)
    while True:
        for lo in range(start, start + SCAN_WINDOW, SCAN_CHUNK):
            yield range(lo, lo + SCAN_CHUNK)


def certify_large_inputs(seed) -> Iterator[tuple[int]]:
    """One signed alpha with 2^59 <= |alpha| < 2^61 per op."""
    rng = random.Random(f"certify_large/{seed}")
    lo, hi = LARGE_BITS
    while True:
        yield (rng.choice((-1, 1)) * rng.randrange(2**lo, 2**hi),)


def certify_op(lib, alphas) -> list[str]:
    return [
        lib.certify.certify(alpha, budget_ms=LARGE_BUDGET_MS).to_json() for alpha in alphas
    ]


def check_certificates(alphas, texts: list[str]) -> str | None:
    for alpha, text in zip(alphas, texts, strict=True):
        error = check_certificate(alpha, text)
        if error is not None:
            return error
    return None


def check_certificate(alpha: int, text: str) -> str | None:
    """Invariants every certificate must satisfy; returns a failure or None."""
    doc = json.loads(text)
    if doc["alpha"] != alpha:
        return f"alpha {alpha}: certificate names alpha {doc['alpha']}"
    verdict = doc["verdict"]
    if verdict == "hypothesis_failed":
        return None
    if verdict != "monogenic":
        return f"alpha {alpha}: verdict {verdict} ({doc.get('reason')})"
    if doc["field_disc"] != str(-27 * (alpha - 8) ** 2 * (alpha + 8) ** 2):
        return f"alpha {alpha}: field_disc {doc['field_disc']} is not -27(a-8)^2(a+8)^2"
    rows = doc["primes"]
    if not all(r["ind_p"] == 0 and r["exact"] and r["dedekind"] for r in rows):
        return f"alpha {alpha}: monogenic with a nonzero, inexact or non-maximal prime"
    # The listed primes must factor alpha - 8 and alpha + 8 completely, each
    # prime once: the squarefree hypothesis behind the verdict.
    listed = [r["p"] for r in rows]
    for part in (alpha - 8, alpha + 8):
        rest = abs(part)
        for p in listed:
            if rest % p == 0:
                rest //= p
        if rest != 1:
            return f"alpha {alpha}: listed primes do not factor {part} squarefree"
    return None


def semantic_record(text: str) -> list:
    """The fields a certificate asserts, independent of its JSON layout."""
    doc = json.loads(text)
    return [
        doc["alpha"],
        doc["verdict"],
        [[r["p"], r["ind_p"], r["exact"], r["dedekind"]] for r in doc["primes"]],
        doc["field_disc"],
        # each trust caveat names one probable prime, the largest number in it
        sorted(max(int(tok) for tok in re.findall(r"\d+", entry)) for entry in doc["trust"]),
    ]


def digest(outputs: list[list[str]]) -> str:
    """Digest of the certificates of a list of certify_op outputs."""
    records = [semantic_record(text) for texts in outputs for text in texts]
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


# ---------------------------------------------------------------------------
# torsion workload


@dataclass(frozen=True)
class TorsionCase:
    alpha: int
    beta: int
    n: int  # odd index of psi_n / F_n
    p: int  # odd bad prime for the valuation check
    T: Fraction  # point for the psi/Fueter identity
    m: int  # odd index for the discriminant check


def _least_odd_prime_factor(x: int) -> int | None:
    x = abs(x)
    while x % 2 == 0:
        x //= 2
    d = 3
    while d * d <= x:
        if x % d == 0:
            return d
        d += 2
    return x if x > 1 else None


def torsion_inputs(seed) -> Iterator[TorsionCase]:
    """Fresh coprime Tate curves, never repeated within a stream."""
    rng = random.Random(f"torsion/{seed}")
    mix = [(n, m) for n in TORSION_N for m in TORSION_M]
    used: set[tuple[int, int]] = set()
    while True:
        block = mix[:]
        rng.shuffle(block)
        for n, m in block:
            while True:
                beta = rng.randint(1, 40)
                alpha = rng.randint(-1500, 1500)
                if (alpha, beta) in used or math.gcd(alpha, beta) != 1:
                    continue
                if alpha in (8 * beta, -8 * beta):
                    continue
                odd = [
                    q
                    for q in map(_least_odd_prime_factor, (beta, alpha - 8 * beta, alpha + 8 * beta))
                    if q is not None
                ]
                if odd:
                    break
            used.add((alpha, beta))
            T = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
            yield TorsionCase(alpha, beta, n, min(odd), T, m)


def torsion_op(lib, case: TorsionCase) -> tuple[bool, ...]:
    ell, val = lib.elliptic, lib.valuation
    curve = ell.tate_curve(case.alpha, case.beta)
    n = case.n
    f_n = ell.fueter(curve, n)
    psi_n = ell.psi(curve.weierstrass, n)
    sing = val.singular_case(curve, case.p)
    f_m = ell.fueter(curve, case.m)
    return (
        f_n.poly.degree == psi_n.poly.degree == (n * n - 1) // 2,
        val.predicted_valuation(sing, n) == val.observed_psi_valuation(curve, sing, n),
        val.predicted_fueter_valuation(sing, n)
        == val.observed_fueter_valuation(curve, sing, n),
        ell.psi_fueter_identity_check(curve, n, case.T),
        lib.poly.discriminant(f_m.poly) == ell.fueter_disc(case.m, case.alpha, case.beta),
    )


_TORSION_CHECKS = ("degree", "psi valuation", "Fueter valuation", "psi/Fueter identity", "disc(F_m)")


def check_torsion(case: TorsionCase, results: tuple[bool, ...]) -> str | None:
    wrong = [name for name, ok in zip(_TORSION_CHECKS, results) if not ok]
    return f"{case}: {', '.join(wrong)} check failed" if wrong else None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[object], Iterator]
    op: Callable
    check: Callable[[object, object], str | None]
    anchors: int  # ops drawn from ANCHOR_SEED and checked once per run
    trace_ops: int  # fixed op count of the traced run
    setup_argv: tuple[str, ...]  # trivial CLI request of this workload's kind
    setup_stdout: Callable[[str], bool]
    has_reference: bool
    sieves: bool  # whether the ops reach arith's lazy prime sieve


def _certify_stdout_ok(out: str) -> bool:
    try:
        return json.loads(out)["verdict"] == "monogenic"
    except (ValueError, KeyError, TypeError):
        return False


WORKLOADS = {
    "scan_small": Workload(
        scan_small_inputs, certify_op, check_certificates, anchors=20, trace_ops=100,
        setup_argv=("certify", "--alpha", "2", "--json"),
        setup_stdout=_certify_stdout_ok, has_reference=True, sieves=True,
    ),
    "certify_large": Workload(
        certify_large_inputs, certify_op, check_certificates, anchors=30, trace_ops=150,
        setup_argv=("certify", "--alpha", "2", "--json"),
        setup_stdout=_certify_stdout_ok, has_reference=True, sieves=True,
    ),
    "torsion": Workload(
        torsion_inputs, torsion_op, check_torsion, anchors=2, trace_ops=90,
        setup_argv=("fueter", "--alpha", "2", "--beta", "1", "--n", "3"),
        setup_stdout=lambda out: out.strip() == "-3,-2,-6,0,1", has_reference=False,
        sieves=False,
    ),
}


def run_anchors(lib, name: str) -> tuple[list, list]:
    """Run the anchor ops of a workload (untimed); return inputs and outputs."""
    w = WORKLOADS[name]
    inputs = list(islice(w.inputs(ANCHOR_SEED), w.anchors))
    return inputs, [w.op(lib, x) for x in inputs]

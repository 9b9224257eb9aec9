"""Exact integer utilities: valuations, factorization, squarefree tests, symbols.

``factor`` runs in two halves.  ``trial_walk`` trial-divides by the 564
primes below 2^12, walking blocks of consecutive primes and dividing by a
block's primes only when n shares a factor with their product (Bernstein,
"How to find smooth parts of integers", 2004): one gcd clears a block that
divides nothing.  ``complete_walk`` factors what the walk leaves: no prime
below 2^12 divides it, so a part below 2^24 is prime, and a larger one is
split with Brent's rho (Brent, BIT 20, 1980), which finds a prime factor
between 2^12 and 2^16 in a few hundred steps, sooner than a longer trial walk
would; each prime part is proved prime once.  Rho multiplies two steps into
its product per reduction mod n.  A caller that needs only part
of the answer stops after the walk: a square it shows (``shows_square``)
decides squarefreeness, and ``walk_probable`` reads the probable primes off
the cofactor, running rho only for a composite cofactor of
DETERMINISTIC_BOUND * 2^12 or more.  Everything is deterministic for a fixed
input.  Primality is a strong probable-prime test to the first k prime
bases, k read off the proven strong-pseudoprime bounds psi_k; below
DETERMINISTIC_BOUND the test is labelled exact, above it a "prime" verdict
counts as probable, and ``Factorization.probable`` reads those primes off
the factors.  The blocks of primes are built once, at import.

A request has one deadline: the six entry points that take ``budget_ms``
open a ``_Request``, a context variable (PEP 567) holds the deadline for
everything they call, and only rho reads it.
"""

from __future__ import annotations

import math
import time
from contextvars import ContextVar
from fractions import Fraction
from itertools import count
from typing import NamedTuple

from .errors import BudgetExceededError, InfiniteValuationError, MathDomainError

# First twelve primes as SPRP bases.  (psi_k, k): psi_k is the least odd
# composite that passes the first k of them (OEIS A014233), so below psi_k
# those k bases decide primality exactly.  psi_1..psi_4: Pomerance,
# Selfridge and Wagstaff, Math. Comp. 35, 1980; psi_5..psi_7: Jaeschke,
# Math. Comp. 61, 1993; psi_9: Jiang and Deng, Math. Comp. 83, 2014.  psi_8
# equals psi_7, so the table steps from seven bases to nine.  At psi_9 and
# above all twelve run.
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
)
DETERMINISTIC_BOUND = 330_000_000_000_000

_TRIAL_BOUND = 2**12
_BLOCK_SIZE = 64


def vp(x: int, p: int) -> int:
    """Largest k with p**k | x.  Raises InfiniteValuationError for x = 0."""
    if x == 0:
        raise InfiniteValuationError("p-adic valuation of 0 is infinite")
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def vp_fraction(q: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational (negative for denominators)."""
    q = Fraction(q)
    if q == 0:
        raise InfiniteValuationError("p-adic valuation of 0 is infinite")
    return vp(q.numerator, p) - vp(q.denominator, p)


def small_primes() -> list[int]:
    """The primes below 2^12, the trial-division bound, by a fresh sieve of
    Eratosthenes on each call."""
    sieve = bytearray([1]) * _TRIAL_BOUND
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(_TRIAL_BOUND) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(_TRIAL_BOUND) if sieve[i]]


# (first prime squared, product, primes) of each block of _BLOCK_SIZE primes
_PRIME_BLOCKS = tuple(
    (block[0] ** 2, math.prod(block), block)
    for primes in [tuple(small_primes())]
    for block in (primes[i : i + _BLOCK_SIZE] for i in range(0, len(primes), _BLOCK_SIZE))
)


def is_probable_prime(n: int) -> bool:
    """Strong probable-prime test to the first k of the twelve bases, k the
    least with n < psi_k in ``_PSI``, so the verdict is exact below psi_9
    (about 3.8e18); at psi_9 and above all twelve bases run."""
    if n < 2:
        return False
    for p in _SPRP_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in next((_SPRP_BASES[:k] for psi, k in _PSI if n < psi), _SPRP_BASES):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Reject a modulus that is not prime; probable primes above
    DETERMINISTIC_BOUND pass (certificates list them on ``trust``)."""
    if not is_probable_prime(p):
        raise MathDomainError(f"p = {p} is not a prime")


# The running request's time.monotonic() deadline, None for none.
_DEADLINE: ContextVar[float | None] = ContextVar("deadline", default=None)


class _Request:
    """One request's scope: sets the deadline ``budget_ms`` from now and
    restores the one before on exit.  ``budget_ms=None`` sets nothing, so an
    entry point called inside a request keeps that request's deadline."""

    __slots__ = ("budget_ms", "token")

    def __init__(self, budget_ms: int | None):
        self.budget_ms = budget_ms

    def __enter__(self) -> None:
        if self.budget_ms is not None:
            self.token = _DEADLINE.set(time.monotonic() + self.budget_ms / 1000.0)

    def __exit__(self, *exc) -> None:
        if self.budget_ms is not None:
            _DEADLINE.reset(self.token)


def _integer_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1."""
    if n < 2:
        return n
    r = 1 << (n.bit_length() // k + 1)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(n: int) -> tuple[int, int] | None:
    """Return (b, k) with b**k == n and k > 1, or None.

    n must have no prime factor below _TRIAL_BOUND, as every number on
    ``factor``'s stack has none.  A root b is then at least the bound, so
    only the prime exponents k with _TRIAL_BOUND**k <= n are tried.
    """
    for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if _TRIAL_BOUND**k > n:
            break
        b = _integer_nth_root(n, k)
        if b**k == n:
            return b, k
    return None


def _brent_rho(n: int) -> int:
    """Deterministic Brent cycle-finding split of an odd composite n."""
    # The request's deadline is checked once per batch of at most 128 steps,
    # so a run overshoots its budget by one batch at most, however long it
    # grows.  x - y is not made positive: that changes q only by a sign mod
    # n, and gcd(+-q, n) is the same.
    deadline = _DEADLINE.get()
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for done in range(0, r, 128):
                if deadline is not None and time.monotonic() > deadline:
                    raise BudgetExceededError(f"factorization budget exhausted on {n}")
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                if deadline is not None and time.monotonic() > deadline:
                    raise BudgetExceededError(f"factorization budget exhausted on {n}")
                ys = y
                # two steps per reduction of q: the same residue at every gcd
                m = min(128, r - k)
                for _ in range(m // 2):
                    y1 = (y * y + c) % n
                    y = (y1 * y1 + c) % n
                    q = q * (x - y1) * (x - y) % n
                if m % 2:
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        # cycle collapsed; retry with the next polynomial x^2 + c


class Factorization(NamedTuple):
    """Signed prime factorization with strictly increasing primes.

    ``probable`` lists the prime factors at or above DETERMINISTIC_BOUND,
    only probable primes; certificates surface these as trust caveats.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    @property
    def probable(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors if p >= DETERMINISTIC_BOUND)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


class TrialWalk(NamedTuple):
    """What trial division leaves of x = sign * prod(p**e) * cofactor.

    ``small`` holds the primes below 2^12 that divide x, increasing, with
    their exponents.  The walk stops early only once the cofactor is below
    the square of the next prime, so the cofactor is 1, a prime, or a
    composite with no prime factor below 2^12.
    """

    sign: int
    small: tuple[tuple[int, int], ...]
    cofactor: int

    def shows_square(self) -> bool:
        """Whether the square of a prime below 2^12 divides x."""
        return any(e > 1 for _, e in self.small)


def trial_walk(x: int) -> TrialWalk:
    """Trial division of a nonzero integer over the prime blocks built at
    import, dividing only by a block whose product shares a factor with n."""
    if x == 0:
        raise ValueError("cannot factor 0")
    n = abs(x)
    small = []
    for first_squared, product, block in _PRIME_BLOCKS:
        if first_squared > n:
            break
        if math.gcd(n, product) == 1:
            continue
        for p in block:
            if p * p > n:
                break
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                small.append((p, e))
    return TrialWalk(-1 if x < 0 else 1, tuple(small), n)


def complete_walk(walk: TrialWalk) -> Factorization:
    """The factorization of the walked number: deterministic Brent rho
    splitting of the cofactor, on a stack of (part, multiplicity) pairs, so
    each part is tested, rooted or split once.  Only rho reads the deadline."""
    found = dict(walk.small)
    stack = [(walk.cofactor, 1)] if walk.cofactor > 1 else []
    while stack:
        m, e = stack.pop()
        # A part already found is prime.  No prime below 2^12 divides a part
        # (see TrialWalk), so a part below 2^24 is prime.
        if m in found or m < _TRIAL_BOUND * _TRIAL_BOUND or is_probable_prime(m):
            found[m] = found.get(m, 0) + e
            continue
        power = _perfect_power(m)
        if power is not None:
            b, k = power
            stack.append((b, k * e))
            continue
        d = _brent_rho(m)
        stack.extend([(d, e), (m // d, e)])
    return Factorization(sign=walk.sign, factors=tuple(sorted(found.items())))


# The trust-bound rule of walk_probable.  Let m be the cofactor and
# B = 2^12.  The primes in ``small`` are below B, so below
# DETERMINISTIC_BOUND, and the probable primes are those of m.
# - m < DETERMINISTIC_BOUND: every prime factor of m is below the bound.
# - m prime: complete_walk lists m, as the same is_probable_prime verdict.
# - m composite: m has no prime factor below B (see TrialWalk).  A prime
#   q >= DETERMINISTIC_BOUND dividing m would leave 1 < m/q, whose prime
#   factors are all >= B, so m >= q B >= DETERMINISTIC_BOUND B.  Below that,
#   no prime factor of m reaches the bound, and nothing is listed.
#   is_probable_prime says "composite" only of composites.
# [test_walk_probable_matches_complete_walk]
def walk_probable(walk: TrialWalk) -> tuple[int, ...]:
    """``complete_walk(walk).probable``: the primes at or above
    DETERMINISTIC_BOUND of the walked number, with rho (and so the deadline)
    only for a composite cofactor of DETERMINISTIC_BOUND * 2^12 or more."""
    m = walk.cofactor
    if m < DETERMINISTIC_BOUND:
        return ()
    if m < DETERMINISTIC_BOUND * _TRIAL_BOUND:
        return (m,) if is_probable_prime(m) else ()
    return complete_walk(walk).probable


def factor(x: int, budget_ms: int | None = None) -> Factorization:
    """Complete factorization of a nonzero integer: `trial_walk`, then
    `complete_walk`.

    Only rho reads the budget, so ``budget_ms=0`` still returns whenever no
    rho work remains: ``factor(4093 * 4099, budget_ms=0)`` returns, while
    4099 * 4111, a composite above 2^24, needs rho and raises.  Raises
    BudgetExceededError rather than returning a partial answer.
    """
    with _Request(budget_ms):
        return complete_walk(trial_walk(x))


def is_squarefree(x: int) -> bool:
    """True iff no prime square divides x (x nonzero).  A square of a prime
    below 2^12 answers False with no rho."""
    if x == 0:
        raise ValueError("squarefreeness of 0 is undefined")
    walk = trial_walk(x)
    return not walk.shows_square() and complete_walk(walk).is_squarefree()


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p."""
    if p == 2 or p < 2:
        raise ValueError("p must be an odd prime")
    require_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def divisors(x: int) -> list[int]:
    """Positive divisors of a nonzero integer, ascending."""
    out = [1]
    for p, e in factor(x).factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)

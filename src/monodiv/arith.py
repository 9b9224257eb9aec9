"""Exact integer utilities: valuations, factorization, squarefree tests, symbols.

``factor`` trial-divides by the primes below 2^16 and splits what is left
with Brent's rho (Brent, BIT 20, 1980), which finds factors of a 60-bit
cofactor much sooner than trial division to a larger bound would.  Trial
division walks blocks of consecutive primes and divides by a block's primes
only when n shares a factor with their product (Bernstein, "How to find
smooth parts of integers", 2004): one gcd clears a block that divides nothing.
Everything is deterministic for a fixed input.  Primality is a strong
probable-prime test to a fixed base set; below DETERMINISTIC_BOUND that test
is known to be exact, above it a "prime" verdict is only probable and
factorizations record the caveat in ``Factorization.probable``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count

from .errors import BudgetExceededError, InfiniteValuationError, MathDomainError

# First twelve primes as SPRP bases.  The first seven already make the test
# deterministic below psi_7 = 341550071728321 (Jaeschke, Math. Comp. 61,
# 1993), so below the certified-trust threshold, which stays under psi_7,
# only those seven run.
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
DETERMINISTIC_BOUND = 330_000_000_000_000
_DETERMINISTIC_BASES = _SPRP_BASES[:7]

_TRIAL_BOUND = 2**16
_BLOCK_SIZE = 64
_small_primes: list[int] | None = None
# (first prime squared, product of the block, index of its first prime),
# filled by small_primes()
_prime_blocks: list[tuple[int, int, int]] = []


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
    """Primes below 2^16, sieved once and cached together with the blocks
    of _BLOCK_SIZE consecutive primes that ``factor`` walks."""
    global _small_primes
    if _small_primes is None:
        sieve = bytearray([1]) * _TRIAL_BOUND
        sieve[0] = sieve[1] = 0
        for i in range(2, math.isqrt(_TRIAL_BOUND) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        primes = [i for i in range(_TRIAL_BOUND) if sieve[i]]
        _prime_blocks[:] = [
            (primes[i] ** 2, math.prod(primes[i : i + _BLOCK_SIZE]), i)
            for i in range(0, len(primes), _BLOCK_SIZE)
        ]
        _small_primes = primes
    return _small_primes


def is_probable_prime(n: int) -> bool:
    """Strong probable-prime test to the fixed bases (exact below 3.3e14)."""
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
    for a in _DETERMINISTIC_BASES if n < DETERMINISTIC_BOUND else _SPRP_BASES:
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


def is_certified_prime(p: int) -> bool:
    """True when the probable-prime verdict for p is known deterministic."""
    return p < DETERMINISTIC_BOUND


def _check_deadline(deadline: float | None, what: int) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError(f"factorization budget exhausted on {what}")


def _budget_left(budget_ms: int | None, start: float) -> float | None:
    """What is left of one request's budget since ``start``, floored at 0."""
    if budget_ms is None:
        return None
    return max(0.0, budget_ms - 1000.0 * (time.monotonic() - start))


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
    """Return (b, k) with b**k == n and k > 1, or None."""
    for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if 1 << k > n:
            break
        b = _integer_nth_root(n, k)
        if b**k == n:
            return b, k
    return None


def _brent_rho(n: int, deadline: float | None) -> int:
    """Deterministic Brent cycle-finding split of an odd composite n."""
    # The deadline is checked once per batch of at most 128 steps, so a run
    # overshoots its budget by one batch at most, however long it grows.
    # x - y is not made positive: that changes q only by a sign mod n, and
    # gcd(+-q, n) is the same.
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for done in range(0, r, 128):
                _check_deadline(deadline, n)
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                _check_deadline(deadline, n)
                ys = y
                for _ in range(min(128, r - k)):
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


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization with strictly increasing primes.

    ``probable`` lists any prime factors above the deterministic primality
    bound; certificates surface these as trust caveats.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]
    probable: tuple[int, ...] = field(default=())

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def factor(x: int, budget_ms: int | None = None) -> Factorization:
    """Complete factorization of a nonzero integer.

    Trial division below 2^16, which divides only by the blocks of primes
    whose product shares a factor with n, then deterministic Brent rho
    splitting with probable-prime certification of the cofactors.  Only rho
    reads the budget, so ``budget_ms=0`` still returns whenever no rho work
    remains.  Raises BudgetExceededError rather than returning a partial answer.
    """
    if x == 0:
        raise ValueError("cannot factor 0")
    deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
    sign = -1 if x < 0 else 1
    n = abs(x)
    found: dict[int, int] = {}
    primes = small_primes()
    for first_squared, product, start in _prime_blocks:
        if first_squared > n:
            break
        if math.gcd(n, product) == 1:
            continue
        # indices, not a slice: a list per block raised peak RSS by ~0.2 MB
        for i in range(start, min(start + _BLOCK_SIZE, len(primes))):
            p = primes[i]
            if p * p > n:
                break
            while n % p == 0:
                found[p] = found.get(p, 0) + 1
                n //= p
    if 1 < n < _TRIAL_BOUND * _TRIAL_BOUND:
        # cofactor below the square of the trial bound is prime
        found[n] = found.get(n, 0) + 1
        n = 1
    stack = [n] if n > 1 else []
    probable: set[int] = set()
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            found[m] = found.get(m, 0) + 1
            if not is_certified_prime(m):
                probable.add(m)
            continue
        power = _perfect_power(m)
        if power is not None:
            b, k = power
            stack.extend([b] * k)
            continue
        d = _brent_rho(m, deadline)
        stack.extend([d, m // d])
    return Factorization(
        sign=sign,
        factors=tuple(sorted(found.items())),
        probable=tuple(sorted(probable)),
    )


def is_squarefree(x: int, budget_ms: int | None = None) -> bool:
    """True iff no prime square divides x (x nonzero)."""
    if x == 0:
        raise ValueError("squarefreeness of 0 is undefined")
    return factor(x, budget_ms=budget_ms).is_squarefree()


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p."""
    if p == 2 or p < 2:
        raise ValueError("p must be an odd prime")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def divisors(x: int, budget_ms: int | None = None) -> list[int]:
    """Positive divisors of a nonzero integer, ascending."""
    out = [1]
    for p, e in factor(x, budget_ms=budget_ms).factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)

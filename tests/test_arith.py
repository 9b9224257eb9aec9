import math
import random
import time

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from monodiv import (
    BudgetExceededError,
    InfiniteValuationError,
    factor,
    is_squarefree,
    legendre,
    vp,
)
from monodiv import arith
from monodiv.arith import (
    DETERMINISTIC_BOUND,
    _BLOCK_SIZE,
    _brent_rho,
    _perfect_power,
    divisors,
    is_probable_prime,
    small_primes,
    vp_fraction,
)
from fractions import Fraction


def test_vp_examples():
    assert vp(12, 2) == 2
    assert vp(-27, 3) == 3
    assert vp(105, 3) == 1


def test_vp_zero_is_distinct_error():
    with pytest.raises(InfiniteValuationError):
        vp(0, 5)


def test_vp_fraction():
    assert vp_fraction(Fraction(12, 5), 2) == 2
    assert vp_fraction(Fraction(3, 50), 5) == -2


def test_factor_examples():
    assert factor(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factor(360).sign == 1
    f = factor(-17)
    assert f.sign == -1 and f.factors == ((17, 1),)
    assert factor(10403).factors == ((101, 1), (103, 1))


def test_factor_large_semiprime():
    p, q = 1_000_003, 1_000_033
    f = factor(p * q)
    assert f.factors == ((p, 1), (q, 1))
    assert not f.probable


def test_factor_deterministic():
    n = 2**64 + 1
    assert factor(n) == factor(n)


def test_is_squarefree_examples():
    assert is_squarefree(10)
    assert not is_squarefree(18)
    assert not is_squarefree(-8)


def test_legendre_examples():
    assert legendre(1, 5) == 1
    assert legendre(2, 5) == -1
    assert legendre(10, 5) == 0


def test_legendre_euler_criterion_sweep():
    for p in small_primes()[1:27]:  # odd primes up to 101 inclusive
        if p > 101:
            break
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            expected = -1 if euler == p - 1 else euler
            assert legendre(a, p) == expected


@given(st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0))
def test_factor_reconstructs(n):
    f = factor(n)
    assert f.sign * math.prod(p**e for p, e in f.factors) == n


@given(st.integers(min_value=2, max_value=10**6))
def test_squarefree_iff_all_exponents_one(n):
    f = factor(n)
    assert is_squarefree(n) == all(e == 1 for _, e in f.factors)


def test_probable_prime_agrees_with_sieve():
    primes = set(small_primes()[:200])
    top = small_primes()[199]
    for n in range(2, top + 1):
        assert is_probable_prime(n) == (n in primes)


# Jaeschke's least strong pseudoprimes to the first k prime bases, k = 1..7
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321)


def _is_sprp(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def _twelve_base_verdict(n):
    """The former test: trial division by and SPRP to all twelve bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    return all(_is_sprp(n, a) for a in bases)


def test_seven_bases_decide_below_the_bound():
    psi6, psi7 = _PSI[5], _PSI[6]
    assert all(_is_sprp(psi6, a) for a in (2, 3, 5, 7, 11, 13)) and not _is_sprp(psi6, 17)
    assert psi6 < DETERMINISTIC_BOUND and not is_probable_prime(psi6)
    # psi_7 passes the seven bases; it lies above the bound, where all twelve run
    assert all(_is_sprp(psi7, a) for a in (2, 3, 5, 7, 11, 13, 17))
    assert psi7 > DETERMINISTIC_BOUND and not is_probable_prime(psi7)
    rng = random.Random(20261020)
    corpus = list(_PSI) + [rng.randrange(3, DETERMINISTIC_BOUND, 2) for _ in range(3000)]
    for _ in range(300):  # semiprimes (k + 1)(2k + 1), a common pseudoprime shape
        k = rng.randrange(2, 10**7)
        corpus.append((k + 1) * (2 * k + 1))
    corpus += [q for q in (rng.randrange(2**40, 2**48) for _ in range(3000)) if sympy.isprime(q)]
    verdicts = [is_probable_prime(n) for n in corpus]
    assert verdicts == [_twelve_base_verdict(n) for n in corpus]
    assert verdicts.count(True) > 100


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(-17) == [1, 17]


def test_factor_flags_probable_primes_above_bound():
    m61 = 2**61 - 1  # prime, far above the certified-trust threshold
    f = factor(6 * m61)
    assert f.factors == ((2, 1), (3, 1), (m61, 1))
    assert f.probable == (m61,)
    small = factor(10**12 + 39)  # certified territory
    assert small.probable == ()


# --- factor against trial division to 10^6 and sympy --------------------------

_REFERENCE_BOUND = 1_000_000


def _reference_primes() -> list[int]:
    sieve = bytearray([1]) * _REFERENCE_BOUND
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(_REFERENCE_BOUND) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(_REFERENCE_BOUND) if sieve[i]]


def _reference_factor(
    x: int, primes: list[int], bound: int = _REFERENCE_BOUND
) -> tuple[tuple, tuple]:
    """The former ``factor``, frozen here: trial division by each prime below
    ``bound`` in turn (one million, or 2^16 as ``factor`` had it), then rho."""
    n = abs(x)
    found: dict[int, int] = {}
    for p in primes:
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    if 1 < n < bound * bound:
        found[n] = found.get(n, 0) + 1
        n = 1
    stack = [n] if n > 1 else []
    probable = set()
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            found[m] = found.get(m, 0) + 1
            if m >= DETERMINISTIC_BOUND:
                probable.add(m)
            continue
        power = _perfect_power(m)
        if power is not None:
            stack.extend([power[0]] * power[1])
            continue
        d = _brent_rho(m, None)
        stack.extend([d, m // d])
    return tuple(sorted(found.items())), tuple(sorted(probable))


def _factor_corpus() -> list[int]:
    rng = random.Random("factor-differential")
    out = []
    for _ in range(60):
        alpha = rng.choice((-1, 1)) * rng.randrange(2**59, 2**62)
        out += [alpha - 8, alpha + 8]
    below16, above16 = 65521, 65537  # the primes on either side of 2^16
    below32, above32 = 4294967291, 4294967311  # and of 2^32
    out += [
        below16**2,
        65537 * 65539,
        65519 * below16,
        below16 * above16,
        above16**2,
        65539**2,
        3 * 65543**2,
        2**32 - 1,
        2**32 + 1,
        below16 * below32,
        above16 * below32,
        above16 * above32,
        below32 * above32,
        below32**2 * 7,
        999983 * 1000003,
        999983**2,
        6 * (2**61 - 1),
    ]
    out += [rng.randrange(2, 2**70) for _ in range(40)]
    # the blocked trial division: primes on either side of three block
    # boundaries, squared and multiplied together
    primes = small_primes()
    for start in (_BLOCK_SIZE, 50 * _BLOCK_SIZE, (len(primes) - 1) // _BLOCK_SIZE * _BLOCK_SIZE):
        last, first = primes[start - 1], primes[start]
        out += [last**2, first**2, last * first, 2 * last * first, last * first * above16]
    # prime factors from five to eight different blocks, some repeated
    blocks = range(0, len(primes), _BLOCK_SIZE)
    for _ in range(30):
        starts = rng.sample(blocks, rng.randint(5, 8))
        n = rng.choice((-1, 1))
        for start in starts:
            n *= rng.choice(primes[start : start + _BLOCK_SIZE]) ** rng.choice((1, 1, 2))
        out += [n, n * rng.randrange(2**20, 2**40)]
    # a cofactor that falls below p^2 in the middle of a block: q early in a
    # block times a prime r just above the next prime after q
    for start in (_BLOCK_SIZE, 40 * _BLOCK_SIZE, 90 * _BLOCK_SIZE):
        q, nxt = primes[start + 5], primes[start + 6]
        r = next(m for m in range(nxt + 2, nxt * nxt) if is_probable_prime(m))
        out += [q * r, q * q * r, 2 * q * r]
    out += [2**k for k in (1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 100)]
    out += [1, -1, below16**2, -(below16**2)]
    return out


def _large_alpha_corpus() -> list[int]:
    rng = random.Random("factor-large-alphas")
    out = []
    for _ in range(500):
        bits = rng.choice((59, 60, 61))
        alpha = rng.choice((-1, 1)) * rng.randrange(2 ** (bits - 1) + 8, 2**bits - 8)
        out += [alpha - 8, alpha + 8]
    return out


def test_factor_matches_trial_division_to_one_million_and_sympy():
    primes = _reference_primes()
    for n in _factor_corpus():
        got = factor(n)
        assert got.sign * math.prod(p**e for p, e in got.factors) == n
        assert (got.factors, got.probable) == _reference_factor(n, primes), n
        oracle = sympy.factorint(abs(n))
        assert got.factors == tuple(sorted(oracle.items())), n
        assert got.probable == tuple(p for p in sorted(oracle) if p >= DETERMINISTIC_BOUND)


def test_blocked_trial_division_matches_the_per_prime_loop_on_large_alphas():
    # 1000 values alpha -+ 8 with 59 to 61 bits, against the per-prime loop
    # that the blocks replaced (same primes below 2^16, same cofactor rule)
    primes = small_primes()
    corpus = _large_alpha_corpus()
    assert {abs(n).bit_length() for n in corpus} == {59, 60, 61}
    for n in corpus:
        got = factor(n)
        assert (got.sign, got.factors, got.probable) == (
            (-1 if n < 0 else 1, *_reference_factor(n, primes, 2**16))
        ), n


class _TriedPrimes(list):
    """The sieved primes, recording each prime that trial division reads."""

    def __init__(self, primes):
        super().__init__(primes)
        self.tried = []

    def __getitem__(self, index):
        p = super().__getitem__(index)
        self.tried.append(p)
        return p


def test_trial_division_stops_where_the_cofactor_falls_below_p_squared(monkeypatch):
    primes = small_primes()
    tried = _TriedPrimes(primes)
    monkeypatch.setattr(arith, "_small_primes", tried)
    for start in (0, _BLOCK_SIZE, 40 * _BLOCK_SIZE):
        q, nxt = primes[start + 5], primes[start + 6]
        r = next(m for m in range(nxt + 2, nxt * nxt) if is_probable_prime(m))
        tried.tried.clear()
        assert factor(q * r).factors == ((q, 1), (r, 1))
        # only the blocks that share a factor with q*r are read, and within
        # q's block nothing past nxt, whose square exceeds the cofactor r
        assert tried.tried[-1] == nxt
        assert q in tried.tried


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        p = rng.randrange(2 ** (bits - 1), 2**bits) | 1
        if is_probable_prime(p):
            return p


def test_rho_honours_the_deadline_between_batches():
    rng = random.Random("rho-deadline")
    n = _random_prime(rng, 60) * _random_prime(rng, 60)
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        factor(n, budget_ms=200)
    assert time.monotonic() - start < 0.260
    # only rho reads the budget: with none left, what needs no rho still returns
    with pytest.raises(BudgetExceededError):
        factor(n, budget_ms=0)
    assert factor(360, budget_ms=0).factors == ((2, 3), (3, 2), (5, 1))
    assert factor(6 * (2**61 - 1), budget_ms=0).probable == (2**61 - 1,)


def _reference_brent_rho(n: int) -> int:
    """The Brent rho split as it was with |x - y| in the product, frozen."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def test_rho_splits_as_with_absolute_differences():
    # the sign of x - y changes q by a sign mod n, and no gcd sees it, so each
    # split is the one the |x - y| version found
    rng = random.Random("rho-signs")
    corpus = []
    while len(corpus) < 100:
        bits = rng.randint(17, 25)
        n = _random_prime(rng, bits) * _random_prime(rng, rng.randint(17, 50 - bits))
        if rng.random() < 0.25:
            n *= _random_prime(rng, 8)
        if 34 <= n.bit_length() <= 50 and n % 2 and not is_probable_prime(n):
            corpus.append(n)
    for n in corpus:
        assert _brent_rho(n, None) == _reference_brent_rho(n), n

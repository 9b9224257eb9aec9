"""Dense exact univariate polynomial arithmetic.

One dense core (``_DensePoly``) owns add, mul, powering (also modulo a
polynomial), evaluation, divrem, derivative and the monic gcd; each
coefficient ring is a thin subclass that supplies only its normalizing
constructor and the inverse of a leading coefficient: PolyInt over Z, PolyRat
over Q, PolyModP over F_p, and PolyFq over the residue field F_p[x]/(phi) for
residual polynomials, whose coefficients are PolyModP of degree below
deg(phi).
Coefficients are stored ascending; the zero polynomial is the empty tuple.
There is no floating point anywhere in this module.

Mod-p factorization is Cantor-Zassenhaus seeded with a fixed constant so that
repeated runs (and the certificates built on them) are byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .arith import vp
from .errors import MathDomainError

_FACTOR_SEED = 0x5EED_1D1  # fixed: reproducible factorizations and certificates


def _normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class _DensePoly:
    """Dense arithmetic shared by the polynomial rings below.

    A subclass supplies its coefficient ring: a normalizing constructor
    behind ``_wrap``, ``_scalar`` (an integer as a coefficient), ``_inverse``
    (of a divisor's leading coefficient) and ``_ring_key`` (the ring's
    parameters, part of equality).  Over F_p, ``_quotient_mod`` is p, and
    over F_p[x]/(phi) it is phi: division reduces each quotient coefficient,
    evaluation each partial value, and the constructor everything else.
    """

    __slots__ = ("coeffs",)
    _quotient_mod = 0

    def _wrap(self, coeffs):
        return type(self)(coeffs)

    def _scalar(self, k: int):
        return k

    def _ring_key(self) -> tuple:
        return ()

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def lc(self):
        if self.is_zero:
            raise MathDomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self._scalar(1)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.coeffs == other.coeffs
            and self._ring_key() == other._ring_key()
        )

    def __hash__(self):
        return hash((type(self).__name__, *self._ring_key(), self.coeffs))

    def __neg__(self):
        return self._wrap(-c for c in self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._wrap(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not type(self):
            return self._wrap(c * other for c in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return self._wrap(())
        out = [self._scalar(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return self._wrap(out)

    __rmul__ = __mul__

    def __pow__(self, e: int, modulus=None):
        """self**e, or self**e % modulus for pow(self, e, modulus), by binary
        powering; squares only while exponent bits remain."""
        if e < 0:
            raise MathDomainError("negative polynomial exponent")

        def mul(a, b):
            return a * b if modulus is None else a * b % modulus

        f, out = self if modulus is None else self % modulus, None
        while e:
            if e & 1:
                out = f if out is None else mul(out, f)
            e >>= 1
            if e:
                f = mul(f, f)
        return self._wrap((self._scalar(1),)) if out is None else out

    def __call__(self, x):
        out, m = self._scalar(0), self._quotient_mod
        for c in reversed(self.coeffs):
            out = out * x + c
            if m:
                out %= m
        return out

    def divrem(self, other):
        """Division with remainder; the divisor's leading coefficient must be a unit."""
        b, m = other.coeffs, self._quotient_mod
        if not b:
            raise MathDomainError("division by the zero polynomial")
        d, inv = len(b) - 1, self._inverse(b[-1])
        q = [self._scalar(0)] * max(0, len(self.coeffs) - d)
        r = list(self.coeffs)
        for i in range(len(r) - 1 - d, -1, -1):
            c = r[i + d] * inv
            if m:
                c %= m
            if c:
                q[i] = c
                for j, bc in enumerate(b):
                    r[i + j] -= c * bc
        return self._wrap(q), self._wrap(r[:d])

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def __mod__(self, other):
        return self.divrem(other)[1]

    def derivative(self):
        return self._wrap(i * c for i, c in enumerate(self.coeffs) if i)

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        return self * self._inverse(self.lc)

    def gcd(self, other):
        """Monic gcd (the constant 1 for coprime inputs)."""
        a, b = self, other
        if a.is_zero and b.is_zero:
            raise MathDomainError("gcd(0, 0) is undefined")
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()


class PolyInt(_DensePoly):
    """Polynomial over Z, ascending coefficients, trailing zeros stripped."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        self.coeffs = _normalize(int(c) for c in coeffs)

    @classmethod
    def zero(cls) -> "PolyInt":
        return cls(())

    @classmethod
    def one(cls) -> "PolyInt":
        return cls((1,))

    @classmethod
    def from_text(cls, text: str) -> "PolyInt":
        return cls(int(part.strip()) for part in text.split(","))

    def __repr__(self) -> str:
        return f"PolyInt({list(self.coeffs)})"

    def _inverse(self, c: int) -> int:
        if c != 1:
            raise MathDomainError("integer divrem needs a monic divisor")
        return 1

    def exact_scalar_div(self, c: int) -> "PolyInt":
        if any(a % c for a in self.coeffs):
            raise MathDomainError("scalar division is not exact")
        return PolyInt(a // c for a in self.coeffs)

    def reduce_mod(self, p: int) -> "PolyModP":
        return PolyModP(p, self.coeffs)

    def min_valuation(self, p: int) -> int | None:
        """min_j v_p(coeff_j), or None (infinity) for the zero polynomial."""
        if self.is_zero:
            return None
        return min(vp(c, p) for c in self.coeffs if c)


class PolyRat(_DensePoly):
    """Polynomial over Q, ascending Fraction coefficients."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        self.coeffs = _normalize(Fraction(c) for c in coeffs)

    @classmethod
    def one(cls) -> "PolyRat":
        return cls((1,))

    def __repr__(self) -> str:
        return f"PolyRat({[str(c) for c in self.coeffs]})"

    def _scalar(self, k: int) -> Fraction:
        return Fraction(k)

    def _inverse(self, c: Fraction) -> Fraction:
        return 1 / c

    def clear_denominators(self) -> tuple[PolyInt, int]:
        """Return (F, d) with self = F / d and F integral of the same degree."""
        d = math.lcm(*(c.denominator for c in self.coeffs))
        return PolyInt(int(c * d) for c in self.coeffs), d


class PolyModP(_DensePoly):
    """Polynomial over F_p, coefficients reduced to [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int, coeffs=()):
        self.p = p
        self.coeffs = _normalize(int(c) % p for c in coeffs)

    def _wrap(self, coeffs) -> "PolyModP":
        return PolyModP(self.p, coeffs)

    def _ring_key(self) -> tuple:
        return (self.p,)

    @property
    def _quotient_mod(self) -> int:
        return self.p

    def _inverse(self, c: int) -> int:
        return pow(c, -1, self.p)

    def __repr__(self) -> str:
        return f"PolyModP({self.p}, {list(self.coeffs)})"

    def pth_root(self) -> "PolyModP":
        """Inverse Frobenius: g with g**p == self (self must be a p-th power)."""
        p = self.p
        if any(c and i % p for i, c in enumerate(self.coeffs)):
            raise MathDomainError("polynomial is not a p-th power")
        return self._wrap(self.coeffs[:: p] if self.coeffs else ())

    def lift(self) -> PolyInt:
        """Least non-negative coefficient lift to Z[x]."""
        return PolyInt(self.coeffs)

    def is_irreducible(self) -> bool:
        """A reducible polynomial has an irreducible factor of degree at most
        half its own, which the distinct-degree split finds first."""
        return self.degree >= 1 and _distinct_degree(self.monic())[0][0] == self.degree


# ---------------------------------------------------------------------------
# factorization over F_p (squarefree / distinct-degree / Cantor-Zassenhaus)


def _squarefree_parts(f: PolyModP) -> list[tuple[PolyModP, int]]:
    """Decompose monic f into pairwise-coprime squarefree parts with multiplicity."""
    p = f.p
    out: list[tuple[PolyModP, int]] = []
    e = 1
    while f.degree > 0:
        c: PolyModP = f.gcd(f.derivative())  # f itself when f' = 0
        w = f // c
        i = 1
        while w.degree > 0:
            y = w.gcd(c)
            z = w // y
            if z.degree > 0:
                out.append((z, i * e))
            w = y
            c = c // y
            i += 1
        # what is left is a p-th power, 1 once f is used up
        f = c.pth_root()
        e *= p
    return out


def _distinct_degree(f: PolyModP) -> list[tuple[int, PolyModP]]:
    """Split monic squarefree f into (d, product of degree-d irreducibles).
    Squarefree or not, a nonconstant f's first d is its least factor degree."""
    p = f.p
    x = PolyModP(p, (0, 1))
    out = []
    h = x
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            out.append((f.degree, f))
            break
        h = pow(h, p, f)
        g = f.gcd(h - x)
        if g.degree > 0:
            out.append((d, g))
            f = f // g
            h = h % f
    return out


def _equal_degree(f: PolyModP, d: int, rng: random.Random) -> list[PolyModP]:
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    if f.degree == d:
        return [f.monic()]
    p = f.p
    while True:
        a = PolyModP(p, [rng.randrange(p) for _ in range(f.degree)])
        if a.degree < 1:
            continue
        if p == 2:
            t = a
            cur = a
            for _ in range(d - 1):
                cur = pow(cur, 2, f)
                t = t + cur
            g = f.gcd(t)
        else:
            g = f.gcd(pow(a, (p**d - 1) // 2, f) - PolyModP(p, (1,)))
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def factor_order(pair: tuple[PolyModP, int]) -> tuple:
    """Sort key of the canonical order of a factorization mod p: the
    factor's degree, then its coefficients."""
    fac, _ = pair
    return fac.degree, fac.coeffs


def factor_mod_p(f: PolyModP) -> list[tuple[PolyModP, int]]:
    """Monic irreducible factors of f with multiplicities.

    Output order is deterministic (degree, then coefficient tuple); the
    equal-degree splitting RNG runs from a fixed seed so repeated calls are
    identical.  For non-monic f the factors multiply to monic(f).
    """
    if f.is_zero:
        raise MathDomainError("cannot factor the zero polynomial")
    rng = random.Random(_FACTOR_SEED)
    out: list[tuple[PolyModP, int]] = []
    for part, mult in _squarefree_parts(f.monic()):
        for d, prod in _distinct_degree(part):
            for irr in _equal_degree(prod, d, rng):
                out.append((irr, mult))
    out.sort(key=factor_order)
    return out


# ---------------------------------------------------------------------------
# polynomials over the residue field F_q = F_p[x]/(phi)


class PolyFq(_DensePoly):
    """Polynomial over F_q = F_p[x]/(phi) for monic irreducible phi; each
    coefficient is a PolyModP that the constructor reduces modulo phi."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: PolyModP, coeffs=()):
        self.modulus = modulus
        d = modulus.degree
        self.coeffs = _normalize(c if c.degree < d else c % modulus for c in coeffs)

    def _wrap(self, coeffs) -> "PolyFq":
        return PolyFq(self.modulus, coeffs)

    def _scalar(self, k: int) -> PolyModP:
        return PolyModP(self.modulus.p, (k,))

    @property
    def _quotient_mod(self) -> PolyModP:
        return self.modulus

    def _inverse(self, c: PolyModP) -> PolyModP:
        p, d = self.modulus.p, self.modulus.degree
        if d == 1:  # F_q = F_p: one modular inverse, not a (log p)-step power
            return PolyModP(p, (pow(c.coeffs[0], -1, p),))
        # Fermat: c^(q-2) = 1/c in F_q^*, q = p^deg(phi)
        return pow(c, p**d - 2, self.modulus)

    def _ring_key(self) -> tuple:
        return (self.modulus,)

    def __repr__(self) -> str:
        return f"PolyFq({self.modulus!r}, {list(self.coeffs)!r})"

    def is_separable(self) -> bool:
        """True iff there are no repeated roots over an algebraic closure."""
        if self.degree < 1:
            raise MathDomainError("separability of a constant is undefined")
        # a linear polynomial's derivative is its nonzero leading coefficient
        return self.degree == 1 or self.gcd(self.derivative()).degree == 0


# ---------------------------------------------------------------------------
# phi-adic developments


@dataclass(frozen=True)
class PhiDevelopment:
    """Unique expansion Phi = sum_j a_j * phi^j with deg a_j < deg phi."""

    phi: PolyInt
    terms: tuple[PolyInt, ...]


def phi_development(Phi: PolyInt, phi: PolyInt) -> PhiDevelopment:
    """phi-adic development of Phi by repeated division (both monic)."""
    if not Phi.is_monic or not phi.is_monic:
        raise MathDomainError("phi-development requires monic polynomials")
    if phi.degree < 1:
        raise MathDomainError("phi must be nonconstant")
    terms = []
    f = Phi
    while not f.is_zero:
        f, r = f.divrem(phi)
        terms.append(r)
    return PhiDevelopment(phi=phi, terms=tuple(terms))


# ---------------------------------------------------------------------------
# resultants and discriminants (integer subresultant PRS)


def _prem(a, b) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a mod b; ascending int coefficients, no trailing zeros."""
    d, lb = len(b) - 1, b[-1]
    r = list(a)
    e = len(a) - d
    while len(r) > d:
        # r * lb - lc(r) x^shift b, whose leading term cancels
        lr = r.pop()
        shift = len(r) - d
        r = [c * lb for c in r[:shift]] + [c * lb - lr * bc for c, bc in zip(r[shift:], b)]
        while r and not r[-1]:
            r.pop()
        e -= 1
    if e > 0:
        f = lb**e
        r = [c * f for c in r]
    return r


def _exact_int_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("subresultant division was not exact")
    return q


def _resultant_int(a, b) -> int:
    """Res(a, b) over Z by the subresultant PRS, on coefficients as in ``_prem``."""
    if not a or not b:
        return 0
    s = 1
    if len(a) < len(b):
        if len(a) % 2 == 0 and len(b) % 2 == 0:  # both degrees odd
            s = -s
        a, b = b, a
    if len(b) == 1:
        return s * b[0] ** (len(a) - 1)
    ca, cb = math.gcd(*a), math.gcd(*b)
    a, b = [c // ca for c in a], [c // cb for c in b]
    mult = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        a, q = b, g * h**delta
        b = [_exact_int_div(c, q) for c in r]
        g = a[-1]
        if delta > 0:
            h = _exact_int_div(g**delta, h ** (delta - 1))
        if len(b) == 1:
            da = len(a) - 1
            return s * mult * _exact_int_div(b[0] ** da, h ** (da - 1))


def resultant(f: PolyInt | PolyRat, g: PolyInt | PolyRat) -> Fraction:
    """Resultant of two nonzero integer or rational polynomials (exact)."""
    if f.is_zero or g.is_zero:
        raise MathDomainError("resultant of the zero polynomial")
    F, df = (f, 1) if isinstance(f, PolyInt) else f.clear_denominators()
    G, dg = (g, 1) if isinstance(g, PolyInt) else g.clear_denominators()
    return Fraction(_resultant_int(F.coeffs, G.coeffs), df**g.degree * dg**f.degree)


def discriminant(f: PolyInt | PolyRat) -> Fraction:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f) for nonconstant f; a
    rational f = F/den goes through its integral F: disc(F) / den^(2d-2)."""
    if f.is_zero or f.degree < 1:
        raise MathDomainError("discriminant requires a nonconstant polynomial")
    F, den = (f, 1) if isinstance(f, PolyInt) else f.clear_denominators()
    d = F.degree
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    res = _resultant_int(F.coeffs, F.derivative().coeffs)
    return Fraction(sign * res, F.lc * den ** (2 * d - 2))

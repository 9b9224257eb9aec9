"""Newton polygons over Z_p, residual polynomials, and the index bound.

Given a phi-adic development of a monic polynomial, the negative-slope lower
convex hull of (j, v_p(a_j)) carries the local index data: the lattice points
with x >= 1 and y >= 1 on or under the polygon bound v_p of the index, with
equality when every side's residual polynomial, a PolyFq over
F_p[x]/(phi-bar), is separable (p-regularity).
Dedekind's criterion is an independent oracle for the "index is prime to p"
conclusion, in its per-factor form on the factor list mod p (Cohen, GTM 138,
Thm 6.1.4); `index_report` runs it on the factorization its polygons use and
records its answer in `IndexReport.dedekind`.
That factorization is either computed (`factor_mod_p`) or supplied by the
caller as a witness, which `index_report` checks instead of computing: each
factor monic, irreducible and distinct, and their product with
multiplicities equal to Phi mod p.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import require_prime
from .errors import ExactRootError, MathDomainError
from .poly import (
    PhiDevelopment,
    PolyFq,
    PolyInt,
    PolyModP,
    factor_mod_p,
    factor_order,
    phi_development,
    resultant,
)


class PolygonSide(NamedTuple):
    """One negative-slope side; degree = number of lattice segments."""

    x0: int
    y0: int
    x1: int
    y1: int
    degree: int

    @property
    def slope_text(self) -> str:
        """The slope (y1 - y0)/(x1 - x0) in lowest terms, as "num/den" or
        "num" when den = 1: the degree is gcd(y0 - y1, x1 - x0), so dividing
        by it reduces the slope."""
        num = (self.y1 - self.y0) // self.degree
        den = (self.x1 - self.x0) // self.degree
        return f"{num}/{den}" if den != 1 else str(num)


class NewtonPolygon(NamedTuple):
    """Development points (v = None marks infinite valuation) and the
    negative-slope sides of their lower convex hull, left to right."""

    points: tuple[tuple[int, int | None], ...]
    sides: tuple[PolygonSide, ...]

    def to_json_dict(self) -> dict:
        return {
            "points": self.points,
            "sides": [
                {
                    "x0": s.x0,
                    "y0": s.y0,
                    "x1": s.x1,
                    "y1": s.y1,
                    "slope": s.slope_text,
                    "degree": s.degree,
                }
                for s in self.sides
            ],
        }


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _polygon_from_values(values: list[int | None]) -> NewtonPolygon:
    points = tuple((j, v) for j, v in enumerate(values))
    finite = [(j, v) for j, v in points if v is not None]
    hull: list[tuple[int, int]] = []
    for pt in finite:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    sides = tuple(
        PolygonSide(x0, y0, x1, y1, math.gcd(y0 - y1, x1 - x0))
        for (x0, y0), (x1, y1) in zip(hull, hull[1:])
        if y1 < y0
    )
    return NewtonPolygon(points=points, sides=sides)


def build_polygon(dev: PhiDevelopment, p: int) -> NewtonPolygon:
    """Negative-slope Newton polygon of a phi-development at p.

    Raises ExactRootError when a_0 = 0, i.e. phi divides the developed
    polynomial over Z (an exact root, not a polygon situation).
    """
    require_prime(p)
    values = [t.min_valuation(p) for t in dev.terms]
    if not values or values[0] is None:
        raise ExactRootError("phi divides Phi exactly (a_0 = 0)")
    return _polygon_from_values(values)


def ind_phi(polygon: NewtonPolygon, deg_phi: int) -> int:
    """deg(phi) times the number of lattice points with x >= 1, y >= 1 lying
    on or under the negative-slope polygon."""
    total = 0
    for idx, side in enumerate(polygon.sides):
        start = side.x0 if idx == 0 else side.x0 + 1
        for x in range(max(start, 1), side.x1 + 1):
            # floor of the side's height at x; heights are >= y1 >= 0
            total += (side.y0 * (side.x1 - x) + side.y1 * (x - side.x0)) // (side.x1 - side.x0)
    return deg_phi * total


def residual_polynomial(dev: PhiDevelopment, p: int, side: PolygonSide) -> PolyFq:
    """R_S(y) = sum res(x0 + i*step) y^i over F_p[x]/(phi-bar), with res the
    reduction mod p of a_j / p^(v_p(a_j)) when the point lies on the side,
    else 0."""
    require_prime(p)
    step_x = (side.x1 - side.x0) // side.degree
    step_y = (side.y1 - side.y0) // side.degree
    coeffs = []
    for i in range(side.degree + 1):
        j = side.x0 + i * step_x
        a_j = dev.terms[j] if j < len(dev.terms) else PolyInt.zero()
        v = a_j.min_valuation(p)
        on_side = v == side.y0 + i * step_y
        coeffs.append(a_j.exact_scalar_div(p**v).reduce_mod(p) if on_side else PolyModP(p))
    residual = PolyFq(dev.phi.reduce_mod(p), coeffs)
    if not coeffs[0] or residual.degree != side.degree:
        raise MathDomainError("side does not belong to the polygon of this development")
    return residual


class PhiReport(NamedTuple):
    """Polygon data for one repeated irreducible factor.  ``regular`` says
    that the residual polynomial of every side is separable; the residuals
    themselves are not kept (`residual_polynomial` rebuilds one from the
    development at ``phi``)."""

    phi: PolyInt
    exponent: int
    polygon: NewtonPolygon
    a0_val: int | None  # None when the lift divides Phi exactly
    ind_phi: int
    regular: bool


class IndexReport(NamedTuple):
    """Lower bound for v_p([O_K : Z[theta]]), exact when p-regular."""

    p: int
    per_phi: tuple[PhiReport, ...]
    ind_p_lower_bound: int
    exact: bool
    dedekind: bool  # Dedekind's criterion: Z[theta] is maximal at p


def index_report(
    Phi: PolyInt,
    p: int,
    lift: PolyInt | None = None,
    factors: list[tuple[PolyModP, int]] | None = None,
) -> IndexReport:
    """Run the first-order polygon analysis of Phi at p.

    Only repeated factors mod p (exponent >= 2) get polygons; simple factors
    provably contribute 0 and are regular.  A supplied ``lift``, once
    validated, replaces the least-non-negative lift of its own factor mod p;
    every other factor keeps its default lift.  A supplied ``factors`` witness, the
    factorization of Phi mod p as (factor, multiplicity) pairs, is checked
    and used in place of `factor_mod_p`; a wrong witness raises
    MathDomainError.
    """
    if not Phi.is_monic:
        raise MathDomainError("Phi must be monic")
    if Phi.degree < 1:
        raise MathDomainError("Phi must be nonconstant")
    require_prime(p)
    if resultant(Phi, Phi.derivative()) == 0:
        raise MathDomainError("Phi must be squarefree over Q")
    if factors is None:
        factors = factor_mod_p(Phi.reduce_mod(p))
    else:
        factors = _checked_factorization(p, factors)
    dedekind = _dedekind(Phi, p, factors)  # also checks a witness's product
    if lift is not None:
        if not lift.is_monic:
            raise MathDomainError("supplied lift must be monic")
        lift_bar = lift.reduce_mod(p)
        if not any(fac == lift_bar for fac, _ in factors):
            raise MathDomainError("supplied lift is not congruent to an irreducible factor mod p")
    reports = []
    for fac, e in factors:
        if e < 2:
            continue
        phi = lift if lift is not None and fac == lift_bar else fac.lift()
        dev = phi_development(Phi, phi)
        values = [t.min_valuation(p) for t in dev.terms]
        # a_0 = 0 means the lift divides Phi over Z; the polygon over the
        # remaining finite points still carries the index count.
        polygon = _polygon_from_values(values)
        resids = tuple(residual_polynomial(dev, p, s) for s in polygon.sides)
        reports.append(
            PhiReport(
                phi=phi,
                exponent=e,
                polygon=polygon,
                a0_val=values[0],
                ind_phi=ind_phi(polygon, phi.degree),
                regular=all(r.is_separable() for r in resids),
            )
        )
    return IndexReport(
        p=p,
        per_phi=tuple(reports),
        ind_p_lower_bound=sum(r.ind_phi for r in reports),
        exact=all(r.regular for r in reports),
        dedekind=dedekind,
    )


def _checked_factorization(
    p: int, factors: list[tuple[PolyModP, int]]
) -> list[tuple[PolyModP, int]]:
    """Accept the factors of a claimed factorization over F_p, in the
    canonical order of `factor_mod_p`, or raise MathDomainError naming the
    check it fails.  Checking costs a distinct-degree split per factor of
    degree >= 2; no factoring.  `_dedekind` checks that their product is Phi mod p."""
    for fac, e in factors:
        if not isinstance(fac, PolyModP) or fac.p != p:
            raise MathDomainError(f"witness factor {fac!r} is not a polynomial mod p = {p}")
        if not fac.is_monic:
            raise MathDomainError(f"witness factor {fac!r} is not monic")
        if fac.degree != 1 and not fac.is_irreducible():
            raise MathDomainError(f"witness factor {fac!r} is not irreducible")
        if e < 1:
            raise MathDomainError(f"witness factor {fac!r} has multiplicity {e} < 1")
    if len({fac for fac, _ in factors}) != len(factors):
        raise MathDomainError("witness factors are not pairwise distinct")
    return sorted(factors, key=factor_order)


def dedekind_p_maximal(Phi: PolyInt, p: int) -> bool:
    """Dedekind's criterion: is Z[theta] maximal at p?"""
    if not Phi.is_monic:
        raise MathDomainError("Phi must be monic")
    require_prime(p)
    return _dedekind(Phi, p, factor_mod_p(Phi.reduce_mod(p)))


def _dedekind(Phi: PolyInt, p: int, factors: list[tuple[PolyModP, int]]) -> bool:
    """With Phi-bar = prod phi_i^e_i and F = (Phi - prod lift(phi_i)^e_i)/p,
    Z[theta] is maximal at p iff no phi_i with e_i >= 2 divides F-bar.

    p divides Phi - prod exactly when the factors multiply to Phi mod p, so
    the one product over Z also checks a claimed factorization: when p does
    not divide it, MathDomainError."""
    prod = PolyInt.one()
    for fac, e in factors:
        prod = prod * fac.lift() ** e
    diff = Phi - prod
    if any(c % p for c in diff.coeffs):
        raise MathDomainError(
            f"witness product {prod.reduce_mod(p)!r} is not Phi mod p = {Phi.reduce_mod(p)!r}"
        )
    F_bar = PolyModP(p, (c // p for c in diff.coeffs))
    return not any(e >= 2 and (F_bar % fac).is_zero for fac, e in factors)

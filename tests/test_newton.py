import random
from fractions import Fraction

import pytest

from monodiv import (
    ExactRootError,
    MathDomainError,
    PolyInt,
    PolyModP,
    ResidueFieldElem,
    build_polygon,
    dedekind_p_maximal,
    discriminant,
    ind_phi,
    index_report,
    phi_development,
    residual_polynomial,
)
from monodiv.newton import PolygonSide, _polygon_from_values
from monodiv.poly import PolyFq

F3 = lambda alpha: PolyInt((-3, -alpha, -6, 0, 1))
T_MINUS = lambda t0: PolyInt((-t0, 1))


# --- polygon construction ----------------------------------------------------


def test_polygon_of_f3_alpha2_at_2():
    dev = phi_development(F3(2), T_MINUS(1))
    pg = build_polygon(dev, 2)
    assert pg.points == ((0, 1), (1, 1), (2, None), (3, 2), (4, 0))
    assert pg.sides == (PolygonSide(0, 1, 4, 0, 1),)
    assert pg.sides[0].slope == Fraction(-1, 4)


def test_polygon_montes_shape():
    pg = _polygon_from_values([1, 0, 0, 0])
    assert pg.sides == (PolygonSide(0, 1, 1, 0, 1),)


def test_polygon_collinear_points_merge():
    pg = _polygon_from_values([2, 1, 0])
    assert pg.sides == (PolygonSide(0, 2, 2, 0, 2),)
    assert pg.sides[0].slope == Fraction(-1)


def test_polygon_exact_root_signal():
    dev = phi_development(PolyInt((0, 4, 1)), PolyInt.x())  # x | x^2 + 4x
    with pytest.raises(ExactRootError):
        build_polygon(dev, 2)


def test_polygon_multiple_sides():
    pg = _polygon_from_values([3, 1, None, 0])
    assert pg.sides == (PolygonSide(0, 3, 1, 1, 1), PolygonSide(1, 1, 3, 0, 1))
    assert [s.slope for s in pg.sides] == [Fraction(-2), Fraction(-1, 2)]


# --- lattice counting --------------------------------------------------------


def test_ind_phi_one_side_from_height_one_is_zero():
    for k in (1, 2, 3, 4, 7):
        pg = _polygon_from_values([1] + [0] * k)
        assert ind_phi(pg, 1) == 0
        assert ind_phi(pg, 3) == 0


def test_ind_phi_triangle_example():
    pg = _polygon_from_values([2, None, 0])
    assert ind_phi(pg, 1) == 1  # exactly the point (1, 1)
    assert ind_phi(pg, 2) == 2


def test_ind_phi_empty_polygon():
    pg = _polygon_from_values([0, 0, 1])
    assert pg.sides == ()
    assert ind_phi(pg, 1) == 0


def test_ind_phi_steeper_examples():
    assert ind_phi(_polygon_from_values([4, None, 0]), 1) == 2  # column x=1, height 2
    assert ind_phi(_polygon_from_values([3, None, None, 0]), 1) == 3  # heights 2, 1
    assert ind_phi(_polygon_from_values([2, 2, 1, 0]), 1) == 1  # hull (0,2)->(3,0)


# --- residual polynomials ----------------------------------------------------


def _build_dev(p, a0, a1, a2, a3):
    # development of a quartic around T - 1 with prescribed terms
    phi = T_MINUS(1)
    from monodiv.poly import PhiDevelopment

    terms = (
        PolyInt((a0,)),
        PolyInt((a1,)),
        PolyInt((a2,)),
        PolyInt((a3,)),
        PolyInt.one(),
    )
    dev = PhiDevelopment(phi=phi, terms=terms)
    return dev


def test_residual_polynomial_degree_two_side():
    # points (0,2),(1,2),(2,1),(3,1),(4,0): one side (0,2)->(4,0) of degree 2
    p = 5
    dev = _build_dev(p, 25 * 1, 25 * 1, 5 * 2, 5 * 1)
    pg = build_polygon(dev, p)
    assert pg.sides == (PolygonSide(0, 2, 4, 0, 2),)
    rs = residual_polynomial(dev, p, pg.sides[0])
    values = [c.value.coeffs for c in rs.coefficients]
    assert values == [(1,), (2,), (1,)]  # y^2 + 2y + 1 = (y+1)^2
    assert not rs.is_separable()
    # changing the middle residual coefficient to 1 gives irreducible y^2+y+1
    dev2 = _build_dev(p, 25, 25, 5 * 1, 5)
    rs2 = residual_polynomial(dev2, p, build_polygon(dev2, p).sides[0])
    assert [c.value.coeffs for c in rs2.coefficients] == [(1,), (1,), (1,)]
    assert rs2.is_separable()
    assert ind_phi(pg, 1) == 2


def test_residual_linear_side_always_separable():
    dev = phi_development(F3(2), T_MINUS(1))
    pg = build_polygon(dev, 2)
    rs = residual_polynomial(dev, 2, pg.sides[0])
    assert rs.degree == 1 == pg.sides[0].degree
    assert rs.is_separable()
    assert not rs.coefficients[0].is_zero and not rs.coefficients[-1].is_zero


def test_residual_rejects_foreign_side():
    dev = phi_development(F3(2), T_MINUS(1))
    with pytest.raises(MathDomainError):
        residual_polynomial(dev, 2, PolygonSide(0, 3, 4, 0, 1))


# --- index reports -----------------------------------------------------------


def test_index_report_guided_examples():
    rep = index_report(F3(2), 2, lifts=[T_MINUS(1)])
    assert rep.ind_p_lower_bound == 0 and rep.exact
    assert rep.per_phi[0].a0_val == 1

    rep = index_report(F3(3), 3, lifts=[PolyInt.x()])
    assert rep.ind_p_lower_bound == 0 and rep.exact
    assert rep.per_phi[0].a0_val == 1  # F3(0) = -3

    rep = index_report(F3(13), 3, lifts=[T_MINUS(4)])
    assert rep.ind_p_lower_bound == 0 and rep.exact
    assert F3(13)(4) == 105
    assert rep.per_phi[0].a0_val == 1


def test_index_report_rejects_bad_lift():
    with pytest.raises(MathDomainError):
        index_report(F3(2), 2, lifts=[PolyInt.x()])  # x is not a factor mod 2


def test_index_report_requires_squarefree():
    with pytest.raises(MathDomainError):
        index_report(PolyInt((1, 2, 1)), 2)


def test_index_report_simple_factors_skipped():
    # alpha odd: F3 irreducible mod 2, no repeated factors, nothing to develop
    rep = index_report(F3(3), 2)
    assert rep.per_phi == ()
    assert rep.ind_p_lower_bound == 0 and rep.exact


def test_index_report_exact_root_lift():
    # x divides x^2 + 4x exactly; polygon is built from the remaining points
    f = PolyInt((0, 4, 1))
    rep = index_report(f, 2, lifts=[PolyInt.x()])
    assert rep.ind_p_lower_bound == 2 and rep.exact
    assert rep.per_phi[0].a0_val is None
    assert not dedekind_p_maximal(f, 2)
    # v_2 of the true index: disc = 16, etale algebra Q x Q has disc 1
    assert discriminant(f) == 16

    g = PolyInt((0, 8, 6, 1))  # x(x+2)(x+4), disc 256, index 2^4
    rep = index_report(g, 2, lifts=[PolyInt.x()])
    assert rep.ind_p_lower_bound == 4 and rep.exact


def test_index_report_lift_choice():
    # x^2 + 4x at p = 2: lift x is exact with the true index, lift x + 2
    # yields an inseparable residual and only an inexact lower bound
    f = PolyInt((0, 4, 1))
    exact = index_report(f, 2, lifts=[PolyInt.x()])
    assert (exact.ind_p_lower_bound, exact.exact) == (2, True)
    inexact = index_report(f, 2, lifts=[PolyInt((2, 1))])
    assert (inexact.ind_p_lower_bound, inexact.exact) == (1, False)


def test_index_report_lift_invariance_when_exact():
    # two different lifts of T - 1 mod 2 give the same exact answer
    for lift in (T_MINUS(1), T_MINUS(3), PolyInt((5, 1))):
        rep = index_report(F3(2), 2, lifts=[lift])
        assert (rep.ind_p_lower_bound, rep.exact) == (0, True)
    # the same holds for a positive index: x and x + 4 both divide x^2 + 4x
    # exactly and give the identical exact bound 2
    f = PolyInt((0, 4, 1))
    for lift in (PolyInt.x(), PolyInt((4, 1))):
        rep = index_report(f, 2, lifts=[lift])
        assert (rep.ind_p_lower_bound, rep.exact) == (2, True)


def test_index_report_quadratic_residue_field():
    # (x^2+1)^2 + 3: the repeated factor mod 3 is an irreducible quadratic,
    # so residual data lives in F_9; one side (0,1)->(2,0), index 0
    f1 = PolyInt((4, 0, 2, 0, 1))
    rep = index_report(f1, 3)
    assert rep.per_phi[0].phi == PolyInt((1, 0, 1))
    assert (rep.ind_p_lower_bound, rep.exact) == (0, True)
    assert dedekind_p_maximal(f1, 3)

    # (x^2+1)^2 + 3x(x^2+1) + 9: side (0,2)->(2,0) of degree 2, residual
    # y^2 + x*y + 1 over F_9, separable; exact index 2 (disc has 3^4)
    f2 = PolyInt((10, 3, 2, 3, 1))
    assert discriminant(f2) == 91449 == 3**4 * 1129
    rep = index_report(f2, 3)
    pr = rep.per_phi[0]
    assert (rep.ind_p_lower_bound, rep.exact) == (2, True)
    assert pr.polygon.sides == (PolygonSide(0, 2, 2, 0, 2),)
    assert [c.value.coeffs for c in pr.residuals[0].coefficients] == [
        (1,),
        (0, 1),
        (1,),
    ]
    assert pr.residuals[0].is_separable()
    assert not dedekind_p_maximal(f2, 3)


def test_index_report_two_repeated_factors():
    # x(x+1)(x+3)(x+4) = x^2 (x+1)^2 mod 3: both factors contribute 1
    f = PolyInt((0, 12, 19, 8, 1))
    assert discriminant(f) == 5184 == 2**6 * 3**4
    rep = index_report(f, 3)
    assert [(pr.phi.to_text(), pr.exponent, pr.ind_phi) for pr in rep.per_phi] == [
        ("0,1", 2, 1),
        ("1,1", 2, 1),
    ]
    assert (rep.ind_p_lower_bound, rep.exact) == (2, True)
    assert not dedekind_p_maximal(f, 3)


def test_polygon_points_above_sides():
    rng = random.Random(115)
    for _ in range(200):
        vals = [rng.choice([None, 0, 1, 2, 3, 4]) for _ in range(rng.randint(2, 7))]
        if vals[-1] is None:
            vals[-1] = 0
        if all(v is None for v in vals[:-1]):
            continue
        pg = _polygon_from_values(vals)
        slopes = [s.slope for s in pg.sides]
        assert slopes == sorted(slopes)
        assert all(s < 0 for s in slopes)
        for j, v in pg.points:
            if v is None:
                continue
            for side in pg.sides:
                if side.x0 <= j <= side.x1:
                    assert Fraction(v) >= side.height(j)


# --- Dedekind criterion ------------------------------------------------------


def test_dedekind_examples():
    for p in (2, 3, 5):
        assert dedekind_p_maximal(F3(2), p)
    for p in (2, 3, 5, 7):
        assert not dedekind_p_maximal(PolyInt((-p * p, 0, 1)), p)  # T^2 - p^2
        assert dedekind_p_maximal(PolyInt((-p, 0, 1)), p)  # T^2 - p


def test_montes_vs_dedekind_small_corpus(rng):
    # exactness holds on most of the corpus; whenever it does, the zero-index
    # conclusion must match Dedekind's criterion
    checked = 0
    trials = 0
    while checked < 200 and trials < 4000:
        trials += 1
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-40, 40) for _ in range(deg)] + [1]
        f = PolyInt(coeffs)
        if discriminant(f) == 0:
            continue
        p = rng.choice([2, 3, 5, 7, 11, 13])
        rep = index_report(f, p)
        assert rep.dedekind == dedekind_p_maximal(f, p)
        if rep.exact:
            assert (rep.ind_p_lower_bound == 0) == dedekind_p_maximal(f, p)
            checked += 1
        else:
            if rep.ind_p_lower_bound > 0:
                assert not dedekind_p_maximal(f, p)
    assert checked >= 200


# --- polynomials over F_p[x]/(phi) against the former free functions ---------


def _ref_normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return tuple(coeffs)


def _ref_divrem(a, b):
    a, b = list(a), list(b)
    inv = b[-1].inverse()
    q = [b[-1] - b[-1]] * max(0, len(a) - len(b) + 1)
    r = a[:]
    d = len(b) - 1
    for i in range(len(r) - 1 - d, -1, -1):
        c = r[i + d] * inv
        if c:
            q[i] = c
            for j, bc in enumerate(b):
                r[i + j] = r[i + j] - c * bc
    return _ref_normalize(q), _ref_normalize(r[:d])


def _ref_gcd(a, b):
    a, b = _ref_normalize(a), _ref_normalize(b)
    while b:
        _, r = _ref_divrem(a, b)
        a, b = b, r
    inv = a[-1].inverse()
    return _ref_normalize(c * inv for c in a)


def _ref_is_separable(a):
    a = _ref_normalize(a)
    da = _ref_normalize(c * i for i, c in enumerate(a) if i)
    if not da:
        return False
    return len(_ref_gcd(a, da)) == 1


def test_residue_field_polynomials_match_reference():
    rng = random.Random(20261018)
    for p in (2, 3, 5, 7):
        for d in (1, 2, 3):
            while True:
                phi = PolyModP(p, [rng.randrange(p) for _ in range(d)] + [1])
                if phi.is_irreducible():
                    break

            def elem(nonzero=False):
                while True:
                    value = PolyModP(p, [rng.randrange(p) for _ in range(d)])
                    x = ResidueFieldElem(phi, value)
                    if x or not nonzero:
                        return x

            def poly(deg):
                return PolyFq(phi, [elem() for _ in range(deg)] + [elem(nonzero=True)])

            for _ in range(25):
                x, y = elem(), elem()
                assert (x * y).value == x.value * y.value % phi
                assert (x - y).value == (x.value - y.value) % phi
                if x:
                    assert (x * x.inverse()).value == PolyModP.one(p)
                f, g = poly(rng.randint(1, 3)), poly(rng.randint(0, 3))
                if rng.random() < 0.5:
                    f = f * f * g  # a repeated factor
                q, r = _ref_divrem(f.coeffs, g.coeffs)
                assert f.divrem(g) == (PolyFq(phi, q), PolyFq(phi, r))
                assert f.gcd(g).coeffs == _ref_gcd(f.coeffs, g.coeffs)
                assert f.is_separable() == _ref_is_separable(f.coeffs)

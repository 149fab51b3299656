import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from udmg import core, curves, reference
from udmg.core import Udmg, verify, verify_naive
from udmg.curves import (
    INFINITY,
    DivisorSpec,
    FnElement,
    curve_new,
    enumerate_points,
    evaluate,
    ff_arith,
    function_valuation,
    genus0_udmg,
    goppa_generator,
    goppa_udmg,
    increasing_zero_basis,
    local_expand,
    rr_basis,
)
from udmg.errors import (
    BadCharacteristicError,
    DependentBasisError,
    DuplicatePointsError,
    InvalidInputError,
    PointInSupportError,
    PoleAtSupportError,
    PrecisionExhaustedError,
    SingularCurveError,
    SupportCollisionError,
    TooManyPointsError,
)
from udmg.fields import make_field
from udmg.linalg import FqMatrix, inverse
from udmg.polys import Poly

F5, F7 = make_field(5), make_field(7)


@pytest.fixture(scope="module")
def ref_curve():
    return reference.curve()


@pytest.fixture(scope="module")
def abc(ref_curve):
    r, s = FnElement.r(ref_curve), FnElement.s(ref_curve)
    h = r + s
    return 1 / h, r / h, s / h  # alpha, beta, gamma


def test_curve_construction():
    assert curve_new(F5, 1, 1).rhs(0) == 1
    with pytest.raises(SingularCurveError):
        curve_new(F5, 0, 0)
    assert curve_new(F7, 1, 0).a == 1
    with pytest.raises(BadCharacteristicError):
        curve_new(make_field(3), 1, 1)


@pytest.mark.parametrize("a,b", [(1.5, True), (1, 1.0), (True, 1), (1, False)])
def test_curve_refuses_non_integer_coefficients(a, b):
    # Poly.make's int() used to coerce these: (1.5, True) built r^3 + r + 1
    with pytest.raises(TypeError):
        curve_new(F5, a, b)


@pytest.mark.parametrize("n", [2.5, 3.0, True])
def test_divisor_refuses_a_non_integer_multiplicity(n):
    with pytest.raises(TypeError):
        DivisorSpec(n)


@pytest.mark.parametrize("field", [F5, F7, make_field(5, 2)])
def test_singular_exactly_where_the_discriminant_vanishes(field):
    f = field
    for a in f.elements():
        for b in f.elements():
            disc = f.add(f.mul(f.from_int(4), f.pow_(a, 3)), f.mul(f.from_int(27), f.mul(b, b)))
            if disc == 0:
                with pytest.raises(SingularCurveError):
                    curve_new(field, a, b)
            else:
                assert curve_new(field, a, b).genus == 1


def test_point_census(ref_curve):
    pts = enumerate_points(ref_curve)
    assert pts[0] is INFINITY
    expected = {(0, 1), (4, 2), (3, 4), (0, 4), (4, 3), (3, 1), (2, 1), (2, 4)}
    assert set(pts[1:]) == expected
    assert len(pts) == 9
    # Hasse-Weil-Serre interval at q = 5, genus 1
    assert 2 <= len(pts) <= 10


def test_point_census_f7():
    curve = curve_new(F7, 1, 0)  # s^2 = r^3 + r
    pts = enumerate_points(curve)
    brute = 1 + sum(1 for x in range(7) for y in range(7)
                    if (y * y) % 7 == (x ** 3 + x) % 7)
    assert len(pts) == brute


@pytest.mark.parametrize("field, a, b", [(make_field(101), 2, 3), (make_field(5, 2), 1, 1),
                                         (make_field(5, 5), 1, 1)])
def test_enumerate_points_matches_the_square_of_every_y(field, a, b):
    curve = curve_new(field, a, b)
    want = [INFINITY]
    for x in field.elements():
        rhs = curve.F(x)
        want += [(x, y) for y in field.elements() if field.mul(y, y) == rhs]
    assert enumerate_points(curve) == want


def test_function_arithmetic(ref_curve):
    r, s = FnElement.r(ref_curve), FnElement.s(ref_curve)
    assert s * s == r ** 3 + r + 1  # curve relation
    h = r + s
    assert ff_arith(ref_curve, "mul", h, h.inv()) == FnElement.const(ref_curve, 1)
    assert (h - h).is_zero
    with pytest.raises(ZeroDivisionError):
        ff_arith(ref_curve, "div", r, FnElement.zero(ref_curve))


def test_alpha_beta_gamma_sum(ref_curve, abc):
    alpha, beta, gamma = abc
    r, s = FnElement.r(ref_curve), FnElement.s(ref_curve)
    total = alpha + beta + gamma
    expected = (1 + r + s) / (r + s)
    assert total == expected
    for P in [(0, 1), (3, 4), (2, 4)]:
        assert evaluate(ref_curve, total, P) == evaluate(ref_curve, expected, P)


def test_local_expansion_uniformizer(ref_curve):
    r = FnElement.r(ref_curve)
    for P in [(4, 2), (3, 1)]:
        t = r - P[0]
        exp = local_expand(ref_curve, t, P, 5)
        assert exp.valuation == 1 and exp.coeffs[0] == 1


def test_local_expansion_at_infinity(ref_curve):
    r, s = FnElement.r(ref_curve), FnElement.s(ref_curve)
    assert local_expand(ref_curve, r, INFINITY, 4).valuation == -2
    assert local_expand(ref_curve, s, INFINITY, 4).valuation == -3


def test_local_expansion_two_torsion():
    # s^2 = r^3 + r over F_7 has the affine two-torsion point (0, 0)
    curve = curve_new(F7, 1, 0)
    r, s = FnElement.r(curve), FnElement.s(curve)
    assert local_expand(curve, s, (0, 0), 5).valuation == 1
    assert local_expand(curve, r, (0, 0), 6).valuation == 2  # r = s^2/(1 + r^2)


def test_alpha_value_at_base_point(ref_curve, abc):
    alpha = abc[0]
    exp = local_expand(ref_curve, alpha, (0, 1), 4)
    assert exp.valuation == 0 and exp.coeffs[0] == 1
    assert evaluate(ref_curve, alpha, (0, 1)) == 1


def test_valuation_additivity(ref_curve):
    rng = random.Random(3)
    r, s = FnElement.r(ref_curve), FnElement.s(ref_curve)
    pool = [r, s, r + s, r - 1, s + r * r, r * s + 2]
    points = enumerate_points(ref_curve)
    for _ in range(25):
        f = rng.choice(pool)
        g = rng.choice(pool)
        P = rng.choice(points)
        vf = function_valuation(ref_curve, f, P)
        vg = function_valuation(ref_curve, g, P)
        vfg = function_valuation(ref_curve, f * g, P)
        assert vfg == vf + vg


def test_evaluate_pole(ref_curve):
    r = FnElement.r(ref_curve)
    with pytest.raises(PoleAtSupportError):
        evaluate(ref_curve, r, INFINITY)
    # removable-looking denominators still evaluate where the function is finite
    s = FnElement.s(ref_curve)
    g = (r - 2) / (s - 1)  # pole only where s = 1 meets r != 2
    with pytest.raises(PoleAtSupportError):
        evaluate(ref_curve, g, (3, 1))


def test_rr_basis_shapes(ref_curve, abc):
    plain = rr_basis(ref_curve, DivisorSpec(3, None))
    r, s = FnElement.r(ref_curve), FnElement.s(ref_curve)
    assert plain == [FnElement.const(ref_curve, 1), r, s]
    assert rr_basis(ref_curve, DivisorSpec(1, None)) == [FnElement.const(ref_curve, 1)]
    div = reference.divisor()
    basis = rr_basis(ref_curve, div)
    assert tuple(basis) == abc
    for n in range(1, 7):
        assert len(rr_basis(ref_curve, DivisorSpec(n, None))) == n


def test_rr_basis_no_stray_poles(ref_curve):
    div = reference.divisor()
    basis = rr_basis(ref_curve, div)
    for f in basis:
        for P in enumerate_points(ref_curve):
            assert function_valuation(ref_curve, f, P) >= 0


def test_izb_at_base_point(ref_curve, abc):
    res = increasing_zero_basis(ref_curve, list(abc), (0, 1))
    assert res.valuations == (0, 1, 2)
    alpha, beta, gamma = abc
    # the hand triple (alpha, beta, gamma - 3 beta - alpha) is one valid answer
    hand = [alpha, beta, gamma - 3 * beta - alpha]
    vals = [function_valuation(ref_curve, f, (0, 1)) for f in hand]
    assert vals == [0, 1, 2]


def test_izb_at_infinity(ref_curve, abc):
    res = increasing_zero_basis(ref_curve, list(abc), INFINITY)
    assert res.valuations == (0, 1, 3)  # the order-2 slot is the gap at O
    alpha, beta, gamma = abc
    hand = [gamma, beta, alpha]
    vals = [function_valuation(ref_curve, f, INFINITY) for f in hand]
    assert vals == [0, 1, 3]
    assert evaluate(ref_curve, gamma, INFINITY) == 1


def test_izb_errors(ref_curve):
    r, s = FnElement.r(ref_curve), FnElement.s(ref_curve)
    with pytest.raises(PointInSupportError):
        increasing_zero_basis(ref_curve, [FnElement.const(ref_curve, 1), r, s], INFINITY)
    with pytest.raises(DependentBasisError):
        increasing_zero_basis(ref_curve, [r, 2 * r], (0, 1))


def test_izb_polynomials_on_line():
    basis = [Poly.const(F5, 1), Poly.x(F5)]
    res = increasing_zero_basis(None, basis, 3)
    assert res.valuations == (0, 1)
    assert res.elements[1].coeffs == (2, 1)  # x - 3
    with pytest.raises(DependentBasisError):
        increasing_zero_basis(None, [basis[1], basis[1].scale(2)], 3)
    with pytest.raises(PointInSupportError):
        increasing_zero_basis(None, basis, INFINITY)


def test_goppa_reference_inputs(ref_curve, ref_udmg):
    gc = goppa_udmg(ref_curve, reference.POINTS, reference.divisor())
    assert gc.udmg.matrices == ref_udmg.matrices
    assert verify(gc.udmg).valid
    assert gc.point_valuations == reference.POINT_VALUATIONS
    assert goppa_generator(gc).to_rows() == [list(r) for r in reference.GENERATOR]


def test_goppa_f7_curves():
    for (a, b) in [(1, 1), (2, 3)]:
        curve = curve_new(F7, a, b)
        pts = [P for P in enumerate_points(curve) if P is not INFINITY]
        gc = goppa_udmg(curve, pts, DivisorSpec(3, None))
        assert gc.udmg.K == 3 and gc.udmg.g == 1
        assert verify(gc.udmg).valid
        K = gc.udmg.K
        for j, P in enumerate(gc.points):
            col = gc.matrices[j].col(0)
            assert col == tuple(evaluate(curve, gc.basis0[i], P) for i in range(K))


def test_goppa_larger_sections():
    curve = curve_new(F7, 1, 1)
    pts = [P for P in enumerate_points(curve) if P is not INFINITY]
    for n in (4, 5):
        gc = goppa_udmg(curve, pts, DivisorSpec(n, None))
        assert gc.udmg.K == n and verify(gc.udmg).valid
        for vals in gc.point_valuations:
            assert vals[0] == 0
            assert all(b > a for a, b in zip(vals, vals[1:]))


def test_goppa_code_defect_bounded_by_genus():
    from udmg.codes import first_column_code

    curve = curve_new(F7, 2, 3)
    pts = [P for P in enumerate_points(curve) if P is not INFINITY]
    gc = goppa_udmg(curve, pts, DivisorSpec(3, None))
    if gc.udmg.L >= gc.udmg.K + 1:
        code = first_column_code(gc.udmg)
        assert code.defect <= 1


def test_goppa_rejections(ref_curve):
    with pytest.raises(SupportCollisionError):
        goppa_udmg(ref_curve, [INFINITY, (0, 1)], DivisorSpec(3, None))
    with pytest.raises(DuplicatePointsError):
        goppa_udmg(ref_curve, [(0, 1), (0, 1)], reference.divisor())


def test_goppa_degenerate_single_point(ref_curve):
    gc = goppa_udmg(ref_curve, [(0, 1)], DivisorSpec(2, None))
    assert gc.udmg.K == 2 and gc.udmg.L == 1
    assert not gc.udmg.is_nondegenerate  # N = 2 < K + g = 3
    assert verify(gc.udmg).vacuous


def test_genus0_full_line():
    pts = [0, 1, 2, 3, 4, INFINITY]
    gc = genus0_udmg(F5, pts, 3)
    assert gc.udmg.L == 6 and gc.udmg.g == 0
    assert verify(gc.udmg).valid
    assert gc.matrices[0].to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]  # base point 0
    # at infinity the basis is reversed, so its first column picks out the
    # top coefficients of the reference basis
    top = [gc.basis0[i].coeff(2) for i in range(3)]
    assert gc.matrices[5].col(0) == tuple(top)


def test_genus0_one_dimensional():
    gc = genus0_udmg(F5, [0, 1], 1)
    assert all(M.to_rows() == [[1]] for M in gc.matrices)
    assert not gc.udmg.is_nondegenerate  # K = 1 is anomalous


def test_genus0_rejections():
    with pytest.raises(DuplicatePointsError):
        genus0_udmg(F5, [1, 1], 2)


# The point checks of both constructions, with their messages and order: no
# points, then (on the line) more than q + 1 points, then a repeated point, all
# before any point is read; genus0_udmg checks K first, goppa_udmg deg D after.

def test_constructions_refuse_an_empty_point_list(ref_curve):
    msg = "^the construction needs at least one point$"
    with pytest.raises(InvalidInputError, match=msg):
        genus0_udmg(F5, iter([]), 2)
    with pytest.raises(InvalidInputError, match=msg):
        goppa_udmg(ref_curve, [], reference.divisor())
    with pytest.raises(InvalidInputError, match=msg):
        goppa_udmg(ref_curve, iter([]), DivisorSpec(0))  # before the check on deg D
    with pytest.raises(ValueError, match="^K must be >= 1$"):
        genus0_udmg(F5, [], 0)  # K is checked first


def test_constructions_name_a_repeated_point(ref_curve):
    msg = "^points must be pairwise distinct$"
    with pytest.raises(DuplicatePointsError, match=msg):
        genus0_udmg(F5, iter([1, 7, 7]), 2)  # before 7 is found outside GF(5)
    with pytest.raises(DuplicatePointsError, match=msg):
        goppa_udmg(ref_curve, iter([(0, 1), (1, 1), (1, 1)]), DivisorSpec(0))  # (1, 1) is off the curve
    with pytest.raises(DuplicatePointsError, match=msg):
        genus0_udmg(F5, [INFINITY, 0, INFINITY], 2)


def test_line_construction_names_too_many_points():
    F13 = make_field(13)
    points = list(range(13)) + [INFINITY, 0]  # 15 points, one repeated: the count is checked first
    with pytest.raises(TooManyPointsError, match=r"^at most 14 points on the line$"):
        genus0_udmg(F13, iter(points), 3)
    assert genus0_udmg(F13, points[:14], 3).udmg.L == 14


def test_extension_field_curve():
    f25 = make_field(5, 2)
    curve = curve_new(f25, 1, 1)
    pts = enumerate_points(curve)
    assert 26 - 10 <= len(pts) <= 26 + 10  # Hasse-Weil-Serre at q = 25
    affine = [P for P in pts if P is not INFINITY][:4]
    gc = goppa_udmg(curve, affine, DivisorSpec(3, None))
    assert verify(gc.udmg).valid
    for j, P in enumerate(gc.points):
        evals = tuple(evaluate(curve, gc.basis0[i], P) for i in range(3))
        assert gc.matrices[j].col(0) == evals


def test_genus0_extension_field():
    f4 = make_field(2, 2)
    gc = genus0_udmg(f4, [0, 1, 2, 3, INFINITY], 2)
    assert gc.udmg.L == 5 and verify(gc.udmg).valid


# -- the working-precision bound of local_expand ---------------------------------
#
# One expansion at the working length must keep exactly prec coefficients and
# the true valuation, at O, at flexes and at 2-torsion points alike.

BOUND_CURVES = [(F5, 1, 1), (F7, 3, 0), (make_field(11), 2, 0), (make_field(5, 2), 1, 1)]


def uniformizer(curve, P):
    r, s = FnElement.r(curve), FnElement.s(curve)
    if P is INFINITY:
        return r / s
    return s if P[1] == 0 else r - P[0]


def assert_expansion(curve, fn, P, valuation, prec):
    exp = local_expand(curve, fn, P, prec)
    assert (exp.valuation, len(exp.coeffs)) == (valuation, prec), (str(fn), P)
    assert exp.coeffs[0] != 0
    return exp


def coordinate_series_by_cubic(curve, P, length):
    """Oracle: (r, s) at P written out for the cubic r^3 + a r + b by hand."""
    f, Series = curve.field, curves.Series

    def scale(c, x):
        return Series(f, x.val, [f.mul(c, v) for v in x.coef])

    if P is INFINITY:
        # z = r/s, w = 1/s solve w = z^3 + a z w^2 + b w^3.
        z = Series(f, 1, [1] + [0] * (length - 1))
        z3 = z.mul(z).mul(z)
        w = Series(f, 3, [1] + [0] * (length - 1))
        for _ in range(length + 4):
            w2 = w.mul(w)
            nxt = z3.add(scale(curve.a, z.mul(w2))).add(scale(curve.b, w2.mul(w)))
            if (nxt.val, nxt.coef) == (w.val, w.coef):
                break
            w = nxt
        s = w.inv()
        return z.mul(s), s
    x0, y0 = P
    if y0 != 0:
        # t = r - x0; solve s(t) coefficient by coefficient from s^2 = f(r).
        rhs = [f.add(f.add(f.pow_(x0, 3), f.mul(curve.a, x0)), curve.b),
               f.add(f.mul(3, f.mul(x0, x0)), curve.a), f.mul(3, x0), 1]
        s_coef = [y0] + [0] * (length - 1)
        inv2y = f.inv(f.mul(2, y0))
        for n in range(1, length):
            acc = rhs[n] if n < 4 else 0
            for i in range(1, n):
                if s_coef[i] and s_coef[n - i]:
                    acc = f.sub(acc, f.mul(s_coef[i], s_coef[n - i]))
            s_coef[n] = f.mul(acc, inv2y)
        return Series(f, 0, [x0, 1] + [0] * (length - 2)), Series(f, 0, s_coef)
    # Two-torsion point: t = s; solve r(t) from t^2 = f(r), pivot f'(x0) != 0.
    inv_pivot = f.inv(f.add(f.mul(3, f.mul(x0, x0)), curve.a))
    r_coef = [x0] + [0] * (length - 1)
    sq = [f.mul(x0, x0)] + [0] * (length - 1)  # square of the known prefix
    for n in range(1, length):
        cube_n = 0
        for i in range(n + 1):
            if sq[i] and r_coef[n - i]:
                cube_n = f.add(cube_n, f.mul(sq[i], r_coef[n - i]))
        known = f.add(cube_n, f.mul(curve.a, r_coef[n]))  # r_coef[n] is still 0
        r_coef[n] = f.mul(f.sub(1 if n == 2 else 0, known), inv_pivot)
        rn = r_coef[n]
        if rn:
            for m in range(n, length):
                j = m - n
                if j < n and r_coef[j]:
                    sq[m] = f.add(sq[m], f.mul(2, f.mul(rn, r_coef[j])))
            if 2 * n < length:
                sq[2 * n] = f.add(sq[2 * n], f.mul(rn, rn))
    return Series(f, 0, r_coef), Series(f, 1, [1] + [0] * (length - 1))


@pytest.mark.parametrize("field,a,b", BOUND_CURVES + [(F7, 6, 0)])  # last: s^2 = r^3 - r
def test_coordinate_series_matches_the_hand_written_cubic(field, a, b):
    curve = curve_new(field, a, b)
    points = enumerate_points(curve)
    if (field, a, b) == (F7, 6, 0):
        assert sum(P is not INFINITY and P[1] == 0 for P in points) == 3
    for P in points:
        for length in range(1, 46):
            got = curves._coordinate_series(curve, P, length)
            want = coordinate_series_by_cubic(curve, P, length)
            for x, y in zip(got, want):
                assert (x.val, x.coef) == (y.val, y.coef), (P, length)


@pytest.mark.parametrize("field,a,b", BOUND_CURVES[:3])
def test_uniformizer_powers_expand_exactly(field, a, b):
    curve = curve_new(field, a, b)
    for P in enumerate_points(curve):
        t = uniformizer(curve, P)
        for k in range(1, 7):
            for fn, v in ((t ** k, k), (t ** -k, -k)):
                for prec in (1, 6):
                    exp = assert_expansion(curve, fn, P, v, prec)
                    assert exp.coeffs == (1,) + (0,) * (prec - 1)  # t^k is exactly t^k


@pytest.mark.parametrize("field,a,b", BOUND_CURVES[1:3])
def test_vertical_line_powers_at_two_torsion(field, a, b):
    curve = curve_new(field, a, b)
    r = FnElement.r(curve)
    for P in enumerate_points(curve):
        if P is not INFINITY and P[1] == 0:
            for d in range(1, 7):
                for prec in (1, 5):
                    assert_expansion(curve, (r - P[0]) ** d, P, 2 * d, prec)
                    assert_expansion(curve, (r - P[0]) ** -d, P, -2 * d, prec)


def test_tangent_powers_at_flexes(ref_curve):
    # (2, 1) and (2, 4) are 3-torsion: the tangent line meets the curve there
    # with multiplicity 3 and nowhere else in the affine plane.
    f = ref_curve.field
    r, s = FnElement.r(ref_curve), FnElement.s(ref_curve)
    for x0, y0 in [(2, 1), (2, 4)]:
        slope = f.div(f.add(f.mul(3, f.mul(x0, x0)), ref_curve.a), f.mul(2, y0))
        tangent = s - y0 - slope * (r - x0)
        for k in range(1, 7):
            for prec in (1, 4, 8):
                assert_expansion(ref_curve, tangent ** k, (x0, y0), 3 * k, prec)
                assert_expansion(ref_curve, tangent ** -k, (x0, y0), -3 * k, prec)


def root_multiplicity(poly, x0):
    lin = Poly.make(poly.field, (poly.field.neg(x0), 1))
    k = 0
    while poly(x0) == 0:
        poly, k = poly // lin, k + 1
    return k


def valuation_oracle(curve, fn, P):
    """Order of (A + s*B)/C at P from polynomial root multiplicities alone."""
    f = curve.field
    A, B, C = fn.A, fn.B, fn.C
    if P is INFINITY:  # r has a pole of order 2 and s of order 3, of different parity
        num = max(2 * A.degree if not A.is_zero else -1, 2 * B.degree + 3 if not B.is_zero else -1)
        return 2 * C.degree - num
    x0, y0 = P
    if y0 == 0:  # r - x0 has order 2 and s order 1: again no cancellation
        orders = [2 * root_multiplicity(A, x0)] if not A.is_zero else []
        orders += [1 + 2 * root_multiplicity(B, x0)] if not B.is_zero else []
        return min(orders) - 2 * root_multiplicity(C, x0)
    # r - x0 has order 1; split off common factors (r - x0) of A and B, then
    # either A + sB is a unit at P or its conjugate A - sB is, and the norm
    # A^2 - (r^3 + ar + b) B^2 = (A + sB)(A - sB) carries the whole order.
    lin, k = Poly.make(f, (f.neg(x0), 1)), 0
    while A(x0) == 0 and B(x0) == 0:
        A, B, k = A // lin, B // lin, k + 1
    if f.add(A(x0), f.mul(y0, B(x0))) != 0:
        num = k
    else:
        num = k + root_multiplicity(A * A - curve.F * (B * B), x0)
    return num - root_multiplicity(C, x0)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_random_functions_expand_to_the_oracle_valuation(data):
    field, a, b = data.draw(st.sampled_from(BOUND_CURVES))
    curve = curve_new(field, a, b)
    P = data.draw(st.sampled_from(enumerate_points(curve)))
    coeffs = st.lists(st.integers(0, field.q - 1), max_size=5)
    A, B = (Poly.make(field, data.draw(coeffs)) for _ in range(2))
    C = Poly.make(field, data.draw(coeffs))
    assume(not (A.is_zero and B.is_zero) and not C.is_zero)
    fn = FnElement(curve, A, B, C)
    prec = data.draw(st.integers(1, 8))
    v = valuation_oracle(curve, fn, P)
    assert_expansion(curve, fn, P, v, prec)
    assert function_valuation(curve, fn, P) == v
    assert_expansion(curve, fn.inv(), P, -v, prec)


def test_zero_function_is_the_only_precision_failure(ref_curve):
    for P in enumerate_points(ref_curve):
        with pytest.raises(PrecisionExhaustedError):
            local_expand(ref_curve, FnElement.zero(ref_curve), P, 1)
        assert evaluate(ref_curve, FnElement.zero(ref_curve), P) == 0


# -- increasing_zero_basis: the precision retry ------------------------------------

def test_izb_retries_until_valuations_separate(ref_curve, monkeypatch):
    import udmg.curves as curves

    precs = []

    def recording(curve, fn, P, prec):
        precs.append(prec)
        return local_expand(curve, fn, P, prec)

    monkeypatch.setattr(curves, "local_expand", recording)
    # r is the uniformizer at (0, 1); the default window is len(basis) + 4 = 6
    one, r = FnElement.const(ref_curve, 1), FnElement.r(ref_curve)
    res = increasing_zero_basis(ref_curve, [one, r ** 8], (0, 1))
    assert res.valuations == (0, 8) and sorted(set(precs)) == [6, 12]  # one retry
    precs.clear()
    res = increasing_zero_basis(ref_curve, [one, r ** 30 + r ** 31], (0, 1))
    assert res.valuations == (0, 30) and sorted(set(precs)) == [6, 12, 24, 48]  # the last attempt
    assert str(res.elements[1]) == "r^30 + r^31"
    with pytest.raises(PrecisionExhaustedError):
        increasing_zero_basis(ref_curve, [one, r ** 60], (0, 1))


# -- the construction's rows: one expansion of r, s and 1/h per point ----------------
#
# goppa_udmg reads the rows of rr_basis at each point off one expansion of r,
# s and 1/h (curves._rr_rows).  The route it replaced, one local_expand per
# basis element, is kept here as the oracle the rows must equal entry for entry.

def rows_by_local_expand(curve, D, P, width):
    """Oracle: the coefficients of t^0, ..., t^(width-1) of each rr_basis element."""
    rows = []
    for fn in rr_basis(curve, D):
        exp = local_expand(curve, fn, P, width)
        assert exp.valuation >= 0
        rows.append(([0] * exp.valuation + list(exp.coeffs))[:width])
    return rows


def assert_rows_match(curve, D, widths, seen):
    """_rr_rows against the oracle at every point; refusal exactly on supp D."""
    for P in enumerate_points(curve):
        on_support = (D.n if P is INFINITY else 0) + (
            0 if D.h is None else function_valuation(curve, D.h, P))
        for width in widths:
            if on_support:
                with pytest.raises(SupportCollisionError, match="support of the divisor"):
                    curves._rr_rows(curve, D, P, width)
                continue
            got = curves._rr_rows(curve, D, P, width)
            assert got == rows_by_local_expand(curve, D, P, width), (str(D.h), D.n, P, width)
            seen["rows"] += 1
            seen["at O"] += P is INFINITY
            if P is not INFINITY:
                seen["two-torsion"] += P[1] == 0
                seen["C(P) = 0"] += D.h is not None and D.h.C(P[0]) == 0


def row_counts():
    return dict.fromkeys(("rows", "at O", "two-torsion", "C(P) = 0"), 0)


@pytest.mark.parametrize("field,a,b", BOUND_CURVES)
def test_rr_rows_equal_local_expand_rows_for_n_times_o(field, a, b):
    curve, seen = curve_new(field, a, b), row_counts()
    for n in range(1, 8):
        assert_rows_match(curve, DivisorSpec(n, None), (n + 3,), seen)
    assert seen["rows"] == 7 * (len(enumerate_points(curve)) - 1)  # every affine point


def test_rr_rows_equal_local_expand_rows_for_the_fixture(ref_curve):
    seen = row_counts()
    assert_rows_match(ref_curve, reference.divisor(), (1, 6), seen)
    assert seen["at O"] == 2 and seen["rows"] == 2 * len(reference.POINTS)


def test_rr_rows_equal_local_expand_rows_for_random_h():
    # n = -v_O(h) puts O outside supp D; h with C = 1 is a polynomial.
    rng, seen = random.Random(20), row_counts()

    def poly(field, top):
        return Poly.make(field, [rng.randrange(field.q) for _ in range(rng.randint(1, top))])

    for field, a, b in BOUND_CURVES[:3]:
        curve = curve_new(field, a, b)
        for polynomial in (True, False) * 6:
            A, B = poly(field, 3), poly(field, 2)
            C = Poly.const(field, 1) if polynomial else poly(field, 3)
            if (A.is_zero and B.is_zero) or C.is_zero:
                continue
            h = FnElement(curve, A, B, C)
            n = -function_valuation(curve, h, INFINITY)
            if n >= 1:
                assert_rows_match(curve, DivisorSpec(n, h), (n + 3,), seen)
    assert seen["at O"] >= 10 and seen["two-torsion"] >= 1 and seen["C(P) = 0"] >= 1, seen


def test_rr_rows_where_the_denominator_of_h_vanishes():
    # h = (s - y0) r^2 / (r - x0): C(x0) = 0, yet P0 = (x0, y0) is outside supp D
    # whenever the tangent there is not horizontal.
    seen = row_counts()
    for field, a, b in BOUND_CURVES[1:3]:  # both have two-torsion points
        curve = curve_new(field, a, b)
        r, s = FnElement.r(curve), FnElement.s(curve)
        for P0 in enumerate_points(curve)[1:]:
            h = (s - P0[1]) * r * r / (r - P0[0])
            assert_rows_match(curve, DivisorSpec(-function_valuation(curve, h, INFINITY), h),
                              (4,), seen)
    assert seen["C(P) = 0"] >= 4 and seen["two-torsion"] >= 4 and seen["at O"] >= 4, seen


def test_construction_expands_once_per_point(ref_curve, monkeypatch):
    calls = []
    series = curves._coordinate_series
    monkeypatch.setattr(curves, "_coordinate_series",
                        lambda curve, P, length: calls.append(P) or series(curve, P, length))
    curve = curve_new(make_field(11), 1, 3)
    affine = enumerate_points(curve)[1:13]
    goppa_udmg(curve, affine, DivisorSpec(5, None))
    assert calls == affine
    calls.clear()
    goppa_udmg(ref_curve, reference.POINTS, reference.divisor())
    # the generator check reads B_0's values at O off the rows there, with no expansion
    assert calls == list(reference.POINTS)


def test_points_off_the_curve_are_refused(ref_curve):
    r, s = FnElement.r(ref_curve), FnElement.s(ref_curve)
    assert not ref_curve.contains((0, 0))  # s^2 = r^3 + r + 1 has no point with s = r = 0
    for fn in (s, r, r / (s + 1)):
        with pytest.raises(InvalidInputError, match="not a rational point"):
            evaluate(ref_curve, fn, (0, 0))
        with pytest.raises(InvalidInputError, match="not a rational point"):
            local_expand(ref_curve, fn, (0, 0), 3)
    with pytest.raises(InvalidInputError, match="not a rational point"):
        increasing_zero_basis(ref_curve, [FnElement.const(ref_curve, 1), r, s], (0, 0))
    with pytest.raises(InvalidInputError, match="not a rational point"):
        goppa_udmg(ref_curve, [(0, 1), (0, 0)], reference.divisor())


# -- the construction's valuation certificate -----------------------------------------
#
# The construction proves its output valid by _certify, not by a scan.  The
# certificate is sufficient, not necessary, so the tests hold it to soundness:
# whatever it accepts, the full scan must find valid.

def constructed(build):
    """Run a construction; return it with the arguments it handed to _assemble."""
    seen = []
    assemble = curves._assemble
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "_assemble", lambda *args: seen.append(args) or assemble(*args))
        gc = build()
    return gc, seen[0]


def certify(gc, args, matrices=None, t0=None):
    field, _, points, divisor, _, rows, _ = args
    curves._certify(field, gc.genus, divisor.n, points,
                    gc.transforms[0] if t0 is None else t0,
                    gc.matrices if matrices is None else matrices, rows)


def replaced(matrices, i, M):
    return matrices[:i] + (M,) + matrices[i + 1:]


def lowered(gc, i, j):
    """matrices[i] with B_ij replaced by B_ij + B_i,j-1, so v(B_ij) + D(P_i) = j - 1."""
    K = gc.udmg.K
    E = FqMatrix.from_rows(gc.field, [[1 if r == c else gc.field.neg(1) if (r, c) == (j, j - 1)
                                       else 0 for c in range(K)] for r in range(K)])
    return gc.matrices[i].matmul(E)  # M_i E B'_i = B_0 where B'_i = E^-1 B_i


F9 = make_field(3, 2)
CERTIFIED = {
    "line5": lambda: genus0_udmg(F5, [0, 1, 2, 3, 4, INFINITY], 3),
    "line7": lambda: genus0_udmg(F7, list(range(7)) + [INFINITY], 4),
    "line9": lambda: genus0_udmg(F9, list(range(9)) + [INFINITY], 3),
    "fixture": lambda: goppa_udmg(reference.curve(), reference.POINTS, reference.divisor()),
    "curve7": lambda: goppa_udmg(curve_new(F7, 1, 1), enumerate_points(curve_new(F7, 1, 1))[1:],
                                 DivisorSpec(4, None)),
    "curve7_small": lambda: goppa_udmg(curve_new(F7, 1, 1),
                                       enumerate_points(curve_new(F7, 1, 1))[1:5],
                                       DivisorSpec(3, None)),
}
NAIVE = ("line5", "curve7_small")  # verify_naive's capped enumeration is small here


@pytest.fixture(scope="module")
def certified():
    return {name: constructed(build) for name, build in CERTIFIED.items()}


def test_constructions_pass_the_certificate_and_the_scan(certified):
    for name, (gc, args) in certified.items():
        certify(gc, args)
        assert verify(gc.udmg).valid, name
        if name in NAIVE:
            assert verify_naive(gc.udmg).valid, name


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_certified_single_entry_corruptions_verify(certified, data):
    gc, args = certified[data.draw(st.sampled_from(sorted(certified)))]
    field, K = gc.field, gc.udmg.K
    i = data.draw(st.integers(0, gc.udmg.L - 1))
    r, c = data.draw(st.integers(0, K - 1)), data.draw(st.integers(0, K - 1))
    rows = gc.matrices[i].to_rows()
    rows[r][c] = field.add(rows[r][c], data.draw(st.integers(1, field.q - 1)))
    mats = replaced(gc.matrices, i, FqMatrix.from_rows(field, rows))
    try:
        certify(gc, args, matrices=mats)
    except AssertionError:
        return
    assert verify(Udmg(field, K, gc.genus, mats)).valid


def test_every_single_entry_corruption_of_a_small_line(certified):
    gc, args = certified["line5"]
    field, K = gc.field, gc.udmg.K
    outcomes = set()
    for i in range(gc.udmg.L):
        for r in range(K):
            for c in range(K):
                for delta in range(1, field.q):
                    rows = gc.matrices[i].to_rows()
                    rows[r][c] = field.add(rows[r][c], delta)
                    mats = replaced(gc.matrices, i, FqMatrix.from_rows(field, rows))
                    try:
                        certify(gc, args, matrices=mats)
                    except AssertionError:
                        outcomes.add(False)
                        continue
                    outcomes.add(True)
                    assert verify(Udmg(field, K, 0, mats)).valid, (i, r, c, delta)
    assert outcomes == {True, False}  # neither vacuous nor rejecting everything


def test_assemble_raises_on_a_corrupted_matrix(certified):
    for name in ("line5", "fixture"):  # the last point is infinity in both
        gc, (field, curve, points, divisor, canonical, rows, results) = certified[name]
        i = len(points) - 1
        M = lowered(gc, i, gc.udmg.K - 1)
        assert not verify(Udmg(field, gc.udmg.K, gc.genus, replaced(gc.matrices, i, M))).valid
        t0 = gc.transforms[0]
        bad = replaced(tuple(results), i, (results[i][0], inverse(M).matmul(t0)))
        with pytest.raises(AssertionError):
            curves._assemble(field, curve, points, divisor, canonical, rows, bad)


def test_certificate_needs_order_j_not_j_minus_1(certified):
    # A check of columns < j - 1 only would accept each of these invalid sets.
    for name in ("line5", "fixture"):
        gc, args = certified[name]
        for i in range(gc.udmg.L):
            for j in range(1, gc.udmg.K):
                mats = replaced(gc.matrices, i, lowered(gc, i, j))
                assert not verify(Udmg(gc.field, gc.udmg.K, gc.genus, mats)).valid
                with pytest.raises(AssertionError, match="below"):
                    certify(gc, args, matrices=mats)


def test_certificate_checks_the_reference_rank(certified):
    # With t0 = 0 every expansion vanishes, so only the rank test refuses it.
    for gc, args in certified.values():
        K = gc.udmg.K
        with pytest.raises(AssertionError, match="dependent"):
            certify(gc, args, t0=FqMatrix.zeros(gc.field, K, K))


def test_certificate_side_conditions(certified):
    gc, args = certified["fixture"]
    field, _, points, divisor, _, rows, _ = args
    t0 = gc.transforms[0]
    with pytest.raises(AssertionError, match="deg D"):
        curves._certify(field, 1, divisor.n + 1, points, t0, gc.matrices, rows)
    with pytest.raises(AssertionError, match="distinct"):
        curves._certify(field, 1, divisor.n, points[:1] * len(points), t0, gc.matrices, rows)
    with pytest.raises(AssertionError, match="singular"):
        certify(gc, args, matrices=replaced(gc.matrices, 2, FqMatrix.zeros(field, 3, 3)))


def test_certificate_at_infinity_on_the_line(certified):
    # The rows at infinity are shifted by D(inf) = K - 1: the valuations there
    # run from -(K - 1), and a corrupted matrix at infinity is still caught.
    gc, args = certified["line7"]
    K = gc.udmg.K
    assert gc.points[-1] is INFINITY
    assert gc.point_valuations[-1] == tuple(range(1 - K, 1))
    certify(gc, args)
    last = len(gc.points) - 1
    for j in range(1, K):
        with pytest.raises(AssertionError):
            certify(gc, args, matrices=replaced(gc.matrices, last, lowered(gc, last, j)))


def test_point_bases_equal_increasing_zero_bases(certified):
    gc, _ = certified["fixture"]
    assert gc.point_bases[0] == gc.basis0
    for i, P in enumerate(gc.points):
        res = increasing_zero_basis(gc.curve, list(gc.canonical), P, prec=gc.udmg.K + 3)
        assert gc.point_bases[i] == res.elements
        assert gc.point_valuations[i] == res.valuations
    gc, _ = certified["line7"]
    K = gc.udmg.K
    for i, P in enumerate(gc.points):
        if P is INFINITY:  # the reversed monomials, which the public routine refuses here
            want = tuple(Poly.const(gc.field, 1).shift(K - 1 - j) for j in range(K))
        else:
            want = increasing_zero_basis(None, list(gc.canonical), P).elements
        assert gc.point_bases[i] == want


def test_constructions_make_no_scan(monkeypatch):
    scans = []
    monkeypatch.setattr(core, "_scan", lambda *args: scans.append(args))
    genus0_udmg(make_field(13), list(range(13)) + [INFINITY], 5)
    curve = curve_new(make_field(23), 1, 1)
    affine = [P for P in enumerate_points(curve) if P is not INFINITY]
    gc = goppa_udmg(curve, affine, DivisorSpec(7, None))
    assert (gc.udmg.L, gc.udmg.K) == (27, 7)
    assert scans == []

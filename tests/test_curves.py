import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from udmg import reference
from udmg.core import verify
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
    PointInSupportError,
    PoleAtSupportError,
    PrecisionExhaustedError,
    SingularCurveError,
    SupportCollisionError,
)
from udmg.fields import make_field
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
        num = k + root_multiplicity(A * A - curve.relation_poly() * (B * B), x0)
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

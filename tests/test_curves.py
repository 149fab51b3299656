import operator
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from udmg import core, curves, reference
from udmg.core import Udmg, minimal_genus, verify, verify_naive
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
    HasseWeilViolationError,
    InvalidInputError,
    PointInSupportError,
    PoleAtSupportError,
    PrecisionExhaustedError,
    SingularCurveError,
    TooLargeError,
    TooManyPointsError,
    UnsupportedDivisorError,
)
from udmg.fields import make_field
from udmg.linalg import FqMatrix, inverse, rank
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
    for field in (make_field(2), make_field(2, 2)):  # characteristic 3 is accepted
        with pytest.raises(BadCharacteristicError):
            curve_new(field, 1, 1)


@pytest.mark.parametrize("a,b", [(1.5, True), (1, 1.0), (True, 1), (1, False)])
def test_curve_refuses_non_integer_coefficients(a, b):
    # Poly.make's int() used to coerce these: (1.5, True) built r^3 + r + 1
    with pytest.raises(TypeError):
        curve_new(F5, a, b)


@pytest.mark.parametrize("n", [2.5, 3.0, True])
def test_divisor_refuses_a_non_integer_multiplicity(n):
    with pytest.raises(TypeError):
        DivisorSpec(n)


# 4a^3 + 27b^2 reads a^3 in characteristic 3, so there a curve is singular iff a = 0
@pytest.mark.parametrize("field", [F5, F7, make_field(5, 2), make_field(3), make_field(3, 2)])
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


# -- characteristic 3: the short form is accepted, singular iff a = 0 -----------

@pytest.mark.parametrize("q, m, best", [(3, 1, 7), (3, 2, 16), (3, 3, 37)],
                         ids=["q3", "q9", "q27"])
def test_short_form_point_counts_in_characteristic_3(q, m, best):
    f = make_field(q, m)
    roots = [0] * f.q  # roots[c] = #{y : y^2 = c}
    for y in f.elements():
        roots[f.mul(y, y)] += 1
    counts = []
    for a in f.elements():
        for b in f.elements():
            if a == 0:
                with pytest.raises(SingularCurveError):
                    curve_new(f, a, b)
                continue
            n = 1 + sum(roots[f.add(f.mul(f.add(f.mul(x, x), a), x), b)] for x in f.elements())
            assert len(enumerate_points(curve_new(f, a, b))) == n
            counts.append(n)
    assert max(counts) == best


def test_gf3_constructions_on_every_point_have_minimal_genus_1():
    # s^2 = r^3 + 2r + 1 has 7 points, the Hasse-Weil maximum over GF(3); verify_naive
    # takes seconds past D = 3*O, so the larger sets are checked by the annihilator scan
    from test_core import oracle_verify

    curve = curve_new(make_field(3), 2, 1)
    points = enumerate_points(curve)
    assert len(points) == 7
    for n in (3, 4, 5):
        u = goppa_udmg(curve, points, DivisorSpec(n)).udmg
        assert (u.K, u.L, u.g) == (n, 7, 1)
        assert minimal_genus(u) == (1, False)
        for g in (0, 1):
            fast = verify(u.with_genus(g))
            oracles = [oracle_verify(u.with_genus(g))]
            if n == 3:
                oracles.append(verify_naive(u.with_genus(g)))
            assert fast.valid == (g == 1)
            assert all((o.valid, o.witness) == (fast.valid, fast.witness) for o in oracles)


def test_gf9_constructions_on_every_point_have_minimal_genus_1():
    # s^2 = r^3 + r has 16 points, the Hasse-Weil maximum over GF(9); the construction
    # certifies genus 1 by valuations, and the scan and the message-side oracle agree
    from test_core import minimal_genus_by_messages

    curve = curve_new(make_field(3, 2), 1, 0)
    points = enumerate_points(curve)
    assert len(points) == 16
    for n in (3, 4):
        u = goppa_udmg(curve, points, DivisorSpec(n)).udmg
        assert (u.K, u.L, u.g) == (n, 16, 1)
        assert minimal_genus(u) == (1, False)
        assert minimal_genus_by_messages(u) == 1


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


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
@pytest.mark.parametrize("other", [1.5, None])
def test_function_arithmetic_refuses_a_foreign_operand(ref_curve, op, other):
    # Each operator returns NotImplemented for what _coerce does not take, so
    # Python raises its own TypeError, in both operand orders.
    r = FnElement.r(ref_curve)
    for a, b in ((r, other), (other, r)):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(a, b)
    assert op(r, 2) == op(r, FnElement.const(ref_curve, 2))
    assert op(2, r) == op(FnElement.const(ref_curve, 2), r)


def full_gcd_form(field, A, B, C):
    """(A + s*B)/C in canonical form by the full gcd, whatever C is."""
    if A.is_zero and B.is_zero:
        return A, B, Poly.const(field, 1)
    g = A.gcd(B).gcd(C)
    A, B, C = A // g, B // g, C // g
    u = field.inv(C.leading)
    return A.scale(u), B.scale(u), C.scale(u)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_constant_denominator_skips_the_gcd_and_keeps_the_form(data):
    # The canonical form reads only curve.field, so a stand-in carries GF(9) and
    # GF(16), where no short Weierstrass curve exists.
    field = data.draw(st.sampled_from([F5, make_field(3, 2), make_field(2, 4)]))
    coeffs = st.lists(st.integers(0, field.q - 1), max_size=5)
    A, B = Poly(field, tuple(data.draw(coeffs))), Poly(field, tuple(data.draw(coeffs)))
    C = Poly.const(field, data.draw(st.integers(1, field.q - 1)))
    fn = FnElement(SimpleNamespace(field=field), A, B, C)
    assert (fn.A, fn.B, fn.C) == full_gcd_form(field, A, B, C)


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
    # O in the support of D = 3*O is a construction point like any other:
    # its rows are read at t^(c - 3), and its valuations run from -3.
    gc = goppa_udmg(ref_curve, [INFINITY, (0, 1)], DivisorSpec(3, None))
    assert gc.point_valuations == ((-3, -2, 0), (0, 1, 2))
    assert goppa_generator(gc) == gc.generator and verify(gc.udmg).valid
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


@pytest.mark.parametrize("K", [True, 2.5, 2.0])
def test_genus0_refuses_a_non_integer_k(K):
    # K = True once built a K = 1 set
    with pytest.raises(TypeError, match="must be an integer"):
        genus0_udmg(F5, [0, 1], K)


def test_line_points_go_through_the_field_check():
    # [0, 1.5] once failed in the duplicate check: 'float' object is not iterable
    with pytest.raises(TypeError, match=r"^rep 1\.5 is not an integer$"):
        genus0_udmg(F5, [0, 1.5], 2)
    with pytest.raises(TypeError, match="rep True"):
        genus0_udmg(F5, [0, True], 2)
    with pytest.raises(ValueError, match=r"^rep 7 outside \[0, 5\)$"):
        genus0_udmg(F5, [0, 7], 2)
    basis = [Poly.const(F5, 1), Poly.x(F5)]
    for P in (1.5, 7, (0, 1)):
        with pytest.raises((TypeError, ValueError), match="^rep "):
            increasing_zero_basis(None, basis, P)


@pytest.mark.parametrize("P", [1.5, 3, (0, 1, 2), [0], "O"])
def test_curve_points_are_o_or_a_pair(ref_curve, P):
    # each once failed with its own unpacking error
    msg = f"^point {re.escape(repr(P))} is neither O nor a pair \\(x, y\\)$"
    with pytest.raises(InvalidInputError, match=msg):
        goppa_udmg(ref_curve, [P], reference.divisor())
    with pytest.raises(InvalidInputError, match=msg):
        goppa_udmg(ref_curve, [(0, 1), P], reference.divisor())
    r = FnElement.r(ref_curve)
    for call in (lambda: evaluate(ref_curve, r, P), lambda: local_expand(ref_curve, r, P, 2),
                 lambda: increasing_zero_basis(ref_curve, [r], P)):
        with pytest.raises(InvalidInputError, match=msg):
            call()


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


def test_constructions_past_the_work_bound_are_refused_before_any_row(ref_curve, monkeypatch):
    # The largest construction a test, a script or the benchmark builds is the
    # whole line over GF(64) at K = 16: L*K^3 = 65*16^3.
    assert curves.MAX_WORK >= 65 * 16 ** 3
    for name in ("rr_basis", "_rr_rows", "_assemble"):
        monkeypatch.setattr(curves, name, lambda *args: pytest.fail("a row was built"))
    monkeypatch.setattr(curves.Series, "chain", lambda *args: pytest.fail("a row was built"))
    K = round(curves.MAX_WORK ** (1 / 3)) + 1  # K^3 > MAX_WORK on a single point
    with pytest.raises(TooLargeError, match="MAX_WORK"):
        genus0_udmg(F5, [0], K)
    with pytest.raises(TooLargeError, match="MAX_WORK"):
        genus0_udmg(F5, [0, 1], 10 ** 9)
    with pytest.raises(TooLargeError, match="MAX_WORK"):
        goppa_udmg(ref_curve, [(0, 1)], DivisorSpec(K))  # K = deg D at genus 1
    with pytest.raises(TooLargeError, match="MAX_WORK"):
        goppa_udmg(ref_curve, reference.POINTS, DivisorSpec(10 ** 9, FnElement.r(ref_curve)))


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


# -- increasing_zero_basis: one expansion per point, at a width fixed in advance -----
#
# The rows come from one expansion of r and s per call, at a width bounded in
# advance by the degree of the pole divisor of a combination.  The route it
# replaced, one local_expand per basis element, is kept here as the oracle the
# rows must equal entry for entry.

def izb_spy(monkeypatch):
    """Record every width the elimination gets, its rows, and every point expanded."""
    seen = {"widths": [], "rows": [], "points": []}
    izb_from_rows, series = curves._izb_from_rows, curves._coordinate_series

    def from_rows(field, basis, rows, width):
        seen["widths"].append(width)
        seen["rows"].append([list(row) for row in rows])
        return izb_from_rows(field, basis, rows, width)

    monkeypatch.setattr(curves, "_izb_from_rows", from_rows)
    monkeypatch.setattr(curves, "_coordinate_series",
                        lambda curve, P, length: seen["points"].append(P) or series(curve, P, length))
    return seen


def izb_rows_by_local_expand(curve, basis, P, width):
    """Oracle: the coefficients of t^0, ..., t^(width-1) of each basis element at P."""
    rows = []
    for fn in basis:
        exp = local_expand(curve, fn, P, width)
        assert exp.valuation >= 0
        rows.append(([0] * exp.valuation + list(exp.coeffs))[:width])
    return rows


def test_izb_expands_once_at_a_width_fixed_in_advance(ref_curve, abc, monkeypatch):
    seen = izb_spy(monkeypatch)
    one, r = FnElement.const(ref_curve, 1), FnElement.r(ref_curve)
    # r is the uniformizer at (0, 1); the width is one more than the pole bound
    for basis, vals, width in (([one, r ** 8], (0, 8), 17),
                               ([one, r ** 30 + r ** 31], (0, 30), 63),
                               ([one, r ** 60], (0, 60), 121),  # beyond the old 8x cap
                               (list(abc), (0, 1, 2), 7),  # the old first window
                               # N/lcm(C_i) spans r^4/((r-1)...(r-4)): deg lcm, not max deg C_i
                               ([one] + [1 / (r - a) for a in (1, 2, 3, 4)], (0, 1, 2, 3, 4), 10)):
        for key in seen:
            seen[key].clear()
        res = increasing_zero_basis(ref_curve, basis, (0, 1))
        assert res.valuations == vals
        assert seen["widths"] == [width] and seen["points"] == [(0, 1)]
        assert seen["rows"] == [izb_rows_by_local_expand(ref_curve, basis, (0, 1), width)]
    res = increasing_zero_basis(ref_curve, [one, r ** 30 + r ** 31], (0, 1))
    assert str(res.elements[1]) == "r^30 + r^31"
    # a width the caller passes is kept, and one too small raises, with no retry
    seen["widths"].clear()
    with pytest.raises(PrecisionExhaustedError, match="not separated"):
        increasing_zero_basis(ref_curve, [one, r ** 8], (0, 1), prec=8)
    assert seen["widths"] == [8]
    with pytest.raises(ValueError, match="prec must be >= 1"):
        increasing_zero_basis(ref_curve, [one, r ** 8], (0, 1), prec=0)


def test_izb_rows_equal_local_expand_rows_at_every_fixture_point(ref_curve, abc, monkeypatch):
    seen = izb_spy(monkeypatch)
    assert len(reference.POINTS) == 9
    for P in reference.POINTS:
        seen["points"].clear()
        res = increasing_zero_basis(ref_curve, list(abc), P)
        assert seen["points"] == [P]
        width = seen["widths"][-1]
        assert seen["rows"][-1] == izb_rows_by_local_expand(ref_curve, abc, P, width), P
        assert res.valuations == tuple(function_valuation(ref_curve, f, P) for f in res.elements)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_izb_rows_equal_local_expand_rows_for_random_bases(data):
    field, a, b = data.draw(st.sampled_from(BOUND_CURVES))
    curve = curve_new(field, a, b)
    P = data.draw(st.sampled_from(enumerate_points(curve)))
    coeffs = st.lists(st.integers(0, field.q - 1), max_size=4)
    basis = []
    for _ in range(data.draw(st.integers(1, 4))):
        A, B, C = (Poly.make(field, data.draw(coeffs)) for _ in range(3))
        assume(not (A.is_zero and B.is_zero) and not C.is_zero)
        basis.append(FnElement(curve, A, B, C))
    poles = [function_valuation(curve, fn, P) < 0 for fn in basis]
    with pytest.MonkeyPatch.context() as mp:
        seen = izb_spy(mp)
        if any(poles):
            with pytest.raises(PointInSupportError, match=f"basis element {poles.index(True)} "):
                increasing_zero_basis(curve, basis, P)
            return
        try:
            res = increasing_zero_basis(curve, basis, P)
        except DependentBasisError:
            res = None
    width = seen["widths"][0]
    assert seen["rows"] == [izb_rows_by_local_expand(curve, basis, P, width)]
    if res is not None:
        assert res.valuations == tuple(function_valuation(curve, f, P) for f in res.elements)
        assert list(res.valuations) == sorted(set(res.valuations)) and res.valuations[-1] < width


def test_izb_of_an_empty_basis_is_empty_on_both_genera(ref_curve):
    empty = increasing_zero_basis(None, [], 3)
    assert empty == ((), (), None)
    assert increasing_zero_basis(ref_curve, [], (0, 1)) == empty
    assert increasing_zero_basis(ref_curve, [], INFINITY) == empty


def test_izb_reads_a_zero_element_as_a_dependency_on_both_genera(ref_curve):
    # on the curve a zero element once exhausted the retries instead
    with pytest.raises(DependentBasisError):
        increasing_zero_basis(None, [Poly.const(F5, 1), Poly.zero(F5)], 3)
    one, zero = FnElement.const(ref_curve, 1), FnElement.zero(ref_curve)
    for P in (INFINITY, (0, 1), (2, 1)):
        for basis in ([one, zero], [zero, one], [zero]):
            with pytest.raises(DependentBasisError):
                increasing_zero_basis(ref_curve, basis, P)


# -- the construction's rows: one expansion of r, s and 1/h per point ----------------
#
# goppa_udmg reads the rows of rr_basis at each point off one expansion of r,
# s and 1/h (curves._rr_rows).  The route it replaced, one local_expand per
# basis element, is kept here as the oracle the rows must equal entry for entry.

def rows_by_local_expand(curve, D, P, width, d):
    """Oracle: the coefficients of t^-d, ..., t^(width-1-d) of each rr_basis element, d = D(P)."""
    rows = []
    for fn in rr_basis(curve, D):
        exp = local_expand(curve, fn, P, width)
        assert exp.valuation + d >= 0
        rows.append(([0] * (exp.valuation + d) + list(exp.coeffs))[:width])
    return rows


def assert_rows_match(curve, D, widths, seen):
    """_rr_rows against the oracle at every point, in the support of D too."""
    for P in enumerate_points(curve):
        d = (D.n if P is INFINITY else 0) + (
            0 if D.h is None else function_valuation(curve, D.h, P))
        for width in widths:
            got = curves._rr_rows(curve, D, P, width)
            assert got == (d, rows_by_local_expand(curve, D, P, width, d)), (str(D.h), D.n, P, width)
            seen["rows"] += 1
            seen["at O"] += P is INFINITY
            seen["on supp D"] += d != 0
            if P is not INFINITY:
                seen["two-torsion"] += P[1] == 0
                seen["C(P) = 0"] += D.h is not None and D.h.C(P[0]) == 0


def row_counts():
    return dict.fromkeys(("rows", "at O", "two-torsion", "C(P) = 0", "on supp D"), 0)


@pytest.mark.parametrize("field,a,b", BOUND_CURVES)
def test_rr_rows_equal_local_expand_rows_for_n_times_o(field, a, b):
    curve, seen = curve_new(field, a, b), row_counts()
    for n in range(1, 8):
        assert_rows_match(curve, DivisorSpec(n, None), (n + 1, n + 3), seen)
    assert seen["rows"] == 14 * len(enumerate_points(curve))  # every point, O included
    assert seen["on supp D"] == seen["at O"] == 14


@pytest.mark.parametrize("field,a,b", BOUND_CURVES)
def test_rr_rows_without_h_equal_those_with_h_1(field, a, b):
    # with no h, 1/h is the exact series 1; h = 1 reaches it through _fn_series and Series.inv
    curve = curve_new(field, a, b)
    one = FnElement.const(curve, 1)
    for n in range(1, 6):
        for P in enumerate_points(curve):
            for width in (n + 1, n + 3):
                assert curves._rr_rows(curve, DivisorSpec(n, None), P, width) == \
                    curves._rr_rows(curve, DivisorSpec(n, one), P, width), (n, P, width)


def test_rr_rows_equal_local_expand_rows_for_the_fixture(ref_curve):
    seen = row_counts()
    assert_rows_match(ref_curve, reference.divisor(), (1, 6), seen)
    assert seen["at O"] == 2 and seen["rows"] == 2 * len(reference.POINTS)
    assert seen["on supp D"] == 0  # the zeros of r + s are not rational


def test_rr_rows_equal_local_expand_rows_for_random_h():
    # n = -v_O(h) puts O outside supp D; h with C = 1 is a polynomial.  The
    # rational zeros and poles of h are points of supp D.
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
                assert_rows_match(curve, DivisorSpec(n, h), (n + 1, n + 3), seen)
    assert seen["at O"] >= 10 and seen["two-torsion"] >= 1 and seen["C(P) = 0"] >= 1, seen
    assert seen["on supp D"] >= 10, seen


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
    assert seen["on supp D"] >= 4, seen
    assert seen["C(P) = 0"] >= 4 and seen["two-torsion"] >= 4 and seen["at O"] >= 4, seen


def test_rr_rows_where_the_numerator_of_h_vanishes_to_high_order():
    # h = (r - x0)^3 vanishes to order 3 at (x0, y0), 6 at a two-torsion point:
    # the working length must cover that many lost coefficients.
    seen = row_counts()
    for field, a, b in BOUND_CURVES[1:3]:
        curve = curve_new(field, a, b)
        for P0 in enumerate_points(curve)[1:]:
            h = (FnElement.r(curve) - P0[0]) ** 3
            for n in (1, 4):
                assert_rows_match(curve, DivisorSpec(n, h), (n + 1,), seen)
    assert seen["two-torsion"] >= 4 and seen["on supp D"] >= 8, seen


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


@pytest.mark.parametrize("field", [make_field(2), F5, make_field(3, 2), make_field(2, 4),
                                   make_field(2, 6)])
def test_line_rows_equal_horner_taylor_rows_at_every_point(field):
    # The line reads the rows of 1, x, ..., x^(K-1) at x0 off one chain of
    # products by x0 + t; Horner evaluation of each monomial at x0 + t
    # (_taylor_rows) is the oracle, at every point, x0 = 0 included.  At
    # infinity the chain starts from t^(K-1) and steps by 1/t; the closed
    # form there is the reversed monomials, x^e at column K - 1 - e.
    points = list(field.elements()) + [INFINITY]
    for K in range(1, 11):
        _, (_, _, _, pts, D, monomials, rows, shifts) = constructed(
            lambda: genus0_udmg(field, points, K))
        assert D.n == K - 1 and len(rows[0][0]) == K  # deg D + 1 wide
        for P, R, d in zip(pts, rows, shifts):
            if P is INFINITY:
                assert d == K - 1
                assert R == [[m.coeff(K - 1 - c) for c in range(K)] for m in monomials], K
            else:
                assert d == 0
                assert R == curves._taylor_rows(field, monomials, P, K), (K, P)


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


def certify_by_inverse(field, genus, degree, points, t0, matrices, rows):
    """The certificate as it was before it took witnesses: C = M_i^-1 t0, kept as the oracle."""
    K = t0.rows
    if degree != K + genus - 1:
        raise AssertionError(f"deg D = {degree} is not K + g - 1 = {K + genus - 1}")
    if len(set(map(curves._point_key, points))) != len(points):
        raise AssertionError("points are not distinct")
    if rank(t0) != K:
        raise AssertionError("the reference basis is dependent")
    for i, (M, R) in enumerate(zip(matrices, rows)):
        try:
            C = inverse(M).matmul(t0)
        except ZeroDivisionError:
            raise AssertionError(f"matrix {i} is singular") from None
        for j in range(K):
            if any(field.dot(C.row(j), [r[c] for r in R]) for c in range(j)):
                raise AssertionError(f"basis element {j} at {points[i]!r} has v + D(P) below {j}")


def witnesses(gc, matrices, t0):
    """T'_i = M'_i^-1 t0 for each matrix; the construction's T_i where M'_i is
    singular, since there no T satisfies M'_i T = t0 with t0 of rank K."""
    out = []
    for M, T in zip(matrices, gc.transforms):
        try:
            out.append(inverse(M).matmul(t0))
        except ZeroDivisionError:
            out.append(T)
    return tuple(out)


def certify(gc, args, matrices=None, t0=None, transforms=None):
    """_certify on the construction's matrices, or on those given, with witnesses
    derived from the matrices unless transforms are given."""
    field, _, _, points, divisor, _, rows, _ = args
    t0 = gc.transforms[0] if t0 is None else t0
    matrices = gc.matrices if matrices is None else matrices
    transforms = witnesses(gc, matrices, t0) if transforms is None else transforms
    curves._certify(field, gc.genus, divisor.n, points, t0, matrices, transforms, rows)


def accepts(check, *args, **kwargs) -> bool:
    try:
        check(*args, **kwargs)
    except AssertionError:
        return False
    return True


def certified_as_by_the_oracle(gc, args, matrices) -> bool:
    """Whether the certificate accepts matrices; the inverse-based oracle must agree."""
    field, _, _, points, divisor, _, rows, _ = args
    got = accepts(certify, gc, args, matrices=matrices)
    want = accepts(certify_by_inverse, field, gc.genus, divisor.n, points, gc.transforms[0],
                   matrices, rows)
    assert got == want
    return got


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
        assert witnesses(gc, gc.matrices, gc.transforms[0]) == gc.transforms
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
    if certified_as_by_the_oracle(gc, args, mats):
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
                    ok = certified_as_by_the_oracle(gc, args, mats)
                    outcomes.add(ok)
                    if ok:
                        assert verify(Udmg(field, K, 0, mats)).valid, (i, r, c, delta)
    assert outcomes == {True, False}  # neither vacuous nor rejecting everything


def test_assemble_raises_on_a_corrupted_matrix(certified, monkeypatch):
    # _assemble eliminates each point's rows itself; the elimination at the
    # last point is made to hand back the transform of a corrupted matrix.
    izb = curves._izb_from_rows
    for name in ("line5", "fixture"):  # the last point is infinity in both
        gc, (field, curve, genus, points, divisor, canonical, rows, shifts) = certified[name]
        i = len(points) - 1
        M = lowered(gc, i, gc.udmg.K - 1)
        assert not verify(Udmg(field, gc.udmg.K, gc.genus, replaced(gc.matrices, i, M))).valid
        bad = inverse(M).matmul(gc.transforms[0])
        monkeypatch.setattr(curves, "_izb_from_rows", lambda f, basis, R, width: (
            (izb(f, basis, R, width)[0], bad) if R is rows[i] else izb(f, basis, R, width)))
        with pytest.raises(AssertionError):
            curves._assemble(field, curve, genus, points, divisor, canonical, rows, shifts)
        monkeypatch.undo()
        assert curves._assemble(field, curve, genus, points, divisor, canonical, rows,
                                shifts).matrices == gc.matrices


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
    field, _, _, points, divisor, _, rows, _ = args
    t0 = gc.transforms[0]
    with pytest.raises(AssertionError, match="deg D"):
        curves._certify(field, 1, divisor.n + 1, points, t0, gc.matrices, gc.transforms, rows)
    with pytest.raises(AssertionError, match="distinct"):
        curves._certify(field, 1, divisor.n, points[:1] * len(points), t0, gc.matrices,
                        gc.transforms, rows)
    # A singular M_i has no witness: M_i T = t0 of rank K would make it invertible.
    low = gc.matrices[2].to_rows()
    low[1] = low[0]
    for M in (FqMatrix.zeros(field, 3, 3), FqMatrix.from_rows(field, low)):
        singular = replaced(gc.matrices, 2, M)
        for T in (gc.transforms[2], FqMatrix.identity(field, 3), t0):
            with pytest.raises(AssertionError, match="matrix 2 times transform 2 is not t0"):
                certify(gc, args, matrices=singular, transforms=replaced(gc.transforms, 2, T))
        with pytest.raises(AssertionError, match="singular"):
            certify_by_inverse(field, 1, divisor.n, points, t0, singular, rows)


def test_certificate_refuses_a_perturbed_witness(certified):
    # The matrices stay as built; any single entry of any transform changed breaks M_i T_i = t0.
    for gc, args in certified.values():
        field, K = gc.field, gc.udmg.K
        for i, T in enumerate(gc.transforms):
            for r in range(K):
                for c in range(K):
                    rows = T.to_rows()
                    rows[r][c] = field.add(rows[r][c], 1)
                    bad = replaced(gc.transforms, i, FqMatrix.from_rows(field, rows))
                    with pytest.raises(AssertionError, match=f"matrix {i} times transform {i} "):
                        certify(gc, args, transforms=bad)


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


SUPPORT_CURVES = [(F5, 1, 1), (F7, 3, 0), (F7, 1, 1), (make_field(11), 2, 0)]


@pytest.mark.parametrize("field,a,b", SUPPORT_CURVES)
def test_constructions_on_every_point_support_included(field, a, b):
    # Every rational point, O included, with D = n*O and with h having rational
    # zeros or poles: points of supp D are construction points like any other.
    # The certificate, the scan (verify_naive where its enumeration is small)
    # and the generator's independent route must all agree.
    curve = curve_new(field, a, b)
    points = enumerate_points(curve)
    r, s = FnElement.r(curve), FnElement.s(curve)
    x0, y0 = points[1]
    on_support = 0
    for h in (None, r, r * r - 1, 1 / r, (s - y0) / (r - x0)):
        for n in range(1, 5):
            for order in (points, points[::-1]):
                gc, args = constructed(lambda: goppa_udmg(curve, order, DivisorSpec(n, h)))
                certify(gc, args)
                shifts = args[-1]
                on_support += sum(d != 0 for d in shifts)
                for P, d, vals in zip(order, shifts, gc.point_valuations):
                    assert 0 <= vals[0] + d and vals[-1] + d <= n, (P, d, vals)
                    # v = -D(P) but at O for n = 1, the base point of L(D) = <1/h>
                    assert vals[0] + d == (n == 1 and P is INFINITY), (P, d, vals)
                assert goppa_generator(gc) == gc.generator
                assert verify(gc.udmg).valid
                if n == 1 or (len(points) <= 5 and n <= 3):
                    assert verify_naive(gc.udmg).valid
    assert on_support >= 40, on_support  # one per construction on average


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


# -- refusals: coordinates outside the field, divisors outside n*O + (h), point counts --

@pytest.mark.parametrize("P,error,message", [
    ((2, 6), ValueError, r"rep 6 outside \[0, 5\)"),
    ((2, -4), ValueError, r"rep -4 outside \[0, 5\)"),
    ((2, True), TypeError, "rep True is not an integer"),
])
def test_coordinates_outside_the_field_are_refused(ref_curve, P, error, message):
    # each names the point (2, 1) of s^2 = r^3 + r + 1 over GF(5); contains read them
    # as unreduced integers and passed them, so a construction could repeat a point
    r = FnElement.r(ref_curve)
    for call in (lambda: ref_curve.contains(P),
                 lambda: goppa_udmg(ref_curve, [(0, 1), P], DivisorSpec(3, None)),
                 lambda: evaluate(ref_curve, r, P),
                 lambda: local_expand(ref_curve, r, P, 1)):
        with pytest.raises(error, match=message):
            call()


def test_divisors_outside_the_supported_family_are_refused(ref_curve):
    with pytest.raises(UnsupportedDivisorError, match="non-negative"):
        DivisorSpec(-1)
    with pytest.raises(UnsupportedDivisorError, match=re.escape("D = 1*O + (h) needs h != 0")):
        DivisorSpec(1, FnElement.zero(ref_curve))
    with pytest.raises(UnsupportedDivisorError, match="need deg D >= 1"):
        rr_basis(ref_curve, DivisorSpec(0))
    # goppa_udmg has no deg D check of its own: rr_basis's is the one refusal
    with pytest.raises(UnsupportedDivisorError, match="need deg D >= 1"):
        goppa_udmg(ref_curve, [(0, 1), (2, 1)], DivisorSpec(0))


def test_a_point_count_outside_the_hasse_weil_interval_is_refused():
    curve = curve_new(F5, 1, 1)
    assert len(enumerate_points(curve)) == 9
    object.__setattr__(curve, "genus", 0)  # the interval shrinks to [q + 1, q + 1]
    with pytest.raises(HasseWeilViolationError, match=re.escape("9 points outside [6, 6]")):
        enumerate_points(curve)


# -- genus 2: one margin behind every series length ----------------------------------
#
# s^2 = F(r) with deg F = 5, set on a curve after construction (WeierstrassCurve
# builds only cubics so far).  local_expand's old working length,
# prec + 4*(max(deg A, deg B, deg C, 1) + 2g + 1), is the oracle for _margin's.

GENUS2 = [(11, (3, 1, 0, 2, 0, 1), 9),  # r^5 + 2r^3 + r + 3, coefficients from degree 0
          (13, (1, 2, 3, 0, 0, 1), 17)]  # r^5 + 3r^2 + 2r + 1


@pytest.fixture(scope="module", params=GENUS2, ids=["q11", "q13"])
def genus2(request):
    q, coeffs, count = request.param
    field = make_field(q)
    F = Poly.make(field, coeffs)
    dF = Poly.make(field, [field.mul(field.from_int(k), c) for k, c in enumerate(F.coeffs)][1:])
    assert F.degree == 5 and F.gcd(dF).degree == 0  # squarefree: the curve is nonsingular
    curve = curve_new(field, 1, 1)
    object.__setattr__(curve, "F", F)
    object.__setattr__(curve, "genus", 2)
    points = enumerate_points(curve)
    assert len(points) == count
    return curve, points


def expand_at_old_length(curve, fn, P, prec):
    length = prec + 4 * (max(fn.A.degree, fn.B.degree, fn.C.degree, 1) + 2 * curve.genus + 1)
    out = curves._fn_series(fn, *curves._coordinate_series(curve, P, length), length)
    return out.val, tuple(out.coef[:prec])


def test_genus2_local_expand_equals_the_old_length_oracle(genus2):
    curve, points = genus2
    field, r, s = curve.field, FnElement.r(curve), FnElement.s(curve)
    rng = random.Random(2)
    for P in points:
        fns = [r, s, r / s, FnElement.const(curve, 1)]  # 1 at O needs the 2g + 1 for B = 0
        if P is not INFINITY:
            u = r - P[0]
            # order 6 > 2g + 1 at P in C, in A, and in s*B: each needs its own term of _margin
            fns += [1 / u, 1 / u ** 6, u ** 6, s * u ** 6]
        while len(fns) < 20:
            A, B, C = (Poly.make(field, [rng.randrange(field.q) for _ in range(rng.randrange(5))])
                       for _ in range(3))
            if not (C.is_zero or A.is_zero and B.is_zero):
                fns.append(FnElement(curve, A, B, C))
        for fn in fns:
            for prec in (1, 4):
                exp = local_expand(curve, fn, P, prec)
                assert (exp.valuation, exp.coeffs) == expand_at_old_length(curve, fn, P, prec), \
                    (str(fn), P, prec)


def test_genus2_rr_rows_equal_local_expand_rows(genus2):
    curve, _ = genus2
    seen = row_counts()
    for n in range(3, 7):
        assert_rows_match(curve, DivisorSpec(n, None), (n + 1,), seen)
    assert seen["at O"] == 4 and seen["two-torsion"] == 8, seen


def test_genus2_constructions_certify_and_verify(genus2):
    curve, points = genus2
    for n in range(3, 7):
        gc = goppa_udmg(curve, points, DivisorSpec(n, None))  # raises unless _certify passes
        assert (gc.udmg.K, gc.udmg.g, gc.udmg.L) == (n - 1, 2, len(points))
        assert verify(gc.udmg).valid
        assert goppa_generator(gc) == gc.generator  # at O off one expansion of r and s
    # 3^9 capped vectors at K = 2, L = 9; all 17 points would make 3^17
    gc = goppa_udmg(curve, points[:9], DivisorSpec(3, None))
    assert verify_naive(gc.udmg).valid and verify(gc.udmg).valid

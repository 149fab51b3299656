from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from udmg.errors import FieldMismatchError, FieldTooLargeError, NonPrimeError
from udmg.fields import (
    TABLE_MAX_ORDER,
    FieldSpec,
    FqElement,
    _digits,
    _gf2_inv,
    _gf2_mul,
    _is_irreducible,
    _pack,
    _poly_field_mul,
    _poly_mod_p,
    arith,
    field_from_order,
    is_prime,
    make_field,
    row_ops,
    smallest_irreducible,
)


def test_prime_field_basic():
    f = make_field(5, 1)
    assert (f.p, f.m, f.q) == (5, 1, 5)
    assert f.modulus is None
    assert f.add(2, 4) == 1
    assert f.inv(3) == 2


def test_nonprime_rejected():
    with pytest.raises(NonPrimeError):
        make_field(4, 1)


def test_too_large_rejected():
    with pytest.raises(FieldTooLargeError):
        make_field(2, 21)


def test_gf4_canonical_modulus():
    # brute-force scan of the four monic quadratics over F_2 leaves x^2+x+1
    f = make_field(2, 2)
    assert f.modulus == (1, 1, 1)
    x = f.element(2)
    assert (x * x).rep == 3  # x^2 = x + 1


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (0, 0, 1))  # x^2 has the root 0


def test_non_integer_input_refused_not_coerced():
    # Each of these was once accepted: the moduli read as x^4 + x + 1 by
    # int(c) % p, and p = 5.0 built a field with a float characteristic.
    for modulus in ((1.9, 1, 0, 0, 1), (True, 1, 0, 0, 1), "11001"):
        with pytest.raises(TypeError):
            FieldSpec(2, 4, modulus)
    for modulus in ((1, 3, 0, 0, 1), (1, -1, 0, 0, 1)):
        with pytest.raises(ValueError):
            FieldSpec(2, 4, modulus)
    for p, m in ((5.0, 1), (True, 1), (2, 4.0), (2, True)):
        with pytest.raises(TypeError):
            FieldSpec(p, m)
    assert FieldSpec(2, 4, [1, 1, 0, 0, 1]).modulus == (1, 1, 0, 0, 1)


def irreducible_by_trial_division(coeffs, p):
    """Oracle: no monic factor of degree 1..deg/2 divides coeffs."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    for d in range(1, m // 2 + 1):
        for t in range(p ** d):
            if _poly_mod_p(coeffs, _digits(t, p, d) + (1,), p) == [0]:
                return False
    return True


@pytest.mark.parametrize("p,max_degree", [(2, 8), (3, 5), (5, 3)])
def test_irreducibility_matches_trial_division(p, max_degree):
    # every polynomial of degree <= max_degree, monic or not
    for m in range(0, max_degree + 1):
        for t in range(p ** (m + 1)):
            coeffs = _digits(t, p, m + 1)
            assert _is_irreducible(coeffs, p) == irreducible_by_trial_division(coeffs, p), coeffs


def test_smallest_irreducible_unchanged():
    orders = [(p, m) for p in range(2, 65) if is_prime(p)
              for m in range(2, 13) if p ** m <= 1 << 12]
    assert len(orders) == 40
    for p, m in orders:
        want = next(c for t in range(p ** m)
                    if irreducible_by_trial_division(c := _digits(t, p, m) + (1,), p))
        assert smallest_irreducible(p, m) == want, (p, m)
    assert smallest_irreducible(2, 16) == (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,)
    assert smallest_irreducible(2, 20) == (1, 0, 0, 1) + (0,) * 16 + (1,)


def test_arith_dispatch():
    f = make_field(5)
    a, b = f.element(2), f.element(4)
    assert arith(f, "add", a, b).rep == 1
    assert arith(f, "inv", f.element(3)).rep == 2
    assert arith(f, "pow", a, 3).rep == 3
    with pytest.raises(FieldMismatchError):
        arith(f, "add", a, make_field(3).element(1))


def test_arith_refuses_a_non_int_exponent_and_a_stray_operand():
    f = make_field(5)
    a = f.element(2)
    for e in (True, False, 2.0, None):
        with pytest.raises(ValueError, match="pow takes an integer exponent"):
            arith(f, "pow", a, e)
    for op in ("neg", "inv"):
        for b in (7, 0, False, a):
            with pytest.raises(ValueError, match=f"{op} takes one operand"):
                arith(f, op, a, b)
    assert arith(f, "neg", a).rep == 3 and arith(f, "inv", a).rep == 3


@pytest.mark.parametrize("f", [make_field(5), make_field(2, 2), make_field(3, 2)],
                         ids=lambda f: f"q{f.q}")
def test_arith_agrees_with_the_field_methods_exhaustively(f):
    # arith goes through FqElement's operators; the FieldSpec methods are the oracle
    for x in f.elements():
        a = f.element(x)
        assert arith(f, "neg", a) == FqElement(f.neg(x), f)
        for e in (-2, 0, 1, 3):
            if x or e >= 0:
                assert arith(f, "pow", a, e) == FqElement(f.pow_(x, e), f)
        for y in f.elements():
            b = f.element(y)
            for op in ("add", "sub", "mul"):
                assert arith(f, op, a, b) == FqElement(getattr(f, op)(x, y), f)
    a = f.element(1)
    with pytest.raises(ValueError):
        arith(f, "div", a, a)
    with pytest.raises(ValueError):
        arith(f, "pow", a, 1.0)
    with pytest.raises(FieldMismatchError):
        arith(f, "neg", make_field(7).element(1))
    for b in (1, None, make_field(7).element(1)):
        with pytest.raises(FieldMismatchError):
            arith(f, "mul", a, b)


def test_field_from_order():
    assert field_from_order(8).m == 3
    assert field_from_order(7).m == 1
    with pytest.raises(NonPrimeError):
        field_from_order(12)


SMALL_FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5),
                make_field(7), make_field(2, 3), make_field(3, 2), make_field(2, 4),
                make_field(5, 2), make_field(3, 3), make_field(7, 2), make_field(2, 6),
                make_field(3, 4)]


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_inverse_exhaustive(f):
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("f", [g for g in SMALL_FIELDS if g.q <= 27], ids=lambda f: f"q{f.q}")
def test_frobenius_exhaustive(f):
    p = f.p
    for a in range(f.q):
        for b in range(f.q):
            lhs = f.pow_(f.add(a, b), p)
            rhs = f.add(f.pow_(a, p), f.pow_(b, p))
            assert lhs == rhs


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_rep_round_trip(f):
    for rep in range(f.q):
        assert f.element(rep).rep == rep


@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_field_axioms_sampled(f, data):
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    c = data.draw(st.integers(0, f.q - 1))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    assert f.sub(a, b) == f.add(a, f.neg(b))


def test_element_operators():
    f = make_field(2, 2)
    x = f.element(2)
    one = f.element(1)
    assert (x + one - one) == x
    assert (x / x) == one
    assert (-x + x).rep == 0
    assert (x ** 3).rep == 1  # multiplicative order divides q - 1 = 3


def test_int_coercion_embeds_through_prime_subfield():
    f = make_field(2, 2)
    x = f.element(2)
    assert (x + 7) == (x + f.element(1))  # 7 = 1 in characteristic 2
    assert f.from_int(7) == 1
    f25 = make_field(5, 2)
    assert f25.from_int(16) == 1  # not the packed rep 16


def test_zero_inverse_raises():
    f = make_field(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def field_from_order_by_trial(q):
    """Oracle: (p, m) by trial division over every p up to q."""
    for p in range(2, q + 1):
        if q % p == 0:
            m, r = 0, q
            while r % p == 0:
                r //= p
                m += 1
            if r != 1:
                raise NonPrimeError(f"{q} is not a prime power")
            return p, m
    raise NonPrimeError(f"{q} is not a prime power")


def test_field_from_order_matches_trial_division():
    for q in range(-3, 5001):
        try:
            want = field_from_order_by_trial(q)
        except NonPrimeError:
            with pytest.raises(NonPrimeError):
                field_from_order(q)
            continue
        f = field_from_order(q)
        assert (f.p, f.m) == want, q
    with pytest.raises(TypeError):
        field_from_order(5.0)
    assert field_from_order(1048573).m == 1  # prime: stops at isqrt(q)


# -- log/antilog/Zech tables against the polynomial path ------------------------

def polynomial_twin(f):
    """An equal field on the digit-list polynomial path: no tables, no packed char-2 ops."""
    g = FieldSpec(f.p, f.m, f.modulus)
    object.__setattr__(g, "_tables", None)
    object.__setattr__(g, "_mask", None)
    return g


EXPONENTS = (0, 1, -1, -3)


def assert_matches_polynomial_unary(f, poly, a):
    q = f.q
    assert f.neg(a) == poly.neg(a), a
    for e in EXPONENTS + (q - 2, q - 1, q):
        if a == 0 and e < 0:
            for g in (f, poly):
                with pytest.raises(ZeroDivisionError):
                    g.pow_(a, e)
        else:
            assert f.pow_(a, e) == poly.pow_(a, e), (a, e)
    if a == 0:
        for g in (f, poly):
            with pytest.raises(ZeroDivisionError):
                g.inv(0)
            with pytest.raises(ZeroDivisionError):
                g.div(1, 0)
    else:
        assert f.inv(a) == poly.inv(a), a


TABLE_FIELDS = [make_field(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(2, 9)
                if p ** m <= 256]


@pytest.mark.parametrize("f", TABLE_FIELDS, ids=lambda f: f"q{f.q}")
def test_tables_match_polynomial_exhaustive(f):
    q, poly = f.q, polynomial_twin(f)
    pairs = [(a, b) for a in range(q) for b in range(q)]
    for op in ("add", "sub", "mul"):
        fast, slow = getattr(f, op), getattr(poly, op)
        assert [fast(a, b) for a, b in pairs] == [slow(a, b) for a, b in pairs], op
    assert all(f.div(a, b) == f.mul(a, f.inv(b)) for a, b in pairs if b)
    assert f.pow_(0, 0) == 1 == poly.pow_(0, 0)
    for a in range(q):
        assert_matches_polynomial_unary(f, poly, a)
    assert f._tables and poly._tables is None


EXTENSIONS = [(p, m) for p in range(2, 64) if is_prime(p) for m in range(2, 13)
              if p ** m <= TABLE_MAX_ORDER]


@settings(deadline=None)  # the first example of a field builds its tables (up to ~0.1 s)
@given(st.sampled_from(EXTENSIONS), st.data())
def test_tables_match_polynomial_sampled(pm, data):
    f = make_field(*pm)
    poly = polynomial_twin(f)
    a, b = (data.draw(st.integers(0, f.q - 1)) for _ in range(2))
    for op in ("add", "sub", "mul"):
        assert getattr(f, op)(a, b) == getattr(poly, op)(a, b), op
    if b:
        assert f.div(a, b) == poly.div(a, b)
    e = data.draw(st.integers(-f.q, 2 * f.q))
    if a or e >= 0:
        assert f.pow_(a, e) == poly.pow_(a, e)
    assert_matches_polynomial_unary(f, poly, a)


@pytest.mark.parametrize("p,m,modulus", [(2, 4, (1, 0, 0, 1, 1)), (3, 2, (2, 1, 1))])
def test_noncanonical_modulus_gets_its_own_tables(p, m, modulus):
    f, canonical = FieldSpec(p, m, modulus), make_field(p, m)
    assert f != canonical
    f.mul(1, 1), canonical.mul(1, 1)
    assert f._tables and canonical._tables and f._tables != canonical._tables
    poly = polynomial_twin(f)
    for a in range(f.q):
        for b in range(f.q):
            assert (f.add(a, b), f.sub(a, b), f.mul(a, b)) == \
                (poly.add(a, b), poly.sub(a, b), poly.mul(a, b))
        assert_matches_polynomial_unary(f, poly, a)


def test_tables_only_for_small_extension_fields():
    for f in (make_field(13), make_field(2), field_from_order(1048573),
              make_field(2, 13), make_field(3, 8), field_from_order(1 << 16),
              field_from_order(1 << 20)):
        f.mul(1, 1)
        f.add(1, 1)
        assert f._tables is None, f.q
    assert make_field(2, 13).mul(2, 1 << 12) == 0b11011  # x^13 = x^4 + x^3 + x + 1
    f = make_field(2, 12)  # q = TABLE_MAX_ORDER
    assert f._tables == ()  # built on the first operation, not before
    f.neg(1)
    assert len(f._tables[0]) == 2 * (f.q - 1)


def test_tables_do_not_change_identity():
    used, fresh = make_field(5, 2), make_field(5, 2)
    used.mul(2, 3)
    assert used._tables and fresh._tables == ()
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert repr(used) == "FieldSpec(p=5, m=2, modulus=(2, 0, 1))"
    assert {used: 1}[fresh] == 1


# -- packed characteristic-2 arithmetic above the table limit ------------------

def modulus_bits(modulus):
    return _pack(modulus, 2)


@pytest.mark.parametrize("m", range(2, 9))
def test_gf2_helpers_match_polynomial_exhaustive(m):
    mod = smallest_irreducible(2, m)
    mask, q = modulus_bits(mod), 1 << m
    for a in range(1, q):
        assert [_gf2_mul(a, b, m, mask) for b in range(1, q)] == \
            [_poly_field_mul(a, b, 2, m, mod) for b in range(1, q)], a
        assert _gf2_mul(a, 0, m, mask) == 0 == _gf2_mul(0, a, m, mask)
        inv = _gf2_inv(a, mask)
        assert 0 < inv < q and _poly_field_mul(a, inv, 2, m, mod) == 1, a


def test_gf2_inverse_exhaustive_at_2_13():
    mod = smallest_irreducible(2, 13)
    mask = modulus_bits(mod)
    invs = [_gf2_inv(a, mask) for a in range(1, 1 << 13)]
    assert all(_poly_field_mul(a, inv, 2, 13, mod) == 1 for a, inv in enumerate(invs, 1))
    assert sorted(invs) == list(range(1, 1 << 13))  # a bijection of the nonzero reps


def large_binary_fields(m):
    """GF(2^m) with its canonical modulus and with that modulus's reciprocal."""
    canonical = make_field(2, m)
    return canonical, FieldSpec(2, m, canonical.modulus[::-1])


@settings(deadline=None, max_examples=60)  # a Fermat chain on digit lists takes ~3 ms
@given(st.integers(13, 20), st.booleans(), st.data())
def test_gf2_helpers_match_polynomial_sampled(m, reciprocal, data):
    f = large_binary_fields(m)[reciprocal]
    assert f.modulus != make_field(2, m).modulus or not reciprocal
    mask = modulus_bits(f.modulus)
    a, b = (data.draw(st.integers(1, f.q - 1)) for _ in range(2))
    assert _gf2_mul(a, b, m, mask) == _poly_field_mul(a, b, 2, m, f.modulus)
    assert _gf2_inv(a, mask) == polynomial_twin(f).pow_(a, f.q - 2)  # Fermat


LARGE_BINARY = [field_from_order(1 << 16), field_from_order(1 << 20), large_binary_fields(16)[1]]


def assert_matches_digit_path(f, poly, a, b):
    for op in ("add", "sub", "mul"):
        assert getattr(f, op)(a, b) == getattr(poly, op)(a, b), (op, a, b)
    if b:
        assert f.div(a, b) == poly.div(a, b), (a, b)
    assert_matches_polynomial_unary(f, poly, a)


@pytest.mark.parametrize("f", LARGE_BINARY, ids=lambda f: f"q{f.q}:{modulus_bits(f.modulus)}")
def test_packed_field_matches_digit_path_edges(f):
    poly = polynomial_twin(f)
    edges = (0, 1, 2, 3, f.q >> 1, f.q - 2, f.q - 1)
    for a in edges:
        for b in edges:
            assert_matches_digit_path(f, poly, a, b)
    assert f.pow_(0, 0) == 1 == poly.pow_(0, 0)
    for g in (f, poly):
        with pytest.raises(ZeroDivisionError):
            g.div(0, 0)


@settings(deadline=None, max_examples=30)  # digit-path pow_ at e ~ q runs ~40 products
@given(st.sampled_from(LARGE_BINARY), st.data())
def test_packed_field_matches_digit_path_sampled(f, data):
    a, b = (data.draw(st.integers(0, f.q - 1)) for _ in range(2))
    assert_matches_digit_path(f, polynomial_twin(f), a, b)
    e = data.draw(st.integers(-f.q, 2 * f.q))
    if a or e >= 0:
        assert f.pow_(a, e) == polynomial_twin(f).pow_(a, e)


def test_packed_path_only_above_the_table_limit():
    for f in (make_field(2), make_field(13), field_from_order(1048573), make_field(2, 12),
              make_field(3, 7), make_field(5, 2)):
        f.mul(1, 1)
        assert not hasattr(f, "_mask"), f.q
    assert make_field(2, 13)._mask == (1 << 13) | 0b11011  # x^13 + x^4 + x^3 + x + 1
    assert field_from_order(1 << 20)._mask == modulus_bits(field_from_order(1 << 20).modulus)
    assert make_field(3, 8)._mask is None  # odd p keeps the digit path


def test_packed_path_does_not_change_identity():
    used, fresh = field_from_order(1 << 16), field_from_order(1 << 16)
    used.inv(used.mul(3, 5))
    twin = polynomial_twin(used)
    assert used == fresh == twin and hash(used) == hash(fresh) == hash(twin)
    assert repr(used) == repr(fresh) == repr(twin) == \
        "FieldSpec(p=2, m=16, modulus=(1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1))"
    assert {used: 1}[fresh] == 1


# -- extended-Euclidean inverse in large odd-characteristic fields ------------

def reciprocal_modulus(f):
    """The monic reciprocal of f's modulus: irreducible too, and a different field."""
    rev = f.modulus[::-1]
    s = pow(rev[-1], f.p - 2, f.p)
    return FieldSpec(f.p, f.m, tuple(c * s % f.p for c in rev))


LARGE_ODD = [make_field(3, 12), make_field(5, 8), make_field(7, 7)]
LARGE_ODD += [reciprocal_modulus(f) for f in LARGE_ODD]


def test_large_odd_fields_take_the_digit_path():
    for f in LARGE_ODD:
        assert f._tables is None and f._mask is None
    for f, g in zip(LARGE_ODD[:3], LARGE_ODD[3:]):
        assert f.modulus != g.modulus


@settings(deadline=None, max_examples=40)  # each Fermat chain takes about 1 ms
@given(st.sampled_from(LARGE_ODD), st.data())
def test_odd_inverse_matches_fermat(f, data):
    a = data.draw(st.one_of(st.integers(1, f.q - 1), st.sampled_from([1, 2, f.p, f.q - 1])))
    inv = f.inv(a)
    assert inv == f.pow_(a, f.q - 2)  # pow_ with e >= 0 multiplies only
    assert 0 < inv < f.q and f.mul(a, inv) == 1


@pytest.mark.parametrize("f", LARGE_ODD, ids=lambda f: f"q{f.q}:{f.modulus}")
def test_odd_inverse_of_zero_raises(f):
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.div(1, 0)


# -- dot products ----------------------------------------------------------------

def dot_by_loop(f, xs, ys):
    acc = 0
    for a, b in zip(xs, ys):
        acc = f.add(acc, f.mul(a, b))
    return acc


DOT_FIELDS = [make_field(2), make_field(13), field_from_order(1048573),  # prime
              make_field(2, 2), make_field(2, 4), make_field(2, 8),      # tables, p = 2
              make_field(3, 2), make_field(3, 4), make_field(5, 2),      # tables, odd p
              field_from_order(1 << 16), large_binary_fields(13)[1],     # packed GF(2^m)
              make_field(3, 12), make_field(7, 7)]                       # odd digit path


@pytest.mark.parametrize("f", DOT_FIELDS, ids=lambda f: f"q{f.q}")
def test_dot_edges(f):
    top = f.q - 1
    for xs, ys in [((), ()), ((0,), (0,)), ((0, 0, 0), (top, 1, 2)), ((top,), (top,)),
                   ((1,), (top,)), ((top, top), (top, 1)), ((1, 2), (3,)),
                   ((1, f.neg(1), 2), (1, 1, 1))]:  # the sum cancels, then restarts
        xs, ys = (tuple(x % f.q for x in v) for v in (xs, ys))
        assert f.dot(xs, ys) == dot_by_loop(f, xs, ys), (xs, ys)
    assert f.dot((), ()) == 0
    # every pair of length-2 vectors over GF(4) and GF(9), and of length-3 ones over GF(4)
    for n in {4: (2, 3), 9: (2,)}.get(f.q, ()):
        vecs = list(product(range(f.q), repeat=n))
        for xs in vecs:
            for ys in vecs:
                assert f.dot(xs, ys) == dot_by_loop(f, xs, ys), (xs, ys)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(DOT_FIELDS), st.data())
def test_dot_matches_loop(f, data):
    n = data.draw(st.integers(0, 8))
    xs, ys = (data.draw(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n))
              for _ in range(2))
    got = f.dot(xs, ys)
    assert got == dot_by_loop(f, xs, ys) and 0 <= got < f.q


# -- row ops: the scan's and the elimination's closures ---------------------------

# Prime fields on both sides of the inverse table; table fields from GF(4) to the largest
# two, GF(3^7) and GF(2^12); above the limit, packed GF(2^16) and digit-list GF(3^8).
ROW_OPS_FIELDS = [make_field(2), make_field(3), make_field(13), make_field(4093),
                  field_from_order(1048573),
                  make_field(2, 2), make_field(2, 3), make_field(3, 2), make_field(2, 4),
                  make_field(5, 2), make_field(3, 7), make_field(2, 12),
                  field_from_order(1 << 16), make_field(3, 8)]


def assert_row_ops_match(f, ops, a, b, xs, ys):
    mul, div, axpy, sub_mul = ops
    assert mul(a, b) == f.mul(a, b)
    if b:
        assert div(a, b) == f.div(a, b)
    assert axpy(a, ys, xs) == [f.sub(x, f.mul(a, y)) for x, y in zip(xs, ys)]
    # the one-entry update agrees with the row update entry by entry
    assert [sub_mul(x, a, y) for x, y in zip(xs, ys)] == [axpy(a, [y], [x])[0] for x, y in zip(xs, ys)]


@pytest.mark.parametrize("f", [f for f in ROW_OPS_FIELDS if f.q <= 16], ids=lambda f: f"q{f.q}")
def test_row_ops_match_field_exhaustively(f):
    ops = row_ops(f)
    for a, b, x, y in product(range(f.q), repeat=4):
        assert_row_ops_match(f, ops, a, b, [x, y], [y, b])


@pytest.mark.parametrize("f", [f for f in ROW_OPS_FIELDS if f.q <= 16], ids=lambda f: f"q{f.q}")
def test_sub_mul_is_one_entry_of_axpy_exhaustively(f):
    _, _, axpy, sub_mul = row_ops(f)
    for x, t, y in product(range(f.q), repeat=3):
        assert sub_mul(x, t, y) == axpy(t, [y], [x])[0] == f.sub(x, f.mul(t, y))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([f for f in ROW_OPS_FIELDS if f.q > 16]), st.data())
def test_sub_mul_is_one_entry_of_axpy_sampled(f, data):
    # GF(3^7) and GF(2^12), the largest table fields, GF(2^16) and GF(3^8) above the
    # table limit, and primes on both sides of it; 0, 1 and -1 hit the edge cases
    el = st.one_of(st.sampled_from([0, 1, f.neg(1)]), st.integers(0, f.q - 1))
    x, t, y = (data.draw(el) for _ in range(3))
    _, _, axpy, sub_mul = row_ops(f)
    assert sub_mul(x, t, y) == axpy(t, [y], [x])[0] == f.sub(x, f.mul(t, y))


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(ROW_OPS_FIELDS), st.data())
def test_row_ops_match_field_sampled(f, data):
    el = st.integers(0, f.q - 1)
    n = data.draw(st.integers(0, 6))
    xs, ys = (data.draw(st.lists(el, min_size=n, max_size=n)) for _ in range(2))
    assert_row_ops_match(f, row_ops(f), data.draw(el), data.draw(el), xs, ys)


@pytest.mark.parametrize("f", ROW_OPS_FIELDS, ids=lambda f: f"q{f.q}")
def test_row_ops_div_by_zero_raises(f):
    div = row_ops(f)[1]
    for a in (0, 1, f.q - 1):
        with pytest.raises(ZeroDivisionError):
            div(a, 0)


def test_row_ops_see_a_patch_of_the_field_class(monkeypatch):
    # above the table limit row_ops binds the methods; nothing caches a closure or
    # bound method, so a wrapper on FieldSpec is seen while installed only
    f, seen, mul = field_from_order(1 << 16), [], FieldSpec.mul
    monkeypatch.setattr(FieldSpec, "mul", lambda self, a, b: seen.append((a, b)) or mul(self, a, b))
    assert row_ops(f)[0](2, 3) == mul(f, 2, 3)
    monkeypatch.undo()
    row_ops(f)[0](4, 5)
    assert seen == [(2, 3)]


@pytest.mark.parametrize("q", [16, 25])
def test_table_row_ops_call_no_field_method(monkeypatch, q):
    # a table field's closures read its tables, with no FieldSpec call per entry
    f = field_from_order(q)
    mul, div, axpy, sub_mul = row_ops(f)
    for name in ("add", "sub", "neg", "mul", "inv", "div", "dot"):
        monkeypatch.setattr(FieldSpec, name, lambda *args, name=name: pytest.fail(name))
    got = [(mul(a, b), div(a, b) if b else None, axpy(a, [b, a, 0], [a, 0, b]),
            [sub_mul(x, a, y) for x, y in zip([a, 0, b], [b, a, 0])])
           for a, b in product(range(q), repeat=2)]
    monkeypatch.undo()
    for (a, b), (m, d, row, entries) in zip(product(range(q), repeat=2), got):
        assert (m, d) == (f.mul(a, b), f.div(a, b) if b else None)
        assert row == entries == [f.sub(x, f.mul(a, y)) for x, y in zip([a, 0, b], [b, a, 0])]

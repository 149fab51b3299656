"""Genus-0 and genus-1 machinery over finite fields.

Covers short Weierstrass curves s^2 = r^3 + a r + b (characteristic outside
{2, 3}), exhaustive rational-point enumeration, exact function-field
arithmetic in the canonical form (A(r) + s B(r)) / C(r), local power-series
expansions, Riemann-Roch bases for divisors of the shape n*O + (h),
increasing zero bases, and the evaluation-code matrix construction.

Both genera run one pipeline: rows of local coefficients at each point
(Taylor rows on the projective line, local_expand rows on the curve) feed
one increasing-zero-basis elimination, and one assembly builds, verifies
and checks the matrices.  Local expansion works at a fixed precision that
the degree of a principal divisor bounds in advance, so it never retries.

Local uniformizers are fixed once and for all so that independent runs agree:
t = r - x(P) at an affine point with s(P) != 0, t = s at an affine point with
s(P) = 0, and t = r/s at the point at infinity O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .core import Udmg, _verify_fast
from .errors import (
    BadCharacteristicError,
    DependentBasisError,
    DuplicatePointsError,
    HasseWeilViolationError,
    InvalidInputError,
    PointInSupportError,
    PoleAtSupportError,
    PrecisionExhaustedError,
    SingularCurveError,
    SupportCollisionError,
    TooFewSectionsError,
    TooManyPointsError,
    UnsupportedDivisorError,
)
from .fields import FieldSpec
from .linalg import FqMatrix, inverse
from .polys import Poly


class _Infinity:
    """Point at infinity marker, shared by curves and the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "O"


INFINITY = _Infinity()


@dataclass(frozen=True)
class WeierstrassCurve:
    """Nonsingular short Weierstrass curve s^2 = r^3 + a r + b (genus 1)."""

    field: FieldSpec
    a: int
    b: int

    def __post_init__(self):
        if self.field.p in (2, 3):
            raise BadCharacteristicError("short Weierstrass form needs characteristic > 3")
        f = self.field
        f.check(self.a)
        f.check(self.b)
        four_a3 = f.mul(f.from_int(4), f.pow_(self.a, 3))
        disc = f.mul(f.neg(f.from_int(16)),
                     f.add(four_a3, f.mul(f.from_int(27), f.mul(self.b, self.b))))
        if disc == 0:
            raise SingularCurveError("discriminant vanishes")

    def rhs(self, x: int) -> int:
        f = self.field
        return f.add(f.add(f.pow_(x, 3), f.mul(self.a, x)), self.b)

    def contains(self, P) -> bool:
        if P is INFINITY:
            return True
        x, y = P
        return self.field.mul(y, y) == self.rhs(x)

    def relation_poly(self) -> Poly:
        """r^3 + a r + b, used to reduce s^2."""
        return Poly.make(self.field, (self.b, self.a, 0, 1))


def curve_new(field: FieldSpec, a: int, b: int) -> WeierstrassCurve:
    return WeierstrassCurve(field, a, b)


def enumerate_points(curve: WeierstrassCurve):
    """All rational points: O first, affine points in (x, y) lexicographic order.

    The count is checked against the Hasse-Weil-Serre interval for genus 1; a
    violation means the arithmetic itself is broken.
    """
    f = curve.field
    pts = [INFINITY]
    for x in f.elements():
        rhs = curve.rhs(x)
        for y in f.elements():
            if f.mul(y, y) == rhs:
                pts.append((x, y))
    q = f.q
    slack = math.isqrt(4 * q)
    lo, hi = q + 1 - slack, q + 1 + slack
    if not lo <= len(pts) <= hi:
        raise HasseWeilViolationError(f"{len(pts)} points outside [{lo}, {hi}]")
    return pts


# -- function field elements ---------------------------------------------------

@dataclass(frozen=True)
class FnElement:
    """Element of the function field in canonical form (A + s*B)/C.

    C is monic and gcd(gcd(A, B), C) = 1; the zero element is (0 + s*0)/1.
    Equality of canonical forms is structural equality.
    """

    curve: WeierstrassCurve
    A: Poly
    B: Poly
    C: Poly

    def __post_init__(self):
        if self.C.is_zero:
            raise ZeroDivisionError("denominator is zero")
        A, B, C = self.A, self.B, self.C
        if A.is_zero and B.is_zero:
            C = Poly.const(self.curve.field, 1)
        else:
            g = A.gcd(B).gcd(C)
            if g.degree > 0:
                A, B, C = A // g, B // g, C // g
            if C.leading != 1:
                u = self.curve.field.inv(C.leading)
                A, B, C = A.scale(u), B.scale(u), C.scale(u)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, curve) -> "FnElement":
        z = Poly.zero(curve.field)
        return cls(curve, z, z, Poly.const(curve.field, 1))

    @classmethod
    def const(cls, curve, c: int) -> "FnElement":
        z = Poly.zero(curve.field)
        return cls(curve, Poly.const(curve.field, c), z, Poly.const(curve.field, 1))

    @classmethod
    def from_poly(cls, curve, poly: Poly) -> "FnElement":
        z = Poly.zero(curve.field)
        return cls(curve, poly, z, Poly.const(curve.field, 1))

    @classmethod
    def r(cls, curve) -> "FnElement":
        return cls.from_poly(curve, Poly.x(curve.field))

    @classmethod
    def s(cls, curve) -> "FnElement":
        z = Poly.zero(curve.field)
        return cls(curve, z, Poly.const(curve.field, 1), Poly.const(curve.field, 1))

    # -- predicates and helpers ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.A.is_zero and self.B.is_zero

    def _coerce(self, other) -> "FnElement":
        if isinstance(other, FnElement):
            if other.curve != self.curve:
                raise InvalidInputError("elements of different function fields")
            return other
        if isinstance(other, int):
            return FnElement.const(self.curve, self.curve.field.from_int(other))
        return NotImplemented

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        A = self.A * o.C + o.A * self.C
        B = self.B * o.C + o.B * self.C
        return FnElement(self.curve, A, B, self.C * o.C)

    __radd__ = __add__

    def __neg__(self):
        return FnElement(self.curve, -self.A, -self.B, self.C)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        F = self.curve.relation_poly()
        A = self.A * o.A + F * (self.B * o.B)
        B = self.A * o.B + o.A * self.B
        return FnElement(self.curve, A, B, self.C * o.C)

    __rmul__ = __mul__

    def scale(self, c: int) -> "FnElement":
        """c * self for a field constant c, as Poly.scale."""
        return FnElement(self.curve, self.A.scale(c), self.B.scale(c), self.C)

    def inv(self) -> "FnElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero function")
        F = self.curve.relation_poly()
        norm = self.A * self.A - F * (self.B * self.B)
        return FnElement(self.curve, self.C * self.A, -(self.C * self.B), norm)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        out = FnElement.const(self.curve, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __str__(self):
        num_a = self.A.render("r")
        if self.B.is_zero:
            num = num_a
        else:
            num = f"{num_a} + s*({self.B.render('r')})" if not self.A.is_zero \
                else f"s*({self.B.render('r')})"
        if self.C.degree == 0 and self.C.leading == 1:
            return num
        return f"({num})/({self.C.render('r')})"


def ff_arith(curve: WeierstrassCurve, op: str, f: FnElement, g: FnElement = None) -> FnElement:
    if op == "add":
        return f + g
    if op == "mul":
        return f * g
    if op == "div":
        return f / g
    if op == "neg":
        return -f
    raise ValueError(f"unknown op {op!r}")


# -- truncated Laurent series --------------------------------------------------

class Series:
    """sum(coef[i] * t^(val+i)) + O(t^(val+len(coef))); empty coef means zero
    to precision O(t^val)."""

    __slots__ = ("field", "val", "coef")

    def __init__(self, field, val, coef):
        i = 0
        n = len(coef)
        while i < n and coef[i] == 0:
            i += 1
        self.field = field
        self.val = val + i
        self.coef = list(coef[i:])

    @property
    def abs_prec(self):
        return self.val + len(self.coef)

    @property
    def is_zero_to_prec(self):
        return not self.coef

    def add(self, other):
        hi = min(self.abs_prec, other.abs_prec)
        lo = min(self.val, other.val)
        if lo >= hi:
            return Series(self.field, hi, [])
        out = [0] * (hi - lo)
        f = self.field
        for i, c in enumerate(self.coef):
            k = self.val + i - lo
            if 0 <= k < len(out):
                out[k] = c
        for i, c in enumerate(other.coef):
            k = other.val + i - lo
            if 0 <= k < len(out):
                out[k] = f.add(out[k], c)
        return Series(f, lo, out)

    def scale(self, c):
        f = self.field
        if c == 0:
            return Series(f, self.abs_prec, [])
        return Series(f, self.val, [f.mul(c, x) for x in self.coef])

    def mul(self, other):
        f = self.field
        if self.is_zero_to_prec or other.is_zero_to_prec:
            bound = min(self.val + other.abs_prec, other.val + self.abs_prec)
            return Series(f, bound, [])
        n = min(len(self.coef), len(other.coef))
        out = [0] * n
        for i, a in enumerate(self.coef[:n]):
            if a:
                for j, b in enumerate(other.coef[:n - i]):
                    if b:
                        out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Series(f, self.val + other.val, out)

    def inv(self):
        if self.is_zero_to_prec:
            raise PrecisionExhaustedError("cannot invert a series that is zero to precision")
        f = self.field
        n = len(self.coef)
        a0_inv = f.inv(self.coef[0])
        out = [a0_inv] + [0] * (n - 1)
        for k in range(1, n):
            acc = 0
            for j in range(1, k + 1):
                aj = self.coef[j] if j < n else 0
                if aj and out[k - j]:
                    acc = f.add(acc, f.mul(aj, out[k - j]))
            out[k] = f.neg(f.mul(a0_inv, acc))
        return Series(f, -self.val, out)

    def eq_to_prec(self, other):
        return self.val == other.val and self.coef == other.coef

    def poly_eval(self, poly: Poly, const_len: int):
        """Horner evaluation of an exact polynomial at this series."""
        f = self.field
        acc = Series(f, const_len, [])
        for c in reversed(poly.coeffs):
            acc = acc.mul(self)
            acc = acc.add(Series(f, 0, [c] + [0] * (const_len - 1)))
        return acc


@lru_cache(maxsize=None)
def _expand_coordinates(curve: WeierstrassCurve, P, length: int):
    """Series for (r, s) in the fixed uniformizer at P, to relative length."""
    f = curve.field
    if P is INFINITY:
        # z = r/s, w = 1/s solve w = z^3 + a z w^2 + b w^3.
        z = Series(f, 1, [1] + [0] * (length - 1))
        z3 = z.mul(z).mul(z)
        w = Series(f, 3, [1] + [0] * (length - 1))
        for _ in range(length + 4):
            w2 = w.mul(w)
            nxt = z3.add(z.mul(w2).scale(curve.a)).add(w2.mul(w).scale(curve.b))
            if nxt.eq_to_prec(w):
                break
            w = nxt
        s = w.inv()
        r = z.mul(s)
        return r, s
    x0, y0 = P
    if y0 != 0:
        # t = r - x0; solve s(t) coefficient by coefficient from s^2 = f(r).
        rhs = [curve.rhs(x0),
               f.add(f.mul(3, f.mul(x0, x0)), curve.a),
               f.mul(3, x0),
               1]
        s_coef = [y0] + [0] * (length - 1)
        inv2y = f.inv(f.mul(2, y0))
        for n in range(1, length):
            acc = rhs[n] if n < 4 else 0
            for i in range(1, n):
                if s_coef[i] and s_coef[n - i]:
                    acc = f.sub(acc, f.mul(s_coef[i], s_coef[n - i]))
            s_coef[n] = f.mul(acc, inv2y)
        r = Series(f, 0, [x0, 1] + [0] * (length - 2))
        s = Series(f, 0, s_coef)
        return r, s
    # Two-torsion point: t = s; solve r(t) from t^2 = f(r), pivot f'(x0) != 0.
    pivot = f.add(f.mul(3, f.mul(x0, x0)), curve.a)
    inv_pivot = f.inv(pivot)
    r_coef = [x0] + [0] * (length - 1)
    sq = [f.mul(x0, x0)] + [0] * (length - 1)  # square of the known prefix
    for n in range(1, length):
        cube_n = 0
        for i in range(n + 1):
            if sq[i] and r_coef[n - i]:
                cube_n = f.add(cube_n, f.mul(sq[i], r_coef[n - i]))
        target = 1 if n == 2 else 0
        known = f.add(cube_n, f.mul(curve.a, r_coef[n]))  # r_coef[n] is still 0
        r_coef[n] = f.mul(f.sub(target, known), inv_pivot)
        rn = r_coef[n]
        if rn:
            for m in range(n, length):
                j = m - n
                if j < n and r_coef[j]:
                    sq[m] = f.add(sq[m], f.mul(2, f.mul(rn, r_coef[j])))
            if 2 * n < length:
                sq[2 * n] = f.add(sq[2 * n], f.mul(rn, rn))
    r = Series(f, 0, r_coef)
    s = Series(f, 1, [1] + [0] * (length - 1))
    return r, s


@dataclass(frozen=True)
class LocalExpansion:
    """f = t^valuation * (coeffs[0] + coeffs[1] t + ...) + O(t^(valuation+prec))."""

    valuation: int
    coeffs: tuple

    @property
    def prec(self) -> int:
        return len(self.coeffs)


def local_expand(curve: WeierstrassCurve, fn: FnElement, P, prec: int) -> LocalExpansion:
    """Expand fn at P to relative precision prec in the fixed uniformizer.

    One expansion at the fixed working length L = prec + 4*maxd + 12 (maxd the
    largest degree of A, B, C, at least 1) always suffices, so nothing is
    retried.  A principal divisor has degree 0: A + s*B has its only pole at
    O, of order max(2 deg A, 2 deg B + 3) (the orders 2i of r^i and 2j + 3 of
    s*r^j differ in parity, so they never cancel), hence at most that many
    zeros, while C(r) vanishes to order at most 2 deg C at an affine point.
    The quotient therefore keeps at least L - 2*maxd - 3 > prec coefficients
    (L - 2 at O), and PrecisionExhausted is raised only for fn = 0.
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    if fn.is_zero:
        raise PrecisionExhaustedError("the zero function has no finite order")
    maxd = max(fn.A.degree, fn.B.degree, fn.C.degree, 1)
    length = prec + 4 * maxd + 12
    r, s = _expand_coordinates(curve, P, length)
    num = r.poly_eval(fn.A, length).add(s.mul(r.poly_eval(fn.B, length)))
    out = num.mul(r.poly_eval(fn.C, length).inv())
    if len(out.coef) < prec:
        raise AssertionError(f"expansion at {P!r} kept {len(out.coef)} < {prec} coefficients")
    return LocalExpansion(out.val, tuple(out.coef[:prec]))


def function_valuation(curve: WeierstrassCurve, fn: FnElement, P, prec: int = 8) -> int:
    """Order of fn at P from one expansion (see local_expand); prec sets only its length."""
    return local_expand(curve, fn, P, prec).valuation


def evaluate(curve: WeierstrassCurve, fn: FnElement, P) -> int:
    """Finite value of fn at P; PoleAtSupport if fn has a pole there.

    Where C(x0) = 0, or at O, one expansion to precision 1 gives order and value.
    """
    f = curve.field
    if fn.is_zero:
        return 0
    if P is not INFINITY:
        x0, y0 = P
        c = fn.C(x0)
        if c != 0:
            num = f.add(fn.A(x0), f.mul(y0, fn.B(x0)))
            return f.mul(num, f.inv(c))
    exp = local_expand(curve, fn, P, 1)
    if exp.valuation < 0:
        raise PoleAtSupportError(f"pole of order {-exp.valuation} at {P!r}")
    return exp.coeffs[0] if exp.valuation == 0 else 0


# -- divisors and Riemann-Roch bases -------------------------------------------

@dataclass(frozen=True)
class DivisorSpec:
    """D = n*O + (h); h = None encodes h = 1.  deg D = n."""

    n: int
    h: FnElement = None

    def __post_init__(self):
        if self.n < 0:
            raise UnsupportedDivisorError("multiplicity at O must be non-negative")


def divisor_coefficient(curve: WeierstrassCurve, D: DivisorSpec, P) -> int:
    """Multiplicity of P in D (integer, possibly negative)."""
    base = D.n if P is INFINITY else 0
    if D.h is None or D.h.is_zero:
        return base
    return base + function_valuation(curve, D.h, P)


def rr_basis(curve: WeierstrassCurve, D: DivisorSpec):
    """Ordered basis of L(D) for D = n*O + (h): monomials over h.

    The monomials 1, r, s, r^2, rs, r^3, ... have pole orders 0, 2, 3, 4, 5,
    6, ... at O, so those with pole order at most n give the n = deg D
    elements (genus 1 has the single gap at order 1).
    """
    if D.n < 1:
        raise UnsupportedDivisorError("need deg D >= 1")
    f = curve.field
    one = Poly.const(f, 1)
    monomials = []
    for order in range(D.n + 1):
        if order == 0:
            monomials.append(FnElement.from_poly(curve, one))
        elif order == 1:
            continue
        elif order % 2 == 0:
            monomials.append(FnElement.from_poly(curve, one.shift(order // 2)))
        else:
            z = Poly.zero(f)
            monomials.append(FnElement(curve, z, one.shift((order - 3) // 2),
                                       Poly.const(f, 1)))
    if D.h is None:
        return monomials
    h_inv = D.h.inv()
    return [m * h_inv for m in monomials]


# -- increasing zero bases -------------------------------------------------------

class IzbResult(NamedTuple):
    elements: tuple
    valuations: tuple
    transform: FqMatrix  # rows express the output in the input basis


def _eliminate_increasing(field, rows, width, k):
    """Forward Gaussian elimination by leading position.

    rows are [series coefficients (length width) | transform coords (length k)].
    Returns pivot row indices in pivot-column order plus their pivot columns,
    and the list of row indices that never received a pivot.
    """
    used = []
    pivots = []
    remaining = list(range(len(rows)))
    for col in range(width):
        hit = None
        for idx in remaining:
            if rows[idx][col]:
                hit = idx
                break
        if hit is None:
            continue
        remaining.remove(hit)
        row = rows[hit]
        lead = row[col]
        if lead != 1:
            s = field.inv(lead)
            for j in range(col, width + k):
                if row[j]:
                    row[j] = field.mul(s, row[j])
        for idx in remaining:
            other = rows[idx]
            c = other[col]
            if c:
                for j in range(col, width + k):
                    if row[j]:
                        other[j] = field.sub(other[j], field.mul(c, row[j]))
        used.append(hit)
        pivots.append(col)
        if not remaining:
            break
    return used, pivots, remaining


def _izb_from_rows(field, basis, coeff_rows, width, zero) -> IzbResult:
    """Increasing zero basis from one row of local coefficients per basis element.

    Row i lists the coefficients of t^0, ..., t^(width-1) of basis[i]; each is
    extended by the identity and eliminated forward by leading position, so a
    pivot column is a valuation and the identity part the combination, built
    as a sum of basis[t].scale(c).  A leftover row is a dependency if its
    combination is zero, and otherwise a valuation beyond the window.
    """
    k = len(basis)
    rows = [list(row) + [1 if t == i else 0 for t in range(k)] for i, row in enumerate(coeff_rows)]
    used, pivots, remaining = _eliminate_increasing(field, rows, width, k)

    def combine(coords):
        return sum((basis[t].scale(c) for t, c in enumerate(coords) if c), zero)

    if remaining:
        if any(combine(rows[idx][width:]).is_zero for idx in remaining):
            raise DependentBasisError("input functions are linearly dependent")
        raise PrecisionExhaustedError("valuations not separated at this precision")
    transform = [rows[idx][width:] for idx in used]
    return IzbResult(tuple(combine(coords) for coords in transform), tuple(pivots),
                     FqMatrix.from_rows(field, transform))


def _taylor_coeffs(poly: Poly, x0: int, width: int):
    """Coefficients of poly(x0 + t) as a list of the given width."""
    f = poly.field
    shifted = Poly.const(f, 0)
    lin = Poly.make(f, (x0, 1))
    for c in reversed(poly.coeffs):
        shifted = shifted * lin + Poly.const(f, c)
    return [shifted.coeff(i) for i in range(width)]


def increasing_zero_basis(curve, basis, P, prec: int = None) -> IzbResult:
    """Reorder/combine basis so valuations at P strictly increase from 0.

    Works for function-field elements on a genus-1 curve (curve given) and for
    polynomials on the line (curve = None, P a field element).  Every output
    element is normalized to leading local coefficient 1.  Both feed the
    same elimination: exact Taylor rows on the line, local_expand rows to
    precision prec (default len(basis) + 4) on the curve.  A caller's basis
    may have valuations beyond that window, so on the curve the precision
    doubles, up to 8x, while valuations are not separated.
    """
    if curve is None:
        if P is INFINITY:
            raise PointInSupportError("the point at infinity supports the line divisor")
        field = basis[0].field
        width = max(p.degree for p in basis) + 1
        return _izb_from_rows(field, basis, [_taylor_coeffs(p, P, width) for p in basis], width,
                              Poly.zero(field))
    base = attempt = prec if prec is not None else len(basis) + 4
    while True:
        try:
            rows = []
            for i, fn in enumerate(basis):
                exp = local_expand(curve, fn, P, attempt)
                if exp.valuation < 0:
                    raise PointInSupportError(f"basis element {i} has a pole at {P!r}")
                rows.append(([0] * exp.valuation + list(exp.coeffs))[:attempt])
            return _izb_from_rows(curve.field, basis, rows, attempt, FnElement.zero(curve))
        except PrecisionExhaustedError:
            if attempt >= 8 * base:
                raise
            attempt *= 2


# -- the Goppa matrix-set construction ------------------------------------------

@dataclass(frozen=True)
class GoppaConstruction:
    """All artifacts of one construction run.

    basis0 is the reference ordered basis of L(D) (the increasing zero basis
    at the first point); point_bases[i] is the increasing zero basis at point
    i with valuations point_valuations[i]; matrices[i] is the change of basis
    with matrices[i] * B_i = B_0 in L(D) coordinates.
    """

    field: FieldSpec
    curve: WeierstrassCurve
    genus: int
    points: tuple
    divisor: DivisorSpec
    basis0: tuple
    point_bases: tuple
    point_valuations: tuple
    matrices: tuple
    udmg: Udmg
    generator: FqMatrix


def _point_key(P):
    if P is INFINITY:
        return ("inf",)
    return (P,) if isinstance(P, int) else tuple(P)


def _build_generator(field, curve, K, points, basis0, matrices) -> FqMatrix:
    for j, P in enumerate(points):
        if curve is not None:
            evals = tuple(evaluate(curve, b, P) for b in basis0)
        else:  # at infinity, the standard extension of polynomial evaluation
            evals = tuple(b.coeff(K - 1) if P is INFINITY else b(P) for b in basis0)
        if evals != matrices[j].col(0):
            raise AssertionError(
                f"first column of matrix {j} disagrees with basis evaluation at {P!r}")
    return FqMatrix.from_rows(field, [[M[i, 0] for M in matrices] for i in range(K)])


def goppa_generator(gc: GoppaConstruction) -> FqMatrix:
    """K x L matrix of the first columns, which evaluates the reference basis.

    Column j must equal (B_01(P_j), ..., B_0K(P_j)); both routes are computed
    and compared, so a disagreement flags a construction bug.
    """
    return _build_generator(gc.field, gc.curve, gc.udmg.K, gc.points,
                            gc.basis0, gc.matrices)


def _assemble(field, curve, points, divisor, K, results) -> GoppaConstruction:
    """The construction from the increasing zero bases results[i] at points[i].

    For both genera matrices[i] = T_0 T_i^-1 (T the transforms), so matrices[i]
    B_i = B_0; the set is verified and the generator checked before returning.
    """
    genus = 0 if curve is None else 1
    t0 = results[0].transform
    matrices = tuple(t0.matmul(inverse(res.transform)) for res in results)
    u = Udmg(field, K, genus, matrices)
    if not _verify_fast(u):
        raise AssertionError("construction output failed verification")
    basis0 = results[0].elements
    generator = _build_generator(field, curve, K, points, basis0, matrices)
    return GoppaConstruction(
        field=field, curve=curve, genus=genus, points=points, divisor=divisor, basis0=basis0,
        point_bases=tuple(res.elements for res in results),
        point_valuations=tuple(res.valuations for res in results),
        matrices=matrices, udmg=u, generator=generator)


def goppa_udmg(curve: WeierstrassCurve, points, D: DivisorSpec) -> GoppaConstruction:
    """Genus-1 construction: one K x K matrix per point, K = deg D."""
    points = tuple(points)
    if len(set(map(_point_key, points))) != len(points):
        raise DuplicatePointsError("points must be pairwise distinct")
    for P in points:
        if not curve.contains(P):
            raise InvalidInputError(f"{P!r} is not a rational point of the curve")
    K = D.n  # l(D) = deg D for genus 1 once deg D >= 1
    if K < 1:
        raise TooFewSectionsError("deg D must be at least 1")
    for P in points:
        if divisor_coefficient(curve, D, P) != 0:
            raise SupportCollisionError(f"{P!r} lies in the support of the divisor")
    canonical = rr_basis(curve, D)
    results = [increasing_zero_basis(curve, canonical, P, prec=K + 3) for P in points]
    return _assemble(curve.field, curve, points, D, K, results)


def genus0_udmg(field: FieldSpec, points, K: int) -> GoppaConstruction:
    """Projective-line construction for D = (K-1)*infinity.

    L(D) is spanned by 1, x, ..., x^(K-1); the increasing zero basis at a
    finite point x0 is (x - x0)^j, and at infinity the reversed monomials
    (valuations -(K-1), ..., 0 in the uniformizer 1/x).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    points = tuple(points)
    if len(points) > field.q + 1:
        raise TooManyPointsError(f"at most {field.q + 1} points on the line")
    if len(set(map(_point_key, points))) != len(points):
        raise DuplicatePointsError("points must be pairwise distinct")
    monomials = [Poly.const(field, 1).shift(j) for j in range(K)]

    def izb_at(P):
        if P is INFINITY:  # in u = 1/x, x^t = u^(1-K) * u^(K-1-t): reversed rows, orders shifted
            rows = [[m.coeff(K - 1 - c) for c in range(K)] for m in monomials]
            res = _izb_from_rows(field, monomials, rows, K, Poly.zero(field))
            return res._replace(valuations=tuple(v - (K - 1) for v in res.valuations))
        field.check(P)
        return increasing_zero_basis(None, monomials, P)

    return _assemble(field, None, points, DivisorSpec(K - 1, None), K, [izb_at(P) for P in points])

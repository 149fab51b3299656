"""Curves s^2 = F(r) over finite fields, and the projective line (genus 0).

A curve carries its equation as one polynomial F, monic of odd degree 2g + 1,
and has genus g = (deg F - 1)/2 and one point O at infinity.  For now only
deg F = 3 is accepted: the short Weierstrass cubic F = r^3 + a r + b
(odd characteristic), genus 1.  Covers rational points, exact
function-field arithmetic in the canonical form (A(r) + s B(r)) / C(r), local
power series, Riemann-Roch bases for D = n*O + (h), increasing zero bases,
and the construction, one pipeline for both genera with one rule at every
point P: its rows hold, in column c, the coefficient of t^(c - D(P)) of each
basis element of L(D), deg D + 1 wide (v_P(f) + D(P) <= deg D for f in
L(D)), read off one chain of products per point, so any rational point may
be used, in supp D too.  Forward elimination (linalg.echelon_rows) gives the
increasing zero basis, its valuations the pivot columns minus D(P); one
assembly solves each matrix from one elimination against the reference
transform (linalg.right_divide: no inverse, no product), certifies the set
valid by a valuation check that the degree of D justifies (no scan; each
transform a witness checked by one product), and checks the generator.
Widths, lengths (each from one margin, _margin) and the work are bounded in
advance: no retries, no cache between calls.

Local uniformizers are fixed once and for all so that independent runs agree:
t = r - x(P) at an affine point with s(P) != 0, t = s at an affine point with
s(P) = 0, and t = r^g/s at O; on the line x is x0 + t, or 1/t at infinity (_line_series).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, reduce
from itertools import islice

# _verify_fast stays bound only for perfbench/tracer.py to wrap; the construction certifies itself.
from .core import Udmg, _verify_fast  # noqa: F401
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
    TooLargeError,
    TooManyPointsError,
    UnsupportedDivisorError,
)
from .fields import FieldSpec, row_ops
from .linalg import FqMatrix, echelon_rows, first_columns, rank, right_divide
# inverse stays bound only for perfbench/tracer.py to wrap; the construction solves, not inverts.
from .linalg import inverse  # noqa: F401
from .polys import Poly
from .records import record


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


@record
class WeierstrassCurve:
    """Nonsingular curve s^2 = F(r) of genus g = (deg F - 1)/2, uniformizer r^g/s at O.

    Only deg F = 3 is accepted for now: F = r^3 + a r + b, genus 1, in odd
    characteristic; gcd(F, F') decides nonsingularity (a != 0 in
    characteristic 3, where F' = a).  F is built once here, as a Poly, and
    everything else reads F and genus.  Both are set by __post_init__ and are
    not fields: a and b only name the curve (equality, hash, repr,
    construction files).
    """

    field: FieldSpec
    a: int
    b: int

    def __post_init__(self):
        f = self.field
        if f.p == 2:
            raise BadCharacteristicError("short Weierstrass form needs odd characteristic")
        F = Poly.make(f, (self.b, self.a, 0, 1))
        dF = Poly(f, tuple(f.mul(f.from_int(k), c) for k, c in enumerate(F.coeffs))[1:])
        if F.gcd(dF).degree > 0:
            raise SingularCurveError("discriminant vanishes")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "genus", (F.degree - 1) // 2)

    def rhs(self, x: int) -> int:
        return self.F(x)

    def contains(self, P) -> bool:
        if P is INFINITY:
            return True
        if not isinstance(P, (tuple, list)) or len(P) != 2:
            raise InvalidInputError(f"point {P!r} is neither O nor a pair (x, y)")
        x, y = map(self.field.check, P)  # else (2, 6) and (2, 1) would name one point twice
        return self.field.mul(y, y) == self.F(x)


def curve_new(field: FieldSpec, a: int, b: int) -> WeierstrassCurve:
    return WeierstrassCurve(field, a, b)


def enumerate_points(curve: WeierstrassCurve):
    """All rational points: O first, affine points in (x, y) lexicographic order.

    The count is checked against the Hasse-Weil-Serre interval, slack
    g*floor(2 sqrt(q)); a violation means the arithmetic itself is broken.
    """
    f, F = curve.field, curve.F
    roots = {}  # y^2 -> [y], in element order
    for y in f.elements():
        roots.setdefault(f.mul(y, y), []).append(y)
    pts = [INFINITY]
    for x in f.elements():
        pts.extend((x, y) for y in roots.get(F(x), ()))
    q = f.q
    slack = curve.genus * math.isqrt(4 * q)
    lo, hi = q + 1 - slack, q + 1 + slack
    if not lo <= len(pts) <= hi:
        raise HasseWeilViolationError(f"{len(pts)} points outside [{lo}, {hi}]")
    return pts


# -- function field elements ---------------------------------------------------

@record
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
        elif C.degree > 0:  # a constant C is a unit: the gcd is 1
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
        return cls.from_poly(curve, Poly.zero(curve.field))

    @classmethod
    def const(cls, curve, c: int) -> "FnElement":
        return cls.from_poly(curve, Poly.const(curve.field, c))

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
        if (o := self._coerce(other)) is NotImplemented:  # Python then raises TypeError
            return o
        A = self.A * o.C + o.A * self.C
        B = self.B * o.C + o.B * self.C
        return FnElement(self.curve, A, B, self.C * o.C)

    __radd__ = __add__

    def __neg__(self):
        return FnElement(self.curve, -self.A, -self.B, self.C)

    def __sub__(self, other):
        return o if (o := self._coerce(other)) is NotImplemented else self + (-o)

    def __rsub__(self, other):
        return o if (o := self._coerce(other)) is NotImplemented else o + (-self)

    def __mul__(self, other):
        if (o := self._coerce(other)) is NotImplemented:
            return o
        F = self.curve.F
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
        F = self.curve.F
        norm = self.A * self.A - F * (self.B * self.B)
        return FnElement(self.curve, self.C * self.A, -(self.C * self.B), norm)

    def __truediv__(self, other):
        return o if (o := self._coerce(other)) is NotImplemented else self * o.inv()

    def __rtruediv__(self, other):
        return o if (o := self._coerce(other)) is NotImplemented else o * self.inv()

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

    def add(self, other):
        hi = min(self.abs_prec, other.abs_prec)
        lo = min(self.val, other.val)
        if lo >= hi:
            return Series(self.field, hi, [])
        f, out = self.field, [0] * (hi - lo)
        for x in (self, other):  # each term below hi, at offset x.val - lo >= 0
            for k, c in enumerate(x.coef[:max(hi - x.val, 0)], x.val - lo):
                if c:
                    out[k] = f.add(out[k], c)
        return Series(f, lo, out)

    def mul(self, other):
        f = self.field
        if not self.coef or not other.coef:
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
        if not self.coef:
            raise PrecisionExhaustedError("cannot invert a series that is zero to precision")
        f = self.field
        n = len(self.coef)
        a0_inv = f.inv(self.coef[0])
        out = [a0_inv] + [0] * (n - 1)
        for k in range(1, n):
            acc = 0
            for j in range(1, k + 1):  # j <= k < n
                if self.coef[j] and out[k - j]:
                    acc = f.add(acc, f.mul(self.coef[j], out[k - j]))
            out[k] = f.neg(f.mul(a0_inv, acc))
        return Series(f, -self.val, out)

    def row(self, width: int) -> list:
        """Coefficients of t^0, ..., t^(width-1), for a series of valuation >= 0."""
        if self.abs_prec < width:
            raise AssertionError(f"series kept {self.abs_prec} < {width} coefficients")
        return ([0] * self.val + self.coef)[:width]

    def chain(self, r, width: int):
        """Rows at width of self, self*r, self*r^2, ..., one product by r per row drawn."""
        x = self
        while True:
            yield x.row(width)
            x = x.mul(r)

    def poly_eval(self, poly: Poly, const_len: int):
        """Horner evaluation of an exact polynomial at this series."""
        f = self.field
        acc = Series(f, const_len, [])
        for c in reversed(poly.coeffs):
            acc = acc.mul(self)
            acc = acc.add(Series(f, 0, [c] + [0] * (const_len - 1)))
        return acc


def _solve_series(f, target, lag: int, h, length: int) -> list:
    """Coefficients x_0 = 0, x_1, ..., x_(length-1) of x = target(t) + t^lag sum_k h[k] x^k.

    x^k vanishes to order k, and h[1] = 0 when lag = 0, so coefficient n reads
    only x_1, ..., x_(n-1): one pass fills x and, entry by entry, the tables
    of its powers x^0, ..., x^(len(h)-1).
    """
    x = [0] * length
    pw = [[1] + [0] * (length - 1), x] + [[0] * length for _ in h[2:]]
    for n in range(1, length):
        acc = target[n] if n < len(target) else 0
        m = n - lag
        if m >= 0:
            for k in range(2, len(h)):
                prev, c = pw[k - 1], 0
                for i in range(1, m):
                    if prev[i] and x[m - i]:
                        c = f.add(c, f.mul(prev[i], x[m - i]))
                pw[k][m] = c
            for hk, row in zip(h, pw):
                if hk and row[m]:
                    acc = f.add(acc, f.mul(hk, row[m]))
        x[n] = acc
    return x


def _line_series(field, P, length: int) -> Series:
    """x in the line's fixed uniformizer at P: x0 + t (field.check refuses x0), 1/t at infinity."""
    if P is INFINITY:
        return Series(field, -1, [1] + [0] * (length - 1))
    return Series(field, 0, [field.check(P), 1] + [0] * (length - 2))


def _taylor_rows(f, polys, x0: int, width: int) -> list:
    """Coefficients of t^0, ..., t^(width-1) of p(x0 + t) for each p in polys, x0 in f."""
    x = _line_series(f, x0, width)
    return [x.poly_eval(p, width).row(width) for p in polys]


def _coordinate_series(curve: WeierstrassCurve, P, length: int):
    """Series for (r, s) in the fixed uniformizer at P, each from F alone."""
    if not curve.contains(P):
        raise InvalidInputError(f"{P!r} is not a rational point of the curve")
    f, F = curve.field, curve.F
    d = F.degree
    if P is INFINITY:
        # t = r^g/s: v = 1/r solves v = t^2 (F_d + F_(d-1) v + ... + F_0 v^d).
        v = _solve_series(f, (), 2, [F.coeff(d - k) for k in range(d + 1)], length + 2)
        r = Series(f, 0, v).inv()
        rg = reduce(Series.mul, [r] * curve.genus)
        return r, Series(f, rg.val - 1, rg.coef)
    x0, y0 = P
    G = _taylor_rows(f, [F], x0, d + 1)[0]  # F(x0 + t)
    if y0 != 0:
        # t = r - x0, s = y0 + w: w = (G(t) - G(0) - w^2) / (2 y0).
        c = f.inv(f.mul(2, y0))
        w = _solve_series(f, [0] + [f.mul(c, g) for g in G[1:]], 0, [0, 0, f.neg(c)], length)
        w[0] = y0
        return _line_series(f, x0, length), Series(f, 0, w)
    # Two-torsion point: t = s, r = x0 + u: u = (t^2 - G_2 u^2 - ... - G_d u^d) / G_1,
    # with pivot G_1 = F'(x0) != 0.
    c = f.inv(G[1])
    u = _solve_series(f, (0, 0, c), 0, [0, 0] + [f.neg(f.mul(c, g)) for g in G[2:]], length)
    u[0] = x0
    return Series(f, 0, u), Series(f, 1, [1] + [0] * (length - 1))


@record
class LocalExpansion:
    """f = t^valuation * (coeffs[0] + coeffs[1] t + ...) + O(t^(valuation+prec))."""

    valuation: int
    coeffs: tuple

    @property
    def prec(self) -> int:
        return len(self.coeffs)


def _fn_series(fn: FnElement, r: Series, s: Series, length: int) -> Series:
    """fn = (A + s*B)/C on the series r and s of one point, each known to O(t^length)."""
    num = r.poly_eval(fn.A, length).add(s.mul(r.poly_eval(fn.B, length)))
    return num.mul(r.poly_eval(fn.C, length).inv())


def _margin(curve: WeierstrassCurve, fn: FnElement) -> int:
    """How many coefficients fn = (A + s*B)/C can lose: on the r and s of
    _coordinate_series(curve, P, L) its series keeps L - _margin relative ones.

    At an affine point a polynomial in r, s is known to O(t^L) and loses its
    order there, at most its number of zeros: 2 deg C for C(r), and for A + s*B
    its pole order at O, max(2 deg A, 2 deg B + 2g + 1) (the orders 2i of r^i
    and 2j + 2g + 1 of s*r^j never cancel).  At O every series keeps L - 2g - 1
    (s*0 is known to O(t^(L - 2g - 1)), so 2g + 1 counts for B = 0 too).  So a
    series of valuation >= 0 is known to O(t^(L - 2 deg C - 2g - 1)) at any point.
    """
    return max(2 * fn.C.degree, 2 * fn.A.degree, 2 * max(fn.B.degree, 0) + 2 * curve.genus + 1)


def local_expand(curve: WeierstrassCurve, fn: FnElement, P, prec: int) -> LocalExpansion:
    """Expand fn at P to relative precision prec in the fixed uniformizer.

    One expansion at the length prec + _margin(curve, fn) keeps prec coefficients,
    so nothing is retried; PrecisionExhausted is raised only for fn = 0.
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    if fn.is_zero:
        raise PrecisionExhaustedError("the zero function has no finite order")
    length = prec + _margin(curve, fn)
    out = _fn_series(fn, *_coordinate_series(curve, P, length), length)
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
        if not curve.contains(P):
            raise InvalidInputError(f"{P!r} is not a rational point of the curve")
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

@record
class DivisorSpec:
    """D = n*O + (h); h = None encodes h = 1.  deg D = n."""

    n: int
    h: FnElement = None

    def __post_init__(self):
        if type(self.n) is not int:  # refuses bool and 2.5, not coerced
            raise TypeError(f"multiplicity {self.n!r} must be an integer")
        if self.n < 0:
            raise UnsupportedDivisorError("multiplicity at O must be non-negative")
        if self.h is not None and self.h.is_zero:
            raise UnsupportedDivisorError(f"D = {self.n}*O + (h) needs h != 0")


def _pole_walk(curve: WeierstrassCurve, n: int) -> list:
    """(j, e) for each monomial s^j r^e (j in {0, 1}) of L(n*O), in increasing pole order.

    r^e has pole order 2e at O and s*r^e order 2e + 2g + 1, so the orders are
    the semigroup <2, 2g + 1>, each once; the monomials of pole order at most
    n span L(n*O) (for genus 1: 1, r, s, r^2, rs, ..., n elements, the single
    gap at order 1).
    """
    odd = 2 * curve.genus + 1
    return [(o % 2, (o - o % 2 * odd) // 2) for o in range(n + 1) if o % 2 == 0 or o >= odd]


def rr_basis(curve: WeierstrassCurve, D: DivisorSpec):
    """Ordered basis of L(D) for D = n*O + (h): the monomials of _pole_walk over h."""
    if D.n < 1:
        raise UnsupportedDivisorError("need deg D >= 1")
    one, zero = Poly.const(curve.field, 1), Poly.zero(curve.field)
    monomials = [FnElement(curve, zero, one.shift(e), one) if j
                 else FnElement.from_poly(curve, one.shift(e)) for j, e in _pole_walk(curve, D.n)]
    if D.h is None:
        return monomials
    h_inv = D.h.inv()
    return [m * h_inv for m in monomials]


def _rr_rows(curve: WeierstrassCurve, D: DivisorSpec, P, width: int) -> tuple:
    """(D(P), rows): the local rows at P of rr_basis(curve, D), read off one
    expansion of r, s and 1/h.

    D(P) = v_P(h) (+ n at O) comes from the series of h.  Row i holds the
    coefficients of t^(-D(P)), ..., t^(width-1-D(P)) of the i-th element of
    rr_basis, r^e/h or s*r^e/h, off two chains of products by r started from
    t^D(P)/h and s*t^D(P)/h; 1/h inverts h's series, never the norm of h, and
    is the exact series 1 when h is absent.

    At length width + _margin(curve, h), r, s and t^D(P)/h keep width relative
    coefficients, so every row (order >= 0) is known to O(t^width); else
    AssertionError.  With h absent the length is width: r, s and the exact 1
    keep all of theirs, and so does each product of them.
    """
    length = width + (0 if D.h is None else _margin(curve, D.h))
    r, s = _coordinate_series(curve, P, length)
    h_inv = (Series(curve.field, 0, [1] + [0] * (length - 1)) if D.h is None
             else _fn_series(D.h, r, s, length).inv())
    at_O = D.n if P is INFINITY else 0
    start = Series(curve.field, at_O, h_inv.coef)  # t^D(P)/h, D(P) = at_O - v_P(1/h)
    chains = [start.chain(r, width), s.mul(start).chain(r, width)]  # r^e/h and s*r^e/h
    return at_O - h_inv.val, [next(chains[j]) for j, _ in _pole_walk(curve, D.n)]


# -- increasing zero bases -------------------------------------------------------

# transform's rows express the elements in the input basis
IzbResult = namedtuple("IzbResult", "elements valuations transform")


def _combine(basis, coord_rows) -> tuple:
    """sum(coords[t] * basis[t]) for each coords in coord_rows, built from basis[t].scale(c)
    and starting from basis[0].scale(0), the zero element of either genus."""
    return tuple(sum((basis[t].scale(c) for t, c in enumerate(coords) if c), basis[0].scale(0))
                 for coords in coord_rows)


def _izb_from_rows(field, basis, coeff_rows, width) -> tuple:
    """(valuations, transform) of the increasing zero basis, from one row of local
    coefficients per basis element.

    Row i lists the coefficients of t^0, ..., t^(width-1) of basis[i]; each is
    extended by the identity and eliminated forward by echelon_rows, so a
    pivot column is a valuation and the identity part the combination, a row
    of the transform.  A leftover row is a dependency if its combination is
    zero, and otherwise a valuation beyond the window.
    """
    k = len(basis)
    rows = [list(row) + [1 if t == i else 0 for t in range(k)] for i, row in enumerate(coeff_rows)]
    used, pivots, remaining = echelon_rows(row_ops(field), rows, width)
    if remaining:
        if any(fn.is_zero for fn in _combine(basis, [rows[idx][width:] for idx in remaining])):
            raise DependentBasisError("input functions are linearly dependent")
        raise PrecisionExhaustedError("valuations not separated at this precision")
    return tuple(pivots), FqMatrix.from_rows(field, [rows[idx][width:] for idx in used])


def increasing_zero_basis(curve, basis, P, prec: int = None) -> IzbResult:
    """Reorder/combine basis so valuations at P strictly increase from 0.

    Works for function-field elements on a curve (curve given) and for
    polynomials on the line (curve = None, P a field element); an empty basis
    gives the empty result, with no transform, on both.  Every output element
    is normalized to leading local coefficient 1.  The rows are read off one
    expansion at P: Taylor rows of p(P + t) on the line; on the curve,
    (A + s*B)/C on r and s, at width prec if given (too small raises
    PrecisionExhausted), else at one more than the degree of the pole divisor
    of any nonzero combination f, which bounds v_P(f).  With lam = lcm(C_i),
    f = N/lam: lam(r) has 2 deg lam zeros, and N = A + s*B its only pole at O,
    of order at most max_i(max(2 deg A_i, 2 deg B_i + 2g + 1) + 2(deg lam -
    deg C_i)) (see _margin), so f has at most max(2 deg lam, that order)
    poles.  At the length width + max _margin each row keeps its width coefficients.
    """
    if not basis:  # a 0 x 0 transform would need a field, which [] on the line does not name
        return IzbResult((), (), None)
    if curve is None:
        if P is INFINITY:
            raise PointInSupportError("the point at infinity supports the line divisor")
        field, width = basis[0].field, max(p.degree for p in basis) + 1
        rows = _taylor_rows(field, basis, P, width)
    else:
        field, width = curve.field, prec
        if prec is None:
            lam = reduce(lambda a, c: a * c // a.gcd(c), (fn.C for fn in basis)).degree
            width = 1 + max([2 * lam] + [max(2 * fn.A.degree, 2 * fn.B.degree + 2 * curve.genus + 1)
                                         + 2 * (lam - fn.C.degree) for fn in basis])
        elif prec < 1:
            raise ValueError("prec must be >= 1")
        length = width + max(_margin(curve, fn) for fn in basis)
        r, s = _coordinate_series(curve, P, length)
        rows = [_fn_series(fn, r, s, length) for fn in basis]
        for i, x in enumerate(rows):
            if x.val < 0:
                raise PointInSupportError(f"basis element {i} has a pole at {P!r}")
            rows[i] = x.row(width)
    vals, T = _izb_from_rows(field, basis, rows, width)
    return IzbResult(_combine(basis, T.to_rows()), vals, T)


# -- the Goppa matrix-set construction ------------------------------------------

@record
class GoppaConstruction:
    """All artifacts of one construction run.

    canonical is the ordered basis of L(D) the run starts from (rr_basis on
    the curve, 1, x, ..., x^(K-1) on the line); transforms[i] expresses the
    increasing zero basis B_i at point i in it, with valuations
    point_valuations[i].  basis0 = B_0, the increasing zero basis at the
    first point, is the reference ordered basis, and matrices[i] is the
    change of basis with matrices[i] * B_i = B_0 in L(D) coordinates.  Only
    B_0 is built as function elements during the run; point_bases builds
    every B_i from its transform when first read.
    """

    field: FieldSpec
    curve: WeierstrassCurve
    genus: int
    points: tuple
    divisor: DivisorSpec
    canonical: tuple
    basis0: tuple
    transforms: tuple
    point_valuations: tuple
    matrices: tuple
    udmg: Udmg
    generator: FqMatrix

    @cached_property
    def point_bases(self) -> tuple:
        return tuple(_combine(self.canonical, T.to_rows()) for T in self.transforms)


def _point_key(P):
    return tuple(P) if isinstance(P, list) else P  # O, 3, 1.5 and (0, 1) are keys as they are


# Per point a construction eliminates a K x K transform, solves for its matrix and checks
# it, about K^3 field operations each: L*K^3 past this is refused before any row is built.
MAX_WORK = 1 << 21


def _distinct_points(points, K, most=None) -> tuple:
    """points as a tuple, refused if empty, longer than most (when given),
    repeating, or if L*K^3 passes MAX_WORK."""
    points = tuple(points)
    if not points:
        raise InvalidInputError("the construction needs at least one point")
    if most is not None and len(points) > most:
        raise TooManyPointsError(f"at most {most} points on the line")
    if len(set(map(_point_key, points))) != len(points):
        raise DuplicatePointsError("points must be pairwise distinct")
    if len(points) * K ** 3 > MAX_WORK:
        raise TooLargeError(f"L*K^3 = {len(points)}*{K}^3 passes MAX_WORK = {MAX_WORK}")
    return points


def _first_column(curve, basis, P, v) -> tuple:
    """The coefficients of t^v at P of basis, v the lowest order of L(D) at P
    (-D(P), save at a base point): values at v = 0 (Horner, evaluate), else local_expand's."""
    if curve is None:
        return tuple(b.coeff(-v) if P is INFINITY else b(P) for b in basis)
    if v == 0:
        return tuple(evaluate(curve, b, P) for b in basis)
    return tuple(e.coeffs[0] if e.valuation == v else 0
                 for e in (local_expand(curve, b, P, 1) for b in basis))


def _build_generator(points, matrices, values) -> FqMatrix:
    G = first_columns(matrices)
    for j, (P, evals) in enumerate(zip(points, values, strict=True)):
        if evals != G.col(j):
            raise AssertionError(
                f"first column of matrix {j} disagrees with basis evaluation at {P!r}")
    return G


def goppa_generator(gc: GoppaConstruction) -> FqMatrix:
    """K x L matrix of the first columns, which evaluates the reference basis.

    Column j must equal the coefficients of t^v, v = point_valuations[j][0], of
    (B_01, ..., B_0K) at P_j: their values where v = 0.  _first_column
    computes them, never off the construction's rows, so a disagreement flags
    a construction bug.
    """
    pairs = zip(gc.points, gc.point_valuations)
    return _build_generator(gc.points, gc.matrices,
                            [_first_column(gc.curve, gc.basis0, P, v[0]) for P, v in pairs])


def _certify(field, genus, degree, points, t0, matrices, transforms, rows) -> None:
    """Prove a constructed set valid from the degree of D, without a scan.

    rows[i] lists the local coefficients at points[i] of the canonical basis
    of L(D), column c holding the coefficient of t^(c - D(P_i)); t0 expresses
    the reference basis B_0 in the canonical one.  transforms[i] = T_i is read
    only as a witness, checked by one product: M_i T_i = t0 and rank(t0) = K
    make M_i invertible with M_i^-1 t0 = T_i, so M_i B_i = B_0 for the basis
    B_i that T_i expresses.  Row j of T_i rows[i], the expansion of B_ij, must
    vanish in every column < j: v_Pi(B_ij) + D(P_i) >= j.  If a nonzero y
    were orthogonal to the first lam_i columns of every M_i, with
    sum(lam) = K + g, then f = sum_k y_k B_0k = sum_j (y^T M_i)_j B_ij would
    have v_Pi(f) + D(P_i) >= lam_i at every point, so f in L(D) would have
    K + g > deg D zeros counted against D, which no nonzero f allows.

    Sufficient, not necessary.  It trusts no transform and reads no valuation,
    and raises AssertionError if the check or a side condition fails: deg D =
    K + g - 1, distinct points, t0 of rank K, every M_i T_i = t0.
    """
    K = t0.rows
    if degree != K + genus - 1:
        raise AssertionError(f"deg D = {degree} is not K + g - 1 = {K + genus - 1}")
    if len(set(map(_point_key, points))) != len(points):
        raise AssertionError("points are not distinct")
    if rank(t0) != K:
        raise AssertionError("the reference basis is dependent")
    dot = field.dot
    for i, (M, T, R) in enumerate(zip(matrices, transforms, rows, strict=True)):
        if M.matmul(T) != t0:
            raise AssertionError(f"matrix {i} times transform {i} is not t0")
        cols = [tuple(r[c] for r in R) for c in range(K - 1)]
        for j in range(K):
            row = T.row(j)
            if any(dot(row, cols[c]) for c in range(j)):
                raise AssertionError(
                    f"basis element {j} at {points[i]!r} has v + D(P) below {j}")


def _assemble(field, curve, genus, points, divisor, canonical, rows, shifts) -> GoppaConstruction:
    """The construction from rows[i], the rows of canonical at points[i] with
    D(P_i) = shifts[i].  Only B_0 is built as elements; matrices[i] = T_0 T_i^-1
    (T the transforms), so matrices[i] B_i = B_0, solved from one elimination
    of [T_i^T | T_0^T] (right_divide).  _certify proves the set valid, taking
    each T_i as a witness (so the run solves once per point, here).  The
    generator is checked at O, and wherever L(D) has lowest order v != 0 at
    P, against t0 times column v + D(P) of the rows, else against the values
    of B_0 (_first_column).
    """
    results = [_izb_from_rows(field, canonical, R, divisor.n + 1) for R in rows]
    valuations = tuple(tuple(v - d for v in pivots) for (pivots, _), d in zip(results, shifts))
    transforms = tuple(T for _, T in results)
    t0 = transforms[0]
    matrices = tuple(right_divide(t0, T) for T in transforms)
    _certify(field, genus, divisor.n, points, t0, matrices, transforms, rows)
    basis0 = _combine(canonical, t0.to_rows())
    generator = _build_generator(points, matrices, [
        t0.matvec([r[v[0] + d] for r in R]) if P is INFINITY or v[0] else
        _first_column(curve, basis0, P, 0) for P, v, d, R in zip(points, valuations, shifts, rows)])
    return GoppaConstruction(
        field=field, curve=curve, genus=genus, points=points, divisor=divisor,
        canonical=tuple(canonical), basis0=basis0,
        transforms=transforms, point_valuations=valuations, matrices=matrices,
        udmg=Udmg(field, len(canonical), genus, matrices), generator=generator)


def goppa_udmg(curve: WeierstrassCurve, points, D: DivisorSpec) -> GoppaConstruction:
    """Curve construction on any rational points: one K x K matrix per point,
    K = l(D) = deg D + 1 - g, with each point's rows from _rr_rows."""
    points = _distinct_points(points, D.n + 1 - curve.genus)  # K by Riemann-Roch, before rr_basis
    canonical = rr_basis(curve, D)
    shifts, rows = zip(*(_rr_rows(curve, D, P, D.n + 1) for P in points))
    return _assemble(curve.field, curve, curve.genus, points, D, canonical, rows, shifts)


def genus0_udmg(field: FieldSpec, points, K: int) -> GoppaConstruction:
    """Projective-line construction for D = (K-1)*infinity.

    L(D) is spanned by 1, x, ..., x^(K-1).  The rows of t^D(P) x^e come off
    one chain of products by x's series (_line_series), D(P) = K - 1 at infinity.
    """
    if type(K) is not int:  # refuses bool and 2.5, not coerced
        raise TypeError(f"K = {K!r} must be an integer")
    if K < 1:
        raise ValueError("K must be >= 1")
    points = _distinct_points(points, K, field.q + 1)
    monomials = [Poly.const(field, 1).shift(j) for j in range(K)]
    shifts = [K - 1 if P is INFINITY else 0 for P in points]
    pad = [0] * (K - 1)
    rows = [[*islice(Series(field, d, [1, *pad]).chain(_line_series(field, P, K), K), K)]
            for P, d in zip(points, shifts)]
    return _assemble(field, None, 0, points, DivisorSpec(K - 1, None), monomials, rows, shifts)

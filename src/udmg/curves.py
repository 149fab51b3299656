"""Curves s^2 = F(r) over finite fields, and the projective line (genus 0).

A curve carries its equation as one polynomial F, monic of odd degree 2g + 1,
and has genus g = (deg F - 1)/2 and one point O at infinity.  For now only
deg F = 3 is accepted: the short Weierstrass cubic F = r^3 + a r + b
(characteristic outside {2, 3}), genus 1.  Covers exhaustive rational-point
enumeration, exact function-field arithmetic in the canonical form
(A(r) + s B(r)) / C(r), local power-series expansions, Riemann-Roch bases for
divisors of the shape n*O + (h), increasing zero bases, and the
evaluation-code matrix construction.

Both genera run one pipeline: rows of local coefficients at each point
(Taylor rows on the projective line; on the curve, rows of r^i/h and s*r^j/h
read off one expansion of r, s and 1/h), extended by the identity, go through
linalg's forward elimination (echelon_rows) to give the increasing zero basis,
and one assembly builds the matrices, certifies them valid by a valuation
check that the degree of D justifies (no scan of allowable vectors), and
checks the generator.  Every expansion has a fixed length that the degree of
a principal divisor bounds in advance: no retries, no cache between calls.

Local uniformizers are fixed once and for all so that independent runs agree:
t = r - x(P) at an affine point with s(P) != 0, t = s at an affine point with
s(P) = 0, and t = r^g/s at the point at infinity O.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

# _verify_fast is unused here since the construction certifies itself; it stays
# bound because perfbench/tracer.py wraps curves._verify_fast.
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
    SupportCollisionError,
    TooFewSectionsError,
    TooManyPointsError,
    UnsupportedDivisorError,
)
from .fields import FieldSpec
from .linalg import FqMatrix, echelon_rows, inverse, rank
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

    Only deg F = 3 is accepted for now: F = r^3 + a r + b, genus 1.  F is
    built once here, as a Poly, and everything else reads F and genus.  Both
    are set by __post_init__ and are not fields: a and b only name the curve
    (equality, hash, repr, construction files).
    """

    field: FieldSpec
    a: int
    b: int

    def __post_init__(self):
        f = self.field
        if f.p in (2, 3):
            raise BadCharacteristicError("short Weierstrass form needs characteristic > 3")
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
        x, y = P
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
        rg = r
        for _ in range(curve.genus - 1):
            rg = rg.mul(r)
        return r, Series(f, rg.val - 1, rg.coef)
    x0, y0 = P
    G = _taylor_coeffs(F, x0, d + 1)  # F(x0 + t)
    if y0 != 0:
        # t = r - x0, s = y0 + w: w = (G(t) - G(0) - w^2) / (2 y0).
        c = f.inv(f.mul(2, y0))
        w = _solve_series(f, [0] + [f.mul(c, g) for g in G[1:]], 0, [0, 0, f.neg(c)], length)
        w[0] = y0
        return Series(f, 0, [x0, 1] + [0] * (length - 2)), Series(f, 0, w)
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


def local_expand(curve: WeierstrassCurve, fn: FnElement, P, prec: int) -> LocalExpansion:
    """Expand fn at P to relative precision prec in the fixed uniformizer.

    One expansion at the fixed working length L = prec + 4*(maxd + 2g + 1)
    (maxd the largest degree of A, B, C, at least 1) always suffices, so
    nothing is retried.  A principal divisor has degree 0: A + s*B has its
    only pole at O, of order max(2 deg A, 2 deg B + 2g + 1) (the orders 2i of
    r^i and 2j + 2g + 1 of s*r^j differ in parity, so they never cancel),
    hence at most that many zeros, while C(r) vanishes to order at most
    2 deg C at an affine point.  The quotient therefore keeps at least
    L - 2*maxd - (2g + 1) > prec coefficients (L - 2 at O), and
    PrecisionExhausted is raised only for fn = 0.
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    if fn.is_zero:
        raise PrecisionExhaustedError("the zero function has no finite order")
    maxd = max(fn.A.degree, fn.B.degree, fn.C.degree, 1)
    length = prec + 4 * (maxd + 2 * curve.genus + 1)
    r, s = _coordinate_series(curve, P, length)
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


def _rr_rows(curve: WeierstrassCurve, D: DivisorSpec, P, width: int) -> list:
    """Local rows at P of rr_basis(curve, D), read off one expansion of r, s and 1/h.

    Row i holds the coefficients of t^0, ..., t^(width-1) of r^i/h or s*r^j/h,
    the i-th element of rr_basis: the row local_expand gives.  1/h is
    C(r) * (A(r) + s*B(r))^-1, never the norm of h, and the same series give
    D(P) = v_P(h) (+ n at O); SupportCollisionError unless D(P) = 0.

    The length L = width + 2*(deg C + 1) suffices.  At an affine point every
    polynomial in r, s is known to O(t^L) and C(r) has order v_C <= 2 deg C;
    off supp D so has the numerator (one vanishing to O(t^L) puts P in supp D),
    so 1/h and each row are known to O(t^(L - v_C)).  At O the pole orders 2
    and 2g + 1 differ in parity, so nothing cancels and every series keeps
    L - 2 relative coefficients.  A short row raises AssertionError.
    """
    h = D.h or FnElement.const(curve, 1)
    length = width + 2 * (h.C.degree + 1)
    r, s = _coordinate_series(curve, P, length)
    num = r.poly_eval(h.A, length).add(s.mul(r.poly_eval(h.B, length)))
    den = r.poly_eval(h.C, length)
    if num.val - den.val + (D.n if P is INFINITY else 0) != 0:
        raise SupportCollisionError(f"{P!r} lies in the support of the divisor")
    h_inv = den.mul(num.inv())
    chains = [h_inv, s.mul(h_inv)]  # r^e/h and s*r^e/h, each times r when _pole_walk takes it
    rows = []
    for j, _ in _pole_walk(curve, D.n):
        fn = chains[j]
        if fn.abs_prec < width:
            raise AssertionError(f"row at {P!r} kept {fn.abs_prec} < {width} coefficients")
        rows.append(([0] * fn.val + fn.coef)[:width])
        chains[j] = fn.mul(r)
    return rows


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
    used, pivots, remaining = echelon_rows(field, rows, width)
    if remaining:
        if any(fn.is_zero for fn in _combine(basis, [rows[idx][width:] for idx in remaining])):
            raise DependentBasisError("input functions are linearly dependent")
        raise PrecisionExhaustedError("valuations not separated at this precision")
    return tuple(pivots), FqMatrix.from_rows(field, [rows[idx][width:] for idx in used])


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

    Works for function-field elements on a curve (curve given) and for
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
        width = max(p.degree for p in basis) + 1
        rows = [_taylor_coeffs(p, P, width) for p in basis]
        vals, T = _izb_from_rows(basis[0].field, basis, rows, width)
        return IzbResult(_combine(basis, T.to_rows()), vals, T)
    base = attempt = prec if prec is not None else len(basis) + 4
    while True:
        try:
            rows = []
            for i, fn in enumerate(basis):
                exp = local_expand(curve, fn, P, attempt)
                if exp.valuation < 0:
                    raise PointInSupportError(f"basis element {i} has a pole at {P!r}")
                rows.append(([0] * exp.valuation + list(exp.coeffs))[:attempt])
            vals, T = _izb_from_rows(curve.field, basis, rows, attempt)
            return IzbResult(_combine(basis, T.to_rows()), vals, T)
        except PrecisionExhaustedError:
            if attempt >= 8 * base:
                raise
            attempt *= 2


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
    if P is INFINITY:
        return ("inf",)
    return (P,) if isinstance(P, int) else tuple(P)


def _distinct_points(points, most=None) -> tuple:
    """points as a tuple, refused if empty, longer than most (when given), or repeating."""
    points = tuple(points)
    if not points:
        raise InvalidInputError("the construction needs at least one point")
    if most is not None and len(points) > most:
        raise TooManyPointsError(f"at most {most} points on the line")
    if len(set(map(_point_key, points))) != len(points):
        raise DuplicatePointsError("points must be pairwise distinct")
    return points


def _build_generator(field, curve, K, points, basis0, matrices, at_O=None) -> FqMatrix:
    for j, P in enumerate(points):
        if curve is not None:
            evals = at_O if P is INFINITY and at_O else tuple(evaluate(curve, b, P) for b in basis0)
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


def _certify(field, genus, degree, points, t0, matrices, rows) -> None:
    """Prove a constructed set valid from the degree of D, without a scan.

    rows[i] lists the local coefficients at points[i] of the canonical basis
    of L(D), column c holding the coefficient of t^(c - D(P_i)); t0 expresses
    the reference basis B_0 in the canonical one, and matrices[i] B_i = B_0.
    Row j of M_i^-1 t0 rows[i] is then the expansion of B_ij, which must
    vanish in every column < j: v_Pi(B_ij) + D(P_i) >= j.  If a nonzero y
    were orthogonal to the first lam_i columns of every M_i, with
    sum(lam) = K + g, then f = sum_k y_k B_0k = sum_j (y^T M_i)_j B_ij would
    have v_Pi(f) + D(P_i) >= lam_i at every point, so f in L(D) would have
    K + g > deg D zeros counted against D, which no nonzero f allows.

    Sufficient, not necessary.  It reads no transform but t0 and no
    valuation, and raises AssertionError if the check or a side condition
    fails: deg D = K + g - 1, distinct points, t0 of rank K, every M_i
    invertible.
    """
    K = t0.rows
    if degree != K + genus - 1:
        raise AssertionError(f"deg D = {degree} is not K + g - 1 = {K + genus - 1}")
    if len(set(map(_point_key, points))) != len(points):
        raise AssertionError("points are not distinct")
    if rank(t0) != K:
        raise AssertionError("the reference basis is dependent")
    dot = field.dot
    for i, (M, R) in enumerate(zip(matrices, rows)):
        try:
            C = inverse(M).matmul(t0)
        except ZeroDivisionError:
            raise AssertionError(f"matrix {i} is singular") from None
        cols = [tuple(r[c] for r in R) for c in range(K - 1)]
        for j in range(K):
            row = C.row(j)
            if any(dot(row, cols[c]) for c in range(j)):
                raise AssertionError(
                    f"basis element {j} at {points[i]!r} has v + D(P) below {j}")


def _assemble(field, curve, points, divisor, canonical, rows, results) -> GoppaConstruction:
    """The construction from the increasing zero bases results[i] at points[i].

    results[i] = (valuations, transform) was eliminated from rows[i], the local
    coefficient rows of canonical at points[i]; only the reference basis B_0
    is built as elements.  For both genera matrices[i] = T_0 T_i^-1 (T the
    transforms), so matrices[i] B_i = B_0.  Before returning, _certify proves
    the set valid from the degree of D, and the generator is checked against
    evaluations of the reference basis (at O, t0 times column 0 of the rows there).
    """
    genus = 0 if curve is None else curve.genus
    K = len(canonical)
    t0 = results[0][1]
    matrices = tuple(t0.matmul(inverse(T)) for _, T in results)
    _certify(field, genus, divisor.n, points, t0, matrices, rows)
    basis0 = _combine(canonical, t0.to_rows())
    at_O = None if curve is None else next(  # D(O) = 0: column 0 of O's rows is canonical(O)
        (t0.matvec([r[0] for r in R]) for P, R in zip(points, rows) if P is INFINITY), None)
    generator = _build_generator(field, curve, K, points, basis0, matrices, at_O)
    return GoppaConstruction(
        field=field, curve=curve, genus=genus, points=points, divisor=divisor,
        canonical=tuple(canonical), basis0=basis0,
        transforms=tuple(T for _, T in results),
        point_valuations=tuple(vals for vals, _ in results),
        matrices=matrices, udmg=Udmg(field, K, genus, matrices), generator=generator)


def goppa_udmg(curve: WeierstrassCurve, points, D: DivisorSpec) -> GoppaConstruction:
    """Genus-1 construction: one K x K matrix per point, K = deg D."""
    points = _distinct_points(points)
    K = D.n  # l(D) = deg D for genus 1 once deg D >= 1
    if K < 1:
        raise TooFewSectionsError("deg D must be at least 1")
    canonical = rr_basis(curve, D)
    # Valuations of L(D) at a point outside its support are at most deg D = K.
    width = K + 3
    rows = [_rr_rows(curve, D, P, width) for P in points]
    results = [_izb_from_rows(curve.field, canonical, R, width) for R in rows]
    return _assemble(curve.field, curve, points, D, canonical, rows, results)


def genus0_udmg(field: FieldSpec, points, K: int) -> GoppaConstruction:
    """Projective-line construction for D = (K-1)*infinity.

    L(D) is spanned by 1, x, ..., x^(K-1); the increasing zero basis at a
    finite point x0 is (x - x0)^j, and at infinity the reversed monomials
    (valuations -(K-1), ..., 0 in the uniformizer 1/x).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    points = _distinct_points(points, field.q + 1)
    monomials = [Poly.const(field, 1).shift(j) for j in range(K)]
    shift = K - 1  # D(infinity)

    rows, results = [], []
    for P in points:
        if P is INFINITY:  # in u = 1/x, x^e = u^(c - shift) with c = shift - e: reversed rows
            rows.append([[m.coeff(shift - c) for c in range(K)] for m in monomials])
        else:
            rows.append([_taylor_coeffs(m, P, K) for m in monomials])  # its Poly.make checks P
        vals, T = _izb_from_rows(field, monomials, rows[-1], K)
        if P is INFINITY:  # column c is the order c - shift
            vals = tuple(v - shift for v in vals)
        results.append((vals, T))
    return _assemble(field, None, points, DivisorSpec(K - 1, None), monomials, rows, results)

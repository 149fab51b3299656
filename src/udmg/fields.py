"""Exact arithmetic in finite fields GF(p^m) at desk scale.

Elements are stored as integers in [0, q): for m = 1 the residue itself, for
m > 1 the base-p packing of the residue polynomial (digit i is the
coefficient of x^i).  All operations are pure and a FieldSpec is immutable,
so field objects can be shared freely.

Prime fields compute with `%`.  An extension field with q <= TABLE_MAX_ORDER
computes by table lookup: on its first operation it builds, once per
(p, m, modulus), the powers of a primitive element alpha (antilog), their
logarithms, and Zech's logarithms Z(n) with 1 + alpha^n = alpha^Z(n)
(Lidl & Niederreiter, Finite Fields, ch. 9), so mul, inv and div add or
subtract logarithms, and add, sub and neg take one Zech lookup (XOR of the
packed reps in characteristic 2).  Above that, where the tables would take
megabytes each, a characteristic-2 field computes on the packed reps as bit
patterns: add is XOR, mul a shift/XOR carry-less product reduced by the
modulus bits, and inv the extended Euclidean algorithm on binary polynomials
(Hankerson, Menezes & Vanstone, Guide to Elliptic Curve Cryptography,
Alg. 2.47).  An odd-characteristic field there multiplies digit-list
polynomials modulo the modulus and inverts by the extended Euclidean
algorithm over F_p[x]; the tables are built with that multiplication, and
tests use it, and Fermat's a^(q-2) for the inverse, as the reference.  dot
reads the tables once per sum: it XORs antilogs for p = 2 and takes one Zech
step per nonzero term for odd p; a prime field sums integers and reduces
once, and a field above the table limit adds its products one at a time.

row_ops(field) gives the rank scan and the elimination mul, div, a row update
and its one-entry form x - t*y as closures built per call: integer
expressions mod p on a prime field (div reads an inverse table up to
TABLE_MAX_ORDER, pow above), lookups in the log tables on a table field (an
update XORs for p = 2 and takes one Zech step per nonzero entry for odd p), so
neither calls a FieldSpec method per entry, and the field's own methods above
the table limit.  The lru_caches hold data only, never a closure or bound
method, so nothing keeps a wrapper set on a FieldSpec method once it is removed.

A modulus, canonical or given, is tested for irreducibility by trial
division by monic factors of degree <= 2 and then Rabin's test, with
x^(p^k) mod f built by the Frobenius map; trial division by every factor of
degree up to m/2 is the test oracle.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import zip_longest
from math import isqrt
from operator import index, mul as _int_mul

from .errors import FieldMismatchError, FieldTooLargeError, NonPrimeError
from .records import record

MAX_CARDINALITY = 1 << 20
TABLE_MAX_ORDER = 1 << 12  # largest q given log/antilog/Zech tables (about 5q tuple slots each)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- F_p[x] helpers: modulus search and tests, tables, odd-p mul and inv above them --
# Coefficient tuples in ascending degree.

def _poly_mul_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod_p(num, den, p):
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            f = c * inv_lead % p
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - f * den[j]) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _poly_sub_p(a, b, p):
    out = [(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_gcd_p(a, b, p):
    while b != [0]:
        a, b = b, _poly_mod_p(a, b, p)
    return a


def _poly_inv_p(a, modulus, p):
    """Inverse of a nonzero polynomial a modulo an irreducible modulus over F_p.

    The extended Euclidean algorithm in the form of _gf2_inv: invariants
    a*g1 = u and a*g2 = v modulo the modulus; each step cancels the leading
    term of the longer of u and v, until u is a nonzero constant.
    """
    u, v, g1, g2 = list(a), list(modulus), [1], [0]
    while not u[-1]:
        u.pop()
    while len(u) > 1:
        j = len(u) - len(v)
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        c = u[-1] * pow(v[-1], p - 2, p) % p
        u = _poly_sub_p(u, [0] * j + [c * x for x in v], p)
        g1 = _poly_sub_p(g1, [0] * j + [c * x for x in g2], p)
    s = pow(u[0], p - 2, p)
    return _poly_mod_p([s * x % p for x in g1], modulus, p)


def _is_irreducible(coeffs, p: int) -> bool:
    """Trial division by monic factors of degree <= 2, then Rabin's test.

    Rabin: a monic f of degree m over F_p is irreducible iff x^(p^m) = x mod f
    and gcd(x^(p^(m/r)) - x, f) = 1 for each prime r dividing m.  The powers
    come from the Frobenius map, (sum h_i x^i)^p = sum h_i x^(ip) over F_p.
    Trial division first rejects most reducible candidates cheaply.
    """
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    for d in range(1, min(2, m // 2) + 1):
        for t in range(p ** d):
            if _poly_mod_p(coeffs, _digits(t, p, d) + (1,), p) == [0]:
                return False
    x = _poly_mod_p([0, 1], coeffs, p)
    frob = [x]  # frob[k] = x^(p^k) mod f
    for _ in range(m):
        h = frob[-1]
        spread = [0] * ((len(h) - 1) * p + 1)
        spread[::p] = h
        frob.append(_poly_mod_p(spread, coeffs, p))
    if frob[m] != x:
        return False
    for r in range(2, m + 1):
        if m % r == 0 and is_prime(r):
            g = _poly_gcd_p(coeffs, _poly_sub_p(frob[m // r], x, p), p)
            if len(g) > 1:
                return False
    return True


def _digits(rep: int, p: int, m: int) -> tuple:
    out = []
    for _ in range(m):
        rep, r = divmod(rep, p)
        out.append(r)
    return tuple(out)


def _pack(digits, p: int) -> int:
    rep = 0
    for d in reversed(digits):
        rep = rep * p + d
    return rep


def _poly_field_mul(a: int, b: int, p: int, m: int, modulus: tuple) -> int:
    """Product of two nonzero packed reps of GF(p^m), reduced modulo modulus."""
    red = _poly_mod_p(_poly_mul_p(_digits(a, p, m), _digits(b, p, m), p), modulus, p)
    return _pack(red + [0] * (m - len(red)), p)


def _gf2_mul(a: int, b: int, m: int, modulus: int) -> int:
    """Product of packed reps of GF(2^m); modulus holds the modulus bits, x^m included."""
    top, out = 1 << m, 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return out


def _gf2_inv(a: int, modulus: int) -> int:
    """Inverse of a nonzero packed rep of GF(2^m) by the extended Euclidean algorithm.

    Invariants a*g1 = u and a*g2 = v modulo the modulus; each step cancels the
    leading term of the longer of u and v, until u = 1.
    """
    u, v, g1, g2 = a, modulus, 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


@lru_cache(maxsize=64)
def _log_tables(p: int, m: int, modulus: tuple) -> tuple:
    """(exp, log, zech, q - 1) for GF(p^m), from its least primitive rep alpha.

    exp, the antilog table, holds exp[i] = alpha^(i mod (q-1)) for i < 2(q-1),
    so a sum of two logs needs no reduction.  log[a] is in [0, q-1) (log[0] is unused).
    zech[n] = Z(n mod (q-1)), None where 1 + alpha^n = 0, for n < 2(q-1); a
    negative index in [-(q-1), 0) wraps to the same value.  Characteristic 2
    adds by XOR and gets zech = None.
    """
    q = p ** m
    for g in range(2, q):
        powers, x = [1], g
        while x != 1:
            powers.append(x)
            x = _poly_field_mul(x, g, p, m, modulus)
        if len(powers) == q - 1:
            break
    log = [0] * q
    for i, x in enumerate(powers):
        log[x] = i
    zech = None
    if p != 2:
        zech = []
        for x in powers:
            y = x + 1 if x % p != p - 1 else x + 1 - p  # 1 + x: constant digit up by one, mod p
            zech.append(log[y] if y else None)
        zech = tuple(zech + zech)
    return tuple(powers + powers), tuple(log), zech, q - 1


def smallest_irreducible(p: int, m: int) -> tuple:
    """Monic irreducible of degree m over F_p with smallest packed lower part."""
    for t in range(p ** m):
        cand = _digits(t, p, m) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


@record
class FieldSpec:
    """A finite field GF(p^m) with a fixed monic irreducible modulus.

    The modulus tuple lists coefficients in ascending degree and is present
    iff m > 1; it defaults to the canonical (smallest packed) irreducible so
    that independent runs agree bit for bit.
    """

    p: int
    m: int = 1
    modulus: tuple = None

    def __post_init__(self):
        if type(self.p) is not int or type(self.m) is not int:  # refuses bool and 5.0, not coerced
            raise TypeError(f"p {self.p!r} and m {self.m!r} must be integers")
        if self.m < 1:
            raise ValueError("extension degree must be >= 1")
        # The cap bounds the primality loop below; m > 20 exceeds it for any p >= 2.
        if self.p ** min(self.m, 21) > MAX_CARDINALITY:
            raise FieldTooLargeError(f"{self.p}^{self.m} exceeds 2^20")
        if not is_prime(self.p):
            raise NonPrimeError(f"{self.p} is not prime")
        if self.m == 1:
            if self.modulus is not None:
                raise ValueError("prime fields carry no modulus")
        else:
            if self.modulus is None:
                object.__setattr__(self, "modulus", smallest_irreducible(self.p, self.m))
            else:
                mod = tuple(self.modulus)
                if any(type(c) is not int for c in mod):
                    raise TypeError(f"modulus {self.modulus!r} has a non-integer coefficient")
                if any(not 0 <= c < self.p for c in mod):
                    raise ValueError(f"modulus coefficients must lie in [0, {self.p})")
                if len(mod) != self.m + 1 or mod[-1] != 1:
                    raise ValueError("modulus must be monic of degree m")
                if not _is_irreducible(mod, self.p):
                    raise ValueError("modulus is reducible")
                object.__setattr__(self, "modulus", mod)
        # _log_tables for an extension field with q <= TABLE_MAX_ORDER, () until the
        # first operation builds them, None for any other field.  A plain attribute
        # set here, not a cached_property: that writes the instance __dict__, which
        # on CPython 3.11 slows every later attribute read on the instance.  Not an
        # annotated field, so equality, hash and repr ignore it.
        object.__setattr__(self, "_tables", () if 1 < self.m and self.q <= TABLE_MAX_ORDER else None)
        # Above the table limit, the modulus bits of a characteristic-2 field (its
        # packed rep plus x^m), or None for odd p, which computes on digit lists.
        # Read only where _tables is None, so prime and table fields lack it.
        if self._tables is None and self.m > 1:
            object.__setattr__(self, "_mask", _pack(self.modulus, 2) if self.p == 2 else None)

    @property
    def q(self) -> int:
        return self.p ** self.m

    # -- element operations on integer reps ----------------------------------

    def check(self, a: int) -> int:
        if type(a) is not int:  # refuses bool and 1.5, not coerced
            raise TypeError(f"rep {a!r} is not an integer")
        if not 0 <= a < self.q:
            raise ValueError(f"rep {a} outside [0, {self.q})")
        return a

    def from_int(self, n: int) -> int:
        """Embed an integer constant via the prime subfield (n mod p)."""
        return n % self.p

    def _build_tables(self) -> tuple:
        tables = _log_tables(self.p, self.m, self.modulus)
        object.__setattr__(self, "_tables", tables)
        return tables

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        t = self._tables
        if t is None:
            if self._mask is not None:
                return a ^ b
            p = self.p
            return _pack([(x + y) % p for x, y in zip(_digits(a, p, self.m), _digits(b, p, self.m))], p)
        exp, log, zech, _ = t or self._build_tables()
        if zech is None:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        la = log[a]
        z = zech[log[b] - la]
        return 0 if z is None else exp[la + z]

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        t = self._tables
        if t is None:
            if self._mask is not None:
                return a ^ b
            p = self.p
            return _pack([(x - y) % p for x, y in zip(_digits(a, p, self.m), _digits(b, p, self.m))], p)
        exp, log, zech, order = t or self._build_tables()
        if zech is None:
            return a ^ b
        if b == 0:
            return a
        lb = log[b] + (order >> 1)  # -1 = alpha^((q-1)/2)
        if a == 0:
            return exp[lb]
        la = log[a]
        z = zech[lb - la]
        return 0 if z is None else exp[la + z]

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        t = self._tables
        if t is None:
            if self._mask is not None:
                return a
            p = self.p
            return _pack([(-x) % p for x in _digits(a, p, self.m)], p)
        exp, log, zech, order = t or self._build_tables()
        if zech is None or a == 0:
            return a
        return exp[log[a] + (order >> 1)]

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        t = self._tables
        if t is None:
            if self._mask is not None:
                return _gf2_mul(a, b, self.m, self._mask)
            return _poly_field_mul(a, b, self.p, self.m, self.modulus)
        exp, log, _, _ = t or self._build_tables()
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        t = self._tables
        if t is None:
            if self._mask is not None:
                return _gf2_inv(a, self._mask)
            return _pack(_poly_inv_p(_digits(a, self.p, self.m), self.modulus, self.p), self.p)
        exp, log, _, order = t or self._build_tables()
        return exp[order - log[a]]

    def div(self, a: int, b: int) -> int:
        t = self._tables
        if t is None:
            return self.mul(a, self.inv(b))
        if b == 0:
            raise ZeroDivisionError("inverse of zero")
        if a == 0:
            return 0
        exp, log, _, order = t or self._build_tables()
        return exp[log[a] - log[b] + order]

    def dot(self, xs, ys) -> int:
        """Sum of xs[i] * ys[i]; a prime field sums exact integers in C and reduces once."""
        if self.m == 1:
            return sum(map(_int_mul, xs, ys)) % self.p
        if self._tables is None:
            return reduce(self.add, (self.mul(a, b) for a, b in zip(xs, ys) if a and b), 0)
        exp, log, zech, order = self._tables or self._build_tables()
        acc = 0 if zech is None else None  # the sum for p = 2; for odd p its log, None while 0
        for a, b in zip(xs, ys):
            if a and b:
                n = log[a] + log[b]
                if zech is None:
                    acc ^= exp[n]
                elif acc is None:
                    acc = n
                elif (z := zech[n - acc]) is None:  # alpha^acc + alpha^n = alpha^(acc + Z(n - acc))
                    acc = None
                else:
                    acc = (acc + z) % order
        return acc if zech is None else 0 if acc is None else exp[acc]

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(a), -e)
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements(self):
        return range(self.q)

    def element(self, rep: int) -> "FqElement":
        return FqElement(self.check(rep), self)


@lru_cache(maxsize=64)
def _inverses(p: int) -> tuple:
    """b^-1 mod p at index b for a prime p; index 0 is never read."""
    return (0, *(pow(b, -1, p) for b in range(1, p)))


def row_ops(field: FieldSpec) -> tuple:
    """(mul, div, axpy, sub_mul) of field, built afresh: axpy(t, ys, xs) is [x - t*y for x, y
    in zip(xs, ys)], sub_mul(x, t, y) one entry of it; div(a, 0) raises ZeroDivisionError."""
    if field.m > 1:
        if field._tables is not None:
            return _table_ops(*(field._tables or field._build_tables()))
        sub, mul = field.sub, field.mul
        return (mul, field.div,
                lambda t, ys, xs: [sub(x, mul(t, y)) if y else x for x, y in zip(xs, ys)],
                lambda x, t, y: sub(x, mul(t, y)))
    p = field.p
    inv = _inverses(p) if p <= TABLE_MAX_ORDER else None

    def div(a, b):
        if not b:
            raise ZeroDivisionError("inverse of zero")
        return a * (inv[b] if inv else pow(b, -1, p)) % p

    return (lambda a, b: a * b % p, div,
            lambda t, ys, xs: [(x - t * y) % p for x, y in zip(xs, ys)],
            lambda x, t, y: (x - t * y) % p)


def _table_ops(exp, log, zech, order) -> tuple:
    """row_ops of a table field, reading its _log_tables: x - t*y is x XOR t*y for p = 2,
    and for odd p one Zech step from log(-t*y), -t = t * alpha^((q-1)/2)."""

    def div(a, b):
        if not b:
            raise ZeroDivisionError("inverse of zero")
        return exp[log[a] - log[b] + order] if a else 0

    def axpy(t, ys, xs):
        if not t:
            return [x for x, _ in zip(xs, ys)]
        if zech is None:
            lt = log[t]
            return [x ^ exp[lt + log[y]] if y else x for x, y in zip(xs, ys)]
        lt, out = (log[t] + (order >> 1)) % order, []  # % keeps lt + log[y] inside exp and zech
        for x, y in zip(xs, ys):
            if y:
                n = lt + log[y]
                if not x:
                    x = exp[n]
                else:
                    z = zech[n - (lx := log[x])]
                    x = 0 if z is None else exp[lx + z]
            out.append(x)
        return out

    def sub_mul(x, t, y):
        if not (t and y):
            return x
        if zech is None:
            return x ^ exp[log[t] + log[y]]
        n = (log[t] + (order >> 1)) % order + log[y]
        if not x:
            return exp[n]
        z = zech[n - (lx := log[x])]
        return 0 if z is None else exp[lx + z]

    return lambda a, b: exp[log[a] + log[b]] if a and b else 0, div, axpy, sub_mul


def make_field(p: int, m: int = 1) -> FieldSpec:
    """Construct GF(p^m) with the canonical modulus (errors on bad input)."""
    return FieldSpec(p, m)


def field_from_order(q: int) -> FieldSpec:
    """Factor q = p^m and build the field; q must be a prime power."""
    if q > MAX_CARDINALITY:
        raise FieldTooLargeError(f"{q} exceeds 2^20")
    if index(q) < 2:  # index() raises TypeError for a non-integer
        raise NonPrimeError(f"{q} is not a prime power")
    for p in range(2, isqrt(q) + 1):
        if q % p == 0:
            m = 0
            r = q
            while r % p == 0:
                r //= p
                m += 1
            if r != 1:
                raise NonPrimeError(f"{q} is not a prime power")
            return make_field(p, m)
    return make_field(q, 1)  # no factor up to sqrt(q): q is prime


@record
class FqElement:
    """A field element: integer rep plus its field, with operator support."""

    rep: int
    field: FieldSpec

    def _coerce(self, other) -> int:
        if isinstance(other, FqElement):
            if other.field != self.field:
                raise FieldMismatchError("elements from different fields")
            return other.rep
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        return FqElement(self.field.add(self.rep, b), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        return FqElement(self.field.sub(self.rep, b), self.field)

    def __rsub__(self, other):
        b = self._coerce(other)
        return FqElement(self.field.sub(b, self.rep), self.field)

    def __mul__(self, other):
        b = self._coerce(other)
        return FqElement(self.field.mul(self.rep, b), self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        return FqElement(self.field.div(self.rep, b), self.field)

    def __neg__(self):
        return FqElement(self.field.neg(self.rep), self.field)

    def __pow__(self, e: int):
        return FqElement(self.field.pow_(self.rep, e), self.field)

    def __bool__(self):
        return self.rep != 0


_OPS = {"add", "sub", "mul", "neg", "inv", "pow"}
_BINARY = {"add": FqElement.__add__, "sub": FqElement.__sub__, "mul": FqElement.__mul__}


def arith(field: FieldSpec, op: str, a: FqElement, b=None) -> FqElement:
    """Single-entry dispatch to FqElement's operators; inv, which has none, to field.inv."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    if a.field != field:
        raise FieldMismatchError("first operand not in the given field")
    if op in ("neg", "inv"):
        if b is not None:
            raise ValueError(f"{op} takes one operand")
        return -a if op == "neg" else FqElement(field.inv(a.rep), field)
    if op == "pow":
        if type(b) is not int:  # refuses bool and 2.0
            raise ValueError("pow takes an integer exponent")
        return a ** b
    if not isinstance(b, FqElement) or b.field != field:
        raise FieldMismatchError("second operand not in the given field")
    return _BINARY[op](a, b)

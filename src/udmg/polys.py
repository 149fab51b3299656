"""Dense univariate polynomials over a FieldSpec (coefficients are reps)."""

from __future__ import annotations

from .errors import FieldMismatchError
from .fields import FieldSpec
from .records import record


def _trim(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@record
class Poly:
    """Polynomial with ascending-degree coefficient tuple; () is the zero poly."""

    field: FieldSpec
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @classmethod
    def make(cls, field: FieldSpec, coeffs) -> "Poly":
        return cls(field, tuple(map(field.check, coeffs)))

    @classmethod
    def const(cls, field: FieldSpec, c: int) -> "Poly":
        return cls(field, (field.check(c),))

    @classmethod
    def x(cls, field: FieldSpec) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls(field, ())

    @property
    def degree(self) -> int:
        """Degree with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def _check_same(self, other: "Poly"):
        if self.field != other.field:
            raise FieldMismatchError("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, _trim(out))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, tuple(f.neg(c) for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_same(other)
        f = self.field
        if self.is_zero or other.is_zero:
            return Poly(f, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    if bj:
                        out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return Poly(f, _trim(out))

    def scale(self, c: int) -> "Poly":
        f = self.field
        if c == 0:
            return Poly(f, ())
        return Poly(f, tuple(f.mul(c, a) for a in self.coeffs))

    def __divmod__(self, other: "Poly"):
        self._check_same(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dd = other.degree
        inv_lead = f.inv(other.leading)
        quo = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                factor = f.mul(c, inv_lead)
                quo[i - dd] = factor
                for j, oc in enumerate(other.coeffs):
                    rem[i - dd + j] = f.sub(rem[i - dd + j], f.mul(factor, oc))
        return Poly(f, _trim(quo)), Poly(f, _trim(rem))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.leading))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __str__(self):
        return self.render("x")

    def render(self, var: str) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{var}" if c == 1 else f"{c}*{var}")
            else:
                parts.append(f"{var}^{i}" if c == 1 else f"{c}*{var}^{i}")
        return " + ".join(parts)

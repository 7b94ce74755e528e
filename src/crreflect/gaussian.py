"""Exact complex-rational arithmetic.

A :class:`GaussianRational` is a number ``(a + b*i)/c`` with integer ``a``,
``b`` and positive integer ``c``, stored with ``gcd(a, b, c) == 1``.  This is
the coefficient domain of every series in the package: all arithmetic is
exact, conjugation is an involution, and equality is bit-exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _norm(a: int, b: int, c: int):
    if c == 0:
        raise ZeroDivisionError("zero denominator")
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(gcd(a, b), c)
    if g > 1:
        a //= g
        b //= g
        c //= g
    return a, b, c


class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    __slots__ = ("a", "b", "c")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("imaginary part given twice")
            self.a, self.b, self.c = re.a, re.b, re.c
            return
        re = Fraction(re)
        im = Fraction(im)
        den = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        a = re.numerator * (den // re.denominator)
        b = im.numerator * (den // im.denominator)
        self.a, self.b, self.c = _norm(a, b, den)

    @classmethod
    def _raw(cls, a: int, b: int, c: int) -> "GaussianRational":
        """Build from an already-normalized triple (internal fast path)."""
        self = object.__new__(cls)
        self.a, self.b, self.c = a, b, c
        return self

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.c)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.c)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.a, -self.b, self.c)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def is_real(self) -> bool:
        return self.b == 0

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._raw(
            *_norm(self.a * other.c + other.a * self.c,
                   self.b * other.c + other.b * self.c,
                   self.c * other.c))

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational._raw(-self.a, -self.b, self.c)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._raw(
            *_norm(self.a * other.c - other.a * self.c,
                   self.b * other.c - other.b * self.c,
                   self.c * other.c))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._raw(
            *_norm(self.a * other.a - self.b * other.b,
                   self.a * other.b + self.b * other.a,
                   self.c * other.c))

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational._raw(*_norm(self.a * self.c, -self.b * self.c, n))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c))

    def __repr__(self):
        return "GaussianRational(%r, %r)" % (str(self.re), str(self.im))

    def __str__(self):
        if self.b == 0:
            return str(self.re)
        if self.a == 0:
            return _imag_str(self.im)
        sign = "+" if self.b > 0 else "-"
        return "%s%s%s" % (self.re, sign, _imag_str(abs(self.im)))


def _imag_str(q: Fraction) -> str:
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return "%s*i" % q


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return GaussianRational._raw(x, 0, 1)
    if isinstance(x, Fraction):
        return GaussianRational._raw(*_norm(x.numerator, 0, x.denominator))
    return NotImplemented


ZERO = GaussianRational._raw(0, 0, 1)
ONE = GaussianRational._raw(1, 0, 1)
I = GaussianRational._raw(0, 1, 1)
MINUS_ONE = GaussianRational._raw(-1, 0, 1)


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions or 'p/q' strings."""
    if isinstance(re, str):
        re = Fraction(re)
    if isinstance(im, str):
        im = Fraction(im)
    return GaussianRational(re, im)

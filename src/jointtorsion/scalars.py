"""Exact arithmetic in the field of Gaussian rationals Q(i).

A scalar is three integers (a, b, d) for (a + b*i) / d, the form in which
the elimination kernel of ``linalg`` holds a row, kept canonical at all
times: gcd(a, b, d) = 1, d > 0, and zero stored uniquely as (0, 0, 1).
Equality is therefore structural equality of the three integers, and
scalars are hashable and safe to share.

The textual form is ``p/q+r/s*i`` with parts omitted when zero, e.g. ``3``,
``-1/2*i``, ``1/2-2/3*i``; each part is reduced only when it is printed.
``parse`` accepts everything ``to_text`` emits, plus ``i``, ``-i`` and
``2i``-style coefficients without ``*``, and round-trips exactly.  Its
grammar is strict: ASCII digits, no whitespace, no leading ``+``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


def _as_pair(value) -> tuple[int, int]:
    """A rational (num, den) from an int, a Fraction or (num, den)."""
    if isinstance(value, int):
        return value, 1
    # tuple first: every parse passes one, and the Fraction test is an ABC
    # instance check
    if isinstance(value, tuple) and len(value) == 2:
        return int(value[0]), int(value[1])
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"cannot build a rational part from {value!r}")


class QiScalar:
    """An exact Gaussian rational ``(a + b*i) / d``."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        rn, rd = _as_pair(re)
        im_n, im_d = _as_pair(im)
        a, b, d = rn * im_d, im_n * rd, rd * im_d
        if d < 0:
            a, b, d = -a, -b, -d
        elif not d:
            raise ZeroDivisionError("zero divisor")
        g = gcd(a, b, d)
        self.a, self.b, self.d = a // g, b // g, d // g

    # -- accessors ---------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # The parts in lowest terms, computed on read.  Kept though no request
    # reads them: the benchmark's tracer (benchmark/tracing.py::_bits) and
    # the tests do.
    re_num = property(lambda s: s.a // gcd(s.a, s.d))
    re_den = property(lambda s: s.d // gcd(s.a, s.d))
    im_num = property(lambda s: s.b // gcd(s.b, s.d))
    im_den = property(lambda s: s.d // gcd(s.b, s.d))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    # add, sub and mul test for a QiScalar operand before coercing; they
    # are the hot path of every matrix product.  Each reduces its result by
    # one gcd, which mul skips when both denominators are 1 and add and sub
    # skip when either is: (a + b i) + (c + e i) / f = (af + c + (bf + e) i)
    # / f is canonical because (c, e, f) is.

    def __add__(self, other):
        if type(other) is not QiScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        x, y = self.d, other.d
        if x == 1 or y == 1:
            return _raw(self.a * y + other.a * x, self.b * y + other.b * x,
                        x * y)
        return _reduced(self.a * y + other.a * x, self.b * y + other.b * x,
                        x * y)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QiScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        x, y = self.d, other.d
        if x == 1 or y == 1:
            return _raw(self.a * y - other.a * x, self.b * y - other.b * x,
                        x * y)
        return _reduced(self.a * y - other.a * x, self.b * y - other.b * x,
                        x * y)

    def __rsub__(self, other):
        """Kept though no request reaches it: the benchmark's tracer
        counts it among the scalar operations."""
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is not QiScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        # (a + b i)(c + e i) = (ac - be) + (ae + bc) i
        re, im, d = a * c - b * e, a * e + b * c, self.d * other.d
        return _raw(re, im, 1) if d == 1 else _reduced(re, im, d)

    __rmul__ = __mul__

    def inverse(self) -> "QiScalar":
        a, b, d = self.a, self.b, self.d
        if not b:
            if not a:
                raise ZeroDivisionError("zero divisor")
            return _raw(-d, 0, -a) if a < 0 else _raw(d, 0, a)
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        return _reduced(a * d, -b * d, a * a + b * b)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def modulus_sq(self) -> Fraction:
        """|x|^2 as an exact rational."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        a, b, d = self.a, self.b, self.d
        real = _rat_text(a, d)
        if not b:
            return real
        imag = _rat_text(abs(b), d) + "*i"
        sign = "-" if b < 0 else "+" if a else ""
        return (real if a else "") + sign + imag

    @classmethod
    def parse(cls, text: str) -> "QiScalar":
        m = _SCALAR_TEXT.fullmatch(text)
        if m is None:
            raise ValueError(f"bad scalar text {text!r}")
        real = _rat_pair(m["re"]) if m["re"] else (0, 1)
        imag = (0, 1)
        if m["imag"] is not None:
            num, den = _rat_pair(m["im"]) if m["im"] else (1, 1)
            imag = (-num if m["sign"] == "-" else num, den)
        return cls(real, imag)

    def __repr__(self):
        return f"QiScalar({self.to_text()!r})"

    def __str__(self):
        return self.to_text()


def _raw(a: int, b: int, d: int) -> QiScalar:
    """Build from an already canonical triple (internal fast path)."""
    obj = object.__new__(QiScalar)
    obj.a, obj.b, obj.d = a, b, d
    return obj


def _reduced(a: int, b: int, d: int) -> QiScalar:
    """(a + b i) / d for d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g == 1:
        return _raw(a, b, d)
    return _raw(a // g, b // g, d // g)


def _coerce(value):
    if isinstance(value, QiScalar):
        return value
    if isinstance(value, int):
        return _raw(value, 0, 1)
    if isinstance(value, Fraction):
        return _raw(value.numerator, 0, value.denominator)
    return None


def _rat_text(num: int, den: int) -> str:
    """num/den in lowest terms, as text."""
    if den != 1:
        g = gcd(num, den)
        num, den = num // g, den // g
    return f"{num}" if den == 1 else f"{num}/{den}"


# The whole grammar, ASCII digits only: a real part p or p/q, an imaginary
# part i, ri, r*i or r/s*i, or a real part followed by a signed imaginary
# part.  The first part may carry a leading minus, never a plus.
_SCALAR_TEXT = re.compile(
    r"(?=.)(?P<re>-?[0-9]+(?:/[0-9]+)?)?"
    r"(?P<imag>(?P<sign>(?(re)[+-]|-?))"
    r"(?:(?P<im>[0-9]+(?:/[0-9]+)?)\*?)?i)?")


def _rat_pair(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


ZERO = _raw(0, 0, 1)
ONE = _raw(1, 0, 1)
I = _raw(0, 1, 1)


def qi_modulus_cmp_one(x: QiScalar) -> str:
    """Exactly compare |x| with 1; returns 'less', 'equal', or 'greater'."""
    n, d = x.a * x.a + x.b * x.b, x.d * x.d
    if n == d:
        return "equal"
    return "less" if n < d else "greater"

"""Exact arithmetic in the field of Gaussian rationals Q(i).

A scalar is a pair of rationals (real and imaginary part), each kept in
canonical form at all times: lowest terms, positive denominator, and zero
represented uniquely as 0/1.  Equality is therefore structural equality of
the four integers, and scalars are hashable and safe to share.

The textual form is ``p/q+r/s*i`` with parts omitted when zero, e.g. ``3``,
``-1/2*i``, ``1/2-2/3*i``.  ``parse`` accepts everything ``to_text`` emits,
plus ``i``, ``-i`` and ``2i``-style coefficients without ``*``, and
round-trips exactly.  Its grammar is strict: ASCII digits, no whitespace,
no leading ``+``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


def _norm(num: int, den: int) -> tuple[int, int]:
    """Normalize a rational pair: lowest terms, positive denominator."""
    if den == 0:
        raise ZeroDivisionError("zero divisor")
    if num == 0:
        return 0, 1
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return num, den


def _as_pair(value) -> tuple[int, int]:
    """A normalized rational pair from an int, a Fraction or (num, den)."""
    if isinstance(value, int):
        return value, 1
    # tuple first: every parse passes one, and the Fraction test is an ABC
    # instance check
    if isinstance(value, tuple) and len(value) == 2:
        return _norm(int(value[0]), int(value[1]))
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"cannot build a rational part from {value!r}")


class QiScalar:
    """An exact Gaussian rational ``re + im*i``."""

    __slots__ = ("re_num", "re_den", "im_num", "im_den")

    def __init__(self, re=0, im=0):
        rn, rd = _as_pair(re)
        im_n, im_d = _as_pair(im)
        self.re_num = rn
        self.re_den = rd
        self.im_num = im_n
        self.im_den = im_d

    @classmethod
    def _raw(cls, rn: int, rd: int, im_n: int, im_d: int) -> "QiScalar":
        """Build from already-normalized parts (internal fast path)."""
        obj = object.__new__(cls)
        obj.re_num = rn
        obj.re_den = rd
        obj.im_num = im_n
        obj.im_den = im_d
        return obj

    # -- accessors ---------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.re_den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.im_den)

    def is_zero(self) -> bool:
        return self.re_num == 0 and self.im_num == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    # add, sub and mul test for a QiScalar operand before coercing and skip
    # _norm for a part whose denominators are both 1, whose result is
    # already canonical; they are the hot path of every matrix product.

    def __add__(self, other):
        if type(other) is not QiScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        out = object.__new__(QiScalar)
        a_d, c_d = self.re_den, other.re_den
        if a_d == 1 == c_d:
            out.re_num, out.re_den = self.re_num + other.re_num, 1
        else:
            out.re_num, out.re_den = _norm(
                self.re_num * c_d + other.re_num * a_d, a_d * c_d)
        b_d, d_d = self.im_den, other.im_den
        if b_d == 1 == d_d:
            out.im_num, out.im_den = self.im_num + other.im_num, 1
        else:
            out.im_num, out.im_den = _norm(
                self.im_num * d_d + other.im_num * b_d, b_d * d_d)
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QiScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        out = object.__new__(QiScalar)
        a_d, c_d = self.re_den, other.re_den
        if a_d == 1 == c_d:
            out.re_num, out.re_den = self.re_num - other.re_num, 1
        else:
            out.re_num, out.re_den = _norm(
                self.re_num * c_d - other.re_num * a_d, a_d * c_d)
        b_d, d_d = self.im_den, other.im_den
        if b_d == 1 == d_d:
            out.im_num, out.im_den = self.im_num - other.im_num, 1
        else:
            out.im_num, out.im_den = _norm(
                self.im_num * d_d - other.im_num * b_d, b_d * d_d)
        return out

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return QiScalar._raw(-self.re_num, self.re_den, -self.im_num, self.im_den)

    def __mul__(self, other):
        if type(other) is not QiScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a_n, a_d, b_n, b_d = self.re_num, self.re_den, self.im_num, self.im_den
        c_n, c_d, d_n, d_d = other.re_num, other.re_den, other.im_num, other.im_den
        out = object.__new__(QiScalar)
        if b_n == 0 and d_n == 0:
            if a_d == 1 == c_d:
                out.re_num, out.re_den = a_n * c_n, 1
            else:
                out.re_num, out.re_den = _norm(a_n * c_n, a_d * c_d)
            out.im_num, out.im_den = 0, 1
        elif a_d == 1 == c_d and b_d == 1 == d_d:
            out.re_num, out.re_den = a_n * c_n - b_n * d_n, 1
            out.im_num, out.im_den = a_n * d_n + b_n * c_n, 1
        else:
            # (a+bi)(c+di) = (ac - bd) + (ad + bc) i
            out.re_num, out.re_den = _norm(
                a_n * c_n * b_d * d_d - b_n * d_n * a_d * c_d,
                a_d * c_d * b_d * d_d)
            out.im_num, out.im_den = _norm(
                a_n * d_n * b_d * c_d + b_n * c_n * a_d * d_d,
                a_d * d_d * b_d * c_d)
        return out

    __rmul__ = __mul__

    def inverse(self) -> "QiScalar":
        if self.is_zero():
            raise ZeroDivisionError("zero divisor")
        if self.im_num == 0:
            rn, rd = _norm(self.re_den, self.re_num)
            return QiScalar._raw(rn, rd, 0, 1)
        # 1/(a+bi) = (a - bi) / (a^2 + b^2)
        m_n, m_d = self._modulus_sq_pair()
        rn, rd = _norm(self.re_num * m_d, self.re_den * m_n)
        im_n, im_d = _norm(-self.im_num * m_d, self.im_den * m_n)
        return QiScalar._raw(rn, rd, im_n, im_d)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        result = ONE
        exponent = abs(exponent)
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def conjugate(self) -> "QiScalar":
        return QiScalar._raw(self.re_num, self.re_den, -self.im_num, self.im_den)

    def _modulus_sq_pair(self) -> tuple[int, int]:
        return _norm(self.re_num * self.re_num * self.im_den * self.im_den
                     + self.im_num * self.im_num * self.re_den * self.re_den,
                     self.re_den * self.re_den * self.im_den * self.im_den)

    def modulus_sq(self) -> Fraction:
        """|x|^2 as an exact rational."""
        n, d = self._modulus_sq_pair()
        return Fraction(n, d)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self.re_num == other.re_num and self.re_den == other.re_den
                and self.im_num == other.im_num and self.im_den == other.im_den)

    def __hash__(self):
        return hash((self.re_num, self.re_den, self.im_num, self.im_den))

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        real = _rat_text(self.re_num, self.re_den)
        imag = _rat_text(abs(self.im_num), self.im_den) + "*i"
        if self.im_num == 0:
            return real
        if self.re_num == 0:
            return ("-" if self.im_num < 0 else "") + imag
        sign = "-" if self.im_num < 0 else "+"
        return real + sign + imag

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


def _coerce(value):
    if isinstance(value, QiScalar):
        return value
    if isinstance(value, int):
        return QiScalar._raw(value, 1, 0, 1)
    if isinstance(value, Fraction):
        return QiScalar._raw(value.numerator, value.denominator, 0, 1)
    return None


def _rat_text(num: int, den: int) -> str:
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


ZERO = QiScalar._raw(0, 1, 0, 1)
ONE = QiScalar._raw(1, 1, 0, 1)
I = QiScalar._raw(0, 1, 1, 1)


def qi_modulus_cmp_one(x: QiScalar) -> str:
    """Exactly compare |x| with 1; returns 'less', 'equal', or 'greater'."""
    n, d = x._modulus_sq_pair()
    if n == d:
        return "equal"
    return "less" if n < d else "greater"

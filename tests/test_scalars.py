"""Field arithmetic, canonical form, and text round-trips for QiScalar."""

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtorsion import QiScalar, qi_modulus_cmp_one
from jointtorsion.randgen import child_rng, random_qi


def test_rational_addition():
    assert QiScalar(1, 0, 2) + QiScalar(1, 0, 3) == QiScalar(5, 0, 6)


def test_conjugate_product():
    x = QiScalar(1, 1)
    y = QiScalar(1, -1)
    assert x * y == QiScalar(2)


def test_division_by_imaginary():
    # 1 / (2i) = -i/2; oracle: multiply back and recover 1.
    inv = QiScalar(1) / QiScalar(0, 2)
    assert inv == QiScalar(0, -1, 2)
    assert inv * QiScalar(0, 2) == QiScalar(1)


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        QiScalar(3) / QiScalar(0)


def test_modulus_comparison_cases():
    assert qi_modulus_cmp_one(QiScalar(1, 0, 2)) == "less"
    assert qi_modulus_cmp_one(QiScalar(0, 1)) == "equal"
    assert qi_modulus_cmp_one(QiScalar(1, 1)) == "greater"


def test_modulus_comparison_matches_rational_sign():
    rng = child_rng(11, 0)
    for _ in range(200):
        x = random_qi(rng)
        diff = Fraction(x.a, x.d) ** 2 + Fraction(x.b, x.d) ** 2 - 1
        expected = "equal" if diff == 0 else ("less" if diff < 0 else "greater")
        assert qi_modulus_cmp_one(x) == expected


def test_field_axioms_on_random_triples():
    rng = child_rng(7, 1)
    for _ in range(150):
        x, y, z = (random_qi(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == QiScalar(0)
        if not x.is_zero():
            assert x * x.inverse() == QiScalar(1)


def test_constructor_takes_the_stored_triple():
    x = QiScalar(6, -9, 12)  # (6 - 9i) / 12 = (2 - 3i) / 4
    assert (x.a, x.b, x.d) == (2, -3, 4)
    assert x == QiScalar.parse("1/2-3/4*i")
    assert QiScalar(3) == QiScalar.parse("3")
    assert QiScalar(0, 3) == QiScalar.parse("3i")
    ints = QiScalar(True, False, True)  # bools are ints
    assert (ints.a, ints.b, ints.d) == (1, 0, 1)
    assert all(type(v) is int for v in (ints.a, ints.b, ints.d))


@pytest.mark.parametrize("triple, stored", [((1, -2, -4), (-1, 2, 4)),
                                            ((0, 0, -7), (0, 0, 1)),
                                            ((-6, 0, -3), (2, 0, 1))])
def test_constructor_makes_a_negative_divisor_positive(triple, stored):
    x = QiScalar(*triple)
    assert (x.a, x.b, x.d) == stored


def test_constructor_rejects_a_zero_divisor():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        QiScalar(1, 2, 0)


@pytest.mark.parametrize("part", [np.int64(3), 3.0, Decimal(3), Fraction(3),
                                  (3, 1)],
                         ids=["numpy.int64", "float", "Decimal", "Fraction",
                              "tuple"])
def test_constructor_rejects_other_numbers(part):
    for args in ((part,), (0, part), (0, 0, part)):
        with pytest.raises(TypeError, match=re.escape(repr(part))):
            QiScalar(*args)


def test_canonical_form_is_idempotent():
    x = QiScalar(4, 6, 8)
    assert (x.re_num, x.re_den, x.im_num, x.im_den) == (1, 2, 3, 4)
    assert (x.a, x.b, x.d) == (2, 3, 4)
    again = QiScalar(x.a, x.b, x.d)
    assert (again.a, again.b, again.d) == (2, 3, 4)
    zero = QiScalar(0, 0, 7)
    assert (zero.re_num, zero.re_den) == (0, 1)


@pytest.mark.parametrize("n", [0, 1, -1, 2, 3, -7, 2 ** 70, -(2 ** 70)])
def test_a_scalar_equal_to_an_int_hashes_as_that_int(n):
    # equal objects must hash equal, or sets and dicts tell them apart
    x = QiScalar(n)
    assert x == n and hash(x) == hash(n)
    assert len({x, n}) == 1
    assert {n: "x"}.get(x) == "x" and {x: "x"}.get(n) == "x"
    assert QiScalar(2 * n, 0, 2) in {n}


def test_text_round_trip_fixed_forms():
    for text in ["0", "3", "-1/2*i", "1/2+1/3*i", "-2-5/7*i", "i", "-i", "1*i"]:
        parsed = QiScalar.parse(text)
        assert QiScalar.parse(parsed.to_text()) == parsed


@given(st.integers(), st.integers(), st.integers().filter(bool))
def test_parse_inverts_to_text(a, b, d):
    x = QiScalar(a, b, d)
    assert QiScalar.parse(x.to_text()) == x


def test_parse_accepts_short_imaginary_forms():
    assert QiScalar.parse("i") == QiScalar(0, 1)
    assert QiScalar.parse("-i") == QiScalar(0, -1)
    assert QiScalar.parse("2i") == QiScalar(0, 2)
    assert QiScalar.parse("3-i") == QiScalar(3, -1)
    assert QiScalar.parse("-1/2+3/4i") == QiScalar(-2, 3, 4)


@pytest.mark.parametrize("text", ["", "\u0661", "1_0", "1 0", " 1", "1\n",
                                  "+3", "+i", "*i", "3i+1", "1+2", "i3",
                                  "--1", "1/", "/2", "3+-i", "\uff11",
                                  "0x1f", "1e3", "1.5"])
def test_parse_rejects_text_outside_the_grammar(text):
    with pytest.raises(ValueError, match="bad scalar text"):
        QiScalar.parse(text)


@given(st.text(alphabet="0123456789/+-*i _\u0661", max_size=8))
def test_parse_accepts_only_ascii_grammar_text(text):
    try:
        x = QiScalar.parse(text)
    except (ValueError, ZeroDivisionError):
        return
    assert set(text) <= set("0123456789/+-*i")
    assert QiScalar.parse(x.to_text()) == x


def test_text_round_trip_random():
    rng = child_rng(3, 2)
    for _ in range(300):
        x = random_qi(rng, mag=9)
        assert QiScalar.parse(x.to_text()) == x


# -- field operations against a reference over pairs of Fractions ------------
#
# The strategies lean toward integral scalars (d = 1), zero imaginary parts
# and plain int operands, so that the paths for integral parts, real
# operands and coercion all run.  Divisors reach 3600 either side of zero,
# so that sign normalisation runs too.

_ints = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))
_divisors = st.one_of(st.just(1), st.integers(-3600, 3600).filter(bool))
_scalars = st.builds(QiScalar, _ints, st.one_of(st.just(0), _ints), _divisors)
_operands = st.one_of(_scalars, _scalars, _ints)


def _pair(x):
    """x as a (real, imaginary) pair of Fractions."""
    if isinstance(x, QiScalar):
        return Fraction(x.re_num, x.re_den), Fraction(x.im_num, x.im_den)
    return Fraction(x), Fraction(0)


def _reference(op, x, y):
    (a, b), (c, d) = _pair(x), _pair(y)
    if op == "add":
        return a + c, b + d
    if op == "sub":
        return a - c, b - d
    return a * c - b * d, a * d + b * c


def assert_canonical(x):
    assert type(x) is QiScalar
    # the stored form (a + b i) / d: one common denominator, positive, with
    # no factor shared by all three integers
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1
    for num, den in ((x.re_num, x.re_den), (x.im_num, x.im_den)):
        assert type(num) is int and type(den) is int
        # lowest terms with a positive denominator; gcd(0, den) = den, so
        # zero must be 0/1
        assert den > 0 and gcd(num, den) == 1


@settings(max_examples=400)
@given(_scalars, _operands)
def test_field_operations_match_fraction_pairs(x, y):
    for op, result, swapped in (("add", x + y, y + x),
                                ("sub", x - y, y - x),
                                ("mul", x * y, y * x)):
        assert_canonical(result)
        assert _pair(result) == _reference(op, x, y)
        assert_canonical(swapped)
        assert _pair(swapped) == _reference(op, y, x)
    negated = -x
    assert_canonical(negated)
    assert _pair(negated) == (-_pair(x)[0], -_pair(x)[1])

"""Differential tests of ``QNum`` against two independent references.

* Sign, ordering and floor are checked against stdlib ``decimal`` at 200
  significant digits, computed from the coefficients ``a`` and ``b`` alone.
* Field arithmetic and the canonical text form are checked against
  ``PairRef``, a small a + b*sqrt(d) model built on two ``Fraction``s.

Coefficients reach 2^200 in size, and the draws include near-units
(a close to -b*sqrt(d), so a + b*sqrt(d) is tiny) and operands of opposite
sign, where a sign decision needs every digit.
"""

from decimal import ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from leafspace.errors import DivisionByZeroError
from leafspace.qfield import QNum

DIGITS = 200
FIELDS = (2, 3, 5, 7, 10, 101, 9973)

BIG = 2**200
numerators = st.integers(-BIG, BIG) | st.integers(-50, 50)
denominators = st.integers(1, BIG) | st.integers(1, 50)


@st.composite
def coefficients(draw, d):
    """(a, b) with a + b*sqrt(d) either free or a near-unit."""
    if draw(st.booleans()):
        return (Fraction(draw(numerators), draw(denominators)),
                Fraction(draw(numerators), draw(denominators)))
    # Near-unit: a = -(isqrt(m^2 d) + k)/q, b = m/q, for either sign of m.
    m = draw(numerators.filter(bool))
    q = draw(denominators)
    root = isqrt(m * m * d) + draw(st.integers(-2, 2))
    a = Fraction(-root if m > 0 else root, q)
    return a, Fraction(m, q)


@st.composite
def qnum_pairs(draw):
    d = draw(st.sampled_from(FIELDS))
    a, b = draw(coefficients(d))
    if draw(st.booleans()):
        c, e = draw(coefficients(d))
    else:
        # A second number very close to the first: x plus a near-unit.
        da, db = draw(coefficients(d))
        c, e = a + da / BIG, b + db / BIG
    if draw(st.booleans()):
        c, e = -c, -e  # opposite signs
    return (a, b), (c, e), d


# -- decimal oracle -----------------------------------------------------------


def oracle_value(a: Fraction, b: Fraction, d: int) -> tuple[Decimal, Decimal]:
    """a + b*sqrt(d) at 200 digits, with a bound on its absolute error."""
    with localcontext(Context(prec=DIGITS)):
        av = Decimal(a.numerator) / a.denominator
        bv = Decimal(b.numerator) / b.denominator
        root = Decimal(d).sqrt()
        value = av + bv * root
        err = (abs(av) + abs(bv) * root + 1) * Decimal(10) ** (10 - DIGITS)
    return value, err


def oracle_sign(a, b, d) -> int:
    if b == 0:
        return (a > 0) - (a < 0)
    value, err = oracle_value(a, b, d)
    assert abs(value) > err, "oracle cannot resolve this sign"
    return 1 if value > 0 else -1


def oracle_floor(a, b, d) -> int:
    if b == 0:
        return a.numerator // a.denominator
    value, err = oracle_value(a, b, d)
    with localcontext(Context(prec=DIGITS)):
        lo = (value - err).to_integral_value(rounding=ROUND_FLOOR)
        hi = (value + err).to_integral_value(rounding=ROUND_FLOOR)
    assert lo == hi, "oracle cannot resolve this floor"
    return int(lo)


@settings(max_examples=300, deadline=None)
@given(qnum_pairs())
def test_sign_order_floor_match_decimal(pair):
    (a, b), (c, e), d = pair
    x, y = QNum(a, b, d), QNum(c, e, d)
    assert x.sign() == oracle_sign(a, b, d)
    assert x.floor() == oracle_floor(a, b, d)
    expected = oracle_sign(a - c, b - e, d)
    assert (x < y) == (expected < 0)
    assert (x <= y) == (expected <= 0)
    assert (x > y) == (expected > 0)
    assert (x >= y) == (expected >= 0)
    assert (x == y) == (expected == 0)


@pytest.mark.parametrize("bits", [80, 200])
@pytest.mark.parametrize("d", [2, 3, 7])
def test_floor_with_huge_sqrt_coefficient(bits, d):
    for b in (2**bits, -(2**bits), 2**bits - 1):
        for a in (Fraction(0), Fraction(1, 3), Fraction(-(2**bits) * 7, 5)):
            assert QNum(a, b, d).floor() == oracle_floor(a, Fraction(b), d)


# -- Fraction-pair reference ---------------------------------------------------


class PairRef:
    """a + b*sqrt(d) as two Fractions: the plain textbook definitions."""

    def __init__(self, a: Fraction, b: Fraction, d: int) -> None:
        self.a, self.b, self.d = a, b, d

    def __add__(self, o):
        return PairRef(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, o):
        return PairRef(self.a - o.a, self.b - o.b, self.d)

    def __mul__(self, o):
        return PairRef(self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d)

    def inverse(self):
        norm = self.a * self.a - self.b * self.b * self.d
        return PairRef(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, o):
        return self * o.inverse()

    def __eq__(self, o):
        return (self.a, self.b) == (o.a, o.b)

    def __str__(self):
        def rat(f):
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

        if self.b == 0:
            return rat(self.a)
        return f"{rat(self.a)}{'+' if self.b > 0 else '-'}{rat(abs(self.b))}*sqrt({self.d})"


def _same(x: QNum, r: PairRef) -> None:
    assert (x.a, x.b) == (r.a, r.b)
    assert str(x) == str(r)
    assert QNum.parse(str(x)) == x


@settings(max_examples=300, deadline=None)
@given(qnum_pairs(), st.integers(-(2**70), 2**70), st.fractions(max_denominator=10**6))
def test_arithmetic_matches_fraction_pairs(pair, k, f):
    (a, b), (c, e), d = pair
    x, y = QNum(a, b, d), QNum(c, e, d)
    rx, ry = PairRef(a, b, d), PairRef(c, e, d)
    _same(x, rx)
    _same(x + y, rx + ry)
    _same(x - y, rx - ry)
    _same(x * y, rx * ry)
    _same(-x, PairRef(-a, -b, d))
    assert (x == y) == (rx == ry)
    for s in (k, f):
        rs = PairRef(Fraction(s), Fraction(0), d)
        _same(x + s, rx + rs)
        _same(s - x, rs - rx)
        _same(x * s, rx * rs)
        if s:
            _same(x / s, rx / rs)
    if y:
        _same(y.inverse(), ry.inverse())
        _same(x / y, rx / ry)
    else:
        with pytest.raises(DivisionByZeroError):
            x / y

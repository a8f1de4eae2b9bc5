"""Differential tests of ``QNum`` against two independent references.

* Sign, ordering and floor are checked against stdlib ``decimal`` at 200
  significant digits, computed from the coefficients ``a`` and ``b`` alone.
* The one floor, ``qfield._floor``, and the ceilings that ``plmap`` derives
  from it are checked against ``decimal`` at a precision that grows with
  the operands' digits.
* Field arithmetic and the canonical text form are checked against
  ``PairRef``, a small a + b*sqrt(d) model built on two ``Fraction``s.

``QNum``'s operators and comparisons run on ``qfield``'s triple functions
(``_add``, ``_sub``, ``_mul``, ``_div`` and ``_cmp``), the one arithmetic
that ``PLMap`` and the action searches run on, so these tests check the
arithmetic behind every map evaluation, composition and search as well.

Coefficients reach 2^200 in size, and the draws include near-units
(a close to -b*sqrt(d), so a + b*sqrt(d) is tiny) and operands of opposite
sign, where a sign decision needs every digit.
"""

from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from leafspace.errors import DivisionByZeroError
from leafspace.plmap import PLMap, _grid_step, _orbit_test
from leafspace.qfield import QNum, _floor

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


# -- the one floor ------------------------------------------------------------

# A prime near 10^12, so m*m*d is wider than m*m.
PRIME_D = 10**12 + 39
HUGE = 2**256
ints = st.integers(-HUGE, HUGE) | st.integers(-50, 50)
positive = st.integers(1, HUGE) | st.integers(1, 50)


def pell_pairs():
    """(x, y) with x^2 - 2*y^2 = +-1, from (1, 1) up to y near 2^256."""
    x, y = 1, 1
    while y < HUGE:
        yield x, y
        x, y = x + 2 * y, x + y


@st.composite
def quotients(draw):
    """(n, m, q, d) with q >= 1: free, or (n + m*sqrt(d))/q within about
    1/q of an integer j, where the sign of m decides the floor."""
    d = draw(st.sampled_from(FIELDS + (PRIME_D,)))
    m, q = draw(ints), draw(positive)
    if draw(st.booleans()):
        return draw(ints), m, q, d
    root = isqrt(m * m * d) * (1 if m < 0 else -1)
    return q * draw(ints) + root + draw(st.integers(-2, 2)), m, q, d


def decimal_floor_ceil(n: int, m: int, q: int, d: int) -> tuple[int, int]:
    """floor and ceiling of (n + m*sqrt(d))/q from ``decimal``.

    |n' + m*sqrt(d)| >= 1/(|n'| + |m|*sqrt(d)) for every int n', so the
    value lies at least about 1/(2*q*|m|*sqrt(d)) from an integer; twice
    the operands' digits, plus a margin, resolves it.
    """
    digits = 2 * sum(len(str(abs(v))) for v in (n, m, q, d)) + 20
    with localcontext(Context(prec=digits)) as ctx:
        if not m:
            # A quotient rounded towards -inf (+inf) keeps its floor (ceiling).
            ctx.rounding = ROUND_FLOOR
            lo = (Decimal(n) / q).to_integral_value(ROUND_FLOOR)
            ctx.rounding = ROUND_CEILING
            return int(lo), int((Decimal(n) / q).to_integral_value(ROUND_CEILING))
        root = Decimal(d).sqrt()
        value = (n + m * root) / q
        err = (abs(n) + abs(m) * root + 1) / q * Decimal(10) ** (10 - digits)
        ends = []
        for rounding in (ROUND_FLOOR, ROUND_CEILING):
            end = (value - err).to_integral_value(rounding)
            assert end == (value + err).to_integral_value(rounding), "oracle cannot resolve"
            ends.append(int(end))
    return ends[0], ends[1]


def _with_pell_examples(test):
    # x - y*sqrt(2) and y*sqrt(2) - x lie within 1/(2y) of 0, so their
    # floors are 0 or -1; the first has a negative sqrt part, whose floor
    # needs the "- 1".
    for x, y in pell_pairs():
        for q in (1, 7):
            test = example((-x, y, q, 2))(example((x, -y, q, 2))(test))
    return test


@_with_pell_examples
@settings(max_examples=500, deadline=None)
@given(quotients())
def test_floor_and_derived_ceilings_match_decimal(args):
    n, m, q, d = args
    lo, hi = decimal_floor_ceil(n, m, q, d)
    assert _floor(n, m, q, d) == lo
    # _grid_step on a one-row table: (0*x + n + (0*x + m)*sqrt(d))/q at x = 0.
    row = [(0, n, 0, m, q)]
    assert (_grid_step([], row, d, 0, 0), _grid_step([], row, d, 0, 1)) == (lo, hi)
    # _orbit_test reads the move of a translation by t against period 1:
    # (ceil(t), whether ceil(t) <= floor(t)).
    t = QNum(Fraction(n, q), Fraction(m, q), d)
    assert _orbit_test(PLMap.translation(t, 1), (1, 0, 1), d) == (hi, hi <= lo)


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

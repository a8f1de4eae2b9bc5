import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leafspace.errors import DivisionByZeroError, FieldMismatchError, ParseError, PreconditionError
from leafspace.qfield import QNum, _is_square_free, qnum, ratio_is_rational, sqrt_of
from leafspace.selftest import random_qnum

R2 = sqrt_of(2)


def test_inverse_of_one_plus_sqrt2():
    # (1 + sqrt2)^-1 = -1 + sqrt2, checked by expanding the product.
    inv = (1 + R2).inverse()
    assert inv == -1 + R2
    assert (1 + R2) * inv == 1


def test_difference_of_squares():
    assert (2 - R2) * (2 + R2) == 2


def test_additive_inverse(rng):
    for _ in range(100):
        x = random_qnum(rng)
        assert x + (-x) == 0


def test_compare_examples():
    assert qnum(1) < R2
    assert R2 - 1 > 0
    x = qnum(Fraction(3, 7), Fraction(-1, 5))
    assert not x < x and not x > x


def test_compare_matches_high_precision(rng):
    for _ in range(500):
        x, y = random_qnum(rng), random_qnum(rng)
        ax, ay = x.approx(96), y.approx(96)
        if abs(ax - ay) > Fraction(1, 2**40):
            assert (x < y) == (ax < ay)


def test_ratio_is_rational_examples():
    ok, w = ratio_is_rational(2 * R2, R2)
    assert ok and w == 2
    ok, w = ratio_is_rational(R2, 1 + R2)
    assert not ok
    assert w == 2 - R2
    assert w.b == -1
    x = qnum(Fraction(5, 3), Fraction(-2, 7))
    ok, w = ratio_is_rational(x, x)
    assert ok and w == 1


def test_ratio_is_rational_matches_direct_quotient(rng):
    for _ in range(200):
        x, y = random_qnum(rng), random_qnum(rng)
        if not y:
            continue
        ok, w = ratio_is_rational(x, y)
        assert ok == (x * y.inverse()).is_rational()


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        qnum(0).inverse()
    with pytest.raises(DivisionByZeroError):
        ratio_is_rational(R2, qnum(0))


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatchError):
        sqrt_of(2) + sqrt_of(3)
    with pytest.raises(FieldMismatchError):
        sqrt_of(2) < sqrt_of(5)
    # Rationals mix freely with any field.
    assert qnum(1, 0, 3) + sqrt_of(2) == 1 + R2


def test_d_must_be_square_free():
    for bad in (0, 1, 4, 12, -2, 10**18 + 3):
        with pytest.raises(PreconditionError):
            QNum(1, 1, bad)


def test_floor():
    assert (1 + R2).floor() == 2
    assert (-R2).floor() == -2
    assert qnum(Fraction(7, 2)).floor() == 3
    assert (3 * R2 - 4).floor() == 0


def test_canonical_text_round_trip(rng):
    for _ in range(200):
        x = random_qnum(rng)
        assert QNum.parse(str(x)) == x


def test_canonical_text_examples():
    assert str(qnum(Fraction(1, 2))) == "1/2"
    assert str(qnum(0, Fraction(-3, 4))) == "0-3/4*sqrt(2)"
    assert str(1 + R2) == "1+1*sqrt(2)"
    assert QNum.parse("2-1*sqrt(2)") == 2 - R2


def test_parse_rejects_garbage():
    for bad in ("", "sqrt(2)", "1+sqrt(2)", "1/0x", "one"):
        with pytest.raises(ParseError):
            QNum.parse(bad)


def test_parse_rejects_zero_denominator_and_non_text():
    for bad in ("1/0", "-3/0", "1+1/0*sqrt(2)", "0/0-1*sqrt(3)", 5, None, ["1"]):
        with pytest.raises(ParseError):
            QNum.parse(bad)


@given(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
)
def test_round_trip_property(a, b):
    x = QNum(a, b, 2)
    assert QNum.parse(str(x)) == x


def test_field_axioms(rng):
    for _ in range(500):
        x, y, z = (random_qnum(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inverse() == 1


# -- public-surface contract of the integer-triple representation -----------


def test_rational_hash_matches_fraction_and_int():
    assert hash(qnum(Fraction(3, 7), 0, 2)) == hash(Fraction(3, 7)) == hash(qnum(Fraction(3, 7), 0, 5))
    assert len({qnum(1, 0, 2), qnum(1, 0, 3), 1}) == 1
    # Edge cases of the numeric hash: -1 hashes to -2, and a denominator
    # divisible by the hash modulus hashes to +-inf's hash.
    modulus = sys.hash_info.modulus
    for value in (-1, 0, Fraction(-1, 2), Fraction(1, modulus), Fraction(-3, 2 * modulus),
                  Fraction(modulus + 1, modulus - 1), -(2**200) + 1):
        assert hash(qnum(value)) == hash(value)


def test_irrational_values_hash_consistently_with_equality():
    x = qnum(Fraction(1, 3), Fraction(2, 5))
    y = (x * 6) / 6
    assert x == y and hash(x) == hash(y)
    assert len({x, y, x + 0, qnum(Fraction(2, 6), Fraction(4, 10))}) == 1


def test_coefficients_are_reduced_fractions():
    x = qnum(1, 1, 2) / 2
    assert x.b == Fraction(1, 2)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    y = qnum(Fraction(3, 4), Fraction(5, 6), 7) * 12
    assert (y.a, y.b) == (9, 10)
    assert (y.a.denominator, y.b.denominator) == (1, 1)


def test_repr_unchanged():
    assert repr(qnum(Fraction(1, 2))) == "QNum(Fraction(1, 2), Fraction(0, 1), 2)"
    assert repr(qnum(Fraction(-3, 4), 2, 5)) == "QNum(Fraction(-3, 4), Fraction(2, 1), 5)"


def test_float_is_bit_identical_to_coefficient_formula(rng):
    for _ in range(500):
        d = rng.choice([2, 3, 5, 7, 10])
        bits = rng.choice([4, 60, 200])
        x = qnum(
            Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits)),
            Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits)),
            d,
        )
        expected = float(x.a) + float(x.b) * math.sqrt(x.d)
        assert float(x).hex() == expected.hex()


def test_rationals_take_the_field_of_the_irrational_operand():
    r, s = qnum(Fraction(1, 2), 0, 3), sqrt_of(2)
    assert (r + s).d == 2 and (s + r).d == 2 and (r * s).d == 2
    assert (r + 1).d == 3 and (r - s + s).d == 2
    for y in (r * r, r / 2, 1 - r, r.inverse(), r ** 3):
        assert y.d == 3


def test_check_d_rejects_non_int_after_cache_hit():
    sqrt_of(2)  # validates d = 2 and caches it
    for bad in (2.0, Fraction(2), True):
        with pytest.raises(PreconditionError):
            QNum(0, 1, bad)
    with pytest.raises(PreconditionError):
        QNum(1, 0, True)


def _square_free_by_square_division(n):
    """Reference: trial division by every k*k <= n."""
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for k in range(2, math.isqrt(n - 1) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytes(len(range(k * k, n, k)))
    return [k for k in range(n) if sieve[k]]


PRIMES = _primes_below(10**6)


def test_square_free_matches_square_division_below_20000():
    for n in range(-3, 20000):
        assert _is_square_free(n) == _square_free_by_square_division(n), n


@settings(deadline=None)  # a product near 10**18 takes up to 10**6 divisions
@given(
    st.sampled_from([(0,), (0, 1), (0, 0), (0, 0, 1), (0, 1, 2)]),
    st.lists(st.sampled_from(PRIMES), min_size=3, max_size=3),
)
def test_square_free_matches_known_factorisation(shape, primes):
    # shape picks p, p*q, p*p, p*p*q or p*q*r from three drawn primes; the
    # product is square-free iff no prime repeats.
    factors = [primes[i] for i in shape]
    assert _is_square_free(math.prod(factors)) == (len(set(factors)) == len(factors))


def test_prime_near_10_to_12_validates_fast():
    d = 999999999989  # the largest prime below 10**12
    start = time.perf_counter()
    assert _is_square_free(d)
    assert time.perf_counter() - start < 1.0
    assert sqrt_of(d).d == d

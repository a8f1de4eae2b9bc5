import ast
import math
import operator
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from leafspace import qfield
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
    for x in (R2, qnum(Fraction(2, 3))):
        for zero in (0, Fraction(0), QNum(0, 0, 3)):
            with pytest.raises(DivisionByZeroError, match=r"^inverse of zero$"):
                x / zero


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatchError):
        sqrt_of(2) + sqrt_of(3)
    with pytest.raises(FieldMismatchError):
        sqrt_of(2) < sqrt_of(5)
    # Rationals mix freely with any field.
    assert qnum(1, 0, 3) + sqrt_of(2) == 1 + R2


def test_equality_across_fields_never_raises():
    # 1, sqrt(d) and sqrt(e) are linearly independent over Q.
    r5 = sqrt_of(5)
    assert not sqrt_of(2) == r5 and sqrt_of(2) != r5
    assert qnum(1, 3, 2) != qnum(1, 3, 5) and R2 / 7 != r5 / 7
    assert qnum(Fraction(1, 2), 0, 3) == qnum(Fraction(1, 2), 0, 5) == Fraction(1, 2)
    assert R2 != 1 and R2 != Fraction(1, 2) and R2 == sqrt_of(2)
    assert len({R2, r5, qnum(0, 1, 3)}) == 3


def test_d_must_be_square_free():
    for bad in (0, 1, 4, 12, -2, 10**18 + 3):
        with pytest.raises(PreconditionError):
            QNum(1, 1, bad)


def test_as_fraction_of_an_irrational_raises():
    assert qnum(Fraction(3, 4), 0, 5).as_fraction() == Fraction(3, 4)
    with pytest.raises(PreconditionError, match="irrational"):
        (1 + R2).as_fraction()


def test_non_numbers_are_not_operands():
    # Each operator returns NotImplemented for a str or a float, so Python
    # raises TypeError both ways round; == says False.
    x = 1 + R2
    ops = (operator.add, operator.sub, operator.mul, operator.truediv,
           operator.lt, operator.le, operator.gt, operator.ge)
    for other in ("x", 1.5):
        for op in ops:
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
        assert (x == other) is False and x != other


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


def reference_parse(text, d=None):
    """QNum.parse as it read each matched rational with Fraction(str)."""
    m = re.fullmatch(r"(-?\d+(?:/\d+)?)(?:\s*([+-])\s*(\d+(?:/\d+)?)\*sqrt\((\d+)\))?", text.strip())
    if m is None:
        raise ParseError(f"not a valid number: {text!r}")
    try:
        a = Fraction(m.group(1))
        b = Fraction(m.group(3) or 0)
        dd = int(m.group(4) or 2)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a valid number: {text!r} ({exc})") from None
    if m.group(2) is None:
        return QNum(a, 0, d if d is not None else 2)
    if m.group(2) == "-":
        b = -b
    if d is not None and dd != d and b != 0:
        raise FieldMismatchError(f"mixed fields: sqrt({min(d, dd)}) vs sqrt({max(d, dd)})")
    return QNum(a, b, dd)


# Digit strings with leading zeros, zeros, non-ASCII decimal digits (which
# \d and int() accept) and lengths on both sides of int()'s 4300-digit limit.
_digits = st.text("0123456789", min_size=1, max_size=8) | st.sampled_from(
    ["0", "00", "007", "\u0663", "\uff10", "\uff17", "9" * 4300, "1" * 4301]
)
_ws = st.sampled_from(["", " ", "  ", "\t"])
_rat = st.builds(
    lambda num, den: num + ("" if den is None else "/" + den), _digits, st.none() | _digits
)
_sqrt_part = st.builds(
    lambda w1, sign, rat, w2, dd: f"{w1}{sign}{w2}{rat}*sqrt({dd})",
    _ws, st.sampled_from("+-"), _rat, _ws,
    _digits | st.sampled_from(["2", "3", "4", "5", "12", "1"]),
)
_numbers = st.builds(
    lambda pad, minus, rat, tail: f"{pad}{minus}{rat}{tail}{pad}",
    _ws, st.sampled_from(["", "-"]), _rat, st.just("") | _sqrt_part,
)


def _parsed(parse, text, d):
    try:
        x = parse(text, d)
    except (ParseError, FieldMismatchError, PreconditionError) as exc:
        return type(exc), str(exc)
    return x._n, x._m, x._q, x.d


@settings(max_examples=500, deadline=None)
@given(_numbers, st.none() | st.sampled_from([2, 3, 4, 5]))
def test_parse_matches_fraction_reference(text, d):
    assert _parsed(QNum.parse, text, d) == _parsed(reference_parse, text, d)


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


@pytest.mark.parametrize("method, triple_function", [
    ("__add__", "_add"), ("__sub__", "_sub"), ("__mul__", "_mul"), ("__truediv__", "_div"),
    ("inverse", "_div"), ("_cmp", "_cmp"),
])
def test_qnum_operators_run_on_the_triple_functions(method, triple_function):
    # One arithmetic: each QNum operator calls the triple function that PLMap
    # and the searches run on, and does no sum or product of its own.
    tree = ast.parse(Path(qfield.__file__).read_text(encoding="utf-8"))
    qnum_class = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "QNum")
    body = next(node for node in qnum_class.body if isinstance(node, ast.FunctionDef) and node.name == method)
    nodes = list(ast.walk(body))
    assert triple_function in {node.func.id for node in nodes
                               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not [node for node in nodes
                if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult))]


def test_a_rational_hashes_as_its_fraction():
    # No hand-written copy of Python's numeric hash: QNum.__hash__ uses the
    # Fraction's own.
    tree = ast.parse(Path(qfield.__file__).read_text(encoding="utf-8"))
    assert "_hash_rational" not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


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


@settings(deadline=None)  # a product near 10**18 takes up to about 3.3*10**5 divisions
@given(
    st.sampled_from([(0,), (0, 1), (0, 0), (0, 0, 1), (0, 1, 2)]),
    st.lists(st.sampled_from(PRIMES), min_size=3, max_size=3),
)
def test_square_free_matches_known_factorisation(shape, primes):
    # shape picks p, p*q, p*p, p*p*q or p*q*r from three drawn primes; the
    # product is square-free iff no prime repeats.
    factors = [primes[i] for i in shape]
    assert _is_square_free(math.prod(factors)) == (len(set(factors)) == len(factors))


# The trial divisors are 2, 3 and the k = 6j - 1 and 6j + 1: 7 and 13 are
# 1 mod 6, and 11 and 999983 (the largest prime below 10**6) are 5 mod 6.
WHEEL_PRIMES = (7, 11, 13, 999983)
# Small cofactors, and primes just below 10**6 and 10**12 (999979 is 1 mod 6).
COFACTORS = (1, 2, 3, 6, 5, 35, 999979, 999983, 999999999989)


@pytest.mark.parametrize("p", WHEEL_PRIMES)
@pytest.mark.parametrize("c", COFACTORS)
def test_square_of_a_wheel_prime_is_not_square_free(p, c):
    # p*p is caught by a trial division when p lies below the cube root of
    # the product, and else by the cofactor's square test.
    assert not _is_square_free(p * p * c)
    # Every cofactor is square-free, so p*c is iff p does not divide c.
    assert _is_square_free(p * c) == (c % p != 0)


@pytest.mark.parametrize("p", [999961, 999983])  # 1 and 5 mod 6
def test_product_with_a_prime_just_below_the_cube_root(p):
    # p*q lies below 10**18 and its cube root just above p, so p is the last
    # trial divisor that divides it, and the cofactor q is prime.
    q = 999999999989
    assert p**3 < p * q < (p + 30) ** 3 and p * q < 10**18
    assert _is_square_free(p * q)
    assert not _is_square_free(p * p * q)


def test_prime_near_10_to_12_validates_fast():
    d = 999999999989  # the largest prime below 10**12
    start = time.perf_counter()
    assert _is_square_free(d)
    assert time.perf_counter() - start < 1.0
    assert sqrt_of(d).d == d


def _boundary_readers():
    """(name, reader, value): each public reader of a caller's number, as a
    function of the one number probed, and a value it accepts."""
    from leafspace.action import build_glued_action, incompressible_interval_search, orbit_density
    from leafspace.cones import MetricChain, adversarial_stall, run_progress_ledger
    from leafspace.plmap import PLMap, translation_number
    from leafspace.qfield import as_qnum
    from leafspace.shear import disjointness_check, shadow_length

    F = Fraction
    beta = PLMap(1, [(0, 0), (F(1, 2), F(3, 4))])
    probe = PLMap(1, [(0, F(1, 5)), (F(1, 2), F(3, 5))])
    bump = [PLMap(1, [(0, 0), (F(1, 2), F(5, 8))])]
    spec = build_glued_action(1 + R2, 2)
    return [
        ("QNum", lambda x: QNum(0, x, 3), F(1, 3)),
        ("qnum", lambda x: qnum(x, 0, 5), F(-2, 7)),
        ("as_qnum", lambda x: as_qnum(x, 3), F(-2, 7)),
        ("translation_number.eps", lambda x: translation_number(probe, x, 0), F(1, 100)),
        ("shadow_length", lambda x: shadow_length(x, 2, 3), F(2, 3)),
        ("run_progress_ledger", lambda x: run_progress_ledger(1, x, 3), F(1, 10)),
        ("adversarial_stall", lambda x: adversarial_stall(1, x), F(1, 2)),
        ("disjointness_check", lambda x: disjointness_check((0, x), F(1, 2)), F(1, 4)),
        ("MetricChain.periods", lambda x: MetricChain([x], bump).periods, F(1, 2)),
        ("build_glued_action", lambda x: build_glued_action(x, 1), F(3, 2)),
        ("orbit_density.x0", lambda x: orbit_density(spec, x, 2, (0, 1)), F(1, 3)),
        ("orbit_density.window", lambda x: orbit_density(spec, 0, 2, (0, x)), F(1, 2)),
        ("incompressible.interval", lambda x: incompressible_interval_search(spec, (0, x), 2),
         F(1, 3)),
        ("PLMap", lambda x: PLMap(1, [(0, 0), (x, F(3, 5))]), F(1, 2)),
        ("PLMap.translation", lambda x: PLMap.translation(x), F(1, 3)),
        ("PLMap.__call__", lambda x: beta(x), F(1, 3)),
        ("affine_conjugate", lambda x: beta.affine_conjugate(x), 3),
    ]


class TestOneTextRule:
    """``as_qnum`` reads text as the number it names: irrational text in its
    own sqrt(e), rational text in the field asked for.  So each caller that
    takes a number gives text what it gives the equal QNum."""

    R3 = sqrt_of(3)

    def test_callers_read_irrational_text_in_its_own_field(self):
        from leafspace.action import build_glued_action
        from leafspace.cones import MetricChain, adversarial_stall, run_progress_ledger
        from leafspace.plmap import PLMap
        from leafspace.shear import disjointness_check, shadow_length

        r3 = self.R3
        probes = [
            (shadow_length, ("0+1*sqrt(3)", 2, 3), (r3, 2, 3)),
            (run_progress_ledger, ("3+1*sqrt(3)", "1/10", 2), (3 + r3, Fraction(1, 10), 2)),
            (adversarial_stall, ("1+1*sqrt(3)", "1"), (1 + r3, 1)),
            (disjointness_check, (("0", "0+1/10*sqrt(3)"), "1/2"), ((0, r3 / 10), Fraction(1, 2))),
            (build_glued_action, ("1+1*sqrt(3)", "0+1*sqrt(3)"), (1 + r3, r3)),
        ]
        for fn, text, exact in probes:
            assert fn(*text) == fn(*exact), fn.__name__
        bump = [PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(5, 8))])]
        chains = [MetricChain([p], bump) for p in ("0+1*sqrt(3)", r3)]
        assert chains[0].periods == chains[1].periods == (r3,)
        assert [chains[0].phi(i) for i in (0, 1)] == [chains[1].phi(i) for i in (0, 1)]

    def test_the_field_is_the_numbers_own(self):
        from leafspace.action import build_glued_action
        from leafspace.qfield import as_qnum

        assert build_glued_action(1 + self.R3, self.R3).d == 3
        assert as_qnum("1/2", 5).d == 5 and as_qnum("1/2", 5) == Fraction(1, 2)

    def test_mixed_fields_name_the_smaller_field_first(self):
        from leafspace.action import build_glued_action
        from leafspace.plmap import PLMap

        r2, r3 = sqrt_of(2), self.R3
        f3 = PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(1, 2) + r3 / 10)])
        f2 = PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(1, 2) + r2 / 10)])
        for fn in (lambda: r3 + r2, lambda: r2 + r3, lambda: r3 < r2, lambda: r3 * r2,
                   lambda: f3(r2 / 7), lambda: f2(r3 / 7), lambda: f3.compose(f2),
                   lambda: f2.compose(f3), lambda: build_glued_action(1 + r3, r2)):
            with pytest.raises(FieldMismatchError, match=r"^mixed fields: sqrt\(2\) vs sqrt\(3\)$"):
                fn()

    @pytest.mark.parametrize(
        "name, reader, value", [pytest.param(*case, id=case[0]) for case in _boundary_readers()]
    )
    def test_every_reader_has_one_number_boundary(self, name, reader, value):
        """An int or a Fraction, its canonical text and the equal QNum give
        one result; a float, a Decimal and text outside the canonical grammar
        raise ``ParseError``.  QNum(a, b, d) and qnum build from ints and
        Fractions only, the number the canonical text names; text is
        QNum.parse's to read, so they reject it and a QNum too."""
        text = str(QNum(value))
        want = reader(value)
        if name in ("QNum", "qnum"):
            assert want == reader(1) * QNum.parse(text)
            rejected = [text, QNum(value)]
        else:
            assert reader(text) == want and reader(QNum.parse(text)) == want
            rejected = []
        for bad in [float(value), Decimal(float(value)), "1.5", "1e3", *rejected]:
            with pytest.raises(ParseError):
                reader(bad)

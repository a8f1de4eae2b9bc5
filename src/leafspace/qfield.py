"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

Every scalar in the library is a ``QNum``: a value a + b*sqrt(d) with
rational a, b and a fixed square-free d in [2, 10**18].  It is stored as
four plain ints (n, m, q, d) meaning (n + m*sqrt(d))/q, with q > 0 and
gcd(n, m, q) = 1, so every value has exactly one representation.  All
comparisons and floors are decided by exact integer arithmetic, never by
floating point, so commensurability questions have certificates rather
than estimates.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from math import gcd, isqrt

from .errors import DivisionByZeroError, FieldMismatchError, ParseError, PreconditionError

__all__ = ["QNum", "qnum", "sqrt_of", "ratio_is_rational"]


# Largest accepted d: checking square-freeness then takes at most 10**6
# trial divisions, so no config can make validation run long.
_MAX_D = 10**18


def _is_square_free(n: int) -> bool:
    """Exact square-freeness by trial division up to the cube root."""
    if n < 2:
        return False
    k = 2
    while k * k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return False
        k += 1
    # Every prime factor of the cofactor n is >= k and n < k**3, so n is p,
    # p*q or p*p (never 1: a division leaves n >= k*k); only p*p is square.
    return isqrt(n) ** 2 != n


_checked_d: set[int] = set()


def _check_d(d: int) -> int:
    # The type check comes first: 2.0 == 2 would otherwise hit the cache.
    # The bound comes before the factoring it keeps short.
    if type(d) is not int or (
        d not in _checked_d and not (d <= _MAX_D and _is_square_free(d))
    ):
        raise PreconditionError(
            f"d must be a square-free integer in [2, 10**18], got {d!r}"
        )
    _checked_d.add(d)
    return d


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational input."""
    if type(x) is int:
        return x, 1
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator, x.denominator


def _sign(n: int, m: int, d: int) -> int:
    """Exact sign of n + m*sqrt(d)."""
    if not m:
        return (n > 0) - (n < 0)
    if not n or (n > 0) == (m > 0):
        return 1 if m > 0 else -1
    # Opposite signs: the larger of n^2 and m^2 d wins (they are never
    # equal, d not being a perfect square).
    if n * n > m * m * d:
        return 1 if n > 0 else -1
    return 1 if m > 0 else -1


_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _hash_rational(n: int, q: int) -> int:
    # Python's documented hash of the rational n/q (q > 0, gcd(n, q) = 1),
    # so a rational QNum hashes like the equal int or Fraction.
    if q == 1:
        return hash(n)
    if q % _HASH_MODULUS == 0:
        h = _HASH_INF
    else:
        h = abs(n) % _HASH_MODULUS * pow(q, -1, _HASH_MODULUS) % _HASH_MODULUS
    if n < 0:
        h = -h
    return -2 if h == -1 else h


_new = object.__new__


def _make(n: int, m: int, q: int, d: int) -> "QNum":
    # Internal constructor: q > 0 and d already validated; divides out
    # gcd(n, m, q).
    if q != 1:
        g = gcd(n, m, q)
        if g != 1:
            n //= g
            m //= g
            q //= g
    x = _new(QNum)
    x._n = n
    x._m = m
    x._q = q
    x._d = d
    return x


class QNum:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    Immutable.  Stored as ints (n, m, q, d) with a = n/q, b = m/q, q > 0
    and gcd(n, m, q) = 1; that form is canonical, so equality is equality
    of (n, m, q).  ``.a`` and ``.b`` build the reduced ``Fraction``s on
    demand.  Rational values (b = 0) mix freely with any d; two numbers
    with nonzero sqrt coefficients must share d or arithmetic raises
    ``FieldMismatchError``.
    """

    __slots__ = ("_n", "_m", "_q", "_d")

    def __init__(self, a=0, b=0, d: int = 2) -> None:
        an, ad = _ratio(a)
        bn, bd = _ratio(b)
        self._d = _check_d(d)
        q = ad if ad == bd else math.lcm(ad, bd)
        self._n = an * (q // ad)
        self._m = bn * (q // bd)
        self._q = q

    @property
    def a(self) -> Fraction:
        return Fraction(self._n, self._q)

    @property
    def b(self) -> Fraction:
        return Fraction(self._m, self._q)

    @property
    def d(self) -> int:
        return self._d

    def is_rational(self) -> bool:
        return self._m == 0

    # -- coercion ---------------------------------------------------------

    def _operand(self, other):
        """(n, m, q, d) of ``other`` as an operand of ``self``, where d is
        the field of the result: other's if it is irrational, else self's.
        None if ``other`` is not an exact number."""
        if isinstance(other, QNum):
            if not other._m:
                return other._n, 0, other._q, self._d
            if self._m and other._d != self._d:
                raise FieldMismatchError(
                    f"mixed fields: sqrt({self._d}) vs sqrt({other._d})"
                )
            return other._n, other._m, other._q, other._d
        if isinstance(other, int):
            return int(other), 0, 1, self._d
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator, self._d
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        n, m, q, d = o
        if q == self._q:
            return _make(self._n + n, self._m + m, q, d)
        return _make(self._n * q + n * self._q, self._m * q + m * self._q, self._q * q, d)

    __radd__ = __add__

    def __neg__(self) -> "QNum":
        return _make(-self._n, -self._m, self._q, self._d)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        n, m, q, d = o
        if q == self._q:
            return _make(self._n - n, self._m - m, q, d)
        return _make(self._n * q - n * self._q, self._m * q - m * self._q, self._q * q, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        n, m, q, d = o
        n1, m1 = self._n, self._m
        if not m1 and not m:
            return _make(n1 * n, 0, self._q * q, d)
        return _make(n1 * n + m1 * m * d, n1 * m + m1 * n, self._q * q, d)

    __rmul__ = __mul__

    def inverse(self) -> "QNum":
        n, m, q = self._n, self._m, self._q
        if not n and not m:
            raise DivisionByZeroError("inverse of zero")
        # q/(n + m*sqrt(d)) = q*(n - m*sqrt(d)) / (n^2 - m^2 d); the norm is
        # nonzero because d is not a perfect square.
        norm = n * n - m * m * self._d
        if norm < 0:
            return _make(-q * n, q * m, -norm, self._d)
        return _make(q * n, -q * m, norm, self._d)

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        n, m, q, d = o
        if m:
            return self * other.inverse()
        if not n:
            raise DivisionByZeroError("inverse of zero")
        if n < 0:
            n, q = -n, -q
        return _make(self._n * q, self._m * q, self._q * n, d)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int) -> "QNum":
        if n < 0:
            return self.inverse() ** (-n)
        result = _make(1, 0, 1, self._d)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- ordering ---------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d) by integer case analysis."""
        return _sign(self._n, self._m, self._d)

    def _cmp(self, other):
        """Sign of self - other from integer cross products, or None if
        ``other`` is not an exact number."""
        o = self._operand(other)
        if o is None:
            return None
        n, m, q, d = o
        if q == self._q:
            return _sign(self._n - n, self._m - m, d)
        return _sign(self._n * q - n * self._q, self._m * q - m * self._q, d)

    def __eq__(self, other) -> bool:
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._n == o[0] and self._m == o[1] and self._q == o[2]

    def __lt__(self, other) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self) -> int:
        if not self._m:
            return _hash_rational(self._n, self._q)
        return hash((self._n, self._m, self._q, self._d))

    def __bool__(self) -> bool:
        return bool(self._n or self._m)

    def __abs__(self) -> "QNum":
        return -self if self.sign() < 0 else self

    # -- conversion -------------------------------------------------------

    def __float__(self) -> float:
        # int / int is correctly rounded, so this equals float(a) + float(b)*sqrt(d).
        return self._n / self._q + self._m / self._q * math.sqrt(self._d)

    def approx(self, bits: int = 128) -> Fraction:
        """Rational approximation accurate to 2^-bits."""
        scale = 1 << bits
        root = isqrt(self._d * scale * scale)
        return Fraction(self._n * scale + self._m * root, self._q * scale)

    def floor(self) -> int:
        n, m, q = self._n, self._m, self._q
        if not m:
            return n // q
        # sqrt(m^2 d) is irrational, so floor(n + m*sqrt(d)) is n + isqrt(m^2 d)
        # for m > 0 and n - isqrt(m^2 d) - 1 for m < 0; then divide by q.
        root = isqrt(m * m * self._d)
        return (n + root) // q if m > 0 else (n - root - 1) // q

    def as_fraction(self) -> Fraction:
        if self._m:
            raise PreconditionError(f"{self} is irrational")
        return self.a

    # -- canonical text form ----------------------------------------------

    def __str__(self) -> str:
        a = _fmt_rat(self._n, self._q)
        if not self._m:
            return a
        sign = "+" if self._m > 0 else "-"
        return f"{a}{sign}{_fmt_rat(abs(self._m), self._q)}*sqrt({self._d})"

    def __repr__(self) -> str:
        return f"QNum({self.a!r}, {self.b!r}, {self._d})"

    @classmethod
    def parse(cls, text: str, d: int | None = None) -> "QNum":
        """Parse the canonical grammar ``rat | rat SIGN rat*sqrt(uint)``."""
        m = _QNUM_RE.fullmatch(text.strip()) if isinstance(text, str) else None
        if m is None:
            raise ParseError(f"not a valid number: {text!r}")
        try:
            a = Fraction(m.group(1))
            b = Fraction(m.group(3) or 0)
            dd = int(m.group(4) or 2)
        except (ValueError, ZeroDivisionError) as exc:  # "1/0", or past int's digit limit
            raise ParseError(f"not a valid number: {text!r} ({exc})") from None
        if m.group(2) is None:
            return cls(a, 0, d if d is not None else 2)
        if m.group(2) == "-":
            b = -b
        if d is not None and dd != d and b != 0:
            raise FieldMismatchError(f"expected sqrt({d}), got sqrt({dd})")
        return cls(a, b, dd)


_RAT = r"-?\d+(?:/\d+)?"
_QNUM_RE = re.compile(rf"({_RAT})(?:\s*([+-])\s*(\d+(?:/\d+)?)\*sqrt\((\d+)\))?")


def _fmt_rat(num: int, den: int) -> str:
    g = gcd(num, den)
    if g != den:
        return f"{num // g}/{den // g}"
    return str(num // g)


def qnum(a=0, b=0, d: int = 2) -> QNum:
    """Shorthand constructor."""
    return QNum(a, b, d)


def sqrt_of(d: int) -> QNum:
    """The element sqrt(d) itself."""
    return QNum(0, 1, d)


def as_qnum(value, d: int = 2) -> QNum:
    if isinstance(value, QNum):
        return value
    if isinstance(value, (int, Fraction)):
        return QNum(value, 0, d)
    if isinstance(value, str):
        return QNum.parse(value, d)
    raise ParseError(f"cannot interpret {value!r} as an exact number")


def ratio_is_rational(x: QNum, y: QNum) -> tuple[bool, QNum]:
    """Decide whether x/y is rational; the exact quotient is the witness."""
    if not y:
        raise DivisionByZeroError("ratio_is_rational: y = 0")
    q = x / y
    return q.is_rational(), q

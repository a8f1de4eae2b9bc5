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
    """(numerator, denominator) of an int or a Fraction; text is ``QNum.parse``'s."""
    if type(x) is int:
        return x, 1
    if type(x) is Fraction or isinstance(x, (int, Fraction)):  # isinstance of an ABC is slow
        return x.numerator, x.denominator
    raise ParseError(f"cannot interpret {x!r} as an exact number")


def _mixed_fields(d: int, e: int) -> FieldMismatchError:
    """The one error for values irrational in sqrt(d) and sqrt(e), smaller first."""
    return FieldMismatchError(f"mixed fields: sqrt({min(d, e)}) vs sqrt({max(d, e)})")


def _one_field(default: int, *fields) -> int:
    """The one field rule: ``fields`` holds the d of each input irrational in
    Q(sqrt d), and 0 or None for each rational one.  The one d they name, or
    ``default`` if they name none; two or more raise ``_mixed_fields`` on the
    two smallest."""
    named = {e for e in fields if e}
    if len(named) > 1:
        raise _mixed_fields(*sorted(named)[:2])
    return named.pop() if named else default


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


def _floor(n: int, m: int, q: int, d: int) -> int:
    """floor((n + m*sqrt(d))/q) for q > 0: the one floor of the library.
    Its ceiling is this plus 1, unless m = 0 and q divides n."""
    if not m:
        return n // q
    # sqrt(m^2 d) is irrational, so floor(n + m*sqrt(d)) is n + isqrt(m^2 d)
    # for m > 0 and n - isqrt(m^2 d) - 1 for m < 0; then divide by q, as
    # floor(x/q) = floor(floor(x)/q) for an int q > 0 (Graham, Knuth and
    # Patashnik, *Concrete Mathematics*, ch. 3).
    root = isqrt(m * m * d)
    return (n + root) // q if m > 0 else (n - root - 1) // q


def _float(n: int, m: int, q: int, d: int) -> float:
    """float((n + m*sqrt(d))/q) as float(a) + float(b)*sqrt(d): int / int rounds correctly."""
    return n / q + m / q * math.sqrt(d)


# -- triples ------------------------------------------------------------------
# ``PLMap`` and the word searches hold values as reduced triples (n, m, q), a
# ``QNum``'s ints, in a field d kept once: equal values are equal triples.  This
# is the library's one arithmetic: ``QNum``'s operators and comparisons call it
# too, on their operands' triples.


def _triple(x: "QNum") -> tuple[int, int, int]:
    return x._n, x._m, x._q


def _reduced(n: int, m: int, q: int, d: int | None = None) -> tuple[int, int, int]:
    """(n, m, q), q > 0, over gcd(n, m, q); it takes ``_make``'s arguments."""
    g = gcd(n, m, q)
    return (n, m, q) if g == 1 else (n // g, m // g, q // g)


def _add(x, y):
    (n, m, q), (n2, m2, q2) = x, y
    return _reduced(n * q2 + n2 * q, m * q2 + m2 * q, q * q2)


def _sub(x, y):
    (n, m, q), (n2, m2, q2) = x, y
    return _reduced(n * q2 - n2 * q, m * q2 - m2 * q, q * q2)


def _mul(x, y, d: int):
    (n, m, q), (n2, m2, q2) = x, y
    return _reduced(n * n2 + m * m2 * d, n * m2 + m * n2, q * q2)


def _quot(x, y, d: int) -> tuple[int, int, int]:
    """x/y, y != 0, unreduced with Q > 0: x times y's conjugate over y's norm."""
    (n, m, q), (n2, m2, q2) = x, y
    if m2:
        n, m, q = (n * n2 - m * m2 * d) * q2, (m * n2 - n * m2) * q2, q * (n2 * n2 - m2 * m2 * d)
    else:
        n, m, q = n * q2, m * q2, q * n2
    return (n, m, q) if q > 0 else (-n, -m, -q)


def _div(x, y, d: int):
    return _reduced(*_quot(x, y, d))


def _cmp(x, y, d: int) -> int:
    """Sign of x - y, as ``QNum._cmp``."""
    return _sign(x[0] * y[2] - y[0] * x[2], x[1] * y[2] - y[1] * x[2], d)


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


def _of(t: tuple[int, int, int], d: int) -> "QNum":
    # The QNum of a reduced triple t in field d: no gcd is taken again.
    x = _new(QNum)
    x._n, x._m, x._q = t
    x._d = d
    return x


class QNum:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    Immutable.  ``QNum(a, b, d)`` takes int and Fraction coefficients and
    raises ``ParseError`` on anything else; text is read by ``parse``.
    Stored as ints (n, m, q, d) with a = n/q, b = m/q, q > 0 and
    gcd(n, m, q) = 1; that form is canonical, so equality is equality
    of (n, m, q), and of d for irrational values: 1, sqrt(d) and sqrt(e)
    are linearly independent over Q.  ``.a`` and ``.b`` build the reduced
    ``Fraction``s on demand.  Rational values (b = 0) mix freely with any
    d; arithmetic and ordering on irrational values of two fields raise
    ``FieldMismatchError``, and ``==`` never raises.
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
        """(triple, d) of ``other`` as an operand of ``self``, where d is the
        field of the result: other's if it is irrational, else self's.  None
        if ``other`` is not an exact number."""
        if isinstance(other, QNum):
            if not other._m:
                return (other._n, 0, other._q), self._d
            if self._m and other._d != self._d:  # _one_field, inline: once per operation
                raise _mixed_fields(self._d, other._d)
            return (other._n, other._m, other._q), other._d
        if isinstance(other, int):
            return (int(other), 0, 1), self._d
        if isinstance(other, Fraction):
            return (other.numerator, 0, other.denominator), self._d
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _of(_add(_triple(self), o[0]), o[1])

    __radd__ = __add__

    def __neg__(self) -> "QNum":
        return _of((-self._n, -self._m, self._q), self._d)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _of(_sub(_triple(self), o[0]), o[1])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _of(_mul(_triple(self), o[0], o[1]), o[1])

    __rmul__ = __mul__

    def inverse(self) -> "QNum":
        if not self:
            raise DivisionByZeroError("inverse of zero")
        return _of(_div((1, 0, 1), _triple(self), self._d), self._d)

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        t, d = o
        if not t[0] and not t[1]:
            raise DivisionByZeroError("inverse of zero")
        return _of(_div(_triple(self), t, d), d)

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
        return _cmp(_triple(self), o[0], o[1])

    def __eq__(self, other) -> bool:
        if isinstance(other, QNum):
            same = self._n == other._n and self._m == other._m and self._q == other._q
            return same and (not self._m or self._d == other._d)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _triple(self) == o[0]

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
        if not self._m:  # as the equal int or Fraction
            return hash(self.a)
        return hash((self._n, self._m, self._q, self._d))

    def __bool__(self) -> bool:
        return bool(self._n or self._m)

    def __abs__(self) -> "QNum":
        return -self if self.sign() < 0 else self

    # -- conversion -------------------------------------------------------

    def __float__(self) -> float:
        return _float(self._n, self._m, self._q, self._d)

    def floor(self) -> int:
        return _floor(self._n, self._m, self._q, self._d)

    def as_fraction(self) -> Fraction:
        if self._m:
            raise PreconditionError(f"{self} is irrational")
        return self.a

    # -- canonical text form ----------------------------------------------

    def __str__(self) -> str:
        n, m, q = self._n, self._m, self._q
        if not m:  # gcd(n, 0, q) = 1, so n/q is in lowest terms
            return _fmt_rat(n, q)
        g, h = gcd(n, q), gcd(m, q)
        sign = "+" if m > 0 else "-"
        return f"{_fmt_rat(n // g, q // g)}{sign}{_fmt_rat(abs(m) // h, q // h)}*sqrt({self._d})"

    def __repr__(self) -> str:
        return f"QNum({self.a!r}, {self.b!r}, {self._d})"

    @classmethod
    def parse(cls, text: str, d: int | None = None) -> "QNum":
        """Parse the canonical grammar ``rat | rat SIGN rat*sqrt(uint)``."""
        m = _QNUM_RE.fullmatch(text.strip()) if isinstance(text, str) else None
        if m is None:
            raise ParseError(f"not a valid number: {text!r}")
        minus, an, aq, sign, bn, bq, dd = m.groups()
        try:
            an, aq = _rat(minus, an, aq)
            if sign is None:
                return _make(an, 0, aq, _check_d(d if d is not None else 2))
            bn, bq = _rat("", bn, bq)
            dd = int(dd)
        except ValueError as exc:  # "1/0", or past int's digit limit
            raise ParseError(f"not a valid number: {text!r} ({exc})") from None
        if sign == "-":
            bn = -bn
        if d is not None and dd != d and bn != 0:
            raise _mixed_fields(d, dd)
        return _make(an * bq, bn * aq, aq * bq, _check_d(dd))


_QNUM_RE = re.compile(r"(-?)(\d+)(?:/(\d+))?(?:\s*([+-])\s*(\d+)(?:/(\d+))?\*sqrt\((\d+)\))?")


def _rat(minus: str, num: str, den: str | None) -> tuple[int, int]:
    """(n, q), not reduced, of the matched groups of one rat; the error for
    a zero denominator reads like ``Fraction``'s."""
    n = -int(num) if minus else int(num)
    q = int(den) if den is not None else 1
    if not q:
        raise ValueError(f"Fraction({n}, 0)")
    return n, q


def _fmt_rat(num: int, den: int) -> str:
    """num/den in lowest terms, written as num when den is 1."""
    try:
        return f"{num}/{den}" if den != 1 else str(num)
    except ValueError:  # past int's digit limit
        raise PreconditionError("value has too many digits to print") from None


def qnum(a=0, b=0, d: int = 2) -> QNum:
    """Shorthand constructor."""
    return QNum(a, b, d)


def sqrt_of(d: int) -> QNum:
    """The element sqrt(d) itself."""
    return QNum(0, 1, d)


def as_qnum(value, d: int = 2) -> QNum:
    """``value`` as the number it names: a QNum as it is, irrational text in
    its own sqrt(e), and rational text, an int or a Fraction in Q(sqrt d)."""
    if isinstance(value, QNum):
        return value
    if isinstance(value, str):
        x = QNum.parse(value)
        if x._m:
            return x
        n, q = x._n, x._q
    else:
        n, q = _ratio(value)
    return _make(n, 0, q, _check_d(d))


def ratio_is_rational(x: QNum, y: QNum) -> tuple[bool, QNum]:
    """Decide whether x/y is rational; the exact quotient is the witness."""
    if not y:
        raise DivisionByZeroError("ratio_is_rational: y = 0")
    q = x / y
    return q.is_rational(), q

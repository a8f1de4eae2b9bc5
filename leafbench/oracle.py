"""Independent exact arithmetic for planting and checking answers.

``Quad`` is a + b*sqrt(d) over Fractions, written without reference to
``leafspace.qfield`` so that results are checked against a second
implementation rather than against themselves.  Signs and floors are
decided with integer square roots; nothing here uses floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RAT = r"-?\d+(?:/\d+)?"
_NUM_RE = re.compile(rf"({_RAT})(?:([+-])(\d+(?:/\d+)?)\*sqrt\((\d+)\))?")


class Quad:
    """a + b*sqrt(d); rationals carry b == 0 and mix with any d."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d: int = 0) -> None:
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d if self.b else 0

    @staticmethod
    def of(x) -> "Quad":
        return x if isinstance(x, Quad) else Quad(x)

    def _field(self, o: "Quad") -> int:
        if self.d and o.d and self.d != o.d:
            raise ValueError(f"mixed fields sqrt({self.d}) and sqrt({o.d})")
        return self.d or o.d

    def __add__(self, o):
        o = Quad.of(o)
        return Quad(self.a + o.a, self.b + o.b, self._field(o))

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, o):
        return self + (-Quad.of(o))

    def __rsub__(self, o):
        return Quad.of(o) - self

    def __mul__(self, o):
        o = Quad.of(o)
        d = self._field(o)
        return Quad(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inv(self) -> "Quad":
        norm = self.a * self.a - self.b * self.b * self.d
        return Quad(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, o):
        return self * Quad.of(o).inv()

    def __rtruediv__(self, o):
        return Quad.of(o) * self.inv()

    def sign(self) -> int:
        a, b = self.a, self.b
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sb == 0 or sa == sb:
            return sa or sb
        if sa == 0:
            return sb
        # Opposite signs: the larger of a^2 and b^2 d wins.
        lhs, rhs = a * a, b * b * self.d
        return sa if lhs > rhs else sb

    def __eq__(self, o) -> bool:
        return (self - o).sign() == 0

    def __lt__(self, o) -> bool:
        return (self - o).sign() < 0

    def __le__(self, o) -> bool:
        return (self - o).sign() <= 0

    def __gt__(self, o) -> bool:
        return (self - o).sign() > 0

    def __ge__(self, o) -> bool:
        return (self - o).sign() >= 0

    def floor(self) -> int:
        """Exact floor: with a = p/q and b = r/q, r*sqrt(d) is irrational, so
        (p + r*sqrt(d))/q has the floor of (p + floor(r*sqrt(d)))/q."""
        if not self.b:
            return math.floor(self.a)
        q = math.lcm(self.a.denominator, self.b.denominator)
        p, r = int(self.a * q), int(self.b * q)
        root = math.isqrt(r * r * self.d)
        fl = root if r > 0 else -root - 1
        return (p + fl) // q

    def __str__(self) -> str:
        if not self.b:
            return _fmt(self.a)
        sign = "+" if self.b > 0 else "-"
        return f"{_fmt(self.a)}{sign}{_fmt(abs(self.b))}*sqrt({self.d})"

    __repr__ = __str__


def _fmt(fr: Fraction) -> str:
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def parse(text: str) -> Quad:
    """Read the canonical number grammar ``rat`` or ``rat+rat*sqrt(d)``."""
    m = _NUM_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a canonical number: {text!r}")
    if m.group(2) is None:
        return Quad(Fraction(m.group(1)))
    b = Fraction(m.group(3))
    return Quad(Fraction(m.group(1)), -b if m.group(2) == "-" else b, int(m.group(4)))


def from_qnum(x) -> Quad:
    """Read a library number through its public coefficient accessors."""
    return Quad(x.a, x.b, x.d)


class PL:
    """Periodic PL map from its period and one period of breakpoints."""

    def __init__(self, period, points) -> None:
        self.p = Quad.of(period)
        self.pts = [(Quad.of(x), Quad.of(y)) for x, y in points]
        ext = self.pts + [(self.pts[0][0] + self.p, self.pts[0][1] + self.p)]
        self.slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(ext, ext[1:])]

    @classmethod
    def from_json(cls, obj) -> "PL":
        return cls(parse(obj["period"]), [(parse(b["x"]), parse(b["y"])) for b in obj["breakpoints"]])

    @classmethod
    def from_plmap(cls, f) -> "PL":
        return cls(from_qnum(f.period), [(from_qnum(x), from_qnum(y)) for x, y in f.breakpoints])

    def __call__(self, x):
        x = Quad.of(x)
        x0 = self.pts[0][0]
        n = ((x - x0) / self.p).floor()
        shift = self.p * n
        xr = x - shift
        i = 0
        for j, (xj, _) in enumerate(self.pts):
            if xj <= xr:
                i = j
        xi, yi = self.pts[i]
        return yi + self.slopes[i] * (xr - xi) + shift

    def inverse(self) -> "PL":
        pairs = []
        for x, y in self.pts:
            m = (y / self.p).floor()
            pairs.append((y - self.p * m, x - self.p * m))
        return PL(self.p, sorted_exact(pairs, key=lambda xy: xy[0]))

    def scaled(self, c) -> "PL":
        """x -> f(c*x)/c, the map in coordinates shrunk by c."""
        c = Quad.of(c)
        return PL(self.p / c, [(x / c, y / c) for x, y in self.pts])


class Translation:
    def __init__(self, t) -> None:
        self.t = Quad.of(t)

    def __call__(self, x):
        return Quad.of(x) + self.t

    def inverse(self) -> "Translation":
        return Translation(-self.t)


def sorted_exact(items, key=lambda q: q):
    """Insertion sort under exact comparison (Quad has no total key)."""
    out = list(items)
    for i in range(1, len(out)):
        j = i
        while j and key(out[j]) < key(out[j - 1]):
            out[j - 1], out[j] = out[j], out[j - 1]
            j -= 1
    return out


def power(f, n: int, x):
    """f^n(x) for n >= 0 by repeated evaluation."""
    for _ in range(n):
        x = f(x)
    return x


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True

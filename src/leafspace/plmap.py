"""Piecewise-linear homeomorphisms of the line commuting with a translation.

A ``PLMap`` stores a period p > 0 and one period's worth of breakpoints
(x_i, y_i); the map is affine between consecutive breakpoints and satisfies
f(x + p) = f(x) + p.  These maps model the elements of the universal central
extension of the circle homeomorphism group that act on the leaf space.
All arithmetic is exact over a quadratic field.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, PeriodMismatchError, PreconditionError
from .qfield import QNum, as_qnum, ratio_is_rational

__all__ = [
    "PLMap",
    "FixedPoints",
    "PeriodGroup",
    "Exact",
    "Bracket",
    "translation_number",
]


def _coerce_points(period, breakpoints):
    """Coerce inputs to QNums sharing one field."""
    d = 2
    for v in [period, *[c for pt in breakpoints for c in pt]]:
        if isinstance(v, QNum) and not v.is_rational():
            d = v.d
            break
    p = as_qnum(period, d)
    pts = [(as_qnum(x, d), as_qnum(y, d)) for x, y in breakpoints]
    return p, pts


class PLMap:
    """Periodic piecewise-linear homeomorphism of the real line.

    Canonical form invariants (enforced on construction):

    * ``0 <= x_0 < x_1 < ... < x_{k-1} < p``
    * ``y_i`` strictly increasing with ``y_0 + p > y_{k-1}``
    * no breakpoint is collinear with its neighbours (cyclically, through
      the wrap segment joining ``(x_{k-1}, y_{k-1})`` to ``(x_0+p, y_0+p)``)
    * a pure translation is stored as the single breakpoint ``(0, t)``
    """

    __slots__ = ("_p", "_pts", "_slopes", "_xs", "_pone", "_pinv")

    def __init__(self, period, breakpoints) -> None:
        p, pts = _coerce_points(period, breakpoints)
        if p.sign() <= 0:
            raise PreconditionError("period must be positive")
        if not pts:
            raise PreconditionError("at least one breakpoint is required")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if not x0 < x1:
                raise PreconditionError("breakpoint x-coordinates must strictly increase")
        if pts[0][0].sign() < 0 or not pts[-1][0] < p:
            raise PreconditionError("breakpoints must lie in [0, p)")
        for (_, y0), (_, y1) in zip(pts, pts[1:]):
            if not y0 < y1:
                raise PreconditionError("breakpoint values must strictly increase")
        if not pts[0][1] + p > pts[-1][1]:
            raise PreconditionError("map is not monotone across the wrap segment")
        self._p = p
        self._pts = self._canonicalize(p, pts)
        self._slopes = self._segment_slopes(self._p, self._pts)
        self._xs = [x for x, _ in self._pts]
        self._pone = p == 1
        self._pinv = None if self._pone else p.inverse()

    @staticmethod
    def _segment_slopes(p, pts):
        ext = list(pts) + [(pts[0][0] + p, pts[0][1] + p)]
        return tuple(
            (y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(ext, ext[1:])
        )

    @staticmethod
    def _canonicalize(p, pts):
        slopes = PLMap._segment_slopes(p, pts)
        k = len(pts)
        keep = [pts[i] for i in range(k) if slopes[i - 1] != slopes[i]]
        if not keep:
            # Constant slope around the cycle forces slope 1: a translation.
            t = pts[0][1] - pts[0][0]
            return ((as_qnum(0, t.d), t),)
        return tuple(keep)

    # -- basic accessors --------------------------------------------------

    @property
    def period(self) -> QNum:
        return self._p

    @property
    def breakpoints(self):
        return self._pts

    def is_translation(self) -> bool:
        return len(self._pts) == 1

    @property
    def displacement(self) -> QNum:
        """Translation amount; only meaningful for translations."""
        if not self.is_translation():
            raise PreconditionError("not a translation")
        return self._pts[0][1] - self._pts[0][0]

    def displacement_range(self) -> tuple[QNum, QNum]:
        """Exact (min, max) of f(x) - x, attained at breakpoints."""
        disps = [y - x for x, y in self._pts]
        return min(disps), max(disps)

    @classmethod
    def translation(cls, t, period=1) -> "PLMap":
        """The map x -> x + t, carried at the given period."""
        p, [(z, t)] = _coerce_points(period, [(0, t)])
        return cls(p, [(z, t)])

    @classmethod
    def identity(cls, period=1) -> "PLMap":
        return cls.translation(0, period)

    # -- evaluation -------------------------------------------------------

    def __call__(self, x) -> QNum:
        x = as_qnum(x, self._p.d)
        x0 = self._pts[0][0]
        if self._pone:
            n = (x - x0).floor()
            shift = n
        else:
            n = ((x - x0) * self._pinv).floor()
            shift = n * self._p
        xr = x - shift  # in [x_0, x_0 + p)
        i = bisect_right(self._xs, xr) - 1
        xi, yi = self._pts[i]
        return yi + self._slopes[i] * (xr - xi) + shift

    # -- group operations -------------------------------------------------

    def inverse(self) -> "PLMap":
        pairs = []
        for x, y in self._pts:
            m = (y / self._p).floor()
            pairs.append((y - m * self._p, x - m * self._p))
        pairs.sort(key=lambda q: q[0])
        return PLMap(self._p, pairs)

    def compose(self, other: "PLMap") -> "PLMap":
        """self after other: x -> self(other(x))."""
        f, g = self, other
        if f._p == g._p:
            return f._compose_equal_period(g)
        if f.is_translation():
            return PLMap(g._p, [(x, y + f.displacement) for x, y in g._pts])
        if g.is_translation():
            t = g.displacement
            pairs = []
            for x, y in f._pts:
                xs = x - t
                m = (xs / f._p).floor()
                pairs.append((xs - m * f._p, y - m * f._p))
            pairs.sort(key=lambda q: q[0])
            return PLMap(f._p, pairs)
        rational, q = ratio_is_rational(f._p, g._p)
        if not rational:
            raise PeriodMismatchError(
                f"periods {f._p} and {g._p} are incommensurable"
            )
        frac = q.as_fraction()
        return f._tiled(frac.denominator)._compose_equal_period(
            g._tiled(frac.numerator)
        )

    def _tiled(self, k: int) -> "PLMap":
        """The same homeomorphism represented with period k*p."""
        pts = [
            (x + j * self._p, y + j * self._p)
            for j in range(k)
            for x, y in self._pts
        ]
        return PLMap(self._p * k, pts)

    def _compose_equal_period(self, g: "PLMap") -> "PLMap":
        p = self._p
        ginv = g.inverse()
        xs = {x for x, _ in g._pts}
        for x, _ in self._pts:
            z = ginv(x)
            m = (z / p).floor()
            xs.add(z - m * p)
        xs = sorted(xs)
        return PLMap(p, [(x, self(g(x))) for x in xs])

    def pow(self, n: int) -> "PLMap":
        if n < 0:
            return self.inverse().pow(-n)
        result = PLMap.identity(self._p)
        base = self
        while n:
            if n & 1:
                result = result.compose(base)
            base = base.compose(base) if n > 1 else base
            n >>= 1
        return result

    def commutes(self, other: "PLMap") -> bool:
        return self.compose(other) == other.compose(self)

    def _commutes_with_shift(self, c) -> bool:
        """Whether f commutes with x -> x + c, decided without composing.

        The graph of x -> f(x - c) + c is the graph of f moved by (c, c),
        and canonical breakpoints are exactly the slope changes, so the two
        maps are equal iff the moved breakpoints, reduced mod p, are the
        breakpoints of f.  Both sets have len(self._pts) distinct points,
        so membership of every moved point decides equality.
        """
        if self.is_translation():
            return True
        p = self._p
        c = as_qnum(c, p.d)
        pts = set(self._pts)
        for x, y in self._pts:
            shift = c - ((x + c) / p).floor() * p
            if (x + shift, y + shift) not in pts:
                return False
        return True

    def affine_conjugate(self, scale) -> "PLMap":
        """h o f o h^-1 for h(x) = x/scale; rescales the coordinate system."""
        scale = as_qnum(scale, self._p.d)
        if scale.sign() <= 0:
            raise PreconditionError("scale must be positive")
        return PLMap(self._p / scale, [(x / scale, y / scale) for x, y in self._pts])

    # -- equality ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLMap):
            return NotImplemented
        if self.is_translation() and other.is_translation():
            # A translation is the same map of the line whatever period it
            # happens to carry.
            return self.displacement == other.displacement
        return self._p == other._p and self._pts == other._pts

    def __hash__(self) -> int:
        if self.is_translation():
            return hash(("translation", self.displacement))
        return hash((self._p, self._pts))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {y})" for x, y in self._pts)
        return f"PLMap(period={self._p}, breakpoints=[{pts}])"

    # -- structure --------------------------------------------------------

    def fixed_points(self) -> "FixedPoints":
        """Exact solutions of f(x) = x within [0, p)."""
        if self.is_translation():
            if not self.displacement:
                return FixedPoints("all", (), ())
            return FixedPoints("none", (), ())
        p = self._p
        zero = p * 0
        ext = [(x - p, y - p) for x, y in self._pts] + list(self._pts)
        ext.append((self._pts[0][0] + p, self._pts[0][1] + p))
        points: list[QNum] = []
        intervals: list[tuple[QNum, QNum]] = []
        for (u1, v1), (u2, v2) in zip(ext, ext[1:]):
            if not u2 > zero or not u1 < p:
                continue
            s = (v2 - v1) / (u2 - u1)
            if s == 1:
                if v1 == u1:
                    lo = u1 if u1 > zero else zero
                    hi = u2 if u2 < p else p
                    intervals.append((lo, hi))
                continue
            xstar = (v1 - s * u1) / (1 - s)
            if u1 <= xstar <= u2 and zero <= xstar < p:
                points.append(xstar)
        points = sorted(set(points))
        merged: list[tuple[QNum, QNum]] = []
        for lo, hi in intervals:
            if merged and merged[-1][1] == lo:
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        points = [
            x for x in points if not any(lo <= x <= hi for lo, hi in merged)
        ]
        if not points and not merged:
            return FixedPoints("none", (), ())
        return FixedPoints("some", tuple(points), tuple(merged))

    def period_group(self) -> "PeriodGroup":
        """The group of translations commuting with f.

        All the reals for a translation; otherwise discrete of the form
        (p/k)Z.  f commutes with x -> x + c iff its breakpoint set, reduced
        mod p, is invariant under (x, y) -> (x + c, y + c), which is tested
        point by point without composing.  The shift by p/k splits that set
        into orbits of exactly k points, so only divisors k of the
        breakpoint count can commute, and searching them downwards from
        the count finds the largest one; k = 1, the period itself, always
        commutes.
        """
        if self.is_translation():
            return PeriodGroup(True, None)
        n = len(self._pts)
        for k in range(n, 1, -1):
            if n % k == 0 and self._commutes_with_shift(step := self._p * Fraction(1, k)):
                return PeriodGroup(False, step)
        return PeriodGroup(False, self._p)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "period": str(self._p),
            "breakpoints": [{"x": str(x), "y": str(y)} for x, y in self._pts],
        }

    @classmethod
    def from_json(cls, obj: dict, d: int | None = None) -> "PLMap":
        try:
            period = QNum.parse(obj["period"], d)
            pts = [
                (QNum.parse(bp["x"], d), QNum.parse(bp["y"], d))
                for bp in obj["breakpoints"]
            ]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed PL map object: {exc}") from exc
        return cls(period, pts)


@dataclass(frozen=True)
class FixedPoints:
    """Fixed-point set of a PLMap over one period.

    ``kind`` is "all" (identity), "none", or "some"; diagonal segments are
    reported as closed intervals.
    """

    kind: str
    points: tuple
    intervals: tuple

    def __bool__(self) -> bool:
        return self.kind != "none"


@dataclass(frozen=True)
class PeriodGroup:
    """Translations commuting with a map: all reals, or step * Z."""

    all_reals: bool
    step: QNum | None


@dataclass(frozen=True)
class Exact:
    value: QNum


@dataclass(frozen=True)
class Bracket:
    lo: QNum
    hi: QNum

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi


def translation_number(
    f: PLMap,
    eps: Fraction = Fraction(1, 10**6),
    max_denom: int = 64,
    force_bracket: bool = False,
):
    """Translation number of f, exact when a periodic orbit certifies it.

    Returns ``Exact`` when f is a translation or some iterate f^q equals a
    translation by m*p at some point (then the value is m*p/q); otherwise an
    enclosing rational ``Bracket`` of width <= eps obtained from the orbit
    of 0: tau lies in [(f^n(0) - p)/n, (f^n(0) + p)/n].
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    p = f.period
    if f.is_translation():
        t = f.displacement
        if force_bracket:
            n = _bracket_steps(p, eps)
            xn = t * n
            return Bracket((xn - p) / n, (xn + p) / n)
        return Exact(t)
    if not force_bracket:
        g = f
        for q in range(1, max_denom + 1):
            if g.is_translation():
                return Exact(g.displacement / q)
            # The displacement of g is continuous and periodic, so it attains
            # every value between its extremes; g has a point displaced by
            # exactly m*p iff m*p lies in that range.
            lo, hi = g.displacement_range()
            m = -((-lo / p).floor())
            if m * p <= hi:
                return Exact(p * Fraction(m, q))
            g = g.compose(f)
    # Orbit of 0, exploiting closure when the orbit is periodic.
    n = _bracket_steps(p, eps)
    orbit = [as_qnum(0, p.d)]
    closure = None
    for j in range(1, n + 1):
        x = f(orbit[-1])
        shift = x / p
        if shift.is_rational() and shift.as_fraction().denominator == 1:
            closure = (j, shift.as_fraction().numerator)
            break
        orbit.append(x)
    if closure is not None:
        q, m = closure
        if not force_bracket:
            return Exact(p * Fraction(m, q))
        xn = orbit[n % q] + (n // q) * m * p
    else:
        xn = orbit[n]
    return Bracket((xn - p) / n, (xn + p) / n)


def _bracket_steps(p: QNum, eps: Fraction) -> int:
    return (2 * p / eps).floor() + 1

"""Piecewise-linear homeomorphisms of the line commuting with a translation.

A ``PLMap`` stores a period p > 0 and one period's worth of breakpoints
(x_i, y_i); the map is affine between consecutive breakpoints and satisfies
f(x + p) = f(x) + p.  These maps model the elements of the universal central
extension of the circle homeomorphism group that act on the leaf space.
All arithmetic is exact over a quadratic field.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from operator import itemgetter

from .errors import FieldMismatchError, ParseError, PeriodMismatchError, PreconditionError
from .qfield import QNum, _make, _mixed_fields, _sign, as_qnum, ratio_is_rational

__all__ = [
    "PLMap",
    "FixedPoints",
    "PeriodGroup",
    "Exact",
    "Bracket",
    "translation_number",
]


def _coerce_points(period, breakpoints):
    """Read the inputs with ``as_qnum`` and give them one field.

    The field is that of the irrational inputs, which must agree; with none,
    the period's (Q(sqrt 2) for an int, a Fraction or rational text).  The
    rational values are given that field, since ``period.d`` names the
    field of the map.
    """
    p = as_qnum(period)
    pts = [(as_qnum(x), as_qnum(y)) for x, y in breakpoints]
    fields = {v._d for v in [p, *[c for pt in pts for c in pt]] if v._m}
    if len(fields) > 1:
        raise FieldMismatchError(f"breakpoints in several fields: {sorted(fields)}")
    d = fields.pop() if fields else p._d

    def field(v):
        return v if v._m or v._d == d else _make(v._n, 0, v._q, d)
    return field(p), [(field(x), field(y)) for x, y in pts]


def _ints(x: QNum) -> tuple[int, int, int]:
    return x._n, x._m, x._q


def _kernel_table(p: QNum, pts, slopes):
    """The integer data ``PLMap.__call__`` reads, built once per map.

    ``(d, x0, ip, p, xs, segs)``: ``d``, the one field decision that
    evaluation and ``compose`` read, is the field the map is irrational in,
    or None when its values take the field of x; a translation x -> x + t
    is the same map at any period, so t alone decides.  ``x0`` and ``p``
    are (n, m, q) triples, ``ip`` is 1/p as (n, m*d, m, q), and ``xs``
    holds the breakpoint x triples.  Segment i maps x to
    s_i*(x - k*p) + b_i + k*p with b_i = y_i - s_i*x_i; for
    x - k*p = (rn + rm*sqrt(d))/rq that is (N + M*sqrt(d))/Q with

        N = a1*rn + a2*rm + (b1 + k*c1)*rq
        M = a1*rm + a3*rn + (b2 + k*c2)*rq
        Q = f*rq

    where ``segs[i]`` = (a1, a2, a3, b1, c1, b2, c2, f) puts s_i, b_i and p
    over one denominator.  A translation has ``xs`` None and ``segs`` the
    triple of t.
    """
    if len(pts) == 1:
        t = pts[0][1] - pts[0][0]
        return (None if t.is_rational() else t.d), None, None, None, None, _ints(t)
    irrational = not p.is_rational() or any(not v.is_rational() for pt in pts for v in pt)
    d = p.d if irrational else None
    rd = p.d if irrational else 0  # a rational map has no sqrt parts
    pn, pm, pq = _ints(p)
    segs = []
    for (x, y), s in zip(pts, slopes):
        sn, sm, sq = _ints(s)
        bn, bm, bq = _ints(y - s * x)
        e = bq * pq // gcd(bq, pq)  # the least common denominator of b_i and p
        fb, fp = e // bq * sq, e // pq * sq
        segs.append((sn * e, sm * rd * e, sm * e, bn * fb, pn * fp, bm * fb, pm * fp, sq * e))
    inn, inm, inq = _ints(p.inverse())
    xs = tuple(_ints(x) for x, _ in pts)
    return d, _ints(pts[0][0]), (inn, inm * rd, inm, inq), (pn, pm, pq), xs, tuple(segs)


class PLMap:
    """Periodic piecewise-linear homeomorphism of the real line.

    Canonical form invariants (enforced on construction):

    * ``0 <= x_0 < x_1 < ... < x_{k-1} < p``
    * ``y_i`` strictly increasing with ``y_0 + p > y_{k-1}``
    * no breakpoint is collinear with its neighbours (cyclically, through
      the wrap segment joining ``(x_{k-1}, y_{k-1})`` to ``(x_0+p, y_0+p)``)
    * a pure translation is stored as the single breakpoint ``(0, t)``
    """

    __slots__ = ("_p", "_pts", "_slopes", "_table")

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
        self._pts, self._slopes = self._drop_collinear(pts, self._segment_slopes(p, pts))
        self._table = _kernel_table(p, self._pts, self._slopes)

    @classmethod
    def _trusted(cls, p: QNum, pts, slopes) -> "PLMap":
        """A map from data already in canonical form: ``pts`` satisfy the
        invariants above in the field of ``p``, and ``slopes[i]`` is the
        slope of the segment leaving ``pts[i]``.  For maps derived from
        canonical ones, where ``__init__`` would only repeat its checks."""
        f = object.__new__(cls)
        f._p = p
        f._pts = tuple(pts)
        f._slopes = tuple(slopes)
        f._table = _kernel_table(p, f._pts, f._slopes)
        return f

    @staticmethod
    def _segment_slopes(p, pts):
        ext = list(pts) + [(pts[0][0] + p, pts[0][1] + p)]
        return tuple(
            (y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(ext, ext[1:])
        )

    @staticmethod
    def _drop_collinear(pts, slopes):
        """The breakpoints that are not collinear with their neighbours, and
        the slope of the segment leaving each, given that slope for every
        point.  Dropping a collinear point merges two segments of equal
        slope, so a kept point's slope is the one given for it."""
        keep = [i for i in range(len(pts)) if slopes[i - 1] != slopes[i]]
        if not keep:
            # Constant slope around the cycle forces slope 1: a translation.
            t = pts[0][1] - pts[0][0]
            return ((as_qnum(0, t.d), t),), slopes[:1]
        return tuple(pts[i] for i in keep), tuple(slopes[i] for i in keep)

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
        p, [(_, t)] = _coerce_points(period, [(0, t)])
        if p.sign() <= 0:
            raise PreconditionError("period must be positive")
        return cls._trusted(p, [(as_qnum(0, t.d), t)], [_make(1, 0, 1, p.d)])

    @classmethod
    def identity(cls, period=1) -> "PLMap":
        return cls.translation(0, period)

    # -- evaluation -------------------------------------------------------

    def __call__(self, x) -> QNum:
        """f(x), exact: with k = floor((x - x_0)/p) and x - k*p in segment
        i, f(x) = s_i*(x - k*p) + b_i + k*p, computed on the ints of
        ``_kernel_table`` with one reduction at the end.  Any other x is
        read with ``as_qnum`` in the period's field."""
        if type(x) is not QNum:
            x = as_qnum(x, self._p.d)
        n, m, q = x._n, x._m, x._q
        d, x0, ip, p, xs, segs = self._table
        if d is None:
            d = x._d
        elif m and x._d != d:
            raise _mixed_fields(x._d, d)
        if xs is None:
            tn, tm, tq = segs
            return _make(n * tq + tn * q, m * tq + tm * q, q * tq, d)
        # k = floor((x - x0) * ip), decided like QNum.floor.
        an, am, aq = x0
        u = n * aq - an * q
        v = m * aq - am * q
        inn, inmd, inm, inq = ip
        kn = u * inn + v * inmd
        km = u * inm + v * inn
        kq = q * aq * inq
        if not km:
            k = kn // kq
        else:
            root = isqrt(km * km * d)
            k = (kn + root) // kq if km > 0 else (kn - root - 1) // kq
        # The last breakpoint at or below x - k*p, as bisect_right finds it;
        # x_0 <= x - k*p, so the search starts above index 0.
        pn, pm, pq = p
        rn = n * pq - k * pn * q
        rm = m * pq - k * pm * q
        rq = q * pq
        lo, hi = 1, len(xs)
        while lo < hi:
            mid = (lo + hi) // 2
            xn, xm, xq = xs[mid]
            if _sign(rn * xq - xn * rq, rm * xq - xm * rq, d) < 0:
                hi = mid
            else:
                lo = mid + 1
        a1, a2, a3, b1, c1, b2, c2, f = segs[lo - 1]
        return _make(
            a1 * rn + a2 * rm + (b1 + k * c1) * rq,
            a1 * rm + a3 * rn + (b2 + k * c2) * rq,
            f * rq,
            d,
        )

    # -- group operations -------------------------------------------------

    def inverse(self) -> "PLMap":
        """The graph reflected in the diagonal: segment i becomes the one
        leaving (y_i, x_i) with slope 1/s_i, reduced mod p and sorted."""
        p = self._p
        if self.is_translation():
            return PLMap.translation(-self.displacement, p)
        triples = []
        for (x, y), s in zip(self._pts, self._slopes):
            m = (y / p).floor()
            triples.append((y - m * p, x - m * p, s.inverse()))
        triples.sort(key=lambda q: q[0])
        return PLMap._trusted(p, [(x, y) for x, y, _ in triples], [s for _, _, s in triples])

    def compose(self, other: "PLMap") -> "PLMap":
        """self after other: x -> self(other(x)).  Two translations give the
        translation by the sum.  Otherwise maps of two periods are first
        carried at one: a translation at the other map's period, two other
        maps at a common multiple of theirs."""
        f, g = self, other
        df, dg = f._table[0], g._table[0]
        if df is not None and dg is not None and df != dg:
            raise _mixed_fields(df, dg)
        pf, pg = f._p, g._p
        if f.is_translation() and g.is_translation():
            # At g's period, as a rebuilt f would be; at f's when they are
            # equal or g's is irrational in a field other than the sum's.
            t = f.displacement + g.displacement
            foreign = t._m and pg._m and pg._d != t._d
            return PLMap.translation(t, pf if foreign or pf == pg else pg)
        if pf != pg:
            if f.is_translation():
                f = PLMap.translation(f.displacement, pg)
            elif g.is_translation():
                g = PLMap.translation(g.displacement, pf)
            else:
                rational, q = ratio_is_rational(pf, pg)
                if not rational:
                    raise PeriodMismatchError(f"periods {pf} and {pg} are incommensurable")
                frac = q.as_fraction()
                f, g = f._tiled(frac.denominator), g._tiled(frac.numerator)
        return f._compose_equal_period(g)

    def _tiled(self, k: int) -> "PLMap":
        """The same homeomorphism represented with period k*p; only called
        on non-translations, whose breakpoints all stay canonical."""
        pts = [
            (x + j * self._p, y + j * self._p)
            for j in range(k)
            for x, y in self._pts
        ]
        return PLMap._trusted(self._p * k, pts, self._slopes * k)

    def _compose_equal_period(self, g: "PLMap") -> "PLMap":
        """self after g, both of period p, in one sweep over w = g(x).

        g maps [x_0, x_0 + p) onto [y_0, y_0 + p).  The breakpoints of the
        composite there are g's, at w = y_i, and the pull-backs of f's,
        moved by multiples of p into [y_0, y_0 + p); the two lists are
        merged in order of w, a pair with equal w making one event.  An f
        breakpoint (u, v) pulls back through g's current segment to
        x = x_i + (u - y_i)/s_i with value v; a g breakpoint takes the
        value f(y_i).  Each event's outgoing slope is the product of the
        current slopes of f and g.  Points at or beyond p move down by p
        to the front, and points whose slope equals the previous one
        (cyclically) are dropped, which gives the canonical form directly.
        """
        f = self
        p = f._p
        y0 = g._pts[0][1]
        # Moved by c*p, f's breakpoints before index `split` land in
        # [y_0, y_0 + p) and the rest at or above y_0 + p, so those move by
        # (c - 1)*p instead; starting at `split`, the moved list is in order.
        fpts, fs = f._pts, f._slopes
        c = -((fpts[0][0] - y0) / p).floor()
        cp = c * p
        split = bisect_left(fpts, y0 + p - cp, key=itemgetter(0))
        low = cp - p
        fev = [(u + low, v + low, s) for (u, v), s in zip(fpts[split:], fs[split:])]
        fev += [(u + cp, v + cp, s) for (u, v), s in zip(fpts[:split], fs[:split])]

        pts, slopes = [], []
        sf = fev[-1][2]  # f's slope on [y_0, first moved breakpoint)
        j, nf = 0, len(fev)
        for (x, y), sg in zip(g._pts, g._slopes):
            # f breakpoints on g's previous segment (x_i, y_i, s_i); none
            # lie below y_0.
            while j < nf and fev[j][0] < y:
                w, v, sf = fev[j]
                pts.append((xi + (w - yi) / si, v))
                slopes.append(sf * si)
                j += 1
            if j < nf and fev[j][0] == y:
                _, v, sf = fev[j]
                j += 1
            else:
                v = f(y)
            pts.append((x, v))
            slopes.append(sf * sg)
            xi, yi, si = x, y, sg
        last_g = len(pts)
        for w, v, sf in fev[j:]:
            pts.append((xi + (w - yi) / si, v))
            slopes.append(sf * si)
        # Only pull-backs on g's last segment, [x_{k-1}, x_0 + p), can
        # reach p.
        for i in range(last_g, len(pts)):
            if pts[i][0] >= p:
                pts = [(x - p, y - p) for x, y in pts[i:]] + pts[:i]
                slopes = slopes[i:] + slopes[:i]
                break

        # The two periods are equal; g's names the field when only g is
        # irrational.
        if f._table[0] is None and g._table[0] is not None:
            p = g._p
        return PLMap._trusted(p, *PLMap._drop_collinear(pts, slopes))

    def pow(self, n: int) -> "PLMap":
        if n < 0:
            return self.inverse().pow(-n)
        if n == 0:
            return PLMap.identity(self._p)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result.compose(base)
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
        # Scaling both coordinates keeps the order, the slopes and the field
        # rule; a scale in another field raises in the divisions.
        return PLMap._trusted(
            self._p / scale, [(x / scale, y / scale) for x, y in self._pts], self._slopes
        )

    # -- equality ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLMap):
            return NotImplemented
        # A translation, stored as (0, t), is the same map of the line
        # whatever period it happens to carry.
        return self._pts == other._pts and (self.is_translation() or self._p == other._p)

    def __hash__(self) -> int:
        return hash(self._pts if self.is_translation() else (self._p, self._pts))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {y})" for x, y in self._pts)
        return f"PLMap(period={self._p}, breakpoints=[{pts}])"

    # -- structure --------------------------------------------------------

    def fixed_points(self) -> "FixedPoints":
        """Exact solutions of f(x) = x within [0, p), in one pass over the
        stored segments.  On segment i, from x_i to x_{i+1} (to x_0 + p for
        the last), f(x) - x runs linearly from d_i = y_i - x_i to d_{i+1}
        (d_0 for the last).  A segment with s_i = 1 and d_i = 0 is an
        interval; any other holds a point where d_i = 0 or where the
        displacement changes sign inside it.  Whatever lies beyond p, on
        the last segment, moves down by p to the front."""
        if self.is_translation():
            if not self.displacement:
                return FixedPoints("all", (), ())
            return FixedPoints("none", (), ())
        p, pts = self._p, self._pts
        disps = [y - x for x, y in pts]
        ends = [x for x, _ in pts[1:]] + [p]
        points: list[QNum] = []
        intervals: list[tuple[QNum, QNum]] = []
        for (u, _), end, s, d, d_end in zip(pts, ends, self._slopes, disps, disps[1:] + disps[:1]):
            if s == 1:
                if not d:
                    intervals.append((u, end))
            elif not d:
                points.append(u)
            elif d.sign() == -d_end.sign():
                x = u - d / (s - 1)
                if x < p:
                    points.append(x)
                else:
                    points.insert(0, x - p)
        if pts[0][0] and intervals and intervals[-1][1] == p:
            intervals.insert(0, (p * 0, pts[0][0]))  # the last diagonal beyond p
        # A zero at a diagonal's end is reported with the interval.
        points = [x for x in points if not any(lo <= x <= hi for lo, hi in intervals)]
        if not points and not intervals:
            return FixedPoints("none", (), ())
        return FixedPoints("some", tuple(points), tuple(intervals))

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
        k = self._shift_divisor()
        return PeriodGroup(False, self._p * Fraction(1, k) if k > 1 else self._p)

    def _shift_divisor(self) -> int:
        """The largest k such that f, not a translation, commutes with
        x -> x + p/k (see ``period_group``)."""
        n, slopes = len(self._pts), self._slopes
        for k in range(n, 1, -1):
            # The shift moves each breakpoint n/k places on and keeps its
            # slope, so the slopes repeat first; that test is cheaper.
            if (n % k == 0 and slopes[n // k:] + slopes[:n // k] == slopes
                    and self._commutes_with_shift(self._p * Fraction(1, k))):
                return k
        return 1

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


# The rounded orbits of ``translation_number`` live on the grid of
# multiples of 2^-_GRID_BITS; a restart doubles the bits.
_GRID_BITS = 128


def _grid_rows(g: PLMap, bits: int):
    """The ints of one rounded step of the period-1 map g on the grid
    2^-bits, read from ``g._table``: ``(cuts, rows)``.

    A grid point X/2^bits of [0, 1) lies on row bisect_right(cuts, X), where
    cuts[i] = ceil(x_i*2^bits) for the breakpoint x_i.  Row i + 1 is the
    segment leaving x_i, and row 0 is [0, x_0), the last segment read one
    period down.  On a row (A, B, C, D, F),

        g(X/2^bits)*2^bits = (A*X + B + (C*X + D)*sqrt(d))/F,

    which is ``_kernel_table``'s (N + M*sqrt(d))/Q*2^bits at k = 0 with
    rn = X and rq = 2^bits; row 0 takes rn = X + 2^bits and subtracts 2^bits.
    """
    one = 1 << bits
    *_, segs = g._table
    rows = [(a1, b1 * one, a3, b2 * one, f) for a1, _, a3, b1, _, b2, _, f in segs]
    a1, b, a3, e, f = rows[-1]
    rows.insert(0, (a1, b + (a1 - f) * one, a3, e + a3 * one, f))
    return [-(-x * one).floor() for x, _ in g._pts], rows


def _grid_step(cuts, rows, d, x: int, up: int) -> int:
    """g(x/2^bits)*2^bits rounded down (up = 0) or up (up = 1), for a grid
    point x/2^bits of [0, 1).  t*sqrt(d) with t != 0 is irrational, so its
    floor is isqrt(t*t*d), or one less than its negative, and its ceiling is
    one more; ceil(N/F) is (N + F - 1)//F."""
    a, b, c, e, f = rows[bisect_right(cuts, x)]
    n = a * x + b
    t = c * x + e
    if t:
        r = isqrt(t * t * d)
        n += (r if t > 0 else -r - 1) + up
    return (n + up * (f - 1)) // f


def _rounded_walk(f: PLMap, eps: QNum, n: int):
    """The bracket [L, H] about tau(f)/p from two rounded orbits of 0,
    yielded whenever it narrows, and at step n, as the ints (ln, ld, hn, hd)
    of L = ln/ld and H = hn/hd, whether it is done, and the steps taken.

    g = f.affine_conjugate(p) has period 1 and tau(g) = tau(f)/p.  The lower
    orbit is rounded down and the upper one up onto a grid, so g^j(0) lies
    between them, g being increasing (Moore, *Interval Analysis*, 1966).
    Each point is held as an integer part and a grid point of [0, 1).  If
    g^j(0) lies in [m, m + 1), then tau(g) lies in [m/j, (m + 1)/j]; so
    after step j, tau(g) lies in [floor(lo_j)/j, (floor(hi_j) + 1)/j], and
    the bracket [L, H] is the intersection of these.  It is done once
    p*(H - L) <= eps, or at step n; the walk goes on past that while it is
    asked for more, and ends at step n.  Orbits less than a period apart
    make H - L <= 2/n there, and 2p/n < eps; if their integer parts ever
    differ by two, the walk restarts from 0 with twice the bits and keeps
    [L, H], which still holds tau(g).  L and H start as the ends -1/0 and
    1/0 of the line, which the cross-multiplied comparisons read correctly.
    """
    p = f.period
    g = f if p == 1 else f.affine_conjugate(p)
    d = g._table[0]
    c = eps / p  # the largest width in g's units
    cn, cm, cq, cd = c._n, c._m, c._q, c._d
    ln, ld, hn, hd = -1, 0, 1, 0
    done, steps = False, 0
    bits = _GRID_BITS
    while True:
        cuts, rows = _grid_rows(g, bits)
        mask = (1 << bits) - 1
        lo = hi = lo_k = hi_k = 0
        for j in range(1, n + 1):
            y = _grid_step(cuts, rows, d, lo, 0)
            lo, lo_k = y & mask, lo_k + (y >> bits)
            y = _grid_step(cuts, rows, d, hi, 1)
            hi, hi_k = y & mask, hi_k + (y >> bits)
            if hi_k - lo_k > 1:
                break
            narrowed = False
            if lo_k * ld > ln * j:
                ln, ld, narrowed = lo_k, j, True
            if (hi_k + 1) * hd < hn * j:
                hn, hd, narrowed = hi_k + 1, j, True
            if narrowed or j == n:
                if not done:
                    w = hd * ld
                    done = _sign(cn * w - (hn * ld - ln * hd) * cq, cm * w, cd) >= 0
                yield ln, ld, hn, hd, done or j == n, steps + j
        else:
            return
        steps += j
        bits *= 2


def _power(powers: dict, q: int) -> int:
    """Put F^q into ``powers``, a dict {j: F^j} that holds F^1, and return
    how many breakpoints the composes read.  F^q is the largest kept power
    j <= q doubled, or composed with F^(q - j) when q < 2*j, so a q whose
    two parts are kept costs one compose."""
    read = 0
    while q not in powers:
        j = max(filter(q.__ge__, powers))
        i = min(j, q - j)
        if i not in powers:
            read += _power(powers, i)
        g, h = powers[i], powers[j]
        read += len(g._pts) + len(h._pts)
        powers[i + j] = g.compose(h)
    return read


def _periodic_orbit(f: PLMap, k: int, max_denom: int, walk, bounds, done):
    """``(Exact(tau(f)), bounds, done)`` when some f^q with q <= max_denom
    is a translation or moves a point by exactly m*p, else None in place of
    the answer.  ``walk`` is a ``_rounded_walk`` of f, ``bounds`` its latest
    bracket and ``done`` its done bracket, or None if it has not yielded it
    yet; the search steps the walk only as far as it needs, which may be
    past the done bracket, and returns the two brackets as they then are.

    f commutes with x -> x + p/k (``_shift_divisor``), and F is the map f
    carried at p/k, so tau_F = k*tau(f)/p and F^q = f^q.  F^q moves a
    point by exactly m*p/k iff tau_F = m/q (Ghys, *Groups acting on the
    circle*, 2001).  A failed test says more: the moves of F^q then lie
    strictly between two multiples of p/k, which bound q*tau_F.  So
    tau_F is kept in an open Stern-Brocot interval (a/b, c/d), whose
    fractions all have denominators of at least b + d, the denominator of
    its mediant M/q (Graham, Knuth and Patashnik, *Concrete Mathematics*,
    section 4.5).  The walk's bracket [L, H] decides the mediant for free
    when it lies outside [k*L, k*H]; otherwise F^q is tested, and the
    interval halves at M/q either way.  The search ends when q exceeds
    max_denom, since no fraction of the interval then has a denominator
    up to max_denom.

    A hit gives tau(f) = p*M/(k*q).  For k = 1 that is the answer.  For
    k > 1 it is exact only if its denominator k*q/gcd(M, k) is at most
    max_denom, or F^q is a translation: otherwise F^q - M*p/k is a map of
    infinite order with a fixed point, so no power of f up to max_denom is
    a translation or moves a point by a multiple of p.  A search at k = 1
    finds every answer but one kind: when f commutes with x -> x + p/k
    for some k > 1, a power f^q with q <= max_denom can be a translation
    while tau(f)/p has a denominator above max_denom (f^5 = x + 1/2 and
    tau = 1/10); only a search at that k finds it.

    The i-th test (from 0) is made at once if q >= 2^i: such tests cost
    no more composes than building F^q by squaring would, which an Exact
    answer needs anyway.  Before any other test the walk takes as many
    steps in all as the composes so far have read breakpoints, so that
    neither half does much more work than the other.
    """
    p = f.period
    step = p * Fraction(1, k) if k > 1 else p
    n = len(f._pts) // k
    h = PLMap._trusted(step, f._pts[:n], f._slopes[:n]) if k > 1 else f
    powers = {1: h}
    q, spent, tests = 1, 0, 0
    while True:
        # Test h = F^q.
        if h.is_translation():
            return Exact(h.displacement / q), bounds, done
        # The displacement of F^q is continuous and periodic, so it attains
        # every value between its extremes: F^q moves a point by exactly
        # m*p/k iff m*p/k lies in that range.
        lo, hi = h.displacement_range()
        m = -((-lo / step).floor())
        if m * step <= hi:
            # tau_F = m/q, so m = M for q > 1.
            exact = k * q // gcd(m, k) <= max_denom
            return (Exact(p * Fraction(m, k * q)) if exact else None), bounds, done
        # (m - 1)/q < tau_F < m/q
        if q == 1:
            a, b, c, d = m - 1, 1, m, 1
        elif m > M:
            a, b = M, q
        else:
            c, d = M, q
        while True:
            M, q = a + c, b + d
            if q > max_denom:
                return None, bounds, done
            ln, ld, hn, hd, _, walked = bounds
            if M * ld < k * ln * q:
                a, b = M, q
            elif M * hd > k * hn * q:
                c, d = M, q
            elif 1 << tests > q and walked < spent and (nxt := next(walk, None)):
                bounds = nxt
                if done is None and bounds[4]:
                    done = bounds
            else:
                break
        if b in powers and d in powers:
            g, h = powers[b], powers[d]
            spent += len(g._pts) + len(h._pts)
            powers[q] = h = g.compose(h)
        else:
            spent += _power(powers, q)
            h = powers[q]
        tests += 1


def translation_number(
    f: PLMap,
    eps: Fraction = Fraction(1, 10**6),
    max_denom: int = 64,
    force_bracket: bool = False,
):
    """Translation number of f, exact when a periodic orbit certifies it.

    Returns ``Exact`` when f is a translation or some iterate f^q with
    q <= max_denom is a translation or moves a point by exactly m*p (then
    the value is m*p/q); otherwise an enclosing ``Bracket`` of width <= eps.
    The bracket comes from two orbits of 0, rounded down and up onto a fixed
    grid, whose integer parts bound the value after every step: its ends
    are short fractions times p, not orbit values, every step works on ints
    of the grid's size, and the walk takes at most n = floor(2p/eps) + 1
    steps on each grid.  The same walk guides the search for a periodic
    orbit (``_periodic_orbit``): f^q is composed and tested only for a q
    with some m/q in the walk's bracket, the least such q first, and a
    failed test moves the search past every fraction of denominator q.
    The bracket is the walk's, whatever the search did.  A forced bracket
    first walks the exact orbit of 0 for up to max_denom steps; if
    f^j(0) = k*p there, or those are all n steps, it returns
    [(f^n(0) - p)/n, (f^n(0) + p)/n] from the exact f^n(0).
    """
    p = f.period
    eps = as_qnum(eps, p.d)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if max_denom < 0:
        raise PreconditionError("max_denom must be >= 0")
    n = (2 * p / eps).floor() + 1
    x, j = as_qnum(0, p.d), 0
    if f.is_translation():
        if not force_bracket:
            return Exact(f.displacement)
        x, j = f.displacement * n, n
    elif force_bracket:
        # x/p = (N + M*sqrt(d))/Q with N, M, Q below, unreduced, so x is an
        # integer multiple of p iff M == 0 and Q divides N.
        inn, inm, inq = _ints(p.inverse())
        inm_d = inm * p.d
        stop = min(n, max_denom)
        while j < stop:
            x, j = f(x), j + 1
            if not x._n * inm + x._m * inn:
                k, r = divmod(x._n * inn + x._m * inm_d, x._q * inq)
                if not r:
                    # f^j(0) = k*p and f commutes with x -> x + p, so
                    # f^n(0) = f^(n mod j)((n // j)*k*p); no later point of
                    # that walk is a multiple of p, j being the least.
                    x, j, stop = (n // j) * k * p, n - n % j, n
    if j == n:
        return Bracket((x - p) / n, (x + p) / n)
    walk = _rounded_walk(f, eps, n)
    bounds, done = (-1, 0, 1, 0, False, 0), None
    if not force_bracket and max_denom:
        # k = 1 first: that search finds every answer but the one kind that
        # needs the least period p/k of f, so most maps never compute k.
        res, bounds, done = _periodic_orbit(f, 1, max_denom, walk, bounds, done)
        if res is None and (k := f._shift_divisor()) > 1:
            res, bounds, done = _periodic_orbit(f, k, max_denom, walk, bounds, done)
        if res:
            return res
    ln, ld, hn, hd, *_ = done or next(b for b in walk if b[4])
    return Bracket(p * Fraction(ln, ld), p * Fraction(hn, hd))

"""Piecewise-linear homeomorphisms of the line commuting with a translation.

A ``PLMap`` stores a period p > 0 and one period's worth of breakpoints
(x_i, y_i); the map is affine between consecutive breakpoints and satisfies
f(x + p) = f(x) + p.  These maps model the elements of the universal central
extension of the circle homeomorphism group that act on the leaf space.
All arithmetic is exact over a quadratic field.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd

from ._record import Record
from .errors import ParseError, PeriodMismatchError, PreconditionError
from .qfield import (
    QNum, _add, _cmp, _div, _floor, _make, _mixed_fields, _mul, _one_field, _quot,
    _sign, _sub, _triple, as_qnum,
)

__all__ = [
    "PLMap",
    "FixedPoints",
    "PeriodGroup",
    "Exact",
    "Bracket",
    "translation_number",
]


def _coerce_points(period, breakpoints):
    """``(d, p, xs, ys)``: the inputs read with ``as_qnum``, as triples in one field d.

    The field is ``_one_field``'s over the inputs: that of the irrational ones,
    or with none the period's (Q(sqrt 2) for an int, a Fraction or rational
    text).  It is the map's field ``_d``, which ``period.d`` names.
    """
    p = as_qnum(period)
    pts = [(as_qnum(x), as_qnum(y)) for x, y in breakpoints]
    d = _one_field(p._d, p._m and p._d, *[v._d for pt in pts for v in pt if v._m])
    return d, _triple(p), [_triple(x) for x, _ in pts], [_triple(y) for _, y in pts]


_ZERO, _ONE = (0, 0, 1), (1, 0, 1)


def _kernel_table(f: "PLMap"):
    """``(ip, p, xs, segs)``, what ``PLMap._image`` reads, built on f's first
    evaluation (``PLMap._kernel``): p and xs are f's stored triples, and ``ip``
    is 1/p as (n, m*d, m, q).  Segment i maps x to s_i*(x - k*p) + b_i + k*p
    with b_i = y_i - s_i*x_i; for x - k*p = (rn + rm*sqrt(d))/rq that is
    (N + M*sqrt(d))/Q with

        N = a1*rn + a2*rm + (b1 + k*c1)*rq
        M = a1*rm + a3*rn + (b2 + k*c2)*rq
        Q = f*rq

    where ``segs[i]`` = (a1, a2, a3, b1, c1, b2, c2, f) puts s_i, b_i and p
    over one denominator.  A translation has ``xs`` None and ``segs`` t.
    """
    if len(f._xs) == 1:
        return None, None, None, f._ys[0]
    d = rd = f._d  # the sqrt parts of a rational map are 0 in any field
    pn, pm, pq = f._p
    segs = []
    for x, y, s in zip(f._xs, f._ys, f._slopes):
        sn, sm, sq = s
        bn, bm, bq = _sub(y, _mul(s, x, d))
        e = bq * pq // gcd(bq, pq)  # the least common denominator of b_i and p
        fb, fp = e // bq * sq, e // pq * sq
        segs.append((sn * e, sm * rd * e, sm * e, bn * fb, pn * fp, bm * fb, pm * fp, sq * e))
    inn, inm, inq = _div(_ONE, f._p, d)
    return (inn, inm * rd, inm, inq), f._p, f._xs, tuple(segs)


class PLMap:
    """Periodic piecewise-linear homeomorphism of the real line.

    Canonical form invariants (enforced on construction):

    * ``0 <= x_0 < x_1 < ... < x_{k-1} < p``
    * ``y_i`` strictly increasing with ``y_0 + p > y_{k-1}``
    * no breakpoint is collinear with its neighbours (cyclically, through
      the wrap segment joining ``(x_{k-1}, y_{k-1})`` to ``(x_0+p, y_0+p)``)
    * a pure translation is stored as the single breakpoint ``(0, t)``

    Period, breakpoints and slopes are stored as ``qfield`` triples in the
    field ``_d`` of the period; ``QNum``s are built only for results.
    """

    __slots__ = ("_d", "_p", "_xs", "_ys", "_slopes", "_field", "_table")

    def __init__(self, period, breakpoints) -> None:
        d, p, xs, ys = _coerce_points(period, breakpoints)
        if _sign(p[0], p[1], d) <= 0:
            raise PreconditionError("period must be positive")
        if not xs:
            raise PreconditionError("at least one breakpoint is required")
        if any(_cmp(x0, x1, d) >= 0 for x0, x1 in zip(xs, xs[1:])):
            raise PreconditionError("breakpoint x-coordinates must strictly increase")
        if _sign(xs[0][0], xs[0][1], d) < 0 or _cmp(xs[-1], p, d) >= 0:
            raise PreconditionError("breakpoints must lie in [0, p)")
        if any(_cmp(y0, y1, d) >= 0 for y0, y1 in zip(ys, ys[1:])):
            raise PreconditionError("breakpoint values must strictly increase")
        ex, ey = [*xs, _add(xs[0], p)], [*ys, _add(ys[0], p)]
        if _cmp(ey[-1], ys[-1], d) <= 0:
            raise PreconditionError("map is not monotone across the wrap segment")
        slopes = [_div(_sub(ey[i + 1], ey[i]), _sub(ex[i + 1], ex[i]), d) for i in range(len(xs))]
        self._set(d, p, *self._drop_collinear(xs, ys, slopes))

    @classmethod
    def _trusted(cls, d: int, p, xs, ys, slopes) -> "PLMap":
        """A map from canonical triples in the field d of the period p, with
        ``slopes[i]`` that of the segment leaving point i: for maps derived
        from canonical ones, where ``__init__`` would only repeat its checks."""
        f = object.__new__(cls)
        f._set(d, p, xs, ys, slopes)
        return f

    def _set(self, d: int, p, xs, ys, slopes) -> None:
        """Store canonical data, no kernel table yet, and the field decision: d
        if the map is irrational, else None (x's field); t's for a translation."""
        self._d, self._p, self._table = d, p, None
        self._xs, self._ys, self._slopes = tuple(xs), tuple(ys), tuple(slopes)
        values = ys[:1] if len(xs) == 1 else (p, *xs, *ys)
        self._field = d if any(v[1] for v in values) else None

    def _kernel(self):
        """The kernel table (``_kernel_table``), built on first use and kept."""
        self._table = self._table or _kernel_table(self)
        return self._table

    @staticmethod
    def _drop_collinear(xs, ys, slopes):
        """The breakpoints that are not collinear with their neighbours, and
        the slope of the segment leaving each, given that slope for every
        point.  Dropping a collinear point merges two segments of equal
        slope, so a kept point's slope is the one given for it."""
        keep = [i for i in range(len(xs)) if slopes[i - 1] != slopes[i]]
        if not keep:
            # Constant slope around the cycle forces slope 1: a translation.
            return (_ZERO,), (_sub(ys[0], xs[0]),), slopes[:1]
        return [xs[i] for i in keep], [ys[i] for i in keep], [slopes[i] for i in keep]

    # -- basic accessors --------------------------------------------------

    @property
    def period(self) -> QNum:
        return _make(*self._p, self._d)

    @property
    def breakpoints(self):
        return tuple((_make(*x, self._d), _make(*y, self._d)) for x, y in zip(self._xs, self._ys))

    def is_translation(self) -> bool:
        return len(self._xs) == 1

    @property
    def displacement(self) -> QNum:
        """Translation amount; only meaningful for translations."""
        if not self.is_translation():
            raise PreconditionError("not a translation")
        return _make(*self._ys[0], self._d)

    def displacement_range(self) -> tuple[QNum, QNum]:
        """Exact (min, max) of f(x) - x, attained at breakpoints."""
        lo, hi = self._displacement_extremes()
        return _make(*lo, self._d), _make(*hi, self._d)

    def _displacement_extremes(self) -> tuple:
        """``displacement_range`` as unreduced triples, as ``_cmp`` and ``_quot`` allow."""
        d, lo, hi = self._d, None, None
        for (xn, xm, xq), (yn, ym, yq) in zip(self._xs, self._ys):
            v = (yn * xq - xn * yq, ym * xq - xm * yq, xq * yq)
            if lo is None or _cmp(v, lo, d) < 0:
                lo = v
            if hi is None or _cmp(v, hi, d) > 0:
                hi = v
        return lo, hi

    @classmethod
    def translation(cls, t, period=1) -> "PLMap":
        """The map x -> x + t, carried at the given period."""
        d, p, _, [t] = _coerce_points(period, [(0, t)])
        if _sign(p[0], p[1], d) <= 0:
            raise PreconditionError("period must be positive")
        return cls._trusted(d, p, [_ZERO], [t], [_ONE])

    @classmethod
    def identity(cls, period=1) -> "PLMap":
        return cls.translation(0, period)

    # -- evaluation -------------------------------------------------------

    def __call__(self, x) -> QNum:
        """f(x), exact, as ``_image`` makes it; a non-QNum x is read in the period's field."""
        if type(x) is not QNum:
            x = as_qnum(x, self._d)
        d = self._field or x._d
        if x._m and x._d != d:  # _one_field, inline: once per call
            raise _mixed_fields(x._d, d)
        return self._image(x._n, x._m, x._q, d, _make)

    def _image(self, n: int, m: int, q: int, d: int, make):
        """``make(N, M, Q, d)`` for f(x) = (N + M*sqrt(d))/Q, unreduced, Q > 0, where
        x = (n + m*sqrt(d))/q is in the field d of the result: with k = floor((x - x_0)/p)
        and x - k*p in segment i, f(x) = s_i*(x - k*p) + b_i + k*p on ``_kernel_table``'s
        ints.  ``make`` (``_make`` or ``_reduced``) is passed in to save a tuple per call."""
        ip, p, xs, segs = self._table or self._kernel()
        if xs is None:
            tn, tm, tq = segs
            return make(n * tq + tn * q, m * tq + tm * q, q * tq, d)
        # k = floor((x - x_0) * ip).
        an, am, aq = xs[0]
        u = n * aq - an * q
        v = m * aq - am * q
        inn, inmd, inm, inq = ip
        k = _floor(u * inn + v * inmd, u * inm + v * inn, q * aq * inq, d)
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
        return make(
            a1 * rn + a2 * rm + (b1 + k * c1) * rq,
            a1 * rm + a3 * rn + (b2 + k * c2) * rq,
            f * rq,
            d,
        )

    # -- group operations -------------------------------------------------

    def inverse(self) -> "PLMap":
        """The graph reflected in the diagonal: segment i becomes the one
        leaving (y_i, x_i) with slope 1/s_i, reduced mod p; the ys lie in [y_0,
        y_0 + p), so that list is in order from the first moved down further."""
        p, d = self._p, self._d
        if self.is_translation():
            return PLMap._trusted(d, p, self._xs, [_sub(_ZERO, self._ys[0])], self._slopes)
        ms = [_floor(*_quot(y, p, d), d) for y in self._ys]
        r = next((i for i, m in enumerate(ms) if m != ms[0]), 0)
        segs = [(_sub(y, mp), _sub(x, mp), _div(_ONE, s, d)) for x, y, s, mp in zip(
            self._xs, self._ys, self._slopes, [_mul(p, (m, 0, 1), d) for m in ms])]
        return PLMap._trusted(d, p, *zip(*segs[r:], *segs[:r]))

    def compose(self, other: "PLMap") -> "PLMap":
        """self after other: x -> self(other(x)).  Two translations give the
        translation by the sum.  Otherwise maps of two periods are first
        carried at one: a translation at the other map's period, two other
        maps at a common multiple of theirs."""
        f, g = self, other
        df, dg = f._field, g._field
        if df is not None and dg is not None and df != dg:  # _one_field, inline: once per compose
            raise _mixed_fields(df, dg)
        same = f._p == g._p and (not f._p[1] or f._d == g._d)
        if f.is_translation() and g.is_translation():
            # At g's period, but at f's when they are equal or g's is
            # irrational in a field other than the sum's.
            e = df or dg
            t = _add(f._ys[0], g._ys[0])
            h = f if same or t[1] and g._p[1] and g._d != e else g
            return PLMap._trusted(e if t[1] else h._d, h._p, [_ZERO], [t], [_ONE])
        if not same:
            # A translation moves to the other period: in t's field, or else that period's.
            if f.is_translation():
                f = PLMap._trusted(f._field or g._d, g._p, f._xs, f._ys, f._slopes)
            elif g.is_translation():
                g = PLMap._trusted(g._field or f._d, f._p, g._xs, g._ys, g._slopes)
            else:
                n, m, q = _div(f._p, g._p, g._d if g._p[1] else f._d)
                if m:
                    raise PeriodMismatchError(
                        f"periods {f.period} and {g.period} are incommensurable")
                f, g = f._tiled(q), g._tiled(n)
        return f._compose_equal_period(g)

    def _tiled(self, k: int) -> "PLMap":
        """The same homeomorphism represented with period k*p; only called
        on non-translations, whose breakpoints all stay canonical."""
        p, d = self._p, self._d
        shifts = [_mul(p, (j, 0, 1), d) for j in range(k)]
        xs, ys = ([_add(v, c) for c in shifts for v in vs] for vs in (self._xs, self._ys))
        return PLMap._trusted(d, _mul(p, (k, 0, 1), d), xs, ys, self._slopes * k)

    def _compose_equal_period(self, g: "PLMap") -> "PLMap":
        """self after g, both of period p, in one sweep over w = g(x).

        g maps [x_0, x_0 + p) onto [y_0, y_0 + p).  The breakpoints of the
        composite there are g's, at w = y_i, and the pull-backs of f's,
        moved by multiples of p into [y_0, y_0 + p); the two lists are
        merged in order of w, a pair with equal w making one event.  An f
        breakpoint (u, v) pulls back through g's current segment to
        x = x_i + (u - y_i)/s_i with value v.  A g breakpoint takes the
        value v + s*(y_i - u) of the f breakpoint (u, v) last passed and its
        slope s, so no kernel table is built.  Each event's outgoing slope
        is the product of the current slopes of f and g.  Points at or
        beyond p move down by p to the front, and points whose slope equals
        the previous one (cyclically) are dropped, giving canonical form.
        """
        f, p, y0 = self, self._p, g._ys[0]
        # The one field of the work and the result; ``compose`` has rejected two.
        d = f._field or g._field or f._d
        # Moved by c*p, f's breakpoints before index `split` land in
        # [y_0, y_0 + p) and the rest at or above y_0 + p, so those move by
        # (c - 1)*p instead; starting at `split`, the moved list is in order.
        fx, fy, fs = f._xs, f._ys, f._slopes
        cp = _mul(p, (-_floor(*_quot(_sub(fx[0], y0), p, d), d), 0, 1), d)
        top = _sub(_add(y0, p), cp)
        split = next((i for i, u in enumerate(fx) if _cmp(u, top, d) >= 0), len(fx))
        low = _sub(cp, p)
        fev = [(_add(u, low), _add(v, low), s) for u, v, s in zip(fx[split:], fy[split:], fs[split:])]
        fev += [(_add(u, cp), _add(v, cp), s) for u, v, s in zip(fx[:split], fy[:split], fs[:split])]

        xs, ys, slopes = [], [], []
        # The f breakpoint last passed and its slope; first, the last moved down by p.
        fw, fv, sf = _sub(fev[-1][0], p), _sub(fev[-1][1], p), fev[-1][2]
        j, nf = 0, len(fev)
        for x, y, sg in zip(g._xs, g._ys, g._slopes):
            # f breakpoints on g's previous segment (x_i, y_i, s_i); none
            # lie below y_0.
            while j < nf and (c := _cmp(fev[j][0], y, d)) < 0:
                fw, fv, sf = fev[j]
                xs.append(_add(xi, _div(_sub(fw, yi), si, d)))
                ys.append(fv)
                slopes.append(_mul(sf, si, d))
                j += 1
            xs.append(x)
            if j < nf and not c:
                fw, fv, sf = fev[j]
                j += 1
                ys.append(fv)
            else:
                ys.append(_add(_mul(_sub(y, fw), sf, d), fv))
            slopes.append(_mul(sf, sg, d))
            xi, yi, si = x, y, sg
        last_g = len(xs)
        for w, v, sf in fev[j:]:
            xs.append(_add(xi, _div(_sub(w, yi), si, d)))
            ys.append(v)
            slopes.append(_mul(sf, si, d))
        # Only pull-backs on g's last segment, [x_{k-1}, x_0 + p), can
        # reach p.
        for i in range(last_g, len(xs)):
            if _cmp(xs[i], p, d) >= 0:
                xs = [_sub(x, p) for x in xs[i:]] + xs[:i]
                ys = [_sub(y, p) for y in ys[i:]] + ys[:i]
                slopes = slopes[i:] + slopes[:i]
                break
        return PLMap._trusted(d, p, *PLMap._drop_collinear(xs, ys, slopes))

    def pow(self, n: int) -> "PLMap":
        if n < 0:
            return self.inverse().pow(-n)
        if n == 0:
            return PLMap.identity(self.period)
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result.compose(base)
            base = base.compose(base) if n > 1 else base
            n >>= 1
        return result

    def commutes(self, other: "PLMap") -> bool:
        return self.compose(other) == other.compose(self)

    def affine_conjugate(self, scale) -> "PLMap":
        """h o f o h^-1 for h(x) = x/scale; rescales the coordinate system."""
        scale = as_qnum(scale, self._d)
        if scale.sign() <= 0:
            raise PreconditionError("scale must be positive")
        # Scaling both coordinates keeps the order and the slopes.  The period
        # is scaled too, so it counts, though a translation's field ignores it.
        d = _one_field(self._d, self._p[1] and self._d, self._field, scale._m and scale._d)
        inv = _div(_ONE, _triple(scale), d)
        return PLMap._trusted(d, _mul(self._p, inv, d), [_mul(x, inv, d) for x in self._xs],
                              [_mul(y, inv, d) for y in self._ys], self._slopes)

    # -- equality ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLMap):
            return NotImplemented
        # Triples of one field are equal as values, so the field is compared
        # too; a translation (0, t) is one map of the line at any period.
        return (self._field == other._field and self._ys == other._ys and self._xs == other._xs
                and (self.is_translation() or self._p == other._p))

    def __hash__(self) -> int:
        return hash((self._field, self._xs, self._ys, None if self.is_translation() else self._p))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {y})" for x, y in self.breakpoints)
        return f"PLMap(period={self.period}, breakpoints=[{pts}])"

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
            return FixedPoints("all" if self._ys[0] == _ZERO else "none", (), ())
        p, xs, d = self._p, self._xs, self._d
        disps = [_sub(y, x) for x, y in zip(xs, self._ys)]
        points, intervals = [], []
        for u, end, s, v, v_end in zip(xs, xs[1:] + (p,), self._slopes, disps, disps[1:] + disps[:1]):
            if s == _ONE:
                if v == _ZERO:
                    intervals.append((u, end))
            elif v == _ZERO:
                points.append(u)
            elif _sign(v[0], v[1], d) == -_sign(v_end[0], v_end[1], d):
                x = _sub(u, _div(v, _sub(s, _ONE), d))
                if _cmp(x, p, d) < 0:
                    points.append(x)
                else:
                    points.insert(0, _sub(x, p))
        if xs[0] != _ZERO and intervals and intervals[-1][1] == p:
            intervals.insert(0, (_ZERO, xs[0]))  # the last diagonal beyond p
        # A zero at a diagonal's end is reported with the interval.
        points = [x for x in points
                  if not any(_cmp(lo, x, d) <= 0 <= _cmp(hi, x, d) for lo, hi in intervals)]
        if not points and not intervals:
            return FixedPoints("none", (), ())
        return FixedPoints("some", tuple(_make(*x, d) for x in points),
                           tuple((_make(*a, d), _make(*b, d)) for a, b in intervals))

    def period_group(self) -> "PeriodGroup":
        """The group of translations commuting with f.

        All the reals for a translation; otherwise discrete of the form
        (p/k)Z.  The graph of x -> f(x - c) + c is that of f moved by (c, c),
        and canonical breakpoints are exactly the slope changes, so f
        commutes with x -> x + c iff the move takes f's breakpoints, lifted
        to all of Z by (x_{i+n}, y_{i+n}) = (x_i + p, y_i + p), onto
        themselves.  The move keeps their order, so it takes each r places
        on for some r, and k moves by c = p/k go once around, so kr = n.
        Only divisors k of the breakpoint count n can commute, then, and
        the shift by p/k does iff x_{i+r} - x_i = c = y_{i+r} - y_i for
        every i.  The i < n - r decide it: from x_i, i < r, k - 1 steps of c
        reach x_{i+n-r} = x_i + p - c, and one more lands on x_{i+n}; so too
        for y.  Searching the divisors downwards finds the largest k; k = 1,
        the period itself, always commutes.  The search starts at n/2: k = n
        would take each breakpoint to the next with its slope, so every
        slope would be equal, as no two neighbouring slopes of f are.
        """
        if self.is_translation():
            return PeriodGroup(True, None)
        n, m, q = self._p
        return PeriodGroup(False, _make(n, m, q * self._shift_divisor(), self._d))

    def _shift_divisor(self) -> int:
        """The largest k such that f, not a translation, commutes with
        x -> x + p/k (see ``period_group``)."""
        n, slopes = len(self._xs), self._slopes
        for k in range(n // 2, 1, -1):
            # The shift moves each breakpoint n/k places on and keeps its
            # slope, so the slopes repeat first; that test is cheaper.
            if n % k == 0 and slopes[n // k:] + slopes[:n // k] == slopes:
                r, xs, ys, c = n // k, self._xs, self._ys, _div(self._p, (k, 0, 1), self._d)
                if all(_sub(xs[i + r], xs[i]) == c == _sub(ys[i + r], ys[i])
                       for i in range(n - r)):
                    return k
        return 1

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "period": str(self.period),
            "breakpoints": [{"x": str(x), "y": str(y)} for x, y in self.breakpoints],
        }

    @classmethod
    def from_json(cls, obj: dict, d: int | None = None) -> "PLMap":
        try:
            _only_keys(obj, ("period", "breakpoints"), "PL map")
            period = QNum.parse(obj["period"], d)
            pts = []
            for bp in obj["breakpoints"]:
                _only_keys(bp, ("x", "y"), "breakpoint")
                pts.append((QNum.parse(bp["x"], d), QNum.parse(bp["y"], d)))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed PL map object: {exc}") from exc
        return cls(period, pts)


def _only_keys(obj, keys, what: str) -> None:
    """Raise ``ParseError`` naming the first key of ``obj``, if it is a
    dict, that is not in ``keys``."""
    for key in obj if isinstance(obj, dict) else ():
        if key not in keys:
            raise ParseError(f"unknown {what} key {key!r}")


class FixedPoints(Record):
    """Fixed-point set of a PLMap over one period.

    ``kind`` (str) is "all" (identity), "none", or "some"; ``points`` and
    ``intervals`` are tuples, and diagonal segments are reported as closed
    intervals.
    """

    __slots__ = ("kind", "points", "intervals")

    def __bool__(self) -> bool:
        return self.kind != "none"


class PeriodGroup(Record):
    """Translations commuting with a map: all reals (``all_reals``, a bool),
    or ``step`` * Z (``step``, a QNum, or None with all reals)."""

    __slots__ = ("all_reals", "step")


class Exact(Record):
    """An exact translation number ``value`` (a QNum)."""

    __slots__ = ("value",)


class Bracket(Record):
    """A translation number between the QNums ``lo`` and ``hi``."""

    __slots__ = ("lo", "hi")

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi


# The rounded orbits of ``translation_number`` live on the grid of
# multiples of 2^-_GRID_BITS; a restart doubles the bits.
_GRID_BITS = 128


def _grid_rows(g: PLMap, bits: int):
    """The ints of one rounded step of the period-1 map g on the grid
    2^-bits, read from g's kernel table: ``(cuts, rows)``.

    A grid point X/2^bits of [0, 1) lies on row bisect_right(cuts, X), where
    cuts[i] = ceil(x_i*2^bits) for the breakpoint x_i.  Row i + 1 is the
    segment leaving x_i, and row 0 is [0, x_0), the last segment read one
    period down.  On a row (A, B, C, D, F),

        g(X/2^bits)*2^bits = (A*X + B + (C*X + D)*sqrt(d))/F,

    which is ``_kernel_table``'s (N + M*sqrt(d))/Q*2^bits at k = 0 with
    rn = X and rq = 2^bits; row 0 takes rn = X + 2^bits and subtracts 2^bits.
    """
    one = 1 << bits
    *_, segs = g._kernel()
    rows = [(a1, b1 * one, a3, b2 * one, f) for a1, _, a3, b1, _, b2, _, f in segs]
    a1, b, a3, e, f = rows[-1]
    rows.insert(0, (a1, b + (a1 - f) * one, a3, e + a3 * one, f))
    return [-_floor(-n * one, -m * one, q, g._d) for n, m, q in g._xs], rows


def _grid_step(cuts, rows, d, x: int, up: int) -> int:
    """g(x/2^bits)*2^bits = (n + t*sqrt(d))/f rounded down (up = 0) or up
    (up = 1), for a grid point x/2^bits of [0, 1): the floor is
    ``qfield._floor``, and the ceiling is derived from it as that
    docstring says."""
    a, b, c, e, f = rows[bisect_right(cuts, x)]
    n = a * x + b
    t = c * x + e
    k = _floor(n, t, f, d)
    return k + 1 if up and (t or n % f) else k


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
    d = g._field
    c = eps / p  # the largest width in g's units
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
                    done = _cmp(_triple(c), (hn * ld - ln * hd, 0, hd * ld), c._d) >= 0
                yield ln, ld, hn, hd, done or j == n, steps + j
        else:
            return
        steps += j
        bits *= 2


def _power(powers: dict, q: int) -> int:
    """Put F^q into ``powers``, a dict {j: F^j} that holds F^1, and return
    how many breakpoints the composes read.  F^q is the largest kept power
    j <= q doubled, or composed with F^(q - j) when q < 2*j, so a q whose
    two parts are kept costs one compose.  Counting down to j costs less
    than searching the keys."""
    read = 0
    while q not in powers:
        j = q - 1
        while j not in powers:
            j -= 1
        i = q - j if q < 2 * j else j
        if i not in powers:
            read += _power(powers, i)
        g, h = powers[i], powers[j]
        read += len(g._xs) + len(h._xs)
        powers[i + j] = g.compose(h)
    return read


def _orbit_test(h: PLMap, s, d: int) -> tuple[int, bool]:
    """(m, hit) for h = F^q and F's period s > 0, a triple in the field d:
    m = ceil(lo/s) and whether h moves a point by exactly m*s.  h - id takes
    every value in [lo, hi], its extremes at breakpoints, so hit says
    m <= floor(hi/s).  The floors are ``qfield._floor``, and the ceiling is
    derived from its floor as that docstring says."""
    lo, hi = h._displacement_extremes()
    kn, km, kq = _quot(lo, s, d)
    k = _floor(kn, km, kq, d)
    m = k + 1 if km or kn % kq else k
    return m, m <= _floor(*_quot(hi, s, d), d)


def _periodic_orbit(f: PLMap, max_denom: int, walk):
    """``Exact(tau(f))`` when some f^q with q <= max_denom is a translation
    or moves a point by exactly m*p, else the done bracket of ``walk``, a
    ``_rounded_walk`` of f, as a ``Bracket``.  The search steps the walk
    only as far as it needs, which may be past the done bracket.

    F is f carried at its least period p/k (``_shift_divisor``), on f's
    first n/k breakpoints (the shift by p/k rotates f's n by n/k), so
    tau_F = k*tau(f)/p and F^q = f^q.  F^q moves a point by exactly
    m*p/k iff tau_F = m/q (Ghys, *Groups acting on the circle*, 2001).  A
    failed test says more: the moves of F^q then lie strictly between two
    multiples of p/k, which bound q*tau_F.  So tau_F is kept in an open
    Stern-Brocot interval (a/b, c/d), whose fractions all have
    denominators of at least b + d, the denominator of its mediant M/q
    (Graham, Knuth and Patashnik, *Concrete Mathematics*, section 4.5).
    The walk's bracket [L, H] decides the mediant for free when it lies
    outside [k*L, k*H]; otherwise F^q is tested, and the interval halves
    at M/q either way.  The search ends when q exceeds max_denom, since
    no fraction of the interval then has a denominator up to max_denom.

    A hit gives tau(f) = p*M/(k*q), at the least q with tau_F = M/q.  It
    is exact if its denominator k*q/gcd(M, k) is at most max_denom, or if
    F^q is a translation.  Otherwise F^q - M*p/k is a map of infinite
    order with a fixed point, so no power of f up to max_denom is a
    translation or moves a point by a multiple of p.  Conversely, such a
    power f^j, j <= max_denom, makes q <= j, and when f^j is a
    translation so is F^q; so the search finds every answer, including a
    translation f^j whose value has a denominator above max_denom
    (f^5 = x + 1/2 with period 1 and tau = 1/10).

    The i-th test (from 0) is made at once if q >= 2^i: such tests cost
    no more composes than building F^q by squaring would, which an Exact
    answer needs anyway.  Before any other test the walk takes as many
    steps in all as the composes so far have read breakpoints, so that
    neither half does much more work than the other.
    """
    p = f.period
    k = f._shift_divisor()
    step = _div(f._p, (k, 0, 1), f._d)
    n = len(f._xs) // k
    powers = {1: PLMap._trusted(f._d, step, f._xs[:n], f._ys[:n], f._slopes[:n]) if k > 1 else f}
    bounds, done = (-1, 0, 1, 0, False, 0), None
    q, spent, tests = 1, 0, 0
    while q <= max_denom:
        # Test h = F^q.
        h = powers[q]
        if h.is_translation():
            return Exact(h.displacement / q)
        m, hit = _orbit_test(h, step, f._d)
        if hit:
            # tau_F = m/q, so m = M for q > 1.
            if k * q // gcd(m, k) <= max_denom:
                return Exact(p * Fraction(m, k * q))
            break
        # (m - 1)/q < tau_F < m/q
        if q == 1:
            a, b, c, d = m - 1, 1, m, 1
        elif m > M:
            a, b = M, q
        else:
            c, d = M, q
        # On to the next mediant that the walk does not rule out, and build
        # its power.
        while (q := b + d) <= max_denom:
            M = a + c
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
                spent += _power(powers, q)
                tests += 1
                break
    ln, ld, hn, hd, *_ = done or next(b for b in walk if b[4])
    return Bracket(p * Fraction(ln, ld), p * Fraction(hn, hd))


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
    The bracket comes from two orbits of 0 rounded onto a grid
    (``_rounded_walk``), whose ends are short fractions times p, in at most
    n = floor(2p/eps) + 1 steps on each grid; the same walk guides the one
    search for a periodic orbit (``_periodic_orbit``).  ``force_bracket``
    asks for a bracket even when the value tau is exact: it returns
    [tau - p/n, tau + p/n], whose width 2p/n is below eps.
    """
    p = f.period
    eps = as_qnum(eps, p.d)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if max_denom < 0:
        raise PreconditionError("max_denom must be >= 0")
    n = (2 * p / eps).floor() + 1
    if f.is_translation():
        tau = Exact(f.displacement)
    else:
        tau = _periodic_orbit(f, max_denom, _rounded_walk(f, eps, n))
    if force_bracket and isinstance(tau, Exact):
        return Bracket(tau.value - p / n, tau.value + p / n)
    return tau

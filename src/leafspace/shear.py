"""One-dimensional model of shearing a product foliation of a Z-cover.

All outputs are exploratory, and the CLI labels them so: the shadow-length
series reproduces the bookkeeping of the shear experiment, but nothing here
decides whether a sheared foliation keeps its leaf space.  The sheared
holonomy is a closed form, which ``leafspace shear-holonomy`` prints.  The
shear mu fixes the collar ends -eps and 1+eps, moves 1/2 up by delta
(monotone while 1/2 + delta < 1 + eps) and is the identity outside the
collar.  Level k acts as x -> mu(lam^k x) / lam^k, and for k >= 1 the window
ends magnify to points outside the collar, where mu is the identity, so
every level keeps the whole window, of width 1 + 2*eps.
"""

from __future__ import annotations

from ._record import Record
from .errors import PreconditionError
from .qfield import as_qnum

__all__ = [
    "ShadowReport",
    "shadow_length",
    "disjointness_check",
]


class ShadowReport(Record):
    """Curve length vs shadow length after n levels of expansion, as QNums:
    ``curve_length`` is n * t, unbounded in n; ``shadow`` is
    sum_{i=1..n} t / multiplier^i; ``limit`` is t / (multiplier - 1), and
    bounds every shadow."""

    __slots__ = ("curve_length", "shadow", "limit")


def shadow_length(t, multiplier, n: int) -> ShadowReport:
    """Exact partial sum of the contracted-shadow series.

    The curve climbs n levels at cost t each; its projection to the base
    level is contracted by the multiplier at every level, so the shadow is
    sum t/multiplier^i, bounded by t/(multiplier - 1) while the curve
    length n*t grows without bound.
    """
    t = as_qnum(t)
    lam = as_qnum(multiplier)
    if not lam > 1:
        raise PreconditionError("multiplier must exceed 1")
    if t.sign() <= 0:
        raise PreconditionError("t must be positive")
    if n < 1:
        raise PreconditionError("n must be >= 1")
    shadow = t * (1 - lam ** (-n)) / (lam - 1)
    return ShadowReport(curve_length=t * n, shadow=shadow, limit=t / (lam - 1))


def disjointness_check(support, shift) -> bool:
    """Exact disjointness of a circular support interval from its shift.

    The support is an interval mod 1; the check places a second copy
    shifted by the given amount and tests arc disjointness on the circle.
    """
    a = as_qnum(support[0])
    b = as_qnum(support[1])
    if not a < b:
        raise PreconditionError("support must be nondegenerate")
    shift = as_qnum(shift)
    length = b - a
    if length >= 1:
        return False
    # Arc disjointness mod 1: the shifted copy starts at a + shift; the two
    # arcs of equal length are disjoint iff the relative start offset lies
    # strictly between the arc length and 1 minus it.
    offset = shift - shift.floor()
    return length < offset < 1 - length

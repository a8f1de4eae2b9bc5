"""One-dimensional model of shearing a product foliation of a Z-cover.

All outputs of this module are exploratory, and the CLI labels them so:
the shadow-length series and the holonomy-domain traces reproduce the
quantitative bookkeeping of the shear experiment, but nothing here decides
whether a sheared foliation keeps its leaf space.  The holonomy trace has a
closed form; ``holonomy_domain_trace`` says why.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import PreconditionError
from .qfield import as_qnum

__all__ = [
    "ShadowReport",
    "HolonomyTrace",
    "shadow_length",
    "holonomy_domain_trace",
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
    if n < 1:
        raise PreconditionError("n must be >= 1")
    shadow = t * (1 - lam ** (-n)) / (lam - 1)
    return ShadowReport(curve_length=t * n, shadow=shadow, limit=t / (lam - 1))


class HolonomyTrace(Record):
    """The surviving transverse domain: ``width`` (a QNum) at levels 0 to
    ``levels`` - 1 (an int); ``flag`` is PERSISTS or SHRINKS_TO_POINT."""

    __slots__ = ("width", "levels", "flag")


def holonomy_domain_trace(multiplier, eps, delta, n: int, threshold=Fraction(1, 10**6)) -> HolonomyTrace:
    """Track the transverse interval surviving n levels of sheared holonomy.

    The shear mu fixes the collar ends -eps and 1+eps, moves the midpoint
    1/2 up by delta (monotone while 1/2 + delta < 1 + eps) and is the
    identity outside the collar.  At level k it acts in coordinates
    magnified by multiplier^k, so its effect on base coordinates is the
    conjugated map x -> mu(lam^k x) / lam^k; the surviving domain is the set
    of starting points whose images stay inside the collar window at every
    level.  mu fixes the window ends -eps and 1+eps, and for k >= 1 they
    magnify to points outside the collar, where mu is the identity, so
    every level keeps the whole window: its width 1 + 2*eps persists unless
    it is already below the threshold.
    """
    eps, delta = as_qnum(eps), as_qnum(delta)
    if delta < 0 or Fraction(1, 2) + delta >= 1 + eps:
        raise PreconditionError("delta must keep the shear monotone")
    if not as_qnum(multiplier) > 1:
        raise PreconditionError("multiplier must exceed 1")
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if n < 1:
        raise PreconditionError("n must be >= 1")
    width = 1 + 2 * eps
    if width < as_qnum(threshold):
        return HolonomyTrace(width, 1, "SHRINKS_TO_POINT")
    return HolonomyTrace(width, n + 1, "PERSISTS")


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

"""One-dimensional model of shearing a product foliation of a Z-cover.

All outputs of this module are EXPLORATORY: the shadow-length series and the
holonomy-domain traces reproduce the quantitative bookkeeping of the shear
experiment, but nothing here decides whether a sheared foliation keeps its
leaf space.  The holonomy trace has a closed form; ``holonomy_domain_trace``
says why.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .qfield import QNum, as_qnum

__all__ = [
    "ShearModel",
    "ShadowReport",
    "HolonomyTrace",
    "shadow_length",
    "holonomy_domain_trace",
    "disjointness_check",
]

EXPLORATORY = "EXPLORATORY"


@dataclass(frozen=True)
class ShadowReport:
    """Curve length vs shadow length after n levels of expansion."""

    n: int
    per_level_length: QNum
    multiplier: QNum
    curve_length: QNum  # n * t, unbounded in n
    shadow: QNum  # sum_{i=1..n} t / multiplier^i
    limit: QNum  # t / (multiplier - 1), bounds every shadow
    label: str = EXPLORATORY

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "t": str(self.per_level_length),
            "multiplier": str(self.multiplier),
            "curve_length": str(self.curve_length),
            "shadow": str(self.shadow),
            "limit": str(self.limit),
            "label": self.label,
        }


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
    return ShadowReport(
        n=n,
        per_level_length=t,
        multiplier=lam,
        curve_length=t * n,
        shadow=shadow,
        limit=t / (lam - 1),
    )


class _MonotonePL:
    """A strictly increasing PL map given by its graph points, identity
    outside the covered range."""

    def __init__(self, points) -> None:
        pts = [(as_qnum(x), as_qnum(y)) for x, y in points]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if not (x0 < x1 and y0 < y1):
                raise PreconditionError("graph points must strictly increase")
        self.points = pts

    def __call__(self, x):
        x = as_qnum(x)
        pts = self.points
        if x <= pts[0][0] or x >= pts[-1][0]:
            return x
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * ((x - x0) / (x1 - x0))


@dataclass(frozen=True)
class ShearModel:
    """Shear data: expansion multiplier, collar half-width, shear map.

    ``shear`` fixes the collar endpoints -eps and 1+eps and moves every
    interior point up; it is extended by the identity outside the collar.
    """

    multiplier: QNum
    eps: Fraction
    shear: _MonotonePL

    def __post_init__(self) -> None:
        # holonomy_domain_trace's closed form relies on all three.
        if not self.multiplier > 1:
            raise PreconditionError("multiplier must exceed 1")
        if self.eps <= 0:
            raise PreconditionError("eps must be positive")
        pts = self.shear.points
        if pts[0] != (-self.eps, -self.eps) or pts[-1] != (1 + self.eps, 1 + self.eps):
            raise PreconditionError("the shear must fix the collar ends -eps and 1+eps")

    @classmethod
    def build(cls, multiplier, eps, delta) -> "ShearModel":
        """Default shear: a single interior graph point displaced by delta."""
        eps = Fraction(eps)
        delta = Fraction(delta)
        if delta < 0 or Fraction(1, 2) + delta >= 1 + eps:
            raise PreconditionError("delta must keep the shear monotone")
        mid = Fraction(1, 2)
        points = [(-eps, -eps), (mid, mid + delta), (1 + eps, 1 + eps)]
        return cls(as_qnum(multiplier), eps, _MonotonePL(points))


@dataclass(frozen=True)
class HolonomyTrace:
    """Per-level surviving transverse domain.  EXPLORATORY output only."""

    lengths: tuple  # domain length after each level, starting at level 0
    flag: str  # PERSISTS or SHRINKS_TO_POINT
    shrink_level: int | None
    label: str = EXPLORATORY

    def to_json(self) -> dict:
        return {
            "lengths": [str(v) for v in self.lengths],
            "flag": self.flag,
            "shrink_level": self.shrink_level,
            "label": self.label,
        }


def holonomy_domain_trace(model: ShearModel, n: int, threshold=Fraction(1, 10**6)) -> HolonomyTrace:
    """Track the transverse interval surviving n levels of sheared holonomy.

    At level k the shear acts in coordinates magnified by multiplier^k, so
    its effect on base coordinates is the conjugated map
    x -> mu(lam^k x) / lam^k; the surviving domain is the set of starting
    points whose images stay inside the collar window at every level.  The
    window ends -eps and 1+eps magnify to points outside the collar, where
    mu is the identity, so every level keeps the whole window: its width
    1 + 2*eps persists unless it is already below the threshold.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    width = as_qnum(1 + 2 * model.eps)
    if width < as_qnum(threshold):
        return HolonomyTrace((width,), "SHRINKS_TO_POINT", 0)
    return HolonomyTrace((width,) * (n + 1), "PERSISTS", None)


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

import random
from fractions import Fraction

import pytest

from leafspace.plmap import PLMap


@pytest.fixture
def rng():
    return random.Random(12345)


def periodic_orbit_map(points, m, period=1):
    """PL map cyclically permuting the given points, shifted m periods."""
    pts = sorted(Fraction(p) for p in points)
    q = len(pts)
    bps = []
    for j, x in enumerate(pts):
        tgt = pts[(j + m) % q] + period * ((j + m) // q)
        bps.append((x, tgt))
    return PLMap(period, bps)

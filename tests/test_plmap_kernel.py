"""Differential tests of the integer evaluation kernel ``PLMap.__call__``
and of the maps ``PLMap`` derives without re-validating them.

``reference_call`` is the QNum formula the kernel replaced: floor the
position in periods, bisect the reduced point among the breakpoint x
values, and interpolate on that segment.  The draws cover rational maps and
maps over Q(sqrt d) with irrational periods such as 1/(1 + sqrt 2), points
at breakpoints and exactly at x_0 + k*p, negative points, coefficients up to
2^200, and points from another field than the map's.  The ``checked_*``
functions build each derived map through ``PLMap(p, pts)``, with every
check and the canonical form computed afresh.  The last section checks the
storage as triples: equality and hashing that see the field, the fields of
derived maps, and each operation on triples against its QNum reference.
"""

import json
from bisect import bisect_right
from fractions import Fraction
from importlib import resources
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from leafspace import plmap
from leafspace.action import evaluate_word, load_action_config
from leafspace.errors import FieldMismatchError, PreconditionError
from leafspace.plmap import FixedPoints, PeriodGroup, PLMap, _coerce_points, _grid_rows, _grid_step
from leafspace.qfield import QNum, as_qnum, sqrt_of

FIELDS = (2, 3, 5)
BIG = 2**200
ints = st.integers(-BIG, BIG) | st.integers(-50, 50)
dens = st.integers(1, BIG) | st.integers(1, 50)


def reference_call(f, x):
    """f(x) by QNum arithmetic, as evaluated before the integer kernel."""
    p = f.period
    pts = f.breakpoints
    x = as_qnum(x, p.d)
    x0 = pts[0][0]
    if p == 1:
        n = (x - x0).floor()
        shift = n
    else:
        n = ((x - x0) * p.inverse()).floor()
        shift = n * p
    xr = x - shift
    i = bisect_right([u for u, _ in pts], xr) - 1
    xi, yi = pts[i]
    return yi + segment_slopes(p, pts)[i] * (xr - xi) + shift


def segment_slopes(p, pts):
    """The slope of the segment leaving each point, the last through the
    wrap segment to (x_0 + p, y_0 + p), by QNum arithmetic."""
    ext = list(pts) + [(pts[0][0] + p, pts[0][1] + p)]
    return tuple((y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(ext, ext[1:]))


def stored_form(values, d):
    """The (n, m, q) triples a map of field d stores for ``values``, each
    of which must be rational or in that field."""
    assert all(v.is_rational() or v.d == d for v in values)
    return tuple((v._n, v._m, v._q) for v in values)


def qnums(d):
    return st.builds(
        lambda a, b, q, irrational: QNum(Fraction(a, q), Fraction(b, q) if irrational else 0, d),
        ints, ints, dens, st.booleans(),
    )


@st.composite
def periods(draw, d):
    kind = draw(st.sampled_from(["one", "rational", "unit", "irrational"]))
    if kind == "one":
        return QNum(1, 0, d)
    if kind == "rational":
        return QNum(Fraction(draw(st.integers(1, BIG)), draw(dens)), 0, d)
    if kind == "unit":
        return (1 + sqrt_of(d)).inverse()  # 1/(1 + sqrt d)
    # (a + b*sqrt d)/q > 0 with b != 0
    b = draw(ints.filter(bool))
    a = abs(b) * (d + 1) + draw(st.integers(0, BIG))
    q = draw(dens)
    return QNum(Fraction(a, q), Fraction(b, q), d)


@st.composite
def maps(draw, p=None):
    """A PL map with breakpoints x_i = u_i*p/D, y_i = v_i*p/D for sorted
    distinct integers u_i in [0, D) and v_i in [v_0, v_0 + D), so the map
    is monotone across the wrap segment; optionally conjugated by a shift
    into the field, which moves x_0 off 0.  The period p is drawn unless
    given, and then its ``d`` is the field of the shift."""
    if p is None:
        p = draw(periods(draw(st.sampled_from(FIELDS))))
    d = p.d
    k = draw(st.integers(1, 6))
    den = draw(st.integers(k + 1, BIG) | st.integers(k + 1, 40))
    if draw(st.booleans()):  # x_0 = 0, so floors of x/p meet exact integers
        us = [0] + sorted(draw(st.sets(st.integers(1, den - 1), min_size=k - 1, max_size=k - 1)))
    else:
        us = sorted(draw(st.sets(st.integers(0, den - 1), min_size=k, max_size=k)))
    v0 = draw(st.integers(-BIG, BIG) | st.integers(-40, 40))
    vs = sorted(draw(st.sets(st.integers(v0, v0 + den - 1), min_size=k, max_size=k)))
    f = PLMap(p, [(p * Fraction(u, den), p * Fraction(v, den)) for u, v in zip(us, vs)])
    if draw(st.booleans()):
        c = draw(qnums(d))
        shift = PLMap.translation(c, p)
        f = shift.compose(f).compose(shift.inverse())
    return f


@st.composite
def points(draw, f):
    """A point on the map's grid of breakpoints, or a free one."""
    p, pts = f.period, f.breakpoints
    k = draw(st.integers(-(2**70), 2**70) | st.integers(-5, 5))
    kind = draw(st.sampled_from(["x0", "breakpoint", "free", "near", "unit-near"]))
    if kind == "x0":
        return pts[0][0] + k * p
    x = draw(st.sampled_from([u for u, _ in pts]))
    if kind == "breakpoint":
        return x + k * p
    if kind == "unit-near":
        # Off x + k*p by (m*sqrt(d) - isqrt(m^2 d))*p, in (-p, p) with small
        # coefficients, where a floor decides by its last unit.
        m = draw(st.integers(-50, 50).filter(bool))
        delta = QNum(-isqrt(m * m * p.d) if m > 0 else isqrt(m * m * p.d), m, p.d)
        return x + k * p + delta * p
    free = draw(qnums(p.d))
    if kind == "free":
        return free
    return x + k * p + free / BIG  # just off a breakpoint


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_kernel_matches_reference(data):
    f = data.draw(maps())
    x = data.draw(points(f))
    got, want = f(x), reference_call(f, x)
    assert got == want and str(got) == str(want)
    if not want.is_rational():
        assert got.d == want.d


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_grid_step_rounds_the_exact_value(data):
    """The rounded-orbit kernel of ``translation_number``: on the period-1
    rescaling g of a drawn map, a grid point x/2^bits of [0, 1), at a
    breakpoint's cut, just below it or free, goes to the floor and the
    ceiling of g(x/2^bits)*2^bits."""
    f = data.draw(maps().filter(lambda f: not f.is_translation()))
    g = f.affine_conjugate(f.period)
    bits = data.draw(st.sampled_from([4, 64, 128]))
    one = 1 << bits
    cuts, rows = _grid_rows(g, bits)
    cut = data.draw(st.sampled_from(cuts))
    x = data.draw(st.sampled_from([cut, cut - 1]) | st.integers(0, one - 1))
    x = min(max(x, 0), one - 1)
    exact = g(Fraction(x, one)) * one
    assert _grid_step(cuts, rows, g._field, x, 0) == exact.floor()
    assert _grid_step(cuts, rows, g._field, x, 1) == -(-exact).floor()


@pytest.mark.parametrize("e", FIELDS)
def test_grid_step_at_every_point_of_a_coarse_grid(e):
    # Irrational slopes 1 + 2c and 1 - 2c, so t in t*sqrt(d) changes with
    # x and takes both signs, and small denominators, so that its floor
    # often decides the rounded value by its last unit.
    for c in (sqrt_of(e) / 10, -sqrt_of(e) / 10):
        g = PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(1, 2) + c)])
        cuts, rows = _grid_rows(g, 6)
        for x in range(64):
            exact = g(Fraction(x, 64)) * 64
            assert _grid_step(cuts, rows, e, x, 0) == exact.floor()
            assert _grid_step(cuts, rows, e, x, 1) == -(-exact).floor()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rational_map_takes_the_field_of_x(data):
    f = data.draw(maps().filter(lambda g: all(
        v.is_rational() for v in (g.period, *[c for pt in g.breakpoints for c in pt])
    )))
    e = data.draw(st.sampled_from((7, 11)))
    x = data.draw(qnums(e))
    got, want = f(x), reference_call(f, x)
    assert got == want and str(got) == str(want)
    if not x.is_rational():
        assert got.d == e


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FieldMismatchError:
        return FieldMismatchError


def field_of(h):
    """The field h is irrational in, or None.  A translation is the same map
    at any period, so its displacement alone decides."""
    if h.is_translation():
        values = [h.displacement]
    else:
        values = [h.period, *(v for pt in h.breakpoints for v in pt)]
    return next((v.d for v in values if not v.is_rational()), None)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_field_mismatch_parity(data):
    """Wherever the reference formula mixes two fields, the kernel raises
    FieldMismatchError too, except at a translation, which is x -> x + t at
    any period; elsewhere both give the same value.  The kernel raises
    exactly when an irrational x meets a map irrational in another field."""
    f = data.draw(maps())
    e = data.draw(st.sampled_from([d for d in (2, 3, 5, 7) if d != f.period.d]))
    x = data.draw(qnums(e) | points(f))
    got = _outcome(f, x)
    if f.is_translation():
        want = _outcome(x.__add__, f.displacement)
    else:
        want = _outcome(reference_call, f, x)
    field = field_of(f)
    assert (got is FieldMismatchError) == (field is not None and not x.is_rational() and x.d != field)
    if want is FieldMismatchError:
        assert got is FieldMismatchError
    elif got is not FieldMismatchError:
        assert got == want


def test_field_mismatch_on_a_rational_segment_of_an_irrational_map():
    # Segment [0, 1/4) is the identity with rational ends; the map is
    # irrational through its last breakpoint.  The reference touches no
    # irrational coefficient for x in that segment and returns x; the
    # kernel decides by the fields alone.  A translation by a rational
    # amount is rational at any period, so it takes every field.
    r2, r3 = sqrt_of(2), sqrt_of(3)
    f = PLMap(1, [(0, 0), (Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2) + r2 / 10)])
    assert reference_call(f, r3 / 100) == r3 / 100
    with pytest.raises(FieldMismatchError):
        f(r3 / 100)
    with pytest.raises(FieldMismatchError):
        PLMap.translation(r2)(r3)
    x = PLMap.translation(1, (1 + r2).inverse())(r3)  # irrational through its period only
    assert x == r3 + 1 and x.d == 3


@pytest.mark.parametrize("pts, kept", [
    ([(0, 0), (Fraction(1, 2), Fraction(3, 4))], 2),
    ([(0, 0), (Fraction(1, 4), Fraction(3, 8)), (Fraction(1, 2), Fraction(3, 4))], 2),
    # 1/8 and 7/8 lie on the wrap segment from (3/4, 1) to (5/4, 5/4)
    ([(Fraction(1, 8), Fraction(3, 16)), (Fraction(1, 4), Fraction(1, 4)), (Fraction(3, 4), 1),
      (Fraction(7, 8), Fraction(17, 16))], 2),
    # all collinear: a translation
    ([(0, sqrt_of(2)), (Fraction(1, 3), Fraction(1, 3) + sqrt_of(2))], 1),
])
def test_slopes_are_those_of_the_canonical_points(pts, kept):
    for f in (PLMap(1, pts), PLMap(1, pts).affine_conjugate(1 + sqrt_of(2))):
        assert len(f.breakpoints) == kept
        assert f._slopes == stored_form(segment_slopes(f.period, f.breakpoints), f.period.d)


@settings(max_examples=200, deadline=None)
@given(maps())
def test_slopes_match_a_second_pass(f):
    assert f._slopes == stored_form(segment_slopes(f.period, f.breakpoints), f.period.d)


# -- maps derived without re-validation --------------------------------------


def checked_translation(t, period):
    p, [(z, t)] = _coerce_points(period, [(0, t)])
    return PLMap(p, [(z, t)])


def checked_inverse(f):
    p = f.period
    pairs = []
    for x, y in f.breakpoints:
        m = (y / p).floor()
        pairs.append((y - m * p, x - m * p))
    return PLMap(p, sorted(pairs, key=lambda q: q[0]))


def checked_conjugate(f, scale):
    return PLMap(f.period / scale, [(x / scale, y / scale) for x, y in f.breakpoints])


def checked_tiled(f, k):
    p = f.period
    return PLMap(p * k, [(x + j * p, y + j * p) for j in range(k) for x, y in f.breakpoints])


def checked_translate_after(t, g):
    """x -> g(x) + t."""
    return PLMap(g.period, [(x, y + t) for x, y in g.breakpoints])


def checked_translate_before(f, t):
    """x -> f(x + t) for a map f that is not a translation."""
    p = f.period
    pairs = []
    for x, y in f.breakpoints:
        xs = x - t
        m = (xs / p).floor()
        pairs.append((xs - m * p, y - m * p))
    return PLMap(p, sorted(pairs, key=lambda q: q[0]))


def _derived(fn, *args):
    try:
        return fn(*args)
    except (FieldMismatchError, PreconditionError) as exc:
        return type(exc), str(exc)


def assert_same_map(got, want):
    """Equal as maps, and equal in every stored field: the field decision,
    the kernel table (built for both by ``_kernel`` if not yet) and the
    field of the period included."""
    if not isinstance(want, PLMap):
        assert got == want
        return
    assert got == want
    assert got.period == want.period and got.period.d == want.period.d
    assert got.breakpoints == want.breakpoints
    assert got._slopes == want._slopes
    assert got._field == want._field
    assert got._kernel() == want._kernel()


@settings(max_examples=200, deadline=None)
@given(maps())
def test_trusted_inverse(f):
    assert_same_map(_derived(f.inverse), _derived(checked_inverse, f))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trusted_affine_conjugate(data):
    """By rational scales and by scales in the map's field or another."""
    f = data.draw(maps())
    e = data.draw(st.sampled_from((f.period.d, f.period.d, 2, 3, 7)))
    scale = abs(data.draw(
        st.fractions(min_value=Fraction(1, 1000), max_value=1000).map(lambda q: QNum(q, 0, e))
        | qnums(e).filter(bool)
    ))
    assert_same_map(_derived(f.affine_conjugate, scale), _derived(checked_conjugate, f, scale))


@settings(max_examples=100, deadline=None)
@given(maps().filter(lambda f: not f.is_translation()), st.integers(1, 4))
def test_trusted_tiled(f, k):
    assert_same_map(f._tiled(k), checked_tiled(f, k))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trusted_translation(data):
    e = data.draw(st.sampled_from(FIELDS))
    t = data.draw(qnums(e) | st.fractions(max_denominator=50))
    period = data.draw(periods(data.draw(st.sampled_from(FIELDS))))
    if data.draw(st.booleans()):
        period = -period if data.draw(st.booleans()) else period * 0
    assert_same_map(
        _derived(PLMap.translation, t, period), _derived(checked_translation, t, period)
    )


def mixed_fields(f, g):
    """The one error for maps irrational in two fields, else None."""
    fields = {field_of(f), field_of(g)} - {None}
    if len(fields) < 2:
        return None
    a, b = sorted(fields)
    return FieldMismatchError, f"mixed fields: sqrt({a}) vs sqrt({b})"


def summed_translation(f, g):
    """f after g for two translations, built the checked way: the
    translation by the sum at g's period, or at f's where g's is irrational
    in another field than the sum's."""
    t = f.displacement + g.displacement
    want = _derived(checked_translation, t, g.period)
    return want if isinstance(want, PLMap) else checked_translation(t, f.period)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trusted_compose_with_a_translation(data):
    """A translation whose period differs from the other map's, in the
    map's field or another, so the field rule may re-field a rational
    period or raise.  Maps irrational in two fields raise the one
    mixed-fields message; an irrational period alone does not make a
    translation irrational, and two translations compose to the one by
    the sum."""
    g = data.draw(maps())
    e = data.draw(st.sampled_from((g.period.d, 2, 3, 5)))
    t = PLMap.translation(data.draw(qnums(e)), data.draw(periods(e)))
    message = mixed_fields(t, g)
    if message:
        assert _derived(t.compose, g) == message and _derived(g.compose, t) == message
        return
    if t.period == g.period:
        t = PLMap.translation(t.displacement, t.period * 2)
    if g.is_translation():
        assert_same_map(t.compose(g), summed_translation(t, g))
        assert_same_map(g.compose(t), summed_translation(g, t))
        return
    c = t.displacement
    assert_same_map(_derived(t.compose, g), _derived(checked_translate_after, c, g))
    assert_same_map(_derived(g.compose, t), _derived(checked_translate_before, g, c))


@pytest.mark.parametrize("e", [2, 5])
def test_translation_at_an_irrational_period_in_another_field(e):
    """A translation by a rational amount, or an identity, carried at a
    period irrational in Q(sqrt e), composes with maps irrational in
    Q(sqrt 3) of a rational period or of an irrational one."""
    h = PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(3, 4))])
    unit = (1 + sqrt_of(e)).inverse()
    for t in (PLMap.translation(Fraction(1, 3), unit), PLMap.translation(Fraction(1, 3), unit).pow(0)):
        for g in (moved_by(h, sqrt_of(3) / 10), h.affine_conjugate(1 + sqrt_of(3))):
            c = t.displacement
            assert_same_map(t.compose(g), checked_translate_after(c, g))
            assert_same_map(g.compose(t), checked_translate_before(g, c))


def test_trusted_translation_keeps_the_period_check():
    for period in (0, -1, -sqrt_of(2)):
        with pytest.raises(PreconditionError, match="period must be positive"):
            PLMap.translation(1, period)


# -- compose by one merge sweep ----------------------------------------------


def checked_compose(f, g):
    """f after g for maps of one period, composed the checked way: every
    breakpoint of g and every pull-back of one of f's through g's inverse,
    reduced mod p and sorted, with its value f(g(x)), through PLMap(p, pts)."""
    p = f.period
    ginv = g.inverse()
    xs = {x for x, _ in g.breakpoints}
    for x, _ in f.breakpoints:
        z = ginv(x)
        m = (z / p).floor()
        xs.add(z - m * p)
    return PLMap(p, [(x, f(g(x))) for x in sorted(xs)])


def moved_by(f, c):
    """x -> f(x - c) + c, built the checked way: f's graph moved by (c, c)."""
    return checked_translate_before(checked_translate_after(c, f), -c)


# Ways to make a map irrational through an irrational c: through its
# values, its points or both.
MOVES = {
    "unchanged": lambda h, c: h,
    "values": lambda h, c: checked_translate_after(c, h),
    "points": lambda h, c: checked_translate_before(h, c),
    "both": moved_by,
}


def at_one_period(f, g):
    """(f, g) for the checked compose when their periods differ and one is
    a translation: the translation rebuilt at the other map's period
    through ``PLMap(p, [(0, t)])``, or the error that raises.  Of two
    translations, f is rebuilt, or g where g's period cannot carry f."""
    if f.is_translation():
        moved = _derived(PLMap, g.period, [(0, f.displacement)])
        if isinstance(moved, PLMap) or not g.is_translation():
            return moved, g
    return f, _derived(PLMap, f.period, [(0, g.displacement)])


def checked_compose_of(same):
    """The checked compose of a pair of one period, or the error that
    building the pair raised."""
    failed = [h for h in same if isinstance(h, tuple)]
    return failed[0] if failed else _derived(checked_compose, *same)


@st.composite
def compose_pairs(draw):
    """(f, g, same): maps to compose, and the maps of one period that the
    checked compose takes for them: f and g themselves, both tiled to a
    common period, or a translation rebuilt at the other map's period."""
    kind = draw(st.sampled_from([
        "same", "translation", "inverse", "tie", "shifted", "commensurable", "fields",
        "other period",
    ]))
    if kind == "fields":
        # One rational period carried in two fields; each map is moved in
        # its field, or left as drawn.
        r = draw(st.fractions(min_value=Fraction(1, 50), max_value=50))
        pair = []
        for _ in range(2):
            h = draw(maps(QNum(r, 0, draw(st.sampled_from(FIELDS)))))
            c = draw(qnums(h.period.d).filter(lambda v: not v.is_rational()))
            pair.append(MOVES[draw(st.sampled_from(sorted(MOVES)))](h, c))
        return pair[0], pair[1], pair
    p = draw(periods(draw(st.sampled_from(FIELDS))))
    f, g = draw(maps(p)), draw(maps(p))
    if kind == "other period":
        # A translation in g's field or another, carried at another period
        # than g's.
        e = draw(st.sampled_from((p.d, 2, 3, 5)))
        q = draw(periods(e))
        assume(q != p)
        t = PLMap.translation(draw(qnums(e)), q)
        f, g = (t, g) if draw(st.booleans()) else (g, t)
        return f, g, at_one_period(f, g)
    if kind == "translation":
        side = draw(st.sampled_from(["left", "right", "both"]))
        if side != "right":
            f = PLMap.translation(draw(qnums(p.d)), p)
        if side != "left":
            g = PLMap.translation(draw(qnums(p.d)), p)
    elif kind == "inverse":
        g = f.inverse()
        if draw(st.booleans()):
            f, g = g, f
    elif kind == "tie":
        # Move f so that one of its breakpoints lands on g's image of one
        # of g's breakpoints, mod p.
        assume(not f.is_translation())
        u = draw(st.sampled_from([u for u, _ in f.breakpoints]))
        y = draw(st.sampled_from([y for _, y in g.breakpoints]))
        f = moved_by(f, y - u + draw(st.integers(-3, 3)) * p)
    elif kind == "shifted":
        # g's y_0 far above p or below 0.
        m = draw(st.integers(1, 2**70) | st.integers(1, 5)) * draw(st.sampled_from([-1, 1]))
        g = checked_translate_after(m * p, g)
    elif kind == "commensurable":
        assume(not f.is_translation())
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        assume(a != b)
        g = draw(maps(p * Fraction(a, b)).filter(lambda h: not h.is_translation()))
        q = Fraction(b, a)  # f's period over g's
        return f, g, (f._tiled(q.denominator), g._tiled(q.numerator))
    if draw(st.booleans()):
        # Irrational periods through affine_conjugate.
        scale = draw(st.sampled_from([1 + sqrt_of(p.d), sqrt_of(p.d)]) | qnums(p.d).filter(bool).map(abs))
        f, g = f.affine_conjugate(scale), g.affine_conjugate(scale)
    return f, g, (f, g)


def assert_compose_matches(f, g, want):
    """f.compose(g) against ``want``, the checked compose's map or error.
    Maps irrational in two fields raise the one mixed-fields message, where
    the checked compose raises the same type; else the results are equal,
    or the errors are of one type."""
    got = _derived(f.compose, g)
    message = mixed_fields(f, g)
    if message:
        assert got == message
        assert want[0] is FieldMismatchError
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and got[0] is want[0]
    else:
        assert_same_map(got, want)


@settings(max_examples=500, deadline=None)
@given(compose_pairs())
def test_compose_matches_the_checked_compose(pair):
    f, g, same = pair
    assert_compose_matches(f, g, checked_compose_of(same))


@pytest.mark.parametrize("f_move", MOVES)
@pytest.mark.parametrize("g_move", MOVES)
@pytest.mark.parametrize("fields", [(2, 3), (3, 2), (5, 5)])
def test_compose_across_fields(f_move, g_move, fields):
    """Rational maps of period 1 made irrational through their values,
    their points or both, in two fields or one, in both orders."""
    h = PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(3, 4)), (Fraction(2, 3), Fraction(5, 6))])
    f = MOVES[f_move](h, sqrt_of(fields[0]) / 7)
    g = MOVES[g_move](h.inverse(), sqrt_of(fields[1]) / 10)
    for a, b in ((f, g), (g, f)):
        assert_compose_matches(a, b, _derived(checked_compose, a, b))
    # Across two periods: f carried at the irrational period 1/(1 + sqrt a),
    # and a translation of period 1 in the second field.
    f = f.affine_conjugate(1 + sqrt_of(fields[0]))
    t = PLMap.translation(sqrt_of(fields[1]) / 5, 1)
    for a, b in ((f, t), (t, f)):
        assert_compose_matches(a, b, checked_compose_of(at_one_period(a, b)))


@settings(max_examples=100, deadline=None)
@given(maps())
def test_compose_with_the_inverse_is_the_identity(f):
    for h in (f.compose(f.inverse()), f.inverse().compose(f)):
        assert h.breakpoints == ((0, 0),) and h._slopes == stored_form([QNum(1)], h.period.d)
        assert_same_map(h, PLMap.identity(f.period))


def test_compose_builds_no_checked_map(monkeypatch):
    r2 = sqrt_of(2)
    f = PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(3, 4))])
    g = PLMap(1, [(0, r2 / 10), (Fraction(1, 3), Fraction(1, 2))])
    want = checked_compose(f, g)

    def refuse(*args):
        raise AssertionError("compose built a checked map or an inverse")

    monkeypatch.setattr(PLMap, "__init__", refuse)
    monkeypatch.setattr(PLMap, "inverse", refuse)
    assert_same_map(f.compose(g), want)
    assert_same_map(f.compose(f).compose(g).compose(g), f.pow(2).compose(g.pow(2)))


# -- kernel tables on first evaluation ---------------------------------------


def count_kernel_tables(monkeypatch):
    """The maps whose kernel table is built from now on, in order."""
    built = []
    build = plmap._kernel_table
    monkeypatch.setattr(plmap, "_kernel_table", lambda f: built.append(f) or build(f))
    return built


def test_compose_builds_no_kernel_table(monkeypatch):
    # The g breakpoints meet no f breakpoint, so every one takes its value
    # from the f breakpoint below it; h is irrational in x.
    r2 = sqrt_of(2)
    f = PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(3, 4))])
    g = PLMap(1, [(Fraction(1, 7), r2 / 10), (Fraction(1, 3), Fraction(1, 2))])
    h = PLMap(1, [(r2 / 5, Fraction(1, 3)), (Fraction(5, 6), Fraction(7, 8))])
    built = count_kernel_tables(monkeypatch)
    fgh = f.compose(g).compose(h)
    f8 = f.pow(8)
    assert built == []
    assert fgh == checked_compose(checked_compose(f, g), h)
    x = Fraction(2, 9)
    assert fgh(x) == f(g(h(x))) and f8(x) == f(f(f(f(f(f(f(f(x))))))))


def test_a_map_builds_its_kernel_table_once(monkeypatch):
    r2 = sqrt_of(2)
    f = PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(3, 4))])
    g = PLMap(1, [(Fraction(1, 7), r2 / 10), (Fraction(1, 3), Fraction(1, 2))])
    built = count_kernel_tables(monkeypatch)
    for m in (f.compose(g), PLMap(1 + r2, [(0, 1), (1, r2 + 1)]), PLMap.translation(r2, 1)):
        built.clear()
        assert m(Fraction(1, 3)) == reference_call(m, Fraction(1, 3))
        assert m(r2 / 3) == reference_call(m, r2 / 3)
        assert len(built) == 1 and built[0] is m
    # The rounded walk's rows read the same table as a call, and a forced
    # bracket builds no table but its map's.
    built.clear()
    _grid_rows(f, 8)
    f(Fraction(1, 3))
    _grid_rows(f, 16)
    assert len(built) == 1 and built[0] is f
    probe = PLMap(1, [(0, Fraction(1, 5)), (Fraction(1, 2), Fraction(3, 5))])
    built.clear()
    plmap.translation_number(probe, Fraction(1, 100), max_denom=4, force_bracket=True)
    assert len(built) == 1 and built[0] is probe


# -- fixed points from the stored segments -----------------------------------


def reference_fixed_points(f):
    """f.fixed_points() as computed before it read the stored segments: every
    segment of a 2k+1-point list (the breakpoints moved down by p, then as
    stored, then the first moved up by p) that meets (0, p), its slope
    divided out afresh, then a merge of touching intervals."""
    if f.is_translation():
        return FixedPoints("all" if not f.displacement else "none", (), ())
    p, pts = f.period, f.breakpoints
    zero = p * 0
    ext = [(x - p, y - p) for x, y in pts] + list(pts)
    ext.append((pts[0][0] + p, pts[0][1] + p))
    points, intervals = [], []
    for (u1, v1), (u2, v2) in zip(ext, ext[1:]):
        if not u2 > zero or not u1 < p:
            continue
        s = (v2 - v1) / (u2 - u1)
        if s == 1:
            if v1 == u1:
                intervals.append((u1 if u1 > zero else zero, u2 if u2 < p else p))
            continue
        xstar = (v1 - s * u1) / (1 - s)
        if u1 <= xstar <= u2 and zero <= xstar < p:
            points.append(xstar)
    points = sorted(set(points))
    merged = []
    for lo, hi in intervals:
        if merged and merged[-1][1] == lo:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    points = [x for x in points if not any(lo <= x <= hi for lo, hi in merged)]
    if not points and not merged:
        return FixedPoints("none", (), ())
    return FixedPoints("some", tuple(points), tuple(merged))


@st.composite
def maps_with_fixed_points(draw):
    """A map whose displacement at each breakpoint is -1, 0 or 1 grid steps
    of p/D, so that runs of zeros give diagonal segments and sign changes
    give isolated fixed points; moved by (c, c) for a c on the grid or in
    the field, which gives x_0 > 0 and diagonals across the wrap."""
    p = draw(periods(draw(st.sampled_from(FIELDS))))
    k = draw(st.integers(1, 6))
    cells = draw(st.integers(k, k + 12))
    den = 3 * cells
    us = sorted(draw(st.sets(st.integers(0, cells - 1), min_size=k, max_size=k)))
    es = draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=k, max_size=k))
    f = PLMap(p, [(p * Fraction(3 * u, den), p * Fraction(3 * u + e, den)) for u, e in zip(us, es)])
    c = draw(
        st.integers(-den, 2 * den).map(lambda j: p * Fraction(j, den))
        | qnums(p.d)
        | st.just(p * 0)
    )
    return moved_by(f, c) if c else f


def _text(fp):
    return fp.kind, [str(x) for x in fp.points], [(str(a), str(b)) for a, b in fp.intervals]


@settings(max_examples=1000, deadline=None)
@given(maps_with_fixed_points() | maps())
def test_fixed_points_match_the_reference(f):
    got, want = f.fixed_points(), reference_fixed_points(f)
    assert got == want and _text(got) == _text(want)


@pytest.mark.parametrize("c, n", [
    (Fraction(0), 2),  # a diagonal ends at p, and 0 is an isolated point
    (Fraction(1, 12), 3),  # a diagonal across the wrap
    (Fraction(1, 4), 2),  # a diagonal starts at 0
    (Fraction(5, 12), 2),
])
def test_fixed_points_with_a_diagonal_across_the_wrap(c, n):
    """f(x) = x at 0 and on [1/4, 1/2] and [3/4, 1], moved by (c, c)."""
    f = PLMap(1, [
        (0, 0), (Fraction(1, 8), Fraction(3, 16)), (Fraction(1, 4), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(1, 2)), (Fraction(5, 8), Fraction(9, 16)),
        (Fraction(3, 4), Fraction(3, 4)),
    ])
    g = moved_by(f, c) if c else f
    assert g.fixed_points() == reference_fixed_points(g)
    assert len(g.fixed_points().intervals) == n


# -- maps stored as triples --------------------------------------------------


def irrational_fields(values):
    return [v.d for v in values if not v.is_rational()]


def stored_fields(h):
    """period.d, and the field of each irrational coordinate, in order."""
    return h.period.d, irrational_fields(c for pt in h.breakpoints for c in pt)


def test_equal_triples_in_two_fields_are_unequal_maps():
    """A map keeps its triples without their field, so the same (n, m, q)
    data in Q(sqrt 2) and Q(sqrt 3) make two maps; ``==`` says so and does
    not raise."""
    def in_field(e):
        r = sqrt_of(e)
        return [
            PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(1, 2) + r / 10)]),
            PLMap(1 + r, [(0, 0), (1, 1 + r / 10)]),
            PLMap.translation(r / 3, 1),
        ]
    for f, g in zip(in_field(2), in_field(3)):
        assert (f._p, f._xs, f._ys, f._slopes) == (g._p, g._xs, g._ys, g._slopes)
        assert f != g and not f == g
        assert len({f, g}) == 2


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_equal_maps_hash_equally(data):
    f = data.draw(maps())
    same = [PLMap(f.period, f.breakpoints), f.inverse().inverse(),
            f.compose(PLMap.identity(f.period))]
    if f.is_translation():
        # The same map of the line at another period of its field.
        same.append(PLMap.translation(f.displacement, data.draw(periods(f.period.d))))
    for g in same:
        assert g == f and hash(g) == hash(f)


@pytest.mark.parametrize("config", ["flagship", "commensurable"])
def test_fields_on_the_shipped_configs(config):
    """Every map of a word of length 1 or 2 is in Q(sqrt 2): its period and
    each irrational coordinate, and each rational coordinate carries that
    field too."""
    text = resources.files("leafspace.configs").joinpath(f"{config}.json").read_text()
    spec = load_action_config(json.loads(text))
    letters = [(name, e) for name in spec.generators for e in (1, -1)]
    words = [[a] for a in letters] + [[a, b] for a in letters for b in letters]
    images = [h for h in (evaluate_word(spec, w) for w in words) if isinstance(h, PLMap)]
    assert len(images) > len(letters)
    for h in images:
        period_d, fields = stored_fields(h)
        assert period_d == 2 and set(fields) <= {2}
        assert all(c.d == 2 for pt in h.breakpoints for c in pt)


def reference_displacement_range(f):
    disps = [y - x for x, y in f.breakpoints]
    return min(disps), max(disps)


def reference_period_group(f):
    """The least step p/k, k dividing the breakpoint count, by which the
    checked ``moved_by`` moves f's graph onto itself."""
    if f.is_translation():
        return PeriodGroup(True, None)
    p, n = f.period, len(f.breakpoints)
    k = next(k for k in range(n, 0, -1) if n % k == 0 and moved_by(f, p * Fraction(1, k)) == f)
    return PeriodGroup(False, p * Fraction(1, k))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_triple_operations_match_the_references(data):
    """inverse, _tiled, affine_conjugate, fixed_points, period_group and
    displacement_range against the QNum references, fields included, on
    drawn maps and on maps tiled k times, whose period group is finer."""
    f = data.draw(maps() | maps_with_fixed_points())
    if not f.is_translation() and data.draw(st.booleans()):
        f = checked_tiled(f, data.draw(st.integers(2, 3)))
    scale = abs(data.draw(qnums(f.period.d).filter(bool)))
    pairs = [(f.inverse(), checked_inverse(f)),
             (_derived(f.affine_conjugate, scale), _derived(checked_conjugate, f, scale))]
    if not f.is_translation():
        k = data.draw(st.integers(1, 3))
        pairs.append((f._tiled(k), checked_tiled(f, k)))
    for got, want in pairs:
        assert_same_map(got, want)
        if isinstance(want, PLMap):
            assert stored_fields(got) == stored_fields(want)
    got, want = f.fixed_points(), reference_fixed_points(f)
    assert got == want and _text(got) == _text(want)
    got, want = f.period_group(), reference_period_group(f)
    assert got == want
    if want.step is not None:
        assert (str(got.step), got.step.d) == (str(want.step), want.step.d)
    got, want = f.displacement_range(), reference_displacement_range(f)
    assert got == want and [str(v) for v in got] == [str(v) for v in want]
    assert irrational_fields(got) == irrational_fields(want)

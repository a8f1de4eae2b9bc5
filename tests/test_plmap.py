import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leafspace import plmap
from leafspace.action import build_glued_action
from leafspace.errors import FieldMismatchError, PeriodMismatchError, PreconditionError
from leafspace.plmap import Bracket, Exact, PLMap, translation_number
from leafspace.qfield import QNum, _floor, _quot, _triple, qnum, sqrt_of
from leafspace.selftest import random_plmap, random_qnum

from conftest import periodic_orbit_map

R2 = sqrt_of(2)
BETA = PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(3, 4))])
# A period-1 map with no short periodic orbit; tau is about 0.14471.
PROBE = PLMap(1, [(0, Fraction(1, 5)), (Fraction(1, 2), Fraction(3, 5))])


@st.composite
def conjugated_translations(draw):
    """(f, tau): f = h o T_t o h^-1 for an irrational t of Q(sqrt e), e in
    2, 3 and 5, and a period-1 map h with two or three breakpoints
    (x/16, y/15), rescaled by 1 or 1 + sqrt(e); tau(f) = t/scale.  h is no
    translation: y - x is the same at two breakpoints only if 16 divides
    the gap between their x, which is below 16.  Nor is f, since f = T_t
    would make h commute with T_t, and the translations that commute with
    h are rational."""
    e = draw(st.sampled_from((2, 3, 5)))
    b = Fraction(draw(st.integers(1, 8)) * draw(st.sampled_from((1, -1))), draw(st.integers(1, 9)))
    t = QNum(Fraction(draw(st.integers(-40, 40)), 8), b, e)
    k = draw(st.integers(2, 3))
    xs = sorted(draw(st.lists(st.integers(0, 15), min_size=k, max_size=k, unique=True)))
    ys = sorted(draw(st.lists(st.integers(0, 14), min_size=k, max_size=k, unique=True)))
    h = PLMap(1, [(Fraction(x, 16), Fraction(y, 15)) for x, y in zip(xs, ys)])
    scale = draw(st.sampled_from((1, 1 + sqrt_of(e))))
    f = h.compose(PLMap.translation(t, 1)).compose(h.inverse()).affine_conjugate(scale)
    return f, t / scale


@st.composite
def rotnum_maps(draw):
    """Maps other than translations for the search for a periodic orbit: a
    periodic orbit of q <= 61 points, a random map, a random map of period
    1/k (k = 2 or 3) carried at period 1, or a conjugated irrational
    translation; the first three are carried at period 1, 3/2 or
    1/(1 + sqrt 2), a conjugate at 1 or 1/(1 + sqrt e) in its own field."""
    kind = draw(st.sampled_from(("orbit", "random", "tiled", "conjugate")))
    if kind == "conjugate":
        f, _ = draw(conjugated_translations())
        return f
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "orbit":
        q = draw(st.integers(2, 61))
        xs = rng.sample(range(4 * q), q)
        m = draw(st.integers(1, q - 1)) + q * draw(st.integers(-1, 1))
        f = periodic_orbit_map([Fraction(x, 4 * q) for x in xs], m)
    else:
        f = random_plmap(rng, max_breaks=3)
        while f.is_translation():
            f = random_plmap(rng, max_breaks=3)
        if kind == "tiled":
            k = draw(st.integers(2, 3))
            f = f.affine_conjugate(k)._tiled(k)
    return f.affine_conjugate(draw(st.sampled_from((1, Fraction(2, 3), 1 + R2))))


class TestConstruction:
    def test_translation_is_canonical_single_breakpoint(self):
        t = PLMap.translation(R2, 1)
        assert t.is_translation()
        assert t.breakpoints == ((qnum(0), R2),)
        assert PLMap(1, [(Fraction(1, 3), Fraction(1, 3) + R2)]) == t

    def test_collinear_breakpoints_removed(self):
        f = PLMap(1, [(0, 0), (Fraction(1, 4), Fraction(3, 8)), (Fraction(1, 2), Fraction(3, 4))])
        assert f == BETA

    def test_rejects_nonpositive_period(self):
        with pytest.raises(PreconditionError):
            PLMap(0, [(0, 0)])

    def test_rejects_non_monotone(self):
        with pytest.raises(PreconditionError):
            PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(-1, 4))])
        with pytest.raises(PreconditionError):
            PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(3, 2))])  # wrap fails

    def test_rejects_x_coordinates_that_do_not_increase(self):
        for pts in ([(Fraction(1, 2), 0), (Fraction(1, 4), Fraction(1, 2))],
                    [(0, 0), (0, Fraction(1, 2))]):
            with pytest.raises(PreconditionError, match="x-coordinates must strictly increase"):
                PLMap(1, pts)

    def test_displacement_of_a_non_translation_raises(self):
        with pytest.raises(PreconditionError, match="not a translation"):
            BETA.displacement

    def test_a_map_is_not_equal_to_a_number(self):
        assert (BETA == 3) is False and BETA != 3
        assert (PLMap.translation(3) == 3) is False

    def test_rejects_breakpoints_outside_period(self):
        with pytest.raises(PreconditionError):
            PLMap(1, [(2, 2)])

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError):
            PLMap(1, [])

    def test_rational_period_takes_the_breakpoints_field(self):
        f = PLMap.from_json(
            {"period": "1", "breakpoints": [{"x": "0", "y": "0"}, {"x": "1/2", "y": "0+1/4*sqrt(6)"}]}
        )
        assert f.period.d == 6
        r6 = sqrt_of(6)
        assert f("0+1/9*sqrt(6)") == f(r6 / 9)
        assert f.affine_conjugate("1+1*sqrt(6)") == f.affine_conjugate(1 + r6)

    def test_rejects_breakpoints_from_two_fields(self):
        # x in Q(sqrt 2) and y in Q(sqrt 3): every slope lies in Q(sqrt 2).
        with pytest.raises(FieldMismatchError, match=r"^mixed fields: sqrt\(2\) vs sqrt\(3\)$"):
            PLMap(1, [(0, sqrt_of(3) / 10), (R2 / 4, sqrt_of(3) / 10 + Fraction(1, 2))])


class TestOneFieldRule:
    """A translation is x -> x + t at any period, so t alone decides its
    field; maps irrational in two fields are unequal."""

    T = PLMap.translation(Fraction(1, 3), (1 + sqrt_of(5)).inverse())

    def test_translation_at_an_irrational_period_takes_every_field(self):
        assert self.T(R2) == R2 + Fraction(1, 3)
        for g in (BETA.affine_conjugate(1 + R2), PLMap(1, [(0, R2 / 10), (Fraction(1, 3), Fraction(1, 2))]),
                  PLMap.translation(R2, 1)):
            for x in (R2 / 7, Fraction(2, 5) - R2, qnum(3)):
                assert self.T.compose(g)(x) == self.T(g(x))
                assert g.compose(self.T)(x) == g(self.T(x))

    def test_translations_compose_to_the_sum_in_either_order(self):
        a = PLMap.translation(sqrt_of(5), 1)
        b = PLMap.translation(Fraction(1, 3), (1 + R2).inverse())
        for h in (a.compose(b), b.compose(a)):
            assert repr(h) == "PLMap(period=1, breakpoints=[(0, 1/3+1*sqrt(5))])"
            for x in (sqrt_of(5) / 3, Fraction(1, 7)):
                assert h(x) == a(b(x)) == b(a(x))
        assert self.T.compose(b) == PLMap.translation(Fraction(2, 3), 1)

    def test_maps_irrational_in_two_fields_are_unequal(self):
        f = PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(1, 2) + R2 / 10)])
        g = PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(1, 2) + sqrt_of(3) / 10)])
        assert not f == g and f != g
        assert PLMap.translation(R2) != PLMap.translation(sqrt_of(3))
        assert f.affine_conjugate(1 + R2) != g.affine_conjugate(1 + sqrt_of(3))
        with pytest.raises(FieldMismatchError, match=r"mixed fields: sqrt\(2\) vs sqrt\(3\)"):
            f.compose(g)

    def test_a_translations_period_counts_for_affine_conjugate(self):
        # A translation's field ignores its period, but the conjugate scales
        # that period too: flagship's alpha_l is x -> x + 1 at period
        # sqrt(2) - 1, and a scale in Q(sqrt 3) mixes the two fields.
        alpha_l = build_glued_action(1 + R2, R2).generator("alpha_l")
        assert alpha_l._field is None and alpha_l.period == R2 - 1
        for f in (alpha_l, PLMap.translation(1, 1 + R2)):
            with pytest.raises(FieldMismatchError, match=r"^mixed fields: sqrt\(2\) vs sqrt\(3\)$"):
                f.affine_conjugate(1 + sqrt_of(3))

    def test_text_points_are_read_in_their_own_field(self):
        # Text goes through the same rule as a QNum; rational text, like an
        # int or a Fraction, takes the period's field.
        assert BETA("0+1*sqrt(3)") == BETA(sqrt_of(3)) == 1 + sqrt_of(3) / 2
        assert self.T("0+1*sqrt(2)") == self.T(R2) == Fraction(1, 3) + R2
        assert self.T("1/3+0*sqrt(7)") == Fraction(2, 3) and self.T("1/3").d == 5

    def test_text_inputs_are_read_in_their_own_field(self):
        # Breakpoints, translation lengths and scales are read like points:
        # text in its own sqrt(e), before the map's field is decided.
        r3 = sqrt_of(3)
        f = PLMap(1, [(0, 0), (Fraction(1, 2), "1/2+1/10*sqrt(3)")])
        assert f == PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(1, 2) + r3 / 10)])
        assert repr(f) == "PLMap(period=1, breakpoints=[(0, 0), (1/2, 1/2+1/10*sqrt(3))])"
        g = BETA.affine_conjugate("1+1*sqrt(6)")
        assert g == BETA.affine_conjugate(1 + sqrt_of(6))
        assert str(g.period) == "-1/5+1/5*sqrt(6)"
        assert PLMap.translation("0+1*sqrt(3)", 1) == PLMap.translation(r3, 1)
        assert PLMap("1", [(0, "1/3")]) == PLMap.translation(Fraction(1, 3), 1)


class TestEval:
    def test_identity(self, rng):
        ident = PLMap.identity(1)
        for _ in range(20):
            x = random_qnum(rng)
            assert ident(x) == x

    def test_translation_eval(self):
        assert PLMap.translation(R2, 1)(0) == R2

    def test_equivariance(self, rng):
        for _ in range(100):
            f = random_plmap(rng)
            x = random_qnum(rng)
            assert f(x + 1) == f(x) + 1

    def test_breakpoints_interpolate(self, rng):
        for _ in range(50):
            f = random_plmap(rng)
            for x, y in f.breakpoints:
                assert f(x) == y


class TestGroupOps:
    def test_translations_compose(self):
        a, b = random_qnum(__import__("random").Random(7)), R2
        lhs = PLMap.translation(a, 1).compose(PLMap.translation(b, 1))
        assert lhs == PLMap.translation(a + b, 1)

    def test_inverse_roundtrip(self, rng):
        for _ in range(200):
            f = random_plmap(rng)
            assert f.compose(f.inverse()) == PLMap.identity(1)
            assert f.inverse().compose(f) == PLMap.identity(1)

    def test_inverse_of_translation(self):
        assert PLMap.translation(R2, 1).inverse() == PLMap.translation(-R2, 1)

    def test_pow_additive(self, rng):
        for _ in range(30):
            f = random_plmap(rng, max_breaks=3)
            m, n = rng.randint(-3, 3), rng.randint(-3, 3)
            assert f.pow(m + n) == f.pow(m).compose(f.pow(n))

    def test_associativity(self, rng):
        for _ in range(100):
            f, g, h = (random_plmap(rng) for _ in range(3))
            assert f.compose(g).compose(h) == f.compose(g.compose(h))

    def test_eval_composition_coherence(self, rng):
        for _ in range(100):
            f, g = random_plmap(rng), random_plmap(rng)
            x = random_qnum(rng)
            assert f.compose(g)(x) == f(g(x))

    def test_period_mismatch_raises(self):
        f = BETA
        g = BETA.affine_conjugate(R2)
        with pytest.raises(PeriodMismatchError):
            f.compose(g)

    def test_commensurable_periods_compose(self):
        g = BETA._tiled(2)
        h = BETA.compose(BETA)
        assert g.compose(BETA) == h._tiled(2) or g.compose(BETA)(Fraction(1, 3)) == h(Fraction(1, 3))


class TestCommutes:
    def test_with_own_powers(self, rng):
        for _ in range(20):
            f = random_plmap(rng)
            assert f.commutes(f.pow(3))

    def test_translations_commute(self):
        assert PLMap.translation(R2, 1).commutes(PLMap.translation(Fraction(1, 3), 1))

    def test_beta_does_not_commute_with_irrational_translation(self):
        assert not BETA.commutes(PLMap.translation(1 + R2, 1))

    def test_beta_commutes_with_unit_translation(self):
        assert BETA.commutes(PLMap.translation(1, 1))


class TestFixedPoints:
    def test_identity_all(self):
        assert PLMap.identity(1).fixed_points().kind == "all"

    def test_translation_none(self):
        assert PLMap.translation(R2, 1).fixed_points().kind == "none"

    def test_beta_fixes_zero(self):
        fp = BETA.fixed_points()
        assert fp.kind == "some"
        assert qnum(0) in fp.points
        assert BETA(0) == 0

    def test_diagonal_segment_reported_as_interval(self):
        f = PLMap(1, [(0, 0), (Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(5, 8))])
        fp = f.fixed_points()
        assert fp.intervals
        lo, hi = fp.intervals[0]
        assert lo == 0 and hi == Fraction(1, 4)


class TestTranslationNumber:
    def test_translation_exact(self):
        res = translation_number(PLMap.translation(1 + R2, 1))
        assert isinstance(res, Exact) and res.value == 1 + R2

    def test_fixed_point_forces_zero(self):
        res = translation_number(BETA)
        assert isinstance(res, Exact) and res.value == 0

    def test_forced_periodic_orbit(self):
        f = periodic_orbit_map([0, Fraction(3, 5)], 1)
        res = translation_number(f)
        assert isinstance(res, Exact) and res.value == Fraction(1, 2)
        g = periodic_orbit_map([0, Fraction(1, 5), Fraction(2, 5)], 2)
        res = translation_number(g)
        assert isinstance(res, Exact) and res.value == Fraction(2, 3)

    def test_bracket_contains_exact_value(self):
        f = periodic_orbit_map([0, Fraction(3, 5)], 1)
        res = translation_number(f, eps=Fraction(1, 10**6), force_bracket=True)
        assert isinstance(res, Bracket)
        assert res.hi - res.lo <= Fraction(1, 10**6)
        assert res.contains(Fraction(1, 2))

    def test_bracket_for_translation(self):
        res = translation_number(PLMap.translation(R2, 1), eps=Fraction(1, 10**6), force_bracket=True)
        assert res.contains(R2)

    @staticmethod
    def _reference_orbit(f, eps):
        """Exact(m*p/q) when the orbit of 0 closes, f^q(0) = m*p, within n
        steps, closure decided by building x/p as a Fraction; else the
        bracket [(f^n(0) - p)/n, (f^n(0) + p)/n] of the exact f^n(0)."""
        p = f.period
        n = (2 * p / eps).floor() + 1
        x = qnum(0, 0, p.d)
        for j in range(1, n + 1):
            x = f(x)
            shift = x / p
            if shift.is_rational() and shift.as_fraction().denominator == 1:
                return Exact(p * Fraction(shift.as_fraction().numerator, j))
        return Bracket((x - p) / n, (x + p) / n)

    def test_orbit_closure_matches_fraction_test(self, rng):
        periodic = [
            periodic_orbit_map([0, Fraction(3, 5)], 1),
            periodic_orbit_map([0, Fraction(1, 5), Fraction(2, 5)], 2, period=Fraction(3, 2)),
            periodic_orbit_map([0, Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)], -1),
        ]
        periodic += [f.affine_conjugate(1 + sqrt_of(e)) for e in (2, 3, 5) for f in periodic]
        randoms = [random_plmap(rng, max_breaks=3) for _ in range(8)]
        maps = periodic + randoms + [f.affine_conjugate(1 + R2) for f in randoms[:3]]
        # f(0) = -1 + sqrt 2: integer coefficients, yet not a multiple of p
        maps.append(PLMap(1, [(0, R2 - 1), (Fraction(1, 2), R2 - Fraction(3, 4))]))
        # At eps 1/1000 (n = 2001 on period 1) only orbits that close are
        # walked, since the others take seconds.
        closes = set()
        for eps, fs in [(Fraction(1, 50), maps), (Fraction(2, 7), maps),
                        (Fraction(3, 8), maps), (Fraction(1, 1000), periodic)]:
            for f in fs:
                if f.is_translation():
                    continue
                ref = self._reference_orbit(f, eps)
                if isinstance(ref, Exact) and f in periodic:
                    # The orbit of 0 closes within n steps: the exact search
                    # gives its value, and a forced bracket that value
                    # widened by p/n on each side.
                    p = f.period
                    n = (2 * p / eps).floor() + 1
                    assert translation_number(f, eps) == ref
                    forced = translation_number(f, eps, force_bracket=True)
                    assert forced == Bracket(ref.value - p / n, ref.value + p / n)
                    closes.add(True)
                    continue
                closes.add(False)
                for force in (False, True):
                    # max_denom=0 skips the search for a periodic orbit, so
                    # the rounded orbits decide; both results contain tau.
                    got = translation_number(f, eps, max_denom=0, force_bracket=force)
                    assert isinstance(got, Bracket) and got.hi - got.lo <= eps
                    lo, hi = (ref.value, ref.value) if isinstance(ref, Exact) else (ref.lo, ref.hi)
                    assert got.lo <= hi and lo <= got.hi
        assert closes == {False, True}

    @pytest.mark.parametrize("scale", [1, 1 + R2], ids=["rational", "conjugate"])
    def test_forced_bracket_of_an_orbit_that_misses_0_is_fast(self, scale):
        # tau = p/3 from the orbit 1/16 -> 5/16 -> 9/16 -> 17/16 (at scale 1);
        # the orbit of 0 never closes, and a rounded walk narrows only like
        # 1/j, so the bracket comes from the exact value.
        f = PLMap(1, [(Fraction(3, 16), Fraction(3, 8)), (Fraction(5, 16), Fraction(9, 16)),
                      (Fraction(9, 16), Fraction(17, 16))]).affine_conjugate(scale)
        eps = Fraction(1, 10**6)
        p = f.period
        n = (2 * p / eps).floor() + 1
        tau = p / 3
        t0 = time.perf_counter()
        res = translation_number(f, eps, force_bracket=True)
        elapsed = time.perf_counter() - t0
        assert res == Bracket(tau - p / n, tau + p / n) and res.hi - res.lo < eps
        assert elapsed < 0.1

    def test_bracket_memory_does_not_grow_with_the_orbit(self):
        # No short periodic orbit: the search tests powers of f up to the
        # 64th, and the rounded orbits hold one grid point each; a stored
        # exact orbit of n = 2001 takes MBs.
        tracemalloc.start()
        try:
            res = translation_number(PROBE, Fraction(1, 1000), force_bracket=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(res, Bracket) and res.hi - res.lo <= Fraction(1, 1000)
        assert peak < 0.25 * 2**20

    def test_exact_search_composes_only_what_it_tests(self, monkeypatch):
        # No q <= 16 hits.  Only the q that the rounded walk leaves are
        # tested, with powers built from kept ones: 4 composes, where
        # testing every q takes 15.  On the probe map at the default eps it
        # makes 8 (every q: 63).
        shift = PLMap.translation(R2 / 10, 1)
        rot = BETA.compose(shift).compose(BETA.inverse())
        calls = []
        compose = PLMap.compose
        monkeypatch.setattr(PLMap, "compose", lambda f, g: calls.append(1) or compose(f, g))
        res = translation_number(rot, Fraction(1, 100), max_denom=16)
        assert isinstance(res, Bracket) and len(calls) == 4
        calls.clear()
        res = translation_number(PROBE)
        assert isinstance(res, Bracket) and len(calls) == 8

    @staticmethod
    def _reference_exact_search(f, eps, max_denom):
        """The compose search: compose f^2, f^3, ... and test each
        q <= max_denom in turn; with no hit, the rounded walk's bracket
        alone."""
        p = f.period
        g = f
        for q in range(1, max_denom + 1):
            if g.is_translation():
                return Exact(g.displacement / q)
            lo, hi = g.displacement_range()
            m = -((-lo / p).floor())
            if m * p <= hi:
                return Exact(p * Fraction(m, q))
            g = g.compose(f)
        return translation_number(f, eps, max_denom=0)

    @settings(max_examples=150, deadline=None)
    @given(rotnum_maps(), st.integers(1, 4))
    def test_orbit_test_matches_the_displacement_range(self, f, q):
        # (m, hit) read on the breakpoints' ints is the QNum form of the
        # displacement range, m = ceil(lo/s) and m*s <= hi, at f's period
        # and at its least period.
        h = f.pow(q)
        p = f.period
        for step in {p, p * Fraction(1, f._shift_divisor())}:
            lo, hi = h.displacement_range()
            m = -((-lo / step).floor())
            assert plmap._orbit_test(h, _triple(step), step.d) == (m, m * step <= hi)

    @staticmethod
    def _reference_orbit_test(h, s, d):
        """The per-breakpoint form of ``plmap._orbit_test``: m is the least
        ceil((y - x)/s) and hit says m <= the largest floor((y - x)/s)."""
        floors, ceils = [], []
        for (xn, xm, xq), (yn, ym, yq) in zip(h._xs, h._ys):
            kn, km, kq = _quot((yn * xq - xn * yq, ym * xq - xm * yq, xq * yq), s, d)
            k = _floor(kn, km, kq, d)
            floors.append(k)
            ceils.append(k + 1 if km or kn % kq else k)
        m = min(ceils)
        return m, m <= max(floors)

    @settings(max_examples=150, deadline=None)
    @given(rotnum_maps(), st.integers(1, 4))
    def test_orbit_test_matches_the_per_breakpoint_test(self, f, q):
        # ceil and floor are monotone and s > 0, so the two extremes decide.
        h = f.pow(q)
        for step in {f.period, f.period * Fraction(1, f._shift_divisor())}:
            s, d = _triple(step), step.d
            assert plmap._orbit_test(h, s, d) == self._reference_orbit_test(h, s, d)

    def test_orbit_test_floors_a_negative_sqrt_part(self):
        # The displacement 1 - sqrt 2 at x = 0, over denominator 1, has
        # floor -1 and ceiling 0 only through the "- 1" that a negative
        # sqrt part takes; then m = 0 and 1/4 is a displacement above it.
        h = PLMap(1, [(0, 1 - R2), (Fraction(1, 4), Fraction(1, 2))])
        assert plmap._orbit_test(h, _triple(h.period), h.period.d) == (0, True)

    @settings(max_examples=150, deadline=None)
    @given(
        rotnum_maps(),
        st.sampled_from([0, 1, 2, 6, 16, 64]),
        st.sampled_from([Fraction(1, 100), Fraction(1, 10**4)]),
    )
    def test_exact_search_matches_the_compose_search(self, f, max_denom, eps):
        ref = self._reference_exact_search(f, eps, max_denom)
        got = translation_number(f, eps, max_denom)
        assert type(got) is type(ref)
        if isinstance(ref, Exact):
            assert got.value == ref.value
        else:
            assert (got.lo, got.hi) == (ref.lo, ref.hi)

    def test_seven_point_orbit_needs_max_denom_seven(self):
        f = periodic_orbit_map([0, Fraction(1, 10), Fraction(1, 4), Fraction(1, 3),
                                Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)], 3)
        for max_denom in (6, 7):
            ref = self._reference_exact_search(f, Fraction(1, 10**4), max_denom)
            assert translation_number(f, Fraction(1, 10**4), max_denom) == ref
        assert isinstance(ref, Exact) and ref.value == Fraction(3, 7)
        assert isinstance(translation_number(f, Fraction(1, 10**4), 6), Bracket)

    def test_maps_of_period_one_half(self):
        # f and g commute with x -> x + 1/2.  f^5 is the translation by 1/2,
        # so tau(f) = 1/10 is Exact from max_denom 5 on, as f^5 says.  g has
        # a periodic orbit of 3 points of [0, 1/2) that g^3 moves by 1/2, and
        # g^3 is no translation: tau(g) = 1/6 is Exact only from 6 on.  The
        # inverses have the negated values.
        half = Fraction(1, 2)
        h = PLMap(half, [(0, 0), (Fraction(1, 8), Fraction(1, 5))])
        f = h.compose(PLMap.translation(Fraction(1, 10), half)).compose(h.inverse())._tiled(2)
        g = PLMap(half, [(Fraction(1, 16), Fraction(5, 32)), (Fraction(1, 8), Fraction(1, 4)),
                         (Fraction(1, 4), half)])._tiled(2)
        assert f.pow(5) == PLMap.translation(half) and not g.pow(3).is_translation()
        cases = [(f, Fraction(1, 10), 5), (g, Fraction(1, 6), 6)]
        for fg, tau, least in cases + [(fg.inverse(), -tau, least) for fg, tau, least in cases]:
            for max_denom in (least - 1, least, 9):
                got = translation_number(fg, Fraction(1, 100), max_denom)
                assert got == self._reference_exact_search(fg, Fraction(1, 100), max_denom)
                assert isinstance(got, Exact) == (max_denom >= least)
            assert got.value == tau

    @settings(max_examples=60, deadline=None)
    @given(
        conjugated_translations(),
        st.sampled_from([Fraction(1, 100), Fraction(1, 10**4), Fraction(1, 10**6)]),
        st.booleans(),
    )
    def test_bracket_contains_an_irrational_translation_number(self, case, eps, force):
        f, tau = case
        res = translation_number(f, eps, max_denom=64, force_bracket=force)
        assert isinstance(res, Bracket)
        assert res.contains(tau) and res.hi - res.lo <= eps

    def test_rounded_walk_restarts_with_twice_the_bits(self, monkeypatch):
        # On a 2^-2 grid the rounded orbits drift a period apart within a
        # few steps, so the walk starts again from 0 on finer grids.
        bits = []
        grid_rows = plmap._grid_rows
        monkeypatch.setattr(plmap, "_GRID_BITS", 2)
        monkeypatch.setattr(plmap, "_grid_rows", lambda g, k: bits.append(k) or grid_rows(g, k))
        rot = BETA.compose(PLMap.translation(R2 / 10, 1)).compose(BETA.inverse())
        eps = Fraction(1, 10**4)
        res = translation_number(rot, eps, max_denom=0)
        assert bits[:2] == [2, 4]
        assert res.contains(R2 / 10) and res.hi - res.lo <= eps

    @pytest.mark.parametrize("force", [False, True])
    def test_probe_map_at_the_default_eps_is_fast(self, force):
        t0 = time.perf_counter()
        res = translation_number(PROBE, force_bracket=force)
        elapsed = time.perf_counter() - t0
        assert isinstance(res, Bracket) and res.hi - res.lo <= Fraction(1, 10**6)
        assert elapsed < 1.0

    def test_doubling(self, rng):
        for _ in range(10):
            f = random_plmap(rng, max_breaks=2)
            r1 = translation_number(f, eps=Fraction(1, 100), max_denom=8)
            r2 = translation_number(f.compose(f), eps=Fraction(1, 100), max_denom=8)
            lo1, hi1 = (r1.value, r1.value) if isinstance(r1, Exact) else (r1.lo, r1.hi)
            lo2, hi2 = (r2.value, r2.value) if isinstance(r2, Exact) else (r2.lo, r2.hi)
            assert lo2 <= 2 * hi1 and 2 * lo1 <= hi2

    def test_conjugation_invariance(self, rng):
        for _ in range(10):
            f = random_plmap(rng, max_breaks=2)
            g = random_plmap(rng, max_breaks=2)
            conj = g.compose(f).compose(g.inverse())
            r1 = translation_number(f, eps=Fraction(1, 100), max_denom=8)
            r2 = translation_number(conj, eps=Fraction(1, 100), max_denom=8)
            lo1, hi1 = (r1.value, r1.value) if isinstance(r1, Exact) else (r1.lo, r1.hi)
            lo2, hi2 = (r2.value, r2.value) if isinstance(r2, Exact) else (r2.lo, r2.hi)
            assert lo1 <= hi2 and lo2 <= hi1


class TestPeriodGroup:
    def test_translation_all_reals(self):
        assert PLMap.translation(R2, 1).period_group().all_reals

    def test_beta_step_one(self):
        pg = BETA.period_group()
        assert not pg.all_reals and pg.step == 1

    def test_tiled_pattern_halves_step(self):
        tiled = PLMap(
            1,
            [
                (0, 0),
                (Fraction(1, 4), Fraction(3, 8)),
                (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(3, 4), Fraction(7, 8)),
            ],
        )
        assert tiled.period_group().step == Fraction(1, 2)
        assert tiled.commutes(PLMap.translation(Fraction(1, 2), 1))

    def test_slopes_repeat_but_breakpoints_do_not(self):
        # The slopes 1/2, 3/2, 1/2, 3/2 pass the pre-test for the shift by
        # 1/2, but x_2 - x_0 = 3/8, so that shift does not commute.
        f = PLMap(1, [(0, 0), (Fraction(1, 8), Fraction(1, 16)),
                      (Fraction(3, 8), Fraction(7, 16)), (Fraction(3, 4), Fraction(5, 8))])
        assert f._slopes[2:] + f._slopes[:2] == f._slopes
        assert f.period_group().step == 1
        assert not f.commutes(PLMap.translation(Fraction(1, 2), 1))

    def test_reported_step_commutes_half_does_not(self, rng):
        for _ in range(50):
            f = random_plmap(rng)
            pg = f.period_group()
            if pg.all_reals:
                continue
            assert f.commutes(PLMap.translation(pg.step, 1))
            assert f.commutes(PLMap.translation(2 * pg.step, 1))
            if pg.step < 1:
                assert not f.commutes(PLMap.translation(pg.step / 2, 1))

    def test_contains_own_period(self, rng):
        for _ in range(30):
            f = random_plmap(rng)
            pg = f.period_group()
            if not pg.all_reals:
                steps = (1 / pg.step).as_fraction()
                assert steps.denominator == 1  # p is a multiple of the step


class TestCommutesWithShift:
    """``period_group``'s step against the compose-based ``commutes``: f
    commutes with x -> x + c iff c is a multiple of the step."""

    @staticmethod
    def _maps(rng):
        shift = PLMap.translation(R2, 1)
        yield PLMap.translation(R2 / 5, 1)
        for _ in range(6):
            f = random_plmap(rng)
            if f.is_translation():
                continue
            yield f
            yield f.affine_conjugate(1 + R2)  # period and breakpoints in Q(sqrt 2)
            yield shift.compose(f).compose(shift.inverse())  # period 1, irrational x
            yield f._tiled(rng.randint(2, 3))

    def test_matches_commutes(self, rng):
        seen = set()
        for f in self._maps(rng):
            p, n, pg = f.period, len(f.breakpoints), f.period_group()
            shifts = [j * p * Fraction(1, k) for k in range(1, n + 2) for j in range(-1, k + 2)]
            for c in shifts:
                expected = f.commutes(PLMap.translation(c, p))
                multiple = pg.all_reals or (c / pg.step).as_fraction().denominator == 1
                assert multiple == expected, (f, c)
                seen.add(expected)
        assert seen == {True, False}


class TestAffineConjugate:
    def test_translation_rescale(self):
        t = 1 + R2
        assert PLMap.translation(t, 1).affine_conjugate(t) == PLMap.translation(
            1, (1 + R2).inverse()
        )

    def test_identity_scale(self, rng):
        f = random_plmap(rng)
        assert f.affine_conjugate(1) == f

    def test_step_rescales(self, rng):
        for _ in range(20):
            f = random_plmap(rng)
            pg = f.period_group()
            if pg.all_reals:
                continue
            c = 1 + R2
            assert f.affine_conjugate(c).period_group().step == pg.step / c

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(PreconditionError):
            BETA.affine_conjugate(0)


class TestSerialization:
    def test_round_trip(self, rng):
        for _ in range(30):
            f = random_plmap(rng)
            assert PLMap.from_json(f.to_json()) == f

    def test_irrational_round_trip(self):
        f = BETA.affine_conjugate(1 + R2)
        assert PLMap.from_json(f.to_json()) == f

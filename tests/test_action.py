"""Tests for the two-piece action, its word images, and the certificate."""

import ast
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from leafspace import action, cli
from leafspace.action import (
    ActionSpec,
    _check_beta,
    _generator_moves,
    ComposedMap,
    build_glued_action,
    certify_nonuniform,
    evaluate_word,
    incompressible_interval_search,
    load_action_config,
    orbit_density,
    side_translation_subgroup,
    standard_beta,
)
from leafspace.errors import FieldMismatchError, ParseError, PreconditionError
from leafspace.plmap import PLMap
from leafspace.qfield import QNum, as_qnum, qnum, sqrt_of

R2 = sqrt_of(2)
FLAGSHIP = build_glued_action(1 + R2, R2)
COMMENSURABLE = build_glued_action(2 * R2, R2)


class TestBuild:
    def test_alpha_generators_are_unit_translations(self):
        for name, scale in (("alpha_l", 1 + R2), ("alpha_r", R2)):
            g = FLAGSHIP.generator(name)
            assert g.is_translation() and g.displacement == 1
            assert g.period == scale.inverse()

    def test_beta_period_rescaled(self):
        assert FLAGSHIP.generator("beta_l").period == (1 + R2).inverse()
        assert FLAGSHIP.generator("beta_r").period == R2.inverse()

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(PreconditionError):
            build_glued_action(0, R2)
        with pytest.raises(PreconditionError):
            build_glued_action(1 + R2, qnum(-1))

    def test_rejects_lengths_irrational_in_two_fields(self, monkeypatch):
        # Raised before any map is built: the default betas are never made.
        monkeypatch.setattr(action, "standard_beta", lambda d: pytest.fail("built a beta"))
        for t, s in [(1 + sqrt_of(3), sqrt_of(5)), (sqrt_of(5), 1 + sqrt_of(3))]:
            with pytest.raises(FieldMismatchError, match=r"^mixed fields: sqrt\(3\) vs sqrt\(5\)$"):
                build_glued_action(t, s)

    def test_rejects_translation_beta(self):
        with pytest.raises(PreconditionError):
            build_glued_action(1 + R2, R2, beta_l=PLMap.translation(Fraction(1, 2), 1))

    def test_rejects_beta_without_fixed_points(self):
        lifted = PLMap(1, [(0, Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4))])
        with pytest.raises(PreconditionError):
            build_glued_action(1 + R2, R2, beta_r=lifted)

    def test_rejects_wrong_period_beta(self):
        wide = PLMap(2, [(0, 0), (1, Fraction(3, 2))])
        with pytest.raises(PreconditionError):
            build_glued_action(1 + R2, R2, beta_l=wide)

    def test_load_config_defaults(self):
        spec = load_action_config({"t": "1+1*sqrt(2)", "s": "0+1*sqrt(2)"})
        assert spec.t == 1 + R2 and spec.s == R2
        assert spec.generator("beta_l") == standard_beta().affine_conjugate(spec.t)

    def test_load_config_missing_field(self):
        with pytest.raises(ParseError):
            load_action_config({"t": "1+1*sqrt(2)"})

    def test_load_config_d_must_be_an_int(self):
        for d in (2.7, 2.0, True, "2", None):
            with pytest.raises(ParseError):
                load_action_config({"d": d, "t": "1+1*sqrt(2)", "s": "0+1*sqrt(2)"})

    def test_load_config_rejects_non_text_numbers(self):
        for bad in ({"t": 1, "s": "2"}, {"t": "1", "s": None}, []):
            with pytest.raises(ParseError):
                load_action_config(bad)


@st.composite
def period_one_maps(draw, d=None):
    """A period-1 map through grid points, its displacement of either sign
    or both; optionally conjugated by an irrational shift.  In Q(sqrt d)
    for the given d, else for a d drawn from 2, 3 and 5."""
    d = d or draw(st.sampled_from((2, 3, 5)))
    k = draw(st.integers(1, 5))
    den = draw(st.integers(k + 1, 30))
    us = sorted(draw(st.sets(st.integers(0, den - 1), min_size=k, max_size=k)))
    v0 = draw(st.integers(-den, den))
    vs = sorted(draw(st.sets(st.integers(v0, v0 + den - 1), min_size=k, max_size=k)))
    f = PLMap(QNum(1, 0, d), [(Fraction(u, den), Fraction(v, den)) for u, v in zip(us, vs)])
    if draw(st.booleans()):
        shift = PLMap.translation(sqrt_of(d) * Fraction(draw(st.integers(1, 99)), 100), 1)
        f = shift.compose(f).compose(shift.inverse())
    return f


@settings(max_examples=300, deadline=None)
@given(period_one_maps())
def test_beta_check_accepts_exactly_the_maps_with_fixed_points(f):
    try:
        _check_beta(f, "beta")
    except PreconditionError as exc:
        if f.is_translation():
            assert "is a translation" in str(exc)
        else:
            assert not f.fixed_points()
            assert str(exc) == "beta must have fixed points in raw coordinates"
    else:
        assert f.fixed_points()


class TestWords:
    def test_single_side_word_is_plmap(self):
        g = evaluate_word(FLAGSHIP, [("alpha_l", 2), ("beta_l", 1)])
        assert isinstance(g, PLMap)
        assert g(0) == 2  # beta fixes 0, then translate twice

    def test_homomorphism_on_one_side(self):
        b = FLAGSHIP.generator("beta_l")
        a = FLAGSHIP.generator("alpha_l")
        word = evaluate_word(FLAGSHIP, [("beta_l", 1), ("alpha_l", 1)])
        assert word == b.compose(a)

    def test_inverse_word_cancels(self):
        g = evaluate_word(FLAGSHIP, [("beta_l", 1), ("beta_l", -1)])
        assert g.is_translation() and g.displacement == 0

    def test_cross_side_word_falls_back(self):
        g = evaluate_word(FLAGSHIP, [("beta_l", 1), ("beta_r", 1)])
        assert isinstance(g, ComposedMap)
        assert len(g.factors) == 2
        assert repr(g) == "ComposedMap(2 factors)"

    def test_cross_side_word_evaluates_its_factors_in_turn(self):
        word = [("beta_l", 2), ("alpha_r", 1), ("beta_r", -1), ("alpha_l", -1)]
        g = evaluate_word(FLAGSHIP, word)
        assert isinstance(g, ComposedMap) and len(g.factors) == len(word)
        for x in (R2 / 3, Fraction(5, 7) - 2 * R2, qnum(0), 1 + R2):
            want = x
            for name, exp in reversed(word):
                h = FLAGSHIP.generator(name)
                for _ in range(abs(exp)):
                    want = h(want) if exp > 0 else h.inverse()(want)
            assert g(x) == want and str(g(x)) == str(want)

    def test_cross_side_words_do_not_commute(self):
        lr = evaluate_word(FLAGSHIP, [("beta_l", 1), ("beta_r", 1)])
        rl = evaluate_word(FLAGSHIP, [("beta_r", 1), ("beta_l", 1)])
        probes = [Fraction(i, 7) for i in range(7)]
        assert any(lr(x) != rl(x) for x in probes)

    def test_alpha_words_commute_across_sides(self):
        lr = evaluate_word(FLAGSHIP, [("alpha_l", 1), ("alpha_r", 1)])
        rl = evaluate_word(FLAGSHIP, [("alpha_r", 1), ("alpha_l", 1)])
        assert lr.is_translation() and lr.displacement == 2
        assert lr == rl

    def test_rejects_bad_words(self):
        with pytest.raises(PreconditionError):
            evaluate_word(FLAGSHIP, [("gamma", 1)])
        with pytest.raises(PreconditionError):
            evaluate_word(FLAGSHIP, [("alpha_l", 0)])


class TestSideSubgroup:
    def test_rejects_an_unknown_side(self):
        # A side is named by its piece in action.PIECES, nothing else.
        for piece in ("up", "left", "beta_l", "L"):
            with pytest.raises(PreconditionError, match=f"^piece must be one of l, r, got {piece!r}$"):
                side_translation_subgroup(FLAGSHIP, piece)

    def test_rejects_a_translation_beta_in_a_spec_built_directly(self):
        # build_glued_action rejects such a beta; an ActionSpec built by
        # hand does not pass through that check.
        generators = {**FLAGSHIP.generators, "beta_l": PLMap.translation(Fraction(1, 2))}
        spec = ActionSpec(FLAGSHIP.d, FLAGSHIP.t, FLAGSHIP.s, generators)
        with pytest.raises(PreconditionError, match="^beta_l is a translation$"):
            side_translation_subgroup(spec, "l")
        assert side_translation_subgroup(spec, "r") == side_translation_subgroup(FLAGSHIP, "r")


class TestCertificate:
    def test_flagship_steps(self):
        assert side_translation_subgroup(FLAGSHIP, "l").step == R2 - 1
        assert side_translation_subgroup(FLAGSHIP, "r").step == R2 / 2

    def test_flagship_no_common_translation(self):
        cert = certify_nonuniform(FLAGSHIP)
        assert cert.verdict == "NO_COMMON_TRANSLATION"
        assert not cert.ratio_rational
        assert cert.quotient == 2 - R2
        assert cert.quotient.b != 0
        assert cert.common_translation is None

    def test_commensurable_common_translation(self):
        cert = certify_nonuniform(COMMENSURABLE)
        assert cert.verdict == "COMMON_TRANSLATION"
        assert cert.quotient == Fraction(1, 2)
        assert cert.common_translation == R2 / 2

    def test_common_translation_commutes_with_both_betas(self):
        cert = certify_nonuniform(COMMENSURABLE)
        tr = PLMap.translation(cert.common_translation, 1)
        assert tr.commutes(COMMENSURABLE.generator("beta_l"))
        assert tr.commutes(COMMENSURABLE.generator("beta_r"))

    def test_half_step_does_not_commute(self):
        cert = certify_nonuniform(COMMENSURABLE)
        tr = PLMap.translation(cert.common_translation / 2, 1)
        assert not tr.commutes(COMMENSURABLE.generator("beta_r"))

    def test_verdict_invariant_under_rational_rescale(self):
        q = Fraction(3, 2)
        for spec in (FLAGSHIP, COMMENSURABLE):
            rescaled = build_glued_action(q * spec.t, q * spec.s)
            assert certify_nonuniform(rescaled).verdict == certify_nonuniform(spec).verdict

    # The certificate's JSON form is written by the CLI, not by the record.

    def test_json_round_trippable_fields(self, capsys):
        assert cli.main(["certify", "--config", "flagship"]) == cli.EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "NO_COMMON_TRANSLATION"
        assert obj["quotient"] == "2-1*sqrt(2)"
        assert obj["common_translation"] is None

    def test_density_evidence_attached(self, capsys):
        assert cli.main(["certify", "--config", "flagship", "--density-word-len", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["density_evidence"]["max_word_len"] == 3


class TestOrbitDensity:
    def test_translation_only_orbit_leaves_full_gap(self):
        alphas = {name: FLAGSHIP.generator(name) for name in ("alpha_l", "alpha_r")}
        spec = ActionSpec(FLAGSHIP.d, FLAGSHIP.t, FLAGSHIP.s, alphas)
        rep = orbit_density(spec, 0, 3, (0, 1))
        assert rep.max_gap == 1.0
        assert rep.points_in_window == 1  # just the base point
        # With no generators at all, the orbit is the base point alone.
        empty = ActionSpec(FLAGSHIP.d, FLAGSHIP.t, FLAGSHIP.s, {})
        rep = orbit_density(empty, 0, 3, (0, 1))
        assert (rep.max_gap, rep.points_in_window, rep.orbit_size) == (1.0, 1, 1)

    def test_gap_shrinks_with_word_length(self):
        g3 = orbit_density(FLAGSHIP, 0, 3, (0, 1)).max_gap
        g5 = orbit_density(FLAGSHIP, 0, 5, (0, 1)).max_gap
        assert g5 <= g3 < 1.0

    def test_rejects_degenerate_window(self):
        with pytest.raises(PreconditionError):
            orbit_density(FLAGSHIP, 0, 3, (1, 1))
        with pytest.raises(PreconditionError):
            orbit_density(FLAGSHIP, 0, 0, (0, 1))
        # The word length is checked before the window.
        with pytest.raises(PreconditionError, match="max_word_len must be >= 1"):
            orbit_density(FLAGSHIP, 0, 0, (1, 1))


class TestIncompressible:
    def test_interval_near_attracting_fixed_point_compresses(self):
        res = incompressible_interval_search(FLAGSHIP, (0, Fraction(1, 4)), 2)
        assert res.kind == "COMPRESSED_BY"
        name, _ = res.word[0]
        assert name in FLAGSHIP.generators
        g = evaluate_word(FLAGSHIP, res.word)
        a, b = g(qnum(0)), g(Fraction(1, 4))
        inside = 0 <= a and b <= Fraction(1, 4)
        outside = a <= 0 and Fraction(1, 4) <= b
        assert inside or outside

    def test_translation_only_action_is_incompressible(self):
        spec = ActionSpec(
            d=2,
            t=qnum(1),
            s=qnum(1),
            generators={
                "alpha_l": PLMap.translation(1, 1),
                "alpha_r": PLMap.translation(R2, 1),
            },
        )
        res = incompressible_interval_search(spec, (0, Fraction(1, 4)), 3)
        assert res.kind == "INCOMPRESSIBLE_UP_TO_BOUND"
        assert res.word is None

    def test_rejects_degenerate_interval_and_word_length(self):
        # The interval is checked before the word length.
        with pytest.raises(PreconditionError, match="interval must be nondegenerate"):
            incompressible_interval_search(FLAGSHIP, (1, 1), 0)
        with pytest.raises(PreconditionError, match="interval must be nondegenerate"):
            incompressible_interval_search(FLAGSHIP, (Fraction(1, 2), 0), 3)
        with pytest.raises(PreconditionError, match="max_word_len must be >= 1"):
            incompressible_interval_search(FLAGSHIP, (0, 1), 0)


def reference_orbit_density(spec, x0, max_word_len, window):
    """orbit_density as it searched before repeated moves were dropped."""
    lo, hi = as_qnum(window[0], spec.d), as_qnum(window[1], spec.d)
    moves = []
    for name in spec.generators:
        moves += [spec.generator(name), spec.generator(name).inverse()]
    reach = max(abs(disp) for m in moves for disp in m.displacement_range())
    margin = reach * max_word_len + 1
    seen = {as_qnum(x0, spec.d)}
    frontier = list(seen)
    for _ in range(max_word_len):
        nxt = []
        for x in frontier:
            for m in moves:
                y = m(x)
                if y in seen or y < lo - margin or y > hi + margin:
                    continue
                seen.add(y)
                nxt.append(y)
        frontier = nxt
    inside = sorted(float(x) for x in seen if lo <= x < hi)
    seq = [float(lo)] + inside + [float(hi)]
    return max(b - a for a, b in zip(seq, seq[1:])), len(inside), len(seen)


def reference_incompressible(spec, interval, max_word_len):
    """incompressible_interval_search's witness word, or None, as found
    before repeated moves were dropped."""
    a, b = as_qnum(interval[0], spec.d), as_qnum(interval[1], spec.d)
    moves = []
    for name in spec.generators:
        g = spec.generator(name)
        moves += [((name, 1), g), ((name, -1), g.inverse())]
    seen = {(a, b)}
    frontier = [((a, b), ())]
    for _ in range(max_word_len):
        nxt = []
        for (u, v), word in frontier:
            for letter, m in moves:
                state = (m(u), m(v))
                if state in seen:
                    continue
                seen.add(state)
                uu, vv = state
                if ((a <= uu and vv <= b) or (uu <= a and b <= vv)) and state != (a, b):
                    return word + (letter,)
                nxt.append((state, word + (letter,)))
        frontier = nxt
    return None


SPECS = {
    "flagship": FLAGSHIP,
    "commensurable": COMMENSURABLE,
    "sqrt5": build_glued_action(qnum(Fraction(1, 2), 1, 5), qnum(3, Fraction(-1, 3), 5)),
    # beta has period 2 and attracts only at even integers, so an interval
    # around 1 is compressed first by a word through the unit translation.
    "period-2": ActionSpec(d=2, t=qnum(1), s=qnum(1), generators={
        "alpha_l": PLMap.translation(1, 1),
        "beta_l": PLMap(2, [(0, 0), (Fraction(1, 2), Fraction(1, 4)), (1, Fraction(3, 2)),
                            (Fraction(3, 2), Fraction(7, 4))]),
        "alpha_r": PLMap.translation(1, 1),
    }),
}


class TestRepeatedMoves:
    """The searches drop a move equal to an earlier one (alpha_l and
    alpha_r are both the unit translation); their results must equal a
    search that keeps every move."""

    def test_unit_translations_are_merged(self):
        moves = _generator_moves(FLAGSHIP)
        assert [letter for letter, _ in moves] == [
            ("alpha_l", 1), ("alpha_l", -1), ("beta_l", 1), ("beta_l", -1),
            ("beta_r", 1), ("beta_r", -1),
        ]

    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("window", [(0, 1), (Fraction(-1, 2), Fraction(1, 3))])
    def test_orbit_density_matches_search_with_repeats(self, name, window):
        spec = SPECS[name]
        for length in (1, 2, 4):
            rep = orbit_density(spec, Fraction(1, 7), length, window)
            assert (rep.max_gap, rep.points_in_window, rep.orbit_size) == reference_orbit_density(
                spec, Fraction(1, 7), length, window
            )

    @pytest.mark.parametrize("name", ["flagship", "commensurable", "sqrt5"])
    def test_orbit_density_from_far_outside_the_window(self, name):
        # Every move displaces by at most 1 here, so from x0 = 100 and
        # x0 = -7 + sqrt d the margin test runs on every level, and from
        # 7/2 at length 4 only on levels 3 and 4.  From -1 and 2, at the
        # window's edges less 1 and plus 1, it never runs; just beyond them
        # it runs from the last level.
        spec = SPECS[name]
        for x0 in (100, -7 + sqrt_of(spec.d), Fraction(7, 2), -1, 2, Fraction(-1001, 1000),
                   Fraction(2001, 1000)):
            for length in (1, 2, 4):
                rep = orbit_density(spec, x0, length, (0, 1))
                assert (rep.max_gap, rep.points_in_window, rep.orbit_size) == (
                    reference_orbit_density(spec, x0, length, (0, 1))
                )

    def test_orbit_density_at_length_5(self):
        rep = orbit_density(FLAGSHIP, 0, 5, (0, 1))
        assert (rep.max_gap, rep.points_in_window, rep.orbit_size) == reference_orbit_density(
            FLAGSHIP, 0, 5, (0, 1)
        )

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_incompressible_matches_search_with_repeats(self, name):
        spec = SPECS[name]
        words = set()
        for interval in [(0, Fraction(1, 4)), (0, Fraction(1, 3)), (Fraction(1, 5), Fraction(2, 3)),
                         (Fraction(-3, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 2)),
                         (Fraction(15, 16), Fraction(17, 16))]:
            for length in (1, 2, 3, 4):
                res = incompressible_interval_search(spec, interval, length)
                want = reference_incompressible(spec, interval, length)
                assert res.word == want
                words.add(want)
        assert None in words and len(words) > 1


class TestFieldRule:
    """A search runs in the field of whichever of the maps, the start and
    the window or interval ends is irrational."""

    RATIONAL = build_glued_action(Fraction(3, 2), Fraction(5, 3))

    def test_rational_action_takes_the_field_of_an_irrational_point(self):
        spec = self.RATIONAL
        assert all(g._field is None for g in spec.generators.values())
        rep = orbit_density(spec, qnum(0, 1, 3), 3, (0, 1))
        assert (rep.max_gap, rep.points_in_window, rep.orbit_size) == (
            0.46609665521579724, 49, 167)
        half_r3 = qnum(0, Fraction(1, 2), 3)
        rep = orbit_density(spec, 0, 3, (0, half_r3))
        assert (rep.max_gap, rep.points_in_window, rep.orbit_size) == (0.6111111111111112, 7, 51)
        assert incompressible_interval_search(spec, (0, half_r3), 3).word == (("beta_l", 1),)

    def test_points_irrational_in_two_fields_raise(self):
        with pytest.raises(FieldMismatchError, match=r"^mixed fields: sqrt\(3\) vs sqrt\(5\)$"):
            orbit_density(self.RATIONAL, qnum(0, 1, 3), 3, (0, qnum(0, Fraction(1, 2), 5)))

    def test_interval_in_another_field_than_the_action_raises(self):
        with pytest.raises(FieldMismatchError, match=r"^mixed fields: sqrt\(2\) vs sqrt\(3\)$"):
            incompressible_interval_search(FLAGSHIP, (0, qnum(0, Fraction(1, 2), 3)), 3)


@st.composite
def field_actions(draw):
    """An action of two betas with t and s in Q(sqrt d), a start x0 and two
    ends lo < hi, each of them rational or in Q(sqrt d).  A beta is a drawn
    period-one map moved down by its least displacement, so that it has
    fixed points and passes ``_check_beta``."""
    d = draw(st.sampled_from((2, 3, 5)))

    def numbers(bound):
        a = draw(st.fractions(-bound, bound, max_denominator=12))
        b = draw(st.sampled_from((0, 0, *range(-3, 4)))) * Fraction(1, draw(st.integers(1, 8)))
        return qnum(a, b, d)

    betas = []
    for _ in range(2):
        f = draw(period_one_maps(d).filter(lambda f: not f.is_translation()))
        f = PLMap.translation(-f.displacement_range()[0], 1).compose(f)
        _check_beta(f, "beta")
        betas.append(f)
    t, s = abs(numbers(4)), abs(numbers(4))
    lo, hi = numbers(2), numbers(2)
    assume(t and s and lo != hi)
    return build_glued_action(t, s, *betas), numbers(3), tuple(sorted((lo, hi)))


@settings(max_examples=150, deadline=None)
@given(field_actions(), st.integers(1, 3))
def test_searches_match_the_reference_searches(case, length):
    spec, x0, ends = case
    rep = orbit_density(spec, x0, length, ends)
    assert (rep.max_gap, rep.points_in_window, rep.orbit_size) == reference_orbit_density(
        spec, x0, length, ends)
    assert incompressible_interval_search(spec, ends, length).word == reference_incompressible(
        spec, ends, length)


SHIPPED = {name: load_action_config(json.loads(
    (Path(action.__file__).parent / "configs" / f"{name}.json").read_text()))
    for name in ("flagship", "commensurable")}


def fixed_ends(beta):
    """The fixed points of beta over one period, and the ends of its fixed
    intervals there."""
    fp = beta.fixed_points()
    return [*fp.points, *(end for interval in fp.intervals for end in interval)]


def assert_step_keeps_fixed_points(spec):
    for x in action.PIECES:
        beta = spec.generator(f"beta_{x}")
        step = side_translation_subgroup(spec, x).step
        ends = fixed_ends(beta)
        assert ends, f"beta_{x} has no fixed point"
        for y in ends:
            for z in (y + step, y - step):
                assert beta(z) == z


def fixed_components(beta, width):
    """The components of Fix(beta) inside [-width, width], in order, each as
    its (left, right) ends: a fixed point y is (y, y), and fixed intervals
    that touch, across the end of a period too, are one component."""
    p, fp = beta.period, beta.fixed_points()
    base = [(y, y) for y in fp.points] + list(fp.intervals)
    k = (width / p).floor() + 1
    merged = []
    for lo, hi in sorted((lo + j * p, hi + j * p) for j in range(-k - 1, k + 1) for lo, hi in base):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return [c for c in merged if -width <= c[0] and c[1] <= width]


def keeps_order(fixed, shift, width):
    """Whether moving component i of Fix(beta_x) to component i + shift[x],
    for each piece x, keeps the order of the union: each pair of ends in
    [-width, width] compares as their images do.  ``fixed`` maps each piece
    to its ``fixed_components``, taken over a window wider than ``width``."""
    ends = sorted(((y, x, i, e) for x, comps in fixed.items() for i, c in enumerate(comps)
                   if 0 <= i + shift[x] < len(comps) and -width <= c[0] and c[1] <= width
                   for e, y in enumerate(c)), key=lambda end: end[0])
    images = [fixed[x][i + shift[x]][e] for _, x, i, e in ends]
    return all((y < z, y == z) == (u < v, u == v)
               for (y, *_), (z, *_), u, v in zip(ends, ends[1:], images, images[1:]))


SHIFT_PAIRS = tuple(itertools.product(range(-3, 4), repeat=2))


def rate_gaps(spec):
    """(P, gaps): P is the longer beta period, and gaps[m] = |m_l*g_l -
    m_r*g_r| is the gap between the rates at which the shift pair m = (m_l,
    m_r) moves Fix(beta_l) and Fix(beta_r), g_x being the mean spacing of
    Fix(beta_x): its period over its components per period.  An irrational
    ratio of the periods makes every gap but that of (0, 0) nonzero."""
    betas = [spec.generator(f"beta_{x}") for x in action.PIECES]
    P = max(beta.period for beta in betas)
    g_l, g_r = (beta.period / sum(0 <= lo < beta.period for lo, _ in fixed_components(beta, 2 * P))
                for beta in betas)
    return P, {m: abs(m[0] * g_l - m[1] * g_r) for m in SHIFT_PAIRS}


def kept_shift_pairs(spec):
    """The pairs of ``SHIFT_PAIRS`` that keep the order of Fix(beta_l) union
    Fix(beta_r), each tested within 4 + 3*P/delta periods P of 0 each way
    (6 if delta = 0), delta being its rate gap.

    That window is enough (``certify_nonuniform``'s argument, once): if the
    pair keeps the order, exactly m_r components of Fix(beta_r) lie between
    the left end a_i of a component of Fix(beta_l) and a_{i+m_l}.  k such
    steps span k*m_l*g_l, give or take beta_l's period, so they hold k*m_r
    components only while k*delta <= p_l + p_r, which fails at some k <=
    2P/delta + 1, over less than (6P/delta + 4)*P."""
    P, gaps = rate_gaps(spec)
    widths = {m: (4 + (3 * P / gap).floor() + 1 if gap else 6) * P for m, gap in gaps.items()}
    fixed = {x: fixed_components(spec.generator(f"beta_{x}"), max(widths.values()) + 4 * P)
             for x in action.PIECES}
    return {m for m, width in widths.items() if keeps_order(fixed, dict(zip(action.PIECES, m)), width)}


class TestFixedPoints:
    """The facts behind NO_COMMON_TRANSLATION (``certify_nonuniform``): each
    beta has fixed points, and its fixed set is periodic under its step."""

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_the_step_keeps_each_fixed_point_fixed(self, name):
        assert_step_keeps_fixed_points(SHIPPED[name])

    def test_the_common_translation_keeps_each_fixed_set(self):
        spec = SHIPPED["commensurable"]
        w = certify_nonuniform(spec).common_translation
        for x in action.PIECES:
            beta = spec.generator(f"beta_{x}")
            for y in fixed_ends(beta):
                assert beta(y + w) == y + w and beta(y - w) == y - w

    def test_only_the_identity_shift_keeps_the_flagship_order(self):
        # t/s is irrational, so no h without fixed points commutes with both
        # betas: every shift of the components but (0, 0) breaks the order.
        assert kept_shift_pairs(SHIPPED["flagship"]) == {(0, 0)}

    def test_the_common_translation_shift_keeps_the_order(self):
        # Positive control: x -> x + w commutes with both betas and shifts
        # each fixed set by its count of components in [0, w), so that pair
        # and its inverse keep the order, besides (0, 0).
        spec = SHIPPED["commensurable"]
        w = certify_nonuniform(spec).common_translation
        shift = tuple(sum(0 <= lo < w for lo, _ in fixed_components(spec.generator(f"beta_{x}"), 2 * w))
                      for x in action.PIECES)
        assert shift == (2, 1)
        assert kept_shift_pairs(spec) == {(0, 0), (2, 1), (-2, -1)}

    def test_flagship_fixed_sets(self):
        # Fix(beta_l) = (sqrt 2 - 1)Z and Fix(beta_r) = (sqrt 2 / 2)Z: one
        # fixed point, 0, in each period.
        spec = SHIPPED["flagship"]
        for x, period in zip(action.PIECES, (R2 - 1, R2 / 2)):
            beta = spec.generator(f"beta_{x}")
            fp = beta.fixed_points()
            assert beta.period == period
            assert (fp.kind, fp.points, fp.intervals) == ("some", (0,), ())


@settings(max_examples=60, deadline=None)
@given(field_actions())
def test_the_step_keeps_each_fixed_point_fixed_in_drawn_actions(case):
    assert_step_keeps_fixed_points(case[0])


@settings(max_examples=20, deadline=None)
@given(field_actions())
def test_only_the_identity_shift_keeps_the_order_in_drawn_actions(case):
    # Drawn actions with an irrational step ratio, each shift pair's rate
    # gap at least P/8, so that every window is at most 28 periods wide.
    spec = case[0]
    assume(not certify_nonuniform(spec).ratio_rational)
    P, gaps = rate_gaps(spec)
    assume(all(8 * gap >= P for m, gap in gaps.items() if m != (0, 0)))
    assert kept_shift_pairs(spec) == {(0, 0)}


def test_only_action_names_the_generators():
    # The generator names come from action.PIECES; no other module spells
    # one out.
    generator = re.compile(r"(alpha|beta)_\w+")
    names = {}
    for path in Path(action.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names[path.stem] = sorted({node.value for node in ast.walk(tree)
                                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                                   and generator.fullmatch(node.value)})
    assert "alpha_l" in names.pop("action")  # the longitude
    assert {module: found for module, found in names.items() if found} == {}

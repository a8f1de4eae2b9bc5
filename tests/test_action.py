"""Tests for the two-piece action, its word images, and the certificate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leafspace import action
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
def period_one_maps(draw):
    """A period-1 map through grid points, its displacement of either sign
    or both; optionally conjugated by an irrational shift."""
    d = draw(st.sampled_from((2, 3, 5)))
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


class TestCertificate:
    def test_flagship_steps(self):
        assert side_translation_subgroup(FLAGSHIP, "left").step == R2 - 1
        assert side_translation_subgroup(FLAGSHIP, "right").step == R2 / 2

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

    def test_json_round_trippable_fields(self):
        obj = certify_nonuniform(FLAGSHIP).to_json()
        assert obj["verdict"] == "NO_COMMON_TRANSLATION"
        assert obj["quotient"] == "2-1*sqrt(2)"
        assert obj["common_translation"] is None

    def test_density_evidence_attached(self):
        cert = certify_nonuniform(FLAGSHIP, density_word_len=3)
        assert cert.density_report is not None
        assert cert.to_json()["density_evidence"]["max_word_len"] == 3


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
        # 7/2 at length 4 only on levels 3 and 4.
        spec = SPECS[name]
        for x0 in (100, -7 + sqrt_of(spec.d), Fraction(7, 2)):
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

"""Tests for the two-piece action, its word images, and the certificate."""

from fractions import Fraction

import pytest

from leafspace.action import (
    ActionSpec,
    ComposedMap,
    DensityParams,
    build_glued_action,
    certify_nonuniform,
    evaluate_word,
    incompressible_interval_search,
    load_action_config,
    orbit_density,
    side_translation_subgroup,
    standard_beta,
)
from leafspace.errors import ParseError, PreconditionError
from leafspace.plmap import PLMap
from leafspace.qfield import qnum, sqrt_of

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

    def test_cross_side_words_do_not_commute(self):
        lr = evaluate_word(FLAGSHIP, [("beta_l", 1), ("beta_r", 1)])
        rl = evaluate_word(FLAGSHIP, [("beta_r", 1), ("beta_l", 1)])
        probes = [Fraction(i, 7) for i in range(7)]
        assert lr.difference_witness(rl, probes) is not None

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
        cert = certify_nonuniform(FLAGSHIP, DensityParams(max_word_len=3))
        assert cert.density_report is not None
        assert cert.to_json()["density_evidence"]["max_word_len"] == 3


class TestOrbitDensity:
    def test_translation_only_orbit_leaves_full_gap(self):
        rep = orbit_density(FLAGSHIP, 0, 3, (0, 1), generator_names=("alpha_l",))
        assert rep.max_gap == 1.0
        assert rep.points_in_window == 1  # just the base point

    def test_gap_shrinks_with_word_length(self):
        g3 = orbit_density(FLAGSHIP, 0, 3, (0, 1)).max_gap
        g5 = orbit_density(FLAGSHIP, 0, 5, (0, 1)).max_gap
        assert g5 <= g3 < 1.0

    def test_rejects_degenerate_window(self):
        with pytest.raises(PreconditionError):
            orbit_density(FLAGSHIP, 0, 3, (1, 1))
        with pytest.raises(PreconditionError):
            orbit_density(FLAGSHIP, 0, 0, (0, 1))


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

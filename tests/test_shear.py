"""Tests for the shadow-length series and the sheared-holonomy trace."""

import random
from fractions import Fraction

import pytest

from leafspace.errors import PreconditionError
from leafspace.qfield import qnum, sqrt_of
from leafspace.shear import (
    ShearModel,
    _MonotonePL,
    disjointness_check,
    holonomy_domain_trace,
    shadow_length,
)

R2 = sqrt_of(2)


class TestShadowLength:
    def test_doubling_multiplier_closed_form(self):
        for n in (1, 2, 10, 60):
            rep = shadow_length(1, 2, n)
            assert rep.shadow == 1 - Fraction(1, 2**n)
            assert rep.limit == 1
            assert rep.curve_length == n

    def test_general_exact_values(self):
        rep = shadow_length(3, 3, 4)
        assert rep.shadow == Fraction(3, 2) * (1 - Fraction(1, 81))
        assert rep.limit == Fraction(3, 2)

    def test_irrational_inputs_stay_exact(self):
        rep = shadow_length(R2, 1 + R2, 2)
        assert rep.limit == R2 / R2  # t / (lam - 1) with lam - 1 = sqrt(2)
        assert rep.limit == 1

    def test_shadow_below_limit_and_curve_unbounded(self):
        r5 = shadow_length(1, 2, 5)
        r6 = shadow_length(1, 2, 6)
        assert r5.shadow < r6.shadow < r6.limit
        assert r6.curve_length > r5.curve_length

    def test_label_is_exploratory(self):
        assert shadow_length(1, 2, 3).label == "EXPLORATORY"
        assert shadow_length(1, 2, 3).to_json()["label"] == "EXPLORATORY"

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            shadow_length(1, 1, 3)
        with pytest.raises(PreconditionError):
            shadow_length(1, 2, 0)


class TestShearModel:
    def test_build_fixes_collar_ends(self):
        model = ShearModel.build(2, Fraction(1, 8), Fraction(1, 4))
        eps = Fraction(1, 8)
        assert model.shear(-eps) == -eps
        assert model.shear(1 + eps) == 1 + eps
        assert model.shear(Fraction(1, 2)) == Fraction(3, 4)

    def test_identity_outside_collar(self):
        model = ShearModel.build(2, Fraction(1, 8), Fraction(1, 4))
        assert model.shear(5) == 5
        assert model.shear(-3) == -3

    def test_zero_delta_is_identity(self):
        model = ShearModel.build(2, Fraction(1, 8), 0)
        assert model.shear(Fraction(1, 3)) == Fraction(1, 3)

    def test_direct_model_must_fix_collar_ends(self):
        eps = Fraction(1, 8)
        moved = [
            [(-eps, 0), (1 + eps, 1 + eps)],
            [(-eps, -eps), (1, Fraction(9, 8))],
            [(-eps, -eps), (Fraction(1, 2), Fraction(3, 4)), (1 + eps, 2)],
            [(0, 0), (1, 1)],
        ]
        for points in moved:
            with pytest.raises(PreconditionError):
                ShearModel(qnum(2), eps, _MonotonePL(points))
        with pytest.raises(PreconditionError):
            ShearModel(qnum(Fraction(1, 2)), eps, _MonotonePL([(-eps, -eps), (1 + eps, 1 + eps)]))
        collar = [(-eps, -eps), (Fraction(1, 3), Fraction(1, 2)), (1 + eps, 1 + eps)]
        assert ShearModel(qnum(2), eps, _MonotonePL(collar)).shear(Fraction(1, 3)) == Fraction(1, 2)

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            ShearModel.build(1, Fraction(1, 8), Fraction(1, 4))
        with pytest.raises(PreconditionError):
            ShearModel.build(2, 0, Fraction(1, 4))
        with pytest.raises(PreconditionError):
            ShearModel.build(2, Fraction(1, 8), -1)
        with pytest.raises(PreconditionError):
            ShearModel.build(2, Fraction(1, 8), 1)


class TestHolonomyTrace:
    def test_identity_shear_persists(self):
        model = ShearModel.build(2, Fraction(1, 8), 0)
        trace = holonomy_domain_trace(model, 5)
        assert trace.flag == "PERSISTS"
        assert trace.shrink_level is None
        assert all(v == trace.lengths[0] for v in trace.lengths)

    def test_lengths_never_increase(self):
        model = ShearModel.build(2, Fraction(1, 8), Fraction(1, 4))
        trace = holonomy_domain_trace(model, 6)
        for a, b in zip(trace.lengths, trace.lengths[1:]):
            assert b <= a

    def test_trace_label_and_serialization(self):
        model = ShearModel.build(2, Fraction(1, 8), Fraction(1, 4))
        trace = holonomy_domain_trace(model, 3)
        obj = trace.to_json()
        assert obj["label"] == "EXPLORATORY"
        assert len(obj["lengths"]) == len(trace.lengths)

    def test_coarse_threshold_reports_shrinkage(self):
        model = ShearModel.build(2, Fraction(1, 8), Fraction(1, 4))
        trace = holonomy_domain_trace(model, 6, threshold=2)
        assert trace.flag == "SHRINKS_TO_POINT"
        assert trace.shrink_level is not None

    def test_input_validation(self):
        model = ShearModel.build(2, Fraction(1, 8), 0)
        with pytest.raises(PreconditionError):
            holonomy_domain_trace(model, 0)

    def test_closed_form_on_seeded_grid(self):
        """The trace is the collar width at every level, or one level below
        the threshold, and the window ends really are fixed at every level."""
        rng = random.Random(2024)
        lams = [qnum(Fraction(11, 10)), qnum(2), qnum(Fraction(7, 2)), 1 + R2, 1 + R2 / 3,
                qnum(1, Fraction(3, 4))]
        for _ in range(60):
            lam = rng.choice(lams)
            eps = Fraction(rng.randint(1, 12), 40)
            delta = rng.choice([0, Fraction(rng.randint(1, 20), 40)])
            if Fraction(1, 2) + delta >= 1 + eps:
                delta = 0
            model = ShearModel.build(lam, eps, delta)
            n = rng.randint(1, 12)
            width = 1 + 2 * eps
            scale = qnum(1)
            for _ in range(n):
                assert model.shear(-eps * scale) / scale == -eps
                assert model.shear((1 + eps) * scale) / scale == 1 + eps
                scale = scale * lam
            for threshold in (Fraction(1, 10**6), width, width + Fraction(1, 10**9), 2 * width):
                trace = holonomy_domain_trace(model, n, threshold)
                if width < threshold:
                    assert (trace.lengths, trace.flag, trace.shrink_level) == (
                        (width,), "SHRINKS_TO_POINT", 0)
                else:
                    assert (trace.lengths, trace.flag, trace.shrink_level) == (
                        (width,) * (n + 1), "PERSISTS", None)


class TestDisjointness:
    def test_separated_arcs(self):
        assert disjointness_check((0, Fraction(1, 4)), Fraction(1, 2))

    def test_overlapping_arcs(self):
        assert not disjointness_check((0, Fraction(1, 4)), Fraction(1, 8))

    def test_full_circle_never_disjoint(self):
        assert not disjointness_check((0, 1), Fraction(1, 2))
        assert not disjointness_check((0, 2), Fraction(1, 2))

    def test_irrational_shift_exact(self):
        # Offset sqrt(2) - 1 lies strictly between 1/4 and 3/4.
        assert disjointness_check((0, Fraction(1, 4)), R2)
        # Offset of 1 + sqrt(2) reduces to the same value.
        assert disjointness_check((0, Fraction(1, 4)), 1 + R2)

    def test_touching_arcs_not_disjoint(self):
        assert not disjointness_check((0, Fraction(1, 2)), Fraction(1, 2))

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            disjointness_check((qnum(1), qnum(1)), Fraction(1, 2))

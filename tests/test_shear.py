"""Tests for the shadow-length series and the sheared-holonomy trace."""

import random
from fractions import Fraction

import pytest

from leafspace.errors import PreconditionError
from leafspace.qfield import qnum, sqrt_of
from leafspace.shear import disjointness_check, holonomy_domain_trace, shadow_length

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

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            shadow_length(1, 1, 3)
        with pytest.raises(PreconditionError):
            shadow_length(1, 2, 0)


class TestHolonomyTrace:
    def test_identity_shear_persists(self):
        trace = holonomy_domain_trace(2, Fraction(1, 8), 0, 5)
        assert (trace.width, trace.levels, trace.flag) == (Fraction(5, 4), 6, "PERSISTS")

    def test_lengths_never_increase(self):
        # One width at every level: the whole collar window survives.
        trace = holonomy_domain_trace(2, Fraction(1, 8), Fraction(1, 4), 6)
        assert (trace.width, trace.levels, trace.flag) == (Fraction(5, 4), 7, "PERSISTS")

    def test_coarse_threshold_reports_shrinkage(self):
        trace = holonomy_domain_trace(2, Fraction(1, 8), Fraction(1, 4), 6, threshold=2)
        assert trace.flag == "SHRINKS_TO_POINT"
        assert (trace.width, trace.levels) == (Fraction(5, 4), 1)

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            holonomy_domain_trace(2, Fraction(1, 8), 0, 0)

    def test_shear_input_validation(self):
        """Each check on its own, then the order: delta, the multiplier,
        eps, n."""
        eighth, quarter = Fraction(1, 8), Fraction(1, 4)
        for args, message in [
            ((1, eighth, quarter, 3), "multiplier must exceed 1"),
            ((2, 0, quarter, 3), "eps must be positive"),
            ((2, eighth, -1, 3), "delta must keep the shear monotone"),
            ((2, eighth, 1, 3), "delta must keep the shear monotone"),
            ((1, 0, -1, 0), "delta must keep the shear monotone"),
            ((1, 0, quarter, 0), "multiplier must exceed 1"),
            ((2, 0, quarter, 0), "eps must be positive"),
        ]:
            with pytest.raises(PreconditionError, match=message):
                holonomy_domain_trace(*args)

    def test_closed_form_on_seeded_grid(self):
        """The trace is the collar width at every level, or one level below
        the threshold."""
        rng = random.Random(2024)
        lams = [qnum(Fraction(11, 10)), qnum(2), qnum(Fraction(7, 2)), 1 + R2, 1 + R2 / 3,
                qnum(1, Fraction(3, 4))]
        for _ in range(60):
            lam = rng.choice(lams)
            eps = Fraction(rng.randint(1, 12), 40)
            delta = rng.choice([0, Fraction(rng.randint(1, 20), 40)])
            if Fraction(1, 2) + delta >= 1 + eps:
                delta = 0
            n = rng.randint(1, 12)
            width = 1 + 2 * eps
            for threshold in (Fraction(1, 10**6), width, width + Fraction(1, 10**9), 2 * width):
                trace = holonomy_domain_trace(lam, eps, delta, n, threshold)
                if width < threshold:
                    assert (trace.width, trace.levels, trace.flag) == (width, 1, "SHRINKS_TO_POINT")
                else:
                    assert (trace.width, trace.levels, trace.flag) == (width, n + 1, "PERSISTS")


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

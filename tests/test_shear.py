"""Tests for the shadow-length series, the sheared-holonomy trace that
``shear-holonomy`` prints, and arc disjointness."""

import random
from fractions import Fraction

import pytest

from leafspace.cli import main
from leafspace.errors import PreconditionError
from leafspace.qfield import qnum, sqrt_of
from leafspace.shear import disjointness_check, shadow_length

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

    @pytest.mark.parametrize("t", [0, -1, 1 - R2])
    def test_curve_length_must_be_positive(self, t):
        with pytest.raises(PreconditionError, match="^t must be positive$"):
            shadow_length(t, 2, 3)


def shear_holonomy(capsys, lam, eps, delta, n):
    """Exit code, stdout and stderr of one ``shear-holonomy`` request."""
    code = main(["shear-holonomy", "--lam", str(lam), "--eps", str(eps), "--delta", str(delta),
                 "--n", str(n)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHolonomyTrace:
    def test_identity_shear_persists(self, capsys):
        code, out, _ = shear_holonomy(capsys, 2, "1/8", 0, 5)
        assert code == 0
        assert out.splitlines()[1:] == [f"{level},1.25" for level in range(6)] + [
            "# flag: PERSISTS", "# label: EXPLORATORY"]

    def test_lengths_never_increase(self, capsys):
        # One width at every level: the whole collar window survives.
        code, out, _ = shear_holonomy(capsys, 2, "1/8", "1/4", 6)
        assert code == 0
        assert [row.split(",")[1] for row in out.splitlines()[1:8]] == ["1.25"] * 7

    def test_input_validation(self, capsys):
        assert shear_holonomy(capsys, 2, "1/8", 0, 0) == (
            3, "", "error: precondition violated: n must be >= 1\n")

    def test_shear_input_validation(self, capsys):
        """Each check on its own, then the order: delta, the multiplier,
        eps, n."""
        for args, message in [
            ((1, "1/8", "1/4", 3), "multiplier must exceed 1"),
            ((2, 0, "1/4", 3), "eps must be positive"),
            ((2, "1/8", -1, 3), "delta must keep the shear monotone"),
            ((2, "1/8", 1, 3), "delta must keep the shear monotone"),
            ((1, 0, -1, 0), "delta must keep the shear monotone"),
            ((1, 0, "1/4", 0), "multiplier must exceed 1"),
            ((2, 0, "1/4", 0), "eps must be positive"),
        ]:
            code, out, err = shear_holonomy(capsys, *args)
            assert (code, out, err) == (3, "", f"error: precondition violated: {message}\n")

    def test_closed_form_on_seeded_grid(self, capsys):
        """The trace is the collar width 1 + 2*eps at each level 0..n."""
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
            width = format(float(1 + 2 * eps), ".17g")
            code, out, _ = shear_holonomy(capsys, lam, eps, delta, n)
            assert code == 0
            assert out.splitlines() == ["level,domain_length",
                                        *(f"{level},{width}" for level in range(n + 1)),
                                        "# flag: PERSISTS", "# label: EXPLORATORY"]


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

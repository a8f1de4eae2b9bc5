"""Tests for metric chains, the comparison lemma, and the progress ledger."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leafspace.action import build_glued_action
from leafspace.cones import (
    CROSSINGS,
    MetricChain,
    adversarial_stall,
    build_chain_from_action,
    metric_gap_check,
    run_progress_ledger,
)
from leafspace.errors import FieldMismatchError, PreconditionError
from leafspace.plmap import PLMap
from leafspace.qfield import QNum, as_qnum, qnum, sqrt_of

R2 = sqrt_of(2)
FLAGSHIP = build_glued_action(1 + R2, R2)


def small_bump(amp):
    return PLMap(1, [(0, 0), (Fraction(1, 2), Fraction(1, 2) + amp)])


class TestMetricChain:
    def test_base_metric_is_distance(self):
        chain = build_chain_from_action(FLAGSHIP, "LR", seed=3)
        assert chain.metric(0, Fraction(1, 3), 2) == Fraction(5, 3)

    def test_r_max_is_largest_period(self):
        chain = build_chain_from_action(FLAGSHIP, "LRL", seed=0)
        assert chain.r_max == R2 / 2  # right step exceeds left step

    def test_metric_index_out_of_range(self):
        chain = build_chain_from_action(FLAGSHIP, "LR", seed=3)  # boundaries 0, 1, 2
        assert chain.metric(2, 0, 1) >= 0
        for i in (-1, 3):
            with pytest.raises(PreconditionError, match=f"^cylinder index {i} out of range$"):
                chain.metric(i, 0, 1)

    def test_rejects_misaligned_inputs(self):
        with pytest.raises(PreconditionError):
            MetricChain([], [], [])
        with pytest.raises(PreconditionError):
            MetricChain(["a"], [1, 1], [small_bump(Fraction(1, 8))])

    def test_rejects_nonpositive_period(self):
        with pytest.raises(PreconditionError):
            MetricChain(["a"], [0], [small_bump(Fraction(1, 8))])

    def test_rejects_clamp_violation(self):
        # Displacement reaches 1/4 > half of the period 1/3.
        with pytest.raises(PreconditionError):
            MetricChain(["a"], [Fraction(1, 3)], [small_bump(Fraction(1, 4))])


@st.composite
def bump_chains(draw):
    """Period-1 bump maps psi_1, ..., psi_n, rational or irrational in
    Q(sqrt d), each displacing by less than 1/2, and an order of 0..n."""
    d = draw(st.sampled_from((None, 2, 3, 5)))
    psis = []
    for _ in range(draw(st.integers(1, 24))):
        amp = Fraction(draw(st.integers(1, 16)), 64)
        if d is not None:
            amp += sqrt_of(d) * Fraction(draw(st.integers(-4, 4)), 256)
        phase = Fraction(draw(st.integers(0, 15)), 32)
        psis.append(PLMap(1, [(phase, phase), (phase + Fraction(1, 2), phase + Fraction(1, 2) + amp)]))
    return psis, draw(st.permutations(range(len(psis) + 1)))


class TestProductTree:
    @settings(max_examples=60, deadline=None)
    @given(bump_chains())
    def test_every_phi_is_the_prefix_compose(self, case):
        psis, order = case
        chain = MetricChain(["L"] * len(psis), [1] * len(psis), psis)
        want = [PLMap.identity(1)]
        for psi in psis:
            want.append(psi.compose(want[-1]))
        for i in order:
            assert chain.phi(i) == want[i]

    @settings(max_examples=60, deadline=None)
    @given(bump_chains(), st.data())
    def test_every_range_product_is_the_range_compose(self, case, data):
        psis, _ = case
        n = len(psis)
        chain = MetricChain(["L"] * n, [1] * n, psis)
        for _ in range(4):
            a = data.draw(st.integers(0, n - 1))
            b = data.draw(st.integers(a + 1, n))
            want = psis[a]
            for psi in psis[a + 1:b]:
                want = psi.compose(want)
            assert chain._product(0, n, a, b) == want

    def test_composes_stay_near_n_log_n(self, monkeypatch):
        # The tree composes each node once, from two halves: phi_n reads
        # about 2 breakpoints a piece on each of log2 n levels, where the
        # prefix composes read about n^2 (15722 at n = 128).  Every phi(i)
        # together takes (n/2) log2 n composes.
        compose, reads = PLMap.compose, []
        monkeypatch.setattr(PLMap, "compose",
                            lambda f, g: reads.append(len(f._xs) + len(g._xs)) or compose(f, g))
        n, log_n = 128, 7
        chain = build_chain_from_action(FLAGSHIP, "LR" * (n // 2))
        assert reads == []
        chain.phi(n)
        assert len(reads) == n - 1 and sum(reads) <= 2.5 * n * log_n
        for i in range(n + 1):
            chain.phi(i)
        assert len(reads) <= n * log_n / 2
        for i in range(n + 1):
            chain.phi(i)
        assert len(reads) <= n * log_n / 2

    def test_phi_index_out_of_range(self):
        chain = build_chain_from_action(FLAGSHIP, "LRL", seed=1)
        assert chain.phi(0) == PLMap.identity(1)
        for i in (-1, 4):
            with pytest.raises(PreconditionError, match=f"^cylinder index {i} out of range$"):
                chain.phi(i)


class TestGapCheck:
    def test_adjacent_boundaries_within_one_period(self, rng):
        chain = build_chain_from_action(FLAGSHIP, "LRLR", seed=1)
        samples = [
            (Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(-40, 40), 8))
            for _ in range(200)
        ]
        rep = metric_gap_check(chain, 0, 1, samples)
        assert rep.bound == chain.r_max
        assert rep.violations == 0
        assert rep.samples == 200

    def test_separated_boundaries_bound(self, rng):
        chain = build_chain_from_action(FLAGSHIP, "LRLRL", seed=2)
        samples = [
            (Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(-40, 40), 8))
            for _ in range(200)
        ]
        rep = metric_gap_check(chain, 0, 5, samples)
        assert rep.bound == chain.r_max * 5  # four cylinders strictly between
        assert rep.violations == 0
        assert rep.max_gap <= rep.bound
        assert metric_gap_check(chain, 5, 0, samples) == rep  # the indices in either order

    def test_index_validation(self):
        chain = build_chain_from_action(FLAGSHIP, "L", seed=0)
        with pytest.raises(PreconditionError):
            metric_gap_check(chain, 0, 9, [])


class TestProgressLedger:
    def test_adversarial_flagship_numbers(self):
        run = run_progress_ledger(1, Fraction(1, 10), 10)
        assert run.verdict == "REGULATING"
        assert run.final_bound == 8
        assert run.rows[-1].simulated_d1 == Fraction(41, 5)
        for row in run.rows:
            assert row.certified_lower_bound == row.index - Fraction(row.index, 5)
            assert row.simulated_d1 >= row.certified_lower_bound

    def test_random_policy_respects_bounds(self):
        for seed in range(5):
            run = run_progress_ledger(1, Fraction(1, 10), 10, policy="random", seed=seed)
            for row in run.rows:
                assert row.simulated_d1 >= row.certified_lower_bound

    def test_not_certified_when_distortion_dominates(self):
        run = run_progress_ledger(1, Fraction(1, 2), 10)
        assert run.verdict == "NOT_CERTIFIED"
        assert run.final_bound == 0

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            run_progress_ledger(0, Fraction(1, 10), 10)
        with pytest.raises(PreconditionError):
            run_progress_ledger(1, Fraction(1, 10), 0)
        with pytest.raises(PreconditionError):
            run_progress_ledger(1, Fraction(1, 10), 10, policy="optimistic")


def reference_progress_ledger(T, r, n, policy="adversarial", seed=0):
    """The ledger as a loop of QNum operations: the rows, then the verdict."""
    T, r = as_qnum(T), as_qnum(r)
    rng = random.Random(seed)

    def draw_progress():
        if policy == "adversarial":
            return T
        return T + T * Fraction(rng.randint(0, 1000), 1000)

    def draw_distortion():
        if policy == "adversarial":
            return -r
        return r * Fraction(rng.randint(-1000, 1000), 1000)

    rows = []
    forward_sum = progress_sum = back_sum = qnum(0)
    for m in range(1, n + 1):
        p_m = draw_progress()
        progress_sum = progress_sum + p_m
        delta = qnum(0) if m == n else draw_distortion()
        back_sum = back_sum + (draw_distortion() if m > 1 else qnum(0))
        simulated = progress_sum + forward_sum + back_sum
        rows.append((m, p_m, delta, T * m - 2 * r * m, simulated))
        forward_sum = forward_sum + delta
    return rows, "REGULATING" if T > 2 * r else "NOT_CERTIFIED"


@st.composite
def ledger_inputs(draw):
    """T > 0 and r >= 0, each rational or in Q(sqrt d) for one d."""
    d = draw(st.sampled_from((2, 3, 5, 7)))

    def value(lo):
        a = Fraction(draw(st.integers(lo, 40)), draw(st.integers(1, 12)))
        if draw(st.booleans()):
            return as_qnum(a)
        b = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 12)))
        x = QNum(a, b, d)
        return x if x.sign() >= lo else -x

    T, r = value(1), value(0)
    policy = draw(st.sampled_from(("adversarial", "random")))
    return T, r, draw(st.integers(1, 40)), policy, draw(st.integers(0, 2**32))


def ledger_calls(n):
    """Python and C calls made by one random-policy ledger of n rows."""
    count = [0]

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            count[0] += 1

    sys.setprofile(profile)
    try:
        run_progress_ledger(1, "1/10", n, "random", 3)
    finally:
        sys.setprofile(None)
    return count[0]


class TestLedgerMatchesQNumLoop:
    @settings(max_examples=300, deadline=None)
    @given(ledger_inputs())
    def test_every_row_value_text_and_field(self, case):
        T, r, n, policy, seed = case
        run = run_progress_ledger(T, r, n, policy, seed)
        want_rows, want_verdict = reference_progress_ledger(T, r, n, policy, seed)
        assert run.verdict == want_verdict
        assert run.final_bound == want_rows[-1][3]
        assert len(run.rows) == n
        for row, want in zip(run.rows, want_rows):
            got = (row.index, row.progress, row.distortion, row.certified_lower_bound,
                   row.simulated_d1)
            assert got == want
            assert [str(v) for v in got[1:]] == [str(v) for v in want[1:]]
            assert [v.d for v in got[1:] if not v.is_rational()] == [
                v.d for v in want[1:] if not v.is_rational()]

    def test_irrational_in_two_fields_raises_the_mixed_fields_error(self):
        for T, r in ((1 + R2, sqrt_of(3) / 10), (1 + sqrt_of(3), R2 / 10)):
            for policy in ("adversarial", "random"):
                with pytest.raises(FieldMismatchError, match=r"^mixed fields: sqrt\(2\) vs sqrt\(3\)$"):
                    run_progress_ledger(T, r, 3, policy)
                with pytest.raises(FieldMismatchError, match=r"^mixed fields: sqrt\(2\) vs sqrt\(3\)$"):
                    reference_progress_ledger(T, r, 3, policy)

    def test_calls_per_row_stay_under_the_bound(self):
        # A host-independent cost: 38 calls a row here (three draws, four
        # values, one row), where the QNum loop made 130, on Python 3.10
        # to 3.13 alike.
        per_row = (ledger_calls(60) - ledger_calls(30)) / 30
        assert per_row < 60


class TestStallSearch:
    def test_stall_exists_at_critical_distortion(self):
        trace = adversarial_stall(1, 1)
        assert trace is not None
        assert trace.bounded()
        assert CROSSINGS == 1000 and trace.value(CROSSINGS - 1) == -998

    def test_no_stall_when_progress_dominates(self):
        assert adversarial_stall(3, 1) is None
        assert adversarial_stall(1, 0) is None

    def test_stall_values_match_recurrence(self):
        trace = adversarial_stall(1, 1)
        for i in range(9):
            assert trace.value(i + 1) == trace.value(i) - 1  # T - 2r = -1 per crossing

    @staticmethod
    def reference_stall(T, r):
        """The search as a loop over every crossing, then one comparison:
        the values, or None."""
        T, r = as_qnum(T), as_qnum(r)
        values = [T]
        value = T
        for _ in range(2, CROSSINGS + 1):
            value = value + T - 2 * r
            values.append(value)
        return values if values[-1] <= values[0] else None

    @pytest.mark.parametrize("shown", [0, 1, 2, 50, 1000])
    @pytest.mark.parametrize("T, r", [
        (1, 1),  # T < 2r
        (2, 1),  # T = 2r
        (Fraction(7, 3), Fraction(1, 2)),  # T > 2r
        (1, 0),
        (R2, 1),  # T < 2r over Q(sqrt 2)
        (2 * R2, R2),  # T = 2r
        (1 + R2, Fraction(1, 2)),  # T > 2r
        (Fraction(3, 2), sqrt_of(5) / 4),  # T > 2r, r in Q(sqrt 5)
        (sqrt_of(3), sqrt_of(3) / 2),  # T = 2r over Q(sqrt 3)
    ])
    def test_matches_the_loop_over_every_crossing(self, T, r, shown):
        """The verdict, and the first ``shown`` values of a stalling trace."""
        got, want = adversarial_stall(T, r), self.reference_stall(T, r)
        if want is None:
            assert got is None
            return
        assert len(want) == CROSSINGS and got.bounded()
        values = [got.value(i) for i in range(shown)]
        assert values == want[:shown]
        assert [(str(v), v.d) for v in values] == [(str(v), v.d) for v in want[:shown]]


class TestBuildChain:
    def test_periods_follow_pattern(self):
        chain = build_chain_from_action(FLAGSHIP, "LRR", seed=0)
        assert chain.periods == (R2 - 1, R2 / 2, R2 / 2)
        assert chain.labels == ("L", "R", "R")

    def test_rejects_bad_pattern(self):
        with pytest.raises(PreconditionError):
            build_chain_from_action(FLAGSHIP, "", seed=0)
        with pytest.raises(PreconditionError):
            build_chain_from_action(FLAGSHIP, "LX", seed=0)

    def test_deterministic_in_seed(self):
        c1 = build_chain_from_action(FLAGSHIP, "LRLR", seed=7)
        c2 = build_chain_from_action(FLAGSHIP, "LRLR", seed=7)
        assert [c1.phi(i) for i in range(len(c1) + 1)] == [c2.phi(i) for i in range(len(c2) + 1)]

"""Abstract model of the cone-field argument.

Chains of slithering pieces induce a family of comparison metrics d_i on
the leaf space; adjacent metrics differ by at most one slithering period.
A curve crossing the separating cylinders is modeled purely by its
per-crossing progress, and the progress ledger certifies the induction
bound n*T - 2*n*r for its length measured in the first metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .plmap import PLMap
from .qfield import QNum, as_qnum, qnum

__all__ = [
    "MetricChain",
    "GapReport",
    "LedgerRow",
    "LedgerRun",
    "StallTrace",
    "run_progress_ledger",
    "adversarial_stall",
    "metric_gap_check",
    "build_chain_from_action",
]


class MetricChain:
    """A sequence of slithering pieces with comparison metrics per cylinder.

    ``periods[i]`` is the slithering period of piece i; ``phis[i]`` maps leaf
    coordinates to the measurement system of cylinder boundary i, with
    ``phis[0]`` the identity.  The constructor enforces the clamp that makes
    the metric comparison lemma hold: the perturbation between consecutive
    boundaries displaces no point by more than half the piece's period.
    """

    def __init__(self, labels, periods, perturbations) -> None:
        if not labels:
            raise PreconditionError("chain needs at least one piece")
        if not (len(labels) == len(periods) == len(perturbations)):
            raise PreconditionError("labels, periods, perturbations must align")
        self.labels = tuple(labels)
        self.periods = tuple(as_qnum(p) for p in periods)
        for p in self.periods:
            if p.sign() <= 0:
                raise PreconditionError("slithering periods must be positive")
        for p, psi in zip(self.periods, perturbations):
            lo, hi = psi.displacement_range()
            half = p / 2
            if lo < -half or hi > half:
                raise PreconditionError(
                    f"perturbation displacement exceeds half-period clamp {half}"
                )
        self.perturbations = tuple(perturbations)
        phis = [PLMap.identity(self.perturbations[0].period)]
        for psi in self.perturbations:
            phis.append(psi.compose(phis[-1]))
        self.phis = tuple(phis)

    @property
    def r_max(self) -> QNum:
        return max(self.periods)

    def __len__(self) -> int:
        return len(self.labels)

    def metric(self, i: int, lam, mu) -> QNum:
        """d_i(lam, mu) = |phi_i(lam) - phi_i(mu)|."""
        if not 0 <= i < len(self.phis):
            raise PreconditionError(f"cylinder index {i} out of range")
        return abs(self.phis[i](lam) - self.phis[i](mu))


@dataclass(frozen=True)
class GapReport:
    bound: QNum
    max_gap: QNum
    max_ratio: float
    violations: int
    samples: int

    def to_json(self) -> dict:
        return {
            "bound": str(self.bound),
            "max_gap": str(self.max_gap),
            "max_ratio": self.max_ratio,
            "violations": self.violations,
            "samples": self.samples,
        }


def metric_gap_check(chain: MetricChain, i: int, j: int, samples) -> GapReport:
    """Check |d_i - d_j| <= (n+1) * max period over the sampled leaf pairs.

    n is the number of cylinders strictly between boundaries i and j.
    """
    if not (0 <= i < len(chain.phis) and 0 <= j < len(chain.phis)):
        raise PreconditionError("cylinder indices out of range")
    if i > j:
        i, j = j, i
    n = max(j - i - 1, 0)
    bound = chain.r_max * (n + 1)
    max_gap = qnum(0)
    violations = 0
    count = 0
    for lam, mu in samples:
        gap = abs(chain.metric(i, lam, mu) - chain.metric(j, lam, mu))
        if gap > max_gap:
            max_gap = gap
        if gap > bound:
            violations += 1
        count += 1
    ratio = float(max_gap) / float(bound) if bound.sign() > 0 else 0.0
    return GapReport(bound, max_gap, ratio, violations, count)


@dataclass(frozen=True)
class LedgerRow:
    index: int
    progress: QNum
    distortion: QNum
    certified_lower_bound: QNum
    simulated_d1: QNum


@dataclass(frozen=True)
class LedgerRun:
    rows: tuple
    verdict: str  # REGULATING or NOT_CERTIFIED
    final_bound: QNum
    final_value: QNum


def run_progress_ledger(T, r, n: int, policy: str = "adversarial", seed: int = 0) -> LedgerRun:
    """Simulate the progress induction over n cylinder crossings.

    Each crossing contributes progress p_i >= T in the current metric; each
    re-measurement (forward to the next metric, and back to d_1 at the end)
    distorts by at most r.  The certified prefix bound is m*T - 2*m*r and the
    simulated d_1 value never dips below it.  The verdict is REGULATING when
    the bounds diverge, which requires T > 2r.
    """
    T = as_qnum(T)
    r = as_qnum(r)
    if T.sign() <= 0 or r.sign() < 0:
        raise PreconditionError("T must be positive and r nonnegative")
    if n < 1:
        raise PreconditionError("n must be >= 1")
    rng = random.Random(seed)

    def draw_progress():
        if policy == "adversarial":
            return T
        return T + T * Fraction(rng.randint(0, 1000), 1000)

    def draw_distortion():
        if policy == "adversarial":
            return -r
        return r * Fraction(rng.randint(-1000, 1000), 1000)

    if policy not in ("adversarial", "random"):
        raise PreconditionError(f"unknown policy {policy!r}")
    rows = []
    forward_sum = qnum(0)
    progress_sum = qnum(0)
    back_sum = qnum(0)
    for m in range(1, n + 1):
        p_m = draw_progress()
        progress_sum = progress_sum + p_m
        delta = qnum(0) if m == n else draw_distortion()
        # Re-measuring the first m crossings back in d_1 crosses m-1
        # boundaries; the same policy draws those distortions.
        back_sum = back_sum + (draw_distortion() if m > 1 else qnum(0))
        simulated = progress_sum + forward_sum + back_sum
        bound = T * m - 2 * r * m
        rows.append(LedgerRow(m, p_m, delta, bound, simulated))
        forward_sum = forward_sum + delta
    verdict = "REGULATING" if T > 2 * r else "NOT_CERTIFIED"
    last = rows[-1]
    return LedgerRun(tuple(rows), verdict, last.certified_lower_bound, last.simulated_d1)


@dataclass(frozen=True)
class StallTrace:
    values: tuple  # d_1 value after each crossing, all distortions -r

    def bounded(self) -> bool:
        return max(self.values) <= self.values[0]


def adversarial_stall(T, r, crossings: int = 1000) -> StallTrace | None:
    """Search for a distortion sequence whose d_1 progress stays bounded.

    The d_1 value after m crossings is linear in the distortions, so the
    greedy all-minus sequence is the exact minimizer; it stalls precisely
    when T <= 2r.  Returns the verified trace, or None when every sequence
    diverges.
    """
    T = as_qnum(T)
    r = as_qnum(r)
    if T.sign() <= 0 or r.sign() < 0:
        raise PreconditionError("T must be positive and r nonnegative")
    values = []
    value = T
    values.append(value)
    for m in range(2, crossings + 1):
        # Greedy: each new crossing adds T and two re-measurements, each
        # distorted by the worst case -r.
        value = value + T - 2 * r
        values.append(value)
    trace = StallTrace(tuple(values))
    if values[-1] <= values[0]:
        return trace
    return None


def build_chain_from_action(spec, pattern: str, seed: int = 0) -> MetricChain:
    """A metric chain whose slithering periods come from the action's sides.

    ``pattern`` is a string over {L, R}; perturbations are bump maps derived
    from the standard beta shape, scaled to respect the half-period clamp.
    """
    from .action import side_translation_subgroup

    if not pattern or any(c not in "LR" for c in pattern):
        raise PreconditionError("pattern must be a nonempty string over {L, R}")
    step_l = side_translation_subgroup(spec, "left").step
    step_r = side_translation_subgroup(spec, "right").step
    rng = random.Random(seed)
    labels = list(pattern)
    periods = [step_l if c == "L" else step_r for c in labels]
    perturbations = []
    for p in periods:
        # Bump with exact displacement in [0, amp], amp <= p/2 and < 1/2 so
        # the period-1 map stays monotone.
        amp = min(p / 2, as_qnum(Fraction(1, 4), spec.d)) * Fraction(
            rng.randint(1, 16), 16
        )
        phase = Fraction(rng.randint(0, 7), 16)
        perturbations.append(
            PLMap(
                1,
                [
                    (phase, phase),
                    (phase + Fraction(1, 2), phase + Fraction(1, 2) + amp),
                ],
            )
        )
    return MetricChain(labels, periods, perturbations)

"""Abstract model of the cone-field argument.

Chains of slithering pieces induce a family of comparison metrics d_i on
the leaf space; adjacent metrics differ by at most one slithering period.
A curve crossing the separating cylinders is modeled purely by its
per-crossing progress, and the progress ledger certifies the induction
bound n*T - 2*n*r for its length measured in the first metric.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._record import Record
from .action import PIECES, side_translation_subgroup
from .errors import PreconditionError
from .plmap import PLMap
from .qfield import QNum, _make, _one_field, _triple, as_qnum, qnum

__all__ = [
    "MetricChain",
    "GapReport",
    "LedgerRow",
    "LedgerRun",
    "StallTrace",
    "run_progress_ledger",
    "CROSSINGS",
    "adversarial_stall",
    "sample_leaf_pairs",
    "metric_gap_check",
    "build_chain_from_action",
]


class MetricChain:
    """A sequence of slithering pieces with comparison metrics per cylinder.

    ``periods[i]`` is the slithering period of piece i and
    ``perturbations[i]`` its perturbation psi_{i+1}; ``phi(i)`` maps leaf
    coordinates to the measurement system of cylinder boundary i, with
    ``phi(0)`` the identity, and d_i(lam, mu) = |phi(i)(lam) - phi(i)(mu)|
    is the comparison metric there.  The constructor enforces the clamp
    that makes the metric comparison lemma hold: the perturbation between
    consecutive boundaries displaces no point by more than half the piece's
    period.

    The perturbations psi_1, ..., psi_n are the leaves of a product tree:
    the node of a range [lo, hi) is psi_hi o ... o psi_{lo+1}, the node of
    its upper half after that of its lower half, split at the midpoint.
    Nodes are composed when first asked for and kept, so each is composed at
    most once.  ``_product`` composes the O(log n) nodes that cover any
    range [a, b), and phi(i) = psi_i o ... o psi_1 is that of [0, i).
    Composition is associative and a ``PLMap`` has one canonical form, so
    phi(i) is the map the prefix composes give; composing halves keeps both
    operands small, where each prefix compose grows the map by a piece.
    """

    def __init__(self, periods, perturbations) -> None:
        if not periods:
            raise PreconditionError("chain needs at least one piece")
        if len(periods) != len(perturbations):
            raise PreconditionError("periods, perturbations must align")
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
        # Products of ranges [lo, hi), keyed by the range: the tree's nodes,
        # with its leaves, and each phi(i) asked for, the product of [0, i).
        self._products = {(k, k + 1): psi for k, psi in enumerate(perturbations)}
        self._products[(0, 0)] = PLMap.identity(perturbations[0].period)

    @property
    def r_max(self) -> QNum:
        return max(self.periods)

    def __len__(self) -> int:
        return len(self.periods)

    def _product(self, lo: int, hi: int, a: int, b: int) -> PLMap:
        """psi_b o ... o psi_{a+1}, the product of [a, b) for lo <= a < b <= hi,
        from the node of [lo, hi) and the nodes under it."""
        whole = (a, b) == (lo, hi)
        if whole and (lo, hi) in self._products:
            return self._products[(lo, hi)]
        mid = (lo + hi) // 2
        if b <= mid:
            return self._product(lo, mid, a, b)
        if a >= mid:
            return self._product(mid, hi, a, b)
        f = self._product(mid, hi, mid, b).compose(self._product(lo, mid, a, mid))
        if whole:
            self._products[(lo, hi)] = f
        return f

    def phi(self, i: int) -> PLMap:
        """phi_i = psi_i o ... o psi_1, for 0 <= i <= len(self)."""
        if not 0 <= i <= len(self):
            raise PreconditionError(f"cylinder index {i} out of range")
        f = self._products.get((0, i))
        if f is None:
            f = self._products[(0, i)] = self._product(0, len(self), 0, i)
        return f


class GapReport(Record):
    """The QNums ``bound`` and ``max_gap``, their float ratio ``max_ratio``,
    and the int ``violations``, the number of samples whose gap exceeds
    the bound."""

    __slots__ = ("bound", "max_gap", "max_ratio", "violations")


def sample_leaf_pairs(rng: random.Random, samples: int) -> list:
    """``samples`` leaf pairs (lam, mu), lam in (1/7)Z and mu in (1/11)Z,
    both within 60/7 of 0, drawn from ``rng`` in that order."""
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    return [
        (Fraction(rng.randint(-60, 60), 7), Fraction(rng.randint(-60, 60), 11))
        for _ in range(samples)
    ]


def metric_gap_check(chain: MetricChain, i: int, j: int, samples) -> GapReport:
    """Check |d_i - d_j| <= (n+1) * max period over the sampled leaf pairs.

    n is the number of cylinders strictly between boundaries i and j, so
    the bound is |j - i| times the largest period, and one period when
    i = j.  ``phi(i)`` and ``phi(j)`` are read once, and ``phi`` is the
    range check.  No samples give a zero ``max_gap`` and no violations.
    """
    f, g = chain.phi(min(i, j)), chain.phi(max(i, j))
    bound = chain.r_max * max(abs(j - i), 1)
    gaps = [abs(abs(f(lam) - f(mu)) - abs(g(lam) - g(mu))) for lam, mu in samples]
    max_gap = max(gaps, default=qnum(0))
    violations = sum(gap > bound for gap in gaps)
    return GapReport(bound, max_gap, float(max_gap) / float(bound), violations)


class LedgerRow(Record):
    """Crossing ``index`` (an int) with the QNums ``progress``,
    ``distortion``, ``certified_lower_bound`` and ``simulated_d1``."""

    __slots__ = ("index", "progress", "distortion", "certified_lower_bound", "simulated_d1")


class LedgerRun(Record):
    """``rows``, a tuple of LedgerRows; ``verdict``, REGULATING or
    NOT_CERTIFIED; and ``final_bound``, a QNum."""

    __slots__ = ("rows", "verdict", "final_bound")


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
    if policy not in ("adversarial", "random"):
        raise PreconditionError(f"unknown policy {policy!r}")
    (tn, tm, tq), (rn, rm, rq) = _triple(T), _triple(r)
    # Each value is (a*T + b*r)/1000 for ints a and b, so it is one _make over
    # 1000*q_T*q_r in the field of whichever of T and r is irrational.
    d, den = _one_field(r.d, tm and T.d, rm and r.d), 1000 * tq * rq
    tn, tm, rn, rm = tn * rq, tm * rq, rn * tq, rm * tq
    bn, bm = 1000 * (tn - 2 * rn), 1000 * (tm - 2 * rm)  # the bound m*T - 2*m*r over m
    is_random, rng, rows = policy == "random", random.Random(seed), []
    progress = forward = back = 0
    for m in range(1, n + 1):
        p = 1000 + rng.randint(0, 1000) if is_random else 1000
        delta = 0 if m == n else rng.randint(-1000, 1000) if is_random else -1000
        # Re-measuring the first m crossings back in d_1 crosses m-1
        # boundaries; the same policy draws those distortions.
        if m > 1:
            back += rng.randint(-1000, 1000) if is_random else -1000
        progress, a = progress + p, forward + back
        rows.append(LedgerRow(m, _make(p * tn, p * tm, den, d), _make(delta * rn, delta * rm, den, d),
                              _make(m * bn, m * bm, den, d),
                              _make(progress * tn + a * rn, progress * tm + a * rm, den, d)))
        forward += delta
    verdict = "REGULATING" if T > 2 * r else "NOT_CERTIFIED"
    return LedgerRun(tuple(rows), verdict, rows[-1].certified_lower_bound)


CROSSINGS = 1000  # crossings the stall search follows


class StallTrace(Record):
    """The d_1 value after each of ``CROSSINGS`` crossings with every
    distortion -r: it starts at T (``start``, a QNum) and moves by T - 2r
    (``step``, a QNum) per crossing."""

    __slots__ = ("start", "step")

    def value(self, i: int) -> QNum:
        """The value after crossing i + 1, for 0 <= i < CROSSINGS."""
        return self.start + self.step * i

    def bounded(self) -> bool:
        # The values are linear in i, so the last one is the largest or
        # the first one is.
        return self.value(CROSSINGS - 1) <= self.start


def adversarial_stall(T, r) -> StallTrace | None:
    """Search for a distortion sequence whose d_1 progress stays bounded
    over ``CROSSINGS`` crossings.  The d_1 value after m crossings is
    linear in the distortions, so the greedy all-minus sequence is the
    exact minimizer; it stalls precisely when T <= 2r.  Returns the
    verified trace, or None when every sequence diverges.
    """
    T = as_qnum(T)
    r = as_qnum(r)
    if T.sign() <= 0 or r.sign() < 0:
        raise PreconditionError("T must be positive and r nonnegative")
    # Greedy: each new crossing adds T and two re-measurements, each
    # distorted by the worst case -r, so the last value is
    # T + (CROSSINGS - 1)*step and exceeds T exactly when step > 0.
    step = T - 2 * r
    if step.sign() > 0:
        return None
    return StallTrace(T, step)


def build_chain_from_action(spec, pattern: str, seed: int = 0) -> MetricChain:
    """A metric chain whose slithering periods come from the action's pieces.

    ``pattern`` is a string over {L, R}, each letter a piece of
    ``action.PIECES`` in upper case; perturbations are bump maps derived
    from the standard beta shape, scaled to respect the half-period clamp.
    """
    letters = [x.upper() for x in PIECES]
    if not pattern or any(c not in letters for c in pattern):
        raise PreconditionError(f"pattern must be a nonempty string over {{{', '.join(letters)}}}")
    step = {c: side_translation_subgroup(spec, c.lower()).step for c in letters}
    rng = random.Random(seed)
    periods = [step[c] for c in pattern]
    perturbations = []
    for p in periods:
        # Bump with exact displacement in [0, amp], amp <= p/2 and < 1/2 so
        # the period-1 map stays monotone.
        amp = min(p / 2, as_qnum(Fraction(1, 4), spec.d)) * Fraction(
            rng.randint(1, 16), 16
        )
        phase = Fraction(rng.randint(0, 7), 16)
        half = phase + Fraction(1, 2)
        perturbations.append(PLMap(1, [(phase, phase), (half, half + amp)]))
    return MetricChain(periods, perturbations)

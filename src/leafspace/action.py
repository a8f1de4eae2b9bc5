"""The amalgamated leaf-space action and its non-uniformity certificate.

Two punctured-torus pieces act on the real line: on the left, alpha_l is a
translation through t and beta_l a non-translation fixing the integers; on
the right, alpha_r translates through s.  Rescaling each side so the glued
longitude translates through a unit length puts both actions in common
coordinates.  The translations commuting with each side then form discrete
groups with steps 1/t and 1/s, and exact (in)commensurability of the steps
decides whether any single translation commutes with both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatchError, ParseError, PeriodMismatchError, PreconditionError
from .plmap import PLMap, PeriodGroup
from .qfield import QNum, as_qnum, qnum, ratio_is_rational

__all__ = [
    "ActionSpec",
    "Certificate",
    "ComposedMap",
    "standard_beta",
    "build_glued_action",
    "evaluate_word",
    "side_translation_subgroup",
    "certify_nonuniform",
    "orbit_density",
    "incompressible_interval_search",
]

SIDES = {"left": "beta_l", "right": "beta_r"}
# The glued longitude, a unit translation in the common coordinates.
LONGITUDE = "alpha_l"


def standard_beta(d: int = 2) -> PLMap:
    """Default non-translation generator: fixes Z, pushes (0, 1) upward.

    One interior breakpoint per period, at (1/2, 3/4).
    """
    return PLMap(qnum(1, 0, d), [(0, 0), (Fraction(1, 2), Fraction(3, 4))])


@dataclass(frozen=True)
class ActionSpec:
    """The normalized leaf-space action of both glued pieces.

    ``generators`` holds the images in longitude-unit coordinates: left
    generators carry period 1/t, right generators period 1/s, and both
    alpha generators are unit translations.  The raw lengths t and s are
    retained for reporting.
    """

    d: int
    t: QNum
    s: QNum
    generators: dict

    def generator(self, name: str) -> PLMap:
        try:
            return self.generators[name]
        except KeyError:
            raise PreconditionError(f"unknown generator {name!r}") from None


def _check_beta(beta: PLMap, label: str) -> None:
    if beta.is_translation():
        raise PreconditionError(
            f"{label} is a translation; the certificate would be vacuous"
        )
    # Period 1 alone makes beta commute with the unit translation.
    if beta.period != 1:
        raise PreconditionError(f"{label} must have period 1 in raw coordinates")
    # f(x) - x is continuous and periodic, so it vanishes somewhere iff its
    # range, attained at the breakpoints, contains 0.
    lo, hi = beta.displacement_range()
    if not lo <= 0 <= hi:
        raise PreconditionError(f"{label} must have fixed points in raw coordinates")


def build_glued_action(
    t, s, beta_l: PLMap | None = None, beta_r: PLMap | None = None
) -> ActionSpec:
    """Assemble the two-piece action for translation lengths t and s.

    Each side is conjugated by the coordinate rescaling that turns its
    alpha generator into a unit translation, so both sides act in the same
    longitude-unit coordinates on the leaf space.  The action's field is
    that of an irrational length, or else the field s was read in; lengths
    irrational in two fields raise ``FieldMismatchError`` before any map is
    built.
    """
    t, s = as_qnum(t), as_qnum(s)
    if not (t.is_rational() or s.is_rational()) and t.d != s.d:
        a, b = sorted((t.d, s.d))
        raise FieldMismatchError(f"mixed fields: sqrt({a}) vs sqrt({b})")
    if t.sign() <= 0 or s.sign() <= 0:
        raise PreconditionError("t and s must be positive")
    d = (s if t.is_rational() else t).d
    if beta_l is None:
        beta_l = standard_beta(d)
    if beta_r is None:
        beta_r = standard_beta(d)
    _check_beta(beta_l, "beta_l")
    _check_beta(beta_r, "beta_r")
    generators = {
        "alpha_l": PLMap.translation(t, 1).affine_conjugate(t),
        "beta_l": beta_l.affine_conjugate(t),
        "alpha_r": PLMap.translation(s, 1).affine_conjugate(s),
        "beta_r": beta_r.affine_conjugate(s),
    }
    return ActionSpec(d=d, t=t, s=s, generators=generators)


def load_action_config(config: dict) -> ActionSpec:
    """Build an ActionSpec from its JSON object form.

    Schema: ``{"d": int, "t": qnum, "s": qnum, "beta_l": plmap?, "beta_r":
    plmap?}`` with numbers in the canonical text grammar; omitted beta maps
    default to the standard one.
    """
    if not isinstance(config, dict):
        raise ParseError("action config must be a JSON object")
    d = config.get("d", 2)
    if type(d) is not int:
        raise ParseError(f"d must be an integer, got {d!r}")
    try:
        t = QNum.parse(config["t"], d)
        s = QNum.parse(config["s"], d)
    except KeyError as exc:
        raise ParseError(f"action config missing field {exc}") from exc
    beta_l = beta_r = None
    if "beta_l" in config:
        beta_l = PLMap.from_json(config["beta_l"], d)
    if "beta_r" in config:
        beta_r = PLMap.from_json(config["beta_r"], d)
    return build_glued_action(t, s, beta_l, beta_r)


class ComposedMap:
    """A word image that admits no single-period PL representation.

    Mixing the two non-translation generators across sides composes maps with
    incommensurable periods; the result is an honest homeomorphism of the
    line but not periodic, so it is kept as an ordered factor list with exact
    pointwise evaluation.
    """

    __slots__ = ("factors",)

    def __init__(self, factors) -> None:
        self.factors = tuple(factors)

    def __call__(self, x) -> QNum:
        for f in reversed(self.factors):
            x = f(x)
        return x

    def __repr__(self) -> str:
        return f"ComposedMap({len(self.factors)} factors)"


def _validate_word(spec: ActionSpec, word) -> list[tuple[PLMap, int]]:
    """(generator, exponent) for each letter, every letter checked in turn."""
    out = []
    for name, exp in word:
        g = spec.generator(name)
        if type(exp) is not int or exp == 0:
            raise PreconditionError(f"exponent for {name} must be a nonzero integer")
        out.append((g, exp))
    return out


def evaluate_word(spec: ActionSpec, word):
    """Image of a word under the action, as a PLMap whenever one exists.

    Falls back to a ComposedMap when the word mixes non-translation
    generators from both sides (incommensurable periods).
    """
    factors = [g.pow(exp) for g, exp in _validate_word(spec, word)]
    if not factors:
        return PLMap.identity(spec.generator(LONGITUDE).period)
    try:
        result = factors[0]
        for f in factors[1:]:
            result = result.compose(f)
        return result
    except PeriodMismatchError:
        return ComposedMap(factors)


def side_translation_subgroup(spec: ActionSpec, side: str) -> PeriodGroup:
    """The translations commuting with one side, via its beta generator."""
    try:
        beta_name = SIDES[side]
    except KeyError:
        raise PreconditionError(f"side must be 'left' or 'right', got {side!r}") from None
    beta = spec.generator(beta_name)
    if beta.is_translation():
        raise PreconditionError(f"{beta_name} is a translation")
    return beta.period_group()


@dataclass(frozen=True)
class Certificate:
    """Decision on whether any translation commutes with both sides."""

    verdict: str  # NO_COMMON_TRANSLATION or COMMON_TRANSLATION
    left_step: QNum
    right_step: QNum
    ratio_rational: bool
    quotient: QNum  # exact left_step / right_step
    common_translation: QNum | None  # minimal common step when it exists
    density_report: "OrbitGapReport | None"

    def to_json(self) -> dict:
        obj = {
            "verdict": self.verdict,
            "left_step": str(self.left_step),
            "right_step": str(self.right_step),
            "ratio_rational": self.ratio_rational,
            "quotient": str(self.quotient),
            "common_translation": (
                None if self.common_translation is None else str(self.common_translation)
            ),
        }
        if self.density_report is not None:
            obj["density_evidence"] = self.density_report.to_json()
        return obj


def certify_nonuniform(spec: ActionSpec, density_word_len: int | None = None) -> Certificate:
    """Decide, exactly, whether a common commuting translation exists.

    The verdict NO_COMMON_TRANSLATION is the algebraic certificate that no
    slithering is compatible with both sides; it is conditional on
    minimality of the orbits, for which the gap report of the orbit of 0
    in [0, 1), attached when ``density_word_len`` is given, is numeric
    evidence rather than proof.
    """
    c_l = side_translation_subgroup(spec, "left").step
    c_r = side_translation_subgroup(spec, "right").step
    rational, quotient = ratio_is_rational(c_l, c_r)
    common = None
    if rational:
        q = quotient.as_fraction()
        common = c_l * q.denominator  # = c_r * q.numerator, minimal common step
        verdict = "COMMON_TRANSLATION"
    else:
        verdict = "NO_COMMON_TRANSLATION"
    report = None
    if density_word_len is not None:
        report = orbit_density(spec, 0, density_word_len, (0, 1))
    return Certificate(verdict, c_l, c_r, rational, quotient, common, report)


@dataclass(frozen=True)
class OrbitGapReport:
    max_gap: float
    points_in_window: int
    orbit_size: int
    max_word_len: int
    window: tuple

    def to_json(self) -> dict:
        return {
            "max_gap": self.max_gap,
            "points_in_window": self.points_in_window,
            "orbit_size": self.orbit_size,
            "max_word_len": self.max_word_len,
            "window": [repr(float(w)) for w in self.window],
        }


def _generator_moves(spec: ActionSpec):
    """(letter, map) for each generator and its inverse, in order, without
    a map equal to an earlier one: its images would repeat the earlier
    map's, so a search skips them all, and the first letter wins."""
    moves = {}
    for name in spec.generators:
        g = spec.generator(name)
        moves.setdefault(g, (name, 1))
        moves.setdefault(g.inverse(), (name, -1))
    return [(letter, m) for m, letter in moves.items()]


def _word_search(moves, start, max_word_len: int, keep=None, stop=None):
    """Breadth-first over the words of length 1 to max_word_len; a move maps
    a word's state to that of the word with its letter applied last.  New
    states are deduplicated exactly and dropped unless ``keep(state, j)``
    for a word of length j.  Returns ``(word, seen)``: the first word whose
    state satisfies ``stop``, else None, and a dict of the states reached."""
    if max_word_len < 1:
        raise PreconditionError("max_word_len must be >= 1")
    seen = {start: None}
    frontier = [start]
    for j in range(1, max_word_len + 1):
        nxt = []
        for x in frontier:
            for letter, move in moves:
                y = move(x)
                if y in seen or keep is not None and not keep(y, j):
                    continue
                seen[y] = x, letter
                if stop is not None and stop(y):
                    word = []
                    while seen[y] is not None:
                        y, letter = seen[y]
                        word.append(letter)
                    return tuple(reversed(word)), seen
                nxt.append(y)
        frontier = nxt
    return None, seen


def orbit_density(spec: ActionSpec, x0, max_word_len: int, window) -> OrbitGapReport:
    """Largest gap the orbit of x0 leaves in the window.

    Breadth-first over all words up to the length bound (generators and
    inverses), with exact point deduplication; the gap is measured in
    floating point against the window edges.
    """
    # Checked here too, so that it comes before the window's checks.
    if max_word_len < 1:
        raise PreconditionError("max_word_len must be >= 1")
    lo, hi = as_qnum(window[0], spec.d), as_qnum(window[1], spec.d)
    if not lo < hi:
        raise PreconditionError("window must be nondegenerate")
    moves = _generator_moves(spec)
    reach = max((abs(d) for _, m in moves for d in m.displacement_range()), default=0)
    margin = reach * max_word_len + 1
    low, high = lo - margin, hi + margin
    x0 = as_qnum(x0, spec.d)
    # A point of word length j lies within reach*j of x0, so the margin test
    # drops none before the first j at which that leaves [low, high].
    first = next((j for j in range(1, max_word_len + 1)
                  if x0 - reach * j < low or x0 + reach * j > high), max_word_len + 1)
    _, seen = _word_search(moves, x0, max_word_len, lambda y, j: j < first or low <= y <= high)
    inside = sorted(float(x) for x in seen if lo <= x < hi)
    seq = [float(lo)] + inside + [float(hi)]
    gap = max(b - a for a, b in zip(seq, seq[1:]))
    return OrbitGapReport(gap, len(inside), len(seen), max_word_len, (lo, hi))


@dataclass(frozen=True)
class CompressionResult:
    kind: str  # INCOMPRESSIBLE_UP_TO_BOUND or COMPRESSED_BY
    word: tuple | None

    def to_json(self) -> dict:
        return {
            "result": self.kind,
            "word": None if self.word is None else [list(w) for w in self.word],
        }


def incompressible_interval_search(
    spec: ActionSpec, interval, max_word_len: int
) -> CompressionResult:
    """Bounded search for a word nesting the interval strictly inside itself.

    Tests every word up to the length bound; a COMPRESSED_BY witness means
    some image g(I) is a proper subset or superset of I.  The negative
    answer is only a bounded-search report, not a proof.
    """
    a, b = as_qnum(interval[0], spec.d), as_qnum(interval[1], spec.d)
    if not a < b:
        raise PreconditionError("interval must be nondegenerate")
    # A word acts on I through its endpoint images, so its state is the exact
    # pair; (a, b) is seen before any word, so a stopping state nests I properly.
    moves = [(letter, lambda st, m=m: (m(st[0]), m(st[1])))
             for letter, m in _generator_moves(spec)]
    word, _ = _word_search(moves, (a, b), max_word_len, stop=lambda st: (
        (a <= st[0] and st[1] <= b) or (st[0] <= a and b <= st[1])))
    kind = "INCOMPRESSIBLE_UP_TO_BOUND" if word is None else "COMPRESSED_BY"
    return CompressionResult(kind, word)

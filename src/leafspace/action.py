"""The amalgamated leaf-space action and its non-uniformity certificate.

Punctured-torus pieces, glued along a torus, act on the real line.  Each
piece is named by the suffix x of its generators, in the order of
``PIECES``: alpha_x translates through the piece's length, t for piece
"l" and s for piece "r", and beta_x is a period-1 non-translation with
fixed points.  Rescaling each piece so the glued longitude translates
through a unit length puts all of them in common coordinates.  The
translations commuting with beta_x then form a discrete group with a step
c_x, and exact (in)commensurability of the steps decides whether any
single translation commutes with every beta.  When the steps are
incommensurable, no homeomorphism without fixed points commutes with every
beta, so no slithering is compatible with all the pieces: each beta's
fixed set forces a fixed point (see ``certify_nonuniform``).
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import ParseError, PeriodMismatchError, PreconditionError
from .plmap import _ONE, _ZERO, PLMap, PeriodGroup, _only_keys
from .qfield import (
    QNum, _cmp, _div, _float, _one_field, _reduced, _sign, _triple, as_qnum, qnum,
    ratio_is_rational,
)

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

# The glued pieces, in order, by the suffix of their generator names.
PIECES = ("l", "r")
# The glued longitude, a unit translation in the common coordinates.
LONGITUDE = "alpha_l"


def standard_beta(d: int = 2) -> PLMap:
    """Default non-translation generator: fixes Z, pushes (0, 1) upward.

    One interior breakpoint per period, at (1/2, 3/4).
    """
    return PLMap(qnum(1, 0, d), [(0, 0), (Fraction(1, 2), Fraction(3, 4))])


class ActionSpec(Record):
    """The normalized leaf-space action of the glued pieces.

    ``generators`` (a dict from name to PLMap) holds alpha_x and beta_x for
    each piece x of ``PIECES``, in that order, as images in longitude-unit
    coordinates: piece "l" carries period 1/t, piece "r" period 1/s, and
    every alpha generator is a unit translation.  The raw lengths t and s
    (QNums in the field of ``d``, an int) are retained for reporting.
    """

    __slots__ = ("d", "t", "s", "generators")

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
    if beta._p != _ONE:
        raise PreconditionError(f"{label} must have period 1 in raw coordinates")
    # f(x) - x is continuous and periodic, so it vanishes somewhere iff its
    # range, attained at the breakpoints, contains 0.
    (ln, lm, _), (hn, hm, _) = beta._displacement_extremes()
    if _sign(ln, lm, beta._d) > 0 or _sign(hn, hm, beta._d) < 0:
        raise PreconditionError(f"{label} must have fixed points in raw coordinates")


def build_glued_action(
    t, s, beta_l: PLMap | None = None, beta_r: PLMap | None = None
) -> ActionSpec:
    """Assemble the two-piece action for translation lengths t and s.

    Each piece is conjugated by the coordinate rescaling that turns its
    alpha generator into a unit translation, so all pieces act in the same
    longitude-unit coordinates on the leaf space: alpha_x, x -> x + length
    conjugated by x -> x/length, is the unit translation at period
    1/length, built as that directly.  The action's field is that of an
    irrational length or beta, or else the field s was read in; every
    generator carries it.  Lengths and betas irrational in two fields raise
    ``FieldMismatchError`` before any map is built.
    """
    t, s = as_qnum(t), as_qnum(s)
    betas = beta_l, beta_r
    d = _one_field(s.d, t._m and t.d, s._m and s.d, *(b and b._field for b in betas))
    if t.sign() <= 0 or s.sign() <= 0:
        raise PreconditionError("t and s must be positive")
    betas = [standard_beta(d) if b is None else b for b in betas]
    for x, beta in zip(PIECES, betas):
        _check_beta(beta, f"beta_{x}")
    generators = {}
    for x, length, beta in zip(PIECES, (t, s), betas):
        generators[f"alpha_{x}"] = PLMap._trusted(d, _div(_ONE, _triple(length), d),
                                                  [_ZERO], [_ONE], [_ONE])
        generators[f"beta_{x}"] = beta.affine_conjugate(length)
    return ActionSpec(d=d, t=t, s=s, generators=generators)


def load_action_config(config: dict) -> ActionSpec:
    """Build an ActionSpec from its JSON object form.

    Schema: ``{"d": int, "t": qnum, "s": qnum, "beta_l": plmap?, "beta_r":
    plmap?}`` with numbers in the canonical text grammar; omitted beta maps
    default to the standard one, and any other key is malformed.
    """
    if not isinstance(config, dict):
        raise ParseError("action config must be a JSON object")
    _only_keys(config, ("d", "t", "s", *(f"beta_{x}" for x in PIECES)), "action config")
    d = config.get("d", 2)
    if type(d) is not int:
        raise ParseError(f"d must be an integer, got {d!r}")
    try:
        t = QNum.parse(config["t"], d)
        s = QNum.parse(config["s"], d)
    except KeyError as exc:
        raise ParseError(f"action config missing field {exc}") from exc
    betas = [PLMap.from_json(config[f"beta_{x}"], d) if f"beta_{x}" in config else None
             for x in PIECES]
    return build_glued_action(t, s, *betas)


class ComposedMap:
    """A word image that admits no single-period PL representation.

    Mixing the non-translation generators of two pieces composes maps with
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


# The most work one word may cost: under 1 s on the shipped configs.
WORD_CHARGE_CAP = 2 * 10**7


def _validate_word(spec: ActionSpec, word) -> list[tuple[PLMap, int]]:
    """(generator, exponent) for each letter, every letter checked in turn
    and charged before any power is taken: ``size`` grows by |exponent| times
    the breakpoints of a letter that is not a translation, and each letter
    charges size**2, since a compose costs breakpoints times coefficient bits."""
    out, size, charge = [], 0, 0
    for name, exp in word:
        g = spec.generator(name)
        if type(exp) is not int or exp == 0:
            raise PreconditionError(f"exponent for {name} must be a nonzero integer")
        if not g.is_translation():
            size += abs(exp) * len(g._xs)
        charge += size * size
        if charge > WORD_CHARGE_CAP:
            raise PreconditionError(f"word costs more than {WORD_CHARGE_CAP} units of work")
        out.append((g, exp))
    return out


def evaluate_word(spec: ActionSpec, word):
    """Image of a word under the action, as a PLMap whenever one exists.

    Falls back to a ComposedMap when the word mixes non-translation
    generators of two pieces (incommensurable periods).
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


def side_translation_subgroup(spec: ActionSpec, piece: str) -> PeriodGroup:
    """The translations commuting with one piece of ``PIECES``, via its beta
    generator."""
    if piece not in PIECES:
        raise PreconditionError(f"piece must be one of {', '.join(PIECES)}, got {piece!r}")
    beta_name = f"beta_{piece}"
    beta = spec.generator(beta_name)
    if beta.is_translation():
        raise PreconditionError(f"{beta_name} is a translation")
    return beta.period_group()


class Certificate(Record):
    """Decision on whether any translation commutes with both pieces.

    ``verdict`` is NO_COMMON_TRANSLATION or COMMON_TRANSLATION; ``left_step``
    and ``right_step`` are QNums, ``ratio_rational`` is a bool, ``quotient``
    is the exact QNum left_step / right_step, and ``common_translation`` the
    minimal common step (a QNum) when it exists or else None.
    """

    __slots__ = ("verdict", "left_step", "right_step", "ratio_rational", "quotient",
                 "common_translation")


def certify_nonuniform(spec: ActionSpec) -> Certificate:
    """Decide, exactly, whether a common commuting translation exists.

    The steps c_l and c_r generate the translations commuting with beta_l
    and beta_r.  The verdict is COMMON_TRANSLATION, with the minimal common
    step, when c_l/c_r is rational.  Otherwise it is NO_COMMON_TRANSLATION,
    which certifies that no increasing homeomorphism h of the line without
    fixed points commutes with both betas, so no slithering is compatible
    with both pieces:

    - Fix(beta_x) is c_x-periodic, nonempty (``_check_beta``), and a PL
      map has finitely many fixed components per period, n_x say.
    - h commutes with beta_x, so it maps Fix(beta_x) onto itself keeping
      order, and shifts its components by a fixed index m_x.  Then h^N
      moves the points of Fix(beta_x) by N*m_x*c_x/n_x + O(1).
    - A point of one fixed set between two points of the other, at most
      one period apart, stays between their images under h^N.  So the
      two rates are equal: m_l*c_l/n_l = m_r*c_r/n_r.
    - c_l/c_r is irrational, so m_l = m_r = 0.  Then h maps a component of
      Fix(beta_l), a point or a closed interval, onto itself, and fixes
      it or its ends.

    The verdict rests on these fixed sets alone; an orbit's gaps
    (``orbit_density``) are a diagnostic.
    """
    c_l, c_r = (side_translation_subgroup(spec, x).step for x in PIECES)
    rational, quotient = ratio_is_rational(c_l, c_r)
    common = None
    if rational:
        q = quotient.as_fraction()
        common = c_l * q.denominator  # = c_r * q.numerator, minimal common step
        verdict = "COMMON_TRANSLATION"
    else:
        verdict = "NO_COMMON_TRANSLATION"
    return Certificate(verdict, c_l, c_r, rational, quotient, common)


class OrbitGapReport(Record):
    """The largest gap ``max_gap`` (a float) an orbit leaves in its window,
    with the ints ``points_in_window`` and ``orbit_size``."""

    __slots__ = ("max_gap", "points_in_window", "orbit_size")


def _generator_moves(spec: ActionSpec):
    """(letter, map) for each generator and its inverse, in order, without
    a map equal to an earlier one: its images would repeat the earlier
    map's, so a search skips them all, and the first letter wins."""
    moves = {}
    for name, g in spec.generators.items():
        moves.setdefault(g, (name, 1))
        moves.setdefault(g.inverse(), (name, -1))
    return [(letter, m) for m, letter in moves.items()]


def _int_move(f: PLMap, d: int):
    """f on ``qfield`` triples in the field d, each image reduced by the
    triples' own ``_reduced``, so equal points are equal triples."""
    image = f._image
    return lambda x: image(x[0], x[1], x[2], d, _reduced)


def _word_search(moves, start, max_word_len: int, keep=None, stop=None):
    """Breadth-first over the words of length 1 to max_word_len; a move maps
    a word's state to that of the word with its letter applied last.  New
    states are deduplicated exactly and dropped unless ``keep(state)``.
    Returns ``(word, seen)``: the first word whose state satisfies ``stop``,
    else None, and a dict of the states reached.

    In ``_generator_moves`` the letter (name, -e) moves by the inverse of
    (name, e), so it takes a state reached by (name, e) back to its parent,
    which is seen already: it is skipped there, with no change to any result."""
    steps = [(letter, move, []) for letter, move in moves]
    for (name, e), _, after in steps:  # every step but the one undoing (name, e)
        after += [step for step in steps if step[0] != (name, -e)]
    seen = {start: None}
    frontier = [(start, steps)]
    for _ in range(max_word_len):
        nxt = []
        for x, options in frontier:
            for letter, move, after in options:
                y = move(x)
                if y in seen or keep is not None and not keep(y):
                    continue
                seen[y] = x, letter
                if stop is not None and stop(y):
                    word = []
                    while seen[y] is not None:
                        y, letter = seen[y]
                        word.append(letter)
                    return tuple(reversed(word)), seen
                nxt.append((y, after))
        frontier = nxt
    return None, seen


def orbit_density(spec: ActionSpec, x0, max_word_len: int, window) -> OrbitGapReport:
    """Largest gap the orbit of x0 leaves in the window.

    Breadth-first over all words up to the length bound (generators and
    inverses), with exact point deduplication on (n, m, q) triples in one
    field; the gap is measured in floating point against the window edges.
    """
    if max_word_len < 1:
        raise PreconditionError("max_word_len must be >= 1")
    lo, hi = as_qnum(window[0], spec.d), as_qnum(window[1], spec.d)
    if not lo < hi:
        raise PreconditionError("window must be nondegenerate")
    moves = _generator_moves(spec)
    x0 = as_qnum(x0, spec.d)
    d = _one_field(spec.d, *(m._field for _, m in moves), *(x._m and x._d for x in (x0, lo, hi)))
    keep = None
    # The margin test keeps the points within reach*L + 1 of the window, L
    # the word length bound.  A point of word length j lies within reach*j
    # of x0, so when x0 lies within 1 of the window the test drops no point
    # and is not made.
    if not lo - 1 <= x0 <= hi + 1:
        reach = max((abs(disp) for _, m in moves for disp in m.displacement_range()), default=0)
        margin = reach * max_word_len + 1
        low, high = _triple(lo - margin), _triple(hi + margin)

        def keep(y):
            # y lies in [low, high] iff y - low and y - high are not of one sign.
            return _cmp(y, low, d) * _cmp(y, high, d) <= 0

    lo_i, hi_i = _triple(lo), _triple(hi)
    _, seen = _word_search(
        [(letter, _int_move(m, d)) for letter, m in moves], _triple(x0), max_word_len, keep)
    inside = sorted(_float(*x, d) for x in seen if _cmp(x, lo_i, d) >= 0 > _cmp(x, hi_i, d))
    seq = [float(lo)] + inside + [float(hi)]
    gap = max(b - a for a, b in zip(seq, seq[1:]))
    return OrbitGapReport(gap, len(inside), len(seen))


class CompressionResult(Record):
    """``kind`` is INCOMPRESSIBLE_UP_TO_BOUND or COMPRESSED_BY; ``word`` is
    the compressing word (a tuple of letters) or None."""

    __slots__ = ("kind", "word")


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
    if max_word_len < 1:
        raise PreconditionError("max_word_len must be >= 1")
    moves = _generator_moves(spec)
    d = _one_field(spec.d, *(m._field for _, m in moves), a._m and a._d, b._m and b._d)
    # A word acts on I through its endpoint images (u, v): it nests I iff u - a and
    # v - b are not of one sign, properly, as (a, b) is seen before any word.
    moves = [(letter, lambda st, f=_int_move(m, d): (f(st[0]), f(st[1])))
             for letter, m in moves]
    a, b = _triple(a), _triple(b)
    word, _ = _word_search(moves, (a, b), max_word_len,
                           stop=lambda st: _cmp(st[0], a, d) * _cmp(st[1], b, d) <= 0)
    kind = "INCOMPRESSIBLE_UP_TO_BOUND" if word is None else "COMPRESSED_BY"
    return CompressionResult(kind, word)

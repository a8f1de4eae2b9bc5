"""Seeded request generator with planted answers for every workload.

A workload is an endless sequence of blocks; block ``i`` of workload ``w``
under seed ``s`` depends only on ``(w, s, i)``.  Every block has the same
request mix (the kinds and their size parameters are fixed, only values
vary), so each block costs about the same and a run that completes more
blocks measures the same mix for longer.

Each request carries its planted answer in ``plant`` and the exit codes it
may end with in ``exits``.  Inputs that trip a known program defect carry
the ROADMAP item in ``defect``; they still count as failures.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

from oracle import PL, Quad, Translation, is_probable_prime, sorted_exact

SMALL_D = (2, 3, 5, 6, 7, 10, 11)
MALFORMED = frozenset({2, 3})


@dataclass
class Request:
    kind: str
    argv: list | None = None  # in-process ``leafspace.cli.main`` request
    stdin: str = ""
    call: tuple | None = None  # (library call name, args)
    plant: dict = field(default_factory=dict)
    exits: frozenset = frozenset({0})
    defect: str | None = None


# -- shared value generators -----------------------------------------------


def _rat(rng, lo, hi, den):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def _usable_length(q) -> bool:
    """q = a + b*sqrt(d) lies in [1, 3] and is far from a unit: |a - b*sqrt(d)|
    is at least q/2.

    In [1, 3] no generator moves a point by more than one unit, so the orbit
    searches cover windows of the same width whatever the draw.  Near units
    (small norm, so 1/q has large coefficients) make the metric-lemma chain
    compositions grow their coefficients until ``QNum.floor``'s step-by-one
    search (ROADMAP item 5) runs for minutes on one request."""
    conj = Quad(q.a, -q.b, q.d)
    conj = conj if conj.sign() > 0 else -conj
    return Quad(1) <= q <= Quad(3) and q <= conj * 2


def _length(rng, d):
    while True:
        q = Quad(F(rng.randint(0, 4), 2), F(rng.randint(1, 6), 6), d)
        if _usable_length(q):
            return q


def _unit_point(rng, d):
    """A value in [0, 1): rational on a 1/48 grid, or the fractional part of
    an irrational in Q(sqrt(d)) when d is nonzero."""
    if not d:
        return Quad(F(rng.randint(0, 47), 48))
    q = Quad(_rat(rng, -6, 6, 4), _rat(rng, 1, 9, 7) * rng.choice((1, -1)), d)
    return q - q.floor()


def _distinct_unit_points(rng, k, d):
    vals = []
    while len(vals) < k:
        v = _unit_point(rng, d)
        if all(v != w for w in vals):
            vals.append(v)
    return sorted_exact(vals)


def _is_translation(pts) -> bool:
    pl = PL(1, pts)
    return all(s == pl.slopes[0] for s in pl.slopes)


def _random_pl_points(rng, k, d_x, d_y):
    """Breakpoints of a period-1 homeomorphism that is not a translation;
    x (y) coordinates are irrational when d_x (d_y) is nonzero."""
    while True:
        xs = _distinct_unit_points(rng, k, d_x)
        ys = _distinct_unit_points(rng, k, d_y)
        c = rng.randint(-1, 1)
        pts = [(x, y + c) for x, y in zip(xs, ys)]
        if not _is_translation(pts):
            return pts


def _plmap_json(period, pts) -> dict:
    return {"period": str(period), "breakpoints": [{"x": str(x), "y": str(y)} for x, y in pts]}


def _symmetric_beta(rng, k):
    """Raw beta of period 1 with exact k-fold symmetry: one bump per cell
    [j/k, (j+1)/k), fixing every j/k."""
    h = F(rng.randint(1, 7), 8)
    h2 = F(rng.randint(1, 7), 8)
    while h2 == h:
        h2 = F(rng.randint(1, 7), 8)
    pts = []
    for j in range(k):
        pts.append((F(j, k), F(j, k)))
        pts.append(((j + h) / k, (j + h2) / k))
    return pts


# -- action configs (certify and ledger) -----------------------------------


@dataclass
class ActionPlant:
    d: int
    t: Quad
    s: Quad
    k_l: int
    k_r: int
    beta_l: list
    beta_r: list
    commensurable: bool

    def left_step(self) -> Quad:
        return 1 / (self.t * self.k_l)

    def right_step(self) -> Quad:
        return 1 / (self.s * self.k_r)

    def generators(self) -> dict:
        """The normalized generators, evaluated by the oracle."""
        return {
            "alpha_l": Translation(1),
            "beta_l": PL(1, self.beta_l).scaled(self.t),
            "alpha_r": Translation(1),
            "beta_r": PL(1, self.beta_r).scaled(self.s),
        }

    def config(self) -> dict:
        return {
            "d": self.d,
            "t": str(self.t),
            "s": str(self.s),
            "beta_l": _plmap_json(1, self.beta_l),
            "beta_r": _plmap_json(1, self.beta_r),
        }


RATIOS = (F(1, 2), F(2, 3), F(3, 4), F(1), F(4, 3), F(3, 2), F(2))


def action_plant(rng, commensurable: bool, folds=None, d=None, t=None) -> ActionPlant:
    """Lengths t and s in [1, 3] whose ratio is rational exactly when
    ``commensurable``; betas with planted 1- or 2-fold symmetry (``folds``,
    drawn when not given)."""
    d = d if d is not None else rng.choice(SMALL_D)
    fixed_t = t
    while True:
        t = fixed_t if fixed_t is not None else _length(rng, d)
        if commensurable:
            s = t * rng.choice(RATIOS)
        else:
            e = F(rng.randint(1, 3), 6 * math.isqrt(d))  # e*sqrt(d) near 1/6..1/2
            s = t * Quad(F(rng.randint(0, 2), 2), e, d)
        if _usable_length(s):
            break
    k_l, k_r = folds or (rng.randint(1, 2), rng.randint(1, 2))
    return ActionPlant(d, t, s, k_l, k_r, _symmetric_beta(rng, k_l),
                       _symmetric_beta(rng, k_r), commensurable)


def _cert_plant(ap: ActionPlant) -> dict:
    c_l, c_r = ap.left_step(), ap.right_step()
    quotient = c_l / c_r
    common = None
    if ap.commensurable:
        common = c_l * quotient.a.denominator
    return {"action": ap, "left_step": c_l, "right_step": c_r, "quotient": quotient,
            "common": common}


def _cli(kind, argv, stdin="", plant=None, exits=frozenset({0}), defect=None):
    return Request(kind, argv=argv, stdin=stdin, plant=plant or {}, exits=exits, defect=defect)


def _lib(kind, name, args, plant=None):
    return Request(kind, call=(name, args), plant=plant or {})


def _alternating(make, n):
    """n requests whose configs cycle through commensurable or not and 1- or
    2-fold betas on each side, so every block holds the same mix: a mix
    drawn afresh per request would move the quantiles from run to run."""
    return [make(i % 2 == 0, (1 + i // 2 % 2, 1 + i // 4 % 2)) for i in range(n)]


# -- certify workload -------------------------------------------------------


def certify_request(word_len, ap, exits=None, kind="certify"):
    plant = _cert_plant(ap)
    plant["word_len"] = word_len
    exits = exits or frozenset({10 if ap.commensurable else 0})
    return _cli(kind, ["certify", "--config", "-", "--density-word-len", str(word_len)],
                json.dumps(ap.config()), plant, exits)


def orbit_gap_request(rng, word_len, ap):
    # 0 is fixed by both betas, so its orbit is the smaller one; other
    # starting points at word length 4 cost four times as much, which would
    # put p95 on whichever class a draw favoured.
    x0 = rng.choice((0, F(1, 3), F(1, 2), F(2, 3))) if word_len < 4 else F(0)
    argv = ["orbit-gap", "--config", "-", "--x0", str(Quad(x0)),
            "--max-word-len", str(word_len), "--window", "0,1"]
    return _cli("orbit-gap", argv, json.dumps(ap.config()),
                {"word_len": word_len, "window": (0, 1)})


def incompressible_request(rng, word_len, ap):
    gens = ap.generators()
    if rng.random() < 0.5:
        # 0 is fixed by beta_l and no other point of its first cell is, so
        # (0, v) with v inside that cell is compressed by beta_l alone.
        cell = ap.left_step()
        m = 2
        while not F(1, m) < cell:
            m += 1
        lo, hi, planted = F(0), F(1, m + rng.randint(0, 3)), True
    else:
        lo = F(rng.randint(0, 5), 6)
        hi = lo + F(rng.randint(1, 6), 6)
        planted = False
    argv = ["incompressible", "--config", "-", "--interval", f"{Quad(lo)},{Quad(hi)}",
            "--max-word-len", str(word_len)]
    return _cli("incompressible", argv, json.dumps(ap.config()),
                {"gens": gens, "interval": (Quad(lo), Quad(hi)), "compressible": planted})


def eval_word_request(rng, ap):
    names = ("alpha_l", "beta_l", "alpha_r", "beta_r")
    word = [(rng.choice(names), rng.choice((-2, -1, 1, 2, 3))) for _ in range(rng.randint(1, 4))]
    betas = {n for n, _ in word if n.startswith("beta")}
    argv = ["eval-word", "--config", "-", "--word", json.dumps(word)]
    return _cli("eval-word", argv, json.dumps(ap.config()),
                {"gens": ap.generators(), "word": word,
                 "must_be_plmap": len(betas) < 2 or ap.commensurable})


def build_action_request(ap):
    return _cli("build-action", ["build-action", "--config", "-"], json.dumps(ap.config()),
                {"action": ap})


def big_d_request(rng, commensurable):
    """A config over Q(sqrt(d)) with d a prime near 1e12.  Validating d by
    trial division costs ~1e6 steps (ROADMAP item 5); the verdict is still
    planted, and a clean rejection of an oversized d (exit 2 or 3) also
    passes."""
    d = 10**12 + rng.randrange(10**9)
    while not is_probable_prime(d):
        d += 1
    t = Quad(0, F(1, math.isqrt(d)), d)  # just above 1
    ap = action_plant(rng, commensurable, (1, 1), d=d, t=t)
    exits = frozenset({10 if ap.commensurable else 0}) | MALFORMED
    return certify_request(2, ap, exits, kind="certify-big-d")


def malformed_certify_requests(rng):
    """Malformed action inputs: one the CLI already rejects cleanly, and the
    four ROADMAP item-5 defects, which must end in exit 2 or 3 but do not."""
    base = action_plant(rng, rng.random() < 0.5).config()
    if rng.random() < 0.5:
        bad, code = dict(base), 2
        del bad["s"]
    else:
        bad, code = dict(base, t="-" + str(_rat(rng, 1, 5, 3))), 3
    zero_den = dict(base, t="1/0")
    float_d = dict(base, d=2.7, t="1+1*sqrt(2)", s="0+1*sqrt(2)")
    ok = json.dumps(base)
    return [
        _cli("malformed", ["certify", "--config", "-"], json.dumps(bad), exits=frozenset({code})),
        _cli("malformed", ["certify", "--config", "-"], json.dumps(zero_den),
             exits=MALFORMED, defect='item 5: "1/0" raises ZeroDivisionError'),
        _cli("malformed", ["eval-word", "--config", "-", "--word", '[["beta_l", 1.5]]'], ok,
             exits=MALFORMED, defect="item 5: exponent 1.5 is truncated to 1"),
        _cli("malformed", ["eval-word", "--config", "-", "--word", '[["beta_l"]]'], ok,
             exits=MALFORMED, defect='item 5: [["beta_l"]] raises ValueError'),
        _cli("malformed", ["certify", "--config", "-"], json.dumps(float_d),
             exits=MALFORMED, defect='item 5: "d": 2.7 is coerced to 2'),
    ]


def certify_block(rng):
    def ap(c, folds):
        return action_plant(rng, c, folds)

    # The two heaviest requests (word length 5, the large d) are 3% of a
    # block and word length 4 another 10%, so p95 falls inside the word
    # length 4 class rather than on the edge between two classes.
    reqs = []
    for word_len, n in ((2, 14), (3, 10), (4, 6), (5, 1)):
        reqs += _alternating(lambda c, k: certify_request(word_len, ap(c, k)), n)
    for word_len, n in ((3, 6), (4, 2)):
        reqs += _alternating(lambda c, k: orbit_gap_request(rng, word_len, ap(c, k)), n)
    reqs += _alternating(lambda c, k: incompressible_request(rng, rng.randint(2, 4), ap(c, k)), 6)
    reqs += _alternating(lambda c, k: eval_word_request(rng, ap(c, k)), 10)
    reqs += _alternating(lambda c, k: build_action_request(ap(c, k)), 6)
    reqs += [big_d_request(rng, rng.random() < 0.5)]
    reqs += malformed_certify_requests(rng)
    return reqs


# -- pl-algebra workload ----------------------------------------------------


def _field_choice(rng):
    """A square-free d, and which of a map's x and y coordinates use it."""
    d = rng.choice(SMALL_D)
    return d, rng.choice((0, d)), rng.choice((0, d))


def compose_request(rng):
    """Three 2-breakpoint maps, irrational in y, x, y in turn."""
    d = rng.choice(SMALL_D)
    maps = [_random_pl_points(rng, 2, d if j % 2 else 0, 0 if j % 2 else d) for j in range(3)]
    return _lib("compose", "compose_chain", maps, {"maps": maps, "d": d})


def inverse_request(rng):
    d, dx, dy = _field_choice(rng)
    pts = _random_pl_points(rng, 3, dx, dy)
    return _lib("inverse", "inverse", pts, {"map": pts, "d": d})


def pow_request(rng):
    d, dx, dy = _field_choice(rng)
    pts = _random_pl_points(rng, 2, dx, dy)
    n = rng.choice((2, 3, -2, -3))
    return _lib("pow", "pow", (pts, n), {"map": pts, "n": n, "d": d})


def period_group_request(rng):
    """A map with planted k-fold symmetry: k shrunken copies of one cell."""
    d, dx, dy = _field_choice(rng)
    k = rng.randint(2, 3)
    cell = _random_pl_points(rng, 2, dx, dy)
    pts = [((x + j) / k, (y + j) / k) for j in range(k) for x, y in cell]
    return _lib("period-group", "period_group", pts, {"map": pts, "k": k, "d": d})


def fixed_points_request(rng):
    d = rng.choice(SMALL_D)
    if rng.random() < 0.25:
        # Every breakpoint displaced forward by 1/8 to 15/64 on a 1/8-spaced
        # grid: f(x) > x everywhere, so there are no fixed points.
        xs = sorted(rng.sample(range(8), rng.randint(1, 4)))
        pts = [(Quad(F(x, 8)), Quad(F(x, 8) + F(rng.randint(8, 15), 64))) for x in xs]
        return _lib("fixed-points", "fixed_points", pts, {"map": pts, "fixed": [], "d": d})
    # Breakpoints on the diagonal at the planted fixed points, with one bump
    # strictly above or below it between neighbours: no other fixed points.
    fixed = _distinct_unit_points(rng, rng.randint(1, 3), rng.choice((0, d)))
    pts = []
    for i, p in enumerate(fixed):
        nxt = fixed[i + 1] if i + 1 < len(fixed) else fixed[0] + 1
        width = nxt - p
        pts.append((p, p))
        pts.append((p + width * F(1, 2), p + width * F(rng.choice((1, 3, 5, 7)), 8)))
    # A bump that wraps past 1 is folded back into [0, 1) by the period.
    pts = sorted_exact([(x - x.floor(), y - x.floor()) for x, y in pts], key=lambda xy: xy[0])
    return _lib("fixed-points", "fixed_points", pts, {"map": pts, "fixed": fixed, "d": d})


def _orbit_map(xs, m):
    """Breakpoints sending xs[j] to xs[j+m], one period up past the end:
    a periodic orbit of period len(xs) and translation number m/len(xs)."""
    q = len(xs)
    return [(x, xs[(j + m) % q] + (j + m) // q) for j, x in enumerate(xs)]


def periodic_orbit_request(rng):
    d = rng.choice(SMALL_D)
    q = rng.randint(2, 4)
    xs = _distinct_unit_points(rng, q, rng.choice((0, d)))
    m = rng.randint(1, q - 1)
    return _lib("rotnum-exact", "translation_number", (_orbit_map(xs, m), F(1, 10**6), 64, False),
                {"exact": Quad(F(m, q)), "d": d})


def conjugate_request(rng):
    """h o T_t o h^-1 with irrational t, whose translation number is t."""
    d = rng.choice(SMALL_D)
    while True:
        q = Quad(rng.randint(-2, 2), F(rng.randint(1, 3), 4), d)
        t = q - q.floor()
        if Quad(F(1, 20)) < t < Quad(F(19, 20)):
            break
    while True:
        xs = sorted(rng.sample(range(8), 2))
        ys = sorted(rng.sample(range(8), 2))
        if xs[1] - xs[0] != ys[1] - ys[0]:
            break
    h = [(Quad(F(x, 8)), Quad(F(y, 8))) for x, y in zip(xs, ys)]
    return _lib("rotnum-bracket", "conjugate_translation_number", (h, t, F(1, 100), 16, False),
                {"value": t, "eps": F(1, 100), "d": d})


def forced_bracket_request(rng):
    """A forced bracket for a map with a planted periodic orbit that misses
    0: the orbit of 0 is attracted to it along slopes other than 1, so its
    coefficients grow by a few bits per step."""
    q = rng.randint(3, 4)
    m = rng.choice([j for j in range(1, q) if math.gcd(j, q) == 1])
    xs = [Quad(F(x, 16)) for x in sorted(rng.sample(range(1, 16), q))]
    pts = _orbit_map(xs, m)
    # One bent segment between orbit points: without it f^q would be the
    # identity (the slopes around the cycle multiply to 1) and the orbit of
    # 0 would close after q steps.
    j = rng.randint(0, q - 2)
    (x0, y0), (x1, y1) = pts[j], pts[j + 1]
    pts.insert(j + 1, ((x0 + x1) / 2, y0 + (y1 - y0) * F(rng.choice((1, 3)), 4)))
    eps = F(1, 1000)
    return _lib("rotnum-forced", "translation_number", (pts, eps, 64, True),
                {"value": Quad(F(m, q)), "eps": eps, "d": 2})


def big_coefficient_request(rng):
    """f(x) at x = c + frac(b*sqrt(2)) with b near 2^76.  ``QNum.floor``
    starts from a 64-bit estimate and steps by one (ROADMAP item 5), so
    this one evaluation takes milliseconds; the value is planted."""
    b = (1 << 76) + rng.getrandbits(60)
    c = rng.randint(-3, 3)
    x = Quad(c - math.isqrt(2 * b * b), b, 2)
    pts = _random_pl_points(rng, 2, 0, 0)
    return _lib("eval-big", "evaluate", (pts, x), {"map": pts, "x": x, "d": 2})


def pl_algebra_block(rng):
    # Cheapest first: fixed points and inverses (10), then compose chains
    # (12) hold p50; the three conjugate brackets hold p95 under the one
    # forced bracket.
    reqs = []
    reqs += [fixed_points_request(rng) for _ in range(5)]
    reqs += [inverse_request(rng) for _ in range(5)]
    reqs += [compose_request(rng) for _ in range(12)]
    reqs += [pow_request(rng) for _ in range(3)]
    reqs += [periodic_orbit_request(rng) for _ in range(3)]
    reqs += [period_group_request(rng) for _ in range(4)]
    reqs += [conjugate_request(rng) for _ in range(3)]
    reqs += [forced_bracket_request(rng)]
    reqs += [big_coefficient_request(rng)]
    return reqs


# -- ledger workload --------------------------------------------------------


def _ledger_pair(rng, regulating, irrational):
    """(T, r) over Q(sqrt(d)) or Q with T > 2r exactly when regulating."""
    d = rng.choice(SMALL_D) if irrational else 0
    r = Quad(_rat(rng, 1, 6, 12), _rat(rng, 0, 2, 12) if d else 0, d)
    factor = F(rng.randint(21, 40), 10) if regulating else F(rng.randint(5, 20), 10)
    return r * factor, r


def metric_lemma_request(rng, length, commensurable, folds):
    ap = action_plant(rng, commensurable, folds)
    pattern = "".join(rng.choice("LR") for _ in range(length))
    samples = 40
    argv = ["metric-lemma", "--config", "-", "--pattern", pattern,
            "--samples", str(samples), "--seed", str(rng.randint(0, 999))]
    r_max = max(ap.left_step() if c == "L" else ap.right_step() for c in set(pattern))
    return _cli("metric-lemma", argv, json.dumps(ap.config()),
                {"bound": r_max * len(pattern), "samples": samples})


def cone_progress_request(rng, regulating, irrational):
    T, r = _ledger_pair(rng, regulating, irrational)
    n = rng.randint(5, 30)
    policy = rng.choice(("adversarial", "random"))
    argv = ["cone-progress", "--T", str(T), "--r", str(r), "--n", str(n),
            "--policy", policy, "--seed", str(rng.randint(0, 999))]
    return _cli("cone-progress", argv, plant={"T": T, "r": r, "n": n,
                                               "regulating": regulating})


def stall_request(rng, stall, irrational):
    T, r = _ledger_pair(rng, not stall, irrational)
    return _cli("stall-search", ["stall-search", "--T", str(T), "--r", str(r)],
                plant={"T": T, "r": r, "stall": stall})


def shear_shadow_request(rng):
    if rng.random() < 0.7:
        lam = Quad(F(rng.randint(11, 40), 10))
    else:
        lam = Quad(1, F(1, rng.randint(1, 3)), 2)
    t = Quad(_rat(rng, 1, 5, 4))
    n = rng.randint(5, 20)
    argv = ["shear-shadow", "--lam", str(lam), "--t", str(t), "--n", str(n)]
    return _cli("shear-shadow", argv, plant={"lam": lam, "t": t, "n": n})


def shear_holonomy_request(rng):
    eps = F(rng.randint(1, 8), 40)
    delta = F(rng.randint(0, 8), 40)
    lam = F(rng.randint(11, 40), 10)
    n = rng.randint(5, 25)
    argv = ["shear-holonomy", "--lam", str(lam), "--eps", str(eps), "--delta", str(delta),
            "--n", str(n)]
    return _cli("shear-holonomy", argv, plant={"eps": eps, "n": n})


def malformed_ledger_requests():
    return [
        _cli("malformed", ["cone-progress", "--T", "1", "--r", "1/10", "--n", "0"],
             exits=frozenset({3})),
        _cli("malformed", ["stall-search", "--T", "-1", "--r", "1"], exits=frozenset({3})),
        _cli("malformed", ["shear-shadow", "--lam", "1/2", "--n", "4"], exits=frozenset({3})),
        _cli("malformed", ["cone-progress", "--T", "1/0", "--r", "1/10", "--n", "4"],
             exits=MALFORMED, defect='item 5: "1/0" raises ZeroDivisionError'),
    ]


def ledger_block(rng):
    # Two metric-lemma requests are the 3% heaviest; the eight stall
    # searches (1000 crossings each) hold p95, the cone-progress requests p50.
    # The pattern lengths add up to 22, so the pair costs about the same in
    # every block while each length still ranges over 2..20.
    first = rng.randint(2, 20)
    lengths = (first, 22 - first)
    reqs = _alternating(lambda c, k: metric_lemma_request(rng, lengths[c], c, k), 2)
    # Fixed shares: 70% regulating, 40% over Q(sqrt(d)), stalls half.
    reqs += [cone_progress_request(rng, i % 10 < 7, i % 5 < 2) for i in range(40)]
    reqs += [stall_request(rng, i % 2 == 0, i % 5 < 2) for i in range(8)]
    reqs += [shear_shadow_request(rng) for _ in range(8)]
    reqs += [shear_holonomy_request(rng) for _ in range(8)]
    reqs += malformed_ledger_requests()
    return reqs


BLOCKS = {"certify": certify_block, "pl-algebra": pl_algebra_block, "ledger": ledger_block}


def block(workload: str, seed: int, index: int) -> list:
    """Block ``index`` of the workload, in its seeded request order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    reqs = BLOCKS[workload](rng)
    rng.shuffle(reqs)
    return reqs

"""One verifier for every request: exit code, then the planted answer.

``check(req, out)`` returns None when the request met its planted answer,
else a one-line reason.  CLI output is read back through the oracle's
parser; library results through their public accessors.  Nothing here runs
inside a timed span.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

from oracle import PL, Quad, from_qnum, parse, power


class Mismatch(Exception):
    pass


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


def _commutes(g, c, probes) -> bool:
    """T_c commutes with g.  Both sides are PL, so agreeing at every
    breakpoint of both (the probes and the probes shifted by -c) suffices."""
    pts = list(probes) + [x - c for x in probes]
    return all(g(x + c) == g(x) + c for x in pts)


def _apply_word(gens, word, x):
    """Image of x under the word, factors composed outermost first."""
    for name, exp in reversed(word):
        g = gens[name] if exp > 0 else gens[name].inverse()
        x = power(g, abs(exp), x)
    return x


def _probes(extra=()):
    return [Quad(0), Quad(F(1, 3)), Quad(F(-5, 7)), Quad(F(13, 11))] + list(extra)


def check(req, out) -> str | None:
    if out.error is not None:
        return f"raised {out.error}"
    if out.code not in req.exits:
        return f"exit {out.code}, planted {sorted(req.exits)}"
    try:
        if out.code in (2, 3):
            lines = out.stderr.splitlines()
            _expect(out.stdout == "", "stdout on a rejected input")
            _expect(len(lines) == 1 and lines[0].startswith("error:"), "not a one-line error")
            return None
        if req.argv is None:
            LIB_CHECKS[req.kind](req.plant, out.result)
        else:
            CLI_CHECKS[req.kind](req.plant, out.stdout)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable result: {type(exc).__name__}: {exc}"
    return None


# -- CLI results ------------------------------------------------------------


def _certify(plant, stdout):
    obj = json.loads(stdout)
    ap = plant["action"]
    verdict = "COMMON_TRANSLATION" if ap.commensurable else "NO_COMMON_TRANSLATION"
    _expect(obj["verdict"] == verdict, f"verdict {obj['verdict']}, planted {verdict}")
    _expect(parse(obj["left_step"]) == plant["left_step"], "left step")
    _expect(parse(obj["right_step"]) == plant["right_step"], "right step")
    _expect(parse(obj["quotient"]) == plant["quotient"], "quotient")
    _expect(obj["ratio_rational"] is ap.commensurable, "ratio_rational")
    if ap.commensurable:
        common = parse(obj["common_translation"])
        _expect(common == plant["common"], "witness is not the planted minimal step")
        gens = ap.generators()
        for name in ("beta_l", "beta_r"):
            g = gens[name]
            _expect(_commutes(g, common, [x for x, _ in g.pts]), f"witness misses {name}")
    else:
        _expect(obj["common_translation"] is None, "witness on an incommensurable pair")
    _density(obj["density_evidence"], plant["word_len"], (0, 1))


def _density(rep, word_len, window):
    _expect(rep["max_word_len"] == word_len, "max_word_len echo")
    _expect([float(w) for w in rep["window"]] == [float(w) for w in window], "window echo")
    _expect(0 < rep["max_gap"] <= window[1] - window[0], "gap outside the window")
    _expect(0 <= rep["points_in_window"] <= rep["orbit_size"], "point counts")


def _orbit_gap(plant, stdout):
    _density(json.loads(stdout), plant["word_len"], plant["window"])


def _incompressible(plant, stdout):
    obj = json.loads(stdout)
    a, b = plant["interval"]
    if obj["result"] == "INCOMPRESSIBLE_UP_TO_BOUND":
        _expect(not plant["compressible"], "missed the planted compression")
        _expect(obj["word"] is None, "word on a negative answer")
        return
    _expect(obj["result"] == "COMPRESSED_BY", f"result {obj['result']}")
    u, v = a, b
    for name, exp in obj["word"]:
        g = plant["gens"][name]
        g = g if exp > 0 else g.inverse()
        u, v = g(u), g(v)
    nested = (a <= u and v <= b) or (u <= a and b <= v)
    _expect(nested and not (u == a and v == b), "witness word does not compress")


def _eval_word(plant, stdout):
    obj = json.loads(stdout)
    gens, word = plant["gens"], plant["word"]
    if obj["kind"] == "composite":
        _expect(not plant["must_be_plmap"], "composite where a PL map exists")
        _expect(len(obj["factors"]) == len(word), "factor count")
        for f_obj, letter in zip(obj["factors"], word):
            f = PL.from_json(f_obj)
            for x in _probes():
                _expect(f(x) == _apply_word(gens, [letter], x), "factor value")
        return
    _expect(obj["kind"] == "plmap", f"kind {obj['kind']}")
    f = PL.from_json(obj["map"])
    for x in _probes([x for x, _ in f.pts[:3]]):
        _expect(f(x) == _apply_word(gens, word, x), "word image value")


def _build_action(plant, stdout):
    obj = json.loads(stdout)
    ap = plant["action"]
    _expect(obj["d"] == ap.d and parse(obj["t"]) == ap.t and parse(obj["s"]) == ap.s, "echo")
    gens = obj["generators"]
    for alpha, length in (("alpha_l", ap.t), ("alpha_r", ap.s)):
        f = PL.from_json(gens[alpha])
        _expect(f.p == 1 / length and len(f.pts) == 1 and f.pts[0][0] == 0 and f.pts[0][1] == 1,
                f"{alpha} is not the unit translation")
    planted_gens = ap.generators()
    for beta in ("beta_l", "beta_r"):
        f, planted = PL.from_json(gens[beta]), planted_gens[beta]
        _expect(f.p == planted.p and len(f.pts) == len(planted.pts)
                and all(x == u and y == v for (x, y), (u, v) in zip(f.pts, planted.pts)),
                f"{beta} breakpoints")
    _expect(obj["longitude"] == "alpha_l", "longitude")


def _metric_lemma(plant, stdout):
    obj = json.loads(stdout)
    bound = parse(obj["bound"])
    _expect(bound == plant["bound"], f"bound {bound}, planted {plant['bound']}")
    _expect(obj["violations"] == 0, f"{obj['violations']} violations of (n+1)*r")
    _expect(obj["samples"] == plant["samples"], "sample count")
    gap = parse(obj["max_gap"])
    _expect(gap >= 0 and gap <= bound, "max gap above the bound")


def _csv(stdout):
    lines = stdout.splitlines()
    return [l for l in lines if not l.startswith("#")], [l for l in lines if l.startswith("#")]


def _cone_progress(plant, stdout):
    rows, notes = _csv(stdout)
    T, r, n = plant["T"], plant["r"], plant["n"]
    _expect(rows[0] == "crossing,progress,distortion,certified_d1_lower_bound,simulated_d1",
            "header")
    _expect(len(rows) == n + 1, "row count")
    for m, line in enumerate(rows[1:], start=1):
        idx, progress, distortion, bound, simulated = line.split(",")
        _expect(int(idx) == m, "row index")
        bound = parse(bound)
        _expect(bound == T * m - r * (2 * m), f"row {m}: bound is not mT - 2mr")
        _expect(parse(simulated) >= bound, f"row {m}: ledger below mT - 2mr")
        _expect(parse(progress) >= T, f"row {m}: progress below T")
        dist = parse(distortion)
        _expect(-r <= dist and dist <= r, f"row {m}: distortion beyond r")
    verdict = "REGULATING" if plant["regulating"] else "NOT_CERTIFIED"
    _expect(f"# verdict: {verdict}" in notes, "verdict")
    _expect(parse(notes[1].split(": ")[1]) == T * n - r * (2 * n), "final bound")


def _stall(plant, stdout):
    obj = json.loads(stdout)
    T, r = plant["T"], plant["r"]
    if not plant["stall"]:
        _expect(obj == {"result": "NONE"}, "stall found where T > 2r")
        return
    _expect(obj["result"] == "STALL" and obj["crossings"] == 1000, "no stall where T <= 2r")
    step = T - r * 2
    for j, v in enumerate(obj["first_values"]):
        _expect(parse(v) == T + step * j, f"stall value {j}")
    _expect(parse(obj["final_value"]) == T + step * 999, "final stall value")


def _shear_shadow(plant, stdout):
    rows, notes = _csv(stdout)
    lam, t, n = plant["lam"], plant["t"], plant["n"]
    _expect(len(rows) == n + 1 and "# label: EXPLORATORY" in notes, "shape")
    limit = t / (lam - 1)
    contraction = Quad(1)
    for level, line in enumerate(rows[1:], start=1):
        contraction = contraction / lam
        lv, curve, shadow, lim = line.split(",")
        _expect(int(lv) == level and parse(curve) == t * level, "curve length")
        _expect(parse(shadow) == t * (1 - contraction) / (lam - 1), f"shadow at level {level}")
        _expect(parse(lim) == limit, "limit")


def _shear_holonomy(plant, stdout):
    rows, notes = _csv(stdout)
    # The shear fixes the collar ends and moves no point outside it, so the
    # window never shrinks: every level keeps the full length 1 + 2*eps.
    width = format(float(1 + 2 * plant["eps"]), ".17g")
    _expect(len(rows) == plant["n"] + 2, "row count")
    _expect(all(line.split(",")[1] == width for line in rows[1:]), "domain shrank")
    _expect("# flag: PERSISTS" in notes, "flag")


CLI_CHECKS = {
    "certify": _certify,
    "certify-big-d": _certify,
    "orbit-gap": _orbit_gap,
    "incompressible": _incompressible,
    "eval-word": _eval_word,
    "build-action": _build_action,
    "metric-lemma": _metric_lemma,
    "cone-progress": _cone_progress,
    "stall-search": _stall,
    "shear-shadow": _shear_shadow,
    "shear-holonomy": _shear_holonomy,
}


# -- library results ----------------------------------------------------------


def _compose(plant, res):
    f = PL.from_plmap(res)
    maps = [PL(1, pts) for pts in plant["maps"]]
    _expect(f.p == 1, "period")
    for x in _probes([x for x, _ in f.pts[:3]]):
        y = x
        for g in reversed(maps):
            y = g(y)
        _expect(f(x) == y, "chain value")


def _inverse(plant, res):
    f, g = PL(1, plant["map"]), PL.from_plmap(res)
    for x, y in f.pts:
        _expect(g(y) == x, "inverse at a breakpoint")
    for x in _probes():
        _expect(g(f(x)) == x, "inverse at a probe")


def _pow(plant, res):
    f, g, n = PL(1, plant["map"]), PL.from_plmap(res), plant["n"]
    for x in _probes([x for x, _ in g.pts[:3]]):
        if n > 0:
            _expect(g(x) == power(f, n, x), "power value")
        else:
            _expect(power(f, -n, g(x)) == x, "negative power value")


def _period_group(plant, res):
    _expect(not res.all_reals, "all reals for a non-translation")
    step = from_qnum(res.step)
    ratio = Quad(F(1, plant["k"])) / step
    _expect(not ratio.b and ratio.a.denominator == 1 and ratio.a > 0,
            "planted symmetry step is not a multiple of the reported step")
    f = PL(1, plant["map"])
    _expect(_commutes(f, step, [x for x, _ in f.pts]), "reported step does not commute")


def _fixed_points(plant, res):
    fixed = plant["fixed"]
    if not fixed:
        _expect(res.kind == "none" and not res.points, f"kind {res.kind}, planted none")
        return
    got = [from_qnum(x) for x in res.points]
    _expect(res.kind == "some" and not res.intervals, f"kind {res.kind}")
    _expect(len(got) == len(fixed) and all(a == b for a, b in zip(got, fixed)),
            "fixed points differ from the planted ones")


def _rotnum_exact(plant, res):
    _expect(type(res).__name__ == "Exact", f"{type(res).__name__}, planted Exact")
    _expect(from_qnum(res.value) == plant["exact"], "exact value")


def _rotnum_bracket(plant, res):
    _expect(type(res).__name__ == "Bracket", f"{type(res).__name__}, planted Bracket")
    lo, hi = from_qnum(res.lo), from_qnum(res.hi)
    _expect(lo <= plant["value"] <= hi, "bracket misses the planted value")
    _expect(hi - lo <= plant["eps"], "bracket wider than eps")


def _evaluate(plant, res):
    _expect(from_qnum(res) == PL(1, plant["map"])(plant["x"]), "value at a large-coefficient point")


LIB_CHECKS = {
    "compose": _compose,
    "inverse": _inverse,
    "pow": _pow,
    "period-group": _period_group,
    "fixed-points": _fixed_points,
    "rotnum-exact": _rotnum_exact,
    "rotnum-bracket": _rotnum_bracket,
    "rotnum-forced": _rotnum_bracket,
    "eval-big": _evaluate,
}

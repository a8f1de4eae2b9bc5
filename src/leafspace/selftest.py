"""The invariant catalogue: seeded checks of the library's exact facts.

Each ``check_*`` function returns its violation count, and the group-axiom
and period-group checks also return how many checks they made.  Randomized
checks take the caller's rng (or seeds), trial count and ``max_breaks``, and
draw in a fixed order.  ``run_selftest`` runs the catalogue behind the
`selftest` CLI subcommand; ``tests/test_acceptance.py`` runs the same
functions with its own seeds and sample counts.  Every check is seeded and
pure, so repeated runs with the same seed print byte-identical logs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .action import PIECES, build_glued_action, certify_nonuniform
from .cones import (adversarial_stall, build_chain_from_action, metric_gap_check,
                    run_progress_ledger, sample_leaf_pairs)
from .plmap import Exact, PLMap, translation_number
from .qfield import QNum, ratio_is_rational, sqrt_of
from .shear import disjointness_check, shadow_length


def random_qnum(rng: random.Random, d: int = 2) -> QNum:
    return QNum(
        Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
        Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
        d,
    )


def random_plmap(rng: random.Random, max_breaks: int = 4) -> PLMap:
    """Random monotone periodic PL map with small rational breakpoints."""
    k = rng.randint(1, max_breaks)
    denom = rng.choice([6, 8, 12, 16])
    xs = sorted(rng.sample(range(denom), k))
    gaps = [rng.randint(1, 8) for _ in range(k)]
    total = sum(gaps)
    y0 = Fraction(rng.randint(-denom, denom), denom)
    ys = []
    acc = Fraction(0)
    for g in gaps:
        ys.append(y0 + acc)
        acc += Fraction(g, total)
    return PLMap(1, [(Fraction(x, denom), y) for x, y in zip(xs, ys)])


def check_field_axioms(rng: random.Random, trials: int) -> int:
    bad = 0
    for _ in range(trials):
        x, y, z = (random_qnum(rng) for _ in range(3))
        if (x + y) + z != x + (y + z):
            bad += 1
        if x * (y + z) != x * y + x * z:
            bad += 1
        if (x * y) * z != x * (y * z):
            bad += 1
        if x and x * x.inverse() != 1:
            bad += 1
        if x + (-x) != 0:
            bad += 1
        if y:
            ok, witness = ratio_is_rational(x, y)
            if ok != witness.is_rational() or witness != x * y.inverse():
                bad += 1
    return bad


def check_group_axioms(rng: random.Random, trials: int, max_breaks: int = 4) -> tuple[int, int]:
    """Associativity, inverses, evaluation of a composite and equivariance
    on random triples: (violations, checks)."""
    bad = 0
    for _ in range(trials):
        f, g, h = (random_plmap(rng, max_breaks) for _ in range(3))
        if f.compose(g).compose(h) != f.compose(g.compose(h)):
            bad += 1
        if f.compose(f.inverse()) != PLMap.identity(1):
            bad += 1
        x = random_qnum(rng)
        if f.compose(g)(x) != f(g(x)):
            bad += 1
        if f(x + 1) != f(x) + 1:
            bad += 1
    return bad, 4 * trials


def check_period_groups(rng: random.Random, trials: int, max_breaks: int = 4) -> tuple[int, int]:
    """Soundness of ``period_group``: all reals only for a translation;
    else the step commutes and half of it does not, since the step is the
    minimal one.  Returns (violations, checks)."""
    bad = checks = 0
    for _ in range(trials):
        f = random_plmap(rng, max_breaks)
        pg = f.period_group()
        if pg.all_reals:
            if not f.is_translation():
                bad += 1
            checks += 1
            continue
        if not f.commutes(PLMap.translation(pg.step, 1)):
            bad += 1
        if f.commutes(PLMap.translation(pg.step / 2, 1)):
            bad += 1
        checks += 2
    return bad, checks


def check_translation_numbers(rng: random.Random, trials: int) -> int:
    """A translation by t has the exact translation number t."""
    bad = 0
    for _ in range(trials):
        t = random_qnum(rng)
        res = translation_number(PLMap.translation(t, 1))
        if not (isinstance(res, Exact) and res.value == t):
            bad += 1
    return bad


def check_certificates() -> int:
    """Both shipped configs: flagship has no common translation, with the
    irrational quotient 2 - sqrt(2); commensurable has one, and it commutes
    with both betas, as a translation of the beta's period and of period 1."""
    r2 = sqrt_of(2)
    bad = 0
    flag = certify_nonuniform(build_glued_action(1 + r2, r2))
    if flag.verdict != "NO_COMMON_TRANSLATION" or flag.quotient != 2 - r2 or not flag.quotient.b:
        bad += 1
    spec = build_glued_action(2 * r2, r2)
    comm = certify_nonuniform(spec)
    if comm.verdict != "COMMON_TRANSLATION":
        return bad + 1
    w = comm.common_translation
    for x in PIECES:
        g = spec.generator(f"beta_{x}")
        for period in (g.period, 1):
            if not g.commutes(PLMap.translation(w, period)):
                bad += 1
    return bad


def check_metric_lemma(rng: random.Random, samples: int) -> int:
    r2 = sqrt_of(2)
    spec = build_glued_action(1 + r2, r2)
    chain = build_chain_from_action(spec, "LRLRL", seed=rng.randint(0, 10**6))
    rep = metric_gap_check(chain, 0, len(chain), sample_leaf_pairs(rng, samples))
    return rep.violations


def check_ledger(seeds) -> int:
    """One random ledger at T = 1, r = 1/10 over 10 crossings per seed: each
    prefix bound is m*T - 2*m*r and the simulated value meets it, so the
    final value is at least 8.  The stall search finds a bounded trace at
    T = r = 1, falling by 2r - T = 1 per crossing, and none at T = 3 > 2r."""
    r = Fraction(1, 10)
    bad = 0
    for seed in seeds:
        run = run_progress_ledger(1, r, 10, "random", seed=seed)
        if run.rows[-1].simulated_d1 < 8:
            bad += 1
        for row in run.rows:
            if row.certified_lower_bound != row.index - 2 * row.index * r:
                bad += 1
            if row.simulated_d1 < row.certified_lower_bound:
                bad += 1
    trace = adversarial_stall(1, 1)
    if trace is None or not trace.bounded():
        bad += 1
    else:
        bad += trace.step != -1
    if adversarial_stall(3, 1) is not None:
        bad += 1
    return bad


def check_shadow_series(levels) -> int:
    """At t = 1 and multiplier 2, the shadow after n levels is 1 - 2^-n,
    below the limit 1 while the curve length n diverges; the limit is
    t/(multiplier - 1) over Q(sqrt 2) too; and circle-arc disjointness."""
    bad = 0
    for n in levels:
        rep = shadow_length(1, 2, n)
        if rep.shadow != 1 - Fraction(1, 2**n) or rep.limit != 1:
            bad += 1
        if rep.curve_length != n or not rep.shadow < rep.limit:
            bad += 1
    r2 = sqrt_of(2)
    if shadow_length(r2, 1 + r2, 10).limit != 1:
        bad += 1
    if disjointness_check((0, Fraction(2, 5)), Fraction(1, 2)) is not True:
        bad += 1
    if disjointness_check((0, Fraction(2, 5)), 0) is not False:
        bad += 1
    return bad


def run_selftest(seed: int = 0, out=None) -> int:
    """Run all checks, print one line per check, return failure count."""
    import sys

    out = out or sys.stdout
    rng = random.Random(seed)
    checks = [
        ("field-axioms", lambda: check_field_axioms(rng, 400)),
        ("pl-group-axioms", lambda: check_group_axioms(rng, 150)[0]),
        ("pl-period-groups", lambda: check_period_groups(rng, 100)[0]),
        ("translation-numbers", lambda: check_translation_numbers(rng, 100)),
        ("certificates", check_certificates),
        ("metric-lemma", lambda: check_metric_lemma(rng, 400)),
        ("progress-ledger", lambda: check_ledger(rng.randint(0, 10**9) for _ in range(100))),
        ("shear-shadow", lambda: check_shadow_series((1, 3, 10, 60))),
    ]
    failures = 0
    for name, fn in checks:
        bad = fn()
        if bad:
            failures += 1
            print(f"FAIL {name}: {bad} violations", file=out)
        else:
            print(f"PASS {name}", file=out)
    return failures

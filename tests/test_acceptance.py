"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (bypassing pytest capture) when its
criterion holds; a missing line plus a pytest failure marks the criterion
red.  All randomized checks are seeded, so the suite is reproducible.  The
checks that ``leafspace selftest`` also makes come from its catalogue,
``leafspace.selftest``, run here with this suite's seeds and sample counts.
"""

import io
import random
import time
from fractions import Fraction

from leafspace.action import build_glued_action
from leafspace.cones import build_chain_from_action, metric_gap_check
from leafspace.plmap import Bracket, Exact, PLMap, translation_number
from leafspace.qfield import sqrt_of
from leafspace.selftest import (
    check_certificates,
    check_group_axioms,
    check_ledger,
    check_period_groups,
    check_shadow_series,
    check_translation_numbers,
    random_plmap,
    random_qnum,
    run_selftest,
)

from conftest import periodic_orbit_map

R2 = sqrt_of(2)


def report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_nonuniformity_certificate(capsys):
    t0 = time.time()
    assert check_certificates() == 0
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(
        capsys,
        "PASS criterion 1: certificates exact on both configs "
        f"(quotient 2-sqrt(2); witness commutes; {elapsed:.2f}s)"
    )


def test_criterion_2_metric_comparison(capsys):
    t0 = time.time()
    spec = build_glued_action(1 + R2, R2)
    rng = random.Random(20)
    violations = 0
    samples = 0
    worst = 0.0
    for c in range(20):
        length = rng.randint(2, 20)
        pattern = "".join(rng.choice("LR") for _ in range(length))
        chain = build_chain_from_action(spec, pattern, seed=c)
        for _ in range(500):
            i = rng.randint(0, len(chain) - 1)
            j = rng.randint(i + 1, len(chain))
            pair = (Fraction(rng.randint(-300, 300), 7), Fraction(rng.randint(-300, 300), 11))
            rep = metric_gap_check(chain, i, j, [pair])
            violations += rep.violations
            worst = max(worst, rep.max_ratio)
            samples += rep.samples
    elapsed = time.time() - t0
    assert samples == 10**4
    assert violations == 0
    assert elapsed < 10.0
    report(
        capsys,
        f"PASS criterion 2: 10^4 samples, 0 violations of the (n+1)*r bound "
        f"(worst ratio {worst:.3f}; {elapsed:.1f}s)"
    )


def test_criterion_3_progress_induction(capsys):
    t0 = time.time()
    assert check_ledger(range(10**4)) == 0
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(
        capsys,
        "PASS criterion 3: 10^4 ledgers meet every prefix bound mT-2mr "
        f"(final >= 8); stall trace verified at T=1, r=1 ({elapsed:.1f}s)"
    )


def test_criterion_4_pl_algebra(capsys):
    t0 = time.time()
    rng = random.Random(40)
    violations, checks = check_group_axioms(rng, 900, max_breaks=2)
    assert violations == 0
    violations, count = check_period_groups(rng, 400, max_breaks=3)
    assert violations == 0
    checks += count

    # Equivariance at many probe points per map.
    maps = [random_plmap(rng, max_breaks=3) for _ in range(60)]
    while checks < 10**4:
        f = rng.choice(maps)
        x = random_qnum(rng)
        assert f(x + 1) == f(x) + 1
        checks += 1

    elapsed = time.time() - t0
    assert checks == 10**4
    assert elapsed < 30.0
    report(
        capsys,
        f"PASS criterion 4: 10^4 exact algebra checks, 0 failures ({elapsed:.1f}s)"
    )


def test_criterion_5_translation_numbers(capsys):
    t0 = time.time()
    rng = random.Random(50)

    # Translations: Exact(t) for 100 random t.
    assert check_translation_numbers(rng, 100) == 0

    # Forced periodic orbits: f^q(x) = x + m*p gives Exact(m*p/q).
    exact_cases = []
    for _ in range(60):
        q = rng.randint(2, 6)
        denom = rng.choice([24, 30, 36])
        xs = sorted(rng.sample(range(denom), q))
        m = rng.randint(1, q - 1)
        f = periodic_orbit_map([Fraction(x, denom) for x in xs], m)
        res = translation_number(f)
        assert isinstance(res, Exact) and res.value == Fraction(m, q)
        exact_cases.append((f, Fraction(m, q)))

    # Bracket mode: width <= 1e-6 and contains the exact value.
    eps = Fraction(1, 10**6)
    for f, value in exact_cases[:20]:
        res = translation_number(f, eps=eps, force_bracket=True)
        assert isinstance(res, Bracket)
        assert res.hi - res.lo <= eps
        assert res.contains(value)
    for _ in range(20):
        t = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        res = translation_number(PLMap.translation(t, 1), eps=eps, force_bracket=True)
        assert res.hi - res.lo <= eps and res.contains(t)

    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(
        capsys,
        "PASS criterion 5: exact translation numbers for translations and "
        f"periodic orbits; 1e-6 brackets contain them ({elapsed:.1f}s)"
    )


def test_criterion_6_shear_model(capsys):
    t0 = time.time()
    assert check_shadow_series(range(1, 61)) == 0
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(
        capsys,
        "PASS criterion 6: shadow series exact through n=60, bounded by "
        f"t/(multiplier-1) while curve length diverges ({elapsed:.2f}s)"
    )


def test_criterion_7_determinism(capsys):
    buf1, buf2 = io.StringIO(), io.StringIO()
    assert run_selftest(seed=0, out=buf1) == 0
    assert run_selftest(seed=0, out=buf2) == 0
    log1, log2 = buf1.getvalue(), buf2.getvalue()
    assert log1 == log2  # byte-identical
    assert "FAIL" not in log1
    report(
        capsys,
        "PASS criterion 7: selftest logs byte-identical across runs "
        f"({log1.count('PASS')} checks; suite runtime in pytest summary)"
    )

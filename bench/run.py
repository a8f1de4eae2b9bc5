"""Layer microbenchmarks of leafspace: microseconds per operation.

Usage, from the root of a source checkout:

    python3 bench/run.py --out BENCH_21.json --base HEAD --repeats 7

Each repeat runs every row once in a fresh interpreter per side, the base
revision and the working tree alternating which goes first; a row's figure
is the median over the repeats of its per-run time.  Repeat r runs the rows
in ``ROWS`` order rotated by r*n/repeats places (n rows), the same order for
both sides, so no row always follows the same rows and the rotations spread
each row over the whole run: an effect of a row's place in the run falls in
the spread between repeats instead of in the median.  Within a run a row is
timed with ``timeit``: the loop count is grown until one loop takes at
least 0.2 s, and the best of three such loops gives the raw µs/op.  Both
sides run from copies in one temporary directory: the base revision is
exported with ``git archive``, and the working tree's ``src`` is copied, so
neither side runs from the checkout.  Without ``--base`` only the working
tree is measured.  Standard library only; the process pins itself to one
CPU, as leafbench does.

The host switches between a fast and a slow state, often within one row,
so a raw time says as much about the host as about the code.  Each row is
therefore reported in reference-host time, as leafbench reports its
end-to-end metrics: a fixed stdlib-only loop that shares no code with
leafspace is timed just before and just after each of the three timed
loops, each loop's µs/op is scaled by HOST_REF_S / (mean of those two
timings), and the best scaled loop is the row's figure.  Scaling the best
raw loop by timings taken around the whole row instead widened the spread
between runs, because the state often flips between them.  The raw figures
stay in the JSON as ``<side>_raw`` and ``<side>_raw_runs``.

Even so, rows of code a change does not touch move by up to 10% between
the two sides.  So each side's row also stores ``<side>_iqr``, the distance
between the quartiles of its repeat runs, and a compared row is marked
``"resolved": false`` when its change/parent ratio of medians lies within
either side's relative quartile distance of 1, unless every change run
beats every parent run or every one loses to it.  No timing is gated.

A call count does not depend on the host.  In its first run each side also
runs every row once more, untimed, under ``sys.setprofile``, and stores the
Python and C function calls it makes as ``<side>_calls``.  A compared row
prints the change/parent ratio of its calls beside that of its time.  A row
resolved worse whose calls moved by under 1% gets ``"rerun": true``: the
code barely changed there, so it calls for a re-run rather than a verdict.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# SETUP builds the operands; ROWS maps each row name to the statement it
# times.  They use only API that predates the integer evaluation kernel, so
# the same rows run on older revisions.
SETUP = """\
import contextlib
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from leafspace import cli
from leafspace.action import (_generator_moves, incompressible_interval_search, load_action_config,
                              orbit_density)
from leafspace.cones import (adversarial_stall, build_chain_from_action, metric_gap_check,
                             run_progress_ledger, sample_leaf_pairs)
from leafspace.plmap import PLMap, translation_number
from leafspace.qfield import QNum, _is_square_free, as_qnum, sqrt_of
r2 = sqrt_of(2)
beta = PLMap(1, [(0, 0), (F(1, 2), F(3, 4))])
beta2 = beta.affine_conjugate(1 + r2)
unit = PLMap.translation(1, 1).affine_conjugate(1 + r2)
x_rat = QNum(F(7, 3))
x_r2 = QNum(F(1, 3), F(2, 7), 2)
# A sqrt(2) part of 200 bits, negative: its floor takes the "- 1".
x_big = QNum(F(1, 3), -F(3**126, 7), 2)
y_r2 = QNum(F(-5, 11), F(3, 4), 2)
y_rat = QNum(F(-5, 11))
pts_r2 = [(x / (1 + r2), y / (1 + r2)) for x, y in
          [(0, 0), (F(1, 4), F(1, 8)), (F(1, 2), F(3, 4)), (F(3, 4), F(7, 8))]]
period_r2 = (1 + r2).inverse()
g_r2 = PLMap(period_r2, pts_r2)
# The map of slopes 3/2 and 1/2 twice per period, rescaled into Q(sqrt 2): it
# commutes with the shift by half its period.
sym_r2 = PLMap(1, [(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (F(3, 4), F(7, 8))]
               ).affine_conjugate(1 + r2)
# Slopes 1/2, 3/2, 1/2, 3/2: they repeat two places on, but x_2 - x_0 = 3/8, so
# the shift by 1/2 passes the slope pre-test and fails the breakpoint test.
rep_rat = PLMap(1, [(0, 0), (F(1, 8), F(1, 16)), (F(3, 8), F(7, 16)), (F(3, 4), F(5, 8))])
shift = PLMap.translation(r2 / 10, 1)
rot = beta.compose(shift).compose(beta.inverse())
golden = PLMap(1, [(0, F(1, 2)), (F(1, 4), F(5, 8)), (F(1, 2), 1)])
probe = PLMap(1, [(0, F(1, 5)), (F(1, 2), F(3, 5))])


def orbit_map(xs, m):
    q = len(xs)
    return PLMap(1, [(x, xs[(j + m) % q] + (j + m) // q) for j, x in enumerate(xs)])


orbit3 = PLMap(1, [(F(3, 16), F(3, 8)), (F(5, 16), F(9, 16)), (F(9, 16), F(17, 16))])
orbit5 = orbit_map([F(0), F(1, 7), F(1, 3), F(1, 2), F(5, 6)], 2)
orbit61 = orbit_map([F(j * j + 1, 3728) for j in range(61)], 7)
# A conjugate of x -> x + 1/10 at period 1/2, carried at period 1: it
# commutes with x -> x + 1/2, and f^5 is the translation by 1/2.
half = F(1, 2)
h_half = PLMap(half, [(0, 0), (F(1, 8), F(1, 5))])
f_half = h_half.compose(PLMap.translation(F(1, 10), half)).compose(h_half.inverse())
least_period_half = PLMap(1, [(x + j * half, y + j * half)
                              for j in range(2) for x, y in f_half.breakpoints])
flagship_config = json.loads(CONFIG)
flagship = load_action_config(flagship_config)
# An interval that no word of length <= 5 nests, so the L5 row searches every
# level; checked here, on each side.
loose = (F(1, 11), F(111, 1100))
assert incompressible_interval_search(flagship, loose, 5).kind == "INCOMPRESSIBLE_UP_TO_BOUND"
# leafbench's seed-1 pl-algebra compose request: three 2-breakpoint maps of
# period 1, irrational in y, x and y in turn.
chain3 = [PLMap(1, [(QNum.parse(x, 3), QNum.parse(y, 3)) for x, y in pts]) for pts in (
    [("1/12", "1-8/7*sqrt(3)"), ("3/4", "25/4-4*sqrt(3)")],
    [("-1+2/3*sqrt(3)", "49/48"), ("1-1/6*sqrt(3)", "89/48")],
    [("0", "-2+7/6*sqrt(3)"), ("1/2", "-3+2*sqrt(3)")],
)]
# The metric-lemma request: the LR5 chain and 40 leaf pairs drawn at seed 0.
chain_lr5 = build_chain_from_action(flagship, "LR" * 5)
pairs40 = sample_leaf_pairs(random.Random(0), 40)
# Ledger inputs over Q(sqrt 2); T > 2r, so the verdict is REGULATING.
T_r2, r_r2 = 1 + r2, r2 / 10
devnull = open(os.devnull, "w")


def cli_main(argv):
    # One in-process request, its output sent to os.devnull.
    with contextlib.redirect_stdout(devnull):
        return cli.main(argv)


def fresh(code):
    # A fresh -I interpreter with the side's src first on its path, start-up
    # included; stdout sent to os.devnull.
    subprocess.run([sys.executable, "-I", "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code,
                    SRC], check=True, stdout=subprocess.DEVNULL)


# What leafbench's setup_s times, and one whole certify request.
IMPORT_BUILD_PARSER = "import leafspace.cli; leafspace.cli.build_parser()"
CERTIFY_FLAGSHIP = "from leafspace.cli import main; sys.exit(main(['certify', '--config', 'flagship']))"
"""
ROWS = {
    "plmap.call.rational_point": "beta(x_rat)",
    "plmap.call.sqrt2_point": "beta2(x_r2)",
    "plmap.call.translation": "unit(x_r2)",
    "plmap.construct.sqrt2_4_breakpoints": "PLMap(period_r2, pts_r2)",
    "plmap.compose.sqrt2": "g_r2.compose(beta2)",
    # rot's tau = sqrt(2)/10 is irrational: the search up to max_denom 64
    # finds no periodic orbit, and the bracket is the rounded walk's.
    "plmap.translation_number.forced_bracket_eps_1e-3":
        "translation_number(rot, F(1, 1000), force_bracket=True)",
    # The default eps of rotnum: n = 2000001 steps at most.
    "plmap.translation_number.forced_bracket_eps_1e-6":
        "translation_number(rot, F(1, 10**6), force_bracket=True)",
    # tests/golden/map.json: the search finds tau = 1/2 at f^2, and the
    # bracket is 1/2 +- 1/n with n = 2001; nothing is walked.
    "plmap.translation_number.forced_bracket_closes_eps_1e-3":
        "translation_number(golden, F(1, 1000), force_bracket=True)",
    # tau = 1/3 from the orbit 1/16 -> 5/16 -> 9/16 -> 17/16, which misses 0,
    # as in leafbench's rotnum-forced requests: the search finds it at f^3.
    "plmap.translation_number.forced_bracket_orbit_misses_0_eps_1e-5":
        "translation_number(orbit3, F(1, 10**5), force_bracket=True)",
    "plmap.inverse.sqrt2_4_breakpoints": "g_r2.inverse()",
    "plmap.affine_conjugate.sqrt2_4_breakpoints": "g_r2.affine_conjugate(1 + r2)",
    "qfield.parse.sqrt2_literal": 'QNum.parse("1/3+2/7*sqrt(2)")',
    "qfield.floor.sqrt2_point": "x_r2.floor()",
    "qfield.floor.big_sqrt_part": "x_big.floor()",
    "qfield.as_qnum.fraction": "as_qnum(F(7, 3))",
    "qfield.construct.fraction_pair": "QNum(F(1, 3), F(2, 7), 2)",
    # The largest prime below 10**12; leafbench's certify-big-d request checks
    # a prime near it.  Called directly, since _check_d caches the d it has checked.
    "qfield.is_square_free.prime_near_1e12": "_is_square_free(999999999989)",
    "action.load_action_config.flagship": "load_action_config(flagship_config)",
    # Each generator and its inverse, without repeats: alpha_r is alpha_l.
    "action._generator_moves.flagship": "_generator_moves(flagship)",
    # The metric-lemma chain: ten bump maps at the flagship's side steps,
    # clamp-checked; their products are composed only when a phi is asked for.
    "cones.build_chain_from_action.flagship_LR5": 'build_chain_from_action(flagship, "LR" * 5)',
    # A short search (13 states), where the fixed cost of a search dominates.
    "action.orbit_density.flagship_L2": "orbit_density(flagship, 0, 2, (0, 1))",
    "action.orbit_density.flagship_L5": "orbit_density(flagship, 0, 5, (0, 1))",
    "action.orbit_density.flagship_L6": "orbit_density(flagship, 0, 6, (0, 1))",
    # The witness has length 3, so the search stops early on level 3.
    "action.incompressible_interval_search.flagship_L4":
        "incompressible_interval_search(flagship, (F(1, 3), F(1, 2)), 4)",
    # No witness up to length 5: the search runs all five levels.
    "action.incompressible_interval_search.flagship_L5":
        "incompressible_interval_search(flagship, loose, 5)",
    # beta.pow(8) is built inside the statement (four composes), then
    # composed with beta; beta^8 has 9 breakpoints and the result 10.
    "plmap.compose.rational_16_breakpoints": "beta.pow(8).compose(beta)",
    "plmap.pow.sqrt2_8": "g_r2.pow(8)",
    "plmap.compose.chain_three_2_breakpoints": "chain3[0].compose(chain3[1]).compose(chain3[2])",
    "plmap.translation_number.exact_search_max_denom_16":
        "translation_number(rot, F(1, 100), max_denom=16)",
    # rotnum's defaults (eps 1/10^6, max_denom 64) on four maps: the probe
    # map has no periodic orbit of period <= 64 (a Bracket); tests/golden's
    # map.json has tau = 1/2; periodic orbits of 5 and 61 points have
    # tau = 2/5 and 7/61.
    "plmap.translation_number.probe_default_eps": "translation_number(probe)",
    "plmap.translation_number.exact_golden_q2": "translation_number(golden)",
    "plmap.translation_number.exact_orbit_q5": "translation_number(orbit5)",
    "plmap.translation_number.exact_orbit_q61": "translation_number(orbit61)",
    # tau = 1/10 has a denominator above max_denom 9, but f^5 is a
    # translation, which only a search at the least period 1/2 finds.
    "plmap.translation_number.least_period_half_max_denom_9":
        "translation_number(least_period_half, F(1, 100), max_denom=9)",
    "plmap.fixed_points.sqrt2_4_breakpoints": "g_r2.fixed_points()",
    "plmap.displacement_range.sqrt2_4_breakpoints": "g_r2.displacement_range()",
    # No shift by p/2 commutes with g_r2; the one by p/2 commutes with sym_r2.
    "plmap.period_group.sqrt2_4_breakpoints": "g_r2.period_group()",
    "plmap.period_group.sqrt2_symmetric_4_breakpoints": "sym_r2.period_group()",
    "plmap.period_group.slopes_repeat_4_breakpoints": "rep_rat.period_group()",
    # QNum's own operators, on operands in Q(sqrt 2) and in Q.
    "qfield.add.sqrt2": "x_r2 + y_r2",
    "qfield.add.rational": "x_rat + y_rat",
    "qfield.sub.sqrt2": "x_r2 - y_r2",
    "qfield.mul.sqrt2": "x_r2 * y_r2",
    "qfield.mul.rational": "x_rat * y_rat",
    "qfield.div.sqrt2": "x_r2 / y_r2",
    "qfield.div.rational": "x_rat / y_rat",
    "qfield.lt.sqrt2": "x_r2 < y_r2",
    "qfield.lt.rational": "x_rat < y_rat",
    # A translation of period 1 and a map of period 1/(1 + sqrt 2), in
    # both orders.
    "plmap.compose.translation_after_other_period": "shift.compose(g_r2)",
    "plmap.compose.translation_before_other_period": "g_r2.compose(shift)",
    # T = r = 1: the search stalls and returns its trace of 1000 crossings.
    "cones.adversarial_stall.stall_T1_r1": "adversarial_stall(1, 1)",
    # The cone-progress ledger at n = 30, leafbench's largest; the random
    # policy makes three draws a row.
    "cones.run_progress_ledger.adversarial_rational_n30": "run_progress_ledger(1, F(1, 10), 30)",
    "cones.run_progress_ledger.random_rational_n30":
        'run_progress_ledger(1, F(1, 10), 30, "random", 1)',
    "cones.run_progress_ledger.adversarial_sqrt2_n30": "run_progress_ledger(T_r2, r_r2, 30)",
    "cones.run_progress_ledger.random_sqrt2_n30":
        'run_progress_ledger(T_r2, r_r2, 30, "random", 1)',
    "cones.metric_gap_check.flagship_LR5_40_samples":
        "metric_gap_check(chain_lr5, 0, len(chain_lr5), pairs40)",
    # A 50-letter chain, built in the statement: phi_50 is composed, then
    # phi_0 and phi_50 are read at the 40 pairs.
    "cones.metric_gap_check.flagship_LR25_40_samples":
        'metric_gap_check(build_chain_from_action(flagship, "LR" * 25), 0, 50, pairs40)',
    # Whole CLI requests through cli.main: arguments read, handler run and
    # output written; the parser is built once, by the first call.
    "cli.main.cone_progress_n20": 'cli_main(["cone-progress", "--T", "1", "--r", "1/10", "--n", "20"])',
    # A shear-holonomy request in the form of leafbench's ledger workload.
    "cli.main.shear_holonomy_n20":
        'cli_main(["shear-holonomy", "--lam", "2", "--eps", "1/10", "--delta", "1/10", "--n", "20"])',
    "cli.main.certify_flagship": 'cli_main(["certify", "--config", "flagship"])',
    "cli.main.metric_lemma_flagship_LR5":
        'cli_main(["metric-lemma", "--config", "flagship", "--pattern", "LR" * 5])',
    # Interpreter start-up, which the rows above do not count, in a fresh
    # interpreter per op.  Their calls are the calling process's only.
    "cli.startup.import_build_parser": "fresh(IMPORT_BUILD_PARSER)",
    "cli.subprocess.certify_flagship": "fresh(CERTIFY_FLAGSHIP)",
}

WORKER = """\
import json, sys, time, timeit
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
CONFIG = open(sys.argv[2]).read()
setup = sys.argv[3]
rows = json.loads(sys.argv[4])
count_calls = sys.argv[5] == "1"
# Time of one reference loop on the quiet host of leafbench/README.md, as in
# leafbench/run.py; a constant, so it cancels when two runs are compared.
HOST_REF_S = 0.0015


def reference_work():
    # A fixed stdlib-only loop (Fraction arithmetic, string formatting and
    # parsing, dict updates), the same as leafbench's: its time follows the
    # host's speed, not the program's.
    acc, seen = Fraction(0), {}
    for j in range(120):
        q = Fraction(j % 13 + 1, j % 7 + 2)
        acc = (acc + q) * q % 7
        text = f"{acc.numerator}/{acc.denominator}"
        seen[text] = seen.get(text, 0) + len(text.split("/"))
        acc = Fraction(text) - Fraction(j % 5, 3)


def calls(code, env):
    # Python and C function calls made by one run of the statement, its own
    # frame and the call that ends the count included.
    n = [0]

    def count(frame, event, arg):
        if event == "call" or event == "c_call":
            n[0] += 1

    sys.setprofile(count)
    try:
        exec(code, env)
    finally:
        sys.setprofile(None)
    return n[0]


def host_seconds():
    times = []
    for _ in range(5):  # the fastest drops a preempted one
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return min(times)


env = {"json": json, "CONFIG": CONFIG, "SRC": sys.argv[1]}
exec(setup, env)
out = {}
for name, stmt in rows.items():
    timer = timeit.Timer(stmt, globals=env)
    number = 1
    while timer.timeit(number) < 0.2:
        number *= 2
    raw, scaled = [], []
    for _ in range(3):
        before = host_seconds()
        t = timer.timeit(number) / number * 1e6
        after = host_seconds()
        raw.append(t)
        scaled.append(t * HOST_REF_S / ((before + after) / 2))
    out[name] = {"raw": min(raw), "scaled": min(scaled)}
    if count_calls:
        out[name]["calls"] = calls(compile(stmt, name, "exec"), env)
print(json.dumps(out))
"""


def _iqr(values: list[float]) -> float:
    """The distance between the quartiles of the repeat runs."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _resolved(ratio: float, row: dict) -> bool:
    """Whether a row's change/parent ratio stands out of the spread: it
    lies outside either side's relative quartile distance of 1, or every
    change run beats every parent run, or every one loses to it.  One run
    a side shows no spread, so it resolves nothing."""
    parent, change = row["parent_runs"], row["change_runs"]
    if len(parent) < 2:
        return False
    if max(change) < min(parent) or min(change) > max(parent):
        return True
    spread = max(row["parent_iqr"] / row["parent"], row["change_iqr"] / row["change"])
    return abs(ratio - 1) > spread


def _run_side(src: Path, names: list[str], count_calls: bool) -> dict[str, dict[str, float]]:
    config = ROOT / "src" / "leafspace" / "configs" / "flagship.json"
    rows = {name: ROWS[name] for name in names}
    res = subprocess.run(
        [sys.executable, "-c", WORKER, str(src), str(config), SETUP, json.dumps(rows),
         "1" if count_calls else "0"],
        check=True, capture_output=True, text=True,
    )
    return json.loads(res.stdout)


def _export(rev: str, into: Path) -> Path:
    data = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--base", help="git revision to compare with the working tree")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    with tempfile.TemporaryDirectory() as tmp:
        change = shutil.copytree(ROOT / "src", Path(tmp) / "change" / "src",
                                 ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        sides = {"change": change}
        if args.base:
            sides = {"parent": _export(args.base, Path(tmp) / "parent"), **sides}
        runs: dict[str, list[dict[str, dict[str, float]]]] = {side: [] for side in sides}
        names = list(ROWS)
        for r in range(args.repeats):
            k = r * len(names) // args.repeats
            order = list(sides) if r % 2 == 0 else list(reversed(sides))
            for side in order:
                runs[side].append(_run_side(sides[side], names[k:] + names[:k], r == 0))
                print(f"repeat {r + 1}/{args.repeats} {side} done", file=sys.stderr)

    rows = []
    for name in ROWS:
        row = {"name": name, "unit": "us/op, reference-host"}
        for side, results in runs.items():
            for key, suffix in (("scaled", ""), ("raw", "_raw")):
                values = [res[name][key] for res in results]
                row[f"{side}{suffix}"] = round(statistics.median(values), 3)
                row[f"{side}{suffix}_runs"] = [round(v, 3) for v in values]
            row[f"{side}_iqr"] = round(_iqr(row[f"{side}_runs"]), 3)
            row[f"{side}_calls"] = results[0][name]["calls"]
        line = " ".join(f"{side} {row[side]:.3f}" for side in runs) + " us/op (reference-host), calls "
        line += " ".join(str(row[f"{side}_calls"]) for side in runs)
        if "parent" in row:
            ratio = row["change"] / row["parent"]
            calls = row["change_calls"] / row["parent_calls"]
            row["ratio_change_to_parent"] = round(ratio, 4)
            row["calls_ratio_change_to_parent"] = round(calls, 4)
            row["resolved"] = _resolved(ratio, row)
            row["rerun"] = row["resolved"] and ratio > 1 and abs(calls - 1) < 0.01
            line += f" ratio {ratio:.4f} calls {calls:.4f}" + (
                " (resolved-worse with calls within 1%: re-run)" if row["rerun"]
                else "" if row["resolved"] else " (unresolved)")
        rows.append(row)
        print(name, line)
    report = {
        "command": " ".join(["python3", "bench/run.py", *sys.argv[1:]]),
        "base": args.base,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()

"""Layer microbenchmarks of leafspace: microseconds per operation.

Usage, from the root of a source checkout:

    python3 bench/run.py --out BENCH_16.json --base HEAD --repeats 7

Each repeat runs every row once in a fresh interpreter per side, the base
revision and the working tree alternating which goes first; a row's figure
is the median over the repeats of its per-run time.  Within a run a row is
timed with ``timeit``: the loop count is grown until one loop takes at
least 0.2 s, and the best of three such loops gives the raw µs/op.  The base
revision is exported with ``git archive`` into a temporary directory.
Without ``--base`` only the working tree is measured.  Standard library
only; the process pins itself to one CPU, as leafbench does.

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
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
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
from fractions import Fraction as F
from leafspace.action import incompressible_interval_search, load_action_config, orbit_density
from leafspace.cones import adversarial_stall
from leafspace.plmap import PLMap, translation_number
from leafspace.qfield import QNum, as_qnum, sqrt_of
from leafspace.shear import holonomy_domain_trace
r2 = sqrt_of(2)
beta = PLMap(1, [(0, 0), (F(1, 2), F(3, 4))])
beta2 = beta.affine_conjugate(1 + r2)
unit = PLMap.translation(1, 1).affine_conjugate(1 + r2)
x_rat = QNum(F(7, 3))
x_r2 = QNum(F(1, 3), F(2, 7), 2)
pts_r2 = [(x / (1 + r2), y / (1 + r2)) for x, y in
          [(0, 0), (F(1, 4), F(1, 8)), (F(1, 2), F(3, 4)), (F(3, 4), F(7, 8))]]
period_r2 = (1 + r2).inverse()
g_r2 = PLMap(period_r2, pts_r2)
shift = PLMap.translation(r2 / 10, 1)
rot = beta.compose(shift).compose(beta.inverse())
golden = PLMap(1, [(0, F(1, 2)), (F(1, 4), F(5, 8)), (F(1, 2), 1)])
probe = PLMap(1, [(0, F(1, 5)), (F(1, 2), F(3, 5))])


def orbit_map(xs, m):
    q = len(xs)
    return PLMap(1, [(x, xs[(j + m) % q] + (j + m) // q) for j, x in enumerate(xs)])


orbit5 = orbit_map([F(0), F(1, 7), F(1, 3), F(1, 2), F(5, 6)], 2)
orbit61 = orbit_map([F(j * j + 1, 3728) for j in range(61)], 7)
flagship_config = json.loads(CONFIG)
flagship = load_action_config(flagship_config)
"""
ROWS = {
    "plmap.call.rational_point": "beta(x_rat)",
    "plmap.call.sqrt2_point": "beta2(x_r2)",
    "plmap.call.translation": "unit(x_r2)",
    "plmap.construct.sqrt2_4_breakpoints": "PLMap(period_r2, pts_r2)",
    "plmap.compose.sqrt2": "g_r2.compose(beta2)",
    "plmap.translation_number.forced_bracket_eps_1e-3":
        "translation_number(rot, F(1, 1000), force_bracket=True)",
    # The default eps of rotnum: n = 2000001 steps at most.
    "plmap.translation_number.forced_bracket_eps_1e-6":
        "translation_number(rot, F(1, 10**6), force_bracket=True)",
    # tests/golden/map.json: tau = 1/2, so the orbit of 0 closes at j = 2,
    # and n = 2001 is odd.
    "plmap.translation_number.forced_bracket_closes_eps_1e-3":
        "translation_number(golden, F(1, 1000), force_bracket=True)",
    "plmap.inverse.sqrt2_4_breakpoints": "g_r2.inverse()",
    "plmap.affine_conjugate.sqrt2_4_breakpoints": "g_r2.affine_conjugate(1 + r2)",
    "qfield.parse.sqrt2_literal": 'QNum.parse("1/3+2/7*sqrt(2)")',
    "qfield.as_qnum.fraction": "as_qnum(F(7, 3))",
    "qfield.construct.fraction_pair": "QNum(F(1, 3), F(2, 7), 2)",
    "shear.holonomy_domain_trace.rational": "holonomy_domain_trace(2, F(1, 10), F(1, 10), 6)",
    "action.load_action_config.flagship": "load_action_config(flagship_config)",
    "action.orbit_density.flagship_L5": "orbit_density(flagship, 0, 5, (0, 1))",
    # The witness has length 3, so the search stops early on level 3.
    "action.incompressible_interval_search.flagship_L4":
        "incompressible_interval_search(flagship, (F(1, 3), F(1, 2)), 4)",
    # beta.pow(8) is built inside the statement (four composes), then
    # composed with beta; beta^8 has 9 breakpoints and the result 10.
    "plmap.compose.rational_16_breakpoints": "beta.pow(8).compose(beta)",
    "plmap.pow.sqrt2_8": "g_r2.pow(8)",
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
    "plmap.fixed_points.sqrt2_4_breakpoints": "g_r2.fixed_points()",
    # A translation of period 1 and a map of period 1/(1 + sqrt 2), in
    # both orders.
    "plmap.compose.translation_after_other_period": "shift.compose(g_r2)",
    "plmap.compose.translation_before_other_period": "g_r2.compose(shift)",
    # T = r = 1: the search stalls and returns its trace of 1000 crossings.
    "cones.adversarial_stall.stall_T1_r1": "adversarial_stall(1, 1)",
}

WORKER = """\
import json, sys, time, timeit
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
CONFIG = open(sys.argv[2]).read()
setup = sys.argv[3]
rows = json.loads(sys.argv[4])
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


def host_seconds():
    times = []
    for _ in range(5):  # the fastest drops a preempted one
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return min(times)


env = {"json": json, "CONFIG": CONFIG}
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
print(json.dumps(out))
"""


def _run_side(src: Path) -> dict[str, dict[str, float]]:
    config = ROOT / "src" / "leafspace" / "configs" / "flagship.json"
    res = subprocess.run(
        [sys.executable, "-c", WORKER, str(src), str(config), SETUP, json.dumps(ROWS)],
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
        sides = {"change": ROOT / "src"}
        if args.base:
            sides = {"parent": _export(args.base, Path(tmp)), **sides}
        runs: dict[str, list[dict[str, dict[str, float]]]] = {side: [] for side in sides}
        for r in range(args.repeats):
            order = list(sides) if r % 2 == 0 else list(reversed(sides))
            for side in order:
                runs[side].append(_run_side(sides[side]))
                print(f"repeat {r + 1}/{args.repeats} {side} done", file=sys.stderr)

    rows = []
    for name in ROWS:
        row = {"name": name, "unit": "us/op, reference-host"}
        for side, results in runs.items():
            for key, suffix in (("scaled", ""), ("raw", "_raw")):
                values = [res[name][key] for res in results]
                row[f"{side}{suffix}"] = round(statistics.median(values), 3)
                row[f"{side}{suffix}_runs"] = [round(v, 3) for v in values]
        if "parent" in row:
            row["ratio_change_to_parent"] = round(row["change"] / row["parent"], 4)
        rows.append(row)
        print(name, " ".join(f"{side} {row[side]:.3f}" for side in runs), "us/op (reference-host)")
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

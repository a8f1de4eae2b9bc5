"""leafspace benchmark: seeded planted-answer workloads, closed loop.

Usage, from the root of a source checkout:

    python3 leafbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One client in one process sends each request after the previous one
returns.  Requests are in-process ``leafspace.cli.main`` calls (``certify``,
``ledger``) or direct library calls (``pl-algebra``) on inputs generated
from the seed; every result is checked against its planted answer outside
the timed span.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (see leafbench/README.md).  The last
line of stdout is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".leafbench"
WORKLOADS = ("certify", "pl-algebra", "ledger")
# Blocks every run completes: enough requests for ten samples beyond p95,
# and the fixed request list of the traced run and the output digest.
MIN_BLOCKS = {"certify": 4, "pl-algebra": 8, "ledger": 6}
SETUP_RUNS = 15
HARD_STOP_S = 100.0  # start no block after this, whatever --seconds says
# Host speed: the reference loop is re-timed between requests whenever
# this much time has passed since it last ran.
HOST_EVERY_S = 0.05
# Time of one reference loop on the quiet host described in
# leafbench/README.md; a constant, so it cancels when two runs are compared.
HOST_REF_S = 0.0015

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import leafspace, leafspace.cli
leafspace.cli.build_parser()
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    result: object = None
    error: str | None = None


def _fail(msg: str) -> None:
    print(f"leafbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _reference_work() -> None:
    """A fixed stdlib-only loop (Fraction arithmetic, string formatting and
    parsing, dict updates) in the same interpreter as the workload, sharing
    no code with leafspace: its time follows the host's speed, not the
    program's."""
    acc, seen = Fraction(0), {}
    for j in range(120):
        q = Fraction(j % 13 + 1, j % 7 + 2)
        acc = (acc + q) * q % 7
        text = f"{acc.numerator}/{acc.denominator}"
        seen[text] = seen.get(text, 0) + len(text.split("/"))
        acc = Fraction(text) - Fraction(j % 5, 3)


class HostClock:
    """Follows the shared host's speed, which flips between a fast and a
    slow state every few seconds (leafbench/README.md, "Sizing"), by timing
    ``_reference_work`` between requests.  ``scale(t)`` turns a time taken
    at ``t`` into reference-host seconds, from the reference timings just
    before and just after it; no timing is taken while the loop runs."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, reps: int = 2) -> None:
        times = []
        for _ in range(reps):  # the fastest drops a preempted one
            t0 = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - t0)
        self.at.append(time.perf_counter())
        self.took.append(min(times))

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= HOST_EVERY_S

    def scale(self, t: float) -> float:
        i = bisect.bisect_right(self.at, t)
        around = self.took[max(i - 1, 0):i + 1]
        return HOST_REF_S / statistics.mean(around)


def _setup_seconds() -> tuple[float, float]:
    """Median over fresh interpreters of import + first ``build_parser()``,
    raw and in reference-host seconds; one discarded run first, so every
    measured run finds compiled bytecode."""
    host = HostClock()
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        host.sample(reps=5)
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            _fail(f"set-up run failed: {proc.stderr.strip()[-300:]}")
        if i:
            raw.append(float(proc.stdout))
    host.sample(reps=5)
    for i, took in enumerate(raw, start=1):
        scaled.append(took * host.scale(host.at[i]))  # samples i and i + 1
    return statistics.median(raw), statistics.median(scaled)


# -- executing one request ---------------------------------------------------


def _run_cli(cli, req) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(req.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req.argv)
        return Outcome(code, out.getvalue(), err.getvalue())
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return Outcome(code, out.getvalue(), err.getvalue())
    except Exception as exc:  # an escaped exception is the traceback exit 1
        return Outcome(1, out.getvalue(), err.getvalue(), error=f"{type(exc).__name__}: {exc}")
    finally:
        sys.stdin = saved_stdin


def _compose_chain(maps):
    return functools.reduce(lambda f, g: f.compose(g), maps)


class Library:
    """Builds library inputs from planted data (untimed) and names the one
    call each library request times."""

    def __init__(self) -> None:
        from leafspace import plmap, qfield

        self.plmap, self.QNum, self.PLMap = plmap, qfield.QNum, plmap.PLMap

    def _q(self, v, d):
        return self.QNum(v.a, v.b, v.d or d)

    def _map(self, pts, d):
        return self.PLMap(1, [(self._q(x, d), self._q(y, d)) for x, y in pts])

    def prepare(self, req):
        name, args = req.call
        d = req.plant.get("d", 2)
        if name == "compose_chain":
            return _compose_chain, ([self._map(p, d) for p in args],)
        if name == "pow":
            pts, n = args
            return self.PLMap.pow, (self._map(pts, d), n)
        if name in ("inverse", "period_group", "fixed_points"):
            return getattr(self.PLMap, name), (self._map(args, d),)
        if name == "translation_number":
            pts, eps, max_denom, force = args
            return self._rotnum, (self._map(pts, d), eps, max_denom, force)
        if name == "conjugate_translation_number":
            h_pts, t, eps, max_denom, force = args
            h = self._map(h_pts, d)
            shift = self.PLMap.translation(self._q(t, d), 1)
            return self._rotnum, (h.compose(shift).compose(h.inverse()), eps, max_denom, force)
        if name == "evaluate":
            pts, x = args
            return self.PLMap.__call__, (self._map(pts, d), self._q(x, d))
        raise KeyError(name)

    def _rotnum(self, f, eps, max_denom, force):
        return self.plmap.translation_number(f, eps, max_denom, force_bracket=force)

    def run(self, fn, args) -> Outcome:
        try:
            return Outcome(0, "", "", result=fn(*args))
        except Exception as exc:
            return Outcome(1, "", "", error=f"{type(exc).__name__}: {exc}")


def _render(res) -> str:
    """Canonical text of a library result, for the output digest."""
    kind = type(res).__name__
    if kind == "PLMap":
        return json.dumps(res.to_json(), sort_keys=True)
    if kind == "Exact":
        return f"exact {res.value}"
    if kind == "Bracket":
        return f"bracket {res.lo} {res.hi}"
    if kind == "PeriodGroup":
        return f"period_group {res.all_reals} {res.step}"
    if kind == "FixedPoints":
        pts = " ".join(str(x) for x in res.points)
        ivs = " ".join(f"[{lo},{hi}]" for lo, hi in res.intervals)
        return f"fixed {res.kind} {pts} {ivs}"
    return str(res)


# -- the closed loop -----------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, tracer=None) -> None:
        import generate
        import verify
        from leafspace import cli

        self.generate, self.verify, self.cli = generate, verify, cli
        self.lib = Library()
        self.workload, self.seed, self.tracer = workload, seed, tracer
        self.host = HostClock()
        self.latencies: list[float] = []
        self.started: list[float] = []
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.defects: dict[str, int] = {}
        self.digest = hashlib.sha256()
        self.digest_requests = 0
        self.exit_2_3 = 0
        self.output_bytes = 0
        self.blocks = 0

    def _execute(self, req, prepared):
        if prepared is None:
            return _run_cli(self.cli, req)
        return self.lib.run(*prepared)

    def warm_up(self) -> None:
        """One request of each kind, untimed: imports, regex compilation and
        the small-d validation cache are ready before timing starts."""
        seen = set()
        for req in self.generate.block(self.workload, self.seed, -1):
            if req.kind not in seen and req.kind != "certify-big-d":
                seen.add(req.kind)
                prepared = None if req.argv is not None else self.lib.prepare(req)
                self._execute(req, prepared)

    def run_block(self) -> None:
        reqs = self.generate.block(self.workload, self.seed, self.blocks)
        prepared = [None if r.argv is not None else self.lib.prepare(r) for r in reqs]
        gc.collect()
        clock = time.perf_counter
        outcomes, lat, started = [], [], []
        tracer, host = self.tracer, self.host
        for i, (req, prep) in enumerate(zip(reqs, prepared)):
            if host.due():
                host.sample()
            t0 = clock()
            if tracer is None:
                out = self._execute(req, prep)
            else:
                out = tracer.request_span(self.attempted + i, self._execute, req, prep)
            lat.append(clock() - t0)
            started.append(t0)
            outcomes.append(out)
        host.sample()
        self.timed_s += sum(lat)
        self.latencies += lat
        self.started += started
        for req, out in zip(reqs, outcomes):
            self._account(req, out)
        self.blocks += 1

    def scaled_latencies(self) -> list[float]:
        """Request latencies in reference-host seconds."""
        return [lat * self.host.scale(t) for lat, t in zip(self.latencies, self.started)]

    def _account(self, req, out) -> None:
        self.attempted += 1
        why = self.verify.check(req, out)
        if why is not None:
            self.failed += 1
            if req.defect is not None:
                self.defects[req.defect] = self.defects.get(req.defect, 0) + 1
            else:
                self.unexpected.append(f"{req.kind} {req.argv or req.call[0]}: {why}")
        if req.argv is not None:
            self.output_bytes += len(out.stdout.encode())
            self.exit_2_3 += out.code in (2, 3)
        if self.blocks < MIN_BLOCKS[self.workload]:
            text = out.stdout if req.argv is not None else (
                _render(out.result) if out.error is None else "")
            self.digest.update(text.encode() + f"\n\x00exit {out.code}\n".encode())
            self.digest_requests += 1

    def run(self, seconds: float, exact_blocks: int | None = None) -> None:
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if exact_blocks is not None:
                if self.blocks >= exact_blocks:
                    break
            elif self.blocks >= MIN_BLOCKS[self.workload] and elapsed >= seconds:
                break
            if elapsed >= HARD_STOP_S:
                break
            self.run_block()

    def print_summary(self) -> None:
        n = self.attempted
        print(f"workload {self.workload} seed {self.seed}: {n} requests in {self.blocks} blocks, "
              f"{self.timed_s:.3f} s timed")
        print(f"error_rate {self.failed / n:.6f} ratio ({self.failed} failed of {n} attempted; "
              f"{self.failed - len(self.unexpected)} are known defects)")
        for defect, count in sorted(self.defects.items()):
            print(f"  known defect x{count}: ROADMAP {defect}")
        for line in self.unexpected[:20]:
            print(f"  UNEXPECTED FAILURE: {line}")
        print(f"output_digest sha256 {self.digest.hexdigest()} "
              f"(stdout and exit code of the first {self.digest_requests} requests)")


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner: Runner, setup: tuple[float, float]) -> dict:
    """The metrics in reference-host time; the raw wall-clock figures are
    printed beside them."""
    raw, lat = runner.latencies, runner.scaled_latencies()
    beyond = sum(1 for v in lat if v > _quantile(lat, 95))
    metrics = {
        "throughput_rps": (len(lat) / sum(lat), len(raw) / sum(raw), "req/s", len(lat)),
        "latency_p50_ms": (_quantile(lat, 50) * 1e3, _quantile(raw, 50) * 1e3, "ms", len(lat)),
        "latency_p95_ms": (_quantile(lat, 95) * 1e3, _quantile(raw, 95) * 1e3, "ms", len(lat)),
        "setup_s": (setup[1], setup[0], "s", SETUP_RUNS),
    }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host = runner.host.took
    print(f"host reference loop: median {statistics.median(host) * 1e3:.3f} ms over "
          f"{len(host)} timings (reference {HOST_REF_S * 1e3:.3f} ms)")
    for name, (value, wall, unit, samples) in metrics.items():
        extra = f", {beyond} beyond p95" if name == "latency_p95_ms" else ""
        print(f"{name} {value:.6g} {unit} ({samples} samples{extra}; {wall:.6g} {unit} raw wall)")
    print(f"peak_rss_mb {rss:.6g} MB")
    result = {name: {"value": v[0], "unit": v[2]} for name, v in metrics.items()}
    result["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return result


def _reference_wall(args, blocks: int) -> float:
    """Untraced time of the same blocks, in a fresh process so that no cache
    warmed by the traced run helps it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--reference-blocks", str(blocks)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        _fail(f"untraced reference run failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.splitlines()[-1])["scaled_s"]


def traced(args, runner: Runner, tracer) -> dict:
    blocks = MIN_BLOCKS[args.workload]
    tracer.install()
    try:
        runner.run(0, exact_blocks=blocks)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics.update(tracer.microbench())
    metrics["cli.output_bytes"] = (runner.output_bytes, "bytes")
    metrics["cli.exit_2_3.count"] = (runner.exit_2_3, "count")
    traced_s = sum(runner.scaled_latencies())
    metrics["trace.overhead_ratio"] = (traced_s / _reference_wall(args, blocks), "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(span_file)
    print(f"{len(tracer.sid)} spans written to {span_file.relative_to(ROOT)}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reference-blocks", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "leafspace" / "__init__.py").is_file():
        _fail(f"no leafspace sources under {SRC}; run from a source checkout")
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the workload, the reference loop and the set-up
        # interpreters, so that the loop times the CPU the requests ran on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import leafspace

    if Path(leafspace.__file__).resolve().parent != (SRC / "leafspace").resolve():
        _fail(f"imported leafspace from {leafspace.__file__}, not from {SRC}")

    if args.reference_blocks is not None:
        runner = Runner(args.workload, args.seed)
        runner.warm_up()
        runner.run(0, exact_blocks=args.reference_blocks)
        print(json.dumps({"scaled_s": sum(runner.scaled_latencies()),
                          "attempted": runner.attempted}))
        return

    setup_s = _setup_seconds() if args.trace == 0 else None
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(args.workload, args.seed, tracer)
    runner.warm_up()
    if tracer is None:
        runner.run(args.seconds)
        runner.print_summary()
        metrics = end_to_end(runner, setup_s)
    else:
        metrics = traced(args, runner, tracer)
        runner.print_summary()
    print(json.dumps({"correct": not runner.unexpected, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

"""Command-line driver with deterministic, machine-readable output.

Exit codes: 0 success (and NO_COMMON_TRANSLATION for `certify`),
10 COMMON_TRANSLATION, 2 malformed input, 3 precondition violation.
Exact values are printed in the canonical number grammar; floats carry 17
significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources

from .action import (
    LONGITUDE,
    DensityParams,
    certify_nonuniform,
    evaluate_word,
    incompressible_interval_search,
    load_action_config,
    orbit_density,
)
from .cones import adversarial_stall, build_chain_from_action, metric_gap_check, run_progress_ledger
from .errors import ParseError, PreconditionError
from .plmap import Bracket, Exact, PLMap, translation_number
from .qfield import QNum
from .selftest import run_selftest
from .shear import ShearModel, holonomy_domain_trace, shadow_length

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_COMMON_TRANSLATION = 10

BUILTIN_CONFIGS = ("flagship", "commensurable")


def _f17(x) -> str:
    return format(float(x), ".17g")


def _load_json(path: str) -> dict:
    if path in BUILTIN_CONFIGS:
        text = resources.files("leafspace.configs").joinpath(f"{path}.json").read_text()
    elif path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    return _parse_json(text)


def _parse_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also int digit limit, deep nesting
        raise ParseError(str(exc)) from exc


def _load_spec(args):
    return load_action_config(_load_json(args.config))


def _emit(obj, args) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    _write(text + "\n", args)


def _write(text: str, args) -> None:
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_rat(text: str) -> Fraction:
    # The canonical grammar, not Fraction's: "1e999999999" would cost time
    # and memory exponential in the length of the text.
    q = QNum.parse(text)
    if q.b:
        raise ParseError(f"not a rational number: {text!r}")
    return q.a


def _parse_pair(text: str, d: int) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected two numbers a,b: {text!r}")
    return tuple(QNum.parse(w, d) for w in parts)


# -- subcommand handlers --------------------------------------------------


def cmd_rotnum(args) -> int:
    f = PLMap.from_json(_load_json(args.map))
    res = translation_number(
        f, _parse_rat(args.eps), args.max_denom, force_bracket=args.bracket
    )
    if isinstance(res, Exact):
        _emit({"kind": "exact", "value": str(res.value)}, args)
    else:
        _emit({"kind": "bracket", "lo": str(res.lo), "hi": str(res.hi)}, args)
    return EXIT_OK


def cmd_periods(args) -> int:
    f = PLMap.from_json(_load_json(args.map))
    pg = f.period_group()
    if pg.all_reals:
        _emit({"kind": "all_reals"}, args)
    else:
        _emit({"kind": "subgroup", "step": str(pg.step)}, args)
    return EXIT_OK


def cmd_build_action(args) -> int:
    spec = _load_spec(args)
    _emit(
        {
            "d": spec.d,
            "t": str(spec.t),
            "s": str(spec.s),
            "generators": {k: v.to_json() for k, v in spec.generators.items()},
            "longitude": LONGITUDE,
        },
        args,
    )
    return EXIT_OK


def cmd_eval_word(args) -> int:
    spec = _load_spec(args)
    word = _parse_json(args.word)
    if type(word) is not list or any(
        type(letter) is not list or [type(v) for v in letter] != [str, int] for letter in word
    ):
        raise ParseError(f"word must be a JSON list of [name, integer] pairs: {args.word!r}")
    result = evaluate_word(spec, word)
    if isinstance(result, PLMap):
        _emit({"kind": "plmap", "map": result.to_json()}, args)
    else:
        _emit(
            {
                "kind": "composite",
                "note": "no single-period PL form; factors listed outermost first",
                "factors": [f.to_json() for f in result.factors],
            },
            args,
        )
    return EXIT_OK


def cmd_certify(args) -> int:
    spec = _load_spec(args)
    density = DensityParams(max_word_len=args.density_word_len)
    cert = certify_nonuniform(spec, density)
    _emit(cert.to_json(), args)
    return EXIT_OK if cert.verdict == "NO_COMMON_TRANSLATION" else EXIT_COMMON_TRANSLATION


def cmd_orbit_gap(args) -> int:
    spec = _load_spec(args)
    window = _parse_pair(args.window, spec.d)
    rep = orbit_density(spec, QNum.parse(args.x0), args.max_word_len, window)
    _emit(rep.to_json(), args)
    return EXIT_OK


def cmd_incompressible(args) -> int:
    spec = _load_spec(args)
    interval = _parse_pair(args.interval, spec.d)
    res = incompressible_interval_search(spec, interval, args.max_word_len)
    _emit(res.to_json(), args)
    return EXIT_OK


def cmd_metric_lemma(args) -> int:
    import random

    spec = _load_spec(args)
    chain = build_chain_from_action(spec, args.pattern, seed=args.seed)
    rng = random.Random(args.seed)
    pairs = [
        (Fraction(rng.randint(-60, 60), 7), Fraction(rng.randint(-60, 60), 11))
        for _ in range(args.samples)
    ]
    rep = metric_gap_check(chain, 0, len(chain), pairs)
    _emit(rep.to_json(), args)
    return EXIT_OK


def cmd_cone_progress(args) -> int:
    run = run_progress_ledger(
        QNum.parse(args.T), QNum.parse(args.r), args.n, args.policy, args.seed
    )
    lines = ["crossing,progress,distortion,certified_d1_lower_bound,simulated_d1"]
    for row in run.rows:
        lines.append(
            f"{row.index},{row.progress},{row.distortion},"
            f"{row.certified_lower_bound},{row.simulated_d1}"
        )
    lines.append(f"# verdict: {run.verdict}")
    lines.append(f"# final certified bound: {run.final_bound}")
    _write("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_stall_search(args) -> int:
    trace = adversarial_stall(QNum.parse(args.T), QNum.parse(args.r))
    if trace is None:
        _emit({"result": "NONE"}, args)
    else:
        _emit(
            {
                "result": "STALL",
                "crossings": len(trace.values),
                "first_values": [str(v) for v in trace.values[:10]],
                "final_value": str(trace.values[-1]),
            },
            args,
        )
    return EXIT_OK


def cmd_shear_shadow(args) -> int:
    lines = ["level,curve_length,shadow_length,limit"]
    for level in range(1, args.n + 1):
        rep = shadow_length(QNum.parse(args.t), QNum.parse(args.lam), level)
        lines.append(
            f"{level},{rep.curve_length},{rep.shadow},{rep.limit}"
        )
    lines.append("# label: EXPLORATORY")
    _write("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_shear_holonomy(args) -> int:
    model = ShearModel.build(QNum.parse(args.lam), _parse_rat(args.eps), _parse_rat(args.delta))
    trace = holonomy_domain_trace(model, args.n, _parse_rat(args.threshold))
    lines = ["level,domain_length"]
    for level, length in enumerate(trace.lengths):
        lines.append(f"{level},{_f17(length)}")
    lines.append(f"# flag: {trace.flag}")
    lines.append("# label: EXPLORATORY")
    _write("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = run_selftest(seed=args.seed)
    return EXIT_OK if failures == 0 else 1


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leafspace",
        description="Exact leaf-space dynamics: certificates, ledgers, shear models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No prefix abbreviations: an unknown option such as shear-holonomy
    # --t must fail, not silently become --threshold.
    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.set_defaults(fn=fn)
        p.add_argument("--output", help="write output to this file instead of stdout")
        return p

    p = add("rotnum", cmd_rotnum, "translation number of a PL map")
    p.add_argument("--map", required=True, help="PL map JSON file (or - for stdin)")
    p.add_argument("--eps", default="1/1000000", help="bracket width bound")
    p.add_argument("--max-denom", type=int, default=64)
    p.add_argument("--bracket", action="store_true", help="skip the exact search")

    p = add("periods", cmd_periods, "commuting-translation subgroup of a PL map")
    p.add_argument("--map", required=True)

    for name, fn, help_ in [
        ("build-action", cmd_build_action, "normalize a two-piece action spec"),
        ("certify", cmd_certify, "decide the common-translation question"),
        ("eval-word", cmd_eval_word, "image of a word under the action"),
        ("orbit-gap", cmd_orbit_gap, "largest orbit gap in a window"),
        ("incompressible", cmd_incompressible, "bounded incompressibility search"),
        ("metric-lemma", cmd_metric_lemma, "sample the metric comparison bound"),
    ]:
        p = add(name, fn, help_)
        p.add_argument(
            "--config",
            required=True,
            help=f"action config JSON path, '-', or one of {', '.join(BUILTIN_CONFIGS)}",
        )
        if name == "certify":
            p.add_argument("--density-word-len", type=int, default=4)
        if name == "eval-word":
            p.add_argument("--word", required=True, help='JSON list, e.g. [["alpha_l",1]]')
        if name == "orbit-gap":
            p.add_argument("--x0", default="0")
            p.add_argument("--max-word-len", type=int, default=5)
            p.add_argument("--window", default="0,1", help="lo,hi in the number grammar")
        if name == "incompressible":
            p.add_argument("--interval", required=True, help="a,b in the number grammar")
            p.add_argument("--max-word-len", type=int, default=4)
        if name == "metric-lemma":
            p.add_argument("--pattern", default="LRLR")
            p.add_argument("--samples", type=int, default=1000)
            p.add_argument("--seed", type=int, default=0)

    p = add("cone-progress", cmd_cone_progress, "run the progress-ledger induction")
    p.add_argument("--T", required=True, help="per-crossing progress")
    p.add_argument("--r", required=True, help="per-re-measurement distortion bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--policy", choices=["adversarial", "random"], default="adversarial")
    p.add_argument("--seed", type=int, default=0)

    p = add("stall-search", cmd_stall_search, "look for a stalling distortion trace")
    p.add_argument("--T", required=True)
    p.add_argument("--r", required=True)

    p = add("shear-shadow", cmd_shear_shadow, "shadow-length series per level")
    p.add_argument("--t", default="1", help="per-level curve length")
    p.add_argument("--lam", required=True, help="expansion multiplier > 1")
    p.add_argument("--n", type=int, required=True)

    p = add("shear-holonomy", cmd_shear_holonomy, "trace the surviving holonomy domain")
    p.add_argument("--lam", required=True)
    p.add_argument("--delta", default="1/10", help="shear displacement")
    p.add_argument("--eps", default="1/10", help="collar half-width")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--threshold", default="1/1000000")

    p = add("selftest", cmd_selftest, "run the deterministic invariant suite")
    p.add_argument("--seed", type=int, default=0)

    return parser


# Built by the first ``main`` call and shared by later calls in the process;
# ``parse_args`` leaves the parser unchanged, so calls cannot leak options.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    # OverflowError: an exact value too large for a float report field.
    except (PreconditionError, OverflowError) as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())

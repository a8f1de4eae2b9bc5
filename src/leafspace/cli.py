"""Command-line driver with deterministic, machine-readable output.

Exit codes: 0 success (and NO_COMMON_TRANSLATION for `certify`),
10 COMMON_TRANSLATION, 1 a failed `selftest` check, 2 malformed input,
3 precondition violation.
Exact values are printed in the canonical number grammar; floats carry 17
significant digits.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys

from .action import (
    LONGITUDE,
    certify_nonuniform,
    evaluate_word,
    incompressible_interval_search,
    load_action_config,
    orbit_density,
)
from .cones import (CROSSINGS, adversarial_stall, build_chain_from_action, metric_gap_check,
                    run_progress_ledger, sample_leaf_pairs)
from .errors import ParseError, PreconditionError
from .plmap import Exact, PLMap, translation_number
from .qfield import QNum
from .selftest import run_selftest
from .shear import shadow_length

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_COMMON_TRANSLATION = 10

BUILTIN_CONFIGS = ("flagship", "commensurable")


def _f17(x) -> str:
    return format(float(x), ".17g")


def _load_json(path: str) -> dict:
    try:
        if path in BUILTIN_CONFIGS:
            # Imported here: it costs a bare interpreter about 13 ms of start-up.
            from importlib import resources
            text = resources.files("leafspace.configs").joinpath(f"{path}.json").read_text()
        elif path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc)) from exc
    return _parse_json(text)


def _parse_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also int digit limit, deep nesting
        raise ParseError(str(exc)) from exc


def _load_spec(args):
    return load_action_config(_load_json(args.config))


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_rat(text: str) -> QNum:
    # The canonical grammar, not Fraction's: "1e999999999" would cost time
    # and memory exponential in the length of the text.
    q = QNum.parse(text)
    if not q.is_rational():
        raise ParseError(f"not a rational number: {text!r}")
    return q


def _parse_pair(text: str, d: int) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected two numbers a,b: {text!r}")
    return tuple(QNum.parse(w, d) for w in parts)


# -- subcommand handlers --------------------------------------------------
# Each handler returns its output: a JSON object or CSV text, built here from
# the library's result records, which are data; this module writes every
# report.  `certify` and `selftest` return (output, exit code); `main` writes
# and exits.


def cmd_rotnum(args):
    f = PLMap.from_json(_load_json(args.map))
    res = translation_number(f, _parse_rat(args.eps), args.max_denom, force_bracket=args.bracket)
    if isinstance(res, Exact):
        return {"kind": "exact", "value": str(res.value)}
    return {"kind": "bracket", "lo": str(res.lo), "hi": str(res.hi)}


def cmd_periods(args):
    pg = PLMap.from_json(_load_json(args.map)).period_group()
    return {"kind": "all_reals"} if pg.all_reals else {"kind": "subgroup", "step": str(pg.step)}


def cmd_build_action(args):
    spec = _load_spec(args)
    return {
        "d": spec.d,
        "t": str(spec.t),
        "s": str(spec.s),
        "generators": {k: v.to_json() for k, v in spec.generators.items()},
        "longitude": LONGITUDE,
    }


def cmd_eval_word(args):
    spec = _load_spec(args)
    word = _parse_json(args.word)
    if type(word) is not list or any(
        type(letter) is not list or [type(v) for v in letter] != [str, int] for letter in word
    ):
        raise ParseError(f"word must be a JSON list of [name, integer] pairs: {args.word!r}")
    result = evaluate_word(spec, word)
    if isinstance(result, PLMap):
        return {"kind": "plmap", "map": result.to_json()}
    return {
        "kind": "composite",
        "note": "no single-period PL form; factors listed outermost first",
        "factors": [f.to_json() for f in result.factors],
    }


def _orbit_gap(spec, x0, max_word_len: int, window) -> dict:
    """The orbit-gap report, as `orbit-gap` prints it and `certify` attaches
    it as its density evidence."""
    rep = orbit_density(spec, x0, max_word_len, window)
    return {
        "max_gap": rep.max_gap,
        "points_in_window": rep.points_in_window,
        "orbit_size": rep.orbit_size,
        "max_word_len": max_word_len,
        "window": [repr(float(w)) for w in window],
    }


def cmd_certify(args):
    spec = _load_spec(args)
    cert = certify_nonuniform(spec)
    evidence = _orbit_gap(spec, 0, args.density_word_len, (0, 1))
    common = cert.common_translation
    obj = {
        "verdict": cert.verdict,
        "left_step": str(cert.left_step),
        "right_step": str(cert.right_step),
        "ratio_rational": cert.ratio_rational,
        "quotient": str(cert.quotient),
        "common_translation": None if common is None else str(common),
        "density_evidence": evidence,
    }
    return obj, EXIT_OK if cert.verdict == "NO_COMMON_TRANSLATION" else EXIT_COMMON_TRANSLATION


def cmd_orbit_gap(args):
    spec = _load_spec(args)
    window = _parse_pair(args.window, spec.d)
    return _orbit_gap(spec, QNum.parse(args.x0, spec.d), args.max_word_len, window)


def cmd_incompressible(args):
    spec = _load_spec(args)
    interval = _parse_pair(args.interval, spec.d)
    res = incompressible_interval_search(spec, interval, args.max_word_len)
    return {"result": res.kind, "word": None if res.word is None else [list(w) for w in res.word]}


def cmd_metric_lemma(args):
    spec = _load_spec(args)
    chain = build_chain_from_action(spec, args.pattern, seed=args.seed)
    pairs = sample_leaf_pairs(random.Random(args.seed), args.samples)
    rep = metric_gap_check(chain, 0, len(chain), pairs)
    return {"bound": str(rep.bound), "max_gap": str(rep.max_gap), "max_ratio": rep.max_ratio,
            "violations": rep.violations, "samples": rep.samples}


def cmd_cone_progress(args):
    run = run_progress_ledger(
        QNum.parse(args.T), QNum.parse(args.r), args.n, args.policy, args.seed
    )
    lines = ["crossing,progress,distortion,certified_d1_lower_bound,simulated_d1"]
    lines += [f"{row.index},{row.progress},{row.distortion},{row.certified_lower_bound},"
              f"{row.simulated_d1}" for row in run.rows]
    lines.append(f"# verdict: {run.verdict}")
    lines.append(f"# final certified bound: {run.final_bound}")
    return "\n".join(lines) + "\n"


def cmd_stall_search(args):
    trace = adversarial_stall(QNum.parse(args.T), QNum.parse(args.r))
    if trace is None:
        return {"result": "NONE"}
    return {
        "result": "STALL",
        "crossings": CROSSINGS,
        "first_values": [str(trace.value(i)) for i in range(10)],
        "final_value": str(trace.value(CROSSINGS - 1)),
    }


def cmd_shear_shadow(args):
    t, lam = QNum.parse(args.t), QNum.parse(args.lam)
    if args.n < 1:
        raise PreconditionError("n must be >= 1")
    # lam checked once; each shadow is the closed form limit * (1 - lam^-level).
    limit, inv, pw = shadow_length(t, lam, 1).limit, lam.inverse(), 1
    lines = ["level,curve_length,shadow_length,limit"]
    for level in range(1, args.n + 1):
        pw = inv * pw
        lines.append(f"{level},{t * level},{limit * (1 - pw)},{limit}")
    lines.append("# label: EXPLORATORY")
    return "\n".join(lines) + "\n"


def cmd_shear_holonomy(args):
    lam, eps, delta = QNum.parse(args.lam), _parse_rat(args.eps), _parse_rat(args.delta)
    # The closed form of shear.py's docstring; delta < 1/2 + eps keeps mu monotone.
    if delta < 0 or 2 * delta >= 1 + 2 * eps:
        raise PreconditionError("delta must keep the shear monotone")
    if not lam > 1:
        raise PreconditionError("multiplier must exceed 1")
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if args.n < 1:
        raise PreconditionError("n must be >= 1")
    width = _f17(1 + 2 * eps)
    lines = ["level,domain_length", *(f"{level},{width}" for level in range(args.n + 1))]
    lines += ["# flag: PERSISTS", "# label: EXPLORATORY"]
    return "\n".join(lines) + "\n"


def cmd_selftest(args):
    log = io.StringIO()
    failures = run_selftest(seed=args.seed, out=log)
    return log.getvalue(), EXIT_OK if failures == 0 else 1


# -- parser ---------------------------------------------------------------

# Each count or length option carries its maximum; a larger value exits 3
# while the arguments are read, before any work.  README's table of limits
# gives the cost measured at each cap.


def _at_most(p, flag, cap, help_, read=int, unit="", **kw):
    """Add ``flag`` read by ``read`` and at most ``cap`` (a ``str`` by its
    length); the reader keeps ``read``'s name for argparse's own errors."""
    def reader(text):
        value = read(text)
        if (len(value) if read is str else value) > cap:
            raise PreconditionError(f"{flag} must be at most {cap}{unit}")
        return value

    reader.__name__, reader.cap = read.__name__, cap
    p.add_argument(flag, type=reader, help=f"{help_}, at most {cap}{unit}", **kw)


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple:
    """The full parser and a {name: parser} map of its subcommands."""
    parser = argparse.ArgumentParser(
        prog="leafspace",
        description="Exact leaf-space dynamics: certificates, ledgers, shear models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No prefix abbreviations: an unknown option such as cone-progress
    # --pol must fail, not silently become --policy.
    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.set_defaults(fn=fn)
        p.add_argument("--output", help="write output to this file instead of stdout")
        return p

    p = add("rotnum", cmd_rotnum, "translation number of a PL map")
    p.add_argument("--map", required=True, help="PL map JSON file (or - for stdin)")
    p.add_argument("--eps", default="1/1000000", help="bracket width bound")
    _at_most(p, "--max-denom", 256, "longest periodic orbit searched for", default=64)
    p.add_argument("--bracket", action="store_true", help="a bracket even when the value is exact")

    p = add("periods", cmd_periods, "commuting-translation subgroup of a PL map")
    p.add_argument("--map", required=True)

    def add_action(name, fn, help_):
        p = add(name, fn, help_)
        p.add_argument(
            "--config",
            required=True,
            help=f"action config JSON path, '-', or one of {', '.join(BUILTIN_CONFIGS)}",
        )
        return p

    add_action("build-action", cmd_build_action, "normalize a two-piece action spec")
    p = add_action("certify", cmd_certify, "decide the common-translation question")
    _at_most(p, "--density-word-len", 8, "word length of the orbit-density evidence", default=4)
    p = add_action("eval-word", cmd_eval_word, "image of a word under the action")
    p.add_argument("--word", required=True, help='JSON list, e.g. [["alpha_l",1]]')
    p = add_action("orbit-gap", cmd_orbit_gap, "largest orbit gap in a window")
    p.add_argument("--x0", default="0")
    _at_most(p, "--max-word-len", 8, "longest word searched", default=5)
    p.add_argument("--window", default="0,1", help="lo,hi in the number grammar")
    p = add_action("incompressible", cmd_incompressible, "bounded incompressibility search")
    p.add_argument("--interval", required=True, help="a,b in the number grammar")
    _at_most(p, "--max-word-len", 7, "longest word searched", default=4)
    p = add_action("metric-lemma", cmd_metric_lemma, "sample the metric comparison bound")
    _at_most(p, "--pattern", 400, "pieces, a string over L and R", read=str, unit=" letters",
             default="LRLR")
    _at_most(p, "--samples", 10000, "leaf pairs sampled", default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("cone-progress", cmd_cone_progress, "run the progress-ledger induction")
    p.add_argument("--T", required=True, help="per-crossing progress")
    p.add_argument("--r", required=True, help="per-re-measurement distortion bound")
    _at_most(p, "--n", 10000, "crossings", required=True)
    p.add_argument("--policy", choices=["adversarial", "random"], default="adversarial")
    p.add_argument("--seed", type=int, default=0)

    p = add("stall-search", cmd_stall_search, "look for a stalling distortion trace")
    p.add_argument("--T", required=True)
    p.add_argument("--r", required=True)

    p = add("shear-shadow", cmd_shear_shadow, "shadow-length series per level")
    p.add_argument("--t", default="1", help="per-level curve length")
    p.add_argument("--lam", required=True, help="expansion multiplier > 1")
    _at_most(p, "--n", 1000, "levels", required=True)

    p = add("shear-holonomy", cmd_shear_holonomy, "trace the surviving holonomy domain")
    p.add_argument("--lam", required=True)
    p.add_argument("--delta", default="1/10", help="shear displacement")
    p.add_argument("--eps", default="1/10", help="collar half-width")
    _at_most(p, "--n", 10000, "levels", required=True)

    p = add("selftest", cmd_selftest, "run the deterministic invariant suite")
    p.add_argument("--seed", type=int, default=0)

    return parser, sub.choices


# Built by the first ``main`` call and shared by later calls in the process:
# the full parser and its subcommands' parsers, as ``_build_parsers``
# returns them.  ``parse_args`` leaves a parser unchanged, so calls cannot
# leak options.
_parser: tuple | None = None


def _join_negative_values(argv: list) -> list:
    """Each value that starts with '-' and a digit joined to the option
    before it, as ``--opt=value``: argparse would take '-1/10' for a flag."""
    out = []
    for arg in argv:
        negative = arg[:1] == "-" and arg[1:2].isdecimal()
        if negative and out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _parse_args(argv: list) -> argparse.Namespace:
    """The arguments, read by the parser of the subcommand that ``argv[0]``
    names when it takes every argument after it: the full parser hands it
    just those.  Any other argv goes to the full parser, so every usage
    error, help text and exit code is argparse's own; one that the
    subcommand's parser left arguments of is read again there, only to fail."""
    global _parser
    if _parser is None:
        _parser = _build_parsers()
    parser, commands = _parser
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """The one request path: read the arguments, run the handler, write its
    output (a JSON object, or text as it is) and return the exit code."""
    try:
        args = _parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
        out, code = args.fn(args), EXIT_OK
        if isinstance(out, tuple):
            out, code = out
        if not isinstance(out, str):
            out = json.dumps(out, indent=2, sort_keys=True) + "\n"
        _write(out, args.output)
        return code
    except ParseError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    # OverflowError: an exact value too large for a float report field.
    except (PreconditionError, OverflowError) as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())

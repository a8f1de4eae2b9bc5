"""Fuzz the CLI input boundary: malformed JSON and number text end in exit 2
(malformed input) or 3 (precondition violated), or in a verdict, never in an
escaped exception (a traceback, exit 1)."""

import argparse
import contextlib
import io
import json
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from leafspace import cli
from leafspace.cli import build_parser, main

EXITS = {0, 2, 3, 10}

NUMBER = st.one_of(
    st.sampled_from([
        "0", "1", "-1", "1/3", "-2/7", "1/0", "0/0", "1+1*sqrt(2)", "0-1/2*sqrt(2)",
        "1+1/0*sqrt(2)", "1+1*sqrt(4)", "1+1*sqrt(3)", "1+1*sqrt(1000000000000000003)",
        "1e3", "1e5000", "1.5", "nan", "inf", "sqrt(2)", "1+sqrt(2)", "", " ", "+1",
        "1" + "0" * 400,
    ]),
    st.text(alphabet="0123456789/+-*sqrt() .e", max_size=12),
)
KEYS = ["d", "t", "s", "beta_l", "beta_r", "period", "breakpoints", "x", "y"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(-3, 3) | NUMBER,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4)
    ),
    max_leaves=10,
)
PLMAP = st.fixed_dictionaries(
    {},
    optional={
        "period": JSON,
        "breakpoints": st.lists(
            st.fixed_dictionaries({}, optional={"x": JSON, "y": JSON}), max_size=3
        ) | JSON,
    },
)
CONFIG = st.fixed_dictionaries(
    {},
    optional={
        "d": st.sampled_from([2, 3, 4, 2.0, True, "2", None, 1, -5]) | JSON,
        "t": NUMBER | JSON,
        "s": NUMBER | JSON,
        "beta_l": PLMAP,
        "beta_r": PLMAP,
    },
) | JSON

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def run(argv, stdin=""):
    """Exit code, stderr and stdout of one in-process call; an escaped
    exception fails the test.  Bytes on stdin are decoded as UTF-8, strictly."""
    saved, err, out = sys.stdin, io.StringIO(), io.StringIO()
    if isinstance(stdin, bytes):
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    else:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        sys.stdin = saved
    return code, err.getvalue(), out.getvalue()


@FUZZ
@given(CONFIG)
def test_fuzz_action_config(config):
    assert run(["build-action", "--config", "-"], json.dumps(config))[0] in EXITS


@FUZZ
@given(JSON)
def test_fuzz_eval_word(word):
    assert run(["eval-word", "--config", "flagship", "--word", json.dumps(word)])[0] in EXITS


@FUZZ
@given(PLMAP | JSON)
def test_fuzz_plmap(obj):
    assert run(["periods", "--map", "-"], json.dumps(obj))[0] in EXITS


@FUZZ
@given(NUMBER, NUMBER, NUMBER, NUMBER)
def test_fuzz_number_options(a, b, c, e):
    calls = [
        ["cone-progress", "--T", a, "--r", b, "--n", "3"],
        ["stall-search", "--T", a, "--r", b],
        ["shear-shadow", "--lam", a, "--t", b, "--n", "3"],
        ["shear-holonomy", "--lam", a, "--eps", b, "--delta", c, "--n", "3"],
        ["orbit-gap", "--config", "flagship", "--x0", a, "--window", f"{b},{c}",
         "--max-word-len", "1"],
        ["incompressible", "--config", "flagship", "--interval", f"{a},{b}",
         "--max-word-len", "1"],
        ["rotnum", "--map", "-", "--eps", e],
    ]
    translation = json.dumps({"period": "1", "breakpoints": [{"x": "0", "y": "1/3"}]})
    for argv in calls:
        assert run(argv, translation if argv[0] == "rotnum" else "")[0] in EXITS, argv


BOUNDARY_CASES = [
    # more digits than int() converts
    (["cone-progress", "--T", "1" * 5000, "--r", "1", "--n", "2"], "", 2),
    (["build-action", "--config", "-"], '{"d": ' + "1" * 5000 + ', "t": "1", "s": "2"}', 2),
    # nesting deeper than the JSON decoder's recursion
    (["eval-word", "--config", "flagship", "--word", "[" * 100000], "", 2),
    # Fraction's exponent notation is not number text
    (["shear-holonomy", "--lam", "2", "--n", "3", "--eps", "1e5000"], "", 2),
    (["rotnum", "--map", "-", "--eps", "1e-6"],
     '{"period": "1", "breakpoints": [{"x": "0", "y": "1/3"}]}', 2),
    # a window or interval is exactly two numbers
    (["orbit-gap", "--config", "flagship", "--window", "1"], "", 2),
    (["incompressible", "--config", "flagship", "--interval", "0,1/2,1"], "", 2),
    # an exact value too large for a float report field
    (["shear-holonomy", "--lam", "2", "--n", "3", "--eps", "1" + "0" * 400], "", 3),
    # each shear-holonomy precondition on its own
    (["shear-holonomy", "--lam", "1", "--n", "3"], "", 3),
    (["shear-holonomy", "--lam", "2", "--n", "3", "--eps", "0"], "", 3),
    (["shear-holonomy", "--lam", "2", "--n", "3", "--delta=-1/10"], "", 3),
    (["shear-holonomy", "--lam", "2", "--n", "3", "--delta", "1"], "", 3),
    (["shear-holonomy", "--lam", "2", "--n", "0"], "", 3),
    # shear-shadow checks its numbers and n even when no level is printed
    (["shear-shadow", "--lam", "2", "--n", "0"], "", 3),
    (["shear-shadow", "--lam", "garbage", "--n", "0"], "", 2),
    (["shear-shadow", "--lam", "1/2", "--n", "-3"], "", 3),
    # a negative fraction given as its own argument is a value, not a flag
    (["shear-holonomy", "--lam", "2", "--n", "3", "--delta", "-1/10"], "", 3),
    (["cone-progress", "--T", "1", "--r", "-1/10", "--n", "3"], "", 3),
    (["stall-search", "--T", "1", "--r", "-1/10"], "", 3),
    # a count below its least value, not a vacuous or silently clamped run
    (["metric-lemma", "--config", "flagship", "--samples", "-5"], "", 3),
    (["rotnum", "--map", "-", "--max-denom", "-3"],
     json.dumps({"period": "1", "breakpoints": [{"x": "0", "y": "1/2"}, {"x": "1/4", "y": "5/8"},
                                                {"x": "1/2", "y": "1"}]}), 3),
    # a length outside the field the config declares
    (["build-action", "--config", "-"], '{"d": 3, "t": "1+1*sqrt(5)", "s": "1"}', 3),
    # a path that names a directory, and bytes that are not UTF-8 text
    (["certify", "--config", "/"], "", 2),
    (["rotnum", "--map", "/"], "", 2),
    (["certify", "--config", "flagship", "--output", "/"], "", 2),
    (["certify", "--config", "-"], b"\xff\xfe{}", 2),
    # a count above its documented maximum
    (["rotnum", "--map", "-", "--max-denom", "257"],
     json.dumps({"period": "1", "breakpoints": [{"x": "0", "y": "1/5"},
                                                {"x": "1/2", "y": "3/5"}]}), 3),
    # the exponent notation and the float overflow above, on commands
    # other than shear-holonomy
    (["shear-shadow", "--lam", "1e5000", "--n", "3"], "", 2),
    (["orbit-gap", "--config", "flagship", "--window", "0,1" + "0" * 400], "", 3),
]


@pytest.mark.parametrize("argv, stdin, code", BOUNDARY_CASES)
def test_boundary_cases(argv, stdin, code):
    exit_code, err, out = run(argv, stdin)
    assert exit_code == code
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert out == ""


OVER_CAP = [
    ["cone-progress", "--T", "1", "--r", "1/10", "--n", "10001"],
    ["cone-progress", "--T", "1", "--r", "1/10", "--n", "99999999999999999999999"],
    ["shear-shadow", "--lam", "2", "--n", "1001"],
    ["shear-shadow", "--lam", "2", "--n", "99999999999999999999999"],
    ["shear-holonomy", "--lam", "2", "--n", "10001"],
    ["shear-holonomy", "--lam", "2", "--n", "99999999999999999999999"],
    ["metric-lemma", "--config", "flagship", "--samples", "10001"],
    ["metric-lemma", "--config", "flagship", "--samples", "99999999999999999999999"],
    ["metric-lemma", "--config", "flagship", "--pattern", "LR" * 200 + "L"],
    ["metric-lemma", "--config", "flagship", "--pattern", "L" * 100000],
]


@pytest.mark.parametrize("argv", OVER_CAP)
def test_count_above_its_cap_exits_at_once(argv):
    start = time.perf_counter()
    exit_code, err, out = run(argv)
    assert time.perf_counter() - start < 1.0
    assert (exit_code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "at most" in err


def test_incompressible_word_length_eight_exits_at_once():
    # No word nests this interval: at length 8 the search took 2.8 s and
    # 152 MB before the cap came down to 7.
    argv = ["incompressible", "--config", "flagship", "--interval", "483/1000,48301/100000",
            "--max-word-len", "8"]
    start = time.perf_counter()
    exit_code, err, out = run(argv)
    assert time.perf_counter() - start < 1.0
    assert (exit_code, out) == (3, "")
    assert err.splitlines() == ["error: precondition violated: --max-word-len must be at most 7"]


@pytest.mark.parametrize("word", [
    [["beta_l", 1]] * 1000,
    [["beta_l", 1], ["alpha_l", 1]] * 500,
    [["beta_l", 99999999999999999999]],
], ids=["1000-letters", "500-pairs", "huge-exponent"])
@pytest.mark.parametrize("config", ["flagship", "commensurable"])
def test_word_over_its_charge_exits_at_once(config, word):
    start = time.perf_counter()
    exit_code, err, out = run(["eval-word", "--config", config, "--word", json.dumps(word)])
    assert time.perf_counter() - start < 1.0
    assert (exit_code, out) == (3, "")
    assert err.splitlines() == [
        "error: precondition violated: word costs more than 20000000 units of work"]


def _capped_options():
    """(command, flag, cap, unit) of each option whose reader carries a cap."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, a.option_strings[0], a.type.cap, " letters" if a.type.__name__ == "str" else "")
            for command, p in sub.choices.items() for a in p._actions if hasattr(a.type, "cap")]


README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def test_nine_options_carry_a_cap():
    assert len(_capped_options()) == 9


@pytest.mark.parametrize("command, flag, cap, unit", _capped_options())
def test_cap_is_documented_and_enforced(command, flag, cap, unit):
    code, _, help_ = run([command, "--help"])
    assert code == 0 and f"at most {cap}{unit}" in " ".join(help_.split())
    assert re.search(rf"^\| `{command} {flag}` \|.*\| {cap}{unit} \|", README, re.M), (command, flag)
    over = ["L" * (cap + 1)] if unit else [str(cap + 1), "9" * 23]
    for value in over:
        start = time.perf_counter()
        exit_code, err, out = run([command, flag, value])
        assert time.perf_counter() - start < 1.0
        assert (exit_code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "at most" in err


def test_config_file_that_is_not_utf8(tmp_path):
    # A UTF-16 byte-order mark starts no UTF-8 text.
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{}")
    code, err, out = run(["certify", "--config", str(path)])
    assert (code, len(err.splitlines()), out) == (2, 1, "")
    assert err.startswith("error: malformed input:")


# argv that the subcommand's own parser must not read differently from the
# full parser: no arguments, an option or an unknown word first, help,
# extra or unknown arguments, "--", over-cap values and missing values.
DISPATCH_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["--version"],
    ["-x", "cone-progress"],
    ["--", "cone-progress", "--T", "1", "--r", "1/10", "--n", "2"],
    ["nope"],
    ["certif", "--config", "flagship"],
    ["cone-progress"],
    ["cone-progress", "-h"],
    ["cone-progress", "-h", "--bogus"],
    ["cone-progress", "--T", "1", "--r", "1/10", "--n", "3", "extra"],
    ["cone-progress", "--T", "1", "--r", "1/10", "--n", "3", "--"],
    ["cone-progress", "--", "--T", "1", "--r", "1/10", "--n", "3"],
    ["cone-progress", "--T", "1", "--r", "1/10", "--n", "3", "--bogus", "x"],
    ["cone-progress", "--T=1", "--r=1/10", "--n=3", "--policy", "nope"],
    ["cone-progress", "--T", "1", "--r", "1/10", "--n", "3", "--seed"],
    ["cone-progress", "--T", "1", "--r", "1/10", "--n", "10001"],
    ["stall-search", "--T", "1", "--r", "1", "--T", "2"],
    ["cone-progress", "--T", "1", "--r", "1/10", "--n", "3", "--pol", "random"],
    ["rotnum", "--map", "-", "--max", "5"],
    ["metric-lemma", "--config", "flagship", "--pattern", "L" * 401],
    ["metric-lemma", "--config", "flagship", "--pattern", "LR", "--samples", "5", "LR"],
    ["certify", "--config"],
    ["certify", "--config", "flagship", "--output"],
    ["certify", "--config", "flagship", "--density-word-len", "x"],
    ["selftest", "--seed", "0", "selftest"],
]


def _parity_cases():
    from test_cli_golden import CASES, _argv

    yield from ((_argv(name), "") for name in sorted(CASES))
    # The request of a deleted golden, which now exits 2 (shear-holonomy has
    # no --threshold); in its place it keeps the ids of the cases after it.
    yield ["shear-holonomy", "--lam", "3", "--n", "4", "--eps", "1/10", "--threshold", "3/2"], ""
    yield from ((argv, stdin) for argv, stdin, _ in BOUNDARY_CASES)
    yield from ((argv, "") for argv in OVER_CAP + DISPATCH_CASES)
    for command, flag, cap, unit in _capped_options():
        yield [command, flag, "L" * (cap + 1) if unit else str(cap + 1)], ""


@pytest.mark.parametrize("argv, stdin", _parity_cases())
def test_main_reads_arguments_as_the_full_parser(argv, stdin, monkeypatch):
    # Exit code, stderr and stdout through the subcommand's parser, and
    # then through the full parser alone: main with no subcommand map.
    got = run(argv, stdin)
    monkeypatch.setattr(cli, "_parser", (build_parser(), {}))
    assert run(argv, stdin) == got

"""Fuzz the CLI input boundary: malformed JSON and number text end in exit 2
(malformed input) or 3 (precondition violated), or in a verdict, never in an
escaped exception (a traceback, exit 1)."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from leafspace.cli import main

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
    """Exit code and stderr of one in-process call; an escaped exception
    fails the test."""
    saved, err = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        sys.stdin = saved
    return code, err.getvalue()


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
        ["shear-holonomy", "--lam", a, "--eps", b, "--delta", c, "--threshold", e, "--n", "3"],
        ["orbit-gap", "--config", "flagship", "--x0", a, "--window", f"{b},{c}",
         "--max-word-len", "1"],
        ["incompressible", "--config", "flagship", "--interval", f"{a},{b}",
         "--max-word-len", "1"],
        ["rotnum", "--map", "-", "--eps", a],
    ]
    translation = json.dumps({"period": "1", "breakpoints": [{"x": "0", "y": "1/3"}]})
    for argv in calls:
        assert run(argv, translation if argv[0] == "rotnum" else "")[0] in EXITS, argv


@pytest.mark.parametrize(
    "argv, stdin, code",
    [
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
    ],
)
def test_boundary_cases(argv, stdin, code):
    exit_code, err = run(argv, stdin)
    assert exit_code == code
    assert len(err.splitlines()) == 1 and err.startswith("error:")

"""Golden-output test: CLI stdout and exit code are byte-identical to the
recorded files in ``tests/golden/``.

Each case is one ``cli.main`` call.  ``{golden}`` in an argument stands for
the golden directory, which also holds the committed input maps.  A refactor
must leave every file unchanged; a change that means to alter an output
regenerates the files with ``PYTHONPATH=src python tests/test_cli_golden.py``
and shows the diff.
"""

import sys
from pathlib import Path

import pytest

from leafspace.cli import main

GOLDEN = Path(__file__).parent / "golden"
MAP = "{golden}/map.json"

CASES = {}
for _cfg in ("flagship", "commensurable"):
    CASES.update({
        f"certify-{_cfg}": ["certify", "--config", _cfg],
        f"build-action-{_cfg}": ["build-action", "--config", _cfg],
        f"orbit-gap-{_cfg}": ["orbit-gap", "--config", _cfg, "--max-word-len", "4"],
        f"incompressible-{_cfg}": ["incompressible", "--config", _cfg, "--interval", "0,1/3"],
        f"eval-word-same-side-{_cfg}": [
            "eval-word", "--config", _cfg, "--word", '[["alpha_l", 2], ["beta_l", -1]]',
        ],
        f"eval-word-cross-side-{_cfg}": [
            "eval-word", "--config", _cfg, "--word", '[["beta_l", 1], ["beta_r", 1]]',
        ],
        f"metric-lemma-{_cfg}": ["metric-lemma", "--config", _cfg, "--samples", "200"],
    })
CASES.update({
    "rotnum": ["rotnum", "--map", MAP],
    "rotnum-bracket": ["rotnum", "--map", MAP, "--bracket", "--eps", "1/1000"],
    # A map with no short periodic orbit and an irrational-looking value,
    # bracketed by the rounded orbits at the default eps.
    "rotnum-irrational": ["rotnum", "--map", "{golden}/map-irrational.json"],
    # A 7-point periodic orbit, tau = 3/7: Exact at the default max_denom,
    # and a Bracket when max_denom 6 leaves no q that can certify it.
    "rotnum-orbit7": ["rotnum", "--map", "{golden}/map-orbit7.json"],
    "rotnum-orbit7-max-denom-6": ["rotnum", "--map", "{golden}/map-orbit7.json", "--max-denom", "6"],
    "periods": ["periods", "--map", MAP],
    "cone-progress-adversarial": ["cone-progress", "--T", "1", "--r", "1/10", "--n", "12"],
    "cone-progress-random": [
        "cone-progress", "--T", "1/2", "--r", "1/5", "--n", "12", "--policy", "random",
        "--seed", "3",
    ],
    "stall-search-stall": ["stall-search", "--T", "1", "--r", "1"],
    "stall-search-none": ["stall-search", "--T", "3", "--r", "1"],
    "shear-shadow": ["shear-shadow", "--lam", "3/2", "--t", "2/3", "--n", "8"],
    "shear-shadow-sqrt2": ["shear-shadow", "--lam", "1+1/2*sqrt(2)", "--n", "6"],
    "shear-holonomy": ["shear-holonomy", "--lam", "2", "--n", "6", "--delta", "1/4"],
    "shear-holonomy-sqrt2": [
        "shear-holonomy", "--lam", "1+1*sqrt(2)", "--n", "5", "--eps", "1/20",
        "--delta", "0",
    ],
    "selftest-seed-0": ["selftest", "--seed", "0"],
    "selftest-seed-5": ["selftest", "--seed", "5"],
})


def _argv(name):
    return [a.replace("{golden}", str(GOLDEN)) for a in CASES[name]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_match_golden(name, capsys):
    code = main(_argv(name))
    out = capsys.readouterr().out
    assert f"exit {code}\n" + out == (GOLDEN / f"{name}.txt").read_text()


def test_every_golden_file_has_a_case():
    # leafbench-digests.txt is CI's digest pin, not a CLI output.
    files = {path.stem for path in GOLDEN.glob("*.txt")} - {"leafbench-digests"}
    assert files == set(CASES)


def _regenerate():
    import contextlib
    import io

    for name in sorted(CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(_argv(name))
        (GOLDEN / f"{name}.txt").write_text(f"exit {code}\n" + buf.getvalue())
        print(f"{name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()

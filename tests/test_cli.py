"""End-to-end tests of the command-line driver and its exit-code contract."""

import json

import pytest

from leafspace import cli
from leafspace.cli import (
    EXIT_BAD_INPUT,
    EXIT_COMMON_TRANSLATION,
    EXIT_OK,
    EXIT_PRECONDITION,
    main,
)

TRANSLATION_MAP = {
    "period": "1",
    "breakpoints": [{"x": "0", "y": "1/3"}],
}
BETA_MAP = {
    "period": "1",
    "breakpoints": [{"x": "0", "y": "0"}, {"x": "1/2", "y": "3/4"}],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def map_file(tmp_path):
    def write(obj, name="map.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


class TestExitCodes:
    def test_certify_flagship_is_zero(self, capsys):
        code, out, _ = run(capsys, "certify", "--config", "flagship")
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "NO_COMMON_TRANSLATION"

    def test_certify_commensurable_is_ten(self, capsys):
        code, out, _ = run(capsys, "certify", "--config", "commensurable")
        assert code == EXIT_COMMON_TRANSLATION
        obj = json.loads(out)
        assert obj["verdict"] == "COMMON_TRANSLATION"
        assert obj["common_translation"] == "0+1/2*sqrt(2)"

    def test_malformed_json_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "certify", "--config", str(bad))
        assert code == EXIT_BAD_INPUT
        assert "malformed" in err

    def test_missing_file_is_two(self, capsys, tmp_path):
        code, _, _ = run(capsys, "certify", "--config", str(tmp_path / "nope.json"))
        assert code == EXIT_BAD_INPUT

    def test_precondition_violation_is_three(self, capsys, map_file):
        config = map_file({"t": "-1", "s": "0+1*sqrt(2)"}, "cfg.json")
        code, _, err = run(capsys, "certify", "--config", config)
        assert code == EXIT_PRECONDITION
        assert "precondition" in err

    def test_huge_d_is_rejected_not_factored(self, capsys, map_file):
        config = map_file({"d": 1000000000000000003, "t": "1", "s": "2"}, "cfg.json")
        code, out, err = run(capsys, "certify", "--config", config)
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestMalformedNumbers:
    """A zero denominator or a mistyped value is malformed input: exit 2."""

    def test_certify_config_zero_denominator(self, capsys, map_file):
        config = map_file({"t": "1/0", "s": "0+1*sqrt(2)"}, "cfg.json")
        code, out, err = run(capsys, "certify", "--config", config)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_cone_progress_zero_denominator(self, capsys):
        code, out, _ = run(capsys, "cone-progress", "--T", "1/0", "--r", "1/10", "--n", "4")
        assert (code, out) == (EXIT_BAD_INPUT, "")

    def test_shear_holonomy_zero_denominator(self, capsys):
        code, out, _ = run(capsys, "shear-holonomy", "--lam", "2", "--n", "3", "--eps", "1/0")
        assert (code, out) == (EXIT_BAD_INPUT, "")

    def test_rotnum_zero_denominator(self, capsys, map_file):
        code, _, _ = run(capsys, "rotnum", "--map", map_file(TRANSLATION_MAP), "--eps", "1/0")
        assert code == EXIT_BAD_INPUT
        bad_map = {"period": "1", "breakpoints": [{"x": "0", "y": "1/0"}]}
        code, _, _ = run(capsys, "rotnum", "--map", map_file(bad_map))
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("d", [2.7, True, "2"])
    def test_config_d_must_be_an_int(self, capsys, map_file, d):
        config = map_file({"d": d, "t": "1+1*sqrt(2)", "s": "0+1*sqrt(2)"}, "cfg.json")
        code, out, _ = run(capsys, "certify", "--config", config)
        assert (code, out) == (EXIT_BAD_INPUT, "")

    @pytest.mark.parametrize(
        "word",
        ['[["beta_l", 1.5]]', '[["beta_l", true]]', '[["beta_l"]]', '[["beta_l", 1, 2]]',
         '[[1, 1]]', '["beta_l"]', '{"beta_l": 1}', "5"],
    )
    def test_eval_word_letters_are_name_integer_pairs(self, capsys, word):
        code, out, err = run(capsys, "eval-word", "--config", "flagship", "--word", word)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_eval_word_zero_exponent_is_a_precondition(self, capsys):
        code, _, _ = run(capsys, "eval-word", "--config", "flagship", "--word", '[["beta_l", 0]]')
        assert code == EXIT_PRECONDITION


class TestRotnumAndPeriods:
    def test_rotnum_translation(self, capsys, map_file):
        code, out, _ = run(capsys, "rotnum", "--map", map_file(TRANSLATION_MAP))
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj == {"kind": "exact", "value": "1/3"}

    def test_rotnum_bracket_mode(self, capsys, map_file):
        code, out, _ = run(
            capsys,
            "rotnum",
            "--map",
            map_file(TRANSLATION_MAP),
            "--bracket",
            "--eps",
            "1/100",
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["kind"] == "bracket"

    def test_periods_of_beta(self, capsys, map_file):
        code, out, _ = run(capsys, "periods", "--map", map_file(BETA_MAP))
        assert code == EXIT_OK
        assert json.loads(out) == {"kind": "subgroup", "step": "1"}

    def test_periods_of_translation(self, capsys, map_file):
        code, out, _ = run(capsys, "periods", "--map", map_file(TRANSLATION_MAP))
        assert code == EXIT_OK
        assert json.loads(out) == {"kind": "all_reals"}


class TestActionCommands:
    def test_build_action_reports_generators(self, capsys):
        code, out, _ = run(capsys, "build-action", "--config", "flagship")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["t"] == "1+1*sqrt(2)"
        assert set(obj["generators"]) == {"alpha_l", "beta_l", "alpha_r", "beta_r"}

    def test_eval_word_plmap(self, capsys):
        code, out, _ = run(
            capsys,
            "eval-word",
            "--config",
            "flagship",
            "--word",
            '[["alpha_l", 2]]',
        )
        assert code == EXIT_OK
        assert json.loads(out)["kind"] == "plmap"

    def test_eval_word_composite(self, capsys):
        code, out, _ = run(
            capsys,
            "eval-word",
            "--config",
            "flagship",
            "--word",
            '[["beta_l", 1], ["beta_r", 1]]',
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["kind"] == "composite"
        assert len(obj["factors"]) == 2

    def test_eval_word_malformed_word(self, capsys):
        code, _, _ = run(
            capsys, "eval-word", "--config", "flagship", "--word", "not json"
        )
        assert code == EXIT_BAD_INPUT

    def test_orbit_gap(self, capsys):
        code, out, _ = run(
            capsys, "orbit-gap", "--config", "flagship", "--max-word-len", "3"
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert 0 < obj["max_gap"] < 1

    def test_incompressible(self, capsys):
        code, out, _ = run(
            capsys,
            "incompressible",
            "--config",
            "flagship",
            "--interval",
            "0,1/4",
            "--max-word-len",
            "2",
        )
        assert code == EXIT_OK
        assert json.loads(out)["result"] == "COMPRESSED_BY"

    def test_metric_lemma(self, capsys):
        code, out, _ = run(
            capsys,
            "metric-lemma",
            "--config",
            "flagship",
            "--pattern",
            "LRL",
            "--samples",
            "50",
        )
        assert code == EXIT_OK
        assert json.loads(out)["violations"] == 0


class TestLedgerCommands:
    def test_cone_progress_csv(self, capsys):
        code, out, _ = run(
            capsys, "cone-progress", "--T", "1", "--r", "1/10", "--n", "10"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("crossing,")
        assert len([l for l in lines if not l.startswith("#")]) == 11
        assert "# verdict: REGULATING" in lines
        assert "# final certified bound: 8" in lines

    def test_stall_search_hit_and_miss(self, capsys):
        code, out, _ = run(capsys, "stall-search", "--T", "1", "--r", "1")
        assert code == EXIT_OK
        assert json.loads(out)["result"] == "STALL"
        code, out, _ = run(capsys, "stall-search", "--T", "3", "--r", "1")
        assert code == EXIT_OK
        assert json.loads(out)["result"] == "NONE"


class TestShearCommands:
    def test_shear_shadow_csv(self, capsys):
        code, out, _ = run(capsys, "shear-shadow", "--lam", "2", "--n", "3")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[3] == "3,3,7/8,1"
        assert "# label: EXPLORATORY" in lines

    def test_shear_holonomy_csv(self, capsys):
        code, out, _ = run(
            capsys, "shear-holonomy", "--lam", "2", "--n", "3", "--delta", "1/4"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "level,domain_length"
        assert any(l.startswith("# flag:") for l in lines)

    def test_shear_holonomy_has_no_t_option(self, capsys):
        # --t is gone, and no option prefix stands for a longer option.
        for extra in (["--t", "1"], ["--thr", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(["shear-holonomy", "--lam", "2", "--n", "3", *extra])
            assert exc.value.code == EXIT_BAD_INPUT


class TestOutputAndDeterminism:
    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "certify", "--config", "flagship", "--output", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "NO_COMMON_TRANSLATION"

    def test_selftest_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "selftest", "--seed", "0")
        code2, out2, _ = run(capsys, "selftest", "--seed", "0")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert "FAIL" not in out1


class TestSharedParser:
    """``main`` reuses one parser, so no call may see another's options."""

    def test_output_does_not_leak_into_next_call(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "certify", "--config", "flagship", "--output", str(target)
        )
        assert code == EXIT_OK and out == ""
        written = target.read_text()
        code, out, _ = run(capsys, "certify", "--config", "commensurable")
        assert code == EXIT_COMMON_TRANSLATION
        assert json.loads(out)["verdict"] == "COMMON_TRANSLATION"
        assert target.read_text() == written

    def test_usage_error_then_valid_call(self, capsys, monkeypatch):
        argv = ["orbit-gap", "--config", "flagship", "--max-word-len", "2"]
        monkeypatch.setattr(cli, "_parser", None)
        alone = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["orbit-gap", "--max-word-len", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *argv) == alone

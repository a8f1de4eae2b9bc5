"""Start-up guard: importing leafspace and building the CLI parser loads
neither ``dataclasses`` (with the ``inspect`` it imports) nor
``importlib.resources``.  Each case runs a bare interpreter (``-I -S``), in
which no site hook has loaded them already, so the check does not depend
on the host."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bare(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh ``python -I -S`` with ``src`` first on its path."""
    return subprocess.run(
        [sys.executable, "-I", "-S", "-c", "import sys; sys.path.insert(0, sys.argv[1]); " + code,
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=60, check=False,
    )


def test_import_and_parser_build_load_no_heavy_module():
    proc = bare("import leafspace, leafspace.cli; leafspace.cli.build_parser(); "
                "print([m for m in ('dataclasses', 'inspect', 'importlib.resources') "
                "if m in sys.modules])")
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_builtin_config_loads_in_a_bare_interpreter():
    proc = bare("from leafspace.cli import main; "
                "sys.exit(main(['certify', '--config', 'flagship']))")
    golden = (ROOT / "tests" / "golden" / "certify-flagship.txt").read_text()
    assert (proc.returncode, proc.stderr) == (0, "")
    assert f"exit {proc.returncode}\n" + proc.stdout == golden

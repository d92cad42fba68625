"""A fresh ``debias extract`` process imports only the modules it runs,
and no ``debias`` command loads ``dataclasses`` or ``inspect``.

Each case runs the CLI in a child process and compares its ``sys.modules``
with that of a bare interpreter in the same environment, so modules that
site-installed packages load at startup do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
LIST_MODULES = "sys.stdout.write(' '.join(sys.modules))\n"
BARE = "import sys\n" + LIST_MODULES
EXTRACT = (
    "import sys\n"
    "from debias.cli import main\n"
    "code = main(sys.argv[1:])\n" + LIST_MODULES + "sys.exit(code)\n"
)
# what extract never runs: the exact and analytic tools, and the modules
# that dataclasses and fractions pull in
NEVER = {"debias.analysis", "debias.oracle", "debias.inversion",
         "dataclasses", "inspect", "fractions", "decimal"}
# the other commands, with their own output kept off the module list
QUIET = (
    "import io, sys\n"
    "from debias.cli import main\n"
    "real, sys.stdout = sys.stdout, io.StringIO()\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout = real\n" + LIST_MODULES + "sys.exit(code)\n"
)
RECORDS = {"dataclasses", "inspect"}
INPUTS = {"coin": "HTTTHT\n", "vonneumann": "HTTTHT\n",
          "dice": "0 1 2 1 1 2 2 1 0\n", "markov": "0 1 0 0 1 0 1 1 0\n"}


def _modules(code: str, *args: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def bare():
    return _modules(BARE)


@pytest.mark.parametrize(
    "mode, stats, package",
    [
        ("coin", [], {"debias.coin"}),
        ("coin", ["--stats"], {"debias.coin"}),
        ("vonneumann", [], {"debias.coin", "debias.vonneumann"}),
        ("dice", [], {"debias.coin", "debias.dice"}),
        ("dice", ["--stats-file", "{tmp}/stats.json"], {"debias.coin", "debias.dice"}),
        ("markov", [], {"debias.coin", "debias.dice", "debias.markov"}),
    ],
    ids=["coin", "coin-stats", "vonneumann", "dice", "dice-stats-file", "markov"],
)
def test_extract_loads_only_what_it_runs(mode, stats, package, bare, tmp_path):
    source = tmp_path / "input.txt"
    source.write_text(INPUTS[mode])
    argv = ["extract", "--mode", mode, "--input", str(source),
            "--output", str(tmp_path / "bits.txt"), *(a.format(tmp=tmp_path) for a in stats)]
    loaded = _modules(EXTRACT, *argv)
    new = loaded - bare
    assert {m for m in new if m.startswith("debias")} == {"debias", "debias.cli", *package}
    assert not new & NEVER
    if stats:
        assert "json" in loaded
    else:
        assert "json" not in new


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--depths", "3,7", "--ps", "0.3"],
        ["verify", "--mode", "coin", "--p", "1/3", "--n-max", "6", "--bits", "2"],
        ["bench", "--p", "0.3", "--depth", "3", "--bits", "50", "--trials", "2", "--json"],
    ],
    ids=["analyze", "verify", "bench-json"],
)
def test_commands_load_no_record_machinery(argv, bare):
    loaded = _modules(QUIET, *argv)
    assert "debias.analysis" in loaded or "debias.oracle" in loaded
    assert not (loaded - bare) & RECORDS

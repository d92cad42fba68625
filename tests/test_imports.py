"""A fresh ``debias extract`` process imports only the modules it runs,
and no ``debias`` command loads ``dataclasses`` or ``inspect``.

Each case runs the CLI in a child process and compares its ``sys.modules``
with that of a bare interpreter in the same environment, so modules that
site-installed packages load at startup do not count.  Once the compiled
delivery loop is built, a process loads it and none of the machinery that
builds it; a package whose build fails runs the Python loop, silently and
with the same output.
"""

import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from debias import coin

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
# the compiled loop once it is built; where it cannot be, each process
# tries again through the module that builds it
KERNEL = {"debias._build"} if coin._kernel is None else {"debias._arena"}
BUILD = {"subprocess", "sysconfig", "debias._build"}
INPUTS = {"coin": "HTTTHT\n", "vonneumann": "HTTTHT\n",
          "dice": "0 1 2 1 1 2 2 1 0\n", "markov": "0 1 0 0 1 0 1 1 0\n"}


def _run(code: str, *args: str, src: Path = REPO / "src", **env: str) -> subprocess.CompletedProcess:
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)


def _modules(code: str, *args: str) -> set[str]:
    return set(_run(code, *args).stdout.split())


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
    assert {m for m in new if m.startswith("debias")} == {"debias", "debias.cli", *package, *KERNEL}
    assert not new & NEVER
    if coin._kernel is not None:  # a warm process builds nothing
        assert not new & BUILD
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


def _no_compiler(package: Path) -> dict:
    """A PATH without the compiler this interpreter builds extensions with."""
    compiler = (sysconfig.get_config_var("LDSHARED") or "cc").split()[0]
    if os.path.isabs(compiler):
        pytest.skip(f"the compiler {compiler} is named by its full path")
    empty = package.parent / "bin"
    empty.mkdir()
    return {"PATH": str(empty)}


def _broken_source(package: Path) -> dict:
    (package / "_arena.c").write_text("#error this source does not compile\n")
    return {}


@pytest.mark.parametrize("breaks", [_no_compiler, _broken_source], ids=["no-compiler", "compile-error"])
def test_a_failed_build_runs_the_python_loop_unseen(breaks, tmp_path):
    # a copy of the package with no build of the kernel, whose build then
    # fails: the import prints nothing, leaves nothing behind, and the CLI
    # writes the bytes the kernel gives
    package = tmp_path / "src" / "debias"
    shutil.copytree(REPO / "src" / "debias", package, ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    env = breaks(package)
    source = tmp_path / "input.txt"
    source.write_text("".join(random.Random(7).choices("HT", [3, 7], k=20_000)))
    report = ("import sys\nfrom debias import coin\nfrom debias.cli import main\n"
              "code = main(sys.argv[1:])\nsys.stdout.write(repr(coin._kernel))\nsys.exit(code)\n")
    outputs = []
    for src, extra in ((tmp_path / "src", env), (REPO / "src", {})):
        out = tmp_path / f"bits-{len(outputs)}.bin"
        argv = ["extract", "--mode", "coin", "--input", str(source), "--output", str(out),
                "--output-format", "packed"]
        proc = _run(report, *argv, src=src, **extra)
        assert proc.stderr == ""
        outputs.append((proc.stdout, out.read_bytes()))
    (kernel, bits), (_, expected) = outputs
    assert kernel == "None"
    assert bits == expected
    assert not [p.name for p in package.iterdir() if p.suffix == ".so" or p.name.startswith("._arena")]

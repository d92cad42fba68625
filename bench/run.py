"""Seeded end-to-end and per-layer benchmark for ``debias``.

    python3 bench/run.py --workload coin_file --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; ``debias`` is imported from
``src/``.  The workloads (see ``WORKLOADS``):

* ``coin_file``: ``debias extract --mode coin`` at the default depth 15 on a
  Bernoulli(0.3) H/T text file, packed output to a stdout pipe.  The tree
  core does almost all of the work.
* ``markov_file``: ``debias extract --mode markov`` on a 3-state chain with
  unequal rows, written as whitespace-separated integers, ``--m`` omitted
  (so the CLI prescans the file) and ascii output.  The integer reader, the
  prescan, the ascii writer and the dice/Markov wrappers do real work.
* ``exact_checks``: one driver process (``bench/worker.py exact``) calls the
  exact oracle, the analysis tables and a trace round trip once each.

The load is a closed loop with one client: each operation (one CLI run, or
one driver pass, each in its own process) starts after the previous one has
exited, for ``--seconds`` seconds.  Every operation's output is checked
against the independent reference in ``reference.py``; inputs and expected
digests are made from ``--seed`` and cached in ``.bench_out/cache`` outside
the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced operations with traced in-process replays (``worker.py``), and
prints the per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
record with every sample goes to ``.bench_out/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import reference
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
CLI_ENTRY = "import sys; from debias.cli import main; sys.exit(main())"
SETUP_REPEATS = 15
OP_TIMEOUT_S = 60.0

COIN_P = 0.3
COIN_DEPTH = 15  # the CLI default; the command leaves --depth out
COIN_SYMBOLS = 100_000
MARKOV_STEPS = 30_000
MARKOV_ROWS = ((0.1, 0.6, 0.3), (0.5, 0.2, 0.3), (0.3, 0.3, 0.4))
STREAM_SYMBOLS = 20_000
# Each exact tool takes a comparable share of a pass; the horizons are above
# the oracle's default size guards, so they run with force=True.
EXACT_VERIFY = [
    {"kind": "coin", "p": "1/3", "n_max": 15, "k": 4, "depth": None},
    {"kind": "dice", "dist": ["1/2", "1/3", "1/6"], "n_max": 9, "k": 2, "depth": None},
    {"kind": "markov", "matrix": [["1/3", "2/3"], ["3/4", "1/4"]], "start": 0,
     "n_max": 11, "k": 2, "depth": None},
]
EXACT_DEPTHS = [15, 16]
TABLE_BIASES = [0.1, 0.2, 0.3, 0.4, 0.5]
# Tolerances of the frozen 4-decimal tables, as in the acceptance tests.
FROZEN_TOL = {"tosses": 5e-5, "time": 5e-4}


class SetupError(Exception):
    """The benchmark cannot run here; nothing is measured."""


# ------------------------------------------------------------- children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same hash layout in every run
    return env


def run_child(argv: list[str], keep_stdout: bool) -> dict:
    """Run one process to completion, reading its stdout pipe as it comes.

    Returns wall time, time to the first stdout byte, the child's own peak
    RSS (from ``wait4`` on that pid, not the running maximum over all
    children), exit code, and the stdout digest, size and (if asked) bytes.
    """
    sha, size, kept = hashlib.sha256(), 0, []
    first = None
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=child_env(), cwd=ROOT)
        timed_out = False
        try:
            fd = proc.stdout.fileno()
            while True:
                left = t0 + OP_TIMEOUT_S - time.perf_counter()
                if left <= 0 or not select.select([fd], [], [], left)[0]:
                    timed_out = True
                    proc.kill()
                    break
                data = os.read(fd, 1 << 16)
                if not data:
                    break
                if first is None:
                    first = time.perf_counter() - t0
                sha.update(data)
                size += len(data)
                if keep_stdout:
                    kept.append(data)
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {
        "code": proc.returncode,
        "timed_out": timed_out,
        "wall_s": wall,
        "first_output_s": wall if first is None else first,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "digest": sha.hexdigest(),
        "stdout_bytes": size,
        "stdout": b"".join(kept),
        "stderr": stderr[-2000:],
    }


def child_failure(child: dict) -> str | None:
    if child["timed_out"]:
        return f"timed out after {OP_TIMEOUT_S:.0f} s"
    if child["code"] != 0:
        last = (child["stderr"].strip().splitlines() or [""])[-1]
        return f"exit code {child['code']}: {last}"
    return None


# ------------------------------------------------------------ workloads


def _cached(name: str, params: dict, build) -> dict:
    """Inputs and expectations for ``params``, built once per checkout."""
    tag = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:16]
    meta = OUT / "cache" / f"{name}-{tag}.json"
    if meta.exists():
        data = json.loads(meta.read_text())
        if all(Path(p).exists() for p in data.get("files", [])):
            return data
    meta.parent.mkdir(parents=True, exist_ok=True)
    data = build((OUT / "cache" / f"{name}-{tag}").relative_to(ROOT))
    tmp = meta.with_suffix(".tmp")
    tmp.write_text(json.dumps(data))
    tmp.replace(meta)
    return data


def _write_tokens(path: Path, tokens, per_line: int, sep: str) -> None:
    tokens = list(tokens)
    lines = (sep.join(tokens[i : i + per_line]) for i in range(0, len(tokens), per_line))
    path.write_text("\n".join(lines) + "\n")


def _bernoulli(rng: random.Random, n: int) -> str:
    return "".join("H" if rng.random() < COIN_P else "T" for _ in range(n))


class CoinFile:
    name = "coin_file"
    keep_stdout = False

    def prepare(self, seed: int | None) -> dict:
        n = 3 if seed is None else COIN_SYMBOLS
        params = {"w": self.name, "seed": seed, "n": n, "p": COIN_P}

        def build(stem: Path) -> dict:
            symbols = "HTH" if seed is None else _bernoulli(random.Random(f"coin/{seed}"), n)
            path = stem.with_suffix(".txt")
            _write_tokens(path, symbols, 64, "")
            bits = reference.coin_bits(symbols, COIN_DEPTH)
            return {"files": [str(path)], "input": str(path), "symbols": n, "bits": len(bits),
                    "digest": reference.digest(reference.packed(bits))}

        return _cached(self.name, params, build)

    def extract_args(self, inputs: dict) -> list[str]:
        return ["extract", "--mode", "coin", "--input", inputs["input"], "--output-format", "packed"]

    def command(self, inputs: dict) -> list[str]:
        return [sys.executable, "-c", CLI_ENTRY, *self.extract_args(inputs)]

    def traced_command(self, inputs: dict, trace_path: Path) -> list[str]:
        return [sys.executable, str(BENCH / "worker.py"), "trace-extract", str(trace_path), "--",
                *self.extract_args(inputs)]

    def check(self, child: dict, inputs: dict) -> str | None:
        if child["digest"] != inputs["digest"]:
            return "output digest differs from the reference"
        return None

    def values(self, child: dict) -> dict:
        return {}


class MarkovFile(CoinFile):
    name = "markov_file"

    def prepare(self, seed: int | None) -> dict:
        n = 10 if seed is None else MARKOV_STEPS
        params = {"w": self.name, "seed": seed, "n": n, "rows": MARKOV_ROWS}

        def build(stem: Path) -> dict:
            if seed is None:
                states = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]
            else:
                rng = random.Random(f"markov/{seed}")
                states = [0]
                for _ in range(n - 1):
                    states.append(rng.choices(range(3), MARKOV_ROWS[states[-1]])[0])
            if set(states) != {0, 1, 2}:
                raise SetupError("markov input does not visit every state; prescan would not find m=3")
            path = stem.with_suffix(".txt")
            _write_tokens(path, map(str, states), 32, " ")
            bits = reference.markov_bits(states, 3, COIN_DEPTH)
            return {"files": [str(path)], "input": str(path), "symbols": n, "bits": len(bits),
                    "digest": reference.digest(reference.ascii_line(bits))}

        return _cached(self.name, params, build)

    def extract_args(self, inputs: dict) -> list[str]:
        return ["extract", "--mode", "markov", "--input", inputs["input"]]


def _load_frozen():
    path = ROOT / "tests" / "reference_values.py"
    spec = importlib.util.spec_from_file_location("frozen_reference_values", path)
    if spec is None or not path.exists():
        raise SetupError(f"frozen analysis values not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_cells(depths: list[int], biases: list[float]) -> list[list]:
    """``[table, depth, p, expected, tolerance]`` for every table cell.

    Depths in the frozen tables are checked against their 4-decimal values,
    p=1/2 against the closed forms to 1e-12, the limit row against 1/H(p),
    and the remaining deep cells against the reference recursion.
    """
    frozen = _load_frozen()
    tables = {"tosses": frozen.TOSSES_PER_BIT, "time": frozen.MESSAGES_PER_SYMBOL}
    cells = []
    for table in ("tosses", "time"):
        rows = list(depths) + ([None] if table == "tosses" else [])
        for d in rows:
            for p in biases:
                if d is None:
                    want, tol = reference.tosses_per_bit(p, None), 1e-12
                    if p in frozen.BIASES:
                        lim = frozen.TOSSES_PER_BIT_LIMIT[frozen.BIASES.index(p)]
                        cells.append([table, d, p, lim, FROZEN_TOL[table]])
                elif p == 0.5:
                    want = (reference.balanced_tosses_per_bit(d) if table == "tosses"
                            else reference.balanced_deliveries(d))
                    tol = 1e-12
                elif d in tables[table] and p in frozen.BIASES:
                    want = tables[table][d][frozen.BIASES.index(p)]
                    tol = FROZEN_TOL[table]
                else:
                    want = (reference.tosses_per_bit(p, d) if table == "tosses"
                            else reference.deliveries_per_symbol(p, d))
                    tol = 1e-9 * want
                cells.append([table, d, p, want, tol])
    return cells


class ExactChecks:
    name = "exact_checks"
    keep_stdout = True

    def prepare(self, seed: int | None) -> dict:
        small = seed is None
        verify = ([dict(v, n_max=1, k=1) for v in EXACT_VERIFY] if small else EXACT_VERIFY)
        depths = [0] if small else EXACT_DEPTHS
        biases = [0.5] if small else TABLE_BIASES
        n = 3 if small else STREAM_SYMBOLS
        params = {"w": self.name, "seed": seed, "n": n, "verify": verify, "depths": depths}

        def build(stem: Path) -> dict:
            symbols = "HTH" if small else _bernoulli(random.Random(f"stream/{seed}"), n)
            stream = stem.with_suffix(".txt")
            _write_tokens(stream, symbols, 64, "")
            config = stem.with_suffix(".config.json")
            config.write_text(json.dumps({
                "verify": verify, "tables": {"depths": depths, "biases": biases},
                "stream": str(stream),
            }))
            bits = reference.coin_bits(symbols, None)
            return {
                "files": [str(stream), str(config)], "config": str(config),
                "symbols": n, "bits": len(bits), "verify": verify, "biases": biases,
                "roundtrip": {
                    "symbols": n, "bits": len(bits),
                    "bits_digest": reference.digest(reference.packed(bits)),
                    "rebuilt_digest": reference.digest(symbols.encode()),
                    "flipped_length": n, "flipped_heads": symbols.count("H"),
                    "flipped_last": symbols[-1],
                },
                "cells": expected_cells(depths, biases),
            }

        return _cached(self.name, params, build)

    def command(self, inputs: dict) -> list[str]:
        return [sys.executable, str(BENCH / "worker.py"), "exact", inputs["config"]]

    def traced_command(self, inputs: dict, trace_path: Path) -> list[str]:
        return [sys.executable, str(BENCH / "worker.py"), "trace-exact", inputs["config"],
                str(trace_path)]

    def check(self, child: dict, inputs: dict) -> str | None:
        try:
            result = json.loads(child["stdout"])
        except ValueError:
            return "driver printed no JSON result"
        for spec, rep in zip(inputs["verify"], result["verify"], strict=True):
            masses = [Fraction(m) for m in rep["masses"].values()]
            total = sum(masses, Fraction(0)) + Fraction(rep["incomplete"])
            if len(masses) != 2 ** spec["k"] or len(set(masses)) != 1 or not rep["uniform"]:
                return f"verify_{spec['kind']} report is not uniform"
            if total != 1 or Fraction(rep["total"]) != 1:
                return f"verify_{spec['kind']} total mass is {total}, not exactly 1"
        got = {(t, d, p): v for t, rows in result["tables"].items()
               for d, vals in rows for p, v in zip(inputs["biases"], vals)}
        for table, d, p, want, tol in inputs["cells"]:
            value = got.get((table, d, p))
            if value is None or not abs(value - want) <= tol:
                return f"analysis {table} cell depth={d} p={p}: {value} off {want} by more than {tol}"
        if result["roundtrip"] != inputs["roundtrip"]:
            return f"trace round trip failed: {result['roundtrip']}"
        return None

    def values(self, child: dict) -> dict:
        return json.loads(child["stdout"])["times"]


WORKLOADS = {w.name: w for w in (CoinFile(), MarkovFile(), ExactChecks())}


# ---------------------------------------------------------- measurement


def run_op(workload, inputs: dict, traced: bool, trace_path: Path | None = None) -> dict:
    argv = workload.traced_command(inputs, trace_path) if traced else workload.command(inputs)
    child = run_child(argv, workload.keep_stdout)
    error = child_failure(child) or workload.check(child, inputs)
    sample = {k: child[k] for k in ("wall_s", "first_output_s", "peak_rss_mb", "stdout_bytes")}
    sample["error"] = error
    if error is None:
        sample.update(workload.values(child))
    return sample


def measure_setup(workload) -> tuple[float, list[float]]:
    """Median time of the same command on a minimal valid input."""
    inputs = workload.prepare(None)
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first run compiles bytecode
        sample = run_op(workload, inputs, traced=False)
        if sample["error"]:
            raise SetupError(f"{workload.name} on its minimal input: {sample['error']}")
        if i:
            times.append(sample["wall_s"])
    return statistics.median(times), times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def end_to_end(samples: list[dict], inputs: dict, setup_s: float) -> tuple[dict, dict]:
    walls = [s["wall_s"] for s in samples]
    _, wall, p75 = quartiles(walls)
    symbols, bits = inputs["symbols"], inputs["bits"]
    metrics = {
        "wall_s": (wall, "s"),
        "wall_p75_s": (p75, "s"),
        "first_output_s": (statistics.median(s["first_output_s"] for s in samples), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MiB"),
        "setup_s": (setup_s, "s"),
        "symbols_per_s": (symbols / wall, "1/s"),
        "bits_per_s": (bits / wall, "1/s"),
        "bits_per_symbol": (bits / symbols, "bit/symbol"),
    }
    extra = {"sample_count": len(samples), "beyond_p75": sum(w > p75 for w in walls)}
    ok = [s for s in samples if s["error"] is None]
    for key in ("verify_s", "analyze_s", "invert_s"):
        if ok and key in ok[0]:
            extra[key] = statistics.median(s[key] for s in ok)
    return metrics, extra


# --------------------------------------------------------- trace metrics

LAYERS = ("cli", "coin", "dice", "markov", "oracle", "analysis", "inversion", "bench")
READER_NAMES = {f"{module}.{name}" for module, name in tracer.READERS}
CELL_NAMES = {"analysis.tosses_per_bit", "analysis.processing_time"}


def layer_metrics(trace: dict, wall: float, stdout_bytes: int, workload, inputs: dict) -> dict:
    calls = trace["calls"]  # [name, parent, count, total_s, self_s]

    def pick(field, pred):
        index = {"count": 2, "total": 3, "self": 4}[field]
        return sum(c[index] for c in calls if pred(c[0], c[1]))

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = {layer: pick("self", lambda n, p, l=layer: n.split(".")[0] == l) for layer in LAYERS}
    op_s = sum(c[4] for c in calls)
    deliveries, coin_bits = trace["counters"]["coin.deliveries"], trace["counters"]["coin.bits"]
    coin_symbols = pick("count", lambda n, p: n == "coin.CoinExtractor.process")
    process_s = pick("total", lambda n, p: n == "coin.CoinExtractor.process")
    parse_s = pick("self", lambda n, p: n in READER_NAMES and p != "cli._prescan_m")
    parse_items = pick("count", lambda n, p: n in READER_NAMES and p == "coin.take_bits")
    branches = pick("count", lambda n, p: n.endswith(".process") and p.startswith("oracle.verify_"))
    oracle_clones = pick("count", lambda n, p: n.endswith(".clone") and p.startswith("oracle.verify_"))
    verify_total = pick("total", lambda n, p: n.startswith("oracle.verify_"))
    snapshot_s = pick("total", lambda n, p: n == "coin.CoinExtractor.snapshot")
    reconstruct_s = pick("total", lambda n, p: n == "inversion.reconstruct"
                         and p != "inversion.flip_and_rebuild")
    flip_s = pick("total", lambda n, p: n == "inversion.flip_and_rebuild")
    cell_spans = [s["end"] - s["start"] for s in trace["spans"] if s["name"] in CELL_NAMES]
    roundtrip = inputs.get("roundtrip", {}).get("symbols", 0)

    m = {
        "cli.self_s": layer_self["cli"],
        "cli.parse_s": parse_s,
        "cli.parse_items_per_s": ratio(parse_items, parse_s),
        "cli.prescan_s": pick("total", lambda n, p: n == "cli._prescan_m"),
        "cli.write_s": pick("total", lambda n, p: n == "cli._write_bits"),
        "cli.write_bytes": stdout_bytes if pick("count", lambda n, p: n == "cli._write_bits") else 0,
        "coin.self_s": layer_self["coin"],
        "coin.symbols": coin_symbols,
        "coin.deliveries": deliveries,
        "coin.deliveries_per_s": ratio(deliveries, process_s),
        "coin.bits_per_delivery": ratio(coin_bits, deliveries),
        "coin.deliveries_per_symbol": ratio(deliveries, coin_symbols),
        "coin.nodes": trace["structure"]["nodes"],
        "coin.sessions": pick("count", lambda n, p: n == "coin.CoinExtractor.__init__"
                              and not p.endswith(".clone")),
        "coin.clones": pick("count", lambda n, p: n == "coin.CoinExtractor.clone"),
        "coin.clone_s": pick("total", lambda n, p: n == "coin.CoinExtractor.clone"),
        "dice.self_s": layer_self["dice"],
        "dice.faces": pick("count", lambda n, p: n == "dice.DiceExtractor.process"),
        "dice.trees": pick("count", lambda n, p: n == "coin.CoinExtractor.__init__"
                           and p == "dice.DiceExtractor.process"),
        "markov.self_s": layer_self["markov"],
        "markov.steps": pick("count", lambda n, p: n == "markov.MarkovExtractor.process"),
        "markov.forests": pick("count", lambda n, p: n == "dice.DiceExtractor.__init__"
                               and p == "markov.MarkovExtractor.process"),
        "oracle.self_s": layer_self["oracle"],
        "oracle.branches": branches,
        "oracle.branches_per_s": ratio(branches, verify_total),
        "oracle.clones_per_branch": ratio(oracle_clones, branches),
        "analysis.self_s": layer_self["analysis"],
        "analysis.cells": pick("count", lambda n, p: n in CELL_NAMES),
        "analysis.deepest_cell_s": max(cell_spans, default=0.0),
        "inversion.self_s": layer_self["inversion"],
        "inversion.snapshot_s": snapshot_s,
        "inversion.reconstruct_s": reconstruct_s,
        "inversion.flip_s": flip_s,
        "inversion.symbols_per_s": ratio(roundtrip, snapshot_s + reconstruct_s + flip_s),
        "trace.wall_s": wall,
        "trace.op_s": op_s,
        "trace.unaccounted_s": wall - op_s,
        "trace.bench_self_s": layer_self["bench"],
        "trace.coin_share": ratio(layer_self["coin"], wall),
    }
    # Observed against predicted traffic, for the one workload with a single
    # tree of known bias and depth.
    levels = trace["structure"]["bits_by_level"]
    predicted = reference.level_traffic(COIN_P, COIN_DEPTH)
    is_coin = workload.name == "coin_file"
    n = inputs["symbols"]
    m["coin.deliveries_ratio_predicted"] = (
        ratio(deliveries / n, sum(d for d, _ in predicted)) if is_coin else 0.0)
    m["coin.bits_ratio_predicted"] = (
        ratio(coin_bits / n, sum(b for _, b in predicted)) if is_coin else 0.0)
    for k, (_, bits) in enumerate(predicted):
        seen = levels[k] if k < len(levels) else 0
        m[f"coin.bits_by_level.{k}"] = ratio(seen / n, bits) if is_coin else 0.0
    return m


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.startswith("trace.") or name.endswith("_predicted") or ".bits_by_level." in name \
            or "_per_" in name:
        return "ratio"
    return "count"


def traced_run(workload, inputs: dict, seconds: float) -> tuple[list, list, dict, dict]:
    untraced, traced, per_op = [], [], []
    last_trace = None
    trace_path = OUT / "results" / f"trace-{os.getpid()}.json"
    start = time.perf_counter()
    try:
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(run_op(workload, inputs, traced=False))
            sample = run_op(workload, inputs, traced=True, trace_path=trace_path)
            traced.append(sample)
            if sample["error"] is None:
                last_trace = json.loads(trace_path.read_text())
                wall = sample["wall_s"] - last_trace["post_s"]
                per_op.append(layer_metrics(last_trace, wall, sample["stdout_bytes"],
                                            workload, inputs))
    finally:
        trace_path.unlink(missing_ok=True)
    metrics = {}
    if per_op:
        for name in per_op[0]:
            metrics[name] = statistics.median(op[name] for op in per_op)
        metrics["trace.overhead"] = metrics["trace.wall_s"] / statistics.median(
            s["wall_s"] for s in untraced)
        metrics["trace.unaccounted_share"] = metrics["trace.unaccounted_s"] / metrics["trace.wall_s"]
    ok = [s for s in untraced if s["error"] is None]
    for key in ("verify_s", "analyze_s", "invert_s"):
        metrics[f"exact.{key}"] = statistics.median(s[key] for s in ok) if ok and key in ok[0] else 0.0
    return untraced, traced, metrics, last_trace or {}


# ---------------------------------------------------------------- record


def run_record(args, inputs: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # git would otherwise search the parent directories
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit or "unknown (not a git checkout)",
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "input_sizes": {"symbols": inputs["symbols"], "output_bits": inputs["bits"]},
        "load": "closed loop, one client, one program process at a time",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        if not (ROOT / "src" / "debias" / "cli.py").is_file():
            raise SetupError(f"no debias sources under {ROOT / 'src'}; run from a source checkout")
        reference.check_goldens()
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        inputs = workload.prepare(args.seed)
        setup_s, setup_times = measure_setup(workload)
    except (SetupError, AssertionError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    record = run_record(args, inputs)
    if args.trace:
        samples, traced, metrics, trace = traced_run(workload, inputs, args.seconds)
        attempted = samples + traced
        out = {name: (value, unit_of(name)) for name, value in metrics.items()}
        record.update(traced=traced, spans=trace.get("spans", []), calls=trace.get("calls", []))
    else:
        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < args.seconds:
            samples.append(run_op(workload, inputs, traced=False))
        attempted = samples
        out, extra = end_to_end(samples, inputs, setup_s)
        record.update(extra)
    failed = sum(s["error"] is not None for s in attempted)
    record.update(setup_times=setup_times, samples=samples,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in out.items()},
                  attempted=len(attempted), failed=failed)
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record, indent=1, default=str))

    for s in attempted:
        if s["error"]:
            print(f"# failure: {s['error']}")
    if args.trace and "trace.wall_s" not in out:
        print(f"bench: every traced run failed; see {results}", file=sys.stderr)
        return 1
    print(f"# {args.workload} seed={args.seed} trace={args.trace}; record in {results}")
    print(f"{'error_rate':>32} {failed / len(attempted):.6g} ratio  ({failed} of {len(attempted)} "
          "operations failed)")
    if args.trace:
        wall = out["trace.wall_s"][0]
        parts = [(layer, out[f"{layer}.self_s"][0]) for layer in LAYERS[:-1]]
        parts += [("bench", out["trace.bench_self_s"][0]), ("unaccounted", out["trace.unaccounted_s"][0])]
        print(f"# traced wall {wall:.4f} s = " + " + ".join(
            f"{name} {value:.4f} ({value / wall:.1%})" for name, value in parts if value))
    else:
        print(f"# wall_s is the median and wall_p75_s the 75th percentile of {len(samples)} "
              f"samples ({record['beyond_p75']} beyond it); setup_s is the median of {SETUP_REPEATS}")
        for key in ("verify_s", "analyze_s", "invert_s"):
            if key in record:
                print(f"{key:>32} {record[key]:.6g} s  (median of {len(samples)} passes)")
    for name, (value, unit) in out.items():
        print(f"{name:>32} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child process of the benchmark: the exact-tools driver and traced replays.

    python3 bench/worker.py exact CONFIG
    python3 bench/worker.py trace-exact CONFIG TRACE_OUT
    python3 bench/worker.py trace-extract TRACE_OUT -- EXTRACT_ARGS...

``exact`` calls the library's exact tools once each, as configured by the
JSON file CONFIG, and prints one JSON object with their results and times.
``trace-exact`` does the same with the layer wrappers of :mod:`tracer`
installed.  ``trace-extract`` replays one ``debias`` CLI run in-process
through ``debias.cli.main``, writing the program's output to stdout as the
CLI would.  Both traced modes write the trace to TRACE_OUT.

``debias`` must be importable from ``src/`` of the working directory; the
benchmark sets ``PYTHONPATH`` so that it is.
"""

from __future__ import annotations

import json
import os
import sys
import time

import debias
from debias import analysis, cli, coin, inversion, oracle

from reference import digest, packed
from tracer import Tracer


def _check_import_root() -> None:
    expected = os.path.realpath(os.path.join("src", "debias"))
    found = os.path.realpath(os.path.dirname(debias.__file__))
    if found != expected:
        sys.exit(f"worker: debias imported from {found}, expected {expected}")


def _verify(spec: dict):
    kind, n_max, k, depth = spec["kind"], spec["n_max"], spec["k"], spec["depth"]
    if kind == "coin":
        return oracle.verify_coin(spec["p"], n_max, k, depth, force=True)
    if kind == "dice":
        return oracle.verify_dice(spec["dist"], n_max, k, depth, force=True)
    return oracle.verify_markov(spec["matrix"], spec["start"], n_max, k, depth, force=True)


def exact_pass(cfg: dict) -> tuple[dict, list]:
    """One pass over the exact tools.  Returns the JSON result and the
    coin sessions whose trees the traced run describes."""
    perf = time.perf_counter
    t0 = perf()
    reports = []
    for spec in cfg["verify"]:
        r = _verify(spec)
        reports.append({
            "kind": spec["kind"],
            "masses": {pattern: str(mass) for pattern, mass in r.masses.items()},
            "incomplete": str(r.incomplete),
            "uniform": r.uniform,
            "total": str(r.total),
        })
    t1 = perf()
    depths, biases = cfg["tables"]["depths"], cfg["tables"]["biases"]
    tables = {
        "tosses": [[row.depth, list(row.values)] for row in analysis.tosses_table(depths, biases)],
        "time": [[row.depth, list(row.values)] for row in analysis.time_table(depths, biases)],
    }
    t2 = perf()
    with open(cfg["stream"]) as f:
        symbols = "".join(f.read().split())
    t3 = perf()
    session = coin.CoinExtractor(None)
    session.process_all(symbols)
    trace = session.snapshot()
    rebuilt = inversion.reconstruct(trace)
    flips = {path: [1 - b for b in node.bit_log] for path, node in trace.walk()}
    flipped = inversion.flip_and_rebuild(trace, flips)
    t4 = perf()
    result = {
        "verify": reports,
        "tables": tables,
        "roundtrip": {
            "symbols": len(symbols),
            "bits": len(session.output),
            "bits_digest": digest(packed(session.output)),
            "rebuilt_digest": digest(rebuilt.encode()),
            "flipped_length": len(flipped),
            "flipped_heads": flipped.count("H"),
            "flipped_last": flipped[-1:],
        },
        "times": {"verify_s": t1 - t0, "analyze_s": t2 - t1, "invert_s": t4 - t3},
    }
    return result, [session]


def tree_structure(sessions) -> dict:
    """Node count and bits released per level over the given coin sessions."""
    nodes, bits_by_level = 0, []
    for session in sessions:
        for path, node in session.snapshot().walk():
            nodes += 1
            while len(bits_by_level) <= len(path):
                bits_by_level.append(0)
            bits_by_level[len(path)] += len(node.bit_log)
    return {"nodes": nodes, "bits_by_level": bits_by_level}


def coin_sessions(session) -> list:
    """The coin trees inside any session type, found through public state."""
    if hasattr(session, "forests"):
        return [t for f in session.forests.values() for t in f.trees.values()]
    if hasattr(session, "trees"):
        return list(session.trees.values())
    return [session]


def _write_trace(path: str, tracer: Tracer, sessions) -> None:
    """Write the trace, with the time spent describing the trees, which the
    benchmark takes off the traced wall time."""
    t0 = time.perf_counter()
    payload = tracer.dump()
    payload["structure"] = tree_structure(sessions)
    payload["post_s"] = time.perf_counter() - t0
    with open(path, "w") as f:
        json.dump(payload, f)


def main(argv: list[str]) -> int:
    _check_import_root()
    mode = argv[0]
    if mode == "exact":
        with open(argv[1]) as f:
            result, _ = exact_pass(json.load(f))
        print(json.dumps(result))
        return 0
    tracer = Tracer()
    if mode == "trace-exact":
        with open(argv[1]) as f:
            cfg = json.load(f)
        tracer.install()
        result, sessions = tracer.root_span(exact_pass, cfg)
        tracer.uninstall()
        _write_trace(argv[2], tracer, sessions)
        print(json.dumps(result))
        return 0
    if mode == "trace-extract":
        sep = argv.index("--")
        tracer.install()
        built = []
        traced_build = cli._build_extract_session

        def capture(*args):
            result = traced_build(*args)
            built.append(result[0])
            return result

        cli._build_extract_session = capture
        code = tracer.root_span(cli.main, argv[sep + 1 :])
        tracer.uninstall()
        _write_trace(argv[1], tracer, [t for s in built for t in coin_sessions(s)])
        return code
    sys.exit(f"worker: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

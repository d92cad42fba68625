import io
import json
import os
import random
import select
import subprocess
import sys

import pytest

from debias.cli import main
from debias.coin import CoinExtractor, take_bits
from debias.dice import DiceExtractor
from debias.markov import MarkovExtractor

READ = io.DEFAULT_BUFFER_SIZE  # bytes per read of the CLI's input


def run_cli(argv, capsys):
    # config errors surface as SystemExit(4) from argparse; everything
    # else comes back as main()'s return value
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def coin_file(tmp_path):
    path = tmp_path / "flips.txt"
    path.write_text("HTTTHT\n")
    return str(path)


def test_extract_coin_golden(coin_file, capsys):
    code, out, err = run_cli(["extract", "--mode", "coin", "--input", coin_file], capsys)
    assert (code, out) == (0, "11\n")
    assert err == ""


def test_extract_accepts_lowercase_and_whitespace(tmp_path, capsys):
    f = tmp_path / "x.txt"
    f.write_text(" ht\tTt \n hT\n")
    code, out, _ = run_cli(["extract", "--mode", "coin", "--input", str(f)], capsys)
    assert code == 0
    ref_code, ref_out, _ = run_cli(
        ["extract", "--mode", "coin", "--input", coin_write(tmp_path, "HTTTHT")], capsys
    )
    assert out == ref_out


def coin_write(tmp_path, text):
    f = tmp_path / "ref.txt"
    f.write_text(text)
    return str(f)


def test_extract_bits_stops_early(coin_file, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    code, out, _ = run_cli(
        ["extract", "--mode", "coin", "--input", coin_file, "--bits", "1",
         "--stats-file", str(stats)],
        capsys,
    )
    assert (code, out) == (0, "1\n")
    payload = json.loads(stats.read_text())
    assert payload["input_symbols"] == 3  # stopped as soon as the bit appeared
    assert payload["output_bits"] == 1


def test_extract_stats_payload(coin_file, capsys):
    code, out, err = run_cli(
        ["extract", "--mode", "coin", "--input", coin_file, "--stats"], capsys
    )
    assert code == 0
    payload = json.loads(err)
    assert payload == {
        "mode": "coin",
        "depth": 15,
        "m": 2,
        "input_symbols": 6,
        "output_bits": 2,
        "messages_processed": 11,
        "tosses_per_bit_observed": 3.0,
        "wall_seconds": payload["wall_seconds"],
    }
    assert payload["wall_seconds"] >= 0


def test_extract_exhausted_writes_partial_and_exits_3(tmp_path, capsys):
    f = tmp_path / "short.txt"
    f.write_text("HTT")
    code, out, err = run_cli(
        ["extract", "--mode", "coin", "--input", str(f), "--bits", "5"], capsys
    )
    assert code == 3
    assert out == "1\n"
    assert "source exhausted" in err


def test_extract_bad_symbol_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("HTX")
    code, out, err = run_cli(["extract", "--mode", "coin", "--input", str(f)], capsys)
    assert code == 2
    assert "byte 2" in err


def test_extract_dice_golden(tmp_path, capsys):
    f = tmp_path / "faces.txt"
    f.write_text("0 1 2 1 1 2 2 1 0\n")
    code, out, _ = run_cli(
        ["extract", "--mode", "dice", "--m", "3", "--depth", "unlimited",
         "--input", str(f)],
        capsys,
    )
    assert (code, out) == (0, "010011\n")


def test_extract_dice_prescans_m_from_file(tmp_path, capsys):
    f = tmp_path / "faces.txt"
    f.write_text("0 1 2 1 1 2 2 1 0\n")
    code, out, _ = run_cli(["extract", "--mode", "dice", "--input", str(f),
                            "--depth", "unlimited"], capsys)
    assert (code, out) == (0, "010011\n")


def test_extract_dice_face_out_of_range(tmp_path, capsys):
    f = tmp_path / "faces.txt"
    f.write_text("0 1 3")
    code, _, err = run_cli(
        ["extract", "--mode", "dice", "--m", "3", "--input", str(f)], capsys
    )
    assert code == 2
    assert "out of range" in err and "byte 4" in err


def test_extract_markov_matches_library(tmp_path, capsys):
    walk = [0, 3, 1, 0, 2, 1, 2, 0, 0, 1, 2, 3, 0]
    f = tmp_path / "walk.txt"
    f.write_text(" ".join(map(str, walk)))
    code, out, _ = run_cli(
        ["extract", "--mode", "markov", "--m", "4", "--depth", "unlimited",
         "--input", str(f)],
        capsys,
    )
    ref = MarkovExtractor(4)
    ref.process_all(walk)
    assert code == 0
    assert out == "".join(map(str, ref.output)) + "\n"


def test_extract_markov_state_order(tmp_path, capsys):
    tokens = [7, 5, 7, 7, 5, 5, 7, 5, 7, 5, 5, 7]
    f = tmp_path / "walk.txt"
    f.write_text(" ".join(map(str, tokens)))
    code, out, _ = run_cli(
        ["extract", "--mode", "markov", "--state-order", "5,7", "--input", str(f)],
        capsys,
    )
    ref = MarkovExtractor(2, depth_limit=15)
    ref.process_all([0 if t == 5 else 1 for t in tokens])
    assert code == 0
    assert out == "".join(map(str, ref.output)) + "\n"


def test_extract_markov_stdin_without_m_is_config_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"0 1 0")))
    code, _, err = run_cli(["extract", "--mode", "markov"], capsys)
    assert code == 4
    assert "--m" in err


def test_extract_vonneumann_mode(tmp_path, capsys):
    f = tmp_path / "x.txt"
    f.write_text("HTTHHHTT")
    code, out, _ = run_cli(["extract", "--mode", "vonneumann", "--input", str(f)], capsys)
    assert (code, out) == (0, "10\n")


def test_extract_packed_output(coin_file, tmp_path, capsys):
    dest = tmp_path / "bits.bin"
    code, _, _ = run_cli(
        ["extract", "--mode", "coin", "--input", coin_file,
         "--output", str(dest), "--output-format", "packed"],
        capsys,
    )
    assert code == 0
    assert dest.read_bytes() == b"\xc0"  # bits 11, zero-padded to a byte


def test_extract_packed_input(tmp_path, capsys):
    f = tmp_path / "raw.bin"
    f.write_bytes(bytes([0b10110000]))  # symbols HTHHTTTT
    code, out, _ = run_cli(
        ["extract", "--mode", "coin", "--input", str(f), "--input-format", "bits",
         "--depth", "unlimited"],
        capsys,
    )
    from debias.coin import CoinExtractor

    ref = CoinExtractor()
    ref.process_all("HTHHTTTT")
    assert (code, out) == (0, "".join(map(str, ref.output)) + "\n")


def test_extract_config_errors(tmp_path, capsys):
    f = tmp_path / "x.txt"
    f.write_text("0 1")
    cases = [
        ["extract", "--mode", "dice", "--m", "3", "--input", str(f),
         "--input-format", "bits"],
        ["extract", "--mode", "coin", "--depth", "-2", "--input", str(f)],
        ["extract", "--mode", "coin", "--depth", "x", "--input", str(f)],
        ["extract", "--mode", "coin", "--bits", "-1", "--input", str(f)],
        ["extract", "--mode", "dice", "--m", "1", "--input", str(f)],
        ["extract", "--mode", "coin", "--state-order", "0,1", "--input", str(f)],
        ["extract", "--mode", "markov", "--state-order", "5,5", "--input", str(f)],
        ["extract", "--mode", "nope", "--input", str(f)],
        ["bogus"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv, capsys)
        assert code == 4, argv
        assert "error" in err


def test_analyze_csv_golden(capsys):
    code, out, _ = run_cli(
        ["analyze", "--metric", "tosses", "--depths", "3", "--ps", "0.4",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == [
        "depth,p,tosses_per_bit",
        "3,0.4,1.5190",
        "limit,0.4,1.0299",
    ]


def test_analyze_time_metric(capsys):
    code, out, _ = run_cli(
        ["analyze", "--metric", "time", "--depths", "10", "--ps", "0.1",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert "10,0.1,7.9002" in out.splitlines()


def test_analyze_default_table(capsys):
    code, out, _ = run_cli(["analyze"], capsys)
    assert code == 0
    assert out.splitlines()[0].split() == ["depth", "p=0.1", "p=0.2", "p=0.3", "p=0.4", "p=0.5"]
    assert "4.0000" in out and "limit" in out


def test_analyze_rejects_bad_bias(capsys):
    code, _, err = run_cli(["analyze", "--ps", "1.5"], capsys)
    assert code == 4


def test_verify_coin_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(
        ["verify", "--mode", "coin", "--p", "1/3", "--n-max", "10", "--bits", "2",
         "--depth", "1"],
        capsys,
    )
    assert code == 0
    assert "uniform: yes" in out and "13436/59049" in out
    dest = tmp_path / "report.csv"
    code, _, _ = run_cli(
        ["verify", "--mode", "coin", "--p", "1/3", "--n-max", "10", "--bits", "2",
         "--depth", "1", "--format", "csv", "--output", str(dest)],
        capsys,
    )
    assert code == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "outcome,probability"
    assert "11,13436/59049" in lines


def test_verify_dice_and_markov(capsys):
    code, out, _ = run_cli(
        ["verify", "--mode", "dice", "--dist", "1/2,1/3,1/6", "--n-max", "7",
         "--bits", "1"],
        capsys,
    )
    assert code == 0 and "uniform: yes" in out
    code, out, _ = run_cli(
        ["verify", "--mode", "markov", "--matrix", "1/3,2/3;3/4,1/4", "--start", "0",
         "--n-max", "8", "--bits", "1"],
        capsys,
    )
    assert code == 0 and "uniform: yes" in out


def test_verify_config_errors(capsys):
    cases = [
        ["verify", "--mode", "coin", "--n-max", "6", "--bits", "1"],  # no --p
        ["verify", "--mode", "coin", "--p", "3/2", "--n-max", "6", "--bits", "1"],
        ["verify", "--mode", "dice", "--dist", "1/2,1/3", "--n-max", "6", "--bits", "1"],
        ["verify", "--mode", "markov", "--matrix", "1,0;0,1", "--start", "5",
         "--n-max", "6", "--bits", "1"],
        ["verify", "--mode", "coin", "--p", "1/2", "--n-max", "20", "--bits", "1"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv, capsys)
        assert code == 4, argv


def test_verify_force_overrides_guard(capsys):
    code, out, _ = run_cli(
        ["verify", "--mode", "coin", "--p", "1/2", "--n-max", "15", "--bits", "1",
         "--depth", "0", "--force"],
        capsys,
    )
    assert code == 0 and "uniform: yes" in out


def test_bench_deterministic_and_json(capsys):
    argv = ["bench", "--p", "0.3", "--depth", "3", "--bits", "2000", "--seed", "5",
            "--trials", "2"]
    code_a, out_a, _ = run_cli(argv, capsys)
    code_b, out_b, _ = run_cli(argv, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "predicted 1.7061" in out_a
    code, out, _ = run_cli(argv + ["--json"], capsys)
    runs = json.loads(out)
    assert len(runs) == 2
    assert runs[0]["seed"] == 5 and runs[1]["seed"] == 6
    assert runs[0]["bits_requested"] == 2000


def test_bench_rejects_bad_config(capsys):
    assert run_cli(["bench", "--p", "0"], capsys)[0] == 4
    assert run_cli(["bench", "--p", "0.3", "--trials", "0"], capsys)[0] == 4


def test_console_script_installed(coin_file, debias_on_path):
    proc = subprocess.run(
        ["debias", "extract", "--mode", "coin", "--input", coin_file, "--bits", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "11\n"


def test_console_script_packed_stdout(coin_file, debias_on_path):
    proc = subprocess.run(
        ["debias", "extract", "--mode", "coin", "--input", coin_file,
         "--output-format", "packed"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == b"\xc0"


def test_console_script_dead_pipe_is_silent(tmp_path, debias_on_path):
    # reader hangs up after one byte: exit 0, no shutdown-flush noise
    big = tmp_path / "big.txt"
    big.write_text("HT" * 200_000)
    writer = subprocess.Popen(
        ["debias", "extract", "--mode", "coin", "--input", str(big)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    writer.stdout.read(1)
    writer.stdout.close()
    stderr = writer.stderr.read()
    writer.stderr.close()
    assert writer.wait() == 0
    assert stderr == b""


def test_console_script_streams_a_live_pipe(debias_on_path):
    # the bits of the first line arrive while the writer still holds stdin open
    proc = subprocess.Popen(
        ["debias", "extract", "--mode", "coin"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        proc.stdin.write(b"HTTTHT\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        assert ready, "no output within 10 s while the input pipe stayed open"
        assert os.read(proc.stdout.fileno(), 16) == b"11"
    finally:
        proc.kill()
        proc.communicate()


# ------------------------------------------------ unopenable paths: exit 4


class _Stdin:
    """Stands in for ``sys.stdin``: its ``buffer.read`` hands out ``data``
    at most ``step`` bytes at a time, like a pipe."""

    def __init__(self, data: bytes = b"", step: int = READ):
        self.buffer = self
        self.data, self.step, self.pos = data, step, 0

    def read(self, n: int) -> bytes:
        chunk = self.data[self.pos : self.pos + min(n, self.step)]
        self.pos += len(chunk)
        return chunk


class _BufferedStdin(_Stdin):
    """A ``_Stdin`` with ``read1``, as buffered streams have."""

    read1 = _Stdin.read


class _UnreadStdin(_Stdin):
    def read(self, n: int) -> bytes:
        raise AssertionError("the input was read before the error")

    read1 = read


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--mode", "coin", "--input", "{missing}/in.txt"],
        ["extract", "--mode", "coin", "--output", "{missing}/out.txt"],
        ["extract", "--mode", "coin", "--output-format", "packed", "--output", "{missing}/b.bin"],
        ["extract", "--mode", "dice", "--m", "3", "--stats-file", "{missing}/stats.json"],
        ["analyze", "--depths", "3", "--ps", "0.4", "--output", "{missing}/table.txt"],
        ["verify", "--mode", "coin", "--p", "1/3", "--n-max", "4", "--bits", "1",
         "--output", "{missing}/report.txt"],
    ],
    ids=["extract-input", "extract-output", "extract-packed", "extract-stats-file",
         "analyze-output", "verify-output"],
)
def test_unopenable_path_is_config_error(argv, tmp_path, capsys, monkeypatch):
    # extract must report the path before it reads any input
    monkeypatch.setattr(sys, "stdin", _UnreadStdin())
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("debias: error: cannot open ")
    assert err.count("\n") == 1


# ------------------------------------- CLI against the library, many reads


def _source(step, tmp_path, monkeypatch, data: bytes) -> list[str]:
    """Arguments that feed ``data`` to the CLI: from a file when ``step`` is
    None, else from stdin in reads of at most ``step`` bytes."""
    if step is None:
        path = tmp_path / "input"
        path.write_bytes(data)
        return ["--input", str(path)]
    stdin_class, size = step
    monkeypatch.setattr(sys, "stdin", stdin_class(data, size))
    return []


SOURCES = pytest.mark.parametrize(
    "step", [None, (_Stdin, 3), (_BufferedStdin, 997)], ids=["file", "stdin-read-3", "stdin-read1-997"]
)


def _ascii(bits) -> str:
    return "".join(map(str, bits)) + "\n"


def _packed(bits) -> bytes:
    padded = list(bits) + [0] * (-len(bits) % 8)
    return bytes(int("".join(map(str, padded[i : i + 8])), 2) for i in range(0, len(padded), 8))


def _coins(rng: random.Random, n: int) -> str:
    return "".join("H" if rng.random() < 0.3 else "T" for _ in range(n))


@SOURCES
def test_extract_mixed_case_text_across_reads(step, tmp_path, capsys, monkeypatch):
    rng = random.Random(1)
    symbols = _coins(rng, 4 * READ)
    text = "".join(
        (s.lower() if rng.random() < 0.5 else s)
        + (rng.choice([" ", "\t", "\r\n", "\n  "]) if rng.random() < 0.2 else "")
        for s in symbols
    ).encode()
    bits = CoinExtractor(15).process_all(symbols)
    code, out, _ = run_cli(
        ["extract", "--mode", "coin", *_source(step, tmp_path, monkeypatch, text)], capsys
    )
    assert (code, out) == (0, _ascii(bits))
    dest = tmp_path / "bits.bin"
    code, _, _ = run_cli(
        ["extract", "--mode", "coin", "--output", str(dest), "--output-format", "packed",
         *_source(step, tmp_path, monkeypatch, text)],
        capsys,
    )
    assert code == 0
    assert dest.read_bytes() == _packed(bits)


@SOURCES
def test_extract_packed_input_across_reads(step, tmp_path, capsys, monkeypatch):
    rng = random.Random(2)
    data = bytes(rng.randrange(256) for _ in range(3 * READ + 5))
    symbols = "".join(format(b, "08b") for b in data).translate(str.maketrans("10", "HT"))
    code, out, _ = run_cli(
        ["extract", "--mode", "coin", "--input-format", "bits", "--depth", "unlimited",
         *_source(step, tmp_path, monkeypatch, data)],
        capsys,
    )
    assert (code, out) == (0, _ascii(CoinExtractor(None).process_all(symbols)))


def _tokens_cut_at_reads(rng: random.Random, reads: int) -> tuple[list[int], bytes]:
    """Values 0..12 as text, with the two-digit token 12 cut by each of the
    first ``reads`` read boundaries of a file."""
    tokens, text = [], ""
    for boundary in range(READ, (reads + 1) * READ, READ):
        while len(text) < boundary - 8:
            tokens.append(rng.choice([0, 0, 1, 2, 3, 5, 8, 10, 11, 12]))
            text += f"{tokens[-1]}" + rng.choice([" ", "\n", " \t"])
        text += " " * (boundary - 1 - len(text)) + "12\n"
        tokens.append(12)
        assert text[boundary - 1 : boundary + 1] == "12"
    return tokens, text.encode()


@SOURCES
@pytest.mark.parametrize("mode", ["dice", "markov"])
def test_extract_tokens_cut_by_reads(mode, step, tmp_path, capsys, monkeypatch):
    tokens, data = _tokens_cut_at_reads(random.Random(3), 3)
    ref = DiceExtractor(13, 15) if mode == "dice" else MarkovExtractor(13, 15)
    ref.process_all(tokens)
    code, out, _ = run_cli(
        ["extract", "--mode", mode, "--m", "13", *_source(step, tmp_path, monkeypatch, data)],
        capsys,
    )
    assert (code, out) == (0, _ascii(ref.output))


@SOURCES
def test_extract_bits_stops_mid_batch(step, tmp_path, capsys, monkeypatch):
    symbols = _coins(random.Random(4), 4 * READ)
    k = len(CoinExtractor(15).process_all(symbols[: 2 * READ + READ // 2]))
    bits, n = take_bits(CoinExtractor(15), symbols, k)
    assert 2 * READ < n < 3 * READ  # inside the third read of a file
    stats = tmp_path / "stats.json"
    code, out, _ = run_cli(
        ["extract", "--mode", "coin", "--bits", str(k), "--stats-file", str(stats),
         *_source(step, tmp_path, monkeypatch, symbols.encode())],
        capsys,
    )
    assert (code, out) == (0, _ascii(bits))
    payload = json.loads(stats.read_text())
    assert (payload["input_symbols"], payload["output_bits"]) == (n, k)


@SOURCES
def test_extract_exhausted_pads_packed_output(step, tmp_path, capsys, monkeypatch):
    symbols = _coins(random.Random(5), 3 * READ)
    bits = CoinExtractor(15).process_all(symbols)
    while len(bits) % 8 == 0:  # make the last byte need padding
        symbols = symbols[:-1]
        bits = CoinExtractor(15).process_all(symbols)
    dest = tmp_path / "bits.bin"
    code, _, err = run_cli(
        ["extract", "--mode", "coin", "--bits", str(len(bits) + 5), "--output", str(dest),
         "--output-format", "packed", *_source(step, tmp_path, monkeypatch, symbols.encode())],
        capsys,
    )
    assert code == 3
    assert f"with {len(bits)} of {len(bits) + 5} requested bits" in err
    assert dest.read_bytes() == _packed(bits)


@SOURCES
def test_extract_bad_byte_after_first_read(step, tmp_path, capsys, monkeypatch):
    # the bits released before the bad byte are written, in either format
    symbols = _coins(random.Random(6), 2 * READ + 300)
    data = symbols.encode() + b"x" + b"HT" * 100
    bits = CoinExtractor(15).process_all(symbols)
    code, out, err = run_cli(
        ["extract", "--mode", "coin", *_source(step, tmp_path, monkeypatch, data)], capsys
    )
    assert (code, out) == (2, _ascii(bits))
    assert f"bad input symbol at byte {len(symbols)}: expected H or T, got 'x'" in err
    dest = tmp_path / "bits.bin"
    code, _, _ = run_cli(
        ["extract", "--mode", "coin", "--output", str(dest), "--output-format", "packed",
         *_source(step, tmp_path, monkeypatch, data)],
        capsys,
    )
    assert code == 2
    assert dest.read_bytes() == _packed(bits)


@SOURCES
@pytest.mark.parametrize("mode", ["dice", "markov"])
def test_extract_bad_token_after_first_read(mode, step, tmp_path, capsys, monkeypatch):
    rng = random.Random(7)
    tokens = [rng.randrange(3) for _ in range(READ)]
    head = " ".join(map(str, tokens)) + "\n"
    data = (head + "7 1 2 0\n").encode()
    if mode == "dice":
        ref, flags, detail = DiceExtractor(3, 15), ["--m", "3"], "value 7 out of range for m=3"
    else:
        ref, flags, detail = MarkovExtractor(3, 15), ["--state-order", "0,1,2"], \
            "state 7 not in --state-order"
    ref.process_all(tokens)
    code, out, err = run_cli(
        ["extract", "--mode", mode, *flags, *_source(step, tmp_path, monkeypatch, data)], capsys
    )
    assert (code, out) == (2, _ascii(ref.output))
    assert f"bad input symbol at byte {len(head)}: {detail}" in err

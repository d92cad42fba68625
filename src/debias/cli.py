"""Command line front end: extract bits, print analysis tables, run the
exact uniformity verifier, and benchmark predictions against simulation.

Exit codes: 0 success, 1 verification found non-uniform output, 2 bad
input symbol, 3 source exhausted before the requested bit count, 4
configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import analysis, oracle
from .coin import HEADS, TAILS, CoinExtractor, SourceExhausted, take_bits
from .dice import DiceExtractor
from .markov import MarkovExtractor
from .vonneumann import VonNeumannExtractor

EXIT_OK = 0
EXIT_NOT_UNIFORM = 1
EXIT_BAD_SYMBOL = 2
EXIT_EXHAUSTED = 3
EXIT_CONFIG = 4

_WHITESPACE = b" \t\r\n\v\f"


class BadSymbol(Exception):
    """Unreadable or out-of-range input symbol, with its byte offset."""

    def __init__(self, offset: int, detail: str) -> None:
        self.offset = offset
        self.detail = detail
        super().__init__(f"bad input symbol at byte {offset}: {detail}")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for bad
    # input symbols here, so route every configuration problem to 4.
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_depth(text: str):
    if text.lower() in ("unlimited", "none"):
        return None
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"depth must be a nonnegative integer or 'unlimited', got {text!r}"
        ) from None
    if depth < 0:
        raise argparse.ArgumentTypeError("depth must be nonnegative")
    return depth


# ---------------------------------------------------------------- input


# Every reader yields one batch per read of the input, so that the bits a
# batch releases can be written before the next read blocks.  A reader that
# meets a bad byte first yields the batch of symbols before it, then raises.


def _byte_chunks(stream):
    # read1 returns what a pipe holds now instead of waiting for a full read
    read = getattr(stream, "read1", stream.read)
    while True:
        chunk = read(io.DEFAULT_BUFFER_SIZE)
        if not chunk:
            return
        yield chunk


_UPPER_COIN = bytes.maketrans(b"ht", b"HT")


def _coin_symbols(stream):
    """Yield one ``str`` of H/T per read of text bytes; case-insensitive,
    whitespace skipped."""
    offset = 0
    for chunk in _byte_chunks(stream):
        batch = chunk.translate(_UPPER_COIN, _WHITESPACE)
        bad = batch.translate(None, b"HT")
        if bad:
            at = chunk.index(bad[0])  # no earlier byte is bad, so none equals it
            yield chunk[:at].translate(_UPPER_COIN, _WHITESPACE).decode("ascii")
            raise BadSymbol(offset + at, f"expected H or T, got {chr(bad[0])!r}")
        yield batch.decode("ascii")
        offset += len(chunk)


_BIT_SYMBOLS = str.maketrans("10", HEADS + TAILS)
_BYTE_SYMBOLS = [format(b, "08b").translate(_BIT_SYMBOLS) for b in range(256)]


def _packed_symbols(stream):
    """Yield one ``str`` per read, 8 symbols per byte, most significant bit
    first (1 -> H)."""
    for chunk in _byte_chunks(stream):
        yield "".join(map(_BYTE_SYMBOLS.__getitem__, chunk))


def _int_tokens(stream):
    """Yield, per read, a list of ``(value, byte_offset)`` for the
    whitespace-separated decimal tokens it completes; a token cut by the
    end of a read is carried over to the next."""
    offset = 0
    value = None
    start = 0
    for chunk in _byte_chunks(stream):
        tokens = []
        for b in chunk:
            if 0x30 <= b <= 0x39:
                if value is None:
                    value, start = 0, offset
                value = value * 10 + (b - 0x30)
            elif b in _WHITESPACE:
                if value is not None:
                    tokens.append((value, start))
                    value = None
            else:
                yield tokens
                raise BadSymbol(offset, f"expected a decimal value, got {chr(b)!r}")
            offset += 1
        yield tokens
    if value is not None:
        yield [(value, start)]


def _checked_faces(batches, m: int):
    for tokens in batches:
        faces = [value for value, _ in tokens]
        if faces and max(faces) >= m:
            i = next(i for i, face in enumerate(faces) if face >= m)
            yield faces[:i]
            value, offset = tokens[i]
            raise BadSymbol(offset, f"value {value} out of range for m={m}")
        yield faces


def _mapped_states(batches, mapping: dict[int, int]):
    for tokens in batches:
        states = [mapping.get(value) for value, _ in tokens]
        if None in states:
            i = states.index(None)
            yield states[:i]
            value, offset = tokens[i]
            raise BadSymbol(offset, f"state {value} not in --state-order")
        yield states


def _prescan_m(path: str, parser: _Parser) -> int:
    largest = -1
    with open(path, "rb") as f:
        for tokens in _int_tokens(f):
            largest = max([largest, *(value for value, _ in tokens)])
    if largest < 0:
        parser.error(f"cannot infer m from {path!r} (no values); pass --m")
    return max(largest + 1, 2)


# --------------------------------------------------------------- output


def _open(path: str, mode: str, parser: _Parser):
    """Open ``path``, or end with a configuration error (exit 4)."""
    try:
        return open(path, mode)
    except OSError as exc:
        parser.error(f"cannot open {path!r}: {exc.strerror or exc}")


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack_bits(bits) -> bytes:
    """Bits as bytes, most significant bit first, zero-padded to a byte."""
    n = -(-len(bits) // 8)
    if not n:
        return b""
    text = bytes(bits).translate(_DIGITS).ljust(8 * n, b"0")
    return int(text, 2).to_bytes(n, "big")


def _write_bits(bits, out, fmt: str, final: bool = False) -> list[int]:
    """Write ``bits`` to the binary stream ``out``, flush it, and return
    the bits held back for the next call.

    Ascii output is one digit per bit; ``final`` ends the line.  Packed
    output is whole bytes, most significant bit first, so up to 7 bits
    are held back; ``final`` writes them zero-padded to a byte.
    """
    if fmt == "ascii":
        data, rest = bytes(bits).translate(_DIGITS) + (b"\n" if final else b""), []
    else:
        whole = len(bits) if final else len(bits) & ~7
        data, rest = _pack_bits(bits[:whole]), bits[whole:]
    out.write(data)
    out.flush()
    return rest


def _write_text(text: str, where: str, parser: _Parser) -> None:
    if where == "-":
        sys.stdout.write(text + "\n")
    else:
        with _open(where, "w", parser) as f:
            f.write(text + "\n")


def _emit_stats(args, payload: dict, stats_file) -> None:
    if stats_file is not None:
        json.dump(payload, stats_file, indent=2)
        stats_file.write("\n")
    if args.stats:
        json.dump(payload, sys.stderr, indent=2)
        sys.stderr.write("\n")


# ------------------------------------------------------------- extract


def _build_extract_session(args, parser: _Parser, stream):
    """Returns (session, iterator of symbol batches, m_for_stats)."""
    mode = args.mode
    if mode in ("coin", "vonneumann"):
        if args.state_order:
            parser.error("--state-order only applies to --mode markov")
        symbols = _packed_symbols(stream) if args.input_format == "bits" else _coin_symbols(stream)
        if mode == "coin":
            return CoinExtractor(args.depth), symbols, 2
        return VonNeumannExtractor(), symbols, 2

    if args.input_format == "bits":
        parser.error("--input-format bits only applies to coin/vonneumann modes")

    order = None
    if args.state_order:
        if mode != "markov":
            parser.error("--state-order only applies to --mode markov")
        try:
            order = [int(t) for t in args.state_order.split(",")]
        except ValueError:
            parser.error("--state-order must be a comma-separated list of integers")
        if len(set(order)) != len(order):
            parser.error("--state-order values must be distinct")

    m = args.m
    if order is not None:
        if m is not None and m != len(order):
            parser.error(f"--m {m} contradicts --state-order of length {len(order)}")
        m = len(order)
    if m is None:
        if args.input == "-":
            parser.error(f"--mode {mode} on stdin needs --m (no prescan possible)")
        m = _prescan_m(args.input, parser)
    if m < 2:
        parser.error(f"m must be >= 2, got {m}")

    tokens = _int_tokens(stream)
    if mode == "dice":
        return DiceExtractor(m, args.depth), _checked_faces(tokens, m), m
    if order is not None:
        mapping = {value: idx for idx, value in enumerate(order)}
        return MarkovExtractor(m, args.depth), _mapped_states(tokens, mapping), m
    return MarkovExtractor(m, args.depth), _checked_faces(tokens, m), m


def _cmd_extract(args, parser: _Parser) -> int:
    k, fmt = args.bits, args.output_format
    if k is not None and k < 0:
        parser.error("--bits must be nonnegative")
    with contextlib.ExitStack() as files:

        def opened(path: str, mode: str):
            return files.enter_context(_open(path, mode, parser))

        stream = sys.stdin.buffer if args.input == "-" else opened(args.input, "rb")
        session, batches, m = _build_extract_session(args, parser, stream)
        # every path is checked before the first read of the input
        out = sys.stdout.buffer if args.output == "-" else opened(args.output, "wb")
        stats_file = opened(args.stats_file, "w") if args.stats_file else None

        # read -> feed -> write: each batch's bits go out before the next read
        consumed = written = 0
        carry: list[int] = []
        t0 = time.perf_counter()
        try:
            for batch in batches if k != 0 else ():  # --bits 0 reads no input
                try:
                    bits, n = take_bits(session, batch, None if k is None else k - written)
                except SourceExhausted as exc:
                    bits, n = exc.bits, exc.symbols_consumed
                consumed += n
                written += len(bits)
                carry = _write_bits(carry + bits, out, fmt)
                if written == k:
                    break
        except BadSymbol:
            _write_bits(carry, out, fmt, final=True)  # the bits from before it
            raise
        _write_bits(carry, out, fmt, final=True)
        wall = time.perf_counter() - t0

        _emit_stats(
            args,
            {
                "mode": args.mode,
                "depth": None if args.mode == "vonneumann" else args.depth,
                "m": m,
                "input_symbols": consumed,
                "output_bits": written,
                "messages_processed": getattr(session, "messages_total", consumed),
                "tosses_per_bit_observed": consumed / written if written else None,
                "wall_seconds": wall,
            },
            stats_file,
        )
    if k is not None and written < k:
        print(f"debias: source exhausted after {consumed} symbols "
              f"with {written} of {k} requested bits", file=sys.stderr)
        return EXIT_EXHAUSTED
    return EXIT_OK


# ------------------------------------------------------------- analyze


def _cmd_analyze(args, parser: _Parser) -> int:
    try:
        depths = [int(t) for t in args.depths.split(",")]
        biases = [float(t) for t in args.ps.split(",")]
    except ValueError:
        parser.error("--depths and --ps must be comma-separated numbers")
    try:
        if args.metric == "tosses":
            rows = analysis.tosses_table(depths, biases)
            column = "tosses_per_bit"
        else:
            rows = analysis.time_table(depths, biases)
            column = "messages_per_symbol"
    except analysis.DomainError as exc:
        parser.error(str(exc))
    if args.format == "csv":
        text = analysis.table_csv(rows, biases, column)
    else:
        text = analysis.format_table(rows, biases)
    _write_text(text, args.output, parser)
    return EXIT_OK


# -------------------------------------------------------------- verify


def _parse_fractions(text: str) -> list[Fraction]:
    return [Fraction(tok.strip()) for tok in text.split(",")]


def _cmd_verify(args, parser: _Parser) -> int:
    try:
        if args.mode == "coin":
            if args.p is None:
                parser.error("--mode coin needs --p")
            report = oracle.verify_coin(args.p, args.n_max, args.bits, args.depth, args.force)
        elif args.mode == "dice":
            if args.dist is None:
                parser.error("--mode dice needs --dist")
            report = oracle.verify_dice(
                _parse_fractions(args.dist), args.n_max, args.bits, args.depth, args.force
            )
        else:
            if args.matrix is None:
                parser.error("--mode markov needs --matrix")
            matrix = [_parse_fractions(row) for row in args.matrix.split(";")]
            report = oracle.verify_markov(
                matrix, args.start, args.n_max, args.bits, args.depth, args.force
            )
    except oracle.HorizonTooLarge as exc:
        parser.error(str(exc))
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(str(exc))
    _write_text(report.to_csv() if args.format == "csv" else report.to_text(), args.output,
                parser)
    return EXIT_OK if report.uniform else EXIT_NOT_UNIFORM


# --------------------------------------------------------------- bench


def _cmd_bench(args, parser: _Parser) -> int:
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    try:
        runs = [
            analysis.simulate_efficiency(args.p, args.depth, args.bits, seed=args.seed + t)
            for t in range(args.trials)
        ]
    except analysis.DomainError as exc:
        parser.error(str(exc))
    if args.json:
        payload = [run.__dict__ for run in runs]
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    lines = [
        f"bias p={args.p:g}  depth={'unlimited' if args.depth is None else args.depth}"
        f"  bits per trial={args.bits}  trials={args.trials}  base seed={args.seed}"
    ]
    for run in runs:
        lines.append(
            f"  seed {run.seed}: {run.symbols_consumed} symbols"
            f" -> {run.tosses_per_bit:.4f} tosses/bit"
            f" (predicted {run.expected_tosses_per_bit:.4f}),"
            f" {run.messages_per_symbol:.4f} deliveries/symbol"
            + (
                f" (predicted {run.expected_messages_per_symbol:.4f})"
                if run.expected_messages_per_symbol is not None
                else ""
            )
        )
    mean_tpb = sum(r.tosses_per_bit for r in runs) / len(runs)
    mean_mps = sum(r.messages_per_symbol for r in runs) / len(runs)
    lines.append(f"  mean: {mean_tpb:.4f} tosses/bit, {mean_mps:.4f} deliveries/symbol")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(
        prog="debias",
        description="Extract uniform random bits from biased coins, loaded dice, "
        "and Markov chains; analyze and verify the extractors.",
        epilog="exit codes: 0 success, 1 verification found non-uniform output, "
        "2 bad input symbol, 3 source exhausted, 4 configuration error",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    px = sub.add_parser("extract", help="debias an input stream")
    px.add_argument("--mode", required=True, choices=("coin", "vonneumann", "dice", "markov"))
    px.add_argument("--depth", type=_parse_depth, default=15, metavar="D",
                    help="recycling depth limit, or 'unlimited' (default 15)")
    px.add_argument("--m", type=int, help="alphabet size for dice/markov "
                    "(inferred by prescan for file input if omitted)")
    px.add_argument("--bits", type=int, metavar="K",
                    help="stop after K output bits (default: drain the input)")
    px.add_argument("--input", default="-", metavar="PATH", help="input file, '-' = stdin")
    px.add_argument("--input-format", choices=("text", "bits"), default="text",
                    help="text: H/T or whitespace-separated values; "
                    "bits: raw bytes, MSB first (coin modes only)")
    px.add_argument("--output", default="-", metavar="PATH", help="output file, '-' = stdout")
    px.add_argument("--output-format", choices=("ascii", "packed"), default="ascii",
                    help="ascii '0'/'1' line, or packed bytes (MSB first, zero-padded)")
    px.add_argument("--stats", action="store_true", help="print run statistics JSON to stderr")
    px.add_argument("--stats-file", metavar="PATH", help="also write the statistics JSON here")
    px.add_argument("--state-order", metavar="LIST",
                    help="markov only: comma-separated state values in declaration order; "
                    "token i in the list becomes state index i")
    px.set_defaults(func=_cmd_extract)

    pa = sub.add_parser("analyze", help="print expected-cost tables")
    pa.add_argument("--metric", choices=("tosses", "time"), default="tosses",
                    help="tosses: expected inputs per output bit (with unlimited-depth "
                    "limit row); time: expected node deliveries per input")
    pa.add_argument("--depths", default=",".join(str(d) for d in analysis.TABLE_DEPTHS))
    pa.add_argument("--ps", default=",".join(str(p) for p in analysis.TABLE_BIASES))
    pa.add_argument("--format", choices=("text", "csv"), default="text")
    pa.add_argument("--output", default="-", metavar="PATH")
    pa.set_defaults(func=_cmd_analyze)

    pv = sub.add_parser("verify", help="prove finite-horizon output uniformity exactly")
    pv.add_argument("--mode", required=True, choices=("coin", "dice", "markov"))
    pv.add_argument("--p", metavar="FRAC", help="coin: exact P(H), e.g. 1/3")
    pv.add_argument("--dist", metavar="FRACS", help="dice: face probabilities, e.g. 1/2,1/3,1/6")
    pv.add_argument("--matrix", metavar="ROWS",
                    help="markov: rows separated by ';', e.g. '1/3,2/3;3/4,1/4'")
    pv.add_argument("--start", type=int, default=0, help="markov: starting state (default 0)")
    pv.add_argument("--n-max", type=int, required=True, metavar="N",
                    help="enumeration horizon (symbols, faces, or transitions)")
    pv.add_argument("--bits", type=int, required=True, metavar="K",
                    help="output prefix length whose distribution is checked")
    pv.add_argument("--depth", type=_parse_depth, default=None, metavar="D",
                    help="depth limit (default unlimited)")
    pv.add_argument("--force", action="store_true", help="override the enumeration size guard")
    pv.add_argument("--format", choices=("text", "csv"), default="text")
    pv.add_argument("--output", default="-", metavar="PATH")
    pv.set_defaults(func=_cmd_verify)

    pb = sub.add_parser("bench", help="seeded simulation vs analytic predictions")
    pb.add_argument("--p", type=float, required=True, help="source bias P(H), in (0,1)")
    pb.add_argument("--depth", type=_parse_depth, default=15, metavar="D")
    pb.add_argument("--bits", type=int, default=10000, metavar="K", help="bits per trial")
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--trials", type=int, default=1)
    pb.add_argument("--json", action="store_true", help="machine-readable trial results")
    pb.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()  # surface EPIPE here, not in the shutdown flush
        return code
    except BadSymbol as exc:
        print(f"debias: {exc}", file=sys.stderr)
        return EXIT_BAD_SYMBOL
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; give it a live fd
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

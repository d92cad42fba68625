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
import os
import re
import stat
import sys
import time

from .coin import HEADS, TAILS, CoinExtractor, SourceExhausted, take_bits

# Each command imports the rest of the package, and json,
# where it uses them: ``extract`` loads only the modules its mode runs.

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


_DECIMAL = b"0123456789" + _WHITESPACE
_INT_DIGITS = 4000  # under the interpreter's limit on digits int() converts


def _int_tokens(stream):
    """Yield, per read, ``(values, text, base)``: the values of the
    whitespace-separated decimal tokens the read completes, and the bytes
    they were split from, which start at byte offset ``base`` of the input
    (see :func:`_token_at`).  A token cut by the end of a read is carried
    over to the next."""
    base = 0
    carry = b""
    for chunk in _byte_chunks(stream):
        text = carry + chunk
        bad = text.translate(None, _DECIMAL)
        if bad:
            at = text.index(bad[0])  # no earlier byte is bad, so none equals it
            head = text[:at]
            tokens = head.split()
            if tokens and not head[-1:].isspace():
                tokens.pop()  # cut by the bad byte: never completed
            yield _values(tokens), head, base
            raise BadSymbol(base + at, f"expected a decimal value, got {chr(bad[0])!r}")
        tokens = text.split()
        carry = tokens.pop() if tokens and not text[-1:].isspace() else b""
        yield _values(tokens), text, base
        base += len(text) - len(carry)
    if carry:
        yield [_decimal(carry)], carry, base


def _values(tokens: list[bytes]) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:  # a token past the digit limit
        return list(map(_decimal, tokens))


def _decimal(token: bytes) -> int:
    """The value of a token of decimal digits, however many there are."""
    value = 0
    for i in range(0, len(token), _INT_DIGITS):
        piece = token[i : i + _INT_DIGITS]
        value = value * 10 ** len(piece) + int(piece)
    return value


def _token_at(text: bytes, base: int, i: int) -> tuple[int, str]:
    """Byte offset and decimal form of token ``i`` of a batch of
    :func:`_int_tokens`, for error messages."""
    token = [*re.finditer(rb"\S+", text)][i]
    return base + token.start(), token[0].lstrip(b"0").decode() or "0"


def _checked_faces(batches, m: int):
    for faces, text, base in batches:
        if faces and max(faces) >= m:
            i = next(i for i, face in enumerate(faces) if face >= m)
            yield faces[:i]
            offset, value = _token_at(text, base, i)
            raise BadSymbol(offset, f"value {value} out of range for m={m}")
        yield faces


def _mapped_states(batches, mapping: dict[int, int]):
    for values, text, base in batches:
        states = list(map(mapping.get, values))
        if None in states:
            i = states.index(None)
            yield states[:i]
            offset, value = _token_at(text, base, i)
            raise BadSymbol(offset, f"state {value} not in --state-order")
        yield states


def _prescan_m(stream, path: str, parser: _Parser) -> int:
    largest = -1
    for values, _, _ in _int_tokens(stream):
        largest = max([largest, *values])
    if largest < 0:
        parser.error(f"cannot infer m from {path!r} (no values); pass --m")
    stream.seek(0)
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
    import json

    if stats_file is not None:
        json.dump(payload, stats_file, indent=2)
        stats_file.write("\n")
    if args.stats:
        json.dump(payload, sys.stderr, indent=2)
        sys.stderr.write("\n")


# ------------------------------------------------------------- extract


def _extract_config(args, parser: _Parser) -> tuple[list[int] | None, int | None]:
    """Check the extract options that need no I/O.  Returns the
    ``--state-order`` values (None without one) and the alphabet size m
    (None when the prescan is to infer it)."""
    mode = args.mode
    if args.stats_file == "-":
        parser.error("--stats-file needs a path; pass --stats for the statistics on stderr")
    if args.state_order is not None and mode != "markov":
        parser.error("--state-order only applies to --mode markov")
    if mode in ("coin", "vonneumann"):
        if args.m is not None:
            parser.error("--m only applies to --mode dice or markov")
        return None, 2

    if args.input_format == "bits":
        parser.error("--input-format bits only applies to coin/vonneumann modes")

    order = None
    if args.state_order is not None:
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
    elif m < 2:
        parser.error(f"m must be >= 2, got {m}")
    return order, m


def _check_distinct_files(named, parser: _Parser) -> list:
    """End with a configuration error (exit 4) when two of the opened
    streams are one regular file, by whatever paths; return the regular
    ones.

    ``named`` holds a ``(name, stream)`` pair per stream: the input first,
    named None, then each output; a stream of None is not in use.  An
    output on the input would overwrite it before it is read, and two
    outputs on one file would mix their bytes."""
    regular = []
    for name, stream in named:
        try:
            st = os.fstat(stream.fileno())
        except (AttributeError, OSError, ValueError):  # no file descriptor behind it
            continue
        if not stat.S_ISREG(st.st_mode):
            continue
        for other, seen, _ in regular:
            if os.path.samestat(st, seen):
                parser.error(f"{name} is the input file; write the output elsewhere" if other is None
                             else f"{other} and {name} name the same file; write them to different files")
        regular.append((name, st, stream))
    return [stream for _, _, stream in regular]


def _build_extract_session(args, parser: _Parser, stream, order, m):
    """Returns (session, iterator of symbol batches, m_for_stats) for the
    ``order`` and ``m`` of :func:`_extract_config`.  With m None, the
    prescan here is the first read of the input."""
    mode = args.mode
    if mode in ("coin", "vonneumann"):
        symbols = _packed_symbols(stream) if args.input_format == "bits" else _coin_symbols(stream)
        if mode == "coin":
            return CoinExtractor(args.depth), symbols, m
        from .vonneumann import VonNeumannExtractor

        return VonNeumannExtractor(), symbols, m

    if m is None:
        m = _prescan_m(stream, args.input, parser)
    tokens = _int_tokens(stream)
    if mode == "dice":
        from .dice import DiceExtractor

        return DiceExtractor(m, args.depth), _checked_faces(tokens, m), m
    from .markov import MarkovExtractor

    if order is not None:
        mapping = {value: idx for idx, value in enumerate(order)}
        return MarkovExtractor(m, args.depth), _mapped_states(tokens, mapping), m
    return MarkovExtractor(m, args.depth), _checked_faces(tokens, m), m


def _cmd_extract(args, parser: _Parser) -> int:
    k, fmt = args.bits, args.output_format
    if k is not None and k < 0:
        parser.error("--bits must be nonnegative")
    order, m = _extract_config(args, parser)  # options before any file is opened
    created: list[str] = []  # the output paths this run made

    def refused(kind, *_):  # runs last, once every file is closed
        if kind is SystemExit:  # a refusal leaves no file it made
            for path in created:
                os.remove(path)

    with contextlib.ExitStack() as files:
        files.push(refused)

        def opened(path: str, mode: str):
            return files.enter_context(_open(path, mode, parser))

        def output(path: str, mode: str):
            # A new path is created exclusively, and noted; an existing one
            # is opened in append mode, which does not empty it.  Any other
            # failure is reported by the append open.
            with contextlib.suppress(OSError):
                f = files.enter_context(open(path, "x" + mode))
                created.append(path)
                return f
            f = opened(path, "a" + mode)
            # A second name for a file this run made: the same-file refusal
            # names that file, and keeps it.
            created[:] = [p for p in created if not os.path.samefile(p, path)]
            return f

        stream = sys.stdin.buffer if args.input == "-" else opened(args.input, "rb")
        if m is None and not stream.seekable():
            parser.error(f"--mode {args.mode} on {args.input!r} needs --m "
                         "(the prescan cannot rewind a pipe)")
        # Every stream is checked before an output is emptied, and before the
        # first read of the input, which may be the prescan in
        # _build_extract_session.
        out = sys.stdout.buffer if args.output == "-" else output(args.output, "b")
        stats_file = None if args.stats_file is None else output(args.stats_file, "")
        regular = _check_distinct_files(
            [(None, stream), ("stdout" if args.output == "-" else repr(args.output), out),
             (repr(args.stats_file), stats_file)],
            parser,
        )
        for f in (out, stats_file):
            if f in regular and f is not sys.stdout.buffer:  # opened here
                f.truncate(0)
        session, batches, m = _build_extract_session(args, parser, stream, order, m)

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

        if args.stats or stats_file is not None:  # messages_total is a pass over the arena
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
    from . import analysis

    try:  # the defaults are the axes of the frozen tables
        depths = analysis.TABLE_DEPTHS if args.depths is None else [int(t) for t in args.depths.split(",")]
        biases = analysis.TABLE_BIASES if args.ps is None else [float(t) for t in args.ps.split(",")]
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


def _cmd_verify(args, parser: _Parser) -> int:
    from . import oracle

    try:
        if args.mode == "coin":
            if args.p is None:
                parser.error("--mode coin needs --p")
            report = oracle.verify_coin(args.p, args.n_max, args.bits, args.depth, args.force)
        elif args.mode == "dice":
            if args.dist is None:
                parser.error("--mode dice needs --dist")
            report = oracle.verify_dice(
                args.dist.split(","), args.n_max, args.bits, args.depth, args.force
            )
        else:
            if args.matrix is None:
                parser.error("--mode markov needs --matrix")
            matrix = [row.split(",") for row in args.matrix.split(";")]
            report = oracle.verify_markov(
                matrix, args.start, args.n_max, args.bits, args.depth, args.force
            )
    except oracle.HorizonTooLarge as exc:
        parser.error(f"enumeration exceeds its cap of {exc.cap} branches or output patterns "
                     f"(size {exc.leaves} or more); pass --force to run it anyway")
    except ValueError as exc:
        parser.error(str(exc))
    _write_text(report.to_csv() if args.format == "csv" else report.to_text(), args.output,
                parser)
    return EXIT_OK if report.uniform else EXIT_NOT_UNIFORM


# --------------------------------------------------------------- bench


def _cmd_bench(args, parser: _Parser) -> int:
    from . import analysis

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
        import json

        payload = [run._asdict() for run in runs]
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
                    help="recycling depth limit, or 'unlimited' (default 15); only a "
                    "limit bounds memory, at 2^(D+1)-1 nodes per tree")
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
    pa.add_argument("--depths")  # default: analysis.TABLE_DEPTHS
    pa.add_argument("--ps")  # default: analysis.TABLE_BIASES
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
    pv.add_argument("--force", action="store_true", help="override the enumeration work guard")
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

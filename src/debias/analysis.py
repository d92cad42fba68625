"""Closed-form efficiency analysis and seeded empirical measurement.

Every prediction comes from one forward pass over the tree's levels, the
accounting of Peres's iterated von Neumann procedure.  A node fed ``w``
i.i.d. symbols of bias ``b`` per input symbol releases ``w*b*(1-b)`` bits,
sends ``w/2`` symbols to its left child (one per pair; the concordance
parity extracts like a coin of bias ``s = b^2 + (1-b)^2 >= 1/2`` by the
H/T symmetry of the rules) and ``w*s/2`` symbols of bias ``b^2/s`` to its
right child (one per concordant pair).  Summed over levels ``0..d``,
deliveries give the processing time and bits the extraction rate at depth
limit ``d``; the rate rises monotonically to the binary entropy ``H(p)``.
At ``p = 1/2`` every level holds the single bias 1/2 with weight
``(3/4)^l``, so ``rate = 1 - (3/4)^(d+1)`` and ``time = 4 - 3*(3/4)^d``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

from .coin import HEADS, TAILS, CoinExtractor, take_bits

TABLE_DEPTHS = (0, 1, 2, 3, 4, 5, 7, 10, 15)
TABLE_BIASES = (0.1, 0.2, 0.3, 0.4, 0.5)


class DomainError(ValueError):
    """Argument outside the mathematical domain of an analysis function."""


def _check_bias(p: float, open_interval: bool = False) -> float:
    p = float(p)
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise DomainError(f"bias must lie in [0, 1], got {p!r}")
    if open_interval and p in (0.0, 1.0):
        raise DomainError(f"bias must lie strictly inside (0, 1), got {p!r}")
    return p


def _check_depth(depth: int | None, finite: bool = False) -> int | None:
    if depth is None and not finite:
        return None
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 0:
        kinds = "a nonnegative int" if finite else "None or a nonnegative int"
        raise DomainError(f"depth must be {kinds}, got {depth!r}")
    return depth


def entropy(p: float) -> float:
    """Binary entropy in bits; 0 at the endpoints."""
    p = _check_bias(p)
    if p in (0.0, 1.0):
        return 0.0
    q = 1.0 - p
    return -p * math.log2(p) - q * math.log2(q)


def level_traffic(p: float, depth: int) -> list[tuple[float, float]]:
    """Expected ``(node deliveries, bits released)`` per input symbol at each
    tree level ``0..depth``, root first.  Equal biases share one entry."""
    p = _check_bias(p)
    depth = _check_depth(depth, finite=True)
    level, out = {p: 1.0}, []  # level maps bias -> symbols per input symbol
    while True:
        out.append((sum(level.values()), sum(w * b * (1.0 - b) for b, w in level.items())))
        if len(out) > depth:
            return out
        children: dict[float, float] = {}
        for b, w in level.items():
            s = b * b + (1.0 - b) * (1.0 - b)  # never below 1/2, so the division is safe
            children[s] = children.get(s, 0.0) + 0.5 * w
            children[b * b / s] = children.get(b * b / s, 0.0) + 0.5 * w * s
        level = children


@functools.lru_cache(maxsize=64)
def _pass(p: float, depth: int) -> tuple[tuple[float, float], ...]:
    return tuple(accumulate(level_traffic(p, depth), lambda a, b: (a[0] + b[0], a[1] + b[1])))


def _running_totals(p: float, depth: int) -> tuple[tuple[float, float], ...]:
    """Entry ``d``: (processing time, extraction rate) at depth limit ``d``.
    Tables and single cells share this one sum, so they agree exactly.

    Kept per ``(p, depth)``, so the tosses and time tables on the same axes,
    or repeated trials of one configuration, make one pass per bias."""
    return _pass(_check_bias(p), _check_depth(depth, finite=True))


def _per_bit(rate: float) -> float:
    return math.inf if rate == 0.0 else 1.0 / rate


def extraction_rate(p: float, depth: int | None) -> float:
    """Expected output bits per input symbol at the given depth limit;
    ``depth=None`` gives the unlimited-depth limit, the source's entropy."""
    p = _check_bias(p)
    if _check_depth(depth) is None:
        return entropy(p)
    return _running_totals(p, depth)[-1][1]


def tosses_per_bit(p: float, depth: int | None) -> float:
    """Expected input symbols per output bit (``inf`` for a constant source)."""
    return _per_bit(extraction_rate(p, depth))


def processing_time(p: float, depth: int) -> float:
    """Expected node deliveries per input symbol at the given depth limit.

    Always in ``[1, depth + 1]``.  Unlike the rate, this has no finite
    unlimited-depth value for every ``p``, so ``depth`` must be an int.
    """
    return _running_totals(p, depth)[-1][0]


class TableRow(NamedTuple):
    """One table row: a depth (None = unlimited-depth limit) and its cells."""

    depth: int | None
    values: tuple[float, ...]


def _table_columns(depths: Sequence[int], biases: Sequence[float]):
    """Check every depth and bias before any work, then return them with one
    pass of running totals per bias, down to the deepest finite depth."""
    depths = [_check_depth(d) for d in depths]
    biases = [_check_bias(p) for p in biases]
    deepest = max((d for d in depths if d is not None), default=0)
    return depths, biases, [_running_totals(p, deepest) for p in biases]


def tosses_table(
    depths: Sequence[int] = TABLE_DEPTHS,
    biases: Sequence[float] = TABLE_BIASES,
    include_limit: bool = True,
) -> list[TableRow]:
    """Expected tosses per output bit, one row per depth, one column per
    bias; optionally ends with the unlimited-depth row ``1/H(p)``."""
    depths, biases, columns = _table_columns(depths, biases)
    limit = tuple(_per_bit(entropy(p)) for p in biases)
    rows = [TableRow(d, limit if d is None else tuple(_per_bit(c[d][1]) for c in columns))
            for d in depths]
    if include_limit:
        rows.append(TableRow(None, limit))
    return rows


def time_table(
    depths: Sequence[int] = TABLE_DEPTHS,
    biases: Sequence[float] = TABLE_BIASES,
) -> list[TableRow]:
    """Expected node deliveries per input symbol, same layout as
    :func:`tosses_table` (no limit row)."""
    depths, _, columns = _table_columns([_check_depth(d, finite=True) for d in depths], biases)
    return [TableRow(d, tuple(col[d][0] for col in columns)) for d in depths]


def _depth_label(depth: int | None) -> str:
    return "limit" if depth is None else str(depth)


def format_table(rows: Sequence[TableRow], biases: Sequence[float]) -> str:
    """Human-readable aligned table, 4 decimals per cell."""
    header = ["depth"] + [f"p={p:g}" for p in biases]
    body = [[_depth_label(r.depth)] + [f"{v:.4f}" for v in r.values] for r in rows]
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    return "\n".join(fmt.format(*line) for line in [header] + body)


def table_csv(rows: Sequence[TableRow], biases: Sequence[float], value_column: str) -> str:
    """Machine-readable long form: header ``depth,p,<value_column>``, one
    line per cell, 4 decimals."""
    lines = [f"depth,p,{value_column}"]
    for r in rows:
        for p, v in zip(biases, r.values):
            lines.append(f"{_depth_label(r.depth)},{p:g},{v:.4f}")
    return "\n".join(lines)


@dataclass(frozen=True)
class EfficiencyReport:
    """Analytic summary for one (bias, depth) configuration."""

    bias: float
    depth: int | None
    rate: float
    tosses_per_bit: float
    entropy_bits: float
    efficiency: float  # rate / entropy, in [0, 1]


def efficiency_report(p: float, depth: int | None) -> EfficiencyReport:
    rate = extraction_rate(p, depth)
    h = entropy(p)
    return EfficiencyReport(
        bias=float(p),
        depth=depth,
        rate=rate,
        tosses_per_bit=_per_bit(rate),
        entropy_bits=h,
        efficiency=0.0 if h == 0.0 else rate / h,
    )


def bernoulli_symbols(p: float, rng: random.Random) -> Iterator[str]:
    """Infinite i.i.d. H/T stream with ``P(H) = p`` drawn from ``rng``."""
    while True:
        yield HEADS if rng.random() < p else TAILS


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one seeded extraction run against its predictions."""

    bias: float
    depth: int | None
    bits_requested: int
    seed: int
    symbols_consumed: int
    messages_total: int
    tosses_per_bit: float
    messages_per_symbol: float
    expected_tosses_per_bit: float
    expected_messages_per_symbol: float | None


def simulate_efficiency(p: float, depth: int | None, k: int, seed: int = 0) -> SimulationResult:
    """Extract ``k`` bits from a seeded Bernoulli(p) stream and compare
    the observed symbol and delivery counts with the analytic values.

    Reproducible by construction: the stream comes from
    ``random.Random(seed)``, whose Mersenne Twister sequence is stable
    across platforms and Python versions.
    """
    p = _check_bias(p, open_interval=True)
    depth = _check_depth(depth)
    if not isinstance(k, int) or k <= 0:
        raise DomainError(f"k must be a positive int, got {k!r}")
    time, rate = (None, entropy(p)) if depth is None else _running_totals(p, depth)[-1]
    session = CoinExtractor(depth)
    _, n = take_bits(session, bernoulli_symbols(p, random.Random(seed)), k)
    return SimulationResult(
        bias=p,
        depth=depth,
        bits_requested=k,
        seed=seed,
        symbols_consumed=n,
        messages_total=session.messages_total,
        tosses_per_bit=n / k,
        messages_per_symbol=session.messages_total / n,
        expected_tosses_per_bit=_per_bit(rate),
        expected_messages_per_symbol=time,
    )

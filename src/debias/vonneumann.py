"""Classic von Neumann debiasing, as a baseline.

Pairs up the input; HT -> 1, TH -> 0, equal pairs are discarded.  Emits
immediately on completing an unequal pair, so its output runs one bit
ahead of a depth-0 :class:`debias.coin.CoinExtractor` (which delays each
bit until the next symbol arrives).
"""

from __future__ import annotations

from typing import Iterable

from .coin import HEADS, TAILS, Session, _stop


class VonNeumannExtractor(Session):
    """Pair-and-discard debiasing session."""

    def __init__(self) -> None:
        self.output: list[int] = []
        self.symbols_consumed = 0
        self._held: str | None = None

    def feed(self, symbols: Iterable[str], until: int | None = None) -> int:
        """Consume ``symbols`` until they run out or ``len(output)`` reaches
        ``until``, pulling none after the one that reaches it; return the
        number consumed.  A symbol other than ``H``/``T`` raises
        ``ValueError``, with the symbols before it consumed, and an
        ``until`` that is not None or an int (a bool included) raises it
        before any symbol is pulled."""
        out, held, n = self.output, self._held, 0
        stop = _stop(until)
        if len(out) >= stop:
            return 0
        try:
            for s in symbols:
                if s not in (HEADS, TAILS):
                    raise ValueError(f"symbol must be {HEADS!r} or {TAILS!r}, got {s!r}")
                n += 1
                if held is None:
                    held = s
                    continue
                if held != s:
                    out.append(1 if held == HEADS else 0)
                held = None
                if len(out) >= stop:
                    break
        finally:
            self._held, self.symbols_consumed = held, self.symbols_consumed + n
        return n

    def process(self, symbol: str) -> list[int]:
        """Consume one symbol; return the released bits ([] or one bit)."""
        n0 = len(self.output)
        self.feed((symbol,))
        return self.output[n0:]


def von_neumann(symbols: Iterable[str]) -> list[int]:
    """Debias a finite symbol sequence in one call."""
    return VonNeumannExtractor().process_all(symbols)

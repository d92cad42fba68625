"""Classic von Neumann debiasing, as a baseline.

Pairs up the input; HT -> 1, TH -> 0, equal pairs are discarded.  Emits
immediately on completing an unequal pair, so its output runs one bit
ahead of a depth-0 :class:`debias.coin.CoinExtractor` (which delays each
bit until the next symbol arrives).
"""

from __future__ import annotations

from typing import Iterable

from .coin import HEADS, TAILS, Session


class VonNeumannExtractor(Session):
    """Pair-and-discard debiasing session."""

    def __init__(self) -> None:
        self.output: list[int] = []
        self.symbols_consumed = 0
        self._held: str | None = None

    def process(self, symbol: str) -> list[int]:
        """Consume one symbol; return the released bits ([] or one bit)."""
        if symbol not in (HEADS, TAILS):
            raise ValueError(f"symbol must be {HEADS!r} or {TAILS!r}, got {symbol!r}")
        self.symbols_consumed += 1
        if self._held is None:
            self._held = symbol
            return []
        first, self._held = self._held, None
        if first == symbol:
            return []
        bit = 1 if first == HEADS else 0
        self.output.append(bit)
        return [bit]


def von_neumann(symbols: Iterable[str]) -> list[int]:
    """Debias a finite symbol sequence in one call."""
    return VonNeumannExtractor().process_all(symbols)

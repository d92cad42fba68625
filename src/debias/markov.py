"""Extraction from a Markov chain via one die extractor per state.

Transitions out of a state are i.i.d. draws from that state's row of the
transition matrix, so the chain is split into per-state exit streams:
every time state ``i`` is left, the state it went to joins stream ``i``.
Each stream feeds its own :class:`debias.dice.DiceExtractor`.

Deliveries are lagged by one visit: the exit observed when leaving state
``i`` is parked as pending for ``i`` and only delivered to ``i``'s
extractor the next time ``i`` is left, replacing the park.  The lag plays
the same role as the held-bit delay inside the coin extractor: it keeps
every output prefix exactly uniform even though the walk's future is
correlated with its past.
"""

from __future__ import annotations

from typing import Sequence

from .coin import Session, StepResult, check_depth_limit
from .dice import DiceExtractor


class UnknownState(Exception):
    """A state index outside ``0..n_states-1`` was fed to the session."""

    def __init__(self, state: object, n_states: int) -> None:
        self.state = state
        self.n_states = n_states
        super().__init__(f"state {state!r} not in 0..{n_states - 1}")


def exit_stream(states: Sequence[int], state: int) -> list[int]:
    """The successors of every occurrence of ``state`` in a walk.

    >>> exit_stream([3, 1, 3, 2, 0, 1, 0], 3)
    [1, 2]
    """
    return [states[j + 1] for j in range(len(states) - 1) if states[j] == state]


class MarkovExtractor(Session):
    """Incremental debiasing session over a walk on states ``0..n-1``.

    ``forests`` (per-state die extractors) and ``pending`` (the parked
    exit per state) are exposed for inspection; states never visited have
    no forest entry at all.
    """

    def __init__(self, n_states: int, depth_limit: int | None = None) -> None:
        if not isinstance(n_states, int) or n_states < 2:
            raise ValueError(f"n_states must be an int >= 2, got {n_states!r}")
        check_depth_limit(depth_limit)
        self.n_states = n_states
        self.depth_limit = depth_limit
        self.forests: dict[int, DiceExtractor] = {}
        self.pending: dict[int, int] = {}
        self.last_state: int | None = None
        self.output: list[int] = []
        self.symbols_consumed = 0
        self.messages_total = 0

    def process(self, state: int) -> StepResult:
        """Consume one step of the walk; return bits released this step.

        The first call only records the starting state.  Later calls park
        the new exit of the previous state and deliver the exit that was
        already parked there, if any.
        """
        if not isinstance(state, int) or not 0 <= state < self.n_states:
            raise UnknownState(state, self.n_states)
        released: list[int] = []
        messages = 0
        prev = self.last_state
        if prev is not None:
            parked = self.pending.get(prev)
            if parked is not None:
                forest = self.forests.get(prev)
                if forest is None:
                    forest = self.forests[prev] = DiceExtractor(self.n_states, self.depth_limit)
                step = forest.process(parked)
                released.extend(step.bits)
                messages += step.messages
            self.pending[prev] = state
        self.last_state = state
        self.output.extend(released)
        self.symbols_consumed += 1
        self.messages_total += messages
        return StepResult(released, messages)

    def clone(self) -> MarkovExtractor:
        dup = MarkovExtractor(self.n_states, self.depth_limit)
        dup.forests = {i: f.clone() for i, f in self.forests.items()}
        dup.pending = self.pending.copy()
        dup.last_state = self.last_state
        dup.output = self.output.copy()
        dup.symbols_consumed = self.symbols_consumed
        dup.messages_total = self.messages_total
        return dup

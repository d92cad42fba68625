"""The per-tree dice and Markov sessions, kept as the reference for the
arena sessions of :mod:`debias.dice` and :mod:`debias.markov`.

``DiceExtractor`` builds one :class:`debias.coin.CoinExtractor` per forest
slot, keyed by the slot's H/T prefix, and feeds it one ``binarize``d
symbol at a time.  ``MarkovExtractor`` builds one ``DiceExtractor`` per
state.  Both drain through the per-item ``feed`` of ``PerItem``, which
calls ``process`` once per item.  The class bodies are the package's
implementation before the shared arena; only the imports, the base
class and the message count differ.  The arena derives its message
counts, ``CoinExtractor.process`` included, so each slot here also keeps
a ``node_update_walker`` tree, which counts every delivery it makes, and
the messages are that walker's count.
"""

from __future__ import annotations

import copy
from typing import Iterable

from debias.coin import CoinExtractor, Session, StepResult, check_depth_limit
from debias.dice import binarize, face_width
from debias.markov import UnknownState
from node_update_walker import RefNode, ref_deliver


class PerItem(Session):
    """A session stepped one ``process`` call per item."""

    def feed(self, items: Iterable, until: int | None = None) -> int:
        """Consume ``items`` in order until they run out or ``len(output)``
        reaches ``until``; return the number of items consumed.

        No item is pulled from ``items`` after the one that reaches the
        target, and none at all if the output is already long enough.
        """
        out = self.output
        if until is not None and len(out) >= until:
            return 0
        n = 0
        for item in items:
            self.process(item)
            n += 1
            if until is not None and len(out) >= until:
                break
        return n


class DiceExtractor(PerItem):
    """Incremental debiasing session over face values ``0..m-1``.

    Forest slots are created lazily, keyed by the H/T prefix they
    condition on (root slot key is the empty string).
    """

    def __init__(self, m: int, depth_limit: int | None = None) -> None:
        self.m = m
        self.width = face_width(m)
        check_depth_limit(depth_limit)
        self.depth_limit = depth_limit
        self.trees: dict[str, CoinExtractor] = {}
        self.walkers: dict[str, RefNode] = {}  # per slot, the tree that counts its deliveries
        self.output: list[int] = []
        self.faces_consumed = 0
        self.messages_total = 0

    def process(self, face: int) -> StepResult:
        """Consume one face; return bits released and deliveries made."""
        word = binarize(face, self.m)
        released: list[int] = []
        messages = 0
        for i, symbol in enumerate(word):
            tree = self.trees.get(word[:i])
            if tree is None:
                tree = self.trees[word[:i]] = CoinExtractor(self.depth_limit)
                self.walkers[word[:i]] = RefNode()
            step = tree.process(symbol)
            released.extend(step.bits)
            messages += ref_deliver(self.walkers[word[:i]], symbol, self.depth_limit, [])
        self.output.extend(released)
        self.faces_consumed += 1
        self.messages_total += messages
        return StepResult(released, messages)

    def clone(self) -> DiceExtractor:
        dup = DiceExtractor(self.m, self.depth_limit)
        dup.trees = {k: t.clone() for k, t in self.trees.items()}
        dup.walkers = copy.deepcopy(self.walkers)
        dup.output = self.output.copy()
        dup.faces_consumed = self.faces_consumed
        dup.messages_total = self.messages_total
        return dup


class MarkovExtractor(PerItem):
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

"""Extraction from a Markov chain via one die forest per state.

Transitions out of a state are i.i.d. draws from that state's row of the
transition matrix, so the chain is split into per-state exit streams:
every time state ``i`` is left, the state it went to joins stream ``i``.
Each stream is debiased as the faces of an ``n_states``-sided die, by a
forest of coin trees of its own (see :mod:`debias.dice`).

Deliveries are lagged by one visit: the exit observed when leaving state
``i`` is parked as pending for ``i`` and only delivered to ``i``'s
forest the next time ``i`` is left, replacing the park.  The lag plays
the same role as the held-bit delay inside the coin extractor: it keeps
every output prefix exactly uniform even though the walk's future is
correlated with its past.

All forests of a session share one arena: state ``q``'s forest is the
die forest of :mod:`debias.dice` at base ``q << w``, ``w`` being the word
width, so its slots, routes (one per state and exit), counter trees and
views are those of a die session, and so is its item stream, which
counts the steps and feeds each route's deliveries, flat, to the arena's
one loop, :meth:`debias.coin.Arena.feed`.  The
session adds only the lag: per step it moves ``pending`` and
``last_state`` on and gives the stream the route of the parked exit the
step delivers, or an empty route.  It keeps no exit count: every exit
delivered to a state's forest reaches the forest's root slot, which is
never a counter tree, so the symbols that root received, read from the
arena, are the forest's ``faces_consumed``.  Nothing is sized by
``n_states``, so a large state space costs only what the walk visits.
``pending`` maps each state left so far to its parked exit, and
``forests`` each state to a :class:`ForestView`: each access reads every
tree in one pass, in time linear in the nodes plus the released bits,
into records that keep the values of that access.

``n_states`` and every state are ints, not bools, as every count and
index in the package is.  A bad ``n_states`` or depth cap raises
``ValueError`` at construction, and a state outside ``0..n_states-1``
raises :class:`UnknownState`, a ``ValueError`` like a bad coin symbol or
die face, with the states before it consumed.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .coin import TreeView, _is_count
from .dice import _Forests


_NO_ROUTE = ()  # the route of a step that delivers nothing


class UnknownState(ValueError):
    """A state index outside ``0..n_states-1`` (or a bool) was fed to the
    session."""

    def __init__(self, state: object, n_states: int) -> None:
        self.state = state
        self.n_states = n_states
        super().__init__(f"state {state!r} not in 0..{n_states - 1}")


def exit_stream(states: Sequence[int], state: int) -> list[int]:
    """The successors of every occurrence of ``state`` in a walk.

    >>> exit_stream([3, 1, 3, 2, 0, 1, 0], 3)
    [1, 2]

    A state the walk never leaves has none; a ``state`` that is not an
    int of at least 0 (a bool included) raises ``ValueError``.
    """
    if not _is_count(state):
        raise ValueError(f"state must be a nonnegative int, got {state!r}")
    return [states[j + 1] for j in range(len(states) - 1) if states[j] == state]


class ForestView(NamedTuple):
    """One state's forest in a :class:`MarkovExtractor`, as one read found it.

    ``faces_consumed`` counts the exits delivered to it, ``trees`` maps
    each used slot's ``H``/``T`` prefix to a :class:`debias.coin.TreeView`,
    and ``output`` holds the bits those trees released, in order.
    """

    faces_consumed: int
    trees: dict[str, TreeView]
    output: list[int]


class MarkovExtractor(_Forests):
    """Incremental debiasing session over a walk on states ``0..n-1``.

    ``forests`` (the per-state forests) and ``pending`` (the parked exit
    per state) are exposed for inspection; states never visited have no
    entry in either.

    The first state fed only records where the walk starts, and delivers
    nothing.  Each later state parks the new exit of the previous state
    and delivers the exit that was already parked there, if any.  A state
    outside ``0..n_states-1`` (or a bool) raises :class:`UnknownState`.
    """

    def __init__(self, n_states: int, depth_limit: int | None = None) -> None:
        if not _is_count(n_states, 2):
            raise ValueError(f"n_states must be an int >= 2, got {n_states!r}")
        super().__init__(n_states, depth_limit)
        self.pending: dict[int, int] = {}
        self.last_state: int | None = None

    @property
    def n_states(self) -> int:
        """States of the chain: ``m``, the faces of each state's die."""
        return self.m

    @property
    def forests(self) -> dict[int, ForestView]:
        got, roots, w = self._received(), self._roots, self.width  # root slot q << w | 1: never a counter
        by_state = self._trees_by_forest()
        return {q: ForestView(got[roots[q << w | 1]], trees, bits) for q, (bits, trees) in by_state.items()}

    @property
    def symbols_consumed(self) -> int:
        """Steps of the walk consumed so far."""
        return self._fed

    def _routes(self, states: Iterable[int]) -> Iterator[tuple]:
        """Per step, the route of the parked exit it delivers, or an empty
        route if it delivers none; ``pending`` and ``last_state`` move on
        first.  An unknown state raises :class:`UnknownState`."""
        pending, routes, n_states, w = self.pending, self._route_of, self.m, self.width
        for state in states:
            if type(state) is not int or not 0 <= state < n_states:  # off the fast path
                if not (_is_count(state) and state < n_states):
                    raise UnknownState(state, n_states)
            prev, self.last_state = self.last_state, state
            if prev is None:  # the walk's start: nothing to deliver
                yield _NO_ROUTE
                continue
            parked = pending.get(prev)
            pending[prev] = state
            if parked is None:  # first exit from prev: park it, deliver nothing
                yield _NO_ROUTE
            else:
                yield routes.get(prev << w | parked) or self._route(prev << w, parked)

    def clone(self) -> MarkovExtractor:
        """Independent copy; processing one never affects the other."""
        dup = super().clone()
        dup.pending = self.pending.copy()
        dup.last_state = self.last_state
        return dup

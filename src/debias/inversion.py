"""Inverting an extraction trace back to the symbols that produced it.

An unlimited-depth tree snapshot (:class:`debias.coin.TraceNode`) retains
everything about its input.  Each node's received sequence can be rebuilt
bottom-up: the left child's history says, pair by pair, whether the node
saw an unequal pair (left symbol ``H``) or an equal pair (left symbol
``T``).  Unequal pairs are filled in from the bits the node decided, in
order (1 -> ``HT``, 0 -> ``TH``); equal pairs are filled in from the right
child's history (``H`` -> ``HH``, ``T`` -> ``TT``); a held ``H``/``T``
label is the trailing unpaired symbol.  Applying this at the root yields
the exact input sequence.

Because the input is pinned down by (tree shape, labels, per-node bit
logs), substituting any same-length bit values for the logs and running
the same rebuild produces a valid input sequence again: one that is a
permutation of the original (same symbol counts, hence equally probable
under any i.i.d. source) with the same final symbol, and that extracts
back to the same tree with the substituted logs.  This is what makes the
released bits exchangeable, and it is exposed as
:func:`flip_and_rebuild`, which checks the substitutions as
:func:`replace_logs` does and then runs the rebuild on the original
trace, reading each substituted log by its node path instead of copying
the tree.

Only unlimited-depth traces can be inverted.  A depth-limited trace
discards the messages its capped nodes would have forwarded, and the
rebuild cannot always tell: it raises :class:`InconsistentTrace` where
the books do not balance, but a capped trace can also rebuild, with no
error, into a shorter input that is wrong.  The snapshot of
``CoinExtractor(0)`` fed ``HH`` rebuilds to ``''``, and so does that of
``CoinExtractor(1)`` fed ``HHHH``.

:func:`replace_logs` and :func:`flip_and_rebuild` check every
replacement log before any node is copied or rebuilt, and each refusal is
a ``ValueError``: an unknown path, a non-bit, or a wrong length
(:class:`LengthMismatch`, a ``ValueError`` subclass).  A trace that no
input can have produced raises :class:`InconsistentTrace` instead, which
is not a ``ValueError``: the fault is in the trace, found by the rebuild.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .coin import (
    EMPTY,
    HEADS,
    HOLD_ONE,
    HOLD_ZERO,
    LABELS,
    TAILS,
    CoinExtractor,
    TraceNode,
)


class InconsistentTrace(Exception):
    """The snapshot cannot have been produced by any input sequence."""

    def __init__(self, path: str, detail: str) -> None:
        self.path = path
        self.detail = detail
        super().__init__(f"inconsistent trace at node {path or '<root>'}: {detail}")


class LengthMismatch(ValueError):
    """A replacement bit log does not match the original log's length."""

    def __init__(self, path: str, expected: int, got: int) -> None:
        self.path = path
        self.expected = expected
        self.got = got
        super().__init__(
            f"log at node {path or '<root>'} has {expected} bits, replacement has {got}"
        )


def reconstruct(trace: TraceNode) -> str:
    """Rebuild the exact input sequence from an unlimited-depth snapshot.

    >>> from debias.coin import CoinExtractor
    >>> s = CoinExtractor(); s.process_all("HTTTHT")
    [1, 1]
    >>> reconstruct(s.snapshot())
    'HTTTHT'

    Only such a snapshot can be inverted.  A depth-limited one may raise
    :class:`InconsistentTrace`, or return a shorter, wrong input with no
    error:

    >>> capped = CoinExtractor(0); capped.process_all("HH")
    []
    >>> reconstruct(capped.snapshot())
    ''
    """
    return _node_history(trace, "", {})


def _node_history(node: TraceNode, path: str, logs: Mapping[str, tuple[int, ...]]) -> str:
    if node.label not in LABELS:
        raise InconsistentTrace(path, f"unknown label {node.label!r}")
    log = logs.get(path)  # a substituted log, already checked by _checked_logs
    if log is None:
        log = node.bit_log
        if any(b not in (0, 1) for b in log):
            raise InconsistentTrace(path, f"bit log contains non-bits: {log!r}")

    # Every bit this node has decided: released ones, then a held one.
    decided = list(log)
    if node.label in (HOLD_ZERO, HOLD_ONE):
        decided.append(int(node.label))

    if node.left is None and node.right is None:
        if decided:
            raise InconsistentTrace(path, "node decided bits but forwarded nothing")
        return node.label if node.label in (HEADS, TAILS) else ""
    if node.left is None or node.right is None:
        raise InconsistentTrace(path, "children must exist in pairs")

    left_hist = _node_history(node.left, path + "L", logs)
    right_hist = _node_history(node.right, path + "R", logs)

    # One left symbol per completed pair; unequal pairs account for the
    # decided bits, equal pairs for the right child's symbols.
    if len(left_hist) != len(decided) + len(right_hist):
        raise InconsistentTrace(
            path,
            f"left history has {len(left_hist)} symbols, expected "
            f"{len(decided)} decided bits + {len(right_hist)} repeats",
        )

    pairs: list[str] = []
    bit_i = 0
    rep_i = 0
    for s in left_hist:
        if s == HEADS:
            if bit_i >= len(decided):
                raise InconsistentTrace(path, "more unequal pairs than decided bits")
            pairs.append("HT" if decided[bit_i] else "TH")
            bit_i += 1
        else:
            if rep_i >= len(right_hist):
                raise InconsistentTrace(path, "more equal pairs than repeated symbols")
            pairs.append("HH" if right_hist[rep_i] == HEADS else "TT")
            rep_i += 1

    if node.label in (HEADS, TAILS):
        pairs.append(node.label)  # trailing unpaired symbol
    return "".join(pairs)


def collect_logs(trace: TraceNode) -> dict[str, tuple[int, ...]]:
    """Map every node path ('' = root, then 'L'/'R' steps) to its bit log."""
    return {path: node.bit_log for path, node in trace.walk()}


def _checked_logs(
    trace: TraceNode, new_logs: Mapping[str, Sequence[int]]
) -> dict[str, tuple[int, ...]]:
    """``new_logs`` as tuples, after the checks :func:`replace_logs` names;
    the per-node checks run in preorder."""
    nodes = dict(trace.walk())
    unknown = set(new_logs) - nodes.keys()
    if unknown:
        raise ValueError(f"no node at path(s) {sorted(unknown)!r}")
    logs = {}
    for path, node in nodes.items():
        if path in new_logs:
            log = logs[path] = tuple(new_logs[path])
            if len(log) != len(node.bit_log):
                raise LengthMismatch(path, len(node.bit_log), len(log))
            if any(b not in (0, 1) for b in log):
                raise ValueError(f"replacement log at {path or '<root>'} contains non-bits")
    return logs


def replace_logs(trace: TraceNode, new_logs: Mapping[str, Sequence[int]]) -> TraceNode:
    """Copy of the snapshot with some nodes' released bits substituted.

    ``new_logs`` maps node paths to replacement logs; unmentioned nodes
    keep their bits.  Every refusal is a ``ValueError``: an unknown path,
    a replacement holding a non-bit, or one whose length differs from the
    original log's (:class:`LengthMismatch`).  Held bits live in labels,
    not logs, and are never touched.
    """
    return _substitute(trace, "", _checked_logs(trace, new_logs))


def _substitute(node: TraceNode, path: str, logs: Mapping[str, tuple[int, ...]]) -> TraceNode:
    return TraceNode(
        label=node.label,
        bit_log=logs.get(path, node.bit_log),
        left=_substitute(node.left, path + "L", logs) if node.left else None,
        right=_substitute(node.right, path + "R", logs) if node.right else None,
    )


def flip_and_rebuild(trace: TraceNode, new_logs: Mapping[str, Sequence[int]]) -> str:
    """Substitute released bits, then rebuild the input they imply.

    The result is a permutation of the trace's original input with the
    same final symbol, and extracting from it reproduces the same tree
    shape and labels with exactly the substituted logs.
    """
    return _node_history(trace, "", _checked_logs(trace, new_logs))


def equivalent(x: Sequence[str], y: Sequence[str]) -> bool:
    """Whether two input sequences are bit-flip images of each other.

    True iff unlimited-depth extraction gives both the same tree shape,
    the same labels, and the same number of released bits at every node;
    the released bit values themselves are allowed to differ.
    """
    shapes = []
    for symbols in (x, y):
        session = CoinExtractor()
        session.process_all(symbols)
        shapes.append([(path, node.label, len(node.bit_log))
                       for path, node in session.snapshot().walk()])
    return shapes[0] == shapes[1]

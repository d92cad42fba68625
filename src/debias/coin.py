"""Streaming extraction of unbiased bits from a biased two-symbol source.

The extractor maintains a binary tree of tiny von Neumann units.  The root
consumes the raw ``H``/``T`` stream two symbols at a time.  A classic von
Neumann debiaser outputs one bit per discordant pair and discards
everything else; here nothing is discarded.  Every completed pair forwards
its parity to the node's left child (equal pair -> ``T``, unequal pair ->
``H``) and every equal pair additionally forwards the repeated symbol to
the right child.  Each child applies the same rules to the stream it
receives, so the recycled sub-streams are themselves debiased and almost
no entropy is lost.

One twist makes the output a faithful stream: a node that completes an
unequal pair does not emit its bit immediately.  It holds the bit in its
label and releases it when the node receives its next symbol.  Output
produced this way is uniform for every prefix length, not just in the
limit, and processing a prefix of the input always yields a prefix of the
eventual output.

``depth_limit`` caps the recycling depth: a node at the cap applies the
label rules (so it still converts held bits) but drops the messages that
would go to its children.  ``depth_limit=0`` reduces the tree to the root,
i.e. plain von Neumann extraction with the one-symbol release delay.
Memory grows with the tree, and only a depth cap bounds it, at
``2**(d+1) - 1`` nodes per tree for ``depth_limit=d``: at unlimited depth
the height grows about logarithmically with the input length, but the
node count grows almost linearly.

The session stores the tree as flat int-coded lists (an arena), not as
node objects.  Node ``i`` has a label code (the index into ``LABELS``:
0 empty, 1 held ``H``, 2 held ``T``, 3 holding bit 0, 4 holding bit 1)
and a child slot: the index of its left child once its children exist,
and ``-1 - room`` before, where ``room`` is the number of levels the depth
cap still allows below the node.  Children are allocated in pairs, so the
right child is the next index, and unlimited depth needs no ``2**depth``
index space.  Symbols are coded like the labels that hold them (``H`` ->
1, ``T`` -> 2).  Each output bit records the index of the node that
released it; that is all a snapshot needs to rebuild the per-node bit
logs.  A delivery and everything it forwards run on an explicit stack, in
the same depth-first, left-before-right order as the recursive
definition.  ``H``/``T`` and the string labels exist only at the edges:
:func:`node_update`, :class:`TraceNode` and ``snapshot()``.  The lists
belong to :class:`Arena`, which holds any number of trees, each reached
from its own root: a coin session is the one-tree case, and a dice or
Markov session keeps all of its trees in one arena (see
:mod:`debias.dice`).  One reader makes every :class:`TreeView`: it reads
every tree of the arena in one pass, in time linear in the nodes plus the
released bits.  A coin ``snapshot()`` fills only the per-node bit logs,
since it keeps no view.

One loop, :meth:`Arena.feed`, steps every coin, dice and Markov
session.  It iterates one flat stream of ``(root, symbol code)``
deliveries from the session class's ``_deliveries``, and per delivery
does only the node rules and the record of the bit's node: it counts
neither items nor deliveries.  The stream counts the items and stops
after the item whose bits reach a requested length, so the loop learns
nothing of items.  A coin ``str`` fed to the end is coded in C (``H`` ->
1, ``T`` -> 2) and paired with root 0, so no Python code runs per symbol
outside the loop; anything else goes one symbol at a time.  The dice
and Markov sessions share one stream, which flattens the cached route of
each face or delivered (state, exit) pair, one flat tuple of deliveries,
counter roots included (see :mod:`debias.dice`).  The loop runs with the
arena in locals, and lets an empty root take its symbol without entering
the cascade (about half of all coin symbols touch only the root).
``feed`` is the only path that steps a session: :meth:`Arena.process` is
a one-item ``feed``, and :func:`take_bits` and the exact oracle of
:mod:`debias.oracle` drive every session type in the package through
``feed``.  The loop has a compiled twin, the C extension
:mod:`debias._arena`, which makes the same deliveries on the same lists
and dict.  ``feed`` hands the stream to it whenever it is loaded, so
every session and every path goes through the one fork: ``str`` batches,
symbol by symbol, routes, stops, bad items and the oracle's one-item
feeds.  It is built from ``_arena.c`` on the first import that finds no
build of the current source (see :mod:`debias._build`); without a
working C compiler ``_kernel`` is None and the Python loop, which is the
reference the tests hold the kernel to, runs with the same results.

``messages_total``, the number of node deliveries, is derived from the
arena on each read.  One backward pass over the nodes,
:meth:`Arena._received`, gives the symbols each node received: a node
with children received twice the symbols its left child received, plus
one if it holds a pending symbol, and only a node at the cap keeps a
count, of the pairs it completed.  ``messages_total`` sums it, and a
Markov forest's ``faces_consumed`` reads it at the forest's root.  A
counter tree, one only ever fed ``T`` (a fixed-bit slot of a die), is a
root with no room below it, which the loop steps like any other node at
the cap, so the symbols it received are its count (see
:meth:`Arena._counted`).  One closed form, :func:`_counter_deliveries`,
gives the deliveries those symbols made in the full tree the root stands
for: ``messages_total`` counts it in place of the root's count, and
:meth:`Arena.process`, which counts an item's deliveries by a walk of the
nodes the item delivered to, adds its step for a counter root.

Every count, index and depth cap that a session, :func:`take_bits`,
:func:`extract_bits`, a verifier of :mod:`debias.oracle` or an analysis
function takes (a depth limit, a bit count, a horizon, a die's ``m``, a
face, a state, a feed's ``until``) is an ``int`` and not a ``bool``,
although ``bool`` subclasses ``int``.  A bad one raises a ``ValueError``
(a :class:`debias.analysis.DomainError` in :mod:`debias.analysis`) before
any work is done, and a bad item fed to a session raises a ``ValueError``
with the items before it consumed.  ``until`` is a target, so it may be
negative: one the output already reaches pulls no item.
"""

from __future__ import annotations

import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Sequence

HEADS = "H"
TAILS = "T"
EMPTY = "-"  # waiting for the first symbol of a pair
HOLD_ZERO = "0"  # holding an output bit, released on the next delivery
HOLD_ONE = "1"

SYMBOLS = (HEADS, TAILS)
LABELS = (EMPTY, HEADS, TAILS, HOLD_ZERO, HOLD_ONE)


class NodeUpdate(NamedTuple):
    """Effect of delivering one symbol to a node in a given label state."""

    label: str  # label the node takes after the delivery
    bit: int | None  # output bit released, if any
    to_left: str | None  # symbol forwarded to the left child (pair parity)
    to_right: str | None  # symbol forwarded to the right child (repeated value)


# The complete transition table.  A node label is either EMPTY (no symbol
# pending), a held first symbol (H/T), or a held output bit (0/1).
#
#   (EMPTY, y)        -> hold y, forward nothing
#   (held bit b, y)   -> release b, then hold y
#   (H, H) / (T, T)   -> equal pair: parity T left, repeated symbol right
#   (H, T)            -> unequal pair: hold bit 1, parity H left
#   (T, H)            -> unequal pair: hold bit 0, parity H left
_RULES: dict[tuple[str, str], NodeUpdate] = {
    (EMPTY, HEADS): NodeUpdate(HEADS, None, None, None),
    (EMPTY, TAILS): NodeUpdate(TAILS, None, None, None),
    (HOLD_ZERO, HEADS): NodeUpdate(HEADS, 0, None, None),
    (HOLD_ZERO, TAILS): NodeUpdate(TAILS, 0, None, None),
    (HOLD_ONE, HEADS): NodeUpdate(HEADS, 1, None, None),
    (HOLD_ONE, TAILS): NodeUpdate(TAILS, 1, None, None),
    (HEADS, HEADS): NodeUpdate(EMPTY, None, TAILS, HEADS),
    (TAILS, TAILS): NodeUpdate(EMPTY, None, TAILS, TAILS),
    (HEADS, TAILS): NodeUpdate(HOLD_ONE, None, HEADS, None),
    (TAILS, HEADS): NodeUpdate(HOLD_ZERO, None, HEADS, None),
}


def node_update(label: str, symbol: str) -> NodeUpdate:
    """Pure single-node transition: what one delivery does to one node.

    Returns the node's next label, the bit released (if the node was
    holding one), and the symbols forwarded to the children (if the
    delivery completed a pair).  Raises ``ValueError`` for anything
    outside the five labels and two symbols.
    """
    try:
        return _RULES[label, symbol]
    except KeyError:
        raise ValueError(f"no rule for label {label!r} receiving symbol {symbol!r}") from None


class StepResult(NamedTuple):
    """Per-symbol outcome: bits released and node deliveries performed."""

    bits: list[int]
    messages: int


class TraceNode(NamedTuple):
    """Immutable snapshot of one node: label, its released bits, children.

    ``bit_log`` records, in order, every bit this node has released.  The
    concatenation of all logs (in release order) equals the extractor's
    output, and together with the labels it determines the node's entire
    input history; see :mod:`debias.inversion`.
    """

    label: str
    bit_log: tuple[int, ...]
    left: TraceNode | None = None
    right: TraceNode | None = None

    def walk(self, path: str = "") -> Iterator[tuple[str, TraceNode]]:
        """Yield ``(path, node)`` preorder; paths are 'L'/'R' strings.

        The walk keeps its own stack, so a tree of any height is walked
        without recursion.
        """
        stack = [(path, self)]
        while stack:
            path, node = stack.pop()
            yield path, node
            if node.right is not None:
                stack.append((path + "R", node.right))
            if node.left is not None:
                stack.append((path + "L", node.left))

    @property
    def depth(self) -> int:
        """Height of this subtree (a lone node has depth 0)."""
        return max(len(path) for path, _ in self.walk())


def _is_count(x: object, low: int = 0) -> bool:
    """True for an int of at least ``low``.  Booleans are not counts,
    although ``bool`` subclasses ``int``: the one rule for every count,
    index and depth cap in the package."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


def check_depth_limit(depth_limit) -> None:
    """Raise ``ValueError`` unless ``depth_limit`` is None or a nonnegative
    int (not a bool)."""
    if depth_limit is not None and not _is_count(depth_limit):
        raise ValueError(f"depth_limit must be None or a nonnegative int, got {depth_limit!r}")


_UNBOUNDED = sys.maxsize  # no bound: ``until`` of a feed to the end, room at unlimited depth


def _stop(until) -> int:
    """The output length at which a ``feed`` stops: ``until``, which may be
    any int but a bool (a target already reached pulls no item), or no
    bound for None.  Anything else raises ``ValueError``."""
    if until is not None and not _is_count(until, -math.inf):
        raise ValueError(f"until must be None or an int, got {until!r}")
    return _UNBOUNDED if until is None else until


def _load_kernel():
    """The compiled delivery loop, :mod:`debias._arena`, or None.

    A build is served only while its modification time equals that of
    ``_arena.c``, which :mod:`debias._build` gives it, so a changed source
    is never served by an old build.  Without a current build one is made
    now; if that fails, the result is None and :meth:`Arena.feed` runs its
    Python loop."""
    base = os.path.join(os.path.dirname(__file__), "_arena")
    try:
        if os.stat(base + ".c").st_mtime_ns == os.stat(base + EXTENSION_SUFFIXES[0]).st_mtime_ns:
            from . import _arena

            return _arena
    except (OSError, ImportError):
        pass
    from ._build import load

    return load()


_kernel = _load_kernel()


# The child slot of a node at the depth cap, which forwards nothing, and of a
# counter root: no room is left below it.  A smaller slot belongs to a node
# with room below it but no children yet; a child index is positive, as the
# first node of an arena is a root and a root is never a child.
_AT_CAP = -1


class Session:
    """Base for the extractor sessions in this package.

    A session keeps its released bits in ``output`` and consumes items
    with ``feed(items, until=None)``, the entry point of :func:`take_bits`
    and of :meth:`process_all`.  Each session class defines ``feed`` as one
    loop over the items: :class:`Arena` has the one delivery loop of the
    tree sessions, and the von Neumann baseline a loop of its own.  Both
    get ``process`` as a one-item ``feed``.
    """

    output: list[int]

    def process_all(self, items: Iterable) -> list[int]:
        """Consume a whole sequence; return the bits it released."""
        n0 = len(self.output)
        self.feed(items)
        return self.output[n0:]


class Arena(Session):
    """Base of the tree sessions: one set of int-coded node lists holding
    any number of trees, each reached from its own root.

    Node ``i`` has a label code ``_label[i]`` and a child slot
    ``_kids[i]``: the index of its left child (the right child is the next
    index), or ``-1 - room`` while it has none, where ``room`` is the number
    of levels the cap still allows below it (``sys.maxsize`` at unlimited
    depth).  A node at the cap holds ``_AT_CAP``, room 0.  ``_src[j]`` is
    the node that released ``output[j]``.  The nodes of different trees
    interleave in the lists.

    A tree fed only ``T`` never completes an unequal pair, so it releases
    nothing and is fully described by the number of symbols it was fed.
    Such a tree is one root with no room below it, a counter (see
    :meth:`_counted`).  A subclass maps the key of each tree to its root in
    ``_roots``.

    :meth:`feed` is the one loop that steps every subclass, on the flat
    stream of deliveries of the subclass's ``_deliveries``, which also
    counts the items consumed in ``_fed``.  The loop keeps one number: the
    pairs each node at the cap completed, in ``_pairs``, from which
    :attr:`messages_total` is derived.  :meth:`process` is a one-item
    ``feed``.
    """

    def __init__(self, depth_limit: int | None) -> None:
        check_depth_limit(depth_limit)
        self.depth_limit = depth_limit
        self.output: list[int] = []
        self._label: list[int] = []
        self._kids: list[int] = []
        self._src: list[int] = []
        self._pairs: dict[int, int] = {}
        self._fed = 0

    def _new_root(self, counter: bool = False) -> int:
        """Allocate an empty tree; return the index of its root.  The root
        of a ``counter`` tree, one only ever fed ``T``, has no room below
        it (see :meth:`_counted`)."""
        i = len(self._label)
        self._label.append(0)
        d = self.depth_limit
        room = 0 if counter else _UNBOUNDED if d is None else min(d, _UNBOUNDED)  # no tree is that tall
        self._kids.append(-1 - room)
        return i

    def _counted(self, roots: Iterable[int]) -> dict[int, int]:
        """The symbols fed to each counter tree among the trees at
        ``roots``, by its root.

        A tree fed only ``T`` completes only equal pairs, so it releases
        nothing and is fully described by the number of symbols fed to it:
        its root is kept at the cap, where the loop counts its pairs in
        ``_pairs``, and :func:`_counter_deliveries` and :func:`counter_tree`
        give the deliveries and the snapshot of the full tree it stands
        for.  So a counter is a root at the cap of a session whose cap
        leaves room; at depth 0 the closed forms are the node rules, and a
        counter is a one-node tree like any other."""
        if self.depth_limit == 0:
            return {}
        label, kids, pairs = self._label, self._kids, self._pairs
        return {r: 2 * pairs.get(r, 0) + (label[r] == 2) for r in roots if kids[r] == _AT_CAP}

    def process(self, item) -> StepResult:
        """Consume one item through ``feed``; return the bits it released
        and the number of node deliveries it made.

        An item delivers to a node at most once, and every delivery changes
        the node's label, so the roots the item delivered to are those whose
        label changed.  The label a delivery leaves tells what the node
        forwarded: a pair's parity to the left child if it holds a bit, and
        also the repeated symbol to the right if it is empty, none if it
        holds ``H`` or ``T``.  So the deliveries are counted by a walk of the
        nodes delivered to, and a counter root delivered to adds the step of
        :func:`_counter_deliveries` past the one delivery the walk counts."""
        label, kids = self._label, self._kids
        roots = self._roots.values()  # a live view: it shows the roots the item makes
        n0, before = len(self.output), {r: label[r] for r in roots}
        self.feed((item,))
        todo = [r for r in roots if label[r] != before.get(r, 0)]
        counted = self._counted(todo)  # before the walk adds children, which may be at the cap
        for i in todo:  # grows by the children each delivered node forwarded to
            k = kids[i]
            if k > 0 and label[i] == 0:  # an equal pair: parity left, symbol right
                todo += (k, k + 1)
            elif k > 0 and label[i] > 2:  # an unequal pair: parity left
                todo.append(k)
        d = self.depth_limit
        steps = sum(_counter_deliveries(c, d) - _counter_deliveries(c - 1, d) - 1 for c in counted.values())
        return StepResult(self.output[n0:], len(todo) + steps)

    @property
    def messages_total(self) -> int:
        """Node deliveries made so far, derived from the arena in one pass
        (see :meth:`_received`), with each counter root's count replaced by
        the closed form of the tree it stands for."""
        d, counted = self.depth_limit, self._counted(self._roots.values())
        return sum(self._received()) + sum(_counter_deliveries(c, d) - c for c in counted.values())

    def _received(self) -> list[int]:
        """The number of symbols each node received, in one backward pass.

        A node at the cap keeps the number of pairs it completed in
        ``_pairs``; every other node's count follows from its children:
        it completed as many pairs as its left child received symbols
        (none while it has no children), and it received two symbols per
        pair, plus one if it holds a pending ``H`` or ``T``.  Children come
        after their parent, so one backward pass gives every node's count.
        """
        label, kids, pairs = self._label, self._kids, self._pairs
        got = [0] * len(kids)
        for i in range(len(kids) - 1, -1, -1):
            k = kids[i]
            got[i] = 2 * (got[k] if k > 0 else pairs.get(i, 0)) + (0 < label[i] < 3)
        return got

    def feed(self, items: Iterable, until: int | None = None) -> int:
        """Make the deliveries of each item in turn until ``items`` runs out
        or ``len(output)`` reaches ``until``; return the number of items
        consumed.

        ``self._deliveries(items, stop)`` is one flat stream of ``(root,
        symbol code)`` deliveries, item after item, counter roots included,
        and the loop makes them and counts nothing.  The stream is the
        session's: it counts the items in ``_fed``, stops after the item
        that brings ``len(output)`` to ``stop``, pulling no item past it,
        and raises at a bad item, which leaves the session as it was after
        the items before it.  An ``until`` that is not None or an int (a
        bool included) raises ``ValueError`` before any item is pulled.
        Each delivery runs with everything it forwards, depth first and
        left before right: a right child's symbol waits on a stack while
        the left subtree runs, unless the child is empty and so takes it at
        once (an empty node releases and forwards nothing, so the order
        cannot show).  A node at the cap forwards nothing, and counts its
        pair in ``_pairs``.  While :mod:`debias._arena` is loaded, its
        compiled copy of the loop below makes the deliveries.
        """
        out = self.output
        stop = _stop(until)
        if len(out) >= stop:
            return 0
        fed = self._fed
        label, kids, src, pairs = self._label, self._kids, self._src, self._pairs
        if _kernel is not None:  # the same loop, compiled
            _kernel.feed(self._deliveries(items, stop), label, kids, src, pairs, out)
            return self._fed - fed
        stack: list[int] = []  # waiting right-child deliveries as flat (node, symbol) pairs
        for i, y in self._deliveries(items, stop):
            held = label[i]
            if not held:  # an empty root holds y; nothing else happens
                label[i] = y
                continue
            while True:  # deliver y to node i, which holds ``held``
                if held == 0 or held > 2:  # release any held bit, hold y
                    if held:
                        out.append(held - 3)
                        src.append(i)
                    label[i] = y
                else:
                    k = kids[i]
                    if k == _AT_CAP:  # a pair at the cap: counted, nothing forwarded
                        label[i] = 0 if held == y else 5 - held
                        pairs[i] = pairs.get(i, 0) + 1
                    else:
                        if k < 0:  # its first pair: make its children, one level less room each
                            kids += (k + 1, k + 1)
                            k = kids[i] = len(label)
                            label += (0, 0)
                        if held == y:  # equal pair: parity T to the left, y to the right
                            label[i] = 0
                            if label[k + 1]:
                                stack.append(k + 1)
                                stack.append(y)
                            else:
                                label[k + 1] = y
                            i, y = k, 2
                        else:  # unequal pair: hold bit 1 for HT, 0 for TH; parity H to the left
                            label[i] = 5 - held
                            i, y = k, 1
                        held = label[i]
                        continue
                if not stack:
                    break
                y = stack.pop()
                i = stack.pop()
                held = label[i]
        return self._fed - fed

    def _read(self, forests: Sequence[Sequence[int]]) -> list[tuple[list[int], list[TreeView]]]:
        """Read the trees at ``forests``, lists of roots that together hold
        every root: per forest, the bits its trees released, in output
        order, and the view of each tree.

        One of the two readers of ``_src``, with :meth:`_nodes`: a pass over
        the nodes marks each node's tree (children come after their parent),
        one over ``output`` fills the bit logs and the bit lists, and
        :meth:`_nodes` builds the trace nodes.
        """
        kids = self._kids
        roots = [r for f in forests for r in f]
        n = len(roots)
        home = [q for q, f in enumerate(forests, n) for _ in f]  # tree -> its forest's bits list
        tree = [0] * len(kids)
        for t, r in enumerate(roots):
            tree[r] = t
        for i, k in enumerate(kids):
            if k > 0:
                tree[k] = tree[k + 1] = tree[i]
        logs: list[list[int]] = [[] for _ in kids]
        bits: list[list[int]] = [[] for _ in range(n + len(forests))]  # per tree, then per forest
        for bit, i in zip(self.output, self._src):
            logs[i].append(bit)
            t = tree[i]
            bits[t].append(bit)
            bits[home[t]].append(bit)
        nodes = self._nodes(logs)
        for r, c in self._counted(roots).items():
            nodes[r] = counter_tree(c, self.depth_limit)
        views = iter([TreeView(bits[t], nodes[r]) for t, r in enumerate(roots)])
        return [(bits[q], [next(views) for _ in f]) for q, f in enumerate(forests, n)]

    def _nodes(self, logs: Sequence[Sequence[int]] | None = None) -> list[TraceNode]:
        """The trace node of every node, built back to front (children come
        after their parent), from each node's bit log; without ``logs``,
        the logs are read from ``_src``."""
        label, kids = self._label, self._kids
        if logs is None:
            logs = [[] for _ in kids]
            for bit, i in zip(self.output, self._src):
                logs[i].append(bit)
        nodes: list = [None] * len(kids)
        for i in range(len(kids) - 1, -1, -1):
            k = kids[i]
            nodes[i] = TraceNode(LABELS[label[i]], tuple(logs[i]), *(nodes[k : k + 2] if k > 0 else ()))
        return nodes

    def clone(self):
        """Independent deep copy; processing one never affects the other.

        Made without ``__init__``: a subclass's ``clone`` extends this one
        with copies of the attributes it adds."""
        dup = object.__new__(self.__class__)
        dup.depth_limit = self.depth_limit
        dup.output = self.output.copy()
        dup._label = self._label.copy()
        dup._kids = self._kids.copy()
        dup._src = self._src.copy()
        dup._pairs = self._pairs.copy()
        dup._fed = self._fed
        return dup


def _counter_deliveries(fed: int, depth_limit: int | None) -> int:
    """Node deliveries made by ``fed`` symbols ``T`` fed to a counter tree
    with the given depth cap: the ``2**j`` nodes of level ``j`` get
    ``fed >> j`` symbols each, down to the cap."""
    levels = fed.bit_length() if depth_limit is None else min(fed.bit_length(), depth_limit + 1)
    return sum(fed >> j << j for j in range(levels))


def counter_tree(fed: int, depth_limit: int | None) -> TraceNode:
    """Snapshot of the tree that ``fed`` symbols ``T`` grow in a session
    with the given depth cap.

    Every pair such a tree completes is equal, so a node fed ``c`` symbols
    holds ``T`` if ``c`` is odd and is empty otherwise, has released
    nothing, and, below the cap, has two children fed ``c // 2`` each once
    ``c >= 2``.  Both children are the same (immutable) node.
    """
    node = TraceNode(TAILS if fed & 1 else EMPTY, ())
    if fed < 2 or depth_limit == 0:
        return node
    kid = counter_tree(fed // 2, None if depth_limit is None else depth_limit - 1)
    return node._replace(left=kid, right=kid)


class TreeView(NamedTuple):
    """One tree of an arena session, as one read of the session found it.

    ``output`` holds the bits the tree's nodes released, in order, and
    ``tree`` (also returned by :meth:`snapshot`) its :class:`TraceNode`.
    Both equal what a :class:`CoinExtractor` fed the tree's own sub-stream
    reports, and keep their values however the session moves on.
    """

    output: list[int]
    tree: TraceNode

    def snapshot(self) -> TraceNode:
        return self.tree


# The code of each byte of an ASCII-encoded batch: 1 for ``H``, 2 for
# ``T``, 0 for every other byte.
_CODES = bytes(1 if b == ord(HEADS) else 2 if b == ord(TAILS) else 0 for b in range(256))


class CoinExtractor(Arena):
    """Incremental debiasing session over an ``H``/``T`` symbol stream.

    Feed symbols with :meth:`feed` or :meth:`process`; released bits
    accumulate in ``output``.  The session is deterministic: the same
    symbol sequence always yields the same output, tree, and message
    count, however it is split between calls.  A symbol other than
    ``H``/``T`` raises ``ValueError``.

    ``depth_limit=None`` means unlimited recycling depth.  The session is
    the one-tree case of :class:`Arena`, with its root at index 0.
    """

    _roots = MappingProxyType({1: 0})  # its one tree, under a die forest's root slot key

    def __init__(self, depth_limit: int | None = None) -> None:
        super().__init__(depth_limit)
        self._new_root()

    @property
    def symbols_consumed(self) -> int:
        """Symbols consumed so far."""
        return self._fed

    def _deliveries(self, symbols: Iterable[str], stop: int) -> Iterator[tuple[int, int]]:
        """The delivery of each symbol to the root; ``ValueError`` at one
        that is not ``H``/``T``.

        A ``str`` fed to the end becomes its codes in C, checked in one
        pass: the whole batch is consumed.  Any other input, a stop, or a
        bad symbol takes the per-symbol path."""
        if type(symbols) is str and stop == _UNBOUNDED:
            codes = symbols.encode("ascii", "replace").translate(_CODES)
            if 0 not in codes:
                self._fed += len(codes)
                return zip(repeat(0), codes)
        return self._per_symbol(symbols, stop)

    def _per_symbol(self, symbols: Iterable[str], stop: int) -> Iterator[tuple[int, int]]:
        """The deliveries of ``symbols`` one at a time, counted as they end."""
        out, n = self.output, 0
        try:
            for s in symbols:
                if s == HEADS:
                    yield 0, 1
                elif s == TAILS:
                    yield 0, 2
                else:
                    raise ValueError(f"symbol must be {HEADS!r} or {TAILS!r}, got {s!r}")
                n += 1
                if len(out) >= stop:
                    return
        finally:
            self._fed += n

    def snapshot(self) -> TraceNode:
        """Immutable copy of the current tree (labels plus bit logs)."""
        return self._nodes()[0]


class SourceExhausted(Exception):
    """The symbol source ended before the requested bits were produced.

    Carries the partial result: ``bits`` released so far, the number of
    ``symbols_consumed``, and the ``requested`` count.
    """

    def __init__(self, bits: list[int], symbols_consumed: int, requested: int) -> None:
        self.bits = bits
        self.symbols_consumed = symbols_consumed
        self.requested = requested
        super().__init__(
            f"source exhausted after {symbols_consumed} symbols "
            f"with {len(bits)} of {requested} requested bits"
        )


def take_bits(session: Session, source: Iterable, k: int | None) -> tuple[list[int], int]:
    """Drive any extractor session until ``k`` new bits are available.

    Works with every session type in this package (coin, dice, Markov,
    von Neumann) through its ``feed``.  Consumes items from ``source``
    lazily and stops as soon as the target is reached; the final item may
    release more than one bit, in which case the surplus stays in the
    session but is not returned.  ``k=None`` drains the whole source and
    returns everything it released, and ``k=0`` pulls no item, as a
    session's ``feed`` pulls none once its output is long enough.

    Returns ``(bits, items_consumed)``.  Raises :class:`SourceExhausted`
    if the source ends first (partial bits attached).  A ``k`` that is
    not None or a nonnegative int (a bool included) raises
    ``ValueError`` before any item is pulled.
    """
    if k is not None and not _is_count(k):
        raise ValueError(f"k must be None or a nonnegative int, got {k!r}")
    base = len(session.output)
    consumed = session.feed(source, None if k is None else base + k)
    bits = session.output[base:]
    if k is None:
        return bits, consumed
    if len(bits) >= k:
        return bits[:k], consumed
    raise SourceExhausted(bits, consumed, k)


def extract_bits(
    source: Iterable[str] | Sequence[str],
    k: int,
    depth_limit: int | None = None,
) -> tuple[list[int], int]:
    """Extract ``k`` unbiased bits from an ``H``/``T`` source.

    Convenience wrapper around a fresh :class:`CoinExtractor`.  Returns
    ``(bits, symbols_consumed)``; consumes no more symbols than needed.

    >>> extract_bits("HTTTHT", 2)
    ([1, 1], 6)
    """
    return take_bits(CoinExtractor(depth_limit), source, k)

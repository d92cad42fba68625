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
session.  It takes each item as a route, the tuple of ``(root, symbol
code)`` deliveries the item makes, from the session class's ``_routes``:
one fixed route per coin symbol, and one per face or (state, exit) pair,
cached by the dice and Markov sessions.  It runs with the arena in locals,
lets an empty root take its symbol without entering the cascade (about
half of all coin symbols touch only the root), and stops as soon as the
output reaches a requested length.  ``feed`` is the only path that steps
a session: :meth:`Arena.process` is a one-item ``feed``, and
:func:`take_bits` and the exact oracle of :mod:`debias.oracle` drive
every session type in the package through ``feed``.

Every count, index and depth cap that a session, :func:`take_bits`,
:func:`extract_bits`, a verifier of :mod:`debias.oracle` or an analysis
function takes (a depth limit, a bit count, a horizon, a die's ``m``, a
face, a state) is an ``int`` and not a ``bool``, although ``bool``
subclasses ``int``.  A bad one raises a ``ValueError`` (a
:class:`debias.analysis.DomainError` in :mod:`debias.analysis`) before any
work is done, and a bad item fed to a session raises a ``ValueError`` with
the items before it consumed.
"""

from __future__ import annotations

import sys
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

# The child slot of a node at the depth cap, which forwards nothing: no room
# is left below it.  A smaller slot belongs to a node with room below it but
# no children yet; a child index is positive, as the first node of an arena
# is a root and a root is never a child.
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
    Such a tree holds no node: it is a count ``_count[c]``, reached through
    the negative root ``~c``, and :func:`counter_tree` builds its snapshot.

    :meth:`feed` is the one loop that steps every subclass, on the routes
    of the subclass's ``_routes``, and ``_fed`` counts the items it
    consumed.  :meth:`process` is a one-item ``feed``.
    """

    def __init__(self, depth_limit: int | None) -> None:
        check_depth_limit(depth_limit)
        self.depth_limit = depth_limit
        self.output: list[int] = []
        self.messages_total = 0
        self._label: list[int] = []
        self._kids: list[int] = []
        self._src: list[int] = []
        self._count: list[int] = []
        self._fed = 0

    def _new_root(self) -> int:
        """Allocate an empty tree; return the index of its root."""
        i = len(self._label)
        self._label.append(0)
        self._kids.append(-1 - (_UNBOUNDED if self.depth_limit is None else self.depth_limit))
        return i

    def _new_counter(self) -> int:
        """Allocate a tree that is only ever fed ``T``; return its root."""
        c = len(self._count)
        self._count.append(0)
        return ~c

    def process(self, item) -> StepResult:
        """Consume one item through ``feed``; return the bits it released
        and the number of node deliveries it made."""
        n0, m0 = len(self.output), self.messages_total
        self.feed((item,))
        return StepResult(self.output[n0:], self.messages_total - m0)

    def feed(self, items: Iterable, until: int | None = None) -> int:
        """Make the deliveries of each item in turn until ``items`` runs out
        or ``len(output)`` reaches ``until``; return the number of items
        consumed.

        ``self._routes(items)`` maps each item to its route, the tuple of
        ``(root, symbol code)`` deliveries it makes, in order, and raises at
        a bad item, which leaves the session as it was after the items
        before it.  Each delivery runs with everything it forwards,
        depth first and left before right: a right child's symbol waits on
        a stack while the left subtree runs, unless the child is empty and
        so takes it at once (an empty node releases and forwards nothing,
        so the order cannot show).  The ``c``-th symbol fed to a counter
        tree makes ``2 * min(c & -c, 2**depth_limit) - 1`` deliveries: it
        reaches all ``2**j`` nodes of level ``j`` when ``2**j`` divides
        ``c``, down to the cap.  A cap of ``sys.maxsize.bit_length()``
        levels or more counts as none, as ``c & -c <= c`` never gets there.
        """
        out = self.output
        stop = _UNBOUNDED if until is None else until
        if len(out) >= stop:
            return 0
        label, kids, src, count, grow = self._label, self._kids, self._src, self._count, self._grow
        d = self.depth_limit
        cap = _UNBOUNDED if d is None or d >= _UNBOUNDED.bit_length() else 1 << d
        stack: list[int] = []  # waiting right-child deliveries as flat (node, symbol) pairs
        n = sent = 0  # items consumed; deliveries made
        try:
            for route in self._routes(items):
                n += 1
                for i, y in route:
                    sent += 1
                    if i < 0:  # a counter tree
                        c = count[~i] = count[~i] + 1
                        sent += 2 * min(c & -c, cap) - 2
                        continue
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
                            if k < _AT_CAP:
                                k = grow(i)
                            if held == y:  # equal pair: parity T to the left, y to the right
                                label[i] = 0
                                if k > 0:
                                    sent += 2
                                    if label[k + 1]:
                                        stack.append(k + 1)
                                        stack.append(y)
                                    else:
                                        label[k + 1] = y
                                    i, y = k, 2
                                    held = label[i]
                                    continue
                            else:  # unequal pair: hold bit 1 for HT, 0 for TH; parity H to the left
                                label[i] = 5 - held
                                if k > 0:
                                    sent += 1
                                    i, y = k, 1
                                    held = label[i]
                                    continue
                        if not stack:
                            break
                        y = stack.pop()
                        i = stack.pop()
                        held = label[i]
                if len(out) >= stop:
                    break
        finally:
            self._fed += n
            self.messages_total += sent
        return n

    def _grow(self, i: int) -> int:
        """Allocate node ``i``'s pair of children, one level less room each;
        return the left index."""
        label, kids = self._label, self._kids
        k = len(label)
        label += (0, 0)
        kids += (kids[i] + 1, kids[i] + 1)
        kids[i] = k
        return k

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
            if r >= 0:
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
        d, count = self.depth_limit, self._count
        views = iter(
            [TreeView(bits[t], nodes[r] if r >= 0 else counter_tree(count[~r], d)) for t, r in enumerate(roots)]
        )
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
        dup.messages_total = self.messages_total
        dup._label = self._label.copy()
        dup._kids = self._kids.copy()
        dup._src = self._src.copy()
        dup._count = self._count.copy()
        dup._fed = self._fed
        return dup


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


# The routes of the two symbols: one delivery each, to the root at index 0.
_HEADS_ROUTE = ((0, 1),)
_TAILS_ROUTE = ((0, 2),)


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

    def __init__(self, depth_limit: int | None = None) -> None:
        super().__init__(depth_limit)
        self._new_root()

    @property
    def symbols_consumed(self) -> int:
        """Symbols consumed so far."""
        return self._fed

    def _routes(self, symbols: Iterable[str]) -> Iterator[tuple[tuple[int, int], ...]]:
        """The route of each symbol; ``ValueError`` at one that is not
        ``H``/``T``."""
        for s in symbols:
            if s == HEADS:
                yield _HEADS_ROUTE
            elif s == TAILS:
                yield _TAILS_ROUTE
            else:
                raise ValueError(f"symbol must be {HEADS!r} or {TAILS!r}, got {s!r}")

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

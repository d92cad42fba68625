"""Extraction from an m-sided loaded die via a forest of coin trees.

Each face value is read as a fixed-width binary word (most significant
bit first, 1 -> ``H``), and the stream of words is sliced by bit position
conditioned on what came before: for every proper prefix of a word there
is one coin tree that receives the bit following that prefix whenever a
face's word starts with it.  Conditioning makes each tree's input i.i.d.,
so the usual guarantees carry over face by face: the bits of a word are
delivered top-down (position 0 first), and whatever each delivery
releases is appended to the shared output in that order.

All trees of a session are roots of one :class:`debias.coin.Arena`.  For
a die of width ``w``, the tree of bit position ``i`` is slot ``(1 << i) |
(face >> (w - i))`` (a leading 1, then the word's first ``i`` bits), and
that bit is delivered as symbol code 1 (``H``) or 2 (``T``).  One arena
can hold several forests of the same width: forest ``q`` keeps slot
``s`` under the key ``q << w | s``.  A die session is forest 0; a
:class:`debias.markov.MarkovExtractor` has one forest per state.  A
face's route, built on the face's first use and cached under ``q << w |
face``, is one flat tuple of the ``(root, symbol code)`` deliveries of
its bits.  Both sessions share one item stream: per item it flattens the
route's deliveries into the arena's one delivery loop,
:meth:`debias.coin.Arena.feed`, which counts nothing, counts the item,
and stops after the item whose bits reach the requested length.  A die
session supplies only the cached route of each checked face, and the
arena derives the deliveries.  Building a route allocates the root of
each slot the face is the first to reach, so slots are allocated in the
order of their first delivery, through a dict keyed as above.  The
slot layout, the route cache, the item stream, the views and the copy of
a forest are defined once, in the private base both sessions share.

Unless ``m`` is a power of two, some slots are fixed-bit: every face
whose word starts with the slot's prefix has bit 0 next (slot ``H`` for
``m = 3``, slots ``H`` and ``HT`` for ``m = 5``).  Such a tree is only
ever fed ``T``, so it never releases a bit, and the arena keeps it as a
counter: one root with no room below it, delivered to like any other
root, whose count stands for the full tree (see
:meth:`debias.coin.Arena._counted`).

No H/T word is built on this path; :func:`binarize` and
:func:`prefix_stream` are the string forms of the same slicing.
``DiceExtractor.trees`` maps each used slot, counters included, to a
:class:`debias.coin.TreeView`: each access reads every tree in one pass,
in time linear in the nodes plus the released bits, into records that
keep the values of that access.  With ``m = 2`` the forest is a single
tree and the session degenerates to
:class:`debias.coin.CoinExtractor` with faces 1/0 read as ``H``/``T``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .coin import HEADS, TAILS, Arena, TreeView, _is_count


def face_width(m: int) -> int:
    """Bits needed to binarize faces ``0..m-1`` (``ceil(log2 m)``)."""
    if not _is_count(m, 2):
        raise ValueError(f"m must be an int >= 2, got {m!r}")
    return (m - 1).bit_length()


def _check_face(face: object, m: int) -> None:
    if not (_is_count(face) and face < m):
        raise ValueError(f"face must be an int in [0, {m}), got {face!r}")


def binarize(face: int, m: int) -> str:
    """Face value as a fixed-width H/T word, MSB first (1 -> H, 0 -> T).

    >>> [binarize(f, 3) for f in range(3)]
    ['TT', 'TH', 'HT']
    """
    w = face_width(m)
    _check_face(face, m)
    return "".join(HEADS if (face >> (w - 1 - i)) & 1 else TAILS for i in range(w))


def prefix_stream(faces: Iterable[int], prefix: str, m: int) -> str:
    """The sub-stream a given forest slot receives: for each face whose
    word starts with ``prefix``, the bit right after it.  A prefix that is
    not a string of ``H``/``T`` shorter than the word width raises
    ``ValueError`` before any face is read."""
    w = face_width(m)
    if not isinstance(prefix, str) or prefix.strip(HEADS + TAILS):
        raise ValueError(f"prefix must be a string of {HEADS!r} and {TAILS!r}, got {prefix!r}")
    ell = len(prefix)
    if ell >= w:
        raise ValueError(f"prefix must be shorter than the word width {w}")
    out = []
    for face in faces:
        word = binarize(face, m)
        if word[:ell] == prefix:
            out.append(word[ell])
    return "".join(out)


def _slot_prefix(slot: int) -> str:
    """The ``H``/``T`` prefix a forest slot conditions on: the bits of
    ``slot`` after its leading 1.

    >>> [_slot_prefix(s) for s in (1, 2, 3, 6)]
    ['', 'T', 'H', 'HT']
    """
    return bin(slot)[3:].replace("1", HEADS).replace("0", TAILS)


class _Forests(Arena):
    """Base of the dice and Markov sessions: die forests over faces
    ``0..m-1`` on one arena, forest ``q`` at the keys ``base | slot`` with
    ``base = q << width``.

    ``_roots`` maps each used key to its root, in the order of the slots'
    first deliveries, and ``_route_of`` maps ``base | face`` to the face's
    route in the forest at ``base``, one flat tuple of deliveries (see
    :meth:`_route`).  A subclass supplies only ``_routes``, the
    route of each item it is fed, to the one item stream,
    :meth:`_deliveries`.
    """

    def __init__(self, m: int, depth_limit: int | None = None) -> None:
        self.m = m
        self.width = face_width(m)
        super().__init__(depth_limit)
        self._roots: dict[int, int] = {}  # base | slot -> root index
        self._route_of: dict[int, tuple] = {}  # base | face -> its route

    def _route(self, base: int, face: int) -> tuple[tuple[int, int], ...]:
        """Build and cache the route of ``face`` in the forest at ``base``:
        the ``(root, symbol code)`` delivery of each of its bits, position 0
        first.

        Each slot the face is the first to reach gets its root here, the
        root of a counter tree if every face with the slot's prefix has the
        next bit 0.
        """
        roots, m, w = self._roots, self.m, self.width
        route = []
        slot = 1
        for sh in range(w - 1, -1, -1):
            key = base | slot
            r = roots.get(key)
            if r is None:
                first = (slot << sh + 1) - (1 << w)  # the smallest face with this slot's prefix
                fixed = m <= first + (1 << sh)  # no face with the prefix has the next bit 1
                r = roots[key] = self._new_root(fixed)
            bit = face >> sh & 1
            route.append((r, 2 - bit))
            slot = slot << 1 | bit
        return self._route_of.setdefault(base | face, tuple(route))

    def _deliveries(self, items: Iterable, stop: int) -> Iterator[tuple[int, int]]:
        """The one item stream of both sessions: yield the deliveries of the
        route that ``_routes`` gives each item and count the item in
        ``_fed``; stop after the item that brings ``len(output)`` to
        ``stop``.  A bad item raises from ``_routes``, with the items before
        it counted."""
        out = self.output
        n = 0
        try:
            for route in self._routes(items):
                n += 1
                yield from route
                if len(out) >= stop:
                    return
        finally:
            self._fed += n

    def _trees_by_forest(self) -> dict[int, tuple[list[int], dict[str, TreeView]]]:
        """Per forest ``q``, from one read of the arena: the bits its trees
        released, in output order, and the views of its used slots, keyed by
        their ``H``/``T`` prefixes, in first-delivery order."""
        w = self.width
        slots: dict[int, dict[str, int]] = {}
        for key, r in self._roots.items():
            slots.setdefault(key >> w, {})[_slot_prefix(key & (1 << w) - 1)] = r
        read = self._read([list(roots.values()) for roots in slots.values()])
        return {q: (bits, dict(zip(roots, views))) for (q, roots), (bits, views) in zip(slots.items(), read)}

    def clone(self):
        """Independent copy; processing one never affects the other."""
        dup = super().clone()
        dup.m = self.m
        dup.width = self.width
        dup._roots = self._roots.copy()
        dup._route_of = self._route_of.copy()  # names only roots both copies have
        return dup


class DiceExtractor(_Forests):
    """Incremental debiasing session over face values ``0..m-1``.

    ``trees`` maps the used forest slots, keyed by the H/T prefix they
    condition on (the root slot's key is the empty string), in the order
    of their first delivery, to their views.  A face outside ``0..m-1``
    (or a bool) raises ``ValueError``.
    """

    @property
    def faces_consumed(self) -> int:
        """Faces consumed so far."""
        return self._fed

    @property
    def trees(self) -> dict[str, TreeView]:
        return self._trees_by_forest().get(0, ([], {}))[1]

    def _routes(self, faces: Iterable[int]) -> Iterator[tuple]:
        """The route of each face; a face outside ``0..m-1`` raises
        ``ValueError``."""
        m, routes = self.m, self._route_of
        for face in faces:
            if type(face) is not int or not 0 <= face < m:  # full check off the fast path
                _check_face(face, m)
            yield routes.get(face) or self._route(0, face)

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
that bit is delivered as symbol code 1 (``H``) or 2 (``T``).  A slot's
root is allocated on its first delivery, through a dict keyed by slot.
No H/T word is built on this path; :func:`binarize` and
:func:`prefix_stream` are the string forms of the same slicing.
``DiceExtractor.trees`` is a read-only view, built on access, of each
used slot's tree.  With ``m = 2`` the forest is a single tree and the
session degenerates to :class:`debias.coin.CoinExtractor` with faces 1/0
read as ``H``/``T``.
"""

from __future__ import annotations

from typing import Iterable

from .coin import _UNBOUNDED, HEADS, TAILS, Arena, TreeView


def face_width(m: int) -> int:
    """Bits needed to binarize faces ``0..m-1`` (``ceil(log2 m)``)."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"m must be an int >= 2, got {m!r}")
    return (m - 1).bit_length()


def _is_index(x: object, n: int) -> bool:
    """True for an int in ``0..n-1``.  Booleans are not indices, although
    ``bool`` subclasses ``int``."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n


def _check_face(face: object, m: int) -> None:
    if not _is_index(face, m):
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
    word starts with ``prefix``, the bit right after it."""
    w = face_width(m)
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


def _deliver(session: Arena, base: int, face: int) -> int:
    """Deliver the bits of ``face``, position 0 first, to the trees of a
    dice or Markov session at slots ``base | slot``; return the number of
    node deliveries made.

    ``session._roots`` maps a slot to its root index and gains an entry on
    a slot's first delivery; ``session.width`` is the word width.
    """
    label, roots = session._label, session._roots
    n = 0
    slot = 1
    for sh in range(session.width - 1, -1, -1):
        bit = face >> sh & 1
        key = base | slot
        r = roots.get(key)
        if r is None:
            r = roots[key] = session._new_root()
        held = label[r]
        if held == 0 or held > 2:  # no pair completed: release any held bit, hold the symbol
            if held:
                session.output.append(held - 3)
                session._src.append(r)
            label[r] = 2 - bit
            n += 1
        else:
            n += session._cascade(r, 2 - bit)
        slot = slot << 1 | bit
    return n


class DiceExtractor(Arena):
    """Incremental debiasing session over face values ``0..m-1``.

    ``trees`` is a read-only view: the used forest slots, keyed by the
    H/T prefix they condition on (the root slot's key is the empty
    string), in the order of their first delivery.
    """

    def __init__(self, m: int, depth_limit: int | None = None) -> None:
        self.m = m
        self.width = face_width(m)
        super().__init__(depth_limit)
        self.faces_consumed = 0
        self._roots: dict[int, int] = {}  # slot -> root index

    @property
    def trees(self) -> dict[str, TreeView]:
        return {_slot_prefix(slot): TreeView(self, r) for slot, r in self._roots.items()}

    def feed(self, faces: Iterable[int], until: int | None = None) -> int:
        """Consume faces until ``faces`` runs out or ``len(output)``
        reaches ``until``; return the number of faces consumed.

        Equivalent to calling :meth:`process` on each face in turn.  A
        face outside ``0..m-1`` (or a bool) raises ``ValueError`` and
        leaves the session as it was after the faces before it.
        """
        out = self.output
        stop = _UNBOUNDED if until is None else until
        if len(out) >= stop:
            return 0
        m = self.m
        n = messages = 0
        try:
            for face in faces:
                if type(face) is not int or not 0 <= face < m:  # full check off the fast path
                    _check_face(face, m)
                n += 1
                messages += _deliver(self, 0, face)
                if len(out) >= stop:
                    break
        finally:
            self.faces_consumed += n
            self.messages_total += messages
        return n

    def clone(self) -> DiceExtractor:
        """Independent copy; processing one never affects the other."""
        dup = self._copy()
        dup.m = self.m
        dup.width = self.width
        dup.faces_consumed = self.faces_consumed
        dup._roots = self._roots.copy()
        return dup

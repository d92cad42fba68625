"""Extraction from an m-sided loaded die via a forest of coin extractors.

Each face value is binarized to a fixed-width ``H``/``T`` word (most
significant bit first, 1 -> ``H``), and the stream of words is sliced by
bit position conditioned on what came before: for every proper prefix
``w`` of a word there is one coin extractor that receives the bit
following ``w`` whenever a face's word starts with ``w``.  Conditioning
makes each extractor's input i.i.d., so the usual guarantees carry over
face by face: bits from a word are delivered top-down (position 0 first),
and whatever each delivery releases is appended to the shared output in
that order.

With ``m = 2`` the forest is a single root extractor and the whole thing
degenerates to :class:`debias.coin.CoinExtractor` with faces 1/0 read as
``H``/``T``.
"""

from __future__ import annotations

from typing import Iterable

from .coin import HEADS, TAILS, CoinExtractor, Session, StepResult, check_depth_limit


def face_width(m: int) -> int:
    """Bits needed to binarize faces ``0..m-1`` (``ceil(log2 m)``)."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"m must be an int >= 2, got {m!r}")
    return (m - 1).bit_length()


def binarize(face: int, m: int) -> str:
    """Face value as a fixed-width H/T word, MSB first (1 -> H, 0 -> T).

    >>> [binarize(f, 3) for f in range(3)]
    ['TT', 'TH', 'HT']
    """
    w = face_width(m)
    if not isinstance(face, int) or not 0 <= face < m:
        raise ValueError(f"face must be an int in [0, {m}), got {face!r}")
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


class DiceExtractor(Session):
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
            step = tree.process(symbol)
            released.extend(step.bits)
            messages += step.messages
        self.output.extend(released)
        self.faces_consumed += 1
        self.messages_total += messages
        return StepResult(released, messages)

    def clone(self) -> DiceExtractor:
        dup = DiceExtractor(self.m, self.depth_limit)
        dup.trees = {k: t.clone() for k, t in self.trees.items()}
        dup.output = self.output.copy()
        dup.faces_consumed = self.faces_consumed
        dup.messages_total = self.messages_total
        return dup

"""Independent pure-Python reference the benchmark checks outputs against.

Written from the paper's rules rather than from the ``debias`` package, so
that a bug shared by the program and its own tests still shows here:

* the five-label node rules of the coin tree, with int-coded labels in a
  heap-indexed dict (root 0, children ``2i+1`` and ``2i+2``) and an explicit
  stack in place of recursion;
* dice faces binarized MSB first (1 -> H), one tree per word prefix;
* Markov walks split into per-state exit streams, delivered one visit late;
* the depth recursions for expected yield and deliveries, split by level.

:func:`check_goldens` must pass before any digest from here is trusted.
"""

from __future__ import annotations

import hashlib
import math

EMPTY, HEADS, TAILS, HOLD_ZERO, HOLD_ONE = range(5)
SYMBOL_CODES = {"H": HEADS, "T": TAILS}


class Tree:
    """One coin tree.  Released bits are appended to the shared ``out``."""

    __slots__ = ("limit", "labels", "out", "deliveries")

    def __init__(self, depth_limit: int | None, out: list[int]) -> None:
        self.limit = depth_limit
        self.labels: dict[int, int] = {}
        self.out = out
        self.deliveries = 0

    def feed(self, symbol: int) -> None:
        labels, out, limit = self.labels, self.out, self.limit
        # Popping the left message before the right one keeps the
        # depth-first delivery order that fixes the release order.
        stack = [(0, 0, symbol)]
        while stack:
            i, d, y = stack.pop()
            self.deliveries += 1
            label = labels.get(i, EMPTY)
            if label == EMPTY:
                labels[i] = y
            elif label >= HOLD_ZERO:
                out.append(label - HOLD_ZERO)
                labels[i] = y
            elif label == y:
                labels[i] = EMPTY
                if limit is None or d < limit:
                    stack.append((2 * i + 2, d + 1, y))
                    stack.append((2 * i + 1, d + 1, TAILS))
            else:
                labels[i] = HOLD_ONE if label == HEADS else HOLD_ZERO
                if limit is None or d < limit:
                    stack.append((2 * i + 1, d + 1, HEADS))


def coin_bits(symbols: str, depth_limit: int | None) -> list[int]:
    """Bits released by a coin tree fed an ``H``/``T`` string."""
    out: list[int] = []
    tree = Tree(depth_limit, out)
    for ch in symbols:
        tree.feed(SYMBOL_CODES[ch])
    return out


class Dice:
    """A forest of coin trees, one per proper prefix of the face word."""

    def __init__(self, m: int, depth_limit: int | None, out: list[int]) -> None:
        self.width = (m - 1).bit_length()
        self.limit = depth_limit
        self.out = out
        self.trees: dict[tuple[int, int], Tree] = {}

    def feed(self, face: int) -> None:
        w = self.width
        for i in range(w):
            key = (i, face >> (w - i))
            tree = self.trees.get(key)
            if tree is None:
                tree = self.trees[key] = Tree(self.limit, self.out)
            tree.feed(HEADS if (face >> (w - 1 - i)) & 1 else TAILS)


def dice_bits(faces, m: int, depth_limit: int | None) -> list[int]:
    out: list[int] = []
    forest = Dice(m, depth_limit, out)
    for face in faces:
        forest.feed(face)
    return out


def markov_bits(states, n_states: int, depth_limit: int | None) -> list[int]:
    """Bits from a walk: each state's exits feed its own die, one visit late."""
    out: list[int] = []
    forests: dict[int, Dice] = {}
    pending: dict[int, int] = {}
    prev = None
    for state in states:
        if prev is not None:
            if prev in pending:
                forest = forests.get(prev)
                if forest is None:
                    forest = forests[prev] = Dice(n_states, depth_limit, out)
                forest.feed(pending[prev])
            pending[prev] = state
        prev = state
    return out


def packed(bits: list[int]) -> bytes:
    """MSB-first bytes, final byte zero-padded."""
    out = bytearray()
    for i in range(0, len(bits), 8):
        byte = 0
        for j, bit in enumerate(bits[i : i + 8]):
            byte |= bit << (7 - j)
        out.append(byte)
    return bytes(out)


def ascii_line(bits: list[int]) -> bytes:
    return ("".join("1" if b else "0" for b in bits) + "\n").encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_goldens() -> None:
    """The worked examples of the project README; raise if any differs."""
    cases = [
        ("coin HTTTHT depth 15", coin_bits("HTTTHT", 15), [1, 1]),
        ("dice m=3 unlimited", dice_bits([0, 1, 2, 1, 1, 2, 2, 1, 0], 3, None), [0, 1, 0, 0, 1, 1]),
        ("markov 2 states unlimited", markov_bits([0, 1, 0, 0, 1, 0, 1, 1, 0], 2, None), [1]),
        ("coin packed 11", list(packed([1, 1])), [0xC0]),
    ]
    for name, got, want in cases:
        if got != want:
            raise AssertionError(f"reference golden {name}: got {got}, want {want}")


# ------------------------------------------------------------- analysis


def entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def level_traffic(p: float, depth: int) -> list[tuple[float, float]]:
    """Per tree level ``0..depth``: expected (deliveries, bits released) per
    input symbol.  A node of bias ``b`` and traffic ``w`` releases ``w*b*q``
    bits, sends ``w/2`` symbols of bias ``b^2+q^2`` left and ``w*s/2`` of
    bias ``b^2/s`` right."""
    level = {p: 1.0}
    out = []
    for _ in range(depth + 1):
        out.append((sum(level.values()), sum(w * b * (1 - b) for b, w in level.items())))
        nxt: dict[float, float] = {}
        for b, w in level.items():
            s = b * b + (1 - b) * (1 - b)
            nxt[s] = nxt.get(s, 0.0) + w / 2
            nxt[b * b / s] = nxt.get(b * b / s, 0.0) + w * s / 2
        level = nxt
    return out


def tosses_per_bit(p: float, depth: int | None) -> float:
    if depth is None:
        return 1 / entropy(p)
    return 1 / sum(bits for _, bits in level_traffic(p, depth))


def deliveries_per_symbol(p: float, depth: int) -> float:
    return sum(d for d, _ in level_traffic(p, depth))


def balanced_tosses_per_bit(depth: int) -> float:
    """Closed form at p=1/2: rate = 1 - (3/4)^(d+1)."""
    return 1 / (1 - 0.75 ** (depth + 1))


def balanced_deliveries(depth: int) -> float:
    """Closed form at p=1/2: 4 - 3 (3/4)^d."""
    return 4 - 3 * 0.75**depth

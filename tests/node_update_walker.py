"""A coin tree that knows the node rules only through ``node_update``:
one object per node, recursive delivery, and its own count of the
deliveries it makes.  The reference for the int-coded arena's bits,
snapshots and message counts."""

from __future__ import annotations

from debias.coin import EMPTY, TraceNode, node_update


class RefNode:
    def __init__(self, depth: int = 0) -> None:
        self.label = EMPTY
        self.depth = depth
        self.log: list[int] = []
        self.kids: tuple[RefNode, RefNode] | None = None

    def trace(self) -> TraceNode:
        left, right = self.kids if self.kids else (None, None)
        return TraceNode(
            self.label,
            tuple(self.log),
            left.trace() if left else None,
            right.trace() if right else None,
        )


def ref_deliver(node: RefNode, symbol: str, limit, bits: list[int]) -> int:
    """Recursive delivery using ``node_update`` for every transition;
    appends the released bits to ``bits`` and returns the number of
    deliveries."""
    upd = node_update(node.label, symbol)
    node.label = upd.label
    if upd.bit is not None:
        node.log.append(upd.bit)
        bits.append(upd.bit)
    messages = 1
    if upd.to_left is not None and (limit is None or node.depth < limit):
        if node.kids is None:
            node.kids = (RefNode(node.depth + 1), RefNode(node.depth + 1))
        messages += ref_deliver(node.kids[0], upd.to_left, limit, bits)
        if upd.to_right is not None:
            messages += ref_deliver(node.kids[1], upd.to_right, limit, bits)
    return messages

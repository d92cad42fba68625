"""The exact-``Fraction`` enumeration of :mod:`debias.oracle`, kept as the
reference for the oracle's integer-weight walk.

``_enumerate`` walks every input sequence depth first with
clone-on-branch, multiplying each branch's weight as a
:class:`fractions.Fraction` and adding stopped weights into ``Fraction``
masses.  The function body is the package's implementation before weights
became integer numerators over a common denominator; only the imports
differ, and it still takes ``next_moves`` as a callable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence


def _enumerate(
    make_session: Callable[[], object],
    first_moves: Sequence[tuple[object, Fraction]],
    next_moves: Callable[[object], Sequence[tuple[object, Fraction]]],
    horizon: int,
    k: int,
) -> tuple[dict[str, Fraction], Fraction]:
    masses = {format(i, f"0{k}b"): Fraction(0) for i in range(2**k)}
    incomplete = Fraction(0)

    # Depth-first with clone-on-branch; the last branch reuses the parent
    # session, so a straight-line walk allocates nothing extra.
    def walk(session, weight: Fraction, moves, steps_left: int) -> None:
        nonlocal incomplete
        live = [(x, pr) for x, pr in moves if pr != 0]
        for i, (x, pr) in enumerate(live):
            child = session.clone() if i < len(live) - 1 else session
            child.process(x)
            w = weight * pr
            if len(child.output) >= k:
                masses["".join(map(str, child.output[:k]))] += w
            elif steps_left == 1:
                incomplete += w
            else:
                walk(child, w, next_moves(x), steps_left - 1)

    walk(make_session(), Fraction(1), first_moves, horizon)
    return masses, incomplete

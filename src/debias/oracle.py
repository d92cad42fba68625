"""Exact finite-horizon uniformity verification by full enumeration.

For a given source model this walks every possible input sequence up to a
horizon and stops a branch the moment the extractor has released ``k``
bits, attributing the branch's whole mass to the first ``k`` bits released
(the branch's continuations all share that prefix, so the attribution is
exact).  Branches that reach the horizon without ``k`` bits are pooled as
``incomplete`` mass.  The verdict is a proof for the finite configuration
rather than a statistical test: the extractor output is uniform iff every
k-bit pattern carries identical mass, and total mass must come back as
exactly 1 or the accounting itself is broken.

Arithmetic is exact throughout, and done on integers.  Every move
probability is a multiple of ``1/den``, with ``den`` the least common
multiple of their denominators, so a branch ``t`` moves deep carries its
weight as an ``int`` numerator over ``den**t``, and stopped and incomplete
masses are summed as numerators over ``den**horizon``.  They become
:class:`fractions.Fraction` values once, in the :class:`UniformityReport`.

The stopping prefixes explored this way are mutually prefix-free: once a
branch stops, none of its extensions are walked.

Enumeration is exponential in the horizon and the mass table in ``k``, so
each verifier caps both; pass ``force=True`` to exceed the cap deliberately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .coin import HEADS, TAILS, CoinExtractor
from .dice import DiceExtractor
from .markov import MarkovExtractor

# Enumeration size guards on branching^horizon leaves and 2^k output patterns.
MAX_COIN_LEAVES = 2**14
MAX_DICE_LEAVES = 2**14
MAX_MARKOV_LEAVES = 2**10


class HorizonTooLarge(ValueError):
    """The requested enumeration exceeds the size guard (see ``force``)."""

    def __init__(self, leaves: int, cap: int) -> None:
        self.leaves = leaves
        self.cap = cap
        super().__init__(
            f"enumeration exceeds its cap of {cap} branches or output patterns "
            f"(size {leaves} or more); pass force=True to run it anyway"
        )


@dataclass(frozen=True)
class UniformityReport:
    """Exact output-mass accounting for one finite configuration.

    ``masses`` has an entry for every k-bit pattern (keys like ``'010'``),
    ``incomplete`` is the probability that the horizon was hit first.
    """

    kind: str
    params: str
    k: int
    n_max: int
    depth_limit: int | None
    masses: dict[str, Fraction] = field(compare=True)
    incomplete: Fraction = Fraction(0)

    @property
    def captured(self) -> Fraction:
        """Probability that ``k`` bits appeared within the horizon."""
        return sum(self.masses.values(), Fraction(0))

    @property
    def total(self) -> Fraction:
        """Must be exactly 1 for any correct run."""
        return self.captured + self.incomplete

    @property
    def uniform(self) -> bool:
        """True iff every k-bit pattern carries identical mass."""
        return len(set(self.masses.values())) == 1

    def _depth_text(self) -> str:
        return "unlimited" if self.depth_limit is None else str(self.depth_limit)

    def to_text(self) -> str:
        lines = [
            f"{self.kind} source, {self.params}",
            f"first k={self.k} bits, horizon n_max={self.n_max}, depth={self._depth_text()}",
        ]
        for pattern in sorted(self.masses):
            lines.append(f"  {pattern}  {self.masses[pattern]}")
        lines.append(f"  incomplete  {self.incomplete}")
        lines.append(f"total mass: {self.total}")
        if self.uniform:
            each = next(iter(self.masses.values()))
            if each:
                lines.append(f"uniform: yes (each pattern {each})")
            else:  # nothing was captured, so equal masses prove nothing
                lines.append("uniform: yes, vacuously (no pattern is reached within the horizon)")
        else:
            lines.append("uniform: NO")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["outcome,probability"]
        for pattern in sorted(self.masses):
            lines.append(f"{pattern},{self.masses[pattern]}")
        lines.append(f"incomplete,{self.incomplete}")
        return "\n".join(lines)


def _as_probability(x, what: str) -> Fraction:
    if isinstance(x, bool):
        raise ValueError(f"{what} is not a valid probability: {x!r}")
    try:
        f = Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{what} is not a valid probability: {x!r}") from exc
    if not 0 <= f <= 1:
        raise ValueError(f"{what} must lie in [0, 1], got {f}")
    return f


def _check_counts(k: int, n_max: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive int, got {k!r}")
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError(f"n_max must be a positive int, got {n_max!r}")


def _check_size(branching: int, horizon: int, k: int, cap: int, force: bool) -> None:
    """Raise unless both the ``branching**horizon`` leaves of the walk and the
    ``2**k`` patterns :func:`_enumerate` tabulates up front fit under ``cap``."""
    # Every base is at least 2, so clipping an exponent at cap.bit_length()
    # keeps the comparison exact without building a huge int.
    top = cap.bit_length()
    size = max(branching ** min(horizon, top), 2 ** min(k, top))
    if size > cap and not force:
        raise HorizonTooLarge(size, cap)


def _enumerate(
    make_session: Callable[[], object],
    first_moves: Sequence[tuple[object, Fraction]],
    next_moves: Mapping[object, Sequence[tuple[object, Fraction]]],
    horizon: int,
    k: int,
) -> tuple[dict[str, Fraction], Fraction]:
    """Walk every run of at most ``horizon`` moves, ``first_moves`` first and
    ``next_moves[x]`` after move ``x``; return each k-bit pattern's mass and
    the incomplete mass."""
    den = math.lcm(*(pr.denominator for moves in (first_moves, *next_moves.values())
                     for _, pr in moves))

    def numerators(moves):  # moves of probability 0 are never walked
        return tuple((x, pr.numerator * (den // pr.denominator)) for x, pr in moves if pr)

    first = numerators(first_moves)
    after = {x: numerators(moves) for x, moves in next_moves.items()}
    # A branch that stops with steps_left moves to go is over den**(horizon -
    # steps_left + 1); times rescale[steps_left] it is over den**horizon.
    rescale = [0] + [den**j for j in range(horizon)]
    sums = {format(i, f"0{k}b"): 0 for i in range(2**k)}
    incomplete = 0

    # Depth-first with clone-on-branch; the last branch reuses the parent
    # session, so a straight-line walk allocates nothing extra.
    def walk(session, weight: int, moves, steps_left: int) -> None:
        nonlocal incomplete
        last = len(moves) - 1
        for i, (x, num) in enumerate(moves):
            child = session.clone() if i < last else session
            child.process(x)
            w = weight * num
            if len(child.output) >= k:
                sums["".join(map(str, child.output[:k]))] += w * rescale[steps_left]
            elif steps_left == 1:
                incomplete += w
            else:
                walk(child, w, after[x], steps_left - 1)

    walk(make_session(), 1, first, horizon)
    scale = den**horizon
    return {pattern: Fraction(v, scale) for pattern, v in sums.items()}, Fraction(incomplete, scale)


def verify_coin(
    p,
    n_max: int,
    k: int,
    depth_limit: int | None = None,
    force: bool = False,
) -> UniformityReport:
    """Enumerate every H/T sequence of length ``n_max`` for a coin with
    exact ``P(H) = p`` (int, str like ``"1/3"``, or Fraction)."""
    p = _as_probability(p, "p")
    _check_counts(k, n_max)
    _check_size(2, n_max, k, MAX_COIN_LEAVES, force)
    dist = ((HEADS, p), (TAILS, 1 - p))
    masses, incomplete = _enumerate(
        lambda: CoinExtractor(depth_limit), dist, dict.fromkeys((HEADS, TAILS), dist), n_max, k
    )
    return UniformityReport("coin", f"P(H)={p}", k, n_max, depth_limit, masses, incomplete)


def verify_dice(
    dist,
    n_max: int,
    k: int,
    depth_limit: int | None = None,
    force: bool = False,
) -> UniformityReport:
    """Enumerate every face sequence of length ``n_max`` for an m-sided
    die with the given exact face probabilities (must sum to 1)."""
    probs = [_as_probability(x, f"dist[{i}]") for i, x in enumerate(dist)]
    m = len(probs)
    if m < 2:
        raise ValueError("dist needs at least two faces")
    if sum(probs) != 1:
        raise ValueError(f"face probabilities must sum to 1, got {sum(probs)}")
    _check_counts(k, n_max)
    _check_size(m, n_max, k, MAX_DICE_LEAVES, force)
    moves = tuple((f, pr) for f, pr in enumerate(probs))
    masses, incomplete = _enumerate(
        lambda: DiceExtractor(m, depth_limit), moves, dict.fromkeys(range(m), moves), n_max, k
    )
    params = "dist=(" + ", ".join(str(pr) for pr in probs) + ")"
    return UniformityReport("dice", params, k, n_max, depth_limit, masses, incomplete)


def verify_markov(
    matrix,
    start: int,
    n_max: int,
    k: int,
    depth_limit: int | None = None,
    force: bool = False,
) -> UniformityReport:
    """Enumerate every walk of ``n_max`` transitions from ``start`` under
    the given exact row-stochastic transition matrix."""
    rows = [[_as_probability(x, f"matrix[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(matrix)]
    m = len(rows)
    if m < 2:
        raise ValueError("matrix needs at least two states")
    for i, row in enumerate(rows):
        if len(row) != m:
            raise ValueError(f"matrix row {i} has {len(row)} entries, expected {m}")
        if sum(row) != 1:
            raise ValueError(f"matrix row {i} must sum to 1, got {sum(row)}")
    if isinstance(start, bool) or not isinstance(start, int) or not 0 <= start < m:
        raise ValueError(f"start must be a state in 0..{m - 1}, got {start!r}")
    _check_counts(k, n_max)
    _check_size(m, n_max, k, MAX_MARKOV_LEAVES, force)
    moves_from = [tuple((j, pr) for j, pr in enumerate(row)) for row in rows]
    masses, incomplete = _enumerate(
        lambda: MarkovExtractor(m, depth_limit),
        ((start, Fraction(1)),),
        dict(enumerate(moves_from)),
        n_max + 1,  # the start state plus n_max transitions
        k,
    )
    params = (
        "matrix=(" + "; ".join(", ".join(str(x) for x in row) for row in rows)
        + f"), start={start}"
    )
    return UniformityReport("markov", params, k, n_max, depth_limit, masses, incomplete)

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
multiple of their denominators, so every branch carries its weight as an
``int`` numerator over ``den**horizon``: the walk's root weighs
``den**horizon``, and each move divides a weight by ``den`` and multiplies
it by the move's numerator, so a stopped or incomplete branch adds its
weight as it is.  The masses become :class:`fractions.Fraction` values
once, in the :class:`UniformityReport`.

The stopping prefixes explored this way are mutually prefix-free: once a
branch stops, none of its extensions are walked.  Open branches wait on
an explicit list, not on the call stack, so the horizon is not bounded by
the interpreter's recursion limit, and each branch steps its session with
a one-item ``feed``.

Each verifier only parses its model, names it and describes its walk: a
session factory, the first moves, the moves after each move, and the
horizon ``n_max`` (a Markov walk's session is made at its start state, so
its horizon counts transitions).  One body does the rest for all three:
it checks ``k`` and ``n_max`` as counts and ``force`` as a ``bool``,
applies the work guard, walks and reports.  A walk can be exponential in
its horizon and the mass table is in ``k``, so one budget,
``MAX_BRANCHES``, bounds the work.  The walk counts the branches it takes
off its list against it, and two exact lower bounds are checked before
anything is built: the ``2**k`` patterns of the table, and ``n_max``
itself, since the run that always makes one and the same possible move
from each state releases no bit, and takes a branch per move.  Pass ``force=True`` to lift the budget
deliberately.  A die's distribution and each row of a transition matrix
pass one rule: exact probabilities, at least two, summing to exactly 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from .coin import HEADS, TAILS, CoinExtractor, _is_count
from .dice import DiceExtractor
from .markov import MarkovExtractor

# The enumeration work guard: branches walked, and 2^k output patterns.
MAX_BRANCHES = 2**14


class HorizonTooLarge(ValueError):
    """The requested enumeration exceeds the work guard (see ``force``).

    ``leaves`` is the size that tripped it: the branches the walk counted,
    the horizon ``n_max``, or the ``2**k`` output patterns; ``cap`` is the
    budget it passed."""

    def __init__(self, leaves: int, cap: int) -> None:
        self.leaves = leaves
        self.cap = cap
        super().__init__(
            f"enumeration exceeds its cap of {cap} branches or output patterns "
            f"(size {leaves} or more); pass force=True to run it anyway"
        )


class UniformityReport(NamedTuple):
    """Exact output-mass accounting for one finite configuration.

    ``masses`` has an entry for every k-bit pattern (keys like ``'010'``),
    ``incomplete`` is the probability that the horizon was hit first.
    """

    kind: str
    params: str
    k: int
    n_max: int
    depth_limit: int | None
    masses: dict[str, Fraction]
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


def _distribution(entries, what: str) -> list[Fraction]:
    """The exact probabilities ``entries``, each named ``what[i]`` in an
    error: at least two, summing to exactly 1."""
    probs = [_as_probability(x, f"{what}[{i}]") for i, x in enumerate(entries)]
    if len(probs) < 2:
        raise ValueError(f"{what} needs at least two probabilities, got {len(probs)}")
    if sum(probs) != 1:
        raise ValueError(f"{what} must sum to 1, got {sum(probs)}")
    return probs


def _enumerate(
    make_session: Callable[[], object],
    first_moves: Sequence[tuple[object, Fraction]],
    next_moves: Mapping[object, Sequence[tuple[object, Fraction]]],
    horizon: int,
    k: int,
    budget: float = math.inf,
) -> tuple[dict[str, Fraction], Fraction]:
    """Walk every run of at most ``horizon`` moves, ``first_moves`` first and
    ``next_moves[x]`` after move ``x``; return each k-bit pattern's mass and
    the incomplete mass.  Raise :class:`HorizonTooLarge` once the walk takes
    more than ``budget`` branches off its list.

    The first session is made before anything is tabulated, so a session
    that refuses its configuration (a bad depth cap) does so before the
    ``2**k`` pattern table is built."""
    root = make_session()
    den = math.lcm(*(pr.denominator for moves in (first_moves, *next_moves.values())
                     for _, pr in moves))

    def numerators(moves):  # moves of probability 0 are never walked
        return tuple((x, pr.numerator * (den // pr.denominator)) for x, pr in moves if pr)

    first = numerators(first_moves)
    after = {x: numerators(moves) for x, moves in next_moves.items()}
    scale = den**horizon
    sums = {format(i, f"0{k}b"): 0 for i in range(2**k)}
    incomplete = taken = 0

    # Depth-first with clone-on-branch.  Each open branch is a (session,
    # weight, moves, steps_left) entry on a list; its last move reuses the
    # session, so a straight-line walk allocates nothing extra.
    branches = [(root, scale, first, horizon)]
    while branches:
        taken += 1
        if taken > budget:
            raise HorizonTooLarge(taken, budget)
        session, weight, moves, steps_left = branches.pop()
        last = len(moves) - 1
        for i, (x, num) in enumerate(moves):
            child = session.clone() if i < last else session
            child.feed((x,))
            w = weight // den * num
            if len(child.output) >= k:
                sums["".join(map(str, child.output[:k]))] += w
            elif steps_left == 1:
                incomplete += w
            else:
                branches.append((child, w, after[x], steps_left - 1))
    return {pattern: Fraction(v, scale) for pattern, v in sums.items()}, Fraction(incomplete, scale)


def _verify(kind, params, depth_limit, make_session, first_moves, next_moves, n_max, k, force):
    """The shared body of the verifiers: check ``k``, ``n_max`` and ``force``,
    refuse up front a configuration whose ``n_max`` or ``2**k`` patterns
    pass ``MAX_BRANCHES``, then walk ``n_max`` moves under that budget (see
    :func:`_enumerate`) and report.  ``force=True`` lifts the budget."""
    for name, n in (("k", k), ("n_max", n_max)):
        if not _is_count(n, 1):
            raise ValueError(f"{name} must be a positive int, got {n!r}")
    if not isinstance(force, bool):
        raise ValueError(f"force must be a bool, got {force!r}")
    budget = math.inf if force else MAX_BRANCHES
    # Clipping k keeps 2**k small and the comparison exact.
    size = max(n_max, 2 ** min(k, MAX_BRANCHES.bit_length()))
    if size > budget:
        raise HorizonTooLarge(size, budget)
    masses, incomplete = _enumerate(make_session, first_moves, next_moves, n_max, k, budget)
    return UniformityReport(kind, params, k, n_max, depth_limit, masses, incomplete)


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
    dist = ((HEADS, p), (TAILS, 1 - p))
    return _verify("coin", f"P(H)={p}", depth_limit, lambda: CoinExtractor(depth_limit),
                   dist, dict.fromkeys((HEADS, TAILS), dist), n_max, k, force)


def verify_dice(
    dist,
    n_max: int,
    k: int,
    depth_limit: int | None = None,
    force: bool = False,
) -> UniformityReport:
    """Enumerate every face sequence of length ``n_max`` for an m-sided
    die with the given exact face probabilities (must sum to 1)."""
    probs = _distribution(dist, "dist")
    m = len(probs)
    moves = tuple(enumerate(probs))
    params = "dist=(" + ", ".join(str(pr) for pr in probs) + ")"
    return _verify("dice", params, depth_limit, lambda: DiceExtractor(m, depth_limit),
                   moves, dict.fromkeys(range(m), moves), n_max, k, force)


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
    rows = [_distribution(row, f"matrix[{i}]") for i, row in enumerate(matrix)]
    m = len(rows)
    if m < 2:
        raise ValueError("matrix needs at least two states")
    for i, row in enumerate(rows):
        if len(row) != m:
            raise ValueError(f"matrix row {i} has {len(row)} entries, expected {m}")
    if not (_is_count(start) and start < m):
        raise ValueError(f"start must be a state in 0..{m - 1}, got {start!r}")

    def at_start():  # the walk's first state, which delivers nothing
        session = MarkovExtractor(m, depth_limit)
        session.feed((start,))
        return session

    moves_from = {i: tuple(enumerate(row)) for i, row in enumerate(rows)}
    params = f"matrix=({'; '.join(', '.join(map(str, row)) for row in rows)}), start={start}"
    return _verify("markov", params, depth_limit, at_start,
                   moves_from[start], moves_from, n_max, k, force)

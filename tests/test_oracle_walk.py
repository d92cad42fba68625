"""The oracle's integer-weight walk, checked against the ``Fraction`` walk
in ``fraction_walk_reference``; the number of session steps and clones it
makes; booleans refused as probabilities; and the wording of a verdict
that no pattern reached."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_walk_reference as ref
from debias import oracle
from debias.cli import main
from debias.coin import HEADS, TAILS, CoinExtractor
from debias.dice import DiceExtractor
from debias.markov import MarkovExtractor

DEPTHS = [None, 0, 1, 3]
# the largest horizon drawn for a die or chain with m faces or states
MAX_N = {2: 8, 3: 8, 4: 6}


@st.composite
def distributions(draw, m):
    """``m`` exact probabilities summing to 1, zeros allowed: multiples of
    ``1/den`` for a random ``den``, or differences of float-derived cuts
    (``Fraction(0.3)`` has denominator ``2**54``)."""
    if draw(st.booleans()):
        den = draw(st.integers(1, 40))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=m - 1, max_size=m - 1)))
        return [Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]
    floats = st.one_of(st.sampled_from([0.1, 0.3, 1 / 3, 0.7]), st.floats(0.0, 1.0))
    cuts = sorted(Fraction(x) for x in draw(st.lists(floats, min_size=m - 1, max_size=m - 1)))
    return [b - a for a, b in zip([Fraction(0)] + cuts, cuts + [Fraction(1)])]


def assert_same(report, masses, incomplete):
    assert report.masses == masses
    assert report.incomplete == incomplete
    assert report.total == sum(masses.values(), Fraction(0)) + incomplete == 1


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 8), st.integers(1, 4), st.sampled_from(DEPTHS))
def test_coin_walk_matches_fraction_walk(data, n_max, k, depth):
    p = data.draw(distributions(2))[0]
    dist = ((HEADS, p), (TAILS, 1 - p))
    want = ref._enumerate(lambda: CoinExtractor(depth), dist, lambda _: dist, n_max, k)
    assert_same(oracle.verify_coin(p, n_max, k, depth, force=True), *want)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 4), st.integers(1, 4), st.sampled_from(DEPTHS))
def test_dice_walk_matches_fraction_walk(data, m, k, depth):
    probs = data.draw(distributions(m))
    n_max = data.draw(st.integers(1, MAX_N[m]))
    moves = tuple(enumerate(probs))
    want = ref._enumerate(lambda: DiceExtractor(m, depth), moves, lambda _: moves, n_max, k)
    assert_same(oracle.verify_dice(probs, n_max, k, depth, force=True), *want)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 3), st.integers(1, 4), st.sampled_from(DEPTHS))
def test_markov_walk_matches_fraction_walk(data, m, k, depth):
    rows = [data.draw(distributions(m)) for _ in range(m)]
    start = data.draw(st.integers(0, m - 1))
    n_max = data.draw(st.integers(1, MAX_N[m]))
    moves_from = [tuple(enumerate(row)) for row in rows]
    want = ref._enumerate(lambda: MarkovExtractor(m, depth), ((start, Fraction(1)),),
                          lambda prev: moves_from[prev], n_max + 1, k)
    assert_same(oracle.verify_markov(rows, start, n_max, k, depth, force=True), *want)


def test_markov_rows_with_zero_entries():
    rows = [[Fraction(0), Fraction(1, 3), Fraction(2, 3)],
            [Fraction(1, 2), Fraction(0), Fraction(1, 2)],
            [Fraction(0), Fraction(1), Fraction(0)]]
    moves_from = [tuple(enumerate(row)) for row in rows]
    for start in range(3):
        want = ref._enumerate(lambda: MarkovExtractor(3, None), ((start, Fraction(1)),),
                              lambda prev: moves_from[prev], 8 + 1, 2)
        assert_same(oracle.verify_markov(rows, start, 8, 2, force=True), *want)


# The verifier configurations of the exact_checks benchmark and the session
# steps and clones their walks make: one step per branch, and one clone per
# branch that is not the last of its parent.
BENCHMARK_WALKS = [
    (lambda: oracle.verify_coin("1/3", 15, 4, None, force=True), CoinExtractor, 10_046, 5_023),
    (lambda: oracle.verify_dice(["1/2", "1/3", "1/6"], 9, 2, None, force=True),
     DiceExtractor, 3_579, 2_386),
    (lambda: oracle.verify_markov([["1/3", "2/3"], ["3/4", "1/4"]], 0, 11, 2, None, force=True),
     MarkovExtractor, 2_559, 1_279),
]


@pytest.mark.parametrize("run, cls, steps, clones", BENCHMARK_WALKS)
def test_benchmark_walks_cost_the_same(run, cls, steps, clones, monkeypatch):
    counts = {"process": 0, "clone": 0}

    def counted(name):
        original = getattr(cls, name)

        def wrapper(self, *args):
            counts[name] += 1
            return original(self, *args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(cls, name, counted(name))
    report = run()
    assert report.uniform and report.total == 1
    assert counts == {"process": steps, "clone": clones}


@pytest.mark.parametrize("verify", [
    lambda bad: oracle.verify_coin(bad, 4, 1),
    lambda bad: oracle.verify_dice([bad, 1 - bad], 4, 1),
    lambda bad: oracle.verify_markov([[bad, 1 - bad], [Fraction(1, 2), Fraction(1, 2)]], 0, 4, 1),
], ids=["coin", "dice", "markov"])
def test_booleans_are_not_probabilities(verify):
    for bad in (True, False):
        with pytest.raises(ValueError, match="not a valid probability"):
            verify(bad)


def test_vacuous_verdict_says_so(capsys):
    report = oracle.verify_coin(0, 6, 2)
    assert report.captured == 0 and report.uniform
    assert report.to_text().endswith(
        "uniform: yes, vacuously (no pattern is reached within the horizon)")
    assert report.to_csv().splitlines()[1:] == ["00,0", "01,0", "10,0", "11,0", "incomplete,1"]
    assert main(["verify", "--mode", "coin", "--p", "0", "--n-max", "6", "--bits", "2"]) == 0
    assert "vacuously" in capsys.readouterr().out
    # a verdict that did capture mass keeps its wording
    assert oracle.verify_coin("1/3", 6, 1).to_text().splitlines()[-1].startswith(
        "uniform: yes (each pattern ")

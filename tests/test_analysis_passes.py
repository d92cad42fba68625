"""The cache of level passes in :mod:`debias.analysis`: how many
``level_traffic`` passes the tables, cells and ``debias bench`` make, and
that a cached pass gives exactly what a fresh one does."""

import pytest

from debias import analysis
from debias.analysis import (
    extraction_rate,
    processing_time,
    simulate_efficiency,
    time_table,
    tosses_per_bit,
    tosses_table,
)
from debias.cli import main

DEPTHS = (15, 16, 3, 0)
BIASES = (0.1, 0.2, 0.3, 0.4, 0.5)


@pytest.fixture
def passes(monkeypatch):
    """Start from an empty cache and record every ``level_traffic`` call."""
    calls = []
    fresh = analysis.level_traffic

    def counted(p, depth):
        calls.append((p, depth))
        return fresh(p, depth)

    analysis._pass.cache_clear()
    monkeypatch.setattr(analysis, "level_traffic", counted)
    yield calls
    analysis._pass.cache_clear()


def test_tables_on_the_same_axes_share_one_pass_per_bias(passes):
    tosses_table(DEPTHS, BIASES)
    time_table(DEPTHS, BIASES)
    assert passes == [(p, 16) for p in BIASES]
    # a cell at the tables' deepest depth reads the same pass
    for p in BIASES:
        processing_time(p, 16)
        extraction_rate(p, 16)
    assert passes == [(p, 16) for p in BIASES]
    # any other depth makes its own pass, once
    tosses_per_bit(0.3, 7)
    processing_time(0.3, 7)
    simulate_efficiency(0.3, 7, 50, seed=1)
    assert passes == [(p, 16) for p in BIASES] + [(0.3, 7)]


def test_bench_trials_make_one_pass(passes, capsys):
    argv = ["bench", "--p", "0.3", "--depth", "7", "--bits", "300", "--trials", "5"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) > 5
    assert passes == [(0.3, 7)]


def test_cold_warm_and_single_cells_agree(passes):
    cold = (tosses_table(DEPTHS, BIASES), time_table(DEPTHS, BIASES))
    warm = (tosses_table(DEPTHS, BIASES), time_table(DEPTHS, BIASES))
    assert cold == warm
    tosses, time = cold
    for row in tosses:
        assert row.values == tuple(tosses_per_bit(p, row.depth) for p in BIASES)
    for row in time:
        assert row.values == tuple(processing_time(p, row.depth) for p in BIASES)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.77])
def test_every_prefix_of_a_pass_is_a_fresh_pass(passes, p):
    deep = analysis._pass(p, 16)
    for d in range(17):
        analysis._pass.cache_clear()
        assert analysis._pass(p, d) == deep[: d + 1]
    assert len(passes) == 18


def test_results_cannot_be_changed_through_the_cache(passes):
    totals = analysis._pass(0.3, 9)
    assert isinstance(totals, tuple)
    want = list(totals)
    rows = tosses_table(DEPTHS, BIASES)
    rows.clear()
    assert tosses_table(DEPTHS, BIASES)
    assert list(analysis._pass(0.3, 9)) == want
    assert extraction_rate(0.3, 9) == want[9][1]


def test_cache_is_bounded(passes):
    size = analysis._pass.cache_info().maxsize
    for i in range(3 * size):
        extraction_rate(i / (3 * size), 2)
    assert analysis._pass.cache_info().currsize == size


def test_a_warm_cache_still_checks_arguments(passes):
    processing_time(0.3, 8)
    for bad in (-1, 2.0, True, "3", None):
        with pytest.raises(analysis.DomainError):
            processing_time(0.3, bad)
    with pytest.raises(analysis.DomainError):
        processing_time(float("nan"), 3)
    assert passes == [(0.3, 8)]

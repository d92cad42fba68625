"""The per-level traffic pass behind every analysis prediction: its closed
form at p=1/2, agreement with the paper's top-down recursion, exact
agreement between tables and single cells, and the core's own per-level
bit counts against the prediction."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from debias import analysis
from debias.analysis import (
    DomainError,
    bernoulli_symbols,
    efficiency_report,
    extraction_rate,
    level_traffic,
    processing_time,
    simulate_efficiency,
    time_table,
    tosses_per_bit,
    tosses_table,
)
from debias.coin import CoinExtractor

open_biases = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


def top_down(p, d, charge):
    """The depth recursion as the paper states it: a node of bias p costs
    ``charge(p)``, its left child sees half its traffic at bias s and its
    right child s/2 of it at bias p^2/s."""
    q = 1.0 - p
    if d == 0:
        return charge(p)
    s = p * p + q * q
    return charge(p) + 0.5 * top_down(s, d - 1, charge) + 0.5 * s * top_down(p * p / s, d - 1, charge)


def test_balanced_coin_levels():
    levels = level_traffic(0.5, 30)
    assert len(levels) == 31
    for lvl, (deliveries, bits) in enumerate(levels):
        assert deliveries == pytest.approx(0.75**lvl, abs=1e-12)
        assert bits == pytest.approx(0.25 * 0.75**lvl, abs=1e-12)


@given(open_biases, st.integers(min_value=0, max_value=10))
def test_matches_top_down_recursion(p, d):
    assert extraction_rate(p, d) == pytest.approx(top_down(p, d, lambda b: b * (1.0 - b)), rel=1e-12)
    assert processing_time(p, d) == pytest.approx(top_down(p, d, lambda b: 1.0), rel=1e-12)


def test_domain():
    for bad_depth in (None, -1, 2.0, True):
        with pytest.raises(DomainError):
            level_traffic(0.3, bad_depth)
    with pytest.raises(DomainError):
        level_traffic(1.5, 2)


def test_tables_check_everything_before_any_pass(monkeypatch):
    calls = []
    monkeypatch.setattr(analysis, "level_traffic", lambda *a: calls.append(a))
    for build, args in ((tosses_table, ((3, -1),)), (tosses_table, ((3,), (0.2, 1.5))),
                        (time_table, ((3, None),)), (time_table, ((3,), (float("nan"),)))):
        with pytest.raises(DomainError):
            build(*args)
    assert calls == []


@pytest.mark.parametrize("depths", [(7, 0, 3, 3), (0,), (12, 5), ()])
def test_table_rows_equal_single_cells_exactly(depths):
    biases = (0.1, 0.3, 0.5, 0.77)
    rows = tosses_table(depths, biases)
    assert [r.depth for r in rows] == list(depths) + [None]
    for r in rows:
        assert r.values == tuple(tosses_per_bit(p, r.depth) for p in biases)
    rows = time_table(depths, biases)
    assert [r.depth for r in rows] == list(depths)
    for r in rows:
        assert r.values == tuple(processing_time(p, r.depth) for p in biases)


def test_reports_read_the_same_pass():
    for d in (0, 4, 9):
        rep = efficiency_report(0.3, d)
        assert rep.rate == extraction_rate(0.3, d)
        sim = simulate_efficiency(0.3, d, 200, seed=3)
        assert sim.expected_tosses_per_bit == tosses_per_bit(0.3, d)
        assert sim.expected_messages_per_symbol == processing_time(0.3, d)


def test_core_bits_per_level_track_prediction():
    p, depth, n = 0.3, 7, 200_000
    source = bernoulli_symbols(p, random.Random(1))
    session = CoinExtractor(depth)
    session.process_all("".join(next(source) for _ in range(n)))
    observed = [0] * (depth + 1)
    for path, node in session.snapshot().walk():
        observed[len(path)] += len(node.bit_log)
    for lvl, (_, bits) in enumerate(level_traffic(p, depth)):
        assert observed[lvl] == pytest.approx(n * bits, rel=0.05), lvl

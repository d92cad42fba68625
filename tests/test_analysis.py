import math
import re
from fractions import Fraction
from itertools import islice
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from debias.analysis import (
    TABLE_BIASES,
    TABLE_DEPTHS,
    DomainError,
    bernoulli_symbols,
    efficiency_report,
    entropy,
    extraction_rate,
    format_table,
    level_traffic,
    processing_time,
    simulate_efficiency,
    table_csv,
    time_table,
    tosses_per_bit,
    tosses_table,
)
from reference_values import BIASES, MESSAGES_PER_SYMBOL, TOSSES_PER_BIT, TOSSES_PER_BIT_LIMIT

biases_01 = st.floats(min_value=0.001, max_value=0.999, allow_nan=False)


def test_entropy_basics():
    assert entropy(0.5) == 1.0
    assert entropy(0.0) == 0.0 and entropy(1.0) == 0.0
    assert entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)


@given(biases_01)
def test_entropy_symmetric_and_bounded(p):
    assert entropy(p) == pytest.approx(entropy(1 - p), abs=1e-12)
    assert 0 < entropy(p) <= 1


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
def test_bias_domain(bad):
    with pytest.raises(DomainError):
        entropy(bad)
    with pytest.raises(DomainError):
        extraction_rate(bad, 3)


@pytest.mark.parametrize("bad", [True, False, None, "abc", [0.3]], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        entropy,
        lambda p: level_traffic(p, 2),
        lambda p: extraction_rate(p, 2),
        lambda p: efficiency_report(p, None),
        lambda p: simulate_efficiency(p, 2, 4),
    ],
    ids=["entropy", "level_traffic", "extraction_rate", "efficiency_report", "simulate_efficiency"],
)
def test_a_bias_that_is_not_a_number_is_a_domain_error(call, bad):
    with pytest.raises(DomainError, match=re.escape(f"got {bad!r}")):
        call(bad)


def test_numbers_and_numeric_strings_are_biases():
    assert entropy("0.5") == entropy(Fraction(1, 2)) == 1.0
    assert entropy(1) == entropy("0") == 0.0
    assert level_traffic("0.3", 2) == level_traffic(0.3, 2)
    assert efficiency_report(Fraction(3, 10), 4) == efficiency_report(0.3, 4)
    with pytest.raises(DomainError, match=re.escape("got '1.5'")):
        entropy("1.5")


@pytest.mark.parametrize("bad", [-1, 2.0, True, "3"])
def test_depth_domain(bad):
    with pytest.raises(DomainError):
        extraction_rate(0.3, bad)
    with pytest.raises(DomainError):
        processing_time(0.3, bad)


def test_processing_time_requires_finite_depth():
    with pytest.raises(DomainError):
        processing_time(0.3, None)


@given(biases_01)
def test_depth_zero_closed_forms(p):
    assert extraction_rate(p, 0) == p * (1 - p)
    assert processing_time(p, 0) == 1.0


def test_tosses_per_bit_table():
    for d, row in TOSSES_PER_BIT.items():
        for p, expected in zip(BIASES, row):
            assert tosses_per_bit(p, d) == pytest.approx(expected, abs=5e-5)
    for p, expected in zip(BIASES, TOSSES_PER_BIT_LIMIT):
        assert tosses_per_bit(p, None) == pytest.approx(expected, abs=5e-5)


def test_messages_per_symbol_table():
    for d, row in MESSAGES_PER_SYMBOL.items():
        for p, expected in zip(BIASES, row):
            assert processing_time(p, d) == pytest.approx(expected, abs=5e-4)


def test_balanced_coin_closed_forms():
    for d in range(31):
        assert extraction_rate(0.5, d) == pytest.approx(1 - 0.75 ** (d + 1), abs=1e-12)
        assert processing_time(0.5, d) == pytest.approx(4 - 3 * 0.75**d, abs=1e-12)


@pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.45, 0.5, 0.7, 0.99])
def test_rate_monotone_in_depth_and_below_entropy(p):
    h = entropy(p)
    prev = -1.0
    for d in range(21):
        r = extraction_rate(p, d)
        assert prev <= r <= h + 1e-12
        prev = r


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.8])
def test_rate_converges_to_entropy(p):
    # monotone and bounded by H(p), so closing within 1e-3 by depth 24
    # pins every deeper value inside the same margin
    assert entropy(p) - extraction_rate(p, 24) < 1e-3


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_time_within_trivial_bounds(p):
    for d in range(16):
        t = processing_time(p, d)
        assert 1.0 <= t <= d + 1


def test_degenerate_sources():
    assert extraction_rate(0.0, 5) == 0.0
    assert tosses_per_bit(1.0, 5) == math.inf
    assert tosses_per_bit(0.0, None) == math.inf


def test_table_builders_shape():
    rows = tosses_table()
    assert [r.depth for r in rows] == list(TABLE_DEPTHS) + [None]
    assert all(len(r.values) == len(TABLE_BIASES) for r in rows)
    rows = tosses_table(include_limit=False)
    assert [r.depth for r in rows] == list(TABLE_DEPTHS)
    rows = time_table((0, 3), (0.4,))
    assert [r.depth for r in rows] == [0, 3]
    assert rows[1].values[0] == pytest.approx(2.7840, abs=5e-4)


def test_table_formatting():
    text = format_table(tosses_table(), TABLE_BIASES)
    assert "1.5190" in text and "p=0.4" in text and "limit" in text.splitlines()[-1]
    csv = table_csv(tosses_table((3,), (0.4,)), (0.4,), "tosses_per_bit")
    assert csv.splitlines() == [
        "depth,p,tosses_per_bit",
        "3,0.4,1.5190",
        "limit,0.4,1.0299",
    ]
    csv = table_csv(time_table((10,), (0.1,)), (0.1,), "messages_per_symbol")
    assert csv.splitlines() == ["depth,p,messages_per_symbol", "10,0.1,7.9002"]


def test_efficiency_report_consistency():
    rep = efficiency_report(0.3, 7)
    assert rep.rate * rep.tosses_per_bit == pytest.approx(1.0, abs=1e-12)
    assert rep.efficiency == pytest.approx(rep.rate / entropy(0.3), abs=1e-12)
    assert 0 < rep.efficiency < 1
    assert efficiency_report(0.5, None).efficiency == 1.0


def test_bernoulli_stream_is_version_stable():
    # Mersenne Twister sequence for seed 0: 0.8444.., 0.7579.., 0.4205..
    assert list(islice(bernoulli_symbols(0.5, Random(0)), 3)) == ["T", "T", "H"]
    assert list(islice(bernoulli_symbols(0.9, Random(0)), 3)) == ["H", "H", "H"]


def test_simulation_is_reproducible():
    a = simulate_efficiency(0.3, 3, 2000, seed=7)
    b = simulate_efficiency(0.3, 3, 2000, seed=7)
    assert a == b
    assert a.tosses_per_bit == a.symbols_consumed / 2000
    assert a.messages_per_symbol == a.messages_total / a.symbols_consumed
    assert a.expected_tosses_per_bit == pytest.approx(1.7061, abs=5e-5)
    assert simulate_efficiency(0.3, 3, 2000, seed=8) != a


def test_simulation_tracks_prediction_loosely():
    r = simulate_efficiency(0.4, 2, 30000, seed=1)
    assert r.tosses_per_bit == pytest.approx(r.expected_tosses_per_bit, rel=0.05)
    assert r.messages_per_symbol == pytest.approx(r.expected_messages_per_symbol, rel=0.05)
    unlimited = simulate_efficiency(0.4, None, 5000, seed=1)
    assert unlimited.expected_messages_per_symbol is None


def test_simulation_domain():
    for bad_p in (0.0, 1.0):
        with pytest.raises(DomainError):
            simulate_efficiency(bad_p, 3, 100)
    with pytest.raises(DomainError):
        simulate_efficiency(0.3, 3, 0)


@pytest.mark.parametrize("k", [True, False, 2.0])
def test_simulation_count_is_an_int_not_a_bool(k):
    with pytest.raises(DomainError, match="k must be a positive int"):
        simulate_efficiency(0.3, 2, k)

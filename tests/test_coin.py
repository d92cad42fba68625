import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias.coin import (
    EMPTY,
    HEADS,
    HOLD_ONE,
    HOLD_ZERO,
    TAILS,
    CoinExtractor,
    NodeUpdate,
    SourceExhausted,
    extract_bits,
    node_update,
    take_bits,
)
from debias.vonneumann import VonNeumannExtractor

ht_strings = st.text(alphabet="HT", max_size=200)


def test_node_update_complete_table():
    expected = {
        (EMPTY, "H"): ("H", None, None, None),
        (EMPTY, "T"): ("T", None, None, None),
        (HOLD_ZERO, "H"): ("H", 0, None, None),
        (HOLD_ZERO, "T"): ("T", 0, None, None),
        (HOLD_ONE, "H"): ("H", 1, None, None),
        (HOLD_ONE, "T"): ("T", 1, None, None),
        ("H", "H"): (EMPTY, None, "T", "H"),
        ("T", "T"): (EMPTY, None, "T", "T"),
        ("H", "T"): (HOLD_ONE, None, "H", None),
        ("T", "H"): (HOLD_ZERO, None, "H", None),
    }
    for (label, sym), out in expected.items():
        assert node_update(label, sym) == NodeUpdate(*out)


@pytest.mark.parametrize("label,symbol", [("x", "H"), ("H", "x"), ("", "T"), ("0", "h")])
def test_node_update_rejects_garbage(label, symbol):
    with pytest.raises(ValueError):
        node_update(label, symbol)


def test_worked_stream_bit_timing():
    s = CoinExtractor()
    steps = [s.process(sym) for sym in "HTTTHT"]
    assert [st_.bits for st_ in steps] == [[], [], [1], [], [], [1]]
    assert [st_.messages for st_ in steps] == [1, 2, 1, 4, 1, 2]
    assert s.output == [1, 1]
    assert s.symbols_consumed == 6
    assert s.messages_total == 11


def test_worked_stream_trace():
    s = CoinExtractor()
    s.process_all("HTTTHT")
    got = {path: (n.label, n.bit_log) for path, n in s.snapshot().walk()}
    assert got == {
        "": (HOLD_ONE, (1,)),
        "L": ("H", (1,)),
        "LL": ("H", ()),
        "LR": (EMPTY, ()),
        "R": ("T", ()),
    }


def test_short_streams():
    assert extract_bits("HTH", 1) == ([1], 3)
    s = CoinExtractor()
    assert s.process("H") == ([], 1)
    assert s.snapshot().left is None
    # held bit is not output until the next symbol arrives
    s.process("T")
    assert s.output == []
    assert s.process("H").bits == [1]


def test_extract_bits_golden_and_laziness():
    assert extract_bits("HTTTHT", 2) == ([1, 1], 6)
    assert extract_bits("HTTTHT", 1) == ([1], 3)  # stops as soon as satisfied
    assert extract_bits("HTTTHT", 0) == ([], 0)


def test_source_exhausted_carries_partials():
    with pytest.raises(SourceExhausted) as exc:
        extract_bits("HHHH", 1)
    assert exc.value.bits == []
    assert exc.value.symbols_consumed == 4
    assert exc.value.requested == 1

    with pytest.raises(SourceExhausted) as exc:
        extract_bits("HTT", 2)
    assert exc.value.bits == [1]


def test_take_bits_drain_and_reuse():
    s = CoinExtractor()
    bits, n = take_bits(s, "HTTTHT", None)
    assert (bits, n) == ([1, 1], 6)
    # a second call only reports bits released after the first
    bits, n = take_bits(s, "HHT", None)
    assert n == 3 and bits == s.output[2:]
    with pytest.raises(ValueError):
        take_bits(CoinExtractor(), "HT", -1)


def test_constant_stream_never_emits():
    assert CoinExtractor().process_all("H" * 200) == []
    assert CoinExtractor().process_all("T" * 200) == []


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        CoinExtractor(-1)
    with pytest.raises(ValueError):
        CoinExtractor(1.5)
    with pytest.raises(ValueError):
        CoinExtractor().process("X")
    with pytest.raises(ValueError):
        CoinExtractor().process("h")


@given(ht_strings)
def test_depth_zero_matches_delayed_von_neumann(xs):
    tree = CoinExtractor(depth_limit=0)
    vn = VonNeumannExtractor()
    for sym in xs:
        tree.process(sym)
        vn.process(sym)
        # depth 0 trails plain von Neumann by exactly the held bit, if any
        assert vn.output[: len(tree.output)] == tree.output
        gap = len(vn.output) - len(tree.output)
        assert gap == (1 if tree.snapshot().label in (HOLD_ZERO, HOLD_ONE) else 0)


@given(ht_strings, st.integers(min_value=0, max_value=3))
def test_depth_cap_is_respected(xs, d):
    s = CoinExtractor(depth_limit=d)
    s.process_all(xs)
    assert all(len(path) <= d for path, _ in s.snapshot().walk())


@given(ht_strings, ht_strings)
def test_prefix_of_input_gives_prefix_of_output(xs, ys):
    a = CoinExtractor()
    a.process_all(xs)
    b = CoinExtractor()
    b.process_all(xs + ys)
    assert b.output[: len(a.output)] == a.output


@given(ht_strings)
def test_incremental_equals_batch(xs):
    a = CoinExtractor()
    for sym in xs:
        a.process(sym)
    b = CoinExtractor()
    b.process_all(xs)
    assert a.output == b.output
    assert a.messages_total == b.messages_total
    assert a.snapshot() == b.snapshot()


def test_clone_is_independent():
    s = CoinExtractor()
    s.process_all("HTTT")
    frozen = s.snapshot()
    c = s.clone()
    c.process_all("HHTHT")
    assert s.snapshot() == frozen
    assert s.output == [1]
    # a clone fed the same continuation matches the uncloned session
    t = CoinExtractor()
    t.process_all("HTTT" + "HHTHT")
    assert c.output == t.output and c.snapshot() == t.snapshot()


@given(ht_strings, st.integers(min_value=0, max_value=3))
def test_per_symbol_message_and_output_bounds(xs, d):
    s = CoinExtractor(depth_limit=d)
    for sym in xs:
        step = s.process(sym)
        # every symbol reaches the root; fan-out doubles at worst per level
        assert 1 <= step.messages <= 2 ** (d + 1) - 1
        assert len(step.bits) <= max(1, 2**d)
        assert len(step.bits) <= step.messages


def test_equal_pair_fanout_exceeds_depth_plus_one():
    # both children of the root receive a message on an equal pair, so the
    # per-symbol delivery count is not bounded by depth_limit + 1
    s = CoinExtractor(depth_limit=1)
    steps = [s.process(sym) for sym in "HHHH"]
    assert [st_.messages for st_ in steps] == [1, 3, 1, 3]


def test_output_equals_logged_bits():
    rng = random.Random(7)
    for _ in range(20):
        xs = "".join(rng.choice("HT") for _ in range(rng.randrange(300)))
        s = CoinExtractor(rng.choice([None, 0, 1, 2, 5]))
        s.process_all(xs)
        logs = [n.bit_log for _, n in s.snapshot().walk()]
        assert sum(len(lg) for lg in logs) == len(s.output)
        assert sorted(b for lg in logs for b in lg) == sorted(s.output)


@settings(deadline=None)
@given(ht_strings)
def test_messages_one_per_symbol_at_depth_zero(xs):
    s = CoinExtractor(depth_limit=0)
    s.process_all(xs)
    assert s.messages_total == len(xs)


def test_empirical_message_mean_tracks_prediction():
    from debias.analysis import processing_time

    rng = random.Random(99)
    p, d, n = 0.3, 3, 10**6
    s = CoinExtractor(depth_limit=d)
    for _ in range(n):
        s.process(HEADS if rng.random() < p else TAILS)
    observed = s.messages_total / n
    assert observed == pytest.approx(processing_time(p, d), rel=0.01)


@pytest.mark.parametrize("bad", [True, False])
def test_rejects_boolean_depth_limit(bad):
    with pytest.raises(ValueError):
        CoinExtractor(bad)

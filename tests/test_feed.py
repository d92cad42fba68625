"""Bulk ``feed`` against per-symbol ``process``, and the int-coded tree
core against a walker that knows the node rules only through
``node_update``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias.coin import HEADS, TAILS, CoinExtractor, SourceExhausted, extract_bits, take_bits
from debias.dice import DiceExtractor
from debias.markov import MarkovExtractor
from debias.vonneumann import VonNeumannExtractor
from node_update_walker import RefNode, ref_deliver

DEPTHS = [None, 0, 1, 3, 15]
ht_strings = st.text(alphabet="HT", max_size=200)


def state(s: CoinExtractor):
    return s.output, s.messages_total, s.symbols_consumed, s.snapshot()


def process_until(session, items, until):
    """Reference for ``feed``: ``process`` items one at a time, stopping
    once the output holds ``until`` bits; return the number consumed."""
    n = 0
    for item in items:
        if until is not None and len(session.output) >= until:
            break
        session.process(item)
        n += 1
    return n


def take_bits_by_process(session, items, k):
    """Reference for ``take_bits``: the same contract, driven by ``process``."""
    base = len(session.output)
    if k == 0:
        return [], 0
    consumed = 0
    for item in items:
        session.process(item)
        consumed += 1
        if k is not None and len(session.output) - base >= k:
            return session.output[base : base + k], consumed
    if k is None:
        return session.output[base:], consumed
    raise SourceExhausted(session.output[base:], consumed, k)


def outcome(call):
    try:
        return "ok", call()
    except SourceExhausted as exc:
        return "exhausted", (exc.bits, exc.symbols_consumed, exc.requested)


@settings(max_examples=200, deadline=None)
@given(xs=ht_strings, depth=st.sampled_from(DEPTHS), data=st.data())
def test_feed_matches_process_over_chunks_and_targets(xs, depth, data):
    fed, ref = CoinExtractor(depth), CoinExtractor(depth)
    pos = 0
    while pos < len(xs):
        end = data.draw(st.integers(pos + 1, len(xs)), label="chunk end")
        until = data.draw(st.none() | st.integers(0, len(xs)), label="until")
        chunk = iter(xs[pos:end])
        n = fed.feed(chunk, until)
        assert n == process_until(ref, xs[pos:end], until)
        assert "".join(chunk) == xs[pos + n : end]  # nothing pulled past the target
        assert state(fed) == state(ref)
        pos = pos + n if n else end  # a chunk fed to neither session is dropped


@settings(max_examples=200, deadline=None)
@given(
    xs=ht_strings,
    split=st.integers(0, 200),
    depth=st.sampled_from(DEPTHS),
    k=st.none() | st.integers(0, 60),
)
def test_take_bits_matches_per_symbol_reference(xs, split, depth, k):
    head, tail = xs[:split], xs[split:]
    fed, ref = CoinExtractor(depth), CoinExtractor(depth)
    fed.feed(head)
    for s in head:
        ref.process(s)
    source = iter(tail)
    got = outcome(lambda: take_bits(fed, source, k))
    assert got == outcome(lambda: take_bits_by_process(ref, tail, k))
    consumed = got[1][1]
    assert "".join(source) == tail[consumed:]
    assert state(fed) == state(ref)


@settings(max_examples=100, deadline=None)
@given(
    xs=ht_strings,
    ys=ht_strings,
    bad=st.sampled_from(["X", "h", "", "HT", None, 1]),
    depth=st.sampled_from(DEPTHS),
)
def test_bad_symbol_leaves_the_session_after_its_prefix(xs, ys, bad, depth):
    fed, ref = CoinExtractor(depth), CoinExtractor(depth)
    with pytest.raises(ValueError):
        fed.feed([*xs, bad, *ys])
    for s in xs:
        ref.process(s)
    assert state(fed) == state(ref)


@settings(max_examples=100, deadline=None)
@given(
    xs=ht_strings,
    ys=ht_strings,
    bad=st.sampled_from(["X", "h", "\x00", "\x01", "\x02", "é", "\ud800", " "]),
    depth=st.sampled_from(DEPTHS),
)
def test_bad_character_in_a_str_leaves_the_session_after_its_prefix(xs, ys, bad, depth):
    # a str fed to the end is checked as a whole before any delivery
    fed, ref = CoinExtractor(depth), CoinExtractor(depth)
    with pytest.raises(ValueError, match="symbol must be"):
        fed.feed(xs + bad + ys)
    ref.feed(list(xs))
    assert state(fed) == state(ref)
    assert fed.feed(ys) == len(ys)
    ref.feed(list(ys))
    assert state(fed) == state(ref)


SESSIONS = {
    "dice": (lambda: DiceExtractor(3, 2), lambda rng: rng.randrange(3)),
    "markov": (lambda: MarkovExtractor(3, 2), lambda rng: rng.randrange(3)),
    "vonneumann": (VonNeumannExtractor, lambda rng: rng.choice("HT")),
}


@pytest.mark.parametrize("kind", sorted(SESSIONS))
@pytest.mark.parametrize("seed", range(5))
def test_per_item_feed_matches_process(kind, seed):
    make, draw = SESSIONS[kind]
    rng = random.Random(seed)
    items = [draw(rng) for _ in range(300)]
    fed, ref = make(), make()
    pos = 0
    while pos < len(items):
        end = rng.randint(pos + 1, len(items))
        until = rng.choice([None, len(fed.output) + rng.randrange(-2, 20)])
        chunk = iter(items[pos:end])
        n = fed.feed(chunk, until)
        assert n == process_until(ref, items[pos:end], until)
        assert list(chunk) == items[pos + n : end]
        assert fed.output == ref.output
        pos = pos + n if n else end


def test_take_bits_on_von_neumann():
    assert take_bits(VonNeumannExtractor(), "HTTHHT", 2) == ([1, 0], 4)
    with pytest.raises(SourceExhausted) as exc:
        take_bits(VonNeumannExtractor(), "HTTTHH", 2)
    assert (exc.value.bits, exc.value.symbols_consumed) == ([1], 6)


@pytest.mark.parametrize("k", [1.5, "2", True, False, -1])
def test_take_bits_refuses_a_bad_count_before_pulling_an_item(k):
    s = CoinExtractor(2)
    s.feed("HTTH")
    before = (s.output.copy(), s.messages_total, s.symbols_consumed, s.snapshot())
    source = iter("HTHTHTHT")
    with pytest.raises(ValueError, match="k must be"):
        take_bits(s, source, k)
    assert "".join(source) == "HTHTHTHT"
    assert (s.output, s.messages_total, s.symbols_consumed, s.snapshot()) == before


class Counting:
    """An iterator over ``items`` that counts the items pulled from it."""

    def __init__(self, items) -> None:
        self._items = iter(items)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.pulled += 1
        return item


@pytest.mark.parametrize(
    "make, items",
    [
        (lambda: CoinExtractor(3), "HTTHHTHT"),
        (lambda: DiceExtractor(3, 3), [0, 2, 1, 2, 2, 0]),
        (lambda: MarkovExtractor(3, 3), [0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2]),
        (VonNeumannExtractor, "HTTHHTHT"),
    ],
    ids=["coin", "dice", "markov", "vonneumann"],
)
def test_take_bits_of_zero_pulls_no_item(make, items):
    for fed in (0, len(items)):  # a fresh session, then one holding bits
        s = make()
        s.feed(items[:fed])
        assert bool(s.output) == bool(fed)
        before = s.output.copy()
        source = Counting(items)
        assert take_bits(s, source, 0) == ([], 0)
        assert source.pulled == 0
        assert s.output == before


def test_extract_bits_of_zero_pulls_no_symbol():
    source = Counting("HTTHHT")
    assert extract_bits(source, 0) == ([], 0)
    assert source.pulled == 0


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 15, None])
@pytest.mark.parametrize("seed", range(8))
def test_int_core_matches_node_update_walker(depth, seed):
    rng = random.Random(seed)
    p = rng.choice([0.1, 0.3, 0.5, 0.8])
    xs = [HEADS if rng.random() < p else TAILS for _ in range(rng.randrange(50, 600))]
    core, root = CoinExtractor(depth), RefNode()
    for s in xs:
        bits: list[int] = []
        messages = ref_deliver(root, s, depth, bits)
        step = core.process(s)
        assert (step.bits, step.messages) == (bits, messages)
    assert core.snapshot() == root.trace()


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 15, None])
@pytest.mark.parametrize("seed", range(8))
def test_derived_message_count_matches_node_update_walker_after_every_chunk(depth, seed):
    # at depth 0 to 3 most pairs are completed at the cap, whose pair count
    # is the one number the loop keeps
    rng = random.Random(seed)
    p = rng.choice([0.1, 0.3, 0.5, 0.8])
    xs = "".join(HEADS if rng.random() < p else TAILS for _ in range(rng.randrange(200, 3000)))
    core, root, bits = CoinExtractor(depth), RefNode(), []
    messages = pos = 0
    while pos < len(xs):
        end = rng.randint(pos + 1, min(len(xs), pos + 400))
        until = rng.choice([None, len(core.output) + rng.randrange(-2, 60)])
        n = core.feed(xs[pos:end], until)
        for s in xs[pos : pos + n]:
            messages += ref_deliver(root, s, depth, bits)
        assert core.messages_total == messages
        assert core.output == bits
        pos = pos + n if n else end  # a chunk fed to neither is dropped
    assert core.snapshot() == root.trace()

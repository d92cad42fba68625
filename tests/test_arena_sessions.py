"""The dice and Markov sessions on one shared arena, checked against the
per-tree sessions in ``per_tree_reference``, plus their bulk-feed edge
cases: bad items in mid-stream, booleans, ``take_bits`` and ``clone``."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_tree_reference as ref
from debias import coin
from debias.coin import Arena, CoinExtractor, SourceExhausted, take_bits
from debias.dice import DiceExtractor, binarize, prefix_stream
from debias.markov import MarkovExtractor, UnknownState
from debias.oracle import verify_markov

DEPTHS = [None, 0, 1, 3, 15]
SESSIONS = {
    "dice": (DiceExtractor, ref.DiceExtractor, ValueError),
    "markov": (MarkovExtractor, ref.MarkovExtractor, UnknownState),
}


def views(s):
    """The view records of a dice or Markov session, as one access reads them."""
    return s.forests if hasattr(s, "forests") else s.trees


def trees(forest):
    """Per-slot snapshots and outputs, in slot order."""
    return [(p, t.snapshot(), t.output) for p, t in forest.trees.items()]


def state(s):
    """Everything a dice or Markov session exposes, in a comparable form."""
    common = (s.output, s.messages_total)
    if hasattr(s, "forests"):
        forests = [(q, f.faces_consumed, f.output, trees(f)) for q, f in s.forests.items()]
        return (*common, s.symbols_consumed, list(s.pending.items()), s.last_state, forests)
    return (*common, s.faces_consumed, trees(s))


def outcome(call):
    try:
        return "ok", call()
    except SourceExhausted as exc:
        return "exhausted", (exc.bits, exc.symbols_consumed, exc.requested)


cases = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(sorted(SESSIONS)),
        "m": st.integers(2, 9),
        "depth": st.sampled_from(DEPTHS),
    }
)


def pair(case):
    new, old, _ = SESSIONS[case["kind"]]
    return new(case["m"], case["depth"]), old(case["m"], case["depth"])


def draw_items(data, m, max_size):
    """A seeded stream of faces or states from a random loaded die, long
    enough for ``until`` to land inside most chunks."""
    n = data.draw(st.integers(0, max_size), label="length")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    weights = [rng.random() for _ in range(m)]
    return rng.choices(range(m), weights, k=n)


@settings(max_examples=200, deadline=None)
@given(case=cases, data=st.data())
def test_matches_per_tree_reference_over_chunks_and_targets(case, data):
    m = case["m"]
    items = draw_items(data, m, 300)
    new, old = pair(case)
    pos = 0
    while pos < len(items):
        end = data.draw(st.integers(pos + 1, len(items)), label="chunk end")
        how = data.draw(st.sampled_from(["feed", "process", "clone", "views"]), label="how")
        if how == "process":
            for x in items[pos:end]:
                assert new.process(x) == old.process(x)
            pos = end
        else:
            if how == "clone":
                parent, frozen = new, state(new)
                new = new.clone()
            elif how == "views":
                held, twin = views(new), new.clone()
            delta = data.draw(st.none() | st.integers(-2, 20), label="until - len(output)")
            until = None if delta is None else len(new.output) + delta
            chunk, ref_chunk = iter(items[pos:end]), iter(items[pos:end])
            n = new.feed(chunk, until)
            assert n == old.feed(ref_chunk, until)
            # nothing is pulled past the target
            assert list(chunk) == list(ref_chunk) == items[pos + n : end]
            if how == "clone":
                assert state(parent) == frozen
            elif how == "views":  # records keep the values of their read
                assert held == views(twin)
            pos = pos + n if n else end  # a chunk fed to neither session is dropped
        assert state(new) == state(old)


@settings(max_examples=150, deadline=None)
@given(case=cases, data=st.data(), k=st.none() | st.integers(0, 60))
def test_take_bits_matches_per_item_reference(case, data, k):
    m = case["m"]
    items = draw_items(data, m, 300)
    split = data.draw(st.integers(0, len(items)), label="split")
    head, tail = items[:split], items[split:]
    new, old = pair(case)
    new.feed(head)
    old.feed(head)
    source = iter(tail)
    got = outcome(lambda: take_bits(new, source, k))
    assert got == outcome(lambda: take_bits(old, iter(tail), k))
    assert list(source) == tail[got[1][1] :]
    assert state(new) == state(old)


@settings(max_examples=100, deadline=None)
@given(
    case=cases,
    data=st.data(),
    bad=st.sampled_from([-1, "m", 1.5, "0", None, True, False]),
)
def test_bad_item_leaves_the_session_after_its_prefix(case, data, bad):
    m = case["m"]
    xs = draw_items(data, m, 100)
    ys = draw_items(data, m, 10)
    bad = m if bad == "m" else bad
    new, _ = pair(case)
    per_item, _ = pair(case)
    error = SESSIONS[case["kind"]][2]
    with pytest.raises(error):
        new.feed([*xs, bad, *ys])
    for x in xs:
        per_item.process(x)
    assert state(new) == state(per_item)
    with pytest.raises(error):
        new.process(bad)
    assert state(new) == state(per_item)


@pytest.mark.parametrize("bad", [True, False])
def test_booleans_are_not_faces(bad):
    with pytest.raises(ValueError):
        binarize(bad, 3)
    with pytest.raises(ValueError):
        prefix_stream([0, bad], "", 3)
    s = DiceExtractor(3)
    s.feed([0, 1, 2])
    before = state(s)
    with pytest.raises(ValueError):
        s.process(bad)
    assert state(s) == before
    with pytest.raises(ValueError):
        s.feed([1, bad, 2])
    expected = DiceExtractor(3)
    expected.feed([0, 1, 2, 1])
    assert state(s) == state(expected)


@pytest.mark.parametrize("bad", [True, False])
def test_booleans_are_not_states(bad):
    s = MarkovExtractor(3)
    with pytest.raises(UnknownState) as exc:
        s.feed([bad, False])
    assert exc.value.state is bad
    assert (s.pending, s.last_state, s.symbols_consumed) == ({}, None, 0)
    s.feed([0, 1, 0, 2])
    before = state(s)
    with pytest.raises(UnknownState):
        s.process(bad)
    assert state(s) == before
    assert all(type(q) is int and type(x) is int for q, x in s.pending.items())
    with pytest.raises(ValueError):  # the oracle's start state, checked up front
        verify_markov([["1/2", "1/2"], ["1/3", "2/3"]], bad, 4, 1)


def test_markov_clone_is_independent():
    rng = random.Random(4)
    walk = [rng.randrange(4) for _ in range(400)]
    other = [rng.randrange(4) for _ in range(100)]
    s = MarkovExtractor(4, depth_limit=3)
    s.feed(walk[:200])
    frozen = state(s)
    c = s.clone()
    c.feed(walk[200:])
    assert state(s) == frozen
    full = MarkovExtractor(4, depth_limit=3)
    full.feed(walk)
    assert state(c) == state(full)
    s.feed(other)  # and the other way round
    assert state(c) == state(full)
    forked = MarkovExtractor(4, depth_limit=3)
    forked.feed(walk[:200] + other)
    assert state(s) == state(forked)


class CountingList(list):
    """A list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_every_view_comes_from_one_pass_over_the_owner_record():
    rng = random.Random(8)
    s = MarkovExtractor(4, 15)
    s.feed(rng.choices(range(4), [4, 3, 2, 1], k=2000))
    s.output = CountingList(s.output)
    forests = s.forests
    assert sum(len(f.trees) for f in forests.values()) >= 8
    for f in forests.values():
        assert len(f.output) == sum(len(t.output) for t in f.trees.values())
        for t in f.trees.values():
            assert t.snapshot().depth >= 0
    assert s.output.passes == 1


def test_one_feed_and_one_clone_serve_every_arena_session():
    assert CoinExtractor.feed is DiceExtractor.feed is MarkovExtractor.feed is Arena.feed
    assert CoinExtractor.clone is Arena.clone


def test_the_delivery_loop_counts_no_message():
    # every message count is derived from the arena: the loop keeps no
    # count of deliveries, and a counter tree is a root it steps like any other
    assert not {"messages_total", "_count"} & set(Arena.feed.__code__.co_names)


def test_dice_and_markov_share_one_die_forest():
    # the first class both sessions inherit from holds the forest: slot
    # layout, route cache and the copy of the forest fields
    forests = next(c for c in DiceExtractor.__mro__ if c in MarkovExtractor.__mro__)
    assert forests is not Arena
    assert DiceExtractor._route is MarkovExtractor._route is forests._route
    assert DiceExtractor.clone is forests.clone and "clone" in vars(forests)
    markov_copies = MarkovExtractor.clone.__code__.co_names
    assert not {"m", "width", "_roots", "_route_of"} & set(markov_copies)
    assert not issubclass(MarkovExtractor, DiceExtractor)
    # the base holds the one item stream too: each session supplies only the
    # route of each item, and a chain's copy holds only its lag, no count
    assert "_deliveries" in vars(forests)
    assert "_deliveries" not in vars(DiceExtractor) and "_deliveries" not in vars(MarkovExtractor)
    # a route is one flat tuple of deliveries, counter roots included, so the
    # stream updates nothing but the item count
    assert set(forests._deliveries.__code__.co_names) == {"output", "_routes", "len", "_fed"}
    assert {"pending", "last_state"} <= set(markov_copies)
    assert not {"_faces", "_fed", "_count"} & set(markov_copies)


@pytest.mark.parametrize("kind", ["coin", "dice", "markov"])
def test_a_depth_past_any_tree_height_is_unlimited(kind):
    # 2**62 levels are never reached, so the cap must cost nothing; a
    # 3-sided die and a 3-state chain have counter trees, which read it.  A
    # node's room is clamped to the unlimited room, so past it (2**100) the
    # arena holds the same child slots as at depth None.  Both hold on the
    # compiled loop, when it is built, and on the Python loop
    rng = random.Random(62)
    if kind == "coin":
        items = rng.choices("HT", [3, 7], k=3000)
        make, seen = CoinExtractor, lambda s: (s.output, s.messages_total, s.snapshot())
    else:
        items = rng.choices(range(3), [5, 3, 2], k=3000)
        new = SESSIONS[kind][0]
        make, seen = (lambda depth: new(3, depth)), state
    for kernel in {coin._kernel, None}:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coin, "_kernel", kernel)
            for depth in (2**62, 2**100):
                deep, unlimited = make(depth), make(None)
                deep.feed(items)
                unlimited.feed(items)
                assert seen(deep) == seen(unlimited)
                if depth > sys.maxsize:
                    assert deep._kids == unlimited._kids

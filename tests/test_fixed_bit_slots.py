"""Forest slots that can only ever receive ``T``: whenever m is not a power
of two, some word prefixes are followed by bit 0 on every face.  Such a
slot's tree is a counter, one root with no room below it that stands for
the whole tree (see ``debias.coin.counter_tree``); these tests hold its
closed forms to a coin session fed ``T`` only, and the dice and Markov
sessions that use counters to the per-tree sessions of
``per_tree_reference`` on streams long enough to grow deep counter trees."""

import math
import random

import pytest

import per_tree_reference as ref
from debias.coin import _AT_CAP, CoinExtractor, counter_tree
from debias.dice import DiceExtractor
from debias.markov import MarkovExtractor
from test_arena_sessions import state

SESSIONS = {"dice": (DiceExtractor, ref.DiceExtractor), "markov": (MarkovExtractor, ref.MarkovExtractor)}


@pytest.mark.parametrize("depth", [None, 0, 1, 2, 3, 7, 15])
def test_closed_forms_match_a_coin_fed_only_tails(depth):
    coin = CoinExtractor(depth)
    cap = math.inf if depth is None else 2**depth
    assert coin.snapshot() == counter_tree(0, depth)
    for n in range(1, 300):
        step = coin.process("T")
        assert step.bits == []
        assert step.messages == 2 * min(n & -n, cap) - 1
        assert coin.snapshot() == counter_tree(n, depth)


def walk_nodes(view) -> int:
    return sum(1 for _ in view.snapshot().walk())


def test_fixed_bit_slot_is_one_childless_root_and_keeps_its_place():
    # m = 5 words: 4 is HTT, so slots H and HT (keys 0b11 and 0b110) only ever see T
    s = DiceExtractor(5, 15)
    faces = [4, 4, 0, 4, 2, 1, 3, 4, 0]
    s.feed(faces)
    assert list(s.trees) == ["", "H", "HT", "T", "TT", "TH"]  # first-delivery order
    fixed = {"H", "HT"}
    assert len(s._label) == sum(walk_nodes(t) for p, t in s.trees.items() if p not in fixed) + len(fixed)
    assert [s._kids[s._roots[key]] for key in (0b11, 0b110)] == [_AT_CAP, _AT_CAP]
    fed_tails = CoinExtractor(15)
    fed_tails.feed("T" * faces.count(4))
    for p in fixed:
        assert s.trees[p].snapshot() == fed_tails.snapshot()
        assert s.trees[p].output == []
    old = ref.DiceExtractor(5, 15)
    old.feed(faces)
    assert state(s) == state(old)


def test_markov_arena_holds_the_releasing_trees_and_one_root_per_counter():
    rng = random.Random(3)
    walk = [rng.randrange(3) for _ in range(3000)]
    s = MarkovExtractor(3, 15)
    s.feed(walk)
    views = [(p, t) for f in s.forests.values() for p, t in f.trees.items()]
    assert sum(p == "H" for p, _ in views) == 3  # one counter per state
    assert len(s._label) == sum(walk_nodes(t) for p, t in views if p != "H") + 3
    assert [s._kids[s._roots[q << 2 | 0b11]] for q in range(3)] == [_AT_CAP] * 3  # slot H of each state


def seeded_items(m: int, n: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return rng.choices(range(m), [rng.random() for _ in range(m)], k=n)


@pytest.mark.parametrize("kind", sorted(SESSIONS))
@pytest.mark.parametrize("depth", [0, 1, 15, None])
@pytest.mark.parametrize("m", [3, 5, 6, 7, 9])
def test_long_streams_match_per_tree_reference(kind, m, depth):
    new_cls, old_cls = SESSIONS[kind]
    items = seeded_items(m, 5000, 1000 * m + (depth or 0))
    new, old = new_cls(m, depth), old_cls(m, depth)
    for lo in range(0, len(items), 1700):  # a few bulk feeds, state compared after each
        chunk = items[lo:lo + 1700]
        assert new.feed(chunk) == old.feed(chunk) == len(chunk)
        assert state(new) == state(old)


@pytest.mark.parametrize("kind", sorted(SESSIONS))
@pytest.mark.parametrize("m", [3, 5, 6])
def test_clone_with_fixed_bit_slots_is_independent(kind, m):
    new_cls, old_cls = SESSIONS[kind]
    low = 1 << (m - 1).bit_length() - 1  # faces below it reach no fixed-bit slot
    head = [x % low for x in seeded_items(m, 40, m)]
    tails = {who: seeded_items(m, 400, 10 * m + i) for i, who in enumerate(("parent", "clone"))}
    parent = new_cls(m, 3)
    parent.feed(head)
    twin = parent.clone()
    frozen = state(parent)
    # each allocates the fixed-bit slots at its own point, so their roots differ
    twin.feed(tails["clone"])
    assert state(parent) == frozen
    parent.feed(tails["parent"])
    for who, session in (("parent", parent), ("clone", twin)):
        old = old_cls(m, 3)
        old.feed(head + tails[who])
        assert state(session) == state(old)

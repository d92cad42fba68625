import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias.dice import DiceExtractor
from debias.markov import MarkovExtractor, UnknownState, exit_stream

# 13-step walk on 4 states whose per-state exit streams hit every slot
GOLDEN_WALK = [0, 3, 1, 0, 2, 1, 2, 0, 0, 1, 2, 3, 0]


def test_exit_stream():
    assert exit_stream(GOLDEN_WALK, 0) == [3, 2, 0, 1]
    assert exit_stream(GOLDEN_WALK, 1) == [0, 2, 2]
    assert exit_stream(GOLDEN_WALK, 2) == [1, 0, 3]
    assert exit_stream(GOLDEN_WALK, 3) == [1, 0]
    assert exit_stream([], 0) == []
    assert exit_stream([0], 0) == []  # the final visit has no successor yet
    assert exit_stream(GOLDEN_WALK, 7) == []  # a state the walk never visits


@pytest.mark.parametrize("bad", [True, 1.0, -1, None, "1"], ids=repr)
def test_exit_stream_state_is_a_count(bad):
    with pytest.raises(ValueError, match="state must be a nonnegative int"):
        exit_stream([0, 1, 0, 2, 1, 2], bad)


def test_n_states_is_the_forest_alphabet():
    s = MarkovExtractor(5)
    assert s.n_states == s.m == 5


def test_worked_walk_parking_and_delivery():
    s = MarkovExtractor(4)
    s.process_all(GOLDEN_WALK)
    # each state parks its latest exit ...
    assert s.pending == {0: 1, 1: 2, 2: 3, 3: 0}
    # ... and has delivered every earlier exit to its own forest
    for state in range(4):
        exits = exit_stream(GOLDEN_WALK, state)
        assert s.forests[state].faces_consumed == len(exits) - 1
        ref = DiceExtractor(4)
        ref.process_all(exits[:-1])
        assert s.forests[state].output == ref.output
        assert {p: t.snapshot() for p, t in s.forests[state].trees.items()} == {
            p: t.snapshot() for p, t in ref.trees.items()
        }


def test_first_step_only_records_position():
    s = MarkovExtractor(3)
    assert s.process(2) == ([], 0)
    assert s.messages_total == 0 and s.pending == {} and s.forests == {}
    assert s.last_state == 2


def test_delivery_lags_one_visit():
    s = MarkovExtractor(2)
    s.process_all([0, 1])  # exit 1 parked for state 0, nothing delivered
    assert s.pending == {0: 1} and 0 not in s.forests
    s.process_all([0])  # leaving 1 parks 0 for it
    assert s.pending == {0: 1, 1: 0}
    s.process_all([1])  # leaving 0 again delivers the parked 1
    assert s.forests[0].faces_consumed == 1
    assert s.pending[0] == 1


@settings(deadline=None)
@given(st.lists(st.integers(0, 2), max_size=120))
def test_matches_exit_stream_decomposition_at_every_prefix(walk):
    s = MarkovExtractor(3)
    for i, state in enumerate(walk):
        s.process(state)
        prefix = walk[: i + 1]
        for q in range(3):
            exits = exit_stream(prefix, q)
            if not exits:
                assert q not in s.pending and q not in s.forests
                continue
            assert s.pending[q] == exits[-1]
            delivered = exits[:-1]
            if q in s.forests:
                assert s.forests[q].faces_consumed == len(delivered)
                ref = DiceExtractor(3)
                ref.process_all(delivered)
                assert s.forests[q].output == ref.output
            else:
                assert delivered == []
    assert sorted(b for f in s.forests.values() for b in f.output) == sorted(s.output)


def test_unseen_state_has_no_forest_and_no_pending():
    s = MarkovExtractor(5)
    s.process_all([0, 1, 0, 1, 0, 1, 1, 0])
    for unseen in (2, 3, 4):
        assert unseen not in s.forests
        assert unseen not in s.pending


def test_single_state_loop_never_emits():
    s = MarkovExtractor(2)
    s.process_all([1] * 200)
    assert s.output == []


@given(st.lists(st.integers(0, 2), max_size=80), st.lists(st.integers(0, 2), max_size=80))
def test_prefix_of_walk_gives_prefix_of_bits(xs, ys):
    a = MarkovExtractor(3)
    a.process_all(xs)
    b = MarkovExtractor(3)
    b.process_all(xs + ys)
    assert b.output[: len(a.output)] == a.output


def test_clone_is_independent():
    rng = random.Random(3)
    walk = [rng.randrange(3) for _ in range(60)]
    s = MarkovExtractor(3)
    s.process_all(walk[:30])
    pending_before = dict(s.pending)
    c = s.clone()
    c.process_all(walk[30:])
    assert s.pending == pending_before
    full = MarkovExtractor(3)
    full.process_all(walk)
    assert c.output == full.output and c.pending == full.pending


def test_unknown_state_rejected():
    s = MarkovExtractor(3)
    for bad in (-1, 3, 99):
        with pytest.raises(UnknownState) as exc:
            s.process(bad)
        assert exc.value.state == bad and exc.value.n_states == 3
    with pytest.raises(UnknownState):
        s.process("0")
    with pytest.raises(ValueError):
        MarkovExtractor(1)


def test_depth_limit_is_forwarded_to_forests():
    s = MarkovExtractor(2, depth_limit=0)
    rng = random.Random(8)
    s.process_all([rng.randrange(2) for _ in range(300)])
    for forest in s.forests.values():
        for tree in forest.trees.values():
            assert tree.snapshot().left is None


@pytest.mark.parametrize("bad", [-1, 1.5, True])
def test_rejects_bad_depth_limit_at_construction(bad):
    with pytest.raises(ValueError):
        MarkovExtractor(2, bad)

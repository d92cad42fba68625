import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias.coin import CoinExtractor
from debias.dice import DiceExtractor, binarize, face_width, prefix_stream

GOLDEN_FACES = [0, 1, 2, 1, 1, 2, 2, 1, 0]


def test_face_width():
    assert [face_width(m) for m in (2, 3, 4, 5, 8, 9)] == [1, 2, 2, 3, 3, 4]
    for bad in (1, 0, -3, 2.0):
        with pytest.raises(ValueError):
            face_width(bad)


def test_binarize():
    assert [binarize(f, 3) for f in range(3)] == ["TT", "TH", "HT"]
    assert [binarize(f, 4) for f in range(4)] == ["TT", "TH", "HT", "HH"]
    assert binarize(5, 6) == "HTH"
    assert binarize(0, 2) == "T" and binarize(1, 2) == "H"
    with pytest.raises(ValueError):
        binarize(3, 3)
    with pytest.raises(ValueError):
        binarize(-1, 3)


def test_prefix_stream_golden():
    assert prefix_stream(GOLDEN_FACES, "", 3) == "TTHTTHHTT"
    assert prefix_stream(GOLDEN_FACES, "T", 3) == "THHHHT"
    assert prefix_stream(GOLDEN_FACES, "H", 3) == "TTT"
    with pytest.raises(ValueError):
        prefix_stream(GOLDEN_FACES, "TT", 3)  # as long as the word: no next bit


@pytest.mark.parametrize("prefix", ["X", "HX", "h", " T", None, ["H"]], ids=repr)
def test_prefix_stream_refuses_a_bad_prefix_before_reading(prefix):
    def faces():
        raise AssertionError("a face was read before the prefix was checked")
        yield 0

    with pytest.raises(ValueError, match="prefix must be a string of 'H' and 'T'"):
        prefix_stream(faces(), prefix, 8)


def test_worked_three_sided_run():
    s = DiceExtractor(3)
    per_face = [s.process(f).bits for f in GOLDEN_FACES]
    assert s.output == [0, 1, 0, 0, 1, 1]
    # first two bits appear on the 4th and 5th faces
    assert per_face == [[], [], [], [0], [1], [0], [0], [], [1, 1]]
    assert s.faces_consumed == len(GOLDEN_FACES)
    assert set(s.trees) == {"", "T", "H"}


def test_forest_slots_created_lazily():
    s = DiceExtractor(4)
    s.process(0)  # word TT: only the root and the 'T' slot are touched
    assert set(s.trees) == {"", "T"}


def test_m2_degenerates_to_coin():
    rng = random.Random(5)
    faces = [rng.randrange(2) for _ in range(400)]
    dice = DiceExtractor(2)
    dice.process_all(faces)
    coin = CoinExtractor()
    coin.process_all("H" if f else "T" for f in faces)
    assert dice.output == coin.output
    assert dice.messages_total == coin.messages_total
    assert dice.trees[""].snapshot() == coin.snapshot()


def test_decomposes_into_prefix_extractors_exhaustive():
    for n in range(6):
        for faces in itertools.product(range(3), repeat=n):
            s = DiceExtractor(3)
            s.process_all(faces)
            for prefix, tree in s.trees.items():
                ref = CoinExtractor()
                ref.process_all(prefix_stream(faces, prefix, 3))
                assert tree.snapshot() == ref.snapshot()
            assert sorted(b for t in s.trees.values() for b in t.output) == sorted(s.output)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, m - 1), max_size=80))
))
def test_decomposes_into_prefix_extractors_random(case):
    m, faces = case
    s = DiceExtractor(m)
    s.process_all(faces)
    for prefix, tree in s.trees.items():
        ref = CoinExtractor()
        ref.process_all(prefix_stream(faces, prefix, m))
        assert tree.output == ref.output and tree.snapshot() == ref.snapshot()


@given(st.lists(st.integers(0, 2), max_size=60), st.lists(st.integers(0, 2), max_size=60))
def test_prefix_of_faces_gives_prefix_of_bits(xs, ys):
    a = DiceExtractor(3)
    a.process_all(xs)
    b = DiceExtractor(3)
    b.process_all(xs + ys)
    assert b.output[: len(a.output)] == a.output


def test_constant_faces_never_emit():
    for m, face in [(3, 0), (3, 2), (4, 1), (6, 5)]:
        s = DiceExtractor(m)
        s.process_all([face] * 300)
        assert s.output == []


def test_clone_is_independent():
    s = DiceExtractor(3)
    s.process_all(GOLDEN_FACES[:5])
    before = {p: t.snapshot() for p, t in s.trees.items()}
    c = s.clone()
    c.process_all(GOLDEN_FACES[5:])
    assert {p: t.snapshot() for p, t in s.trees.items()} == before
    full = DiceExtractor(3)
    full.process_all(GOLDEN_FACES)
    assert c.output == full.output


def test_depth_limit_reaches_all_slots():
    deep = DiceExtractor(3)
    flat = DiceExtractor(3, depth_limit=0)
    rng = random.Random(11)
    faces = [rng.randrange(3) for _ in range(500)]
    deep.process_all(faces)
    flat.process_all(faces)
    assert flat.output == [b for b in flat.output]  # sanity
    assert len(flat.output) < len(deep.output)
    for tree in flat.trees.values():
        assert all(len(path) == 0 for path, _ in tree.snapshot().walk())


def test_uniform_four_sided_rate_approaches_two_bits_per_face():
    # the full 2 bits/face is reached only in the limit: unreleased bits
    # sit in the ~n^0.7 active nodes, so the finite-n rate trails below
    def rate(n):
        rng = random.Random(42)
        s = DiceExtractor(4, depth_limit=15)
        for _ in range(n):
            s.process(rng.randrange(4))
        return len(s.output) / n

    r4, r5 = rate(10**4), rate(10**5)
    assert r4 < r5 < 2.0
    assert r5 == pytest.approx(2.0, rel=0.05)


def test_rejects_out_of_range_faces():
    s = DiceExtractor(3)
    with pytest.raises(ValueError):
        s.process(3)
    with pytest.raises(ValueError):
        s.process(-1)
    with pytest.raises(ValueError):
        DiceExtractor(1)


@pytest.mark.parametrize("bad", [-1, 1.5, True])
def test_rejects_bad_depth_limit_at_construction(bad):
    with pytest.raises(ValueError):
        DiceExtractor(3, bad)

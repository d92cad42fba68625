import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from debias.coin import CoinExtractor, TraceNode
from debias.inversion import (
    InconsistentTrace,
    LengthMismatch,
    collect_logs,
    equivalent,
    flip_and_rebuild,
    reconstruct,
    replace_logs,
)

ht_strings = st.text(alphabet="HT", max_size=120)


def trace_of(xs, depth_limit=None):
    s = CoinExtractor(depth_limit)
    s.process_all(xs)
    return s.snapshot()


def test_worked_reconstruction():
    t = trace_of("HTTTHT")
    assert reconstruct(t) == "HTTTHT"
    assert collect_logs(t) == {"": (1,), "L": (1,), "LL": (), "LR": (), "R": ()}


def test_worked_flip():
    t = trace_of("HTTTHT")
    assert flip_and_rebuild(t, {"L": [0]}) == "TTHTHT"
    assert flip_and_rebuild(t, {"L": [1]}) == "HTTTHT"  # identity substitution
    assert flip_and_rebuild(t, {"": [0], "L": [0]}) == "TTTHHT"


def test_tiny_traces():
    assert reconstruct(trace_of("")) == ""
    assert reconstruct(trace_of("H")) == "H"
    assert reconstruct(trace_of("T")) == "T"


def test_roundtrip_exhaustive_short():
    for n in range(11):
        for tup in itertools.product("HT", repeat=n):
            xs = "".join(tup)
            assert reconstruct(trace_of(xs)) == xs


def test_roundtrip_long_random():
    rng = random.Random(20260819)
    for n in (500, 2000):
        xs = "".join(rng.choice("HT") for _ in range(n))
        assert reconstruct(trace_of(xs)) == xs


def test_flip_exhaustive_short():
    # every way of rewriting every released bit, for every short input
    for n in range(1, 9):
        for tup in itertools.product("HT", repeat=n):
            xs = "".join(tup)
            trace = trace_of(xs)
            logs = collect_logs(trace)
            flat = [(path, i) for path, lg in sorted(logs.items()) for i in range(len(lg))]
            for assignment in itertools.product((0, 1), repeat=len(flat)):
                new_logs = {path: list(lg) for path, lg in logs.items()}
                for (path, i), bit in zip(flat, assignment):
                    new_logs[path][i] = bit
                ys = flip_and_rebuild(trace, new_logs)
                assert sorted(ys) == sorted(xs)  # a permutation ...
                assert ys[-1] == xs[-1]  # ... fixing the final symbol
                assert equivalent(xs, ys)
                # re-extraction reproduces the tree with exactly those bits
                new_trace = trace_of(ys)
                assert {p: list(lg) for p, lg in collect_logs(new_trace).items()} == new_logs
                assert [n_.label for _, n_ in new_trace.walk()] == [
                    n_.label for _, n_ in trace.walk()
                ]


@given(ht_strings)
def test_roundtrip_random(xs):
    assert reconstruct(trace_of(xs)) == xs


@given(ht_strings, st.randoms(use_true_random=False))
def test_flip_random(xs, rng):
    trace = trace_of(xs)
    logs = collect_logs(trace)
    new_logs = {p: [rng.randint(0, 1) for _ in lg] for p, lg in logs.items()}
    ys = flip_and_rebuild(trace, new_logs)
    assert sorted(ys) == sorted(xs)
    assert ys == xs or ys[-1] == xs[-1]
    assert equivalent(xs, ys)


@given(ht_strings)
def test_node_histories_match_labels(xs):
    # every node's rebuilt input has one dangling symbol iff its label
    # holds a symbol, and that symbol is the label itself
    for _, node in trace_of(xs).walk():
        hist = reconstruct(node)
        if node.label in ("H", "T"):
            assert len(hist) % 2 == 1 and hist[-1] == node.label
        else:
            assert len(hist) % 2 == 0


def test_equivalent_goldens():
    assert equivalent("HTTTHT", "TTHTHT")
    assert equivalent("HTTTHT", "HTTTHT")
    assert not equivalent("HH", "HT")
    assert not equivalent("H", "HT")
    assert not equivalent("HTTTHT", "TTHTHH")  # last symbol differs


def test_equivalence_classes_have_power_of_two_sizes():
    # flipping released bits reaches exactly 2^(bits released) inputs
    n = 6
    all_inputs = ["".join(t) for t in itertools.product("HT", repeat=n)]
    seen = set()
    for xs in all_inputs:
        if xs in seen:
            continue
        cls = [ys for ys in all_inputs if equivalent(xs, ys)]
        seen.update(cls)
        released = sum(len(lg) for lg in collect_logs(trace_of(xs)).values())
        assert len(cls) == 2**released
        assert len({(ys.count("H"), ys[-1]) for ys in cls}) == 1


def test_replace_logs_validation():
    t = trace_of("HTTTHT")
    with pytest.raises(LengthMismatch) as exc:
        replace_logs(t, {"L": [0, 1]})
    assert exc.value.path == "L"
    assert (exc.value.expected, exc.value.got) == (1, 2)
    with pytest.raises(ValueError):
        replace_logs(t, {"RRR": []})
    with pytest.raises(ValueError):
        replace_logs(t, {"L": [2]})


def test_inconsistent_traces_are_rejected():
    # a node claiming decided bits without ever having forwarded a pair
    with pytest.raises(InconsistentTrace):
        reconstruct(TraceNode(label="1", bit_log=()))
    with pytest.raises(InconsistentTrace):
        reconstruct(TraceNode(label="-", bit_log=(1,)))
    with pytest.raises(InconsistentTrace):
        reconstruct(TraceNode(label="?", bit_log=()))
    # tamper with a valid trace: root log too long for the children
    t = trace_of("HTTTHT")
    bad = TraceNode(label=t.label, bit_log=(1, 0, 1), left=t.left, right=t.right)
    with pytest.raises(InconsistentTrace) as exc:
        reconstruct(bad)
    assert exc.value.path == ""


@pytest.mark.parametrize(
    "trace, detail",
    [
        (TraceNode("-", (2,)), "non-bits"),
        (TraceNode("-", (), TraceNode("T", ())), "children must exist in pairs"),
        (TraceNode("-", (), TraceNode("H", ()), TraceNode("T", ())),
         "more unequal pairs than decided bits"),
        (TraceNode("-", (1,), TraceNode("T", ()), TraceNode("-", ())),
         "more equal pairs than repeated symbols"),
    ],
    ids=["non-bit", "one-child", "unequal-pairs", "equal-pairs"],
)
@pytest.mark.parametrize("rebuild", [reconstruct, lambda t: flip_and_rebuild(t, {})],
                         ids=["reconstruct", "flip_and_rebuild"])
def test_each_consistency_check_fires_at_the_root(trace, detail, rebuild):
    with pytest.raises(InconsistentTrace, match=detail) as exc:
        rebuild(trace)
    assert exc.value.path == ""


def test_flip_checks_substitutions_before_the_trace():
    # the substitution checks run first, in preorder, as replace_logs's do
    t = trace_of("HTTTHT")
    with pytest.raises(ValueError, match="no node"):
        flip_and_rebuild(t, {"L": [0, 1], "RRR": []})
    with pytest.raises(LengthMismatch) as exc:
        flip_and_rebuild(t, {"L": [0, 1], "": [0, 0]})
    assert exc.value.path == ""
    with pytest.raises(ValueError, match="non-bits"):
        flip_and_rebuild(t, {"L": [2]})
    bad = TraceNode("?", t.bit_log, t.left, t.right)
    with pytest.raises(LengthMismatch):
        flip_and_rebuild(bad, {"L": [0, 1]})


@given(ht_strings, st.randoms(use_true_random=False))
def test_flip_rebuilds_what_the_replaced_copy_does(xs, rng):
    trace = trace_of(xs)
    new_logs = {p: [rng.randint(0, 1) for _ in lg]
                for p, lg in collect_logs(trace).items() if rng.random() < 0.5}
    assert flip_and_rebuild(trace, new_logs) == reconstruct(replace_logs(trace, new_logs))


def test_depth_limited_traces_do_not_invert():
    # the cap drops child messages, so the books either fail to balance or
    # the rebuilt input is shorter than the real one
    t = trace_of("HTHH", depth_limit=1)
    with pytest.raises(InconsistentTrace):
        reconstruct(t)
    assert len(reconstruct(trace_of("HHTT", depth_limit=0))) < 4

"""What the package promises its users: the lazily resolved exports, the
``TraceNode`` value type, read-only reports, the default ``debias
analyze`` table, and one contract for every count, index and depth cap."""

import importlib

import pytest

import debias
from debias import CoinExtractor, TraceNode
from debias.analysis import (
    DomainError,
    level_traffic,
    processing_time,
    simulate_efficiency,
    time_table,
    tosses_table,
)
from debias.cli import main
from debias.coin import extract_bits, take_bits
from debias.dice import DiceExtractor, binarize, face_width, prefix_stream
from debias.inversion import LengthMismatch, replace_logs
from debias.markov import MarkovExtractor, UnknownState, exit_stream
from debias.oracle import verify_coin, verify_dice, verify_markov
from debias.vonneumann import VonNeumannExtractor

# `debias analyze` with its defaults: the frozen tosses-per-bit table
ANALYZE_DEFAULT = """\
depth    p=0.1   p=0.2   p=0.3   p=0.4   p=0.5
    0  11.1111  6.2500  4.7619  4.1667  4.0000
    1   5.9263  3.4768  2.7040  2.3799  2.2857
    2   4.2857  2.5816  2.0299  1.7990  1.7297
    3   3.5102  2.1484  1.7061  1.5190  1.4629
    4   3.0655  1.9023  1.5207  1.3596  1.3111
    5   2.7876  1.7480  1.4047  1.2598  1.2165
    7   2.4764  1.5745  1.2748  1.1485  1.1113
   10   2.2732  1.4619  1.1910  1.0772  1.0441
   15   2.1662  1.4033  1.1478  1.0408  1.0101
limit   2.1322  1.3852  1.1347  1.0299  1.0000
"""


@pytest.mark.parametrize("name", debias.__all__)
def test_export_is_its_submodule_attribute(name):
    home = importlib.import_module(f"debias.{debias._HOME[name]}")
    assert getattr(debias, name) is getattr(home, name)


def test_exports_cover_star_import_and_dir():
    namespace = {}
    exec("from debias import *", namespace)
    assert set(debias.__all__) <= set(namespace)
    assert set(debias.__all__) <= set(dir(debias))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        debias.no_such_name
    with pytest.raises(ImportError):
        exec("from debias import no_such_name", {})
    assert not hasattr(debias, "_no_such_private")


def test_submodules_still_import_by_name():
    from debias import analysis, cli, coin, oracle

    assert analysis.TABLE_DEPTHS is debias.TABLE_DEPTHS
    assert coin.TraceNode is TraceNode
    assert cli.main is main
    assert oracle.verify_coin is debias.verify_coin


def test_tracenode_keywords_and_defaults():
    node = TraceNode(label="H", bit_log=(1, 0))
    assert (node.label, node.bit_log, node.left, node.right) == ("H", (1, 0), None, None)
    leaf = TraceNode("T", ())
    parent = TraceNode("0", (1,), left=leaf)
    assert parent.left is leaf and parent.right is None


def test_tracenode_value_equality_and_hash():
    a = TraceNode("1", (0,), TraceNode("T", ()), None)
    b = TraceNode(label="1", bit_log=(0,), left=TraceNode("T", ()))
    assert a == b and hash(a) == hash(b)
    assert a != TraceNode("1", (0,))
    assert len({a, b, TraceNode("1", (0,))}) == 2


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: debias.efficiency_report(0.3, 4), "rate"),
        (lambda: debias.simulate_efficiency(0.3, 4, 20, seed=1), "seed"),
        (lambda: debias.verify_coin("1/3", 4, 1), "masses"),
    ],
    ids=["efficiency", "simulation", "uniformity"],
)
def test_reports_are_read_only(make, field):
    report = make()
    before = getattr(report, field)
    for name in (field, "note"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)
    assert getattr(report, field) == before


def test_tracenode_repr():
    node = TraceNode("H", (1,), TraceNode("T", ()), None)
    assert repr(node) == (
        "TraceNode(label='H', bit_log=(1,), "
        "left=TraceNode(label='T', bit_log=(), left=None, right=None), right=None)"
    )


@pytest.mark.parametrize("field", ["label", "bit_log", "left", "right"])
def test_tracenode_is_immutable(field):
    node = TraceNode("H", ())
    with pytest.raises(AttributeError):
        setattr(node, field, None)


def test_tracenode_walk_and_depth():
    ll = TraceNode("H", (0,))
    left = TraceNode("0", (), left=ll)
    right = TraceNode("T", ())
    root = TraceNode("-", (1,), left, right)
    assert list(root.walk()) == [("", root), ("L", left), ("LL", ll), ("R", right)]
    assert list(left.walk("L")) == [("L", left), ("LL", ll)]
    assert (root.depth, left.depth, ll.depth, right.depth) == (2, 1, 0, 0)
    s = CoinExtractor()
    s.process_all("HHTTHTTHHHTTHT")
    trace = s.snapshot()
    assert trace.depth == max(len(path) for path, _ in trace.walk())


def test_tracenode_walk_needs_no_recursion():
    chain = leaf = TraceNode("-", ())
    for _ in range(5000):  # far past the interpreter's recursion limit
        chain = TraceNode("T", (), left=chain)
    walked = list(chain.walk())
    assert [path for path, _ in walked] == ["L" * d for d in range(5001)]
    assert walked[0][1] is chain and walked[-1][1] is leaf
    assert chain.depth == 5000


def test_analyze_defaults_print_the_frozen_table(capsys):
    assert main(["analyze"]) == 0
    assert capsys.readouterr().out == ANALYZE_DEFAULT


HALF = ("1/2", "1/2")


def unpulled():
    """Items that fail the test when pulled: a refusal must come first."""
    raise AssertionError("an item was pulled before the refusal")
    yield


# Every public entry point that takes a count, index or depth cap: a call
# that passes it the value ``x``, the exception class a bad ``x`` raises,
# and the first value out of range, or None where every int is in range (a
# feed's ``until`` is a target, and one already reached pulls no item).
CONTRACT = {
    "CoinExtractor(depth_limit)": (lambda x: CoinExtractor(x), ValueError, -1),
    "DiceExtractor(m)": (lambda x: DiceExtractor(x), ValueError, 1),
    "DiceExtractor(depth_limit)": (lambda x: DiceExtractor(3, x), ValueError, -1),
    "DiceExtractor face": (lambda x: DiceExtractor(3).feed([0, x]), ValueError, 3),
    "MarkovExtractor(n_states)": (lambda x: MarkovExtractor(x), ValueError, 1),
    "MarkovExtractor(depth_limit)": (lambda x: MarkovExtractor(3, x), ValueError, -1),
    "MarkovExtractor state": (lambda x: MarkovExtractor(3).feed([0, x]), UnknownState, 3),
    "take_bits(k)": (lambda x: take_bits(CoinExtractor(), "HT", x), ValueError, -1),
    "extract_bits(k)": (lambda x: extract_bits("HT", x), ValueError, -1),
    "extract_bits(depth_limit)": (lambda x: extract_bits("HT", 1, x), ValueError, -1),
    "verify_coin(n_max)": (lambda x: verify_coin("1/2", x, 1), ValueError, 0),
    "verify_coin(k)": (lambda x: verify_coin("1/2", 2, x), ValueError, 0),
    "verify_coin(depth_limit)": (lambda x: verify_coin("1/2", 2, 1, x), ValueError, -1),
    "verify_dice(n_max)": (lambda x: verify_dice(HALF, x, 1), ValueError, 0),
    "verify_dice(k)": (lambda x: verify_dice(HALF, 2, x), ValueError, 0),
    "verify_dice(depth_limit)": (lambda x: verify_dice(HALF, 2, 1, x), ValueError, -1),
    "verify_markov(start)": (lambda x: verify_markov((HALF, HALF), x, 2, 1), ValueError, 2),
    "verify_markov(n_max)": (lambda x: verify_markov((HALF, HALF), 0, x, 1), ValueError, 0),
    "verify_markov(k)": (lambda x: verify_markov((HALF, HALF), 0, 2, x), ValueError, 0),
    "verify_markov(depth_limit)": (
        lambda x: verify_markov((HALF, HALF), 0, 2, 1, x), ValueError, -1),
    "level_traffic(depth)": (lambda x: level_traffic(0.3, x), DomainError, -1),
    "processing_time(depth)": (lambda x: processing_time(0.3, x), DomainError, -1),
    "tosses_table(depths)": (lambda x: tosses_table([x]), DomainError, -1),
    "time_table(depths)": (lambda x: time_table([x]), DomainError, -1),
    "simulate_efficiency(depth)": (lambda x: simulate_efficiency(0.3, x, 4), DomainError, -1),
    "simulate_efficiency(k)": (lambda x: simulate_efficiency(0.3, 2, x), DomainError, 0),
    "face_width(m)": (lambda x: face_width(x), ValueError, 1),
    "binarize(face)": (lambda x: binarize(x, 3), ValueError, 3),
    "binarize(m)": (lambda x: binarize(0, x), ValueError, 1),
    "prefix_stream(m)": (lambda x: prefix_stream([0], "", x), ValueError, 1),
    "prefix_stream face": (lambda x: prefix_stream([0, x], "", 3), ValueError, 3),
    "exit_stream(state)": (lambda x: exit_stream([0, 1, 0, 2, 1, 2], x), ValueError, -1),
    "CoinExtractor.feed(until)": (lambda x: CoinExtractor().feed(unpulled(), x), ValueError, None),
    "DiceExtractor.feed(until)": (lambda x: DiceExtractor(3).feed(unpulled(), x), ValueError, None),
    "MarkovExtractor.feed(until)": (lambda x: MarkovExtractor(3).feed(unpulled(), x), ValueError, None),
    "VonNeumannExtractor.feed(until)": (lambda x: VonNeumannExtractor().feed(unpulled(), x), ValueError, None),
}
OUT_OF_RANGE = "out of range"
CASES = [
    (entry, bad)
    for entry, (_, _, first_out) in CONTRACT.items()
    for bad in (True, 1.0, -1, OUT_OF_RANGE)
    if first_out is not None or bad in (True, 1.0)
]


@pytest.mark.parametrize("entry, bad", CASES, ids=[f"{entry}-{bad}" for entry, bad in CASES])
def test_counts_indices_and_caps_are_ints_not_bools(entry, bad):
    call, error, first_out = CONTRACT[entry]
    with pytest.raises(ValueError) as exc:
        call(first_out if bad == OUT_OF_RANGE else bad)
    assert type(exc.value) is error


@pytest.mark.parametrize("entry", [entry for entry, (_, _, first_out) in CONTRACT.items() if first_out is None])
def test_a_feed_target_is_any_int_and_nothing_else(entry):
    call, error, _ = CONTRACT[entry]
    assert call(-1) == 0  # already reached: no item is pulled
    with pytest.raises(error, match="until must be None or an int"):
        call("3")


@pytest.mark.parametrize(
    "new_logs, error",
    [({"LLLLLLLL": (1,)}, ValueError), ({"": (2, 0)}, ValueError), ({"": (1,)}, LengthMismatch)],
    ids=["unknown path", "non-bit", "wrong length"],
)
def test_every_refused_replacement_log_is_a_value_error(new_logs, error):
    s = CoinExtractor()
    s.process_all("HTTHHT")
    trace = s.snapshot()
    assert len(trace.bit_log) == 2
    with pytest.raises(ValueError) as exc:
        replace_logs(trace, new_logs)
    assert type(exc.value) is error

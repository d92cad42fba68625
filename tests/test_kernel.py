"""The compiled delivery loop, ``debias._arena``, against the Python loop
of ``Arena.feed``, its reference.

The differential test runs one script of feeds on a coin, dice or Markov
session twice, once through each loop (switched by patching
``coin._kernel``), and compares every list the arena keeps, the message
count and the views after each step.  The other tests hold the kernel to
its own contract: a bad delivery raises instead of crashing, a long feed
stays interruptible, and a changed source is built again.
"""

import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debias import coin
from debias.coin import CoinExtractor
from debias.dice import DiceExtractor
from debias.markov import MarkovExtractor

KERNEL = coin._kernel
needs_kernel = pytest.mark.skipif(
    KERNEL is None, reason="debias._arena is not built (no working C compiler?): only the Python loop runs")
DEPTHS = [None, 0, 1, 3, 15, 2**62, 2**100]
OPS = ["batch", "one_by_one", "until", "bad", "process", "oracle"]


def make(kind, m, depth):
    if kind == "coin":
        return CoinExtractor(depth)
    return (DiceExtractor if kind == "dice" else MarkovExtractor)(m, depth)


def observe(s):
    """Every list the arena keeps, its item count, the derived message
    count and the session's views, as values."""
    if isinstance(s, CoinExtractor):
        views = s.snapshot()
    else:
        views = s.forests if isinstance(s, MarkovExtractor) else s.trees
    return (s.output.copy(), s._src.copy(), s._label.copy(), s._kids.copy(), dict(s._pairs), s._fed,
            s.messages_total, views)


def run(kind, m, depth, script, kernel):
    """The observations of one script, run with ``coin._kernel`` set to
    ``kernel``: the value or exception of each step and the session after it."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coin, "_kernel", kernel)
        s = make(kind, m, depth)
        for op, items, until in script:
            try:
                if op == "process":
                    got = [s.process(x) for x in items]
                elif op == "oracle":  # clone on a branch, feed each branch one item
                    twin = s.clone()
                    got = (twin.feed(tuple(items[:1])), s.feed(tuple(items[1:2])), observe(twin))
                elif op == "one_by_one":
                    got = s.feed(iter(list(items)))
                else:
                    got = s.feed(items, until)
            except ValueError as exc:
                got = (type(exc), str(exc))
            seen.append((op, got, observe(s)))
    return seen


@st.composite
def scripts(draw):
    kind = draw(st.sampled_from(["coin", "dice", "markov"]))
    m = draw(st.integers(2, 7))
    depth = draw(st.sampled_from(DEPTHS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    alphabet = "HT" if kind == "coin" else range(m)
    weights = [rng.random() + 0.05 for _ in alphabet]
    bad = "x" if kind == "coin" else m
    script = []
    for op in draw(st.lists(st.sampled_from(OPS), max_size=8)):
        items = rng.choices(alphabet, weights, k=rng.randint(0, 150))
        until = None
        if op == "until":
            until = rng.randint(-1, 30)  # a target the output may already reach
        elif op == "bad":
            items.insert(rng.randint(0, len(items)), bad)
        if kind == "coin" and op != "one_by_one":
            items = "".join(items)  # a str batch: the coded fast path unless it stops or is bad
        script.append((op, items, until))
    return kind, m, depth, script


@needs_kernel
@settings(max_examples=150, deadline=None)
@given(case=scripts())
def test_kernel_matches_the_python_loop(case):
    kind, m, depth, script = case
    assert run(kind, m, depth, script, KERNEL) == run(kind, m, depth, script, None)


@needs_kernel
@pytest.mark.parametrize(
    "deliveries, label, kids, error",
    [
        ([(1, 1)], [0], [-16], ValueError),  # a root outside the arena
        ([(-1, 1)], [0], [-16], ValueError),
        ([(0, 0)], [0], [-16], ValueError),  # a symbol code other than 1 or 2
        ([(0, 3)], [0], [-16], ValueError),
        ([(0,)], [0], [-16], TypeError),  # not a (root, code) pair
        ([[0, 1]], [0], [-16], TypeError),
        ([("0", 1)], [0], [-16], TypeError),
        ([(0, 1)], [1], [5], IndexError),  # a child slot past the arena
        ([(0, 1)], [1], [], IndexError),  # a node without a child slot
        ([(0, 1)], [1], [2**70], OverflowError),
    ],
)
def test_a_bad_delivery_raises(deliveries, label, kids, error):
    with pytest.raises(error):
        KERNEL.feed(iter(deliveries), label, kids, [], {}, [])


@needs_kernel
def test_the_kernel_takes_only_the_arena_types():
    with pytest.raises(TypeError):
        KERNEL.feed(iter([]), (0,), [-16], [], {}, [])
    with pytest.raises(TypeError):
        KERNEL.feed(iter([]), [0], [-16], [], [], [])
    with pytest.raises(TypeError):
        KERNEL.feed(1, [0], [-16], [], {}, [])


class Interrupted(Exception):
    pass


def interrupt(signum, frame):
    raise Interrupted


@needs_kernel
def test_a_long_str_feed_stays_interruptible():
    # 2M symbols T make 16M deliveries at depth 7; a signal stops the feed
    # between two of them, long before the end, with the arena consistent
    s, symbols = CoinExtractor(7), "T" * 2_000_000
    old = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.02)
        with pytest.raises(Interrupted):
            s.feed(symbols)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert 0 < s.messages_total < 8 * 2_000_000
    assert s.output == []


@needs_kernel
def test_a_changed_source_is_built_again(tmp_path):
    package = tmp_path / "debias"
    shutil.copytree(Path(coin.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    source, build = package / "_arena.c", package / Path(KERNEL.__file__).name
    old = build.stat().st_mtime_ns
    with source.open("a") as f:
        f.write("/* an edit */\n")
    code = "from debias import coin; print(coin._kernel.__file__)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(tmp_path)},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == str(build)
    assert build.stat().st_mtime_ns == source.stat().st_mtime_ns != old

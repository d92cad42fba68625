"""The enumeration work guard counts the branches of the walk against one
budget, and checks the 2**k pattern table and the horizon before it, in
all three verifiers; a bad depth cap is refused before the pattern table is
built."""

import time
import tracemalloc
from fractions import Fraction as F

import pytest

from debias import oracle
from debias.cli import main
from debias.oracle import MAX_BRANCHES, HorizonTooLarge, verify_coin, verify_dice, verify_markov

HALF = (F(1, 2), F(1, 2))


def test_pattern_table_counts_against_the_cap():
    with pytest.raises(HorizonTooLarge):
        verify_coin(F(1, 3), 4, 16)
    with pytest.raises(HorizonTooLarge):
        verify_dice(HALF, 4, 15)
    with pytest.raises(HorizonTooLarge):
        verify_markov((HALF, HALF), 0, 4, 15)
    assert verify_coin(F(1, 3), 4, 14).total == 1  # 2**14 patterns is at the cap


def test_the_budget_counts_branches(monkeypatch):
    # a fair coin at n=14, k=8 takes 2**14 - 1 branches, one under the budget
    report = verify_coin("1/2", 14, 8)
    assert report.uniform and report.total == 1
    monkeypatch.setattr(oracle, "MAX_BRANCHES", MAX_BRANCHES - 1)
    assert verify_coin("1/2", 14, 8) == report
    monkeypatch.setattr(oracle, "MAX_BRANCHES", MAX_BRANCHES - 2)
    with pytest.raises(HorizonTooLarge) as exc:
        verify_coin("1/2", 14, 8)
    assert (exc.value.leaves, exc.value.cap) == (MAX_BRANCHES - 1, MAX_BRANCHES - 2)


@pytest.mark.parametrize("verify", [
    lambda force: verify_coin("1/3", 15, 4, force=force),
    lambda force: verify_dice(["1/2", "1/3", "1/6"], 9, 2, force=force),
    lambda force: verify_markov([["1/3", "2/3"], ["3/4", "1/4"]], 0, 11, 2, force=force),
], ids=["coin", "dice", "markov"])
def test_benchmark_walks_fit_the_budget(verify):
    report = verify(False)
    assert report == verify(True)
    assert report.uniform and report.total == 1


def test_force_still_runs():
    r = verify_coin(F(1, 3), 4, 16, force=True)
    assert len(r.masses) == 2**16
    assert r.total == 1


@pytest.mark.parametrize(
    "verify, model",
    [(verify_coin, ("1/2",)), (verify_dice, (HALF,)), (verify_markov, ((HALF, HALF), 0))],
    ids=["coin", "dice", "markov"],
)
def test_a_bad_depth_cap_is_refused_before_the_pattern_table(verify, model):
    # 2**18 patterns would take tens of MiB; the refusal takes a few KiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="depth_limit must be"):
            verify(*model, 3, 18, depth_limit=-1, force=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_huge_exponents_are_refused_at_once():
    start = time.perf_counter()
    for n_max, k in ((10**9, 1), (4, 10**9)):
        with pytest.raises(HorizonTooLarge):
            verify_coin(F(1, 3), n_max, k)
    assert time.perf_counter() - start < 1.0


def test_cli_refuses_wide_bits(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--mode", "coin", "--p", "1/3", "--n-max", "4", "--bits", "40"])
    assert exc.value.code == 4
    err = capsys.readouterr().err
    assert "--force" in err and "force=True" not in err

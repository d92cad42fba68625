import itertools
import random
from fractions import Fraction

import pytest

from debias.coin import CoinExtractor
from debias.oracle import (
    HorizonTooLarge,
    verify_coin,
    verify_dice,
    verify_markov,
)

F = Fraction


def assert_sound(report):
    # invariants every report must satisfy, regardless of configuration
    assert report.total == 1
    assert len(report.masses) == 2**report.k
    assert all(m >= 0 for m in report.masses.values())
    return report


def test_fair_coin_single_bit():
    r = assert_sound(verify_coin(F(1, 2), 6, 1))
    assert r.uniform
    assert r.masses["0"] == r.masses["1"] > 0


def test_depth_zero_incomplete_mass_has_closed_form():
    # with the tree cut at the root, the first bit appears by symbol n iff
    # one of the first floor((n-1)/2) pairs is discordant
    for p in (F(1, 3), F(2, 5), F(1, 2)):
        s = p * p + (1 - p) * (1 - p)
        r = assert_sound(verify_coin(p, 6, 1, depth_limit=0))
        assert r.incomplete == s**2
        assert r.uniform
        assert r.masses["0"] == (1 - s**2) / 2


def test_biased_coin_depth_one_frozen_masses():
    r = assert_sound(verify_coin(F(1, 3), 10, 2, depth_limit=1))
    assert r.uniform
    assert r.masses == {b: F(13436, 59049) for b in ("00", "01", "10", "11")}
    assert r.incomplete == F(5305, 59049)


def test_coin_accepts_strings_and_checks_domain():
    assert verify_coin("1/3", 4, 1).masses == verify_coin(F(1, 3), 4, 1).masses
    for bad in ("3/2", "-1/2", 2):
        with pytest.raises(ValueError):
            verify_coin(bad, 4, 1)
    with pytest.raises(ValueError):
        verify_coin(F(1, 2), 4, 0)
    with pytest.raises(ValueError):
        verify_coin(F(1, 2), 0, 1)


def test_constant_coin_all_mass_incomplete():
    for p in (F(0), F(1)):
        r = assert_sound(verify_coin(p, 8, 1))
        assert r.incomplete == 1
        assert set(r.masses.values()) == {F(0)}


def test_uniformity_across_depths_and_biases():
    for p in (F(1, 2), F(1, 5)):
        for d in (0, 1, None):
            for k in (1, 2):
                assert assert_sound(verify_coin(p, 8, k, depth_limit=d)).uniform


def test_capture_monotone_in_horizon():
    lo = verify_coin(F(1, 3), 6, 1)
    hi = verify_coin(F(1, 3), 8, 1)
    assert hi.captured > lo.captured
    assert hi.incomplete < lo.incomplete


def test_loaded_dice():
    r = assert_sound(verify_dice((F(1, 2), F(1, 3), F(1, 6)), 7, 1))
    assert r.uniform
    r = assert_sound(verify_dice((F(1, 4),) * 4, 4, 2))
    assert r.uniform


def test_two_sided_die_is_a_coin():
    # face 1 binarizes to H, so this die is exactly the p = 2/3 coin
    d = verify_dice((F(1, 3), F(2, 3)), 8, 2)
    c = verify_coin(F(2, 3), 8, 2)
    assert d.masses == c.masses and d.incomplete == c.incomplete
    # and relabeling H/T mirrors the p = 1/3 coin's mass multiset
    flipped = verify_coin(F(1, 3), 8, 2)
    assert sorted(d.masses.values()) == sorted(flipped.masses.values())
    assert d.incomplete == flipped.incomplete


def test_markov_two_state_chain():
    matrix = ((F(1, 3), F(2, 3)), (F(3, 4), F(1, 4)))
    for k in (1, 2):
        r = assert_sound(verify_markov(matrix, 0, 10, k))
        assert r.uniform
        assert r.captured > 0


def test_markov_identity_chain_never_emits():
    matrix = ((F(1), F(0)), (F(0), F(1)))
    r = assert_sound(verify_markov(matrix, 0, 10, 1))
    assert r.incomplete == 1


def test_markov_iid_rows_stay_uniform():
    row = (F(1, 3), F(2, 3))
    for k in (1, 2):
        assert assert_sound(verify_markov((row, row), 0, 9, k)).uniform


def test_markov_validation():
    with pytest.raises(ValueError):
        verify_markov(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 3))), 0, 4, 1)
    with pytest.raises(ValueError):
        verify_markov(((F(1, 2), F(1, 2)),), 0, 4, 1)
    with pytest.raises(ValueError):
        verify_markov(((F(1, 2), F(1, 2)), (F(1), F(0))), 2, 4, 1)
    with pytest.raises(ValueError):
        verify_markov(((F(1, 2),), (F(1), F(0))), 0, 4, 1)
    with pytest.raises(ValueError, match=r"^matrix row 1 has 3 entries, expected 2$"):
        verify_markov([["1/2", "1/2"], ["1/3", "1/3", "1/3"]], 0, 4, 1)


def test_dice_validation():
    with pytest.raises(ValueError):
        verify_dice((F(1, 2), F(1, 3)), 4, 1)  # does not sum to 1
    with pytest.raises(ValueError):
        verify_dice((F(1),), 4, 1)


@pytest.mark.parametrize("k, n_max", [(True, 4), (1, True), (1, False)])
def test_counts_are_ints_not_bools(k, n_max):
    name = "k" if type(k) is bool else "n_max"
    chain = ((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)))
    with pytest.raises(ValueError, match=f"^{name} must be a positive int"):
        verify_coin("1/3", n_max, k)
    with pytest.raises(ValueError, match=f"^{name} must be a positive int"):
        verify_dice((F(1, 3), F(2, 3)), n_max, k)
    with pytest.raises(ValueError, match=f"^{name} must be a positive int"):
        verify_markov(chain, 0, n_max, k)


@pytest.mark.parametrize("force", ["no", 1, None], ids=repr)
def test_force_must_be_a_bool(force):
    # each configuration fits under the guard, so it would run if a
    # non-bool were read by its truth value
    chain = ((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)))
    with pytest.raises(ValueError, match="^force must be a bool"):
        verify_coin("1/3", 4, 1, force=force)
    with pytest.raises(ValueError, match="^force must be a bool"):
        verify_dice((F(1, 3), F(2, 3)), 4, 1, force=force)
    with pytest.raises(ValueError, match="^force must be a bool"):
        verify_markov(chain, 0, 4, 1, force=force)
    with pytest.raises(ValueError, match="^force must be a bool"):
        verify_coin("1/2", 15, 1, force=force)  # 2**15 leaves, 406 feeds


def test_horizon_guards():
    # far more leaves than the budget, but only 406, 1,284 and 1,087 feeds
    for report in (verify_coin(F(1, 2), 15, 1), verify_dice((F(1, 3),) * 3, 10, 1),
                   verify_markov(((F(1, 2), F(1, 2)),) * 2, 0, 11, 1)):
        assert_sound(report)
        assert report.uniform
    # walks over the budget, each refused as its count passes it
    for walk in (lambda: verify_coin(F(1, 3), 40, 4),
                 lambda: verify_dice((F(1, 3),) * 3, 20, 3),
                 lambda: verify_markov(((F(1, 2), F(1, 2)),) * 2, 0, 30, 3)):
        with pytest.raises(HorizonTooLarge) as exc:
            walk()
        assert exc.value.leaves == exc.value.cap + 1
    forced = verify_markov(((F(1, 2), F(1, 2)),) * 2, 0, 11, 1, force=True)
    assert_sound(forced)
    assert forced.uniform


def test_stopping_prefixes_are_prefix_free():
    # independent reimplementation: find each sequence's minimal stopping
    # prefix by replay, then check none is a proper prefix of another
    stops = set()
    for seq in itertools.product("HT", repeat=8):
        s = CoinExtractor()
        for i, sym in enumerate(seq):
            s.process(sym)
            if len(s.output) >= 1:
                stops.add("".join(seq[: i + 1]))
                break
    assert stops
    for a in stops:
        for b in stops:
            assert a == b or not b.startswith(a)


def test_report_rendering():
    r = verify_coin(F(1, 3), 10, 2, depth_limit=1)
    text = r.to_text()
    assert "13436/59049" in text
    assert "uniform: yes" in text
    assert "total mass: 1" in text
    csv = r.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "outcome,probability"
    assert len(lines) == 1 + 4 + 1
    assert lines[-1] == "incomplete,5305/59049"


def test_mass_conservation_randomized_sweep():
    rng = random.Random(424242)
    for _ in range(15):
        den = rng.randrange(2, 30)
        p = F(rng.randrange(0, den + 1), den)
        assert_sound(
            verify_coin(p, rng.randrange(2, 8), rng.randrange(1, 3),
                        depth_limit=rng.choice([None, 0, 1, 2]))
        )
    for _ in range(10):
        m = rng.randrange(2, 4)
        cuts = sorted(rng.randrange(0, 13) for _ in range(m - 1))
        parts = [a - b for a, b in zip(cuts + [12], [0] + cuts)]
        dist = [F(x, 12) for x in parts]
        assert_sound(verify_dice(dist, rng.randrange(2, 6), 1,
                                 depth_limit=rng.choice([None, 1])))
    for _ in range(10):
        rows = []
        for _ in range(2):
            a = rng.randrange(0, 5)
            rows.append((F(a, 4), F(4 - a, 4)))
        assert_sound(verify_markov(tuple(rows), rng.randrange(0, 2),
                                   rng.randrange(2, 8), 1))

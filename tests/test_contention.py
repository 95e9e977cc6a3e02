import itertools

import numpy as np
import pytest

from specaccess.contention import (
    AsymptoticBackoff,
    RandomBackoff,
    SlottedAloha,
    WeightedShare,
    backoff_success_probability,
    grab_probability,
)


def test_backoff_two_minislots_one_contender():
    assert grab_probability(RandomBackoff(2), 1, {2}) == pytest.approx(0.25)


def test_backoff_no_contenders_always_wins():
    for lam in (1, 2, 10, 1000):
        assert grab_probability(RandomBackoff(lam), 1, set()) == 1.0


def test_aloha_value():
    m = SlottedAloha((0.5, 0.5))
    assert grab_probability(m, 1, {2}) == pytest.approx(0.25)


def test_asymptotic_equal_share():
    assert grab_probability(AsymptoticBackoff(), 1, {2, 3, 4}) == pytest.approx(0.25)


def test_weighted_share_value():
    m = WeightedShare((2.0, 1.0, 1.0))
    assert grab_probability(m, 1, {2, 3}) == pytest.approx(0.5)


def test_self_contention_rejected():
    with pytest.raises(ValueError):
        grab_probability(RandomBackoff(5), 1, {1, 2})


def test_missing_parameter_rejected():
    with pytest.raises(ValueError):
        grab_probability(SlottedAloha((0.5,)), 1, {2})
    with pytest.raises(ValueError):
        WeightedShare(())
    with pytest.raises(ValueError):
        SlottedAloha((0.5, 1.0))


def test_backoff_window_guard():
    with pytest.raises(ValueError):
        RandomBackoff(10**6 + 1)
    with pytest.raises(ValueError):
        RandomBackoff(0)


def test_ranges():
    # strictly in (0, 1] for race mechanisms, (0, 1) for Aloha
    for k in range(5):
        contenders = set(range(2, 2 + k))
        assert 0 < grab_probability(RandomBackoff(10), 1, contenders) <= 1
        assert 0 < grab_probability(AsymptoticBackoff(), 1, contenders) <= 1
        g = grab_probability(SlottedAloha((0.5,) * 6), 1, contenders)
        assert 0 < g < 1


def test_antitone_under_inclusion_exhaustive():
    # the congestion property: adding any contender to any set never raises
    # g, |universe| = 8; the directed-tree construction relies on it
    universe = list(range(2, 10))
    mechs = [
        RandomBackoff(7),
        AsymptoticBackoff(),
        WeightedShare(tuple(np.linspace(0.5, 3.0, 10))),
        SlottedAloha(tuple(np.linspace(0.2, 0.8, 10))),
    ]
    for mech in mechs:
        for r in range(len(universe)):
            for combo in itertools.combinations(universe, r):
                base = grab_probability(mech, 1, combo)
                for extra in universe:
                    if extra not in combo:
                        assert grab_probability(mech, 1, set(combo) | {extra}) <= base + 1e-12


def test_backoff_converges_to_equal_sharing():
    # finite-window success probability approaches 1/(1+K) as the window grows
    for k in range(6):
        assert abs(backoff_success_probability(10**4, k) - 1.0 / (1 + k)) <= 0.01


def test_backoff_monotone_in_window():
    # larger windows reduce collision losses, so g grows toward the limit
    for k in (1, 2, 3):
        vals = [backoff_success_probability(lam, k) for lam in (2, 4, 16, 256, 4096)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

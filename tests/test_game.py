import itertools

import numpy as np
import pytest
from conftest import complete_undirected_graph, random_directed_graph, random_game

import specaccess as sa
from specaccess.errors import ResourceLimitError
from specaccess.game import (
    PhysicalGame,
    SpectrumGame,
    _scan,
    better_response_dynamics,
    enumerate_pure_ne,
    expected_grab,
    expected_grab_mc,
    is_pure_ne,
    payoff_physical,
    payoff_pure,
    social_welfare_and_poa,
    welfare,
)
from specaccess.learning import q_from_sigma


def cycle3_game(p=0.5):
    g = sa.InterferenceGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    return SpectrumGame.create(g, [1.0, 1.0], [[1.0, 1.0]] * 3, sa.SlottedAloha((p,) * 3))


def test_payoff_no_contention():
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])
    spec = SpectrumGame.create(g, [0.5], [[10e6], [10e6]], sa.RandomBackoff(10))
    # user 1 has no in-neighbours: g = 1
    assert payoff_pure(spec, (1, 1), 1) == pytest.approx(5e6)


def test_payoff_cycle3_all_on_channel_one():
    spec = cycle3_game(0.5)
    for n in (1, 2, 3):
        assert payoff_pure(spec, (1, 1, 1), n) == pytest.approx(0.5 * 0.5)


def test_payoff_zero_on_busy_channel():
    g = sa.InterferenceGraph.from_edges(1, [])
    spec = SpectrumGame.create(g, [0.0, 1.0], [[5.0, 5.0]], sa.RandomBackoff(4))
    assert payoff_pure(spec, (1,), 1) == 0.0


def test_gain_scales_payoff():
    g = sa.InterferenceGraph.from_edges(1, [])
    spec = SpectrumGame.create(g, [0.5], [[8.0]], sa.RandomBackoff(3), gain=[2.0])
    assert payoff_pure(spec, (1,), 1) == pytest.approx(8.0)


def test_dimension_validation():
    g = sa.InterferenceGraph.from_edges(2, [])
    with pytest.raises(ValueError):
        SpectrumGame.create(g, [0.5], [[1.0]], sa.RandomBackoff(2))  # one rate row missing
    with pytest.raises(ValueError):
        SpectrumGame.create(g, [1.5], [[1.0], [1.0]], sa.RandomBackoff(2))
    with pytest.raises(ValueError):
        SpectrumGame.create(g, [0.5], [[1.0], [1.0]], sa.SlottedAloha((0.5,)))


# --- mixed strategies -------------------------------------------------------
# user n's mixed payoff is sigma[n] . Q[n], as approx_ne_gap computes it

def _mixed_payoffs(spec, sigma):
    return (sigma * q_from_sigma(spec, sigma)).sum(axis=1)


def _mixed_payoff_by_enumeration(spec, sigma, n):
    # reference: the expectation over the full product of pure profiles
    total = 0.0
    for a in itertools.product(range(1, spec.n_channels + 1), repeat=spec.n_users):
        w = np.prod([sigma[i, ch - 1] for i, ch in enumerate(a)])
        if w > 0.0:
            total += w * spec.payoff(a, n)
    return total


def test_degenerate_mixed_equals_pure():
    spec = cycle3_game()
    a = (1, 2, 1)
    sigma = np.zeros((3, 2))
    for n, ch in enumerate(a):
        sigma[n, ch - 1] = 1.0
    for n in (1, 2, 3):
        assert _mixed_payoffs(spec, sigma)[n - 1] == pytest.approx(payoff_pure(spec, a, n))


def test_mixed_factorized_matches_full_enumeration():
    spec = cycle3_game()
    sigma = np.full((3, 2), 0.5)
    for n in (1, 2, 3):
        fac = _mixed_payoffs(spec, sigma)[n - 1]
        enu = _mixed_payoff_by_enumeration(spec, sigma, n)
        assert abs(fac - enu) < 1e-12


def test_mixed_single_user_row_average():
    g = sa.InterferenceGraph.from_edges(1, [])
    spec = SpectrumGame.create(g, [0.5, 0.8], [[10.0, 5.0]], sa.RandomBackoff(6))
    sigma = np.array([[0.3, 0.7]])
    expected = 0.3 * 0.5 * 10.0 + 0.7 * 0.8 * 5.0
    assert _mixed_payoffs(spec, sigma)[0] == pytest.approx(expected)


def test_mixed_factorization_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        kind = ["backoff", "asymptotic", "weighted", "aloha"][int(rng.integers(0, 4))]
        spec = random_game(rng, random_directed_graph(rng, n, 0.5), m, kind)
        sigma = rng.dirichlet(np.ones(m), size=n)
        fac = _mixed_payoffs(spec, sigma)
        for user in range(1, n + 1):
            enu = _mixed_payoff_by_enumeration(spec, sigma, user)
            assert abs(fac[user - 1] - enu) <= 1e-12 * max(1.0, abs(enu))


def test_neighborhood_expected_payoff_edge_cases():
    g = sa.InterferenceGraph.from_edges(2, [(2, 1)])
    spec = SpectrumGame.create(g, [0.5, 0.5], [[4.0, 4.0], [4.0, 4.0]], sa.SlottedAloha((0.5, 0.5)))
    sigma = np.array([[0.5, 0.5], [1.0, 0.0]])
    Q = q_from_sigma(spec, sigma)
    # no in-neighbours: theta * B * g(empty)
    assert Q[1, 0] == pytest.approx(0.5 * 4.0 * 0.5)
    # one in-neighbour always on channel 1
    assert Q[0, 0] == pytest.approx(0.5 * 4.0 * 0.25)
    assert Q[0, 1] == pytest.approx(0.5 * 4.0 * 0.5)


def test_neighborhood_expected_payoff_vs_bruteforce():
    rng = np.random.default_rng(9)
    for kind in ("backoff", "aloha", "weighted", "asymptotic"):
        n, m = 4, 2
        g = sa.InterferenceGraph.from_edges(n, [(2, 1), (3, 1), (4, 1), (1, 2)])
        spec = random_game(rng, g, m, kind)
        sigma = rng.dirichlet(np.ones(m), size=n)
        Q = q_from_sigma(spec, sigma)
        for ch in (1, 2):
            got = Q[0, ch - 1]
            # oracle: enumerate all other users' channel combinations
            expect = 0.0
            for rest in itertools.product(range(1, m + 1), repeat=n - 1):
                prob = np.prod([sigma[i, rest[i - 1] - 1] for i in range(1, n)])
                a = (ch,) + rest
                expect += prob * payoff_pure(spec, a, 1)
            assert abs(got - expect) <= 1e-12 * max(1.0, expect)


def test_expected_grab_paths_agree():
    rng = np.random.default_rng(21)
    membership = {2: 0.3, 3: 0.9, 4: 0.1}
    for mech in (sa.RandomBackoff(8), sa.AsymptoticBackoff(),
                 sa.WeightedShare((1.0, 2.0, 0.7, 1.3)), sa.SlottedAloha((0.4, 0.3, 0.6, 0.2))):
        fast = expected_grab(mech, 1, membership)
        slow = expected_grab(mech, 1, membership, enumerate_only=True)
        assert fast == pytest.approx(slow, abs=1e-14)
        mc, se = expected_grab_mc(mech, 1, membership, 4000, np.random.default_rng(3))
        assert abs(mc - fast) < 4 * se + 1e-3


def test_expected_grab_cap():
    membership = {i: 0.5 for i in range(2, 30)}
    with pytest.raises(ResourceLimitError):
        expected_grab(sa.WeightedShare((1.0,) * 30, ), 1, membership)


# --- pure NE -----------------------------------------------------------------

def test_single_user_argmax_is_ne():
    g = sa.InterferenceGraph.from_edges(1, [])
    spec = SpectrumGame.create(g, [0.5, 0.9, 0.1], [[10.0, 8.0, 20.0]], sa.RandomBackoff(5))
    best = max(range(1, 4), key=lambda m: spec.idle_prob[m - 1] * spec.mean_rate[0][m - 1])
    assert is_pure_ne(spec, (best,)).is_ne
    assert enumerate_pure_ne(spec) == [(best,)]


def test_cycle3_has_witness_everywhere():
    spec = cycle3_game()
    check = is_pure_ne(spec, (1, 1, 1))
    assert not check.is_ne
    assert check.witness.better_channel == 2
    assert check.witness.gain == pytest.approx(0.5 - 0.25)
    assert enumerate_pure_ne(spec) == []


def test_enumeration_cap():
    spec = cycle3_game()
    with pytest.raises(ResourceLimitError):
        enumerate_pure_ne(spec, cap=4)


def test_brd_zero_moves_from_ne():
    g = sa.InterferenceGraph.from_edges(1, [])
    spec = SpectrumGame.create(g, [0.5, 0.9], [[10.0, 1.0]], sa.RandomBackoff(5))
    res = better_response_dynamics(spec, (1,))
    assert res.converged and res.n_moves == 0


def test_brd_cycles_on_directed_3cycle():
    res = better_response_dynamics(cycle3_game(), (1, 1, 1), max_rounds=60)
    assert not res.converged
    assert res.n_moves >= 60


def test_brd_converges_on_potential_instance():
    rng = np.random.default_rng(3)
    g = complete_undirected_graph(4)
    spec = random_game(rng, g, 3, "aloha")
    res = better_response_dynamics(spec, (1, 1, 1, 1))
    assert res.converged
    assert is_pure_ne(spec, res.profile).is_ne


def test_rate_scaling_invariance():
    rng = np.random.default_rng(17)
    g = random_directed_graph(rng, 4, 0.5)
    theta = rng.uniform(0.1, 1.0, 2)
    B = rng.uniform(1.0, 10.0, (4, 2))
    mech = sa.RandomBackoff(8)
    s1 = SpectrumGame.create(g, theta, B, mech)
    s2 = SpectrumGame.create(g, theta, 1000.0 * B, mech)
    assert enumerate_pure_ne(s1) == enumerate_pure_ne(s2)
    assert sa.construct_ne_dag(s1) == sa.construct_ne_dag(s2) if sa.classify(g).directed_acyclic else True
    for a in itertools.product((1, 2), repeat=4):
        assert is_pure_ne(s1, a).is_ne == is_pure_ne(s2, a).is_ne


def _assert_scan_matches_brute_force(spec):
    """The block scan against the profile-at-a-time reference. Exact for
    N < 8, where a contender frozenset iterates in sorted order."""
    profiles = list(itertools.product(range(1, spec.n_channels + 1), repeat=spec.n_users))
    checks = [is_pure_ne(spec, a) for a in profiles]
    welfares = [welfare(spec, a) for a in profiles]
    best = max(range(len(profiles)), key=welfares.__getitem__)  # first profile wins ties
    ne = [a for a, c in zip(profiles, checks) if c.is_ne]
    assert enumerate_pure_ne(spec) == ne
    rep = social_welfare_and_poa(spec)
    assert rep.pure_ne == ne
    assert rep.optimal_profile == profiles[best] and rep.optimal_welfare == welfares[best]
    blocks = list(_scan(spec, 1e-12, 10**7))
    assert [tuple(a) for b in blocks for a in b.profiles.tolist()] == profiles
    first = blocks[0]
    for k, (a, check) in enumerate(zip(profiles[:64], checks)):
        for n in range(1, spec.n_users + 1):
            for m in range(1, spec.n_channels + 1):
                moved = a[: n - 1] + (m,) + a[n:]
                assert first.payoffs[k, n - 1, m - 1] == spec.payoff(moved, n)
        assert bool(first.is_ne[k]) == check.is_ne
        if not check.is_ne:
            assert (*first.witness[k].tolist(), first.gain[k]) == check.witness
    if not ne:
        assert rep.no_ne_certificate == [(a, c.witness) for a, c in zip(profiles[:64], checks)]


def test_scan_matches_brute_force():
    rng = np.random.default_rng(2)
    for trial in range(24):
        kind = ("backoff", "aloha", "weighted", "asymptotic")[trial % 4]
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        _assert_scan_matches_brute_force(random_game(rng, random_directed_graph(rng, n, 0.5), m, kind))
    for p in (0.3, 0.5):  # no pure NE: the certificate path
        _assert_scan_matches_brute_force(cycle3_game(p))


@pytest.mark.parametrize("n, m, zero_theta", [(1, 1, False), (1, 3, False), (4, 1, False), (3, 3, True), (7, 3, False)])
def test_scan_edge_cases(n, m, zero_theta):
    # one profile; one user; a channel whose payoff base is 0; more profiles
    # than one block holds (3^7 > 512)
    rng = np.random.default_rng(n * 10 + m)
    for kind in ("backoff", "weighted"):
        spec = random_game(rng, random_directed_graph(rng, n, 0.6), m, kind)
        if zero_theta:
            spec = SpectrumGame.create(spec.graph, (0.0,) + spec.idle_prob[1:], spec.mean_rate, spec.mechanism, spec.gain)
        _assert_scan_matches_brute_force(spec)


def test_single_channel_scan_stays_small():
    # one profile: the grab table holds one entry per contender count, not
    # 2^69 per user, and 70 cycling users exceed numpy's 64 dimensions
    n = 70
    spec = SpectrumGame.create(complete_undirected_graph(n), [0.5], [[1.0]] * n, sa.WeightedShare((1.0,) * n))
    assert enumerate_pure_ne(spec) == [(1,) * n]
    assert social_welfare_and_poa(spec).poa == 1.0
    assert spec._grab_table[0].size == n * n


@pytest.mark.parametrize("kind", ["weighted", "aloha"])
def test_payoff_matches_scan_bit_for_bit(kind):
    # payoff and the scan build their contender sets differently, and a set's
    # iteration order depends on how it was built once ids pass its table size
    # (8 slots for small sets); g must not depend on that order
    rng = np.random.default_rng(2)
    spec = random_game(rng, random_directed_graph(rng, 16, 0.5), 2, kind)
    for block in _scan(spec, 1e-12, 10**7):
        for k in rng.choice(len(block.profiles), 8, replace=False):
            a = tuple(block.profiles[k].tolist())
            for n in range(1, 17):
                for m in (1, 2):
                    moved = a[: n - 1] + (m,) + a[n:]
                    assert spec.payoff(moved, n) == block.payoffs[k, n - 1, m - 1]


def test_poa_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        social_welfare_and_poa(cycle3_game(), cap=7)


# --- physical interference ---------------------------------------------------

def _simple_physical(theta=(0.5, 0.5)):
    return PhysicalGame(
        n_channels=len(theta),
        bandwidth=10.0,
        tx_power=(1e-7, 2e-7),
        own_distance=(1.0, 1.0),
        cross_distance=((0.0, 5.0), (5.0, 0.0)),
        path_loss=2.0,
        noise=1e-7,
        primary_interference=((0.0, 0.0), (0.0, 0.0)),
        idle_prob=theta,
    )


def test_physical_sole_user_unit_snr():
    p = _simple_physical()
    # eta * d^-alpha = 1e-7 = noise -> SINR = 1 -> theta * W * log2(2)
    assert payoff_physical(p, (1, 2), 1) == pytest.approx(0.5 * 10.0)


def test_physical_interferer_strictly_decreases():
    p = _simple_physical()
    assert payoff_physical(p, (1, 1), 1) < payoff_physical(p, (1, 2), 1)


def test_physical_symmetry_validation():
    with pytest.raises(ValueError):
        PhysicalGame(
            n_channels=1, bandwidth=1.0, tx_power=(1.0, 1.0), own_distance=(1.0, 1.0),
            cross_distance=((0.0, 2.0), (3.0, 0.0)), path_loss=2.0, noise=1e-9,
            primary_interference=((0.0,), (0.0,)), idle_prob=(1.0,),
        )


# --- welfare / PoA -----------------------------------------------------------

def test_poa_empty_graph_is_one():
    rng = np.random.default_rng(4)
    g = sa.InterferenceGraph.from_edges(3, [])
    spec = random_game(rng, g, 2, "backoff")
    rep = social_welfare_and_poa(spec)
    assert rep.poa == pytest.approx(1.0)
    assert rep.lower_bound <= 1.0 + 1e-12


def test_poa_single_user():
    g = sa.InterferenceGraph.from_edges(1, [])
    spec = SpectrumGame.create(g, [0.5, 0.2], [[10.0, 3.0]], sa.RandomBackoff(4))
    rep = social_welfare_and_poa(spec)
    assert rep.poa == pytest.approx(1.0)
    assert rep.lower_bound == pytest.approx(1.0)  # g_1(empty) = 1


def test_poa_all_channels_never_idle():
    # max_n V_n = 0: the bound and the PoA are both 1, not a division by zero
    g = sa.InterferenceGraph.undirected(2, [(1, 2)])
    spec = SpectrumGame.create(g, [0.0, 0.0], [[4.0, 2.0], [3.0, 5.0]], sa.RandomBackoff(4))
    rep = social_welfare_and_poa(spec)
    assert rep.optimal_welfare == 0.0
    assert rep.poa == 1.0 and rep.lower_bound == 1.0


def test_poa_no_ne_certificate():
    spec = cycle3_game()
    rep = social_welfare_and_poa(spec)
    assert rep.poa is None
    assert len(rep.no_ne_certificate) == 8
    for profile, wit in rep.no_ne_certificate:
        a2 = profile[: wit.user - 1] + (wit.better_channel,) + profile[wit.user:]
        assert spec.payoff(a2, wit.user) > spec.payoff(profile, wit.user)


def test_poa_bound_holds_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        kind = ["backoff", "aloha", "weighted", "asymptotic"][int(rng.integers(0, 4))]
        g = sa.InterferenceGraph.undirected(
            n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5]
        )
        spec = random_game(rng, g, m, kind)
        rep = social_welfare_and_poa(spec)  # raises if the bound is violated
        if rep.poa is not None:
            assert rep.poa >= rep.lower_bound - 1e-9
            assert rep.worst_ne_profile in rep.pure_ne
            assert rep.optimal_welfare >= rep.worst_ne_welfare - 1e-12

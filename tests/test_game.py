import dataclasses
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    complete_undirected_graph,
    expected_grab,
    expected_grab_mc,
    random_directed_graph,
    random_game,
)

import specaccess as sa
from specaccess import game
from specaccess.config import load_config
from specaccess.errors import ResourceLimitError
from specaccess.game import (
    IMPROVEMENT_RTOL,
    PhysicalGame,
    SpectrumGame,
    _scan,
    better_response_dynamics,
    enumerate_pure_ne,
    first_pure_ne,
    is_pure_ne,
    social_welfare_and_poa,
    strictly_better,
    welfare,
)
from specaccess.learning import q_from_sigma
from specaccess.potentials import signed

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def cycle3_game(p=0.5):
    g = sa.InterferenceGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    return SpectrumGame.create(g, [1.0, 1.0], [[1.0, 1.0]] * 3, sa.SlottedAloha((p,) * 3))


def test_payoff_no_contention():
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])
    spec = SpectrumGame.create(g, [0.5], [[10e6], [10e6]], sa.RandomBackoff(10))
    # user 1 has no in-neighbours: g = 1
    assert spec.payoff((1, 1), 1) == pytest.approx(5e6)


def test_payoff_cycle3_all_on_channel_one():
    spec = cycle3_game(0.5)
    for n in (1, 2, 3):
        assert spec.payoff((1, 1, 1), n) == pytest.approx(0.5 * 0.5)


def test_payoff_zero_on_busy_channel():
    g = sa.InterferenceGraph.from_edges(1, [])
    spec = SpectrumGame.create(g, [0.0, 1.0], [[5.0, 5.0]], sa.RandomBackoff(4))
    assert spec.payoff((1,), 1) == 0.0


def test_gain_scales_payoff():
    g = sa.InterferenceGraph.from_edges(1, [])
    spec = SpectrumGame.create(g, [0.5], [[8.0]], sa.RandomBackoff(3), gain=[2.0])
    assert spec.payoff((1,), 1) == pytest.approx(8.0)


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
        assert _mixed_payoffs(spec, sigma)[n - 1] == pytest.approx(spec.payoff(a, n))


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
                expect += prob * spec.payoff(a, 1)
            assert abs(got - expect) <= 1e-12 * max(1.0, expect)


def test_expected_grab_paths_agree():
    # Q against the pure payoff at one-hot rows and against the enumeration
    # and Monte-Carlo references at mixed rows, for every mechanism on several
    # channels, one channel, an edgeless graph and a single user
    rng = np.random.default_rng(21)
    for kind in ("backoff", "asymptotic", "weighted", "aloha"):
        for n, m, p in ((5, 3, 0.6), (4, 1, 0.7), (4, 2, 0.0), (1, 2, 0.0)):
            spec = random_game(rng, random_directed_graph(rng, n, p), m, kind)
            a = rng.integers(1, m + 1, size=n)
            pure = q_from_sigma(spec, np.eye(m)[a - 1])
            assert pure[np.arange(n), a - 1].tolist() == [spec.payoff(tuple(a.tolist()), k) for k in range(1, n + 1)]
            sigma = rng.dirichlet(np.ones(m), size=n)
            g = q_from_sigma(spec, sigma) / spec._value
            for k in range(1, n + 1):
                for ch in range(1, m + 1):
                    membership = {i: float(sigma[i - 1, ch - 1]) for i in spec.graph.in_neighbors(k)}
                    assert g[k - 1, ch - 1] == pytest.approx(expected_grab(spec.mechanism, k, membership), abs=1e-14)
                    mc, se = expected_grab_mc(spec.mechanism, k, membership, 4000, np.random.default_rng(3))
                    assert abs(mc - g[k - 1, ch - 1]) < 4 * se + 1e-3


def test_q_aloha_beyond_subset_cap():
    # Aloha factorises, so Q needs no grab table at 25 in-neighbours
    n = 26
    spec = SpectrumGame.create(complete_undirected_graph(n), [0.5, 0.8], [[4.0, 2.0]] * n, sa.SlottedAloha((0.1,) * n))
    Q = q_from_sigma(spec, np.full((n, 2), 0.5))
    assert Q[0].tolist() == pytest.approx([0.5 * 4.0 * 0.1 * 0.95**25, 0.8 * 2.0 * 0.1 * 0.95**25], rel=1e-14)


def test_scan_subset_cap_raises_before_building():
    # 21 in-neighbours under weighted sharing would need 22 * 2^21 table entries
    n = 22
    spec = SpectrumGame.create(complete_undirected_graph(n), [0.5, 0.7], [[4.0, 2.0]] * n, sa.WeightedShare((1.0,) * n))
    with pytest.raises(ResourceLimitError, match="21 in-neighbours exceeds the cap 20"):
        enumerate_pure_ne(spec)


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


def test_profile_entries_must_be_integer_channels():
    # floats used to fail inside payoff with a TypeError, and True passed as
    # channel 1; numpy integers are channels
    spec = load_config(CONFIGS / "dag_chain.json").scenario.game
    for bad in (1.5, 1.0, np.float64(1.0), True, np.True_, 0, 4):
        a = (bad, 2, 3, 1)
        with pytest.raises(ValueError, match="valid channel indices"):
            is_pure_ne(spec, a)
        with pytest.raises(ValueError, match="valid channel indices"):
            better_response_dynamics(spec, a)
    a = tuple(np.array([1, 2, 3, 1]))
    assert is_pure_ne(spec, a) == is_pure_ne(spec, (1, 2, 3, 1))
    assert better_response_dynamics(spec, a) == better_response_dynamics(spec, (1, 2, 3, 1))


def test_enumeration_cap():
    spec = cycle3_game()
    with pytest.raises(ResourceLimitError):
        enumerate_pure_ne(spec, cap=4)


def test_brd_zero_moves_from_ne():
    g = sa.InterferenceGraph.from_edges(1, [])
    spec = SpectrumGame.create(g, [0.5, 0.9], [[10.0, 1.0]], sa.RandomBackoff(5))
    res = better_response_dynamics(spec, (1,))
    assert res.converged and not res.steps


def test_brd_cycles_on_directed_3cycle():
    res = better_response_dynamics(cycle3_game(), (1, 1, 1), max_rounds=60)
    assert not res.converged
    assert len(res.steps) >= 60


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
    if ne:  # the first profile wins ties
        assert (rep.worst_ne_welfare, rep.worst_ne_profile) == min((welfare(spec, a), a) for a in ne)
    blocks = list(_scan(spec, 10**7))
    assert [tuple(a) for b in blocks for a in b.profiles().tolist()] == profiles
    # every block's own payoffs and per-move payoffs (entry payoffs expanded
    # through the index) and NE flags, profile by profile
    rows = itertools.chain.from_iterable(
        zip(b.own_payoffs().T, b.payoffs[:, b.index].transpose(2, 0, 1), b.is_ne.tolist()) for b in blocks)
    for a, check, (own, moves, is_ne) in zip(profiles, checks, rows, strict=True):
        for n in range(1, spec.n_users + 1):
            assert own[n - 1] == spec.payoff(a, n)
            for m in range(1, spec.n_channels + 1):
                moved = a[: n - 1] + (m,) + a[n:]
                assert moves[m - 1, n - 1] == spec.payoff(moved, n)
        assert is_ne == check.is_ne
    if not ne:
        assert rep.no_ne_certificate == [(a, c.witness) for a, c in zip(profiles[:64], checks)]


def _brute_force_games():
    rng = np.random.default_rng(2)
    for trial in range(24):
        kind = ("backoff", "aloha", "weighted", "asymptotic")[trial % 4]
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        yield random_game(rng, random_directed_graph(rng, n, 0.5), m, kind)
    for p in (0.3, 0.5):  # no pure NE: the certificate path
        yield cycle3_game(p)


def test_scan_matches_brute_force():
    for spec in _brute_force_games():
        _assert_scan_matches_brute_force(spec)


@pytest.mark.parametrize("rows, payoffs", [(16, game.SCAN_PAYOFFS), (game.SCAN_ROWS, 24)])
def test_scan_matches_brute_force_in_small_blocks(monkeypatch, rows, payoffs):
    # blocks of at most 16 user rows, or of at most 24 payoffs: a fixed head
    # and a cycling tail in nearly every game below, with users whose
    # neighbourhood covers the tail (all of a complete graph's, a star's
    # centre) and users whose neighbourhood does not
    monkeypatch.setattr(game, "SCAN_ROWS", rows)
    monkeypatch.setattr(game, "SCAN_PAYOFFS", payoffs)
    rng = np.random.default_rng(19)
    star = sa.InterferenceGraph.undirected(6, [(1, i) for i in range(2, 7)])
    specs = [*_brute_force_games(),
             random_game(rng, complete_undirected_graph(5), 3, "weighted", gains=True),
             random_game(rng, complete_undirected_graph(6), 2, "backoff"),
             random_game(rng, star, 2, "aloha", gains=True),
             random_game(rng, star, 3, "weighted"),
             random_game(rng, random_directed_graph(rng, 7, 0.3), 3, "aloha")]
    for spec in specs:
        _assert_scan_matches_brute_force(spec)
        block = next(_scan(spec, 10**7))
        assert len(block.is_ne) == spec.n_channels or (spec.n_users * len(block.is_ne) <= rows
                                                       and block.payoffs.size <= payoffs)


def test_interleaved_scans_yield_what_each_yields_alone(monkeypatch):
    # each scan builds its own layout and key buffers: two scans of one game
    # advanced in turn, or a scan run while a first_pure_ne-style scan is
    # suspended, yield the blocks and NE that each yields alone
    monkeypatch.setattr(game, "SCAN_ROWS", 64)  # 243 blocks of 9 profiles
    rng = np.random.default_rng(22)
    spec = random_game(rng, random_directed_graph(rng, 7, 0.4), 3, "weighted", gains=True)
    alone = [[np.copy(x) for x in block] for block in _scan(spec, 10**7)]
    assert len(alone) == 243
    first, second = _scan(spec, 10**7), _scan(spec, 10**7)
    got = [[next(first)], []]
    for block in second:  # the first scan runs a block ahead of the second
        got[1].append(block)
        got[0].extend(itertools.islice(first, 1))
    for blocks in got:  # compared once both have ended, so no block may share a buffer
        assert len(blocks) == len(alone)
        for block, expected in zip(blocks, alone):
            assert all(np.array_equal(x, y) for x, y in zip(block, expected, strict=True))
    ne = enumerate_pure_ne(spec)
    assert len(ne) == 3  # in three blocks
    suspended = game._pure_ne(spec, 10**7)
    got = [next(suspended)]
    assert enumerate_pure_ne(spec) == ne
    assert got + list(suspended) == ne


def _dead_band_games():
    """(label, improving, game): two users without edges; user 1 sits on
    channel 1 and would gain on channel 3 exactly the dead band
    IMPROVEMENT_RTOL * new, one payoff ulp less or one more, at payoffs
    above 1 and, scaled by 2^-42, below 1, where the band has no floor.
    Channel 2 pays in between; user 2 is best off on channel 3."""
    graph = sa.InterferenceGraph.from_edges(2, [])
    for scale in (1.0, 2.0**-42):
        # this new makes the band exactly 2^-38 * scale, a multiple of new's
        # ulp, so old = new - band is exact
        new = 2.0**-38 / IMPROVEMENT_RTOL * scale
        band = IMPROVEMENT_RTOL * new
        assert band == 2.0**-38 * scale and new - (new - band) == band
        for label, old in (("at", new - band), ("below", math.nextafter(new - band, 4.0)),
                           ("above", math.nextafter(new - band, 0.0))):
            rates = [[old, (old + new) / 2, new], [1.0, 2.0, 3.0]]
            yield f"{label} {new}", label == "above", SpectrumGame.create(graph, [1.0] * 3, rates, sa.RandomBackoff(5))


def test_best_channel_ne_flag_agrees_with_is_pure_ne_in_the_dead_band():
    for label, improving, spec in _dead_band_games():
        a = (1, 3)
        assert spec.payoff((3, 3), 1) == spec.mean_rate[0][2], label  # payoffs are the rates
        assert is_pure_ne(spec, a).is_ne is not improving, label
        block = next(_scan(spec, 10**7))
        assert bool(block.is_ne[block.profiles().tolist().index(list(a))]) is not improving, label
        _assert_scan_matches_brute_force(spec)


_EXACT_SCALES = (2.0**-40, 2.0**40, 2.0**-990)  # powers of two: every payoff scales exactly


def _rescaled(spec, scale):
    rates = [[b * scale for b in row] for row in spec.mean_rate]
    return SpectrumGame.create(spec.graph, spec.idle_prob, rates, spec.mechanism, spec.gain)


@pytest.mark.parametrize("scale", _EXACT_SCALES)
def test_equilibria_and_poa_do_not_depend_on_the_rate_unit(scale):
    # the NE list, the optimum, the PoA bits and the certificate's moves of a
    # game whose rates are all scaled exactly, including below payoff 1
    rng = np.random.default_rng(21)
    specs = [random_game(rng, random_directed_graph(rng, 5, 0.4), 3, kind, gains=True)
             for kind in ("backoff", "weighted", "aloha", "asymptotic") for _ in range(3)]
    specs += [cycle3_game(0.3), cycle3_game(0.5)]  # no pure NE: the certificate
    for spec in specs:
        scaled = _rescaled(spec, scale)
        rep, got = social_welfare_and_poa(spec), social_welfare_and_poa(scaled)
        assert got.pure_ne == rep.pure_ne == enumerate_pure_ne(scaled)
        assert first_pure_ne(scaled) == first_pure_ne(spec)
        assert got.optimal_profile == rep.optimal_profile and got.optimal_welfare == rep.optimal_welfare * scale
        assert got.worst_ne_profile == rep.worst_ne_profile
        assert got.poa == rep.poa and got.lower_bound == rep.lower_bound
        if rep.no_ne_certificate is None:
            assert got.no_ne_certificate is None
        else:
            assert ([(a, w.user, w.better_channel) for a, w in got.no_ne_certificate]
                    == [(a, w.user, w.better_channel) for a, w in rep.no_ne_certificate])
    assert sum(social_welfare_and_poa(spec).poa is None for spec in specs) >= 2


def test_strictly_better_is_a_positive_sign_on_non_negative_pairs():
    # strictly_better(new, old) == (signed(new - old, (new, old)) == 1) on
    # pairs at, within and just outside the dead band, ties and zeros, at
    # every exact scale; elementwise on arrays as on floats
    rng = np.random.default_rng(12)
    pairs = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    for x in rng.uniform(0.5, 10.0, 50).tolist():
        near = x * (1.0 - IMPROVEMENT_RTOL)
        for old in (x, 0.0, near, math.nextafter(near, 0.0), math.nextafter(near, x),
                    x * (1.0 - 0.5 * IMPROVEMENT_RTOL), x * (1.0 - 2.0 * IMPROVEMENT_RTOL), x / 2):
            pairs += [(x, old), (old, x)]
    for scale in (1.0, *_EXACT_SCALES):
        scaled = [(new * scale, old * scale) for new, old in pairs]
        verdicts = [strictly_better(new, old) for new, old in scaled]
        assert verdicts == [signed(new - old, (new, old)) == 1 for new, old in scaled]
        news, olds = np.array(scaled).T
        assert strictly_better(news, olds).tolist() == verdicts
        assert 0 < sum(verdicts) < len(verdicts)


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
    # 2^69 per user, and one user cycles, not all 70, as K = 1^L never grows
    n = 70
    spec = SpectrumGame.create(complete_undirected_graph(n), [0.5], [[1.0]] * n, sa.WeightedShare((1.0,) * n))
    assert enumerate_pure_ne(spec) == [(1,) * n]
    assert social_welfare_and_poa(spec).poa == 1.0
    assert spec._grab_table[0].size == n * n
    (block,) = _scan(spec, 10**7)
    assert block.tail.shape == (1, 1) and block.head.shape == (n - 1,)


def test_neighbourhood_caches_grow_with_users_times_in_degree():
    # a directed path: d_max = 1, so the index and the grab table hold a few
    # values per user, where an N x N array would be 72 MB
    n = 3000
    graph = sa.InterferenceGraph.from_edges(n, [(i, i + 1) for i in range(1, n)])
    spec = SpectrumGame.create(graph, [0.5, 0.7], [[1.0, 2.0]] * n, sa.WeightedShare((1.0,) * n))
    held = sum(a.nbytes for a in spec._in_index + spec._grab_table)
    assert held < 100 * n


@pytest.mark.parametrize("kind", ["weighted", "aloha"])
def test_grab_table_rows_match_grab_probability_bit_for_bit(kind):
    # user n hears users 1..n-1, so in-degrees run 0..10
    n_users = 11
    rng = np.random.default_rng(5)
    graph = sa.InterferenceGraph.from_edges(n_users, [(i, n) for n in range(1, n_users + 1) for i in range(1, n)])
    spec = random_game(rng, graph, 2, kind)
    table, offset, _ = spec._grab_table
    for n in range(1, n_users + 1):
        # in-neighbour j of d on bit d - 1 - j
        nbrs = list(range(1, n))
        expected = [sa.grab_probability(spec.mechanism, n, [i for j, i in enumerate(nbrs) if mask >> (n - 2 - j) & 1])
                    for mask in range(1 << len(nbrs))]
        assert table[offset[n - 1]:offset[n - 1] + len(expected)].tolist() == expected
    assert table.size == sum(1 << d for d in range(n_users))


@pytest.mark.parametrize("kind", ["weighted", "aloha"])
def test_payoff_matches_scan_bit_for_bit(kind):
    # payoff and the scan build their contender sets differently, and a set's
    # iteration order depends on how it was built once ids pass its table size
    # (8 slots for small sets); g must not depend on that order
    rng = np.random.default_rng(2)
    spec = random_game(rng, random_directed_graph(rng, 16, 0.5), 2, kind)
    for block in _scan(spec, 10**7):
        moves = block.payoffs[:, block.index]
        for k in rng.choice(len(block.is_ne), 8, replace=False):
            a = tuple(block.profiles([k])[0].tolist())
            for n in range(1, 17):
                for m in (1, 2):
                    moved = a[: n - 1] + (m,) + a[n:]
                    assert spec.payoff(moved, n) == moves[m - 1, n - 1, k]


_SCAN_DIGESTS = {
    "8x4_backoff": "61e08cb0bb450bdc0903bd31cef38bfe470bc3774ccab9e8d1917860863c7dc0",
    "8x4_asymptotic": "c587856157adbbe829caa751759ef29ba8db5dfac94ddc10bef087d1b0205dd4",
    "8x4_weighted": "0ca922c7732cb496eba2e4f640e6c34b37abc130dc44dc12f05612315925abee",
    "8x4_aloha": "651f166f0637ed21a47daf6893be2a6883c46af4ed2047aa75b6f1c112917276",
    "16x2_backoff": "6550eb677933b02b7e1b7f9f2865d8e0be296ed5b10350a7b097c3a77e765334",
    "16x2_asymptotic": "59833cf3990d989ca0c7b65e97a0d958801cdfdb24cb205fd83f9691fbffe723",
    "16x2_weighted": "f9f89e3b7b9c6b56ea046b127aa896410c19a8209133cde6bf1929f43748d2d7",
    "16x2_aloha": "dd5ae9c6650769daec06a75a46c283ff6e48d2620581063d9e6072ef532266cc",
    "16x1_weighted": "44caf982ac5f76f9cf219ad897a2ca28947a5835a9e5618cd7e86cbdf17b43e4",
    "triangle": "7bf898a52b402038edb7ea9a207d30e49fcd262a1fd595445754753dcf1b8b98",
    "10x2_every_profile_ne": "f4bb5193db717a76559e6f940726c57ad0bfe74c53c51a6a1a40b0c8be83c68b",
    "learning_9user": "a1b3f0b6e97e391be22f6b2147f671becab36d3392dbe396bf60266d9686e0b1",
    "learning_9user_aloha": "a49317edd1a0b1bbcd93a4ede995112a5f19461f39f2e2983d0914b065f9d732",
    "9x3_complete_weighted": "98ae16a23876ff38a9535be15d65f6b123cea977a97e0dfa0eaf72b7a2b15883",
    "14x2_star_aloha": "8fb4a7a284616dd8d92cb83e3d23eb6e149dd1c683df1d27b35665f2e5968c4c",
}


def _scan_digest(spec):
    # repr of a Python float round-trips, so equal text means equal bits
    text = repr((dataclasses.astuple(social_welfare_and_poa(spec)), enumerate_pure_ne(spec)))
    return hashlib.sha256(text.encode()).hexdigest()


def test_seeded_scans_keep_their_digest():
    # every PoaReport field (the certificate's gains included) and the NE list,
    # on 65,536-profile games of both bench shapes, one channel at N = 16
    # (blocks of one profile, where a pairwise sum over users moves the
    # welfare bits) and the no-NE triangle
    rng = np.random.default_rng(16)
    got = {}
    for n, m in ((8, 4), (16, 2)):
        for kind in ("backoff", "asymptotic", "weighted", "aloha"):
            spec = random_game(rng, random_directed_graph(rng, n, 0.3), m, kind, gains=True)
            got[f"{n}x{m}_{kind}"] = _scan_digest(spec)
    one_channel = random_game(rng, random_directed_graph(rng, 16, 0.5), 1, "weighted", gains=True)
    got["16x1_weighted"] = _scan_digest(one_channel)
    got["triangle"] = _scan_digest(load_config(CONFIGS / "triangle_no_ne.json").scenario.game)
    # no edges and equal channels: all 1024 profiles are NE of one welfare, so
    # the first profile must win the worst-NE tie across both blocks
    rates = np.random.default_rng(10).uniform(1.0, 10.0, 10)
    edgeless = SpectrumGame.create(sa.InterferenceGraph.from_edges(10, []), [0.5, 0.5], [[r, r] for r in rates],
                                   sa.RandomBackoff(5))
    got["10x2_every_profile_ne"] = _scan_digest(edgeless)
    # the 9-user configs (1.95 M profiles in many blocks), a complete graph,
    # where every user's neighbourhood covers the cycling users, and a star,
    # where only the centre's does; first_pure_ne is the first NE of each
    specs = {name: load_config(CONFIGS / f"{name}.json").scenario.game
             for name in ("learning_9user", "learning_9user_aloha")}
    rng = np.random.default_rng(19)
    specs["9x3_complete_weighted"] = random_game(rng, complete_undirected_graph(9), 3, "weighted", gains=True)
    star = sa.InterferenceGraph.undirected(14, [(1, i) for i in range(2, 15)])
    specs["14x2_star_aloha"] = random_game(rng, star, 2, "aloha", gains=True)
    for name, spec in specs.items():
        got[name] = _scan_digest(spec)
        ne = enumerate_pure_ne(spec)
        assert first_pure_ne(spec) == (ne[0] if ne else None), name
    assert got == _SCAN_DIGESTS


def test_worst_ne_welfare_and_poa_are_python_floats():
    # the worst NE's welfare is its scan total, a Python float like the
    # optimum's, also where the mechanism keeps numpy weights and every payoff
    # is an np.float64
    rng = np.random.default_rng(16)
    spec = random_game(rng, random_directed_graph(rng, 8, 0.3), 4, "weighted", gains=True)
    assert all(type(w) is np.float64 for w in spec.mechanism.weights)
    rep = social_welfare_and_poa(spec)
    assert rep.pure_ne and type(welfare(spec, rep.worst_ne_profile)) is np.float64
    assert type(rep.worst_ne_welfare) is float and type(rep.poa) is float and type(rep.optimal_welfare) is float
    assert rep.worst_ne_welfare == welfare(spec, rep.worst_ne_profile)


def test_poa_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        social_welfare_and_poa(cycle3_game(), cap=7)


# --- physical interference ---------------------------------------------------

def _simple_physical(theta=(0.5, 0.5)):
    return PhysicalGame(
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
    assert p.payoff((1, 2), 1) == pytest.approx(0.5 * 10.0)


def test_physical_interferer_strictly_decreases():
    p = _simple_physical()
    assert p.payoff((1, 1), 1) < p.payoff((1, 2), 1)


def test_physical_symmetry_validation():
    with pytest.raises(ValueError):
        PhysicalGame(
            bandwidth=1.0, tx_power=(1.0, 1.0), own_distance=(1.0, 1.0),
            cross_distance=((0.0, 2.0), (3.0, 0.0)), path_loss=2.0, noise=1e-9,
            primary_interference=((0.0,), (0.0,)), idle_prob=(1.0,),
        )


@pytest.mark.parametrize("field, bad, message", [
    ("bandwidth", -1.0, "bandwidth"), ("bandwidth", 0.0, "bandwidth"), ("bandwidth", math.inf, "bandwidth"),
    ("tx_power", (-1.0, 2e-7), "transmit powers"), ("tx_power", (1e-7, 0.0), "transmit powers"),
    ("tx_power", (math.nan, 2e-7), "transmit powers"),
    ("noise", 0.0, "noise"), ("noise", -1e-7, "noise"), ("noise", math.inf, "noise"),
    ("primary_interference", ((0.0, -1e-9), (0.0, 0.0)), "primary interference"),
    ("primary_interference", ((0.0, 0.0), (math.inf, 0.0)), "primary interference"),
    ("idle_prob", (0.5, 1.5), "idle probabilities"), ("idle_prob", (-0.1, 0.5), "idle probabilities"),
    ("idle_prob", (math.nan, 0.5), "idle probabilities"),
])
def test_physical_scalars_are_validated(field, bad, message):
    # each would make a payoff raise (noise 0 with no primary interference,
    # a negative power's logarithm) or fall below 0, outside strictly_better's domain
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(_simple_physical(), **{field: bad})
    assert all(_simple_physical().payoff(a, n) >= 0 for a in itertools.product((1, 2), repeat=2) for n in (1, 2))


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

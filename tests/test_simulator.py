from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import random_directed_graph, random_mechanism, random_undirected_graph

import specaccess as sa
from specaccess.config import learning_policy_from, load_config
from specaccess.contention import backoff_success_probability, grab_probability
from specaccess.game import payoff_pure
from specaccess.simulator import (
    DynamicStageGamePolicy,
    FixedProfilePolicy,
    LearningPolicy,
    RandomAccessPolicy,
    Scenario,
    SimStreams,
    _channel_states,
    _contention_draws,
    _rate_draws,
    _realise_rates,
    _solve_stage,
    _success_matrix,
    compare_policies,
    run_policy,
    simulate_period,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _scenario(graph, channel_models, mech, rates=None, t_max=100, periods=10, gains=None):
    n = graph.n_users
    m = len(channel_models)
    if rates is None:
        rates = [[sa.FixedRate(1.0)] * m for _ in range(n)]
    return Scenario.build(graph, channel_models, rates, mech, gains, t_max=t_max, periods=periods)


def test_scenario_derives_game_from_models():
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])
    sc = _scenario(
        g,
        [sa.MarkovChannel(0.3, 0.1), sa.BernoulliChannel(0.6)],
        sa.RandomBackoff(5),
        rates=[[sa.FixedRate(4.0), sa.FixedRate(2.0)]] * 2,
    )
    assert sc.game.idle_prob == pytest.approx((0.75, 0.6))
    assert sc.game.mean_rate[0] == (4.0, 2.0)


def test_busy_channel_yields_zeros():
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])
    sc = _scenario(g, [sa.WhiteSpaceChannel(0)], sa.RandomBackoff(5), t_max=20)
    streams = SimStreams.from_seed(0, 2)
    obs, _ = simulate_period(sc, (1, 1), (0,), streams)
    for o in obs:
        assert not o.S.any() and not o.I.any() and not o.b.any()


def test_no_interferers_always_grab():
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])  # user 1 has no in-neighbours
    sc = _scenario(g, [sa.WhiteSpaceChannel(1)], sa.RandomBackoff(5), t_max=200)
    streams = SimStreams.from_seed(1, 2)
    obs, _ = simulate_period(sc, (1, 1), (1,), streams)
    assert obs[0].I.all()          # unchallenged user always wins
    assert not obs[1].I.all()      # challenged user sometimes loses
    assert obs[0].S.all() and obs[1].S.all()


def test_spatial_reuse_both_succeed():
    # no interference edges: both users can hold the same channel every slot
    g = sa.InterferenceGraph.from_edges(2, [])
    sc = _scenario(g, [sa.WhiteSpaceChannel(1)], sa.RandomBackoff(3), t_max=50)
    streams = SimStreams.from_seed(3, 2)
    obs, _ = simulate_period(sc, (1, 1), (1,), streams)
    assert obs[0].I.all() and obs[1].I.all()


def _slot_success(scenario, ch, s, draws):
    """Brute-force grab indicators of one slot, user by user."""
    game = scenario.game
    out = np.zeros(game.n_users, dtype=bool)
    for u in range(1, game.n_users + 1):
        rivals = [draws[i - 1] for i in game.graph.in_neighbors(u) if ch[i - 1] == ch[u - 1]]
        if isinstance(game.mechanism, sa.SlottedAloha):
            out[u - 1] = s[u - 1] == 1 and draws[u - 1] == 1.0 and 1.0 not in rivals
        else:
            out[u - 1] = s[u - 1] == 1 and all(draws[u - 1] < r for r in rivals)
    return out


def _run_dynamic_per_slot(scenario, policy, seed):
    """Reference for the dynamic stage-game policy: the per-slot loop, one
    memoised stage solve, one success check and one rate realisation per slot."""
    n = scenario.game.n_users
    streams = SimStreams.from_seed(seed, n)
    memo = {}
    state = scenario.initial_channel_state(streams.channels)
    welfare_trace = np.zeros(scenario.periods)
    user_totals = np.zeros(n)
    for t in range(scenario.periods):
        states, state = _channel_states(scenario.channel_models, state, scenario.t_max, streams.channels)
        draws = _contention_draws(scenario, streams, scenario.t_max)
        fading = _rate_draws(scenario, streams, scenario.t_max)
        b_total = np.zeros(n)
        for slot in range(scenario.t_max):
            key = tuple(int(x) for x in states[slot])
            if key not in memo:
                memo[key] = _solve_stage(scenario.game, key, streams.policy, policy)
            ch = np.array(memo[key])
            succ = _slot_success(scenario, ch, states[slot][ch - 1], draws[slot])
            b_total += _realise_rates(scenario, ch[None, :], succ[None, :], fading[slot][None, :])[0]
        per_user = b_total / scenario.t_max
        user_totals += per_user
        welfare_trace[t] = per_user.sum()
    return welfare_trace, user_totals / scenario.periods


def test_success_matrix_matches_per_slot_check():
    rng = np.random.default_rng(41)
    graphs = [
        random_directed_graph(rng, 6, 0.5),
        sa.InterferenceGraph.from_edges(4, []),  # no in-neighbours anywhere: d_max = 0
        sa.InterferenceGraph.from_edges(1, []),
    ]
    t, m = 300, 3
    for g in graphs:
        n = g.n_users
        for kind in ("backoff", "asymptotic", "weighted", "aloha"):
            mech = random_mechanism(rng, n, kind)
            sc = _scenario(g, [sa.BernoulliChannel(0.5)] * m, mech, t_max=t)
            draws = _contention_draws(sc, SimStreams.from_seed(int(rng.integers(1000)), n), t)
            ch = rng.integers(1, m + 1, size=(t, n))
            s_user = rng.integers(0, 2, size=(t, n)).astype(np.int8)
            got = _success_matrix(sc, ch, s_user, draws)
            assert got.shape == (t, n) and got.dtype == bool
            for k in range(t):
                assert np.array_equal(got[k], _slot_success(sc, ch[k], s_user[k], draws[k])), (n, kind, k)


@pytest.mark.parametrize("kind", ["backoff", "asymptotic", "weighted", "aloha"])
@pytest.mark.parametrize("channels", [
    (sa.MarkovChannel(0.3, 0.2), sa.BernoulliChannel(0.6), sa.WhiteSpaceChannel(1)),
    (sa.WhiteSpaceChannel(1), sa.WhiteSpaceChannel(0)),
], ids=["markov-bernoulli-whitespace", "whitespace"])
def test_dynamic_policy_matches_per_slot_loop(kind, channels):
    rng = np.random.default_rng(43)
    n, m = 6, len(channels)
    g = random_directed_graph(rng, n, 0.4)
    rates = [
        [sa.RayleighShannonRate(10.0, 0.1, 1e-13, float(rng.uniform(5e-13, 2e-12))) for _ in range(m)]
        for _ in range(n)
    ]
    sc = _scenario(g, list(channels), random_mechanism(rng, n, kind), rates=rates, t_max=40, periods=6)
    policy = DynamicStageGamePolicy(restarts=3)
    res = run_policy(sc, policy, (5, 1))
    trace, per_user = _run_dynamic_per_slot(sc, policy, (5, 1))
    assert np.array_equal(res.welfare_trace, trace)
    assert np.array_equal(res.per_user_mean, per_user)
    assert res.mean_welfare > 0


def test_whitespace_idle_sequence():
    g = sa.InterferenceGraph.from_edges(1, [])
    sc = _scenario(g, [sa.WhiteSpaceChannel(1)], sa.RandomBackoff(2), t_max=30)
    streams = SimStreams.from_seed(5, 1)
    obs, _ = simulate_period(sc, (1,), (1,), streams)
    assert obs[0].S.all()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_backoff_success_frequency_matches_formula(k):
    n = k + 1
    g = sa.InterferenceGraph.undirected(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    sc = _scenario(g, [sa.WhiteSpaceChannel(1)], sa.RandomBackoff(10), t_max=10**5)
    streams = SimStreams.from_seed(11 + k, n)
    obs, _ = simulate_period(sc, (1,) * n, (1,), streams)
    exact = backoff_success_probability(10, k)
    emp = obs[0].I.mean()
    sigma = np.sqrt(exact * (1 - exact) / sc.t_max)
    assert abs(emp - exact) <= 3 * sigma + 1e-12


def test_aloha_success_frequency_matches_formula():
    g = sa.InterferenceGraph.undirected(3, [(1, 2), (1, 3), (2, 3)])
    mech = sa.SlottedAloha((0.4, 0.5, 0.6))
    sc = _scenario(g, [sa.WhiteSpaceChannel(1)], mech, t_max=10**5)
    streams = SimStreams.from_seed(17, 3)
    obs, _ = simulate_period(sc, (1, 1, 1), (1,), streams)
    for n in (1, 2, 3):
        exact = grab_probability(mech, n, {1, 2, 3} - {n})
        emp = obs[n - 1].I.mean()
        sigma = np.sqrt(exact * (1 - exact) / sc.t_max)
        assert abs(emp - exact) <= 3.5 * sigma


def test_weighted_and_asymptotic_race_frequencies():
    g = sa.InterferenceGraph.undirected(2, [(1, 2)])
    for mech in (sa.WeightedShare((2.0, 1.0)), sa.AsymptoticBackoff()):
        sc = _scenario(g, [sa.WhiteSpaceChannel(1)], mech, t_max=10**5)
        streams = SimStreams.from_seed(23, 2)
        obs, _ = simulate_period(sc, (1, 1), (1,), streams)
        for n in (1, 2):
            exact = grab_probability(mech, n, {3 - n})
            emp = obs[n - 1].I.mean()
            sigma = np.sqrt(exact * (1 - exact) / sc.t_max)
            assert abs(emp - exact) <= 3.5 * sigma


def test_markov_idle_fraction_matches_stationary():
    g = sa.InterferenceGraph.from_edges(1, [])
    sc = _scenario(g, [sa.MarkovChannel(0.2, 0.3)], sa.RandomBackoff(2), t_max=10**5)
    streams = SimStreams.from_seed(29, 1)
    obs, _ = simulate_period(sc, (1,), sc.initial_channel_state(streams.channels), streams)
    assert abs(obs[0].S.mean() - 0.4) < 0.01


def test_determinism_bit_identical():
    rng = np.random.default_rng(2)
    g = random_undirected_graph(rng, 3, 0.7)
    sc = _scenario(
        g,
        [sa.MarkovChannel(0.4, 0.2), sa.BernoulliChannel(0.5)],
        sa.SlottedAloha((0.3, 0.5, 0.7)),
        rates=[[sa.RayleighShannonRate(10.0, 0.1, 1e-13, 1e-12)] * 2 for _ in range(3)],
        t_max=50,
    )
    runs = []
    for _ in range(2):
        streams = SimStreams.from_seed(99, 3)
        state = sc.initial_channel_state(streams.channels)
        obs, _ = simulate_period(sc, (1, 2, 1), state, streams)
        runs.append(obs)
    for o1, o2 in zip(*runs):
        assert np.array_equal(o1.S, o2.S) and np.array_equal(o1.I, o2.I) and np.array_equal(o1.b, o2.b)


def test_emitted_observations_satisfy_invariants():
    rng = np.random.default_rng(7)
    for seed in range(5):
        g = random_undirected_graph(rng, 4, 0.5)
        sc = _scenario(
            g, [sa.MarkovChannel(0.3, 0.3), sa.BernoulliChannel(0.4)],
            sa.RandomBackoff(6), t_max=200,
        )
        streams = SimStreams.from_seed(seed, 4)
        state = sc.initial_channel_state(streams.channels)
        a = tuple(int(c) for c in rng.integers(1, 3, size=4))
        obs, state = simulate_period(sc, a, state, streams)
        for o in obs:
            assert np.all(o.I <= o.S)
            assert np.all((o.b > 0) <= (o.I == 1))


def test_long_run_throughput_matches_payoff():
    g = sa.InterferenceGraph.from_edges(3, [(1, 2), (3, 2)])
    sc = Scenario.build(
        g,
        [sa.MarkovChannel(0.2, 0.2), sa.BernoulliChannel(0.6)],
        [[sa.FixedRate(5.0), sa.FixedRate(3.0)] for _ in range(3)],
        sa.SlottedAloha((0.4, 0.5, 0.6)),
        t_max=1000, periods=1000,
    )
    a = (1, 1, 2)
    res = run_policy(sc, FixedProfilePolicy(a), 99)
    expect = sum(payoff_pure(sc.game, a, n) for n in (1, 2, 3))
    assert abs(res.mean_welfare - expect) / expect < 0.03
    per_user_expect = np.array([payoff_pure(sc.game, a, n) for n in (1, 2, 3)])
    assert np.all(np.abs(res.per_user_mean - per_user_expect) / per_user_expect < 0.06)


def test_random_access_symmetric_users():
    g = sa.InterferenceGraph.undirected(3, [(1, 2), (1, 3), (2, 3)])
    sc = _scenario(
        g, [sa.BernoulliChannel(0.5), sa.BernoulliChannel(0.5)],
        sa.RandomBackoff(8), t_max=200, periods=300,
    )
    means = np.mean(
        [run_policy(sc, RandomAccessPolicy(), seed).per_user_mean for seed in range(4)], axis=0
    )
    rel_spread = (means.max() - means.min()) / means.mean()
    assert rel_spread < 0.1


def test_identical_policies_paired_outputs():
    rng = np.random.default_rng(10)
    g = random_undirected_graph(rng, 3, 0.5)
    sc = _scenario(g, [sa.BernoulliChannel(0.5)], sa.RandomBackoff(4), t_max=50, periods=20)
    rep = compare_policies(sc, [RandomAccessPolicy(), RandomAccessPolicy()], 3, base_seed=7)
    by_rep = {}
    for r in rep.runs:
        by_rep.setdefault(r.replication, []).append(r.mean_welfare)
    for vals in by_rep.values():
        assert vals[0] == vals[1]


def test_learning_policy_traces_welfare():
    rng = np.random.default_rng(20)
    g = random_undirected_graph(rng, 3, 0.5)
    sc = _scenario(
        g, [sa.MarkovChannel(0.2, 0.2), sa.MarkovChannel(0.3, 0.1)],
        sa.RandomBackoff(6),
        rates=[[sa.FixedRate(8.0), sa.FixedRate(4.0)] for _ in range(3)],
        t_max=60, periods=40,
    )
    res = run_policy(sc, LearningPolicy(gamma=2.0, payoff_scale="auto"), (1, 2))
    assert res.learning is not None
    assert res.welfare_trace.shape == (40,)
    assert res.learning.delta >= 0.0


def test_per_user_mean_is_realised_throughput():
    # per_user_mean splits mean_welfare by user for every policy; learning used
    # to report its mean estimates, which on white-space channels (no update
    # ever defined) were all zero
    tri = load_config(CONFIGS / "triangle_no_ne.json")
    cases = [(replace(tri.scenario, periods=20), learning_policy_from(tri))]
    g = sa.InterferenceGraph.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    sc = _scenario(g, [sa.MarkovChannel(0.3, 0.1), sa.BernoulliChannel(0.6)], sa.RandomBackoff(6),
                   rates=[[sa.FixedRate(8.0), sa.FixedRate(4.0)] for _ in range(4)], t_max=50, periods=20)
    for policy in (LearningPolicy(2.0, "auto"), RandomAccessPolicy(), FixedProfilePolicy((1, 2, 1, 2)),
                   DynamicStageGamePolicy(restarts=2)):
        cases.append((sc, policy))
    for scenario, policy in cases:
        res = run_policy(scenario, policy, (5, 0))
        assert res.mean_welfare > 0.0
        assert res.per_user_mean.shape == (scenario.game.n_users,)
        assert res.per_user_mean.sum() == pytest.approx(res.mean_welfare, rel=1e-12)


def test_policy_comparison_ordering():
    # dynamic stage knowledge >= learning > random access, averaged over seeds
    g = sa.InterferenceGraph.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    sc = Scenario.build(
        g,
        [sa.MarkovChannel(0.3, 0.1), sa.BernoulliChannel(0.6), sa.BernoulliChannel(0.4)],
        [[sa.FixedRate(b) for b in row] for row in
         ([5, 4, 6], [7, 3, 5], [4, 6, 5], [6, 5, 4])],
        sa.RandomBackoff(10),
        t_max=100, periods=250,
    )
    rep = compare_policies(
        sc,
        [DynamicStageGamePolicy(), LearningPolicy(5.0, "auto"), RandomAccessPolicy()],
        replications=4, base_seed=2026,
    )
    s = rep.summary()
    dyn = s["dynamic_stage_game"][0]
    lrn = s["learning(gamma=5)"][0]
    rnd = s["random_access"][0]
    assert dyn >= lrn > rnd


def test_single_policy_single_replication_matches_run_policy():
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])
    sc = _scenario(g, [sa.BernoulliChannel(0.5)], sa.RandomBackoff(4), t_max=30, periods=10)
    rep = compare_policies(sc, [FixedProfilePolicy((1, 1))], 1, base_seed=3)
    direct = run_policy(sc, FixedProfilePolicy((1, 1)), (3, 0))
    assert rep.runs[0].mean_welfare == direct.mean_welfare

import hashlib
import math
import warnings
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    loop_estimates,
    one_period,
    random_directed_graph,
    random_mechanism,
    random_undirected_graph,
    rate_values,
)

import specaccess as sa
from specaccess import simulator
from specaccess.config import learning_policy_from, load_config
from specaccess.contention import backoff_success_probability, grab_probability
from specaccess.simulator import (
    DynamicStageGamePolicy,
    FixedProfilePolicy,
    LearningPolicy,
    RandomAccessPolicy,
    Scenario,
    SimStreams,
    _BLOCK_SLOTS,
    _block_outcomes,
    _blocks,
    _channel_states,
    _contention_draws,
    _realise_rates,
    _solve_stage,
    _state_groups,
    _success_matrix,
    compare_policies,
    make_mle_observer,
    run_policy,
    sweep_gamma,
)
from specaccess.learning import run_learning

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _scenario(graph, channel_models, mech, rates=None, t_max=100, periods=10, gains=None):
    n = graph.n_users
    m = len(channel_models)
    if rates is None:
        rates = sa.FixedRates([[1.0] * m] * n)
    return Scenario(graph, channel_models, rates, mech, gains, t_max=t_max, periods=periods)


def test_scenario_derives_game_from_models():
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])
    sc = _scenario(
        g,
        [sa.MarkovChannel(0.3, 0.1), sa.BernoulliChannel(0.6)],
        sa.RandomBackoff(5),
        rates=sa.FixedRates([[4.0, 2.0]] * 2),
    )
    assert sc.game.idle_prob == pytest.approx((0.75, 0.6))
    assert sc.game.mean_rate[0] == (4.0, 2.0)


@pytest.mark.parametrize("rates", [
    sa.FixedRates([[4.0, 2.0]]),  # one user's row for two users
    sa.FixedRates([[4.0], [2.0]]),  # one channel's column for two channels
    sa.RayleighShannonRates(10.0, 0.1, 1e-13, [[1e-12] * 3] * 2),
], ids=["fixed-rows", "fixed-columns", "rayleigh-columns"])
def test_build_rejects_a_rate_table_that_is_not_n_by_m(rates):
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])
    channels = [sa.MarkovChannel(0.3, 0.1), sa.BernoulliChannel(0.6)]
    with pytest.raises(ValueError, match="N x M"):
        Scenario(g, channels, rates, sa.RandomBackoff(5))
    good = Scenario(g, channels, sa.FixedRates([[4.0, 2.0]] * 2), sa.RandomBackoff(5))
    with pytest.raises(ValueError, match="N x M"):
        replace(good, rates=rates)


def test_busy_channel_yields_zeros():
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])
    sc = _scenario(g, [sa.WhiteSpaceChannel(0)], sa.RandomBackoff(5), t_max=20)
    streams = SimStreams.from_seed(0)
    (S, I, b), _ = one_period(sc, (1, 1), (0,), streams)
    assert not S.any() and not I.any() and not b.any()


def test_no_interferers_always_grab():
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])  # user 1 has no in-neighbours
    sc = _scenario(g, [sa.WhiteSpaceChannel(1)], sa.RandomBackoff(5), t_max=200)
    streams = SimStreams.from_seed(1)
    (S, I, _), _ = one_period(sc, (1, 1), (1,), streams)
    assert I[:, 0].all()          # unchallenged user always wins
    assert not I[:, 1].all()      # challenged user sometimes loses
    assert S.all()


def test_spatial_reuse_both_succeed():
    # no interference edges: both users can hold the same channel every slot
    g = sa.InterferenceGraph.from_edges(2, [])
    sc = _scenario(g, [sa.WhiteSpaceChannel(1)], sa.RandomBackoff(3), t_max=50)
    streams = SimStreams.from_seed(3)
    (_, I, _), _ = one_period(sc, (1, 1), (1,), streams)
    assert I.all()


def _slot_success(scenario, ch, s, draws):
    """Brute-force grab indicators of one slot, user by user."""
    game = scenario.game
    out = np.zeros(game.n_users, dtype=bool)
    for u in range(1, game.n_users + 1):
        rivals = [draws[i - 1] for i in game.graph.in_neighbors(u) if ch[i - 1] == ch[u - 1]]
        if isinstance(game.mechanism, sa.SlottedAloha):
            # 0.0 transmits, inf stays silent
            out[u - 1] = s[u - 1] == 1 and draws[u - 1] == 0.0 and 0.0 not in rivals
        else:
            out[u - 1] = s[u - 1] == 1 and all(draws[u - 1] < r for r in rivals)
    return out


def _run_dynamic_per_slot(scenario, policy, seed):
    """Reference for the dynamic stage-game policy: the per-slot loop, one
    memoised stage solve, one success check and one rate realisation per slot."""
    n = scenario.game.n_users
    streams = SimStreams.from_seed(seed)
    memo = {}
    state = scenario.initial_channel_state(streams.channels)
    welfare_trace = np.zeros(scenario.periods)
    user_totals = np.zeros(n)
    for t in range(scenario.periods):
        states, state = _channel_states(scenario.channel_models, state, scenario.t_max, streams.channels)
        draws = _contention_draws(scenario, streams, (scenario.t_max,))
        fading = streams.fading.standard_exponential((scenario.t_max, n))
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
            draws = _contention_draws(sc, SimStreams.from_seed(int(rng.integers(1000))), (t,))
            ch = rng.integers(1, m + 1, size=(t, n))
            s_user = rng.integers(0, 2, size=(t, n)).astype(np.int8)
            # per-slot channels: the co-channel mask is as large as the rivals, so
            # the minimum is taken over a where-filled copy of them
            got = _success_matrix(sc, ch, s_user, draws)
            assert got.shape == (t, n) and got.dtype == bool
            for k in range(t):
                assert np.array_equal(got[k], _slot_success(sc, ch[k], s_user[k], draws[k])), (n, kind, k)
            # one profile for the whole trace with the rivals gathered by the
            # caller, as the MLE period calls it: a masked reduce
            cols, _ = sc.game._in_index
            profile = ch[0]
            got = _success_matrix(sc, profile, s_user, draws, draws[:, cols])
            assert got.shape == (t, n)
            for k in range(t):
                assert np.array_equal(got[k], _slot_success(sc, profile, s_user[k], draws[k])), (n, kind, k)
            # per-period channels, (k, 1, N) as the random-access and fixed-profile
            # choosers return them (a masked reduce), against the same channels
            # broadcast to every slot (a where-filled minimum)
            held = rng.integers(1, m + 1, size=(6, 1, n))
            blocks = [x.reshape(6, t // 6, n) for x in (s_user, draws)]
            got = _success_matrix(sc, held, *blocks)
            broadcast = _success_matrix(sc, np.broadcast_to(held, blocks[0].shape), *blocks)
            assert got.shape == blocks[0].shape and np.array_equal(got, broadcast), (n, kind)
            for k, j in np.ndindex(blocks[0].shape[:2]):
                ref = _slot_success(sc, held[k, 0], blocks[0][k, j], blocks[1][k, j])
                assert np.array_equal(got[k, j], ref), (n, kind, k, j)
            if kind == "aloha":
                assert set(np.unique(draws).tolist()) == {0.0, math.inf}


@pytest.mark.parametrize("m", [1, 3, 8, 9, 70])
def test_state_groups_match_unique_on_whole_rows(m):
    # np.unique on one opaque value per row is the reference: the same groups
    # in the same order, so the same first slot per group and first-seen order
    rng = np.random.default_rng(m)
    for s, idle in [(1, 0.5), (2000, 0.5), (2000, 0.05), (2000, 1.0), (777, 0.9)]:
        flat = (rng.random((s, m)) < idle).astype(np.int8)
        if s > 1:
            flat[s // 2] = flat[s // 3]  # at least one repeated row
        rows = flat.view(np.dtype((np.void, m))).ravel()
        _, first_ref, inverse_ref = np.unique(rows, return_index=True, return_inverse=True)
        first, inverse = _state_groups(flat)
        assert np.array_equal(first, first_ref) and np.array_equal(inverse, inverse_ref.ravel()), (s, idle)
        assert np.array_equal(flat[first][inverse], flat), (s, idle)


@pytest.mark.parametrize("kind", ["backoff", "asymptotic", "weighted", "aloha"])
@pytest.mark.parametrize("channels", [
    (sa.MarkovChannel(0.3, 0.2), sa.BernoulliChannel(0.6), sa.WhiteSpaceChannel(1)),
    (sa.WhiteSpaceChannel(1), sa.WhiteSpaceChannel(0)),
], ids=["markov-bernoulli-whitespace", "whitespace"])
def test_dynamic_policy_matches_per_slot_loop(kind, channels):
    rng = np.random.default_rng(43)
    n, m = 6, len(channels)
    g = random_directed_graph(rng, n, 0.4)
    rates = sa.RayleighShannonRates(
        10.0, 0.1, 1e-13, [[float(rng.uniform(5e-13, 2e-12)) for _ in range(m)] for _ in range(n)])
    sc = _scenario(g, list(channels), random_mechanism(rng, n, kind), rates=rates, t_max=40, periods=6)
    policy = DynamicStageGamePolicy(restarts=3)
    res = run_policy(sc, policy, (5, 1))
    trace, per_user = _run_dynamic_per_slot(sc, policy, (5, 1))
    assert np.array_equal(res.welfare_trace, trace)
    assert np.array_equal(res.per_user_mean, per_user)
    assert res.mean_welfare > 0


RATE_KINDS = ["fixed", "rayleigh"]


def _random_rates(rng, n, m, kind):
    """A random N x M rate table of one kind: fixed rates, or Rayleigh-faded
    Shannon rates with random mean gains."""
    if kind == "fixed":
        return sa.FixedRates(rng.uniform(1.0, 9.0, (n, m)))
    return sa.RayleighShannonRates(10.0, 0.1, 1e-13, rng.uniform(5e-13, 2e-12, (n, m)))


def _rate_of(scenario, u, m, f):
    """One slot's rate for user u (0-based) on channel m (1-based)."""
    return rate_values(scenario.rates, u, m - 1, np.array([f]))[0]


def _run_policy_per_period(scenario, policy, seed):
    """Reference for the random-access and fixed-profile policies: each period
    drawn, resolved and realised from the slot primitives, slots summed in order."""
    game = scenario.game
    n, t_max = game.n_users, scenario.t_max
    streams = SimStreams.from_seed(seed)
    state = scenario.initial_channel_state(streams.channels)
    welfare_trace = np.zeros(scenario.periods)
    user_totals = np.zeros(n)
    for t in range(scenario.periods):
        if isinstance(policy, RandomAccessPolicy):
            a = streams.policy.integers(1, game.n_channels + 1, size=n)
        else:
            a = np.array(policy.profile)
        states, state = _channel_states(scenario.channel_models, state, t_max, streams.channels)
        draws = _contention_draws(scenario, streams, (t_max,))
        fading = streams.fading.standard_exponential((t_max, n))
        succ = _success_matrix(scenario, np.tile(a, (t_max, 1)), states[:, a - 1], draws)
        b_total = np.zeros(n)
        for slot in range(t_max):
            for u in range(n):
                b_total[u] += _rate_of(scenario, u, a[u], fading[slot, u]) if succ[slot, u] else 0.0
        per_user = b_total / t_max
        user_totals += per_user
        welfare_trace[t] = per_user.sum()
    return welfare_trace, user_totals / scenario.periods


@pytest.mark.parametrize("kind", ["backoff", "asymptotic", "weighted", "aloha"])
@pytest.mark.parametrize("n", [1, 5])
def test_random_and_fixed_policies_match_per_period_loop(kind, n):
    rng = np.random.default_rng(47 + n)
    channels = [sa.MarkovChannel(0.3, 0.2), sa.BernoulliChannel(0.6), sa.WhiteSpaceChannel(1)]
    g = random_directed_graph(rng, n, 0.5)
    mech = random_mechanism(rng, n, kind)
    for rate_kind in RATE_KINDS:
        sc = _scenario(g, channels, mech, rates=_random_rates(rng, n, 3, rate_kind), t_max=30, periods=8)
        profile = tuple(int(c) for c in rng.integers(1, 4, size=n))
        for policy in (RandomAccessPolicy(), FixedProfilePolicy(profile)):
            res = run_policy(sc, policy, (9, 2))
            trace, per_user = _run_policy_per_period(sc, policy, (9, 2))
            assert np.array_equal(res.welfare_trace, trace), rate_kind
            assert np.array_equal(res.per_user_mean, per_user), rate_kind
            assert res.mean_welfare > 0


def test_random_access_blocked_chain_matches_per_period_loop():
    # 163 periods of 100 slots: the chain is drawn in blocks of 81 periods,
    # so the state crosses two block boundaries and the last block is cut short
    rng = np.random.default_rng(59)
    channels = [sa.MarkovChannel(0.3, 0.2), sa.BernoulliChannel(0.6), sa.WhiteSpaceChannel(1)]
    g = random_directed_graph(rng, 2, 0.5)
    for rate_kind in RATE_KINDS:
        sc = _scenario(g, channels, sa.RandomBackoff(6), rates=_random_rates(rng, 2, 3, rate_kind),
                       t_max=100, periods=163)
        res = run_policy(sc, RandomAccessPolicy(), (4, 4))
        trace, per_user = _run_policy_per_period(sc, RandomAccessPolicy(), (4, 4))
        assert np.array_equal(res.welfare_trace, trace), rate_kind
        assert np.array_equal(res.per_user_mean, per_user), rate_kind


def _reference_mle_observer(scenario, streams, noise=0.0, rng=None):
    """The MLE observer user by user: one_period, then the explicit-loop
    estimates of each user's trace, NaN where undefined, and with a positive
    noise half-width one scalar draw from rng per defined user in user order."""
    state_cell = [scenario.initial_channel_state(streams.channels)]

    def observe(a):
        (S, I, b), state_cell[0] = one_period(scenario, a, state_cell[0], streams)
        est, realised = [], []
        for u in range(scenario.game.n_users):
            realised.append(float(b[:, u].sum()) / scenario.t_max)
            throughput = loop_estimates(S[:, u], I[:, u], b[:, u])[-1]
            if noise > 0.0 and not np.isnan(throughput):
                throughput += rng.uniform(-noise, noise)
            est.append(throughput)
        return np.array(est), np.array(realised)

    return observe


@pytest.mark.parametrize("t_max", [1, 2, 60])
@pytest.mark.parametrize("kind", ["backoff", "aloha"])
def test_mle_observer_matches_per_user_estimates(kind, t_max):
    # white-space 0 and 1 give all-busy and all-idle traces, Aloha at low
    # transmit probabilities gives no-grab periods, t_max = 1 no transitions
    rng = np.random.default_rng(61 + t_max)
    n = 6
    channels = [sa.MarkovChannel(0.3, 0.2), sa.BernoulliChannel(0.6), sa.WhiteSpaceChannel(1),
                sa.WhiteSpaceChannel(0)]
    mech = sa.SlottedAloha((0.05,) * n) if kind == "aloha" else sa.RandomBackoff(4)
    g = random_directed_graph(rng, n, 0.5)
    for rate_kind in RATE_KINDS:
        sc = _scenario(g, channels, mech, rates=_random_rates(rng, n, 4, rate_kind), t_max=t_max, periods=40)
        streams, ref_streams = SimStreams.from_seed(3), SimStreams.from_seed(3)
        observe, reference = make_mle_observer(sc, streams), _reference_mle_observer(sc, ref_streams)
        skipped = 0
        for period in range(1, sc.periods + 1):
            a = tuple(int(c) for c in rng.integers(1, 5, size=n))
            est, realised = observe(a)
            ref_est, ref_realised = reference(a)
            assert np.array_equal(est, ref_est, equal_nan=True), (rate_kind, period, a)
            assert np.array_equal(realised, ref_realised), (rate_kind, period, a)
            skipped += int(np.isnan(est).sum())
        assert 0 < skipped and (skipped < n * sc.periods or t_max < 3)  # one slot pair leaves one state


@pytest.mark.parametrize("noise_half_width", [0.0, 0.5])
def test_learning_rollout_matches_per_period_reference_observer(noise_half_width):
    # 300 periods of 30 slots end in a cut block; t_max above _BLOCK_SLOTS
    # gives one-period blocks
    rng = np.random.default_rng(71)
    n = 5
    channels = [sa.MarkovChannel(0.3, 0.2), sa.BernoulliChannel(0.6), sa.WhiteSpaceChannel(1)]
    g = random_directed_graph(rng, n, 0.5)
    policy = LearningPolicy(3.0, "auto", noise_half_width=noise_half_width)
    for rate_kind in RATE_KINDS:
        rates = _random_rates(rng, n, 3, rate_kind)
        for t_max, periods in ((30, 300), (_BLOCK_SLOTS + 48, 6)):
            sc = _scenario(g, channels, sa.RandomBackoff(6), rates=rates, t_max=t_max, periods=periods)
            res = run_policy(sc, policy, (6, 1)).learning

            streams = SimStreams.from_seed((6, 1))
            # the reference adds its own noise, drawn from the policy substream after the channel choices
            ref = run_learning(sc.game, policy.gamma, sc.periods, streams.policy,
                               observer=_reference_mle_observer(sc, streams, noise_half_width, streams.policy),
                               payoff_scale=policy.resolved_scale(sc.game), mu=policy.mu)
            assert 0 < res.skipped_updates == ref.skipped_updates, (rate_kind, t_max)
            for field in ("perceptions", "welfare_trace", "per_user_mean", "dP_trace", "channels", "estimates"):
                got, expect = getattr(res, field), getattr(ref, field)
                assert np.array_equal(got, expect, equal_nan=True), (rate_kind, t_max, field)
            assert res.delta == ref.delta


def _reference_periods(scenario, policy, seed):
    """Per-period reference for the block engine: each period's chain, races
    and fading drawn in turn, channels chosen per period (the dynamic policy
    per slot, memoised), grabs checked slot by slot and rates realised one by
    one. Yields (ch, S, I, b), each (t_max, N)."""
    game = scenario.game
    n, m, t = game.n_users, game.n_channels, scenario.t_max
    streams = SimStreams.from_seed(seed)
    state = scenario.initial_channel_state(streams.channels)
    memo = {}
    for _ in range(scenario.periods):
        states, state = _channel_states(scenario.channel_models, state, t, streams.channels)
        races = _contention_draws(scenario, streams, (t,))
        fading = streams.fading.standard_exponential((t, n))
        if isinstance(policy, RandomAccessPolicy):
            ch = np.tile(streams.policy.integers(1, m + 1, size=n), (t, 1))
        elif isinstance(policy, FixedProfilePolicy):
            ch = np.tile(policy.profile, (t, 1))
        else:
            for slot in range(t):
                key = tuple(int(x) for x in states[slot])
                if key not in memo:
                    memo[key] = _solve_stage(game, key, streams.policy, policy)
            ch = np.array([memo[tuple(int(x) for x in row)] for row in states])
        S = np.array([row[c - 1] for row, c in zip(states, ch)])
        I = np.array([_slot_success(scenario, ch[k], S[k], races[k]) for k in range(t)])
        b = np.zeros((t, n))
        for k, u in zip(*np.nonzero(I)):
            b[k, u] = _rate_of(scenario, u, ch[k, u], fading[k, u])
        yield ch, S, I, b


def _assert_periods_match_reference(scenario, policy, seed):
    count = 0
    # each block's periods, per-period channels broadcast to every slot
    periods = (period for ch, *block in _block_outcomes(scenario, policy, SimStreams.from_seed(seed))
               for period in zip(np.broadcast_to(ch, block[0].shape), *block))
    for got, ref in zip_longest(periods, _reference_periods(scenario, policy, seed)):
        assert got is not None and ref is not None, (scenario.t_max, policy)
        for name, x, y in zip("ch S I b".split(), got, ref):
            assert x.shape == y.shape and np.array_equal(x, y), (scenario.t_max, policy, count, name)
        count += 1
    assert count == scenario.periods


@pytest.mark.parametrize("kind", ["backoff", "asymptotic", "weighted", "aloha"])
def test_block_engine_matches_per_period_reference(kind):
    # t_max above _BLOCK_SLOTS gives one-period blocks; 5 periods in blocks
    # of 2 (t_max just above a third of _BLOCK_SLOTS) leave the last block cut short
    rng = np.random.default_rng(79)
    n = 4
    channels = [sa.MarkovChannel(0.3, 0.2), sa.BernoulliChannel(0.6), sa.WhiteSpaceChannel(1)]
    g = random_directed_graph(rng, n, 0.6)
    mech = random_mechanism(rng, n, kind)
    for rate_kind in RATE_KINDS:
        for t_max, periods in ((_BLOCK_SLOTS + 52, 2), (_BLOCK_SLOTS // 3 + 1, 5)):
            sc = _scenario(g, channels, mech, rates=_random_rates(rng, n, 3, rate_kind), t_max=t_max, periods=periods)
            for policy in (RandomAccessPolicy(), FixedProfilePolicy((1, 2, 1, 3)), DynamicStageGamePolicy(restarts=2)):
                _assert_periods_match_reference(sc, policy, (3, 7))


def test_dynamic_policy_solves_new_states_in_first_seen_slot_order():
    # symmetric users on symmetric channels: every stage game has many pure
    # equilibria, so which restarts a state vector gets decides its profile
    g = sa.InterferenceGraph.undirected(3, [(1, 2), (1, 3), (2, 3)])
    sc = _scenario(g, [sa.BernoulliChannel(0.5)] * 3, sa.RandomBackoff(4), t_max=_BLOCK_SLOTS // 3 + 1, periods=5)
    _assert_periods_match_reference(sc, DynamicStageGamePolicy(restarts=2), 12)


def test_stage_solve_without_convergence_keeps_the_first_best_restart():
    # the triangle has no pure NE, so no restart converges and every restart
    # runs; from default_rng(3) the four restarts end at (2, 1, 2),
    # (1, 2, 1), (2, 1, 2) and (2, 1, 2), all at welfare 1.25, and the first
    # one's end wins the tie, with two restarts as with four
    game = load_config(CONFIGS / "triangle_no_ne.json").scenario.game
    ends = []
    replay = np.random.default_rng(3)
    for _ in range(4):
        start = tuple(int(c) for c in replay.integers(1, 3, size=3))
        res = sa.better_response_dynamics(game, start, max_rounds=25)
        assert not res.converged
        ends.append((sa.welfare(game, res.profile), res.profile))
    assert ends == [(1.25, (2, 1, 2)), (1.25, (1, 2, 1)), (1.25, (2, 1, 2)), (1.25, (2, 1, 2))]
    for restarts in (2, 4):
        rng = np.random.default_rng(3)
        policy = DynamicStageGamePolicy(restarts=restarts, max_rounds=25)
        assert _solve_stage(game, (1, 1), rng, policy) == (2, 1, 2)
        if restarts == 4:  # all four restarts drew their starts
            assert rng.integers(1 << 62) == replay.integers(1 << 62)


# sha256 of each rollout's welfare trace and per-user means (and, for
# learning, final perceptions and skip count). The fixed-rate pins were
# recorded with the per-period engine that the block engine replaced, which
# must reproduce them. The 9-user pins run Rayleigh-Shannon rates, so they
# also hold the libm log2 bits of the rate realisation; they were recorded
# with the block engine before its kernels took per-period channels
_ROLLOUT_DIGESTS = {
    "dag/learning(gamma=5)": "fa6478ba75dc77c9c5254e7cae292048f7ef2d08fa56911ad6f9e4467d90ac31",
    "dag/random_access": "5bb9447025c539eee1a12a65aea5348b251460fe187d5f5a20b00e08df3372f9",
    "dag/fixed_profile(1,2,3,1)": "6973468b097db56c2e7ccb03a5bb165fc8501a991dee862011923cc691c3d396",
    "dag/dynamic_stage_game": "ef9bd002a26d0c0076cc24188ab2584908bf96a2395fc6069b9541b5f0f0fec1",
    "triangle/learning": "db064630876b47161597d95126c07e0ec4926ee20df26820b5c3462b19603597",
    "dag-aloha/learning(gamma=5)": "0e308610c0ed9aa5772b6fdea5e7cfb8632cd833183e37cf60bff899b2250f23",
    "dag-aloha/random_access": "edf192f6d29a18bf7618de92ef328f2850288cf7ef82bbff8b7d44209d9cdb52",
    "dag-aloha/fixed_profile(1,2,3,1)": "b9423970e2c94e3fb93ba12d140a5e114e1478d72068b9faab027308da29a7af",
    "dag-aloha/dynamic_stage_game": "42bcca0d39cd5a27a0116501ebae333c1461f32f8665327dc1bd2f781bced323",
    "dag-weighted/learning(gamma=5)": "865755b89865e09b7281a6895aa35670397b7296da9ef77d2156e713b9c60fa6",
    "dag-weighted/random_access": "5ce5ef2d3f5ac826e1761eaef61f331a99e9968dd23e9ac95b6033f3f7467f42",
    "dag-weighted/fixed_profile(1,2,3,1)": "6973468b097db56c2e7ccb03a5bb165fc8501a991dee862011923cc691c3d396",
    "dag-weighted/dynamic_stage_game": "37049f279a29d0bdaf733e093f98d904781a15b12506e6995f5681b6b1c60ff3",
    "9user/learning(gamma=5)": "0819f47c6ce46b45bda10d557bfb1b5057088309e65fea90ea2165475adcf461",
    "9user/random_access": "c6ea0d3a41849f6857a8486e386b2d99d16a372137142a4cae482f340404ed63",
    "9user-aloha/learning(gamma=5)": "2fe63e9f17376595c21317468e69c82805bcb23fc17d62f224b4e6a53c2fa315",
}


def _rollout_digest(res):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(res.welfare_trace).tobytes())
    h.update(np.ascontiguousarray(res.per_user_mean).tobytes())
    if res.learning is not None:
        h.update(np.ascontiguousarray(res.learning.perceptions).tobytes())
        h.update(str(res.learning.skipped_updates).encode())
    return h.hexdigest()


def test_seeded_rollouts_keep_their_digest():
    # 47 periods: two whole blocks of 20 periods of 100 slots and a cut one
    dag = load_config(CONFIGS / "dag_chain.json")
    tri = load_config(CONFIGS / "triangle_no_ne.json")
    sc = replace(dag.scenario, periods=47)
    got = {f"dag/{p.label()}": _rollout_digest(run_policy(sc, p, (4, 1))) for p in dag.policies}
    got["triangle/learning"] = _rollout_digest(
        run_policy(replace(tri.scenario, periods=47), learning_policy_from(tri), (4, 1)))
    for name, mech in (("aloha", sa.SlottedAloha((0.3, 0.5, 0.6, 0.8))),
                       ("weighted", sa.WeightedShare((2.0, 1.0, 0.5, 1.5)))):
        variant = replace(sc, mechanism=mech)
        for p in dag.policies:
            got[f"dag-{name}/{p.label()}"] = _rollout_digest(run_policy(variant, p, (4, 1)))
    for name, file, policies in (("9user", "learning_9user.json", [RandomAccessPolicy()]),
                                 ("9user-aloha", "learning_9user_aloha.json", [])):
        cfg = load_config(CONFIGS / file)
        for p in [learning_policy_from(cfg), *policies]:
            got[f"{name}/{p.label()}"] = _rollout_digest(run_policy(replace(cfg.scenario, periods=47), p, (4, 1)))
    assert got == _ROLLOUT_DIGESTS


def test_realise_rates_matches_per_slot_rate_values():
    rng = np.random.default_rng(53)
    n, m, t = 6, 4, 200
    g = random_directed_graph(rng, n, 0.4)
    for rate_kind in RATE_KINDS:
        sc = _scenario(g, [sa.BernoulliChannel(0.5)] * m, sa.RandomBackoff(5),
                       rates=_random_rates(rng, n, m, rate_kind), t_max=t)
        for _ in range(3):
            ch = rng.integers(1, m + 1, size=(t, n))
            succ = rng.random((t, n)) < 0.6
            fading = rng.standard_exponential((t, n))
            b = _realise_rates(sc, ch, succ, fading)
            assert b.shape == (t, n)
            for k in range(t):
                for u in range(n):
                    expect = _rate_of(sc, u, ch[k, u], fading[k, u]) if succ[k, u] else 0.0
                    assert b[k, u] == expect, (rate_kind, k, u)


def test_whitespace_idle_sequence():
    g = sa.InterferenceGraph.from_edges(1, [])
    sc = _scenario(g, [sa.WhiteSpaceChannel(1)], sa.RandomBackoff(2), t_max=30)
    streams = SimStreams.from_seed(5)
    (S, _, _), _ = one_period(sc, (1,), (1,), streams)
    assert S.all()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_backoff_success_frequency_matches_formula(k):
    n = k + 1
    g = sa.InterferenceGraph.undirected(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    sc = _scenario(g, [sa.WhiteSpaceChannel(1)], sa.RandomBackoff(10), t_max=10**5)
    streams = SimStreams.from_seed(11 + k)
    (_, I, _), _ = one_period(sc, (1,) * n, (1,), streams)
    exact = backoff_success_probability(10, k)
    emp = I[:, 0].mean()
    sigma = np.sqrt(exact * (1 - exact) / sc.t_max)
    assert abs(emp - exact) <= 3 * sigma + 1e-12


def test_aloha_success_frequency_matches_formula():
    g = sa.InterferenceGraph.undirected(3, [(1, 2), (1, 3), (2, 3)])
    mech = sa.SlottedAloha((0.4, 0.5, 0.6))
    sc = _scenario(g, [sa.WhiteSpaceChannel(1)], mech, t_max=10**5)
    streams = SimStreams.from_seed(17)
    (_, I, _), _ = one_period(sc, (1, 1, 1), (1,), streams)
    for n in (1, 2, 3):
        exact = grab_probability(mech, n, {1, 2, 3} - {n})
        emp = I[:, n - 1].mean()
        sigma = np.sqrt(exact * (1 - exact) / sc.t_max)
        assert abs(emp - exact) <= 3.5 * sigma


def test_weighted_and_asymptotic_race_frequencies():
    g = sa.InterferenceGraph.undirected(2, [(1, 2)])
    for mech in (sa.WeightedShare((2.0, 1.0)), sa.AsymptoticBackoff()):
        sc = _scenario(g, [sa.WhiteSpaceChannel(1)], mech, t_max=10**5)
        streams = SimStreams.from_seed(23)
        (_, I, _), _ = one_period(sc, (1, 1), (1,), streams)
        for n in (1, 2):
            exact = grab_probability(mech, n, {3 - n})
            emp = I[:, n - 1].mean()
            sigma = np.sqrt(exact * (1 - exact) / sc.t_max)
            assert abs(emp - exact) <= 3.5 * sigma


def test_markov_idle_fraction_matches_stationary():
    g = sa.InterferenceGraph.from_edges(1, [])
    sc = _scenario(g, [sa.MarkovChannel(0.2, 0.3)], sa.RandomBackoff(2), t_max=10**5)
    streams = SimStreams.from_seed(29)
    (S, _, _), _ = one_period(sc, (1,), sc.initial_channel_state(streams.channels), streams)
    assert abs(S.mean() - 0.4) < 0.01


def test_determinism_bit_identical():
    rng = np.random.default_rng(2)
    g = random_undirected_graph(rng, 3, 0.7)
    sc = _scenario(
        g,
        [sa.MarkovChannel(0.4, 0.2), sa.BernoulliChannel(0.5)],
        sa.SlottedAloha((0.3, 0.5, 0.7)),
        rates=sa.RayleighShannonRates(10.0, 0.1, 1e-13, [[1e-12] * 2] * 3),
        t_max=50,
    )
    runs = []
    for _ in range(2):
        streams = SimStreams.from_seed(99)
        state = sc.initial_channel_state(streams.channels)
        blocks, _ = one_period(sc, (1, 2, 1), state, streams)
        runs.append(blocks)
    for x1, x2 in zip(*runs):
        assert np.array_equal(x1, x2)


def test_emitted_observations_satisfy_invariants():
    rng = np.random.default_rng(7)
    for seed in range(5):
        g = random_undirected_graph(rng, 4, 0.5)
        sc = _scenario(
            g, [sa.MarkovChannel(0.3, 0.3), sa.BernoulliChannel(0.4)],
            sa.RandomBackoff(6), t_max=200,
        )
        streams = SimStreams.from_seed(seed)
        state = sc.initial_channel_state(streams.channels)
        a = tuple(int(c) for c in rng.integers(1, 3, size=4))
        (S, I, b), state = one_period(sc, a, state, streams)
        assert set(np.unique(S)) <= {0, 1} and set(np.unique(I)) <= {0, 1}
        assert np.all(I <= S)
        assert np.all(b >= 0) and np.all((b > 0) <= (I == 1))


def test_long_run_throughput_matches_payoff():
    g = sa.InterferenceGraph.from_edges(3, [(1, 2), (3, 2)])
    sc = Scenario(
        g,
        [sa.MarkovChannel(0.2, 0.2), sa.BernoulliChannel(0.6)],
        sa.FixedRates([[5.0, 3.0]] * 3),
        sa.SlottedAloha((0.4, 0.5, 0.6)),
        t_max=1000, periods=1000,
    )
    a = (1, 1, 2)
    res = run_policy(sc, FixedProfilePolicy(a), 99)
    expect = sum(sc.game.payoff(a, n) for n in (1, 2, 3))
    assert abs(res.mean_welfare - expect) / expect < 0.03
    per_user_expect = np.array([sc.game.payoff(a, n) for n in (1, 2, 3)])
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


def test_policies_consume_channel_contention_and_fading_identically(monkeypatch):
    # every policy plays the blocks of one generator, which draws the channel
    # states and races on both rate kinds and the fading only under Rayleigh
    # rates, so run at one seed all four see the same draws; under fixed rates
    # no block carries fading and the fading substream is never drawn from
    g = sa.InterferenceGraph.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    # 150 periods of 30 slots are three blocks, the last one cut short
    rng = np.random.default_rng(5)
    seed = (8, 3)
    seen, used = {}, []

    def recording(scenario, streams):
        used.append(streams)
        for block in _blocks(scenario, streams):
            for name, values in zip(("states", "races", "fading"), block):
                seen.setdefault(name, []).append(None if values is None else values.copy())
            yield block

    monkeypatch.setattr(simulator, "_blocks", recording)
    untouched = SimStreams.from_seed(seed).fading.bit_generator.state
    runs = {}
    for kind in RATE_KINDS:
        sc = _scenario(g, [sa.MarkovChannel(0.3, 0.1), sa.MarkovChannel(0.2, 0.4)], sa.RandomBackoff(6),
                       rates=_random_rates(rng, 4, 2, kind), t_max=30, periods=150)
        for policy in (LearningPolicy(2.0, "auto"), RandomAccessPolicy(), FixedProfilePolicy((1, 2, 1, 2)),
                       DynamicStageGamePolicy(restarts=2)):
            seen.clear()
            used.clear()
            run_policy(sc, policy, seed)
            assert seen.keys() == {"states", "races", "fading"} and len(used) == 1
            run = {name: np.concatenate(seen[name]) for name in ("states", "races")}
            assert run["states"].shape == (sc.periods, sc.t_max, 2) and run["races"].shape == (sc.periods, sc.t_max, 4)
            if kind == "fixed":
                assert all(f is None for f in seen["fading"])
                assert used[0].fading.bit_generator.state == untouched
            else:
                run["fading"] = np.concatenate(seen["fading"])
                assert run["fading"].shape == (sc.periods, sc.t_max, 4)
            runs[kind, policy.label()] = run
    first = next(iter(runs.values()))
    rayleigh = runs["rayleigh", LearningPolicy(2.0).label()]
    for key, run in runs.items():
        for name in ("states", "races"):
            assert np.array_equal(run[name], first[name]), (key, name)
        if key[0] == "rayleigh":
            assert np.array_equal(run["fading"], rayleigh["fading"]), key


def _dag_scenario(**fields):
    return replace(load_config(CONFIGS / "dag_chain.json").scenario, **{"t_max": 10, "periods": 3, **fields})


@pytest.mark.parametrize("make, match", [
    (lambda: _dag_scenario(t_max=2.5), "t_max"),
    (lambda: _dag_scenario(t_max=True), "t_max"),
    (lambda: _dag_scenario(t_max=0), "t_max"),
    (lambda: _dag_scenario(periods=2.5), "periods"),
    (lambda: _dag_scenario(periods=-1), "periods"),
    (lambda: DynamicStageGamePolicy(restarts=0), "restarts"),
    (lambda: DynamicStageGamePolicy(restarts=-1), "restarts"),
    (lambda: DynamicStageGamePolicy(restarts=1.5), "restarts"),
    (lambda: run_policy(_dag_scenario(), FixedProfilePolicy((9, 9, 9, 9)), 0), "channel indices"),
    (lambda: run_policy(_dag_scenario(), FixedProfilePolicy((1, 2)), 0), "length"),
    (lambda: run_policy(_dag_scenario(), FixedProfilePolicy((1, 2, 3, 1.0)), 0), "channel indices"),
    (lambda: run_policy(_dag_scenario(), LearningPolicy(1.0, -1.0), 0), "payoff_scale"),
], ids=["t_max-float", "t_max-bool", "t_max-zero", "periods-float", "periods-negative", "restarts-zero",
        "restarts-negative", "restarts-float", "profile-out-of-range", "profile-short", "profile-float",
        "payoff-scale-negative"])
def test_simulator_inputs_are_checked_where_they_enter(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_comparisons_refuse_zero_replications():
    sc = _dag_scenario()
    for replications in (0, -1):
        with pytest.raises(ValueError, match="replications"):
            compare_policies(sc, [RandomAccessPolicy()], replications, base_seed=1)
        with pytest.raises(ValueError, match="replications"):
            sweep_gamma(sc, [1.0], replications, 1, LearningPolicy(1.0))


def test_comparisons_refuse_fewer_than_one_job():
    # jobs = 0 used to run serially
    sc = _dag_scenario()
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="jobs"):
            compare_policies(sc, [RandomAccessPolicy()], 2, base_seed=1, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            sweep_gamma(sc, [1.0], 2, 1, LearningPolicy(1.0), jobs=jobs)


def test_replacing_a_model_rebuilds_the_game():
    # replacing the rates alone used to keep the old game, whose analytic
    # payoffs then no longer described the simulated slots
    sc = _dag_scenario()
    scaled = sa.FixedRates([[100.0 * b for b in row] for row in sc.rates.mean])
    game = replace(sc, rates=scaled).game
    assert game.mean_rate[0] == (500.0, 400.0, 600.0) and game.idle_prob == sc.game.idle_prob
    assert replace(sc, channel_models=[sa.BernoulliChannel(0.5)] * 3).game.idle_prob == (0.5,) * 3
    aloha = sa.SlottedAloha((0.5,) * 4)
    assert replace(sc, mechanism=aloha).game.mechanism == aloha
    game = replace(sc, gain=[2, 1, 1, 1]).game
    assert game.gain == (2.0, 1.0, 1.0, 1.0) and game.mean_rate == sc.game.mean_rate
    # every other field leaves the game as it was, and the game is no field to set
    assert replace(sc, periods=7).game == sc.game
    with pytest.raises(ValueError, match="init=False"):
        replace(sc, game=sc.game)


@pytest.mark.parametrize("rate_kind, gains", [
    ("fixed", (3.0, 1.0, 1.0, 1.0)),
    ("rayleigh", (3.0, 1.0, 0.5, 2.0)),
    ("rayleigh", (2.0,) * 4),
])
def test_per_user_gains_scale_the_simulated_rates(rate_kind, gains):
    # h_n scales user n's rate in every slot it grabs, so each user's simulated
    # mean is its payoff theta h_n B g; with h_1 = 3 on dag_chain.json user 1
    # used to read 3.76 against a payoff of 11.25
    dag = load_config(CONFIGS / "dag_chain.json").scenario
    rates = dag.rates
    if rate_kind == "rayleigh":
        rates = sa.RayleighShannonRates(10.0, 0.1, 1e-13, [[1e-12 * b for b in row] for row in dag.rates.mean])
    sc = Scenario(dag.game.graph, dag.channel_models, rates, dag.game.mechanism, gains,
                  t_max=100, periods=3000)
    a = (1, 2, 3, 1)
    blocks = _block_outcomes(sc, FixedProfilePolicy(a), SimStreams.from_seed((1, 0)))
    per_period = np.concatenate([b.sum(axis=1) for *_, b in blocks]) / sc.t_max  # (periods, N)
    sem = per_period.std(axis=0, ddof=1) / math.sqrt(sc.periods)
    payoff = np.array([sc.game.payoff(a, n) for n in range(1, 5)])
    assert np.all(np.abs(per_period.mean(axis=0) - payoff) < 4 * sem), (per_period.mean(axis=0), payoff, sem)


def test_summary_refuses_to_pool_policies_sharing_a_label():
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])
    sc = _scenario(g, [sa.BernoulliChannel(0.5)], sa.RandomBackoff(4), t_max=10, periods=3)
    rep = compare_policies(sc, [RandomAccessPolicy(), RandomAccessPolicy()], 2, base_seed=1)
    with pytest.raises(ValueError, match="random_access"):
        rep.summary()


def test_standard_error_does_not_overflow_near_the_float_limit():
    # squared deviations of rates near 1e300 overflowed to an inf standard error
    values = [1e300, 3e300, 2.5e300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, sem = simulator._mean_sem(values)
        small_mean, small_sem = simulator._mean_sem([v * 2.0**-1000 for v in values])
    assert math.isfinite(sem) and sem > 0
    assert (mean, sem) == (small_mean * 2.0**1000, small_sem * 2.0**1000)
    # in range, the power-of-two scaling keeps numpy's bits
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = rng.exponential(10.0 ** rng.uniform(-3, 6), size=int(rng.integers(2, 12)))
        assert simulator._mean_sem(x) == (float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x))))


def test_negative_noise_half_width_is_rejected():
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])
    sc = _scenario(g, [sa.BernoulliChannel(0.5)], sa.RandomBackoff(4), t_max=10, periods=3)
    with pytest.raises(ValueError, match="noise half-width"):
        run_policy(sc, LearningPolicy(2.0, noise_half_width=-1.0), 0)


def test_learning_policy_traces_welfare():
    rng = np.random.default_rng(20)
    g = random_undirected_graph(rng, 3, 0.5)
    sc = _scenario(
        g, [sa.MarkovChannel(0.2, 0.2), sa.MarkovChannel(0.3, 0.1)],
        sa.RandomBackoff(6),
        rates=sa.FixedRates([[8.0, 4.0]] * 3),
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
                   rates=sa.FixedRates([[8.0, 4.0]] * 4), t_max=50, periods=20)
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
    sc = Scenario(
        g,
        [sa.MarkovChannel(0.3, 0.1), sa.BernoulliChannel(0.6), sa.BernoulliChannel(0.4)],
        sa.FixedRates([[5, 4, 6], [7, 3, 5], [4, 6, 5], [6, 5, 4]]),
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


def test_parallel_comparison_matches_serial():
    # the process pool behind --jobs must return the serial records in order
    cfg = load_config(CONFIGS / "dag_chain.json")
    sc = replace(cfg.scenario, t_max=20, periods=6)
    serial = compare_policies(sc, cfg.policies, 2, base_seed=11)
    parallel = compare_policies(sc, cfg.policies, 2, base_seed=11, jobs=2)
    assert len(serial.runs) == 2 * 4
    assert parallel.runs == serial.runs


def test_sweep_gamma_matches_per_gamma_comparisons():
    # one comparison over a policy per gamma, read back by position: a
    # repeated gamma gets its own entry, and --jobs changes nothing
    cfg = load_config(CONFIGS / "dag_chain.json")
    sc = replace(cfg.scenario, t_max=20, periods=6)
    gammas = [0.5, 5, 5]
    expect = []
    for g in gammas:
        policy = replace(cfg.learning, gamma=float(g))
        mean, sem, n = compare_policies(sc, [policy], 3, base_seed=11).summary()[policy.label()]
        assert n == 3
        expect.append((float(g), mean, sem))
    serial = sweep_gamma(sc, gammas, 3, 11, cfg.learning)
    assert serial == expect and expect[1] == expect[2] and expect[0] != expect[1]
    assert sweep_gamma(sc, gammas, 3, 11, cfg.learning, jobs=2) == serial

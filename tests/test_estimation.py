import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import array_user_estimates, loop_estimates, one_period
from hypothesis import given, settings
from hypothesis import strategies as st

from specaccess.channels import BernoulliChannel, FixedRates, MarkovChannel, WhiteSpaceChannel, sample_initial_state
from specaccess.config import load_config
from specaccess.contention import RandomBackoff, SlottedAloha
from specaccess.estimation import ChainCounts, ChannelEstimates, chain_counts, channel_estimates, user_estimates
from specaccess.game import SpectrumGame
from specaccess.graph import InterferenceGraph
from specaccess.learning import run_learning
from specaccess.simulator import Scenario, SimStreams, _channel_states, _mle_period

ESTIMATES = ("epsilon", "xi", "theta", "grab", "rate", "throughput")
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _one_user(S, I=None, b=None):
    """Both estimator halves on one user's trace as a (t, 1) block, each
    field a float; I and b default to a trace without grabs."""
    S = np.asarray(S)
    I = np.zeros_like(S) if I is None else np.asarray(I)
    b = np.zeros(len(S)) if b is None else np.asarray(b, dtype=float)
    est = user_estimates(channel_estimates(chain_counts(S[:, None])), I[:, None], b[:, None])
    return est._make(float(x[0]) for x in est)


def _undefined(est):
    return {f for f in ESTIMATES if math.isnan(getattr(est, f))}


def test_transition_count_example():
    # S = (1, 1, 0, 1): C11 = 1, C10 = 1, C01 = 1, C00 = 0
    est = _one_user([1, 1, 0, 1])
    assert est.epsilon == pytest.approx(1.0)
    assert est.xi == pytest.approx(0.5)
    assert est.theta == pytest.approx(2.0 / 3.0)


def test_all_idle_trace_is_undefined():
    # never leaving the idle state leaves epsilon undefined, never leaving the
    # busy state xi, and one slot has no transition at all
    assert _undefined(_one_user(np.ones(50, dtype=int))) == {"epsilon", "theta", "rate", "throughput"}
    assert _undefined(_one_user(np.zeros(50, dtype=int))) == {"xi", "theta", "grab", "rate", "throughput"}
    assert _undefined(_one_user([1])) == {"epsilon", "xi", "theta", "rate", "throughput"}
    assert _undefined(_one_user([1], [1], [2.0])) == {"epsilon", "xi", "theta", "throughput"}


def test_grab_and_rate_examples():
    est = _one_user([1, 1, 1, 1, 0], [1, 0, 1, 0, 0], [20.0, 0.0, 10.0, 0.0, 0.0])
    assert est.grab == pytest.approx(0.5)
    assert est.rate == pytest.approx(15.0)
    assert (est.sum_s, est.sum_i, est.sum_b) == (4, 2, 30.0)


def test_grab_all_successes():
    est = _one_user(np.ones(4, dtype=int), np.ones(4, dtype=int), np.full(4, 3.0))
    assert est.grab == 1.0
    assert est.rate == pytest.approx(3.0)


def test_undefined_grab_and_rate():
    busy = _one_user(np.zeros(5, dtype=int))
    assert math.isnan(busy.grab) and math.isnan(busy.rate)
    unlucky = _one_user(np.ones(5, dtype=int))
    assert unlucky.grab == 0.0 and math.isnan(unlucky.rate)


def _learn_with_noise(base, noise, rng, n_users, periods):
    """run_learning of n_users isolated one-channel users whose observer
    returns base for everyone: out.estimates holds base plus the noise."""
    game = SpectrumGame.create(InterferenceGraph.from_edges(n_users, []), [0.5], [[4.0]] * n_users,
                               RandomBackoff(4))
    observe = lambda a: (np.full(n_users, base), np.full(n_users, base))
    return run_learning(game, 1.0, periods, rng, observer=observe, noise=noise)


def test_throughput_product_and_degenerate_noise():
    S = np.array([1, 0, 1, 1, 0, 1] * 10)
    I = np.array([1, 0, 0, 1, 0, 1] * 10)
    est = _one_user(S, I, np.where(I == 1, 12.0, 0.0))
    assert est.throughput == pytest.approx(est.theta * est.rate * est.grab)
    rng = np.random.default_rng(0)
    out = _learn_with_noise(est.throughput, 0.0, rng, n_users=3, periods=1)
    assert out.estimates.tolist() == [[est.throughput] * 3]
    ref = np.random.default_rng(0)
    ref.random(3)  # the channel choices
    assert rng.random() == ref.random()  # no draw at zero width


def test_noise_is_zero_mean_and_bounded():
    S = np.array([1, 0] * 20)
    base = _one_user(S, S, np.where(S == 1, 4.0, 0.0)).throughput
    out = _learn_with_noise(base, 0.5, np.random.default_rng(11), n_users=100, periods=1000)
    draws = out.estimates.ravel()
    assert len(draws) == 10**5 and np.all(np.abs(draws - base) <= 0.5)
    sem = 0.5 / np.sqrt(3.0) / np.sqrt(len(draws))
    assert abs(draws.mean() - base) < 3 * sem


def _random_block(rng, t, n):
    """(S, I, b) blocks, (t, n), with columns 0, 1 and 2 all busy, all idle
    and never grabbed."""
    S = (rng.random((t, n)) < rng.uniform(0.1, 0.9, n)).astype(np.int8)
    S[:, 0], S[:, 1] = 0, 1
    I = (S == 1) & (rng.random((t, n)) < rng.uniform(0.1, 0.9, n))
    I[:, 2] = False
    b = np.where(I, rng.exponential(5.0, (t, n)) * 10.0 ** rng.uniform(-3, 6), 0.0)
    return S, I, b


def test_estimate_matches_explicit_loop_reference():
    # same arithmetic on the same per-user sums, so equal to the last bit
    rng = np.random.default_rng(67)
    for case in range(200):
        t = 1 if case % 20 == 0 else int(rng.integers(2, 150))
        n = int(rng.integers(3, 10))
        S, I, b = _random_block(rng, t, n)
        est = user_estimates(channel_estimates(chain_counts(S)), I, b)
        assert np.isnan(est.throughput[:3]).all()
        got = np.array([getattr(est, f) for f in ESTIMATES]).T
        ref = np.array([loop_estimates(S[:, u], I[:, u], b[:, u]) for u in range(n)])
        assert np.array_equal(got, ref, equal_nan=True), case
        assert est.sum_b == [b[:, u].sum() for u in range(n)]


def test_chain_counts_gathered_at_a_profile_match_per_user_traces():
    # counts of each channel over a (k, t, M) block, read at a profile, give
    # every estimate field of the users' own (t, N) traces to the last bit
    rng = np.random.default_rng(73)
    for case in range(60):
        k, m, n = int(rng.integers(1, 5)), int(rng.integers(2, 6)), int(rng.integers(2, 8))
        t = 1 if case % 10 == 0 else int(rng.integers(2, 80))
        states = (rng.random((k, t, m)) < rng.uniform(0.1, 0.9, m)).astype(np.int8)
        states[..., 0], states[..., 1] = 0, 1  # an all-busy and an all-idle channel
        counts = chain_counts(states)
        assert all(c.shape == (k, m) for c in counts)
        for p in range(k):
            a = rng.integers(1, m + 1, size=n)
            S = states[p][:, a - 1]
            I = (S == 1) & (rng.random((t, n)) < 0.5)
            b = np.where(I, rng.exponential(5.0, (t, n)), 0.0)
            got = user_estimates(channel_estimates(ChainCounts(*(c[p][a - 1] for c in counts))), I, b)
            ref = user_estimates(channel_estimates(chain_counts(S)), I, b)
            for field, x, y in zip(got._fields, got, ref):
                x, y = np.asarray(x), np.asarray(y)  # the user half's fields are lists
                assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True), (case, field)
            loops = np.array([loop_estimates(S[:, u], I[:, u], b[:, u]) for u in range(n)])
            assert np.array_equal(np.array([getattr(got, f) for f in ESTIMATES]).T, loops, equal_nan=True)


def test_channel_half_at_a_profile_then_user_half_is_estimate():
    # the channel half of a (k, t, M) block, read at each period's profile,
    # then the user half, gives the halves' fields on the users' own traces
    # bit for bit, NaNs included:
    # white-space channels give all-idle and all-busy traces, and user 0 never grabs
    rng = np.random.default_rng(79)
    models = [MarkovChannel(0.2, 0.3), WhiteSpaceChannel(1), WhiteSpaceChannel(0), BernoulliChannel(0.5),
              MarkovChannel(0.01, 0.01)]
    for case in range(40):
        k, n = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        t = 1 if case % 10 == 0 else int(rng.integers(2, 80))
        state0 = [sample_initial_state(c, rng) for c in models]
        states = _channel_states(models, state0, k * t, rng)[0].reshape(k, t, len(models))
        halves = channel_estimates(chain_counts(states))
        assert all(x.shape == (k, len(models)) for x in halves)
        for p in range(k):
            a = rng.permutation(np.arange(1, len(models) + 1).repeat(2))[:n]
            S = states[p][:, a - 1]
            I = (S == 1) & (rng.random((t, n)) < 0.5)
            I[:, 0] = False
            b = np.where(I, rng.exponential(5.0, (t, n)), 0.0)
            got = user_estimates(ChannelEstimates(*(x[p][a - 1] for x in halves)), I, b)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ref = user_estimates(channel_estimates(chain_counts(S)), I, b)
            for field, x, y in zip(got._fields, got, ref):
                x, y = np.asarray(x), np.asarray(y)  # the user half's fields are lists
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (case, field)
            assert np.isnan(ref.rate[0]) and np.isnan(ref.throughput[0])
        assert np.isnan(halves.theta[:, 1:3]).all()  # white space never leaves its state


def _edge_scenario(edge):
    """A scenario whose periods reach one edge of the user half."""
    if edge == "white-space triangle":  # theta is 0/0 on every channel
        return load_config(CONFIGS / "triangle_no_ne.json").scenario
    g = InterferenceGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    rates = FixedRates([[3.0, 5.0, 2.5]] * 4)
    if edge == "no idle slot":  # grab is 0/0 on the busy white-space channel
        channels, mech = [WhiteSpaceChannel(0), MarkovChannel(0.3, 0.2), BernoulliChannel(0.6)], RandomBackoff(4)
    else:  # Aloha users that rarely transmit: rate is 0/0 where the channel was idle
        channels, mech = [MarkovChannel(0.3, 0.2), BernoulliChannel(0.6), WhiteSpaceChannel(1)], SlottedAloha((0.03,) * 4)
    return Scenario(g, channels, rates, mech, t_max=6, periods=60)


@pytest.mark.parametrize("edge", ["white-space triangle", "no idle slot", "idle but no grab"])
def test_user_half_on_floats_matches_the_array_formula(edge):
    # every period of _mle_period, field by field, against the array formula
    # on the period's own (t, N) traces: the same bits, NaN payloads included
    sc = _edge_scenario(edge)
    n, m = sc.game.n_users, sc.game.n_channels
    rng = np.random.default_rng(101)
    period = _mle_period(sc, SimStreams.from_seed(5))
    streams = SimStreams.from_seed(5)
    state = sc.initial_channel_state(streams.channels)
    hits = 0
    for _ in range(sc.periods):
        a = tuple(int(c) for c in rng.integers(1, m + 1, size=n))
        (S, I, b), state = one_period(sc, a, state, streams)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = period(a)
        ref = array_user_estimates(channel_estimates(chain_counts(S)), I, b)
        for field, x, y in zip(got._fields, got, ref):
            assert type(x) is list and len(x) == n, field
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), (edge, a, field)
        sum_s, sum_i, theta, grab, rate = (np.asarray(getattr(got, f)) for f in ("sum_s", "sum_i", "theta", "grab", "rate"))
        if edge == "white-space triangle":
            hits += int(np.isnan(theta).all())
        elif edge == "no idle slot":
            hits += int(np.sum((sum_s == 0) & np.isnan(grab)))
        else:
            hits += int(np.sum((sum_s > 0) & (sum_i == 0) & (grab == 0) & np.isnan(rate)))
    assert hits > 0, edge


def test_estimate_raises_no_floating_point_warning():
    # every 0/0 of the estimators lands as NaN without a RuntimeWarning
    for S, I in (([1] * 6, [0] * 6), ([0] * 6, [0] * 6), ([1], [1]), ([1, 0, 1, 1], [0, 0, 1, 0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = _one_user(S, I, np.where(np.asarray(I) == 1, 3.0, 0.0))
        assert math.isnan(est.throughput) == (S != [1, 0, 1, 1])


@given(st.permutations(list(range(12))))
@settings(max_examples=30, deadline=None)
def test_grab_and_rate_invariant_to_slot_order(perm):
    S = np.array([1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1])
    I = np.array([1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0])
    b = np.where(I == 1, np.arange(12, dtype=float) + 1, 0.0)
    base, shuffled = _one_user(S, I, b), _one_user(S[perm], I[perm], b[perm])
    assert shuffled.grab == pytest.approx(base.grab)
    assert shuffled.rate == pytest.approx(base.rate)


def _markov_trace(eps, xi, t, seed):
    c = MarkovChannel(eps, xi)
    rng = np.random.default_rng(seed)
    states, _ = _channel_states([c], [sample_initial_state(c, rng)], t, rng)
    return states[:, 0]


def test_markov_mle_consistency():
    est = _one_user(_markov_trace(0.2, 0.3, 10**5, 4))
    assert abs(est.epsilon - 0.2) < 0.01
    assert abs(est.xi - 0.3) < 0.01
    assert abs(est.theta - 0.4) < 0.01


def test_estimation_error_shrinks_with_trace_length():
    # averaged over seeds, the epsilon error decreases through 1e3 -> 1e4 -> 1e5
    errors = []
    for t in (10**3, 10**4, 10**5):
        errs = [abs(_one_user(_markov_trace(0.2, 0.3, t, seed)).epsilon - 0.2) for seed in range(8)]
        errors.append(np.mean(errs))
    assert errors[0] > errors[1] > errors[2]

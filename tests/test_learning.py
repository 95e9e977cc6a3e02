import math

import numpy as np
import pytest
from conftest import random_directed_graph, random_game

import specaccess as sa
from specaccess.game import SpectrumGame
from specaccess.learning import (
    approx_ne_gap,
    boltzmann_profile,
    contraction_temperature_bound,
    mean_dynamics_fixed_point,
    q_from_sigma,
    q_operator,
    run_learning,
)


def test_boltzmann_uniform_for_equal_perceptions():
    row = boltzmann_profile(np.array([[3.0, 3.0, 3.0]]), 2.0)[0]
    assert np.allclose(row, 1.0 / 3.0)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_boltzmann_small_gamma_limit():
    row = boltzmann_profile(np.array([[1.0, 5.0, 9.0]]), 1e-9)[0]
    assert np.max(np.abs(row - 1.0 / 3.0)) < 1e-6


def test_boltzmann_argmax_dominance():
    row = boltzmann_profile(np.array([[0.0, 10.0]]), 5.0)[0]
    assert row[1] == pytest.approx(1.0, abs=1e-15)
    assert np.all(row > 0.0)  # strictly positive even at e^-50


def test_boltzmann_overflow_safe():
    # each row is max-subtracted on its own: one shared shift would
    # underflow the second row to 0 / 0
    sigma = boltzmann_profile(np.array([[0.0, 1e6], [0.0, 1.0]]), 10.0)
    assert np.isfinite(sigma).all() and np.allclose(sigma.sum(axis=1), 1.0)
    assert sigma[1, 1] == pytest.approx(1.0 / (1.0 + math.exp(-10.0)))
    with pytest.raises(ValueError):
        boltzmann_profile(np.array([[0.0, np.inf]]), 1.0)
    with pytest.raises(ValueError):
        boltzmann_profile(np.array([[0.0, 1.0]]), 0.0)


def _softmax_row(row, gamma):
    # reference: one user's row at a time
    z = gamma * np.asarray(row, dtype=float)
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def test_boltzmann_profile_matches_per_row_softmax():
    rng = np.random.default_rng(17)
    for _ in range(500):
        n, m = (int(k) for k in rng.integers(1, 12, size=2))
        P = rng.normal(0.0, 1.0, (n, m)) * 10 ** rng.uniform(-3, 6)
        gamma = 10 ** rng.uniform(-3, 3)
        expect = np.vstack([_softmax_row(P[k], gamma) for k in range(n)])
        assert np.array_equal(boltzmann_profile(P, gamma), expect)


def _one_user_game(n_channels=1):
    g = sa.InterferenceGraph.from_edges(1, [])
    return SpectrumGame.create(g, [0.5] * n_channels, [[4.0] * n_channels], sa.RandomBackoff(4))


def _constant_observer(estimate):
    return lambda a: (np.array([estimate]), np.array([estimate]))


def test_perception_update_basic():
    p0 = np.array([[4.0, 1.0]])
    # gamma * (4 - 1) = 150: channel 1 is chosen with probability 1 in floats
    out = run_learning(_one_user_game(2), gamma=50.0, periods=1, rng=np.random.default_rng(0),
                       observer=_constant_observer(6.0), mu=0.5, p0=p0)
    assert out.channels[0, 0] == 1
    assert out.perceptions[0, 0] == pytest.approx(5.0)
    assert out.perceptions[0, 1] == 1.0
    assert p0[0, 0] == 4.0  # original untouched


def test_perception_update_vanishing_mu_freezes():
    out = run_learning(_one_user_game(), gamma=1.0, periods=1, rng=np.random.default_rng(0),
                       observer=_constant_observer(100.0), mu=1.0 / 10**9,
                       p0=np.array([[4.0]]))
    assert out.perceptions[0, 0] == pytest.approx(4.0, abs=1e-6)


def test_perception_update_is_convex_combination():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p0 = float(rng.uniform(-5, 5))
        est = float(rng.uniform(-5, 5))
        T = int(rng.integers(1, 100))
        out = run_learning(_one_user_game(), gamma=1.0, periods=1, rng=np.random.default_rng(0),
                           observer=_constant_observer(est), mu=1.0 / T,
                           p0=np.array([[p0]]))
        new = out.perceptions[0, 0]
        lo, hi = min(p0, est), max(p0, est)
        assert lo - 1e-12 <= new <= hi + 1e-12


def test_repeated_updates_converge_to_constant_estimate():
    out = run_learning(_one_user_game(), gamma=1.0, periods=30, rng=np.random.default_rng(0),
                       observer=_constant_observer(7.5), p0=np.array([[0.0]]))
    assert out.perceptions[0, 0] == pytest.approx(7.5)


def test_mu_schedule_validation():
    # checked once before the first period: only "1/T" or a constant in (0, 1]
    for mu in (1.5, 0.0, -0.1, "1/t", lambda T: 0.5, None):
        with pytest.raises(ValueError):
            run_learning(_one_user_game(2), gamma=1.0, periods=1, rng=np.random.default_rng(0), mu=mu)
    # the noise half-width likewise: finite and >= 0
    for noise in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise half-width"):
            run_learning(_one_user_game(2), gamma=1.0, periods=1, rng=np.random.default_rng(0), noise=noise)
    out = run_learning(_one_user_game(), gamma=1.0, periods=1, rng=np.random.default_rng(0),
                       observer=_constant_observer(6.0), mu=1, p0=np.array([[4.0]]))
    assert out.perceptions[0, 0] == 6.0


def test_contraction_bound_arithmetic():
    g = sa.InterferenceGraph.from_edges(3, [(1, 2), (3, 2)])
    spec = SpectrumGame.create(g, [0.5], [[30e6], [10e6], [20e6]], sa.RandomBackoff(4))
    # max theta*B = 15e6, max in-degree 2 -> 1 / 6e7
    assert contraction_temperature_bound(spec) == pytest.approx(1.0 / 6e7)


def test_contraction_bound_unbounded_without_interference():
    g = sa.InterferenceGraph.from_edges(3, [])
    spec = SpectrumGame.create(g, [0.5], [[1.0]] * 3, sa.RandomBackoff(4))
    assert contraction_temperature_bound(spec) == math.inf


def test_contraction_bound_unbounded_when_never_idle():
    # theta = 0 on every channel makes Q identically 0, so no temperature is too high
    g = sa.InterferenceGraph.undirected(2, [(1, 2)])
    spec = SpectrumGame.create(g, [0.0, 0.0], [[4.0, 2.0], [3.0, 5.0]], sa.RandomBackoff(4))
    assert contraction_temperature_bound(spec) == math.inf


def test_fixed_point_empty_graph_exact():
    g = sa.InterferenceGraph.from_edges(2, [])
    spec = SpectrumGame.create(g, [0.5, 0.8], [[10.0, 5.0], [2.0, 4.0]], sa.RandomBackoff(6))
    res = mean_dynamics_fixed_point(spec, gamma=0.01)
    expect = np.array([[5.0, 4.0], [1.0, 3.2]])
    assert np.allclose(res.perceptions, expect, atol=0)
    assert res.iterations <= 2 and res.converged


def test_fixed_point_uniqueness_and_symmetry():
    g = sa.InterferenceGraph.undirected(2, [(1, 2)])
    spec = SpectrumGame.create(g, [0.5, 0.5], [[4.0, 4.0], [4.0, 4.0]], sa.RandomBackoff(8))
    gamma = 0.9 * contraction_temperature_bound(spec)
    r1 = mean_dynamics_fixed_point(spec, gamma, tol=1e-12)
    rng = np.random.default_rng(1)
    r2 = mean_dynamics_fixed_point(spec, gamma, tol=1e-12, p0=rng.uniform(0, 2, (2, 2)))
    assert np.max(np.abs(r1.perceptions - r2.perceptions)) < 1e-8
    # symmetric instance -> symmetric fixed point
    assert np.allclose(r1.perceptions[0], r1.perceptions[1], atol=1e-10)
    assert np.allclose(r1.perceptions[:, 0], r1.perceptions[:, 1], atol=1e-10)


def test_fixed_point_warns_above_bound():
    g = sa.InterferenceGraph.undirected(2, [(1, 2)])
    spec = SpectrumGame.create(g, [0.5, 0.5], [[4.0, 4.0], [4.0, 4.0]], sa.RandomBackoff(8))
    with pytest.warns(UserWarning, match="contraction bound"):
        res = mean_dynamics_fixed_point(spec, gamma=100.0, max_iter=200)
    assert not res.within_contraction_bound


def test_fixed_point_perceptions_match_conditional_payoffs():
    rng = np.random.default_rng(8)
    spec = random_game(rng, random_directed_graph(rng, 4, 0.5), 3, "aloha")
    gamma = 0.9 * contraction_temperature_bound(spec)
    res = mean_dynamics_fixed_point(spec, gamma, tol=1e-12)
    q = q_from_sigma(spec, res.sigma)
    assert np.max(np.abs(q - res.perceptions)) < 1e-10


def test_gap_uniform_rows_is_max_entropy():
    g = sa.InterferenceGraph.from_edges(2, [(1, 2), (2, 1)])
    spec = SpectrumGame.create(g, [0.5] * 5, [[4.0] * 5] * 2, sa.RandomBackoff(8))
    sigma = np.full((2, 5), 0.2)
    cert = approx_ne_gap(spec, sigma, gamma=5.0)
    assert cert.delta == pytest.approx(math.log(5) / 5.0)
    assert cert.delta == pytest.approx(cert.entropy_bound)


def test_gap_near_pure_rows_vanishes():
    g = sa.InterferenceGraph.from_edges(1, [])
    spec = SpectrumGame.create(g, [0.5, 0.5], [[4.0, 1.0]], sa.RandomBackoff(8))
    sigma = np.array([[1.0 - 1e-12, 1e-12]])
    cert = approx_ne_gap(spec, sigma, gamma=2.0)
    assert cert.delta < 1e-10


def test_gap_bounds_best_response_at_fixed_point():
    rng = np.random.default_rng(13)
    for _ in range(5):
        spec = random_game(rng, random_directed_graph(rng, 4, 0.6), 3, "backoff")
        gamma = 0.9 * contraction_temperature_bound(spec)
        res = mean_dynamics_fixed_point(spec, gamma, tol=1e-12)
        cert = approx_ne_gap(spec, res.sigma, gamma)
        assert cert.satisfied
        assert cert.max_br_gain <= cert.delta + 1e-9
        assert cert.delta <= cert.entropy_bound + 1e-12


def test_run_learning_empty_graph_pins_visited_perceptions():
    g = sa.InterferenceGraph.from_edges(2, [])
    spec = SpectrumGame.create(g, [0.5, 0.8], [[10.0, 5.0], [2.0, 4.0]], sa.RandomBackoff(6))
    periods = 20000
    out = run_learning(spec, gamma=0.05, periods=periods, rng=np.random.default_rng(0))
    expect = np.array([[5.0, 4.0], [1.0, 3.2]])
    visited = np.zeros((2, 2), dtype=bool)
    for t in range(periods):
        for n in range(2):
            visited[n, out.channels[t, n] - 1] = True
    assert visited.all()
    # the channel sampled at T = 1 takes mu = 1, so its perception is pinned
    # exactly; the others converge at the 1/T averaging rate
    for n in range(2):
        first = out.channels[0, n] - 1
        assert out.perceptions[n, first] == expect[n, first]
    assert np.allclose(out.perceptions, expect, atol=0.1)
    assert out.skipped_updates == 0


def test_run_learning_tracks_mean_dynamics():
    rng = np.random.default_rng(3)
    spec = random_game(rng, random_directed_graph(rng, 3, 0.6), 2, "backoff")
    gamma = 0.9 * contraction_temperature_bound(spec)
    fp = mean_dynamics_fixed_point(spec, gamma, tol=1e-12)
    errs = []
    for seed in range(6):
        out = run_learning(spec, gamma, periods=3000, rng=np.random.default_rng(seed),
                           oracle=fp.perceptions)
        errs.append((out.error_trace[99], out.error_trace[-1]))
    early = np.mean([e for e, _ in errs])
    late = np.mean([l for _, l in errs])
    assert late < early


def test_run_learning_respects_observer_skips():
    g = sa.InterferenceGraph.from_edges(1, [])
    spec = SpectrumGame.create(g, [0.5], [[4.0]], sa.RandomBackoff(4))

    calls = []

    def observer(a):
        calls.append(a)
        return (np.array([np.nan]), np.array([0.0])) if len(calls) % 2 == 0 else (np.array([2.0]), np.array([2.0]))

    out = run_learning(spec, gamma=1.0, periods=10, rng=np.random.default_rng(0), observer=observer)
    assert out.skipped_updates == 5
    assert np.isnan(out.estimates[1, 0]) and out.estimates[0, 0] == 2.0


def test_noise_is_drawn_once_per_defined_estimate_in_user_order():
    g = sa.InterferenceGraph.from_edges(4, [])
    spec = SpectrumGame.create(g, [0.5, 0.5], [[4.0, 4.0]] * 4, sa.RandomBackoff(4))
    base = np.array([1.0, 2.0, 3.0, 4.0])
    masks = [np.array([True] * 4), np.array([True, False, True, False]), np.array([False] * 4)]
    calls = []

    def observer(a):
        mask = masks[len(calls) % 3]
        calls.append(a)
        # all defined: one array as both values, as exact_observer returns it
        return (base, base) if mask.all() else (np.where(mask, base, np.nan), base)

    out = run_learning(spec, gamma=1.0, periods=9, rng=np.random.default_rng(5), observer=observer,
                       noise=0.25)
    ref = np.random.default_rng(5)
    for T in range(9):
        ref.random(4)  # the channel choices
        mask = masks[T % 3]
        for n in range(4):
            expect = base[n] + ref.uniform(-0.25, 0.25) if mask[n] else np.nan
            assert np.array_equal(out.estimates[T, n], expect, equal_nan=True), (T, n)
    assert out.skipped_updates == 18
    assert np.array_equal(base, [1.0, 2.0, 3.0, 4.0]) and np.all(out.welfare_trace == 10.0)


def test_q_operator_scale_equivalence():
    # scaling payoffs and the scale parameter together leaves strategies unchanged
    rng = np.random.default_rng(4)
    spec = random_game(rng, random_directed_graph(rng, 3, 0.5), 2, "aloha")
    P = rng.uniform(0, 5, (3, 2))
    s1 = boltzmann_profile(P / 1.0, 2.0)
    s2 = boltzmann_profile((10 * P) / 10.0, 2.0)
    assert np.allclose(s1, s2)
    q1 = q_operator(spec, P, 2.0, payoff_scale=1.0)
    assert np.allclose(q1, q_from_sigma(spec, s1))


def test_run_learning_delta_needs_no_mixed_payoffs():
    # delta is the entropy term alone: a weighted-share game with more
    # in-neighbours than its grab table covers still finishes its run
    n = 22
    g = sa.InterferenceGraph.undirected(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    spec = SpectrumGame.create(g, [0.5, 0.7], [[4.0, 2.0]] * n, sa.WeightedShare((1.0,) * n))
    with pytest.raises(sa.ResourceLimitError):
        q_from_sigma(spec, np.full((n, 2), 0.5))
    out = run_learning(spec, 2.0, 3, np.random.default_rng(0))
    entropy = -(out.sigma * np.log(out.sigma)).sum(axis=1)
    assert out.delta == pytest.approx(entropy.max() / 2.0, rel=1e-12)


def test_run_learning_delta_equals_certificate_delta():
    rng = np.random.default_rng(12)
    for kind in ("backoff", "weighted", "aloha"):
        spec = random_game(rng, random_directed_graph(rng, 5, 0.5), 3, kind)
        out = run_learning(spec, 1.5, 20, np.random.default_rng(3), payoff_scale=2.0)
        assert out.delta == approx_ne_gap(spec, out.sigma, 1.5, payoff_scale=2.0).delta

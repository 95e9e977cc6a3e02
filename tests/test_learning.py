import dataclasses
import hashlib
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_directed_graph, random_game

import specaccess as sa
from specaccess import learning
from specaccess.config import load_config, resolved_payoff_scale
from specaccess.game import SpectrumGame
from specaccess.learning import (
    approx_ne_gap,
    boltzmann_profile,
    contraction_temperature_bound,
    exact_observer,
    mean_dynamics_fixed_point,
    q_from_sigma,
    run_learning,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
    with pytest.raises(ValueError, match="Boltzmann exponent"):  # finite P, but gamma P is not
        boltzmann_profile(np.array([[0.0, 1e308]]), 10.0)
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


def _nine_user(name):
    cfg = load_config(CONFIGS / name)
    return cfg, cfg.scenario.game, resolved_payoff_scale(cfg)


def test_fixed_point_converges_at_every_shipped_temperature():
    # every swept temperature is above the (sufficient) contraction bound; at
    # gamma <= 2 the residual still falls throughout, so the plain step's
    # iteration counts hold, and at 5, 10 and 50 the damped step converges
    plain = {"learning_9user.json": [17, 30, 136], "learning_9user_aloha.json": [14, 22, 56]}
    for name, counts in plain.items():
        cfg, spec, scale = _nine_user(name)
        assert cfg.sweep_gammas == [0.5, 1.0, 2.0, 5.0, 10.0, 50.0]
        for k, gamma in enumerate(cfg.sweep_gammas):
            with pytest.warns(UserWarning, match="contraction bound"):
                fp = mean_dynamics_fixed_point(spec, gamma, tol=1e-10, max_iter=1000, payoff_scale=scale)
            assert fp.converged and fp.residual < 1e-10, (name, gamma)
            assert approx_ne_gap(spec, fp.sigma, gamma, payoff_scale=scale).satisfied, (name, gamma)
            if k < len(counts):
                assert fp.iterations == counts[k], (name, gamma)


def test_fixed_point_above_bound_depends_on_the_start():
    _, spec, scale = _nine_user("learning_9user.json")
    rng = np.random.default_rng(0)
    fps = []
    with pytest.warns(UserWarning, match="depends on the start"):
        for _ in range(8):
            fps.append(mean_dynamics_fixed_point(spec, 50.0, tol=1e-10, max_iter=1000, payoff_scale=scale,
                                                 p0=rng.uniform(0, scale, (spec.n_users, spec.n_channels))))
    assert all(fp.converged for fp in fps)
    assert all(approx_ne_gap(spec, fp.sigma, 50.0, payoff_scale=scale).satisfied for fp in fps)
    spread = max(np.max(np.abs(a.perceptions - b.perceptions)) for a, b in itertools.combinations(fps, 2))
    assert spread > 1.0  # two distinct fixed points, each a certified approximate equilibrium


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


def test_run_learning_widens_list_estimates_that_are_not_python_floats():
    # a list of float32 estimates updates P in float64 exactly as the same
    # values widened to a float64 array would
    g = sa.InterferenceGraph.from_edges(3, [(1, 2), (2, 3)])
    spec = SpectrumGame.create(g, [0.5, 0.7], [[4.0, 3.0]] * 3, sa.RandomBackoff(4))
    values = [np.float32(x) for x in (1.1, 2.3, 3.7)]
    widened = np.asarray(values, dtype=float)
    runs = [run_learning(spec, gamma=2.0, periods=40, rng=np.random.default_rng(3),
                         observer=lambda a, est=est: (est, widened), noise=0.1)
            for est in (values, widened)]
    assert runs[0].perceptions.dtype == np.float64
    assert np.array_equal(runs[0].perceptions, runs[1].perceptions)
    assert np.array_equal(runs[0].estimates, runs[1].estimates)


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
    # the Q map, composed: expected throughputs under the strategies P / scale induces
    q1 = q_from_sigma(spec, boltzmann_profile((10 * P) / 10.0, 2.0))
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


# sha256 of every LearningOutcome field, and of a fixed point's perceptions,
# sigma, iterations, residual and convergence flag, recorded before the
# learning loop and the fixed-point iteration were rewritten, which must
# reproduce them; seeded random games with fixed rates
_LEARNING_DIGESTS = {
    "learning/exact-oracle": "764e506c7ec97c0c23042e079b0cd93bc2fbccdb85e917737fcf05a19fe53a91",
    "learning/noise": "2953e60ad29dc1fc8058bac63789030403b9d4d737c88ec9f5641a0bcb9b2878",
    "learning/constant-mu": "531a1d443b2b54c2a95f60e4e0264cbf9faa8fa6f635df1091020f333a0b2c93",
    "learning/nan-observer": "40eb6c14ab3e17bc02aaadf50f584c8ec20f6076f5aed1a63e6dc2028cbc0b41",
    "learning/unrecorded": "c905ac625f56a67d06dd706fa2e054e42ea9ec79f30913fe2d1a25edf3f0a7af",
    "fixed-point/backoff": "0e95e366500ea885da16742f85f0a019db7d958092c28c3679e89155c09f0f61",
    "fixed-point/asymptotic": "3d6614469a5239e9a531d64f3ced8005e10e467d80de1d479dbf8ffc8776398e",
    "fixed-point/weighted": "d041cfba9f858d8ccb0654f0e88bfef3d8ac5ef54c3080462fe6f63312703681",
    "fixed-point/aloha": "c0cee3c64c4cb0d76bd174e3a764c9e9c6a114ae4116fd727f7be88ec1bffc6a",
    "fixed-point/above-bound": "44f773a5c11b38da3a35cf8d6983e48bb6939813be493cbecd20c10cdb73b008",
}


def _sha256(*values):
    h = hashlib.sha256()
    for v in values:
        h.update(b"None" if v is None else np.ascontiguousarray(v).tobytes())
    return h.hexdigest()


def _some_users_undefined(spec):
    # NaN estimates for a rotating subset of users (every user in some periods);
    # LearningOutcome.estimates holds one NaN for every skip, whatever the payload
    exact, calls = exact_observer(spec), []

    def observe(a):
        est, realised = exact(a)
        k = len(calls)
        calls.append(a)
        mask = (np.arange(spec.n_users) + k) % 3 == 0 if k % 7 else np.ones(spec.n_users, dtype=bool)
        return np.where(mask, -np.nan, est), realised  # sign bit set, as a 0/0 leaves it on x86

    return observe


def test_seeded_learning_and_fixed_points_keep_their_digest():
    rng = np.random.default_rng(2027)
    games = {kind: random_game(rng, random_directed_graph(rng, 5, 0.5), 3, kind)
             for kind in ("backoff", "asymptotic", "weighted", "aloha")}
    got = {}
    for kind, spec in games.items():
        gamma = 0.9 * contraction_temperature_bound(spec)
        fp = mean_dynamics_fixed_point(spec, gamma, tol=1e-12, p0=rng.uniform(0, 4, (5, 3)))
        got[f"fixed-point/{kind}"] = _sha256(fp.perceptions, fp.sigma, fp.iterations, fp.residual, fp.converged)
    # a dense two-channel game above the bound, where the plain step keeps
    # cycling: the residual rises, the damped step takes over and converges
    dense_rng = np.random.default_rng([2027, 1])
    dense = random_game(dense_rng, random_directed_graph(dense_rng, 5, 0.9), 2, "weighted")
    with pytest.warns(UserWarning, match="contraction bound"):
        fp = mean_dynamics_fixed_point(dense, 30.0, max_iter=400, payoff_scale=3.0, p0=dense_rng.uniform(0, 4, (5, 2)))
    assert fp.converged and fp.iterations == 157
    assert approx_ne_gap(dense, fp.sigma, 30.0, payoff_scale=3.0).satisfied
    got["fixed-point/above-bound"] = _sha256(fp.perceptions, fp.sigma, fp.iterations, fp.residual, fp.converged)

    spec = games["backoff"]
    gamma = 0.9 * contraction_temperature_bound(spec)
    oracle = mean_dynamics_fixed_point(spec, gamma, tol=1e-12).perceptions
    runs = {
        "exact-oracle": dict(oracle=oracle),
        "noise": dict(noise=0.25, payoff_scale=2.0, oracle=oracle),
        "constant-mu": dict(mu=0.3, p0=rng.uniform(0, 4, (5, 3))),
        "nan-observer": dict(observer=_some_users_undefined(spec), noise=0.25, oracle=oracle),
        "unrecorded": dict(record=False, oracle=oracle),
    }
    for name, kwargs in runs.items():
        out = run_learning(spec, 4.0 * gamma, 700, np.random.default_rng([9, len(got)]), **kwargs)
        got[f"learning/{name}"] = _sha256(*(getattr(out, f.name) for f in dataclasses.fields(out)))
    assert got == _LEARNING_DIGESTS


def _numpy_cdf(P, gamma, payoff_scale):
    z = gamma * (P / payoff_scale)
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
    return z.cumsum(axis=1)


def _numpy_period_loop(spec, gamma, periods, rng, *, observer=None, payoff_scale=1.0, mu="1/T", noise=0.0,
                       p0=None, oracle=None, record=True):
    """Reference: run_learning's period loop on (N, M) numpy arrays, one
    softmax, cumsum and searchsorted-by-count per period, as it stood before
    the loop moved to Python floats."""
    N, M = spec.n_users, spec.n_channels
    P = learning.initial_perceptions(spec, payoff_scale) if p0 is None else np.array(p0, dtype=float)
    observer = observer or exact_observer(spec)
    flat, rows = P.reshape(-1), np.arange(N) * M - 1
    realised_rows, dP_trace = np.empty((periods, N)), np.empty(periods)
    channels, estimates = np.empty((periods, N), dtype=np.int64), np.empty((periods, N))
    error_trace = np.empty(periods) if oracle is not None else None
    skipped = 0
    for T in range(1, periods + 1):
        cdf = _numpy_cdf(P, gamma, payoff_scale)
        u = rng.random(N)
        a = np.minimum(np.add.reduce(cdf <= (u * cdf[:, -1])[:, None], axis=1) + 1, M)
        est, realised = observer(tuple(a.tolist()))
        est = np.array(est, dtype=float)
        ok = est == est
        if noise > 0.0:
            est[ok] += rng.uniform(-noise, noise, np.count_nonzero(ok))
        skipped += N - np.count_nonzero(ok)
        mu_T = 1.0 / T if mu == "1/T" else mu
        cell = (rows + a)[ok]
        old = flat.take(cell)
        new = (1.0 - mu_T) * old + mu_T * est[ok]
        flat.put(cell, new)
        if not np.isfinite(new).all():
            raise ValueError("perceptions must be finite")
        dP_trace[T - 1] = np.maximum.reduce(np.abs(new - old), initial=0.0)
        realised_rows[T - 1], channels[T - 1], estimates[T - 1] = realised, a, est
        if oracle is not None:
            error_trace[T - 1] = np.abs(P - oracle).max()
    estimates[np.isnan(estimates)] = np.nan
    sigma = boltzmann_profile(P / payoff_scale, gamma)
    return learning.LearningOutcome(
        perceptions=P, sigma=sigma, welfare_trace=np.cumsum(realised_rows, axis=1)[:, -1],
        per_user_mean=(np.cumsum(realised_rows, axis=0)[-1] + 0.0) / periods, dP_trace=dP_trace,
        channels=channels if record else None, estimates=estimates if record else None,
        error_trace=error_trace, delta=learning._entropy_gap(sigma, gamma / payoff_scale),
        periods=periods, skipped_updates=skipped,
    )


def _drawing_observer(spec, rng):
    # draws from the learner's own generator between its channel and noise draws
    exact = exact_observer(spec)

    def observe(a):
        est, realised = exact(a)
        return est * rng.uniform(0.5, 1.5, spec.n_users), realised

    return observe


@pytest.mark.parametrize("case", ["exact", "auto-scale", "nine-channels", "nan-noise", "constant-mu", "p0",
                                  "oracle-chunks", "drawing-observer"])
def test_run_learning_keeps_the_numpy_loop_bits(case):
    rng = np.random.default_rng([2028, len(case)])
    m = 9 if case == "nine-channels" else 3  # row totals summed pairwise from 8 channels on
    spec = random_game(rng, random_directed_graph(rng, 5, 0.5), m, ("backoff", "weighted", "aloha")[len(case) % 3])
    gamma = 4.0 * contraction_temperature_bound(spec)
    auto = sa.LearningPolicy(gamma, "auto").resolved_scale(spec)
    oracle = rng.uniform(0, 4, (5, m))
    kwargs = {
        "exact": dict(payoff_scale=1.0, oracle=oracle),
        "auto-scale": dict(payoff_scale=auto, oracle=oracle),
        "nine-channels": dict(payoff_scale=auto),
        "nan-noise": dict(noise=0.5),
        "constant-mu": dict(mu=0.3),
        "p0": dict(p0=rng.uniform(0, 4, (5, m)), mu=1.0),
        "oracle-chunks": dict(oracle=oracle, record=False),  # 800 periods: chunks of 4096 // 15 snapshots
        "drawing-observer": dict(noise=0.5),
    }[case]
    runs = []
    for loop in (run_learning, _numpy_period_loop):
        draws = np.random.default_rng([9, len(case)])
        if case == "nan-noise":
            kwargs["observer"] = _some_users_undefined(spec)
        elif case == "drawing-observer":
            kwargs["observer"] = _drawing_observer(spec, draws)
        runs.append(loop(spec, gamma, 800, draws, **kwargs))
    out, ref = runs
    for f in dataclasses.fields(out):
        got, want = getattr(out, f.name), getattr(ref, f.name)
        assert got is want is None or np.array_equal(got, want, equal_nan=True), f.name
    assert (out.skipped_updates > 0) == (case == "nan-noise")


class _BoundaryDraws:
    """Stands in for the learner's generator with mu = 1: the observer sets
    each chosen perception to the estimate it returns, so the draws can read
    every period's P and put u * total on, or one step below, an entry of the
    reference cdf. A cdf or total that differs in its last bit then picks
    another channel."""

    def __init__(self, spec, gamma, payoff_scale, seed):
        self.gamma, self.scale, self.rng = gamma, payoff_scale, np.random.default_rng(seed)
        self.P = learning.initial_perceptions(spec, payoff_scale)

    def random(self, n):
        below_one, u = math.nextafter(1.0, 0.0), []
        for row in _numpy_cdf(self.P, self.gamma, self.scale).tolist():
            bar, total = row[self.rng.integers(len(row))], row[-1]
            x = min(bar / total, below_one)
            while x * total > bar:
                x = math.nextafter(x, 0.0)
            while x < below_one and math.nextafter(x, 1.0) * total <= bar:
                x = math.nextafter(x, 1.0)
            # the largest u with u * total <= bar, or the one below it
            u.append(math.nextafter(x, 0.0) if self.rng.random() < 0.5 else x)
        return np.array(u)

    def observer(self, a):
        est = self.rng.uniform(0.0, 5.0, len(a))
        self.P[np.arange(len(a)), np.subtract(a, 1)] = est
        return est, est


@pytest.mark.parametrize("m", [3, 9])
def test_run_learning_picks_the_numpy_loop_channel_on_cdf_boundaries(m):
    rng = np.random.default_rng(m)
    spec = random_game(rng, random_directed_graph(rng, 5, 0.5), m, "weighted")
    chosen = []
    for loop in (run_learning, _numpy_period_loop):
        draws = _BoundaryDraws(spec, 1.3, 2.7, m)
        chosen.append(loop(spec, 1.3, 400, draws, observer=draws.observer, payoff_scale=2.7, mu=1.0).channels)
    assert np.array_equal(*chosen)
    assert len(np.unique(chosen[0])) == m


def test_run_learning_raises_once_an_estimate_makes_perceptions_non_finite():
    three = SpectrumGame.create(sa.InterferenceGraph.from_edges(3, [(1, 2)]), [0.5, 0.6], [[4.0, 3.0]] * 3,
                                sa.RandomBackoff(4))
    cases = [(_one_user_game(2), [math.inf], {}), (_one_user_game(2), [-math.inf], {}),
             (three, [math.nan, 2.0, math.inf], dict(noise=0.5, mu=1.0))]  # a skip and an update before it
    for spec, bad, kwargs in cases:
        calls = []

        def observer(a):
            calls.append(a)
            return (np.array(bad if len(calls) == 3 else [1.0] * len(bad)), np.ones(len(bad)))

        with pytest.raises(ValueError, match="perceptions must be finite"):
            run_learning(spec, 1.0, 10, np.random.default_rng(0), observer=observer, **kwargs)
        assert len(calls) == 3  # raised in the period the estimate arrived


def test_run_learning_raises_in_the_period_an_update_overflows_the_exponent():
    # rates of 1e308 on a 2-user edge: the first update leaves every perception
    # finite but gamma * P overflows, which would put NaN rows into the softmax
    spec = SpectrumGame.create(sa.InterferenceGraph.from_edges(2, [(1, 2)]), [0.5, 0.6], [[1e308, 1e308]] * 2,
                               sa.RandomBackoff(4))
    exact, calls = exact_observer(spec), []

    def observer(a):
        calls.append(a)
        return exact(a)

    periods = 20
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="Boltzmann exponent at temperature 50"):
            run_learning(spec, 50.0, periods, np.random.default_rng(0), observer=observer, payoff_scale=1.0)
    assert 0 < len(calls) < periods
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_start_that_overflows_on_its_payoff_scale_raises_only_the_value_error():
    # 1e300 / 1e-10 overflows in the division, before gamma multiplies it
    spec = SpectrumGame.create(sa.InterferenceGraph.from_edges(2, [(1, 2)]), [0.5, 0.6], [[4.0, 3.0]] * 2,
                               sa.RandomBackoff(4))
    kwargs = dict(gamma=1.0, p0=np.full((2, 2), 1e300), payoff_scale=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Boltzmann exponent"):
            run_learning(spec, rng=np.random.default_rng(0), periods=5, **kwargs)
        with pytest.raises(ValueError, match="Boltzmann exponent"):
            mean_dynamics_fixed_point(spec, **kwargs)


def test_invalid_temperature_or_start_raises_before_any_work():
    spec = _one_user_game(2)
    calls = []

    def observer(a):
        calls.append(a)
        return np.array([1.0]), np.array([1.0])

    cases = [dict(gamma=0.0), dict(gamma=-1.0), dict(gamma=math.nan), dict(gamma=math.inf),
             dict(gamma=1.0, p0=np.array([[0.0, math.nan]])), dict(gamma=1.0, p0=np.array([[math.inf, 0.0]])),
             dict(gamma=50.0, p0=np.array([[0.0, 1e308]]))]  # finite P whose exponent gamma P overflows
    for kwargs in cases:
        with pytest.raises(ValueError):
            run_learning(spec, rng=np.random.default_rng(0), periods=5, observer=observer, **kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before the contraction-bound warning
            with pytest.raises(ValueError):
                mean_dynamics_fixed_point(spec, **kwargs)
    for periods in (0, 2.5, True):
        with pytest.raises(ValueError, match="periods"):
            run_learning(spec, 1.0, periods, np.random.default_rng(0), observer=observer)
    # the payoff scale, and the certificate's temperature
    for scale in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="payoff_scale"):
            run_learning(spec, 1.0, 5, np.random.default_rng(0), observer=observer, payoff_scale=scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="payoff_scale"):
                mean_dynamics_fixed_point(spec, 0.01, payoff_scale=scale)
        with pytest.raises(ValueError, match="payoff_scale"):
            approx_ne_gap(spec, np.array([[0.5, 0.5]]), 1.0, payoff_scale=scale)
    for gamma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="temperature"):
            approx_ne_gap(spec, np.array([[0.5, 0.5]]), gamma)
    assert calls == []
    # the fixed point's own stopping rule, checked before the warning at a temperature above the bound
    spec = SpectrumGame.create(sa.InterferenceGraph.undirected(2, [(1, 2)]), [0.5, 0.5],
                               [[4.0, 4.0], [4.0, 4.0]], sa.RandomBackoff(8))
    for kwargs in (dict(tol=0.0), dict(tol=-1.0), dict(tol=math.nan), dict(tol=math.inf),
                   dict(max_iter=0), dict(max_iter=-3), dict(max_iter=2.0), dict(max_iter=True)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="tol|max_iter"):
                mean_dynamics_fixed_point(spec, 100.0, **kwargs)


def test_exact_observer_returns_payoff_bits_in_read_only_arrays():
    rng = np.random.default_rng(31)
    for kind in ("backoff", "asymptotic", "weighted", "aloha"):
        spec = random_game(rng, random_directed_graph(rng, 5, 0.5), 3, kind)
        observe = exact_observer(spec)
        for a in {tuple(int(c) for c in rng.integers(1, 4, 5)) for _ in range(40)}:
            est, realised = observe(a)
            assert est is realised and est is observe(a)[0]
            assert est.tolist() == [spec.payoff(a, n) for n in range(1, 6)]
            assert not est.flags.writeable
    # a noisy run perturbs copies: the arrays it was handed keep their values
    observe = exact_observer(spec)
    held = {}

    def watched(a):
        est, realised = observe(a)
        held[a] = (est, est.copy())
        return est, realised

    out = run_learning(spec, 2.0, 200, np.random.default_rng(4), observer=watched, noise=0.5)
    assert not np.array_equal(out.estimates[0], observe(tuple(out.channels[0].tolist()))[0])
    assert all(np.array_equal(est, copy) for est, copy in held.values())


def _q_user_major(spec, sigma):
    # reference: Q with the (user, channel, key) layout throughout, one
    # in-neighbour column at a time, on the game's (d_max, N) index transposed
    idx, valid = (x.T for x in spec._in_index)
    q = sigma[idx] * valid[:, :, None]
    if isinstance(spec.mechanism, sa.SlottedAloha):
        p = np.asarray(spec.mechanism.probs)
        g = np.repeat(p[:, None], spec.n_channels, axis=1)
        for j in range(idx.shape[1]):
            g *= 1.0 - q[:, j] * p[idx[:, j], None]
        return spec._value * g
    table, _, offset, step = spec._grab_table
    dist = np.zeros((spec.n_users, spec.n_channels, int(step.sum()) + 1))
    dist[..., 0] = 1.0
    support = 1
    for j, w in enumerate(step.tolist()):
        qj = q[:, j, :, None]
        moved = dist[..., :support] * qj
        dist[..., :support] *= 1.0 - qj
        dist[..., w : w + support] += moved
        support += w
    rows = table.take(offset[:, None] + np.arange(dist.shape[2]), mode="clip")
    return spec._value * (dist * rows[:, None, :]).sum(axis=2)


def test_q_from_sigma_matches_the_user_major_reference_bit_for_bit():
    # the column-major loop must leave every bit, the key sum's order included
    rng = np.random.default_rng(77)
    for trial in range(200):
        kind = ("backoff", "asymptotic", "weighted", "aloha")[trial % 4]
        n, m = int(rng.integers(1, 10)), int(rng.integers(1, 5))
        spec = random_game(rng, random_directed_graph(rng, n, rng.uniform(0.0, 1.0)), m, kind)
        sigma = rng.dirichlet(np.ones(m), n) if trial % 5 else np.eye(m)[rng.integers(0, m, n)]
        assert np.array_equal(q_from_sigma(spec, sigma), _q_user_major(spec, sigma)), (trial, kind)


def test_error_trace_does_not_depend_on_the_snapshot_chunk(monkeypatch):
    rng = np.random.default_rng(41)
    spec = random_game(rng, random_directed_graph(rng, 4, 0.5), 3, "weighted")
    oracle = rng.uniform(0, 5, (4, 3))
    runs = []
    for floats in (learning._SNAPSHOT_FLOATS, 7 * 4 * 3, 1):  # one chunk; chunks of 7 periods, the last cut; one period
        monkeypatch.setattr(learning, "_SNAPSHOT_FLOATS", floats)
        runs.append(run_learning(spec, 2.0, 50, np.random.default_rng(6), oracle=oracle, record=False))
    for out in runs[1:]:
        assert np.array_equal(out.error_trace, runs[0].error_trace)
        assert np.array_equal(out.perceptions, runs[0].perceptions)
    # the last entry is the final perceptions' distance
    assert runs[0].error_trace[-1] == np.max(np.abs(runs[0].perceptions - oracle))

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Statistical criteria use fixed seeds and are deterministic.
"""

import itertools
import math
import time
import zlib
from functools import lru_cache

import numpy as np
from conftest import (
    complete_undirected_graph,
    one_period,
    random_dag,
    random_forest,
    random_game,
    random_physical_game,
    random_undirected_graph,
)

import specaccess as sa
from specaccess.config import load_config
from specaccess.equilibria import construct_ne_dag, construct_ne_directed_tree
from specaccess.estimation import chain_counts, channel_estimates, user_estimates
from specaccess.game import (
    SpectrumGame,
    better_response_dynamics,
    enumerate_pure_ne,
    is_pure_ne,
    social_welfare_and_poa,
)
from specaccess.learning import (
    approx_ne_gap,
    boltzmann_profile,
    contraction_temperature_bound,
    mean_dynamics_fixed_point,
    q_from_sigma,
    run_learning,
)
from specaccess.potentials import potential_value, signed
from specaccess.simulator import (
    LearningPolicy,
    RandomAccessPolicy,
    SimStreams,
    compare_policies,
    sweep_gamma,
)

from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print("\n" + line)
    assert ok, line


def test_criterion_01_cycle_counterexample():
    t0 = time.time()
    g = sa.InterferenceGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    spec = SpectrumGame.create(g, [1.0, 1.0], [[1.0, 1.0]] * 3, sa.SlottedAloha((0.5, 0.5, 0.5)))
    ne = enumerate_pure_ne(spec)
    brd = better_response_dynamics(spec, (1, 1, 1), max_rounds=200)
    elapsed = time.time() - t0
    _report(
        1, "directed 3-cycle admits no pure NE and better responses cycle",
        ne == [] and not brd.converged and elapsed < 1.0,
        f"{len(ne)} equilibria over 8 profiles, BRD moves={len(brd.steps)}, {elapsed:.2f}s",
    )


@lru_cache(maxsize=None)
def _dag_instances():
    rng = np.random.default_rng(101)
    out = []
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 4))
        g = random_dag(rng, n, p=float(rng.uniform(0.2, 0.7)))
        theta = rng.uniform(0.1, 1.0, m)
        rates = rng.uniform(1.0, 10.0, (n, m))
        out.append(SpectrumGame.create(g, theta, rates, sa.RandomBackoff(10)))
    return tuple(out)


def test_criterion_02_dag_existence():
    t0 = time.time()
    ok = True
    for spec in _dag_instances():
        ne = enumerate_pure_ne(spec)
        constructed = construct_ne_dag(spec)
        if not ne or constructed not in ne:
            ok = False
            break
    elapsed = time.time() - t0
    _report(
        2, "200 random DAG instances all admit a pure NE containing the constructed one",
        ok and elapsed < 30.0, f"{elapsed:.1f}s",
    )


@lru_cache(maxsize=None)
def _forest_instances():
    rng = np.random.default_rng(202)
    out = []
    for trial in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 4))
        g = random_forest(rng, n)
        kind = "backoff" if trial % 2 == 0 else "aloha"
        out.append(random_game(rng, g, m, kind))
    return tuple(out)


def test_criterion_03_directed_tree_existence():
    t0 = time.time()
    ok = True
    for spec in _forest_instances():
        constructed = construct_ne_directed_tree(spec)
        if not is_pure_ne(spec, constructed).is_ne:
            ok = False
            break
    elapsed = time.time() - t0
    _report(
        3, "200 random directed trees/forests (backoff and Aloha) yield verified pure NE",
        ok and elapsed < 60.0, f"{elapsed:.1f}s",
    )


@lru_cache(maxsize=None)
def _potential_instances(variant: str):
    rng = np.random.default_rng(zlib.crc32(variant.encode()))
    out = []
    for _ in range(100):
        if variant == "physical":
            out.append(random_physical_game(rng))
            continue
        n = int(rng.integers(3, 5))
        m = int(rng.integers(2, 4))
        if variant == "backoff_complete":
            out.append(random_game(rng, complete_undirected_graph(n), m, "backoff", gains=True))
        elif variant == "backoff_asymptotic":
            out.append(random_game(rng, random_undirected_graph(rng, n, 0.6), m, "asymptotic",
                                   gains=True, channel_rates=True))
        elif variant == "weighted_share":
            out.append(random_game(rng, random_undirected_graph(rng, n, 0.6), m, "weighted",
                                   gains=True, channel_rates=True))
        elif variant == "homogeneous_backoff":
            out.append(random_game(rng, random_undirected_graph(rng, n, 0.6), m, "backoff",
                                   gains=True, homogeneous=True))
        elif variant == "aloha":
            out.append(random_game(rng, random_undirected_graph(rng, n, 0.6), m, "aloha", gains=True))
    return tuple(out)


def _all_deviation_signs_match(game, variant) -> bool:
    phi = {}
    for a in itertools.product(range(1, game.n_channels + 1), repeat=game.n_users):
        phi[a] = potential_value(game, a, variant)
    for a, phi_a in phi.items():
        for n in range(1, game.n_users + 1):
            u0 = game.payoff(a, n)
            for m in range(1, game.n_channels + 1):
                if m == a[n - 1]:
                    continue
                a2 = a[: n - 1] + (m,) + a[n:]
                u1 = game.payoff(a2, n)
                if signed(phi[a2] - phi_a, (phi_a, phi[a2])) != signed(u1 - u0, (u0, u1)):
                    return False
    return True


def test_criterion_04_potential_sign_equivalence():
    t0 = time.time()
    variants = ("backoff_complete", "backoff_asymptotic", "weighted_share",
                "homogeneous_backoff", "aloha", "physical")
    ok = True
    for variant in variants:
        for game in _potential_instances(variant):
            if not _all_deviation_signs_match(game, variant):
                ok = False
                break
        if not ok:
            break
    elapsed = time.time() - t0
    _report(
        4, "six potential variants match payoff signs on every deviation of 100 instances each",
        ok and elapsed < 60.0, f"{elapsed:.1f}s",
    )


def test_criterion_05_finite_improvement_property():
    t0 = time.time()
    rng = np.random.default_rng(55)
    ok = True
    for variant in ("backoff_asymptotic", "weighted_share", "aloha"):
        for spec in _potential_instances(variant):
            n, m = spec.n_users, spec.n_channels
            start = tuple(int(c) for c in rng.integers(1, m + 1, size=n))
            res = better_response_dynamics(spec, start, max_rounds=m * n * 200 + 5)
            if not res.converged or len(res.steps) > m * n * 200:
                ok = False
                break
            if not is_pure_ne(spec, res.profile).is_ne:
                ok = False
                break
            a = list(start)
            for step in res.steps:
                before = potential_value(spec, tuple(a), variant)
                a[step.user - 1] = step.new_channel
                if not potential_value(spec, tuple(a), variant) > before:
                    ok = False
                    break
        if not ok:
            break
    elapsed = time.time() - t0
    _report(
        5, "better responses terminate at a pure NE with strictly increasing potential",
        ok, f"{elapsed:.1f}s",
    )


def test_criterion_06_poa_bound():
    t0 = time.time()
    pool = list(_dag_instances()) + list(_forest_instances())
    for variant in ("backoff_complete", "backoff_asymptotic", "weighted_share",
                    "homogeneous_backoff", "aloha"):
        pool.extend(_potential_instances(variant))
    checked = 0
    ok = True
    for spec in pool:
        if spec.n_channels ** spec.n_users > 10**4:
            continue
        rep = social_welfare_and_poa(spec)  # raises on internal bound violation
        checked += 1
        if rep.poa is None or rep.poa < rep.lower_bound - 1e-9:
            ok = False
            break
    elapsed = time.time() - t0
    _report(
        6, "price of anarchy respects the structural lower bound on every instance",
        ok, f"{checked} instances, {elapsed:.1f}s",
    )


def test_criterion_07_mle_consistency():
    t0 = time.time()
    # channel-parameter MLE on a 1e5-slot Markov trace
    g1 = sa.InterferenceGraph.from_edges(1, [])
    sc1 = sa.Scenario(
        g1, [sa.MarkovChannel(0.2, 0.3)], sa.FixedRates([[1.0]]), sa.RandomBackoff(4),
        t_max=10**5, periods=1,
    )
    st1 = SimStreams.from_seed(71)
    (S1, I1, b1), _ = one_period(sc1, (1,), sc1.initial_channel_state(st1.channels), st1)
    est = user_estimates(channel_estimates(chain_counts(S1)), I1, b1)
    eps, xi, theta = est.epsilon[0], est.xi[0], est.theta[0]
    markov_ok = abs(eps - 0.2) <= 0.01 and abs(xi - 0.3) <= 0.01 and abs(theta - 0.4) <= 0.01

    # grab-probability MLE against the backoff formula with K = 2 contenders
    g2 = complete_undirected_graph(3)
    sc2 = sa.Scenario(
        g2, [sa.WhiteSpaceChannel(1)], sa.FixedRates([[1.0]] * 3), sa.RandomBackoff(10),
        t_max=10**5, periods=1,
    )
    st2 = SimStreams.from_seed(72)
    (S2, I2, b2), _ = one_period(sc2, (1, 1, 1), (1,), st2)
    ghat = user_estimates(channel_estimates(chain_counts(S2)), I2, b2).grab[0]
    gtrue = sa.grab_probability(sa.RandomBackoff(10), 1, {2, 3})
    grab_ok = abs(ghat - gtrue) <= 0.01
    elapsed = time.time() - t0
    _report(
        7, "Markov and grab MLEs within 0.01 of ground truth at 1e5 slots",
        markov_ok and grab_ok and elapsed < 10.0,
        f"|eps err|={abs(eps-0.2):.4f}, |g err|={abs(ghat-gtrue):.4f}, {elapsed:.1f}s",
    )


@lru_cache(maxsize=None)
def _contraction_specs():
    rng = np.random.default_rng(88)
    specs = []
    for trial in range(8):
        edges = {(i, j) for i in range(1, 5) for j in range(1, 5) if i != j and rng.random() < 0.5}
        g = sa.InterferenceGraph.from_edges(4, edges)
        kind = ("backoff", "aloha", "weighted", "asymptotic")[trial % 4]
        specs.append(random_game(rng, g, 3, kind))
    return tuple(specs)


@lru_cache(maxsize=None)
def _fixed_points():
    out = []
    for spec in _contraction_specs():
        gamma = 0.9 * contraction_temperature_bound(spec)
        out.append((spec, gamma, mean_dynamics_fixed_point(spec, gamma, tol=1e-12)))
    return tuple(out)


def test_criterion_08_contraction_and_fixed_point():
    t0 = time.time()
    rng = np.random.default_rng(8)
    ok = True
    worst_lip = 0.0
    for spec, gamma, fp in _fixed_points():
        vmax = spec._value.max()
        for _ in range(100):
            p1 = rng.uniform(0, vmax, (spec.n_users, spec.n_channels))
            p2 = rng.uniform(0, vmax, (spec.n_users, spec.n_channels))
            num = float(np.max(np.abs(q_from_sigma(spec, boltzmann_profile(p1 / 1.0, gamma))
                                      - q_from_sigma(spec, boltzmann_profile(p2 / 1.0, gamma)))))
            den = float(np.max(np.abs(p1 - p2)))
            worst_lip = max(worst_lip, num / den)
        if worst_lip >= 1.0 or not fp.converged or fp.residual >= 1e-10:
            ok = False
            break
        restart = mean_dynamics_fixed_point(
            spec, gamma, tol=1e-12, p0=rng.uniform(0, vmax, (spec.n_users, spec.n_channels))
        )
        if float(np.max(np.abs(restart.perceptions - fp.perceptions))) > 1e-8:
            ok = False
            break
    elapsed = time.time() - t0
    _report(
        8, "mean dynamics contract below the temperature bound with a unique fixed point",
        ok and elapsed < 30.0, f"max sampled Lipschitz {worst_lip:.3f}, {elapsed:.1f}s",
    )


def test_criterion_09_delta_gap_certificate():
    t0 = time.time()
    ok = True
    worst_slack = -math.inf
    for spec, gamma, fp in _fixed_points():
        cert = approx_ne_gap(spec, fp.sigma, gamma)
        worst_slack = max(worst_slack, cert.max_br_gain - cert.delta)
        if cert.max_br_gain > cert.delta + 1e-9:
            ok = False
        if cert.delta > math.log(spec.n_channels) / gamma + 1e-12:
            ok = False
    elapsed = time.time() - t0
    _report(
        9, "entropy gap bounds every exact best-response gain and (1/gamma) ln M bounds the gap",
        ok, f"max (gain - delta) = {worst_slack:.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_learning_tracks_mean_dynamics():
    t0 = time.time()
    spec, gamma, fp = _fixed_points()[0]
    early, late = [], []
    for seed in range(20):
        out = run_learning(
            spec, gamma, periods=10**4, rng=np.random.default_rng(1000 + seed),
            oracle=fp.perceptions, record=False,
        )
        early.append(out.error_trace[10**2 - 1])
        late.append(out.error_trace[10**4 - 1])
    e, l = float(np.mean(early)), float(np.mean(late))
    elapsed = time.time() - t0
    _report(
        10, "seed-averaged perception error vs the fixed point shrinks from T=1e2 to T=1e4",
        l < e and elapsed < 300.0, f"{e:.4f} -> {l:.4f}, {elapsed:.0f}s",
    )


def test_criterion_11_policy_comparison_and_gamma_sweep():
    t0 = time.time()
    cfg = load_config(CONFIGS / "learning_9user.json")
    scenario = cfg.scenario
    policies = [LearningPolicy(5.0, "auto"), RandomAccessPolicy()]
    rep = compare_policies(scenario, policies, replications=20, base_seed=2026)
    summary = rep.summary()
    learn_mean = summary["learning(gamma=5)"][0]
    random_mean = summary["random_access"][0]
    ratio = learn_mean / random_mean

    sweep = sweep_gamma(scenario, cfg.sweep_gammas, 20, 2026, LearningPolicy(5.0, "auto"))
    means = [m for _, m, _ in sweep]
    interior_peak = max(means[1:-1])
    shape_ok = interior_peak > means[0] and interior_peak > means[-1]
    elapsed = time.time() - t0
    _report(
        11, "learning beats random access by >= 20% and the welfare-vs-gamma curve has an interior peak",
        ratio >= 1.2 and shape_ok and elapsed < 900.0,
        f"ratio {ratio:.3f}, sweep " + "/".join(f"{m:.0f}" for m in means) + f", {elapsed:.0f}s",
    )

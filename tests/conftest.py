"""Shared random-instance generators and reference implementations for the
test suite."""

import itertools
import math

import numpy as np

import specaccess as sa
from specaccess.contention import grab_probability
from specaccess.simulator import _channel_states, _contention_draws, _resolve


def random_directed_graph(rng, n, p=0.4):
    edges = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j and rng.random() < p}
    return sa.InterferenceGraph.from_edges(n, edges)


def random_dag(rng, n, p=0.4):
    """Edges only forward along a random node order: acyclic by construction."""
    order = rng.permutation(np.arange(1, n + 1))
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((int(order[i]), int(order[j])))
    return sa.InterferenceGraph.from_edges(n, edges)


def random_forest(rng, n, p_tree=0.8):
    """Random directed forest: each non-root attaches to one earlier node with
    a random orientation (directed either way or undirected)."""
    edges = set()
    for v in range(2, n + 1):
        if rng.random() > p_tree:
            continue  # v starts a new tree
        parent = int(rng.integers(1, v))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            edges.add((parent, v))
        elif kind == 1:
            edges.add((v, parent))
        else:
            edges.update([(parent, v), (v, parent)])
    return sa.InterferenceGraph.from_edges(n, edges)


def random_undirected_graph(rng, n, p=0.5):
    links = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
    return sa.InterferenceGraph.undirected(n, links)


def complete_undirected_graph(n):
    return sa.InterferenceGraph.undirected(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


def random_mechanism(rng, n, kind):
    if kind == "backoff":
        return sa.RandomBackoff(int(rng.integers(2, 20)))
    if kind == "asymptotic":
        return sa.AsymptoticBackoff()
    if kind == "weighted":
        return sa.WeightedShare(tuple(rng.uniform(0.5, 3.0, n)))
    if kind == "aloha":
        return sa.SlottedAloha(tuple(rng.uniform(0.15, 0.85, n)))
    raise ValueError(kind)


def random_game(rng, graph, m, mech_kind="backoff", theta_low=0.1, gains=False,
                channel_rates=False, homogeneous=False):
    n = graph.n_users
    if homogeneous:
        theta = np.full(m, float(rng.uniform(theta_low, 1.0)))
        rates = np.full((n, m), float(rng.uniform(1.0, 10.0)))
    elif channel_rates:
        theta = rng.uniform(theta_low, 1.0, m)
        rates = np.tile(rng.uniform(1.0, 10.0, m), (n, 1))
    else:
        theta = rng.uniform(theta_low, 1.0, m)
        rates = rng.uniform(1.0, 10.0, (n, m))
    g = tuple(rng.uniform(0.5, 2.0, n)) if gains else None
    return sa.SpectrumGame.create(graph, theta, rates, random_mechanism(rng, n, mech_kind), g)


def random_physical_game(rng):
    n = int(rng.integers(3, 5))
    m = int(rng.integers(2, 4))
    pos = rng.uniform(0, 100, (n, 2))
    d = [[float(np.linalg.norm(pos[i] - pos[j])) if i != j else 0.0 for j in range(n)] for i in range(n)]
    return sa.PhysicalGame(
        bandwidth=10.0,
        tx_power=tuple(rng.uniform(0.05, 0.2, n)),
        own_distance=tuple(rng.uniform(1.0, 10.0, n)),
        cross_distance=tuple(tuple(row) for row in d),
        path_loss=float(rng.uniform(2.0, 4.0)),
        noise=1e-7,
        primary_interference=tuple(tuple(rng.uniform(0, 1e-6, m)) for _ in range(n)),
        idle_prob=(float(rng.uniform(0.2, 1.0)),) * m,
    )


# --- references ----------------------------------------------------------------

def one_period(scenario, a, state, streams):
    """t_max consecutive slots after channel state `state`, with every user
    holding its channel in a, drawn period by period (the chain, then one
    (t_max, N) draw of races and of fading): the (S, I, b) blocks, each
    (t_max, N), and the carried channel state."""
    t, n = scenario.t_max, scenario.game.n_users
    states, final = _channel_states(scenario.channel_models, state, t, streams.channels)
    races = _contention_draws(scenario, streams, (t,))
    fading = streams.fading.standard_exponential((t, n))
    ch = np.broadcast_to(np.array(a, dtype=np.int64), (t, n))
    return _resolve(scenario, states, ch, races, fading), final


def array_user_estimates(channel, I, b):
    """The user half as numpy array arithmetic on (N,) fields: each user's
    grabs and rate sum, then grab probability, rate and throughput with
    numpy's 0/0 giving NaN. The reference for the package's user half on
    Python floats."""
    sum_s, eps, xi, theta = (np.asarray(x) for x in channel)
    sum_i, sum_b = I.sum(axis=0), np.ascontiguousarray(b.T).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        grab = np.true_divide(sum_i, sum_s)
        rate = np.true_divide(sum_b, sum_i)
    return sum_s, sum_i, sum_b, eps, xi, theta, grab, rate, theta * rate * grab


def loop_estimates(S, I, b):
    """The MLEs of one user's trace by explicit loops: (epsilon, xi, theta,
    grab, rate, throughput), NaN where a ratio is 0/0. The rate sum is the
    sum of the trace alone, whose rounding the package's per-user sums keep."""
    counts = {(i, j): 0 for i in (0, 1) for j in (0, 1)}
    for k in range(1, len(S)):
        counts[int(S[k - 1]), int(S[k])] += 1
    idle = grabs = 0
    for k in range(len(S)):
        idle += int(S[k])
        grabs += int(I[k])

    def ratio(num, den):
        return num / den if den else math.nan

    eps = ratio(counts[0, 1], counts[0, 0] + counts[0, 1])
    xi = ratio(counts[1, 0], counts[1, 1] + counts[1, 0])
    theta = ratio(eps, eps + xi)
    grab = ratio(grabs, idle)
    rate = ratio(float(np.sum(b)), grabs)
    return eps, xi, theta, grab, rate, theta * rate * grab


def rate_values(rates, user, channel, fading):
    """Per-slot rates of one cell, user and channel (both 0-based), of the
    rate model rates for standard-exponential fading draws: the fixed rate,
    or W log2(1 + eta z / omega) with the power gain z = fading * mean gain.
    The reference for the simulator's rate realisation."""
    fading = np.asarray(fading, dtype=float)
    if isinstance(rates, sa.FixedRates):
        return np.full(fading.shape, rates.mean[user][channel])
    g = rates.mean_gain[user][channel]
    return rates.bandwidth * np.log2(1.0 + rates.tx_power * (fading * g) / rates.noise_power)


def expected_grab(mech, n, membership):
    """E over independent contender memberships of g_n(S), by enumerating the
    subsets of the potential contenders: the reference for Q.

    membership maps each potential contender i to P(i contends on the channel).
    """
    members = sorted(membership)
    total = 0.0
    for r in range(len(members) + 1):
        for combo in itertools.combinations(members, r):
            s = frozenset(combo)
            w = 1.0
            for i in members:
                w *= membership[i] if i in s else 1.0 - membership[i]
            if w == 0.0:
                continue
            total += w * grab_probability(mech, n, s)
    return total


def expected_grab_mc(mech, n, membership, samples, rng):
    """Monte-Carlo estimate of E[g_n(S)] with its standard error."""
    members = sorted(membership)
    qs = np.array([membership[i] for i in members])
    draws = np.empty(samples)
    for t in range(samples):
        s = frozenset(i for i, q in zip(members, qs) if rng.random() < q)
        draws[t] = grab_probability(mech, n, s)
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(samples))

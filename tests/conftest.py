"""Shared random-instance generators for the test suite."""

import numpy as np

import specaccess as sa


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
        n_channels=m,
        bandwidth=10.0,
        tx_power=tuple(rng.uniform(0.05, 0.2, n)),
        own_distance=tuple(rng.uniform(1.0, 10.0, n)),
        cross_distance=tuple(tuple(row) for row in d),
        path_loss=float(rng.uniform(2.0, 4.0)),
        noise=1e-7,
        primary_interference=tuple(tuple(rng.uniform(0, 1e-6, m)) for _ in range(n)),
        idle_prob=(float(rng.uniform(0.2, 1.0)),) * m,
    )

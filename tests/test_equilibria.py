import logging
from pathlib import Path

import numpy as np
import pytest
from conftest import random_dag, random_directed_graph, random_forest, random_game

import specaccess as sa
from specaccess import equilibria, game
from specaccess.config import load_config
from specaccess.contention import backoff_success_probability
from specaccess.equilibria import (
    construct_ne_bipartite,
    construct_ne_dag,
    construct_ne_directed_tree,
    solve_pure_ne,
)
from specaccess.errors import PreconditionError, ResourceLimitError
from specaccess.game import SpectrumGame, enumerate_pure_ne, is_pure_ne
from specaccess.graph import classify

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_dag_requires_acyclic():
    g = sa.InterferenceGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    spec = SpectrumGame.create(g, [1.0, 1.0], [[1.0, 1.0]] * 3, sa.SlottedAloha((0.5,) * 3))
    with pytest.raises(PreconditionError):
        construct_ne_dag(spec)


def test_dag_empty_graph_everyone_on_argmax():
    g = sa.InterferenceGraph.from_edges(3, [])
    spec = SpectrumGame.create(
        g, [0.5, 0.9], [[10.0, 2.0], [1.0, 9.0], [4.0, 4.0]], sa.RandomBackoff(8)
    )
    a = construct_ne_dag(spec)
    assert a == (1, 2, 2)  # 0.9 * 4 > 0.5 * 4 for user 3


def test_dag_two_user_best_response_logic():
    # edge (1, 2): user 1 picks the top channel; user 2 joins iff sharing beats
    # the runner-up channel
    g = sa.InterferenceGraph.from_edges(2, [(1, 2)])
    for lam, expect_share in ((2, False), (1000, True)):
        # theta*B = (10, 4); sharing value 10 * g({1}) vs runner-up 4
        spec = SpectrumGame.create(g, [1.0, 1.0], [[10.0, 4.0], [10.0, 4.0]], sa.RandomBackoff(lam))
        a = construct_ne_dag(spec)
        assert a[0] == 1
        shared = 10.0 * backoff_success_probability(lam, 1)
        assert (a[1] == 1) == (shared > 4.0) == expect_share


def test_dag_random_instances_member_of_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 4))
        spec = random_game(rng, random_dag(rng, n), m, "backoff")
        a = construct_ne_dag(spec)
        assert a in enumerate_pure_ne(spec)


def test_tree_single_node():
    g = sa.InterferenceGraph.from_edges(1, [])
    spec = SpectrumGame.create(g, [0.2, 0.9], [[5.0, 2.0]], sa.RandomBackoff(4))
    assert construct_ne_directed_tree(spec) == (2,)


def test_tree_path_three_nodes():
    g = sa.InterferenceGraph.from_edges(3, [(1, 2), (2, 3)])
    rng = np.random.default_rng(0)
    spec = random_game(rng, g, 2, "backoff")
    a = construct_ne_directed_tree(spec)
    assert is_pure_ne(spec, a).is_ne
    assert a in enumerate_pure_ne(spec)


def test_tree_requires_forest():
    g = sa.InterferenceGraph.undirected(3, [(1, 2), (2, 3), (1, 3)])  # triangle
    spec = SpectrumGame.create(g, [1.0, 1.0], [[1.0, 1.0]] * 3, sa.RandomBackoff(4))
    with pytest.raises(PreconditionError):
        construct_ne_directed_tree(spec)


def test_tree_precondition_matches_classification():
    # the construction's own forest test (skeleton edges = N - components)
    # accepts exactly the graphs classify calls directed forests
    rng = np.random.default_rng(89)
    accepted = 0
    for case in range(300):
        n = int(rng.integers(1, 8))
        g = random_forest(rng, n) if case % 2 else random_directed_graph(rng, n, float(rng.uniform(0.05, 0.4)))
        spec = random_game(rng, g, int(rng.integers(1, 4)))
        try:
            a = construct_ne_directed_tree(spec)
        except PreconditionError:
            assert not classify(g).directed_forest, case
        else:
            assert classify(g).directed_forest and is_pure_ne(spec, a).is_ne, case
            accepted += 1
    assert 150 < accepted < 300


@pytest.mark.parametrize("leaves", [13, 16])
def test_tree_weighted_share_star_beyond_twelve_in_neighbours(leaves):
    # every leaf interferes with the hub, user 1: |in(1)| = leaves
    rng = np.random.default_rng(leaves)
    g = sa.InterferenceGraph.from_edges(leaves + 1, [(v, 1) for v in range(2, leaves + 2)])
    spec = random_game(rng, g, 2, "weighted")
    a = construct_ne_directed_tree(spec)
    assert is_pure_ne(spec, a).is_ne
    assert a in enumerate_pure_ne(spec)


def test_tree_random_instances_verified(caplog):
    rng = np.random.default_rng(123)
    for trial in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 4))
        kind = "backoff" if trial % 2 == 0 else "aloha"
        spec = random_game(rng, random_forest(rng, n), m, kind)
        a = construct_ne_directed_tree(spec)
        assert is_pure_ne(spec, a).is_ne
        assert a in enumerate_pure_ne(spec)


def _forest_with_a_2cycle(rng, n):
    # a forest without a 2-cycle is a DAG, which solve hands to the DAG routine
    while True:
        g = random_forest(rng, n)
        if not classify(g).directed_acyclic:
            return g


def test_tree_budget_fallback_logs_and_verifies(caplog):
    rng = np.random.default_rng(5)
    spec = random_game(rng, _forest_with_a_2cycle(rng, 6), 2, "backoff")
    with pytest.raises(ResourceLimitError, match="recursion budget"):
        construct_ne_directed_tree(spec, recursion_budget=1)
    with caplog.at_level(logging.WARNING):
        routine, a = solve_pure_ne(spec, recursion_budget=1)
    assert routine == "enumeration" and is_pure_ne(spec, a).is_ne
    assert any("recursion budget" in rec.message for rec in caplog.records)


def test_enumerated_forest_without_an_equilibrium_is_an_error(monkeypatch):
    # every forest has a pure NE, so an enumeration that finds none is a bug
    rng = np.random.default_rng(5)
    spec = random_game(rng, _forest_with_a_2cycle(rng, 6), 2, "backoff")
    monkeypatch.setattr(equilibria, "first_pure_ne", lambda spec, cap: None)
    with pytest.raises(RuntimeError, match="no pure NE on a forest"):
        solve_pure_ne(spec, recursion_budget=1)


def _bipartite_game(theta_b, lam=10, sizes=(2, 2)):
    n1, n2 = sizes
    n = n1 + n2
    links = [(i, j) for i in range(1, n1 + 1) for j in range(n1 + 1, n + 1)]
    g = sa.InterferenceGraph.undirected(n, links)
    theta = [1.0] * len(theta_b)
    rates = [list(theta_b)] * n
    return SpectrumGame.create(g, theta, rates, sa.RandomBackoff(lam))


def test_bipartite_all_on_top_channel():
    # theta*B = (10, 1); 10 * f(2) ~ 2.85 >= 1 -> everyone on channel 1
    spec = _bipartite_game((10.0, 1.0))
    a = construct_ne_bipartite(spec)
    assert a == (1, 1, 1, 1)
    assert is_pure_ne(spec, a).is_ne


def test_bipartite_split_assignment():
    # theta*B = (10, 9); 10 * f(2) ~ 2.85 < 9 -> sides split across channels
    spec = _bipartite_game((10.0, 9.0))
    a = construct_ne_bipartite(spec)
    assert sorted(a) == [1, 1, 2, 2]
    assert is_pure_ne(spec, a).is_ne
    assert a in enumerate_pure_ne(spec)


def test_bipartite_single_channel():
    spec = _bipartite_game((7.0,))
    assert construct_ne_bipartite(spec) == (1, 1, 1, 1)


def test_bipartite_larger_side_gets_top_channel():
    # K_{3,1}: the larger side must take the better channel when splitting
    spec = _bipartite_game((10.0, 9.0), sizes=(3, 1))
    a = construct_ne_bipartite(spec)
    assert is_pure_ne(spec, a).is_ne
    assert a[:3] == (1, 1, 1) and a[3] == 2


def test_bipartite_regular_cycle():
    # C6 is 2-regular bipartite but not complete bipartite
    g = sa.InterferenceGraph.undirected(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
    spec = SpectrumGame.create(g, [1.0, 1.0], [[10.0, 9.0]] * 6, sa.RandomBackoff(10))
    cls = sa.classify(g)
    assert cls.regular_bipartite and not cls.complete_bipartite
    a = construct_ne_bipartite(spec)
    assert is_pure_ne(spec, a).is_ne


def test_bipartite_preconditions():
    spec = _bipartite_game((10.0, 1.0))
    aloha = SpectrumGame.create(spec.graph, spec.idle_prob, spec.mean_rate, sa.SlottedAloha((0.5,) * 4))
    with pytest.raises(PreconditionError):
        construct_ne_bipartite(aloha)
    uneven = SpectrumGame.create(
        spec.graph, spec.idle_prob,
        [[10.0, 1.0], [10.0, 1.0], [10.0, 1.0], [5.0, 1.0]],  # user-specific rates
        sa.RandomBackoff(10),
    )
    with pytest.raises(PreconditionError):
        construct_ne_bipartite(uneven)
    triangle = sa.InterferenceGraph.undirected(3, [(1, 2), (2, 3), (1, 3)])
    odd = SpectrumGame.create(triangle, [1.0], [[1.0]] * 3, sa.RandomBackoff(3))
    with pytest.raises(PreconditionError):
        construct_ne_bipartite(odd)


def test_bipartite_gains_allowed():
    spec = _bipartite_game((10.0, 9.0))
    withgains = SpectrumGame.create(
        spec.graph, spec.idle_prob, spec.mean_rate, spec.mechanism, gain=[0.5, 1.0, 2.0, 1.5]
    )
    a = construct_ne_bipartite(withgains)
    assert is_pure_ne(withgains, a).is_ne


def test_solve_pure_ne_picks_the_first_construction_that_applies():
    star = sa.InterferenceGraph.undirected(5, [(1, j) for j in range(2, 6)])
    k23 = _bipartite_game((10.0, 9.0), sizes=(2, 3))
    cases = [
        (random_game(np.random.default_rng(3), random_dag(np.random.default_rng(4), 5), 3), "dag"),
        (SpectrumGame.create(star, [0.6, 0.8], [[4.0, 3.0]] * 5, sa.RandomBackoff(6)), "directed_tree"),
        (k23, "bipartite"),
        (SpectrumGame.create(k23.graph, k23.idle_prob, k23.mean_rate, sa.SlottedAloha((0.5,) * 5)),
         "enumeration"),
    ]
    for spec, routine in cases:
        got, profile = solve_pure_ne(spec)
        assert got == routine and is_pure_ne(spec, profile).is_ne
    # the directed 3-cycle under Aloha on two equal channels has no pure NE
    cycle = sa.InterferenceGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    spec = SpectrumGame.create(cycle, [1.0, 1.0], [[1.0, 1.0]] * 3, sa.SlottedAloha((0.5,) * 3))
    assert solve_pure_ne(spec) == ("enumeration", None)


def test_enumeration_fallbacks_stop_at_the_first_equilibrium(monkeypatch):
    # solve's enumeration, on general graphs and on forests past the tree
    # routine's budget, returns enumerate_pure_ne(spec)[0], or None without an
    # NE, and scans no block after the one that holds it
    blocks = []
    scan = game._scan
    monkeypatch.setattr(game, "_scan", lambda spec, cap: (blocks.append(b) or b for b in scan(spec, cap)))

    def first_block_with(spec, a):
        # profiles are scanned in lexicographic order, in blocks of equal size
        m = spec.n_channels
        rank = sum((ch - 1) * m ** (spec.n_users - 1 - i) for i, ch in enumerate(a))
        return rank // len(blocks[0].is_ne) + 1

    rng = np.random.default_rng(41)
    seen = {"general": 0, "forest": 0, "none": 0}
    for trial in range(16):
        kind = ("backoff", "asymptotic", "weighted", "aloha")[trial % 4]
        n, m = ((12, 2), (7, 3))[trial // 4 % 2]
        graph = _forest_with_a_2cycle(rng, n) if trial >= 8 else random_directed_graph(rng, n, 0.4)
        spec = random_game(rng, graph, m, kind)
        ne = enumerate_pure_ne(spec)
        blocks.clear()
        routine, a = solve_pure_ne(spec, recursion_budget=1)
        assert routine == "enumeration" and a == (ne[0] if ne else None)
        assert len(blocks) == (first_block_with(spec, a) if ne else m ** n // len(blocks[0].is_ne))
        seen["none" if not ne else "forest" if trial >= 8 else "general"] += 1
    assert seen == {"general": 7, "forest": 8, "none": 1}
    blocks.clear()
    assert solve_pure_ne(load_config(CONFIGS / "triangle_no_ne.json").scenario.game) == ("enumeration", None)
    assert len(blocks) == 1

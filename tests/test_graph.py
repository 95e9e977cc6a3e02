import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specaccess.graph import InterferenceGraph, UserPlacement, classify, graph_from_locations, skeleton_walk


def test_edge_within_range_present():
    g = graph_from_locations([
        UserPlacement((0, 0), (100, 100), 10),
        UserPlacement((50, 0), (5, 0), 1),
    ])
    assert (1, 2) in g.edges  # |Tx1 - Rx2| = 5 <= 10


def test_edge_outside_range_absent():
    g = graph_from_locations([
        UserPlacement((0, 0), (100, 100), 10),
        UserPlacement((50, 0), (50, 0), 1),
    ])
    assert (1, 2) not in g.edges  # |Tx1 - Rx2| = 50 > 10


def test_three_user_geometry():
    # Rx1 far from Tx2/Tx3; Rx2 inside range of Tx1 and Tx3; Rx3 inside range of Tx2
    placements = [
        UserPlacement(tx=(0, 0), rx=(0, 1), interference_range=5),
        UserPlacement(tx=(10, 0), rx=(4, 0), interference_range=3),
        UserPlacement(tx=(8, 0), rx=(12, 0), interference_range=5),
    ]
    g = graph_from_locations(placements)
    assert g.edges == frozenset({(1, 2), (3, 2), (2, 3)})
    assert g.in_neighbors(2) == {1, 3}
    assert g.in_neighbors(1) == frozenset()


def test_placement_validation():
    with pytest.raises(ValueError):
        UserPlacement((0, float("nan")), (0, 0), 1.0)
    with pytest.raises(ValueError):
        UserPlacement((0, 0), (0, 0), 0.0)
    with pytest.raises(ValueError):
        graph_from_locations([])


def test_graph_validation():
    with pytest.raises(ValueError):
        InterferenceGraph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError):
        InterferenceGraph.from_edges(2, [(1, 3)])
    g = InterferenceGraph.from_edges(3, [(1, 2)])
    with pytest.raises(ValueError):
        g.in_neighbors(4)


def test_classify_simple_dag():
    g = InterferenceGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    cls = classify(g)
    assert cls.directed_acyclic
    assert cls.topological_order == (1, 2, 3)
    assert "directed_acyclic" in cls.classes


def test_classify_directed_3cycle_general_only():
    g = InterferenceGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    cls = classify(g)
    assert cls.classes == frozenset({"general_directed"})
    assert not cls.directed_acyclic and not cls.directed_tree and not cls.directed_forest


def test_classify_undirected_star():
    g = InterferenceGraph.undirected(5, [(1, i) for i in range(2, 6)])
    cls = classify(g)
    assert cls.directed_tree and cls.undirected and cls.complete_bipartite
    assert cls.bipartition == ((1,), (2, 3, 4, 5))
    assert not cls.general_directed
    assert not cls.regular_bipartite  # degrees 4 vs 1


def test_classify_even_cycle_regular_bipartite():
    g = InterferenceGraph.undirected(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    cls = classify(g)
    assert cls.regular_bipartite and cls.regular_degree == 2
    assert cls.complete_bipartite  # C4 == K_{2,2}
    assert not cls.directed_forest


def test_classify_complete_undirected():
    g = InterferenceGraph.undirected(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    cls = classify(g)
    assert cls.complete_undirected and cls.undirected
    assert not cls.complete_bipartite  # odd cycles present


def test_in_neighbors_cycle_and_isolated():
    g = InterferenceGraph.from_edges(4, [(1, 2), (2, 3), (3, 1)])
    assert g.in_neighbors(2) == {1}
    assert g.in_neighbors(4) == frozenset()
    u = InterferenceGraph.undirected(2, [(1, 2)])
    assert u.in_neighbors(1) == {2} and u.in_neighbors(2) == {1}


def _has_directed_cycle(n_users, edges):
    """Independent DFS-based cycle detection (oracle for the Kahn-based classifier)."""
    adj = {i: [] for i in range(1, n_users + 1)}
    for i, j in edges:
        adj[i].append(j)
    color = {i: 0 for i in adj}  # 0 white, 1 grey, 2 black

    def dfs(u):
        color[u] = 1
        for v in adj[u]:
            if color[v] == 1:
                return True
            if color[v] == 0 and dfs(v):
                return True
        color[u] = 2
        return False

    return any(color[i] == 0 and dfs(i) for i in adj)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return InterferenceGraph.from_edges(n, edges)


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_dag_flag_matches_independent_cycle_detection(g):
    cls = classify(g)
    assert cls.directed_acyclic == (not _has_directed_cycle(g.n_users, g.edges))


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_topological_order_respects_every_edge(g):
    cls = classify(g)
    if cls.topological_order is None:
        return
    pos = {n: k for k, n in enumerate(cls.topological_order)}
    assert sorted(pos) == list(range(1, g.n_users + 1))
    for i, j in g.edges:
        assert pos[i] < pos[j]


def _union_find_components(n_users, edges):
    """Union-find over the skeleton (oracle for the walk's component roots)."""
    root = list(range(n_users + 1))

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    for i, j in edges:
        root[find(i)] = find(j)
    return len({find(u) for u in range(1, n_users + 1)})


def _has_odd_cycle(n_users, edges):
    """Brute force over all 2^n colourings: an odd skeleton cycle exists iff none is proper."""
    return not any(
        all(c[i - 1] != c[j - 1] for i, j in edges)
        for c in itertools.product((0, 1), repeat=n_users)
    )


def _symmetrised(g):
    return InterferenceGraph.undirected(g.n_users, g.edges)


_any_graphs = st.one_of(graphs(), graphs().map(_symmetrised))


@given(_any_graphs)
@settings(max_examples=150, deadline=None)
def test_forest_flags_match_union_find_component_count(g):
    n_links = len(g.skeleton())
    components = _union_find_components(g.n_users, g.edges)
    cls = classify(g)
    assert cls.directed_forest == (n_links == g.n_users - components)
    assert cls.directed_tree == (cls.directed_forest and components == 1)


@given(_any_graphs)
@settings(max_examples=150, deadline=None)
def test_walk_coloring_is_none_exactly_on_odd_cycles(g):
    odd = _has_odd_cycle(g.n_users, g.edges)
    _, _, color = skeleton_walk(g)
    assert (color is None) == odd
    cls = classify(g)
    if odd:
        assert cls.bipartition is None and not (cls.complete_bipartite or cls.regular_bipartite)
    if cls.bipartition is not None:
        v1, v2 = cls.bipartition
        assert sorted(v1 + v2) == list(range(1, g.n_users + 1))
        assert all((i in v1) != (j in v1) for i, j in g.edges)


@given(_any_graphs)
@settings(max_examples=150, deadline=None)
def test_skeleton_walk_is_a_proper_breadth_first_forest(g):
    order, parent, color = skeleton_walk(g)
    assert sorted(order) == list(range(1, g.n_users + 1))
    pos = {n: k for k, n in enumerate(order)}
    roots = [n for n in order if parent[n] is None]
    assert roots == sorted(roots) and len(roots) == _union_find_components(g.n_users, g.edges)
    for n in order:
        if parent[n] is not None:
            assert frozenset((n, parent[n])) in g.skeleton() and pos[parent[n]] < pos[n]
    if color is not None:
        assert set(color) == set(order) and all(color[i] != color[j] for i, j in g.edges)


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_in_neighbors_is_exact_preimage(g):
    for n in range(1, g.n_users + 1):
        assert g.in_neighbors(n) == {i for (i, j) in g.edges if j == n}


@given(st.integers(2, 6), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_locations_monotone_in_interference_range(n, r):
    placements = [
        UserPlacement((r.uniform(0, 50), r.uniform(0, 50)),
                      (r.uniform(0, 50), r.uniform(0, 50)),
                      r.uniform(1, 30))
        for _ in range(n)
    ]
    g1 = graph_from_locations(placements)
    k = r.randrange(n)
    p = placements[k]
    placements[k] = UserPlacement(p.tx, p.rx, p.interference_range * 2.0)
    g2 = graph_from_locations(placements)
    lost = g1.edges - g2.edges
    assert all(i != k + 1 for i, _ in lost) and not lost


def test_forest_classification():
    # two separate directed trees
    g = InterferenceGraph.from_edges(5, [(1, 2), (3, 2), (4, 5)])
    cls = classify(g)
    assert cls.directed_forest and not cls.directed_tree
    single = InterferenceGraph.from_edges(1, [])
    c1 = classify(single)
    assert c1.directed_tree and c1.directed_forest and c1.undirected

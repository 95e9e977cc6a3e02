"""Directed interference graphs: construction, validation, classification.

Users are 1-indexed. A directed edge (i, j) means user i's transmitter can
degrade user j's reception; an undirected link is stored as both (i, j) and
(j, i). The structural classes recognised here (DAG, directed tree/forest,
undirected, bipartite variants, complete) are exactly the ones that carry
pure-equilibrium guarantees in the game module.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Sequence

Edge = tuple[int, int]


@dataclass(frozen=True)
class UserPlacement:
    """Transmitter/receiver coordinates (meters) and interference range of one user."""

    tx: tuple[float, float]
    rx: tuple[float, float]
    interference_range: float

    def __post_init__(self) -> None:
        coords = (*self.tx, *self.rx, self.interference_range)
        if not all(math.isfinite(float(c)) for c in coords):
            raise ValueError("placement coordinates and range must be finite")
        if self.interference_range <= 0:
            raise ValueError("interference range must be positive")


@dataclass(frozen=True)
class InterferenceGraph:
    """Immutable directed interference graph on users 1..n_users."""

    n_users: int
    edges: frozenset[Edge]
    _in: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    _out: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("graph needs at least one user")
        object.__setattr__(self, "edges", frozenset((int(i), int(j)) for i, j in self.edges))
        ins: list[set[int]] = [set() for _ in range(self.n_users + 1)]
        outs: list[set[int]] = [set() for _ in range(self.n_users + 1)]
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-edge ({i},{j}) not allowed")
            if not (1 <= i <= self.n_users and 1 <= j <= self.n_users):
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.n_users}")
            ins[j].add(i)
            outs[i].add(j)
        object.__setattr__(self, "_in", tuple(frozenset(s) for s in ins))
        object.__setattr__(self, "_out", tuple(frozenset(s) for s in outs))

    @classmethod
    def from_edges(cls, n_users: int, edges: Iterable[Sequence[int]]) -> "InterferenceGraph":
        return cls(n_users=n_users, edges=edges)

    @classmethod
    def undirected(cls, n_users: int, links: Iterable[Sequence[int]]) -> "InterferenceGraph":
        """Build a graph where every listed link interferes both ways."""
        return cls(n_users=n_users, edges=[e for i, j in links for e in ((i, j), (j, i))])

    def in_neighbors(self, n: int) -> frozenset[int]:
        """Users that can cause interference to user n."""
        self._check_index(n)
        return self._in[n]

    def out_neighbors(self, n: int) -> frozenset[int]:
        self._check_index(n)
        return self._out[n]

    def _check_index(self, n: int) -> None:
        if not (1 <= n <= self.n_users):
            raise ValueError(f"user index {n} out of range 1..{self.n_users}")

    @property
    def is_undirected(self) -> bool:
        return all((j, i) in self.edges for i, j in self.edges)

    def skeleton(self) -> frozenset[frozenset[int]]:
        """Undirected link set obtained by ignoring edge directions."""
        return frozenset(frozenset(e) for e in self.edges)

    @property
    def max_in_degree(self) -> int:
        return max(len(self._in[n]) for n in range(1, self.n_users + 1))

    # computed once and kept with the graph (read-only): classify and the tree construction read them
    _walk = cached_property(lambda self: skeleton_walk(self))
    _classification = cached_property(lambda self: _classify(self))


def graph_from_locations(placements: Sequence[UserPlacement]) -> InterferenceGraph:
    """Derive the interference edge set from Tx/Rx geometry.

    Edge (i, j) is present iff the distance from user i's transmitter to user
    j's receiver is within i's interference range. Self-edges are excluded by
    construction.
    """
    if len(placements) < 1:
        raise ValueError("need at least one placement")
    n = len(placements)
    edges: set[Edge] = set()
    for i, pi in enumerate(placements, start=1):
        for j, pj in enumerate(placements, start=1):
            if i == j:
                continue
            d = math.dist(pi.tx, pj.rx)
            if d <= pi.interference_range:
                edges.add((i, j))
    return InterferenceGraph(n_users=n, edges=frozenset(edges))


@dataclass(frozen=True)
class GraphClassification:
    """Full set of structural classes a graph satisfies, with witnesses."""

    directed_acyclic: bool
    topological_order: tuple[int, ...] | None
    directed_tree: bool
    directed_forest: bool
    undirected: bool
    complete_undirected: bool
    complete_bipartite: bool
    regular_bipartite: bool
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
    regular_degree: int | None
    general_directed: bool

    @property
    def classes(self) -> frozenset[str]:
        return frozenset(f.name for f in fields(self) if f.type == "bool" and getattr(self, f.name))


def _topological_order(g: InterferenceGraph) -> tuple[int, ...] | None:
    """Kahn's algorithm; ties broken by ascending node index. None if cyclic."""
    indeg = {n: len(g.in_neighbors(n)) for n in range(1, g.n_users + 1)}
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in g.out_neighbors(n):
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    if len(order) != g.n_users:
        return None
    return tuple(order)


def skeleton_walk(g: InterferenceGraph) -> tuple[list[int], dict[int, int | None], dict[int, int] | None]:
    """Breadth-first walk of the undirected skeleton, each component from its
    lowest unvisited node, neighbours in ascending order. Returns the visit
    order, each node's parent (None at a component root) and the depth-parity
    2-colouring, which is None if an edge joins two nodes of the same colour
    (an odd cycle)."""
    order: list[int] = []
    parent: dict[int, int | None] = {}
    color: dict[int, int] = {}
    proper, head = True, 0  # order[head:] is the queue
    for root in range(1, g.n_users + 1):
        if root in parent:
            continue
        parent[root], color[root] = None, 0
        order.append(root)
        while head < len(order):
            u = order[head]
            head += 1
            for v in sorted(g._in[u] | g._out[u]):
                if v not in parent:
                    parent[v], color[v] = u, 1 - color[u]
                    order.append(v)
                elif color[v] == color[u]:
                    proper = False
    return order, parent, color if proper else None


def classify(g: InterferenceGraph) -> GraphClassification:
    """Report every structural class the graph satisfies (computed once, kept with the graph).

    Bipartite completeness/regularity is only assessed on fully undirected
    graphs; any graph with at least one one-way edge is tagged
    ``general_directed`` (possibly alongside DAG/tree flags).
    """
    return g._classification


def _classify(g: InterferenceGraph) -> GraphClassification:
    topo = _topological_order(g)
    undirected = g.is_undirected
    skeleton = g.skeleton()
    _, parent, color = g._walk
    n_components = sum(p is None for p in parent.values())
    n_skel_edges = len(skeleton)
    is_forest = n_skel_edges == g.n_users - n_components
    is_tree = is_forest and n_components == 1

    complete_undirected = False
    complete_bipartite = False
    regular_bipartite = False
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    regular_degree: int | None = None

    if undirected:
        wanted = g.n_users * (g.n_users - 1) // 2
        complete_undirected = n_skel_edges == wanted
        if color is not None and n_skel_edges > 0:
            v1 = tuple(sorted(n for n, c in color.items() if c == 0))
            v2 = tuple(sorted(n for n, c in color.items() if c == 1))
            if v1 and v2:
                complete_bipartite = all(
                    frozenset((a, b)) in skeleton for a in v1 for b in v2
                )
                degrees = {len(g.in_neighbors(n)) for n in range(1, g.n_users + 1)}
                if len(degrees) == 1:
                    d = degrees.pop()
                    if d >= 1:
                        regular_bipartite = True
                        regular_degree = d
                if complete_bipartite or regular_bipartite:
                    bipartition = (v1, v2)

    return GraphClassification(
        directed_acyclic=topo is not None,
        topological_order=topo,
        directed_tree=is_tree,
        directed_forest=is_forest,
        undirected=undirected,
        complete_undirected=complete_undirected,
        complete_bipartite=complete_bipartite,
        regular_bipartite=regular_bipartite,
        bipartition=bipartition,
        regular_degree=regular_degree,
        general_directed=not undirected,
    )

"""Constructive pure-equilibrium routines for special graph classes.

Three constructions, each valid under explicit structural hypotheses:
topological best responses on DAGs, recursive node addition on directed
trees/forests, and the two-case channel assignment on complete/regular
bipartite graphs under random backoff, tried in that order by solve_pure_ne
before enumeration. Outputs are verified by the generic equilibrium check.
"""

from __future__ import annotations

import logging

from .contention import RandomBackoff, backoff_success_probability
from .errors import PreconditionError, ResourceLimitError
from .game import ENUMERATION_CAP, Profile, SpectrumGame, channel_wise_rates, first_pure_ne, is_pure_ne
from .graph import classify

logger = logging.getLogger(__name__)

RECURSION_BUDGET = 10_000  # tree re-solves, and the config's solver.recursion_budget default


def _verify(spec: SpectrumGame, a: Profile, routine: str) -> Profile:
    check = is_pure_ne(spec, a)
    if not check.is_ne:
        raise RuntimeError(f"{routine} produced a non-equilibrium profile: witness {check.witness}")
    return a


def _best_channel(spec: SpectrumGame, n: int, contenders_by_channel) -> int:
    """argmax_m theta_m * h_n B_m^n * g_n(contenders(m)); lowest index wins ties."""
    best_m, best_u = 1, -1.0
    for m in range(1, spec.n_channels + 1):
        u = spec._value.item(n - 1, m - 1) * spec.grab(n, contenders_by_channel(m))
        if u > best_u:
            best_m, best_u = m, u
    return best_m


def construct_ne_dag(spec: SpectrumGame) -> Profile:
    """Pure NE on a directed acyclic interference graph.

    Users are processed in topological order; by acyclicity every in-neighbour
    is already placed, so a plain best response per user is mutually stable.
    """
    cls = classify(spec.graph)
    if not cls.directed_acyclic:
        raise PreconditionError("construct_ne_dag requires a directed acyclic graph")
    assignment: dict[int, int] = {}
    for n in cls.topological_order:
        placed = spec.graph.in_neighbors(n)
        choice = _best_channel(
            spec, n, lambda m: frozenset(i for i in placed if assignment[i] == m)
        )
        assignment[n] = choice
    a = tuple(assignment[n] for n in range(1, spec.n_users + 1))
    return _verify(spec, a, "construct_ne_dag")


def construct_ne_directed_tree(spec: SpectrumGame, recursion_budget: int = RECURSION_BUDGET) -> Profile:
    """Pure NE on a directed tree or forest.

    The construction needs the congestion property (an added contender never
    raises g), which all four built-in mechanisms have;
    test_antitone_under_inclusion_exhaustive checks it.

    Nodes are added one at a time in skeleton_walk's breadth-first order
    (each new node touches exactly one placed node, its parent). A new node best-responds to its placed
    interferer; if it lands on the channel of a node it interferes with, the
    placed prefix is re-solved with that node's payoff carrying the newcomer
    as a phantom contender on the conflicted channel. More than
    ``recursion_budget`` solves raise ResourceLimitError.
    """
    if not classify(spec.graph).directed_forest:
        raise PreconditionError("construct_ne_directed_tree requires a directed tree or forest")
    sequence, parent, _ = spec.graph._walk

    solves = 0
    edges = spec.graph.edges

    def best_response(v: int, prefix: dict[int, int], mods: dict[tuple[int, int], frozenset[int]]) -> int:
        par = parent[v]

        def contenders(m: int) -> frozenset[int]:
            extra = mods.get((v, m), frozenset())
            if par is not None and (par, v) in edges and prefix.get(par) == m:
                return extra | {par}
            return extra

        return _best_channel(spec, v, contenders)

    def solve(k: int, mods: dict[tuple[int, int], frozenset[int]]) -> dict[int, int]:
        nonlocal solves
        solves += 1
        if solves > recursion_budget:
            raise ResourceLimitError(f"tree construction exceeded its recursion budget ({recursion_budget} solves)")
        if k == 0:
            return {}
        prefix = solve(k - 1, mods)
        v = sequence[k - 1]
        choice = best_response(v, prefix, mods)
        par = parent[v]
        if par is not None and (v, par) in edges and prefix.get(par) == choice:
            # the newcomer interferes with its placed neighbour on that same
            # channel: re-solve the prefix with the newcomer as a phantom
            key = (par, choice)
            mods2 = dict(mods)
            mods2[key] = mods.get(key, frozenset()) | {v}
            prefix = solve(k - 1, mods2)
        prefix[v] = choice
        return prefix

    assignment = solve(len(sequence), {})
    a = tuple(assignment[n] for n in range(1, spec.n_users + 1))
    return _verify(spec, a, "construct_ne_directed_tree")


def construct_ne_bipartite(spec: SpectrumGame) -> Profile:
    """Pure NE on a complete or regular bipartite graph under random backoff.

    Channels are ranked by theta_m B_m. Either the top channel is good enough
    to hold everyone even at full contention, or the two sides split across
    the top two channels.
    """
    cls = classify(spec.graph)
    if not (cls.complete_bipartite or cls.regular_bipartite):
        raise PreconditionError(
            "construct_ne_bipartite requires a complete or regular bipartite graph"
        )
    if not isinstance(spec.mechanism, RandomBackoff):
        raise PreconditionError("construct_ne_bipartite requires the random backoff mechanism")
    if not channel_wise_rates(spec):
        raise PreconditionError(
            "construct_ne_bipartite requires channel-wise rates (identical mean-rate rows; "
            "user specificity only through gains)"
        )

    v1, v2 = cls.bipartition
    if len(v2) > len(v1):
        v1, v2 = v2, v1
    if cls.complete_bipartite:
        contention = len(v1)  # a smaller-side user faces the whole larger side
    else:
        contention = cls.regular_degree

    first = spec.mean_rate[0]
    value = [spec.idle_prob[m] * first[m] for m in range(spec.n_channels)]
    ranked = sorted(range(1, spec.n_channels + 1), key=lambda m: (-value[m - 1], m))
    top = ranked[0]
    lam = spec.mechanism.max_counter
    f = lambda k: backoff_success_probability(lam, k)

    if spec.n_channels == 1 or value[top - 1] * f(contention) >= value[ranked[1] - 1]:
        a = (top,) * spec.n_users
    else:
        second = ranked[1]
        assignment = {n: top for n in v1}
        assignment.update({n: second for n in v2})
        a = tuple(assignment[n] for n in range(1, spec.n_users + 1))
    return _verify(spec, a, "construct_ne_bipartite")


def solve_pure_ne(spec: SpectrumGame, recursion_budget: int = RECURSION_BUDGET,
                  enumeration_cap: int = ENUMERATION_CAP) -> tuple[str, Profile | None]:
    """(routine that found it, pure NE or None): the DAG, tree/forest and
    bipartite constructions in that order, each skipped when its own
    preconditions fail or, logged, its budget runs out, then the
    lexicographically first pure NE of the profile scan, which stops at the
    first block holding one (None when no pure NE exists)."""
    constructions = (
        ("dag", construct_ne_dag),
        ("directed_tree", lambda s: construct_ne_directed_tree(s, recursion_budget)),
        ("bipartite", construct_ne_bipartite),
    )
    for routine, construct in constructions:
        try:
            return routine, construct(spec)
        except PreconditionError:
            pass
        except ResourceLimitError as e:
            logger.warning("%s; trying the next routine", e)
    a = first_pure_ne(spec, cap=enumeration_cap)
    if a is None and classify(spec.graph).directed_forest:
        raise RuntimeError("enumeration found no pure NE on a forest instance")
    return "enumeration", a

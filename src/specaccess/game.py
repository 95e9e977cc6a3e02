"""Spectrum-access games: payoffs, equilibrium checks, search dynamics, PoA.

A game couples a directed interference graph with per-channel idle
probabilities, per-user-per-channel mean rates, optional per-user gains, and
a contention mechanism. Pure strategies are 1-based channel indices, one per
user; mixed strategies are row-stochastic N x M arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Protocol, Sequence

import numpy as np

from .contention import (
    AsymptoticBackoff,
    ContentionMechanism,
    RandomBackoff,
    SlottedAloha,
    WeightedShare,
    backoff_success_probability,
    grab_probability,
)
from .errors import ResourceLimitError
from .graph import InterferenceGraph

Profile = tuple[int, ...]

IMPROVEMENT_RTOL = 1e-12


def strictly_better(new: float, old: float, tol: float = IMPROVEMENT_RTOL) -> bool:
    """Strict improvement with a relative dead band against float churn."""
    return new - old > tol * max(1.0, abs(new), abs(old))


class GameLike(Protocol):
    n_users: int
    n_channels: int

    def payoff(self, a: Profile, n: int) -> float: ...


@dataclass(frozen=True)
class SpectrumGame:
    graph: InterferenceGraph
    n_channels: int
    idle_prob: tuple[float, ...]                 # theta_m
    mean_rate: tuple[tuple[float, ...], ...]     # B[n-1][m-1]
    mechanism: ContentionMechanism
    gain: tuple[float, ...]                      # h_n

    def __post_init__(self) -> None:
        n, m = self.graph.n_users, self.n_channels
        if m < 1:
            raise ValueError("need at least one channel")
        if len(self.idle_prob) != m:
            raise ValueError("idle_prob length must equal n_channels")
        if any(not (0.0 <= t <= 1.0) for t in self.idle_prob):
            raise ValueError("idle probabilities must lie in [0, 1]")
        if len(self.mean_rate) != n or any(len(row) != m for row in self.mean_rate):
            raise ValueError("mean_rate must be an N x M table")
        if any(not (b > 0 and math.isfinite(b)) for row in self.mean_rate for b in row):
            raise ValueError("mean rates must be positive and finite")
        if len(self.gain) != n or any(not (h > 0 and math.isfinite(h)) for h in self.gain):
            raise ValueError("gains must be positive and finite, one per user")
        if isinstance(self.mechanism, WeightedShare) and len(self.mechanism.weights) != n:
            raise ValueError("WeightedShare needs one weight per user")
        if isinstance(self.mechanism, SlottedAloha) and len(self.mechanism.probs) != n:
            raise ValueError("SlottedAloha needs one probability per user")

    @classmethod
    def create(
        cls,
        graph: InterferenceGraph,
        idle_prob: Sequence[float],
        mean_rate: Sequence[Sequence[float]],
        mechanism: ContentionMechanism,
        gain: Sequence[float] | None = None,
    ) -> "SpectrumGame":
        rates = tuple(tuple(float(b) for b in row) for row in mean_rate)
        gains = tuple(float(h) for h in gain) if gain is not None else (1.0,) * graph.n_users
        return cls(
            graph=graph,
            n_channels=len(tuple(idle_prob)),
            idle_prob=tuple(float(t) for t in idle_prob),
            mean_rate=rates,
            mechanism=mechanism,
            gain=gains,
        )

    @property
    def n_users(self) -> int:
        return self.graph.n_users

    def effective_rate(self, n: int, m: int) -> float:
        """h_n * B_m^n: the rate actually entering user n's payoff."""
        return self.gain[n - 1] * self.mean_rate[n - 1][m - 1]

    def max_effective_value(self) -> float:
        """max over users and channels of theta_m * h_n * B_m^n."""
        return max(
            self.idle_prob[m - 1] * self.effective_rate(n, m)
            for n in range(1, self.n_users + 1)
            for m in range(1, self.n_channels + 1)
        )

    def mean_effective_value(self) -> float:
        """mean over users and channels of theta_m * h_n * B_m^n; the default
        normaliser putting Boltzmann temperatures on an order-one scale."""
        vals = [
            self.idle_prob[m - 1] * self.effective_rate(n, m)
            for n in range(1, self.n_users + 1)
            for m in range(1, self.n_channels + 1)
        ]
        return sum(vals) / len(vals)

    def value_bound(self, n: int) -> float:
        """V_n: user n's best-case expected throughput absent contention."""
        return max(
            self.idle_prob[m - 1] * self.effective_rate(n, m)
            for m in range(1, self.n_channels + 1)
        )

    def co_channel_in_neighbors(self, a: Profile, n: int) -> frozenset[int]:
        ch = a[n - 1]
        return frozenset(i for i in self.graph.in_neighbors(n) if a[i - 1] == ch)

    def grab(self, n: int, contenders: Iterable[int]) -> float:
        return grab_probability(self.mechanism, n, contenders)

    def payoff(self, a: Profile, n: int) -> float:
        ch = a[n - 1]
        base = self.idle_prob[ch - 1] * self.effective_rate(n, ch)
        if base == 0.0:
            return 0.0
        return base * self.grab(n, self.co_channel_in_neighbors(a, n))

    @cached_property
    def _grab_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(table, weight, offset) for profile scans, built once per game.

        User n's contender key is offset[n-1] plus weight[n-1, i-1] for each
        in-neighbour i on its channel: bit j for its j-th in-neighbour, or 1
        where the count alone fixes g (the backoff mechanisms, and one channel,
        where every in-neighbour always contends). table[key] is
        grab_probability of the sorted contender tuple.
        """
        count_only = self.n_channels == 1 or isinstance(self.mechanism, (RandomBackoff, AsymptoticBackoff))
        weight = np.zeros((self.n_users, self.n_users), dtype=np.int64)
        offset = np.zeros(self.n_users, dtype=np.int64)
        table: list[float] = []
        for n in range(1, self.n_users + 1):
            nbrs = sorted(self.graph.in_neighbors(n))
            offset[n - 1] = len(table)
            weight[n - 1, [i - 1 for i in nbrs]] = [1 if count_only else 1 << j for j in range(len(nbrs))]
            subsets = [nbrs[:c] for c in range(len(nbrs) + 1)] if count_only else [
                [i for j, i in enumerate(nbrs) if mask >> j & 1] for mask in range(1 << len(nbrs))
            ]
            table += [grab_probability(self.mechanism, n, tuple(c)) for c in subsets]
        return np.array(table), weight, offset


def payoff_pure(spec: SpectrumGame, a: Profile, n: int) -> float:
    """Long-run average throughput of user n under pure profile a."""
    _check_profile(spec, a)
    return spec.payoff(a, n)


def welfare(game: GameLike, a: Profile) -> float:
    return sum(game.payoff(a, n) for n in range(1, game.n_users + 1))


def _check_profile(game: GameLike, a: Sequence[int]) -> None:
    if len(a) != game.n_users:
        raise ValueError("profile length must equal the number of users")
    if any(not (1 <= ch <= game.n_channels) for ch in a):
        raise ValueError("profile entries must be valid channel indices")


@dataclass(frozen=True)
class PhysicalGame:
    """SINR-based payoffs: interference accumulates over all co-channel users."""

    n_channels: int
    bandwidth: float                                  # W
    tx_power: tuple[float, ...]                       # eta_n
    own_distance: tuple[float, ...]                   # d_n
    cross_distance: tuple[tuple[float, ...], ...]     # d_ij, symmetric
    path_loss: float                                  # alpha
    noise: float                                      # omega_0
    primary_interference: tuple[tuple[float, ...], ...]  # omega_m^n, N x M
    idle_prob: tuple[float, ...]                      # theta_m

    def __post_init__(self) -> None:
        n = len(self.tx_power)
        if len(self.own_distance) != n or len(self.cross_distance) != n:
            raise ValueError("per-user fields must agree in length")
        if any(len(row) != n for row in self.cross_distance):
            raise ValueError("cross_distance must be N x N")
        for i in range(n):
            for j in range(n):
                if i != j:
                    if self.cross_distance[i][j] != self.cross_distance[j][i]:
                        raise ValueError("cross distances must be symmetric")
                    if not self.cross_distance[i][j] > 0:
                        raise ValueError("cross distances must be positive")
        if any(not d > 0 for d in self.own_distance):
            raise ValueError("own-link distances must be positive")
        if not self.path_loss > 0:
            raise ValueError("path-loss exponent must be positive")
        if len(self.primary_interference) != n or any(
            len(row) != self.n_channels for row in self.primary_interference
        ):
            raise ValueError("primary_interference must be N x M")
        if len(self.idle_prob) != self.n_channels:
            raise ValueError("idle_prob length must equal n_channels")

    @property
    def n_users(self) -> int:
        return len(self.tx_power)

    def payoff(self, a: Profile, n: int) -> float:
        ch = a[n - 1]
        alpha = self.path_loss
        signal = self.tx_power[n - 1] * self.own_distance[n - 1] ** (-alpha)
        interference = self.noise + self.primary_interference[n - 1][ch - 1]
        for i in range(1, self.n_users + 1):
            if i != n and a[i - 1] == ch:
                interference += self.tx_power[i - 1] * self.cross_distance[i - 1][n - 1] ** (-alpha)
        return self.idle_prob[ch - 1] * self.bandwidth * math.log2(1.0 + signal / interference)


def payoff_physical(p: PhysicalGame, a: Profile, n: int) -> float:
    _check_profile(p, a)
    return p.payoff(a, n)


# ---------------------------------------------------------------------------
# Pure Nash equilibria
# ---------------------------------------------------------------------------

class DeviationWitness(NamedTuple):
    user: int
    better_channel: int
    gain: float


class NeCheck(NamedTuple):
    is_ne: bool
    witness: DeviationWitness | None


def is_pure_ne(game: GameLike, a: Profile, tol: float = IMPROVEMENT_RTOL) -> NeCheck:
    """True iff no user has a strictly improving unilateral channel move."""
    _check_profile(game, a)
    a = tuple(a)
    for n in range(1, game.n_users + 1):
        u0 = game.payoff(a, n)
        for m in range(1, game.n_channels + 1):
            if m == a[n - 1]:
                continue
            u1 = game.payoff(a[: n - 1] + (m,) + a[n:], n)
            if strictly_better(u1, u0, tol):
                return NeCheck(False, DeviationWitness(n, m, u1 - u0))
    return NeCheck(True, None)


def enumerate_pure_ne(spec: SpectrumGame, cap: int = 10**7, tol: float = IMPROVEMENT_RTOL) -> list[Profile]:
    """All pure Nash equilibria, in lexicographic profile order.

    Scans the M^N profiles in blocks of about SCAN_BLOCK = 512, at roughly a
    million profiles per second. Memory is a few (block, N, M) arrays plus the
    game's grab table of sum_n 2^|in(n)| floats (|in(n)| + 1 under the backoff
    mechanisms or with one channel), built once and kept with the game.
    """
    return [tuple(a) for block in _scan(spec, tol, cap) for a in block.profiles[block.is_ne].tolist()]


SCAN_BLOCK = 512


class _ScanBlock(NamedTuple):
    profiles: np.ndarray         # (K, N) 1-based channels
    payoffs: np.ndarray          # (K, N, M) user n's payoff after moving to channel m
    welfare: np.ndarray          # (K,)
    is_ne: np.ndarray            # (K,)
    witness: np.ndarray          # (K, 2) user, channel of the first strictly improving
    gain: np.ndarray             # (K,) move and its gain; meaningless where is_ne


def _scan(spec: SpectrumGame, tol: float, cap: int) -> Iterator[_ScanBlock]:
    """Every pure profile in lexicographic order, in blocks where the first
    N - L users stay fixed and the last L cycle through all M^L <= SCAN_BLOCK
    channel combinations. Welfare is summed over users left to right and the
    NE test is strictly_better on every unilateral move, as in welfare and
    is_pure_ne; g comes from the sorted contender tuple (see _grab_table).
    """
    n_users, m = spec.n_users, spec.n_channels
    if m ** n_users > cap:
        raise ResourceLimitError(f"{m ** n_users} profiles exceed the enumeration cap {cap}")
    table, weight, offset = spec._grab_table
    value = np.asarray(spec.idle_prob) * (np.asarray(spec.gain)[:, None] * np.asarray(spec.mean_rate))
    tail = max(t for t in range(1, n_users + 1) if t == 1 or m ** t <= SCAN_BLOCK)
    head = n_users - tail
    cycling = np.array(list(itertools.product(range(m), repeat=tail)))
    k, channels, rows = len(cycling), np.arange(m), np.arange(len(cycling))
    tail_key = offset[:, None] + sum(weight[:, head + j, None] * (cycling[:, j, None, None] == channels)
                                     for j in range(tail))
    profiles = np.empty((k, n_users), dtype=np.int64)
    profiles[:, head:] = cycling
    own_at = rows[:, None] * (n_users * m) + np.arange(n_users) * m
    for fixed in itertools.product(range(m), repeat=head):
        profiles[:, :head] = fixed
        key = tail_key + (weight[:, :head, None] * (profiles[0, :head, None] == channels)).sum(axis=1)
        payoffs = value * table[key]
        own = payoffs.take(own_at + profiles)[:, :, None]
        welfare = own[:, 0, 0].copy()
        for n in range(1, n_users):
            welfare += own[:, n, 0]
        # payoffs are non-negative, so strictly_better's abs() is the identity
        improving = (payoffs - own > tol * np.maximum(np.maximum(payoffs, own), 1.0)).reshape(k, -1)
        first = improving.argmax(axis=1)
        user = first // m
        yield _ScanBlock(profiles + 1, payoffs, welfare, ~improving.any(axis=1), np.stack((user, first % m), 1) + 1,
                         payoffs.reshape(k, -1)[rows, first] - own[rows, user, 0])


@dataclass
class BrdStep:
    step: int
    user: int
    old_channel: int
    new_channel: int
    gain: float


@dataclass
class BrdResult:
    profile: Profile
    converged: bool
    rounds: int
    steps: list[BrdStep]

    @property
    def n_moves(self) -> int:
        return len(self.steps)


def better_response_dynamics(
    game: GameLike,
    start: Profile,
    max_rounds: int = 1000,
    tol: float = IMPROVEMENT_RTOL,
) -> BrdResult:
    """Asynchronous better-response updates, round-robin over players.

    Within its turn a player takes the first strictly improving channel by
    ascending index. Terminates at a pure NE when a full round passes with no
    move; otherwise reports non-convergence after max_rounds.
    """
    _check_profile(game, start)
    a = list(start)
    steps: list[BrdStep] = []
    for rounds in range(1, max_rounds + 1):
        moved = False
        for n in range(1, game.n_users + 1):
            u0 = game.payoff(tuple(a), n)
            for m in range(1, game.n_channels + 1):
                if m == a[n - 1]:
                    continue
                trial = tuple(a[: n - 1] + [m] + a[n:])
                u1 = game.payoff(trial, n)
                if strictly_better(u1, u0, tol):
                    steps.append(BrdStep(len(steps) + 1, n, a[n - 1], m, u1 - u0))
                    a[n - 1] = m
                    moved = True
                    break
        if not moved:
            return BrdResult(tuple(a), True, rounds, steps)
    return BrdResult(tuple(a), False, max_rounds, steps)


# ---------------------------------------------------------------------------
# Mixed strategies
# ---------------------------------------------------------------------------

MIXED_ROW_TOL = 1e-9


def check_mixed_profile(game: GameLike, sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (game.n_users, game.n_channels):
        raise ValueError(f"mixed profile must be shaped ({game.n_users}, {game.n_channels})")
    if np.any(sigma < -1e-15):
        raise ValueError("mixed strategies must be nonnegative")
    if np.any(np.abs(sigma.sum(axis=1) - 1.0) > MIXED_ROW_TOL):
        raise ValueError("each mixed-strategy row must sum to 1")
    return sigma


def expected_grab(
    mech: ContentionMechanism,
    n: int,
    membership: dict[int, float],
    *,
    enumerate_only: bool = False,
    max_exact: int = 20,
) -> float:
    """E over independent contender memberships of g_n(S).

    membership maps each potential contender i to P(i contends on the
    channel). Exact for every mechanism: count-based mechanisms use the
    Poisson-binomial count distribution, Aloha factorizes, weighted sharing
    enumerates subsets (capped at ``max_exact`` neighbours).
    """
    probs = list(membership.values())
    if not enumerate_only:
        if isinstance(mech, SlottedAloha):
            out = mech.probs[n - 1]
            for i, q in membership.items():
                out *= 1.0 - q * mech.probs[i - 1]
            return out
        if isinstance(mech, (RandomBackoff, AsymptoticBackoff)):
            pmf = np.array([1.0])
            for q in probs:
                pmf = np.convolve(pmf, [1.0 - q, q])
            if isinstance(mech, RandomBackoff):
                vals = [backoff_success_probability(mech.max_counter, k) for k in range(len(pmf))]
            else:
                vals = [1.0 / (1.0 + k) for k in range(len(pmf))]
            return float(np.dot(pmf, vals))
    members = sorted(membership)
    if len(members) > max_exact:
        raise ResourceLimitError(
            f"subset enumeration over {len(members)} in-neighbours exceeds the cap {max_exact}; "
            "use expected_grab_mc"
        )
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


def expected_grab_mc(
    mech: ContentionMechanism,
    n: int,
    membership: dict[int, float],
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte-Carlo estimate of E[g_n(S)] with its standard error."""
    members = sorted(membership)
    qs = np.array([membership[i] for i in members])
    draws = np.empty(samples)
    for t in range(samples):
        s = frozenset(i for i, q in zip(members, qs) if rng.random() < q)
        draws[t] = grab_probability(mech, n, s)
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(samples))


# ---------------------------------------------------------------------------
# Welfare and price of anarchy
# ---------------------------------------------------------------------------

@dataclass
class PoaReport:
    optimal_welfare: float
    optimal_profile: Profile
    pure_ne: list[Profile]
    worst_ne_welfare: float | None
    worst_ne_profile: Profile | None
    poa: float | None
    lower_bound: float
    no_ne_certificate: list[tuple[Profile, DeviationWitness]] | None


def poa_lower_bound(spec: SpectrumGame) -> float:
    """min_n V_n g_n(N_n) / max_n V_n, the structural worst-case guarantee
    (1.0 when every V_n is 0, as the PoA of a game without welfare is).

    Valid whenever the mechanism satisfies the congestion property (all four
    built-in mechanisms do).
    """
    values = [spec.value_bound(n) for n in range(1, spec.n_users + 1)]
    floors = [
        values[n - 1] * spec.grab(n, spec.graph.in_neighbors(n))
        for n in range(1, spec.n_users + 1)
    ]
    top = max(values)
    return min(floors) / top if top > 0 else 1.0


def social_welfare_and_poa(
    spec: SpectrumGame,
    cap: int = 10**7,
    certificate_limit: int = 64,
) -> PoaReport:
    """Exhaustive welfare optimum, worst pure NE, and their ratio.

    One scan as in enumerate_pure_ne (lexicographic order, blocks of about
    512 profiles, same memory bound); the first profile wins welfare ties.
    Raises RuntimeError if the computed PoA falls below the structural lower
    bound by more than 1e-9 (which would indicate an implementation bug for
    congestion-property mechanisms).
    """
    best_w, best_a = -math.inf, None
    ne: list[Profile] = []
    certificate: list[tuple[Profile, DeviationWitness]] = []
    for block in _scan(spec, IMPROVEMENT_RTOL, cap):
        k = int(block.welfare.argmax())
        if block.welfare[k] > best_w:
            best_w, best_a = float(block.welfare[k]), tuple(block.profiles[k].tolist())
        ne += map(tuple, block.profiles[block.is_ne].tolist())
        # the certificate is reported only when no profile is an NE, and then
        # every profile has a witness
        room = max(0, certificate_limit - len(certificate))
        certificate += [(tuple(a), DeviationWitness(u, c, g)) for a, (u, c), g in zip(
            block.profiles[:room].tolist(), block.witness[:room].tolist(), block.gain[:room].tolist())]
    bound = poa_lower_bound(spec)
    if not ne:
        return PoaReport(best_w, best_a, [], None, None, None, bound, certificate)
    worst_w, worst_a = min((welfare(spec, a), a) for a in ne)  # ne is sorted: first wins ties
    poa = worst_w / best_w if best_w > 0 else 1.0
    if poa < bound - 1e-9:
        raise RuntimeError(
            f"computed PoA {poa} violates the structural lower bound {bound}"
        )
    return PoaReport(best_w, best_a, ne, worst_w, worst_a, poa, bound, None)

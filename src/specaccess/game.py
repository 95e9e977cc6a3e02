"""Spectrum-access games: payoffs, equilibrium checks, search dynamics, PoA.

A game couples a directed interference graph with per-channel idle
probabilities, per-user-per-channel mean rates, optional per-user gains, and
a contention mechanism. Pure strategies are 1-based channel indices, one per
user; mixed strategies are row-stochastic N x M arrays.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
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
    _subset_grab_row,
    grab_probability,
)
from .errors import ResourceLimitError
from .graph import InterferenceGraph

Profile = tuple[int, ...]

logger = logging.getLogger(__name__)

IMPROVEMENT_RTOL = 1e-12


def strictly_better(new: float, old: float) -> bool:
    """Strict improvement with a relative dead band against float churn."""
    return new - old > IMPROVEMENT_RTOL * max(1.0, abs(new), abs(old))


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

    def co_channel_in_neighbors(self, a: Profile, n: int) -> frozenset[int]:
        ch = a[n - 1]
        return frozenset(i for i in self.graph.in_neighbors(n) if a[i - 1] == ch)

    def grab(self, n: int, contenders: Iterable[int]) -> float:
        return grab_probability(self.mechanism, n, contenders)

    def payoff(self, a: Profile, n: int) -> float:
        base = self._value.item(n - 1, a[n - 1] - 1)
        if base == 0.0:
            return 0.0
        return base * self.grab(n, self.co_channel_in_neighbors(a, n))

    @cached_property
    def _value(self) -> np.ndarray:
        """(N, M) theta_m * h_n * B_m^n: user n's payoff alone on channel m."""
        return np.asarray(self.idle_prob) * (np.asarray(self.gain)[:, None] * np.asarray(self.mean_rate))

    @cached_property
    def _in_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(idx, valid), both (N, d_max): row n-1 holds user n's in-neighbours
        as ascending 0-based columns, padded with column 0 where valid is False."""
        nbrs = [sorted(self.graph.in_neighbors(n)) for n in range(1, self.n_users + 1)]
        degree = np.array([len(row) for row in nbrs])
        valid = np.arange(degree.max()) < degree[:, None]
        idx = np.zeros(valid.shape, dtype=np.int64)
        idx[valid] = [i - 1 for row in nbrs for i in row]
        return idx, valid

    @cached_property
    def _grab_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(table, weight, offset, step) for profile scans and Q, built once per game.

        Column j of _in_index has key weight step[j]: 1 where the count alone
        fixes g (the backoff mechanisms, and one channel, where every
        in-neighbour always contends), else bit 1 << j. User n's contender key
        is offset[n-1] plus the weights of its columns on its channel
        (weight[n-1, i-1] for in-neighbour i, 0 for other users); table[key] is
        grab_probability of those contenders. Bitmask rows (2^|in(n)| entries)
        over more than 20 in-neighbours raise ResourceLimitError up front.
        """
        idx, valid = self._in_index
        count_only = self.n_channels == 1 or isinstance(self.mechanism, (RandomBackoff, AsymptoticBackoff))
        if not count_only:
            _check_subset_cap(idx.shape[1])
        step = np.ones(idx.shape[1], dtype=np.int64) if count_only else 1 << np.arange(idx.shape[1])
        weight = np.zeros((self.n_users, self.n_users), dtype=np.int64)
        offset = np.zeros(self.n_users, dtype=np.int64)
        rows: list[np.ndarray] = []
        size = 0
        for n, (cols, ok) in enumerate(zip(idx, valid), 1):
            nbrs = (cols[ok] + 1).tolist()
            offset[n - 1] = size
            weight[n - 1, cols[ok]] = step[: len(nbrs)]
            rows.append(np.array([grab_probability(self.mechanism, n, nbrs[:c]) for c in range(len(nbrs) + 1)])
                        if count_only else _subset_grab_row(self.mechanism, n, nbrs))
            size += len(rows[-1])
        return np.concatenate(rows), weight, offset, step


_SUBSET_CAP = 20


def _check_subset_cap(n_members: int) -> None:
    if n_members > _SUBSET_CAP:
        raise ResourceLimitError(f"subset enumeration over {n_members} in-neighbours exceeds the cap {_SUBSET_CAP}")


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


def _first_improvement(game: GameLike, a: Profile, n: int) -> DeviationWitness | None:
    """User n's first strictly improving channel by ascending index, with its gain."""
    u0 = game.payoff(a, n)
    for m in range(1, game.n_channels + 1):
        if m != a[n - 1]:
            u1 = game.payoff(a[: n - 1] + (m,) + a[n:], n)
            if strictly_better(u1, u0):
                return DeviationWitness(n, m, u1 - u0)
    return None


def is_pure_ne(game: GameLike, a: Profile) -> NeCheck:
    """True iff no user has a strictly improving unilateral channel move."""
    _check_profile(game, a)
    a = tuple(a)
    for n in range(1, game.n_users + 1):
        w = _first_improvement(game, a, n)
        if w is not None:
            return NeCheck(False, w)
    return NeCheck(True, None)


def enumerate_pure_ne(spec: SpectrumGame, cap: int = 10**7) -> list[Profile]:
    """All pure Nash equilibria, in lexicographic profile order.

    Scans the M^N profiles in channel-major blocks of K <= SCAN_BLOCK = 512
    profiles (K = M beyond 512 channels; see _scan), at about 2.3-3.4
    million profiles per second on one core of a 2-core Xeon VM
    (10^6-profile games at 10 users x 4 channels and 20 x 2). Memory is a
    few (M, N, K) arrays, about 1.2 MB at peak at 16 users x 2 channels,
    plus the game's grab table of sum_n 2^|in(n)| floats (|in(n)| + 1 under
    the backoff mechanisms or with one channel), built once and kept with
    the game.
    """
    return list(_pure_ne(spec, cap))


def first_pure_ne(spec: SpectrumGame, cap: int = 10**7) -> Profile | None:
    """enumerate_pure_ne(spec, cap)[0], or None when there is no pure NE; the
    scan stops at the first block that holds an NE."""
    return next(_pure_ne(spec, cap), None)


def _pure_ne(spec: SpectrumGame, cap: int) -> Iterator[Profile]:
    for block in _scan(spec, cap):
        yield from map(tuple, block.profiles[block.is_ne].tolist())


SCAN_BLOCK = 512


class _ScanBlock(NamedTuple):
    profiles: np.ndarray         # (K, N) 1-based channels
    payoffs: np.ndarray          # (M, N, K) user n's payoff after moving to channel m
    own: np.ndarray              # (N, K) user n's payoff at the profile
    is_ne: np.ndarray            # (K,)


def _scan(spec: SpectrumGame, cap: int) -> Iterator[_ScanBlock]:
    """Every pure profile in lexicographic order, in blocks where the first
    N - L users stay fixed and the last L >= 1 cycle through all K = M^L
    channel combinations, L as large as keeps K <= SCAN_BLOCK. Payoffs are
    channel-major, so the per-channel work is elementwise over (N, K) slabs.
    The NE test is strictly_better on every unilateral move, as in
    is_pure_ne; g comes from the sorted contender tuple (see _grab_table).
    Logs the profiles scanned and the wall seconds at DEBUG when the scan
    ends or is abandoned.
    """
    n_users, m = spec.n_users, spec.n_channels
    total = m ** n_users
    if total > cap:
        raise ResourceLimitError(f"{total} profiles exceed the enumeration cap {cap}")
    table, weight, offset, _ = spec._grab_table
    tail = max(t for t in range(1, n_users + 1) if t == 1 or m ** t <= SCAN_BLOCK)
    head = n_users - tail
    cycling = np.array(list(itertools.product(range(m), repeat=tail)))
    k, channels = len(cycling), np.arange(m)
    value = spec._value.T[:, :, None].copy()                     # (M, N, 1)
    tail_key = offset[:, None] + sum(weight[:, head + j, None] * (cycling[:, j] == channels[:, None, None])
                                     for j in range(tail))
    profiles = np.empty((k, n_users), dtype=np.int64)
    profiles[:, head:] = cycling + 1
    # own[n, k] = payoffs[channel of user n in profile k, n, k]
    own_at = np.arange(n_users)[:, None] * k + np.arange(k)
    own_at[head:] += cycling.T * (n_users * k)
    head_at = own_at[:head].copy()
    start, scanned = time.perf_counter(), 0
    try:
        for fixed in itertools.product(range(m), repeat=head):
            fixed = np.array(fixed, dtype=np.int64)
            profiles[:, :head] = fixed + 1
            own_at[:head] = head_at + fixed[:, None] * (n_users * k)
            key = tail_key + ((fixed == channels[:, None]) @ weight[:, :head].T)[:, :, None]
            payoffs = value * table.take(key)
            own = payoffs.take(own_at)
            # strictly_better(new, own) is increasing in new (payoffs are
            # non-negative, so its abs() is the identity), hence some channel
            # improves on own iff the best one does; and best >= own, so
            # max(best, own, 1) is max(best, 1)
            best = payoffs.max(axis=0)
            improving = best - own > IMPROVEMENT_RTOL * np.maximum(best, 1.0)
            scanned += k
            yield _ScanBlock(profiles.copy(), payoffs, own, ~improving.any(axis=0))
    finally:
        logger.debug("scanned %d of %d profiles in %.3f s", scanned, total, time.perf_counter() - start)


def _witnesses(block: _ScanBlock, count: int) -> list[DeviationWitness]:
    """The first strictly improving move of each of the block's first count
    profiles, by ascending (user, channel) as in is_pure_ne, with its gain;
    meaningless for a profile that is an NE."""
    payoffs, own = block.payoffs[:, :, :count], block.own[:, :count]
    m, _, count = payoffs.shape
    improving = payoffs - own > IMPROVEMENT_RTOL * np.maximum(np.maximum(payoffs, own), 1.0)
    first = improving.transpose(2, 1, 0).reshape(count, -1).argmax(axis=1)
    user, channel, rows = first // m, first % m, np.arange(count)
    gain = payoffs[channel, user, rows] - own[user, rows]
    return [DeviationWitness(*w) for w in zip((user + 1).tolist(), (channel + 1).tolist(), gain.tolist())]


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
    steps: list[BrdStep]


def better_response_dynamics(
    game: GameLike,
    start: Profile,
    max_rounds: int = 1000,
) -> BrdResult:
    """Asynchronous better-response updates, round-robin over players.

    Within its turn a player takes the first strictly improving channel by
    ascending index. Terminates at a pure NE when a full round passes with no
    move; otherwise reports non-convergence after max_rounds.
    """
    _check_profile(game, start)
    a = tuple(start)
    steps: list[BrdStep] = []
    for _ in range(max_rounds):
        moved = False
        for n in range(1, game.n_users + 1):
            w = _first_improvement(game, a, n)
            if w is not None:
                steps.append(BrdStep(len(steps) + 1, n, a[n - 1], w.better_channel, w.gain))
                a = a[: n - 1] + (w.better_channel,) + a[n:]
                moved = True
        if not moved:
            return BrdResult(a, True, steps)
    return BrdResult(a, False, steps)


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

    Valid under the congestion property, which every built-in mechanism has
    (test_antitone_under_inclusion_exhaustive checks it). V_n is user n's
    best-case expected throughput absent contention.
    """
    values = spec._value.max(axis=1).tolist()
    floors = [
        values[n - 1] * spec.grab(n, spec.graph.in_neighbors(n))
        for n in range(1, spec.n_users + 1)
    ]
    top = max(values)
    return min(floors) / top if top > 0 else 1.0


_CERTIFICATE_LIMIT = 64  # profiles witnessed in a no-NE certificate


def social_welfare_and_poa(spec: SpectrumGame, cap: int = 10**7) -> PoaReport:
    """Exhaustive welfare optimum, worst pure NE, and their ratio.

    One scan as in enumerate_pure_ne (lexicographic order, the same blocks
    and memory bound), at about 1.8-2.6 million profiles per second on the
    same games, as it also sums welfare; the first profile wins welfare ties,
    for the optimum and the worst NE alike. Deviation witnesses are built
    only for the certificate's first _CERTIFICATE_LIMIT = 64 profiles.
    Raises RuntimeError if the computed PoA falls below the structural lower
    bound by more than 1e-9 (which would indicate an implementation bug).
    """
    best_w, best_a = -math.inf, None
    worst_w, worst_a = math.inf, None
    ne: list[Profile] = []
    certificate: list[tuple[Profile, DeviationWitness]] = []
    for block in _scan(spec, cap):
        # users summed left to right, as in welfare, so totals holds its bits
        totals = block.own[0].copy()
        for row in block.own[1:]:
            totals += row
        k = int(totals.argmax())
        if totals[k] > best_w:
            best_w, best_a = float(totals[k]), tuple(block.profiles[k].tolist())
        rows = np.flatnonzero(block.is_ne)
        if rows.size:
            ne += map(tuple, block.profiles[rows].tolist())
            k = rows[totals[rows].argmin()]
            if totals[k] < worst_w:
                worst_w, worst_a = totals[k], tuple(block.profiles[k].tolist())
        # the certificate is reported only when no profile is an NE, and then
        # every profile has a witness
        room = _CERTIFICATE_LIMIT - len(certificate)
        if room > 0:
            certificate += zip(map(tuple, block.profiles[:room].tolist()), _witnesses(block, room))
    bound = poa_lower_bound(spec)
    if not ne:
        return PoaReport(best_w, best_a, [], None, None, None, bound, certificate)
    worst_w = welfare(spec, worst_a)  # equals its scan total, in welfare()'s float type
    poa = worst_w / best_w if best_w > 0 else 1.0
    if poa < bound - 1e-9:
        raise RuntimeError(
            f"computed PoA {poa} violates the structural lower bound {bound}"
        )
    return PoaReport(best_w, best_a, ne, worst_w, worst_a, poa, bound, None)

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
ENUMERATION_CAP = 10**7  # profiles a scan may visit, and the config's solver.enumeration_cap default
MAX_ROUNDS = 1000  # better-response rounds, and the config's solver.max_rounds default


def strictly_better(new, old):
    """Strict improvement by more than IMPROVEMENT_RTOL relative to new, with
    no absolute floor, so the verdict does not depend on the rate unit; on
    floats or elementwise on arrays. On non-negative payoffs it is
    new - old > IMPROVEMENT_RTOL * max(|new|, |old|)."""
    return new - old > IMPROVEMENT_RTOL * abs(new)


def rates_agree(rates: Iterable[float]) -> bool:
    """True when the positive rates are equal up to IMPROVEMENT_RTOL of the
    largest: the tolerance of the channel-wise and homogeneous rate hypotheses."""
    rates = list(rates)
    return max(rates) - min(rates) <= IMPROVEMENT_RTOL * max(rates)


def channel_wise_rates(spec: SpectrumGame) -> bool:
    """Every user has the same mean rate on each channel, up to rates_agree."""
    return all(rates_agree(column) for column in zip(*spec.mean_rate))


class GameLike(Protocol):
    n_users: int
    n_channels: int

    def payoff(self, a: Profile, n: int) -> float: ...


@dataclass(frozen=True)
class SpectrumGame:
    graph: InterferenceGraph
    idle_prob: tuple[float, ...]                 # theta_m
    mean_rate: tuple[tuple[float, ...], ...]     # B[n-1][m-1]
    mechanism: ContentionMechanism
    gain: tuple[float, ...]                      # h_n

    def __post_init__(self) -> None:
        n, m = self.graph.n_users, self.n_channels
        if m < 1:
            raise ValueError("need at least one channel")
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
            idle_prob=tuple(float(t) for t in idle_prob),
            mean_rate=rates,
            mechanism=mechanism,
            gain=gains,
        )

    @property
    def n_users(self) -> int:
        return self.graph.n_users

    @property
    def n_channels(self) -> int:
        return len(self.idle_prob)

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
        """(idx, valid), both (d_max, N) and contiguous: column n-1 holds user
        n's in-neighbours as ascending 0-based indices, padded with 0 where
        valid is False. The in-neighbours lead, as the success kernel, the
        MLE period and the Q map gather them."""
        nbrs = [sorted(self.graph.in_neighbors(n)) for n in range(1, self.n_users + 1)]
        degree = np.array([len(row) for row in nbrs])
        valid = np.arange(degree.max()) < degree[:, None]
        idx = np.zeros(valid.shape, dtype=np.int64)
        idx[valid] = [i - 1 for row in nbrs for i in row]
        return np.ascontiguousarray(idx.T), np.ascontiguousarray(valid.T)

    @cached_property
    def _grab_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(table, weight, offset, step) for profile scans and Q, built once per game.

        Row j of _in_index has key weight step[j]: 1 where the count alone
        fixes g (the backoff mechanisms, and one channel, where every
        in-neighbour always contends), else bit 1 << j. User n's contender key
        is offset[n-1] plus the weights of its in-neighbours (column n-1) on
        its channel (weight[n-1, i-1] for in-neighbour i, 0 for other users);
        table[key] is grab_probability of those contenders. Bitmask rows (2^|in(n)| entries)
        over more than 20 in-neighbours raise ResourceLimitError up front.
        """
        idx, valid = self._in_index
        count_only = self.n_channels == 1 or isinstance(self.mechanism, (RandomBackoff, AsymptoticBackoff))
        if not count_only:
            _check_subset_cap(len(idx))
        step = np.ones(len(idx), dtype=np.int64) if count_only else 1 << np.arange(len(idx))
        weight = np.zeros((self.n_users, self.n_users), dtype=np.int64)
        offset = np.zeros(self.n_users, dtype=np.int64)
        rows: list[np.ndarray] = []
        size = 0
        for n, (cols, ok) in enumerate(zip(idx.T, valid.T), 1):
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


def _check_count(value: int, key: str) -> None:
    """``value`` must be an int >= 1 (numpy integers are; a bool or float is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{key} must be an int >= 1, got {value!r}")


def _check_profile(game: GameLike, a: Sequence[int], key: str = "profile") -> None:
    """``key``, which starts each message, names the profile: a config key in load_config."""
    if len(a) != game.n_users:
        raise ValueError(f"{key} length must equal the number of users")
    # integers only: a float or bool entry is no channel index (numpy integers are)
    if any(isinstance(ch, bool) or not isinstance(ch, (int, np.integer)) or not 1 <= ch <= game.n_channels
           for ch in a):
        raise ValueError(f"{key} entries must be valid channel indices")


@dataclass(frozen=True)
class PhysicalGame:
    """SINR-based payoffs: interference accumulates over all co-channel users."""

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
        # with these, every payoff is finite and non-negative, the domain of strictly_better
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ValueError("bandwidth must be positive and finite")
        if any(not (p > 0 and math.isfinite(p)) for p in self.tx_power):
            raise ValueError("transmit powers must be positive and finite")
        if not (self.noise > 0 and math.isfinite(self.noise)):
            raise ValueError("noise must be positive and finite")
        if any(not (w >= 0 and math.isfinite(w)) for row in self.primary_interference for w in row):
            raise ValueError("primary interference must be finite and non-negative")
        if any(not (0.0 <= t <= 1.0) for t in self.idle_prob):
            raise ValueError("idle probabilities must lie in [0, 1]")

    @property
    def n_users(self) -> int:
        return len(self.tx_power)

    @property
    def n_channels(self) -> int:
        return len(self.idle_prob)

    @cached_property
    def _coupling(self) -> list[list[float]]:
        """1-based [n][i] = eta_i * d_in^-alpha, user i's power at user n's receiver; 0 where i = n."""
        eta, d, alpha = self.tx_power, self.cross_distance, self.path_loss
        return [[float(eta[i - 1] * d[i - 1][n - 1] ** (-alpha)) if i and n and i != n else 0.0
                 for i in range(self.n_users + 1)] for n in range(self.n_users + 1)]

    def payoff(self, a: Profile, n: int) -> float:
        ch = a[n - 1]
        signal = self.tx_power[n - 1] * self.own_distance[n - 1] ** (-self.path_loss)
        interference = self.noise + self.primary_interference[n - 1][ch - 1]
        for i in range(1, self.n_users + 1):
            if i != n and a[i - 1] == ch:
                interference += self._coupling[n][i]
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


def enumerate_pure_ne(spec: SpectrumGame, cap: int = ENUMERATION_CAP) -> list[Profile]:
    """All pure Nash equilibria, in lexicographic profile order.

    Scans the M^N profiles in blocks that evaluate each user once per
    assignment of its in-neighbourhood's cycling users (see _scan), at about
    32-75 million profiles per second on sparse graphs and 2.4-6 million on
    complete ones, on one core of a 2-core Xeon VM (10^6-profile games at
    10 users x 4 channels and 20 x 2; 30% of ordered pairs are edges in the
    sparse ones). It reads only the blocks' NE flags, never their own
    payoffs expanded to (N, K). Memory is a few arrays of at most SCAN_ROWS
    (N K) or SCAN_PAYOFFS (M E) values per block, and set-up temporaries of
    L M E values, about 0.7 MB at peak at 16 users x 2 channels and 1.7 MB
    on a complete 20 x 2 graph, plus the game's grab table of sum_n
    2^|in(n)| floats (|in(n)| + 1 under the backoff mechanisms or with one
    channel), built once and kept with the game, and the scan's M
    value-weighted copies of it.
    """
    return list(_pure_ne(spec, cap))


def first_pure_ne(spec: SpectrumGame, cap: int = ENUMERATION_CAP) -> Profile | None:
    """enumerate_pure_ne(spec, cap)[0], or None when there is no pure NE; the
    scan stops at the first block that holds an NE."""
    return next(_pure_ne(spec, cap), None)


def _pure_ne(spec: SpectrumGame, cap: int) -> Iterator[Profile]:
    for block in _scan(spec, cap):
        yield from map(tuple, block.profiles(block.is_ne).tolist())


SCAN_ROWS = 49152  # N K: user rows a scan block expands, at most
SCAN_PAYOFFS = 16384  # M E: payoffs a scan block evaluates, at most


class _ScanBlock(NamedTuple):
    head: np.ndarray             # (N - L,) 0-based channels of the fixed users
    tail: np.ndarray             # (K, L) 0-based channels of the cycling users, shared by all blocks
    payoffs: np.ndarray          # (M, E) entry e's payoff after its user moves to channel m
    index: np.ndarray            # (N, K) user n's entry at profile k, shared by all blocks
    own: np.ndarray              # (E,) entry e's payoff on its user's channel
    is_ne: np.ndarray            # (K,)

    def own_payoffs(self) -> np.ndarray:
        """(N, K) user n's payoff at profile k: own expanded through index."""
        return self.own.take(self.index)

    def profiles(self, rows=slice(None)) -> np.ndarray:
        """(len(rows), N) 1-based channels of the block's profiles at rows, all by default."""
        tail = self.tail[rows]
        profiles = np.hstack((np.broadcast_to(self.head, (len(tail), len(self.head))), tail))
        profiles += 1
        return profiles


def _tail_length(near: np.ndarray, m: int) -> int:
    """The number L of cycling users in a scan block: the largest L whose
    block of K = M^L profiles has N K <= SCAN_ROWS user rows and M E <=
    SCAN_PAYOFFS payoffs, E = sum_n M^|C_n & tail| entries; or 1. A complete
    graph has E = N K, so its blocks stay small; a sparse graph's E grows far
    more slowly than N K, so its blocks grow until N K binds."""
    n_users = len(near)
    longest = 1  # the largest L, at least 1, with N K <= SCAN_ROWS
    while longest < n_users and n_users * m ** (longest + 1) <= SCAN_ROWS:
        longest += 1
    within = np.cumsum(near[:, ::-1], axis=1)[:, :longest]  # column t-1: |C_n & last t users|
    # M E grows with t, so the t that fit are 1, 2, ...
    return max(1, int((m * (m ** within).sum(axis=0) <= SCAN_PAYOFFS).sum()))


def _value_table(spec: SpectrumGame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(value_table, weight, offset): _grab_table's keys, with
    value_table[c * size + key] = value[n, c] * table[key] for each key of
    user n and every channel c, the product payoff computes. Bitmask rows are
    bit-reversed, in-neighbour column j of d keyed by 1 << (d - 1 - j), so
    that a scan block's cycling users, the last ones, move a user's low bits
    and the keys one block reads lie close together."""
    table, weight, offset, step = spec._grab_table
    size = len(table)
    bounds = offset.tolist() + [size]
    bitmask = bool((step > 1).any())
    if bitmask:
        reversal = np.zeros(1, dtype=np.intp)  # reversal[x]: the len(step) bits of x reversed
        for _ in step:
            reversal = np.concatenate((2 * reversal, 2 * reversal + 1))
        degree = (weight != 0).sum(axis=1)
        weight = np.where(weight != 0, (1 << degree)[:, None] // np.maximum(2 * weight, 1), 0)
    value_table = np.empty((spec.n_channels, size))
    for n, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        row = table[lo:hi]
        if bitmask:  # 2^d entries: key x reads the entry at x's d bits reversed
            row = row.take(reversal[: hi - lo] >> (len(step) + 1 - (hi - lo).bit_length()))
        np.multiply(spec._value[n, :, None], row, out=value_table[:, lo:hi])
    return value_table.ravel(), weight, offset


def _scan(spec: SpectrumGame, cap: int) -> Iterator[_ScanBlock]:
    """Every pure profile in lexicographic order, in blocks where the first
    N - L users (the head) stay fixed and the last L >= 1 (the tail) cycle
    through all K = M^L channel combinations, L from _tail_length.

    User n's payoffs and NE flag depend only on the channels of C_n = {n} |
    in(n), so within a block they take one value per assignment of C_n's
    tail members: E = sum_n M^|C_n & tail| entries. A block computes the
    (M, E) payoffs of those entries channel-major, by one gather from the
    value table (_value_table), then each entry's own payoff, best payoff
    and strict-improvement flag, and expands the flags to the (N, K)
    profiles through the (N, K) entry index. It carries own per entry;
    own_payoffs expands it through the same index, for the welfare sums of
    social_welfare_and_poa only. Users whose C_n covers the tail (every user
    of a complete graph) have K entries each, laid out as (rows, K) after the
    others; when every user is such a row, the flags' expansion is a
    reshape. The NE flag is strictly_better of each entry's best payoff over
    its own, which is is_pure_ne's test of every unilateral move; g comes
    from the sorted contender tuple (see _grab_table). Blocks carry no
    deviation witnesses: the no-NE certificate asks is_pure_ne (see
    social_welfare_and_poa).

    The layout, built once per scan and kept by no game, is the (N, K) index
    and the (K, L) cycling channels, made together in L numpy passes last
    digit first, so each pass's inner axis is the M^s profiles built so far;
    then each entry's tail channels, in one (L, E) gather from the cycling
    channels, give its keys and where its own payoff sits. Logs the profiles
    scanned, the layout's and the blocks' wall seconds and the entries
    evaluated per block against N K at DEBUG when the scan ends or is
    abandoned.
    """
    n_users, m = spec.n_users, spec.n_channels
    total = m ** n_users
    if total > cap:
        raise ResourceLimitError(f"{total} profiles exceed the enumeration cap {cap}")
    start = time.perf_counter()
    value_table, weight, offset = _value_table(spec)
    size = len(value_table) // m
    near = (weight != 0) | np.eye(n_users, dtype=bool)            # row n-1: C_n
    tail = _tail_length(near, m)
    head = n_users - tail
    k, channels = m ** tail, np.arange(m)
    # user n's entries: one per assignment of its tail members, in
    # lexicographic order; users whose C_n covers the tail come last
    local = near[:, head:]
    members = local.sum(axis=1)
    full = members == tail
    order = np.concatenate([np.flatnonzero(~full), np.flatnonzero(full)])
    count = m ** members
    first = np.empty(n_users, dtype=np.intp)
    first[order] = np.cumsum(count[order]) - count[order]
    # radix[n, j]: the place of tail user j in user n's entry number, 0 off C_n;
    # below it, row j is the place of tail user j in its own channel
    radix = np.vstack((np.where(local, m ** (np.cumsum(local[:, ::-1], axis=1)[:, ::-1] - local), 0),
                       np.eye(tail, dtype=np.intp)))
    # layout[:N] is the (N, K) entry index and layout[N:] the (L, K) cycling
    # channels, built last digit first: the first M^s columns cover the last
    # s tail users, and digit j's channel c > 0 adds c times its place to them
    layout = np.empty((n_users + tail, k), dtype=np.intp)
    layout[:, 0] = 0
    layout[:n_users, 0] = first
    steps = radix.T[:, :, None, None] * channels[1:, None]                    # (L, N + L, M - 1, 1)
    width = 1
    for j in range(tail - 1, -1, -1):
        grown = layout[:, : m * width].reshape(-1, m, width)
        np.add(grown[:, :1], steps[j], out=grown[:, 1:])
        width *= m
    index, cycling = layout[:n_users], layout[n_users:].T                    # cycling (K, L), lexicographic
    user = np.repeat(order, count[order])
    e = len(user)
    rank = np.arange(e) - first[user]
    # tail user j's channel at each entry, (L, E): a user with s tail members
    # numbers its entries as the last s cycling users number profiles, so
    # member i reads row L - s + i of the cycling channels at the entry's rank
    # (off C_n the row is arbitrary and the weight 0)
    row = np.cumsum(local, axis=1).T - 1 + (tail - members)
    channel = layout[n_users:].ravel().take(row[:, user] * k + rank)
    # each entry's key on every channel from the tail users in its C_n, and
    # where its own payoff sits in the (M, E) payoffs
    tail_key = offset[user] + size * channels[:, None]                        # (M, E)
    tail_key += ((channel == channels[:, None, None]) * weight[user, head:].T).sum(axis=1)
    own_at = np.arange(e)
    mine = user >= head
    own_at[mine] += e * channel[user[mine] - head, mine]
    # per block, key = tail_key + the head users' terms, and own is read at
    # own_at + e * (the user's channel when it is in the head): entries before
    # `compressed` gather the head terms entry by entry, the (rows, K) entries
    # of the users covering the tail broadcast them over K
    key, at = np.empty((m, e), dtype=np.intp), np.empty(e, dtype=np.intp)
    compressed = e - int(full.sum()) * k
    spans = [(slice(0, compressed), user[:compressed], (compressed,)),
             (slice(compressed, e), np.flatnonzero(full)[:, None], (-1, k))]
    parts = [(cols, key[:, span].reshape(m, *shape), tail_key[:, span].reshape(m, *shape),
              at[span].reshape(shape), own_at[span].reshape(shape))
             for span, cols, shape in spans if span.stop > span.start]
    head_weight = weight[:, :head].T.copy()
    head_channel = np.zeros(n_users, dtype=np.intp)

    def expand(x: np.ndarray) -> np.ndarray:
        return x.take(index) if compressed else x.reshape(n_users, k)

    blocks, scanned = time.perf_counter(), 0
    try:
        for fixed in itertools.product(range(m), repeat=head):
            fixed = np.array(fixed, dtype=np.intp)
            head_key = (fixed == channels[:, None]) @ head_weight                  # (M, N)
            head_channel[:head] = e * fixed
            for cols, key_part, tail_part, at_part, own_part in parts:
                np.add(tail_part, head_key.take(cols, axis=1), out=key_part)
                np.add(own_part, head_channel.take(cols), out=at_part)
            payoffs = value_table.take(key)
            own = payoffs.take(at)
            # strictly_better(new, own) is increasing in new (payoffs are
            # non-negative, so its abs() is the identity), hence some channel
            # improves on own iff the best one does
            improving = strictly_better(payoffs.max(axis=0), own)
            scanned += k
            yield _ScanBlock(fixed, cycling, payoffs, index, own, ~expand(improving).any(axis=0))
    finally:
        logger.debug("scanned %d of %d profiles: layout %.3f s, blocks %.3f s, evaluated %d of %d user rows per block",
                     scanned, total, blocks - start, time.perf_counter() - blocks, e, n_users * k)


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
    max_rounds: int = MAX_ROUNDS,
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


def social_welfare_and_poa(spec: SpectrumGame, cap: int = ENUMERATION_CAP) -> PoaReport:
    """Exhaustive welfare optimum, worst pure NE, and their ratio.

    One scan as in enumerate_pure_ne (lexicographic order, the same blocks
    and memory bound), at about 19-41 million profiles per second on the
    same sparse games and 2.5-5.7 million on the complete ones, as it also
    expands each block's own payoffs through its index (own_payoffs) and
    sums welfare; the first profile wins welfare ties, for the optimum and
    the worst NE alike, and both welfares are those sums, as Python floats.
    When the scan finds no NE, the no-NE certificate is is_pure_ne's witness
    on each of the first _CERTIFICATE_LIMIT = 64 profiles in lexicographic
    order.
    Raises RuntimeError if the computed PoA falls below the structural lower
    bound by more than 1e-9 (which would indicate an implementation bug).
    """
    best_w, best_a = -math.inf, None
    worst_w, worst_a = math.inf, None
    ne: list[Profile] = []
    for block in _scan(spec, cap):
        # users summed left to right, as in welfare, so totals holds its bits
        own = block.own_payoffs()
        totals = own[0].copy()
        for row in own[1:]:
            totals += row
        k = int(totals.argmax())
        if totals[k] > best_w:
            best_w, best_a = float(totals[k]), tuple(block.profiles([k])[0].tolist())
        rows = np.flatnonzero(block.is_ne)
        if rows.size:
            ne += map(tuple, block.profiles(rows).tolist())
            k = rows[totals[rows].argmin()]
            if totals[k] < worst_w:
                worst_w, worst_a = float(totals[k]), tuple(block.profiles([k])[0].tolist())
    bound = poa_lower_bound(spec)
    if not ne:
        profiles = itertools.islice(itertools.product(range(1, spec.n_channels + 1), repeat=spec.n_users),
                                    _CERTIFICATE_LIMIT)
        certificate = [(a, is_pure_ne(spec, a).witness) for a in profiles]
        return PoaReport(best_w, best_a, [], None, None, None, bound, certificate)
    poa = worst_w / best_w if best_w > 0 else 1.0
    if poa < bound - 1e-9:
        raise RuntimeError(
            f"computed PoA {poa} violates the structural lower bound {bound}"
        )
    return PoaReport(best_w, best_a, ne, worst_w, worst_a, poa, bound, None)

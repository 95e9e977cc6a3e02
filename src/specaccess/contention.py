"""Channel-contention mechanisms and their grabbing probabilities.

Each mechanism defines g_n(S): the probability that user n wins its chosen
idle channel when S is the set of its interfering users contending on the
same channel. Per-user parameters (Aloha probabilities, sharing weights) are
indexed by 1-based user id; a missing entry is a configuration error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable

import numpy as np

MAX_BACKOFF_WINDOW = 10**6


@dataclass(frozen=True)
class RandomBackoff:
    """Mini-slot countdown contention with window size max_counter (lambda_max)."""

    max_counter: int

    def __post_init__(self) -> None:
        if not (1 <= self.max_counter <= MAX_BACKOFF_WINDOW):
            raise ValueError(f"max_counter must be in 1..{MAX_BACKOFF_WINDOW}")


@dataclass(frozen=True)
class AsymptoticBackoff:
    """Backoff in the infinite-window limit: the channel is equally shared."""


@dataclass(frozen=True)
class WeightedShare:
    """Proportional sharing by per-user positive weights."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.weights or any(not (w > 0 and math.isfinite(w)) for w in self.weights):
            raise ValueError("all sharing weights must be positive and finite")


@dataclass(frozen=True)
class SlottedAloha:
    """Each contender transmits independently with its own probability."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probs or any(not (0.0 < p < 1.0) for p in self.probs):
            raise ValueError("all contention probabilities must lie strictly in (0, 1)")


ContentionMechanism = RandomBackoff | AsymptoticBackoff | WeightedShare | SlottedAloha


@cache
def backoff_success_probability(max_counter: int, n_contenders: int) -> float:
    """P(own uniform counter is strictly the minimum among 1 + K contenders).

    Direct evaluation of sum_{l=1}^{L} (1/L) ((L-l)/L)^K; ties lose.
    """
    if n_contenders < 0:
        raise ValueError("contender count must be nonnegative")
    if n_contenders == 0:
        return 1.0
    lam = np.arange(1, max_counter + 1, dtype=float)
    return float(np.mean(((max_counter - lam) / max_counter) ** n_contenders))


def _param_for(values: tuple[float, ...], user: int, what: str) -> float:
    if not (1 <= user <= len(values)):
        raise ValueError(f"no {what} configured for user {user}")
    return values[user - 1]


def grab_probability(m: ContentionMechanism, n: int, contenders: Iterable[int]) -> float:
    """Probability that user n grabs its idle channel against ``contenders``."""
    cset = frozenset(contenders)
    if n in cset:
        raise ValueError("a user cannot contend against itself")
    k = len(cset)
    if isinstance(m, RandomBackoff):
        return backoff_success_probability(m.max_counter, k)
    if isinstance(m, AsymptoticBackoff):
        return 1.0 / (1.0 + k)
    # ascending user order, so that float rounding does not depend on how the
    # caller built the contender set
    if isinstance(m, WeightedShare):
        w_n = _param_for(m.weights, n, "sharing weight")
        total = w_n + sum(_param_for(m.weights, i, "sharing weight") for i in sorted(cset))
        return w_n / total
    if isinstance(m, SlottedAloha):
        p_n = _param_for(m.probs, n, "contention probability")
        out = p_n
        for i in sorted(cset):
            out *= 1.0 - _param_for(m.probs, i, "contention probability")
        return out
    raise TypeError(f"unknown contention mechanism {m!r}")


def _subset_grab_row(m: WeightedShare | SlottedAloha, n: int, nbrs: Iterable[int]) -> np.ndarray:
    """grab_probability(m, n, S) for every subset S of the ascending users
    ``nbrs``, at index sum(1 << j for j where nbrs[j] in S).

    One doubling pass per neighbour, doing grab_probability's float operations
    in its order, so every entry has its bits.
    """
    if isinstance(m, WeightedShare):
        w_n = _param_for(m.weights, n, "sharing weight")
        total = np.zeros(1)
        for i in nbrs:
            total = np.concatenate((total, total + _param_for(m.weights, i, "sharing weight")))
        return w_n / (w_n + total)
    if isinstance(m, SlottedAloha):
        out = np.array([_param_for(m.probs, n, "contention probability")])
        for i in nbrs:
            out = np.concatenate((out, out * (1.0 - _param_for(m.probs, i, "contention probability"))))
        return out
    raise TypeError(f"no subset table for contention mechanism {m!r}")

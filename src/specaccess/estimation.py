"""Maximum-likelihood estimation of channel and contention parameters from
per-period observation traces.

Per decision period a user holds one channel and records, slot by slot, the
channel idle indicator S, its own grab indicator I, and the realised rate b.
The estimators below are the closed-form MLEs: transition counts for the
two-state channel, the binomial success ratio for the grabbing probability,
and the success-conditioned mean for the rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UndefinedEstimateError


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """One user-period trace. Invariants: I <= S slotwise, and b > 0 only on
    successful slots (a busy channel forces I = b = 0)."""

    S: np.ndarray
    I: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        S = np.asarray(self.S)
        I = np.asarray(self.I)
        b = np.asarray(self.b, dtype=float)
        if not (S.ndim == I.ndim == b.ndim == 1 and len(S) == len(I) == len(b) >= 1):
            raise ValueError("S, I, b must be 1-D sequences of equal positive length")
        # checked before the int8 cast, which would wrap 256 to 0 and truncate 0.7 to 0
        if not (((S == 0) | (S == 1)).all() and ((I == 0) | (I == 1)).all()):
            raise ValueError("S and I must be binary")
        S = S.astype(np.int8, copy=False)
        I = I.astype(np.int8, copy=False)
        if np.any(I > S):
            raise ValueError("a channel cannot be grabbed while busy (I <= S violated)")
        if np.any(b < 0):
            raise ValueError("rates must be nonnegative")
        if np.any((b > 0) & (I == 0)):
            raise ValueError("positive rate recorded without a successful grab")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "b", b)

    def __len__(self) -> int:
        return len(self.S)


class MarkovEstimate(NamedTuple):
    epsilon: float
    xi: float
    theta: float


def transition_counts(S: np.ndarray) -> tuple[int, int, int, int]:
    """(C00, C01, C10, C11) over adjacent slot pairs."""
    S = np.asarray(S, dtype=np.int8)
    prev, nxt = S[:-1], S[1:]
    c00 = int(np.sum((prev == 0) & (nxt == 0)))
    c01 = int(np.sum((prev == 0) & (nxt == 1)))
    c10 = int(np.sum((prev == 1) & (nxt == 0)))
    c11 = int(np.sum((prev == 1) & (nxt == 1)))
    return c00, c01, c10, c11


def mle_markov(S: np.ndarray) -> MarkovEstimate:
    """Closed-form transition-count MLE of (epsilon, xi) and the implied
    stationary idle probability. The initial-state likelihood factor is
    dropped; the first-order conditions depend only on the counts."""
    S = np.asarray(S)
    if len(S) < 2:
        raise UndefinedEstimateError("need at least two slots to count transitions")
    c00, c01, c10, c11 = transition_counts(S)
    if c00 + c01 == 0:
        raise UndefinedEstimateError("no slot pair leaves the busy state; epsilon is undefined")
    if c10 + c11 == 0:
        raise UndefinedEstimateError("no slot pair leaves the idle state; xi is undefined")
    eps = c01 / (c00 + c01)
    xi = c10 / (c11 + c10)
    if eps + xi == 0.0:
        raise UndefinedEstimateError("degenerate counts: both estimated rates are zero")
    return MarkovEstimate(eps, xi, eps / (eps + xi))


def mle_grab(obs: ObservationSet) -> float:
    """Binomial MLE of the grabbing probability: successes over contention rounds."""
    rounds = int(obs.S.sum())
    if rounds == 0:
        raise UndefinedEstimateError("channel never idle in this period; grab probability undefined")
    return float(obs.I.sum()) / rounds


def mle_rate(obs: ObservationSet) -> float:
    """Mean realised rate over successful slots."""
    successes = int(obs.I.sum())
    if successes == 0:
        raise UndefinedEstimateError("no successful grab in this period; mean rate undefined")
    return float(obs.b.sum()) / successes


@dataclass(frozen=True)
class UniformNoise:
    """Zero-mean uniform estimation noise on (-half_width, half_width)."""

    half_width: float

    def __post_init__(self) -> None:
        if self.half_width < 0:
            raise ValueError("noise half-width must be nonnegative")

    def sample(self, rng: np.random.Generator) -> float:
        if self.half_width == 0.0:
            return 0.0
        return float(rng.uniform(-self.half_width, self.half_width))


@dataclass(frozen=True)
class ThroughputEstimate:
    theta_hat: float
    grab_hat: float
    rate_hat: float
    throughput: float       # theta_hat * rate_hat * grab_hat
    noisy: float            # throughput plus one bounded zero-mean noise draw


def estimate_throughput(
    obs: ObservationSet,
    noise: UniformNoise | None = None,
    rng: np.random.Generator | None = None,
) -> ThroughputEstimate:
    """Product-form throughput MLE from one user-period trace.

    Propagates UndefinedEstimateError from any component estimator; callers
    running the learning loop skip the perception update for that period.
    """
    theta_hat = mle_markov(obs.S).theta
    grab_hat = mle_grab(obs)
    rate_hat = mle_rate(obs)
    value = theta_hat * rate_hat * grab_hat
    w = 0.0
    if noise is not None and noise.half_width > 0.0:
        if rng is None:
            raise ValueError("a random generator is required to draw estimation noise")
        w = noise.sample(rng)
    return ThroughputEstimate(theta_hat, grab_hat, rate_hat, value, value + w)

"""Maximum-likelihood estimation of channel and contention parameters from
per-period observation traces.

Per decision period a user holds one channel and records, slot by slot, the
channel idle indicator S, its own grab indicator I, and the realised rate b.
The estimators below are the closed-form MLEs: transition counts for the
two-state channel, the binomial success ratio for the grabbing probability,
and the success-conditioned mean for the rate. One function computes them from
per-user sufficient statistics, for one trace or for all users of a period.
"""

from __future__ import annotations

from collections import namedtuple
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


class MarkovEstimate(NamedTuple):
    epsilon: float
    xi: float
    theta: float


_Estimates = namedtuple("_Estimates", "epsilon xi theta grab rate throughput")

# why each estimate can be undefined, in the order one trace is checked
_UNDEFINED = {
    "epsilon": "no slot pair leaves the busy state; epsilon is undefined",
    "xi": "no slot pair leaves the idle state; xi is undefined",
    "theta": "degenerate counts: both estimated rates are zero",
    "grab": "channel never idle in this period; grab probability undefined",
    "rate": "no successful grab in this period; mean rate undefined",
}


def _mle(sum_s, sum_i, sum_b, c00, c01, c10, c11) -> _Estimates:
    """The closed-form MLEs, elementwise over per-user sufficient statistics
    (idle slots, grabs, rate sum, transition counts), with throughput theta *
    rate * grab; NaN exactly where undefined, as the invariants make that 0/0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = np.true_divide(c01, c00 + c01)
        xi = np.true_divide(c10, c11 + c10)
        theta = eps / (eps + xi)
        grab = np.true_divide(sum_i, sum_s)
        rate = np.true_divide(sum_b, sum_i)
    return _Estimates(eps, xi, theta, grab, rate, theta * rate * grab)


def _statistics(S: np.ndarray, I: np.ndarray, b: np.ndarray) -> tuple:
    """_mle's arguments per column of (t, N) blocks, or for one trace; the
    rate sums run over contiguous copies, so both layouts round alike."""
    return (S.sum(axis=0), I.sum(axis=0), np.ascontiguousarray(b.T).sum(axis=-1), *_pair_counts(S))


def _pair_counts(S: np.ndarray) -> tuple:
    prev, nxt = S[:-1], S[1:]
    return tuple(((prev == i) & (nxt == j)).sum(axis=0) for i in (0, 1) for j in (0, 1))


def _one_trace(S: np.ndarray, I: np.ndarray, b: np.ndarray, *required: str) -> _Estimates:
    """_mle on one trace, as floats; UndefinedEstimateError names the first
    required estimate that is undefined."""
    if "epsilon" in required and len(S) < 2:
        raise UndefinedEstimateError("need at least two slots to count transitions")
    est = _mle(*_statistics(S, I, b))
    for f in required:
        if np.isnan(getattr(est, f)):
            raise UndefinedEstimateError(_UNDEFINED[f])
    return _Estimates(*map(float, est))


def mle_markov(S: np.ndarray) -> MarkovEstimate:
    """Closed-form transition-count MLE of (epsilon, xi) and the implied
    stationary idle probability. The initial-state likelihood factor is
    dropped; the first-order conditions depend only on the counts."""
    S = np.asarray(S, dtype=np.int8)  # the chain estimates read S alone; I and b are placeholders
    return MarkovEstimate(*_one_trace(S, S, np.zeros(len(S)), "epsilon", "xi", "theta")[:3])


def mle_grab(obs: ObservationSet) -> float:
    """Binomial MLE of the grabbing probability: successes over contention rounds."""
    return _one_trace(obs.S, obs.I, obs.b, "grab").grab


def mle_rate(obs: ObservationSet) -> float:
    """Mean realised rate over successful slots."""
    return _one_trace(obs.S, obs.I, obs.b, "rate").rate


@dataclass(frozen=True)
class UniformNoise:
    """Zero-mean uniform estimation noise on (-half_width, half_width)."""

    half_width: float

    def __post_init__(self) -> None:
        if self.half_width < 0:
            raise ValueError("noise half-width must be nonnegative")

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """One draw as a float, or `size` draws in order as an array."""
        if self.half_width == 0.0:
            return 0.0 if size is None else np.zeros(size)
        w = rng.uniform(-self.half_width, self.half_width, size)
        return float(w) if size is None else w


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
    est = _one_trace(obs.S, obs.I, obs.b, *_UNDEFINED)
    if noise is not None and noise.half_width > 0.0 and rng is None:
        raise ValueError("a random generator is required to draw estimation noise")
    w = 0.0 if noise is None else noise.sample(rng)
    return ThroughputEstimate(est.theta, est.grab, est.rate, est.throughput, est.throughput + w)

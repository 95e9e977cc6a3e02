"""Maximum-likelihood estimation of channel and contention parameters from
per-period observation traces.

Per decision period a user holds one channel and records, slot by slot, the
channel idle indicator S, its own grab indicator I, and the realised rate b.
The estimators below are the closed-form MLEs: transition counts for the
two-state channel, the binomial success ratio for the grabbing probability,
and the success-conditioned mean for the rate. chain_counts sums a trace's
idle slots and transitions over the slot axis for any leading shape, so the
simulator counts each channel of a block of periods once and reads the counts
at a profile; estimate computes the MLEs for all users of a period at once.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

ChainCounts = namedtuple("ChainCounts", "sum_s c00 c01 c10 c11")
Estimates = namedtuple("Estimates", "sum_s sum_i sum_b epsilon xi theta grab rate throughput")


def chain_counts(S: np.ndarray) -> ChainCounts:
    """Idle-slot counts and transition counts c_ij (state i, then j) of
    binary traces S (..., t, X), summed over the slot axis -2 for any
    leading shape: each field is (..., X)."""
    prev, nxt = S[..., :-1, :], S[..., 1:, :]
    c00, c01, c10, c11 = (((prev == i) & (nxt == j)).sum(axis=-2) for i in (0, 1) for j in (0, 1))
    return ChainCounts(S.sum(axis=-2), c00, c01, c10, c11)


def estimate(counts: ChainCounts, I: np.ndarray, b: np.ndarray) -> Estimates:
    """The closed-form MLEs of every user from its channel's chain_counts and
    one period's (t, N) grab and rate blocks: per-user idle slots, grabs and
    rate sum, the chain's (epsilon, xi) from transition counts (the
    initial-state likelihood factor is dropped) and its stationary idle
    probability theta, the grab probability, the mean rate over grabbed
    slots and throughput theta * rate * grab. NaN exactly where an estimate
    is undefined: I <= S and b > 0 only where I = 1 make that 0/0. A user's
    rate sum runs over a contiguous copy of its column, so it equals the sum
    of that user's trace alone."""
    sum_s, c00, c01, c10, c11 = counts
    sum_i, sum_b = I.sum(axis=0), np.ascontiguousarray(b.T).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = np.true_divide(c01, c00 + c01)
        xi = np.true_divide(c10, c11 + c10)
        theta = eps / (eps + xi)
        grab = np.true_divide(sum_i, sum_s)
        rate = np.true_divide(sum_b, sum_i)
    return Estimates(sum_s, sum_i, sum_b, eps, xi, theta, grab, rate, theta * rate * grab)

"""Maximum-likelihood estimation of channel and contention parameters from
per-period observation traces.

Per decision period a user holds one channel and records, slot by slot, the
channel idle indicator S, its own grab indicator I, and the realised rate b.
The estimators below are the closed-form MLEs: transition counts for the
two-state channel, the binomial success ratio for the grabbing probability,
and the success-conditioned mean for the rate. chain_counts sums a trace's
idle slots and transitions over the slot axis for any leading shape. The
estimator comes in two halves: channel_estimates turns a channel's counts
into its (epsilon, xi, theta), and user_estimates adds each user's grabs and
rates of one period. The simulator's per-period MLE runs the channel half
once per channel of a block of periods and reads it at each period's
profile before the user half.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

ChainCounts = namedtuple("ChainCounts", "sum_s c00 c01 c10 c11")
ChannelEstimates = namedtuple("ChannelEstimates", "sum_s epsilon xi theta")
Estimates = namedtuple("Estimates", "sum_s sum_i sum_b epsilon xi theta grab rate throughput")


def chain_counts(S: np.ndarray) -> ChainCounts:
    """Idle-slot counts and transition counts c_ij (state i, then j) of
    binary traces S (..., t, X), summed over the slot axis -2 for any
    leading shape: each field is (..., X). Two sums run over a slot-last
    copy, where numpy sums fastest: the idle slots and c11. The other
    counts follow exactly, since the idle slots after the first are
    c01 + c11, those before the last are c10 + c11, and there are t - 1
    transitions."""
    T = np.ascontiguousarray(np.swapaxes(S, -1, -2))
    sum_s = np.add.reduce(T, axis=-1, dtype=np.int64)
    c11 = np.add.reduce(T[..., :-1] & T[..., 1:], axis=-1, dtype=np.int64)
    c01 = sum_s - T[..., 0] - c11
    c10 = sum_s - T[..., -1] - c11
    return ChainCounts(sum_s, (T.shape[-1] - 1) - c01 - c10 - c11, c01, c10, c11)


def channel_estimates(counts: ChainCounts) -> ChannelEstimates:
    """The channel half, elementwise over counts of any shape:
    the idle slots, the chain's (epsilon, xi) from transition counts (the
    initial-state likelihood factor is dropped) and its stationary idle
    probability theta, NaN where a trace never leaves one state."""
    sum_s, c00, c01, c10, c11 = counts
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = np.true_divide(c01, c00 + c01)
        xi = np.true_divide(c10, c11 + c10)
        theta = eps / (eps + xi)
    return ChannelEstimates(sum_s, eps, xi, theta)


def user_estimates(channel: ChannelEstimates, I: np.ndarray, b: np.ndarray) -> Estimates:
    """The user half: every user's channel half, (N,) fields read
    at the profile, with one period's (t, N) grab and rate blocks, gives its
    grabs and rate sum, the grab probability, the mean rate over grabbed
    slots and throughput theta * rate * grab. Grab probability and rate are
    NaN exactly where their ratio is 0/0: I <= S and b > 0 only where I = 1,
    so a zero denominator has a zero numerator; one errstate around both
    divisions costs about half of np.divide(..., where=den != 0) into
    NaN-filled outputs at N = 9. A user's rate sum runs over a contiguous
    copy of its column, so it equals the sum of that user's trace alone."""
    sum_s, eps, xi, theta = channel
    sum_i, sum_b = I.sum(axis=0), np.ascontiguousarray(b.T).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        grab = np.true_divide(sum_i, sum_s)
        rate = np.true_divide(sum_b, sum_i)
    return Estimates(sum_s, sum_i, sum_b, eps, xi, theta, grab, rate, theta * rate * grab)


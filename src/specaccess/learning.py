"""Distributed Boltzmann learning over perceived channel throughputs.

Each user keeps a perception value per channel, samples a channel from the
Boltzmann distribution over its perceptions, observes an estimate of its
realised expected throughput, and folds it into the perception of the chosen
channel with a decaying smoothing factor. Below the contraction temperature
bound the mean dynamics contract in the max norm onto a unique perception
fixed point whose Boltzmann image is a delta-approximate mixed equilibrium.

Temperatures are taken per unit of ``payoff_scale``: the effective Boltzmann
exponent is gamma * P / payoff_scale. With the default scale 1.0 everything
is in raw throughput units; configs carrying Mbps-scale rates set the scale
to the maximum expected throughput so that order-one temperatures (and the
order-one initial perception 1/M) remain meaningful.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contention import SlottedAloha
from .game import SpectrumGame, check_mixed_profile

Observer = Callable[[tuple[int, ...]], tuple[np.ndarray, np.ndarray]]


def boltzmann_profile(P: np.ndarray, gamma: float) -> np.ndarray:
    """Row-wise softmax of an (N, M) perception array with temperature gamma:
    row n is user n's mixed strategy. Each row is max-subtracted for overflow
    safety."""
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError("temperature must be positive and finite")
    P = np.asarray(P, dtype=float)
    if not np.all(np.isfinite(P)):
        raise ValueError("perceptions must be finite")
    z = gamma * P
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def contraction_temperature_bound(spec: SpectrumGame) -> float:
    """Largest guaranteed-contraction temperature (exclusive): the mean
    dynamics contract in max norm whenever gamma stays strictly below
    1 / (2 max theta*rate * max in-degree). Infinite when that product is 0
    (no interference, or no channel ever idle): Q is then constant."""
    lipschitz = spec._value.max().item() * spec.graph.max_in_degree
    if lipschitz == 0:
        return math.inf
    return 1.0 / (2.0 * lipschitz)


def q_from_sigma(spec: SpectrumGame, sigma: np.ndarray) -> np.ndarray:
    """Q_m^n: expected throughput of each (user, channel) when the others
    contend independently by their mixed rows; entry (n, m) conditions on user
    n playing channel m, so user n's mixed payoff is sigma[n] . Q[n].

    With q_j the chance that in-neighbour column j (SpectrumGame._in_index)
    contends, Aloha's g is p_n prod_j (1 - q_j p_j), in column order at any
    in-degree. Otherwise a distribution over grab-table keys starts at 0 and
    each column shifts it by its key weight with probability q_j: the
    Poisson-binomial on count rows, every subset on bitmask rows (which raise
    ResourceLimitError above 20 in-neighbours); g is its dot with the row.
    """
    sigma = check_mixed_profile(spec, sigma)
    idx, valid = spec._in_index
    q = sigma[idx] * valid[:, :, None]  # (N, d_max, M)
    if isinstance(spec.mechanism, SlottedAloha):
        p = np.asarray(spec.mechanism.probs)
        g = np.repeat(p[:, None], spec.n_channels, axis=1)
        for j in range(idx.shape[1]):
            g *= 1.0 - q[:, j] * p[idx[:, j], None]
        return spec._value * g
    table, _, offset, step = spec._grab_table
    dist = np.zeros((spec.n_users, spec.n_channels, int(step.sum()) + 1))
    dist[..., 0] = 1.0
    support = 1
    for j, w in enumerate(step.tolist()):
        qj = q[:, j, :, None]
        moved = dist[..., :support] * qj
        dist[..., :support] *= 1.0 - qj
        dist[..., w : w + support] += moved
        support += w
    # keys past a user's own row hold zero mass, so reading the next row there adds exact zeros
    rows = table.take(offset[:, None] + np.arange(dist.shape[2]), mode="clip")
    return spec._value * (dist * rows[:, None, :]).sum(axis=2)


def q_operator(spec: SpectrumGame, P: np.ndarray, gamma: float, payoff_scale: float = 1.0) -> np.ndarray:
    """Mean-dynamics map: perceptions -> expected throughputs under the
    Boltzmann strategies they induce."""
    sigma = boltzmann_profile(np.asarray(P, dtype=float) / payoff_scale, gamma)
    return q_from_sigma(spec, sigma)


def initial_perceptions(spec: SpectrumGame, payoff_scale: float = 1.0) -> np.ndarray:
    """Uniform 1/M starting point (in payoff_scale units)."""
    return np.full((spec.n_users, spec.n_channels), payoff_scale / spec.n_channels)


@dataclass
class FixedPointResult:
    perceptions: np.ndarray
    sigma: np.ndarray
    iterations: int
    residual: float
    converged: bool
    within_contraction_bound: bool


def mean_dynamics_fixed_point(
    spec: SpectrumGame,
    gamma: float,
    *,
    tol: float = 1e-11,
    max_iter: int = 100_000,
    p0: np.ndarray | None = None,
    payoff_scale: float = 1.0,
) -> FixedPointResult:
    """Iterate P <- Q(P) to a perception fixed point.

    Below the contraction bound Q contracts, so the fixed point is unique and
    reached from any start. At or above it the function warns and proceeds:
    the bound is sufficient, not necessary, and there neither uniqueness nor
    convergence is guaranteed. Non-convergence is reported through the
    result, not raised.
    """
    gamma_eff = gamma / payoff_scale
    bound = contraction_temperature_bound(spec)
    within = gamma_eff < bound
    if not within:
        warnings.warn(
            f"temperature {gamma_eff:g} is not below the contraction bound {bound:g}; "
            "fixed-point iteration may not converge",
            stacklevel=2,
        )
    P = initial_perceptions(spec, payoff_scale) if p0 is None else np.array(p0, dtype=float)
    residual = math.inf
    for it in range(1, max_iter + 1):
        Q = q_operator(spec, P, gamma, payoff_scale)
        residual = float(np.max(np.abs(Q - P)))
        P = Q
        if residual < tol:
            sigma = boltzmann_profile(P / payoff_scale, gamma)
            return FixedPointResult(P, sigma, it, residual, True, within)
    sigma = boltzmann_profile(P / payoff_scale, gamma)
    return FixedPointResult(P, sigma, max_iter, residual, False, within)


_GAP_TOLERANCE = 1e-9


@dataclass
class GapCertificate:
    """Entropy gap delta plus the numerically verified best-response gains."""

    delta: float
    entropy_bound: float          # (1/gamma) ln M
    br_gains: np.ndarray          # per-user exact best pure-response gain
    max_br_gain: float
    satisfied: bool               # max gain <= delta + _GAP_TOLERANCE


def approx_ne_gap(
    spec: SpectrumGame,
    sigma: np.ndarray,
    gamma: float,
    *,
    payoff_scale: float = 1.0,
) -> GapCertificate:
    """delta = max_n of the gamma-weighted entropy of user n's mixed row,
    checked against each user's exact best pure response."""
    sigma = check_mixed_profile(spec, sigma)
    gamma_eff = gamma / payoff_scale
    delta = _entropy_gap(sigma, gamma_eff)
    Q = q_from_sigma(spec, sigma)
    mixed_value = (sigma * Q).sum(axis=1)
    br_gains = Q.max(axis=1) - mixed_value
    max_gain = float(br_gains.max())
    return GapCertificate(
        delta=delta,
        entropy_bound=math.log(spec.n_channels) / gamma_eff,
        br_gains=br_gains,
        max_br_gain=max_gain,
        satisfied=max_gain <= delta + _GAP_TOLERANCE,
    )


def _entropy_gap(sigma: np.ndarray, gamma_eff: float) -> float:
    """delta: the largest entropy of a mixed row, over the effective temperature."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(sigma > 0.0, np.log(np.where(sigma > 0.0, sigma, 1.0)), 0.0)
    entropy = -(sigma * logs).sum(axis=1)
    return float(entropy.max() / gamma_eff)


def exact_observer(spec: SpectrumGame) -> Observer:
    """Observer returning the true expected throughput of the realised profile
    as both estimate and realised value - the zero-estimation-error hook."""

    def observe(a: tuple[int, ...]):
        u = np.array([spec.payoff(a, n) for n in range(1, spec.n_users + 1)])
        return u, u

    return observe


@dataclass
class LearningOutcome:
    perceptions: np.ndarray
    sigma: np.ndarray
    welfare_trace: np.ndarray            # per-period sum of realised values
    per_user_mean: np.ndarray            # per-user mean realised value over the periods
    dP_trace: np.ndarray                 # per-period max perception change
    channels: np.ndarray | None          # periods x N, chosen channels
    estimates: np.ndarray | None         # periods x N, NaN where skipped
    error_trace: np.ndarray | None       # ||P(T) - P*||_inf when an oracle is given
    delta: float                         # entropy gap at the final strategies
    periods: int
    skipped_updates: int


def run_learning(
    spec: SpectrumGame,
    gamma: float,
    periods: int,
    rng: np.random.Generator,
    *,
    observer: Observer | None = None,
    payoff_scale: float = 1.0,
    mu: float | str = "1/T",
    noise: float = 0.0,
    p0: np.ndarray | None = None,
    oracle: np.ndarray | None = None,
    record: bool = True,
) -> LearningOutcome:
    """Run the distributed learning loop for a number of decision periods.

    Per period every user samples a channel from its Boltzmann row, the
    observer maps the profile to (estimates, realised values) as (N,) arrays,
    a positive ``noise`` half-width adds one uniform draw on (-noise, noise)
    from ``rng`` to each defined estimate in user order, and each user's
    chosen-channel perception absorbs its estimate with weight mu_T: 1/T
    under "1/T" (sums diverge, squares converge), otherwise the constant mu
    in (0, 1]. A NaN estimate (undefined MLE for that user-period) skips the
    update. mu and noise (finite, >= 0) are checked before the first period.
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    decaying = mu == "1/T"
    if not (decaying or (isinstance(mu, (int, float)) and 0.0 < mu <= 1.0)):
        raise ValueError(f'smoothing factor mu must be "1/T" or in (0, 1], got {mu!r}')
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise half-width must be finite and >= 0, got {noise!r}")
    if observer is None:
        observer = exact_observer(spec)
    gamma_eff = gamma / payoff_scale
    N, M = spec.n_users, spec.n_channels
    P = initial_perceptions(spec, payoff_scale) if p0 is None else np.array(p0, dtype=float)

    welfare_trace = np.zeros(periods)
    user_totals = np.zeros(N)
    dP_trace = np.zeros(periods)
    channels = np.zeros((periods, N), dtype=np.int64) if record else None
    estimates = np.full((periods, N), np.nan) if record else None
    error_trace = np.zeros(periods) if oracle is not None else None
    skipped = 0

    for T in range(1, periods + 1):
        sigma = boltzmann_profile(P / payoff_scale, gamma)
        cdf = np.cumsum(sigma, axis=1)
        u = rng.random(N)
        # per row, the number of cdf entries <= u * total: searchsorted(side="right")
        a = np.minimum((cdf <= (u * cdf[:, -1])[:, None]).sum(axis=1) + 1, M)
        est, realised = (np.asarray(x, dtype=float) for x in observer(tuple(a.tolist())))
        ok = ~np.isnan(est)
        if noise > 0.0:
            est = est.copy()  # an observer may return one array as both values
            est[ok] += rng.uniform(-noise, noise, int(ok.sum()))
        mu_T = 1.0 / T if decaying else mu
        cell = (np.flatnonzero(ok), a[ok] - 1)
        old = P[cell]
        new = (1.0 - mu_T) * old + mu_T * est[ok]
        P[cell] = new
        skipped += N - int(ok.sum())
        user_totals += realised
        if record:
            channels[T - 1] = a
            estimates[T - 1, ok] = est[ok]
        welfare_trace[T - 1] = np.cumsum(realised)[-1]  # left to right, as np.sum would not
        dP_trace[T - 1] = np.abs(new - old).max(initial=0.0)
        if error_trace is not None:
            error_trace[T - 1] = float(np.max(np.abs(P - oracle)))

    sigma = boltzmann_profile(P / payoff_scale, gamma)
    return LearningOutcome(
        perceptions=P,
        sigma=sigma,
        welfare_trace=welfare_trace,
        per_user_mean=user_totals / periods,
        dP_trace=dP_trace,
        channels=channels,
        estimates=estimates,
        error_trace=error_trace,
        delta=_entropy_gap(sigma, gamma_eff),
        periods=periods,
        skipped_updates=skipped,
    )

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
from typing import Callable, Sequence

import numpy as np

from .estimation import UniformNoise
from .game import SpectrumGame, check_mixed_profile, expected_grab

MuSchedule = Callable[[int], float]
Observer = Callable[[tuple[int, ...], int, np.random.Generator], Sequence[tuple[float | None, float]]]


def reciprocal_schedule(T: int) -> float:
    """The default smoothing schedule mu_T = 1/T (sums diverge, squares converge)."""
    return 1.0 / T


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
    1 / (2 max theta*rate * max in-degree). Infinite for interference-free
    graphs, where the dynamics do not depend on perceptions at all."""
    max_deg = spec.graph.max_in_degree
    if max_deg == 0:
        return math.inf
    return 1.0 / (2.0 * spec.max_effective_value() * max_deg)


def q_from_sigma(spec: SpectrumGame, sigma: np.ndarray) -> np.ndarray:
    """Q_m^n: expected throughput of each (user, channel) when the others
    contend independently by their mixed rows; entry (n, m) conditions on user
    n playing channel m, so user n's mixed payoff is sigma[n] . Q[n]."""
    sigma = check_mixed_profile(spec, sigma)
    Q = np.empty((spec.n_users, spec.n_channels))
    for n in range(1, spec.n_users + 1):
        nbrs = spec.graph.in_neighbors(n)
        for m in range(1, spec.n_channels + 1):
            membership = {i: float(sigma[i - 1, m - 1]) for i in nbrs}
            Q[n - 1, m - 1] = (
                spec.idle_prob[m - 1]
                * spec.effective_rate(n, m)
                * expected_grab(spec.mechanism, n, membership)
            )
    return Q


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
    """Iterate P <- Q(P) to the unique perception fixed point.

    Warns and proceeds when gamma is at or above the contraction bound (the
    bound is sufficient, not necessary). Non-convergence is reported through
    the result, not raised.
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


@dataclass
class GapCertificate:
    """Entropy gap delta plus the numerically verified best-response gains."""

    delta: float
    entropy_bound: float          # (1/gamma) ln M
    br_gains: np.ndarray          # per-user exact best pure-response gain
    max_br_gain: float
    satisfied: bool               # max gain <= delta + tolerance
    tolerance: float


def approx_ne_gap(
    spec: SpectrumGame,
    sigma: np.ndarray,
    gamma: float,
    *,
    payoff_scale: float = 1.0,
    tolerance: float = 1e-9,
) -> GapCertificate:
    """delta = max_n of the gamma-weighted entropy of user n's mixed row,
    checked against each user's exact best pure response."""
    sigma = check_mixed_profile(spec, sigma)
    gamma_eff = gamma / payoff_scale
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(sigma > 0.0, np.log(np.where(sigma > 0.0, sigma, 1.0)), 0.0)
    entropy = -(sigma * logs).sum(axis=1)
    delta = float(entropy.max() / gamma_eff)
    Q = q_from_sigma(spec, sigma)
    mixed_value = (sigma * Q).sum(axis=1)
    br_gains = Q.max(axis=1) - mixed_value
    max_gain = float(br_gains.max())
    return GapCertificate(
        delta=delta,
        entropy_bound=math.log(spec.n_channels) / gamma_eff,
        br_gains=br_gains,
        max_br_gain=max_gain,
        satisfied=max_gain <= delta + tolerance,
        tolerance=tolerance,
    )


def exact_observer(spec: SpectrumGame, noise: UniformNoise | None = None) -> Observer:
    """Observer returning the true expected throughput of the realised profile
    (optionally with bounded zero-mean noise) - the zero-estimation-error hook."""

    def observe(a: tuple[int, ...], period: int, rng: np.random.Generator):
        out = []
        for n in range(1, spec.n_users + 1):
            u = spec.payoff(a, n)
            est = u if noise is None else u + noise.sample(rng)
            out.append((est, u))
        return out

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
    converged: bool
    converged_at: int | None
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
    mu: MuSchedule = reciprocal_schedule,
    p0: np.ndarray | None = None,
    oracle: np.ndarray | None = None,
    record: bool = True,
    window: int = 50,
    zeta: float | None = None,
) -> LearningOutcome:
    """Run the distributed learning loop for a number of decision periods.

    Per period every user samples a channel from its Boltzmann row, the
    observer produces (estimate, realised value) per user, and each user's
    chosen-channel perception absorbs its estimate with weight mu_T. An
    estimate of None (undefined MLE for that user-period) skips the update.
    Convergence, when zeta is given, means the max perception change stayed
    below zeta over the trailing window.
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
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
    converged_at: int | None = None

    for T in range(1, periods + 1):
        sigma = boltzmann_profile(P / payoff_scale, gamma)
        cdf = np.cumsum(sigma, axis=1)
        u = rng.random(N)
        a = tuple(int(np.searchsorted(cdf[n], u[n] * cdf[n, -1], side="right")) + 1 for n in range(N))
        a = tuple(min(ch, M) for ch in a)
        results = observer(a, T, rng)
        mu_T = mu(T)
        if not (0.0 < mu_T <= 1.0):
            raise ValueError(f"smoothing factor mu({T}) = {mu_T} outside (0, 1]")
        d_max = 0.0
        total = 0.0
        for n in range(1, N + 1):
            est, realised = results[n - 1]
            total += realised
            user_totals[n - 1] += realised
            if record:
                channels[T - 1, n - 1] = a[n - 1]
            if est is None:
                skipped += 1
                continue
            if record:
                estimates[T - 1, n - 1] = est
            old = P[n - 1, a[n - 1] - 1]
            new = (1.0 - mu_T) * old + mu_T * est
            P[n - 1, a[n - 1] - 1] = new
            d_max = max(d_max, abs(new - old))
        welfare_trace[T - 1] = total
        dP_trace[T - 1] = d_max
        if error_trace is not None:
            error_trace[T - 1] = float(np.max(np.abs(P - oracle)))
        if zeta is not None and converged_at is None and T >= window:
            if float(dP_trace[T - window:T].max()) < zeta:
                converged_at = T

    sigma = boltzmann_profile(P / payoff_scale, gamma)
    gap = approx_ne_gap(spec, sigma, gamma, payoff_scale=payoff_scale)
    return LearningOutcome(
        perceptions=P,
        sigma=sigma,
        welfare_trace=welfare_trace,
        per_user_mean=user_totals / periods,
        dP_trace=dP_trace,
        channels=channels,
        estimates=estimates,
        error_trace=error_trace,
        delta=gap.delta,
        converged=converged_at is not None,
        converged_at=converged_at,
        periods=periods,
        skipped_updates=skipped,
    )

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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contention import SlottedAloha
from .game import SpectrumGame, _check_count, check_mixed_profile

Observer = Callable[[tuple[int, ...]], tuple[np.ndarray, np.ndarray]]

_SNAPSHOT_FLOATS = 1 << 12  # perception snapshots held for one error_trace reduction
_DAMPING = 0.3  # fixed-point step P <- P + _DAMPING (Q - P), taken once the residual rises


def boltzmann_profile(P: np.ndarray, gamma: float) -> np.ndarray:
    """Row-wise softmax of an (N, M) perception array with temperature gamma:
    row n is user n's mixed strategy. Each row is max-subtracted for overflow
    safety; P, and the exponent gamma * P, must be finite."""
    _check_temperature(gamma)
    P = np.asarray(P, dtype=float)
    _check_perceptions(P, gamma)
    return _softmax(P, gamma)


def _check_temperature(gamma: float) -> None:
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError("temperature must be positive and finite")


def _check_payoff_scale(payoff_scale: float) -> None:
    if not (payoff_scale > 0 and math.isfinite(payoff_scale)):
        raise ValueError(f"payoff_scale must be positive and finite, got {payoff_scale!r}")


def _check_perceptions(P: np.ndarray, gamma: float) -> None:
    with np.errstate(over="ignore"):  # an exponent that overflows would give NaN rows
        if not np.all(np.isfinite(gamma * P)):
            raise ValueError(f"perceptions, and the Boltzmann exponent at temperature {gamma:g}, must be finite")


def _softmax(P: np.ndarray, gamma: float) -> np.ndarray:
    """boltzmann_profile without its checks: P finite, gamma positive and finite."""
    z = gamma * P
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
    return z


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
    return _q_map(spec)(sigma)


def _q_map(spec: SpectrumGame) -> Callable[[np.ndarray], np.ndarray]:
    """q_from_sigma without its checks, as a map of a valid mixed profile,
    with the game's gathers done once for every call of the map. Column j of
    the in-neighbour index leads its arrays, so each step of the column loop
    reads and writes whole contiguous blocks; every elementwise value, and
    the layout of the final sum over keys, is q_from_sigma's."""
    idx, valid = spec._in_index
    n, m = spec.n_users, spec.n_channels
    value = spec._value
    cols = idx.T[:, :, None] * m + np.arange(m)  # (d_max, N, M) flat positions in sigma
    live = np.repeat(valid.T[:, :, None], m, axis=2).astype(float)

    def contend(sigma: np.ndarray) -> np.ndarray:
        """(d_max, N, M): the chance that in-neighbour column j is on channel m."""
        return sigma.take(cols) * live

    if isinstance(spec.mechanism, SlottedAloha):
        p = np.asarray(spec.mechanism.probs)
        own, rival = np.repeat(p[:, None], m, axis=1), p[idx.T][:, :, None]

        def aloha(sigma: np.ndarray) -> np.ndarray:
            g = own.copy()
            for silent in 1.0 - contend(sigma) * rival:
                g *= silent
            return value * g

        return aloha
    table, _, offset, step = spec._grab_table
    start = np.zeros((int(step.sum()) + 1, n, m))  # key-major distribution over contender keys
    start[0] = 1.0
    # keys past a user's own row hold zero mass, so reading the next row there adds exact zeros
    rows = table.take(offset[:, None] + np.arange(len(start)), mode="clip")[:, None, :]
    steps = step.tolist()

    def keyed(sigma: np.ndarray) -> np.ndarray:
        q = contend(sigma)
        dist = start.copy()
        support = 1
        for qj, stay, w in zip(q, 1.0 - q, steps):
            held = dist[:support]
            moved = held * qj
            held *= stay
            dist[w : w + support] += moved
            support += w
        # the product in (N, M, key) memory order, so the key sum runs as in q_from_sigma
        return value * np.multiply(dist.transpose(1, 2, 0), rows, order="C").sum(axis=2)

    return keyed


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
    """Iterate P <- Q(P) to a perception fixed point reached from the start.

    The plain step runs while the residual ||Q(P) - P||_inf falls. From the
    first iteration whose residual rises, every step is damped,
    P <- P + _DAMPING (Q(P) - P), for the rest of the call.

    Below the contraction bound Q contracts, so the residual never rises: the
    plain step runs throughout, and the fixed point is unique and reached from
    any start. At or above the bound the function warns and proceeds: the
    bound is sufficient, not necessary, and there the fixed point found
    depends on the start and may not be unique, nor is convergence
    guaranteed. Non-convergence is reported through the result, not raised.

    gamma, payoff_scale, tol (finite, > 0), max_iter (an int >= 1) and the
    start (finite, as is the exponent gamma * P / payoff_scale; shaped (N, M))
    are checked once, before the warning; the iteration then runs on the
    unchecked softmax and Q map, whose outputs are a valid mixed profile and
    finite perceptions by construction (a damped step is a convex combination
    of two such).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    _check_count(max_iter, "max_iter")
    _check_payoff_scale(payoff_scale)
    P = initial_perceptions(spec, payoff_scale) if p0 is None else np.array(p0, dtype=float)
    sigma = check_mixed_profile(spec, boltzmann_profile(P / payoff_scale, gamma))
    gamma_eff = gamma / payoff_scale
    bound = contraction_temperature_bound(spec)
    within = gamma_eff < bound
    if not within:
        warnings.warn(
            f"temperature {gamma_eff:g} is not below the contraction bound {bound:g}; "
            "the fixed point reached depends on the start and may not be unique, "
            "and the iteration may not converge",
            stacklevel=2,
        )
    q = _q_map(spec)
    residual = math.inf
    damped = False
    for it in range(1, max_iter + 1):
        Q = q(sigma)
        previous, residual = residual, float(np.maximum.reduce(np.abs(Q - P), axis=None))
        damped = damped or residual > previous
        P = P + _DAMPING * (Q - P) if damped else Q
        sigma = _softmax(P / payoff_scale, gamma)
        if residual < tol:
            return FixedPointResult(P, sigma, it, residual, True, within)
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
    checked against each user's exact best pure response. gamma and
    payoff_scale must be finite and > 0."""
    _check_temperature(gamma)
    _check_payoff_scale(payoff_scale)
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
    as both estimate and realised value - the zero-estimation-error hook. The
    payoffs of each profile are computed once and kept, read-only, for the
    observer's lifetime."""
    seen: dict[tuple[int, ...], np.ndarray] = {}

    def observe(a: tuple[int, ...]):
        u = seen.get(a)
        if u is None:
            u = np.array([spec.payoff(a, n) for n in range(1, spec.n_users + 1)])
            u.flags.writeable = False
            seen[a] = u
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
    observer maps the profile to (estimates, realised values) as (N,) arrays
    (a list of Python floats is read as is; any other estimates are widened
    to float64),
    a positive ``noise`` half-width adds one uniform draw on (-noise, noise)
    from ``rng`` to each defined estimate in user order, and each user's
    chosen-channel perception absorbs its estimate with weight mu_T: 1/T
    under "1/T" (sums diverge, squares converge), otherwise the constant mu
    in (0, 1]. A NaN estimate (undefined MLE for that user-period) skips the
    update.

    periods (an int >= 1), mu, noise (finite, >= 0), gamma and payoff_scale
    (finite, > 0) and the start P (finite, with a finite exponent
    gamma * P / payoff_scale) are checked once, before the observer is first
    called; the loop then runs on the unchecked softmax, and a non-finite
    estimate that reaches P raises ValueError in the period it arrives. The welfare trace (users summed left
    to right), the per-user means (periods in order) and the distance to
    ``oracle`` are computed from the kept per-period rows after the loop.
    """
    _check_count(periods, "periods")
    decaying = mu == "1/T"
    if not (decaying or (isinstance(mu, (int, float)) and 0.0 < mu <= 1.0)):
        raise ValueError(f'smoothing factor mu must be "1/T" or in (0, 1], got {mu!r}')
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise half-width must be finite and >= 0, got {noise!r}")
    _check_temperature(gamma)
    _check_payoff_scale(payoff_scale)
    N, M = spec.n_users, spec.n_channels
    P = initial_perceptions(spec, payoff_scale) if p0 is None else np.array(p0, dtype=float, order="C")
    _check_perceptions(P / payoff_scale, gamma)
    if observer is None:
        observer = exact_observer(spec)
    gamma_eff = gamma / payoff_scale
    flat = P.reshape(-1)  # a view: cell (n, m) of P is flat[n * M + m]
    rows = range(-1, N * M - 1, M)  # flat index of user n's channel c is rows[n] + c
    mirror = P.tolist()  # P as Python floats, written in step with it

    realised_rows = np.empty((periods, N))
    dP_trace = np.empty(periods)
    chosen: list[tuple[int, ...]] = []
    estimates = np.empty((periods, N)) if record else None
    error_trace = None
    if oracle is not None:
        oracle = np.asarray(oracle, dtype=float)
        error_trace = np.empty(periods)
        snapshots = np.empty((max(1, _SNAPSHOT_FLOATS // (N * M)), N, M))
    skipped = 0

    for T in range(1, periods + 1):
        # numpy for the softmax and its running row sums, whose exp and row totals
        # Python cannot match bit for bit; the rest is per-user work on Python
        # floats, whose + - * / give numpy's elementwise bits
        a = []
        for cdf, u in zip(np.add.accumulate(_softmax(P / payoff_scale, gamma), axis=1).tolist(),
                          rng.random(N).tolist()):
            bar = u * cdf[-1]
            # 1 + the entries <= bar, capped at M; a NaN row (an overflowed exponent) has none
            below = bisect_right(cdf, bar) if bar == bar else 0
            a.append(below + 1 if below < M else M)
        a = tuple(a)
        est, realised = observer(a)
        # read as is only a list of Python floats, as the MLE observer returns
        if type(est) is not list or not all(type(x) is float for x in est):
            est = np.asarray(est, dtype=float).tolist()
        if noise > 0.0:
            # one draw per defined estimate, in user order
            draws = iter(rng.uniform(-noise, noise, sum(x == x for x in est)).tolist())
            est = [x + next(draws) if x == x else x for x in est]
        mu_T = 1.0 / T if decaying else mu
        keep = 1.0 - mu_T
        dP = 0.0
        for row, first, x, c in zip(mirror, rows, est, a):
            if x != x:  # NaN: undefined estimate, no update
                skipped += 1
                continue
            old = row[c - 1]
            new = keep * old + mu_T * x
            if not -math.inf < new < math.inf:
                raise ValueError("perceptions must be finite")
            row[c - 1] = flat[first + c] = new
            d = abs(new - old)
            if d > dP:
                dP = d
        dP_trace[T - 1] = dP
        realised_rows[T - 1] = realised
        if record:
            chosen.append(a)
            estimates[T - 1] = est
        if error_trace is not None:
            k = (T - 1) % len(snapshots)
            snapshots[k] = P
            if k + 1 == len(snapshots) or T == periods:
                error_trace[T - k - 1 : T] = np.abs(snapshots[: k + 1] - oracle).max(axis=(1, 2))

    if record:
        estimates[np.isnan(estimates)] = np.nan  # one NaN for every skip, whatever the observer's payload
    sigma = boltzmann_profile(P / payoff_scale, gamma)
    return LearningOutcome(
        perceptions=P,
        sigma=sigma,
        welfare_trace=np.cumsum(realised_rows, axis=1)[:, -1],  # left to right, as np.sum would not
        # periods in order from a running total that starts at +0.0
        per_user_mean=(np.cumsum(realised_rows, axis=0)[-1] + 0.0) / periods,
        dP_trace=dP_trace,
        channels=np.array(chosen, dtype=np.int64) if record else None,
        estimates=estimates,
        error_trace=error_trace,
        delta=_entropy_gap(sigma, gamma_eff),
        periods=periods,
        skipped_updates=skipped,
    )

"""Channel-state processes and the scenario's data-rate model.

Channel state is 1 when idle (usable by secondary transmissions) and 0 when
occupied by primary traffic. The two-state Markov model uses epsilon for the
busy-to-idle transition probability and xi for idle-to-busy, giving the
stationary idle probability epsilon / (epsilon + xi).

A scenario has one rate model for its N x M (users x channels) table, like
the config's ``scenario.rates``: fixed rates, or Rayleigh-faded Shannon rates
with one W, eta and omega and a mean gain per (user, channel).

A Rayleigh-Shannon mean rate is (W / ln 2) exp(x) E1(x), and gain
calibration inverts it. E1 is written here in stdlib floats with the
algorithm of scipy's ``exp1`` (specfun's ``e1xb``): scipy's bits above x = 1,
and within 6 ulp of them, about as accurate, at and below it (see
``_scaled_e1``). Calibration finds its root with an in-package port of
scipy's brentq.c (same bits as ``scipy.optimize.brentq``). So the package
imports numpy and the stdlib only, and a cold start on a Rayleigh config
spares the import of ``scipy.special``: 0.21 s of a 0.22 s ``load_config``
on a 2-core Xeon VM.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateModelError

LN2 = math.log(2.0)
_EULER_GAMMA = 0.5772156649015328


@dataclass(frozen=True)
class MarkovChannel:
    epsilon: float  # P(busy -> idle)
    xi: float       # P(idle -> busy)

    def __post_init__(self) -> None:
        if not (0.0 <= self.epsilon <= 1.0 and 0.0 <= self.xi <= 1.0):
            raise ValueError("transition probabilities must lie in [0, 1]")
        if self.epsilon + self.xi == 0.0:
            raise DegenerateModelError("epsilon + xi must be positive for a stationary distribution")


@dataclass(frozen=True)
class BernoulliChannel:
    theta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.theta < 1.0):
            raise ValueError("Bernoulli idle probability must lie in (0, 1)")


@dataclass(frozen=True)
class WhiteSpaceChannel:
    """Database-driven availability: the channel is permanently idle or busy."""

    theta: int

    def __post_init__(self) -> None:
        if self.theta not in (0, 1):
            raise ValueError("white-space availability must be 0 or 1")


ChannelModel = MarkovChannel | BernoulliChannel | WhiteSpaceChannel


def stationary_idle_probability(c: ChannelModel) -> float:
    """Long-run fraction of slots the channel is idle."""
    if isinstance(c, MarkovChannel):
        return c.epsilon / (c.epsilon + c.xi)
    return float(c.theta)


def sample_initial_state(c: ChannelModel, rng: np.random.Generator) -> int:
    """Draw a slot-0 state from the stationary distribution."""
    theta = stationary_idle_probability(c)
    if isinstance(c, WhiteSpaceChannel):
        return int(c.theta)
    return 1 if rng.random() < theta else 0


@dataclass(frozen=True)
class FixedRates:
    """User n gets rate mean[n-1][m-1] in every slot it grabs channel m."""

    mean: tuple[tuple[float, ...], ...]  # N x M

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", tuple(tuple(map(float, row)) for row in self.mean))

    @cached_property
    def _table(self) -> np.ndarray:  # (N, M), read by the simulator at (users, channels - 1)
        return np.array(self.mean)


@dataclass(frozen=True)
class RayleighShannonRates:
    """Shannon rates over Rayleigh-faded links, b = W log2(1 + eta*z/omega),
    with one W, eta and omega for every link and user n's power gain z on
    channel m exponentially distributed with mean mean_gain[n-1][m-1]."""

    bandwidth: float    # W
    tx_power: float     # eta
    noise_power: float  # omega
    mean_gain: tuple[tuple[float, ...], ...]  # N x M

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean_gain", tuple(tuple(map(float, row)) for row in self.mean_gain))
        for name in ("bandwidth", "tx_power", "noise_power"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")
        if not all(g > 0 and math.isfinite(g) for row in self.mean_gain for g in row):
            raise ValueError("mean gains must be positive and finite")

    @cached_property
    def _table(self) -> np.ndarray:  # (N, M), read by the simulator at (users, channels - 1)
        return np.array(self.mean_gain)


RateModel = FixedRates | RayleighShannonRates


def _scaled_e1(x: float) -> float:
    """exp(x) * E1(x) for x >= 0, stable for large x.

    Below 600, E1 is specfun's ``e1xb``, the algorithm of scipy's ``exp1``:
    the power series for x <= 1, stopped once a term is within 1e-15 of the
    sum or after 25 terms, and a continued fraction of 20 + int(80 / x) terms
    on (1, 600). Against scipy 1.17.1's ``exp1`` times the same ``exp(x)``:
    - on (1, 600) the bits are scipy's (60,000 log-uniform samples);
    - on x <= 1 they differ by at most 6 ulp: on 70% of 100,000 uniform
      samples of (0, 1] and 0.2% of 100,000 log-uniform ones of (1e-300, 1].
    Against a 200-bit mpmath exp(x) E1(x), on 20,000 uniform samples of
    (0, 1], this is at most 12 ulp off and scipy's at most 11; on (1, 600)
    both are at most 3 ulp off. From 600 up, where exp(x) overflows, it is
    an asymptotic series.
    """
    if x == 0.0:
        return math.inf  # E1's pole, where scipy's exp1 gives inf too
    if x <= 1.0:
        e1 = r = 1.0
        for k in range(1, 26):
            r = -r * k * x / (k + 1.0) ** 2
            e1 += r
            if abs(r) <= abs(e1) * 1e-15:
                break
        return math.exp(x) * (-_EULER_GAMMA - math.log(x) + x * e1)
    if x < 600.0:
        t0 = 0.0
        for k in range(20 + int(80.0 / x), 0, -1):
            t0 = k / (1.0 + k / (x + t0))
        # e1xb returns exp(-x) * t; scaling that product back by exp(x),
        # rather than returning t, is kept for scipy's bits
        return math.exp(x) * (math.exp(-x) * (1.0 / (x + t0)))
    # asymptotic expansion, relative error ~ 7!/x^7 at the truncation point
    s, term = 1.0, 1.0
    for k in range(1, 8):
        term *= -k / x
        s += term
    return s / x


def rayleigh_mean_rate(bandwidth: float, tx_power: float, noise_power: float, mean_gain: float) -> float:
    """E[W log2(1 + eta z / omega)] with z ~ Exp(mean g): (W / ln 2) *
    exp(x) * E1(x) where x = omega / (eta * g)."""
    x = noise_power / (tx_power * mean_gain)
    return (bandwidth / LN2) * _scaled_e1(x)


def mean_rates(r: RateModel) -> Sequence[Sequence[float]]:
    """The N x M table of mean rates E[b] under the rate model."""
    if isinstance(r, FixedRates):
        return r.mean
    return [[rayleigh_mean_rate(r.bandwidth, r.tx_power, r.noise_power, g) for g in row] for row in r.mean_gain]


def calibrate_mean_gain(bandwidth: float, tx_power: float, noise_power: float,
                        target_mean_rate: float) -> float:
    """Find the exponential mean gain giving the requested mean Shannon rate."""
    if target_mean_rate <= 0:
        raise ValueError("target mean rate must be positive")

    def err(log_g: float) -> float:
        return rayleigh_mean_rate(bandwidth, tx_power, noise_power, math.exp(log_g)) - target_mean_rate

    lo, hi = -60.0, 60.0
    if err(lo) > 0 or err(hi) < 0:
        raise ValueError("target mean rate outside the calibratable range")
    return math.exp(_brentq(err, lo, hi, xtol=1e-14, rtol=1e-13))


def _brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method: a line-for-line port of scipy's
    brentq.c, so it returns the same bits as ``scipy.optimize.brentq``.

    f(xa) and f(xb) must differ in sign unless one is 0, which is then returned.
    A NaN value raises ValueError; no convergence in 100 steps raises
    RuntimeError.
    """
    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")

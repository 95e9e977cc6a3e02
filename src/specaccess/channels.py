"""Channel-state processes and per-slot data-rate models.

Channel state is 1 when idle (usable by secondary transmissions) and 0 when
occupied by primary traffic. The two-state Markov model uses epsilon for the
busy-to-idle transition probability and xi for idle-to-busy, giving the
stationary idle probability epsilon / (epsilon + xi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import exp1

from .errors import DegenerateModelError

LN2 = math.log(2.0)


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
class FixedRate:
    mean_rate: float

    def __post_init__(self) -> None:
        if not (self.mean_rate > 0 and math.isfinite(self.mean_rate)):
            raise ValueError("mean rate must be positive and finite")


@dataclass(frozen=True)
class RayleighShannonRate:
    """Shannon rate over a Rayleigh-faded link: b = W log2(1 + eta*z/omega),
    with the power gain z exponentially distributed with mean ``mean_gain``."""

    bandwidth: float   # W
    tx_power: float    # eta
    noise_power: float # omega
    mean_gain: float   # mean of the exponential gain

    def __post_init__(self) -> None:
        for name in ("bandwidth", "tx_power", "noise_power", "mean_gain"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")


RateModel = FixedRate | RayleighShannonRate


def _scaled_e1(x: float) -> float:
    """exp(x) * E1(x), stable for large x."""
    if x < 600.0:
        return math.exp(x) * float(exp1(x))
    # asymptotic expansion, relative error ~ 7!/x^7 at the truncation point
    s, term = 1.0, 1.0
    for k in range(1, 8):
        term *= -k / x
        s += term
    return s / x


def mean_rate(r: RateModel) -> float:
    """E[b] under the rate model.

    For the Rayleigh/Shannon model E[W log2(1 + c z)] with z ~ Exp(mean g)
    equals (W/ln 2) * exp(x) * E1(x) where x = omega / (eta * g).
    """
    if isinstance(r, FixedRate):
        return r.mean_rate
    x = r.noise_power / (r.tx_power * r.mean_gain)
    return (r.bandwidth / LN2) * _scaled_e1(x)


def calibrate_mean_gain(bandwidth: float, tx_power: float, noise_power: float,
                        target_mean_rate: float) -> float:
    """Find the exponential mean gain giving the requested mean Shannon rate."""
    if target_mean_rate <= 0:
        raise ValueError("target mean rate must be positive")

    def err(log_g: float) -> float:
        model = RayleighShannonRate(bandwidth, tx_power, noise_power, math.exp(log_g))
        return mean_rate(model) - target_mean_rate

    lo, hi = -60.0, 60.0
    if err(lo) > 0 or err(hi) < 0:
        raise ValueError("target mean rate outside the calibratable range")
    return math.exp(brentq(err, lo, hi, xtol=1e-14, rtol=1e-13))

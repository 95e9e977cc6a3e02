import math

import numpy as np
import pytest
from scipy.integrate import quad

from specaccess.channels import (
    BernoulliChannel,
    FixedRate,
    MarkovChannel,
    RayleighShannonRate,
    WhiteSpaceChannel,
    calibrate_mean_gain,
    mean_rate,
    sample_initial_state,
    stationary_idle_probability,
)
from specaccess.errors import DegenerateModelError
from specaccess.simulator import _channel_states, _rate_values


def test_stationary_idle_probability_values():
    assert stationary_idle_probability(MarkovChannel(0.3, 0.1)) == pytest.approx(0.75)
    assert stationary_idle_probability(MarkovChannel(0.2, 0.2)) == pytest.approx(0.5)
    assert stationary_idle_probability(BernoulliChannel(0.5)) == 0.5
    assert stationary_idle_probability(WhiteSpaceChannel(1)) == 1.0


def test_degenerate_markov_rejected():
    with pytest.raises(DegenerateModelError):
        MarkovChannel(0.0, 0.0)
    with pytest.raises(ValueError):
        MarkovChannel(-0.1, 0.5)
    with pytest.raises(ValueError):
        BernoulliChannel(0.0)
    with pytest.raises(ValueError):
        WhiteSpaceChannel(0.5)


def test_forced_transitions():
    rng = np.random.default_rng(0)
    c = MarkovChannel(1.0, 1.0)
    ws = WhiteSpaceChannel(0)
    states, final = _channel_states([c, c, ws, ws], [0, 1, 0, 1], 3, rng)
    assert states.T.tolist() == [[1, 0, 1], [0, 1, 0], [0, 0, 0], [0, 0, 0]]
    assert final == (1, 0, 0, 0)


def test_markov_ergodic_frequency_matches_stationary():
    # oracle: the closed-form stationary value 0.2 / (0.2 + 0.3)
    c = MarkovChannel(0.2, 0.3)
    rng = np.random.default_rng(42)
    s = sample_initial_state(c, rng)
    steps = 10**5
    states, _ = _channel_states([c], [s], steps, rng)
    hits = int(states.sum())
    assert abs(hits / steps - 0.4) < 0.01


def test_fixed_rate_identity():
    rng = np.random.default_rng(0)
    assert np.all(_rate_values(FixedRate(2e6), rng.standard_exponential(5)) == 2e6)
    assert mean_rate(FixedRate(2e6)) == 2e6


def test_unit_snr_pins_rate_to_bandwidth():
    # a unit standard-exponential fading draw puts the gain z at its mean
    model = RayleighShannonRate(bandwidth=10.0, tx_power=0.1, noise_power=1e-13, mean_gain=1e-12)
    # eta * z / omega = 0.1 * 1e-12 / 1e-13 = 1  ->  b = W log2(2) = W
    assert _rate_values(model, np.array([1.0]))[0] == pytest.approx(10.0)


def _quad_mean(model: RayleighShannonRate) -> float:
    # substitute u = z / mean_gain so the integrand has unit scale
    cg = model.tx_power * model.mean_gain / model.noise_power

    def integrand(u):
        return model.bandwidth * math.log2(1.0 + cg * u) * math.exp(-u)

    val, _ = quad(integrand, 0, np.inf)
    return val


def test_mean_rate_against_quadrature_and_samples():
    # W = 10 MHz, eta = 100 mW, omega = -100 dBm; gain picked near the paper's scale
    model = RayleighShannonRate(bandwidth=1e7, tx_power=0.1, noise_power=1e-13, mean_gain=3e-13)
    oracle = _quad_mean(model)
    assert mean_rate(model) == pytest.approx(oracle, rel=1e-9)
    rng = np.random.default_rng(7)
    draws = _rate_values(model, rng.standard_exponential(10**5))
    assert abs(draws.mean() - oracle) / oracle < 0.02


def test_calibrate_mean_gain_round_trip():
    for target in (2.0, 30.0, 150.0):
        gain = calibrate_mean_gain(10.0, 0.1, 1e-13, target)
        model = RayleighShannonRate(10.0, 0.1, 1e-13, gain)
        assert mean_rate(model) == pytest.approx(target, rel=1e-10)


def test_scaled_e1_large_argument_branch():
    from scipy.special import exp1

    from specaccess.channels import _scaled_e1

    # at x = 650 both routes are representable: the asymptotic series (used
    # above the x = 600 cutoff) must agree with exp(x) * E1(x) directly
    x = 650.0
    direct = math.exp(x) * float(exp1(x))
    assert _scaled_e1(x) == pytest.approx(direct, rel=1e-9)

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from conftest import rate_values

import specaccess as sa
from specaccess.channels import (
    BernoulliChannel,
    FixedRates,
    MarkovChannel,
    RayleighShannonRates,
    WhiteSpaceChannel,
    _brentq,
    calibrate_mean_gain,
    mean_rates,
    sample_initial_state,
    stationary_idle_probability,
)
from specaccess.errors import DegenerateModelError
from specaccess.simulator import _BLOCK_SLOTS, _blocks, _channel_states


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


def _channel_states_per_slot(models, state0, t, rng):
    """Reference: the per-slot loop, one uniform per slot and channel."""
    u = rng.random((t, len(models)))
    out = np.empty((t, len(models)), dtype=np.int8)
    for m, model in enumerate(models):
        s = int(state0[m])
        for i in range(t):
            if isinstance(model, WhiteSpaceChannel):
                s = model.theta
            elif isinstance(model, BernoulliChannel):
                s = 1 if u[i, m] < model.theta else 0
            elif s == 0:
                s = 1 if u[i, m] < model.epsilon else 0
            else:
                s = 0 if u[i, m] < model.xi else 1
            out[i, m] = s
    return out, tuple(int(x) for x in out[-1])


def _random_channel(rng):
    kind = rng.random()
    if kind < 0.15:
        return WhiteSpaceChannel(int(rng.integers(0, 2)))
    if kind < 0.3:
        return BernoulliChannel(float(rng.uniform(0.01, 0.99)))
    if kind < 0.45:
        # equal rates, or rates summing to 1 (i.i.d. slots)
        eps = float(rng.uniform(0.01, 0.99))
        return MarkovChannel(eps, eps if rng.random() < 0.5 else 1.0 - eps)
    # epsilon and xi each 0, 1 or interior, never both 0
    eps, xi = (float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)], p=[0.2, 0.2, 0.6])) for _ in range(2))
    return MarkovChannel(eps, xi) if eps + xi > 0 else MarkovChannel(1.0, 0.0)


def test_channel_scan_matches_per_slot_loop():
    # each case runs two calls on one stream, the second from the first's
    # final state; the first is 1, 2 or a whole block of slots in turn
    rng = np.random.default_rng(61)
    edge_rates = set()
    for case in range(400):
        models = [_random_channel(rng) for _ in range(int(rng.integers(1, 6)))]
        state = expect_state = tuple(int(s) for s in rng.integers(0, 2, size=len(models)))
        first = {0: 1, 1: 2, 2: _BLOCK_SLOTS}.get(case % 10) or int(rng.integers(3, 300))
        seed = int(rng.integers(2**32))
        got_rng, expect_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for t in (first, int(rng.integers(1, 300))):
            got, state = _channel_states(models, state, t, got_rng)
            expect, expect_state = _channel_states_per_slot(models, expect_state, t, expect_rng)
            assert got.dtype == np.int8 and np.array_equal(got, expect), (case, models, t)
            assert state == expect_state
        edge_rates.update((c.epsilon, c.xi) for c in models if isinstance(c, MarkovChannel))
    assert {(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)} <= edge_rates
    assert any(0 < e == x < 1 for e, x in edge_rates) and any(0 < e < 1 and e + x == 1 for e, x in edge_rates)
    assert any(e == 0 < x < 1 for e, x in edge_rates) and any(e == 1 > x > 0 for e, x in edge_rates)


def test_channel_periods_carry_state_across_blocks():
    models = [MarkovChannel(0.3, 0.2), BernoulliChannel(0.6), WhiteSpaceChannel(1), MarkovChannel(0.05, 0.9)]
    g = sa.InterferenceGraph.from_edges(1, [])
    for t_max in (100, 3000, 3 * _BLOCK_SLOTS // 2):
        periods = 2 * max(1, _BLOCK_SLOTS // t_max) + 1  # two block boundaries; the last block cut short
        sc = sa.Scenario.build(g, models, FixedRates([[1.0] * len(models)]), sa.RandomBackoff(4),
                               t_max=t_max, periods=periods)
        blocks = _blocks(sc, sa.SimStreams.from_seed(7))
        got = np.concatenate([states.reshape(-1, len(models)) for states, _, _ in blocks])
        rng = sa.SimStreams.from_seed(7).channels
        state = sc.initial_channel_state(rng)
        expect = []
        for _ in range(periods):
            states, state = _channel_states_per_slot(models, state, t_max, rng)
            expect.append(states)
        assert np.array_equal(got, np.concatenate(expect)), t_max


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
    assert np.all(rate_values(FixedRates([[2e6]]), 0, 0, rng.standard_exponential(5)) == 2e6)
    assert mean_rates(FixedRates([[2e6]]))[0][0] == 2e6


def test_unit_snr_pins_rate_to_bandwidth():
    # a unit standard-exponential fading draw puts the gain z at its mean
    model = RayleighShannonRates(bandwidth=10.0, tx_power=0.1, noise_power=1e-13, mean_gain=[[1e-12]])
    # eta * z / omega = 0.1 * 1e-12 / 1e-13 = 1  ->  b = W log2(2) = W
    assert rate_values(model, 0, 0, np.array([1.0]))[0] == pytest.approx(10.0)


def test_rayleigh_rates_reject_non_positive_or_non_finite_parameters():
    good = dict(bandwidth=10.0, tx_power=0.1, noise_power=1e-13, mean_gain=[[1e-12, 2e-12]])
    # a zero mean gain would raise ZeroDivisionError in mean_rates, not ValueError
    for key in good:
        for bad in (0.0, -1.0, math.nan, math.inf):
            value = [[1e-12, bad]] if key == "mean_gain" else bad
            with pytest.raises(ValueError, match="positive and finite"):
                RayleighShannonRates(**{**good, key: value})


def _quad_mean(model: RayleighShannonRates) -> float:
    # the mean rate of cell (1, 1); substitute u = z / mean_gain so the integrand has unit scale
    cg = model.tx_power * model.mean_gain[0][0] / model.noise_power

    def integrand(u):
        return model.bandwidth * math.log2(1.0 + cg * u) * math.exp(-u)

    val, _ = quad(integrand, 0, np.inf)
    return val


def test_mean_rate_against_quadrature_and_samples():
    # W = 10 MHz, eta = 100 mW, omega = -100 dBm; gain picked near the paper's scale
    model = RayleighShannonRates(bandwidth=1e7, tx_power=0.1, noise_power=1e-13, mean_gain=[[3e-13]])
    oracle = _quad_mean(model)
    assert mean_rates(model)[0][0] == pytest.approx(oracle, rel=1e-9)
    rng = np.random.default_rng(7)
    draws = rate_values(model, 0, 0, rng.standard_exponential(10**5))
    assert abs(draws.mean() - oracle) / oracle < 0.02


def test_calibrate_mean_gain_round_trip():
    for target in (2.0, 30.0, 150.0):
        gain = calibrate_mean_gain(10.0, 0.1, 1e-13, target)
        model = RayleighShannonRates(10.0, 0.1, 1e-13, [[gain]])
        assert mean_rates(model)[0][0] == pytest.approx(target, rel=1e-10)


def _scipy_calibration(w, eta, omega, target):
    """calibrate_mean_gain with scipy's brentq in place of the in-package port."""
    def err(log_g):
        return mean_rates(RayleighShannonRates(w, eta, omega, [[math.exp(log_g)]]))[0][0] - target

    return math.exp(brentq(err, -60.0, 60.0, xtol=1e-14, rtol=1e-13))


def test_calibration_matches_scipy_brentq_bit_for_bit():
    rng = np.random.default_rng(11)
    cases = [(w, eta, omega, w * 10 ** u)
             for w, eta, omega in ((10.0, 0.1, 1e-13), (1e7, 0.1, 1e-13), (1.0, 1.0, 1.0), (2e7, 0.2, 1e-10))
             for u in rng.uniform(-3.0, 1.5, 300)]
    for name in ("learning_9user.json", "learning_9user_aloha.json"):
        rates = json.loads((Path(__file__).resolve().parents[1] / "configs" / name).read_text())["scenario"]["rates"]
        cases += [(rates["bandwidth"], rates["tx_power"], rates["noise_power"], b)
                  for row in rates["mean_rate"] for b in row]
    assert len(cases) == 1200 + 90
    for case in cases:
        assert calibrate_mean_gain(*case) == _scipy_calibration(*case), case


@pytest.mark.parametrize("f, a, b, root", [
    (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0, 2.0945514815423265),
    (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
    (lambda x: math.atan(x - 0.3), -10.0, 50.0, 0.3),
])
def test_brentq_port_on_analytic_roots(f, a, b, root):
    for xtol, rtol in ((1e-14, 1e-13), (2e-12, 4 * np.finfo(float).eps), (1e-6, 1e-10)):
        x = _brentq(f, a, b, xtol, rtol)
        assert x == brentq(f, a, b, xtol=xtol, rtol=rtol)
        assert abs(x - root) <= 2 * (xtol + rtol * abs(root))


def test_brentq_port_error_paths():
    # a zero at either end is returned as is
    assert _brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-14, 1e-13) == 1.0
    assert _brentq(lambda x: x - 3.0, 1.0, 3.0, 1e-14, 1e-13) == 3.0
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x + 5.0, 1.0, 3.0, 1e-14, 1e-13)
    # the first interpolated step lands on 0.5, where f is NaN
    nan_mid = lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5  # noqa: E731
    solvers = (lambda *fab: _brentq(*fab, 1e-14, 1e-13), lambda *fab: brentq(*fab, xtol=1e-14, rtol=1e-13))
    for solve in solvers:
        with pytest.raises(ValueError, match="NaN"):
            solve(nan_mid, 0.0, 1.0)
    # a ninth-order root creeps in by tiny interpolation steps
    for solve in solvers:
        with pytest.raises(RuntimeError, match="100 iterations"):
            solve(lambda x: x ** 9, -1.0, 2.0)
    with pytest.raises(ValueError, match="outside the calibratable range"):
        calibrate_mean_gain(10.0, 0.1, 1e-13, 1e6)


def test_scaled_e1_large_argument_branch():
    from scipy.special import exp1

    from specaccess.channels import _scaled_e1

    # at x = 650 both routes are representable: the asymptotic series (used
    # above the x = 600 cutoff) must agree with exp(x) * E1(x) directly
    x = 650.0
    direct = math.exp(x) * float(exp1(x))
    assert _scaled_e1(x) == pytest.approx(direct, rel=1e-9)

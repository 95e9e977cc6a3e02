import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specaccess.channels import MarkovChannel, sample_initial_state
from specaccess.errors import UndefinedEstimateError
from specaccess.estimation import (
    ObservationSet,
    UniformNoise,
    estimate_throughput,
    mle_grab,
    mle_markov,
    mle_rate,
    transition_counts,
)
from specaccess.simulator import _channel_states


def test_transition_count_example():
    # S = (1, 1, 0, 1): C11 = 1, C10 = 1, C01 = 1, C00 = 0
    assert transition_counts(np.array([1, 1, 0, 1])) == (0, 1, 1, 1)
    est = mle_markov(np.array([1, 1, 0, 1]))
    assert est.epsilon == pytest.approx(1.0)
    assert est.xi == pytest.approx(0.5)
    assert est.theta == pytest.approx(2.0 / 3.0)


def test_all_idle_trace_is_undefined():
    with pytest.raises(UndefinedEstimateError):
        mle_markov(np.ones(50, dtype=int))
    with pytest.raises(UndefinedEstimateError):
        mle_markov(np.zeros(50, dtype=int))
    with pytest.raises(UndefinedEstimateError):
        mle_markov(np.array([1]))


def test_grab_and_rate_examples():
    obs = ObservationSet(
        S=np.array([1, 1, 1, 1, 0]),
        I=np.array([1, 0, 1, 0, 0]),
        b=np.array([20.0, 0.0, 10.0, 0.0, 0.0]),
    )
    assert mle_grab(obs) == pytest.approx(0.5)
    assert mle_rate(obs) == pytest.approx(15.0)


def test_grab_all_successes():
    obs = ObservationSet(S=np.ones(4, dtype=int), I=np.ones(4, dtype=int), b=np.full(4, 3.0))
    assert mle_grab(obs) == 1.0
    assert mle_rate(obs) == pytest.approx(3.0)


def test_undefined_grab_and_rate():
    busy = ObservationSet(S=np.zeros(5, dtype=int), I=np.zeros(5, dtype=int), b=np.zeros(5))
    with pytest.raises(UndefinedEstimateError):
        mle_grab(busy)
    unlucky = ObservationSet(S=np.ones(5, dtype=int), I=np.zeros(5, dtype=int), b=np.zeros(5))
    with pytest.raises(UndefinedEstimateError):
        mle_rate(unlucky)


def test_observation_invariants_enforced():
    with pytest.raises(ValueError):
        ObservationSet(S=np.array([0, 0]), I=np.array([1, 0]), b=np.zeros(2))
    with pytest.raises(ValueError):
        ObservationSet(S=np.array([1, 1]), I=np.array([0, 1]), b=np.array([5.0, 0.0]))
    with pytest.raises(ValueError):
        ObservationSet(S=np.array([1, 2]), I=np.array([0, 1]), b=np.zeros(2))
    # values that pass I <= S and the rate checks but are not 0/1
    with pytest.raises(ValueError):
        ObservationSet(S=np.array([1, -1]), I=np.array([0, -1]), b=np.zeros(2))
    with pytest.raises(ValueError):
        ObservationSet(S=np.array([1, 1]), I=np.array([-1, 0]), b=np.zeros(2))
    with pytest.raises(ValueError):
        ObservationSet(S=np.array([2, 2]), I=np.array([2, 0]), b=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ObservationSet(S=np.array([1]), I=np.array([0]), b=np.array([-1.0]))
    # values an int8 cast would turn into 0/1: 256 wraps to 0, 0.7 and 1.9 truncate
    with pytest.raises(ValueError):
        ObservationSet(S=np.array([256, 1]), I=np.array([0, 1]), b=np.zeros(2))
    with pytest.raises(ValueError):
        ObservationSet(S=[256, 1], I=[0, 257], b=[0.0, 2.0])
    with pytest.raises(ValueError):
        ObservationSet(S=[0.7, 1], I=[0, 1.9], b=[0.0, 2.0])


def test_throughput_product_and_degenerate_noise():
    S = np.array([1, 0, 1, 1, 0, 1] * 10)
    I = np.array([1, 0, 0, 1, 0, 1] * 10)
    b = np.where(I == 1, 12.0, 0.0)
    obs = ObservationSet(S, I, b)
    est = estimate_throughput(obs)
    assert est.throughput == pytest.approx(est.theta_hat * est.rate_hat * est.grab_hat)
    assert est.noisy == est.throughput
    est2 = estimate_throughput(obs, UniformNoise(0.0), np.random.default_rng(0))
    assert est2.noisy == est2.throughput


def test_noise_is_zero_mean_and_bounded():
    S = np.array([1, 0] * 20)
    I = S.copy()
    b = np.where(I == 1, 4.0, 0.0)
    obs = ObservationSet(S, I, b)
    rng = np.random.default_rng(11)
    noise = UniformNoise(0.5)
    draws = np.array([estimate_throughput(obs, noise, rng).noisy for _ in range(10**5)])
    base = estimate_throughput(obs).throughput
    assert np.all(np.abs(draws - base) <= 0.5)
    sem = 0.5 / np.sqrt(3.0) / np.sqrt(len(draws))
    assert abs(draws.mean() - base) < 3 * sem
    with pytest.raises(ValueError):
        estimate_throughput(obs, UniformNoise(0.5), None)


@given(st.permutations(list(range(12))))
@settings(max_examples=30, deadline=None)
def test_grab_and_rate_invariant_to_slot_order(perm):
    S = np.array([1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1])
    I = np.array([1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0])
    b = np.where(I == 1, np.arange(12, dtype=float) + 1, 0.0)
    base = ObservationSet(S, I, b)
    shuffled = ObservationSet(S[perm], I[perm], b[perm])
    assert mle_grab(shuffled) == pytest.approx(mle_grab(base))
    assert mle_rate(shuffled) == pytest.approx(mle_rate(base))


def _markov_trace(eps, xi, t, seed):
    c = MarkovChannel(eps, xi)
    rng = np.random.default_rng(seed)
    states, _ = _channel_states([c], [sample_initial_state(c, rng)], t, rng)
    return states[:, 0]


def test_markov_mle_consistency():
    est = mle_markov(_markov_trace(0.2, 0.3, 10**5, 4))
    assert abs(est.epsilon - 0.2) < 0.01
    assert abs(est.xi - 0.3) < 0.01
    assert abs(est.theta - 0.4) < 0.01


def test_estimation_error_shrinks_with_trace_length():
    # averaged over seeds, the epsilon error decreases through 1e3 -> 1e4 -> 1e5
    errors = []
    for t in (10**3, 10**4, 10**5):
        errs = [abs(mle_markov(_markov_trace(0.2, 0.3, t, seed)).epsilon - 0.2) for seed in range(8)]
        errors.append(np.mean(errs))
    assert errors[0] > errors[1] > errors[2]

"""Slotted-time engine: channel evolution, contention realisation, policies.

Channel states persist across period boundaries (one continuing chain per
channel); a user's success in a slot depends only on its in-neighbours'
draws, so mutually non-interfering users can occupy the same channel
simultaneously. All randomness flows through four substreams spawned from a
single master seed (SimStreams). One block engine plays every policy: it
draws blocks of whole periods (about _BLOCK_SLOTS slots), each block's
channel states, contention races and, under Shannon rates, fading in one
call each on their own substreams, so within a scenario every policy
consumes all but the policy substream identically, which pairs policy
comparisons on the same sample paths. A
channel-choosing policy then picks the block's channels, per period (k, 1, N)
or per slot (k, t, N), and all its periods resolve at once; the per-period
MLE behind the learning policy's observer and the estimate command reads the
block one period at a time, as the profile may change from period to period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .channels import (
    BernoulliChannel,
    ChannelModel,
    FixedRates,
    RateModel,
    WhiteSpaceChannel,
    mean_rates,
    sample_initial_state,
    stationary_idle_probability,
)
from .contention import AsymptoticBackoff, ContentionMechanism, RandomBackoff, SlottedAloha, WeightedShare
from .estimation import ChannelEstimates, Estimates, chain_counts, channel_estimates, user_estimates
from .game import MAX_ROUNDS, Profile, SpectrumGame, _check_count, _check_profile, better_response_dynamics, welfare
from .graph import InterferenceGraph
from .learning import LearningOutcome, Observer, exact_observer, run_learning

_BLOCK_SLOTS = 2048  # slots drawn at once, rounded down to whole periods (at least one)


@dataclass
class SimStreams:
    """Named RNG substreams, the four children of SeedSequence(seed) in this
    order: channel states, contention races, fading, and policy-level
    decisions (channel choices, stage-game restarts, noise)."""

    channels: np.random.Generator
    contention: np.random.Generator
    fading: np.random.Generator
    policy: np.random.Generator

    @classmethod
    def from_seed(cls, seed) -> "SimStreams":
        return cls(*(np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(4)))


@dataclass(frozen=True)
class Scenario:
    """The stochastic models that realise a game slot by slot, and that game.

    ``game`` is derived from the models once, at construction: theta from
    the channel models' stationary idle probabilities, the mean rates from
    the rate model, and the graph, mechanism and gains h_n (1 for every user
    when ``gain`` is None) as given. So ``dataclasses.replace`` on any model
    rebuilds the game, and the two cannot disagree. A rate table that is not
    N x M (users x channels) raises the game's ValueError, as do t_max and
    periods other than ints >= 1."""

    graph: InterferenceGraph
    channel_models: tuple[ChannelModel, ...]
    rates: RateModel
    mechanism: ContentionMechanism
    gain: tuple[float, ...] | None = None
    t_max: int = 100  # the defaults of the config's scenario section
    periods: int = 500
    game: SpectrumGame = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_count(self.t_max, "t_max")
        _check_count(self.periods, "periods")
        # the config passes lists; tuples keep the scenario hashable
        object.__setattr__(self, "channel_models", tuple(self.channel_models))
        if self.gain is not None:
            object.__setattr__(self, "gain", tuple(self.gain))
        theta = [stationary_idle_probability(c) for c in self.channel_models]
        game = SpectrumGame.create(self.graph, theta, mean_rates(self.rates), self.mechanism, self.gain)
        object.__setattr__(self, "game", game)

    def initial_channel_state(self, rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(sample_initial_state(c, rng) for c in self.channel_models)

    @cached_property
    def _rate_constants(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(rows, table, bandwidth) for _realise_rates, with each user's gain
        h_n folded in once: the flat position of each user's row in the N x M
        table, less one, so that rows + ch is cell (user, ch - 1); the table
        (fixed rates times h_n, or the mean power gains); and for Shannon rates
        W h_n, one per user. At h = 1 every value is the rate model's own, bit
        for bit (x * 1.0 = x)."""
        n, m = self.game.n_users, self.game.n_channels
        rows, gain = np.arange(-1, n * m - 1, m), np.asarray(self.game.gain)
        if isinstance(self.rates, FixedRates):
            return rows, self.rates._table * gain[:, None], None
        return rows, self.rates._table, self.rates.bandwidth * gain


def _channel_states(
    models: Sequence[ChannelModel],
    state0: Sequence[int],
    t: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """(t, M) int8 states after state0 and the last slot's state, from one
    uniform per slot and channel. A Markov step maps the previous state to 0,
    to 1, to itself or to its flip, so a slot's state is the last constant (or
    state0) XOR the parity of the flips since: a prefix scan (Blelloch 1990),
    run once for all Markov channels, channel-major so that each channel's
    slots are contiguous. The parity is an xor-accumulate of the flips; the
    last constant slot is one maximum-accumulate over the flat positions,
    each row starting at its state0 column, and one flat gather reads it."""
    u = rng.random((t, len(models)))
    out = np.empty((t, len(models)), dtype=np.int8)
    markov = []
    for m, model in enumerate(models):
        if isinstance(model, WhiteSpaceChannel):
            out[:, m] = model.theta
        elif isinstance(model, BernoulliChannel):
            out[:, m] = u[:, m] < model.theta
        else:
            markov.append(m)
    if markov:
        k = len(markov)
        eps_xi = np.array([[models[m].epsilon, models[m].xi] for m in markov]).T[..., None]  # (2, k, 1)
        up, down = u.T[markov] < eps_xi  # (k, t) each: 0 -> 1 and 1 -> 0
        parity = np.bitwise_xor.accumulate(up & down, axis=1)
        # row j of the (k, t + 1) flat positions: state0 at j (t + 1), slot i at j (t + 1) + 1 + i
        pos = np.arange(k * (t + 1)).reshape(k, t + 1)
        last = np.maximum.accumulate(np.where(up != down, pos[:, 1:], pos[:, :1]).ravel())
        # each position's state XOR the parity up to it, exact at the constant
        # slots: read at a slot's last one, one XOR with the slot's parity gives its state
        anchor = np.empty((k, t + 1), dtype=bool)
        anchor[:, 0] = [state0[m] == 1 for m in markov]
        np.bitwise_xor(up, parity, out=anchor[:, 1:])
        out[:, markov] = (anchor.take(last).reshape(k, t) ^ parity).T
    return out, tuple(int(x) for x in out[-1])


def _blocks(scenario: Scenario, streams: SimStreams):
    """The rollout's periods in blocks of k = max(1, _BLOCK_SLOTS // t_max)
    whole periods, the last block cut at scenario.periods: the channel states
    (k, t_max, M), with the chain state carried from block to block, the
    contention races (k, t_max, N) and the standard-exponential fading
    (k, t_max, N), each from one draw on its own substream. Fading is drawn
    only where a rate reads it, for Shannon rates; under fixed rates the
    block's fading is None and the fading substream is left untouched. The
    generators give the same values drawn split or joined, so a block equals
    its periods drawn in turn, whatever k is, and within a scenario every
    policy consumes these three substreams identically. A policy's channels
    for the block are (k, 1, N) when they are held for each period, or
    (k, t_max, N) per slot; the kernels broadcast either against the block's
    (k, t_max, .) draws."""
    t, n = scenario.t_max, scenario.game.n_users
    k = max(1, _BLOCK_SLOTS // t)
    fading = None if isinstance(scenario.rates, FixedRates) else streams.fading
    state = scenario.initial_channel_state(streams.channels)
    for start in range(0, scenario.periods, k):
        kb = min(k, scenario.periods - start)
        states, state = _channel_states(scenario.channel_models, state, kb * t, streams.channels)
        yield (states.reshape(kb, t, -1), _contention_draws(scenario, streams, (kb, t)),
               None if fading is None else fading.standard_exponential((kb, t, n)))


def _contention_draws(scenario: Scenario, streams: SimStreams, shape: tuple[int, ...]) -> np.ndarray:
    """Contention race values, (*shape, N), in one draw from the contention
    substream: lower wins, strictly. An Aloha user races 0.0 when it transmits
    and inf when it stays silent."""
    mech, g, shape = scenario.game.mechanism, streams.contention, (*shape, scenario.game.n_users)
    if isinstance(mech, RandomBackoff):
        return g.integers(1, mech.max_counter + 1, size=shape).astype(float)  # races against inf
    if isinstance(mech, AsymptoticBackoff):
        return g.random(shape)
    if isinstance(mech, WeightedShare):
        return g.exponential(1.0 / np.asarray(mech.weights), size=shape)
    if isinstance(mech, SlottedAloha):
        return np.where(g.random(shape) < np.asarray(mech.probs), 0.0, np.inf)
    raise TypeError(f"unknown mechanism {mech!r}")


def _success_matrix(
    scenario: Scenario,
    ch: np.ndarray,
    s_user: np.ndarray,
    draws: np.ndarray,
    rivals: np.ndarray | None = None,
) -> np.ndarray:
    """Grab indicators, (..., N), for channels ch (..., N) broadcast against
    the idle indicators s_user and races draws: per-period channels
    (k, 1, N) build the co-channel mask once per period. A user wins an idle
    slot when its draw beats every co-channel in-neighbour's; under Aloha
    that is when it alone among them transmits. The rivals' minimum is the
    min over the co-channel in-neighbours (inf when there are none), which
    is exact whichever way it is taken: a masked reduce where the mask
    broadcasts against the rivals (per-period channels, the MLE period's
    profile), and a min over a where-filled copy of the rivals where the
    mask changes every slot (per-slot channels), for which it is the faster
    of the two. The in-neighbours sit on axis -2, ahead of the users, since
    numpy reduces a short last axis slowly, which is the layout of the
    game's (d_max, N) in-neighbour index cols (SpectrumGame._in_index);
    rivals is draws[..., cols] when the caller has gathered it already."""
    cols, live = scenario.game._in_index
    co = live & (ch[..., cols] == ch[..., None, :])
    if rivals is None:
        rivals = draws[..., cols]
    if co.shape == rivals.shape:  # a mask per slot; initial=inf, as an edgeless graph reduces an empty axis
        best = np.minimum.reduce(np.where(co, rivals, np.inf), axis=-2, initial=np.inf)
    else:
        best = np.minimum.reduce(rivals, axis=-2, where=co, initial=np.inf)
    return (s_user == 1) & (draws < best)


def _realise_rates(scenario: Scenario, ch: np.ndarray, succ: np.ndarray, fading: np.ndarray | None) -> np.ndarray:
    """b values, (..., N): the rate of each grabbed slot on its channel ch
    (broadcast against succ and fading), zero elsewhere, scaled by the user's
    gain h_n. The rate table, fixed rates times h_n or mean gains, is read at
    (users, ch - 1), so per-period channels (k, 1, N) read it once per period.
    A Shannon rate is W h_n log2(1 + eta z / omega) with the power gain
    z = fading * mean gain; fixed rates read no fading (None from _blocks)."""
    r = scenario.rates
    rows, table, bandwidth = scenario._rate_constants
    cell = table.take(rows + ch)  # at the flat (users, ch - 1) positions
    if isinstance(r, FixedRates):
        return np.where(succ, cell, 0.0)
    return np.where(succ, bandwidth * np.log2(1.0 + r.tx_power * (fading * cell) / r.noise_power), 0.0)


def _resolve(scenario: Scenario, states: np.ndarray, ch: np.ndarray, races: np.ndarray,
             fading: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, I, b), each shaped like races, for channels ch (..., N) over
    channel states (..., M), with the slots' races and fading; ch may hold
    one row per period, (k, 1, N), broadcast against the (k, t, .) slots."""
    m = states.shape[-1]
    rows = np.arange(0, states.size, m).reshape(*states.shape[:-1], 1)  # each slot's first flat position
    s_user = states.reshape(-1).take(rows + (ch - 1))
    succ = _success_matrix(scenario, ch, s_user, races)
    return s_user, succ, _realise_rates(scenario, ch, succ, fading)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomAccessPolicy:
    def label(self) -> str:
        return "random_access"

    def _chooser(self, scenario: Scenario, rng: np.random.Generator):
        """Each user draws a uniform channel per period and holds it: one
        draw per block of k periods, returned as the (k, 1, N) per-period
        channels, which the kernels broadcast against the block's slots."""
        n, m = scenario.game.n_users, scenario.game.n_channels
        return lambda states: rng.integers(1, m + 1, size=(len(states), 1, n))


@dataclass(frozen=True)
class FixedProfilePolicy:
    profile: tuple[int, ...]

    def label(self) -> str:
        return f"fixed_profile({','.join(map(str, self.profile))})"

    def _chooser(self, scenario: Scenario, rng: np.random.Generator):
        _check_profile(scenario.game, self.profile)
        profile = np.array(self.profile, dtype=np.int64)
        return lambda states: np.broadcast_to(profile, (len(states), 1, len(profile)))


@dataclass(frozen=True)
class LearningPolicy:
    gamma: float
    payoff_scale: float | str = 1.0   # "auto": mean expected throughput over (user, channel)
    estimator: str = "mle"            # "mle" (simulated traces) or "exact"
    noise_half_width: float = 0.0
    mu: float | str = "1/T"           # decaying schedule or a constant factor
    initial_perception: float | str = "1/M"

    def label(self) -> str:
        return f"learning(gamma={self.gamma:g})"

    def resolved_scale(self, game: SpectrumGame) -> float:
        if self.payoff_scale == "auto":
            # mean of theta_m h_n B_m^n, summed left to right in row-major order
            values = game._value.ravel().tolist()
            scale = sum(values) / len(values)
            if scale == 0.0:
                raise ValueError('payoff_scale "auto" is undefined: no channel is ever idle, '
                                 "so the mean expected throughput is 0")
            return scale
        return float(self.payoff_scale)

    def initial_matrix(self, game: SpectrumGame) -> np.ndarray | None:
        if self.initial_perception == "1/M":
            return None  # run_learning default: payoff_scale / M
        return np.full((game.n_users, game.n_channels), float(self.initial_perception))


@dataclass(frozen=True)
class DynamicStageGamePolicy:
    """Benchmark with global per-slot channel-state knowledge: each slot is
    played at a stage-game profile solved with theta replaced by the realised
    states. Its chooser groups a block's slots by state vector
    (_state_groups), memoises one solution per state vector for the whole
    rollout and solves new state vectors in the order of their first slot,
    drawing restarts from the policy substream; the block engine then
    resolves all slots of a block at once, like any other policy's."""

    restarts: int = 10
    max_rounds: int = MAX_ROUNDS

    def __post_init__(self) -> None:
        _check_count(self.restarts, "restarts")

    def label(self) -> str:  # names restarts where it differs from the field's default
        return "dynamic_stage_game" if self.restarts == type(self).restarts else f"dynamic_stage_game(restarts={self.restarts})"

    def _chooser(self, scenario: Scenario, rng: np.random.Generator):
        memo: dict[tuple[int, ...], Profile] = {}

        def choose(states: np.ndarray) -> np.ndarray:
            flat = states.reshape(-1, states.shape[-1])
            first, inverse = _state_groups(flat)
            keys = [tuple(key) for key in flat[first].tolist()]
            for j in np.argsort(first).tolist():  # first-seen slot order
                if keys[j] not in memo:
                    memo[keys[j]] = _solve_stage(scenario.game, keys[j], rng, self)
            table = np.array([memo[key] for key in keys], dtype=np.int64)
            return table.take(inverse.reshape(states.shape[:-1]), axis=0)

        return choose


def _state_groups(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slots of (S, M) 0/1 state rows grouped by row: (first, inverse),
    first[g] the first slot of group g and inverse[s] the group of slot s,
    the groups in the rows' lexicographic order, as np.unique gives them for
    whole rows. Each row is packed into ceil(M / 8) bytes, first channel in
    the top bit, so byte order is row order; a row-padded copy packs in one
    call on the flat array, where packbits along an axis is slow. One stable
    sort (a lexsort across the bytes, last byte least significant) keeps each
    group's slots in slot order, so a group's first sorted slot is its first."""
    s, m = flat.shape
    bits = np.zeros((s, -(-m // 8) * 8), dtype=np.int8)
    bits[:, :m] = flat
    keys = np.packbits(bits.ravel()).reshape(s, -1)
    order = np.lexsort(keys.T[::-1])
    ordered = keys.take(order, axis=0)
    new = np.empty(s, dtype=bool)  # where a group starts in sorted order
    new[0] = True
    np.not_equal(ordered[1:, 0], ordered[:-1, 0], out=new[1:])
    for byte in range(1, ordered.shape[1]):
        new[1:] |= ordered[1:, byte] != ordered[:-1, byte]
    inverse = np.empty(s, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


Policy = RandomAccessPolicy | FixedProfilePolicy | LearningPolicy | DynamicStageGamePolicy


@dataclass
class PolicyResult:
    label: str
    welfare_trace: np.ndarray        # per-period total realised throughput per slot
    per_user_mean: np.ndarray        # per-user mean realised throughput per slot
    mean_welfare: float
    learning: LearningOutcome | None = None


def _mle_period(scenario: Scenario, streams: SimStreams):
    """A function that plays the next period of the block engine at a profile
    held for its t_max slots and returns every user's Estimates, one list
    entry per user (NaN where undefined). Per block it lays the states, races
    and fading out slots last, (k, ., t), computes the channel half of the
    estimator (idle slots, epsilon, xi, theta) once per channel as Python
    lists, and gathers the in-neighbours' races once; per period the kernels
    read the period's (t, .) transposed views, so their results are laid out
    slots last too, and the user half adds each user's grabs and rate sum
    (one row sum each) and its grab probability, rate and throughput on
    Python floats, reading the channel half at each user's channel. Under
    fixed rates the block has no fading, and each period reads None."""
    cols, _ = scenario.game._in_index

    def periods():
        for states, races, fading in _blocks(scenario, streams):
            states, races = (np.ascontiguousarray(x.transpose(0, 2, 1)) for x in (states, races))
            fading = repeat(None) if fading is None else np.ascontiguousarray(fading.transpose(0, 2, 1))
            # chain_counts reads (k, t, M) and sums a slot-last copy, here the block itself
            halves = [x.tolist() for x in channel_estimates(chain_counts(states.transpose(0, 2, 1)))]
            # the gathered races live only as long as the zip; the kernels see each period as (t, .)
            yield from zip(states, races, fading, races[:, cols].transpose(0, 3, 1, 2), zip(*halves))

    source = periods()

    def period(a: Profile) -> Estimates:
        states, races, fading, rivals, halves = next(source)
        ch = np.array(a, dtype=np.int64)
        s_user = states.take(ch - 1, axis=0).T
        succ = _success_matrix(scenario, ch, s_user, races.T, rivals)
        b = _realise_rates(scenario, ch, succ, None if fading is None else fading.T)
        return user_estimates(ChannelEstimates(*([x[c - 1] for c in a] for x in halves)), succ, b)

    return period


def make_mle_observer(scenario: Scenario, streams: SimStreams) -> Observer:
    """Observer of every user's MLE throughput estimate (NaN where undefined)
    and empirical per-slot throughput, as two lists of Python floats, one
    _mle_period per call."""
    period, t = _mle_period(scenario, streams), scenario.t_max

    def observe(a: Profile):
        est = period(a)
        return est.throughput, [x / t for x in est.sum_b]

    return observe


def run_policy(scenario: Scenario, policy: Policy, seed) -> PolicyResult:
    """Deterministic policy rollout over scenario.periods decision periods."""
    streams = SimStreams.from_seed(seed)
    if isinstance(policy, LearningPolicy):
        scale = policy.resolved_scale(scenario.game)
        if policy.estimator == "exact":
            observer = exact_observer(scenario.game)
        elif policy.estimator == "mle":
            observer = make_mle_observer(scenario, streams)
        else:
            raise ValueError(f"unknown estimator '{policy.estimator}'")
        outcome = run_learning(
            scenario.game, policy.gamma, scenario.periods, streams.policy,
            observer=observer, payoff_scale=scale, mu=policy.mu, noise=policy.noise_half_width,
            p0=policy.initial_matrix(scenario.game),
        )
        return PolicyResult(
            policy.label(), outcome.welfare_trace, outcome.per_user_mean,
            float(outcome.welfare_trace.mean()), learning=outcome,
        )

    # (periods, N): each period's slots summed in slot order; the last row is
    # copied out so that each block's running sums are freed
    # not b.sum(axis=1): it sums a contiguous (N = 1) slot axis pairwise, other bits on 17 of 120 shapes, for 20 us a block
    per_user = np.concatenate(
        [np.cumsum(b, axis=1)[:, -1].copy() for *_, b in _block_outcomes(scenario, policy, streams)]
    ) / scenario.t_max
    welfare_trace = per_user.sum(axis=1)  # users pairwise, as np.sum of each row
    user_totals = np.cumsum(per_user, axis=0)[-1]  # periods in order
    return PolicyResult(policy.label(), welfare_trace, user_totals / scenario.periods, float(welfare_trace.mean()))


def _block_outcomes(scenario: Scenario, policy: Policy, streams: SimStreams):
    """Play a non-learning policy block by block, yielding each block's
    (ch, S, I, b): the policy chooses the block's channels from its channel
    states, (k, 1, N) per period or (k, t_max, N) per slot, then all k
    periods resolve at once into (k, t_max, N) S, I and b."""
    choose = policy._chooser(scenario, streams.policy)
    for states, races, fading in _blocks(scenario, streams):
        ch = choose(states)
        yield (ch, *_resolve(scenario, states, ch, races, fading))


def _solve_stage(game: SpectrumGame, realised: tuple[int, ...], rng: np.random.Generator,
                 policy: DynamicStageGamePolicy) -> Profile:
    stage = SpectrumGame.create(
        game.graph, [float(s) for s in realised], game.mean_rate, game.mechanism, game.gain
    )
    best, best_w = None, -math.inf
    for _ in range(policy.restarts):
        start = tuple(int(c) for c in rng.integers(1, game.n_channels + 1, size=game.n_users))
        res = better_response_dynamics(stage, start, max_rounds=policy.max_rounds)
        if res.converged:
            return res.profile
        w = welfare(stage, res.profile)
        if w > best_w:
            best, best_w = res.profile, w
    return best


# ---------------------------------------------------------------------------
# Replicated comparisons
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    policy: str
    replication: int
    seed_entropy: tuple[int, int]
    mean_welfare: float


@dataclass
class ComparisonReport:
    runs: list[RunRecord]
    replications: int

    def summary(self) -> dict[str, tuple[float, float, int]]:
        """policy -> (mean welfare, standard error, n runs). Raises ValueError
        when two policies share a label, rather than pooling their runs."""
        by_policy: dict[str, list[float]] = {}
        for r in self.runs:
            by_policy.setdefault(r.policy, []).append(r.mean_welfare)
            if len(by_policy[r.policy]) > self.replications:
                raise ValueError(f"two compared policies share the label {r.policy!r}")
        return {label: (*_mean_sem(vals), len(vals)) for label, vals in by_policy.items()}


def _mean_sem(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and its standard error (0.0 for a single value)."""
    arr = np.array(values)
    if len(arr) < 2:
        return float(arr.mean()), 0.0
    # std of the values times 2^-e: exact, and no square overflows near 1e300
    e = math.frexp(np.abs(arr).max())[1]
    return float(arr.mean()), math.ldexp(float(np.ldexp(arr, -e).std(ddof=1)) / math.sqrt(len(arr)), e)


def compare_policies(
    scenario: Scenario,
    policies: Sequence[Policy],
    replications: int,
    base_seed: int,
    jobs: int = 1,
) -> ComparisonReport:
    """Paired replications: replication r of every policy shares one master
    seed, so primary-traffic realisations coincide across policies."""
    if not policies:
        raise ValueError("need at least one policy")
    _check_count(replications, "replications")
    _check_count(jobs, "jobs")
    tasks = [
        (policy, rep, (int(base_seed), rep))
        for policy in policies
        for rep in range(replications)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, [(scenario, p, rep, ent) for p, rep, ent in tasks]))
    else:
        results = [_run_one((scenario, p, rep, ent)) for p, rep, ent in tasks]
    return ComparisonReport(runs=results, replications=replications)


def _run_one(task) -> RunRecord:
    scenario, policy, rep, entropy = task
    res = run_policy(scenario, policy, entropy)
    return RunRecord(res.label, rep, entropy, res.mean_welfare)


def sweep_gamma(
    scenario: Scenario,
    gammas: Sequence[float],
    replications: int,
    base_seed: int,
    template: LearningPolicy,
    jobs: int = 1,
) -> list[tuple[float, float, float]]:
    """(gamma, mean welfare, standard error) per temperature, paired seeds:
    one comparison over a policy per gamma, its runs read back in blocks of
    `replications`."""
    policies = [replace(template, gamma=float(g)) for g in gammas]
    runs = compare_policies(scenario, policies, replications, base_seed, jobs=jobs).runs
    return [
        (p.gamma, *_mean_sem([r.mean_welfare for r in runs[k * replications : (k + 1) * replications]]))
        for k, p in enumerate(policies)
    ]

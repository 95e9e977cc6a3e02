"""Slotted-time engine: channel evolution, contention realisation, policies.

Channel states persist across period boundaries (one continuing chain per
channel); a user's success in a slot depends only on its in-neighbours'
draws, so mutually non-interfering users can occupy the same channel
simultaneously. All randomness flows through named substreams spawned from a
single master seed - the channel substream is consumed identically by every
policy, which pairs policy comparisons on the same primary-traffic sample
paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .channels import (
    BernoulliChannel,
    ChannelModel,
    FixedRate,
    RateModel,
    WhiteSpaceChannel,
    mean_rate,
    sample_initial_state,
)
from .contention import AsymptoticBackoff, RandomBackoff, SlottedAloha, WeightedShare
from .errors import UndefinedEstimateError
from .estimation import ObservationSet, UniformNoise, estimate_throughput
from .game import Profile, SpectrumGame, better_response_dynamics, welfare
from .graph import InterferenceGraph
from .learning import LearningOutcome, Observer, exact_observer, reciprocal_schedule, run_learning


@dataclass
class SimStreams:
    """Named RNG substreams: one for channel states, one per user, one for
    policy-level decisions (channel choices, stage-game restarts, noise)."""

    channels: np.random.Generator
    users: tuple[np.random.Generator, ...]
    policy: np.random.Generator

    @classmethod
    def from_seed(cls, seed, n_users: int) -> "SimStreams":
        ss = np.random.SeedSequence(seed)
        children = ss.spawn(n_users + 2)
        return cls(
            channels=np.random.default_rng(children[0]),
            users=tuple(np.random.default_rng(c) for c in children[1 : n_users + 1]),
            policy=np.random.default_rng(children[n_users + 1]),
        )


@dataclass(frozen=True)
class Scenario:
    """A game plus the stochastic models that realise it slot by slot."""

    game: SpectrumGame
    channel_models: tuple[ChannelModel, ...]
    rate_models: tuple[tuple[RateModel, ...], ...]
    t_max: int
    periods: int

    def __post_init__(self) -> None:
        if self.t_max < 1 or self.periods < 1:
            raise ValueError("t_max and periods must be >= 1")
        if len(self.channel_models) != self.game.n_channels:
            raise ValueError("one channel model per channel required")
        if len(self.rate_models) != self.game.n_users or any(
            len(row) != self.game.n_channels for row in self.rate_models
        ):
            raise ValueError("rate_models must be an N x M table")

    @classmethod
    def build(
        cls,
        graph: InterferenceGraph,
        channel_models: Sequence[ChannelModel],
        rate_models: Sequence[Sequence[RateModel]],
        mechanism,
        gain: Sequence[float] | None = None,
        t_max: int = 100,
        periods: int = 500,
    ) -> "Scenario":
        """Derive the analytic game (theta, mean rates) from the stochastic
        models so the two can never disagree."""
        from .channels import stationary_idle_probability

        theta = [stationary_idle_probability(c) for c in channel_models]
        rates = [[mean_rate(r) for r in row] for row in rate_models]
        game = SpectrumGame.create(graph, theta, rates, mechanism, gain)
        return cls(
            game=game,
            channel_models=tuple(channel_models),
            rate_models=tuple(tuple(row) for row in rate_models),
            t_max=int(t_max),
            periods=int(periods),
        )

    def initial_channel_state(self, rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(sample_initial_state(c, rng) for c in self.channel_models)

    @cached_property
    def _in_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(idx, valid), both (N, d_max): row u holds user u+1's in-neighbours
        as 0-based columns, padded with column 0 where valid is False."""
        nbrs = [sorted(self.game.graph.in_neighbors(u)) for u in range(1, self.game.n_users + 1)]
        idx = np.zeros((len(nbrs), max(map(len, nbrs))), dtype=np.int64)
        valid = np.zeros(idx.shape, dtype=bool)
        for u, row in enumerate(nbrs):
            idx[u, : len(row)] = [i - 1 for i in row]
            valid[u, : len(row)] = True
        return idx, valid


def _channel_states(
    models: Sequence[ChannelModel],
    state0: Sequence[int],
    t: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, tuple[int, ...]]:
    u = rng.random((t, len(models)))
    out = np.empty((t, len(models)), dtype=np.int8)
    final = list(state0)
    for m, model in enumerate(models):
        if isinstance(model, WhiteSpaceChannel):
            out[:, m] = model.theta
            final[m] = int(model.theta)
        elif isinstance(model, BernoulliChannel):
            col = (u[:, m] < model.theta).astype(np.int8)
            out[:, m] = col
            final[m] = int(col[-1])
        else:
            s = int(state0[m])
            eps, xi = model.epsilon, model.xi
            col_u = u[:, m]
            for i in range(t):
                if s == 0:
                    s = 1 if col_u[i] < eps else 0
                else:
                    s = 0 if col_u[i] < xi else 1
                out[i, m] = s
            final[m] = s
    return out, tuple(final)


def _contention_draws(scenario: Scenario, streams: SimStreams, t: int) -> np.ndarray:
    """Per-user contention draws, (t, N). Race values for backoff-family
    mechanisms (lower wins, strict), transmit indicators for Aloha."""
    mech = scenario.game.mechanism
    n = scenario.game.n_users
    cols = []
    for i in range(n):
        g = streams.users[i]
        if isinstance(mech, RandomBackoff):
            cols.append(g.integers(1, mech.max_counter + 1, size=t).astype(float))
        elif isinstance(mech, AsymptoticBackoff):
            cols.append(g.random(t))
        elif isinstance(mech, WeightedShare):
            cols.append(g.exponential(1.0 / mech.weights[i], size=t))
        elif isinstance(mech, SlottedAloha):
            cols.append((g.random(t) < mech.probs[i]).astype(float))
        else:
            raise TypeError(f"unknown mechanism {mech!r}")
    return np.column_stack(cols)


def _rate_draws(scenario: Scenario, streams: SimStreams, t: int) -> np.ndarray:
    """Standard-exponential fading draws, (t, N); scaled by the per-channel
    mean gain at use time so the draw count never depends on outcomes."""
    return np.column_stack([streams.users[i].standard_exponential(t) for i in range(scenario.game.n_users)])


def _success_matrix(
    scenario: Scenario,
    ch: np.ndarray,
    s_user: np.ndarray,
    draws: np.ndarray,
) -> np.ndarray:
    """Grab indicators, (t, N), for per-slot channels ch (t, N). A user wins an
    idle slot when its draw beats every co-channel in-neighbour's (backoff
    family), or when it alone among them transmits (Aloha)."""
    idx, valid = scenario._in_index
    co = valid & (ch[:, idx] == ch[:, :, None])
    nbr = draws[:, idx]
    idle = s_user == 1
    if isinstance(scenario.game.mechanism, SlottedAloha):
        return idle & (draws == 1.0) & ~(co & (nbr == 1.0)).any(axis=2)
    return idle & (draws < np.min(nbr, axis=2, where=co, initial=np.inf))


def _realise_rates(
    scenario: Scenario,
    channel_of_user: np.ndarray,
    succ: np.ndarray,
    fading: np.ndarray,
) -> np.ndarray:
    """b values, (t, N): zero unless the slot was grabbed."""
    t, n = succ.shape
    b = np.zeros((t, n))
    for u in range(n):
        ch = channel_of_user[:, u]
        sel = succ[:, u]
        if not sel.any():
            continue
        if np.all(ch == ch[0]):
            model = scenario.rate_models[u][int(ch[0]) - 1]
            b[sel, u] = _rate_values(model, fading[sel, u])
        else:
            for m in np.unique(ch[sel]):
                mask = sel & (ch == m)
                model = scenario.rate_models[u][int(m) - 1]
                b[mask, u] = _rate_values(model, fading[mask, u])
    return b


def _rate_values(model: RateModel, fading: np.ndarray) -> np.ndarray:
    if isinstance(model, FixedRate):
        return np.full(fading.shape, model.mean_rate)
    z = fading * model.mean_gain
    return model.bandwidth * np.log2(1.0 + model.tx_power * z / model.noise_power)


def _simulate_block(
    scenario: Scenario,
    a: Profile,
    state0: Sequence[int],
    streams: SimStreams,
    t: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    states, final = _channel_states(scenario.channel_models, state0, t, streams.channels)
    a_idx = np.array(a, dtype=np.int64) - 1
    s_user = states[:, a_idx]
    draws = _contention_draws(scenario, streams, t)
    fading = _rate_draws(scenario, streams, t)
    ch = np.broadcast_to(a_idx + 1, (t, len(a)))
    succ = _success_matrix(scenario, ch, s_user, draws)
    b = _realise_rates(scenario, ch, succ, fading)
    return s_user.astype(np.int8), succ.astype(np.int8), b, final


def simulate_period(
    scenario: Scenario,
    a: Profile,
    state: Sequence[int],
    streams: SimStreams,
) -> tuple[list[ObservationSet], tuple[int, ...]]:
    """t_max consecutive slots with every user holding its channel; returns
    one well-formed ObservationSet per user plus the carried channel state."""
    s, i, b, final = _simulate_block(scenario, a, state, streams, scenario.t_max)
    obs = [ObservationSet(s[:, u], i[:, u], b[:, u]) for u in range(scenario.game.n_users)]
    return obs, final


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomAccessPolicy:
    def label(self) -> str:
        return "random_access"


@dataclass(frozen=True)
class FixedProfilePolicy:
    profile: tuple[int, ...]

    def label(self) -> str:
        return "fixed_profile"


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
            return game.mean_effective_value()
        return float(self.payoff_scale)

    def mu_schedule(self):
        if self.mu == "1/T":
            return reciprocal_schedule
        c = float(self.mu)
        return lambda T: c

    def initial_matrix(self, game: SpectrumGame) -> np.ndarray | None:
        if self.initial_perception == "1/M":
            return None  # run_learning default: payoff_scale / M
        return np.full((game.n_users, game.n_channels), float(self.initial_perception))


@dataclass(frozen=True)
class DynamicStageGamePolicy:
    """Benchmark with global per-slot channel-state knowledge: each slot is
    played at a stage-game profile solved with theta replaced by the realised
    states. Solutions are memoised per state vector and new state vectors are
    solved in slot order; the slots of a period are then resolved together."""

    restarts: int = 10
    max_rounds: int = 200

    def label(self) -> str:
        return "dynamic_stage_game"


Policy = RandomAccessPolicy | FixedProfilePolicy | LearningPolicy | DynamicStageGamePolicy


@dataclass
class PolicyResult:
    label: str
    welfare_trace: np.ndarray        # per-period total realised throughput per slot
    per_user_mean: np.ndarray        # per-user mean realised throughput per slot
    mean_welfare: float
    learning: LearningOutcome | None = None


def make_mle_observer(scenario: Scenario, streams: SimStreams,
                      noise: UniformNoise | None = None) -> Observer:
    """Observer producing per-user MLE throughput estimates from simulated
    traces; realised value is the empirical per-slot throughput."""
    state_cell = [scenario.initial_channel_state(streams.channels)]

    def observe(a: Profile, period: int, rng: np.random.Generator):
        obs, state_cell[0] = simulate_period(scenario, a, state_cell[0], streams)
        out = []
        for u in range(scenario.game.n_users):
            realised = float(obs[u].b.sum()) / scenario.t_max
            try:
                est = estimate_throughput(obs[u], noise, rng).noisy
            except UndefinedEstimateError:
                est = None
            out.append((est, realised))
        return out

    return observe


def run_policy(scenario: Scenario, policy: Policy, seed) -> PolicyResult:
    """Deterministic policy rollout over scenario.periods decision periods."""
    streams = SimStreams.from_seed(seed, scenario.game.n_users)
    n, m = scenario.game.n_users, scenario.game.n_channels
    periods, t_max = scenario.periods, scenario.t_max

    if isinstance(policy, LearningPolicy):
        scale = policy.resolved_scale(scenario.game)
        noise = UniformNoise(policy.noise_half_width) if policy.noise_half_width > 0 else None
        if policy.estimator == "exact":
            observer = exact_observer(scenario.game, noise)
        elif policy.estimator == "mle":
            observer = make_mle_observer(scenario, streams, noise)
        else:
            raise ValueError(f"unknown estimator '{policy.estimator}'")
        outcome = run_learning(
            scenario.game, policy.gamma, periods, streams.policy,
            observer=observer, payoff_scale=scale,
            mu=policy.mu_schedule(), p0=policy.initial_matrix(scenario.game),
        )
        return PolicyResult(
            policy.label(), outcome.welfare_trace, outcome.per_user_mean,
            float(outcome.welfare_trace.mean()), learning=outcome,
        )

    if isinstance(policy, DynamicStageGamePolicy):
        return _run_dynamic(scenario, policy, streams)

    state = scenario.initial_channel_state(streams.channels)
    welfare_trace = np.zeros(periods)
    user_totals = np.zeros(n)
    for t in range(periods):
        if isinstance(policy, RandomAccessPolicy):
            a = tuple(int(c) for c in streams.policy.integers(1, m + 1, size=n))
        elif isinstance(policy, FixedProfilePolicy):
            a = policy.profile
        else:
            raise TypeError(f"unknown policy {policy!r}")
        _, _, b, state = _simulate_block(scenario, a, state, streams, t_max)
        per_user = np.array([b[:, u].sum() / t_max for u in range(n)])
        user_totals += per_user
        welfare_trace[t] = per_user.sum()
    return PolicyResult(policy.label(), welfare_trace, user_totals / periods, float(welfare_trace.mean()))


def _run_dynamic(scenario: Scenario, policy: DynamicStageGamePolicy, streams: SimStreams) -> PolicyResult:
    game = scenario.game
    periods, t_max = scenario.periods, scenario.t_max
    memo: dict[tuple[int, ...], Profile] = {}
    state = scenario.initial_channel_state(streams.channels)
    welfare_trace = np.zeros(periods)
    user_totals = np.zeros(game.n_users)

    for t in range(periods):
        states, state = _channel_states(scenario.channel_models, state, t_max, streams.channels)
        draws = _contention_draws(scenario, streams, t_max)
        fading = _rate_draws(scenario, streams, t_max)
        profiles = []
        for key in map(tuple, states.tolist()):  # slot order: new states are solved as first seen
            prof = memo.get(key)
            if prof is None:
                prof = memo[key] = _solve_stage(game, key, streams.policy, policy)
            profiles.append(prof)
        ch = np.array(profiles)
        s_user = np.take_along_axis(states, ch - 1, axis=1)
        b = _realise_rates(scenario, ch, _success_matrix(scenario, ch, s_user, draws), fading)
        per_user = np.cumsum(b, axis=0)[-1] / t_max  # slot-order sum, as a per-slot loop adds
        user_totals += per_user
        welfare_trace[t] = per_user.sum()
    return PolicyResult(policy.label(), welfare_trace, user_totals / periods, float(welfare_trace.mean()))


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
        """policy -> (mean welfare, standard error, n runs)."""
        out: dict[str, tuple[float, float, int]] = {}
        by_policy: dict[str, list[float]] = {}
        for r in self.runs:
            by_policy.setdefault(r.policy, []).append(r.mean_welfare)
        for label, vals in by_policy.items():
            arr = np.array(vals)
            sem = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
            out[label] = (float(arr.mean()), sem, len(arr))
        return out


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
    """(gamma, mean welfare, standard error) per temperature, paired seeds."""
    out = []
    for g in gammas:
        policy = replace(template, gamma=float(g))
        report = compare_policies(scenario, [policy], replications, base_seed, jobs=jobs)
        mean, sem, _ = report.summary()[policy.label()]
        out.append((float(g), mean, sem))
    return out

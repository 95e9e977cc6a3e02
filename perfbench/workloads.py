"""The benchmark's four workloads: seeded inputs, operations and their checks.

A workload is a fixed list of operations (one pass). Each operation calls the
package's public API the way the CLI subcommands do, and comes with a check
of its outputs. Operations that share a ``kind`` do the same amount of work
on exchangeable inputs, so the harness may take medians over them.

Only public names are used, and none of the APIs slated for deletion, so that
refactors of the package can be measured with this file unchanged. The
package modules are looked up at call time (``simulator.run_policy`` rather
than an imported ``run_policy``) so the tracer's patches take effect.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import specaccess as sa
from specaccess import config, game, learning, simulator

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Fixed-point solves: plain iteration under a budget that never changes, so
# that a better solver shows as converged solves, not as a changed input.
FP_TOL = 1e-10
FP_BUDGET = 1000

# Readings when the benchmark was defined (full size). The known defects
# stay in the inputs; a fix shows as a moved counter.
BASELINE = {
    "small_mixed": "white-space triangle: 600 of 600 learning updates skipped",
    "mean_dynamics": "6 of 12 config solves (gamma 5, 10, 50 on both 9-user configs) "
                     "do not converge within 1000 plain iterations",
}


@dataclass
class Outcome:
    """What an operation's check found."""

    problems: list[str] = field(default_factory=list)   # failed checks
    known_defect: str | None = None                     # documented shortfall, not a failure
    digest: bytes = b""                                 # canonical outputs
    notes: dict[str, float] = field(default_factory=dict)  # per-op counters


@dataclass
class Op:
    kind: str
    work: dict[str, int]                 # e.g. {"periods": 1000}
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    load_config_s: float                 # time spent in load_config during set-up
    summary: Callable[[list[Outcome]], list[str]] = lambda outcomes: []


def _floats(*xs) -> bytes:
    return b"".join(np.ascontiguousarray(np.asarray(x, dtype=float)).tobytes() for x in xs)


class _Loader:
    """load_config with its time accounted to set-up."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __call__(self, name: str):
        t0 = time.perf_counter()
        cfg = config.load_config(CONFIGS / name)
        self.seconds += time.perf_counter() - t0
        return cfg


# ---------------------------------------------------------------------------
# Seeded instance generators
# ---------------------------------------------------------------------------

def random_digraph(rng: np.random.Generator, n: int, p: float) -> sa.InterferenceGraph:
    """Directed graph with round(p * n(n-1)) edges (at least one) drawn
    uniformly among ordered pairs. The edge count is fixed so that the work a
    scan does varies little from seed to seed."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    k = max(1, round(p * len(pairs)))
    return sa.InterferenceGraph.from_edges(n, [pairs[i] for i in rng.choice(len(pairs), k, replace=False)])


def random_mechanism(rng: np.random.Generator, n: int, kind: str):
    if kind == "backoff":
        return sa.RandomBackoff(int(rng.integers(2, 20)))
    if kind == "asymptotic":
        return sa.AsymptoticBackoff()
    if kind == "weighted":
        return sa.WeightedShare(tuple(float(w) for w in rng.uniform(0.5, 3.0, n)))
    if kind == "aloha":
        return sa.SlottedAloha(tuple(float(q) for q in rng.uniform(0.15, 0.85, n)))
    raise ValueError(kind)


def random_game(rng: np.random.Generator, n: int, m: int, mech: str, p: float) -> sa.SpectrumGame:
    graph = random_digraph(rng, n, p)
    theta = rng.uniform(0.1, 1.0, m)
    rates = rng.uniform(1.0, 10.0, (n, m))
    return sa.SpectrumGame.create(graph, theta, rates, random_mechanism(rng, n, mech))


# ---------------------------------------------------------------------------
# Operation builders
# ---------------------------------------------------------------------------

def _rollout(scenario, policy, entropy, kind: str) -> Op:
    def run():
        return simulator.run_policy(scenario, policy, entropy)

    def check(res) -> Outcome:
        out = Outcome()
        trace = np.asarray(res.welfare_trace, dtype=float)
        if trace.shape != (scenario.periods,):
            out.problems.append(f"{kind}: welfare trace has shape {trace.shape}, want ({scenario.periods},)")
        if not (np.all(np.isfinite(trace)) and np.all(trace >= 0.0)):
            out.problems.append(f"{kind}: welfare trace not finite and non-negative")
        if not (math.isfinite(res.mean_welfare) and res.mean_welfare >= 0.0):
            out.problems.append(f"{kind}: mean welfare {res.mean_welfare!r}")
        out.notes["mean_welfare"] = float(res.mean_welfare)
        out.digest = _floats(trace, res.mean_welfare)
        outcome = getattr(res, "learning", None)
        if outcome is not None:
            out.notes["skipped_updates"] = float(outcome.skipped_updates)
            out.notes["updates"] = float(scenario.periods * scenario.game.n_users)
            out.digest += _floats(outcome.perceptions)
        return out

    return Op(kind, {"periods": scenario.periods}, run, check)


def _scan(spec: sa.SpectrumGame, kind: str, expect_no_ne: bool = False) -> Op:
    def run():
        return game.social_welfare_and_poa(spec), game.enumerate_pure_ne(spec)

    def check(res) -> Outcome:
        report, ne = res
        out = Outcome()
        ne = [tuple(a) for a in ne]
        if ne != [tuple(a) for a in report.pure_ne]:
            out.problems.append(f"{kind}: enumerate_pure_ne differs from PoaReport.pure_ne")
        for a in ne:
            if not game.is_pure_ne(spec, a).is_ne:
                out.problems.append(f"{kind}: reported NE {a} fails is_pure_ne")
        if not math.isfinite(report.optimal_welfare):
            out.problems.append(f"{kind}: optimal welfare {report.optimal_welfare!r}")
        if ne:
            if report.poa is None or not (report.lower_bound - 1e-9 <= report.poa <= 1.0 + 1e-9):
                out.problems.append(f"{kind}: PoA {report.poa!r} outside [{report.lower_bound}, 1]")
        else:
            cert = report.no_ne_certificate or []
            if not cert:
                out.problems.append(f"{kind}: no pure NE and no certificate")
            for a, w in cert:
                dev = tuple(a[: w.user - 1]) + (w.better_channel,) + tuple(a[w.user:])
                gain = spec.payoff(dev, w.user) - spec.payoff(tuple(a), w.user)
                if not (gain > 0.0 and math.isclose(gain, w.gain, rel_tol=1e-9, abs_tol=1e-12)):
                    out.problems.append(f"{kind}: witness {w} at {a} is not an improving deviation")
        if expect_no_ne and ne:
            out.problems.append(f"{kind}: expected no pure NE, found {len(ne)}")
        out.digest = repr((ne, report.optimal_profile, report.poa, report.lower_bound,
                           [(tuple(a), w.user, w.better_channel) for a, w in report.no_ne_certificate or []]
                           )).encode() + _floats(report.optimal_welfare)
        return out

    return Op(kind, {"profiles": 2 * spec.n_channels ** spec.n_users}, run, check)


def _fixed_point(spec, gamma: float, scale: float, kind: str, oracles: dict | None = None) -> Op:
    above_bound = gamma / scale >= learning.contraction_temperature_bound(spec)

    def run():
        fp = learning.mean_dynamics_fixed_point(spec, gamma, tol=FP_TOL, max_iter=FP_BUDGET, payoff_scale=scale)
        cert = learning.approx_ne_gap(spec, fp.sigma, gamma, payoff_scale=scale)
        if oracles is not None:
            oracles[kind] = fp.perceptions
        return fp, cert

    def check(res) -> Outcome:
        fp, cert = res
        out = Outcome(notes={"fp_iterations": float(fp.iterations), "fp_converged": float(fp.converged),
                             "cert_satisfied": float(cert.satisfied)})
        out.digest = _floats(fp.perceptions, fp.iterations, cert.delta, cert.max_br_gain)
        if not fp.converged:
            if above_bound:
                out.known_defect = f"{kind}: no convergence within {FP_BUDGET} iterations above the contraction bound"
            else:
                out.problems.append(f"{kind}: no convergence below the contraction bound")
            return out
        if not fp.residual < FP_TOL:
            out.problems.append(f"{kind}: residual {fp.residual} not below {FP_TOL}")
        if not cert.satisfied:
            out.problems.append(f"{kind}: certificate fails, max gain {cert.max_br_gain} > delta {cert.delta}")
        if not cert.delta <= cert.entropy_bound + 1e-12:
            out.problems.append(f"{kind}: delta {cert.delta} above (1/gamma) ln M = {cert.entropy_bound}")
        return out

    return Op(kind, {"fixed_points": 1}, run, check)


def _tracking(spec, gamma: float, periods: int, seed: list[int], oracles: dict, oracle_kind: str, kind: str) -> Op:
    def run():
        return learning.run_learning(spec, gamma, periods, np.random.default_rng(seed),
                                     oracle=oracles[oracle_kind], record=False)

    def check(res) -> Outcome:
        out = Outcome(notes={"skipped_updates": float(res.skipped_updates)})
        trace = np.asarray(res.welfare_trace, dtype=float)
        if trace.shape != (periods,) or not (np.all(np.isfinite(trace)) and np.all(trace >= 0.0)):
            out.problems.append(f"{kind}: welfare trace not {periods} finite non-negative values")
        if res.error_trace is None or not np.all(np.isfinite(res.error_trace)):
            out.problems.append(f"{kind}: error trace missing or not finite")
        out.digest = _floats(trace, res.perceptions, res.error_trace if res.error_trace is not None else [])
        return out

    return Op(kind, {"periods": periods}, run, check)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _rollout_9user(seed: int, tiny: bool, load: _Loader) -> Workload:
    scenario = load("learning_9user.json").scenario
    replications = 2
    if tiny:
        scenario, replications = dataclasses.replace(scenario, periods=20), 1
    policies = [simulator.LearningPolicy(5.0, "auto"), simulator.RandomAccessPolicy()]
    ops = [_rollout(scenario, p, (seed, rep), p.label()) for rep in range(replications) for p in policies]

    def summary(outcomes: list[Outcome]) -> list[str]:
        by_kind: dict[str, list[float]] = {}
        for op, o in zip(ops, outcomes):
            by_kind.setdefault(op.kind, []).append(o.notes.get("mean_welfare", math.nan))
        ratio = np.mean(by_kind[policies[0].label()]) / np.mean(by_kind[policies[1].label()])
        return [f"learning/random mean-welfare ratio {ratio:.4f} (criterion 11 requires >= 1.2)"]

    return Workload("rollout_9user", ops, load.seconds, summary)


def _small_mixed(seed: int, tiny: bool, load: _Loader) -> Workload:
    dag = load("dag_chain.json")
    tri = load("triangle_no_ne.json")
    dag_scenario, tri_scenario, replications = dag.scenario, tri.scenario, dag.compare_replications
    if tiny:
        dag_scenario = dataclasses.replace(dag_scenario, periods=10)
        tri_scenario = dataclasses.replace(tri_scenario, periods=10)
        replications = 1
    ops = [_rollout(dag_scenario, p, (seed, rep), p.label())
           for rep in range(replications) for p in dag.policies]
    ops.append(_rollout(tri_scenario, config.learning_policy_from(tri), (seed, 0), "triangle_learning"))

    def summary(outcomes: list[Outcome]) -> list[str]:
        o = outcomes[-1].notes
        return [f"white-space triangle: {o.get('skipped_updates', math.nan):.0f} of "
                f"{o.get('updates', math.nan):.0f} learning updates skipped "
                f"(baseline: {BASELINE['small_mixed']})"]

    return Workload("small_mixed", ops, load.seconds, summary)


def _exhaustive_poa(seed: int, tiny: bool, load: _Loader) -> Workload:
    rng = np.random.default_rng([seed, 1])
    shapes = [(4, 2), (3, 3)] if tiny else [(8, 4), (16, 2)]
    ops = []
    for mech in ("backoff", "weighted", "aloha"):
        for n, m in shapes:
            ops.append(_scan(random_game(rng, n, m, mech, 0.3), f"{n}x{m}_{mech}"))
    ops.append(_scan(load("triangle_no_ne.json").scenario.game, "triangle", expect_no_ne=True))
    return Workload("exhaustive_poa", ops, load.seconds)


def _mean_dynamics(seed: int, tiny: bool, load: _Loader) -> Workload:
    ops = []
    # (a) the shipped 9-user configs at every swept temperature
    for name in ("learning_9user.json", "learning_9user_aloha.json")[: 1 if tiny else 2]:
        cfg = load(name)
        scale = config.resolved_payoff_scale(cfg)
        gammas = cfg.sweep_gammas[:: 5] if tiny else cfg.sweep_gammas
        for g in gammas:
            ops.append(_fixed_point(cfg.scenario.game, g, scale, f"{Path(name).stem}_g{g:g}"))
    # (b) random games inside the contraction regime, (c) learning that tracks them
    rng = np.random.default_rng([seed, 2])
    oracles: dict = {}
    games = []
    for k, mech in enumerate(("backoff", "asymptotic", "weighted", "aloha") * (1 if tiny else 2)):
        spec = random_game(rng, 4 + k % 3, 3, mech, 0.4)
        gamma = 0.9 * learning.contraction_temperature_bound(spec)
        games.append((k, mech, spec, gamma))
        ops.append(_fixed_point(spec, gamma, 1.0, f"random{k}_{mech}", oracles))
    periods = 50 if tiny else 2000
    for k, mech, spec, gamma in games:
        ops.append(_tracking(spec, gamma, periods, [seed, 3, k], oracles,
                             f"random{k}_{mech}", f"tracking{k}_{mech}"))

    def summary(outcomes: list[Outcome]) -> list[str]:
        config_solves = [o for op, o in zip(ops, outcomes) if op.kind.startswith("learning_9user")]
        missed = sum(1 for o in config_solves if not o.notes.get("fp_converged", 0.0))
        return [f"config solves not converged: {missed} of {len(config_solves)} "
                f"(baseline: {BASELINE['mean_dynamics']})"]

    return Workload("mean_dynamics", ops, load.seconds, summary)


_BUILDERS = {
    "rollout_9user": _rollout_9user,
    "small_mixed": _small_mixed,
    "exhaustive_poa": _exhaustive_poa,
    "mean_dynamics": _mean_dynamics,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's operations for this seed; the same seed gives the same inputs."""
    return _BUILDERS[name](seed, tiny, _Loader())


def digest(outcomes: list[Outcome]) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.digest)
    return h.hexdigest()

"""Command-line surface: one binary, batch subcommands, CSV/JSON artifacts.

Commands operate on a JSON experiment configuration (see config.schema.json
at the repo root); ``classify`` also takes a bare graph file. Interference
graph files are JSON documents of one of three shapes:
``{"n_users": N, "edges": [[i, j], ...]}`` (1-based, edge [i, j] = user i
interferes with user j; undirected links appear in both directions),
``{"placements": [{"tx": [x, y], "rx": [x, y], "interference_range": r},
...]}`` from which edges are derived geometrically, or ``{"file": "path"}``
referencing another graph file. Every command takes ``--out`` and
``--verbose``; ``--seed`` only potential-check, estimate, learn, simulate,
compare and gamma-sweep, which draw random numbers; ``--jobs`` (at least 1)
only compare and gamma-sweep, which run replications in parallel. Artifacts
embed their schema and ``_meta``'s provenance, so reruns with identical
inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, OutputSettings, load_config, load_graph, resolved_payoff_scale
from .equilibria import solve_pure_ne
from .errors import PreconditionError, ResourceLimitError
from .game import is_pure_ne, social_welfare_and_poa, welfare
from .graph import classify
from .learning import contraction_temperature_bound
from .potentials import applicable_variants, deviation_checker
from .reporting import fmt, write_csv, write_json, write_text
from .simulator import (
    FixedProfilePolicy,
    RandomAccessPolicy,
    SimStreams,
    _block_outcomes,
    _mle_period,
    compare_policies,
    run_policy,
    sweep_gamma,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specaccess",
        description="Spectrum access games on interference graphs: equilibria, estimation, learning, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"specaccess {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, func, seed=False, jobs=False, section=None, loads_config=True):
        p = sub.add_parser(name, help=help_)
        if loads_config:
            p.add_argument("config", help="experiment configuration (JSON)")
        else:
            p.add_argument("graph", help="graph file or experiment configuration (JSON)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", default=None, help="output directory (default: config output.dir)")
        if jobs:
            p.add_argument("--jobs", type=positive_int, default=1, help="parallel replications (at least 1)")
        p.add_argument("--verbose", action="store_true",
                       help="log at DEBUG (profiles scanned, scan seconds, user rows evaluated)")
        p.set_defaults(func=func, section=section, loads_config=loads_config)

    add("classify", "report the structural classes of an interference graph", cmd_classify,
        loads_config=False)
    add("solve", "find and certify a pure Nash equilibrium", cmd_solve)
    add("potential-check", "validate potential-function sign identities", cmd_potential_check, seed=True)
    add("poa", "exhaustive welfare optimum, worst equilibrium, price of anarchy", cmd_poa)
    add("estimate", "simulate a fixed profile and emit per-period MLE rows", cmd_estimate, seed=True)
    add("learn", "run the distributed learning algorithm", cmd_learn, seed=True)
    add("simulate", "roll out one policy and emit period summaries", cmd_simulate, seed=True)
    add("compare", "paired-seed policy comparison", cmd_compare, seed=True, jobs=True, section="compare")
    add("gamma-sweep", "welfare as a function of the learning temperature", cmd_gamma_sweep,
        seed=True, jobs=True, section="sweep")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.DEBUG if args.verbose else logging.INFO
    # a handler for the package's records, added only when the root logger has
    # none; the root level is left alone, and the package level is set for
    # this command and restored after it
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    package = logging.getLogger("specaccess")
    caller_level = package.level
    package.setLevel(level)
    try:
        if not args.loads_config:
            return args.func(args)
        cfg = load_config(args.config)
        if args.section is not None and args.section not in cfg.resolved:
            raise ValueError(f"config has no {args.section} section")
        outdir = _outdir(args.out or cfg.output.dir)
        write_text(outdir / "resolved_config.json",
                   json.dumps(cfg.resolved, indent=2, sort_keys=True, allow_nan=False) + "\n")
        return args.func(args, cfg, outdir)
    except (ValueError, PreconditionError, ResourceLimitError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        package.setLevel(caller_level)


def _outdir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _meta(cfg: ExperimentConfig | None, seed: int | None = None, source: str | None = None) -> dict:
    """Every artifact's provenance: the config's hash, source and rate unit
    (a bare graph file gives only its ``source``), the generator, and the
    master seed on the commands that take one."""
    meta = {"source": source, "generator": f"specaccess {__version__}"}
    if cfg is not None:
        meta.update(config_sha256=cfg.sha256, source=cfg.source, rate_unit=cfg.rate_unit)
    return meta if seed is None else {**meta, "seed": seed}


# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    doc = json.loads(Path(args.graph).read_text())
    # anything but a config object goes to graph validation, which names the error
    if isinstance(doc, dict) and "scenario" in doc:
        cfg = load_config(args.graph)
        graph = cfg.scenario.game.graph
    else:
        cfg = None
        graph = load_graph(args.graph)
    cls = classify(graph)
    names = sorted(cls.classes)
    print(f"users: {graph.n_users}, edges: {len(graph.edges)}")
    print("classes: " + ", ".join(names))
    if cls.directed_acyclic:
        print("pure NE guaranteed: acyclic structure (topological best responses)")
        print(f"topological order: {list(cls.topological_order)}")
    elif cls.directed_forest:
        print("pure NE guaranteed under the congestion property (tree/forest structure)")
    elif cls.undirected:  # a potential game only where a variant's hypotheses hold, which takes a config
        variants = cfg and applicable_variants(cfg.scenario.game)
        print("undirected: " + (f"pure NE guaranteed (potential game: {', '.join(variants)})" if variants else
              "no potential variant's hypotheses hold for this instance" if cfg else
              "a potential game, with a pure NE, only under a variant's hypotheses (see potential-check)"))
    else:
        print("no structural pure-NE guarantee")
    if cls.bipartition:
        print(f"bipartition: {list(cls.bipartition[0])} | {list(cls.bipartition[1])}")
    outdir = _outdir(args.out or (cfg.output.dir if cfg else OutputSettings.dir))
    write_json(outdir / "classification.json", "classification", 1, {
        "n_users": graph.n_users,
        "edges": sorted(graph.edges),
        "classes": names,
        "topological_order": cls.topological_order,
        "bipartition": cls.bipartition,
        "regular_degree": cls.regular_degree,
    }, _meta(cfg, source=str(Path(args.graph))))
    return 0


def cmd_solve(args, cfg: ExperimentConfig, outdir: Path) -> int:
    spec = cfg.scenario.game
    routine, profile = solve_pure_ne(spec, cfg.solver.recursion_budget, cfg.solver.enumeration_cap)
    print(f"routine: {routine}")
    if profile is None:
        print("no pure Nash equilibrium exists for this instance")
        solution = {"routine": routine, "pure_ne": None}
    else:
        solution = {
            "routine": routine,
            "profile": list(profile),
            "verified": is_pure_ne(spec, profile).is_ne,
            "payoffs": [spec.payoff(profile, n) for n in range(1, spec.n_users + 1)],
            "welfare": welfare(spec, profile),
        }
        print(f"profile: {solution['profile']}")
        print(f"verified pure NE: {solution['verified']}")
        print(f"welfare: {solution['welfare']:.6g} {cfg.rate_unit}")
    write_json(outdir / "solution.json", "solution", 1, solution, _meta(cfg))
    return 0 if solution.get("verified", True) else 1


def cmd_potential_check(args, cfg: ExperimentConfig, outdir: Path) -> int:
    spec = cfg.scenario.game
    n_users, n_channels = spec.n_users, spec.n_channels
    variants = applicable_variants(spec)
    if not variants:
        print("no potential variant's hypotheses hold for this instance")
    rng = np.random.default_rng(args.seed)
    results = {}
    for variant in variants:
        signs_match = deviation_checker(spec, variant)
        # every deviation (profile, user, other channel) up to 2,000 profiles, else 500 drawn per variant
        if n_channels ** n_users <= 2000:
            draws = ((a, n, m) for a in itertools.product(range(1, n_channels + 1), repeat=n_users)
                     for n in range(1, n_users + 1) for m in range(1, n_channels + 1) if m != a[n - 1])
        else:
            draws = (_draw_deviation(rng, n_users, n_channels) for _ in range(500))
        matches = [signs_match(a, n, m) for a, n, m in draws]
        ok, checked = sum(matches), len(matches)
        results[variant] = {"deviations_checked": checked, "sign_matches": ok}
        print(f"{variant}: {ok}/{checked} deviation signs match [{'OK' if ok == checked else 'MISMATCH'}]")
    write_json(outdir / "potential_check.json", "potential-check", 2, {"variants": results}, _meta(cfg, args.seed))
    return 0 if all(r["sign_matches"] == r["deviations_checked"] for r in results.values()) else 1


def _draw_deviation(rng: np.random.Generator, n_users: int, n_channels: int) -> tuple[tuple[int, ...], int, int]:
    """A uniform (profile, user, new channel), the new channel among the user's M - 1 others."""
    a = tuple(int(c) for c in rng.integers(1, n_channels + 1, size=n_users))
    n = int(rng.integers(1, n_users + 1))
    m = int(rng.integers(1, n_channels))
    return a, n, m + (m >= a[n - 1])


def cmd_poa(args, cfg: ExperimentConfig, outdir: Path) -> int:
    rep = social_welfare_and_poa(cfg.scenario.game, cap=cfg.solver.enumeration_cap)
    if rep.poa is None:
        print("no pure Nash equilibrium: PoA undefined")
        print(f"certificate: improving deviation from every profile "
              f"(first {len(rep.no_ne_certificate)} witnessed)")
        report = {
            "optimal_welfare": rep.optimal_welfare,
            "pure_ne_count": 0,
            "poa": None,
            "lower_bound": rep.lower_bound,
            "certificate": [
                {"profile": list(a), "user": w.user, "better_channel": w.better_channel}
                for a, w in rep.no_ne_certificate
            ],
        }
    else:
        print(f"optimal welfare: {rep.optimal_welfare:.6g} {cfg.rate_unit} at {list(rep.optimal_profile)}")
        print(f"pure NE count: {len(rep.pure_ne)}")
        print(f"worst NE welfare: {rep.worst_ne_welfare:.6g} at {list(rep.worst_ne_profile)}")
        print(f"PoA: {rep.poa:.6f} (structural lower bound {rep.lower_bound:.6f})")
        report = {
            "optimal_welfare": rep.optimal_welfare,
            "optimal_profile": list(rep.optimal_profile),
            "pure_ne_count": len(rep.pure_ne),
            "worst_ne_welfare": rep.worst_ne_welfare,
            "worst_ne_profile": list(rep.worst_ne_profile),
            "poa": rep.poa,
            "lower_bound": rep.lower_bound,
        }
    write_json(outdir / "poa.json", "poa-report", 1, report, _meta(cfg))
    return 0


def _default_profile(cfg: ExperimentConfig):
    if cfg.fixed_profile is not None:
        return cfg.fixed_profile
    spec = cfg.scenario.game
    # best-value channel per user, ignoring contention; fine as a trace source
    return tuple(int(m) + 1 for m in spec._value.argmax(axis=1))


def cmd_estimate(args, cfg: ExperimentConfig, outdir: Path) -> int:
    scenario = cfg.scenario
    profile = _default_profile(cfg)
    estimate = _mle_period(scenario, SimStreams.from_seed(args.seed))
    rows = []
    for period in range(1, scenario.periods + 1):
        est = estimate(profile)
        for u, ch in enumerate(profile):
            cells = ([""] * 4 if np.isnan(est.throughput[u])
                     else [fmt(x[u]) for x in (est.theta, est.grab, est.rate, est.throughput)])
            rows.append([period, u + 1, ch, int(est.sum_s[u]), int(est.sum_i[u]), fmt(est.sum_b[u])] + cells)
    path = write_csv(
        outdir / "estimates.csv", "estimation-trace", 2,
        ["period", "user", "channel", "sum_S", "sum_I", "sum_b",
         "theta_hat", "grab_hat", "rate_hat", "throughput_hat"],
        rows, _meta(cfg, args.seed),
    )
    print(f"wrote {path} ({len(rows)} user-period rows)")
    return 0


def cmd_learn(args, cfg: ExperimentConfig, outdir: Path) -> int:
    scenario = cfg.scenario
    result = run_policy(scenario, cfg.learning, (args.seed, 0))
    outcome = result.learning
    n = scenario.game.n_users
    rows = []
    for t in range(scenario.periods):
        row = [t + 1, fmt(outcome.welfare_trace[t]), fmt(outcome.dP_trace[t])]
        row += [int(outcome.channels[t, u]) for u in range(n)]
        row += ["" if np.isnan(outcome.estimates[t, u]) else fmt(outcome.estimates[t, u]) for u in range(n)]
        rows.append(row)
    cols = (["period", "welfare", "dP_inf"]
            + [f"channel_{u}" for u in range(1, n + 1)]
            + [f"estimate_{u}" for u in range(1, n + 1)])
    path = write_csv(outdir / "learning.csv", "learning-trace", 2, cols, rows, _meta(cfg, args.seed))
    bound = contraction_temperature_bound(scenario.game)
    scale = resolved_payoff_scale(cfg)
    print(f"wrote {path}")
    print(f"mean welfare: {result.mean_welfare:.6g} {cfg.rate_unit}")
    print(f"delta gap at final strategies: {outcome.delta:.6g} {cfg.rate_unit}")
    print(f"skipped updates: {outcome.skipped_updates} of {scenario.periods * n} (undefined MLE)")
    print(f"effective temperature {cfg.learning.gamma / scale:.3g} vs contraction bound {bound:.3g}")
    write_json(outdir / "learning_summary.json", "learning-summary", 2, {
        "mean_welfare": result.mean_welfare,
        "delta": outcome.delta,
        "skipped_updates": outcome.skipped_updates,
        "final_sigma": outcome.sigma,
        "final_perceptions": outcome.perceptions,
        "payoff_scale": scale,
    }, _meta(cfg, args.seed))
    return 0


def cmd_simulate(args, cfg: ExperimentConfig, outdir: Path) -> int:
    scenario = cfg.scenario
    policy = FixedProfilePolicy(cfg.fixed_profile) if cfg.fixed_profile is not None else RandomAccessPolicy()
    result = run_policy(scenario, policy, (args.seed, 0))
    rows = [[t + 1, fmt(result.welfare_trace[t])] for t in range(scenario.periods)]
    path = write_csv(
        outdir / "periods.csv", "period-summary", 2,
        ["period", "welfare"], rows, _meta(cfg, args.seed),
    )
    print(f"policy: {result.label}")
    print(f"wrote {path}")
    print(f"mean welfare: {result.mean_welfare:.6g} {cfg.rate_unit}")
    if cfg.output.slot_trace:
        _write_slot_trace(cfg, policy, outdir, args.seed)
    return 0


def _write_slot_trace(cfg: ExperimentConfig, policy, outdir: Path, seed: int) -> None:
    """Period 1 of the rollout that periods.csv summarises, slot by slot."""
    scenario = cfg.scenario
    ch, s, i, b = (x[0] for x in next(_block_outcomes(scenario, policy, SimStreams.from_seed((seed, 0)))))
    ch = np.broadcast_to(ch, s.shape)  # a per-period (1, N) row to every slot
    rows = [[1, t + 1, u + 1, int(ch[t, u]), int(s[t, u]), int(i[t, u]), fmt(b[t, u])]
            for t in range(scenario.t_max) for u in range(scenario.game.n_users)]
    write_csv(
        outdir / "slots.csv", "slot-trace", 3,
        ["period", "slot", "user", "channel", "S", "I", "b"],
        rows, _meta(cfg, seed),
    )


def cmd_compare(args, cfg: ExperimentConfig, outdir: Path) -> int:
    report = compare_policies(
        cfg.scenario, cfg.policies, cfg.compare_replications, args.seed, jobs=args.jobs
    )
    rows = [
        [r.policy, r.replication, f"{r.seed_entropy[0]}:{r.seed_entropy[1]}", fmt(r.mean_welfare)]
        for r in report.runs
    ]
    write_csv(
        outdir / "comparison.csv", "policy-comparison", 2,
        ["policy", "replication", "seed", "mean_welfare"], rows, _meta(cfg, args.seed),
    )
    summary = report.summary()
    srows = [[name, fmt(mean), fmt(sem), n] for name, (mean, sem, n) in sorted(summary.items())]
    write_csv(
        outdir / "comparison_summary.csv", "policy-comparison-summary", 2,
        ["policy", "mean_welfare", "stderr", "replications"], srows, _meta(cfg, args.seed),
    )
    print(f"{'policy':32s} {'mean':>12s} {'stderr':>10s}")
    for name, (mean, sem, n) in sorted(summary.items()):
        print(f"{name:32s} {mean:12.4f} {sem:10.4f}")
    return 0


def cmd_gamma_sweep(args, cfg: ExperimentConfig, outdir: Path) -> int:
    results = sweep_gamma(
        cfg.scenario, cfg.sweep_gammas, cfg.sweep_replications, args.seed, cfg.learning, jobs=args.jobs
    )
    rows = [[fmt(g), fmt(mean), fmt(sem), cfg.sweep_replications] for g, mean, sem in results]
    path = write_csv(
        outdir / "gamma_sweep.csv", "gamma-sweep", 2,
        ["gamma", "mean_welfare", "stderr", "replications"], rows, _meta(cfg, args.seed),
    )
    print(f"wrote {path}")
    for g, mean, sem in results:
        print(f"gamma={g:<8g} welfare {mean:10.4f} +- {sem:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

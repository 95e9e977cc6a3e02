#!/usr/bin/env python3
"""specaccess benchmark: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload rollout_9user --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in its own process

Run from the repository root; the package is imported from ``src/`` and the
shipped configs are read from ``configs/``. With ``--trace 0`` the workload's
pass of operations is repeated until ``--seconds`` have elapsed (at least one
whole pass) and end-to-end metrics are reported. With ``--trace 1`` one pass
runs with spans around the package's public functions, between two untraced
passes, and per-layer metrics are reported. Every operation's outputs are
checked. The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("rollout_9user", "small_mixed", "exhaustive_poa", "mean_dynamics")
SETUP_SAMPLES = 5
SETUP_BURSTS = 5

END_TO_END = [
    # name, unit, meaning
    ("setup_s", "s", "import specaccess + load_config / instance generation; median of fresh processes, "
                     "rescaled to the reference machine speed"),
    ("experiment_s", "s", "one pass over the workload's operations: sum over them of their kind's median time, "
                          "rescaled to the reference machine speed"),
    ("peak_rss_mb", "MB", "peak resident memory of this process"),
]

# Per-layer metrics of the traced run, with the end-to-end figure each should
# move and the workloads on which it should stay flat. The rates are derived
# from experiment_s and printed by the untraced run.
PER_LAYER = [
    ("estimation.ObservationSet.calls", "count", "lower", "periods_per_s on rollout_9user; flat on exhaustive_poa, mean_dynamics"),
    ("estimation.ObservationSet.s", "s", "lower", "periods_per_s on rollout_9user; flat on exhaustive_poa, mean_dynamics"),
    ("simulator.simulate_period.calls", "count", "lower", "periods_per_s on rollout_9user; flat on exhaustive_poa, mean_dynamics"),
    ("simulator.simulate_period.self_s", "s", "lower", "periods_per_s on rollout_9user; flat on exhaustive_poa, mean_dynamics"),
    ("simulator.run_policy.calls", "count", "lower", "periods_per_s on small_mixed (per-slot dynamic path); flat on exhaustive_poa, mean_dynamics"),
    ("simulator.run_policy.self_s", "s", "lower", "periods_per_s on small_mixed (per-slot dynamic path); flat on exhaustive_poa, mean_dynamics"),
    ("estimation.estimate_throughput.calls", "count", "lower", "periods_per_s on rollout_9user; flat on exhaustive_poa"),
    ("estimation.estimate_throughput.self_s", "s", "lower", "periods_per_s on rollout_9user; flat on exhaustive_poa"),
    ("estimation.defined_ratio", "ratio", "higher", "ROADMAP item 3 on small_mixed (white-space triangle); flat on exhaustive_poa"),
    ("learning.run_learning.calls", "count", "lower", "periods_per_s on mean_dynamics (c), a little on rollout_9user; flat on exhaustive_poa"),
    ("learning.run_learning.self_s", "s", "lower", "periods_per_s on mean_dynamics (c), a little on rollout_9user; flat on exhaustive_poa"),
    ("learning.boltzmann_profile.calls", "count", "lower", "periods_per_s on mean_dynamics (c), a little on rollout_9user; flat on exhaustive_poa"),
    ("learning.boltzmann_profile.s", "s", "lower", "periods_per_s on mean_dynamics (c), a little on rollout_9user; flat on exhaustive_poa"),
    ("learning.skipped_updates", "count", "lower", "ROADMAP item 3 on small_mixed; flat on exhaustive_poa"),
    ("game.SpectrumGame.payoff.calls", "count", "lower", "periods_per_s on mean_dynamics (c) and small_mixed (BRD); flat on rollout_9user"),
    ("game.SpectrumGame.payoff.s", "s", "lower", "periods_per_s on mean_dynamics (c) and small_mixed (BRD); flat on rollout_9user"),
    ("game.better_response_dynamics.calls", "count", "lower", "periods_per_s on small_mixed; flat on rollout_9user"),
    ("game.better_response_dynamics.s", "s", "lower", "periods_per_s on small_mixed; flat on rollout_9user"),
    ("learning.mean_dynamics_fixed_point.calls", "count", "lower", "fixed_points_per_s, fail_ratio on mean_dynamics; flat on rollout_9user, exhaustive_poa"),
    ("learning.mean_dynamics_fixed_point.s", "s", "lower", "fixed_points_per_s, fail_ratio on mean_dynamics; flat on rollout_9user, exhaustive_poa"),
    ("learning.fixed_point.iterations", "count", "lower", "fixed_points_per_s, fail_ratio on mean_dynamics; flat on rollout_9user, exhaustive_poa"),
    ("learning.fixed_point.converged_ratio", "ratio", "higher", "fixed_points_per_s, fail_ratio on mean_dynamics; flat on rollout_9user, exhaustive_poa"),
    ("learning.q_from_sigma.calls", "count", "lower", "fixed_points_per_s on mean_dynamics; flat on rollout_9user"),
    ("learning.q_from_sigma.s", "s", "lower", "fixed_points_per_s on mean_dynamics; flat on rollout_9user"),
    ("game.expected_grab.calls", "count", "lower", "fixed_points_per_s on mean_dynamics; flat on rollout_9user"),
    ("game.expected_grab.s", "s", "lower", "fixed_points_per_s on mean_dynamics; flat on rollout_9user"),
    ("learning.approx_ne_gap.calls", "count", "lower", "fixed_points_per_s, fail_ratio on mean_dynamics"),
    ("learning.approx_ne_gap.s", "s", "lower", "fixed_points_per_s, fail_ratio on mean_dynamics"),
    ("learning.certificate.satisfied_ratio", "ratio", "higher", "fixed_points_per_s, fail_ratio on mean_dynamics"),
    ("game.social_welfare_and_poa.calls", "count", "lower", "profiles_per_s on exhaustive_poa; flat on rollout_9user, mean_dynamics"),
    ("game.social_welfare_and_poa.s", "s", "lower", "profiles_per_s on exhaustive_poa; flat on rollout_9user, mean_dynamics"),
    ("game.enumerate_pure_ne.calls", "count", "lower", "profiles_per_s on exhaustive_poa; flat on rollout_9user, mean_dynamics"),
    ("game.enumerate_pure_ne.s", "s", "lower", "profiles_per_s on exhaustive_poa; flat on rollout_9user, mean_dynamics"),
    ("game.profiles_scanned", "count", "lower", "profiles_per_s on exhaustive_poa; flat on rollout_9user, mean_dynamics"),
    ("contention.grab_probability.calls", "count", "lower", "profiles_per_s on exhaustive_poa (evaluator cache misses); flat on rollout_9user"),
    ("contention.grab_probability.s", "s", "lower", "profiles_per_s on exhaustive_poa; flat on rollout_9user"),
    ("setup.import_s", "s", "lower", "setup_s on all workloads"),
    ("config.load_config.s", "s", "lower", "setup_s on all workloads"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced time of one pass (mean of the passes before and after)"),
    ("trace.overhead_ratio", "ratio", "lower", "trace.overhead_s over the untraced pass time"),
]

RATES = {"periods": "periods_per_s", "profiles": "profiles_per_s", "fixed_points": "fixed_points_per_s"}

# The speed of a shared machine drifts by 10-40% over minutes, which moves
# every operation's time together. A fixed piece of benchmark-owned work (the
# calibration burst) is timed after each operation, for about CAL_SHARE of
# the operation's own time so that the bursts sample the run evenly, and
# experiment_s is rescaled by CAL_REF_S / (median burst of the run): seconds
# at the speed at which one burst takes CAL_REF_S. Each set-up sample is
# rescaled the same way by SETUP_BURSTS bursts timed after it. The burst runs
# with the garbage collector off, so the program's heap does not change its
# time.
CAL_REF_S = 0.015
CAL_SHARE = 0.05


def calibration_burst() -> float:
    """Seconds for a fixed mix of dict, sort and numpy work."""
    import numpy as np

    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(2):
            d = {}
            for i in range(10000):
                d[(i * 7919) % 50021] = i
            sorted(d.values(), key=lambda v: v % 977)
        a = np.linspace(0.0, 1.0, 20_000)
        for _ in range(40):
            a = np.sort(a) * 0.5 + np.cumsum(a) * 1e-9
        small = np.arange(50.0)
        for _ in range(600):
            small = np.maximum(small, small[::-1]) + 1.0
        return time.perf_counter() - t0
    finally:
        gc.enable()


def import_workloads():
    """Import the benchmark's workloads and, through them, the package under src/."""
    src = ROOT / "src"
    if not (src / "specaccess" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise SystemExit(f"error: {ROOT} has no src/specaccess package or configs/ directory")
    sys.path.insert(0, str(src))
    import specaccess
    import workloads

    if not Path(specaccess.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: specaccess imported from {specaccess.__file__}, not from {src}")
    return workloads


def setup(name: str, seed: int, tiny: bool):
    t0 = time.perf_counter()
    workloads = import_workloads()
    t1 = time.perf_counter()
    wl = workloads.build(name, seed, tiny)
    t2 = time.perf_counter()
    return workloads, wl, {"setup_s": t2 - t0, "import_s": t1 - t0, "load_config_s": wl.load_config_s}


def setup_samples(args, n: int) -> list[dict]:
    """Set-up timings from n fresh processes, run one after another, each
    rescaled by calibration bursts timed in that process after its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        scale = CAL_REF_S / sample.pop("burst_s")
        out.append({key: value * scale for key, value in sample.items()})
    return out


def run_op(workloads, op, tracer=None, op_id: int = 0):
    """Run one operation (timed) and check its outputs (untimed, untraced)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            tracer.op = op_id
            with tracer.patched():
                result = op.run()
    except Exception:
        dt = time.perf_counter() - t0
        return workloads.Outcome(problems=[f"{op.kind} raised:\n{traceback.format_exc()}"]), dt
    dt = time.perf_counter() - t0
    try:
        outcome = op.check(result)
    except Exception:
        outcome = workloads.Outcome(problems=[f"{op.kind} check raised:\n{traceback.format_exc()}"])
    return outcome, dt


def context(args) -> str:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} commit={git_commit()} "
            f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")


def git_commit() -> str:
    """HEAD of the checkout's .git, read directly; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def failure_lines(outcomes) -> list[str]:
    failed = sum(1 for o in outcomes if o.problems)
    known = sum(1 for o in outcomes if o.known_defect and not o.problems)
    lines = [f"fail_ratio {(failed + known) / len(outcomes):.6g} ratio "
             f"({failed} failed checks + {known} known defects of {len(outcomes)} operations)"]
    lines += sorted({o.known_defect for o in outcomes if o.known_defect and not o.problems})
    for problem in [p for o in outcomes for p in o.problems][:5]:
        print(f"FAILED: {problem}", file=sys.stderr)
    return lines


def measured_run(workloads, wl, args) -> tuple[list, dict, list[str]]:
    times: dict[str, list[float]] = {}
    bursts = []
    outcomes = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < len(wl.ops) or time.perf_counter() < deadline:
        op = wl.ops[i % len(wl.ops)]
        outcome, dt = run_op(workloads, op)
        bursts += [calibration_burst() for _ in range(max(1, round(CAL_SHARE * dt / CAL_REF_S)))]
        outcomes.append(outcome)
        times.setdefault(op.kind, []).append(dt)
        i += 1
    scale = CAL_REF_S / statistics.median(bursts)
    median = {kind: statistics.median(ts) * scale for kind, ts in times.items()}
    experiment_s = sum(median[op.kind] for op in wl.ops)
    lines = [f"experiment_s {experiment_s!r} s ({len(wl.ops)} operations per pass, {len(outcomes)} timed, "
             f"{len(times)} kinds, fewest samples of a kind {min(map(len, times.values()))}; "
             f"wall seconds times {scale:.4f} = {CAL_REF_S} s / median of {len(bursts)} calibration bursts)"]
    for unit, rate in RATES.items():
        ops = [op for op in wl.ops if unit in op.work]
        if ops:
            value = sum(op.work[unit] for op in ops) / sum(median[op.kind] for op in ops)
            lines.append(f"{rate} {value!r} 1/s")
    lines += [f"  {kind}: median {median[kind]:.4f} s of {len(ts)}, wall range {min(ts):.4f}-{max(ts):.4f} s"
              for kind, ts in times.items()]
    return outcomes, {"experiment_s": experiment_s}, lines


def traced_run(workloads, wl, setup_timing: dict) -> tuple[list, dict, list[str]]:
    import tracer as tracing  # here, not at the top: its numpy import belongs to set-up time

    # Untraced passes before and after the traced one, so warm-up and drift
    # fall on both sides of the overhead estimate.
    before = [run_op(workloads, op) for op in wl.ops]
    tracer = tracing.Tracer()
    traced = [run_op(workloads, op, tracer, i) for i, op in enumerate(wl.ops)]
    after = [run_op(workloads, op) for op in wl.ops]
    t_untraced = (sum(dt for _, dt in before) + sum(dt for _, dt in after)) / 2
    t_traced = sum(dt for _, dt in traced)
    table = tracer.table()
    pass_outcomes = [o for o, _ in traced]

    def total(note: str) -> float:
        return sum(o.notes.get(note, 0.0) for o in pass_outcomes)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fp_ops = sum(1 for o in pass_outcomes if "fp_converged" in o.notes)
    est = table["estimation.estimate_throughput"]
    values = {
        "estimation.defined_ratio": ratio(est["returned"], est["calls"]),
        "learning.skipped_updates": total("skipped_updates"),
        "learning.fixed_point.iterations": total("fp_iterations"),
        "learning.fixed_point.converged_ratio": ratio(total("fp_converged"), fp_ops),
        "learning.certificate.satisfied_ratio": ratio(total("cert_satisfied"), fp_ops),
        "game.profiles_scanned": float(sum(op.work.get("profiles", 0) for op in wl.ops)),
        "setup.import_s": setup_timing["import_s"],
        "config.load_config.s": setup_timing["load_config_s"],
        "trace.overhead_s": t_traced - t_untraced,
        "trace.overhead_ratio": ratio(t_traced - t_untraced, t_untraced),
    }
    for layer, stats in table.items():
        for stat in ("calls", "s", "self_s"):
            values[f"{layer}.{stat}"] = stats[stat]
    metrics = {name: values[name] for name, *_ in PER_LAYER}

    spans_path = OUT / f"spans_{wl.name}.csv.gz"
    tracer.write(spans_path)
    (OUT / f"layers_{wl.name}.json").write_text(json.dumps({"layers": table, "metrics": metrics}, indent=1))
    lines = [f"untraced pass {t_untraced!r} s (mean of 2), traced pass {t_traced!r} s, {len(tracer.names)} spans "
             f"written to {spans_path.relative_to(ROOT)}"]
    lines += [f"absent boundary (reported as 0 calls): {a}" for a in tracer.absent]
    lines.append(f"{'layer':40s} {'calls':>9s} {'s':>10s} {'self_s':>10s}")
    lines += [f"{layer:40s} {s['calls']:9d} {s['s']:10.4f} {s['self_s']:10.4f}" for layer, s in table.items()]
    lines += [f"{name} {metrics[name]!r} {unit} (should move: {moves})" for name, unit, _, moves in PER_LAYER]
    return [o for o, _ in before + traced + after], metrics, lines


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is attributable."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"# ---- {name}", flush=True)
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs; for the self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    warnings.simplefilter("ignore")

    workloads, wl, timing = setup(args.workload, args.seed, args.tiny)
    if args.setup_only:
        timing["burst_s"] = statistics.median(calibration_burst() for _ in range(SETUP_BURSTS))
        print(json.dumps(timing))
        return 0
    samples = setup_samples(args, 1 if args.tiny else SETUP_SAMPLES)
    setup_timing = {key: statistics.median(s[key] for s in samples) for key in timing}
    print(f"# {context(args)}")
    print(f"# setup_s {setup_timing['setup_s']!r} s (median of {len(samples)} fresh processes, rescaled like "
          f"experiment_s; import {setup_timing['import_s']!r} s, load_config {setup_timing['load_config_s']!r} s; "
          f"this process, unscaled: {timing['setup_s']!r} s)")

    if args.trace:
        outcomes, metrics, lines = traced_run(workloads, wl, setup_timing)
    else:
        outcomes, metrics, lines = measured_run(workloads, wl, args)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lines.append(f"peak_rss_mb {peak_mb!r} MB")
        metrics = {"setup_s": setup_timing["setup_s"], "experiment_s": metrics["experiment_s"],
                   "peak_rss_mb": peak_mb}
    lines += failure_lines(outcomes)
    first_pass = outcomes[: len(wl.ops)]
    lines.append(f"digest sha256:{workloads.digest(first_pass)} (first pass; a change is reported, not failed)")
    lines += wl.summary(first_pass)
    for line in lines:
        print(f"# {line}")

    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    failed = sum(1 for o in outcomes if o.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

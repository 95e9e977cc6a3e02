#!/usr/bin/env python3
"""Self-test of the benchmark at its tiny size (about a minute).

    python3 perfbench/selftest.py

Runs every workload through run.py with --tiny, untraced and traced, and
checks that metric names are well formed, that each run emits exactly the
metrics BENCHMARK.json lists, and that every layer's self time lies between
zero and its inclusive time. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def last_json(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if end_to_end != {name: unit for name, unit, _ in run.END_TO_END}:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if per_layer != {name: unit for name, unit, *_ in run.PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    problems += [f"bad metric name {n!r}" for n in [*end_to_end, *per_layer] if not NAME.fullmatch(n)]

    for workload in run.WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            out = last_json(workload, trace)
            if not (out["correct"] and out["failed"] == 0 and out["attempted"] >= 1):
                problems.append(f"{workload} trace={trace}: correct={out['correct']} failed={out['failed']}")
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            if got != expected:
                problems.append(f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(expected)}")
            if trace == 0 and not all(m["value"] > 0 for m in out["metrics"].values()):
                problems.append(f"{workload}: an end-to-end metric is not positive")
        layers = json.loads((run.OUT / f"layers_{workload}.json").read_text())["layers"]
        for layer, stats in layers.items():
            if not 0.0 <= stats["self_s"] <= stats["s"]:
                problems.append(f"{workload}: {layer} self_s {stats['self_s']} outside [0, {stats['s']}]")
        print(f"{workload}: ok" if not problems else f"{workload}: {len(problems)} problems so far")

    for p in problems:
        print(f"FAILED: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

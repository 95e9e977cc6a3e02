"""Spans around calls into the package's public functions, recorded from outside it.

Each boundary is a public name patched in the namespace of the module that
calls it, so the program itself is unchanged. A name that no longer exists is
reported as absent (zero calls) rather than failing the run. Spans live in
columnar arrays in memory (name, start, end, parent span, operation id,
whether the call returned) and are written out when the benchmark ends.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (layer name, module whose namespace is patched, attribute path in it)
BOUNDARIES = [
    ("estimation.ObservationSet", "specaccess.simulator", "ObservationSet"),
    ("estimation.estimate_throughput", "specaccess.simulator", "estimate_throughput"),
    ("simulator.simulate_period", "specaccess.simulator", "simulate_period"),
    ("simulator.run_policy", "specaccess.simulator", "run_policy"),
    ("learning.run_learning", "specaccess.simulator", "run_learning"),
    ("learning.run_learning", "specaccess.learning", "run_learning"),
    ("game.better_response_dynamics", "specaccess.simulator", "better_response_dynamics"),
    ("learning.boltzmann_profile", "specaccess.learning", "boltzmann_profile"),
    ("learning.q_from_sigma", "specaccess.learning", "q_from_sigma"),
    ("game.expected_grab", "specaccess.learning", "expected_grab"),
    ("learning.mean_dynamics_fixed_point", "specaccess.learning", "mean_dynamics_fixed_point"),
    ("learning.approx_ne_gap", "specaccess.learning", "approx_ne_gap"),
    ("contention.grab_probability", "specaccess.game", "grab_probability"),
    ("game.social_welfare_and_poa", "specaccess.game", "social_welfare_and_poa"),
    ("game.enumerate_pure_ne", "specaccess.game", "enumerate_pure_ne"),
    ("game.SpectrumGame.payoff", "specaccess.game", "SpectrumGame.payoff"),
]

LAYERS = sorted({name for name, _, _ in BOUNDARIES})


class Tracer:
    def __init__(self) -> None:
        self.names = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_ids = array("q")
        self.returned = array("b")
        self.op = -1                      # operation id stamped on new spans
        self._stack = [-1]
        self._targets = []                # (owner object, attribute, original, wrapper)
        self.absent: list[str] = []
        for name, module, path in BOUNDARIES:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module}.{path}")
                continue
            self._targets.append((owner, attr, original, self._wrap(LAYERS.index(name), original)))

    def _wrap(self, name_id: int, fn):
        names, start, end, parent, op_ids, returned = (
            self.names, self.start, self.end, self.parent, self.op_ids, self.returned)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parent.append(stack[-1])
            op_ids.append(tracer.op)
            returned.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                returned[idx] = 1
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block."""
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._targets:
                setattr(owner, attr, original)

    def table(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, calls that returned, inclusive and self seconds.
        Self time is a span's duration minus the durations of its direct
        children, which nest inside it and do not overlap one another."""
        names = np.frombuffer(self.names, dtype=np.int16)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        returned = np.frombuffer(self.returned, dtype=np.int8)
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        out = {}
        for i, name in enumerate(LAYERS):
            sel = names == i
            out[name] = {
                "calls": int(sel.sum()),
                "returned": int(returned[sel].sum()),
                "s": float(dur[sel].sum()) / 1e9,
                "self_s": float(self_ns[sel].sum()) / 1e9,
            }
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: layer, start_ns, end_ns, parent span, op, returned."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("layer,start_ns,end_ns,parent,op,returned\n")
            for row in zip(self.names, self.start, self.end, self.parent, self.op_ids, self.returned):
                f.write(f"{LAYERS[row[0]]},{row[1]},{row[2]},{row[3]},{row[4]},{row[5]}\n")

"""Experiment configuration: JSON loading, schema validation, object building.

Configs are strict: unknown keys are rejected, defaults are filled in and
echoed back, and the resolved document is hashed so every artifact can name
the exact configuration that produced it. The JSON schema itself is defined
here (authoritative) and shipped verbatim as config.schema.json at the repo
root for reference.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import jsonschema

from .channels import (
    BernoulliChannel,
    FixedRate,
    MarkovChannel,
    RayleighShannonRate,
    WhiteSpaceChannel,
    calibrate_mean_gain,
    mean_rate,
)
from .contention import AsymptoticBackoff, RandomBackoff, SlottedAloha, WeightedShare
from .graph import InterferenceGraph, UserPlacement, graph_from_locations
from .simulator import (
    DynamicStageGamePolicy,
    FixedProfilePolicy,
    LearningPolicy,
    Policy,
    RandomAccessPolicy,
    Scenario,
)

_NONNEG = {"type": "number", "minimum": 0}
_POS = {"type": "number", "exclusiveMinimum": 0}
_PROB = {"type": "number", "minimum": 0, "maximum": 1}
_MATRIX = {"type": "array", "minItems": 1, "items": {"type": "array", "minItems": 1, "items": _POS}}

GRAPH_SCHEMA: dict[str, Any] = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "file": {"type": "string"},
        "n_users": {"type": "integer", "minimum": 1},
        "edges": {
            "type": "array",
            "items": {
                "type": "array", "minItems": 2, "maxItems": 2,
                "items": {"type": "integer", "minimum": 1},
            },
        },
        "placements": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["tx", "rx", "interference_range"],
                "properties": {
                    "tx": {"type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "number"}},
                    "rx": {"type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "number"}},
                    "interference_range": _POS,
                },
            },
        },
    },
    "oneOf": [
        {"required": ["file"]},
        {"required": ["n_users", "edges"]},
        {"required": ["placements"]},
    ],
}

_CHANNEL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["markov", "bernoulli", "white_space"]},
        "epsilon": _PROB,
        "xi": _PROB,
        "theta": _PROB,
    },
    "allOf": [
        {
            "if": {"properties": {"kind": {"const": "markov"}}},
            "then": {"required": ["epsilon", "xi"]},
            "else": {"required": ["theta"]},
        }
    ],
}

_RATES_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["fixed", "rayleigh_shannon"]},
        "mean": _MATRIX,
        "bandwidth": _POS,
        "tx_power": _POS,
        "noise_power": _POS,
        "mean_gain": _MATRIX,
        "mean_rate": _MATRIX,
    },
    "allOf": [
        {
            "if": {"properties": {"kind": {"const": "fixed"}}},
            "then": {"required": ["mean"]},
            "else": {
                "required": ["bandwidth", "tx_power", "noise_power"],
                "oneOf": [{"required": ["mean_gain"]}, {"required": ["mean_rate"]}],
            },
        }
    ],
}

_MECHANISM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["backoff", "asymptotic_backoff", "weighted_share", "aloha"]},
        "max_counter": {"type": "integer", "minimum": 1, "maximum": 10**6},
        "weights": {"type": "array", "minItems": 1, "items": _POS},
        "probs": {
            "type": "array", "minItems": 1,
            "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        },
    },
    "allOf": [
        {"if": {"properties": {"kind": {"const": "backoff"}}}, "then": {"required": ["max_counter"]}},
        {"if": {"properties": {"kind": {"const": "weighted_share"}}}, "then": {"required": ["weights"]}},
        {"if": {"properties": {"kind": {"const": "aloha"}}}, "then": {"required": ["probs"]}},
    ],
}

_POLICY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["learning", "random_access", "fixed_profile", "dynamic_stage_game"]},
        "gamma": _POS,
        "profile": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
        "restarts": {"type": "integer", "minimum": 1},
    },
    "allOf": [
        {"if": {"properties": {"kind": {"const": "fixed_profile"}}}, "then": {"required": ["profile"]}},
    ],
}

CONFIG_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "specaccess experiment configuration",
    "type": "object",
    "additionalProperties": False,
    "required": ["scenario"],
    "properties": {
        "scenario": {
            "type": "object",
            "additionalProperties": False,
            "required": ["graph", "channels", "rates", "mechanism"],
            "properties": {
                "graph": GRAPH_SCHEMA,
                "channels": {"type": "array", "minItems": 1, "items": _CHANNEL_SCHEMA},
                "rates": _RATES_SCHEMA,
                "mechanism": _MECHANISM_SCHEMA,
                "gains": {"type": "array", "minItems": 1, "items": _POS},
                "t_max": {"type": "integer", "minimum": 1},
                "periods": {"type": "integer", "minimum": 1},
                "profile": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
                "rate_unit": {"type": "string"},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enumeration_cap": {"type": "integer", "minimum": 1},
                "recursion_budget": {"type": "integer", "minimum": 1},
                "max_rounds": {"type": "integer", "minimum": 1},
            },
        },
        "learning": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gamma": _POS,
                "payoff_scale": {
                    "anyOf": [{"const": "auto"}, {"type": "number", "exclusiveMinimum": 0}]
                },
                "initial_perception": {
                    "anyOf": [{"const": "1/M"}, {"type": "number"}]
                },
                "mu": {
                    "anyOf": [
                        {"const": "1/T"},
                        {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                    ]
                },
                "estimator": {"enum": ["mle", "exact"]},
                "noise_half_width": _NONNEG,
            },
        },
        "compare": {
            "type": "object",
            "additionalProperties": False,
            "required": ["policies"],
            "properties": {
                "policies": {"type": "array", "minItems": 1, "items": _POLICY_SCHEMA},
                "replications": {"type": "integer", "minimum": 1},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["gammas"],
            "properties": {
                "gammas": {"type": "array", "minItems": 1, "items": _POS},
                "replications": {"type": "integer", "minimum": 1},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
                "slot_trace": {"type": "boolean"},
            },
        },
    },
}

_DEFAULTS = {
    "scenario": {"t_max": 100, "periods": 500, "rate_unit": "bits/s"},
    "solver": {"enumeration_cap": 10**7, "recursion_budget": 10**4, "max_rounds": 1000},
    "learning": {
        "gamma": 1.0,
        "payoff_scale": 1.0,
        "initial_perception": "1/M",
        "mu": "1/T",
        "estimator": "mle",
        "noise_half_width": 0.0,
    },
    "output": {"dir": "out", "slot_trace": False},
}


@dataclass(frozen=True)
class SolverSettings:
    enumeration_cap: int
    recursion_budget: int
    max_rounds: int


@dataclass(frozen=True)
class LearningSettings:
    gamma: float
    payoff_scale: float | str
    initial_perception: float | str
    mu: float | str
    estimator: str
    noise_half_width: float


@dataclass(frozen=True)
class OutputSettings:
    dir: str
    slot_trace: bool


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Scenario
    solver: SolverSettings
    learning: LearningSettings
    output: OutputSettings
    policies: list[Policy]
    compare_replications: int
    sweep_gammas: list[float] | None
    sweep_replications: int
    fixed_profile: tuple[int, ...] | None
    rate_unit: str
    resolved: dict
    sha256: str
    source: str


def _schema_errors(instance: dict, schema: dict) -> list[str]:
    validator = jsonschema.Draft202012Validator(schema)
    msgs = []
    for err in sorted(validator.iter_errors(instance), key=lambda e: list(e.absolute_path)):
        loc = ".".join(str(p) for p in err.absolute_path) or "<root>"
        msgs.append(f"{loc}: {err.message}")
    return msgs


def load_graph_document(doc: dict, base: Path | None = None) -> InterferenceGraph:
    errors = _schema_errors(doc, GRAPH_SCHEMA)
    if errors:
        raise ValueError("invalid graph document:\n  " + "\n  ".join(errors))
    if "file" in doc:
        path = Path(doc["file"])
        if base is not None and not path.is_absolute():
            path = base / path
        return load_graph(path)
    if "placements" in doc:
        placements = [
            UserPlacement(tuple(p["tx"]), tuple(p["rx"]), p["interference_range"])
            for p in doc["placements"]
        ]
        return graph_from_locations(placements)
    return InterferenceGraph.from_edges(doc["n_users"], doc["edges"])


def load_graph(path: str | Path) -> InterferenceGraph:
    path = Path(path)
    doc = json.loads(path.read_text())
    return load_graph_document(doc, base=path.parent)


def _merge_defaults(raw: dict) -> dict:
    resolved = json.loads(json.dumps(raw))  # deep copy, JSON-clean
    for section, defaults in _DEFAULTS.items():
        block = dict(defaults)
        block.update(resolved.get(section, {}))
        resolved[section] = block
    if "compare" in resolved:
        resolved["compare"].setdefault("replications", 10)
    if "sweep" in resolved:
        resolved["sweep"].setdefault(
            "replications", resolved.get("compare", {}).get("replications", 10)
        )
    return resolved


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _build_channels(defs: list[dict]):
    out = []
    for d in defs:
        if d["kind"] == "markov":
            out.append(MarkovChannel(d["epsilon"], d["xi"]))
        elif d["kind"] == "bernoulli":
            out.append(BernoulliChannel(d["theta"]))
        else:
            theta = d["theta"]
            if theta not in (0, 1):
                raise ValueError("white_space channels need theta 0 or 1")
            out.append(WhiteSpaceChannel(int(theta)))
    return out


def _build_rates(d: dict, n_users: int, n_channels: int):
    def check_shape(mat, what):
        if len(mat) != n_users or any(len(row) != n_channels for row in mat):
            raise ValueError(f"rates.{what} must be {n_users} x {n_channels} (users x channels)")

    if d["kind"] == "fixed":
        check_shape(d["mean"], "mean")
        return [[FixedRate(b) for b in row] for row in d["mean"]]
    w, eta, omega = d["bandwidth"], d["tx_power"], d["noise_power"]
    if "mean_gain" in d:
        check_shape(d["mean_gain"], "mean_gain")
        return [[RayleighShannonRate(w, eta, omega, g) for g in row] for row in d["mean_gain"]]
    check_shape(d["mean_rate"], "mean_rate")
    return [
        [RayleighShannonRate(w, eta, omega, calibrate_mean_gain(w, eta, omega, b)) for b in row]
        for row in d["mean_rate"]
    ]


def _build_mechanism(d: dict, n_users: int):
    kind = d["kind"]
    if kind == "backoff":
        return RandomBackoff(d["max_counter"])
    if kind == "asymptotic_backoff":
        return AsymptoticBackoff()
    if kind == "weighted_share":
        if len(d["weights"]) != n_users:
            raise ValueError("mechanism.weights must list one weight per user")
        return WeightedShare(tuple(d["weights"]))
    if len(d["probs"]) != n_users:
        raise ValueError("mechanism.probs must list one probability per user")
    return SlottedAloha(tuple(d["probs"]))


def _build_policy(d: dict, learning: LearningSettings, solver: SolverSettings) -> Policy:
    kind = d["kind"]
    if kind == "random_access":
        return RandomAccessPolicy()
    if kind == "fixed_profile":
        return FixedProfilePolicy(tuple(d["profile"]))
    if kind == "dynamic_stage_game":
        return DynamicStageGamePolicy(restarts=d.get("restarts", 10), max_rounds=solver.max_rounds)
    return _learning_policy(learning, d.get("gamma", learning.gamma))


def _learning_policy(learning: LearningSettings, gamma: float) -> LearningPolicy:
    return LearningPolicy(
        gamma=float(gamma),
        payoff_scale=learning.payoff_scale,
        estimator=learning.estimator,
        noise_half_width=learning.noise_half_width,
        mu=learning.mu,
        initial_perception=learning.initial_perception,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Load, validate, default-fill, and build an experiment configuration."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: not valid JSON: {e}") from e
    errors = _schema_errors(raw, CONFIG_SCHEMA)
    if errors:
        raise ValueError(f"{path}: configuration rejected:\n  " + "\n  ".join(errors))
    resolved = _merge_defaults(raw)

    sc = resolved["scenario"]
    graph = load_graph_document(sc["graph"], base=path.parent)
    channels = _build_channels(sc["channels"])
    rates = _build_rates(sc["rates"], graph.n_users, len(channels))
    mechanism = _build_mechanism(sc["mechanism"], graph.n_users)
    gains = sc.get("gains")
    if gains is not None and len(gains) != graph.n_users:
        raise ValueError("scenario.gains must list one gain per user")
    scenario = Scenario.build(
        graph, channels, rates, mechanism, gains,
        t_max=sc["t_max"], periods=sc["periods"],
    )

    profile = tuple(sc["profile"]) if "profile" in sc else None
    if profile is not None:
        if len(profile) != graph.n_users or any(
            not (1 <= c <= scenario.game.n_channels) for c in profile
        ):
            raise ValueError("scenario.profile must assign a valid channel to every user")

    solver = SolverSettings(**resolved["solver"])
    learning = LearningSettings(**resolved["learning"])
    output = OutputSettings(**resolved["output"])

    policies = [
        _build_policy(p, learning, solver) for p in resolved.get("compare", {}).get("policies", [])
    ]
    for p in policies:
        if isinstance(p, FixedProfilePolicy):
            if len(p.profile) != graph.n_users or any(
                not (1 <= c <= scenario.game.n_channels) for c in p.profile
            ):
                raise ValueError("compare policy fixed_profile must be a valid channel profile")

    sweep = resolved.get("sweep")
    return ExperimentConfig(
        scenario=scenario,
        solver=solver,
        learning=learning,
        output=output,
        policies=policies,
        compare_replications=resolved.get("compare", {}).get("replications", 10),
        sweep_gammas=[float(g) for g in sweep["gammas"]] if sweep else None,
        sweep_replications=sweep["replications"] if sweep else 10,
        fixed_profile=profile,
        rate_unit=sc["rate_unit"],
        resolved=resolved,
        sha256=config_hash(resolved),
        source=str(path),
    )


def resolved_payoff_scale(cfg: ExperimentConfig) -> float:
    return learning_policy_from(cfg).resolved_scale(cfg.scenario.game)


def learning_policy_from(cfg: ExperimentConfig, gamma: float | None = None) -> LearningPolicy:
    return _learning_policy(cfg.learning, cfg.learning.gamma if gamma is None else gamma)

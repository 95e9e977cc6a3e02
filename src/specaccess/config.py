"""Experiment configuration: JSON loading, schema validation, object building.

Configs are strict JSON (no NaN or Infinity) and strict in their keys (each
channel, rate model, mechanism and policy ``kind`` accepts only the keys it is
built from, and each graph shape only its own keys); defaults are filled in and
echoed back, and the resolved document is hashed so every artifact can name
the exact configuration that produced it. The JSON schema, defined here and
shipped verbatim as config.schema.json, states each key's type, range and
``default``, the default read from the API value it stands for.

Documents are checked against it by ``_schema``, an in-package interpreter of
the Draft 2020-12 keywords these schemas use, which gives jsonschema's
verdicts and messages. One deviation from Draft 2020-12: ``"integer"`` accepts
only JSON integer literals, so ``"n_users": 4.0`` is rejected
(``scenario.graph.n_users: 4.0 is not of type 'integer'``) instead of
carrying a float into ``range``, the resolved document's hash and policy labels.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from ._schema import iter_errors
from .channels import (
    BernoulliChannel,
    FixedRates,
    MarkovChannel,
    RateModel,
    RayleighShannonRates,
    WhiteSpaceChannel,
    calibrate_mean_gain,
)
from .contention import MAX_BACKOFF_WINDOW, AsymptoticBackoff, RandomBackoff, SlottedAloha, WeightedShare
from .equilibria import RECURSION_BUDGET
from .game import ENUMERATION_CAP, MAX_ROUNDS, _check_profile
from .graph import InterferenceGraph, UserPlacement, graph_from_locations
from .simulator import (
    DynamicStageGamePolicy,
    FixedProfilePolicy,
    LearningPolicy,
    Policy,
    RandomAccessPolicy,
    Scenario,
)


@dataclass(frozen=True)
class SolverSettings:
    enumeration_cap: int
    recursion_budget: int
    max_rounds: int


@dataclass(frozen=True)
class OutputSettings:
    dir: str = "out"
    slot_trace: bool = False


_NONNEG = {"type": "number", "minimum": 0}
_POS = {"type": "number", "exclusiveMinimum": 0}
_PROB = {"type": "number", "minimum": 0, "maximum": 1}
_MATRIX = {"type": "array", "minItems": 1, "items": {"type": "array", "minItems": 1, "items": _POS}}
_PROFILE = {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}}
_COUNT = {"type": "integer", "minimum": 1}
_REPLICATIONS = {**_COUNT, "default": 10}

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
    # three alternative shapes, each closed to the keys it is read with
    "if": {"required": ["file"]},
    "then": {"properties": {"file": True}, "additionalProperties": False},
    "else": {
        "if": {"required": ["placements"]},
        "then": {"properties": {"placements": True}, "additionalProperties": False},
        "else": {"required": ["n_users", "edges"]},
    },
}


def _by_kind(**kinds: dict) -> dict:
    """An object whose ``kind`` selects one closed schema: kinds[k] holds k's
    properties and required keys, and any key it does not list is rejected."""
    return {
        "type": "object",
        "required": ["kind"],
        "properties": {"kind": {"enum": list(kinds)}},
        "allOf": [
            {
                "if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
                "then": {
                    **schema,
                    "additionalProperties": False,
                    "properties": {"kind": {"const": kind}, **schema.get("properties", {})},
                },
            }
            for kind, schema in kinds.items()
        ],
    }


_CHANNEL_SCHEMA = _by_kind(
    markov={"required": ["epsilon", "xi"], "properties": {"epsilon": _PROB, "xi": _PROB}},
    bernoulli={
        "required": ["theta"],
        "properties": {"theta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}},
    },
    white_space={"required": ["theta"], "properties": {"theta": _PROB}},
)

_RATES_SCHEMA = _by_kind(
    fixed={"required": ["mean"], "properties": {"mean": _MATRIX}},
    rayleigh_shannon={
        "required": ["bandwidth", "tx_power", "noise_power"],
        "properties": {
            "bandwidth": _POS, "tx_power": _POS, "noise_power": _POS,
            "mean_gain": _MATRIX, "mean_rate": _MATRIX,
        },
        "oneOf": [{"required": ["mean_gain"]}, {"required": ["mean_rate"]}],
    },
)

_MECHANISM_SCHEMA = _by_kind(
    backoff={
        "required": ["max_counter"],
        "properties": {"max_counter": {**_COUNT, "maximum": MAX_BACKOFF_WINDOW}},
    },
    asymptotic_backoff={},
    weighted_share={
        "required": ["weights"],
        "properties": {"weights": {"type": "array", "minItems": 1, "items": _POS}},
    },
    aloha={
        "required": ["probs"],
        "properties": {"probs": {
            "type": "array", "minItems": 1,
            "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        }},
    },
)

_POLICY_SCHEMA = _by_kind(
    learning={"properties": {"gamma": _POS}},
    random_access={},
    fixed_profile={"required": ["profile"], "properties": {"profile": _PROFILE}},
    dynamic_stage_game={"properties": {"restarts": _COUNT}},
)

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
                "t_max": {**_COUNT, "default": Scenario.t_max},
                "periods": {**_COUNT, "default": Scenario.periods},
                "profile": _PROFILE,
                "rate_unit": {"type": "string", "default": "bits/s"},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enumeration_cap": {**_COUNT, "default": ENUMERATION_CAP},
                "recursion_budget": {**_COUNT, "default": RECURSION_BUDGET},
                "max_rounds": {**_COUNT, "default": MAX_ROUNDS},
            },
        },
        "learning": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gamma": {**_POS, "default": 1.0},
                "payoff_scale": {
                    "anyOf": [{"const": "auto"}, _POS],
                    "default": LearningPolicy.payoff_scale,
                },
                "initial_perception": {
                    "anyOf": [{"const": "1/M"}, {"type": "number"}],
                    "default": LearningPolicy.initial_perception,
                },
                "mu": {
                    "anyOf": [{"const": "1/T"}, {**_POS, "maximum": 1}],
                    "default": LearningPolicy.mu,
                },
                "estimator": {"enum": ["mle", "exact"], "default": LearningPolicy.estimator},
                "noise_half_width": {**_NONNEG, "default": LearningPolicy.noise_half_width},
            },
        },
        "compare": {
            "type": "object",
            "additionalProperties": False,
            "required": ["policies"],
            "properties": {
                "policies": {"type": "array", "minItems": 1, "items": _POLICY_SCHEMA},
                "replications": _REPLICATIONS,
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["gammas"],
            "properties": {
                "gammas": {"type": "array", "minItems": 1, "items": _POS},
                "replications": _REPLICATIONS,  # compare.replications when compare is given
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string", "default": OutputSettings.dir},
                "slot_trace": {"type": "boolean", "default": OutputSettings.slot_trace},
            },
        },
    },
}

@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Scenario
    solver: SolverSettings
    learning: LearningPolicy
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
    msgs = []
    for path, message, context in sorted(iter_errors(instance, schema), key=lambda e: e[0]):
        loc = ".".join(str(p) for p in path) or "<root>"
        # a failed oneOf/anyOf: say what each alternative found wrong
        why = "; ".join(dict.fromkeys(context))
        msgs.append(f"{loc}: {message}" + (f" ({why})" if why else ""))
    return msgs


def _not_json(token: str):
    raise ValueError(f"{token} is not a JSON value")  # json.loads reads NaN and Infinity; JSON has neither


def _read_json(path: Path) -> Any:
    text = path.read_text()
    try:
        return json.loads(text, parse_constant=_not_json)
    except ValueError as e:  # json.JSONDecodeError is one
        raise ValueError(f"{path}: not valid JSON: {e}") from e


def _inline_graph(doc: dict, base: Path = Path()) -> dict:
    """The inline graph document at the end of doc's ``file`` references, each
    checked and a relative one read from the referring file's directory. A
    reference to a file already on the chain raises ValueError naming the cycle."""
    chain: list[Path] = []
    while True:
        errors = _schema_errors(doc, GRAPH_SCHEMA)
        if errors:
            raise ValueError("invalid graph document:\n  " + "\n  ".join(errors))
        if "file" not in doc:
            return doc
        path = base / doc["file"]  # an absolute path replaces base
        target = path.resolve()
        if target in chain:
            cycle = chain[chain.index(target):] + [target]
            raise ValueError("graph file references form a cycle: " + " -> ".join(map(str, cycle)))
        chain.append(target)
        doc, base = _read_json(path), path.parent


def _build_graph(doc: dict) -> InterferenceGraph:
    if "placements" in doc:
        placements = [
            UserPlacement(tuple(p["tx"]), tuple(p["rx"]), p["interference_range"])
            for p in doc["placements"]
        ]
        return graph_from_locations(placements)
    return InterferenceGraph.from_edges(doc["n_users"], doc["edges"])


def load_graph(path: str | Path) -> InterferenceGraph:
    return _build_graph(_inline_graph({"file": str(path)}))


def _merge_defaults(raw: dict) -> dict:
    """raw with CONFIG_SCHEMA's defaults filled in: into each section raw has,
    and as a whole section for each absent one that requires no key."""
    resolved = json.loads(json.dumps(raw))  # deep copy, JSON-clean
    for name, section in CONFIG_SCHEMA["properties"].items():
        if name not in resolved and "required" in section:
            continue
        block = resolved.setdefault(name, {})
        if name == "sweep" and "compare" in resolved:  # the one default the schema cannot state
            block.setdefault("replications", resolved["compare"]["replications"])
        for key, schema in section["properties"].items():
            if "default" in schema:
                block.setdefault(key, schema["default"])
    return resolved


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


_CHANNELS = {"markov": MarkovChannel, "bernoulli": BernoulliChannel, "white_space": WhiteSpaceChannel}
_MECHANISMS = {
    "backoff": RandomBackoff,
    "asymptotic_backoff": AsymptoticBackoff,
    "weighted_share": WeightedShare,
    "aloha": SlottedAloha,
}


def _build(kinds: dict, d: dict):
    """kinds[d["kind"]] built from d's other keys, which the closed schema has
    checked, with lists turned into tuples."""
    return kinds[d["kind"]](**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items() if k != "kind"})


def _build_rates(d: dict, n_users: int, n_channels: int) -> RateModel:
    """The rate model of a ``scenario.rates`` section; a ``mean_rate`` table
    is turned into mean gains cell by cell."""
    key = next(k for k in ("mean", "mean_gain", "mean_rate") if k in d)
    table = d[key]
    if len(table) != n_users or any(len(row) != n_channels for row in table):
        raise ValueError(f"rates.{key} must be {n_users} x {n_channels} (users x channels)")
    if key == "mean":
        return FixedRates(table)
    w, eta, omega = d["bandwidth"], d["tx_power"], d["noise_power"]
    if key == "mean_rate":
        table = [[calibrate_mean_gain(w, eta, omega, b) for b in row] for row in table]
    return RayleighShannonRates(w, eta, omega, table)


def _build_policy(d: dict, learning: LearningPolicy, solver: SolverSettings) -> Policy:
    kind = d["kind"]
    if kind == "random_access":
        return RandomAccessPolicy()
    if kind == "fixed_profile":
        return FixedProfilePolicy(tuple(d["profile"]))
    if kind == "dynamic_stage_game":
        return DynamicStageGamePolicy(**{k: v for k, v in d.items() if k != "kind"}, max_rounds=solver.max_rounds)
    return replace(learning, gamma=float(d.get("gamma", learning.gamma)))


def load_config(path: str | Path) -> ExperimentConfig:
    """Load, validate, default-fill, and build an experiment configuration."""
    path = Path(path)
    raw = _read_json(path)
    errors = _schema_errors(raw, CONFIG_SCHEMA)
    if errors:
        raise ValueError(f"{path}: configuration rejected:\n  " + "\n  ".join(errors))
    resolved = _merge_defaults(raw)

    sc = resolved["scenario"]
    sc["graph"] = _inline_graph(sc["graph"], path.parent)  # echoed and hashed by content
    graph = _build_graph(sc["graph"])
    channels = [_build(_CHANNELS, d) for d in sc["channels"]]
    rates = _build_rates(sc["rates"], graph.n_users, len(channels))
    scenario = Scenario(
        graph, channels, rates, _build(_MECHANISMS, sc["mechanism"]), sc.get("gains"),
        t_max=sc["t_max"], periods=sc["periods"],
    )

    profile = tuple(sc["profile"]) if "profile" in sc else None
    if profile is not None:
        _check_profile(scenario.game, profile, "scenario.profile")

    solver = SolverSettings(**resolved["solver"])
    learning = LearningPolicy(**{**resolved["learning"], "gamma": float(resolved["learning"]["gamma"])})
    output = OutputSettings(**resolved["output"])

    compare, sweep = resolved.get("compare", {}), resolved.get("sweep")
    policies = [_build_policy(p, learning, solver) for p in compare.get("policies", [])]
    for k, p in enumerate(policies):
        if isinstance(p, FixedProfilePolicy):
            _check_profile(scenario.game, p.profile, f"compare.policies.{k}.profile")
        if p.label() in [q.label() for q in policies[:k]]:
            raise ValueError(f"compare.policies lists two policies labelled {p.label()!r}")

    return ExperimentConfig(
        scenario=scenario,
        solver=solver,
        learning=learning,
        output=output,
        policies=policies,
        compare_replications=compare.get("replications", _REPLICATIONS["default"]),
        sweep_gammas=[float(g) for g in sweep["gammas"]] if sweep else None,
        sweep_replications=sweep["replications"] if sweep else _REPLICATIONS["default"],
        fixed_profile=profile,
        rate_unit=sc["rate_unit"],
        resolved=resolved,
        sha256=config_hash(resolved),
        source=str(path),
    )


def resolved_payoff_scale(cfg: ExperimentConfig) -> float:
    return cfg.learning.resolved_scale(cfg.scenario.game)


def learning_policy_from(cfg: ExperimentConfig) -> LearningPolicy:
    return cfg.learning

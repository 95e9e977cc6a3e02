import json
import random
from pathlib import Path

import jsonschema
import pytest

from specaccess._schema import iter_errors
from specaccess.config import CONFIG_SCHEMA, GRAPH_SCHEMA, _schema_errors

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GRAPHS = sorted((ROOT / "configs" / "graphs").glob("*.json"))

_KINDS = ["markov", "bernoulli", "white_space", "fixed", "rayleigh_shannon", "backoff",
          "asymptotic_backoff", "weighted_share", "aloha", "learning", "random_access",
          "fixed_profile", "dynamic_stage_game", "mystery", 3]
# keys the schema knows somewhere, so an added key is sometimes allowed, plus unknown ones
_KEYS = ["kind", "theta", "epsilon", "xi", "mean", "mean_gain", "mean_rate", "bandwidth",
         "max_counter", "weights", "probs", "gamma", "restarts", "profile", "file", "n_users",
         "edges", "placements", "interference_range", "tx", "replications", "t_max", "mu",
         "payoff_scale", "estimator", "slot_trace", "mystery", "zz", "Aa"]
# no integer-valued floats: jsonschema counts 4.0 as an integer and the package does not
_VALUES = [None, True, False, "x", "auto", "1/T", "1/M", "mle", -1, 0, 1, 2, 3, 10**7,
           0.5, 1.5, -0.25, 1e-9, [], [1], [1, 2], [[1.5]], [0.5, 0.5], {}, {"kind": "fixed"},
           {"kind": "learning"}, {"file": "g.json"}, {"tx": [0, 0]}]


def _reference_errors(instance, schema):
    """jsonschema's errors, formatted as config._schema_errors formats its own."""
    validator = jsonschema.Draft202012Validator(schema)
    msgs = []
    for err in sorted(validator.iter_errors(instance), key=lambda e: list(e.absolute_path)):
        loc = ".".join(str(p) for p in err.absolute_path) or "<root>"
        why = "; ".join(dict.fromkeys(e.message for e in err.context))
        msgs.append(f"{loc}: {err.message}" + (f" ({why})" if why else ""))
    return msgs


def _containers(node):
    """Every dict and list inside node, node included."""
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _containers(child)


def _mutate(doc, rng):
    """Drop a key, add a key, retype a value or change a kind, once somewhere in doc."""
    what = rng.choice(["drop", "add", "retype", "kind"])
    if what == "kind":
        kinded = [c for c in _containers(doc) if isinstance(c, dict) and "kind" in c]
        if kinded:
            rng.choice(kinded)["kind"] = rng.choice(_KINDS)
            return doc
        what = "retype"
    node = rng.choice(list(_containers(doc)))
    value = json.loads(json.dumps(rng.choice(_VALUES)))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    if what == "add" or not keys:
        if isinstance(node, dict):
            node[rng.choice(_KEYS)] = value
        else:
            node.append(value)
    elif what == "drop":
        del node[rng.choice(keys)]
    else:
        node[rng.choice(keys)] = value
    return doc


def _cases():
    docs = [(json.loads(p.read_text()), CONFIG_SCHEMA) for p in CONFIGS]
    docs += [(json.loads(p.read_text()), GRAPH_SCHEMA) for p in GRAPHS]
    docs += [(doc["scenario"]["graph"], GRAPH_SCHEMA) for doc, _ in docs[: len(CONFIGS)]]
    docs += [({"file": "star5.json"}, GRAPH_SCHEMA),
             ({"placements": [{"tx": [0, 0], "rx": [1, 0], "interference_range": 1}]}, GRAPH_SCHEMA)]
    rng = random.Random(20140101)
    cases = list(docs)
    cases += [(top, schema) for top in (None, 5, "x", [], {}) for schema in (CONFIG_SCHEMA, GRAPH_SCHEMA)]
    for _ in range(2400):
        doc, schema = rng.choice(docs)
        doc = json.loads(json.dumps(doc))
        for _ in range(rng.choice([1, 1, 2, 3])):
            doc = _mutate(doc, rng)
        cases.append((doc, schema))
    return cases


def test_validator_agrees_with_jsonschema():
    # verdict, error paths, their order and every message, context included
    cases = _cases()
    valid = 0
    for doc, schema in cases:
        expected = _reference_errors(doc, schema)
        assert _schema_errors(doc, schema) == expected, doc
        valid += not expected
    # both verdicts occur often enough to mean something
    assert 100 < valid < len(cases) - 1000


@pytest.mark.parametrize("schema, instance", [
    ({"type": "string", "pattern": "^a"}, "abc"),
    ({"type": "object", "properties": {"name": {"minLength": 2}}}, {"name": "b"}),
    ({"items": {"uniqueItems": True}}, [["a"]]),
    ({"additionalProperties": {"type": "string"}}, {"name": "b"}),
])
def test_unsupported_keyword_raises(schema, instance):
    with pytest.raises(ValueError, match="supported"):
        list(iter_errors(instance, schema))


@pytest.mark.parametrize("a, b, equal", [
    (True, 1, False), (False, 0, False), (1, 1.0, True), ("a", "a", True), (None, None, True),
    ([1, True], [1.0, True], True), ([1, True], [1, 1], False), ({"k": 0}, {"k": False}, False),
    ({"k": 2}, {"k": 2.0}, True),
])
def test_const_uses_json_equality(a, b, equal):
    assert (list(iter_errors(a, {"const": b})) == []) is equal
    assert (list(iter_errors(a, {"enum": ["z", b]})) == []) is equal


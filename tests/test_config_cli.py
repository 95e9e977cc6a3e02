import csv
import hashlib
import json
import logging
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
from inspect import signature
from pathlib import Path

import numpy as np
import pytest

import specaccess as sa
from specaccess import config, equilibria, game, simulator
from specaccess import graph as graph_module
from specaccess.cli import _numpy_build
from specaccess.cli import main as cli_main
from specaccess.config import (
    CONFIG_SCHEMA,
    config_hash,
    load_config,
    load_graph,
    resolved_payoff_scale,
)
from specaccess.equilibria import solve_pure_ne
from specaccess.potentials import applicable_variants
from specaccess.reporting import write_json

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _minimal_doc():
    return {
        "scenario": {
            "graph": {"n_users": 1, "edges": []},
            "channels": [{"kind": "bernoulli", "theta": 0.5}],
            "rates": {"kind": "fixed", "mean": [[4.0]]},
            "mechanism": {"kind": "backoff", "max_counter": 4},
        }
    }


_FIXED_RATE_CONFIGS = ["dag_chain.json", "triangle_no_ne.json"]
_RAYLEIGH_CONFIGS = ["learning_9user.json", "learning_9user_aloha.json"]


def test_scipy_cases_cover_every_shipped_config():
    names = sorted(p.name for p in CONFIGS.glob("*.json"))
    assert sorted(_FIXED_RATE_CONFIGS + _RAYLEIGH_CONFIGS) == names


@pytest.mark.parametrize("configs, absent", [
    (_FIXED_RATE_CONFIGS, "scipy"),
    (_RAYLEIGH_CONFIGS, "scipy.optimize"),
])
def test_scipy_stays_off_the_import_path(configs, absent):
    # the package imports numpy and the stdlib only: fixed-rate configs never
    # loaded scipy, and calibrating Rayleigh rates, which once loaded
    # scipy.special for E1 but never scipy.optimize, now loads no scipy module
    # either; no config loads jsonschema
    script = (
        "import sys, specaccess, specaccess.cli\n"
        "from specaccess.config import load_config\n"
        f"for name in {configs!r}:\n"
        f"    load_config({str(CONFIGS)!r} + '/' + name)\n"
        f"print({absent!r} in sys.modules,\n"
        "      sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'jsonschema')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False []"


def test_configs_load_and_fail_without_jsonschema(tmp_path):
    # with jsonschema made unimportable, every shipped config and graph still
    # loads, and a bad config fails in the CLI with the in-process message
    doc = _minimal_doc()
    doc["scenario"]["rates"] = {"kind": "rayleigh_shannon", "bandwidth": 1.0, "tx_power": 1.0,
                                "noise_power": 1.0, "mean": [[1.0]]}
    doc["scenario"]["graph"]["n_users"] = 1.0
    bad = _write(tmp_path, doc)
    with pytest.raises(ValueError) as rejected:
        load_config(bad)
    script = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        "from specaccess.cli import main\n"
        "from specaccess.config import load_config, load_graph\n"
        f"for name in {sorted(p.name for p in CONFIGS.glob('*.json'))!r}:\n"
        f"    load_config({str(CONFIGS)!r} + '/' + name)\n"
        f"for name in {sorted(p.name for p in (CONFIGS / 'graphs').glob('*.json'))!r}:\n"
        f"    load_graph({str(CONFIGS / 'graphs')!r} + '/' + name)\n"
        f"sys.exit(main(['solve', {str(bad)!r}, '--out', {str(tmp_path / 'never')!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 1, out.stderr
    assert out.stderr == f"error: {rejected.value}\n"
    assert "mean_gain' is a required property; 'mean_rate' is a required property" in out.stderr
    assert "scenario.graph.n_users: 1.0 is not of type 'integer'" in out.stderr


def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, _minimal_doc()))
    assert cfg.scenario.t_max == 100
    assert cfg.scenario.periods == 500
    assert cfg.learning.mu == "1/T"
    assert cfg.learning.initial_perception == "1/M"
    assert cfg.solver.enumeration_cap == 10**7
    assert cfg.output.dir == "out"
    assert cfg.resolved["scenario"]["t_max"] == 100  # defaults echoed


def test_a_loaded_scenario_hashes_and_pickles(tmp_path):
    # the config's channel and gain lists become tuples, so compare --jobs can
    # send the scenario to its workers, and the game comes back equal
    doc = _minimal_doc()
    doc["scenario"]["gains"] = [2.5]
    sc = load_config(_write(tmp_path, doc)).scenario
    assert sc.gain == (2.5,) and sc.game.gain == (2.5,)
    copy = pickle.loads(pickle.dumps(sc))
    assert copy == sc and hash(copy) == hash(sc) and copy.game == sc.game


def test_shipped_nine_user_config_loads_exactly():
    cfg = load_config(CONFIGS / "learning_9user.json")
    game = cfg.scenario.game
    assert game.n_users == 9 and game.n_channels == 5
    assert game.idle_prob == pytest.approx((0.5,) * 5)
    assert cfg.scenario.t_max == 100
    assert cfg.learning.gamma == 5.0
    assert isinstance(game.mechanism, sa.RandomBackoff) and game.mechanism.max_counter == 10
    # calibrated Rayleigh/Shannon models must reproduce the configured means
    assert game.mean_rate[0] == pytest.approx((2, 6, 16, 20, 30), rel=1e-9)
    assert game.mean_rate[8] == pytest.approx((10, 30, 80, 100, 150), rel=1e-9)
    assert cfg.sweep_gammas == [0.5, 1, 2, 5, 10, 50]
    assert cfg.rate_unit == "Mbps"
    # auto scale resolves to the mean expected throughput
    assert resolved_payoff_scale(cfg) == pytest.approx(game._value.mean())


def test_shipped_aloha_config_loads():
    cfg = load_config(CONFIGS / "learning_9user_aloha.json")
    assert isinstance(cfg.scenario.game.mechanism, sa.SlottedAloha)
    assert set(cfg.scenario.game.mechanism.probs) == {0.3, 0.5, 0.7}


def test_negative_theta_rejected(tmp_path):
    doc = _minimal_doc()
    doc["scenario"]["channels"][0]["theta"] = -0.2
    with pytest.raises(ValueError, match="theta"):
        load_config(_write(tmp_path, doc))


def test_unknown_key_rejected(tmp_path):
    doc = _minimal_doc()
    doc["scenario"]["mystery"] = 1
    with pytest.raises(ValueError, match="mystery"):
        load_config(_write(tmp_path, doc))
    doc2 = _minimal_doc()
    doc2["extra_section"] = {}
    with pytest.raises(ValueError, match="extra_section"):
        load_config(_write(tmp_path, doc2))


def test_dimension_mismatch_rejected(tmp_path):
    doc = _minimal_doc()
    doc["scenario"]["rates"]["mean"] = [[4.0], [4.0]]  # two rows for one user
    with pytest.raises(ValueError, match="users x channels"):
        load_config(_write(tmp_path, doc))
    doc2 = _minimal_doc()
    doc2["scenario"]["mechanism"] = {"kind": "aloha", "probs": [0.5, 0.5]}
    with pytest.raises(ValueError, match="one probability per user"):
        load_config(_write(tmp_path, doc2))


def test_white_space_fractional_theta_rejected(tmp_path):
    doc = _minimal_doc()
    doc["scenario"]["channels"] = [{"kind": "white_space", "theta": 0.5}]
    with pytest.raises(ValueError, match="0 or 1"):
        load_config(_write(tmp_path, doc))


def test_resolved_config_round_trips(tmp_path):
    cfg = load_config(_write(tmp_path, _minimal_doc()))
    echoed = _write(tmp_path, cfg.resolved, name="echo.json")
    cfg2 = load_config(echoed)
    assert cfg2.sha256 == cfg.sha256
    assert cfg2.resolved == cfg.resolved


def test_config_hash_is_canonical():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)


_POLICIES = {"policies": [{"kind": "random_access"}]}


@pytest.mark.parametrize("name, sections, sha256, replications", [
    ("dag_chain.json", None, "95d0ab6cf6d49ee7540e86f49db15562aaabc0081b227f73116c2267f8c45a7d", (5, 10)),
    ("learning_9user.json", None, "abeefbcf5217e55582ea5b7cafdedcf9719a471a0a9a0dc830cd353b28428f62", (20, 20)),
    ("learning_9user_aloha.json", None, "8736fafbecccb2355f7239645015d9e3e87f0d275b2843a4fb13499b9171e105",
     (20, 20)),
    ("triangle_no_ne.json", None, "ee480f50456657a672b055acd35af92a572727acc935b06f4965988e9719f54e", (10, 10)),
    ("minimal", {}, "1b501b5f34e341ec84a8f91f17021b86b5d3d731b3c625690d4cc6779881eaf1", (10, 10)),
    ("minimal", {"sweep": {"gammas": [1.0]}},
     "095d474346d730820249f1a883c69279392a020326de88ce694aed9b3eda15be", (10, 10)),
    ("minimal", {"compare": {**_POLICIES, "replications": 3}, "sweep": {"gammas": [1.0]}},
     "e831955f798950d36c6b1c4025d96906c8f9f37e4875d584de7f40966ab421ec", (3, 3)),
], ids=["dag_chain", "learning_9user", "learning_9user_aloha", "triangle_no_ne", "minimal", "minimal_sweep",
        "minimal_compare_sweep"])
def test_resolved_config_keeps_its_hash(tmp_path, name, sections, sha256, replications):
    # the defaults filled in, and so every artifact's config_sha256, as recorded
    # before the defaults moved into the schema; a sweep without replications
    # takes compare's
    path = CONFIGS / name if sections is None else _write(tmp_path, {**_minimal_doc(), **sections})
    cfg = load_config(path)
    assert cfg.sha256 == sha256
    assert (cfg.compare_replications, cfg.sweep_replications) == replications


def _schema_default(section, key):
    return CONFIG_SCHEMA["properties"][section]["properties"][key]["default"]


def _default_of(func, parameter):
    return signature(func).parameters[parameter].default


@pytest.mark.parametrize("section, key, api_values", [
    ("solver", "enumeration_cap", [
        game.ENUMERATION_CAP, _default_of(solve_pure_ne, "enumeration_cap"),
        *(_default_of(f, "cap") for f in (game.enumerate_pure_ne, game.first_pure_ne, game.social_welfare_and_poa))]),
    ("solver", "recursion_budget", [
        equilibria.RECURSION_BUDGET, _default_of(solve_pure_ne, "recursion_budget"),
        _default_of(equilibria.construct_ne_directed_tree, "recursion_budget")]),
    ("scenario", "t_max", [sa.Scenario.t_max]),
    ("scenario", "periods", [sa.Scenario.periods]),
    *[("learning", key, [getattr(sa.LearningPolicy, key)])
      for key in ["payoff_scale", "initial_perception", "mu", "estimator", "noise_half_width"]],
    ("output", "dir", [config.OutputSettings.dir]),
    ("output", "slot_trace", [config.OutputSettings.slot_trace]),
], ids=lambda x: x if isinstance(x, str) else "")
def test_schema_default_is_the_api_value(section, key, api_values):
    default = _schema_default(section, key)
    assert all(type(v) is type(default) and v == default for v in api_values), (default, api_values)


@pytest.mark.parametrize("table, schema", [
    (config._CHANNELS, config._CHANNEL_SCHEMA),
    (config._MECHANISMS, config._MECHANISM_SCHEMA),
])
def test_kind_table_names_the_kinds_its_schema_lists(table, schema):
    assert list(table) == schema["properties"]["kind"]["enum"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_json_number_tokens_are_rejected(tmp_path, capsys, token):
    # Python's json reads these, JSON has no such values: in a config ...
    text = json.dumps(_minimal_doc())[:-1] + f', "learning": {{"gamma": {token}}}}}'
    assert not math.isfinite(json.loads(text)["learning"]["gamma"])
    p = tmp_path / "cfg.json"
    p.write_text(text)
    with pytest.raises(ValueError, match=f"not valid JSON: {token} is not a JSON value"):
        load_config(p)
    out = tmp_path / "never"
    assert cli_main(["solve", str(p), "--out", str(out)]) == 1
    assert "not valid JSON" in capsys.readouterr().err
    assert not out.exists()
    # ... and in a graph file it references
    (tmp_path / "g.json").write_text(f'{{"n_users": 1, "edges": [], "x": {token}}}')
    doc = _minimal_doc()
    doc["scenario"]["graph"] = {"file": "g.json"}
    with pytest.raises(ValueError, match=f"g.json: not valid JSON: {token} is not a JSON value"):
        load_config(_write(tmp_path, doc))


def test_classify_names_the_file_it_cannot_parse(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"scenario": {"graph": 1 2}}')
    errors = []
    for command in ("classify", "solve"):
        assert cli_main([command, str(p), "--out", str(tmp_path / "out")]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: {p}: not valid JSON: ")


@pytest.mark.parametrize("value", [math.nan, math.inf, np.float64(-math.inf)])
def test_json_artifacts_never_hold_non_json_numbers(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "a.json", "x", 1, {"value": value}, {})


def test_learning_settings_flow_into_policies(tmp_path):
    doc = _minimal_doc()
    doc["learning"] = {"gamma": 2.5, "mu": 0.2, "initial_perception": 3.0, "estimator": "exact"}
    doc["compare"] = {"policies": [{"kind": "learning"}], "replications": 1}
    cfg = load_config(_write(tmp_path, doc))
    policy = cfg.policies[0]
    assert policy.gamma == 2.5 and policy.mu == 0.2 and policy.initial_perception == 3.0
    p0 = policy.initial_matrix(cfg.scenario.game)
    assert p0.shape == (1, 1) and p0[0, 0] == 3.0
    from specaccess.simulator import run_policy

    res = run_policy(cfg.scenario, policy, (0, 0))
    assert res.learning is not None and res.welfare_trace.shape == (cfg.scenario.periods,)


def test_graph_file_variants(tmp_path):
    p1 = _write(tmp_path, {"n_users": 3, "edges": [[1, 2], [2, 3]]}, "g1.json")
    g1 = load_graph(p1)
    assert g1.edges == frozenset({(1, 2), (2, 3)})
    p2 = _write(tmp_path, {
        "placements": [
            {"tx": [0, 0], "rx": [100, 0], "interference_range": 5},
            {"tx": [50, 0], "rx": [3, 0], "interference_range": 5},
        ]
    }, "g2.json")
    g2 = load_graph(p2)
    assert g2.edges == frozenset({(1, 2)})
    p3 = _write(tmp_path, {"file": "g1.json"}, "g3.json")
    assert load_graph(p3).edges == g1.edges


@pytest.mark.parametrize("files", [{"self.json": "self.json"}, {"a.json": "sub/b.json", "sub/b.json": "../a.json"}])
def test_graph_file_reference_cycle_is_named(tmp_path, capsys, files):
    (tmp_path / "sub").mkdir()
    for name, target in files.items():
        _write(tmp_path, {"file": target}, name)
    first = tmp_path / next(iter(files))
    cycle = " -> ".join(str(tmp_path.resolve() / name) for name in [*files, next(iter(files))])
    with pytest.raises(ValueError, match="graph file references form a cycle: " + re.escape(cycle)):
        load_graph(first)
    doc = _minimal_doc()
    doc["scenario"]["graph"] = {"file": first.name}
    with pytest.raises(ValueError, match=re.escape(cycle)):
        load_config(_write(tmp_path, doc))
    assert cli_main(["classify", str(first), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: graph file references form a cycle: {cycle}\n"


_PLACEMENTS = [{"tx": [0, 0], "rx": [1, 0], "interference_range": 1}]


@pytest.mark.parametrize("where, entry, key", [
    ("channels", {"kind": "markov", "epsilon": 0.3, "xi": 0.1, "theta": 0.99}, "theta"),
    ("channels", {"kind": "bernoulli", "theta": 0.5, "epsilon": 0.3}, "epsilon"),
    ("mechanism", {"kind": "backoff", "max_counter": 4, "weights": [1.0]}, "weights"),
    ("mechanism", {"kind": "backoff", "max_counter": 4, "probs": [0.5]}, "probs"),
    ("mechanism", {"kind": "asymptotic_backoff", "max_counter": 4}, "max_counter"),
    ("rates", {"kind": "fixed", "mean": [[4.0]], "bandwidth": 10.0}, "bandwidth"),
    ("rates", {"kind": "fixed", "mean": [[4.0]], "mean_gain": [[1.0]]}, "mean_gain"),
    ("policies", {"kind": "random_access", "gamma": 2.0}, "gamma"),
    ("policies", {"kind": "random_access", "restarts": 3}, "restarts"),
    ("policies", {"kind": "random_access", "profile": [1]}, "profile"),
    ("policies", {"kind": "learning", "restarts": 3}, "restarts"),
])
def test_key_the_kind_does_not_read_is_rejected(tmp_path, where, entry, key):
    doc = _minimal_doc()
    if where == "channels":
        doc["scenario"]["channels"] = [entry]
    elif where == "policies":
        doc["compare"] = {"policies": [entry]}
    else:
        doc["scenario"][where] = entry
    with pytest.raises(ValueError, match=f"'{key}' was unexpected"):
        load_config(_write(tmp_path, doc))


@pytest.mark.parametrize("doc, key", [
    ({"file": "g1.json", "n_users": 7}, "n_users"),
    ({"file": "g1.json", "edges": [[1, 2]]}, "edges"),
    ({"placements": _PLACEMENTS, "n_users": 1}, "n_users"),
    ({"placements": _PLACEMENTS, "edges": []}, "edges"),
])
def test_graph_shapes_are_closed(tmp_path, doc, key):
    _write(tmp_path, {"n_users": 2, "edges": [[1, 2]]}, "g1.json")
    with pytest.raises(ValueError, match=f"invalid graph document:\n.*'{key}' was unexpected"):
        load_graph(_write(tmp_path, doc, "g.json"))


def test_failed_alternative_names_the_missing_keys(tmp_path):
    doc = _minimal_doc()
    doc["scenario"]["rates"] = {"kind": "rayleigh_shannon", "bandwidth": 1.0, "tx_power": 1.0,
                                "noise_power": 1.0}
    with pytest.raises(ValueError, match="'mean_gain' is a required property; "
                                         "'mean_rate' is a required property"):
        load_config(_write(tmp_path, doc))


def _set(doc, dotted, value):
    *parents, last = [int(k) if k.isdigit() else k for k in dotted.split(".")]
    node = doc
    for k in parents:
        node = node[k]
    node[last] = value


@pytest.mark.parametrize("key", [
    "scenario.graph.n_users",
    "scenario.graph.edges.0.1",
    "scenario.t_max",
    "scenario.periods",
    "scenario.profile.2",
    "scenario.mechanism.max_counter",
    "solver.enumeration_cap",
    "solver.recursion_budget",
    "solver.max_rounds",
    "compare.replications",
    "compare.policies.2.profile.0",
    "compare.policies.3.restarts",
    "sweep.replications",
])
def test_integer_key_written_as_float_is_rejected(tmp_path, key):
    # Draft 2020-12 counts 4.0 as an integer; these used to load, carrying a
    # float into the resolved document, or crash with a TypeError
    doc = json.loads((CONFIGS / "dag_chain.json").read_text())
    doc["solver"] = {"enumeration_cap": 1000, "recursion_budget": 100, "max_rounds": 50}
    doc["compare"]["policies"][3]["restarts"] = 2
    doc["sweep"] = {"gammas": [1.0], "replications": 2}
    load_config(_write(tmp_path, doc))
    _set(doc, key, 2.0)
    with pytest.raises(ValueError, match=re.escape(f"{key}: 2.0 is not of type 'integer'")):
        load_config(_write(tmp_path, doc))


@pytest.mark.parametrize("key", ["scenario.graph.n_users", "compare.replications"])
def test_cli_rejects_integer_key_written_as_float(tmp_path, capsys, key):
    doc = json.loads((CONFIGS / "dag_chain.json").read_text())
    _set(doc, key, 4.0)
    out = tmp_path / "never"
    assert cli_main(["compare", str(_write(tmp_path, doc)), "--out", str(out)]) == 1
    assert f"{key}: 4.0 is not of type 'integer'" in capsys.readouterr().err
    assert not out.exists()


def test_schema_file_matches_embedded():
    shipped = json.loads((ROOT / "config.schema.json").read_text())
    assert shipped == CONFIG_SCHEMA


# --- CLI ----------------------------------------------------------------------

def test_cli_classify_directed_cycle(tmp_path, capsys):
    rc = cli_main(["classify", str(CONFIGS / "graphs" / "directed_3cycle.json"),
                   "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "general_directed" in out
    assert "no structural pure-NE guarantee" in out
    data = json.loads((tmp_path / "classification.json").read_text())
    assert data["classes"] == ["general_directed"]


def test_cli_classify_star(tmp_path, capsys):
    rc = cli_main(["classify", str(CONFIGS / "graphs" / "star5.json"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "directed_tree" in out and "complete_bipartite" in out


def test_cli_solve_dag_config(tmp_path, capsys):
    rc = cli_main(["solve", str(CONFIGS / "dag_chain.json"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "routine: dag" in out
    assert "verified pure NE: True" in out
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["verified"] is True


def test_cli_solve_reports_no_ne(tmp_path, capsys):
    rc = cli_main(["solve", str(CONFIGS / "triangle_no_ne.json"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no pure Nash equilibrium" in out


def test_cli_solve_tree_fallback_honours_enumeration_cap(tmp_path, capsys):
    # a forest that is not a DAG; a budget of one solve forces the
    # enumeration fallback, which must respect the configured cap (8 > 4)
    doc = _minimal_doc()
    doc["scenario"].update({
        "graph": {"n_users": 3, "edges": [[1, 2], [2, 1], [2, 3]]},
        "channels": [{"kind": "bernoulli", "theta": 0.5}, {"kind": "bernoulli", "theta": 0.4}],
        "rates": {"kind": "fixed", "mean": [[4.0, 3.0]] * 3},
    })
    doc["solver"] = {"recursion_budget": 1, "enumeration_cap": 4}
    rc = cli_main(["solve", str(_write(tmp_path, doc)), "--out", str(tmp_path)])
    assert rc == 1
    assert "exceed the enumeration cap 4" in capsys.readouterr().err


def test_cli_solve_names_the_routine_after_a_tree_budget_fallback(tmp_path, capsys, caplog):
    # the forest of the test above: one solve is over budget, so the scan finds the NE
    doc = _minimal_doc()
    doc["scenario"].update({
        "graph": {"n_users": 3, "edges": [[1, 2], [2, 1], [2, 3]]},
        "channels": [{"kind": "bernoulli", "theta": 0.5}, {"kind": "bernoulli", "theta": 0.4}],
        "rates": {"kind": "fixed", "mean": [[4.0, 3.0]] * 3},
    })
    doc["solver"] = {"recursion_budget": 1}
    assert cli_main(["solve", str(_write(tmp_path, doc)), "--out", str(tmp_path)]) == 0
    assert "routine: enumeration" in capsys.readouterr().out.splitlines()
    assert "exceeded its recursion budget (1 solves); trying the next routine" in caplog.text
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert (sol["routine"], sol["verified"]) == ("enumeration", True)


@pytest.mark.parametrize("argv", [
    [command, "--seed", "1"] for command in ("classify", "solve", "poa")
] + [
    [command, "--jobs", "2"]
    for command in ("classify", "solve", "poa", "potential-check", "estimate", "learn", "simulate")
])
def test_cli_rejects_flags_the_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([argv[0], str(CONFIGS / "dag_chain.json")] + argv[1:])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_cli_solve_bipartite(tmp_path, capsys):
    # K_{2,2} is undirected and cyclic, so neither the DAG nor the tree routine applies
    doc = _minimal_doc()
    doc["scenario"].update({
        "graph": {"n_users": 4, "edges": [e for i in (1, 2) for j in (3, 4) for e in ([i, j], [j, i])]},
        "channels": [{"kind": "bernoulli", "theta": 0.9}, {"kind": "bernoulli", "theta": 0.8}],
        "rates": {"kind": "fixed", "mean": [[5.0, 4.0]] * 4},
    })
    assert cli_main(["solve", str(_write(tmp_path, doc)), "--out", str(tmp_path)]) == 0
    assert "routine: bipartite" in capsys.readouterr().out
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["routine"] == "bipartite" and sol["verified"] is True


def test_cli_poa_artifact(tmp_path, capsys):
    rc = cli_main(["poa", str(CONFIGS / "dag_chain.json"), "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "poa.json").read_text())
    assert 0 < data["poa"] <= 1.0
    assert data["poa"] >= data["lower_bound"] - 1e-9


def test_cli_poa_all_channels_never_idle(tmp_path, capsys):
    doc = _minimal_doc()
    doc["scenario"].update({
        "graph": {"n_users": 2, "edges": [[1, 2], [2, 1]]},
        "channels": [{"kind": "white_space", "theta": 0}, {"kind": "white_space", "theta": 0}],
        "rates": {"kind": "fixed", "mean": [[4.0, 2.0], [3.0, 5.0]]},
    })
    rc = cli_main(["poa", str(_write(tmp_path, doc)), "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "poa.json").read_text())
    assert data["poa"] == 1.0 and data["lower_bound"] == 1.0


def test_cli_poa_without_pure_ne(tmp_path, capsys):
    rc = cli_main(["poa", str(CONFIGS / "triangle_no_ne.json"), "--out", str(tmp_path)])
    assert rc == 0
    assert "PoA undefined" in capsys.readouterr().out
    data = json.loads((tmp_path / "poa.json").read_text())
    assert data["poa"] is None and data["pure_ne_count"] == 0
    assert len(data["certificate"]) == 2 ** 3  # every profile witnessed


def test_cli_solve_and_poa_do_not_depend_on_the_rate_unit(tmp_path):
    # rates far below one payoff unit: 1e-300 on a complete 3-user graph, where
    # [1, 1, 1] is no NE (user 1 gains on the empty channel 2), and dag_chain
    # with every rate times 2^-990, an exact rescaling; solve and poa answer
    # as on the same games at unit scale
    doc = _minimal_doc()
    doc["scenario"].update({
        "graph": {"n_users": 3, "edges": [[i, j] for i in (1, 2, 3) for j in (1, 2, 3) if i != j]},
        "channels": [{"kind": "bernoulli", "theta": 0.5}] * 2,
        "rates": {"kind": "fixed", "mean": [[1e-300, 1e-300]] * 3},
    })
    tiny = _write(tmp_path, doc, "tiny.json")
    doc["scenario"]["rates"]["mean"] = [[1.0, 1.0]] * 3
    unit = _write(tmp_path, doc, "unit.json")
    dag = json.loads((CONFIGS / "dag_chain.json").read_text())
    dag["scenario"]["rates"]["mean"] = [[b * 2.0**-990 for b in row] for row in dag["scenario"]["rates"]["mean"]]
    dag_tiny = _write(tmp_path, dag, "dag_tiny.json")
    got = {}
    for config in (tiny, unit, dag_tiny, CONFIGS / "dag_chain.json"):
        out = tmp_path / config.stem
        for command in ("solve", "poa"):
            assert cli_main([command, str(config), "--out", str(out)]) == 0, (command, config)
        solution = json.loads((out / "solution.json").read_text())
        poa = json.loads((out / "poa.json").read_text())
        got[config.stem] = (solution["routine"], solution["profile"], solution["verified"], poa["pure_ne_count"],
                            poa["poa"], poa["lower_bound"], poa["optimal_profile"], poa["worst_ne_profile"])
    assert got["tiny"] == got["unit"] and got["tiny"][:3] == ("enumeration", [1, 1, 2], True)
    assert got["dag_tiny"] == got["dag_chain"] and got["dag_chain"][3] == 1


def test_cli_verbose_logs_the_profile_scan(tmp_path, caplog):
    # --verbose logs the scan's profile count and its wall seconds, the layout
    # build's apart from the blocks', at DEBUG and leaves the artifacts as they are
    config = str(CONFIGS / "triangle_no_ne.json")
    for command, artifact in (("poa", "poa.json"), ("solve", "solution.json")):
        written = []
        for verbose in ([], ["--verbose"], []):
            caplog.clear()
            out = tmp_path / f"{command}{len(written)}"
            assert cli_main([command, config, "--out", str(out)] + verbose) == 0
            scans = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "specaccess.game"]
            if verbose:
                assert len(scans) == 1 and scans[0][0] == logging.DEBUG
                assert re.fullmatch(r"scanned 8 of 8 profiles: layout \d+\.\d{3} s, blocks \d+\.\d{3} s, "
                                    r"evaluated 12 of 24 user rows per block", scans[0][1])
            else:
                assert scans == []
            written.append((out / artifact).read_bytes())
        assert written[0] == written[1] == written[2]


def test_cli_verbose_logs_the_payoff_rows_a_scan_evaluates(tmp_path, caplog):
    # the scan evaluates each user once per assignment of its neighbourhood's
    # cycling members: 385 of the 9 x 5^5 user rows of a block on the sparse
    # 9-user graph, and all 12 x 2^9 on a complete graph
    n = 12
    doc = _minimal_doc()
    doc["scenario"].update({
        "graph": {"n_users": n, "edges": [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if i != j]},
        "channels": [{"kind": "bernoulli", "theta": 0.5}, {"kind": "bernoulli", "theta": 0.7}],
        "rates": {"kind": "fixed", "mean": [[4.0, 2.0]] * n},
    })
    cases = [(CONFIGS / "learning_9user.json", 5 ** 9, 385, 9 * 5 ** 5),
             (_write(tmp_path, doc), 2 ** n, n * 2 ** 9, n * 2 ** 9)]
    for config, profiles, evaluated, rows in cases:
        caplog.clear()
        assert cli_main(["poa", str(config), "--out", str(tmp_path / "poa"), "--verbose"]) == 0
        (scan,) = [r.getMessage() for r in caplog.records if r.name == "specaccess.game"]
        assert re.fullmatch(rf"scanned {profiles} of {profiles} profiles: layout \d+\.\d{{3}} s, "
                            rf"blocks \d+\.\d{{3}} s, evaluated {evaluated} of {rows} user rows per block", scan)


@pytest.mark.parametrize("level", [logging.NOTSET, logging.WARNING, logging.DEBUG])
def test_cli_leaves_the_package_log_level_as_it_found_it(tmp_path, level, capsys):
    # an in-process call sets the package level for its command only, also
    # when the command fails
    package = logging.getLogger("specaccess")
    root = logging.getLogger().level
    before = package.level
    package.setLevel(level)
    try:
        for argv in (["solve", str(CONFIGS / "triangle_no_ne.json"), "--verbose"],
                     ["solve", str(CONFIGS / "triangle_no_ne.json")],
                     ["solve", str(tmp_path / "missing.json"), "--verbose"]):
            cli_main(argv + ["--out", str(tmp_path / "out")])
            assert package.level == level and logging.getLogger().level == root, argv
    finally:
        package.setLevel(before)


def test_cli_poa_beyond_subset_cap_is_an_error(tmp_path, capsys):
    # 22 users on a complete graph under weighted sharing: the grab table
    # would need 2^21 entries per user, so poa stops before building it
    n = 22
    doc = _minimal_doc()
    doc["scenario"].update({
        "graph": {"n_users": n, "edges": [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if i != j]},
        "channels": [{"kind": "bernoulli", "theta": 0.5}, {"kind": "bernoulli", "theta": 0.7}],
        "rates": {"kind": "fixed", "mean": [[4.0, 2.0]] * n},
        "mechanism": {"kind": "weighted_share", "weights": [1.0] * n},
    })
    assert cli_main(["poa", str(_write(tmp_path, doc)), "--out", str(tmp_path)]) == 1
    assert "error: subset enumeration over 21 in-neighbours" in capsys.readouterr().err


def test_dynamic_policy_gets_solver_max_rounds(tmp_path, monkeypatch):
    doc = _minimal_doc()
    doc["scenario"].update({"t_max": 5, "periods": 2})
    doc["compare"] = {"policies": [{"kind": "dynamic_stage_game", "restarts": 3}]}
    doc["solver"] = {"max_rounds": 17}
    cfg = load_config(_write(tmp_path, doc))
    (policy,) = cfg.policies
    assert (policy.restarts, policy.max_rounds) == (3, 17)
    budgets = []

    def brd(stage, start, max_rounds):
        budgets.append(max_rounds)
        return sa.better_response_dynamics(stage, start, max_rounds=max_rounds)

    monkeypatch.setattr(simulator, "better_response_dynamics", brd)
    simulator.run_policy(cfg.scenario, policy, 0)
    assert budgets and set(budgets) == {17}


def test_dynamic_policy_defaults_to_the_solver_budget():
    budget = _default_of(sa.better_response_dynamics, "max_rounds")
    assert simulator.DynamicStageGamePolicy().max_rounds == budget == _schema_default("solver", "max_rounds")
    assert budget == game.MAX_ROUNDS


def test_cli_potential_check(tmp_path, capsys):
    doc = {
        "scenario": {
            "graph": {"n_users": 3, "edges": [[1, 2], [2, 1], [1, 3], [3, 1], [2, 3], [3, 2]]},
            "channels": [{"kind": "bernoulli", "theta": 0.5}, {"kind": "bernoulli", "theta": 0.7}],
            "rates": {"kind": "fixed", "mean": [[4.0, 2.0], [4.0, 2.0], [4.0, 2.0]]},
            "mechanism": {"kind": "backoff", "max_counter": 6},
        }
    }
    p = _write(tmp_path, doc)
    rc = cli_main(["potential-check", str(p), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "backoff_complete" in out and "OK" in out


def test_cli_potential_check_samples_large_games(tmp_path, capsys):
    # 3^7 = 2187 profiles is past the 2000 that are checked exhaustively
    n = 7
    doc = _minimal_doc()
    doc["scenario"].update({
        "graph": {"n_users": n, "edges": [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if i != j]},
        "channels": [{"kind": "bernoulli", "theta": t} for t in (0.5, 0.7, 0.6)],
        "rates": {"kind": "fixed", "mean": [[4.0, 2.0, 3.0]] * n},
    })
    p = _write(tmp_path, doc)
    reports = []
    for run in ("a", "b"):
        assert cli_main(["potential-check", str(p), "--out", str(tmp_path / run), "--seed", "5"]) == 0
        reports.append((tmp_path / run / "potential_check.json").read_text())
    assert "backoff_complete" in capsys.readouterr().out
    checked = json.loads(reports[0])["variants"]["backoff_complete"]
    assert checked["deviations_checked"] == 500
    assert checked["sign_matches"] == checked["deviations_checked"]
    assert reports[0] == reports[1]


def _ring(n):
    return {"n_users": n, "edges": [e for i in range(1, n + 1) for e in ([i, i % n + 1], [i % n + 1, i])]}


def _complete(n):
    return {"n_users": n, "edges": [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if i != j]}


def _undirected_doc(seed, graph, m, mechanism, rates="user"):
    """Bernoulli channels and fixed rates drawn from seed: user-specific rates,
    channel-wise ("channel") or one theta and one rate everywhere ("one")."""
    rng = np.random.default_rng(seed)
    n = graph["n_users"]
    draw = lambda *shape: np.round(rng.uniform(1.0, 10.0, shape), 3).tolist()  # noqa: E731
    theta = [0.6] * m if rates == "one" else np.round(rng.uniform(0.2, 0.9, m), 3).tolist()
    mean = {"one": [[4.5] * m] * n, "channel": [draw(m)] * n}.get(rates) or draw(n, m)
    return {"scenario": {
        "graph": graph,
        "channels": [{"kind": "bernoulli", "theta": t} for t in theta],
        "rates": {"kind": "fixed", "mean": mean},
        "mechanism": mechanism,
        "gains": np.round(rng.uniform(0.5, 2.0, n), 3).tolist(),
    }}


# potential-check --seed 3 on one undirected config per graph variant: the
# stdout and the variants payload recorded when each potential had a loop of its own,
# the two sampled games past 2,000 profiles since every draw is a deviation
_RECORDED_POTENTIAL_CHECKS = {
    "complete4x2_backoff": (
        _undirected_doc(1, _complete(4), 2, {"kind": "backoff", "max_counter": 8}),
        "backoff_complete", 64, 64),
    "complete7x3_backoff": (
        _undirected_doc(2, _complete(7), 3, {"kind": "backoff", "max_counter": 12}),
        "backoff_complete", 500, 500),
    "ring8_aloha": (
        _undirected_doc(3, _ring(8), 2, {"kind": "aloha", "probs": [0.2, 0.35, 0.5, 0.65, 0.3, 0.45, 0.6, 0.75]}),
        "aloha", 2048, 2048),
    "ring12_weighted": (
        _undirected_doc(4, _ring(12), 2, {"kind": "weighted_share", "weights": [0.5 + 0.25 * k for k in range(12)]},
                        rates="channel"),
        "weighted_share", 500, 500),
    "ring9_asymptotic": (
        _undirected_doc(5, _ring(9), 2, {"kind": "asymptotic_backoff"}, rates="channel"),
        "backoff_asymptotic", 4608, 4608),
    "ring6_homogeneous": (
        _undirected_doc(6, _ring(6), 3, {"kind": "backoff", "max_counter": 5}, rates="one"),
        "homogeneous_backoff", 8748, 8748),
}


@pytest.mark.parametrize("name", _RECORDED_POTENTIAL_CHECKS)
def test_cli_potential_check_keeps_its_recorded_verdicts(tmp_path, capsys, name):
    doc, variant, matches, checked = _RECORDED_POTENTIAL_CHECKS[name]
    assert cli_main(["potential-check", str(_write(tmp_path, doc)), "--seed", "3", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{variant}: {matches}/{checked} deviation signs match [OK]\n"
    payload = json.loads((tmp_path / "potential_check.json").read_text())["variants"]
    assert payload == {variant: {"deviations_checked": checked, "sign_matches": matches}}


def test_cli_classify_names_only_the_potential_variants_that_hold(tmp_path, capsys):
    # an undirected ring is a potential game only under a variant's hypotheses:
    # finite backoff with user-specific rates meets none, Aloha its own, and a
    # bare graph cannot say
    backoff = _undirected_doc(7, _ring(6), 2, {"kind": "backoff", "max_counter": 6})
    aloha = _undirected_doc(7, _ring(6), 2, {"kind": "aloha", "probs": [0.3] * 6})
    verdicts = {
        "backoff": (backoff, "undirected: no potential variant's hypotheses hold for this instance"),
        "aloha": (aloha, "undirected: pure NE guaranteed (potential game: aloha)"),
        "graph": (_ring(6), "undirected: a potential game, with a pure NE, only under a variant's hypotheses "
                            "(see potential-check)"),
    }
    for name, (doc, verdict) in verdicts.items():
        assert cli_main(["classify", str(_write(tmp_path, doc, f"{name}.json")), "--out", str(tmp_path / name)]) == 0
        assert verdict in capsys.readouterr().out.splitlines()
    reports = [json.loads((tmp_path / name / "classification.json").read_text()) for name in verdicts]
    assert {r["classes"] == ["regular_bipartite", "undirected"] for r in reports} == {True}
    assert cli_main(["potential-check", str(tmp_path / "backoff.json"), "--out", str(tmp_path / "check")]) == 0
    assert "no potential variant's hypotheses hold for this instance" in capsys.readouterr().out


def test_resolved_config_of_a_graph_file_reloads_from_its_output_dir(tmp_path, monkeypatch, capsys):
    # the echo holds the graph's document inline, following a nested file
    # reference, so it loads from any directory and hashes the graph's content
    monkeypatch.chdir(tmp_path)
    shutil.copy(CONFIGS / "graphs" / "star5.json", tmp_path / "star5.json")
    (tmp_path / "graphs").mkdir()
    _write(tmp_path / "graphs", {"file": "../star5.json"}, "star.json")
    doc = _minimal_doc()
    doc["scenario"].update({
        "graph": {"file": "graphs/star.json"},
        "channels": [{"kind": "bernoulli", "theta": t} for t in (0.5, 0.7)],
        "rates": {"kind": "fixed", "mean": [[4.0, 2.0], [3.0, 5.0], [2.0, 2.5], [6.0, 1.0], [1.5, 4.5]]},
    })
    _write(tmp_path, doc)
    assert cli_main(["solve", "cfg.json", "--out", "deep/er"]) == 0
    echo = Path("deep/er/resolved_config.json")
    star = json.loads((CONFIGS / "graphs" / "star5.json").read_text())
    assert json.loads(echo.read_text())["scenario"]["graph"] == star
    assert cli_main(["solve", str(echo), "--out", "again"]) == 0
    first, again = (json.loads(Path(out, "solution.json").read_text()) for out in ("deep/er", "again"))
    assert again["profile"] == first["profile"]
    doc["scenario"]["graph"] = star
    assert load_config(echo).sha256 == load_config("cfg.json").sha256 == load_config(_write(tmp_path, doc, "inline.json")).sha256


def _tiny_learning_doc():
    return {
        "scenario": {
            "graph": {"n_users": 2, "edges": [[1, 2], [2, 1]]},
            "channels": [{"kind": "markov", "epsilon": 0.3, "xi": 0.3},
                         {"kind": "markov", "epsilon": 0.3, "xi": 0.3}],
            "rates": {"kind": "fixed", "mean": [[8.0, 4.0], [4.0, 8.0]]},
            "mechanism": {"kind": "backoff", "max_counter": 6},
            "t_max": 40,
            "periods": 30,
            "profile": [1, 2],
        },
        "learning": {"gamma": 3.0, "payoff_scale": "auto"},
        "compare": {
            "policies": [{"kind": "learning"}, {"kind": "random_access"}],
            "replications": 2,
        },
        "sweep": {"gammas": [1.0, 4.0], "replications": 2},
    }


def test_cli_estimate_learn_simulate(tmp_path, capsys):
    p = _write(tmp_path, _tiny_learning_doc())
    assert cli_main(["estimate", str(p), "--out", str(tmp_path / "e"), "--seed", "1"]) == 0
    est = (tmp_path / "e" / "estimates.csv").read_text()
    assert est.startswith("# schema: estimation-trace v3")
    assert len(est.strip().splitlines()) > 30

    assert cli_main(["learn", str(p), "--out", str(tmp_path / "l"), "--seed", "1"]) == 0
    lrn = (tmp_path / "l" / "learning.csv").read_text()
    header = [l for l in lrn.splitlines() if not l.startswith("#")][0]
    assert header.split(",")[:3] == ["period", "welfare", "dP_inf"]
    assert "channel_1" in header and "estimate_2" in header
    summary = json.loads((tmp_path / "l" / "learning_summary.json").read_text())
    assert (summary["schema"], summary["version"]) == ("learning-summary", 3)
    assert set(summary) == {"schema", "version", "mean_welfare", "delta", "skipped_updates", "final_sigma",
                            "final_perceptions", "payoff_scale", "config_sha256", "seed", "source",
                            "rate_unit", "generator", "numpy"}

    assert cli_main(["simulate", str(p), "--out", str(tmp_path / "s"), "--seed", "1"]) == 0
    per = (tmp_path / "s" / "periods.csv").read_text()
    assert "period,welfare" in per


def test_cli_learn_reports_skipped_updates(tmp_path, capsys):
    # every period of the white-space triangle stays idle, so the MLE of theta
    # is undefined for every user: learn says so instead of exiting quietly
    assert cli_main(["learn", str(CONFIGS / "triangle_no_ne.json"), "--out", str(tmp_path), "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads((tmp_path / "learning_summary.json").read_text())
    assert summary["skipped_updates"] == 600
    assert "skipped updates: 600 of 600 (undefined MLE)" in lines


def test_cli_compare_and_sweep_artifacts(tmp_path, capsys):
    p = _write(tmp_path, _tiny_learning_doc())
    assert cli_main(["compare", str(p), "--out", str(tmp_path / "c"), "--seed", "2"]) == 0
    rows = [l for l in (tmp_path / "c" / "comparison.csv").read_text().splitlines()
            if l and not l.startswith("#")]
    assert rows[0] == "policy,replication,seed,mean_welfare"
    assert len(rows) == 1 + 2 * 2  # header + (2 policies x 2 replications)
    summary = (tmp_path / "c" / "comparison_summary.csv").read_text()
    assert "random_access" in summary and "learning" in summary

    assert cli_main(["gamma-sweep", str(p), "--out", str(tmp_path / "g"), "--seed", "2"]) == 0
    sw = [l for l in (tmp_path / "g" / "gamma_sweep.csv").read_text().splitlines()
          if l and not l.startswith("#")]
    assert sw[0] == "gamma,mean_welfare,stderr,replications"
    assert len(sw) == 3  # header + 2 gammas


def test_cli_compare_keeps_distinct_fixed_profiles_apart(tmp_path, capsys):
    # two fixed profiles used to share the label fixed_profile and be pooled into one n = 6 row
    doc = json.loads((CONFIGS / "dag_chain.json").read_text())
    doc["scenario"].update(periods=20)
    doc["compare"] = {"policies": [{"kind": "fixed_profile", "profile": [1, 1, 1, 1]},
                                   {"kind": "fixed_profile", "profile": [1, 2, 3, 1]}],
                      "replications": 3}
    p = _write(tmp_path, doc)
    assert cli_main(["compare", str(p), "--out", str(tmp_path / "c"), "--seed", "1"]) == 0
    text = (tmp_path / "c" / "comparison_summary.csv").read_text()
    rows = list(csv.reader(l for l in text.splitlines() if not l.startswith("#")))[1:]
    assert [(r[0], r[3]) for r in rows] == [("fixed_profile(1,1,1,1)", "3"), ("fixed_profile(1,2,3,1)", "3")]


def test_cli_compare_keeps_dynamic_policies_with_distinct_restarts_apart(tmp_path, capsys):
    # both used to be labelled dynamic_stage_game, which load_config rejected as a repeat
    doc = json.loads((CONFIGS / "dag_chain.json").read_text())
    doc["scenario"].update(periods=20)
    doc["compare"] = {"policies": [{"kind": "dynamic_stage_game"},
                                   {"kind": "dynamic_stage_game", "restarts": 3}],
                      "replications": 2}
    p = _write(tmp_path, doc)
    assert [q.label() for q in load_config(p).policies] == ["dynamic_stage_game", "dynamic_stage_game(restarts=3)"]
    assert cli_main(["compare", str(p), "--out", str(tmp_path / "c"), "--seed", "1"]) == 0
    text = (tmp_path / "c" / "comparison_summary.csv").read_text()
    rows = list(csv.reader(l for l in text.splitlines() if not l.startswith("#")))[1:]
    assert [(r[0], r[3]) for r in rows] == [("dynamic_stage_game", "2"), ("dynamic_stage_game(restarts=3)", "2")]


def test_repeated_compare_policy_is_rejected(tmp_path):
    doc = _tiny_learning_doc()
    doc["compare"]["policies"].append({"kind": "learning", "gamma": 3.0})
    with pytest.raises(ValueError, match=r"'learning\(gamma=3\)'"):
        load_config(_write(tmp_path, doc))


@pytest.mark.parametrize("command, section", [("compare", "compare"), ("gamma-sweep", "sweep")])
def test_cli_missing_section_is_an_error(tmp_path, capsys, command, section):
    doc = _tiny_learning_doc()
    del doc[section]
    out = tmp_path / "never"
    assert cli_main([command, str(_write(tmp_path, doc)), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_byte_reproducibility(tmp_path):
    p = _write(tmp_path, _tiny_learning_doc())
    for d in ("r1", "r2"):
        assert cli_main(["compare", str(p), "--out", str(tmp_path / d), "--seed", "7"]) == 0
    # and a third run with parallel replications writes the same bytes too
    assert cli_main(["compare", str(p), "--out", str(tmp_path / "r3"), "--seed", "7", "--jobs", "2"]) == 0
    b1 = (tmp_path / "r1" / "comparison.csv").read_bytes()
    b2 = (tmp_path / "r2" / "comparison.csv").read_bytes()
    assert b1 == b2
    assert (tmp_path / "r3" / "comparison.csv").read_bytes() == b1


def test_cli_rejects_bad_config(tmp_path, capsys):
    p = _write(tmp_path, {"scenario": {}})
    rc = cli_main(["solve", str(p)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("scenario", "gains", [1.0, 2.0, 3.0], "gains"),                         # two users
    ("scenario", "mechanism", {"kind": "weighted_share", "weights": [1.0]}, "one weight per user"),
    ("scenario", "profile", [1, 3], "valid channel"),                        # two channels
    ("compare", "policies", [{"kind": "fixed_profile", "profile": [2, 3]}], "valid channel"),
])
def test_cli_rejects_counts_and_channels_the_model_refuses(tmp_path, capsys, section, key, value, message):
    doc = _tiny_learning_doc()
    doc[section][key] = value
    assert cli_main(["compare", str(_write(tmp_path, doc)), "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("theta", [0, 1])
def test_cli_rejects_a_bernoulli_channel_that_never_changes(tmp_path, capsys, theta):
    # always idle or always busy is a white_space channel
    doc = _minimal_doc()
    doc["scenario"]["channels"] = [{"kind": "bernoulli", "theta": theta}]
    assert cli_main(["solve", str(_write(tmp_path, doc)), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "configuration rejected" in err and "scenario.channels.0.theta" in err


@pytest.mark.parametrize("key", ["scenario.profile", "compare.policies.2.profile"])
def test_cli_names_the_key_of_a_bad_profile(tmp_path, capsys, key):
    # dag_chain.json has both a scenario profile and a fixed_profile policy
    doc = json.loads((CONFIGS / "dag_chain.json").read_text())
    entry = doc["scenario"] if key == "scenario.profile" else doc["compare"]["policies"][2]
    entry["profile"] = [1, 2, 4, 1]  # three channels
    assert cli_main(["solve", str(_write(tmp_path, doc)), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {key} entries must be valid channel indices\n"


@pytest.mark.parametrize("command", ["compare", "gamma-sweep"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_rejects_fewer_than_one_job(command, jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([command, str(CONFIGS / "learning_9user.json"), "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument --jobs: must be at least 1, got {jobs}" in err


def test_cli_json_artifacts_carry_their_schema_and_provenance(tmp_path):
    # every JSON artifact but the resolved_config.json echo: schema, version
    # and _meta's provenance, the seed exactly on the seeded commands, and the
    # numpy version with the SIMD target numpy dispatches to here
    path = CONFIGS / "dag_chain.json"
    cfg = load_config(path)
    build = _numpy_build()
    assert build.split(" ")[0] == np.__version__ and build == _numpy_build()
    artifacts = {
        "solve": ("solution.json", "solution", 2),
        "poa": ("poa.json", "poa-report", 2),
        "potential-check": ("potential_check.json", "potential-check", 3),
        "learn": ("learning_summary.json", "learning-summary", 3),
        "classify": ("classification.json", "classification", 2),
    }
    for command, (name, schema, version) in artifacts.items():
        seeded = command in ("potential-check", "learn")
        out = tmp_path / command
        assert cli_main([command, str(path), "--out", str(out)] + (["--seed", "4"] if seeded else [])) == 0
        doc = json.loads((out / name).read_text())
        assert (doc["schema"], doc["version"], doc["source"], doc["generator"], doc["numpy"]) == (
            schema, version, str(path), f"specaccess {sa.__version__}", build)
        assert (doc["config_sha256"], doc["rate_unit"]) == (cfg.sha256, cfg.rate_unit)
        assert ("seed" in doc, doc.get("seed")) == ((True, 4) if seeded else (False, None))
        if command != "classify":  # the one command that also reads bare graphs
            assert load_config(out / "resolved_config.json").sha256 == cfg.sha256
    graph = CONFIGS / "graphs" / "star5.json"
    assert cli_main(["classify", str(graph), "--out", str(tmp_path / "graph")]) == 0
    doc = json.loads((tmp_path / "graph" / "classification.json").read_text())
    assert (doc["schema"], doc["version"], doc["source"], doc["generator"], doc["numpy"]) == (
        "classification", 2, str(graph), f"specaccess {sa.__version__}", build)
    assert not {"config_sha256", "rate_unit", "seed"} & set(doc)


def test_each_graph_is_walked_once(tmp_path, monkeypatch):
    # classify keeps its answer with the graph: solve's three constructions,
    # the potential hypotheses and potential-check's per-deviation checks all
    # read it, and the tree construction reads the same walk
    walked = []
    walk = graph_module.skeleton_walk
    monkeypatch.setattr(graph_module, "skeleton_walk", lambda g: walked.append(g) or walk(g))
    star = sa.InterferenceGraph.undirected(5, [(1, j) for j in range(2, 6)])
    spec = sa.SpectrumGame.create(star, [0.6, 0.8], [[4.0, 3.0]] * 5, sa.AsymptoticBackoff())
    assert solve_pure_ne(spec)[0] == "directed_tree"
    assert applicable_variants(spec) == ["backoff_asymptotic"]
    assert walked == [star]
    doc = _minimal_doc()
    doc["scenario"].update({
        "graph": {"n_users": 4, "edges": [[i, j] for i in range(1, 5) for j in range(1, 5) if i != j]},
        "channels": [{"kind": "bernoulli", "theta": 0.5}, {"kind": "bernoulli", "theta": 0.4}],
        "rates": {"kind": "fixed", "mean": [[4.0, 3.0], [3.0, 5.0], [2.0, 2.5], [6.0, 1.0]]},
    })
    assert cli_main(["potential-check", str(_write(tmp_path, doc)), "--out", str(tmp_path)]) == 0
    checked = json.loads((tmp_path / "potential_check.json").read_text())["variants"]
    assert checked == {"backoff_complete": {"deviations_checked": 64, "sign_matches": 64}}
    assert len(walked) == 2 and walked[1] is not star


def test_cli_solution_without_pure_ne_names_its_config(tmp_path):
    solutions = []
    for name in ("learning_9user_aloha.json", "triangle_no_ne.json"):
        assert cli_main(["solve", str(CONFIGS / name), "--out", str(tmp_path / name)]) == 0
        solutions.append((tmp_path / name / "solution.json").read_bytes())
        doc, cfg = json.loads(solutions[-1]), load_config(CONFIGS / name)
        assert (doc["pure_ne"], doc["config_sha256"], doc["rate_unit"]) == (None, cfg.sha256, cfg.rate_unit)
    assert solutions[0] != solutions[1]


def test_cli_unreadable_path_is_an_error(tmp_path, capsys):
    # a directory raises IsADirectoryError, an OSError like FileNotFoundError
    assert cli_main(["solve", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("top", [None, 5])
def test_cli_classify_non_object_document_is_an_error(tmp_path, capsys, top):
    p = _write(tmp_path, top)
    assert cli_main(["classify", str(p), "--out", str(tmp_path)]) == 1
    assert "invalid graph document" in capsys.readouterr().err


def test_cli_slot_trace(tmp_path):
    doc = _tiny_learning_doc()
    doc["output"] = {"slot_trace": True}
    p = _write(tmp_path, doc)
    assert cli_main(["simulate", str(p), "--out", str(tmp_path / "st"), "--seed", "1"]) == 0
    trace = (tmp_path / "st" / "slots.csv").read_text()
    rows = [l for l in trace.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "period,slot,user,channel,S,I,b"
    assert len(rows) == 1 + 40 * 2  # t_max slots x 2 users


def _csv_rows(path):
    return [l.split(",") for l in path.read_text().splitlines() if l and not l.startswith("#")][1:]


@pytest.mark.parametrize("policy", ["random_access", "fixed_profile"])
def test_cli_slot_trace_replays_period_one(tmp_path, policy):
    # slots.csv is period 1 of the rollout that periods.csv summarises
    doc = _tiny_learning_doc()
    doc["output"] = {"slot_trace": True}
    if policy == "random_access":
        del doc["scenario"]["profile"]
    p = _write(tmp_path, doc)
    assert cli_main(["simulate", str(p), "--out", str(tmp_path), "--seed", "1"]) == 0
    slots = _csv_rows(tmp_path / "slots.csv")
    assert len(slots) == 40 * 2
    period_one = float(_csv_rows(tmp_path / "periods.csv")[0][1])
    assert sum(float(r[6]) for r in slots) / 40 == pytest.approx(period_one, rel=1e-9)
    assert (tmp_path / "slots.csv").read_text().startswith("# schema: slot-trace v4")
    channels = {(int(r[2]), int(r[3])) for r in slots}
    assert len(channels) == 2  # each user holds one channel for the period
    if policy == "fixed_profile":
        assert channels == {(1, 1), (2, 2)}


# sha256 of the data rows (comment lines dropped) of estimates.csv and, with
# output.slot_trace, slots.csv on each shipped config at seed 3
_TRACE_DIGESTS = {
    "dag_chain.json": ("a7cc265bd00cc014804f63d085d8d46c535b671653ff9f0e8ce4782736069f10",
                       "ff59651b1c48755ef0b73ca634606fbf2de7cf9c8d2d23375b9643cd98da2342"),
    "learning_9user.json": ("dd702a71c35dbc56778daa4cc1ad5d50632c236d1a389502cc6f2ce46825b7bb",
                            "47f21343dc5137ece03acb6eda530bd63cb572fe9efeca726ef5f6f4f8a98bf9"),
    "learning_9user_aloha.json": ("e0159a0e56fde7be12a5064277b55955e28aa83105ff8283802d368c51a25103",
                                  "d35884e434a73f4e1aa0d651b2ad3c16b55c6157aa324badff31e062591f7a2a"),
    "triangle_no_ne.json": ("c2aa5038b22197e698bd46ed791f5f6742005409d5511b240f8a92b154e2f978",
                            "87c2d0e20d56ba10880211bd8bc2413701e27c78269ef32ad963f66c8c921adc"),
}


@pytest.mark.parametrize("name", sorted(_TRACE_DIGESTS))
def test_cli_estimates_and_slot_trace_keep_their_digest(tmp_path, name):
    doc = json.loads((CONFIGS / name).read_text())
    doc["output"] = {"slot_trace": True}
    p = _write(tmp_path, doc)
    for command in ("estimate", "simulate"):
        assert cli_main([command, str(p), "--out", str(tmp_path), "--seed", "3"]) == 0
    digests = tuple(
        hashlib.sha256("".join(l for l in (tmp_path / f).read_text().splitlines(keepends=True)
                               if not l.startswith("#")).encode()).hexdigest()
        for f in ("estimates.csv", "slots.csv")
    )
    assert digests == _TRACE_DIGESTS[name]


def _never_idle_doc(payoff_scale):
    doc = _tiny_learning_doc()
    doc["scenario"]["channels"] = [{"kind": "white_space", "theta": 0}] * 2
    doc["learning"]["payoff_scale"] = payoff_scale
    return doc


def test_cli_learn_channels_never_idle(tmp_path, capsys):
    p = _write(tmp_path, _never_idle_doc(2.0))
    assert cli_main(["learn", str(p), "--out", str(tmp_path), "--seed", "1"]) == 0
    assert "contraction bound inf" in capsys.readouterr().out
    summary = json.loads((tmp_path / "learning_summary.json").read_text())
    assert summary["mean_welfare"] == 0.0 and summary["skipped_updates"] == 2 * 30


def test_cli_learn_rejects_an_overflowing_boltzmann_exponent(tmp_path, capsys):
    # gamma P / scale overflows at the start: every softmax row would be NaN,
    # which used to put every user on channel 1 and NaN into the summary
    doc = json.loads((CONFIGS / "learning_9user.json").read_text())
    doc["learning"].update({"initial_perception": 1e308, "gamma": 50})
    doc["scenario"]["periods"] = 20
    out = tmp_path / "out"
    assert cli_main(["learn", str(_write(tmp_path, doc)), "--out", str(out), "--seed", "1"]) == 1
    assert "the Boltzmann exponent at temperature 50, must be finite" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]


def test_cli_learn_auto_scale_never_idle_is_an_error(tmp_path, capsys):
    p = _write(tmp_path, _never_idle_doc("auto"))
    assert cli_main(["learn", str(p), "--out", str(tmp_path), "--seed", "1"]) == 1
    assert 'error: payoff_scale "auto"' in capsys.readouterr().err


def test_cli_learn_weighted_share_beyond_enumeration_cap(tmp_path):
    # 22 users on a complete graph: 21 in-neighbours each, past the 20 that
    # a weighted-share grab table covers; the final delta must not need it
    n = 22
    doc = _tiny_learning_doc()
    doc["scenario"].update({
        "graph": {"n_users": n, "edges": [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if i != j]},
        "rates": {"kind": "fixed", "mean": [[8.0, 4.0]] * n},
        "mechanism": {"kind": "weighted_share", "weights": [1.0] * n},
        "t_max": 10, "periods": 3,
    })
    del doc["scenario"]["profile"]
    p = _write(tmp_path, doc)
    assert cli_main(["learn", str(p), "--out", str(tmp_path), "--seed", "1"]) == 0
    assert json.loads((tmp_path / "learning_summary.json").read_text())["delta"] > 0

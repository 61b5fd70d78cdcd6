"""The direct instance validator against jsonschema on the documented schema.

``instance._schema_errors`` must give the verdict of
``jsonschema.Draft202012Validator`` on ``instance.schema.json`` for every
payload, and report at the same locations.  The payloads are the three
benchmark generators' instances, the CLI tests' small instances, and
single or double mutations of them drawn by hypothesis.
"""

import copy
import importlib.util
import json
import math
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from branchflow.instance import _schema_errors, instance_from_dict
from test_instance_cli import minimal_instance, single_edge_instance

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
REFERENCE = jsonschema.Draft202012Validator(
    json.loads(resources.files("branchflow.schemas").joinpath("instance.schema.json").read_text()))


def _bench_payloads() -> list[dict]:
    spec = importlib.util.spec_from_file_location("bench_workloads_for_schema_tests", WORKLOADS_FILE)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.make_item(w, seed, index).data
            for w in workloads.WORKLOADS.values() for seed in (101, 9001) for index in range(3)]


BASES = [minimal_instance(), single_edge_instance(), *_bench_payloads()]
REPLACEMENTS = [True, False, None, "", "1", "2", "inf", "power", "tabulated", [], [0.5], [[0.0, 0.0]], {},
                0, 1, 2, -1, 0.0, -0.0, 0.5, 1.0, 1.5, 2.0, -1e-300, math.nan, math.inf, -math.inf]


def assert_agrees(data):
    ours = _schema_errors(data)
    theirs = list(REFERENCE.iter_errors(data))
    assert bool(ours) == bool(theirs), (ours, [e.message for e in theirs])
    assert {path for path, _ in ours} == {tuple(e.absolute_path) for e in theirs}


@st.composite
def mutation(draw, data):
    """Change one node of ``data`` in place; returns the new root."""
    parent, key, node = None, None, data
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node, key=str) if isinstance(node, dict) else sorted({0, len(node) - 1})
        key = draw(st.sampled_from(keys))
        parent, node = node, node[key]
    op = draw(st.sampled_from(["replace", "float", "drop", "add"]))
    if op == "float" and type(node) is int:
        new = float(node)
    elif op == "drop" and isinstance(node, (dict, list)) and node:
        if isinstance(node, dict):
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            node.pop()
        return data
    elif op == "add" and isinstance(node, (dict, list)):
        if isinstance(node, dict):
            node[draw(st.sampled_from(["unknown", "kind", "witness", "graph"]))] = 1
        elif node:
            node.append(copy.deepcopy(node[-1]))
        return data
    else:
        new = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    if parent is None:
        return new
    parent[key] = new
    return data


@st.composite
def mutated_payloads(draw):
    data = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 2))):
        data = draw(mutation(data))
    return data


def test_generated_and_example_instances_are_valid():
    for data in BASES:
        assert _schema_errors(data) == []
        assert REFERENCE.is_valid(data)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_payloads())
def test_validator_agrees_with_jsonschema_on_mutations(data):
    assert_agrees(data)


def _set(path, value):
    def change(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return change


def _drop(path):
    def change(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return change


REJECTED = [
    (_set(("lambda",), True), "lambda"),  # a bool is not a number
    (_set(("dimension",), True), "dimension"),
    (_set(("dimension",), 1.5), "dimension"),
    (_set(("dimension",), 0), "dimension"),
    (_set(("time_samples",), 1), "time_samples"),
    (_set(("mu_plus", "weights", 0, 1), -math.inf), "mu_plus/weights/0/1"),
    (_set(("mu_plus", "weights", 0, 2), -1e-300), "mu_plus/weights/0/2"),
    (_set(("mu_plus", "weights", 0), [1.0]), "mu_plus/weights/0"),
    (_set(("mu_plus", "weights"), []), "mu_plus/weights"),
    (_set(("mu_minus", "points", 0), []), "mu_minus/points/0"),
    (_set(("mu_minus", "points", 0, 0), "0.8"), "mu_minus/points/0/0"),
    (_set(("mu_minus", "points"), None), "mu_minus/points"),
    (_set(("extra",), 1), "<root>"),  # additionalProperties at each object
    (_set(("mu_plus", "extra"), 1), "mu_plus"),
    (_set(("graph", "extra"), 1), "graph"),
    (_set(("cost", "extra"), 1), "cost"),
    (_drop(("mu_minus",)), "<root>"),
    (_drop(("graph", "edges")), "graph"),
    (_set(("graph", "edges", 0), [0, 1, 1]), "graph/edges/0"),
    (_set(("graph", "edges", 0), [0]), "graph/edges/0"),
    (_set(("graph", "edges", 0, 1), -1), "graph/edges/0/1"),
    (_set(("graph", "edges", 0, 0), 0.5), "graph/edges/0/0"),
    (_set(("graph", "weights", 0, 3), -0.5), "graph/weights/0/3"),
    (_set(("cost", "alpha"), 0), "cost"),
    (_set(("cost", "alpha"), 1.5), "cost"),
    (_set(("cost", "kind"), "linear"), "cost"),
    (_set(("cost",), {"kind": "tabulated", "samples": [[0.0, 0.0]]}), "cost"),
    (_set(("cost",), {"kind": "tabulated", "samples": [[0.0, 0.0], [1.0, 1.0, 1.0]]}), "cost"),
    (_set(("cost",), {"kind": "tabulated", "samples": [[0.0, 0.0], [1.0, 1.0]], "witness": [[0.0, 0.0]]}), "cost"),
    (_set(("p",), 1), "p"),
    (_set(("p",), "Inf"), "p"),
    (_set(("lambda",), 0), "lambda"),
    (_set(("version",), "2"), "version"),
    (_set(("version",), 1), "version"),
]


@pytest.mark.parametrize("change, where", REJECTED)
def test_each_rule_rejects_at_its_location(change, where):
    data = single_edge_instance()
    change(data)
    assert_agrees(data)
    with pytest.raises(ValueError) as err:
        instance_from_dict(data)
    first, *lines = str(err.value).splitlines()
    assert first == "instance schema violation:"
    assert len(lines) == 1 and lines[0].startswith(f"  at {where}: ")


ACCEPTED = [
    _set(("dimension",), 1.0),  # an integral float is an integer
    _set(("lambda",), math.nan),  # NaN passes every bound
    _set(("p",), math.nan),
    _set(("p",), "inf"),
    _set(("p",), 1.0 + 2**-52),
    _set(("cost", "alpha"), 1),
    _set(("graph", "weights", 0, 0), math.nan),
    _set(("cost",), {"kind": "tabulated", "samples": [[0.0, 0.0], [1.0, 1.0]], "witness": [[0.0, 0.0], [1.0, 1.0]]}),
    _drop(("cost",)),
    _drop(("graph",)),
]


@pytest.mark.parametrize("change", ACCEPTED)
def test_schema_valid_edge_cases_are_accepted(change):
    data = single_edge_instance()
    change(data)
    assert_agrees(data)
    assert _schema_errors(data) == []


def test_rejection_lists_at_most_eight_locations_in_path_order():
    data = minimal_instance(n_samples=12)
    data["mu_plus"]["weights"] = [[-1.0] * 12]
    data["extra"] = 1
    assert_agrees(data)
    with pytest.raises(ValueError) as err:
        instance_from_dict(data)
    first, *lines = str(err.value).splitlines()
    assert first == "instance schema violation:"
    assert [line.split(":")[0] for line in lines] == (
        ["  at <root>"] + [f"  at mu_plus/weights/0/{j}" for j in range(7)])

"""The benchmark's own tests, at tiny sizes.

    python -m pytest -q bench/test_bench.py
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from branchflow import graph, instance, optimize  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One-instance runs of every workload, untraced and traced, keyed by (name, trace)."""
    patch = pytest.MonkeyPatch()
    patch.setattr(harness, "RESULTS_DIR", tmp_path_factory.mktemp("results"))
    out = {(name, trace): harness.run(name, 5, 0.0, trace, 0.0, pool_size=1, setup_probes=0)
           for name in workloads.WORKLOADS for trace in (False, True)}
    patch.undo()
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name):
    w = workloads.WORKLOADS[name]
    first, again = workloads.make_pool(w, 3, 3), workloads.make_pool(w, 3, 3)
    assert [i.data for i in first] == [i.data for i in again]
    assert [i.seed for i in first] == [i.seed for i in again]
    assert first[0].data != workloads.make_pool(w, 4, 1)[0].data


def test_energy_cyclic_graphs_have_six_cycles_and_order_matters():
    for item in workloads.make_pool(workloads.WORKLOADS["energy_cyclic"], 3, 2):
        G = instance.instance_from_dict(item.data).graph
        cycles = graph.enumerate_cycles(G, cap=64)
        assert len(cycles) == workloads.CYCLES_PER_GRAPH
        lengths = G.lengths
        cycle_lengths = np.array([lengths[list(c)].sum() for c in cycles])
        brackets = [checks.bracket_value(graph.decompose(G, order, cycles), lengths, cycle_lengths, 2)
                    for order in itertools.permutations(range(len(cycles)))]
        assert max(brackets) > min(brackets) + 1e-6  # the brute-force check can tell orders apart


def test_printed_metrics_are_declared(runs):
    end_to_end = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {w["name"] for w in DECLARED["workloads"]} == set(workloads.WORKLOADS)
    for (name, trace), result in runs.items():
        line = result["line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = per_layer if trace else end_to_end
        assert {k: m["unit"] for k, m in line["metrics"].items()} == declared, (name, trace)
        assert line["correct"] and line["failed"] == 0, result["failures"]


def test_same_seed_gives_same_digest(runs):
    for name in workloads.WORKLOADS:
        assert runs[(name, False)]["digest"] == runs[(name, True)]["digest"]


def test_traced_self_times_stay_within_inclusive_times(runs):
    for name in workloads.WORKLOADS:
        tracer = tracing.Tracer()
        pool = workloads.make_pool(workloads.WORKLOADS[name], 5, 1)
        with tracing.patched(tracer):
            harness.run_timed(workloads.WORKLOADS[name], pool, 0.0, tracer=tracer, passes=1)
        own = tracing.self_times(tracer.spans)
        roots = [s.duration for s in tracer.spans if s.parent < 0]
        assert min(own) >= -1e-9
        assert sum(own) <= sum(roots) + 1e-9
        metrics = runs[(name, True)]["metrics"]
        for key in metrics:
            if key.endswith(".self_s"):
                assert metrics[key]["value"] <= metrics[key[:-len("self_s")] + "s"]["value"] + 1e-12


def test_patching_reaches_every_binding_and_restores_it():
    original = graph.energy
    with tracing.patched(tracing.Tracer()):
        assert graph.energy is not original
        assert optimize.energy is graph.energy
    assert graph.energy is original and optimize.energy is original


def test_corrupted_outputs_are_caught():
    search = workloads.WORKLOADS["search"]
    item = workloads.make_pool(search, 5, 1)[0]
    inst, report = search.run(item)
    assert checks.check_search(item, (inst, report))[0] == []
    scaled = report.witness.with_weights(report.witness.weights * 1.5)
    failed, _ = checks.check_search(item, (inst, dataclasses.replace(report, witness=scaled)))
    assert {"witness_balance", "energy_matches_upper"} <= set(failed)

    cyclic = workloads.WORKLOADS["energy_cyclic"]
    item = workloads.make_pool(cyclic, 5, 1)[0]
    inst, energy_report, eliminated = cyclic.run(item)
    assert checks.check_energy_cyclic(item, (inst, energy_report, eliminated))[0] == []
    scaled = eliminated.with_weights(eliminated.weights * 1.5)
    failed, _ = checks.check_energy_cyclic(item, (inst, energy_report, scaled))
    assert "eliminated_balance" in failed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run([sys.executable, *DECLARED["command"][1:], "--workload", "search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

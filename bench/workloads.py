"""Seeded instance pools and the timed call of each benchmark workload.

Every instance is a plain JSON-style dict in the repository's instance
format, generated from its own instance seed.  The program only ever
sees these dicts: the timed operation parses one with
``instance.instance_from_dict`` and runs the workload's compute call on
the result, which is what a user of the CLI pays per instance.

The structural properties that drive the cost of an instance (dimension
and atom counts) cycle deterministically with the instance index, so
every pool of a given size has the same mix of sizes and only positions
and weights change with the seed.  That keeps percentiles comparable
across seeds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from branchflow import graph, instance, optimize, wasserstein
from branchflow.measures import TimeGrid

BOX = 0.9  # coordinates stay inside the loader's [-0.95, 0.95] box: no rescaling
CONCAVE_TABLE = [[0.0, 0.0], [0.25, 0.5], [1.0, 0.8]]  # rho(tau, 1) = 0.8
CYCLES_PER_GRAPH = 6


@dataclass(frozen=True)
class Item:
    """One generated instance: its position in the pool, its seed and its payload."""

    index: int
    seed: int
    data: dict


def instance_seed(workload_id: int, seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, workload_id, index]).generate_state(1)[0])


def _path_payload(rng, n: int, atoms: int, n_samples: int) -> dict:
    while True:
        pts = rng.uniform(-BOX, BOX, size=(atoms, n))
        if len({tuple(p) for p in pts}) == atoms:
            break
    w = rng.uniform(0.1, 1.0, size=(atoms, n_samples))
    w /= w.sum(axis=0)
    return {"points": pts.tolist(), "weights": w.tolist()}


# ---------------------------------------------------------------------------
# search: the criterion-5 family through local_search
# ---------------------------------------------------------------------------

def search_config(item: Item) -> optimize.OptimizerConfig:
    return optimize.OptimizerConfig(k_max=2, iterations=8, multi_start=2, sweeps=2,
                                    subgradient_steps=3, seed=item.seed)


def gen_search(rng, index: int) -> dict:
    n = 1 + index % 2
    atoms_plus = 2 + (index // 2) % 2
    atoms_minus = 1 + (index // 4) % 2
    return {
        "version": "1", "dimension": n, "time_samples": 4,
        "mu_plus": _path_payload(rng, n, atoms_plus, 4),
        "mu_minus": _path_payload(rng, n, atoms_minus, 4),
        "cost": {"kind": "power", "alpha": 0.8}, "p": 2, "lambda": 0.3,
    }


def run_search(item: Item):
    inst = instance.instance_from_dict(item.data)
    report = optimize.local_search(inst.mu_plus, inst.mu_minus, inst.cost, inst.p, inst.lam,
                                   search_config(item))
    return inst, report


def values_search(out) -> tuple[float, ...]:
    _, report = out
    return (report.lower, report.upper)


# ---------------------------------------------------------------------------
# lower_dense: the bounds path on wide pairs, lid1-bound
# ---------------------------------------------------------------------------

BASELINE_DEPTHS = (1, 2, 3)


def gen_lower_dense(rng, index: int) -> dict:
    atoms_plus = 12 + index % 5
    atoms_minus = 12 + (index // 5) % 5
    return {
        "version": "1", "dimension": 2, "time_samples": 8,
        "mu_plus": _path_payload(rng, 2, atoms_plus, 8),
        "mu_minus": _path_payload(rng, 2, atoms_minus, 8),
        "cost": {"kind": "tabulated", "samples": CONCAVE_TABLE, "witness": CONCAVE_TABLE},
        "p": 2, "lambda": 0.1,
    }


def run_lower_dense(item: Item):
    inst = instance.instance_from_dict(item.data)
    lower = wasserstein.lower_bound(inst.mu_plus, inst.mu_minus, inst.cost, inst.p, inst.lam)
    # local_search silences the same inadmissibility warning around its baselines
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        uppers = tuple(optimize.baseline_upper(inst.mu_plus, inst.mu_minus, inst.cost,
                                               inst.p, inst.lam, k)[0]
                       for k in BASELINE_DEPTHS)
    return inst, lower, uppers


def values_lower_dense(out) -> tuple[float, ...]:
    _, lower, uppers = out
    return (lower, *uppers)


# ---------------------------------------------------------------------------
# energy_cyclic: exhaustive order search on feasible cyclic flows
# ---------------------------------------------------------------------------

def _distinct_point(rng, taken: list) -> list:
    while True:
        pt = rng.uniform(-BOX, BOX, size=2).tolist()
        if all(abs(pt[0] - q[0]) + abs(pt[1] - q[1]) > 0.05 for q in taken):
            taken.append(pt)
            return pt


def _add_cycle(vertices, edges, weights, ring, circulation):
    """Push a circulation around the vertex ring, creating edges as needed."""
    index = {tuple(e): i for i, e in enumerate(edges)}
    for t, h in zip(ring, ring[1:] + ring[:1]):
        if (t, h) in index:
            weights[index[(t, h)]] = weights[index[(t, h)]] + circulation
        else:
            index[(t, h)] = len(edges)
            edges.append([t, h])
            weights.append(circulation.copy())


def _ring(kind: str, rng, vertices: list, taken: list, segments: int) -> list:
    """Vertex ring of one circulation; new vertices are appended to ``vertices``."""
    def fresh():
        vertices.append(_distinct_point(rng, taken))
        return len(vertices) - 1

    s = int(rng.integers(segments))
    if kind == "reverse":
        return [s, s + 1]
    if kind == "crossing_triangle":
        return [s + 1, s, fresh()]
    if kind == "segment_triangle":
        return [s, s + 1, fresh()]
    if kind == "vertex_triangle":
        return [int(rng.integers(segments + 1)), fresh(), fresh()]
    return [fresh(), fresh(), fresh()]  # free triangle


CIRCULATIONS = ("reverse", "crossing_triangle", "segment_triangle", "vertex_triangle", "free_triangle")


def _cyclic_candidate(rng, n_samples: int):
    """A unit path flow x -> ... -> y plus circulations, until there are >= 6 cycles.

    Reverse edges and triangles on a path segment share edges with the
    path; triangles on a single path vertex and free triangles share no
    edge with anything.  The first circulation runs a triangle against a
    path segment: its reverse edge also closes a 2-cycle with the path,
    and the two cycles compete for that edge, so the bracket depends on
    the extraction order.
    """
    taken: list = []
    segments = int(rng.integers(3, 6))
    vertices = [_distinct_point(rng, taken) for _ in range(segments + 1)]
    edges = [[i, i + 1] for i in range(segments)]
    weights = [np.ones(n_samples) for _ in range(segments)]
    kind = "crossing_triangle"
    while True:
        ring = _ring(kind, rng, vertices, taken, segments)
        _add_cycle(vertices, edges, weights, ring, rng.uniform(0.05, 0.5, size=n_samples))
        G = graph.make_graph(vertices, edges, weights, TimeGrid(n_samples))
        cycles = graph.enumerate_cycles(G, cap=64)
        if len(cycles) >= CYCLES_PER_GRAPH:
            return vertices, edges, [w.tolist() for w in weights], segments, cycles
        kind = CIRCULATIONS[int(rng.integers(len(CIRCULATIONS)))]


def _shares_and_separates(cycles) -> bool:
    """True when some pair of cycles shares an edge and some pair shares none."""
    sets = [set(c) for c in cycles]
    pairs = [(a, b) for i, a in enumerate(sets) for b in sets[i + 1:]]
    return any(a & b for a, b in pairs) and any(not (a & b) for a, b in pairs)


def gen_energy_cyclic(rng, index: int) -> dict:
    n_samples = 8
    while True:
        vertices, edges, weights, segments, cycles = _cyclic_candidate(rng, n_samples)
        if len(cycles) == CYCLES_PER_GRAPH and _shares_and_separates(cycles):
            break
    ones = [[1.0] * n_samples]
    return {
        "version": "1", "dimension": 2, "time_samples": n_samples,
        "mu_plus": {"points": [vertices[0]], "weights": ones},
        "mu_minus": {"points": [vertices[segments]], "weights": ones},
        "graph": {"vertices": vertices, "edges": edges, "weights": weights},
        "cost": {"kind": "power", "alpha": 0.6}, "p": 2, "lambda": 0.7,
    }


def run_energy_cyclic(item: Item):
    inst = instance.instance_from_dict(item.data)
    report = graph.energy(inst.graph, inst.cost, inst.p, inst.lam)
    eliminated = graph.eliminate_cycles(inst.graph, inst.mu_plus, inst.mu_minus, inst.p)
    return inst, report, eliminated


def values_energy_cyclic(out) -> tuple[float, ...]:
    _, report, eliminated = out
    return (report.total, report.derivative_term, float(eliminated.weights.sum()))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    ident: int
    pool_size: int
    generate: Callable[[np.random.Generator, int], dict]
    run: Callable[[Item], tuple]
    values: Callable[[tuple], tuple[float, ...]]


WORKLOADS = {
    w.name: w for w in (
        Workload("search", 1, 64, gen_search, run_search, values_search),
        Workload("lower_dense", 2, 50, gen_lower_dense, run_lower_dense, values_lower_dense),
        Workload("energy_cyclic", 3, 36, gen_energy_cyclic, run_energy_cyclic, values_energy_cyclic),
    )
}


def make_item(workload: Workload, seed: int, index: int) -> Item:
    s = instance_seed(workload.ident, seed, index)
    return Item(index, s, workload.generate(np.random.default_rng(s), index))


def make_pool(workload: Workload, seed: int, size: int | None = None) -> list[Item]:
    return [make_item(workload, seed, i) for i in range(workload.pool_size if size is None else size)]


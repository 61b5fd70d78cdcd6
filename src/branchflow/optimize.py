"""Upper-bound search for the transport distance.

The search never certifies optimality itself: quality comes from the
Wasserstein lower bound, and every returned witness is a feasible,
strong-cycle-free graph between the requested boundary paths, so the
reported [lower, upper] interval brackets the true distance.

Weight optimization holds the topology fixed.  Because the cost is
concave in the weights, minima sit on faces of the balance polytope; the
solver therefore combines consolidating LP sweeps (the cost linearized
at the current iterate, the derivative penalty linearized sample by
sample) with a smoothed projected-subgradient phase and multi-start,
keeping the best feasible iterate seen.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linprog  # noqa: F401  no longer called; bench/tracing.py traces this name

from . import wasserstein
from .cost import TransportCost, check_admissible
from .dyadic import _tree_edges, connector
from .graph import (
    CycleExplosionError,
    TransportGraph,
    _boundary_matrix,
    _derivative_series,
    _incidence,
    _tau_mass_series,
    cancel_antiparallel,
    empty_graph,
    energy,
    graph_from_paths,
    is_never_cyclic,
    kirchhoff_residual,
    merge_graphs,
    prune_zero_edges,
    separate_supports,
    strip_strong_cycles,
)
from .lp import _SampleLP
from .measures import AtomicMeasurePath, cell_center, cell_index, derivative_path, lp_time_norm, time_derivative

SEARCH_CYCLE_CAP = 512  # cycle cap for the search's candidates and its final witness


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budgets and solver knobs; the seed fixes the whole run."""

    k_max: int = 3
    steiner_budget: int = 2
    iterations: int = 120
    perturbation: float = 0.08
    seed: int = 0
    subgradient_steps: int = 20
    step_size: float = 0.05
    eps_tau: float = 1e-6
    sweeps: int = 5
    multi_start: int = 2
    stall_limit: int = 50
    weight_bound: float = 2.0

    def __post_init__(self):
        for name in ("k_max", "steiner_budget", "iterations", "perturbation", "seed",
                     "subgradient_steps", "step_size", "eps_tau", "sweeps",
                     "multi_start", "stall_limit", "weight_bound"):
            if getattr(self, name) < 0:
                raise ValueError(f"config field {name} must be nonnegative")


@dataclass(frozen=True)
class DistanceReport:
    """Certified bracket [lower, upper] with the witness that attains upper."""

    lower: float
    upper: float
    witness: TransportGraph
    baseline_upper: dict[int, float]
    iterations_used: int
    gap: float

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "gap": self.gap,
            "baseline_upper": {str(k): v for k, v in self.baseline_upper.items()},
            "iterations_used": self.iterations_used,
        }


# ---------------------------------------------------------------------------
# weight optimization on a fixed topology
# ---------------------------------------------------------------------------

def _tau_slope(tau: TransportCost, w, eps):
    s = np.maximum(w, eps)
    if tau.kind == "power":
        return tau.alpha * s ** (tau.alpha - 1.0)
    xs, vs = tau.samples[:, 0], tau.samples[:, 1]
    seg = np.clip(np.searchsorted(xs, s, side="right") - 1, 0, len(xs) - 2)
    slopes = (vs[seg + 1] - vs[seg]) / (xs[seg + 1] - xs[seg])
    return np.where(s >= xs[-1], 0.0, slopes)


def _objective(lengths, W, tau, p, lam):
    """Energy of a strong-cycle-free assignment: mass plus plain derivative term."""
    mass = lp_time_norm(_tau_mass_series(lengths, W, tau), p)
    return mass + lam * lp_time_norm(_derivative_series(lengths, W), p)


def _derivative_subgradient(lengths, W, p_eff, n):
    """Gradient of the derivative term, derivative magnitudes linearized."""
    dW = time_derivative(W)
    series = lengths @ np.abs(dW)
    norm = lp_time_norm(series, p_eff)
    if norm <= 1e-15:
        return np.zeros_like(W)
    scale = (series ** (p_eff - 1.0)) * norm ** (1.0 - p_eff) / n
    signed = np.sign(dW) * scale[None, :]  # d(norm)/d(Delta_{e,t}) up to N*len
    return n * lengths[:, None] * (np.roll(signed, 1, axis=1) - signed)


def _mass_scales(lengths, W, tau, p_eff, n):
    series = _tau_mass_series(lengths, W, tau)
    norm = lp_time_norm(series, p_eff)
    if norm <= 1e-15:
        return np.full(n, 1.0 / n)
    return (series ** (p_eff - 1.0)) * norm ** (1.0 - p_eff) / n


def optimize_weights(topology: TransportGraph, a_plus: AtomicMeasurePath, a_minus: AtomicMeasurePath,
                     tau: TransportCost, p, lam: float, cfg: OptimizerConfig,
                     rng: np.random.Generator | None = None) -> TransportGraph:
    """Best feasible weights found for a fixed topology.

    Raises when no feasible assignment exists.  The returned weights
    satisfy the balance constraints to LP accuracy and never exceed the
    configured bound.
    """
    if topology.n_edges == 0:
        if kirchhoff_residual(topology, a_plus, a_minus) > 1e-9:
            raise ValueError("infeasible topology: no edges but unbalanced boundary")
        return topology
    rng = rng or np.random.default_rng(cfg.seed)
    n = topology.grid.n_samples
    B = _incidence(topology)
    b = _boundary_matrix(topology, a_plus, a_minus)
    lengths = topology.lengths
    p_eff = min(p, 16.0) if not math.isinf(p) else 16.0
    ub = cfg.weight_bound
    sample_lp = _SampleLP(B, ub)

    def lp_solve_all(cost_matrix):
        W = np.zeros((topology.n_edges, n))
        for j in range(n):
            w = sample_lp.solve(cost_matrix[:, j], b[:, j])
            if w is None:
                raise ValueError(f"infeasible topology at sample {j}")
            W[:, j] = w
        return W

    # start 0: pure consolidation along shortest routes
    starts = [lp_solve_all(np.tile(lengths[:, None], (1, n)))]
    if np.any(topology.weights > 0):
        starts.append(topology.weights.copy())
    for _ in range(max(cfg.multi_start - 1, 0)):
        jitter = 1.0 + 0.5 * rng.random(topology.n_edges)
        starts.append(lp_solve_all(np.tile((lengths * jitter)[:, None], (1, n))))

    best_W = None
    best_val = math.inf

    def consider(W):
        nonlocal best_W, best_val
        val = _objective(lengths, W, tau, p, lam)
        if val < best_val - 1e-15:
            best_val = val
            best_W = W.copy()

    B_pinv = np.linalg.pinv(B)

    def project(W):
        for _ in range(40):
            W = W + B_pinv @ (b - B @ W)
            if W.min() >= -1e-14:
                break
            W = np.clip(W, 0.0, ub)
        resid = float(np.max(np.abs(B @ W - b))) if W.size else 0.0
        return np.clip(W, 0.0, ub), resid

    for W in starts:
        consider(W)
        # consolidating sweeps: linearize cost and derivative penalty per sample
        for _ in range(cfg.sweeps):
            scales = _mass_scales(lengths, W, tau, p_eff, n)
            g_deriv = _derivative_subgradient(lengths, W, p_eff, n)
            for j in range(n):
                cost_col = scales[j] * _tau_slope(tau, W[:, j], cfg.eps_tau) * lengths + lam * g_deriv[:, j]
                w = sample_lp.solve(cost_col, b[:, j])
                if w is not None:
                    W[:, j] = w
            consider(W)
        # smoothed projected-subgradient refinement
        W = best_W.copy()
        for step in range(cfg.subgradient_steps):
            scales = _mass_scales(lengths, W, tau, p_eff, n)
            g = scales[None, :] * _tau_slope(tau, W, cfg.eps_tau) * lengths[:, None]
            g = g + lam * _derivative_subgradient(lengths, W, p_eff, n)
            gn = float(np.max(np.abs(g)))
            if gn <= 1e-15:
                break
            W = W - (cfg.step_size / math.sqrt(step + 1.0)) * g / gn
            W, resid = project(W)
            if resid <= 1e-9:
                consider(W)

    return topology.with_weights(best_W)


# ---------------------------------------------------------------------------
# witness constructions
# ---------------------------------------------------------------------------

def baseline_upper(mu_plus: AtomicMeasurePath, mu_minus: AtomicMeasurePath,
                   tau: TransportCost, p, lam: float, k: int):
    """Energy of the depth-k connector between the dyadic aggregations."""
    ok, diag = check_admissible(tau, mu_plus.dimension)
    if not ok:
        warnings.warn(f"cost is not admissible ({diag}); the bound degrades as k grows", stacklevel=2)
    G, _, _ = connector(mu_plus, mu_minus, k)
    report = energy(G, tau, p, lam)
    return report.total, G


def _gather_edges(path: AtomicMeasurePath, k: int, reverse: bool, shift=0.0):
    """Edges between atoms and their (shifted) level-k cell centers, skipping coincidences."""
    edges, rows = [], []
    centers = cell_center(cell_index(path.points, k), k) + shift
    for center, atom, row in zip(centers, path.points, path.weights):
        if np.array_equal(center, atom):
            continue
        edges.append((center, atom) if reverse else (atom, center))
        rows.append(row)
    return edges, rows


def instance_connector_witness(mu_plus: AtomicMeasurePath, mu_minus: AtomicMeasurePath,
                               k: int) -> TransportGraph:
    """Feasible graph between the instance paths routed through depth-k trees.

    Atoms of mu_plus gather into their level-k centers, flow up the
    reversed tree to the root, cross a short bridge, descend the shifted
    mu_minus tree, and scatter from the shifted centers onto the mu_minus
    atoms.
    """
    n = mu_plus.dimension
    shift = np.zeros(n)
    shift[0] = 2.0 ** (-k)
    edges, rows = _gather_edges(mu_plus, k, reverse=False)
    for piece_edges, piece_rows in (_tree_edges(mu_plus, k, reverse=True),
                                    ([(np.zeros(n), shift)], [np.ones(mu_plus.grid.n_samples)]),
                                    _tree_edges(mu_minus, k, reverse=False, shift=shift),
                                    _gather_edges(mu_minus, k, reverse=True, shift=shift)):
        edges += piece_edges
        rows += piece_rows
    return prune_zero_edges(graph_from_paths(None, edges, np.array(rows), mu_plus.grid))


def direct_topology(mu_plus: AtomicMeasurePath, mu_minus: AtomicMeasurePath,
                    max_atoms: int = 12) -> TransportGraph:
    """Complete bi-directed graph on the union of supports, zero weights."""
    pts = {tuple(p) for p in mu_plus.points} | {tuple(p) for p in mu_minus.points}
    pts = sorted(pts)
    if len(pts) > max_atoms:
        raise ValueError(f"direct topology limited to {max_atoms} atoms, got {len(pts)}")
    grid = mu_plus.grid
    edges = []
    for a in pts:
        for b in pts:
            if a != b:
                edges.append((np.array(a), np.array(b)))
    rows = np.zeros((len(edges), grid.n_samples))
    return graph_from_paths(None, edges, rows, grid)


# ---------------------------------------------------------------------------
# local search
# ---------------------------------------------------------------------------

def _weighted_geometric_median(points, masses, iters=32):
    """Weiszfeld iteration; classical junction-placement heuristic."""
    x = np.average(points, axis=0, weights=masses)
    for _ in range(iters):
        d = np.linalg.norm(points - x, axis=1)
        if np.any(d < 1e-12):
            return x
        wts = masses / d
        x_new = (wts[:, None] * points).sum(axis=0) / wts.sum()
        if np.linalg.norm(x_new - x) < 1e-12:
            return x_new
        x = x_new
    return x


def _paths_equal(a: AtomicMeasurePath, b: AtomicMeasurePath) -> bool:
    return (a.points.shape == b.points.shape
            and np.array_equal(a.points, b.points)
            and np.array_equal(a.weights, b.weights))


def _evaluate(G, a_plus, a_minus, tau, p, lam, cfg):
    """Optimize weights, strip strong cycles, return (value, graph).

    A candidate whose pruned support still has unenumerably many cycles
    cannot be certified strong-cycle-free, so it is rejected (inf).
    """
    tuned = optimize_weights(G, a_plus, a_minus, tau, p, lam, cfg)
    try:
        cleaned = strip_strong_cycles(prune_zero_edges(tuned, tol=1e-13), p,
                                      cycle_cap=SEARCH_CYCLE_CAP)
    except CycleExplosionError:
        return math.inf, tuned
    val = _objective(cleaned.lengths, cleaned.weights, tau, p, lam)
    return val, cleaned


def local_search(mu_plus: AtomicMeasurePath, mu_minus: AtomicMeasurePath,
                 tau: TransportCost, p, lam: float,
                 cfg: OptimizerConfig | None = None) -> DistanceReport:
    """Bracket the distance between two atomic paths.

    Seeds from the best connector-based witness and a direct topology,
    then alternates strictly-improving moves (junction insertion,
    perturbation, edge insertion, reoptimization).  Always returns a
    report; the baseline witness survives when the search stalls.
    """
    cfg = cfg or OptimizerConfig()
    rng = np.random.default_rng(cfg.seed)
    lower = wasserstein.lower_bound(mu_plus, mu_minus, tau, p, lam)
    baselines: dict[int, float] = {}
    for k in range(1, cfg.k_max + 1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val, _ = baseline_upper(mu_plus, mu_minus, tau, p, lam, k)
        baselines[k] = val

    if _paths_equal(mu_plus, mu_minus):
        witness = empty_graph(mu_plus.dimension, mu_plus.grid)
        return DistanceReport(lower, 0.0, witness, baselines, 0, -lower)

    shared = mu_plus.support() & mu_minus.support()
    patch = None
    target = mu_minus
    if shared:
        all_pts = np.vstack([mu_plus.points, mu_minus.points])
        dists = [np.linalg.norm(a - b) for i, a in enumerate(all_pts) for b in all_pts[i + 1:]
                 if np.linalg.norm(a - b) > 0]
        delta = min(1e-9, (min(dists) / 4.0) if dists else 1e-9)
        target, patch = separate_supports(mu_plus, mu_minus, delta)

    candidates: list[TransportGraph] = []
    try:
        candidates.append(direct_topology(mu_plus, target))
    except ValueError:
        pass
    for k in range(1, cfg.k_max + 1):
        candidates.append(instance_connector_witness(mu_plus, target, k))

    incumbent_val = math.inf
    incumbent: TransportGraph | None = None
    iterations = 0
    for cand in candidates:
        val, g = _evaluate(cand, mu_plus, target, tau, p, lam, cfg)
        iterations += 1
        if val < incumbent_val:
            incumbent_val, incumbent = val, g

    boundary_points = mu_plus.support() | target.support()
    steiner_added = 0
    stall = 0
    moves = ("steiner", "perturb", "add_edge", "reoptimize")
    while iterations < cfg.iterations and stall < cfg.stall_limit:
        move = moves[int(rng.integers(len(moves)))]
        cand = _propose(incumbent, move, boundary_points, steiner_added, cfg, rng)
        iterations += 1
        if cand is None:
            stall += 1
            continue
        topology, inserted = cand
        try:
            val, g = _evaluate(topology, mu_plus, target, tau, p, lam,
                               replace(cfg, seed=int(rng.integers(2**31))))
        except ValueError:
            stall += 1
            continue
        if val < incumbent_val - 1e-12 and val < incumbent_val * (1.0 - 1e-9):
            incumbent_val, incumbent = val, g
            steiner_added += int(inserted)
            stall = 0
        else:
            stall += 1

    witness = prune_zero_edges(incumbent)
    if patch is not None and patch.n_edges:
        reversed_patch = graph_from_paths(
            None,
            [(patch.vertices[patch.edges[e, 1]], patch.vertices[patch.edges[e, 0]])
             for e in range(patch.n_edges)],
            patch.weights,
            patch.grid,
        )
        witness = cancel_antiparallel(merge_graphs(witness.grid, witness, reversed_patch))
        if not is_never_cyclic(witness, cap=SEARCH_CYCLE_CAP):
            witness = strip_strong_cycles(witness, p, cycle_cap=SEARCH_CYCLE_CAP)
    if witness.n_edges:
        upper = energy(witness, tau, p, lam, cycle_cap=SEARCH_CYCLE_CAP).total
    else:
        upper = 0.0
    return DistanceReport(lower, upper, witness, baselines, iterations, upper - lower)


def _propose(G: TransportGraph, move: str, boundary_points: set, steiner_added: int,
             cfg: OptimizerConfig, rng: np.random.Generator):
    """Build a candidate topology; returns (graph, inserted_flag) or None."""
    if G.n_edges == 0:
        return None
    verts = G.vertices
    if move == "steiner":
        if steiner_added >= cfg.steiner_budget:
            return None
        counts = np.zeros(len(verts))
        for t, h in G.edges:
            counts[t] += 1
            counts[h] += 1
        hubs = np.where(counts >= 2)[0]
        if hubs.size == 0:
            return None
        v = int(hubs[int(rng.integers(hubs.size))])
        nbrs, masses = [], []
        for e, (t, h) in enumerate(G.edges):
            if t == v or h == v:
                other = h if t == v else t
                nbrs.append(verts[other])
                masses.append(float(np.mean(G.weights[e])) + 1e-9)
        median = _weighted_geometric_median(np.array(nbrs), np.array(masses))
        if any(np.linalg.norm(median - w) < 1e-9 for w in verts):
            return None
        new_verts = np.vstack([verts, median[None, :]])
        s = len(verts)
        edges = [tuple(e) for e in G.edges]
        for e, (t, h) in enumerate(G.edges):
            if t == v:
                edges.append((s, h))
            if h == v:
                edges.append((t, s))
        edges.append((v, s))
        edges.append((s, v))
        weights = np.vstack([G.weights, np.zeros((len(edges) - G.n_edges, G.grid.n_samples))])
        return TransportGraph(new_verts, np.array(edges), weights, G.grid), True
    if move == "perturb":
        movable = [i for i, v in enumerate(verts) if tuple(v) not in boundary_points]
        if not movable:
            return None
        s = movable[int(rng.integers(len(movable)))]
        new_verts = verts.copy()
        new_verts[s] = new_verts[s] + cfg.perturbation * rng.standard_normal(G.dimension)
        if len({tuple(v) for v in new_verts}) != len(new_verts):
            return None
        return TransportGraph(new_verts, G.edges, G.weights, G.grid), False
    if move == "add_edge":
        nv = len(verts)
        if nv < 2:
            return None
        existing = {tuple(e) for e in G.edges}
        for _ in range(8):
            t, h = rng.integers(nv), rng.integers(nv)
            if t != h and (int(t), int(h)) not in existing:
                edges = np.vstack([G.edges, [[int(t), int(h)]]])
                weights = np.vstack([G.weights, np.zeros((1, G.grid.n_samples))])
                return TransportGraph(verts, edges, weights, G.grid), False
        return None
    if move == "reoptimize":
        return TransportGraph(verts, G.edges, G.weights, G.grid), False
    return None


# ---------------------------------------------------------------------------
# metric probes
# ---------------------------------------------------------------------------

def metric_probe(paths: list[AtomicMeasurePath], tau: TransportCost, p, lam: float,
                 cfg: OptimizerConfig | None = None,
                 convergence_family: tuple[list[AtomicMeasurePath], AtomicMeasurePath] | None = None) -> dict:
    """Pairwise brackets, triangle defects, and an optional convergence probe.

    Brackets are symmetric by construction (the lower bound is a
    symmetric function and the witness direction does not change its
    energy), so each unordered pair is solved once.  A triangle defect
    beyond the summed bracket gaps is flagged.
    """
    if len(paths) < 3:
        raise ValueError("metric probe needs at least 3 paths")
    cfg = cfg or OptimizerConfig()
    m = len(paths)
    brackets: dict[tuple[int, int], dict] = {}
    for i in range(m):
        for j in range(i + 1, m):
            rep = local_search(paths[i], paths[j], tau, p, lam, cfg)
            brackets[(i, j)] = {"lower": rep.lower, "upper": rep.upper, "gap": rep.gap}
    triangles = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if len({i, j, k}) < 3:
                    continue
                ik = brackets[(min(i, k), max(i, k))]
                ij = brackets[(min(i, j), max(i, j))]
                jk = brackets[(min(j, k), max(j, k))]
                defect = ik["upper"] - ij["upper"] - jk["upper"]
                budget = ij["gap"] + jk["gap"] + ik["gap"]
                triangles.append({
                    "triple": (i, j, k),
                    "defect": defect,
                    "gap_budget": budget,
                    "flagged": defect > budget + 1e-9,
                })
    out = {"brackets": {f"{i},{j}": v for (i, j), v in brackets.items()},
           "symmetric": True,
           "triangles": triangles}
    if convergence_family is not None:
        family, targetmu = convergence_family
        probe = []
        for member in family:
            rep = local_search(member, targetmu, tau, p, lam, cfg)
            lid_mass = wasserstein.lid1_path_norm(member, targetmu, p)
            lid_deriv = wasserstein.lid1_path_norm(derivative_path(member), derivative_path(targetmu), p)
            probe.append({"lid1_terms": lid_mass + lid_deriv, "upper": rep.upper})
        out["convergence"] = probe
    return out

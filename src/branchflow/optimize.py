"""Upper-bound search for the transport distance.

The search never certifies optimality itself: quality comes from the
Wasserstein lower bound, and every returned witness is a feasible,
strong-cycle-free graph between the requested boundary paths, so the
reported [lower, upper] interval brackets the true distance.

Weight optimization holds the topology fixed.  Because the cost is
concave in the weights, minima sit on faces of the balance polytope; the
solver therefore runs consolidating LP sweeps from several starts and
keeps the best feasible iterate seen.  Each start and each sweep is one
LP over all time samples: the mass term is linearized at the current
iterate, and the derivative term is exact up to its reweighted L^p norm,
because split columns u, v >= 0 with W(t+1) - W(t) = u(t) - v(t) carry
the derivative magnitudes (an l1 penalty as an LP; Boyd & Vandenberghe,
Convex Optimization, 6.1).  A sweep depends on its iterate alone, so a
start ends at an iterate already swept with at least as many sweeps
left; that returns the same weights as running every sweep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import wasserstein
from .cost import TransportCost, check_admissible
from .dyadic import _bridge_shift, _connector_graph, _tree_edges
from .graph import (
    CycleExplosionError,
    TransportGraph,
    _boundary_matrix,
    _derivative_series,
    _min_spacing,
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
from .measures import AtomicMeasurePath, _group, cell_center, cell_index, derivative_path, lp_time_norm

SEARCH_CYCLE_CAP = 512  # cycle cap for the search's candidates and its final witness
PERTURBATION = 0.08  # standard deviation of the "perturb" move's junction shift
STALL_LIMIT = 50  # consecutive non-improving moves that end the search
EPS_TAU = 1e-6  # weights below this take tau's slope at this value
WEIGHT_BOUND = 2.0  # upper bound of every weight-LP column
DIRECT_MAX_ATOMS = 12  # largest support union that direct_topology connects completely


def __getattr__(name):
    # ``optimize.linprog`` stays importable (bench/tracing.py traces this name) but is no
    # longer called; loading it on access keeps scipy.optimize out of ``import branchflow``
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budgets; the seed fixes the whole run.

    ``subgradient_steps`` is accepted and read by nothing: the weight LP
    has no subgradient phase, and benchmark configurations still pass it.
    """

    k_max: int = 3
    steiner_budget: int = 2
    iterations: int = 120
    seed: int = 0
    subgradient_steps: int = 20
    sweeps: int = 5
    multi_start: int = 2

    def __post_init__(self):
        for name in ("k_max", "steiner_budget", "iterations", "seed",
                     "subgradient_steps", "sweeps", "multi_start"):
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


def _series_objective(mass, deriv, p, lam):
    """Energy from the mass and derivative series of a strong-cycle-free assignment."""
    return lp_time_norm(mass, p) + lam * lp_time_norm(deriv, p)


def _objective(lengths, W, tau, p, lam):
    """Energy of a strong-cycle-free assignment: mass plus plain derivative term."""
    return _series_objective(_tau_mass_series(lengths, W, tau), _derivative_series(lengths, W), p, lam)


def _norm_gradient(series, p_eff):
    """Gradient of the L^p-in-time norm at a nonnegative series; uniform 1/N if the series is zero."""
    n = series.size
    norm = lp_time_norm(series, p_eff)
    if norm <= 1e-15:
        return np.full(n, 1.0 / n)
    return (series ** (p_eff - 1.0)) * norm ** (1.0 - p_eff) / n


def _coupled_matrix(G: TransportGraph, n: int):
    """(rows, cols, values, shape) triplets of the weight LP over all n samples, columns x = (W, u, v).

    W, u and v are (E, n) arrays flattened sample after sample.  The
    first V*n rows give B W(t), with B's +1 at each edge's head and -1 at
    its tail; the next E*n rows give W(t+1) - W(t) - u(t) + v(t), with
    t + 1 taken mod n.
    """
    nv, ne = G.vertices.shape[0], G.n_edges
    m = ne * n
    k = np.arange(m)  # e + E t: the column of W(e, t) and, offset by V n, its difference row
    t = np.arange(n)[:, None]
    rows = np.concatenate([(G.edges[:, 1] + nv * t).ravel(), (G.edges[:, 0] + nv * t).ravel(),
                           nv * n + np.tile(k, 4)])
    cols = np.concatenate([k, k, k % ne + ne * ((k // ne + 1) % n), k, m + k, 2 * m + k])
    values = np.repeat([1.0, -1.0, 1.0, -1.0, -1.0, 1.0], m)
    return rows, cols, values, (nv * n + m, 3 * m)


def optimize_weights(topology: TransportGraph, a_plus: AtomicMeasurePath, a_minus: AtomicMeasurePath,
                     tau: TransportCost, p, lam: float, cfg: OptimizerConfig) -> TransportGraph:
    """Best feasible weights found for a fixed topology.

    Raises when no feasible assignment exists.  The returned weights
    satisfy the balance constraints to LP accuracy and never exceed
    ``WEIGHT_BOUND``.
    """
    if topology.n_edges == 0:
        if kirchhoff_residual(topology, a_plus, a_minus) > 1e-9:
            raise ValueError("infeasible topology: no edges but unbalanced boundary")
        return topology
    rng = np.random.default_rng(cfg.seed)
    n, ne = topology.grid.n_samples, topology.n_edges
    lengths = topology.lengths
    p_eff = min(p, 16.0) if not math.isinf(p) else 16.0
    # |W(t+1) - W(t)| <= WEIGHT_BOUND, so the bound also fits the split columns u, v
    weight_lp = _SampleLP(*_coupled_matrix(topology, n), WEIGHT_BOUND)
    rhs = np.concatenate([_boundary_matrix(topology, a_plus, a_minus).ravel(order="F"), np.zeros(ne * n)])
    # rhs is fixed for the call and the same (c, b) always gives the same x, so a cost
    # seen before (two iterates can price alike) returns its earlier optimum
    solved: dict[bytes, np.ndarray] = {}

    def lp_solve(mass_cost, deriv_grad):
        """Minimize <mass_cost, W> + lam * sum_t deriv_grad[t] * sum_e len_e * |N (W(t+1) - W(t))|."""
        split_cost = (lam * n * np.outer(lengths, deriv_grad)).ravel(order="F")
        cost = np.concatenate([mass_cost.ravel(order="F"), split_cost, split_cost])
        key = cost.tobytes()
        if key not in solved:
            x = weight_lp.solve(cost, rhs)
            if x is None:
                raise ValueError("infeasible topology")
            solved[key] = x[:ne * n].reshape((ne, n), order="F")
        return solved[key]

    # start 0: pure consolidation along shortest routes; the derivative counts uniformly in time
    uniform = np.full(n, 1.0 / n)
    starts = [lp_solve(np.tile(lengths[:, None], (1, n)), uniform)]
    if np.any(topology.weights > 0):
        starts.append(topology.weights.copy())
    for _ in range(max(cfg.multi_start - 1, 0)):
        jitter = 1.0 + 0.5 * rng.random(ne)
        starts.append(lp_solve(np.tile((lengths * jitter)[:, None], (1, n)), uniform))

    best_W = None
    best_val = math.inf

    def consider(W):
        nonlocal best_W, best_val
        mass, deriv = _tau_mass_series(lengths, W, tau), _derivative_series(lengths, W)
        val = _series_objective(mass, deriv, p, lam)
        if val < best_val - 1e-15:
            best_val = val
            best_W = W.copy()
        return mass, deriv

    # A sweep is a function of W alone, so a start ends at an iterate already swept with at
    # least as many sweeps left: everything it could reach has already been considered.
    swept: dict[bytes, int] = {}
    for W in starts:
        mass, deriv = consider(W)
        # consolidating sweeps: tau linearized at W, both norms reweighted at W
        for left in range(cfg.sweeps, 0, -1):
            key = W.tobytes()
            if swept.get(key, 0) >= left:
                break
            swept[key] = left
            mass_cost = _norm_gradient(mass, p_eff)[None, :] * _tau_slope(tau, W, EPS_TAU) * lengths[:, None]
            W = lp_solve(mass_cost, _norm_gradient(deriv, p_eff))
            mass, deriv = consider(W)

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
    G = _connector_graph(mu_plus, mu_minus, k)
    report = energy(G, tau, p, lam)
    return report.total, G


def _gather_edges(path: AtomicMeasurePath, k: int, reverse: bool, shift=0.0):
    """Edges between atoms and their (shifted) level-k cell centers, skipping coincidences."""
    centers = cell_center(cell_index(path.points, k), k) + shift
    keep = ~np.all(centers == path.points, axis=1)
    ends = (centers[keep], path.points[keep]) if reverse else (path.points[keep], centers[keep])
    return (*ends, path.weights[keep])


def instance_connector_witness(mu_plus: AtomicMeasurePath, mu_minus: AtomicMeasurePath,
                               k: int) -> TransportGraph:
    """Feasible graph between the instance paths routed through depth-k trees.

    Atoms of mu_plus gather into their level-k centers, flow up the
    reversed tree to the root, cross a short bridge, descend the shifted
    mu_minus tree, and scatter from the shifted centers onto the mu_minus
    atoms.
    """
    n = mu_plus.dimension
    shift = _bridge_shift(n, k)
    pieces = (_gather_edges(mu_plus, k, reverse=False),
              _tree_edges(mu_plus, k, reverse=True),
              (np.zeros((1, n)), shift[None], np.ones((1, mu_plus.grid.n_samples))),  # the bridge
              _tree_edges(mu_minus, k, reverse=False, shift=shift),
              _gather_edges(mu_minus, k, reverse=True, shift=shift))
    return prune_zero_edges(graph_from_paths(*map(np.concatenate, zip(*pieces)), mu_plus.grid))


def direct_topology(mu_plus: AtomicMeasurePath, mu_minus: AtomicMeasurePath) -> TransportGraph:
    """Complete bi-directed graph on the union of supports, zero weights."""
    both = np.vstack([mu_plus.points, mu_minus.points])
    pts = both[_group(both)[1]]  # lexicographic order
    if len(pts) > DIRECT_MAX_ATOMS:
        raise ValueError(f"direct topology limited to {DIRECT_MAX_ATOMS} atoms, got {len(pts)}")
    tails, heads = np.nonzero(~np.eye(len(pts), dtype=bool))
    return graph_from_paths(pts[tails], pts[heads], np.zeros((len(tails), mu_plus.grid.n_samples)),
                            mu_plus.grid)


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

    Seeds from the direct topology; above ``DIRECT_MAX_ATOMS`` atoms,
    where ``direct_topology`` refuses, from the best depth-1..k_max
    connector witness instead.  Then alternates strictly-improving moves
    (junction insertion, perturbation, edge insertion, reoptimization);
    the seed survives when no move improves it.  Raises ValueError when
    no seed is usable.
    The witness has no parallel edges: the seeds have none, ``add_edge``
    skips an existing pair, and each of a junction's new edges has the new
    vertex as one end.
    """
    cfg = cfg or OptimizerConfig()
    rng = np.random.default_rng(cfg.seed)
    lower = wasserstein.lower_bound(mu_plus, mu_minus, tau, p, lam)
    baselines = {k: energy(_connector_graph(mu_plus, mu_minus, k), tau, p, lam).total
                 for k in range(1, cfg.k_max + 1)}

    if _paths_equal(mu_plus, mu_minus):
        witness, upper = empty_graph(mu_plus.dimension, mu_plus.grid), 0.0
        return DistanceReport(lower, upper, witness, baselines, 0, upper - lower)

    delta = min(1e-9, _min_spacing(np.vstack([mu_plus.points, mu_minus.points])) / 4.0)
    target, patch = separate_supports(mu_plus, mu_minus, delta)

    try:
        candidates = [direct_topology(mu_plus, target)]
    except ValueError as exc:
        candidates = [instance_connector_witness(mu_plus, target, k) for k in range(1, cfg.k_max + 1)]
        if not candidates:
            raise ValueError(f"no seed topology: {exc}, and k_max = 0 builds no connector witness") from None

    incumbent_val = math.inf
    incumbent: TransportGraph | None = None
    iterations = 0
    for cand in candidates:
        val, g = _evaluate(cand, mu_plus, target, tau, p, lam, cfg)
        iterations += 1
        if val < incumbent_val:
            incumbent_val, incumbent = val, g
    if incumbent is None:
        raise ValueError(f"no seed topology: every seed candidate has more than {SEARCH_CYCLE_CAP} "
                         "simple cycles after weight optimization")

    boundary_points = mu_plus.support() | target.support()
    steiner_added = 0
    stall = 0
    moves = ("steiner", "perturb", "add_edge", "reoptimize")
    while iterations < cfg.iterations and stall < STALL_LIMIT:
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

    witness = incumbent
    if patch.n_edges:
        reversed_patch = TransportGraph(patch.vertices, patch.edges[:, ::-1], patch.weights, patch.grid)
        witness = cancel_antiparallel(merge_graphs(witness.grid, witness, reversed_patch))
        if not is_never_cyclic(witness):
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
        new_verts[s] = new_verts[s] + PERTURBATION * rng.standard_normal(G.dimension)
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
        return G, False
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

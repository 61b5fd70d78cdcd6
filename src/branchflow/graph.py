"""Transport graphs: geometric directed graphs with periodic weight trajectories.

A graph is feasible between two atomic paths when mass balances at every
vertex and sample: source mass plus inflow equals sink mass plus outflow.
The energy combines the cost-weighted mass term with the worst-case (over
cycle extraction orders) derivative term; for graphs with no strong cycle
the derivative term collapses to the plain derivative norm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import networkx as nx
import numpy as np
from scipy.sparse import coo_array, csc_array

from .measures import (
    AtomicMeasurePath,
    TimeGrid,
    _freeze,
    _require_finite,
    lp_time_norm,
    lp_time_norms,
    time_derivative,
)

DEFAULT_CYCLE_CAP = 10
EXHAUSTIVE_LIMIT = 8  # max_order tries every extraction order up to this many cycles
ORDER_CHUNK = 120  # orders max_order scores per batch; larger batches raise peak memory


class CycleExplosionError(RuntimeError):
    """Raised when the simple-cycle count exceeds the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"cycle explosion: more than {cap} simple cycles (found > {count - 1})")
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class TransportGraph:
    """Directed geometric graph with one trajectory per edge.

    Transport paths carry nonnegative weights; ``derivative_graph`` returns
    the same topology carrying the signed time derivative.
    """

    vertices: np.ndarray  # (V, n)
    edges: np.ndarray  # (E, 2) int, (tail, head)
    weights: np.ndarray  # (E, N)
    grid: TimeGrid

    def __post_init__(self):
        object.__setattr__(self, "vertices", _freeze(np.atleast_2d(self.vertices)))
        edges = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        object.__setattr__(self, "edges", _freeze(edges, dtype=int))
        w = np.asarray(self.weights, dtype=float).reshape(len(edges), self.grid.n_samples)
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        if self.n_edges == 0:
            return np.zeros(0)
        diff = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.linalg.norm(diff, axis=1)

    def with_weights(self, weights) -> "TransportGraph":
        return TransportGraph(self.vertices, self.edges, weights, self.grid)


def make_graph(vertices, edges, weights, grid: TimeGrid) -> TransportGraph:
    """Validated constructor: distinct vertices, no self loops, merged duplicates."""
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    _require_finite(verts, "vertex")
    if len({tuple(v) for v in verts}) != verts.shape[0]:
        raise ValueError("vertices must be pairwise distinct")
    edge_arr = np.asarray(edges, dtype=int).reshape(-1, 2)
    w = np.asarray(weights, dtype=float).reshape(edge_arr.shape[0], grid.n_samples)
    _require_finite(w, "edge", weights=True)
    if np.any(w < -1e-12):
        raise ValueError("edge weights must be nonnegative")
    w = np.maximum(w, 0.0)
    merged: dict[tuple[int, int], np.ndarray] = {}
    order: list[tuple[int, int]] = []
    for (t, h), row in zip(map(tuple, edge_arr), w):
        if t == h:
            raise ValueError(f"self loop at vertex {t}")
        if t < 0 or h < 0 or t >= verts.shape[0] or h >= verts.shape[0]:
            raise ValueError("edge endpoint out of range")
        if (t, h) in merged:
            merged[(t, h)] = merged[(t, h)] + row
        else:
            merged[(t, h)] = row.copy()
            order.append((t, h))
    if order:
        edge_arr = np.array(order, dtype=int)
        w = np.array([merged[e] for e in order])
    else:
        edge_arr = np.zeros((0, 2), dtype=int)
        w = np.zeros((0, grid.n_samples))
    return TransportGraph(verts, edge_arr, w, grid)


def empty_graph(dimension: int, grid: TimeGrid) -> TransportGraph:
    return TransportGraph(np.zeros((0, dimension)), np.zeros((0, 2), dtype=int), np.zeros((0, grid.n_samples)), grid)


def graph_from_paths(vertices, edge_list, weight_rows, grid) -> TransportGraph:
    """Build a graph from point coordinates instead of vertex indices."""
    index: dict[tuple, int] = {}
    verts: list[tuple] = []
    edges = []
    for tail_pt, head_pt in edge_list:
        for pt in (tail_pt, head_pt):
            key = tuple(pt)
            if key not in index:
                index[key] = len(verts)
                verts.append(key)
        edges.append((index[tuple(tail_pt)], index[tuple(head_pt)]))
    return make_graph(np.array(verts), edges, weight_rows, grid)


# ---------------------------------------------------------------------------
# balance and norms
# ---------------------------------------------------------------------------

def _support_indices(G: TransportGraph, path: AtomicMeasurePath) -> np.ndarray:
    lookup = {tuple(v): i for i, v in enumerate(G.vertices)}
    idx = []
    for p in path.points:
        key = tuple(p)
        if key not in lookup:
            raise ValueError(f"support point {key} is not a graph vertex")
        idx.append(lookup[key])
    return np.array(idx, dtype=int)


def _incidence(G: TransportGraph) -> csc_array:
    """(V, E) sparse incidence matrix B: +1 at each edge's head, -1 at its tail."""
    cols = np.repeat(np.arange(G.n_edges), 2)
    data = np.tile([1.0, -1.0], G.n_edges)
    return coo_array((data, (G.edges[:, ::-1].ravel(), cols)),
                     shape=(G.vertices.shape[0], G.n_edges)).tocsc()


def _boundary_matrix(G: TransportGraph, a_plus: AtomicMeasurePath, a_minus: AtomicMeasurePath) -> np.ndarray:
    """(V, N) right-hand side b of the balance B W = b: sink minus source mass."""
    b = np.zeros((G.vertices.shape[0], G.grid.n_samples))
    np.subtract.at(b, _support_indices(G, a_plus), a_plus.weights)
    np.add.at(b, _support_indices(G, a_minus), a_minus.weights)
    return b


def kirchhoff_residual(G: TransportGraph, a_plus: AtomicMeasurePath, a_minus: AtomicMeasurePath) -> float:
    """Worst mass-balance violation max |B W - b| over vertices and samples.

    At each vertex and sample, source mass plus transport inflow must
    equal sink mass plus transport outflow; the return value is the max
    absolute imbalance, so 0 means G is a transport path from a_plus to
    a_minus.
    """
    if a_plus.grid.n_samples != G.grid.n_samples or a_minus.grid.n_samples != G.grid.n_samples:
        raise ValueError("time grids do not match")
    balance = _incidence(G) @ G.weights - _boundary_matrix(G, a_plus, a_minus)
    return float(np.max(np.abs(balance))) if balance.size else 0.0


def tv_norm(G: TransportGraph, j: int) -> float:
    """Total variation of the vector measure at sample j.

    Coincident anti-parallel edges cancel: edges sharing an unordered
    endpoint pair contribute |net signed weight| times length.
    """
    if G.n_edges == 0:
        return 0.0
    classes: dict[tuple[int, int], float] = {}
    lens: dict[tuple[int, int], float] = {}
    lengths = G.lengths
    col = G.weights[:, j]
    for e, (t, h) in enumerate(G.edges):
        key, sign = ((t, h), 1.0) if t < h else ((h, t), -1.0)
        classes[key] = classes.get(key, 0.0) + sign * col[e]
        lens[key] = lengths[e]
    return float(sum(abs(v) * lens[k] for k, v in classes.items()))


def _tau_mass_series(lengths: np.ndarray, W: np.ndarray, tau) -> np.ndarray:
    """Per-sample cost-weighted total edge mass (per edge, unmerged)."""
    return lengths @ np.asarray(tau(W), dtype=float)


def m_tau_p(G: TransportGraph, tau, p) -> float:
    """Discrete L^p-in-time norm of sum_e tau(w(e, t)) * length(e)."""
    _check_p(p)
    return lp_time_norm(_tau_mass_series(G.lengths, G.weights, tau), p)


def _check_p(p):
    if not math.isinf(p) and not p > 1:
        raise ValueError("p must lie in (1, inf]")


def derivative_graph(G: TransportGraph) -> TransportGraph:
    """Same topology carrying the signed time derivative of the weight trajectories."""
    return G.with_weights(time_derivative(G.weights))


def _derivative_series(lengths: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Per-sample sum_e |w'(e, t)| * length(e)."""
    return lengths @ np.abs(time_derivative(W))


def derivative_lp_norm(G: TransportGraph, p) -> float:
    """L^p norm over samples of sum_e |w'(e, t)| * length(e)."""
    _check_p(p)
    return lp_time_norm(_derivative_series(G.lengths, G.weights), p)


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

def enumerate_cycles(G: TransportGraph, cap: int = DEFAULT_CYCLE_CAP) -> list[tuple[int, ...]]:
    """All simple directed cycles as edge-index tuples, deterministic order.

    Includes 2-cycles from anti-parallel edge pairs.  Raises
    CycleExplosionError when more than ``cap`` cycles exist.
    """
    if G.n_edges == 0:
        return []
    dg = nx.DiGraph()
    dg.add_nodes_from(range(G.vertices.shape[0]))
    edge_id = {}
    for e, (t, h) in enumerate(G.edges):
        dg.add_edge(int(t), int(h))
        edge_id[(int(t), int(h))] = e
    cycles = []
    for nodes in nx.simple_cycles(dg):
        ring = list(nodes) + [nodes[0]]
        eidx = [edge_id[(ring[i], ring[i + 1])] for i in range(len(nodes))]
        # canonical rotation: start at the smallest edge index
        pivot = eidx.index(min(eidx))
        cycles.append(tuple(eidx[pivot:] + eidx[:pivot]))
        if len(cycles) > cap:
            raise CycleExplosionError(len(cycles), cap)
    cycles.sort(key=lambda c: tuple(sorted(c)))
    return cycles


@dataclass(frozen=True)
class CycleDecomposition:
    """Order-dependent extraction of cycle weights plus acyclic residual."""

    cycles: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]  # permutation of range(I), applied as cycles[order[i]]
    extracted: np.ndarray  # (I, N), extracted[i] belongs to cycles[order[i]]
    residual: np.ndarray  # (E, N)


def decompose(G: TransportGraph, order, cycles: list[tuple[int, ...]] | None = None) -> CycleDecomposition:
    """Extract, in the given order, the minimal common weight along each cycle."""
    if cycles is None:
        cycles = enumerate_cycles(G)
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(len(cycles))):
        raise ValueError("order must be a permutation of the cycle indices")
    remaining = G.weights.copy()
    extracted = np.zeros((len(cycles), G.grid.n_samples))
    for slot, ci in enumerate(order):
        rows = np.fromiter(cycles[ci], dtype=int)
        w = remaining[rows].min(axis=0)
        extracted[slot] = w
        remaining[rows] -= w
    if remaining.size and float(remaining.min()) < -1e-12:
        raise RuntimeError("cycle extraction produced a negative residual")
    np.clip(remaining, 0.0, None, out=remaining)
    return CycleDecomposition(tuple(cycles), order, extracted, remaining)


@dataclass(frozen=True)
class EnergyReport:
    """Energy split into mass term and (lambda-free) worst-case derivative term."""

    m_tau_p: float
    derivative_term: float
    total: float
    maximizing_order: tuple[int, ...]
    cycle_count: int
    exact_flag: bool

    def to_dict(self) -> dict:
        return {
            "m_tau_p": self.m_tau_p,
            "derivative_term": self.derivative_term,
            "total": self.total,
            "maximizing_order": list(self.maximizing_order),
            "cycle_count": self.cycle_count,
            "exact_flag": self.exact_flag,
        }


def _order_values(G: TransportGraph, perms: np.ndarray, cycles, p) -> np.ndarray:
    """The bracket of every row of a (P, I) array of extraction orders.

    Slice k of the (P, E, N) residual is extracted as ``decompose`` would
    extract order k; the cycle terms are added after the residual norm,
    in slot order, so each value is bitwise that of the one-row case.
    """
    lengths = G.lengths
    member = np.zeros((len(cycles), G.n_edges), dtype=bool)
    for ci, cyc in enumerate(cycles):
        member[ci, list(cyc)] = True
    cyclens = np.array([float(lengths[list(cyc)].sum()) for cyc in cycles])
    remaining = np.repeat(G.weights[None], len(perms), axis=0)
    extracted = []
    for slot in range(perms.shape[1]):
        on_cycle = member[perms[:, slot]][:, :, None]
        w = remaining.min(axis=1, where=on_cycle, initial=np.inf)
        np.subtract(remaining, w[:, None, :], out=remaining, where=on_cycle)
        extracted.append(w)
    if float(remaining.min()) < -1e-12:
        raise RuntimeError("cycle extraction produced a negative residual")
    np.clip(remaining, 0.0, None, out=remaining)
    rates = np.abs(time_derivative(remaining))
    total = lp_time_norms([lengths @ row for row in rates], p)
    for slot, w in enumerate(extracted):
        total += lp_time_norms(np.abs(time_derivative(w)) * cyclens[perms[:, slot], None], p)
    return total


def _bracket(G: TransportGraph, order, cycles, p) -> float:
    """Derivative norm of the residual plus the extracted cycle components."""
    return float(_order_values(G, np.array([order]), cycles, p)[0])


def _greedy_order(G: TransportGraph, cycles, p) -> tuple[int, ...]:
    """Extract the cycle with the largest derivative contribution first."""
    lengths = G.lengths
    remaining = G.weights.copy()
    left = set(range(len(cycles)))
    order = []
    while left:
        best, best_val = None, -1.0
        for ci in sorted(left):
            rows = list(cycles[ci])
            w = remaining[rows].min(axis=0)
            val = lp_time_norm(np.abs(time_derivative(w)) * float(lengths[rows].sum()), p)
            if val > best_val:
                best, best_val = ci, val
        order.append(best)
        rows = list(cycles[best])
        remaining[rows] -= remaining[rows].min(axis=0)
        left.remove(best)
    return tuple(order)


def max_order(G: TransportGraph, cycles, p):
    """Energy-maximizing extraction order; exhaustive up to EXHAUSTIVE_LIMIT cycles.

    The exhaustive search scores the permutations in lexicographic order,
    in batches of at most ORDER_CHUNK, and returns the lexicographically
    first order that attains the maximum.  Beyond the limit the order is
    greedy and the flag is False.
    """
    count = len(cycles)
    if count == 0:
        return (), True
    if count > EXHAUSTIVE_LIMIT:
        return _greedy_order(G, cycles, p), False
    perms = itertools.permutations(range(count))
    best, best_val = None, -1.0
    while chunk := list(itertools.islice(perms, ORDER_CHUNK)):
        vals = _order_values(G, np.array(chunk), cycles, p)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best, best_val = chunk[k], vals[k]
    if best is None:  # every bracket is NaN
        raise ValueError("no extraction order has a finite bracket; weights must be finite")
    return best, True


def energy(G: TransportGraph, tau, p, lam: float, cycle_cap: int = DEFAULT_CYCLE_CAP) -> EnergyReport:
    """Mass term plus lambda times the worst-case derivative bracket.

    The bracket is maximized over cycle extraction orders; exhaustively
    for up to ``EXHAUSTIVE_LIMIT`` cycles, greedily beyond (exact_flag
    False).  The exhaustive search scores the orders in lexicographic
    batches of at most ``ORDER_CHUNK``; ``maximizing_order`` is the
    lexicographically first order attaining the maximum.  For graphs with
    no strong cycle the result equals m_tau_p + lam * ||G'||.
    """
    _check_p(p)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    cycles = enumerate_cycles(G, cap=cycle_cap)
    order, exact = max_order(G, cycles, p)
    mass = m_tau_p(G, tau, p)
    deriv = _bracket(G, order, cycles, p) if cycles else derivative_lp_norm(G, p)
    return EnergyReport(
        m_tau_p=mass,
        derivative_term=deriv,
        total=mass + lam * deriv,
        maximizing_order=order,
        cycle_count=len(cycles),
        exact_flag=exact,
    )


# ---------------------------------------------------------------------------
# cycle elimination and support surgery
# ---------------------------------------------------------------------------

def prune_zero_edges(G: TransportGraph, tol: float = 1e-15) -> TransportGraph:
    """Drop edges whose trajectory never exceeds tol, and orphaned vertices."""
    if G.n_edges == 0:
        return G
    keep = np.max(G.weights, axis=1) > tol
    edges = G.edges[keep]
    weights = G.weights[keep]
    used = sorted({int(v) for e in edges for v in e})
    remap = {v: i for i, v in enumerate(used)}
    new_edges = np.array([[remap[t], remap[h]] for t, h in edges], dtype=int).reshape(-1, 2)
    return TransportGraph(G.vertices[used] if used else np.zeros((0, G.dimension)),
                          new_edges, weights, G.grid)


def is_never_cyclic(G: TransportGraph, tol: float = 1e-12, cap: int = DEFAULT_CYCLE_CAP) -> bool:
    """True when no simple cycle has all its weights positive at some sample."""
    for cyc in enumerate_cycles(G, cap=cap):
        if float(G.weights[list(cyc)].min(axis=0).max()) > tol:
            return False
    return True


def strip_strong_cycles(G: TransportGraph, p, cycle_cap: int = DEFAULT_CYCLE_CAP) -> TransportGraph:
    """Residual of the bracket-maximizing decomposition, zero edges pruned.

    Cycle extraction preserves the vertex balance identically (a cycle
    has equal in- and outflow everywhere), so this is safe regardless of
    the boundary data.
    """
    cycles = enumerate_cycles(G, cap=cycle_cap)
    if not cycles:
        return prune_zero_edges(G)
    order, _ = max_order(G, cycles, p)
    dec = decompose(G, order, cycles)
    return prune_zero_edges(G.with_weights(dec.residual))


def eliminate_cycles(G: TransportGraph, a_plus: AtomicMeasurePath, a_minus: AtomicMeasurePath,
                     p, tol: float = 1e-9, cycle_cap: int = DEFAULT_CYCLE_CAP) -> TransportGraph:
    """Strong-cycle-free graph with the same boundary and no larger energy."""
    if a_plus.support() & a_minus.support():
        raise ValueError("supports share points; apply separate_supports first")
    resid = kirchhoff_residual(G, a_plus, a_minus)
    if resid > tol:
        raise ValueError(f"input violates the balance condition by {resid:.3e}")
    return strip_strong_cycles(G, p, cycle_cap=cycle_cap)


_DIAG_CACHE: dict[int, list[np.ndarray]] = {}


def _direction_sequence(n: int) -> list[np.ndarray]:
    if n in _DIAG_CACHE:
        return _DIAG_CACHE[n]
    dirs = []
    for d in range(n):
        for s in (1.0, -1.0):
            v = np.zeros(n)
            v[d] = s
            dirs.append(v)
    for signs in itertools.product((1.0, -1.0), repeat=n):
        v = np.array(signs) / math.sqrt(n)
        dirs.append(v)
    for d in range(n):
        for s in (1.0, -1.0):
            v = np.ones(n)
            v[d] = 2.0 * s
            dirs.append(v / np.linalg.norm(v))
    _DIAG_CACHE[n] = dirs[:32]
    return _DIAG_CACHE[n]


def separate_supports(a_plus: AtomicMeasurePath, a_minus: AtomicMeasurePath, delta: float):
    """Relocate shared sink atoms by delta and return the patch edges.

    For every point in both supports, the sink atom moves to a fresh
    point at distance delta (deterministic direction search) and a patch
    edge old -> new with the sink's weight trajectory is returned.  A
    graph feasible for (a_plus, a_minus) plus the patch is feasible for
    (a_plus, moved a_minus).
    """
    shared = sorted(a_plus.support() & a_minus.support())
    if not shared:
        return a_minus, empty_graph(a_minus.dimension, a_minus.grid)
    all_pts = np.vstack([a_plus.points, a_minus.points])
    min_dist = np.inf
    for i in range(len(all_pts)):
        d = np.linalg.norm(all_pts - all_pts[i], axis=1)
        d[i] = np.inf
        positive = d[d > 0]
        if positive.size:
            min_dist = min(min_dist, float(positive.min()))
    if math.isfinite(min_dist) and delta >= min_dist / 2.0:
        raise ValueError(f"delta {delta} must be below half the minimum point spacing {min_dist / 2.0}")

    occupied = {tuple(p) for p in all_pts}
    new_points = a_minus.points.copy()
    patch_edges = []
    patch_weights = []
    sink_index = {tuple(p): i for i, p in enumerate(a_minus.points)}
    for key in shared:
        x = np.array(key)
        placed = None
        for direction in _direction_sequence(a_minus.dimension):
            cand = x + delta * direction
            ck = tuple(cand)
            if ck in occupied:
                continue
            if any(np.linalg.norm(cand - np.array(o)) < delta / 2.0 for o in occupied):
                continue
            placed = cand
            break
        if placed is None:
            raise ValueError(f"could not place a relocated atom near {key} after 32 attempts")
        occupied.add(tuple(placed))
        i = sink_index[key]
        new_points[i] = placed
        patch_edges.append((x, placed))
        patch_weights.append(a_minus.weights[i])
    moved = AtomicMeasurePath(new_points, a_minus.weights, a_minus.grid)
    patch = graph_from_paths(None, patch_edges, np.array(patch_weights), a_minus.grid)
    return moved, patch


def cancel_antiparallel(G: TransportGraph) -> TransportGraph:
    """Replace coincident anti-parallel pairs by their positive/negative parts.

    Balance is preserved exactly and at most one direction carries weight
    at each sample afterwards, so such pairs can no longer form strong
    2-cycles.
    """
    if G.n_edges == 0:
        return G
    by_pair: dict[tuple[int, int], list[int]] = {}
    for e, (t, h) in enumerate(map(tuple, G.edges)):
        by_pair.setdefault((min(t, h), max(t, h)), []).append(e)
    new_w = G.weights.copy()
    for (lo, hi), rows in by_pair.items():
        if len(rows) < 2:
            continue
        fwd = [e for e in rows if G.edges[e, 0] == lo]
        bwd = [e for e in rows if G.edges[e, 0] == hi]
        if not fwd or not bwd:
            continue
        net = new_w[fwd].sum(axis=0) - new_w[bwd].sum(axis=0)
        new_w[fwd] = 0.0
        new_w[bwd] = 0.0
        new_w[fwd[0]] = np.maximum(net, 0.0)
        new_w[bwd[0]] = np.maximum(-net, 0.0)
    return prune_zero_edges(G.with_weights(new_w))


def merge_graphs(grid: TimeGrid, *graphs: TransportGraph) -> TransportGraph:
    """Union of graphs by vertex coordinates; duplicate edges merge by addition."""
    edge_list = []
    weight_rows = []
    for g in graphs:
        for e in range(g.n_edges):
            edge_list.append((g.vertices[g.edges[e, 0]], g.vertices[g.edges[e, 1]]))
            weight_rows.append(g.weights[e])
    if not edge_list:
        dim = graphs[0].dimension if graphs else 1
        return empty_graph(dim, grid)
    return graph_from_paths(None, edge_list, np.array(weight_rows), grid)


def holder_check(G: TransportGraph, p) -> float:
    """Max over sample pairs of TV(G[t]-G[s]) - ||G'||_p |t-s|^(1-1/p).

    The difference TV is computed edge-wise on the shared topology.  For
    piecewise-linear-in-time weights the bound holds up to rounding, so
    the returned violation should not exceed ~1e-9.
    """
    _check_p(p)
    n = G.grid.n_samples
    dnorm = derivative_lp_norm(G, p)
    expo = 1.0 if math.isinf(p) else 1.0 - 1.0 / p
    if G.n_edges == 0:
        return 0.0
    worst = -math.inf
    lengths = G.lengths
    for j in range(n):
        for l in range(j + 1, n):
            diff = float(lengths @ np.abs(G.weights[:, j] - G.weights[:, l]))
            dt = (l - j) / n
            worst = max(worst, diff - dnorm * dt**expo)
    return worst

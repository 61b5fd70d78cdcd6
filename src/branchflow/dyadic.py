"""Multiscale flux constructions on the dyadic lattice.

Conventions.  The lattice is ``measures.DyadicLevelSpec``: level-k cells
tile [x0 - 2s, x0 + 2s)^n (default root x0 = 0, base scale s = 1, giving
[-2, 2)^n) with side s * 2**(2-k).
Layer j carries edges from level-j cell centers to the centers of their
2^n child cells, weighted by the child-cell mass trajectory, so mass
flows coarse to fine.  A band over layers k..l-1 is therefore a
transport path whose source boundary is the level-k aggregation and
whose sink boundary is the level-l aggregation; the connector glues two
such trees back to back across a short bridge.
"""

from __future__ import annotations

import math

import numpy as np

from .cost import TransportCost
from .graph import TransportGraph, graph_from_paths, prune_zero_edges
from .measures import (
    STANDARD,
    AtomicMeasurePath,
    DyadicLevelSpec,
    _bucket,
    cell_center,
    cell_index,
    dyadic_project,
    sobolev_seminorm,
)


def _elementary_edges(mu: AtomicMeasurePath, s: float, x: np.ndarray):
    """Tails, heads and weight rows of the elementary flux at (s, x), counting only interior mass."""
    n = mu.dimension
    lo = x - 2.0 * s
    rel = np.floor((mu.points - lo) / (2.0 * s)).astype(int)
    inside = np.all((rel >= 0) & (rel < 2), axis=1)
    keys = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # cell flat's key: bit d of flat on axis d
    rows = np.array([mu.weights[inside & np.all(rel == key, axis=1)].sum(axis=0) for key in keys])
    return np.tile(x, (2**n, 1)), lo + 2.0 * s * (keys + 0.5), rows


def elementary_flux(mu: AtomicMeasurePath, s: float, x) -> TransportGraph:
    """Edges from x to the 2^n surrounding cube centers, weighted by cube mass.

    The cubes x + v + [-s, s)^n for v in {-s, s}^n tile [x-2s, x+2s)^n;
    zero-weight edges are retained.
    """
    n = mu.dimension
    x = np.asarray(x, dtype=float) if np.ndim(x) else np.full(n, float(x))
    cell_index(mu.points, 1, DyadicLevelSpec(root=x, scale=s))  # raises if support escapes
    return graph_from_paths(*_elementary_edges(mu, s, x), mu.grid)


def recursive_flux(mu: AtomicMeasurePath, k: int, spec: DyadicLevelSpec = STANDARD) -> TransportGraph:
    """Depth-k refinement tree: the elementary flux of every cell down to level k.

    Feasible between a unit point mass at the root and the level-k
    aggregation of mu (checked in tests via the balance residual).  Inner
    cells only count the mass they contain.
    """
    if k < 1:
        raise ValueError("depth must be >= 1")
    cell_index(mu.points, 1, spec)  # top-level support check
    pieces = []

    def recurse(s, x, depth):
        pieces.append(_elementary_edges(mu, s, x))
        if depth > 1:
            for child in pieces[-1][1]:  # the child is its parent's edge head, so the vertices coincide
                recurse(s / 2.0, child, depth - 1)

    recurse(spec.scale, spec.origin(mu.dimension), k)
    return graph_from_paths(*map(np.concatenate, zip(*pieces)), mu.grid)


def _band_edges(mu: AtomicMeasurePath, k: int, ell: int, spec: DyadicLevelSpec):
    """Tails, heads and weight rows of layers k..l-1.

    Layer j joins each level-j center to its occupied level-(j+1) child
    centers, weighted by the child-cell mass.
    """
    tails, heads, rows = [], [], []
    for j in range(k, ell):
        keys, sums = _bucket(cell_index(mu.points, j + 1, spec), mu.weights)
        keep = np.any(sums > 0, axis=1)
        tails.append(cell_center(keys[keep] // 2, j, spec))
        heads.append(cell_center(keys[keep], j + 1, spec))
        rows.append(sums[keep])
    return np.concatenate(tails), np.concatenate(heads), np.concatenate(rows)


def _tree_edges(mu: AtomicMeasurePath, k: int, reverse: bool, shift=0.0):
    """Tails, heads and weight rows of mu's depth-k tree (layers 0..k-1).

    Edges point coarse to fine, or fine to coarse when ``reverse``; every
    vertex is translated by ``shift``.
    """
    tails, heads, rows = _band_edges(mu, 0, k, STANDARD)
    tails, heads = tails + shift, heads + shift
    if reverse:
        tails, heads = heads, tails
    return tails, heads, rows


def band_flux(mu: AtomicMeasurePath, k: int, ell: int, spec: DyadicLevelSpec = STANDARD) -> TransportGraph:
    """Layered flux between the level-k and level-l aggregations of mu.

    Edges point coarse to fine across layers k..l-1, so the graph is a
    DAG (never cyclic) and carries the level-k aggregation as its source
    boundary and the level-l aggregation as its sink boundary.
    Zero-everywhere edges are pruned.
    """
    if not 1 <= k < ell:
        raise ValueError("levels must satisfy 1 <= k < l")
    return graph_from_paths(*_band_edges(mu, k, ell, spec), mu.grid)


def band_flux_bounds(k: int, ell: int, n: int, beta: TransportCost,
                     mu: AtomicMeasurePath, p) -> tuple[float, float]:
    """Certified bounds for the band flux of a measure supported in [-1, 1)^n.

    mass bound:    sqrt(n) * sum_{j=k}^{l-1} 2^(j(n-1)) beta(2^(-jn))
    derivative:    sqrt(n) * seminorm(mu, p) * sum_{j=k}^{l-1} 2^(-j)
    """
    if not 1 <= k < ell:
        raise ValueError("levels must satisfy 1 <= k < l")
    js = np.arange(k, ell)
    mass = math.sqrt(n) * float(np.sum(2.0 ** (js * (n - 1)) * beta.eval_witness(2.0 ** (-js * n))))
    deriv = math.sqrt(n) * sobolev_seminorm(mu, p) * float(np.sum(2.0 ** (-js.astype(float))))
    return mass, deriv


def _layer_cube_count(j: int, n: int) -> int:
    # cubes of side 2^(1-j) meeting [-1, 1)^n; layer 0 has 2 per axis
    return int(2 ** (max(j, 1) * n))


def connector_energy_bound(mu_plus: AtomicMeasurePath, mu_minus: AtomicMeasurePath,
                           tau: TransportCost, p, lam: float, k: int) -> float:
    """Closed-form certificate for the connector energy at depth k.

    Bridge cost tau(1) 2^(-k) plus, per tree and per layer j < k, the
    Jensen bound on the cost-weighted layer mass (cube counts taken for
    supports inside [-1, 1)^n) plus lam times the layer derivative
    bounds.
    """
    n = mu_plus.dimension
    mass = tau(1.0) * 2.0 ** (-k)
    for j in range(k):
        count = _layer_cube_count(j, n)
        mass += 2.0 * math.sqrt(n) * 2.0 ** (-j) * count * tau.eval_witness(1.0 / count)
    geom = sum(2.0 ** (-j) for j in range(k))
    deriv = math.sqrt(n) * geom * (sobolev_seminorm(mu_plus, p) + sobolev_seminorm(mu_minus, p))
    return mass + lam * deriv


def _bridge_shift(n: int, k: int) -> np.ndarray:
    """2^(-k) e_1: the offset of the mu_minus tree, and the bridge's length."""
    shift = np.zeros(n)
    shift[0] = 2.0 ** (-k)
    return shift


def _connector_graph(mu_plus: AtomicMeasurePath, mu_minus: AtomicMeasurePath, k: int) -> TransportGraph:
    """The graph of ``connector``, without its boundary projections."""
    if k < 1:
        raise ValueError("depth must be >= 1")
    if mu_plus.grid.n_samples != mu_minus.grid.n_samples:
        raise ValueError("time grids do not match")
    n = mu_plus.dimension
    shift = _bridge_shift(n, k)
    pieces = (_tree_edges(mu_plus, k, reverse=False),
              _tree_edges(mu_minus, k, reverse=True, shift=shift),
              (shift[None], np.zeros((1, n)), np.ones((1, mu_plus.grid.n_samples))))  # the bridge
    return prune_zero_edges(graph_from_paths(*map(np.concatenate, zip(*pieces)), mu_plus.grid))


def connector(mu_plus: AtomicMeasurePath, mu_minus: AtomicMeasurePath, k: int):
    """Glued pair of depth-k trees joined by a short bridge.

    Returns (G, a_plus_k, a_minus_k): the source boundary a_plus_k is
    the level-k aggregation of mu_minus shifted by 2^(-k) e_1, the sink
    boundary a_minus_k is the level-k aggregation of mu_plus.  Mass
    enters at the shifted fine centers, flows up the reversed mu_minus
    tree to the shifted root, crosses the bridge to the origin, and
    descends the mu_plus tree.  The result is a DAG with disjoint
    boundary supports and balance residual at machine precision.
    """
    G = _connector_graph(mu_plus, mu_minus, k)
    a_minus_k = dyadic_project(mu_plus, k)
    a_plus_k = dyadic_project(mu_minus, k).shifted(_bridge_shift(mu_plus.dimension, k))
    return G, a_plus_k, a_minus_k

"""Shared generators for randomized instances, and matrix views of the LP triplets."""

import numpy as np
from scipy.sparse import coo_array

from branchflow import AtomicMeasurePath, TimeGrid, TransportGraph, make_atomic_path, make_graph
from branchflow.optimize import _coupled_matrix

BUMPY = [[0.0, 0.0], [0.5, 0.6], [0.6, 0.61], [1.0, 0.93]]  # a subadditive cost table that is not concave


def triplets(B):
    """(rows, cols, values, shape) of a dense or sparse matrix, as ``_SampleLP`` takes them."""
    A = coo_array(B)
    return A.row, A.col, A.data, A.shape


def from_triplets(rows, cols, values, shape):
    """The CSC matrix of LP triplets, duplicates summed."""
    return coo_array((values, (rows, cols)), shape=shape).tocsc()


def incidence(G: TransportGraph) -> np.ndarray:
    """Dense (V, E) incidence B of the weight LP: the sample-0 balance block of ``_coupled_matrix``."""
    B = from_triplets(*_coupled_matrix(G, 2)).toarray()
    return B[:G.vertices.shape[0], :G.n_edges]


def random_path(rng, n=1, atoms=3, n_samples=4, box=0.9) -> AtomicMeasurePath:
    """Random atomic probability path supported in [-box, box]^n."""
    grid = TimeGrid(n_samples)
    while True:
        pts = rng.uniform(-box, box, size=(atoms, n))
        if len({tuple(p) for p in pts}) == atoms:
            break
    w = rng.uniform(0.1, 1.0, size=(atoms, n_samples))
    w /= w.sum(axis=0)
    return make_atomic_path(pts, w, grid)


def line_pair(rng, atoms_plus=3, atoms_minus=3, shared=1, n_samples=4, box=0.9):
    """Two random paths on the line whose supports share ``shared`` points.

    The first shared point carries the same weight row in both paths, so
    its net mass is 0 at every sample; the second path is built without
    renormalizing, so that row stays exact.  It needs atoms_minus > shared.
    """
    mu = random_path(rng, n=1, atoms=atoms_plus, n_samples=n_samples, box=box)
    while True:
        fresh = rng.uniform(-box, box, size=(atoms_minus - shared, 1))
        pts = np.vstack([mu.points[:shared], fresh])
        if len({tuple(p) for p in pts} | mu.support()) == atoms_plus + atoms_minus - shared:
            break
    w = rng.uniform(0.1, 1.0, size=(atoms_minus, n_samples))
    if shared:
        w[0] = mu.weights[0]
        w[1:] *= (1.0 - w[0]) / w[1:].sum(axis=0)
    else:
        w /= w.sum(axis=0)
    return mu, AtomicMeasurePath(pts, w, mu.grid)


def concave_table(rng, pieces=3):
    """A random concave, nondecreasing cost table from (0, 0), flat beyond its last sample."""
    xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.5, size=pieces))])
    slopes = np.sort(rng.uniform(0.0, 2.0, size=pieces))[::-1]
    return np.column_stack([xs, np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])])


def random_graph(rng, n=2, n_vertices=5, n_samples=4, density=0.4) -> TransportGraph:
    """Random weighted digraph (no feasibility requirement)."""
    grid = TimeGrid(n_samples)
    while True:
        pts = rng.normal(size=(n_vertices, n))
        if len({tuple(p) for p in pts}) == n_vertices:
            break
    edges = [(i, j) for i in range(n_vertices) for j in range(n_vertices)
             if i != j and rng.random() < density]
    if not edges:
        edges = [(0, 1)]
    weights = rng.uniform(0.0, 1.0, size=(len(edges), n_samples))
    return make_graph(pts, edges, weights, grid)


def cyclic_flow_instance(rng, n_samples=4):
    """Unit path flow x -> s1 -> s2 -> y with a reverse edge and a spare triangle.

    Cycle count is at most 4 (one 2-cycle on the path, one triangle on
    fresh vertices); the boundary is delta_x to delta_y.
    """
    grid = TimeGrid(n_samples)
    pts = np.array([[0.0, 0.0], [0.3, 0.1], [0.6, -0.1], [0.9, 0.0],
                    [0.2, 0.5], [0.5, 0.7], [0.8, 0.5]])
    pts = pts + rng.normal(scale=0.01, size=pts.shape)
    back = rng.uniform(0.05, 0.4, size=n_samples)
    circ = rng.uniform(0.1, 0.5, size=n_samples)
    edges = [(0, 1), (1, 2), (2, 3), (2, 1), (4, 5), (5, 6), (6, 4)]
    weights = np.vstack([np.ones(n_samples), 1.0 + back, np.ones(n_samples), back,
                         circ, circ, circ])
    G = make_graph(pts, edges, weights, grid)
    a_plus = make_atomic_path([pts[0]], np.ones((1, n_samples)), grid)
    a_minus = make_atomic_path([pts[3]], np.ones((1, n_samples)), grid)
    return G, a_plus, a_minus

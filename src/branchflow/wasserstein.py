"""Kantorovich--Rubinstein distance on balanced atomic measures and the
certified lower bound for the transport distance.

The primal route solves the balanced transport problem between the
positive and negative parts of the difference as a transportation LP on
the complete bipartite support graph, with HiGHS (``lp._SampleLP``).
A path norm builds its pair's geometry once: one bucketing of the union
support over the whole signed weight table, and one distance matrix on
it.  Each sample then drops its tiny weights, splits the rest by sign
and takes the positive-by-negative block of that matrix as its cost.
``lid1`` is the one-sample case of the same kernel.
The LP's constraint matrix depends only on the atom counts (m, l), so
one LP per (m, l) serves every sample of a path norm, and both path
norms of ``lower_bound_terms``; all of them run on the calling thread's
HiGHS solver.
Presolve is off: only the optimal value is used, and it is unique, so
any optimal vertex gives it, and each solve returns what
``linprog(..., method="highs", options={"presolve": False})`` returns.
The Lipschitz-potential dual of the same problem, solved through
``scipy.optimize.linprog``, serves as the verification route
(``lid1_dual_lp``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cost import TransportCost, rho
from .lp import _SampleLP
from .measures import AtomicMeasurePath, _bucket, _check_lambda, _check_p, derivative_path, lp_time_norm

BALANCE_TOL = 1e-9
ATOM_TOL = 1e-14


@dataclass(frozen=True)
class BalancedSignedMeasure:
    """Finitely supported signed measure, compared against an equal-total peer."""

    points: np.ndarray  # (k, n)
    weights: np.ndarray  # (k,)

    def __post_init__(self):
        object.__setattr__(self, "points", np.atleast_2d(np.asarray(self.points, dtype=float)))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float).ravel())

    def total(self) -> float:
        return float(self.weights.sum())


def measure_at(path, j: int) -> BalancedSignedMeasure:
    """Freeze one time sample of an atomic (possibly signed) path."""
    return BalancedSignedMeasure(path.points, path.weights[:, j])


def _merge_difference(m1: BalancedSignedMeasure, m2: BalancedSignedMeasure):
    """Atoms of m1 - m2, merged by exact location, tiny weights dropped."""
    pts, d = _bucket(np.vstack([m1.points, m2.points]), np.concatenate([m1.weights, -m2.weights]))
    keep = np.abs(d) > ATOM_TOL
    return pts[keep], d[keep]


def _transport_solver(solvers: dict, m: int, l: int) -> _SampleLP:
    """The presolve-free transport LP for m sources and l sinks, built once per solvers dict.

    The flow from source i to sink j is column i*l + j of the complete
    bipartite incidence; its rows fix each source's supply and each
    sink's demand.  The matrix goes to ``_SampleLP`` as (row, col, value)
    triplets, and every shape runs on the calling thread's presolve-free
    HiGHS solver.
    """
    lp = solvers.get((m, l))
    if lp is None:
        rows = np.column_stack([np.repeat(np.arange(m), l), m + np.tile(np.arange(l), m)]).ravel()
        cols = np.repeat(np.arange(m * l), 2)
        lp = solvers[m, l] = _SampleLP(rows, cols, np.ones(2 * m * l), (m + l, m * l), np.inf, presolve=False)
    return lp


def _min_cost_transport(cost, p_mass, q_mass, solvers: dict) -> float:
    """Exact balanced transport cost for an (m, l) cost matrix, as a transportation LP on HiGHS.

    The LP comes from ``solvers``, keyed by the atom counts (m, l), and
    is solved without presolve: the optimal value is unique, and the
    result is that of ``linprog(..., method="highs",
    options={"presolve": False})`` bit for bit.
    """
    m, l = cost.shape
    demand = q_mass * (p_mass.sum() / q_mass.sum())  # remove the residual imbalance exactly
    rhs = np.concatenate([p_mass, demand])
    # HiGHS's primal and dual feasibility tolerances are absolute (1e-7): on unit-scale
    # data it may leave a supply below 1e-7 unmoved, or stop at a plan up to 1e-7 per
    # unit mass above the optimum.  Exact power-of-two scaling puts the largest cost and
    # the largest mass in [2**19, 2**20), which shrinks both slacks to about 1e-13 of the
    # largest value while rounding (about 2**-32) stays well inside the tolerances.
    cost_exp, mass_exp = (20 - np.frexp(v.max())[1] for v in (cost, rhs))
    x = _transport_solver(solvers, m, l).solve(np.ldexp(cost.ravel(), cost_exp), np.ldexp(rhs, mass_exp))
    if x is None:
        raise RuntimeError("transport LP failed")
    return float(np.ldexp(np.sum(x.reshape(m, l) * cost), -mass_exp))


def _lid1_samples(a_points, a_table, b_points, b_table, solvers: dict) -> np.ndarray:
    """Transport distance at every sample between two weight tables, (k, N) each.

    The union support is bucketed once over the signed table [a; -b],
    and its pairwise distances are computed once.  Each sample then
    checks its balance, drops its weights at most ``ATOM_TOL``, splits
    the rest by sign and solves one transport LP on the matching block
    of the distance matrix.
    """
    # one contiguous row per sample, so each total is summed as a lone sample's weights are
    a_rows, b_rows = np.ascontiguousarray(a_table.T), np.ascontiguousarray(b_table.T)
    pts, table = _bucket(np.vstack([a_points, b_points]), np.concatenate([a_table, -b_table]))
    with np.errstate(invalid="ignore"):  # an infinite coordinate's self-distance; the LP rejects such data
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    vals = np.zeros(len(a_rows))
    for j, (a, b, d) in enumerate(zip(a_rows, b_rows, table.T)):
        a_total, b_total = float(a.sum()), float(b.sum())
        if abs(a_total - b_total) > BALANCE_TOL:
            raise ValueError(f"totals differ: {a_total} vs {b_total}")
        atoms = np.flatnonzero(np.abs(d) > ATOM_TOL)
        d = d[atoms]
        pos = d > 0
        p_mass, q_mass = d[pos], -d[~pos]
        if p_mass.sum() <= ATOM_TOL or q_mass.sum() <= ATOM_TOL:
            continue  # no mass to move: the value stays 0
        vals[j] = _min_cost_transport(dist[np.ix_(atoms[pos], atoms[~pos])], p_mass, q_mass, solvers)
    return vals


def lid1(m1: BalancedSignedMeasure, m2: BalancedSignedMeasure, solvers: dict | None = None) -> float:
    """Transport distance between equal-total atomic measures.

    Splits the difference into positive and negative parts and solves
    the balanced problem between them exactly; zero iff the measures
    coincide.  ``solvers`` holds the transport LPs by atom counts; pass
    one dict to share them across calls.  This is the one-sample case of
    ``lid1_path_norm``'s kernel.
    """
    return float(_lid1_samples(m1.points, m1.weights[:, None], m2.points, m2.weights[:, None],
                               {} if solvers is None else solvers)[0])


def lid1_dual_lp(m1: BalancedSignedMeasure, m2: BalancedSignedMeasure) -> float:
    """Best Lipschitz-potential objective, solved as an LP (verification route)."""
    from scipy.optimize import linprog

    pts, d = _merge_difference(m1, m2)
    k = len(d)
    if k == 0:
        return 0.0
    rows, rhs = [], []
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            row = np.zeros(k)
            row[a], row[b] = 1.0, -1.0
            rows.append(row)
            rhs.append(float(np.linalg.norm(pts[a] - pts[b])))
    res = linprog(c=-d, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(None, None)] * k, method="highs")
    if not res.success:
        raise RuntimeError(f"dual LP failed: {res.message}")
    return float(-res.fun)


def lid1_path_norm(A, B, p, solvers: dict | None = None) -> float:
    """Discrete L^p-in-time norm of the per-sample transport distance.

    The union support and its distance matrix are built once for the
    pair; the samples share one transport solver per atom-count pair,
    kept in ``solvers`` (a new dict when None).
    """
    if A.grid.n_samples != B.grid.n_samples:
        raise ValueError("time grids do not match")
    vals = _lid1_samples(A.points, A.weights, B.points, B.weights, {} if solvers is None else solvers)
    return lp_time_norm(vals, p)


def lower_bound(mu_plus: AtomicMeasurePath, mu_minus: AtomicMeasurePath,
                tau: TransportCost, p, lam: float) -> float:
    """Certified lower bound for the transport distance between the paths.

    Every feasible graph G with these boundaries and weights at most 1
    satisfies energy(G) >= rho(tau, 1) * ||Lid1(mu+, mu-)||_p
    + lam * ||Lid1(nu+, nu-)||_p, via tau(w) >= rho(tau, 1) w on [0, 1]
    and the Lipschitz-potential estimate TV(G[t]) >= Lid1 of the
    boundary difference.
    """
    terms = lower_bound_terms(mu_plus, mu_minus, tau, p, lam)
    if abs(terms["rho"] - 1.0) > 1e-12:
        warnings.warn(
            f"rho(tau, 1) = {terms['rho']:.6g} differs from 1; the scaling of the mass term "
            "is only certified through the subadditive bound",
            stacklevel=2,
        )
    return terms["lower_bound"]


def lower_bound_terms(mu_plus, mu_minus, tau, p, lam) -> dict:
    """The two L^p terms, rho(tau, 1) and the bound they give, without warnings."""
    _check_p(p)
    _check_lambda(lam)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r = rho(tau, 1.0)
        solvers = {}  # the transport LPs by atom counts, shared by both terms
        mass_term = lid1_path_norm(mu_plus, mu_minus, p, solvers)
        deriv_term = lid1_path_norm(derivative_path(mu_plus), derivative_path(mu_minus), p, solvers)
    return {
        "rho": r,
        "lid1_mass_term": mass_term,
        "lid1_derivative_term": deriv_term,
        "lower_bound": r * mass_term + lam * deriv_term,
    }

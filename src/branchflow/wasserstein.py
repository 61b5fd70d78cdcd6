"""Kantorovich--Rubinstein distance on balanced atomic measures and the
certified lower bound for the transport distance.

The primal route solves the balanced transport problem between the
positive and negative parts of the difference as a transportation LP on
the complete bipartite support graph, with HiGHS (``lp._SampleLP``).
The Lipschitz-potential dual of the same problem, solved through
``scipy.optimize.linprog``, serves as the verification route
(``lid1_dual_lp``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array

from .cost import TransportCost, rho
from .lp import _SampleLP
from .measures import AtomicMeasurePath, _bucket, derivative_path, lp_time_norm

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


def _min_cost_transport(p_pts, p_mass, q_pts, q_mass) -> float:
    """Exact balanced transport cost, as a transportation LP on HiGHS.

    The flow from source i to sink j is column i*l + j of the complete
    bipartite incidence; its rows fix each source's supply and each
    sink's demand.
    """
    m, l = len(p_mass), len(q_mass)
    if m == 0 or l == 0:
        return 0.0
    cost = np.linalg.norm(p_pts[:, None, :] - q_pts[None, :, :], axis=2)
    demand = q_mass * (p_mass.sum() / q_mass.sum())  # remove the residual imbalance exactly
    rows = np.column_stack([np.repeat(np.arange(m), l), m + np.tile(np.arange(l), m)])
    B = csc_array((np.ones(2 * m * l), rows.ravel(), np.arange(0, 2 * m * l + 1, 2)), shape=(m + l, m * l))
    rhs = np.concatenate([p_mass, demand])
    # HiGHS's primal and dual feasibility tolerances are absolute (1e-7): on unit-scale
    # data it may leave a supply below 1e-7 unmoved, or stop at a plan up to 1e-7 per
    # unit mass above the optimum.  Exact power-of-two scaling puts the largest cost and
    # the largest mass in [2**19, 2**20), which shrinks both slacks to about 1e-13 of the
    # largest value while rounding (about 2**-32) stays well inside the tolerances.
    cost_exp, mass_exp = (20 - np.frexp(v.max())[1] for v in (cost, rhs))
    x = _SampleLP(B, np.inf).solve(np.ldexp(cost.ravel(), cost_exp), np.ldexp(rhs, mass_exp))
    if x is None:
        raise RuntimeError("transport LP failed")
    return float(np.ldexp(np.sum(x.reshape(m, l) * cost), -mass_exp))


def lid1(m1: BalancedSignedMeasure, m2: BalancedSignedMeasure) -> float:
    """Transport distance between equal-total atomic measures.

    Splits the difference into positive and negative parts and solves
    the balanced problem between them exactly; zero iff the measures
    coincide.
    """
    if abs(m1.total() - m2.total()) > BALANCE_TOL:
        raise ValueError(f"totals differ: {m1.total()} vs {m2.total()}")
    pts, d = _merge_difference(m1, m2)
    if len(d) == 0:
        return 0.0
    pos = d > 0
    p_pts, p_mass = pts[pos], d[pos]
    q_pts, q_mass = pts[~pos], -d[~pos]
    if p_mass.sum() <= ATOM_TOL or q_mass.sum() <= ATOM_TOL:
        return 0.0
    return _min_cost_transport(p_pts, p_mass, q_pts, q_mass)


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


def lid1_path_norm(A, B, p) -> float:
    """Discrete L^p-in-time norm of the per-sample transport distance."""
    if A.grid.n_samples != B.grid.n_samples:
        raise ValueError("time grids do not match")
    n = A.grid.n_samples
    vals = np.zeros(n)
    for j in range(n):
        vals[j] = lid1(measure_at(A, j), measure_at(B, j))
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
    r = rho(tau, 1.0)
    if abs(r - 1.0) > 1e-12:
        warnings.warn(
            f"rho(tau, 1) = {r:.6g} differs from 1; the scaling of the mass term "
            "is only certified through the subadditive bound",
            stacklevel=2,
        )
    mass_term = lid1_path_norm(mu_plus, mu_minus, p)
    nu_plus = derivative_path(mu_plus)
    nu_minus = derivative_path(mu_minus)
    deriv_term = lid1_path_norm(nu_plus, nu_minus, p)
    return r * mass_term + lam * deriv_term


def lower_bound_terms(mu_plus, mu_minus, tau, p, lam) -> dict:
    """The two L^p terms and rho(tau, 1), for reporting."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r = rho(tau, 1.0)
        mass_term = lid1_path_norm(mu_plus, mu_minus, p)
        deriv_term = lid1_path_norm(derivative_path(mu_plus), derivative_path(mu_minus), p)
    return {
        "rho": r,
        "lid1_mass_term": mass_term,
        "lid1_derivative_term": deriv_term,
        "lower_bound": r * mass_term + lam * deriv_term,
    }

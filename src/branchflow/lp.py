"""HiGHS through SciPy's bundled bindings, shared by the program's LPs.

``_SampleLP`` solves the time-coupled weight LP of
``optimize.optimize_weights`` and the transportation LP behind
``wasserstein.lid1``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.sparse import csc_array


@functools.cache
def _bindings():
    """SciPy's HiGHS bindings, loaded with the first LP.

    Importing them loads all of ``scipy.optimize`` (about 27 MB resident),
    which the graph, energy and instance code never needs.
    """
    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:  # pragma: no cover - depends on the installed SciPy
        raise ImportError("branchflow needs SciPy >= 1.17.1, whose scipy.optimize._highspy._core "
                          "holds the HiGHS bindings the weight LPs and the transport solver use") from exc
    return _core


class _SampleLP:
    """min c.x subject to B x = b, 0 <= x <= ub for a fixed B, solved by HiGHS.

    One object holds one coupled weight LP per topology, or one transport
    LP.  Repeated solves share B and differ only in c and b (the starts
    and sweeps of one ``optimize_weights`` call), so the model and one
    HiGHS solver are built once per object, and each solve swaps in its
    cost and right-hand side and passes the model again.  Reuse is exact:
    ``passModel`` replaces the whole model and drops the previous basis
    and solution, so each solve starts from the state of a new solver,
    and HiGHS's dual simplex is deterministic for a fixed input, so the
    same (c, b) always gives the same x.  Options and the acceptance test
    are those of ``scipy.optimize.linprog(..., method="highs")``
    (``_linprog_highs`` and ``_check_result``), so each solve returns
    exactly what that call returns, without its per-call input cleaning
    and option checking.  Only this class knows the HiGHS format.
    """

    _TOL = math.sqrt(1e-9) * 10  # linprog's default tol, as _check_result widens it

    def __init__(self, B: np.ndarray, ub: float):
        _highs = _bindings()
        A = csc_array(B)
        nv, ne = B.shape
        lp = _highs.HighsLp()
        lp.num_col_ = ne
        lp.num_row_ = nv
        lp.a_matrix_.num_col_ = ne
        lp.a_matrix_.num_row_ = nv
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data
        lp.col_lower_ = np.zeros(ne)
        lp.col_upper_ = np.full(ne, ub)  # kHighsInf is inf, so an infinite bound passes as is
        options = _highs.HighsOptions()  # those _linprog_highs sets for method="highs"
        options.presolve = "on"
        options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.highs_debug_level = 0
        options.log_to_console = False
        options.output_flag = False
        self._highs = _highs._Highs()
        self._highs.passOptions(options)
        self._lp, self._ub = lp, ub

    def solve(self, cost, rhs):
        """Optimal x for one (c, b), or None where linprog reports failure; one HiGHS run."""
        cost = np.asarray(cost, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        if not (np.isfinite(cost).all() and np.isfinite(rhs).all()):  # linprog raises here too
            raise ValueError("LP cost and right-hand side must be finite")
        self._lp.col_cost_ = cost
        self._lp.row_lower_ = rhs
        self._lp.row_upper_ = rhs
        h, _highs = self._highs, _bindings()
        if (h.passModel(self._lp) == _highs.HighsStatus.kError or h.run() == _highs.HighsStatus.kError
                or h.getModelStatus() != _highs.HighsModelStatus.kOptimal):
            return None
        sol = h.getSolution()
        x = np.array(sol.col_value)
        con = rhs - np.array(sol.row_value)
        tol = self._TOL  # _check_result: no NaN, bounds and equalities within tol
        if (np.isnan(x).any() or math.isnan(h.getInfo().objective_function_value) or np.isnan(con).any()
                or not np.all((x >= -tol) & (x <= self._ub + tol)) or (np.abs(con) > tol).any()):
            return None
        return x

"""HiGHS through SciPy's bundled bindings, shared by the program's LPs.

``_SampleLP`` solves the time-coupled weight LP of
``optimize.optimize_weights`` and the transportation LP behind
``wasserstein.lid1``.  The weight LP runs with HiGHS's presolve on, as
``linprog`` does by default: its optimal vertex is the witness, so it
must be exactly ``linprog``'s.  The transport LP runs with presolve off:
only its optimal value is used, and that value is unique, and on these
small dense LPs presolve costs more time than it saves.

The builders hand their constraint matrices over as (row, col, value)
triplets; only this module knows HiGHS's column-wise format.  Each
thread keeps one HiGHS solver per presolve setting, and every LP object
of that thread runs on it.  No module of the package imports
``scipy.sparse``, and none imports ``scipy.optimize``: the first LP loads
HiGHS's extension module alone, under its canonical name (``_bindings``).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading

import numpy as np


_CORE = "scipy.optimize._highspy._core"  # canonical name of SciPy's HiGHS extension module
_load_lock = threading.Lock()


@functools.cache
def _bindings():
    """SciPy's HiGHS extension module, loaded by itself with the first LP.

    ``from scipy.optimize._highspy import _core`` would first import the
    parent package ``scipy.optimize`` and with it ``scipy.sparse``,
    ``scipy.linalg``, ``scipy.special``, ``scipy.spatial`` and ``scipy.fft``
    (about 45 MB resident and 0.5 s), none of which an LP here uses.  So
    the extension file is loaded alone, under its canonical name: ``_core``
    is a single-phase pybind11 module, which cannot be initialised a second
    time under another name, and under this one a later ``import
    scipy.optimize`` reuses it.  If that import came first, the module it
    loaded is returned.  The lock stands in for the import lock, as two
    threads may start their first LP at once.
    """
    with _load_lock:
        if _CORE in sys.modules:
            return sys.modules[_CORE]
        import scipy

        folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
        paths = [os.path.join(folder, "_core" + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:  # pragma: no cover - depends on the installed SciPy
            raise ImportError("branchflow needs SciPy >= 1.17.1, whose scipy.optimize._highspy._core "
                              "holds the HiGHS bindings the weight LPs and the transport solver use")
        spec = importlib.util.spec_from_file_location(_CORE, path)
        core = importlib.util.module_from_spec(spec)
        sys.modules[_CORE] = core
        spec.loader.exec_module(core)
        return core


_local = threading.local()  # this thread's HiGHS solvers, by presolve setting


def _solver(presolve: bool):
    """This thread's HiGHS solver for one presolve setting, built on first use."""
    solvers = _local.__dict__.setdefault("by_presolve", {})
    if presolve not in solvers:
        _highs = _bindings()
        options = _highs.HighsOptions()  # those _linprog_highs sets for method="highs"
        options.presolve = "on" if presolve else "off"  # linprog's bool, as _highs_wrapper maps it
        options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.highs_debug_level = 0
        options.log_to_console = False
        options.output_flag = False
        solvers[presolve] = _highs._Highs()
        solvers[presolve].passOptions(options)
    return solvers[presolve]


class _SampleLP:
    """min c.x subject to A x = b, 0 <= x <= ub for a fixed A, solved by HiGHS.

    A (of the given shape) arrives as (row, col, value) triplets in any
    order.  They are sorted column by column, rows ascending, and the
    entries on one (row, col) are summed into one stored entry, as
    ``scipy.sparse``'s ``tocsc`` does (a self loop's +1 and -1 become a
    stored 0).  One object holds one weight LP per topology, or one
    transport LP per pair of atom counts.  Each solve swaps in its cost
    and right-hand side and passes the whole model to the calling
    thread's solver for its presolve setting.  That is exact:
    ``passModel`` drops the previous basis and solution, and HiGHS's dual
    simplex is deterministic for a fixed input, so the same (c, b) gives
    the same x whatever ran on the solver before.  Options and the
    acceptance test are those of ``scipy.optimize.linprog(...,
    method="highs", options={"presolve": presolve})`` (``_linprog_highs``
    and ``_check_result``), so each solve returns exactly what that call
    returns, without its input cleaning and option checking.
    """

    _TOL = math.sqrt(1e-9) * 10  # linprog's default tol, as _check_result widens it

    def __init__(self, rows, cols, values, shape: tuple[int, int], ub: float, presolve: bool = True):
        _highs = _bindings()
        nv, ne = shape
        key, at = np.unique(np.asarray(cols) * nv + np.asarray(rows), return_inverse=True)  # by column, then row
        cols, rows = np.divmod(key, nv)
        lp = _highs.HighsLp()
        lp.num_col_ = ne
        lp.num_row_ = nv
        lp.a_matrix_.num_col_ = ne
        lp.a_matrix_.num_row_ = nv
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(ne + 1))
        lp.a_matrix_.index_ = rows
        lp.a_matrix_.value_ = np.bincount(at, weights=values, minlength=len(key))
        lp.col_lower_ = np.zeros(ne)
        lp.col_upper_ = np.full(ne, ub)  # kHighsInf is inf, so an infinite bound passes as is
        self._lp, self._ub, self._presolve = lp, ub, presolve

    def solve(self, cost, rhs):
        """Optimal x for one (c, b), or None where linprog reports failure; one HiGHS run.

        The acceptance test is ``_check_result``'s: no NaN in x, in the
        objective or in the equality residual, bounds and equalities met
        within tol.  It reads the objective through ``getObjectiveValue``
        (the value ``getInfo`` reports, without building the whole info
        record) and tests x and the residual by their extremes: a NaN
        fails each comparison, as the elementwise test fails it.
        """
        cost = np.asarray(cost, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        if not (np.isfinite(cost).all() and np.isfinite(rhs).all()):  # linprog raises here too
            raise ValueError("LP cost and right-hand side must be finite")
        self._lp.col_cost_ = cost
        self._lp.row_lower_ = rhs
        self._lp.row_upper_ = rhs
        h, _highs = _solver(self._presolve), _bindings()
        if (h.passModel(self._lp) == _highs.HighsStatus.kError or h.run() == _highs.HighsStatus.kError
                or h.getModelStatus() != _highs.HighsModelStatus.kOptimal):
            return None
        sol = h.getSolution()
        x = np.array(sol.col_value)
        con = rhs - np.array(sol.row_value)
        tol = self._TOL
        if (math.isnan(h.getObjectiveValue())
                or not (x.min(initial=math.inf) >= -tol and x.max(initial=-math.inf) <= self._ub + tol)
                or not (con.min(initial=0.0) >= -tol and con.max(initial=0.0) <= tol)):
            return None
        return x

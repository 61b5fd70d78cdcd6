"""Transportation costs: subadditive, nondecreasing cost functions.

A cost maps transported mass to a per-unit-length price.  Two kinds are
supported: power costs ``s -> s**alpha`` with ``alpha`` in (0, 1], and
tabulated costs given as strictly increasing sample points with
piecewise-linear interpolation (constant beyond the last sample).
Tabulated costs may carry a concave majorant used for admissibility
checks; for power costs the cost itself serves as its own majorant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import _freeze, _require_finite

SUBADDITIVITY_TOL = 1e-12

# deterministic lattice used to validate subadditivity at construction
_LATTICE = np.geomspace(1e-6, 1.0, 64)


@dataclass(frozen=True)
class TransportCost:
    """A validated transportation cost.

    ``kind`` is "power" or "tabulated".  Power costs store ``alpha``;
    tabulated costs store ``samples`` as an (m, 2) array of (s, value)
    pairs with strictly increasing s starting at (0, 0).  ``witness`` is
    an optional concave majorant, stored as an (m, 2) sample table; for
    power costs it is implicit (the cost itself).

    Two costs are equal when their kind, ``alpha`` and tables are equal
    by value, and the hash agrees with that, so tabulated costs compare
    and hash like power costs.
    """

    kind: str
    alpha: float | None = None
    samples: np.ndarray | None = None
    witness: np.ndarray | None = field(default=None, repr=False)
    # check_admissible's (ok, diag) by dimension; the cost is frozen, so the answer is too
    _admissible: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("power", "tabulated"):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if self.samples is not None:
            object.__setattr__(self, "samples", _freeze(self.samples))
        if self.witness is not None:
            object.__setattr__(self, "witness", _freeze(self.witness))

    def __eq__(self, other):
        if not isinstance(other, TransportCost):
            return NotImplemented
        return (self.kind == other.kind and self.alpha == other.alpha
                and _same_table(self.samples, other.samples) and _same_table(self.witness, other.witness))

    def __hash__(self):
        return hash((self.kind, self.alpha, _table_key(self.samples), _table_key(self.witness)))

    def __call__(self, s):
        return eval_cost(self, s)

    def has_witness(self) -> bool:
        return self.kind == "power" or self.witness is not None

    def eval_witness(self, s):
        """Evaluate the concave majorant beta at s (array friendly)."""
        if self.kind == "power":
            return eval_cost(self, s)
        if self.witness is None:
            raise ValueError("no admissibility witness")
        return _interp_table(self.witness, s)


def _same_table(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


def _table_key(table: np.ndarray | None):
    # Python floats hash -0.0 like 0.0, which np.array_equal calls equal
    return None if table is None else (table.shape, tuple(table.ravel().tolist()))


def _interp_table(table: np.ndarray, s):
    # linear interpolation, constant extension beyond the last sample
    return np.interp(s, table[:, 0], table[:, 1])


def power_cost(alpha: float) -> TransportCost:
    """Cost s**alpha for alpha in (0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"power exponent must lie in (0, 1], got {alpha}")
    return TransportCost(kind="power", alpha=float(alpha))


def tabulated_cost(samples, witness=None) -> TransportCost:
    """Piecewise-linear cost from (s, value) pairs.

    The table must start at (0, 0), have strictly increasing s and
    nondecreasing values, and pass a subadditivity check on a fixed
    lattice of sample pairs.  ``witness`` is an optional majorant table
    of the same shape.
    """
    table = np.asarray(samples, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
        raise ValueError("tabulated cost needs an (m, 2) table with m >= 2")
    _require_finite(table, "cost sample")
    s, v = table[:, 0], table[:, 1]
    if s[0] != 0.0 or v[0] != 0.0:
        raise ValueError("tabulated cost must start at (0, 0)")
    if np.any(np.diff(s) <= 0):
        raise ValueError("tabulated cost abscissae must be strictly increasing")
    if np.any(v[1:] <= 0):
        raise ValueError("cost must be positive for positive mass")
    if np.any(np.diff(v) < 0):
        raise ValueError("cost must be nondecreasing")

    wtab = None
    if witness is not None:
        wtab = np.asarray(witness, dtype=float)
        if wtab.ndim != 2 or wtab.shape[1] != 2:
            raise ValueError("witness must be an (m, 2) table")
        _require_finite(wtab, "witness sample")
        if np.any(np.diff(wtab[:, 0]) <= 0):
            raise ValueError("witness abscissae must be strictly increasing")

    cost = TransportCost(kind="tabulated", samples=table, witness=wtab)
    _check_subadditive(cost)
    if wtab is not None:
        _check_majorant(cost)
    return cost


def _check_subadditive(tau: TransportCost):
    grid = _LATTICE
    f = eval_cost(tau, grid)
    pair_sum = grid[:, None] + grid[None, :]
    lhs = eval_cost(tau, pair_sum)
    rhs = f[:, None] + f[None, :]
    worst = float(np.max(lhs - rhs))
    if worst > SUBADDITIVITY_TOL:
        raise ValueError(f"cost violates subadditivity by {worst:.3e} on the test lattice")


def _check_majorant(tau: TransportCost):
    grid = np.union1d(tau.samples[:, 0], tau.witness[:, 0])
    if np.any(eval_cost(tau, grid) > tau.eval_witness(grid) + 1e-12):
        raise ValueError("witness does not dominate the cost on the sample lattice")


def eval_cost(tau: TransportCost, s):
    """Evaluate tau at mass s >= 0 (scalar or array)."""
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise ValueError("cost is only defined for nonnegative mass")
    if tau.kind == "power":
        out = np.power(arr, tau.alpha)
    else:
        out = _interp_table(tau.samples, arr)
    if np.ndim(s) == 0:
        return float(out)
    return out


def check_admissible(tau: TransportCost, n: int) -> tuple[bool, str]:
    """Decide whether the integral s**(1/n - 2) * beta(s) converges near 0.

    Power costs use the closed-form criterion alpha > 1 - 1/n.  Tabulated
    costs need a witness; convergence is probed on geometric shells down
    to 1e-12, declaring divergence when shell contributions stop
    decaying (the slope of beta near 0 is too shallow).  The answer is
    computed once per cost and dimension and kept on the cost.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if n not in tau._admissible:
        tau._admissible[n] = _decide_admissible(tau, n)
    return tau._admissible[n]


def _decide_admissible(tau: TransportCost, n: int) -> tuple[bool, str]:
    if tau.kind == "power":
        threshold = 1.0 - 1.0 / n
        ok = tau.alpha > threshold
        return ok, (
            f"power cost alpha={tau.alpha} vs threshold 1-1/n={threshold}: "
            f"{'admissible' if ok else 'not admissible'}"
        )
    if tau.witness is None:
        raise ValueError("no admissibility witness")
    exponent = 1.0 / n - 2.0
    his = 0.5 ** np.arange(40)  # the shells [hi/2, hi] for 1 >= hi > 1e-12, integrated at once
    grids = np.linspace(his / 2.0, his, 33, axis=1)
    shells = np.trapezoid(grids**exponent * tau.eval_witness(grids), grids, axis=1)
    total = 0.0
    prev_shell = math.inf
    nondecaying = 0
    for hi, shell in zip(his.tolist(), shells.tolist()):
        total += shell
        if shell >= prev_shell * 0.999:
            nondecaying += 1
        else:
            nondecaying = 0
        if nondecaying >= 4:
            return False, (
                f"shell integrals stopped decaying near s={hi:.2e}; "
                "integral diverges (witness slope too shallow at 0)"
            )
        prev_shell = shell
    return True, f"shell integration converged, integral ~ {total:.6g}"


def rho(tau: TransportCost, m: float) -> float:
    """inf of tau(w)/w over w in [m/2, m]; gives tau(w) >= rho*w on [0, m]."""
    if m <= 0:
        raise ValueError("mass bound must be positive")
    if tau.kind == "power":
        # tau(w)/w = w**(alpha-1) is nonincreasing, so the inf sits at w = m
        return float(m ** (tau.alpha - 1.0))
    # tau(w)/w = a/w + b is monotone on each linear piece (and on the constant
    # tail), so the inf sits at m/2, at m, or at a sample abscissa between them
    xs = tau.samples[:, 0]
    w = np.concatenate([[m / 2.0, m], xs[(xs > m / 2.0) & (xs < m)]])
    val = float(np.min(eval_cost(tau, w) / w))
    if val <= 0:
        raise ValueError("cost ratio vanished on [m/2, m]; cost is not positive there")
    return val

"""Periodic time-sampled atomic measure paths and their multiscale projections.

Weights live on a uniform periodic grid t_j = j/N.  All measure paths keep
their support points fixed in time; only the weights move, and
``time_derivative`` is their periodic forward difference.  The dyadic
lattice (``DyadicLevelSpec``) tiles the half-open box [x0 - 2s, x0 + 2s)^n
with level-k cells of side s * 2**(2-k); the standard lattice (x0 = 0,
s = 1) tiles [-2, 2)^n, and instances are expected to live well inside
[-1, 1)^n so the per-level cube counts match the certified energy bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DOMAIN_LO = -2.0
DOMAIN_HI = 2.0
MASS_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform periodic grid with N samples t_j = j/N (t_N wraps to t_0)."""

    n_samples: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("time grid needs at least 2 samples")

    @property
    def dt(self) -> float:
        return 1.0 / self.n_samples

    @property
    def samples(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.n_samples


def _freeze(arr, dtype=float) -> np.ndarray:
    """A read-only contiguous copy of ``arr``; the caller's array stays writable."""
    arr = np.array(arr, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def _require_finite(table: np.ndarray, row: str, weights: bool = False) -> None:
    """Raise ValueError naming the first non-finite entry of a 2-D table.

    ``row`` names what a row is ("atom", "edge", ...).  A weight table's
    entry is named by row and sample, a coordinate table's by its row.
    """
    if np.isfinite(table).all():
        return
    i, j = (int(k) for k in np.argwhere(~np.isfinite(table))[0])
    if weights:
        raise ValueError(f"non-finite weight {table[i, j]} for {row} {i} at sample {j}")
    raise ValueError(f"non-finite coordinate for {row} {i}: {table[i].tolist()}")


@dataclass(frozen=True)
class AtomicMeasurePath:
    """Fixed atoms with nonnegative periodic weight trajectories summing to 1."""

    points: np.ndarray  # (k, n)
    weights: np.ndarray  # (k, N)
    grid: TimeGrid

    def __post_init__(self):
        object.__setattr__(self, "points", _freeze(np.atleast_2d(self.points)))
        object.__setattr__(self, "weights", _freeze(np.atleast_2d(self.weights)))

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    def support(self) -> set[tuple]:
        return {tuple(p) for p in self.points}

    def shifted(self, offset) -> "AtomicMeasurePath":
        return AtomicMeasurePath(self.points + np.asarray(offset, dtype=float), self.weights, self.grid)


@dataclass(frozen=True)
class SignedAtomicPath:
    """Same shape as AtomicMeasurePath but weights are signed and sum to 0."""

    points: np.ndarray
    weights: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        object.__setattr__(self, "points", _freeze(np.atleast_2d(self.points)))
        object.__setattr__(self, "weights", _freeze(np.atleast_2d(self.weights)))
        totals = self.weights.sum(axis=0)
        if np.any(np.abs(totals) > MASS_TOL):
            j = int(np.argmax(np.abs(totals)))
            raise ValueError(f"signed path totals must vanish; got {totals[j]:.3e} at sample {j}")


def make_atomic_path(points, weight_table, grid: TimeGrid) -> AtomicMeasurePath:
    """Validate and build an atomic probability path.

    Rejects negative weights, duplicate support points, and per-sample
    totals off by more than ``MASS_TOL``; smaller deviations are
    renormalized away.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.atleast_2d(np.asarray(weight_table, dtype=float))
    if pts.shape[0] != w.shape[0]:
        raise ValueError(f"{pts.shape[0]} points but {w.shape[0]} weight rows")
    if w.shape[1] != grid.n_samples:
        raise ValueError(f"weight table has {w.shape[1]} columns, grid has {grid.n_samples}")
    _require_finite(pts, "atom")
    _require_finite(w, "atom", weights=True)
    if np.any(w < 0):
        i, j = np.unravel_index(int(np.argmin(w)), w.shape)
        raise ValueError(f"negative weight {w[i, j]:.3e} for atom {i} at sample {j}")
    if len({tuple(p) for p in pts}) != pts.shape[0]:
        raise ValueError("support points must be pairwise distinct")
    totals = w.sum(axis=0)
    dev = np.abs(totals - 1.0)
    if np.any(dev > MASS_TOL):
        j = int(np.argmax(dev))
        raise ValueError(f"mass condition fails at sample t_{j}: total {totals[j]!r}")
    return AtomicMeasurePath(pts, w / totals, grid)


def time_derivative(weights: np.ndarray) -> np.ndarray:
    """Periodic forward difference N * (w(t_{j+1}) - w(t_j)) along the last (time) axis."""
    return weights.shape[-1] * (np.roll(weights, -1, axis=-1) - weights)


def derivative_path(a: AtomicMeasurePath) -> SignedAtomicPath:
    """Time derivative of the weights: nu_i(t_j) = N * (a_i(t_{j+1}) - a_i(t_j))."""
    return SignedAtomicPath(a.points, time_derivative(a.weights), a.grid)


def lp_time_norms(values, p) -> np.ndarray:
    """Discrete L^p-in-time norm of each row of a (rows, N) array; max for p = inf.

    The root is taken per value with the scalar power: the array power
    rounds differently, and the batched and one-row norms must agree
    bitwise.
    """
    vals = np.abs(np.asarray(values, dtype=float))
    if math.isinf(p):
        return vals.max(axis=-1, initial=0.0)
    # np.mean's arithmetic without its call overhead: lp_time_norm runs in the weight-LP loop
    means = np.add.reduce(vals ** p, axis=-1) / vals.shape[-1]
    return np.array([m ** (1.0 / p) for m in means.tolist()])


def lp_time_norm(values, p) -> float:
    """Discrete L^p-in-time norm (left endpoint rule); max for p = inf."""
    return float(lp_time_norms(np.reshape(values, (1, -1)), p)[0])


def sobolev_seminorm(a: AtomicMeasurePath, p) -> float:
    """Discrete L^p norm of the total variation of the weight derivative."""
    if not math.isinf(p) and p <= 1:
        raise ValueError("seminorm requires p > 1")
    nu = derivative_path(a)
    tv = np.abs(nu.weights).sum(axis=0)
    return lp_time_norm(tv, p)


# ---------------------------------------------------------------------------
# dyadic cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicLevelSpec:
    """Root and base scale of the lattice; defaults give [-2, 2)^n."""

    root: np.ndarray | float = 0.0
    scale: float = 1.0

    def origin(self, n: int) -> np.ndarray:
        r = np.asarray(self.root, dtype=float)
        if r.ndim == 0:
            return np.full(n, float(r))
        return r

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("base scale must be positive")


STANDARD = DyadicLevelSpec()


def cell_side(k: int, spec: DyadicLevelSpec = STANDARD) -> float:
    """Side length of a level-k cell."""
    return spec.scale * 2.0 ** (2 - k)


def cell_index(points: np.ndarray, k: int, spec: DyadicLevelSpec = STANDARD) -> np.ndarray:
    """Integer cell index per axis for each point; cells are half open."""
    lo = spec.origin(points.shape[1]) - 2.0 * spec.scale
    idx = np.floor((points - lo) / cell_side(k, spec)).astype(int)
    if np.any(idx < 0) or np.any(idx >= 2**k):
        raise ValueError("support escapes the level-0 dyadic cell")
    return idx


def cell_center(idx, k: int, spec: DyadicLevelSpec = STANDARD) -> np.ndarray:
    """Center of the level-k cell with the given index (or of each row of indices)."""
    idx = np.asarray(idx, dtype=float)
    lo = spec.origin(idx.shape[-1]) - 2.0 * spec.scale
    return lo + cell_side(k, spec) * (idx + 0.5)


def _bucket(keys, rows):
    """Sum ``rows`` over equal ``keys`` rows: (distinct keys in lexicographic order, sums)."""
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros((len(uniq),) + rows.shape[1:])
    np.add.at(sums, inverse.ravel(), rows)
    return uniq, sums


def _aggregate(points, weights, k):
    """Sum weight rows by level-k cell; returns (centers, table) sorted."""
    keys, table = _bucket(cell_index(points, k), weights)
    return cell_center(keys, k), table


def dyadic_project(a: AtomicMeasurePath, k: int) -> AtomicMeasurePath:
    """Aggregate atoms onto level-k cell centers; mass preserved per sample."""
    if k < 1:
        raise ValueError("projection level must be >= 1")
    centers, table = _aggregate(a.points, a.weights, k)
    keep = np.any(table > 0, axis=1)
    return AtomicMeasurePath(centers[keep], table[keep], a.grid)


def dyadic_project_signed(nu: SignedAtomicPath, k: int) -> SignedAtomicPath:
    """Same aggregation for signed paths (used to check commutation)."""
    centers, table = _aggregate(nu.points, nu.weights, k)
    return SignedAtomicPath(centers, table, nu.grid)


# ---------------------------------------------------------------------------
# mollified projection
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _bump_norm(n: int) -> float:
    """Integral of exp(-1/(1-|x|^2)) over the unit ball in R^n."""
    nodes, wts = np.polynomial.legendre.leggauss(16)
    total = 0.0
    panels = 64
    for i in range(panels):
        lo, hi = i / panels, (i + 1) / panels
        r = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        f = r ** (n - 1) * np.exp(-1.0 / (1.0 - r**2))
        total += 0.5 * (hi - lo) * float(f @ wts)
    surface = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return surface * total


def bump(x: np.ndarray, n: int) -> np.ndarray:
    """Normalized radial bump supported on the closed unit ball."""
    r2 = np.sum(np.atleast_2d(x) ** 2, axis=-1)
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out / _bump_norm(n)


def _box_integral(lo, hi, center, eps, n, order=8, panels=4):
    """Integral of the eps-scaled bump centered at ``center`` over a box.

    Composite tensorized Gauss--Legendre; panel count doubles until the
    value is stable to 1e-9 relative.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        return 0.0
    nodes, wts = np.polynomial.legendre.leggauss(order)

    def compute(m):
        axes_nodes, axes_wts = [], []
        for d in range(n):
            edges = np.linspace(lo[d], hi[d], m + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1] - edges[0])
            pts = (mid[:, None] + half * nodes[None, :]).ravel()
            ws = np.tile(half * wts, m)
            axes_nodes.append(pts)
            axes_wts.append(ws)
        grids = np.meshgrid(*axes_nodes, indexing="ij")
        stacked = np.stack([g.ravel() for g in grids], axis=-1)
        wgrids = np.meshgrid(*axes_wts, indexing="ij")
        wprod = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
        vals = bump((stacked - center) / eps, n) / eps**n
        return float(vals @ wprod)

    val = compute(panels)
    while panels < 32:
        panels *= 2
        refined = compute(panels)
        if abs(refined - val) <= 1e-9 * max(abs(refined), 1e-12):
            return refined
        val = refined
    return val


def mollified_dyadic_project(a: AtomicMeasurePath, k: int, eps: float):
    """Level-k projection of the mollified path.

    Each atom spreads over the level-k cells met by its eps-ball with
    mass given by the bump integral over the cell.  Per-sample totals
    are renormalized to 1; the factors are returned alongside the path.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("mollification radius must lie in (0, 1)")
    if np.any(a.points - eps < DOMAIN_LO) or np.any(a.points + eps >= DOMAIN_HI):
        raise ValueError("eps-ball of a support point escapes [-2, 2)^n")
    n = a.dimension
    h = cell_side(k)
    keys, rows = [], []
    for i in range(a.n_atoms):
        x = a.points[i]
        lo_idx = np.floor((x - eps - DOMAIN_LO) / h).astype(int)
        hi_idx = np.floor((x + eps - DOMAIN_LO) / h).astype(int)
        ranges = [range(lo_idx[d], hi_idx[d] + 1) for d in range(n)]
        for key in _iter_indices(ranges):
            cell_lo = DOMAIN_LO + h * np.array(key, dtype=float)
            cell_hi = cell_lo + h
            box_lo = np.maximum(cell_lo, x - eps)
            box_hi = np.minimum(cell_hi, x + eps)
            mass = _box_integral(box_lo, box_hi, x, eps, n)
            if mass <= 0.0:
                continue
            keys.append(key)
            rows.append(mass * a.weights[i])
    keys, table = _bucket(np.array(keys), np.array(rows))
    keep = np.any(table > 0, axis=1)
    centers, table = cell_center(keys[keep], k), table[keep]
    totals = table.sum(axis=0)
    factors = 1.0 / totals
    return AtomicMeasurePath(centers, table * factors, a.grid), factors


def _iter_indices(ranges):
    if len(ranges) == 1:
        for i in ranges[0]:
            yield (i,)
        return
    for i in ranges[0]:
        for rest in _iter_indices(ranges[1:]):
            yield (i,) + rest

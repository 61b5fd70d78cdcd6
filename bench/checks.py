"""Output checks, run after the clock stops.

Each check returns the names of the properties an output fails (empty
when it is correct) and the relative gap of the bracket the workload
computed.  The tolerances are the ones the program itself promises;
they are never loosened to make a run pass.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from branchflow import graph, wasserstein
from branchflow.measures import derivative_path

KIRCHHOFF_TOL = 1e-6  # the CLI's --tol-kirchhoff default
WEIGHT_CAP = 1.0 + 1e-9  # the lower-bound certificate assumes weights <= 1
SEARCH_CYCLE_CAP = 512  # the cap local_search itself applies to witnesses
ENERGY_TOL = 1e-9
SANDWICH_TOL = 1e-6
DUAL_TOL = 1e-7
ELIMINATION_BALANCE_TOL = 1e-9  # eliminate_cycles' own balance tolerance
MASS_SAMPLES_CHECKED = 2
DERIVATIVE_SAMPLES_CHECKED = 1


def _relative_gap(lower: float, upper: float) -> float:
    return (upper - lower) / upper if upper else 0.0


def check_search(item, out) -> tuple[list[str], float]:
    inst, report = out
    failed = []
    witness = report.witness
    if witness.n_edges:
        try:
            balanced = graph.kirchhoff_residual(witness, inst.mu_plus, inst.mu_minus) <= KIRCHHOFF_TOL
        except ValueError:  # a boundary atom is missing from the witness
            balanced = False
        if not balanced:
            failed.append("witness_balance")
        if float(witness.weights.max()) > WEIGHT_CAP:
            failed.append("max_edge_weight")
        if not graph.is_never_cyclic(witness, cap=SEARCH_CYCLE_CAP):
            failed.append("never_cyclic")
        recomputed = graph.energy(witness, inst.cost, inst.p, inst.lam, cycle_cap=SEARCH_CYCLE_CAP).total
        if not abs(recomputed - report.upper) <= ENERGY_TOL:
            failed.append("energy_matches_upper")
    elif report.upper != 0.0:
        failed.append("energy_matches_upper")
    if not report.lower <= report.upper + SANDWICH_TOL:
        failed.append("lower_le_upper")
    return failed, _relative_gap(report.lower, report.upper)


def _checked_samples(rng, n_samples: int, count: int) -> list[int]:
    return sorted(int(j) for j in rng.choice(n_samples, size=count, replace=False))


def check_lower_dense(item, out) -> tuple[list[str], float]:
    """lid1 against the dual LP on a seeded subset of samples; all values finite and >= 0."""
    inst, lower, uppers = out
    failed = []
    values = [lower, *uppers]
    rng = np.random.default_rng(item.seed)
    n = inst.grid.n_samples
    pairs = [(inst.mu_plus, inst.mu_minus, j) for j in _checked_samples(rng, n, MASS_SAMPLES_CHECKED)]
    nu_plus, nu_minus = derivative_path(inst.mu_plus), derivative_path(inst.mu_minus)
    pairs += [(nu_plus, nu_minus, j) for j in _checked_samples(rng, n, DERIVATIVE_SAMPLES_CHECKED)]
    for a, b, j in pairs:
        m1, m2 = wasserstein.measure_at(a, j), wasserstein.measure_at(b, j)
        primal = wasserstein.lid1(m1, m2)
        values.append(primal)
        if not abs(primal - wasserstein.lid1_dual_lp(m1, m2)) <= DUAL_TOL:
            failed.append("lid1_equals_dual_lp")
            break
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        failed.append("finite_nonnegative")
    return failed, _relative_gap(lower, min(uppers))


def _lp_norm(rows: np.ndarray, p) -> np.ndarray:
    """Per-row discrete L^p-in-time norm, mean over samples (max for p = inf)."""
    if math.isinf(p):
        return np.abs(rows).max(axis=-1)
    return np.mean(np.abs(rows) ** p, axis=-1) ** (1.0 / p)


def bracket_value(dec, lengths: np.ndarray, cycle_lengths: np.ndarray, p) -> float:
    """Derivative norm of the residual plus that of every extracted cycle flow."""
    n = dec.residual.shape[1]
    residual_rate = n * (np.roll(dec.residual, -1, axis=1) - dec.residual)
    value = float(_lp_norm(lengths @ np.abs(residual_rate), p))
    if dec.order:
        cycle_rate = n * (np.roll(dec.extracted, -1, axis=1) - dec.extracted)
        value += float(_lp_norm(np.abs(cycle_rate) * cycle_lengths[list(dec.order), None], p).sum())
    return value


def brute_force_derivative_term(G, p) -> float:
    """Worst case of the bracket over every cycle-extraction order."""
    cycles = graph.enumerate_cycles(G)
    lengths = G.lengths
    cycle_lengths = np.array([lengths[list(c)].sum() for c in cycles])
    return max(bracket_value(graph.decompose(G, order, cycles), lengths, cycle_lengths, p)
               for order in itertools.permutations(range(len(cycles))))


def check_energy_cyclic(item, out) -> tuple[list[str], float]:
    inst, report, eliminated = out
    failed = []
    if not abs(brute_force_derivative_term(inst.graph, inst.p) - report.derivative_term) <= ENERGY_TOL:
        failed.append("derivative_term_brute_force")
    if not report.exact_flag:
        failed.append("exact_flag")
    if graph.kirchhoff_residual(eliminated, inst.mu_plus, inst.mu_minus) > ELIMINATION_BALANCE_TOL:
        failed.append("eliminated_balance")
    if not graph.is_never_cyclic(eliminated):
        failed.append("eliminated_never_cyclic")
    after = graph.energy(eliminated, inst.cost, inst.p, inst.lam).total
    if not after <= report.total + ENERGY_TOL:
        failed.append("eliminated_energy_not_larger")
    return failed, _relative_gap(after, report.total)


CHECKS = {
    "search": check_search,
    "lower_dense": check_lower_dense,
    "energy_cyclic": check_energy_cyclic,
}

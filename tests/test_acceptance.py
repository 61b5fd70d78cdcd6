"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 7 (branching on the unit square) checks the search against a
brute-force junction oracle; it asks for a 1% gain over the two vertical
edges exactly when the oracle finds one.
"""

import itertools
import math
import time

import numpy as np
import pytest

from branchflow import (
    OptimizerConfig,
    TimeGrid,
    band_flux,
    band_flux_bounds,
    connector,
    decompose,
    derivative_lp_norm,
    eliminate_cycles,
    energy,
    enumerate_cycles,
    holder_check,
    kirchhoff_residual,
    lid1,
    lid1_path_norm,
    local_search,
    lower_bound,
    m_tau_p,
    make_atomic_path,
    make_graph,
    mollified_dyadic_project,
    power_cost,
)
from branchflow.graph import is_never_cyclic
from branchflow.measures import cell_center, cell_index, derivative_path
from branchflow.wasserstein import BalancedSignedMeasure, lid1_dual_lp

from conftest import random_graph, random_path


def _criterion(num, description, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"\n[criterion {num:02d}] {status} - {description}{detail}")
    assert condition, f"criterion {num}: {description}{detail}"


SEARCH_CFG = OptimizerConfig(k_max=1, iterations=6, seed=0, multi_start=1, sweeps=2,
                             subgradient_steps=0)


# ---------------------------------------------------------------------------
# criteria 1 and 2: band flux bounds
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def band_sweep():
    alpha = {1: 0.6, 2: 0.8}
    worst_mass = -math.inf
    worst_deriv = -math.inf
    t0 = time.monotonic()
    for n in (1, 2):
        tau = power_cost(alpha[n])
        for seed in range(100):
            rng = np.random.default_rng(seed)
            for n_samples in (4, 16):
                mu = random_path(rng, n=n, atoms=int(rng.integers(2, 5)), n_samples=n_samples)
                for ell in (2, 3, 4):
                    G = band_flux(mu, 1, ell)
                    mass_bound, deriv_bound = band_flux_bounds(1, ell, n, tau, mu, 2)
                    worst_mass = max(worst_mass, m_tau_p(G, tau, 2) - mass_bound)
                    worst_deriv = max(worst_deriv, derivative_lp_norm(G, 2) - deriv_bound)
    return {"mass": worst_mass, "deriv": worst_deriv, "elapsed": time.monotonic() - t0}


def test_criterion_1_band_mass_bound(band_sweep):
    mu = make_atomic_path([[0.1, 0.1]], np.ones((1, 4)), TimeGrid(4))
    value, _ = band_flux_bounds(1, 4, 2, power_cost(0.8), mu, 2)
    closed_form_ok = abs(value - 1.9548) < 1e-3
    _criterion(
        1,
        "band flux mass bound over n in {1,2}, l in {2,3,4}, N in {4,16}, 100 seeds",
        band_sweep["mass"] <= 1e-9 and closed_form_ok and band_sweep["elapsed"] < 10.0,
        f" (max excess {band_sweep['mass']:.2e}, closed-form {value:.4f}, "
        f"{band_sweep['elapsed']:.1f}s)",
    )


def test_criterion_2_band_derivative_bound(band_sweep):
    _criterion(
        2,
        "band flux derivative bound over the same sweep",
        band_sweep["deriv"] <= 1e-9,
        f" (max excess {band_sweep['deriv']:.2e})",
    )


# ---------------------------------------------------------------------------
# criterion 3: cycle elimination
# ---------------------------------------------------------------------------

def _random_cyclic_instance(rng, n_samples=4):
    """Path flow with a reverse edge and one or two spare triangles (2-4 cycles)."""
    grid = TimeGrid(n_samples)
    pts = [[0.0, 0.0], [0.3, 0.1], [0.6, -0.1], [0.9, 0.0],
           [0.2, 0.5], [0.5, 0.7], [0.8, 0.5]]
    edges = [(0, 1), (1, 2), (2, 3), (2, 1), (4, 5), (5, 6), (6, 4)]
    back = rng.uniform(0.05, 0.4, size=n_samples)
    rows = [np.ones(n_samples), 1.0 + back, np.ones(n_samples), back]
    circ = rng.uniform(0.1, 0.5, size=n_samples)
    rows += [circ, circ, circ]
    if rng.random() < 0.5:
        base = len(pts)
        pts += [[1.2, 0.4], [1.5, 0.6], [1.8, 0.4]]
        edges += [(base, base + 1), (base + 1, base + 2), (base + 2, base)]
        circ2 = rng.uniform(0.1, 0.5, size=n_samples)
        rows += [circ2, circ2, circ2]
    pts = np.asarray(pts) + rng.normal(scale=0.01, size=(len(pts), 2))
    G = make_graph(pts, edges, np.vstack(rows), grid)
    a_plus = make_atomic_path([pts[0]], np.ones((1, n_samples)), grid)
    a_minus = make_atomic_path([pts[3]], np.ones((1, n_samples)), grid)
    return G, a_plus, a_minus


def test_criterion_3_cycle_elimination():
    tau = power_cost(0.7)
    t0 = time.monotonic()
    ok = True
    detail = ""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        G, a_plus, a_minus = _random_cyclic_instance(rng)
        assert len(enumerate_cycles(G)) <= 4
        out = eliminate_cycles(G, a_plus, a_minus, 2)
        if not is_never_cyclic(out):
            ok, detail = False, f" (strong cycle remains, seed {seed})"
            break
        if kirchhoff_residual(out, a_plus, a_minus) > 1e-9:
            ok, detail = False, f" (balance broken, seed {seed})"
            break
        if energy(out, tau, 2, 0.5).total > energy(G, tau, 2, 0.5).total + 1e-9:
            ok, detail = False, f" (energy increased, seed {seed})"
            break
    elapsed = time.monotonic() - t0
    _criterion(3, "cycle elimination on 200 random cyclic instances",
               ok and elapsed < 5.0, detail + f" ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: Hoelder estimate
# ---------------------------------------------------------------------------

def test_criterion_4_holder_estimate():
    worst = -math.inf
    for seed in range(100):
        G = random_graph(np.random.default_rng(seed), n=2,
                         n_vertices=int(3 + seed % 3), n_samples=8)
        for p in (2.0, 4.0, math.inf):
            worst = max(worst, holder_check(G, p))
    _criterion(4, "Hoelder violation over 100 random graphs, p in {2,4,inf}",
               worst <= 1e-9, f" (worst {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 5: lower bound under every witness
# ---------------------------------------------------------------------------

def test_criterion_5_lower_upper_sandwich():
    tau = power_cost(0.8)
    lam = 0.3
    ok = True
    detail = ""
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = 1 + seed % 2
        mu = random_path(rng, n=n, atoms=int(rng.integers(2, 4)), n_samples=4)
        nu = random_path(rng, n=n, atoms=int(rng.integers(1, 3)), n_samples=4)
        for k in (1, 2):
            G, a_plus, a_minus = connector(mu, nu, k)
            if lower_bound(a_plus, a_minus, tau, 2, lam) > energy(G, tau, 2, lam).total + 1e-6:
                ok, detail = False, f" (connector violated, seed {seed}, k={k})"
                break
        rep = local_search(mu, nu, tau, 2, lam, SEARCH_CFG)
        if rep.lower > rep.upper + 1e-6:
            ok, detail = False, f" (witness violated, seed {seed})"
        if lower_bound(mu, nu, tau, 2, lam) > rep.upper + 1e-6:
            ok, detail = False, f" (recomputed bound violated, seed {seed})"
        if len({(int(t), int(h)) for t, h in rep.witness.edges}) != rep.witness.n_edges:
            ok, detail = False, f" (parallel edges in the witness, seed {seed})"
        if not ok:
            break
    _criterion(5, "lower bound under every connector and search witness, no parallel edges, 100 instances",
               ok, detail)


# ---------------------------------------------------------------------------
# criterion 6: single-pair exactness
# ---------------------------------------------------------------------------

def test_criterion_6_single_pair_exactness():
    grid = TimeGrid(4)
    x = make_atomic_path([[-0.35, 0.2]], np.ones((1, 4)), grid)
    y = make_atomic_path([[0.45, -0.1]], np.ones((1, 4)), grid)
    dist = float(np.linalg.norm(x.points[0] - y.points[0]))
    rep = local_search(x, y, power_cost(0.5), 2, 0.2, SEARCH_CFG)
    _criterion(6, "single delta pair collapses to the straight edge",
               abs(rep.upper - dist) <= 1e-6 and rep.gap <= 1e-6,
               f" (upper {rep.upper:.8f}, distance {dist:.8f}, gap {rep.gap:.2e})")


# ---------------------------------------------------------------------------
# criterion 7: branching on the unit square, decided by a junction oracle
# ---------------------------------------------------------------------------

def _square_steiner_oracle():
    """Best cost over direct, 1-junction, and 2-junction layouts on a 9x9 grid."""
    tau = lambda s: s**0.5
    corners = {name: np.array(v) for name, v in
               (("A", (0.0, 1.0)), ("B", (1.0, 1.0)), ("C", (0.0, 0.0)), ("D", (1.0, 0.0)))}
    grid = [np.array([i / 8.0, j / 8.0]) for i in range(9) for j in range(9)]
    best = 2.0 * tau(0.5)  # two vertical edges
    for s in grid:
        arms = sum(np.linalg.norm(corners[c] - s) for c in "ABCD")
        best = min(best, tau(0.5) * arms)
    gather = [(s1, tau(0.5) * (np.linalg.norm(corners["A"] - s1) + np.linalg.norm(corners["B"] - s1)))
              for s1 in grid]
    scatter = [(s2, tau(0.5) * (np.linalg.norm(corners["C"] - s2) + np.linalg.norm(corners["D"] - s2)))
               for s2 in grid]
    for s1, g in gather:
        for s2, sc in scatter:
            best = min(best, g + sc + tau(1.0) * np.linalg.norm(s1 - s2))
    return best


def test_criterion_7_square_branching():
    t0 = time.monotonic()
    grid = TimeGrid(4)
    sources = make_atomic_path([[0.0, 1.0], [1.0, 1.0]], 0.5 * np.ones((2, 4)), grid)
    sinks = make_atomic_path([[0.0, 0.0], [1.0, 0.0]], 0.5 * np.ones((2, 4)), grid)
    cfg = OptimizerConfig(k_max=2, iterations=40, seed=0, steiner_budget=2)
    rep = local_search(sources, sinks, power_cost(0.5), 2, 0.1, cfg)
    oracle = _square_steiner_oracle()
    two_verticals = math.sqrt(2.0)
    elapsed = time.monotonic() - t0
    # Two equal masses under tau(s) = s**0.5 merge at a right angle, so both
    # junctions of the H layout fall at the centre and the H costs 2.0 > sqrt(2):
    # on the square the vertical pair is optimal and no 1% gain exists.
    oracle_is_vertical_pair = oracle == pytest.approx(two_verticals, abs=1e-12)
    matches_oracle = abs(rep.upper - oracle) <= 1e-6
    gain_iff_oracle_gain = (rep.upper <= 0.99 * two_verticals) == (oracle <= 0.99 * two_verticals)
    _criterion(
        7,
        "square instance matches the junction oracle and beats the two vertical edges "
        "by 1% exactly when the oracle does",
        oracle_is_vertical_pair and matches_oracle and gain_iff_oracle_gain and elapsed < 60.0,
        f" (upper {rep.upper:.6f}, oracle {oracle:.6f}, two verticals {two_verticals:.6f}, "
        f"{elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 8: energy formula on strong-cycle-free graphs
# ---------------------------------------------------------------------------

def test_criterion_8_energy_two_term_formula():
    tau = power_cost(0.6)
    worst = 0.0
    # eliminated random instances plus an anti-parallel complementary fixture
    for seed in range(20):
        rng = np.random.default_rng(seed)
        G, a_plus, a_minus = _random_cyclic_instance(rng)
        acyclic = eliminate_cycles(G, a_plus, a_minus, 2)
        rep = energy(acyclic, tau, 2, 0.7)
        manual = m_tau_p(acyclic, tau, 2) + 0.7 * derivative_lp_norm(acyclic, 2)
        worst = max(worst, abs(rep.total - manual))
    t = np.arange(8) / 8
    w = np.vstack([np.maximum(np.sin(2 * np.pi * t), 0), np.maximum(-np.sin(2 * np.pi * t), 0)])
    G = make_graph([[0.0], [1.0]], [(0, 1), (1, 0)], w, TimeGrid(8))
    rep = energy(G, tau, 2, 0.7)
    manual = m_tau_p(G, tau, 2) + 0.7 * derivative_lp_norm(G, 2)
    worst = max(worst, abs(rep.total - manual))
    _criterion(8, "energy equals mass term plus scaled derivative norm when never cyclic",
               worst <= 1e-12, f" (worst deviation {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 9: metric probes
# ---------------------------------------------------------------------------

def test_criterion_9_metric_probes():
    tau = power_cost(0.9)
    lam = 0.1
    okay = True
    detail = ""

    rng = np.random.default_rng(0)
    a = random_path(rng, n=1, atoms=3, n_samples=4)
    rep = local_search(a, a, tau, 2, lam, SEARCH_CFG)
    if rep.upper > 1e-9:
        okay, detail = False, " (identical pair bracket too wide)"

    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        paths = [random_path(rng, n=1, atoms=2, n_samples=4) for _ in range(3)]
        reports = {}
        for i, j in itertools.combinations(range(3), 2):
            reports[(i, j)] = local_search(paths[i], paths[j], tau, 2, lam, SEARCH_CFG)
        gaps = sum(r.gap for r in reports.values())
        for i, j, k in itertools.permutations(range(3), 3):
            upper_ik = reports[(min(i, k), max(i, k))].upper
            upper_ij = reports[(min(i, j), max(i, j))].upper
            upper_jk = reports[(min(j, k), max(j, k))].upper
            if upper_ik - upper_ij - upper_jk > gaps + 1e-9:
                okay, detail = False, f" (triangle defect beyond gaps, seed {seed})"
                break
        if not okay:
            break

    if okay:
        grid = TimeGrid(8)
        t = np.arange(8) / 8
        base = make_atomic_path([[-0.45], [0.45]], np.vstack([0.6 * np.ones(8), 0.4 * np.ones(8)]), grid)
        premise_seen = False
        for m in (10, 14):
            amp = 2.0 ** (-m)
            w = base.weights * (1.0 + amp * np.sin(2 * np.pi * t[None, :] + np.arange(2)[:, None]))
            w /= w.sum(axis=0)
            member = make_atomic_path(base.points, w, grid)
            lid_terms = (lid1_path_norm(member, base, 2)
                         + lid1_path_norm(derivative_path(member), derivative_path(base), 2))
            rep = local_search(member, base, tau, 2, lam, SEARCH_CFG)
            if lid_terms <= 1e-4:
                premise_seen = True
                if rep.upper > 1e-3:
                    okay, detail = False, f" (upper {rep.upper:.2e} with lid terms {lid_terms:.2e})"
                    break
        if okay and not premise_seen:
            okay, detail = False, " (no family member reached the lid-term threshold)"

    _criterion(9, "metric probes: identical pair, triangle defects, convergence", okay, detail)


# ---------------------------------------------------------------------------
# criterion 10: oracle equivalences
# ---------------------------------------------------------------------------

def test_criterion_10_oracle_equivalences():
    okay = True
    detail = ""

    # decompose reconstruction, every order of a 3-cycle instance
    grid = TimeGrid(4)
    rng = np.random.default_rng(10)
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0]]
    edges = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0), (1, 0)]
    w = rng.uniform(0.2, 1.0, size=(6, 4))
    G = make_graph(pts, edges, w, grid)
    cycles = enumerate_cycles(G)
    for order in itertools.permutations(range(len(cycles))):
        dec = decompose(G, order)
        recon = dec.residual.copy()
        for slot, ci in enumerate(dec.order):
            for e in cycles[ci]:
                recon[e] += dec.extracted[slot]
        if not np.allclose(recon, G.weights, atol=1e-12):
            okay, detail = False, f" (reconstruction failed for order {order})"
            break

    if okay:
        for seed in range(15):
            rng = np.random.default_rng(3000 + seed)
            k1, k2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            w1 = rng.uniform(0.1, 1.0, size=k1)
            w2 = rng.uniform(0.1, 1.0, size=k2)
            m1 = BalancedSignedMeasure(rng.normal(size=(k1, 2)), w1 / w1.sum())
            m2 = BalancedSignedMeasure(rng.normal(size=(k2, 2)), w2 / w2.sum())
            if abs(lid1(m1, m2) - lid1_dual_lp(m1, m2)) > 1e-9:
                okay, detail = False, f" (primal/dual gap, seed {seed})"
                break

    if okay:
        rng = np.random.default_rng(2024)
        grid = TimeGrid(2)
        pts = np.array([[-0.37], [0.52]])
        weights = np.array([[0.6, 0.3], [0.4, 0.7]])
        a = make_atomic_path(pts, weights, grid)
        eps, k = 0.3, 2
        proj, _ = mollified_dyadic_project(a, k, eps)
        acc = {}
        for i in range(a.n_atoms):
            u = rng.uniform(-1, 1, size=(1_000_000, 1))
            r2 = np.clip((u**2).sum(axis=1), 0, 1 - 1e-15)
            keep = rng.uniform(0, math.exp(-1.0), size=len(u)) < np.where(
                r2 < 1, np.exp(-1.0 / (1.0 - r2)), 0.0)
            samples = pts[i] + eps * u[keep]
            idx = cell_index(samples, k)
            centers, counts = np.unique(idx, axis=0, return_counts=True)
            for c, cnt in zip(centers, counts):
                key = tuple(cell_center(c, k))
                acc[key] = acc.get(key, 0.0) + (cnt / keep.sum()) * a.weights[i, 0]
        for center, wgt in zip(proj.points, proj.weights[:, 0]):
            if abs(wgt - acc[tuple(center)]) > 1e-3:
                okay, detail = False, f" (quadrature vs Monte Carlo off at {tuple(center)})"
                break

    _criterion(10, "decompose reconstruction, lid1 primal=dual, quadrature vs Monte Carlo",
               okay, detail)

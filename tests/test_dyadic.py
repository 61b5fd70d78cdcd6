import math

import numpy as np
import pytest

from branchflow import (
    AtomicMeasurePath,
    DyadicLevelSpec,
    TimeGrid,
    band_flux,
    band_flux_bounds,
    connector,
    derivative_lp_norm,
    dyadic_project,
    elementary_flux,
    energy,
    enumerate_cycles,
    kirchhoff_residual,
    m_tau_p,
    make_atomic_path,
    power_cost,
    recursive_flux,
)
from branchflow.dyadic import connector_energy_bound
from branchflow.graph import merge_graphs

from conftest import random_path


def delta_path(x, n_samples=4):
    return make_atomic_path([np.atleast_1d(x)], np.ones((1, n_samples)), TimeGrid(n_samples))


def edge_map(G):
    return {(tuple(G.vertices[t]), tuple(G.vertices[h])): G.weights[e]
            for e, (t, h) in enumerate(G.edges)}


# ---------------------------------------------------------------------------
# elementary flux
# ---------------------------------------------------------------------------

def test_elementary_delta_half():
    G = elementary_flux(delta_path(0.5), 1.0, 0.0)
    em = edge_map(G)
    assert np.allclose(em[((0.0,), (-1.0,))], 0.0)
    assert np.allclose(em[((0.0,), (1.0,))], 1.0)


def test_elementary_weights_sum_to_one():
    rng = np.random.default_rng(0)
    mu = random_path(rng, n=2, atoms=4, n_samples=4)
    G = elementary_flux(mu, 1.0, 0.0)
    assert G.n_edges == 4
    assert np.allclose(G.weights.sum(axis=0), 1.0)


def test_elementary_symmetric_four_atoms():
    grid = TimeGrid(2)
    pts = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    mu = make_atomic_path(pts, 0.25 * np.ones((4, 2)), grid)
    G = elementary_flux(mu, 1.0, 0.0)
    assert np.allclose(G.weights, 0.25)


def test_elementary_support_escape():
    with pytest.raises(ValueError, match="escapes"):
        elementary_flux(delta_path(2.5), 1.0, 0.0)


# ---------------------------------------------------------------------------
# recursive flux
# ---------------------------------------------------------------------------

def test_recursive_depth_one_equals_elementary():
    rng = np.random.default_rng(1)
    mu = random_path(rng, n=1, atoms=3, n_samples=4)
    a = edge_map(recursive_flux(mu, 1))
    b = edge_map(elementary_flux(mu, 1.0, 0.0))
    assert a.keys() == b.keys()
    for key in a:
        assert np.allclose(a[key], b[key])


def test_recursive_delta_chain():
    mu = delta_path(0.5)
    G = recursive_flux(mu, 2)
    em = edge_map(G)
    assert np.allclose(em[((0.0,), (1.0,))], 1.0)
    assert np.allclose(em[((1.0,), (0.5,))], 1.0)


def test_recursive_balances_root_against_projection():
    rng = np.random.default_rng(2)
    for n in (1, 2):
        mu = random_path(rng, n=n, atoms=4, n_samples=4)
        for k in (1, 2, 3):
            G = recursive_flux(mu, k)
            root = make_atomic_path([np.zeros(n)], np.ones((1, 4)), mu.grid)
            assert kirchhoff_residual(G, root, dyadic_project(mu, k)) <= 1e-9


# ---------------------------------------------------------------------------
# band flux
# ---------------------------------------------------------------------------

def test_band_single_layer():
    rng = np.random.default_rng(3)
    mu = random_path(rng, n=1, atoms=3, n_samples=4)
    G = band_flux(mu, 1, 2)
    # every edge runs from a level-1 center to a level-2 center
    tails = {tuple(G.vertices[t]) for t, _ in G.edges}
    heads = {tuple(G.vertices[h]) for _, h in G.edges}
    assert tails <= {(-1.0,), (1.0,)}
    assert all(abs(h[0]) in (0.5, 1.5) for h in heads)


def test_band_requires_increasing_levels():
    mu = delta_path(0.5)
    with pytest.raises(ValueError):
        band_flux(mu, 2, 2)


def test_band_is_dag_and_balanced():
    rng = np.random.default_rng(4)
    for n in (1, 2):
        for _ in range(5):
            mu = random_path(rng, n=n, atoms=4, n_samples=4)
            G = band_flux(mu, 1, 3)
            assert enumerate_cycles(G) == []
            assert kirchhoff_residual(G, dyadic_project(mu, 1), dyadic_project(mu, 3)) <= 1e-9


def test_band_telescoping_boundary():
    rng = np.random.default_rng(5)
    mu = random_path(rng, n=1, atoms=4, n_samples=4)
    combined = merge_graphs(mu.grid, band_flux(mu, 1, 2), band_flux(mu, 2, 4))
    assert kirchhoff_residual(combined, dyadic_project(mu, 1), dyadic_project(mu, 4)) <= 1e-9


def test_general_lattice_is_mapped_standard_lattice():
    # a lattice with root r and scale s is the standard one under x -> (x - r) / s
    rng = np.random.default_rng(12)
    for n in (1, 2):
        root, scale = rng.uniform(-0.5, 0.5, size=n), 0.75
        std = random_path(rng, n=n, atoms=5, n_samples=4)
        mu = AtomicMeasurePath(root + scale * std.points, std.weights, std.grid)
        mapped = AtomicMeasurePath((mu.points - root) / scale, mu.weights, mu.grid)
        spec = DyadicLevelSpec(root=root, scale=scale)
        for G, H in ((band_flux(mu, 1, 4, spec), band_flux(mapped, 1, 4)),
                     (band_flux(mu, 2, 3, spec), band_flux(mapped, 2, 3)),
                     (recursive_flux(mu, 3, spec), recursive_flux(mapped, 3))):
            assert np.array_equal(G.edges, H.edges)
            assert np.allclose(G.vertices, root + scale * H.vertices, rtol=0.0, atol=1e-12)
            assert np.array_equal(G.weights, H.weights)


def test_band_bounds_closed_form_value():
    mu = delta_path(np.array([0.1, 0.1]))
    mass, _ = band_flux_bounds(1, 4, 2, power_cost(0.8), mu, 2)
    expected = math.sqrt(2) * (2 * 2**-1.6 + 4 * 2**-3.2 + 8 * 2**-4.8)
    assert mass == pytest.approx(expected, abs=1e-12)
    assert mass == pytest.approx(1.9548, abs=1e-3)


def test_band_bounds_derivative_zero_for_constant():
    mu = delta_path(0.3)
    _, deriv = band_flux_bounds(1, 4, 1, power_cost(0.8), mu, 2)
    assert deriv == 0.0


def test_band_mass_bound_decreasing_in_k():
    mu = delta_path(np.array([0.1, 0.1]))
    beta = power_cost(0.8)
    values = [band_flux_bounds(k, 5, 2, beta, mu, 2)[0] for k in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_band_certified_bounds_hold():
    rng = np.random.default_rng(6)
    tau = power_cost(0.8)
    for n in (1, 2):
        for _ in range(10):
            mu = random_path(rng, n=n, atoms=4, n_samples=8)
            for ell in (2, 3):
                G = band_flux(mu, 1, ell)
                mass_bound, deriv_bound = band_flux_bounds(1, ell, n, tau, mu, 2)
                assert m_tau_p(G, tau, 2) <= mass_bound + 1e-9
                assert derivative_lp_norm(G, 2) <= deriv_bound + 1e-9


def test_band_edge_set_time_independent():
    rng = np.random.default_rng(7)
    mu = random_path(rng, n=1, atoms=3, n_samples=8)
    G = band_flux(mu, 1, 3)
    # structural: one edge list shared across all samples
    assert G.weights.shape == (G.n_edges, 8)


# ---------------------------------------------------------------------------
# connector
# ---------------------------------------------------------------------------

def test_connector_identical_deltas():
    mu = delta_path(0.0)
    G, a_plus, a_minus = connector(mu, mu, 3)
    assert kirchhoff_residual(G, a_plus, a_minus) <= 1e-9
    # the bridge edge carries unit weight over length 2^-3
    em = edge_map(G)
    assert np.allclose(em[((0.125,), (0.0,))], 1.0)


def test_connector_boundaries_and_acyclicity():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        for _ in range(5):
            mu = random_path(rng, n=n, atoms=3, n_samples=4)
            nu = random_path(rng, n=n, atoms=3, n_samples=4)
            for k in (1, 2, 3):
                G, a_plus, a_minus = connector(mu, nu, k)
                assert enumerate_cycles(G, cap=64) == []
                assert kirchhoff_residual(G, a_plus, a_minus) <= 1e-9
                assert not (a_plus.support() & a_minus.support())
                # boundary labels: sink side aggregates the first argument
                proj = dyadic_project(mu, k)
                assert {tuple(p) for p in a_minus.points} == {tuple(p) for p in proj.points}


def test_connector_energy_certificate():
    rng = np.random.default_rng(9)
    tau = power_cost(0.8)
    for n in (1, 2):
        for _ in range(5):
            mu = random_path(rng, n=n, atoms=3, n_samples=4)
            nu = random_path(rng, n=n, atoms=3, n_samples=4)
            for k in (1, 2, 3):
                G, _, _ = connector(mu, nu, k)
                total = energy(G, tau, math.inf, 0.5).total
                cert = connector_energy_bound(mu, nu, tau, math.inf, 0.5, k)
                assert total <= cert + 1e-9


def test_connector_bridge_term_halves():
    mu = delta_path(0.0)
    tau = power_cost(0.9)
    bridge_costs = []
    for k in (1, 2, 3, 4):
        G, _, _ = connector(mu, mu, k)
        em = edge_map(G)
        shift = (2.0 ** (-k),)
        bridge_costs.append(float(tau(em[(shift, (0.0,))][0])) * 2.0 ** (-k))
    for a, b in zip(bridge_costs, bridge_costs[1:]):
        assert b == pytest.approx(a / 2.0, abs=1e-12)

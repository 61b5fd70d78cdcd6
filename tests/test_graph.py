import itertools
import math

import numpy as np
import pytest

from branchflow import (
    TimeGrid,
    decompose,
    derivative_graph,
    derivative_lp_norm,
    eliminate_cycles,
    energy,
    enumerate_cycles,
    holder_check,
    kirchhoff_residual,
    m_tau_p,
    make_atomic_path,
    make_graph,
    power_cost,
    separate_supports,
    tv_norm,
)
from branchflow.graph import (
    EXHAUSTIVE_LIMIT,
    ORDER_CHUNK,
    CycleExplosionError,
    TransportGraph,
    _boundary_matrix,
    _bracket,
    _greedy_order,
    _incidence,
    _order_values,
    cancel_antiparallel,
    is_never_cyclic,
    max_order,
    prune_zero_edges,
)
from branchflow.measures import time_derivative

from conftest import cyclic_flow_instance, random_graph


def unit_edge(n_samples=4, weight=1.0, length=1.0):
    grid = TimeGrid(n_samples)
    return make_graph([[0.0], [length]], [(0, 1)], np.full((1, n_samples), weight), grid)


def delta_at(x, n_samples=4):
    return make_atomic_path([np.atleast_1d(x)], np.ones((1, n_samples)), TimeGrid(n_samples))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_graph_freezes_a_copy_of_the_callers_arrays():
    # a graph is read-only, but the arrays it was built from stay the caller's to change
    v = np.array([[0.0], [1.0]])
    e = np.array([[0, 1]])
    w = np.array([[1.0, 1.0]])
    G = TransportGraph(v, e, w, TimeGrid(2))
    assert v.flags.writeable and e.flags.writeable and w.flags.writeable
    assert not (G.vertices.flags.writeable or G.edges.flags.writeable or G.weights.flags.writeable)
    v[1, 0] = 5.0
    e[0, 1] = 0
    w[0, 0] = 3.0
    assert G.vertices[1, 0] == 1.0 and G.edges[0, 1] == 1 and G.weights[0, 0] == 1.0


def test_constructor_merges_parallel_edges():
    grid = TimeGrid(2)
    G = make_graph([[0.0], [1.0]], [(0, 1), (0, 1)], [[0.3, 0.3], [0.2, 0.2]], grid)
    assert G.n_edges == 1
    assert np.allclose(G.weights, 0.5)


def test_constructor_rejects_self_loop_and_duplicates():
    grid = TimeGrid(2)
    with pytest.raises(ValueError, match="self loop"):
        make_graph([[0.0], [1.0]], [(0, 0)], [[1, 1]], grid)
    with pytest.raises(ValueError, match="distinct"):
        make_graph([[0.0], [0.0]], [(0, 1)], [[1, 1]], grid)
    with pytest.raises(ValueError, match="nonnegative"):
        make_graph([[0.0], [1.0]], [(0, 1)], [[-0.5, 1]], grid)


def test_constructor_rejects_non_finite_input():
    grid = TimeGrid(2)
    with pytest.raises(ValueError, match="non-finite weight nan for edge 1 at sample 0"):
        make_graph([[0.0], [1.0]], [(0, 1), (1, 0)], [[1, 1], [math.nan, 1]], grid)
    with pytest.raises(ValueError, match="non-finite weight inf for edge 0 at sample 1"):
        make_graph([[0.0], [1.0]], [(0, 1)], [[1, math.inf]], grid)
    with pytest.raises(ValueError, match="non-finite coordinate for vertex 1"):
        make_graph([[0.0], [-math.inf]], [(0, 1)], [[1, 1]], grid)


def test_energy_rejects_a_directly_built_graph_with_a_nan_weight():
    # TransportGraph does not check finiteness; the order search must say why it finds no order
    weights = [[1.0, 1.0], [math.nan, 1.0], [1.0, 1.0]]
    G = TransportGraph(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [(0, 1), (1, 2), (2, 0)],
                       weights, TimeGrid(2))
    with pytest.raises(ValueError, match="no extraction order has a finite bracket"):
        energy(G, power_cost(0.5), 2, 1.0)


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------

def test_kirchhoff_single_edge():
    G = unit_edge()
    assert kirchhoff_residual(G, delta_at(0.0), delta_at(1.0)) == 0.0


def test_kirchhoff_half_weight_deficit():
    G = unit_edge(weight=0.5)
    assert kirchhoff_residual(G, delta_at(0.0), delta_at(1.0)) == pytest.approx(0.5)


def test_kirchhoff_missing_support_point():
    G = unit_edge()
    with pytest.raises(ValueError, match="not a graph vertex"):
        kirchhoff_residual(G, delta_at(0.5), delta_at(1.0))


def test_balance_operator_matches_loop_reference():
    # B and b equal their edge-by-edge construction; the residual adds in another order,
    # so it agrees with the per-vertex sum to a few ulps of the unit masses
    rng = np.random.default_rng(21)
    for _ in range(5):
        G = random_graph(rng, n=2, n_vertices=6, n_samples=4)
        w_plus, w_minus = rng.uniform(0.1, 1.0, size=(2, 4)), rng.uniform(0.1, 1.0, size=(3, 4))
        a_plus = make_atomic_path(G.vertices[:2], w_plus / w_plus.sum(axis=0), G.grid)
        a_minus = make_atomic_path(G.vertices[1:4], w_minus / w_minus.sum(axis=0), G.grid)  # shares vertex 1
        B = np.zeros((6, G.n_edges))
        for e, (t, h) in enumerate(G.edges):
            B[h, e] += 1.0
            B[t, e] -= 1.0
        b = np.zeros((6, 4))
        b[:2] -= a_plus.weights
        b[1:4] += a_minus.weights
        assert np.array_equal(_incidence(G).toarray(), B)
        assert np.array_equal(_boundary_matrix(G, a_plus, a_minus), b)
        worst = max(abs(sum(G.weights[e, j] for e in range(G.n_edges) if G.edges[e, 1] == v)
                        - sum(G.weights[e, j] for e in range(G.n_edges) if G.edges[e, 0] == v) - b[v, j])
                    for v in range(6) for j in range(4))
        assert kirchhoff_residual(G, a_plus, a_minus) == pytest.approx(worst, rel=0.0, abs=1e-14)


def test_kirchhoff_grid_mismatch():
    G = unit_edge(n_samples=4)
    with pytest.raises(ValueError, match="grids"):
        kirchhoff_residual(G, delta_at(0.0, n_samples=8), delta_at(1.0, n_samples=8))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_tv_norm_single_edge():
    G = unit_edge(weight=1.0, length=2.0)
    assert tv_norm(G, 0) == pytest.approx(2.0)


def test_tv_norm_antiparallel_cancellation():
    grid = TimeGrid(4)
    G = make_graph([[0.0], [1.0]], [(0, 1), (1, 0)],
                   np.vstack([np.full(4, 0.7), np.full(4, 0.3)]), grid)
    assert tv_norm(G, 0) == pytest.approx(0.4)


def test_tv_norm_disjoint_edges_is_plain_sum():
    rng = np.random.default_rng(0)
    grid = TimeGrid(4)
    pts = rng.normal(size=(6, 2))
    edges = [(0, 1), (2, 3), (4, 5)]
    w = rng.uniform(0, 1, size=(3, 4))
    G = make_graph(pts, edges, w, grid)
    direct = float(sum(w[e, 1] * np.linalg.norm(pts[edges[e][1]] - pts[edges[e][0]]) for e in range(3)))
    assert tv_norm(G, 1) == pytest.approx(direct, abs=1e-12)


def test_m_tau_p_constant_integrand():
    G = unit_edge(weight=1.0, length=2.0)
    assert m_tau_p(G, power_cost(0.5), 2) == pytest.approx(2.0)


@pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
def test_m_tau_p_half_active(p):
    n_samples = 8
    w = np.array([[1.0] * 4 + [0.0] * 4])
    G = make_graph([[0.0], [1.0]], [(0, 1)], w, TimeGrid(n_samples))
    expected = 1.0 if math.isinf(p) else 0.5 ** (1.0 / p)
    assert m_tau_p(G, power_cost(0.6), p) == pytest.approx(expected)


def test_m_tau_p_identity_with_tv_for_linear_cost():
    rng = np.random.default_rng(1)
    grid = TimeGrid(4)
    pts = rng.normal(size=(6, 2))
    edges = [(0, 1), (2, 3), (4, 5)]
    w = rng.uniform(0, 1, size=(3, 4))
    G = make_graph(pts, edges, w, grid)
    series = np.array([tv_norm(G, j) for j in range(4)])
    assert m_tau_p(G, power_cost(1.0), 2) == pytest.approx(float((np.mean(series**2)) ** 0.5), abs=1e-12)


def test_m_tau_p_monotone_in_weights():
    rng = np.random.default_rng(2)
    G = random_graph(rng, n=2, n_vertices=4)
    tau = power_cost(0.7)
    bumped = G.weights.copy()
    bumped[0] += 0.25
    assert m_tau_p(G.with_weights(bumped), tau, 2) >= m_tau_p(G, tau, 2) - 1e-15


def test_derivative_graph_values_and_periodicity():
    grid = TimeGrid(4)
    G = make_graph([[0.0], [1.0]], [(0, 1)], [[0.0, 1.0, 1.0, 0.0]], grid)
    dG = derivative_graph(G)
    assert np.allclose(dG.weights, [[4.0, 0.0, -4.0, 0.0]])
    assert dG.weights.sum() == pytest.approx(0.0)


def test_derivative_lp_norm_swap():
    G = make_graph([[0.0], [1.0]], [(0, 1)], [[0.0, 1.0]], TimeGrid(2))
    assert derivative_lp_norm(G, 2) == pytest.approx(2.0)


def test_derivative_lp_norm_homogeneous():
    rng = np.random.default_rng(3)
    G = random_graph(rng)
    assert derivative_lp_norm(G.with_weights(2 * G.weights), 2) == pytest.approx(
        2 * derivative_lp_norm(G, 2), abs=1e-12)


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

def test_tree_has_no_cycles():
    grid = TimeGrid(2)
    G = make_graph([[0.0], [1.0], [2.0]], [(0, 1), (0, 2)], np.ones((2, 2)), grid)
    assert enumerate_cycles(G) == []


def test_triangle_single_cycle():
    grid = TimeGrid(2)
    G = make_graph([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                   [(0, 1), (1, 2), (2, 0)], np.ones((3, 2)), grid)
    assert enumerate_cycles(G) == [(0, 1, 2)]


def test_antiparallel_two_cycle():
    grid = TimeGrid(2)
    G = make_graph([[0.0], [1.0]], [(0, 1), (1, 0)], np.ones((2, 2)), grid)
    cycles = enumerate_cycles(G)
    assert cycles == [(0, 1)]


def test_cycle_cap_explosion():
    grid = TimeGrid(2)
    pts = np.column_stack([np.arange(6.0), np.zeros(6)])
    edges = [(i, j) for i in range(6) for j in range(6) if i != j]
    G = make_graph(pts, edges, np.ones((len(edges), 2)), grid)
    with pytest.raises(CycleExplosionError):
        enumerate_cycles(G, cap=10)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_acyclic_graph_is_identity():
    grid = TimeGrid(2)
    G = make_graph([[0.0], [1.0], [2.0]], [(0, 1), (1, 2)], np.ones((2, 2)), grid)
    dec = decompose(G, [])
    assert dec.extracted.shape == (0, 2)
    assert np.array_equal(dec.residual, G.weights)


def test_decompose_triangle_by_hand():
    grid = TimeGrid(4)
    G = make_graph([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1), (1, 2), (2, 0)],
                   np.vstack([np.full(4, 0.5), np.full(4, 0.3), np.full(4, 0.9)]), grid)
    dec = decompose(G, [0])
    assert np.allclose(dec.extracted[0], 0.3)
    assert np.allclose(dec.residual[:, 0], [0.2, 0.0, 0.6])


def test_decompose_reconstruction_both_orders():
    # two triangles sharing the edge 0->1
    grid = TimeGrid(4)
    rng = np.random.default_rng(5)
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0]]
    edges = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)]
    w = rng.uniform(0.2, 1.0, size=(5, 4))
    G = make_graph(pts, edges, w, grid)
    cycles = enumerate_cycles(G)
    assert len(cycles) == 2
    for order in itertools.permutations(range(2)):
        dec = decompose(G, order)
        recon = dec.residual.copy()
        for slot, ci in enumerate(dec.order):
            for e in cycles[ci]:
                recon[e] += dec.extracted[slot]
        assert np.allclose(recon, G.weights, atol=1e-12)
        # residual min over each cycle vanishes at every sample
        for cyc in cycles:
            assert np.max(dec.residual[list(cyc)].min(axis=0)) <= 1e-12


def test_decompose_invalid_permutation():
    grid = TimeGrid(2)
    G = make_graph([[0.0], [1.0]], [(0, 1), (1, 0)], np.ones((2, 2)), grid)
    with pytest.raises(ValueError, match="permutation"):
        decompose(G, [0, 0])


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_never_cyclic_two_term_formula():
    G, a_plus, a_minus = cyclic_flow_instance(np.random.default_rng(8))
    tau = power_cost(0.6)
    acyclic = eliminate_cycles(G, a_plus, a_minus, 2)
    rep = energy(acyclic, tau, 2, 0.7)
    assert rep.total == pytest.approx(
        m_tau_p(acyclic, tau, 2) + 0.7 * derivative_lp_norm(acyclic, 2), abs=1e-12)


def test_energy_constant_weights_zero_derivative_term():
    grid = TimeGrid(4)
    G = make_graph([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1), (1, 2), (2, 0)],
                   0.5 * np.ones((3, 4)), grid)
    rep = energy(G, power_cost(0.5), 2, 1.0)
    assert rep.derivative_term == pytest.approx(0.0, abs=1e-12)
    assert rep.cycle_count == 1


def test_energy_two_cycle_exhaustive_max():
    grid = TimeGrid(4)
    rng = np.random.default_rng(9)
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0]]
    edges = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)]
    w = rng.uniform(0.2, 1.0, size=(5, 4))
    G = make_graph(pts, edges, w, grid)
    tau = power_cost(0.5)
    rep = energy(G, tau, 2, 1.0)
    assert rep.exact_flag
    cycles = enumerate_cycles(G)
    lengths = G.lengths
    n = 4

    def bracket(order):
        dec = decompose(G, order)
        resid_d = n * (np.roll(dec.residual, -1, axis=1) - dec.residual)
        series = lengths @ np.abs(resid_d)
        val = float((np.mean(series**2)) ** 0.5)
        for slot, ci in enumerate(order):
            cyclen = lengths[list(cycles[ci])].sum()
            wd = n * (np.roll(dec.extracted[slot], -1) - dec.extracted[slot])
            val += float((np.mean((np.abs(wd) * cyclen) ** 2)) ** 0.5)
        return val

    manual = max(bracket(o) for o in itertools.permutations(range(2)))
    assert rep.derivative_term == pytest.approx(manual, abs=1e-12)


def test_energy_invariant_under_relabeling():
    rng = np.random.default_rng(10)
    G = random_graph(rng, n=2, n_vertices=5)
    tau = power_cost(0.7)
    rep = energy(G, tau, 2, 0.5)
    perm = rng.permutation(len(G.vertices))
    inv = np.argsort(perm)
    new_edges = [(inv[t], inv[h]) for t, h in G.edges]
    shuffle = rng.permutation(G.n_edges)
    G2 = make_graph(G.vertices[perm], [new_edges[i] for i in shuffle], G.weights[shuffle], G.grid)
    rep2 = energy(G2, tau, 2, 0.5)
    assert rep2.total == pytest.approx(rep.total, abs=1e-12)


# ---------------------------------------------------------------------------
# batched order search against the one-order-at-a-time loop
# ---------------------------------------------------------------------------

def scalar_bracket(G, order, cycles, p):
    """The bracket of one order, computed as the loop search computed it."""

    def norm(vals):
        if math.isinf(p):
            return float(np.max(np.abs(vals)))
        return float((np.mean(np.abs(vals) ** p)) ** (1.0 / p))

    dec = decompose(G, order, cycles)
    lengths = G.lengths
    total = norm(lengths @ np.abs(time_derivative(dec.residual)))
    for slot, ci in enumerate(dec.order):
        cyclen = float(lengths[list(cycles[ci])].sum())
        total += norm(np.abs(time_derivative(dec.extracted[slot])) * cyclen)
    return total


def scalar_max_order(G, cycles, p):
    """Every order's bracket and the first strict maximum, one order at a time."""
    best, best_val, values = None, -1.0, []
    for perm in itertools.permutations(range(len(cycles))):
        val = scalar_bracket(G, perm, cycles, p)
        values.append(val)
        if val > best_val:
            best, best_val = perm, val
    return best, values


def cycle_ladder(rng, n_cycles, n_samples=8):
    """Path 0 -> 1 -> ... with a reverse edge on every segment and a triangle on most.

    Each reverse edge closes a 2-cycle and each triangle a 3-cycle through
    the same forward edge, so the two compete for it and the extraction
    order changes the bracket.  Weights are random, not balanced.
    """
    segments = (n_cycles + 1) // 2
    vertices = [[float(i), 0.0] for i in range(segments + 1)]
    edges = [(i, i + 1) for i in range(segments)] + [(i + 1, i) for i in range(segments)]
    for i in range(n_cycles - segments):
        vertices.append([i + 0.5, rng.uniform(0.3, 1.0)])
        edges += [(i + 1, len(vertices) - 1), (len(vertices) - 1, i)]
    return make_graph(vertices, edges, rng.uniform(0.0, 1.0, size=(len(edges), n_samples)), TimeGrid(n_samples))


def disjoint_triangles(rng, n_cycles, n_samples=8):
    """Congruent edge-disjoint triangles; the first carries constant weights.

    The constant triangle's bracket term is exactly zero, so moving it
    leaves an order's value bitwise unchanged and every maximum is tied
    with orders that start with another cycle.
    """
    vertices, edges, rows = [], [], []
    for j in range(n_cycles):
        base = len(vertices)
        vertices += [[3.0 * j, 0.0], [3.0 * j + 1.0, 0.0], [3.0 * j, 1.0]]
        edges += [(base, base + 1), (base + 1, base + 2), (base + 2, base)]
        rows += [np.full(n_samples, 0.5)] * 3 if j == 0 else list(rng.uniform(0.0, 1.0, size=(3, n_samples)))
    return make_graph(vertices, edges, np.array(rows), TimeGrid(n_samples))


def assert_matches_scalar_loop(G, n_cycles, p):
    cycles = enumerate_cycles(G)
    assert len(cycles) == n_cycles
    best, values = scalar_max_order(G, cycles, p)
    assert max_order(G, cycles, p) == (best, True)
    perms = np.array(list(itertools.permutations(range(n_cycles))))
    assert np.array_equal(_order_values(G, perms, cycles, p), np.array(values))
    assert _bracket(G, best, cycles, p) == max(values)


@pytest.mark.parametrize("p", [1.5, 2, math.inf])
@pytest.mark.parametrize("n_cycles", range(1, 7))
def test_max_order_matches_scalar_loop(n_cycles, p):
    rng = np.random.default_rng(100 + n_cycles)
    assert_matches_scalar_loop(cycle_ladder(rng, n_cycles), n_cycles, p)
    assert_matches_scalar_loop(disjoint_triangles(rng, n_cycles), n_cycles, p)


def test_max_order_matches_scalar_loop_across_chunks():
    rng = np.random.default_rng(107)
    assert math.factorial(7) > ORDER_CHUNK
    assert_matches_scalar_loop(cycle_ladder(rng, 7), 7, 2)


def test_max_order_keeps_the_first_of_orders_tied_across_chunks():
    G = disjoint_triangles(np.random.default_rng(6), 6)
    cycles = enumerate_cycles(G)
    perms = list(itertools.permutations(range(6)))
    _, values = scalar_max_order(G, cycles, 2)
    winners = [perm for perm, val in zip(perms, values) if val == max(values)]
    chunks = {perms.index(perm) // ORDER_CHUNK for perm in winners}
    assert len(chunks) > 1
    assert max_order(G, cycles, 2) == (winners[0], True)


def test_exhaustive_limit_boundary():
    rng = np.random.default_rng(8)
    tau = power_cost(0.6)
    G = cycle_ladder(rng, EXHAUSTIVE_LIMIT)
    cycles = enumerate_cycles(G)
    rep = energy(G, tau, 2, 0.7)
    assert rep.cycle_count == EXHAUSTIVE_LIMIT and rep.exact_flag
    assert rep.derivative_term == _bracket(G, rep.maximizing_order, cycles, 2)
    rivals = [_greedy_order(G, cycles, 2)] + [tuple(rng.permutation(EXHAUSTIVE_LIMIT)) for _ in range(200)]
    assert all(rep.derivative_term >= _bracket(G, order, cycles, 2) for order in rivals)

    G = cycle_ladder(rng, EXHAUSTIVE_LIMIT + 1)
    rep = energy(G, tau, 2, 0.7)
    assert rep.cycle_count == EXHAUSTIVE_LIMIT + 1 and not rep.exact_flag
    assert rep.maximizing_order == _greedy_order(G, enumerate_cycles(G), 2)


# ---------------------------------------------------------------------------
# elimination and surgery
# ---------------------------------------------------------------------------

def test_eliminate_cycles_acyclic_identity():
    grid = TimeGrid(2)
    G = make_graph([[0.0], [1.0], [2.0]], [(0, 1), (1, 2)], np.ones((2, 2)), grid)
    out = eliminate_cycles(G, delta_at(0.0, 2), delta_at(2.0, 2), 2)
    assert out.n_edges == G.n_edges
    assert np.allclose(out.weights, G.weights)


def test_eliminate_cycles_removes_superimposed_triangle():
    G, a_plus, a_minus = cyclic_flow_instance(np.random.default_rng(12))
    out = eliminate_cycles(G, a_plus, a_minus, 2)
    assert is_never_cyclic(out)
    assert kirchhoff_residual(out, a_plus, a_minus) <= 1e-9


def test_eliminate_cycles_property_over_seeds():
    tau = power_cost(0.8)
    for seed in range(40):
        G, a_plus, a_minus = cyclic_flow_instance(np.random.default_rng(seed))
        out = eliminate_cycles(G, a_plus, a_minus, 2)
        assert is_never_cyclic(out)
        assert kirchhoff_residual(out, a_plus, a_minus) <= 1e-9
        assert energy(out, tau, 2, 0.5).total <= energy(G, tau, 2, 0.5).total + 1e-9
        # idempotent up to pruning
        again = eliminate_cycles(out, a_plus, a_minus, 2)
        assert again.n_edges == prune_zero_edges(out).n_edges


def test_eliminate_cycles_shared_support_rejected():
    G = unit_edge()
    with pytest.raises(ValueError, match="separate_supports"):
        eliminate_cycles(G, delta_at(0.0), delta_at(0.0), 2)


def test_separate_supports_disjoint_identity():
    a = delta_at(0.0)
    b = delta_at(1.0)
    moved, patch = separate_supports(a, b, 0.01)
    assert moved is b
    assert patch.n_edges == 0


def test_separate_supports_single_shared_atom():
    a = delta_at(0.0)
    b = delta_at(0.0)
    moved, patch = separate_supports(a, b, 0.01)
    assert patch.n_edges == 1
    assert np.linalg.norm(moved.points[0]) == pytest.approx(0.01)
    assert np.allclose(patch.weights, 1.0)
    # patch composes: single-edge graph for (a, b-moved) plus nothing needed
    assert kirchhoff_residual(patch, a, moved) == pytest.approx(0.0, abs=1e-15)


def test_separate_supports_patch_energy_bound():
    grid = TimeGrid(4)
    a = make_atomic_path([[0.0], [1.0]], 0.5 * np.ones((2, 4)), grid)
    b = make_atomic_path([[0.0], [1.0]], 0.5 * np.ones((2, 4)), grid)
    delta = 0.01
    moved, patch = separate_supports(a, b, delta)
    tau = power_cost(0.5)
    assert m_tau_p(patch, tau, math.inf) <= 2 * tau(1.0) * delta + 1e-12


def test_separate_supports_delta_too_large():
    grid = TimeGrid(2)
    a = make_atomic_path([[0.0], [0.05]], 0.5 * np.ones((2, 2)), grid)
    with pytest.raises(ValueError, match="half the minimum"):
        separate_supports(a, a, 0.04)


def test_cancel_antiparallel_preserves_balance():
    grid = TimeGrid(4)
    t = np.arange(4) / 4
    w_fwd = 0.6 + 0.3 * np.sin(2 * np.pi * t)
    w_bwd = 0.4 * np.ones(4)
    G = make_graph([[0.0], [1.0]], [(0, 1), (1, 0)], np.vstack([w_fwd, w_bwd]), grid)
    out = cancel_antiparallel(G)
    assert is_never_cyclic(out)
    # net flow preserved
    for j in range(4):
        net = sum(out.weights[e, j] * (1 if out.edges[e, 0] == 0 else -1) for e in range(out.n_edges))
        assert net == pytest.approx(w_fwd[j] - w_bwd[j], abs=1e-12)


# ---------------------------------------------------------------------------
# Hoelder bound
# ---------------------------------------------------------------------------

def test_holder_constant_weights():
    G = unit_edge(weight=0.7)
    assert holder_check(G, 2) <= 0.0


def test_holder_two_sample_equality_at_p_inf():
    G = make_graph([[0.0], [1.0]], [(0, 1)], [[0.0, 1.0]], TimeGrid(2))
    # difference TV = 1, bound = ||G'||_inf * (1/2) = 1: tight
    assert holder_check(G, math.inf) == pytest.approx(0.0, abs=1e-12)


def test_holder_random_graphs():
    for seed in range(30):
        G = random_graph(np.random.default_rng(seed), n=2, n_vertices=4, n_samples=8)
        for p in (2.0, 4.0, math.inf):
            assert holder_check(G, p) <= 1e-9

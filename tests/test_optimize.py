import json
import math
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import branchflow
from branchflow import (
    OptimizerConfig,
    TimeGrid,
    baseline_upper,
    derivative_lp_norm,
    kirchhoff_residual,
    local_search,
    lower_bound,
    make_atomic_path,
    make_graph,
    metric_probe,
    optimize_weights,
    power_cost,
    tabulated_cost,
)
from branchflow import optimize
from branchflow.graph import (
    CycleExplosionError,
    TransportGraph,
    _derivative_series,
    _tau_mass_series,
    is_never_cyclic,
)
from branchflow.instance import graph_to_dict
from branchflow.lp import _SampleLP
from branchflow.optimize import (
    EPS_TAU,
    SEARCH_CYCLE_CAP,
    WEIGHT_BOUND,
    _boundary_matrix,
    _coupled_matrix,
    _norm_gradient,
    _objective,
    _tau_slope,
    direct_topology,
    instance_connector_witness,
)
from branchflow.wasserstein import lower_bound_terms

from conftest import cyclic_flow_instance, from_triplets, incidence, random_graph, random_path, triplets


def delta(x, n_samples=4):
    return make_atomic_path([np.atleast_1d(x)], np.ones((1, n_samples)), TimeGrid(n_samples))


FAST = OptimizerConfig(k_max=1, iterations=8, seed=0, multi_start=1, sweeps=2,
                       subgradient_steps=5)


# ---------------------------------------------------------------------------
# weight optimization
# ---------------------------------------------------------------------------

def test_single_edge_weight_forced():
    grid = TimeGrid(4)
    G = make_graph([[0.1], [0.8]], [(0, 1)], np.zeros((1, 4)), grid)
    tau = power_cost(0.5)
    out = optimize_weights(G, delta(0.1), delta(0.8), tau, 2, 0.1, FAST)
    assert np.allclose(out.weights, 1.0, atol=1e-9)


def test_infeasible_topology_rejected():
    grid = TimeGrid(4)
    G = make_graph([[0.1], [0.8]], [(1, 0)], np.zeros((1, 4)), grid)  # wrong direction
    with pytest.raises(ValueError, match="infeasible"):
        optimize_weights(G, delta(0.1), delta(0.8), power_cost(0.5), 2, 0.1, FAST)


def test_v_graph_consolidates_on_short_route():
    grid = TimeGrid(4)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1], [0.5, 0.8]])
    edges = [(0, 2), (2, 1), (0, 3), (3, 1)]
    G = make_graph(pts, edges, np.zeros((4, 4)), grid)
    x = make_atomic_path([pts[0]], np.ones((1, 4)), grid)
    y = make_atomic_path([pts[1]], np.ones((1, 4)), grid)
    out = optimize_weights(G, x, y, power_cost(0.5), 2, 0.1, FAST)
    # brute-force oracle over mass splits: all mass belongs on the short route
    short = 2 * math.hypot(0.5, 0.1)
    long = math.hypot(0.5, 0.8) + math.hypot(0.5, 0.8)
    splits = np.linspace(0, 1, 101)
    costs = splits**0.5 * short + (1 - splits) ** 0.5 * long
    assert np.argmin(costs) == len(splits) - 1
    assert np.allclose(out.weights[[0, 1]], 1.0, atol=1e-9)
    assert np.allclose(out.weights[[2, 3]], 0.0, atol=1e-9)


def test_lambda_sweep_reduces_witness_derivative():
    # oscillating demand at two nearby sinks: a sink-to-sink shuttle keeps the
    # long feed edges steady, so the high-lambda witness swings less
    n_samples = 8
    t = np.arange(n_samples) / n_samples
    grid = TimeGrid(n_samples)
    s = 0.25 * np.sin(2 * np.pi * t)
    source = make_atomic_path([[0.0, 0.0]], np.ones((1, n_samples)), grid)
    sinks = make_atomic_path([[0.9, 0.05], [0.9, -0.05]], np.vstack([0.5 + s, 0.5 - s]), grid)
    derivs = []
    for lam in (0.01, 10.0):
        rep = local_search(source, sinks, power_cost(0.5), 2, lam,
                           OptimizerConfig(k_max=1, iterations=12, seed=1))
        derivs.append(derivative_lp_norm(rep.witness, 2))
    assert derivs[1] <= derivs[0] + 1e-9


def test_coupled_matrix_rows_match_loop_reference():
    # rows are B W(t) sample by sample, then W(t+1) - W(t) - u(t) + v(t) with the wrap N-1 -> 0
    rng = np.random.default_rng(22)
    for n_samples in (2, 3, 5):
        G = random_graph(rng, n=2, n_vertices=5, n_samples=n_samples)
        nv, ne = G.vertices.shape[0], G.n_edges
        W, u, v = rng.uniform(-1.0, 1.0, size=(3, ne, n_samples))
        b = rng.uniform(-1.0, 1.0, size=(nv, n_samples))
        A = from_triplets(*_coupled_matrix(G, n_samples))
        assert A.shape == (nv * n_samples + ne * n_samples, 3 * ne * n_samples)
        x = np.concatenate([W.ravel(order="F"), u.ravel(order="F"), v.ravel(order="F")])
        rows = A @ x - np.concatenate([b.ravel(order="F"), np.zeros(ne * n_samples)])
        balance = rows[:nv * n_samples].reshape((nv, n_samples), order="F")
        diff = rows[nv * n_samples:].reshape((ne, n_samples), order="F")
        for t in range(n_samples):
            for vert in range(nv):
                ref = (sum(W[e, t] for e in range(ne) if G.edges[e, 1] == vert)
                       - sum(W[e, t] for e in range(ne) if G.edges[e, 0] == vert) - b[vert, t])
                assert balance[vert, t] == pytest.approx(ref, rel=0.0, abs=1e-14)
            nxt = (t + 1) % n_samples
            for e in range(ne):
                ref = W[e, nxt] - W[e, t] - u[e, t] + v[e, t]
                assert diff[e, t] == pytest.approx(ref, rel=0.0, abs=1e-14)


def test_coupled_matrix_matches_kron_build():
    # the index-arithmetic build equals the kron/block_array build entry for entry, and stores
    # no explicit zeros; kron stores B's zeros when B is dense enough for its block path
    def kron_build(B, n):
        ne = B.shape[1]
        eye_n, eye_split = sparse.eye_array(n), sparse.eye_array(ne * n)
        shift = sparse.eye_array(n, k=1) + sparse.eye_array(n, k=1 - n) - eye_n
        return sparse.block_array([[sparse.kron(eye_n, B), None, None],
                                   [sparse.kron(shift, sparse.eye_array(ne)), -eye_split, eye_split]],
                                  format="csc")

    rng = np.random.default_rng(23)
    kron_zeros = 0
    for n_samples in (2, 3, 4, 8):
        mu = random_path(rng, n=2, atoms=3, n_samples=n_samples)
        nu = random_path(rng, n=2, atoms=2, n_samples=n_samples)
        for G in (random_graph(rng, n=2, n_vertices=5, n_samples=n_samples),
                  random_graph(rng, n=2, n_vertices=3, n_samples=n_samples),
                  direct_topology(mu, nu), instance_connector_witness(mu, nu, 2)):
            coupled = _coupled_matrix(G, n_samples)
            A, ref = from_triplets(*coupled), kron_build(sparse.csc_array(incidence(G)), n_samples)
            assert A.shape == ref.shape
            assert np.array_equal(A.toarray(), ref.toarray())
            assert A.nnz == np.count_nonzero(A.toarray())
            # the LP's column-wise arrays are tocsc's, index order included
            a_matrix = _SampleLP(*coupled, WEIGHT_BOUND)._lp.a_matrix_
            assert a_matrix.start_ == A.indptr.tolist() and a_matrix.index_ == A.indices.tolist()
            assert a_matrix.value_ == A.data.tolist()
            kron_zeros += ref.nnz - np.count_nonzero(ref.toarray())
    assert kron_zeros > 0


def _unskipped_weights(topology, a_plus, a_minus, tau, p, lam, cfg):
    """optimize_weights's best W with every start running all cfg.sweeps sweeps."""
    n, ne = topology.grid.n_samples, topology.n_edges
    lengths = topology.lengths
    p_eff = min(p, 16.0) if not math.isinf(p) else 16.0
    weight_lp = _SampleLP(*_coupled_matrix(topology, n), WEIGHT_BOUND)
    rhs = np.concatenate([_boundary_matrix(topology, a_plus, a_minus).ravel(order="F"), np.zeros(ne * n)])

    def lp_solve(mass_cost, deriv_grad):
        split_cost = (lam * n * np.outer(lengths, deriv_grad)).ravel(order="F")
        x = weight_lp.solve(np.concatenate([mass_cost.ravel(order="F"), split_cost, split_cost]), rhs)
        assert x is not None
        return x[:ne * n].reshape((ne, n), order="F")

    rng = np.random.default_rng(cfg.seed)
    uniform = np.full(n, 1.0 / n)
    starts = [lp_solve(np.tile(lengths[:, None], (1, n)), uniform)]
    if np.any(topology.weights > 0):
        starts.append(topology.weights.copy())
    for _ in range(max(cfg.multi_start - 1, 0)):
        jitter = 1.0 + 0.5 * rng.random(ne)
        starts.append(lp_solve(np.tile((lengths * jitter)[:, None], (1, n)), uniform))
    best_W, best_val = None, math.inf
    for W in starts:
        for sweep in range(cfg.sweeps + 1):
            if sweep:
                mass_grad = _norm_gradient(_tau_mass_series(lengths, W, tau), p_eff)
                deriv_grad = _norm_gradient(_derivative_series(lengths, W), p_eff)
                W = lp_solve(mass_grad[None, :] * _tau_slope(tau, W, EPS_TAU) * lengths[:, None], deriv_grad)
            val = _objective(lengths, W, tau, p, lam)
            if val < best_val - 1e-15:
                best_W, best_val = W.copy(), val
    return best_W


def test_sweeps_end_at_swept_iterates_without_changing_weights(monkeypatch):
    # ending a start at an iterate already swept with at least as many sweeps left returns the same
    # weights bit for bit as running every sweep, with fewer LP solves
    calls = []
    real_solve = _SampleLP.solve

    def counting_solve(self, cost, rhs):
        calls.append(1)
        return real_solve(self, cost, rhs)

    monkeypatch.setattr(_SampleLP, "solve", counting_solve)
    rng = np.random.default_rng(24)
    taus = (power_cost(0.6), tabulated_cost([[0.0, 0.0], [0.25, 0.5], [1.0, 0.8]]))
    saved = []
    for n in (1, 2):
        mu = random_path(rng, n=n, atoms=3)
        nu = random_path(rng, n=n, atoms=2)
        for G in (direct_topology(mu, nu), instance_connector_witness(mu, nu, 1),
                  instance_connector_witness(mu, nu, 2)):
            for tau in taus:
                for sweeps, multi_start in ((3, 1), (4, 2), (5, 3)):
                    cfg = OptimizerConfig(seed=n + sweeps, sweeps=sweeps, multi_start=multi_start)
                    calls.clear()
                    ref = _unskipped_weights(G, mu, nu, tau, 2, 0.3, cfg)
                    ref_calls = len(calls)
                    calls.clear()
                    out = optimize_weights(G, mu, nu, tau, 2, 0.3, cfg)
                    assert out.weights.tobytes() == ref.tobytes()
                    assert len(calls) <= ref_calls
                    saved.append(ref_calls - len(calls))
    assert max(saved) > 0


def test_weight_lp_solves_each_distinct_cost_once(monkeypatch):
    # two starts can reach iterates that price alike; within one call each distinct cost goes
    # to HiGHS once, and the weights are those of running every sweep of every start
    costs = []
    real_solve = _SampleLP.solve

    def counting_solve(self, cost, rhs):
        costs.append(np.asarray(cost).tobytes())
        return real_solve(self, cost, rhs)

    monkeypatch.setattr(_SampleLP, "solve", counting_solve)
    rng = np.random.default_rng(30)
    repeated = 0
    for n in (1, 2):
        mu = random_path(rng, n=n, atoms=3)
        nu = random_path(rng, n=n, atoms=2)
        for G in (direct_topology(mu, nu), instance_connector_witness(mu, nu, 1),
                  instance_connector_witness(mu, nu, 2)):
            for tau in (power_cost(0.8), power_cost(0.6)):
                cfg = OptimizerConfig(seed=30, sweeps=2, multi_start=2)
                costs.clear()
                ref = _unskipped_weights(G, mu, nu, tau, 2, 0.3, cfg)
                ref_costs = list(costs)
                costs.clear()
                out = optimize_weights(G, mu, nu, tau, 2, 0.3, cfg)
                assert len(costs) == len(set(costs))
                assert set(costs) <= set(ref_costs)
                assert out.weights.tobytes() == ref.tobytes()
                repeated += len(ref_costs) - len(set(ref_costs))
    assert repeated > 0


def test_coupled_lp_prices_the_derivative_exactly():
    # the per-sample LPs with the derivative's sign pattern frozen at the last iterate
    # stopped at 3.961 here; one LP over all samples with exact |W(t+1) - W(t)| reaches 1.981
    rng = np.random.default_rng(20)
    mu = random_path(rng, n=1, atoms=3)
    nu = random_path(rng, n=1, atoms=2)
    tau = power_cost(0.5)
    out = optimize_weights(direct_topology(mu, nu), mu, nu, tau, 2, 1.0, FAST)
    assert kirchhoff_residual(out, mu, nu) <= 1e-9
    assert _objective(out.lengths, out.weights, tau, 2, 1.0) < 2.0


# ---------------------------------------------------------------------------
# baselines and seeds
# ---------------------------------------------------------------------------

def test_sample_lp_matches_linprog():
    # the per-sample solve must return linprog's x bit for bit, and fail exactly when it does
    rng = np.random.default_rng(11)
    outcomes = []
    for n in (1, 2):
        mu = random_path(rng, n=n, atoms=3)
        nu = random_path(rng, n=n, atoms=2)
        for G in (direct_topology(mu, nu), instance_connector_witness(mu, nu, 1),
                  instance_connector_witness(mu, nu, 2)):
            B = incidence(G)
            b = _boundary_matrix(G, mu, nu)
            unbalanced = b[:, 0].copy()
            unbalanced[0] += 0.5
            rhs_cases = [b[:, j] for j in range(b.shape[1])] + [-b[:, 0], unbalanced]
            costs = [G.lengths, np.ones(G.n_edges), np.zeros(G.n_edges),
                     G.lengths * rng.uniform(1.0, 1.5, G.n_edges), rng.uniform(-1.0, 1.0, G.n_edges)]
            for ub in (2.0, 0.5):
                sample_lp = _SampleLP(*triplets(B), ub)
                for rhs in rhs_cases:
                    for cost in costs:
                        x = sample_lp.solve(cost, rhs)
                        res = linprog(c=cost, A_eq=B, b_eq=rhs, bounds=(0.0, ub), method="highs")
                        assert (x is not None) == res.success
                        if res.success:
                            assert np.array_equal(x, res.x)
                        outcomes.append(res.success)
    assert any(outcomes) and not all(outcomes)


def test_import_leaves_the_lp_bindings_unloaded():
    # scipy.optimize (HiGHS) loads with the first LP, not with the package
    src = Path(branchflow.__file__).resolve().parents[1]
    probe = ("import sys, branchflow; from branchflow import optimize; "
             "assert 'scipy.optimize' not in sys.modules; optimize.linprog; "
             "assert 'scipy.optimize' in sys.modules")
    subprocess.run([sys.executable, "-c", probe], check=True, env={**os.environ, "PYTHONPATH": str(src)})


def test_import_loads_no_graph_library_and_no_lp_bindings():
    src = Path(branchflow.__file__).resolve().parents[1]
    probe = ("import sys, branchflow; "
             "print([m for m in ('networkx', 'scipy.sparse.csgraph', 'scipy.optimize') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.strip() == "[]"


def test_graph_and_instance_code_load_no_schema_library_and_no_sparse_matrices():
    # scipy.sparse and jsonschema stay unloaded through import, instance parsing, energy and
    # cycle elimination
    G, a_plus, a_minus = cyclic_flow_instance(np.random.default_rng(3))
    data = {"version": "1", "dimension": 2, "time_samples": G.grid.n_samples,
            "mu_plus": {"points": a_plus.points.tolist(), "weights": a_plus.weights.tolist()},
            "mu_minus": {"points": a_minus.points.tolist(), "weights": a_minus.weights.tolist()},
            "graph": graph_to_dict(G), "cost": {"kind": "power", "alpha": 0.5}, "p": 2, "lambda": 0.1}
    probe = ("import json, sys; import branchflow; from branchflow import graph, instance; "
             "loaded = lambda: [m for m in ('jsonschema', 'scipy.sparse') if m in sys.modules]; "
             "after_import = loaded(); "
             "inst = instance.instance_from_dict(json.load(sys.stdin)); "
             "graph.energy(inst.graph, inst.cost, inst.p, inst.lam); "
             "out = graph.eliminate_cycles(inst.graph, inst.mu_plus, inst.mu_minus, inst.p); "
             "assert graph.enumerate_cycles(inst.graph) and not graph.enumerate_cycles(out); "
             "print(after_import, loaded())")
    src = Path(branchflow.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", probe], input=json.dumps(data), check=True,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.strip() == "[] []"


def test_sample_lp_reuse_is_stateless():
    # one object answers a shuffled sequence with repeats exactly as a new object per LP and
    # linprog do
    rng = np.random.default_rng(12)
    mu = random_path(rng, n=2, atoms=3)
    nu = random_path(rng, n=2, atoms=2)
    G = direct_topology(mu, nu)
    B = incidence(G)
    b = _boundary_matrix(G, mu, nu)
    unbalanced = b[:, 0].copy()
    unbalanced[0] += 0.5
    rhs_cases = [b[:, j] for j in range(b.shape[1])] + [unbalanced]
    costs = [G.lengths, np.ones(G.n_edges), np.ones(G.n_edges, dtype=int),
             G.lengths * rng.uniform(1.0, 1.5, G.n_edges), rng.uniform(-1.0, 1.0, G.n_edges)]
    problems = [(c, r) for c in range(len(costs)) for r in range(len(rhs_cases))]
    infeasible = (0, len(rhs_cases) - 1)
    for ub in (2.0, 0.5):
        refs = {}
        for c, r in problems:
            x = _SampleLP(*triplets(B), ub).solve(costs[c], rhs_cases[r])
            res = linprog(c=costs[c], A_eq=B, b_eq=rhs_cases[r], bounds=(0.0, ub), method="highs")
            assert (x is not None) == res.success
            if res.success:
                assert np.array_equal(x, res.x)
            refs[c, r] = x
        assert refs[infeasible] is None and any(x is not None for x in refs.values())
        sequence = [problems[i % len(problems)] for i in rng.permutation(3 * len(problems))]
        sequence += [(0, 0), infeasible, (0, 0), infeasible, (3, 1)]  # repeats after a failure
        sample_lp = _SampleLP(*triplets(B), ub)
        for c, r in sequence:
            x = sample_lp.solve(costs[c], rhs_cases[r])
            assert (x is None) == (refs[c, r] is None)
            if x is not None:
                assert x.tobytes() == refs[c, r].tobytes()
                x += 1.0  # the caller's copy: a later repeat must not see this
        for r in range(len(rhs_cases)):
            assert (refs[1, r] is None) == (refs[2, r] is None)
            assert refs[1, r] is None or refs[1, r].tobytes() == refs[2, r].tobytes()


def test_self_loop_sums_to_a_stored_zero_as_tocsc_does():
    # TransportGraph accepts a self loop (make_graph refuses one): its +1 and -1 share one
    # (row, col) in every sample and become one stored 0, as tocsc sums them, and the solve
    # equals linprog's on that matrix
    grid = TimeGrid(3)
    G = TransportGraph(np.array([[0.0], [1.0], [2.0]]), [(0, 1), (1, 1), (1, 2)], np.zeros((3, 3)), grid)
    coupled = _coupled_matrix(G, 3)
    A = from_triplets(*coupled)
    assert A.nnz == len(coupled[2]) - 3 and np.count_nonzero(A.data == 0.0) == 3
    assert not incidence(G)[:, 1].any()
    weight_lp = _SampleLP(*coupled, WEIGHT_BOUND)
    a_matrix = weight_lp._lp.a_matrix_
    assert a_matrix.start_ == A.indptr.tolist() and a_matrix.index_ == A.indices.tolist()
    assert a_matrix.value_ == A.data.tolist()
    rhs = np.concatenate([np.tile([-1.0, 0.0, 1.0], 3), np.zeros(9)])
    for cost in (np.ones(27), np.arange(27.0) % 4):
        x = weight_lp.solve(cost, rhs)
        res = linprog(c=cost, A_eq=A, b_eq=rhs, bounds=(0.0, WEIGHT_BOUND), method="highs")
        assert res.success and np.array_equal(x, res.x)


def test_two_threads_match_a_sequential_run():
    # each thread runs its LPs on its own HiGHS solvers, so two threads at once give the
    # sequential run's bits
    rng = np.random.default_rng(13)
    tau = power_cost(0.8)
    jobs = [(random_path(rng, n=n, atoms=3), random_path(rng, n=n, atoms=2),
             random_path(rng, n=n, atoms=8, n_samples=6), random_path(rng, n=n, atoms=9, n_samples=6))
            for n in (1, 2)]

    def run(mu, nu, big_mu, big_nu, start=None):
        if start is not None:
            start.wait()
        out = []
        for _ in range(3):
            terms = lower_bound_terms(big_mu, big_nu, tau, 2, 0.1)
            W = optimize_weights(direct_topology(mu, nu), mu, nu, tau, 2, 0.3, FAST).weights
            out.append(([float(v).hex() for v in terms.values()], W.tobytes()))
        return out

    sequential = [run(*job) for job in jobs]
    start = threading.Barrier(2)
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(run, *job, start) for job in jobs]
        assert [f.result() for f in futures] == sequential


def test_baseline_upper_returns_finite_energy_and_witness():
    rng = np.random.default_rng(0)
    mu = random_path(rng, n=1, atoms=3)
    nu = random_path(rng, n=1, atoms=2)
    val, witness = baseline_upper(mu, nu, power_cost(0.8), 2, 0.5, 2)
    assert math.isfinite(val)
    assert witness.n_edges > 0


def test_baseline_upper_graph_is_the_connector_graph_bytewise():
    rng = np.random.default_rng(2)
    for n in (1, 2):
        mu = random_path(rng, n=n, atoms=4)
        nu = random_path(rng, n=n, atoms=3)
        for k in (1, 2, 3):
            _, witness = baseline_upper(mu, nu, power_cost(0.8), 2, 0.5, k)
            G = branchflow.connector(mu, nu, k)[0]
            for field in ("vertices", "edges", "weights"):
                assert getattr(witness, field).tobytes() == getattr(G, field).tobytes()


def test_baseline_upper_warns_for_inadmissible_cost():
    rng = np.random.default_rng(1)
    mu = random_path(rng, n=2, atoms=3)
    nu = random_path(rng, n=2, atoms=2)
    with pytest.warns(UserWarning, match="admissible"):
        baseline_upper(mu, nu, power_cost(0.4), 2, 0.5, 2)


def test_baseline_upper_warns_on_every_call():
    # the admissibility answer is kept on the cost; the warning is not
    rng = np.random.default_rng(1)
    mu = random_path(rng, n=2, atoms=3)
    nu = random_path(rng, n=2, atoms=2)
    tau = power_cost(0.4)
    messages = []
    for k in (1, 2, 3):
        with pytest.warns(UserWarning, match="admissible") as caught:
            baseline_upper(mu, nu, tau, 2, 0.5, k)
        messages.append([str(w.message) for w in caught])
    assert messages[0] == messages[1] == messages[2] and len(messages[0]) == 1


def test_instance_connector_witness_feasible():
    rng = np.random.default_rng(2)
    for n in (1, 2):
        mu = random_path(rng, n=n, atoms=3)
        nu = random_path(rng, n=n, atoms=2)
        for k in (1, 2):
            W = instance_connector_witness(mu, nu, k)
            assert kirchhoff_residual(W, mu, nu) <= 1e-9


def test_direct_topology_complete():
    rng = np.random.default_rng(3)
    mu = random_path(rng, n=1, atoms=2)
    nu = random_path(rng, n=1, atoms=2)
    G = direct_topology(mu, nu)
    n_points = len(mu.support() | nu.support())
    assert G.n_edges == n_points * (n_points - 1)


# ---------------------------------------------------------------------------
# local search
# ---------------------------------------------------------------------------

def test_delta_pair_bracket_collapses():
    x, y = delta(0.1), delta(0.8)
    rep = local_search(x, y, power_cost(0.5), 2, 0.1, FAST)
    assert rep.upper == pytest.approx(0.7, abs=1e-6)
    assert abs(rep.gap) <= 1e-6
    assert rep.witness.n_edges == 1


def test_identical_paths_empty_witness():
    rng = np.random.default_rng(4)
    a = random_path(rng, n=1, atoms=3)
    rep = local_search(a, a, power_cost(0.5), 2, 0.1, FAST)
    assert rep.upper <= 1e-9
    assert rep.witness.n_edges == 0


def test_report_invariants_random_instances():
    tau = power_cost(0.8)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        mu = random_path(rng, n=1, atoms=3)
        nu = random_path(rng, n=1, atoms=2)
        rep = local_search(mu, nu, tau, 2, 0.3, FAST)
        assert rep.lower <= rep.upper + 1e-6
        assert is_never_cyclic(rep.witness, cap=512)
        if rep.witness.n_edges:
            assert kirchhoff_residual(rep.witness, mu, nu) <= 1e-6
        assert rep.upper <= min(rep.baseline_upper.values()) + 1e-9


def test_shared_support_instances_stay_feasible():
    n_samples = 8
    t = np.arange(n_samples) / n_samples
    grid = TimeGrid(n_samples)
    wp = np.vstack([0.5 + 0.25 * np.sin(2 * np.pi * t), 0.5 - 0.25 * np.sin(2 * np.pi * t)])
    wm = np.vstack([0.5 + 0.25 * np.cos(2 * np.pi * t), 0.5 - 0.25 * np.cos(2 * np.pi * t)])
    mu = make_atomic_path([[-0.3], [0.4]], wp, grid)
    nu = make_atomic_path([[-0.3], [0.4]], wm, grid)
    rep = local_search(mu, nu, power_cost(0.5), 2, 0.1, FAST)
    assert kirchhoff_residual(rep.witness, mu, nu) <= 1e-6
    assert is_never_cyclic(rep.witness, cap=512)
    assert rep.lower <= rep.upper + 1e-6


def test_local_search_without_a_seed_raises(monkeypatch):
    # 14 atoms are too many for the direct topology, and k_max = 0 builds no connector
    rng = np.random.default_rng(6)
    mu, nu = random_path(rng, n=1, atoms=7), random_path(rng, n=1, atoms=7)
    with pytest.raises(ValueError, match="no seed topology: direct topology limited to 12 atoms, got 14"):
        local_search(mu, nu, power_cost(0.8), 2, 0.3, replace(FAST, k_max=0))
    # every seed has too many cycles to certify

    def explode(*args, **kwargs):
        raise CycleExplosionError(SEARCH_CYCLE_CAP + 1, SEARCH_CYCLE_CAP)

    monkeypatch.setattr(optimize, "strip_strong_cycles", explode)
    mu, nu = random_path(rng, n=1, atoms=3), random_path(rng, n=1, atoms=2)
    with pytest.raises(ValueError, match=f"every seed candidate has more than {SEARCH_CYCLE_CAP} simple cycles"):
        local_search(mu, nu, power_cost(0.8), 2, 0.3, FAST)


@pytest.mark.parametrize("atoms", [(3, 2), (6, 6)])
def test_local_search_seeds_only_from_the_direct_topology_up_to_twelve_atoms(monkeypatch, atoms):
    def refuse(*args, **kwargs):
        raise AssertionError("connector witness built although the direct topology applies")

    monkeypatch.setattr(optimize, "instance_connector_witness", refuse)
    rng = np.random.default_rng(11)
    mu, nu = random_path(rng, n=1, atoms=atoms[0]), random_path(rng, n=1, atoms=atoms[1])
    rep = local_search(mu, nu, power_cost(0.8), 2, 0.3, replace(FAST, k_max=2))
    assert kirchhoff_residual(rep.witness, mu, nu) <= 1e-6


def test_local_search_seeds_from_every_connector_witness_above_twelve_atoms(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return instance_connector_witness(*args, **kwargs)

    monkeypatch.setattr(optimize, "instance_connector_witness", counting)
    rng = np.random.default_rng(12)
    mu, nu = random_path(rng, n=1, atoms=7), random_path(rng, n=1, atoms=7)
    rep = local_search(mu, nu, power_cost(0.8), 2, 0.3, replace(FAST, k_max=2, iterations=2))
    assert calls == [1, 2]
    assert kirchhoff_residual(rep.witness, mu, nu) <= 1e-6


@pytest.mark.parametrize("alpha", [0.8, 0.4])  # admissible in the plane iff alpha > 1 - 1/2
def test_report_baselines_equal_baseline_upper_bitwise(alpha):
    rng = np.random.default_rng(13)
    mu, nu = random_path(rng, n=2, atoms=3), random_path(rng, n=2, atoms=2)
    tau = power_cost(alpha)
    rep = local_search(mu, nu, tau, 2, 0.3, replace(FAST, k_max=3))
    assert sorted(rep.baseline_upper) == [1, 2, 3]
    for k, value in rep.baseline_upper.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = baseline_upper(mu, nu, tau, 2, 0.3, k)[0]
        assert value.hex() == expected.hex()


def test_identical_paths_report_a_positive_zero_gap():
    rng = np.random.default_rng(14)
    a = random_path(rng, n=1, atoms=2)
    rep = local_search(a, a, power_cost(0.5), 2, 0.1, FAST)
    assert rep.gap == 0.0 and math.copysign(1.0, rep.gap) == 1.0


def test_determinism_same_seed_same_report():
    rng = np.random.default_rng(5)
    mu = random_path(rng, n=1, atoms=3)
    nu = random_path(rng, n=1, atoms=2)
    cfg = OptimizerConfig(k_max=1, iterations=15, seed=42)
    rep1 = local_search(mu, nu, power_cost(0.7), 2, 0.2, cfg)
    rep2 = local_search(mu, nu, power_cost(0.7), 2, 0.2, cfg)
    assert rep1.upper == rep2.upper
    assert rep1.lower == rep2.lower
    assert np.array_equal(rep1.witness.weights, rep2.witness.weights)


def test_witness_beats_lower_bound_from_module():
    rng = np.random.default_rng(6)
    mu = random_path(rng, n=2, atoms=3)
    nu = random_path(rng, n=2, atoms=2)
    tau = power_cost(0.8)
    rep = local_search(mu, nu, tau, 2, 0.3, FAST)
    assert lower_bound(mu, nu, tau, 2, 0.3) <= rep.upper + 1e-6


# ---------------------------------------------------------------------------
# metric probe
# ---------------------------------------------------------------------------

def test_metric_probe_requires_three_paths():
    rng = np.random.default_rng(7)
    a = random_path(rng)
    with pytest.raises(ValueError):
        metric_probe([a, a], power_cost(0.5), 2, 0.1)


def test_metric_probe_identical_pair_bracket():
    rng = np.random.default_rng(8)
    a = random_path(rng, n=1, atoms=3)
    b = random_path(rng, n=1, atoms=2)
    report = metric_probe([a, a, b], power_cost(0.5), 2, 0.1, FAST)
    assert report["brackets"]["0,1"]["upper"] <= 1e-9
    assert report["brackets"]["0,1"]["lower"] <= 1e-12


def test_metric_probe_triangle_defects_within_gap_budget():
    tau = power_cost(0.8)
    rng = np.random.default_rng(9)
    paths = [random_path(rng, n=1, atoms=2, n_samples=4) for _ in range(3)]
    report = metric_probe(paths, tau, 2, 0.2, FAST)
    assert not any(t["flagged"] for t in report["triangles"])


def test_metric_probe_convergence_family():
    rng = np.random.default_rng(10)
    base = random_path(rng, n=1, atoms=2, n_samples=4)
    family = []
    t = np.arange(4) / 4
    for m in (4, 6):
        phases = np.arange(base.n_atoms)[:, None]
        w = base.weights * (1.0 + 2.0**-m * np.sin(2 * np.pi * t[None, :] + phases))
        w /= w.sum(axis=0)
        family.append(make_atomic_path(base.points, w, base.grid))
    others = [random_path(rng, n=1, atoms=2, n_samples=4) for _ in range(2)]
    report = metric_probe([base] + others, power_cost(0.9), 2, 0.1, FAST,
                          convergence_family=(family, base))
    probes = report["convergence"]
    assert probes[-1]["lid1_terms"] < probes[0]["lid1_terms"]
    assert probes[-1]["upper"] < 0.1

import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.optimize import linprog
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchflow import (
    AtomicMeasurePath,
    BalancedSignedMeasure,
    TimeGrid,
    connector,
    derivative_path,
    energy,
    lid1,
    lid1_path_norm,
    lower_bound,
    make_atomic_path,
    power_cost,
)
from branchflow import tabulated_cost, wasserstein
from branchflow.lp import _SampleLP
from branchflow.measures import lp_time_norm
from branchflow.wasserstein import (
    _merge_difference,
    lid1_dual_lp,
    line_bound_applies,
    line_flux,
    lower_bound_terms,
    measure_at,
)

from conftest import BUMPY, concave_table, line_pair, random_path, triplets


def test_lid1_two_deltas():
    m1 = BalancedSignedMeasure([[0.3, 0.4]], [1.0])
    m2 = BalancedSignedMeasure([[-0.2, 0.9]], [1.0])
    assert lid1(m1, m2) == pytest.approx(math.hypot(0.5, 0.5))


def test_lid1_split_example():
    m1 = BalancedSignedMeasure([[0.0], [2.0]], [0.5, 0.5])
    m2 = BalancedSignedMeasure([[1.0]], [1.0])
    assert lid1(m1, m2) == pytest.approx(1.0)


def test_lid1_identical_is_zero():
    m = BalancedSignedMeasure([[0.1], [0.7]], [0.4, 0.6])
    assert lid1(m, m) == 0.0


def test_lid1_unbalanced_rejected():
    with pytest.raises(ValueError, match="totals"):
        lid1(BalancedSignedMeasure([[0.0]], [1.0]), BalancedSignedMeasure([[1.0]], [0.5]))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_lid1_non_finite_coordinate_rejected(bad):
    # the shared LP helper rejects the data; its message must not speak of the weight LPs
    m1 = BalancedSignedMeasure([[0.0, 0.0], [bad, 0.5]], [0.5, 0.5])
    m2 = BalancedSignedMeasure([[1.0, 0.0]], [1.0])
    with pytest.raises(ValueError) as info:
        lid1(m1, m2)
    assert "weight" not in str(info.value)


def test_lid1_metric_axioms_random():
    rng = np.random.default_rng(0)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        measures = []
        for _ in range(3):
            pts = rng.normal(size=(k, 2))
            w = rng.uniform(0.1, 1.0, size=k)
            measures.append(BalancedSignedMeasure(pts, w / w.sum()))
        d01 = lid1(measures[0], measures[1])
        d10 = lid1(measures[1], measures[0])
        d02 = lid1(measures[0], measures[2])
        d12 = lid1(measures[1], measures[2])
        assert d01 == pytest.approx(d10, abs=1e-12)
        assert d01 <= d02 + d12 + 1e-9
        assert d01 >= 0.0


def test_lid1_primal_matches_dual_lp():
    rng = np.random.default_rng(1)
    for _ in range(25):
        k1, k2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        w1 = rng.uniform(0.1, 1.0, size=k1)
        w2 = rng.uniform(0.1, 1.0, size=k2)
        m1 = BalancedSignedMeasure(rng.normal(size=(k1, 2)), w1 / w1.sum())
        m2 = BalancedSignedMeasure(rng.normal(size=(k2, 2)), w2 / w2.sum())
        assert lid1(m1, m2) == pytest.approx(lid1_dual_lp(m1, m2), abs=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_lid1_signed_balanced_inputs(seed):
    # signed measures with zero total on both sides
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    pts = rng.normal(size=(k, 1))
    w = rng.normal(size=k)
    w -= w.mean()
    m1 = BalancedSignedMeasure(pts, w)
    m2 = BalancedSignedMeasure(rng.normal(size=(2, 1)), np.array([0.3, -0.3]))
    d = lid1(m1, m2)
    assert d >= 0.0
    assert d == pytest.approx(lid1(m2, m1), abs=1e-12)


def _cdf_distance_1d(m1, m2):
    """Sum of |F - G| dx over the merged support: the closed form on the line."""
    x = np.concatenate([m1.points[:, 0], m2.points[:, 0]])
    d = np.concatenate([m1.weights, -m2.weights])
    order = np.argsort(x, kind="stable")
    return float(np.sum(np.abs(np.cumsum(d[order])[:-1]) * np.diff(x[order])))


_atoms_1d = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.01, 1.0)), min_size=1, max_size=12)


@given(a=_atoms_1d, b=_atoms_1d, signed=st.booleans())
@example(a=[(1.0, 1.0), (-0.5, 1.0)], b=[(0.0, 1.0), (1e-9, 1.0)], signed=False)  # plans 2e-9 apart
@example(a=[(0.0, 1.0), (1.0, 0.5)], b=[(0.0, 1.0), (1.0, 0.50000001)], signed=False)  # 7e-9 to move
@settings(max_examples=150, deadline=None)
def test_lid1_matches_1d_closed_form(a, b, signed):
    (x1, w1), (x2, w2) = (np.array(side).T for side in (a, b))
    if signed:  # zero-total signed measures on both sides
        w1, w2 = w1 - w1.mean(), w2 - w2.mean()
    else:
        w2 = w2 * (w1.sum() / w2.sum())
    m1 = BalancedSignedMeasure(x1[:, None], w1)
    m2 = BalancedSignedMeasure(x2[:, None], w2)
    d = lid1(m1, m2)
    # abs covers the atoms below ATOM_TOL that lid1 drops and the closed form keeps
    assert d == pytest.approx(_cdf_distance_1d(m1, m2), rel=1e-12, abs=1e-13)
    assert lid1(m1, m2).hex() == d.hex()


def test_path_norm_identical_and_constant():
    rng = np.random.default_rng(2)
    a = random_path(rng, n=1, atoms=3, n_samples=4)
    assert lid1_path_norm(a, a, 2) == 0.0
    x = make_atomic_path([[0.2]], np.ones((1, 4)), TimeGrid(4))
    y = make_atomic_path([[0.9]], np.ones((1, 4)), TimeGrid(4))
    single = lid1(measure_at(x, 0), measure_at(y, 0))
    assert lid1_path_norm(x, y, 3) == pytest.approx(single)


def _lid1_one_sample(m1, m2, solvers):
    """lid1 as computed one sample at a time: merged difference, sign split, own distances."""
    if abs(m1.total() - m2.total()) > wasserstein.BALANCE_TOL:
        raise ValueError(f"totals differ: {m1.total()} vs {m2.total()}")
    pts, d = _merge_difference(m1, m2)
    pos = d > 0
    p_pts, p_mass, q_pts, q_mass = pts[pos], d[pos], pts[~pos], -d[~pos]
    if p_mass.sum() <= wasserstein.ATOM_TOL or q_mass.sum() <= wasserstein.ATOM_TOL:
        return 0.0
    cost = np.linalg.norm(p_pts[:, None, :] - q_pts[None, :, :], axis=2)
    return wasserstein._min_cost_transport(cost, p_mass, q_mass, solvers)


def _path_norm_one_sample_at_a_time(A, B, p, solvers):
    vals = [_lid1_one_sample(measure_at(A, j), measure_at(B, j), solvers) for j in range(A.grid.n_samples)]
    return lp_time_norm(vals, p)


def _paths_sharing_atoms(rng, n, k1, k2, shared, n_samples=8):
    """Two random paths whose first ``shared`` atoms sit at the same points."""
    a = random_path(rng, n=n, atoms=k1, n_samples=n_samples)
    b = random_path(rng, n=n, atoms=k2, n_samples=n_samples)
    points = np.vstack([a.points[:shared], b.points[shared:]])
    return a, make_atomic_path(points, b.weights, b.grid)


def test_path_norm_is_the_one_sample_loop_bitwise():
    rng = np.random.default_rng(45)
    pairs = []
    for n in (1, 2, 3):
        for k1, k2, shared in ((1, 1, 1), (3, 1, 0), (4, 5, 2), (12, 14, 6), (16, 13, 13)):
            pairs.append(_paths_sharing_atoms(rng, n, k1, k2, shared))
    # equal at samples 0 and 3, equal up to rounding (below ATOM_TOL) at 5, and at 6 on all
    # atoms but two; apart elsewhere
    a = random_path(rng, n=2, atoms=6, n_samples=8)
    w = random_path(rng, n=2, atoms=6, n_samples=8).weights.copy()
    w[:, [0, 3]] = a.weights[:, [0, 3]]
    w[:, [5, 6]] = a.weights[:, [5, 6]] * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, size=(6, 2)))
    w[:2, 6] = w[1::-1, 6]
    pairs.append((a, make_atomic_path(a.points, w, a.grid)))
    pairs.append((a, a))
    for A, B in pairs:
        for X, Y in ((A, B), (derivative_path(A), derivative_path(B))):
            for p in (2, 3, math.inf):
                solvers, expected_solvers = {}, {}
                expected = _path_norm_one_sample_at_a_time(X, Y, p, expected_solvers)
                assert lid1_path_norm(X, Y, p, solvers).hex() == expected.hex()
                assert sorted(solvers) == sorted(expected_solvers)  # the same LP shapes
            for j in range(X.grid.n_samples):
                m1, m2 = measure_at(X, j), measure_at(Y, j)
                assert lid1(m1, m2).hex() == _lid1_one_sample(m1, m2, {}).hex()


def test_path_norm_raises_the_one_sample_error_on_an_unbalanced_sample():
    rng = np.random.default_rng(46)
    a, b = _paths_sharing_atoms(rng, 2, 5, 4, 2, n_samples=4)
    weights = b.weights.copy()
    weights[:, 2] *= 0.5
    b = AtomicMeasurePath(b.points, weights, b.grid)
    with pytest.raises(ValueError, match="totals differ") as expected:
        _path_norm_one_sample_at_a_time(a, b, 2, {})
    with pytest.raises(ValueError, match="totals differ") as caught:
        lid1_path_norm(a, b, 2)
    assert str(caught.value) == str(expected.value)


def test_path_norm_ordering_between_exponents():
    rng = np.random.default_rng(3)
    a = random_path(rng, n=1, atoms=3, n_samples=8)
    b = random_path(rng, n=1, atoms=3, n_samples=8)
    assert lid1_path_norm(a, b, 2) <= lid1_path_norm(a, b, math.inf) + 1e-12


def test_path_norm_grid_mismatch():
    a = random_path(np.random.default_rng(4), n_samples=4)
    b = random_path(np.random.default_rng(5), n_samples=8)
    with pytest.raises(ValueError, match="grids"):
        lid1_path_norm(a, b, 2)


def test_lower_bound_identical_zero():
    a = random_path(np.random.default_rng(6), n=2, atoms=3)
    assert lower_bound(a, a, power_cost(0.5), 2, 1.0) == 0.0


def test_lower_bound_delta_pair_is_distance():
    x = make_atomic_path([[0.1]], np.ones((1, 4)), TimeGrid(4))
    y = make_atomic_path([[0.8]], np.ones((1, 4)), TimeGrid(4))
    for alpha in (0.5, 0.8, 1.0):
        assert lower_bound(x, y, power_cost(alpha), 2, 3.0) == pytest.approx(0.7)


def test_lower_bound_terms_report():
    x = make_atomic_path([[0.1]], np.ones((1, 4)), TimeGrid(4))
    y = make_atomic_path([[0.8]], np.ones((1, 4)), TimeGrid(4))
    terms = lower_bound_terms(x, y, power_cost(0.5), 2, 3.0)
    assert terms["rho"] == pytest.approx(1.0)
    assert terms["lid1_derivative_term"] == pytest.approx(0.0)
    assert terms["lower_bound"] == pytest.approx(0.7)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_lower_bound_rejects_a_lambda_that_is_not_finite_and_positive(lam):
    x = make_atomic_path([[0.1]], np.ones((1, 4)), TimeGrid(4))
    y = make_atomic_path([[0.8]], np.ones((1, 4)), TimeGrid(4))
    with pytest.raises(ValueError, match="lambda must be finite and positive"):
        lower_bound(x, y, power_cost(0.5), 2, lam)
    with pytest.raises(ValueError, match="lambda must be finite and positive"):
        lower_bound_terms(x, y, power_cost(0.5), 2, lam)


@pytest.mark.parametrize("p", [1.0, 0.5, math.nan])
def test_lower_bound_rejects_p_outside_one_to_infinity(p):
    x = make_atomic_path([[0.1]], np.ones((1, 4)), TimeGrid(4))
    y = make_atomic_path([[0.8]], np.ones((1, 4)), TimeGrid(4))
    with pytest.raises(ValueError, match=r"p must lie in \(1, inf\]"):
        lower_bound(x, y, power_cost(0.5), p, 0.1)


def test_lower_bound_warns_when_rho_differs():
    from branchflow import tabulated_cost

    tau = tabulated_cost([[0.0, 0.0], [0.5, 0.45], [1.0, 0.8]])
    x = make_atomic_path([[0.1]], np.ones((1, 4)), TimeGrid(4))
    y = make_atomic_path([[0.8]], np.ones((1, 4)), TimeGrid(4))
    with pytest.warns(UserWarning, match="rho"):
        lower_bound(x, y, tau, 2, 1.0)


def test_lower_bound_under_connector_energy():
    # the certificate applies to the connector's own boundary data
    rng = np.random.default_rng(7)
    tau = power_cost(0.8)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        mu = random_path(rng, n=n, atoms=3, n_samples=4)
        nu = random_path(rng, n=n, atoms=2, n_samples=4)
        for k in (1, 2):
            G, a_plus, a_minus = connector(mu, nu, k)
            total = energy(G, tau, 2, 0.4).total
            assert lower_bound(a_plus, a_minus, tau, 2, 0.4) <= total + 1e-6


# ---------------------------------------------------------------------------
# the coarea bound on the line
# ---------------------------------------------------------------------------

def test_line_bound_applies_to_power_and_concave_tabulated_costs():
    assert line_bound_applies(power_cost(0.3)) and line_bound_applies(power_cost(1.0))
    assert line_bound_applies(tabulated_cost([[0.0, 0.0], [0.25, 0.5], [1.0, 0.8]]))
    assert line_bound_applies(tabulated_cost([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]))  # linear
    assert not line_bound_applies(tabulated_cost(BUMPY))  # the slope rises from 0.1 to 0.8


def test_line_flux_nets_shared_points_and_keeps_every_point():
    grid = TimeGrid(2)
    mu = AtomicMeasurePath([[0.5], [-0.5], [0.0]], [[0.5, 0.25], [0.25, 0.25], [0.25, 0.5]], grid)
    nu = AtomicMeasurePath([[0.0], [0.9], [0.5]], [[0.25, 0.5], [0.5, 0.25], [0.25, 0.25]], grid)
    pts, flux = line_flux(mu, nu)
    assert pts[:, 0].tolist() == [-0.5, 0.0, 0.5, 0.9]
    # 0.0 nets to zero at both samples; left of 0.9 sits mu's surplus over nu
    assert flux.tolist() == [[0.25, 0.25], [0.25, 0.25], [0.5, 0.25]]


def test_line_mass_term_is_the_coarea_sum_and_raises_the_bound():
    grid = TimeGrid(4)
    mu = make_atomic_path([[-0.5], [0.5]], np.full((2, 4), 0.5), grid)
    nu = make_atomic_path([[0.0]], np.ones((1, 4)), grid)
    tau = power_cost(0.5)
    terms = lower_bound_terms(mu, nu, tau, 2, 0.1)
    # each half of the mass crosses its own gap: 2 * tau(1/2) * 0.5, above Lid1 = 0.5
    assert terms["line_mass_term"] == pytest.approx(0.5**0.5)
    assert terms["lid1_mass_term"] == pytest.approx(0.5)
    assert terms["lower_bound"] == pytest.approx(0.5**0.5)


@pytest.mark.parametrize("n, table", [(2, None), (2, [[0.0, 0.0], [0.25, 0.5], [1.0, 0.8]]), (1, BUMPY)])
def test_lower_bound_keeps_its_expression_bitwise_off_the_line_or_for_an_uncovered_cost(n, table):
    rng = np.random.default_rng(47)
    mu, nu = random_path(rng, n=n, atoms=4), random_path(rng, n=n, atoms=3)
    tau = power_cost(0.8) if table is None else tabulated_cost(table)
    terms = lower_bound_terms(mu, nu, tau, 2, 0.3)
    assert "line_mass_term" not in terms
    expected = terms["rho"] * terms["lid1_mass_term"] + 0.3 * terms["lid1_derivative_term"]
    assert terms["lower_bound"].hex() == expected.hex()


@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 1.0), table=st.booleans(),
       p=st.sampled_from([2, 4, math.inf]), shared=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_line_bound_stays_under_every_connector_on_the_line(seed, alpha, table, p, shared):
    rng = np.random.default_rng(seed)
    mu, nu = line_pair(rng, 3, 3, shared=shared)
    tau = tabulated_cost(concave_table(rng)) if table else power_cost(alpha)
    lam = 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rho(tau, 1) != 1 for most tables
        terms = lower_bound_terms(mu, nu, tau, p, lam)
        assert terms["line_mass_term"] >= 0.0
        # the line bound only ever raises the lid1 bound
        old = terms["rho"] * terms["lid1_mass_term"] + lam * terms["lid1_derivative_term"]
        assert terms["lower_bound"] >= old - 1e-12
        for k in (1, 2, 3):
            G, a_plus, a_minus = connector(mu, nu, k)
            assert lower_bound(a_plus, a_minus, tau, p, lam) <= energy(G, tau, p, lam).total + 1e-12


def test_lower_bound_includes_derivative_term():
    # static measures agree; only the oscillation separates them
    n_samples = 8
    t = np.arange(n_samples) / n_samples
    grid = TimeGrid(n_samples)
    w1 = np.vstack([0.5 + 0.3 * np.sin(2 * np.pi * t), 0.5 - 0.3 * np.sin(2 * np.pi * t)])
    a = make_atomic_path([[-0.5], [0.5]], w1, grid)
    b = make_atomic_path([[-0.5], [0.5]], 0.5 * np.ones((2, n_samples)), grid)
    lb0 = lower_bound(a, b, power_cost(0.5), 2, 1e-9)
    lb1 = lower_bound(a, b, power_cost(0.5), 2, 2.0)
    deriv_norm = lid1_path_norm(derivative_path(a), derivative_path(b), 2)
    assert deriv_norm > 0
    assert lb1 - lb0 == pytest.approx(2.0 * deriv_norm, rel=1e-9)


# ---------------------------------------------------------------------------
# the transport LP: one presolve-free solver per atom-count pair
# ---------------------------------------------------------------------------

def _transport_matrix(m, l):
    """Complete bipartite incidence: column i*l + j moves mass from source i to sink j."""
    B = np.zeros((m + l, m * l))
    for i in range(m):
        for j in range(l):
            B[i, i * l + j] = B[m + j, i * l + j] = 1.0
    return B


def test_transport_lp_without_presolve_matches_linprog():
    # bit for bit what linprog returns with presolve off, on unit-scale and on lid1's
    # power-of-two-scaled data
    rng = np.random.default_rng(40)
    for _ in range(60):
        m, l = (int(k) for k in rng.integers(1, 15, size=2))
        B = _transport_matrix(m, l)
        supply, demand = rng.uniform(0.05, 1.0, size=m), rng.uniform(0.05, 1.0, size=l)
        demand *= supply.sum() / demand.sum()
        cost = rng.uniform(0.0, 2.0, size=m * l)
        sample_lp = _SampleLP(*triplets(B), np.inf, presolve=False)
        for c, rhs in ((cost, np.concatenate([supply, demand])),
                       (np.ldexp(cost, 19), np.ldexp(np.concatenate([supply, demand]), 20))):
            x = sample_lp.solve(c, rhs)
            res = linprog(c=c, A_eq=B, b_eq=rhs, bounds=(0.0, None), method="highs",
                          options={"presolve": False})
            assert res.success and x is not None
            assert np.array_equal(x, res.x)


def _atom_counts(A, B):
    """(m, l) of every sample's transport LP: the signs of the merged difference."""
    keys = []
    for j in range(A.grid.n_samples):
        _, d = _merge_difference(measure_at(A, j), measure_at(B, j))
        keys.append((int(np.sum(d > 0)), int(np.sum(d < 0))))
    return keys


def test_lower_bound_terms_builds_one_transport_solver_per_atom_count_pair(monkeypatch):
    built = []

    class CountingLP(_SampleLP):
        def __init__(self, *args, presolve=True):
            built.append(presolve)
            super().__init__(*args, presolve=presolve)

    rng = np.random.default_rng(41)
    mu = random_path(rng, n=2, atoms=12, n_samples=8)
    nu = random_path(rng, n=2, atoms=14, n_samples=8)
    expected = lower_bound_terms(mu, nu, power_cost(0.8), 2, 0.1)
    monkeypatch.setattr(wasserstein, "_SampleLP", CountingLP)
    assert lower_bound_terms(mu, nu, power_cost(0.8), 2, 0.1) == expected
    shapes = _atom_counts(mu, nu) + _atom_counts(derivative_path(mu), derivative_path(nu))
    assert len(shapes) == 16 and len(set(shapes)) < 16
    assert len(built) == len(set(shapes))
    assert not any(built)


def test_transport_shapes_sharing_one_solver_match_a_solver_each():
    # every shape runs on this thread's presolve-free HiGHS solver, one after another, and on
    # a new solver in a new thread; each lid1 must equal the lone solver's
    rng = np.random.default_rng(44)
    pairs = []
    for _ in range(80):
        k1, k2, n = (int(k) for k in rng.integers((1, 1, 1), (9, 9, 3)))
        pairs.append(_pair_with_single_atom_sides(rng, k1, k2, n))
    solvers = {}
    shared = [lid1(m1, m2, solvers=solvers).hex() for m1, m2 in pairs]
    assert not any(lp._presolve for lp in solvers.values()) and len(solvers) > 20
    for (m1, m2), value in zip(pairs, shared):
        with ThreadPoolExecutor(max_workers=1) as lone:
            assert lone.submit(lid1, m1, m2).result().hex() == value


def _pair_with_single_atom_sides(rng, k1, k2, n):
    w1, w2 = rng.uniform(0.1, 1.0, size=k1), rng.uniform(0.1, 1.0, size=k2)
    m1 = BalancedSignedMeasure(rng.uniform(-0.9, 0.9, size=(k1, n)), w1 / w1.sum())
    m2 = BalancedSignedMeasure(rng.uniform(-0.9, 0.9, size=(k2, n)), w2 / w2.sum())
    return m1, m2


def test_lid1_without_presolve_matches_presolve_and_dual(monkeypatch):
    # presolve solved one-atom sides in no simplex iteration; without it the simplex runs,
    # and the value must stay that of the presolved LP and of the dual
    rng = np.random.default_rng(42)
    pairs = [_pair_with_single_atom_sides(rng, k1, k2, n)
             for n in (1, 2) for k1 in (1, 2, 5) for k2 in (1, 3, 6)]
    values = [lid1(m1, m2) for m1, m2 in pairs]
    with monkeypatch.context() as patch:
        patch.setattr(wasserstein, "_SampleLP", lambda *args, presolve: _SampleLP(*args, presolve=True))
        presolved = [lid1(m1, m2) for m1, m2 in pairs]
    for (m1, m2), value, ref in zip(pairs, values, presolved):
        assert value == pytest.approx(ref, rel=1e-12)
        assert value == pytest.approx(lid1_dual_lp(m1, m2), abs=1e-9)


def test_lid1_one_atom_side_is_the_forced_plan():
    # a single source must ship every sink's mass straight to it: sum_j q_j |p - q_j|
    rng = np.random.default_rng(43)
    for n in (1, 2):
        for k in (1, 2, 7, 14):
            m1, m2 = _pair_with_single_atom_sides(rng, 1, k, n)
            forced = float(np.sum(m2.weights * np.linalg.norm(m2.points - m1.points[0], axis=1)))
            assert lid1(m1, m2) == pytest.approx(forced, rel=1e-12)
            assert lid1(m2, m1) == pytest.approx(forced, rel=1e-12)

import math

import numpy as np
import pytest

from branchflow import (
    TimeGrid,
    derivative_path,
    dyadic_project,
    make_atomic_path,
    mollified_dyadic_project,
    sobolev_seminorm,
)
from branchflow.measures import (
    AtomicMeasurePath,
    SignedAtomicPath,
    _bucket,
    bump,
    cell_center,
    cell_index,
    dyadic_project_signed,
    lp_time_norm,
    lp_time_norms,
)

from conftest import random_path


def test_constant_delta_path():
    a = make_atomic_path([[0.5]], np.ones((1, 8)), TimeGrid(8))
    assert a.n_atoms == 1
    assert np.all(a.weights == 1.0)


def test_paths_freeze_a_copy_of_the_callers_arrays():
    # a path is read-only, but the arrays it was built from stay the caller's to change
    grid = TimeGrid(2)
    pts = np.array([[0.0], [1.0]])
    for cls, w in ((AtomicMeasurePath, np.array([[0.5, 1.0], [0.5, 0.0]])),
                   (SignedAtomicPath, np.array([[0.5, -1.0], [-0.5, 1.0]]))):
        path = cls(pts, w, grid)
        assert pts.flags.writeable and w.flags.writeable
        assert not path.points.flags.writeable and not path.weights.flags.writeable
        before = path.weights.copy()
        pts[0, 0] = 7.0
        w[0, 0] = 2.0
        assert path.points[0, 0] == 0.0 and np.array_equal(path.weights, before)
        pts[0, 0] = 0.0


def test_mass_condition_rejected():
    grid = TimeGrid(4)
    with pytest.raises(ValueError, match="mass condition"):
        make_atomic_path([[0.0], [1.0]], [[1, 0, 1, 0], [0, 1, 0, 0.5]], grid)


def test_negative_weight_and_duplicates_rejected():
    grid = TimeGrid(2)
    with pytest.raises(ValueError, match="negative"):
        make_atomic_path([[0.0], [1.0]], [[1.5, 1.0], [-0.5, 0.0]], grid)
    with pytest.raises(ValueError, match="distinct"):
        make_atomic_path([[0.0], [0.0]], [[0.5, 0.5], [0.5, 0.5]], grid)


def test_non_finite_input_rejected():
    grid = TimeGrid(4)
    with pytest.raises(ValueError, match="non-finite weight nan for atom 1 at sample 2"):
        make_atomic_path([[0.0], [1.0]], [[1, 1, 0.5, 1], [0, 0, math.nan, 0]], grid)
    with pytest.raises(ValueError, match="non-finite coordinate for atom 0"):
        make_atomic_path([[math.inf]], [[1, 1, 1, 1]], grid)


def test_trig_pair_is_valid_periodic_path():
    n_samples = 16
    t = np.arange(n_samples) / n_samples
    w = np.vstack([np.sin(np.pi * t) ** 2, np.cos(np.pi * t) ** 2])
    a = make_atomic_path([[-0.25], [0.25]], w, TimeGrid(n_samples))
    assert np.allclose(a.weights.sum(axis=0), 1.0)


def test_derivative_constant_is_zero():
    a = make_atomic_path([[0.3]], np.ones((1, 8)), TimeGrid(8))
    assert np.all(derivative_path(a).weights == 0.0)


def test_derivative_forward_difference():
    a = make_atomic_path([[0.0], [1.0]], [[0, 1], [1, 0]], TimeGrid(2))
    nu = derivative_path(a)
    assert np.allclose(nu.weights[0], [2.0, -2.0])


def test_derivative_totals_cancel():
    n_samples = 64
    t = np.arange(n_samples) / n_samples
    w = np.vstack([np.sin(np.pi * t) ** 2, np.cos(np.pi * t) ** 2])
    a = make_atomic_path([[-0.25], [0.25]], w, TimeGrid(n_samples))
    nu = derivative_path(a)
    assert np.max(np.abs(nu.weights.sum(axis=0))) <= 1e-12


def test_seminorm_swap_value():
    a = make_atomic_path([[0.0], [1.0]], [[1, 0], [0, 1]], TimeGrid(2))
    assert sobolev_seminorm(a, 2) == pytest.approx(4.0)


def test_seminorm_matches_direct_resummation():
    rng = np.random.default_rng(11)
    a = random_path(rng, n=2, atoms=4, n_samples=8)
    nu = derivative_path(a)
    n = a.grid.n_samples
    direct = (sum(np.abs(nu.weights[:, j]).sum() ** 2 for j in range(n)) / n) ** 0.5
    assert sobolev_seminorm(a, 2) == pytest.approx(direct, abs=1e-12)


def test_seminorm_inf_is_max():
    rng = np.random.default_rng(12)
    a = random_path(rng, n=1, atoms=3, n_samples=8)
    nu = derivative_path(a)
    assert sobolev_seminorm(a, math.inf) == pytest.approx(np.abs(nu.weights).sum(axis=0).max())


@pytest.mark.parametrize("p", [1.0, 0.5, math.nan])
def test_seminorm_rejects_p_outside_one_to_infinity(p):
    a = make_atomic_path([[0.0], [1.0]], [[1, 0], [0, 1]], TimeGrid(2))
    with pytest.raises(ValueError, match=r"p must lie in \(1, inf\]"):
        sobolev_seminorm(a, p)


def test_dyadic_project_examples():
    a = make_atomic_path([[0.5]], np.ones((1, 4)), TimeGrid(4))
    p1 = dyadic_project(a, 1)
    assert np.allclose(p1.points, [[1.0]])
    p2 = dyadic_project(a, 2)
    assert np.allclose(p2.points, [[0.5]])


def test_dyadic_project_out_of_domain():
    a = make_atomic_path([[2.5]], np.ones((1, 2)), TimeGrid(2))
    with pytest.raises(ValueError):
        dyadic_project(a, 1)


def test_dyadic_project_preserves_mass():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_path(rng, n=2, atoms=5, n_samples=4)
        for k in (1, 2, 3):
            proj = dyadic_project(a, k)
            assert np.allclose(proj.weights.sum(axis=0), 1.0, atol=1e-12)


def test_dyadic_refinement_consistency():
    # summing level-k children reproduces the level-(k-1) weights exactly
    rng = np.random.default_rng(4)
    a = random_path(rng, n=2, atoms=6, n_samples=4)
    for k in (2, 3):
        fine = dyadic_project(a, k)
        coarse = dyadic_project(a, k - 1)
        regrouped = dyadic_project(fine, k - 1)
        assert np.allclose(regrouped.points, coarse.points)
        assert np.allclose(regrouped.weights, coarse.weights, atol=1e-12)


def test_projection_commutes_with_derivative():
    rng = np.random.default_rng(5)
    a = random_path(rng, n=1, atoms=5, n_samples=8)
    for k in (1, 2):
        left = derivative_path(dyadic_project(a, k))
        right = dyadic_project_signed(derivative_path(a), k)
        assert np.allclose(left.points, right.points)
        assert np.allclose(left.weights, right.weights, atol=1e-12)


def test_projection_contracts_seminorm():
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = random_path(rng, n=1, atoms=5, n_samples=8)
        for p in (2.0, 4.0):
            assert sobolev_seminorm(dyadic_project(a, 2), p) <= sobolev_seminorm(a, p) + 1e-9


def test_bump_normalization():
    for n in (1, 2):
        rng = np.random.default_rng(0)
        # Monte Carlo over the bounding box
        pts = rng.uniform(-1, 1, size=(200_000, n))
        vals = bump(pts, n)
        est = vals.mean() * 2**n
        assert est == pytest.approx(1.0, abs=5e-3)


def test_mollified_small_eps_matches_sharp_projection():
    rng = np.random.default_rng(7)
    a = random_path(rng, n=1, atoms=3, n_samples=4)
    sharp = dyadic_project(a, 1)
    # cells have side 2 at level 1; any atom is at distance > 1e-3 from a
    # boundary with overwhelming probability under this seed
    blurred, factors = mollified_dyadic_project(a, 1, 1e-4)
    assert np.allclose(factors, 1.0, atol=1e-6)
    assert np.allclose(blurred.points, sharp.points)
    assert np.allclose(blurred.weights, sharp.weights, atol=1e-8)


def test_mollified_delta_at_zero_splits_evenly():
    a = make_atomic_path([[0.0]], np.ones((1, 4)), TimeGrid(4))
    proj, _ = mollified_dyadic_project(a, 1, 0.4)
    assert np.allclose(sorted(proj.points.ravel()), [-1.0, 1.0])
    assert np.allclose(proj.weights, 0.5, atol=1e-9)


def test_mollified_eps_escape_rejected():
    a = make_atomic_path([[1.95]], np.ones((1, 2)), TimeGrid(2))
    with pytest.raises(ValueError, match="escapes"):
        mollified_dyadic_project(a, 1, 0.2)


def test_mollified_against_monte_carlo():
    # rejection-sample the bump and compare cube frequencies, one fixed seed
    rng = np.random.default_rng(2024)
    grid = TimeGrid(2)
    pts = np.array([[-0.37], [0.52]])
    w = np.array([[0.6, 0.3], [0.4, 0.7]])
    a = make_atomic_path(pts, w, grid)
    eps, k = 0.3, 2
    proj, _ = mollified_dyadic_project(a, k, eps)

    n_mc = 1_000_000
    acc: dict[tuple, float] = {}
    for i in range(a.n_atoms):
        u = rng.uniform(-1, 1, size=(n_mc, 1))
        keep = rng.uniform(0, math.exp(-1.0), size=n_mc) < np.where(
            (u**2).sum(axis=1) < 1, np.exp(-1.0 / (1.0 - np.clip((u**2).sum(axis=1), 0, 1 - 1e-15))), 0.0)
        samples = pts[i] + eps * u[keep]
        idx = cell_index(samples, k)
        centers, counts = np.unique(idx, axis=0, return_counts=True)
        for c, cnt in zip(centers, counts):
            key = tuple(cell_center(c, k))
            acc[key] = acc.get(key, 0.0) + (cnt / keep.sum()) * a.weights[i, 0]
    for center, wgt in zip(proj.points, proj.weights[:, 0]):
        assert wgt == pytest.approx(acc[tuple(center)], abs=1e-3)


def test_bucket_matches_dict_reference():
    # the bucket sum adds rows in input order like a dict loop, so keys and sums agree exactly
    # (empty, one-row and three-column keys included); of keys differing only in the sign of
    # a zero, the first occurrence is kept, as the dict keeps its first key
    rng = np.random.default_rng(4)
    for keys in (rng.integers(-3, 3, size=(40, 2)), rng.choice([-1.5, -0.0, 0.0, 0.25, 1e-9], size=(40, 2)),
                 np.zeros((0, 2), dtype=int), np.array([[0.5, -0.0]]),
                 rng.choice([-1.0, -0.0, 0.0, 2.0], size=(40, 3)), rng.integers(-2, 2, size=(40, 3))):
        rows = rng.standard_normal((len(keys), 3))
        acc: dict[tuple, np.ndarray] = {}
        for key, row in zip(map(tuple, keys), rows):
            acc[key] = acc[key] + row if key in acc else row.copy()
        uniq, sums = _bucket(keys, rows)
        assert [tuple(k) for k in uniq] == sorted(acc)
        assert [tuple(np.signbit(k)) for k in uniq] == [tuple(np.signbit(k)) for k in sorted(acc)]
        assert np.array_equal(sums, np.array([acc[k] for k in sorted(acc)]).reshape(-1, 3))


def test_lp_time_norm_inf_and_finite():
    vals = np.array([1.0, 3.0, 2.0, 0.0])
    assert lp_time_norm(vals, math.inf) == 3.0
    assert lp_time_norm(vals, 2) == pytest.approx((np.mean(vals**2)) ** 0.5)


@pytest.mark.parametrize("p", [1.5, 2, 3.7, math.inf])
def test_row_norms_equal_the_one_row_norm_bitwise(p):
    rows = np.random.default_rng(5).uniform(-2.0, 2.0, size=(200, 8))
    norms = lp_time_norms(rows, p)
    assert norms.shape == (200,)
    assert all(norms[k] == lp_time_norm(row, p) for k, row in enumerate(rows))
    if not math.isinf(p):
        # the root of each mean is the scalar power, not the array power
        assert all(norms[k] == float(np.mean(np.abs(row) ** p) ** (1.0 / p)) for k, row in enumerate(rows))

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchflow import cost, check_admissible, eval_cost, power_cost, rho, tabulated_cost


def test_power_eval_examples():
    assert eval_cost(power_cost(0.5), 4.0) == pytest.approx(2.0)
    assert eval_cost(power_cost(1.0), 0.37) == pytest.approx(0.37)
    assert eval_cost(power_cost(0.75), 0.0) == 0.0


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        eval_cost(power_cost(0.5), -1e-3)


def test_power_exponent_range():
    with pytest.raises(ValueError):
        power_cost(0.0)
    with pytest.raises(ValueError):
        power_cost(1.2)


def test_tabulated_interpolation_and_extension():
    tau = tabulated_cost([[0.0, 0.0], [1.0, 1.0], [2.0, 1.5]])
    assert eval_cost(tau, 0.5) == pytest.approx(0.5)
    assert eval_cost(tau, 1.5) == pytest.approx(1.25)
    assert eval_cost(tau, 10.0) == pytest.approx(1.5)  # constant beyond last sample


def test_tabulated_cost_freezes_a_copy_of_the_callers_table():
    table = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 1.5]])
    witness = table.copy()
    tau = tabulated_cost(table, witness)
    assert table.flags.writeable and witness.flags.writeable
    assert not tau.samples.flags.writeable and not tau.witness.flags.writeable
    table[1, 1] = 0.5
    assert eval_cost(tau, 1.0) == pytest.approx(1.0)


def test_tabulated_rejects_superadditive_table():
    # convex growth s^2 fails the pairwise lattice check
    s = np.linspace(0, 1, 16)
    with pytest.raises(ValueError, match="subadditivity"):
        tabulated_cost(np.column_stack([s, s**2]))


def test_tabulated_rejects_decreasing_values():
    with pytest.raises(ValueError):
        tabulated_cost([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tabulated_rejects_non_finite_sample_and_witness_entries(bad):
    with pytest.raises(ValueError, match="non-finite coordinate for cost sample 1"):
        tabulated_cost([[0.0, 0.0], [0.5, bad], [1.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite coordinate for cost sample 2"):
        tabulated_cost([[0.0, 0.0], [0.5, 0.6], [bad, 1.0]])
    with pytest.raises(ValueError, match="non-finite coordinate for witness sample 1"):
        tabulated_cost([[0.0, 0.0], [1.0, 1.0]], witness=[[0.0, 0.0], [bad, 1.0]])


def test_admissible_power_examples():
    assert check_admissible(power_cost(0.75), 2)[0] is True
    assert check_admissible(power_cost(0.4), 2)[0] is False
    assert check_admissible(power_cost(1.0), 3)[0] is True


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_admissible_flips_at_threshold(n):
    threshold = 1.0 - 1.0 / n
    above = min(threshold + 1e-6, 1.0)
    assert check_admissible(power_cost(above), n)[0] is True
    if threshold > 0:
        assert check_admissible(power_cost(threshold), n)[0] is False
        assert check_admissible(power_cost(threshold - 1e-6), n)[0] is False


def test_admissible_tabulated_needs_witness():
    tau = tabulated_cost([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="witness"):
        check_admissible(tau, 2)


def test_admissible_tabulated_with_linear_witness():
    # beta(s) ~ s near zero integrates fine for every n
    tau = tabulated_cost([[0.0, 0.0], [1.0, 0.8]], witness=[[0.0, 0.0], [1.0, 1.0], [10.0, 1.5]])
    ok, diag = check_admissible(tau, 3)
    assert ok, diag


def test_admissible_tabulated_flat_witness_diverges():
    # a witness bounded away from zero at the origin cannot integrate
    tau = tabulated_cost([[0.0, 0.0], [1.0, 0.5]], witness=[[0.0, 0.6], [1.0, 1.0]])
    ok, diag = check_admissible(tau, 2)
    assert not ok
    assert "diverges" in diag


def _admissible_by_shell_loop(tau, n):
    # the shell-by-shell loop that _decide_admissible's one numpy pass replaced
    exponent = 1.0 / n - 2.0
    hi, total, prev_shell, nondecaying = 1.0, 0.0, math.inf, 0
    while hi > 1e-12:
        grid = np.linspace(hi / 2.0, hi, 33)
        shell = float(np.trapezoid(grid**exponent * tau.eval_witness(grid), grid))
        total += shell
        nondecaying = nondecaying + 1 if shell >= prev_shell * 0.999 else 0
        if nondecaying >= 4:
            return False, (f"shell integrals stopped decaying near s={hi:.2e}; "
                           "integral diverges (witness slope too shallow at 0)")
        prev_shell = shell
        hi /= 2.0
    return True, f"shell integration converged, integral ~ {total:.6g}"


def test_admissible_shells_match_the_shell_loop():
    s = np.concatenate([[0.0], np.geomspace(1e-14, 4.0, 60)])
    costs = [tabulated_cost([[0.0, 0.0], [0.25, 0.5], [1.0, 0.8]],
                            witness=[[0.0, 0.0], [0.25, 0.5], [1.0, 0.8]])]
    for alpha in (0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        table = np.column_stack([s, s**alpha])
        costs.append(tabulated_cost(table, witness=table))
    verdicts = []
    for tau in costs:
        for n in (1, 2, 3):
            expected = _admissible_by_shell_loop(tau, n)
            assert cost._decide_admissible(tau, n) == expected
            verdicts.append(expected[0])
    assert any(verdicts) and not all(verdicts)


def test_admissible_decided_once_per_cost_and_dimension(monkeypatch):
    decided = []
    real = cost._decide_admissible

    def counting(tau, n):
        decided.append(n)
        return real(tau, n)

    monkeypatch.setattr(cost, "_decide_admissible", counting)
    table = [[0.0, 0.0], [0.25, 0.5], [1.0, 0.8]]
    tau, twin = tabulated_cost(table, witness=table), tabulated_cost(table, witness=table)
    answers = [check_admissible(tau, n) for n in (2, 2, 1, 2, 1)]
    assert decided == [2, 1]
    assert answers[0] == answers[1] == answers[3] and answers[2] == answers[4]
    assert check_admissible(twin, 2) == answers[0] and decided == [2, 1, 2]
    # the memo is invisible: equality and repr see only the public fields
    power, fresh = power_cost(0.6), power_cost(0.6)
    check_admissible(power, 3)
    assert power == fresh and repr(power) == repr(fresh) and repr(tau) == repr(twin)


def test_costs_compare_and_hash_by_value():
    table = [[0.0, 0.0], [0.25, 0.5], [1.0, 0.8]]
    tau, twin = tabulated_cost(table, witness=table), tabulated_cost(table, witness=table)
    check_admissible(tau, 2)  # the memo stays out of equality
    assert tau == twin and hash(tau) == hash(twin) and len({tau, twin}) == 1
    assert tau != tabulated_cost(table) and tabulated_cost(table) == tabulated_cost(table)
    assert tau != tabulated_cost([[0.0, 0.0], [0.25, 0.5], [1.0, 0.7]], witness=table)
    assert tau != tabulated_cost([[0.0, 0.0], [0.25, 0.5], [1.0, 0.8], [2.0, 0.8]], witness=table)
    assert tau != power_cost(0.5) and tau in [power_cost(0.5), twin]
    # -0.0 and 0.0 tables are equal, so they hash alike
    signed = tabulated_cost([[-0.0, 0.0], [0.25, 0.5], [1.0, 0.8]], witness=table)
    assert signed == tau and hash(signed) == hash(tau)
    assert power_cost(0.6) == power_cost(0.6) and hash(power_cost(0.6)) == hash(power_cost(0.6))
    assert power_cost(0.6) != power_cost(0.7)


def test_rho_examples():
    assert rho(power_cost(0.5), 1.0) == pytest.approx(1.0)
    assert rho(power_cost(0.5), 4.0) == pytest.approx(0.5)
    assert rho(power_cost(1.0), 7.0) == pytest.approx(1.0)


def test_rho_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        rho(power_cost(0.5), 0.0)


def test_rho_tabulated_grid_scan():
    tau = tabulated_cost([[0.0, 0.0], [0.5, 0.9], [1.0, 1.0]])
    grid = np.linspace(0.5, 1.0, 10_001)
    expected = float(np.min(eval_cost(tau, grid) / grid))
    assert rho(tau, 1.0) == pytest.approx(expected, abs=1e-12)


def test_rho_tabulated_exact_at_interior_breakpoint():
    # the inf sits at the interior breakpoint w = 0.85463, which a uniform grid on [0.5, 1] misses
    table = np.array([[0.0, 0.0], [0.06, 0.115], [0.85463, 1.0138], [0.9653, 1.1655], [1.125, 1.32]])
    tau = tabulated_cost(table)
    r = rho(tau, 1.0)
    assert r == pytest.approx(1.0138 / 0.85463, abs=1e-15)
    w = table[table[:, 0] <= 1.0, 0]  # the breakpoints in [0, m], where rho certifies
    assert np.all(eval_cost(tau, w) >= r * w)


@given(alpha=st.floats(0.05, 1.0), m=st.floats(0.01, 8.0))
@settings(max_examples=80, deadline=None)
def test_linear_lower_bound_property(alpha, m):
    tau = power_cost(alpha)
    r = rho(tau, m)
    w = np.linspace(0.0, m, 257)
    assert np.all(eval_cost(tau, w) >= r * w - 1e-12)


def test_rho_nonincreasing_in_mass_for_power():
    tau = power_cost(0.7)
    values = [rho(tau, m) for m in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

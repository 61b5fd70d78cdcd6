import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import branchflow

SRC = Path(branchflow.__file__).resolve().parents[1]


def run_probe(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], check=True, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    return done.stdout.strip().splitlines()[-1]  # the probe's last print


def test_lps_load_the_highs_extension_without_scipy_optimize(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({
        "version": "1", "dimension": 1, "time_samples": 4,
        "mu_plus": {"points": [[0.1], [0.3]], "weights": [[0.5, 0.6, 0.5, 0.4], [0.5, 0.4, 0.5, 0.6]]},
        "mu_minus": {"points": [[0.8]], "weights": [[1.0] * 4]},
        "cost": {"kind": "power", "alpha": 0.7}, "p": 2, "lambda": 0.1}))
    out = run_probe(f"""
        import sys
        from branchflow import OptimizerConfig, local_search, lower_bound, load_instance
        from branchflow.cli import run_subcommand
        inst = load_instance({str(path)!r})
        lower_bound(inst.mu_plus, inst.mu_minus, inst.cost, inst.p, inst.lam)
        report = local_search(inst.mu_plus, inst.mu_minus, inst.cost, inst.p, inst.lam,
                              OptimizerConfig(k_max=1, iterations=4))
        assert report.lower <= report.upper
        assert run_subcommand(["bounds", {str(path)!r}]) == 0
        assert run_subcommand(["optimize", {str(path)!r}, "--k-max", "1", "--iters", "4"]) == 0
        packages = ('scipy.optimize', 'scipy.sparse', 'scipy.linalg', 'scipy.special', 'scipy.spatial', 'scipy.fft')
        print([m for m in packages if m in sys.modules], 'scipy.optimize._highspy._core' in sys.modules)
    """)
    assert out == "[] True"


def test_a_later_scipy_optimize_import_reuses_the_loaded_extension():
    # the weight LP (presolve on) and a transport LP (presolve off) solved before
    # scipy.optimize exists give linprog's x bit for bit once it is imported
    out = run_probe("""
        import sys
        import numpy as np
        from branchflow import lp
        B = np.array([[-1, -1, 0, 0, 0], [1, 0, -1, 1, 0], [0, 1, 1, -1, -1], [0, 0, 0, 0, 1]], float)
        b = np.array([-1.0, 0.0, 0.0, 1.0])
        c = np.array([1.0, 1.5, 0.4, 0.3, 1.0])
        m, l = 2, 3
        T = np.zeros((m + l, m * l))
        for i in range(m):
            for j in range(l):
                T[i, i * l + j] = T[m + j, i * l + j] = 1.0
        supply_demand = np.array([0.25, 0.75, 0.5, 0.125, 0.375])
        cost = np.array([0.3, 0.9, 0.2, 0.5, 0.1, 0.7])
        cases = [(B, c, b, 2.0, True), (T, cost, supply_demand, np.inf, False)]
        xs = [lp._SampleLP(*np.nonzero(A), A[np.nonzero(A)], A.shape, ub, presolve).solve(cc, rhs)
              for A, cc, rhs, ub, presolve in cases]
        assert 'scipy.optimize' not in sys.modules
        from scipy.optimize import linprog
        for (A, cc, rhs, ub, presolve), x in zip(cases, xs):
            res = linprog(c=cc, A_eq=A, b_eq=rhs, bounds=(0.0, ub), method="highs",
                          options={"presolve": presolve})
            assert res.success and np.array_equal(x, res.x), (x, res.x)
        from scipy.optimize._highspy import _core
        print(_core is lp._bindings() is sys.modules['scipy.optimize._highspy._core'])
    """)
    assert out == "True"


def test_the_extension_scipy_optimize_loaded_first_is_the_one_returned():
    out = run_probe("""
        from scipy.optimize._highspy import _core
        from branchflow import lp
        print(lp._bindings() is _core)
    """)
    assert out == "True"


def test_threads_starting_their_first_lp_at_once_share_one_module():
    # four threads on a short switch interval, so that their first loads interleave
    out = run_probe("""
        import sys
        import threading
        import numpy as np
        from branchflow import lp
        B = np.array([[-1.0, -1.0], [1.0, 1.0]])
        start = threading.Barrier(4)
        got = {}
        def first_lp(k):
            start.wait()
            x = lp._SampleLP(*np.nonzero(B), B[np.nonzero(B)], B.shape, 2.0).solve([1.0, 2.0], [-1.0, 1.0])
            got[k] = (lp._bindings(), x.tolist())
        threads = [threading.Thread(target=first_lp, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        core = sys.modules['scipy.optimize._highspy._core']
        print(sorted(got), all(module is core for module, _ in got.values()), {tuple(x) for _, x in got.values()})
    """)
    assert out == "[0, 1, 2, 3] True {(1.0, 0.0)}"

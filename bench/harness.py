"""Closed-loop run of one workload: set-up, timed phase, checks, metrics.

One caller drives one instance at a time.  The pool of generated
instances is swept in passes until ``seconds`` have elapsed; the first
pass always completes, so the bracket-quality figures and the
determinism digest cover the same instances however fast the program
is.  A repeated instance must reproduce its first-pass values exactly.

End-to-end metrics come from untraced runs.  A traced run
(``trace=True``) sweeps the pool once untraced and once traced and
reports per-layer figures per instance, plus the difference of the two
sweeps as the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 2  # extra cold set-ups in child processes; setup_s is the median
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "bracket_s_p50": "s",
    "bracket_s_p90": "s",
    "brackets_per_s": "1/s",
    "rel_gap_mean": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer figures, each per instance of the traced sweep
LAYER_FIELDS = {
    "optimize.linprog": ("calls", "s", "failed"),
    "optimize.optimize_weights": ("calls", "s", "self_s"),
    "graph.max_order": ("calls", "s", "orders"),
    "graph.enumerate_cycles": ("calls", "s", "cycles", "explosions"),
    "graph.energy": ("calls", "s", "self_s", "inexact"),
    "graph.strip_strong_cycles": ("calls", "s"),
    "graph.eliminate_cycles": ("calls", "s"),
    "wasserstein.lower_bound": ("calls", "s", "self_s", "warnings"),
    "wasserstein.lid1": ("calls", "s", "atoms"),
    "dyadic.connector": ("calls", "s"),
    "optimize.instance_connector_witness": ("calls", "s"),
    "optimize.baseline_upper": ("calls", "s"),
    "cost.rho": ("calls", "s"),
    "cost.check_admissible": ("calls", "s"),
    "instance.instance_from_dict": ("calls", "s"),
}
EXTRA_LAYER_UNITS = {
    "optimize.iterations_used": "count",
    "trace.bracket_s": "s",
    "trace.overhead_s": "s",
    "failed_share": "ratio",
}

# the layer that should dominate each workload's traced bracket time
DOMINANT_LAYER = {
    "search": "optimize.linprog.s",
    "lower_dense": "wasserstein.lid1.s",
    "energy_cyclic": "graph.max_order.s",
}


def layer_units() -> dict[str, str]:
    units = {}
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            units[f"{name}.{f}"] = "s" if f in ("s", "self_s") else "count"
    units.update(EXTRA_LAYER_UNITS)
    return units


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload: workloads.Workload, seed: int, pool_size: int | None):
    """Generate the pool and run one untimed warm-up instance; returns (pool, seconds)."""
    t0 = time.perf_counter()
    pool = workloads.make_pool(workload, seed, pool_size)
    workload.run(workloads.make_item(workload, seed, len(pool)))
    return pool, time.perf_counter() - t0


def timed_setup(name: str, seed: int, import_s: float) -> float:
    """Set-up seconds of this process, import included (the child side of probe_setup)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return import_s + setup(workloads.WORKLOADS[name], seed, None)[1]


def probe_setup(name: str, seed: int) -> float:
    """Cold set-up (import included) in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
           "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------

@dataclass
class Sweep:
    """Outputs and wall times of consecutive instance evaluations."""

    evals: list[tuple[int, object]] = field(default_factory=list)  # (pool index, output or exception)
    times: list[float] = field(default_factory=list)
    wall: float = 0.0


def run_timed(workload, pool, seconds: float, tracer: tracing.Tracer | None = None,
              passes: int | None = None) -> Sweep:
    """Evaluate pool items in order, wrapping around, until time (or passes) run out."""
    sweep = Sweep()
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        item = pool[i % len(pool)]
        t0 = clock()
        try:
            if tracer is None:
                out = workload.run(item)
            else:
                with tracer.instance("bracket", item.index):
                    out = workload.run(item)
        except Exception as exc:  # counted as a failed instance, never fatal
            out = exc
        sweep.times.append(clock() - t0)
        sweep.evals.append((item.index, out))
        i += 1
        if passes is not None:
            if i >= passes * len(pool):
                break
        elif i >= len(pool) and clock() - start >= seconds:
            break
    sweep.wall = clock() - start
    return sweep


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_sweeps(workload, pool, sweeps: list[Sweep]):
    """Full checks on each item's first evaluation; later ones must repeat its values.

    Returns (attempted, failed evaluations, failures, first-pass values, gaps by index).
    """
    check = checks.CHECKS[workload.name]
    failures: list[dict] = []
    first: dict[int, tuple] = {}
    first_ok: dict[int, bool] = {}
    gaps: dict[int, float] = {}
    attempted = failed = 0

    def fail(index, what):
        failures.append({"instance_index": index, "instance_seed": pool[index].seed, "check": what})

    for sweep in sweeps:
        for index, out in sweep.evals:
            attempted += 1
            if isinstance(out, Exception):
                fail(index, f"raised {type(out).__name__}: {out}")
                failed += 1
                continue
            values = workload.values(out)
            if index in first:
                if values != first[index]:
                    fail(index, "repeat_differs")
                failed += values != first[index] or not first_ok[index]
                continue
            first[index] = values
            try:
                problems, gaps[index] = check(pool[index], out)
            except Exception as exc:  # a check that cannot run is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            for what in problems:
                fail(index, what)
            first_ok[index] = not problems
            failed += bool(problems)
    return attempted, failed, failures, first, gaps


def digest(pool, first: dict[int, tuple]) -> str:
    rows = [[f"{v:.9e}" for v in first[item.index]] if item.index in first else "error"
            for item in pool]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata() -> dict:
    import networkx
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pinning": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "src_lines": src_lines,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float,
        pool_size: int | None = None, setup_probes: int = SETUP_PROBES) -> dict:
    """Run one workload; returns the result record whose "line" is the final output line."""
    # the rho != 1 notice of lower_dense would otherwise print inside the timed calls
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _run(name, seed, seconds, trace, import_s, pool_size, setup_probes)


def _run(name, seed, seconds, trace, import_s, pool_size, setup_probes) -> dict:
    workload = workloads.WORKLOADS[name]
    pool, own_setup = setup(workload, seed, pool_size)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "pool_size": len(pool), "closed_loop_clients": 1, "metadata": run_metadata()}

    if trace:
        plain = run_timed(workload, pool, seconds, passes=1)
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            traced = run_timed(workload, pool, seconds, tracer=tracer, passes=1)
        sweeps = [plain, traced]
    else:
        sweeps = [run_timed(workload, pool, seconds)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [import_s + own_setup] + [probe_setup(name, seed) for _ in range(setup_probes)]

    t_checks = time.perf_counter()
    attempted, failed, failures, first, gaps = check_sweeps(workload, pool, sweeps)
    result["checks_s"] = time.perf_counter() - t_checks
    result.update({"attempted": attempted, "failed": failed, "failed_share": failed / attempted,
                   "failures": failures, "digest": digest(pool, first),
                   "values": {str(i): list(v) for i, v in sorted(first.items())}})

    if trace:
        metrics = layer_metrics(workload, traced, tracer, plain)
        metrics["failed_share"] = _metric(failed / attempted, "ratio")
        dominant = DOMINANT_LAYER[name]
        share = metrics[dominant]["value"] / metrics["trace.bracket_s"]["value"]
        result["layer_claim"] = {"layer": dominant, "share_of_bracket_s": share, "holds": share > 0.5}
        result["spans_file"] = os.path.relpath(write_spans(result, tracer), ROOT)
    else:
        times = sweeps[0].times
        completed = sum(1 for _, out in sweeps[0].evals if not isinstance(out, Exception))
        p90 = float(np.percentile(times, 90))
        result["timing"] = {"samples": len(times), "beyond_p90": sum(t > p90 for t in times),
                            "setup_samples_s": setups, "import_s": import_s,
                            "instance_s": [[i, t] for (i, _), t in zip(sweeps[0].evals, times)]}
        values = {
            "setup_s": statistics.median(setups),
            "bracket_s_p50": statistics.median(times),
            "bracket_s_p90": p90,
            "brackets_per_s": completed / sweeps[0].wall,
            "rel_gap_mean": statistics.fmean(gaps.values()) if gaps else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    result["metrics"] = metrics
    result["line"] = {"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}
    result["result_file"] = os.path.relpath(write_result(result), ROOT)
    return result


def layer_metrics(workload, traced: Sweep, tracer: tracing.Tracer, plain: Sweep) -> dict:
    """Per-instance layer figures of the traced sweep, plus the tracing overhead."""
    count = len(traced.evals)
    totals = tracing.layer_totals(tracer.spans)
    units = layer_units()
    metrics = {}
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            metrics[f"{name}.{f}"] = _metric(totals[name][f] / count if name in totals else 0.0,
                                             units[f"{name}.{f}"])
    iterations = 0
    if workload.name == "search":  # only local_search reports iterations
        iterations = sum(out[1].iterations_used for _, out in traced.evals
                         if not isinstance(out, Exception))
    metrics["optimize.iterations_used"] = _metric(iterations / count, "count")
    metrics["trace.bracket_s"] = _metric(totals["bracket"]["s"] / count, "s")
    metrics["trace.overhead_s"] = _metric((sum(traced.times) - sum(plain.times)) / count, "s")
    return metrics


def _result_stem(result: dict) -> str:
    return f"{result['workload']}_seed{result['seed']}_trace{int(result['trace'])}"


def write_spans(result: dict, tracer: tracing.Tracer) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{_result_stem(result)}_spans.jsonl"
    with open(path, "w") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "instance": s.instance, **s.counts}) + "\n")
    return path


def write_result(result: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{_result_stem(result)}.json"
    path.write_text(json.dumps({k: v for k, v in result.items() if k != "line"}, indent=2) + "\n")
    return path

"""Layer spans recorded from outside the program.

``patched`` wraps the library's public functions named in ``TARGETS``
and replaces every module-level binding of each one inside the
``branchflow`` package (``graph.energy`` and ``optimize.energy`` are the
same function), so calls are traced whichever module makes them.
Spans (name, start, end, parent span, instance id) stay in memory; the
harness writes them out when the run ends.  A wrapper records nothing
unless an instance span is open, so the output checks are never traced.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from branchflow.graph import CycleExplosionError


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for an instance span
    instance: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @property
    def active(self) -> bool:
        return bool(self._open)

    def open(self, name: str, instance: int | None = None):
        parent = self._open[-1] if self._open else -1
        if instance is None:
            instance = self.spans[parent].instance
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, instance))
        self._open.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._open.pop()].end = time.perf_counter()

    def add(self, key: str, amount):
        counts = self.spans[self._open[-1]].counts
        counts[key] = counts.get(key, 0) + amount

    @contextmanager
    def instance(self, name: str, instance_id: int):
        self.open(name, instance_id)
        try:
            yield
        finally:
            self.close()


# ---------------------------------------------------------------------------
# what each wrapped function counts
# ---------------------------------------------------------------------------

def _plain(fn, args, kwargs, add):
    return fn(*args, **kwargs)


def _linprog(fn, args, kwargs, add):
    res = fn(*args, **kwargs)
    add("failed", 0 if res.success else 1)
    return res


def _enumerate_cycles(fn, args, kwargs, add):
    try:
        cycles = fn(*args, **kwargs)
    except CycleExplosionError:
        add("explosions", 1)
        raise
    add("cycles", len(cycles))
    return cycles


def _energy(fn, args, kwargs, add):
    report = fn(*args, **kwargs)
    add("inexact", 0 if report.exact_flag else 1)
    return report


def _max_order(fn, args, kwargs, add):
    """Orders tried, from the cycle count: all of them when exhaustive, else one greedy order."""
    cycles = args[1] if len(args) > 1 else kwargs["cycles"]
    limit = args[3] if len(args) > 3 else kwargs.get("exhaustive_limit", 8)
    count = len(cycles)
    if count:
        add("orders", math.factorial(count) if count <= limit else 1)
    return fn(*args, **kwargs)


def _lower_bound(fn, args, kwargs, add):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(*args, **kwargs)
    add("warnings", len(caught))
    return value


def _lid1(fn, args, kwargs, add):
    m1, m2 = args[0], args[1]
    add("atoms", len({*map(tuple, m1.points), *map(tuple, m2.points)}))
    return fn(*args, **kwargs)


# (span name, defining module, attribute, counter)
TARGETS = (
    ("optimize.linprog", "branchflow.optimize", "linprog", _linprog),
    ("optimize.optimize_weights", "branchflow.optimize", "optimize_weights", _plain),
    ("optimize.baseline_upper", "branchflow.optimize", "baseline_upper", _plain),
    ("optimize.instance_connector_witness", "branchflow.optimize", "instance_connector_witness", _plain),
    ("graph.max_order", "branchflow.graph", "max_order", _max_order),
    ("graph.enumerate_cycles", "branchflow.graph", "enumerate_cycles", _enumerate_cycles),
    ("graph.energy", "branchflow.graph", "energy", _energy),
    ("graph.strip_strong_cycles", "branchflow.graph", "strip_strong_cycles", _plain),
    ("graph.eliminate_cycles", "branchflow.graph", "eliminate_cycles", _plain),
    ("wasserstein.lower_bound", "branchflow.wasserstein", "lower_bound", _lower_bound),
    ("wasserstein.lid1", "branchflow.wasserstein", "lid1", _lid1),
    ("dyadic.connector", "branchflow.dyadic", "connector", _plain),
    ("cost.rho", "branchflow.cost", "rho", _plain),
    ("cost.check_admissible", "branchflow.cost", "check_admissible", _plain),
    ("instance.instance_from_dict", "branchflow.instance", "instance_from_dict", _plain),
)


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.open(name)
        try:
            return counter(fn, args, kwargs, tracer.add)
        finally:
            tracer.close()

    return traced


@contextmanager
def patched(tracer: Tracer):
    """Trace every module-level binding of the target functions, restoring them on exit."""
    modules = [mod for key, mod in list(sys.modules.items())
               if key == "branchflow" or key.startswith("branchflow.")]
    undo = []
    try:
        for name, home, attr, counter in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapper = _wrap(tracer, name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        yield
    finally:
        for mod, key, original in reversed(undo):
            setattr(mod, key, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover (children never overlap)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _nested_in_same_name(spans: list[Span], i: int) -> bool:
    j = spans[i].parent
    while j >= 0:
        if spans[j].name == spans[i].name:
            return True
        j = spans[j].parent
    return False


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost spans only), self seconds, counts."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        entry = totals[span.name]
        entry["calls"] += 1
        entry["self_s"] += own
        if not _nested_in_same_name(spans, i):
            entry["s"] += span.duration
        for key, amount in span.counts.items():
            entry[key] += amount
    return totals

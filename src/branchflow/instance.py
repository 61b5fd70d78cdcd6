"""Instance files: schema-validated JSON in, normalized working data out.

``schemas/instance.schema.json`` documents the format.  The loader checks
a payload against it with direct code (``_schema_errors``) that accepts
exactly what a JSON Schema 2020-12 validator accepts, so no schema
library is needed at run time.

Loading rescales all coordinates into [-0.95, 0.95]^n (identity when the
data already fits) so the dyadic machinery operates well inside its
[-2, 2)^n tiling and the certified layer bounds apply.  The affine
transform is recorded on the instance and echoed into emitted artifacts;
saving writes the original payload back, so load -> save -> load is the
identity.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cost import TransportCost, power_cost, tabulated_cost
from .graph import TransportGraph, make_graph
from .measures import AtomicMeasurePath, TimeGrid, _check_lambda, _check_p, _require_finite, make_atomic_path

NORMALIZED_HALF_EXTENT = 0.95


@dataclass(frozen=True)
class NormalizationTransform:
    """x_normalized = (x - center) / scale."""

    center: np.ndarray
    scale: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        return (points - self.center) / self.scale

    def invert(self, points: np.ndarray) -> np.ndarray:
        return points * self.scale + self.center

    def to_dict(self) -> dict:
        return {"center": list(self.center), "scale": self.scale}

    @property
    def is_identity(self) -> bool:
        return self.scale == 1.0 and not np.any(self.center)


@dataclass(frozen=True)
class InstanceFile:
    version: str
    dimension: int
    grid: TimeGrid
    mu_plus: AtomicMeasurePath
    mu_minus: AtomicMeasurePath
    graph: TransportGraph | None
    cost: TransportCost | None
    p: float
    lam: float
    transform: NormalizationTransform
    raw: dict


def _check_object(value, path, errors, required, allowed) -> bool:
    """Note a non-object, missing keys and unknown keys at ``path``; True for an object."""
    if not isinstance(value, dict):
        errors.append((path, "is not an object"))
        return False
    for key in required:
        if key not in value:
            errors.append((path, f"missing required key {key!r}"))
    unknown = sorted((key for key in value if key not in allowed), key=str)
    if unknown:
        errors.append((path, "unknown key(s) " + ", ".join(map(repr, unknown))))
    return True


def _check_array(value, path, errors, min_items=0, max_items=None) -> bool:
    """Note a non-array or a length outside [min_items, max_items]; True for an array."""
    if not isinstance(value, list):
        errors.append((path, "is not an array"))
        return False
    if len(value) < min_items:
        errors.append((path, f"has {len(value)} items, fewer than {min_items}"))
    elif max_items is not None and len(value) > max_items:
        errors.append((path, f"has {len(value)} items, more than {max_items}"))
    return True


def _fault(x, integer=False, minimum=None, above=None, maximum=None) -> str | None:
    """Why ``x`` is not a number (an integer if asked) within the bounds given, or None.

    As in JSON Schema, a number is any Python number but a bool, an
    integer a non-bool int or an integral float (so 2.0 counts), and NaN
    passes every bound.
    """
    if type(x) is not float:  # the common case skips the slower abstract-class check
        if isinstance(x, bool) or not isinstance(x, numbers.Number):
            return f"{x!r} is not {'an integer' if integer else 'a number'}"
    if integer and not (isinstance(x, int) or (isinstance(x, float) and x.is_integer())):
        return f"{x!r} is not an integer"
    if minimum is not None and x < minimum:
        return f"{x!r} is less than {minimum}"
    if above is not None and x <= above:
        return f"{x!r} is not greater than {above}"
    if maximum is not None and x > maximum:
        return f"{x!r} is greater than {maximum}"
    return None


def _check_value(x, path, errors, *bounds):
    reason = _fault(x, *bounds)
    if reason:
        errors.append((path, reason))


def _check_values(value, path, errors, min_items, max_items, *bounds):
    """An array of [min_items, max_items] numbers, each passing ``_fault``."""
    if _check_array(value, path, errors, min_items, max_items):
        for i, x in enumerate(value):
            reason = _fault(x, *bounds)
            if reason:
                errors.append((path + (i,), reason))


def _check_rows(value, path, errors, min_items, check_row):
    """An array of at least ``min_items`` entries, each checked by ``check_row``."""
    if _check_array(value, path, errors, min_items):
        for i, row in enumerate(value):
            check_row(row, path + (i,), errors)


def _point(value, path, errors):
    _check_values(value, path, errors, 1, None)


def _row(value, path, errors):
    _check_values(value, path, errors, 2, None, False, 0)


def _pair(value, path, errors):
    _check_values(value, path, errors, 2, 2)


def _edge(value, path, errors):
    _check_values(value, path, errors, 2, 2, True, 0)


def _rows_object(keys, row_checks, min_items):
    """Check for an object with exactly ``keys``, each an array of at least ``min_items`` rows."""
    def check(value, path, errors):
        if _check_object(value, path, errors, keys, keys):
            for key, check_row in zip(keys, row_checks):
                if key in value:
                    _check_rows(value[key], path + (key,), errors, min_items, check_row)
    return check


_measure_path = _rows_object(("points", "weights"), (_point, _row), 1)
_graph = _rows_object(("vertices", "edges", "weights"), (_point, _edge, _row), 0)


def _cost(value, path, errors):
    """One error at ``path`` (the schema's oneOf) naming the first fault of the branch "kind" selects."""
    if not isinstance(value, dict):
        errors.append((path, "is not an object"))
        return
    faults = []
    kind = value.get("kind")
    if isinstance(kind, str) and kind == "power":
        keys = ("kind", "alpha")
        if _check_object(value, path, faults, keys, keys) and "alpha" in value:
            _check_value(value["alpha"], path + ("alpha",), faults, False, None, 0, 1)
    elif isinstance(kind, str) and kind == "tabulated":
        keys = ("kind", "samples", "witness")
        if _check_object(value, path, faults, keys[:2], keys):
            for key in keys[1:]:
                if key in value:
                    _check_rows(value[key], path + (key,), faults, 2, _pair)
    elif "kind" not in value:
        faults.append((path, "missing required key 'kind'"))
    else:
        faults.append((path + ("kind",), f"{kind!r} is neither 'power' nor 'tabulated'"))
    if faults:
        where, reason = min(faults, key=lambda e: e[0])
        errors.append((path, f"invalid cost at {_where(where)}: {reason}"))


def _p(value, path, errors):
    if not (isinstance(value, str) and value == "inf"):
        _check_value(value, path, errors, False, None, 1)


def _version(value, path, errors):
    if not (isinstance(value, str) and value == "1"):
        errors.append((path, f"{value!r} is not '1'"))


_ROOT_REQUIRED = ("version", "dimension", "time_samples", "mu_plus", "mu_minus")
_ROOT_CHECKS = {
    "version": _version,
    "dimension": lambda v, path, errors: _check_value(v, path, errors, True, 1),
    "time_samples": lambda v, path, errors: _check_value(v, path, errors, True, 2),
    "mu_plus": _measure_path,
    "mu_minus": _measure_path,
    "graph": _graph,
    "cost": _cost,
    "p": _p,
    "lambda": lambda v, path, errors: _check_value(v, path, errors, False, None, 0),
}


def _schema_errors(data) -> list[tuple[tuple, str]]:
    """(path, reason) for every violation of ``instance.schema.json``, sorted by path.

    A path is a tuple of keys and list indices, () for the top level.  The
    verdict is that of ``jsonschema.Draft202012Validator`` on the schema,
    and so are the paths: "required" and "additionalProperties" report at
    the object, and a ``oneOf`` (``cost``, ``p``) reports once, at its
    value.  A number is any non-bool number, an integer a non-bool int
    or integral float, and NaN passes every bound.
    """
    errors = []
    if _check_object(data, (), errors, _ROOT_REQUIRED, _ROOT_CHECKS):
        for key, check in _ROOT_CHECKS.items():
            if key in data:
                check(data[key], (key,), errors)
    return sorted(errors, key=lambda e: e[0])


def _where(path: tuple) -> str:
    return "/".join(map(str, path)) or "<root>"


def _validate_schema(data: dict):
    """Raise ValueError listing up to 8 schema violations, one ``at <path>: <reason>`` line each."""
    errors = _schema_errors(data)
    if errors:
        lines = [f"  at {_where(path)}: {reason}" for path, reason in errors[:8]]
        raise ValueError("instance schema violation:\n" + "\n".join(lines))


def _fit_transform(points: np.ndarray) -> NormalizationTransform:
    n = points.shape[1]
    if points.size == 0:
        return NormalizationTransform(np.zeros(n), 1.0)
    lo, hi = points.min(axis=0), points.max(axis=0)
    if np.all(lo >= -NORMALIZED_HALF_EXTENT) and np.all(hi <= NORMALIZED_HALF_EXTENT):
        return NormalizationTransform(np.zeros(n), 1.0)
    center = 0.5 * (lo + hi)
    half = float(np.max(hi - center))
    scale = max(half / NORMALIZED_HALF_EXTENT, 1e-12)
    return NormalizationTransform(center, scale)


def parse_cost(spec: dict) -> TransportCost:
    if spec["kind"] == "power":
        return power_cost(spec["alpha"])
    return tabulated_cost(spec["samples"], witness=spec.get("witness"))


def parse_p(value) -> float:
    return math.inf if value == "inf" else float(value)


def load_instance(path: str) -> InstanceFile:
    """Read, schema-check, validate, and normalize an instance file."""
    with open(path) as fh:
        data = json.load(fh)
    return instance_from_dict(data)


def instance_from_dict(data: dict) -> InstanceFile:
    _validate_schema(data)
    p = parse_p(data.get("p", 2))
    lam = float(data.get("lambda", 1.0))
    _check_p(p)  # the schema's bounds, like JSON Schema's, let NaN (and lambda = inf) through
    _check_lambda(lam)
    n = int(data["dimension"])  # the schema, like JSON Schema, counts 4.0 as an integer
    grid = TimeGrid(int(data["time_samples"]))

    rows = {"mu_plus points": data["mu_plus"]["points"], "mu_minus points": data["mu_minus"]["points"]}
    if data.get("graph") is not None:
        rows["graph vertices"] = data["graph"]["vertices"]
    all_points = []
    for what, payload in rows.items():
        pts = np.asarray(payload, dtype=float) if payload else np.zeros((0, n))  # a graph may have no rows
        if pts.shape[1] != n:
            raise ValueError(f"{what} have dimension {pts.shape[1]}, expected {n}")
        all_points.append(pts)
    for name, pts in zip(("mu_plus", "mu_minus", "graph"), all_points):
        try:
            _require_finite(pts, "point")
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
    transform = _fit_transform(np.vstack(all_points))

    def build_path(name):
        payload = data[name]
        pts = transform.apply(np.asarray(payload["points"], dtype=float))
        w = np.asarray(payload["weights"], dtype=float)
        try:
            return make_atomic_path(pts, w, grid)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc

    mu_plus = build_path("mu_plus")
    mu_minus = build_path("mu_minus")

    graph = None
    if data.get("graph") is not None:
        g = data["graph"]
        vertices = all_points[2]  # parsed with the paths' points above
        graph = make_graph(transform.apply(vertices), g["edges"], g["weights"], grid)

    cost = parse_cost(data["cost"]) if "cost" in data else None
    return InstanceFile(
        version=data["version"],
        dimension=n,
        grid=grid,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        graph=graph,
        cost=cost,
        p=p,
        lam=lam,
        transform=transform,
        raw=data,
    )


def save_instance(inst: InstanceFile, path: str):
    """Write the original payload back (round-trip identity)."""
    with open(path, "w") as fh:
        json.dump(inst.raw, fh, indent=2, sort_keys=True)
        fh.write("\n")


def graph_to_dict(G: TransportGraph, transform: NormalizationTransform | None = None,
                  levels: list[int] | None = None) -> dict:
    out = {
        "vertices": [list(map(float, v)) for v in G.vertices],
        "edges": [[int(t), int(h)] for t, h in G.edges],
        "weights": [[float(x) for x in row] for row in G.weights],
    }
    if transform is not None:
        out["normalization"] = transform.to_dict()
    if levels is not None:
        out["edge_levels"] = levels
    return out

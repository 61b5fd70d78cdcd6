"""Instance files: schema-validated JSON in, normalized working data out.

Loading rescales all coordinates into [-0.95, 0.95]^n (identity when the
data already fits) so the dyadic machinery operates well inside its
[-2, 2)^n tiling and the certified layer bounds apply.  The affine
transform is recorded on the instance and echoed into emitted artifacts;
saving writes the original payload back, so load -> save -> load is the
identity.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources

import jsonschema
import numpy as np

from .cost import TransportCost, power_cost, tabulated_cost
from .graph import TransportGraph, make_graph
from .measures import AtomicMeasurePath, TimeGrid, _require_finite, make_atomic_path

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


@functools.cache
def _validator() -> jsonschema.Draft202012Validator:
    """The instance schema's validator, built once per process."""
    text = resources.files("branchflow.schemas").joinpath("instance.schema.json").read_text()
    return jsonschema.Draft202012Validator(json.loads(text))


def _validate_schema(data: dict):
    errors = sorted(_validator().iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        lines = []
        for err in errors[:8]:
            where = "/".join(str(x) for x in err.absolute_path) or "<root>"
            lines.append(f"  at {where}: {err.message}")
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
    n = data["dimension"]
    grid = TimeGrid(data["time_samples"])

    all_points = []
    for name in ("mu_plus", "mu_minus"):
        pts = np.asarray(data[name]["points"], dtype=float)
        if pts.shape[1] != n:
            raise ValueError(f"{name} points have dimension {pts.shape[1]}, expected {n}")
        all_points.append(pts)
    if data.get("graph") is not None:
        all_points.append(np.asarray(data["graph"]["vertices"], dtype=float))
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
        graph = make_graph(transform.apply(np.asarray(g["vertices"], dtype=float)),
                           g["edges"], g["weights"], grid)

    cost = parse_cost(data["cost"]) if "cost" in data else None
    p = parse_p(data.get("p", 2))
    lam = float(data.get("lambda", 1.0))
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

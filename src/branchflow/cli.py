"""Command-line interface: instance I/O, subcommand dispatch, artifact emission."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import dyadic, wasserstein
from .cost import eval_cost, power_cost
from .graph import CycleExplosionError, energy, kirchhoff_residual, tv_norm
from .instance import InstanceFile, graph_to_dict, load_instance, parse_p
from .measures import AtomicMeasurePath, _bucket, make_atomic_path
from .optimize import OptimizerConfig, local_search, metric_probe


def _atomic_write(path: str, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(args, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        _atomic_write(args.out, text + "\n")
    else:
        print(text)


def _parse_tau(spec: str):
    kind, _, value = spec.partition(":")
    if kind != "power":
        raise ValueError(f"unsupported --tau spec {spec!r}; use power:<alpha>")
    return power_cost(float(value))


def _resolve_cost(inst: InstanceFile, args):
    if getattr(args, "tau", None):
        return _parse_tau(args.tau)
    if inst.cost is None:
        raise ValueError("instance carries no cost; pass --tau power:<alpha>")
    return inst.cost


def _resolve_p(inst, args):
    return parse_p(args.p) if getattr(args, "p", None) is not None else inst.p


def _resolve_lambda(inst, args):
    return args.lam if getattr(args, "lam", None) is not None else inst.lam


def cmd_validate(args) -> int:
    inst = load_instance(args.instance)
    report = {
        "dimension": inst.dimension,
        "time_samples": inst.grid.n_samples,
        "mu_plus_atoms": inst.mu_plus.n_atoms,
        "mu_minus_atoms": inst.mu_minus.n_atoms,
        "graph_edges": inst.graph.n_edges if inst.graph is not None else None,
        "normalization": inst.transform.to_dict(),
        "ok": True,
    }
    _emit(args, report)
    return 0


def cmd_energy(args) -> int:
    inst = load_instance(args.instance)
    if inst.graph is None:
        raise ValueError("instance has no graph payload")
    tau = _resolve_cost(inst, args)
    p = _resolve_p(inst, args)
    lam = _resolve_lambda(inst, args)
    report = energy(inst.graph, tau, p, lam)
    payload = report.to_dict()
    payload["kirchhoff_residual"] = kirchhoff_residual(inst.graph, inst.mu_plus, inst.mu_minus)
    payload["normalization"] = inst.transform.to_dict()
    _emit(args, payload)
    return 0 if payload["kirchhoff_residual"] <= args.tol_kirchhoff else 1


def _edge_levels(G) -> list[int]:
    """Dyadic layer per edge inferred from its length; -1 for bridge/other."""
    n = G.dimension
    levels = []
    for length in G.lengths:
        level = -math.log2(length / math.sqrt(n)) if length > 0 else math.inf
        rounded = round(level)
        levels.append(int(rounded) if abs(level - rounded) < 1e-9 else -1)
    return levels


def cmd_construct(args) -> int:
    inst = load_instance(args.instance)
    if args.kind == "band":
        G = dyadic.band_flux(inst.mu_plus, args.k, args.l)
    else:
        G, _, _ = dyadic.connector(inst.mu_plus, inst.mu_minus, args.k)
    levels = _edge_levels(G) if args.trace_levels else None
    _emit(args, graph_to_dict(G, transform=inst.transform, levels=levels))
    return 0


def cmd_optimize(args) -> int:
    inst = load_instance(args.instance)
    tau = _resolve_cost(inst, args)
    p = _resolve_p(inst, args)
    lam = _resolve_lambda(inst, args)
    cfg = OptimizerConfig(k_max=args.k_max, iterations=args.iters, seed=args.seed,
                          steiner_budget=args.steiner_budget)
    report = local_search(inst.mu_plus, inst.mu_minus, tau, p, lam, cfg)
    payload = report.to_dict()
    payload["normalization"] = inst.transform.to_dict()
    resid = (kirchhoff_residual(report.witness, inst.mu_plus, inst.mu_minus)
             if report.witness.n_edges else 0.0)
    payload["witness_kirchhoff_residual"] = resid
    if args.witness_out:
        _atomic_write(args.witness_out,
                      json.dumps(graph_to_dict(report.witness, transform=inst.transform),
                                 indent=2, sort_keys=True) + "\n")
    _emit(args, payload)
    return 0 if resid <= args.tol_kirchhoff else 1


def cmd_bounds(args) -> int:
    inst = load_instance(args.instance)
    tau = _resolve_cost(inst, args)
    p = _resolve_p(inst, args)
    lam = _resolve_lambda(inst, args)
    if not tau.has_witness():
        raise ValueError("cost has no concave majorant; bounds unavailable")
    n = inst.dimension
    terms = wasserstein.lower_bound_terms(inst.mu_plus, inst.mu_minus, tau, p, lam)
    table = []
    for j in range(args.k, args.l):
        table.append({
            "level": j,
            "mass_term": math.sqrt(n) * 2.0 ** (j * (n - 1)) * float(tau.eval_witness(2.0 ** (-j * n))),
            "derivative_scale": math.sqrt(n) * 2.0 ** (-j),
        })
    mass_bound, deriv_bound = dyadic.band_flux_bounds(args.k, args.l, n, tau, inst.mu_plus, p)
    payload = {
        "lower_bound": terms,
        "band_levels": table,
        "band_mass_bound": mass_bound,
        "band_derivative_bound": deriv_bound,
    }
    _emit(args, payload)
    return 0


def _blend_paths(a: AtomicMeasurePath, b: AtomicMeasurePath) -> AtomicMeasurePath:
    """Equal mixture on the union support (third probe path)."""
    points, w = _bucket(np.vstack([a.points, b.points]), 0.5 * np.vstack([a.weights, b.weights]))
    return make_atomic_path(points, w, a.grid)


def perturbation_family(base: AtomicMeasurePath, exponents) -> list[AtomicMeasurePath]:
    """Weight perturbations of shrinking amplitude 2**-m, renormalized."""
    out = []
    t = np.arange(base.grid.n_samples) / base.grid.n_samples
    for m in exponents:
        amp = 2.0 ** (-m)
        w = base.weights.copy()
        for i in range(base.n_atoms):
            w[i] = w[i] * (1.0 + amp * np.sin(2.0 * np.pi * t + i))
        w = np.clip(w, 0.0, None)
        w /= w.sum(axis=0)
        out.append(make_atomic_path(base.points, w, base.grid))
    return out


def cmd_probe_metric(args) -> int:
    inst = load_instance(args.instance)
    tau = _resolve_cost(inst, args)
    p = _resolve_p(inst, args)
    lam = _resolve_lambda(inst, args)
    cfg = OptimizerConfig(k_max=args.k_max, iterations=args.iters, seed=args.seed)
    paths = [inst.mu_plus, inst.mu_minus, _blend_paths(inst.mu_plus, inst.mu_minus)]
    family = perturbation_family(inst.mu_plus, range(4, 4 + args.family_size))
    report = metric_probe(paths, tau, p, lam, cfg,
                          convergence_family=(family, inst.mu_plus))
    _emit(args, report)
    flagged = any(t["flagged"] for t in report["triangles"])
    return 1 if flagged else 0


def cmd_export_plot(args) -> int:
    inst = load_instance(args.instance)
    if inst.graph is None:
        raise ValueError("instance has no graph payload")
    G = inst.graph
    tau = inst.cost if inst.cost is not None else power_cost(1.0)
    n_samples = G.grid.n_samples
    samples = [int(s) for s in args.svg_samples.split(",")] if args.svg_samples else [None]
    for s in samples:
        if s is not None and not 0 <= s < n_samples:
            raise ValueError(f"--svg-samples index {s} is outside [0, {n_samples})")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "edge_id", "weight", "tv_norm", "s_tau"])
    lengths = G.lengths
    for j in range(n_samples):
        tv = tv_norm(G, j)
        s_tau = float(lengths @ np.asarray(eval_cost(tau, G.weights[:, j])))
        for e in range(G.n_edges):
            writer.writerow([j / n_samples, e, G.weights[e, j], tv, s_tau])
    _atomic_write(args.out_csv, buf.getvalue())
    root, ext = os.path.splitext(args.out_svg)  # the suffix of the file name only
    for s in samples:
        svg = _render_svg(G, s)
        _atomic_write(args.out_svg if s is None else f"{root}_s{s}{ext}", svg)
    return 0


def _render_svg(G, sample: int | None, size: int = 480) -> str:
    verts = G.vertices
    if verts.shape[1] == 1:
        verts = np.column_stack([verts[:, 0], np.zeros(len(verts))])
    lo = verts.min(axis=0) - 0.2 if len(verts) else np.zeros(2)
    hi = verts.max(axis=0) + 0.2 if len(verts) else np.ones(2)
    span = float(max(hi - lo)) or 1.0

    def sxy(pt):
        x = (pt[0] - lo[0]) / span * size
        y = size - (pt[1] - lo[1]) / span * size
        return x, y

    w = G.weights[:, sample] if sample is not None else G.weights.mean(axis=1)
    wmax = float(w.max()) if len(w) and w.max() > 0 else 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    for e in range(G.n_edges):
        x1, y1 = sxy(verts[G.edges[e, 0]])
        x2, y2 = sxy(verts[G.edges[e, 1]])
        width = 0.5 + 6.0 * w[e] / wmax
        parts.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                     f'stroke="#1f4e79" stroke-width="{width:.2f}" stroke-linecap="round"/>')
    for v in verts:
        x, y = sxy(v)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#c0392b"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="branchflow",
                                     description="time-periodic branched transport toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, cost=True):
        sp.add_argument("instance", help="instance JSON file")
        sp.add_argument("--out", default=None, help="write the JSON report here")
        if cost:
            sp.add_argument("--tau", default=None, help="cost override, e.g. power:0.5")
            sp.add_argument("--p", default=None, help="time norm exponent (number or 'inf')")
            sp.add_argument("--lambda", dest="lam", type=float, default=None)

    sp = sub.add_parser("validate", help="schema and invariant report")
    common(sp, cost=False)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("energy", help="energy report for the instance graph")
    common(sp)
    sp.add_argument("--tol-kirchhoff", type=float, default=1e-6)
    sp.set_defaults(func=cmd_energy)

    sp = sub.add_parser("construct", help="emit band flux or connector graphs")
    common(sp, cost=False)
    sp.add_argument("--kind", choices=("band", "connector"), default="band")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--l", type=int, default=3)
    sp.add_argument("--trace-levels", action="store_true")
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("optimize", help="bracket the distance and emit a witness")
    common(sp)
    sp.add_argument("--k-max", type=int, default=3)
    sp.add_argument("--iters", type=int, default=120)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--steiner-budget", type=int, default=2)
    sp.add_argument("--witness-out", default=None)
    sp.add_argument("--tol-kirchhoff", type=float, default=1e-6)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("bounds", help="lower bound terms and band bound table")
    common(sp)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--l", type=int, default=4)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("probe-metric", help="metric axioms on optimizer brackets")
    common(sp)
    sp.add_argument("--k-max", type=int, default=2)
    sp.add_argument("--iters", type=int, default=40)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--family-size", type=int, default=3)
    sp.set_defaults(func=cmd_probe_metric)

    sp = sub.add_parser("export-plot", help="per-sample CSV and geometry SVG")
    common(sp, cost=False)
    sp.add_argument("--out-csv", required=True)
    sp.add_argument("--out-svg", required=True)
    sp.add_argument("--svg-samples", default=None, help="comma-separated sample indices")
    sp.set_defaults(func=cmd_export_plot)

    return parser


def run_subcommand(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, CycleExplosionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()

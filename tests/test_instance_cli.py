import csv
import json
import math
import warnings

import numpy as np
import pytest

from branchflow import load_instance, save_instance
from branchflow.cli import run_subcommand
from branchflow.instance import instance_from_dict


def minimal_instance(n_samples=4):
    return {
        "version": "1",
        "dimension": 1,
        "time_samples": n_samples,
        "mu_plus": {"points": [[0.1]], "weights": [[1.0] * n_samples]},
        "mu_minus": {"points": [[0.8]], "weights": [[1.0] * n_samples]},
        "cost": {"kind": "power", "alpha": 0.5},
        "p": 2,
        "lambda": 0.1,
    }


def single_edge_instance(n_samples=4):
    data = minimal_instance(n_samples)
    data["graph"] = {
        "vertices": [[0.1], [0.8]],
        "edges": [[0, 1]],
        "weights": [[1.0] * n_samples],
    }
    return data


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(minimal_instance()))
    return str(path)


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

def test_minimal_instance_loads(instance_path):
    inst = load_instance(instance_path)
    assert inst.dimension == 1
    assert inst.grid.n_samples == 4
    assert inst.transform.is_identity


def test_mass_violation_names_sample(tmp_path):
    data = minimal_instance()
    data["mu_plus"]["weights"] = [[1.0, 0.99, 1.0, 1.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="t_1"):
        load_instance(str(path))


def test_schema_violation_reports_location(tmp_path):
    data = minimal_instance()
    del data["mu_minus"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="schema"):
        load_instance(str(path))


def test_round_trip_identity(tmp_path, instance_path):
    inst = load_instance(instance_path)
    out = tmp_path / "copy.json"
    save_instance(inst, str(out))
    again = load_instance(str(out))
    assert again.raw == inst.raw


def test_normalization_rescales_wide_instances():
    data = minimal_instance()
    data["mu_plus"]["points"] = [[-8.0]]
    data["mu_minus"]["points"] = [[12.0]]
    inst = instance_from_dict(data)
    assert not inst.transform.is_identity
    pts = np.vstack([inst.mu_plus.points, inst.mu_minus.points])
    assert np.all(np.abs(pts) <= 0.95 + 1e-12)
    original = inst.transform.invert(inst.mu_plus.points)
    assert original[0, 0] == pytest.approx(-8.0)


def test_p_inf_parses():
    data = minimal_instance()
    data["p"] = "inf"
    inst = instance_from_dict(data)
    assert math.isinf(inst.p)


def test_non_finite_values_are_rejected_by_name():
    data = minimal_instance()
    data["mu_plus"]["weights"] = [[1.0, math.nan, 1.0, 1.0]]
    with pytest.raises(ValueError, match="mu_plus: non-finite weight nan for atom 0 at sample 1"):
        instance_from_dict(data)

    data = minimal_instance()
    data["mu_minus"]["points"] = [[math.inf]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mu_minus: non-finite coordinate for point 0"):
            instance_from_dict(data)

    data = single_edge_instance()
    data["graph"]["weights"] = [[1.0, 1.0, math.nan, 1.0]]
    with pytest.raises(ValueError, match="non-finite weight nan for edge 0 at sample 2"):
        instance_from_dict(data)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_unknown_subcommand_exits_nonzero(capsys):
    assert run_subcommand(["frobnicate"]) != 0


def test_validate_subcommand(instance_path, capsys):
    assert run_subcommand(["validate", instance_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True


def test_energy_subcommand_single_edge(tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(single_edge_instance()))
    assert run_subcommand(["energy", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    # tau(1) * length with constant weights
    assert out["total"] == pytest.approx(0.7)
    assert out["kirchhoff_residual"] <= 1e-12


@pytest.mark.parametrize("command", [["validate"], ["energy"], ["optimize", "--k-max", "1", "--iters", "4"]])
def test_integral_floats_for_dimension_and_samples_read_as_integers(tmp_path, capsys, command):
    # the schema, like JSON Schema, lets 4.0 pass where it asks for an integer
    outs = []
    for n, n_samples in ((1, 4), (1.0, 4.0)):
        data = single_edge_instance()
        data["dimension"], data["time_samples"] = n, n_samples
        path = tmp_path / f"instance_{n_samples}.json"
        path.write_text(json.dumps(data))
        assert run_subcommand([command[0], str(path), *command[1:]]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_energy_requires_graph(instance_path, capsys):
    assert run_subcommand(["energy", instance_path]) == 1
    assert "graph" in capsys.readouterr().err



@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_energy_rejects_a_lambda_that_is_not_finite(tmp_path, capsys, lam):
    data = single_edge_instance()
    data["lambda"] = lam
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(data))
    assert run_subcommand(["energy", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: lambda must be finite and positive")


def test_bounds_rejects_a_nan_p(tmp_path, capsys):
    data = minimal_instance()
    data["p"] = math.nan
    path = tmp_path / "nan_p.json"
    path.write_text(json.dumps(data))
    assert run_subcommand(["bounds", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: p must lie in (1, inf]")


@pytest.mark.parametrize("key, value, message", [("lambda", math.nan, "lambda must be finite and positive"),
                                                  ("lambda", math.inf, "lambda must be finite and positive"),
                                                  ("p", math.nan, "p must lie in (1, inf]")])
def test_validate_rejects_a_nan_or_infinite_lambda_and_a_nan_p(tmp_path, capsys, key, value, message):
    data = minimal_instance()
    data[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run_subcommand(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)


def test_validate_accepts_a_graph_with_no_rows(tmp_path, capsys):
    # the schema lets a graph have no vertices, edges or weights
    data = minimal_instance()
    data["graph"] = {"vertices": [], "edges": [], "weights": []}
    path = tmp_path / "empty_graph.json"
    path.write_text(json.dumps(data))
    assert run_subcommand(["validate", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["graph_edges"] == 0
    assert load_instance(str(path)).graph.vertices.shape == (0, 1)


def test_validate_names_graph_vertices_of_the_wrong_dimension(tmp_path, capsys):
    data = single_edge_instance()
    data["graph"]["vertices"] = [[0.1, 0.0], [0.8, 0.0]]
    path = tmp_path / "flat_graph.json"
    path.write_text(json.dumps(data))
    assert run_subcommand(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: graph vertices have dimension 2, expected 1\n"


def test_energy_reports_a_cycle_explosion(tmp_path, capsys):
    # every ordered pair of 4 vertices is an edge: 6 + 8 + 6 = 20 simple cycles, more than
    # energy's default cap of 10; the unit flow 0 -> 3 rides on a balanced circulation
    data = minimal_instance()
    pts = [[0.1], [0.3], [0.5], [0.8]]
    edges = [[t, h] for t in range(4) for h in range(4) if t != h]
    data["graph"] = {"vertices": pts, "edges": edges,
                     "weights": [[1.1 if (t, h) == (0, 3) else 0.1] * 4 for t, h in edges]}
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(data))
    assert run_subcommand(["energy", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cycle explosion: more than 10 simple cycles")


def test_construct_band_with_levels(tmp_path, instance_path):
    out = tmp_path / "band.json"
    code = run_subcommand(["construct", instance_path, "--kind", "band",
                           "--k", "1", "--l", "3", "--trace-levels", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload["edge_levels"]) <= {1, 2}
    assert len(payload["edges"]) == len(payload["weights"])


def test_construct_connector(tmp_path, instance_path):
    out = tmp_path / "conn.json"
    assert run_subcommand(["construct", instance_path, "--kind", "connector",
                           "--k", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["normalization"]["scale"] == 1.0


def test_optimize_subcommand_delta_pair(tmp_path, instance_path, capsys):
    witness = tmp_path / "witness.json"
    code = run_subcommand(["optimize", instance_path, "--k-max", "1", "--iters", "8",
                           "--seed", "7", "--witness-out", str(witness)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["upper"] == pytest.approx(0.7, abs=1e-6)
    assert report["witness_kirchhoff_residual"] <= 1e-6
    assert json.loads(witness.read_text())["edges"]



def test_optimize_without_a_seed_topology_exits_1(tmp_path, capsys):
    # 7 + 7 atoms are too many for the direct topology, and --k-max 0 builds no connector
    data = minimal_instance()
    data["dimension"] = 2
    data["mu_plus"] = {"points": [[0.1 * i, 0.0] for i in range(7)], "weights": [[1.0 / 7] * 4] * 7}
    data["mu_minus"] = {"points": [[0.05 + 0.1 * i, 0.0] for i in range(7)], "weights": [[1.0 / 7] * 4] * 7}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    assert run_subcommand(["optimize", str(path), "--k-max", "0", "--iters", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no seed topology") and "k_max = 0" in err


def test_optimize_reports_a_positive_zero_gap_for_identical_paths(tmp_path, capsys):
    data = minimal_instance()
    data["mu_minus"] = data["mu_plus"]
    path = tmp_path / "same.json"
    path.write_text(json.dumps(data))
    assert run_subcommand(["optimize", str(path), "--k-max", "1", "--iters", "4"]) == 0
    assert '"gap": 0.0,' in capsys.readouterr().out


def test_optimize_deterministic_given_seed(tmp_path, instance_path, capsys):
    run_subcommand(["optimize", instance_path, "--iters", "6", "--seed", "3", "--k-max", "1"])
    first = capsys.readouterr().out
    run_subcommand(["optimize", instance_path, "--iters", "6", "--seed", "3", "--k-max", "1"])
    second = capsys.readouterr().out
    assert first == second


def test_bounds_subcommand_reproduces_band_value(tmp_path, capsys):
    data = minimal_instance()
    data["dimension"] = 2
    data["mu_plus"] = {"points": [[0.1, 0.1]], "weights": [[1.0] * 4]}
    data["mu_minus"] = {"points": [[-0.2, 0.3]], "weights": [[1.0] * 4]}
    data["cost"] = {"kind": "power", "alpha": 0.8}
    path = tmp_path / "inst2d.json"
    path.write_text(json.dumps(data))
    assert run_subcommand(["bounds", str(path), "--k", "1", "--l", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["band_mass_bound"] == pytest.approx(1.9548, abs=1e-3)
    assert len(out["band_levels"]) == 3


def test_probe_metric_subcommand(tmp_path, capsys):
    data = minimal_instance(n_samples=4)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(data))
    code = run_subcommand(["probe-metric", str(path), "--iters", "6", "--k-max", "1",
                           "--family-size", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["symmetric"] is True
    assert "convergence" in out


def test_export_plot_rows_and_header(tmp_path):
    data = single_edge_instance()
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(data))
    out_csv = tmp_path / "series.csv"
    out_svg = tmp_path / "geom.svg"
    assert run_subcommand(["export-plot", str(path), "--out-csv", str(out_csv),
                           "--out-svg", str(out_svg)]) == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "edge_id", "weight", "tv_norm", "s_tau"]
    assert len(rows) - 1 == 4  # one row per sample for the single-edge fixture
    assert out_svg.read_text().startswith("<svg")


def test_export_plot_sample_frames(tmp_path):
    data = single_edge_instance()
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(data))
    out_csv = tmp_path / "series.csv"
    out_svg = tmp_path / "geom.svg"
    assert run_subcommand(["export-plot", str(path), "--out-csv", str(out_csv),
                           "--out-svg", str(out_svg), "--svg-samples", "0,2"]) == 0
    assert (tmp_path / "geom_s0.svg").exists()
    assert (tmp_path / "geom_s2.svg").exists()


@pytest.mark.parametrize("out_svg, frames", [
    ("geom.png", ["geom_s0.png", "geom_s2.png"]),
    ("a.svg/out.svg", ["a.svg/out_s0.svg", "a.svg/out_s2.svg"]),
])
def test_export_plot_frame_names_split_the_suffix_of_the_file_name(tmp_path, out_svg, frames):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(single_edge_instance()))
    (tmp_path / "a.svg").mkdir()
    assert run_subcommand(["export-plot", str(path), "--out-csv", str(tmp_path / "series.csv"),
                           "--out-svg", str(tmp_path / out_svg), "--svg-samples", "0,2"]) == 0
    written = sorted(str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*_s*"))
    assert written == frames


@pytest.mark.parametrize("index", [4, -1])
def test_export_plot_rejects_a_sample_index_outside_the_grid_before_writing(tmp_path, capsys, index):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(single_edge_instance()))  # 4 samples
    out_csv = tmp_path / "series.csv"
    out_svg = tmp_path / "geom.svg"
    assert run_subcommand(["export-plot", str(path), "--out-csv", str(out_csv),
                           "--out-svg", str(out_svg), "--svg-samples", f"0,{index}"]) == 1
    assert capsys.readouterr().err == f"error: --svg-samples index {index} is outside [0, 4)\n"
    assert not out_csv.exists()
    assert not list(tmp_path.glob("*.svg"))

import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from funcrelu import cli, pipeline, relu_net
from funcrelu.cli import main
from funcrelu.legendre import default_rule_size
from funcrelu.relu_net import count_nonzero, depth, deserialize, evaluate
from funcrelu.simplicial import spike


def test_build_min(tmp_path, capsys):
    out = tmp_path / "min.json"
    main(["build-min", "--d", "3", "--out", str(out)])
    net = deserialize(out.read_bytes())
    assert count_nonzero(net) == 16
    assert depth(net) == 2
    err = capsys.readouterr().err
    assert "nonzeros=16" in err


def test_python_m_runs_the_cli(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = tmp_path / "min110.json"
    done = subprocess.run([sys.executable, "-m", "funcrelu", "build-min", "--d", "110",
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "depth=109 nonzeros=12535" in done.stderr
    assert count_nonzero(deserialize(out.read_bytes())) == 12535


def test_build_spike_stdout(capsys):
    main(["build-spike", "--t", "1"])
    captured = capsys.readouterr()
    net = deserialize(captured.out.strip().encode())
    assert evaluate(net, np.array([0.25])) == pytest.approx(0.75)
    assert "depth=3" in captured.err


def test_build_interp_builtin_values(tmp_path):
    out = tmp_path / "interp.json"
    main(["build-interp", "--t", "2", "--N", "4", "--R", "1.0",
          "--values", "euclidean-norm", "--out", str(out)])
    net = deserialize(out.read_bytes())
    assert depth(net) == 7
    assert evaluate(net, np.array([0.5, 0.0])) == pytest.approx(0.5, abs=1e-10)


def test_build_interp_csv_values(tmp_path):
    values = tmp_path / "values.csv"
    rows = [f"{i},1.0" for i in range(9)]
    values.write_text("\n".join(rows) + "\n")
    out = tmp_path / "interp.json"
    main(["build-interp", "--t", "2", "--N", "2", "--R", "1.0",
          "--values", str(values), "--out", str(out)])
    net = deserialize(out.read_bytes())
    pts = np.random.default_rng(0).uniform(-1, 1, (50, 2))
    from funcrelu.relu_net import evaluate_batch
    assert np.abs(evaluate_batch(net, pts) - 1.0).max() <= 1e-10


def test_build_interp_incomplete_csv(tmp_path):
    values = tmp_path / "values.csv"
    values.write_text("0,1.0\n")
    with pytest.raises(SystemExit):
        main(["build-interp", "--t", "2", "--N", "2", "--R", "1.0",
              "--values", str(values)])


def test_build_interp_is_limited_by_the_file_format(tmp_path, monkeypatch):
    # the writer's limit bounds each stored matrix: here the 25 node values
    monkeypatch.setattr(relu_net, "SERIALIZE_ENTRY_LIMIT", 24)
    out = tmp_path / "big.json"
    with pytest.raises(ValueError, match="output weights with shape .1, 25. is too large "
                                         "for the file format: more than 24 entries"):
        main(["build-interp", "--t", "1", "--N", "24", "--R", "1", "--values", "ones",
              "--out", str(out)])
    assert not out.exists()


def test_build_interp_names_an_n_beyond_float_range():
    with pytest.raises(ValueError, match=r"^N must be at most the float64 maximum"):
        main(["build-interp", "--t", "2", "--N", "1" + "0" * 400, "--R", "1",
              "--values", "ones"])


def test_build_interp_names_an_unknown_values_name():
    with pytest.raises(SystemExit, match=r"^--values: 'nope' is neither a file nor a "
                                         r"built-in name; choose from \['coordinate-sum', "
                                         r"'euclidean-norm', 'ones', 'sum-of-squares', 'zeros'\]$"):
        main(["build-interp", "--t", "2", "--N", "2", "--R", "1.0", "--values", "nope"])


def test_build_stats_line_counts_bytes(tmp_path, capsys):
    out = tmp_path / "interp.json"
    main(["build-interp", "--t", "2", "--N", "4", "--R", "1.0", "--values", "ones",
          "--out", str(out)])
    err = capsys.readouterr().err
    assert f" bytes={len(out.read_bytes())}" in err
    assert err.startswith("depth=7 nonzeros=")


@pytest.mark.parametrize("bad_row,problem", [
    ("-1,1.0", "node index -1 outside"),
    ("9,1.0", "node index 9 outside"),
    ("two,1.0", "expected 'node_index,value'"),
    ("2,high", "expected 'node_index,value'"),
    ("2", "expected 'node_index,value'"),
    ("2,nan", "value nan is not finite"),
    ("0,2.0", "node index 0 is listed twice"),
])
def test_build_interp_bad_csv_row_names_line(tmp_path, bad_row, problem):
    values = tmp_path / "values.csv"
    values.write_text("# index,value\n0,1.0\n" + bad_row + "\n")
    with pytest.raises(SystemExit, match=f"line 3: {problem}"):
        main(["build-interp", "--t", "2", "--N", "2", "--R", "1.0",
              "--values", str(values)])


def test_discretize_builtin(capsys):
    main(["discretize", "--s", "1", "--m", "1", "--input", "coordinate-sum"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["t"] == 3
    # odd function: only the degree-1 coefficient survives
    nu = np.array(doc["nu"])
    assert abs(nu[0]) < 1e-12 and abs(nu[2]) < 1e-12
    assert nu[1] == pytest.approx(np.sqrt(1.5) * 2.0 / 3.0, abs=1e-12)


def test_discretize_csv_input(tmp_path, capsys):
    samples = tmp_path / "f.csv"
    xs = np.linspace(-1, 1, 101)
    samples.write_text("\n".join(f"{x},{x * x}" for x in xs))
    main(["discretize", "--s", "1", "--m", "2", "--input", str(samples)])
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["nu"]) == 5


@pytest.mark.parametrize("text,problem", [
    ("0.0,1.0\n0.5\n", "line 2: expected 'x,value'"),
    ("", "no 'x,value' samples"),
    ("# x,value\n0.0,1.0\n0.5,high\n", "line 3: expected 'x,value'"),
    ("0.0,1.0\n0.5,inf\n", "line 2: value inf is not finite"),
], ids=["one-column", "empty", "non-numeric", "non-finite"])
def test_discretize_bad_csv_names_file_and_line(tmp_path, text, problem):
    samples = tmp_path / "f.csv"
    samples.write_text(text)
    with pytest.raises(SystemExit, match=f"f.csv: {problem}"):
        main(["discretize", "--s", "1", "--m", "1", "--input", str(samples)])


def test_discretize_names_an_unknown_input_name():
    with pytest.raises(SystemExit, match=r"^--input: 'nope' is neither a file nor a "
                                         r"built-in name; choose from \['abs-first', "
                                         r"'coordinate-sum', .*'zero'\]$"):
        main(["discretize", "--s", "1", "--m", "1", "--input", "nope"])


def test_spike_grid_csv(tmp_path):
    out = tmp_path / "spike.csv"
    main(["spike-grid", "--t", "2", "--extent", "1.0", "--step", "0.5",
          "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "y1,y2,psi"
    assert len(lines) == 1 + 25
    row = dict(zip(lines[0].split(","), lines[13].split(",")))
    y = np.array([float(row["y1"]), float(row["y2"])])
    assert float(row["psi"]) == pytest.approx(spike(y), abs=1e-15)


@pytest.mark.parametrize("flag, value", [
    ("step", "0"), ("step", "-0.1"), ("step", "nan"), ("step", "inf"),
    ("extent", "-1"), ("extent", "nan"), ("extent", "inf"),
    ("t", "0"), ("t", "-1"),
])
def test_spike_grid_bad_flag_is_named(tmp_path, flag, value):
    out = tmp_path / "spike.csv"
    with pytest.raises(ValueError, match=rf"^{flag}\b"):
        main(["spike-grid", f"--{flag}", value, "--out", str(out)])
    assert not out.exists()


def test_quad_rule_csv(tmp_path):
    out = tmp_path / "rule.csv"
    main(["quad-rule", "--q", "3", "--s", "1", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    weights = [float(l.split(",")[1]) for l in lines[1:]]
    assert sum(weights) == pytest.approx(2.0, abs=1e-13)


def test_run_experiment(tmp_path, capsys):
    config = {
        "s": 1,
        "p": 2.0,
        "functional": {"name": "inner-product", "g": "slow-series"},
        "input_class": {"kind": "hoelder_ball", "beta": 2.0,
                        "sample_count": 8, "seed": 3},
        "m_values": [0, 1],
        "N_values": [2, 4],
        "budget_ladder": False,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert (out_dir / "report.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["completed_points"] == 4
    assert summary["decomposition_ok"] is True
    assert summary["peak_rss_mb"] > 0.0
    assert "sup_error" in capsys.readouterr().out


def test_run_l1_norm_config(tmp_path):
    # the functional of verify's third rate kind, by name
    config = {
        "functional": {"name": "l1-norm"},
        "input_class": {"kind": "hoelder_ball", "sample_count": 4, "seed": 3},
        "m_values": [0, 1],
        "N_values": [2],
        "budget_ladder": False,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["functional"] == "l1-norm"
    report = pipeline.run_rate_experiment(pipeline.ExperimentConfig(
        functional=pipeline.l1_norm_functional(1, 2.0),
        input_class=pipeline.InputClass("hoelder_ball", sample_count=4, seed=3),
        m_values=(0, 1), N_values=(2,), ladder=False))
    with open(out_dir / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["sup_error"]) for r in rows] == [r.sup_error for r in report.rows]


@pytest.mark.parametrize("field, value", [("sample_count", 2.5), ("sample_count", True),
                                          ("degree_cap", -1), ("beta", "2")])
def test_run_bad_input_class_field_is_named(tmp_path, field, value):
    config = {
        "functional": {"name": "inner-product", "g": "gaussian"},
        "input_class": {"kind": "hoelder_ball", "sample_count": 4, field: value},
        "m_values": [0],
        "N_values": [2],
        "budget_ladder": False,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("change, key", [
    ({"colour": "red"}, "colour"),
    ({"input_class": {"kind": "hoelder_ball", "colour": "red"}}, "colour"),
    ({"functional": {"name": "inner-product", "colour": "red"}}, "colour"),
    ({"functional": {"name": "cosine"}}, "name"),
    ({"functional": {"name": "sin-inner-product", "g": "nope"}}, "g"),
    ({"functional": {"g": "nope"}}, "g"),
    ({"filter": "nope"}, "filter"),
    ({"input_class": [4]}, "input_class"),
    ({"p": None}, "p"),
    ({"m_values": 3}, "m_values"),
    ({"node_cap": None}, "node_cap"),
    ({"N_values": [2.5]}, "N_values"),
    ({"budget_ladder": "false"}, "budget_ladder"),
    ({"s": True}, "s"),
    ({"dump_networks": 1}, "dump_networks"),
    ([], "config"),
    (None, "config"),
])
def test_run_bad_config_key_is_named(tmp_path, change, key):
    config = {
        "functional": {"name": "inner-product", "g": "gaussian"},
        "input_class": {"kind": "hoelder_ball", "sample_count": 4},
        "m_values": [0],
        "N_values": [2],
        "budget_ladder": False,
    }
    config = {**config, **change} if isinstance(change, dict) else change
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=rf"^{key}\b"):
        main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("m_values, ladder_m_values, sized_by", [
    ([0, 2], [1, 3], 2),   # the sweep's degrees, as before
    ([], [1, 3], 3),       # a ladder-only run: the ladder's degrees
], ids=["sweep", "ladder-only"])
def test_run_sizes_the_functional_rule(monkeypatch, m_values, ladder_m_values, sized_by):
    sizes = []
    real = cli.gauss_legendre_rule
    monkeypatch.setattr(cli, "gauss_legendre_rule",
                        lambda q, s: sizes.append(q) or real(q, s))
    cfg = pipeline.ExperimentConfig(m_values=m_values, ladder_m_values=ladder_m_values)
    cli._functional_from_doc({}, cfg)
    assert sizes == [default_rule_size(sized_by)]


def test_run_ladder_only_config(tmp_path):
    config = {
        "input_class": {"sample_count": 4, "seed": 9},
        "m_values": [],
        "ladder_m_values": [1],
        "node_cap": 100,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["completed_points"] == 0
    assert summary["budget_ladder"]["points"] >= 1
    # no sweep rows, still the header
    header = (out_dir / "report.csv").read_text().splitlines()
    assert header == [",".join(f.name for f in fields(pipeline.ExperimentRow))]


@pytest.mark.parametrize("change, key", [
    ({"m_values": [], "budget_ladder": False}, "m_values"),
    ({"m_values": [], "ladder_m_values": []}, "m_values"),
    ({"N_values": [], "budget_ladder": False}, "N_values"),
], ids=["no-ladder", "no-ladder-degrees", "no-grid-sizes"])
def test_run_with_nothing_to_measure_is_named(tmp_path, change, key):
    config = {"input_class": {"sample_count": 4}, **change}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=rf"^{key}\b"):
        main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])

import json

import numpy as np
import pytest

from funcrelu.cli import main
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


@pytest.mark.parametrize("bad_row,problem", [
    ("-1,1.0", "node index -1 outside"),
    ("9,1.0", "node index 9 outside"),
    ("two,1.0", "expected 'node_index,value'"),
    ("2,high", "expected 'node_index,value'"),
    ("2", "expected 'node_index,value'"),
    ("2,nan", "value nan is not finite"),
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
    assert "sup_error" in capsys.readouterr().out


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

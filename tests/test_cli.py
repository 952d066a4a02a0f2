import json

import numpy as np
import pytest

from matrix_dirichlet.cli import main
from matrix_dirichlet.matrix_simplex import Model1Params, params_to_json


@pytest.fixture
def model_file(tmp_path):
    A = np.ones((3, 3)) - np.eye(3)
    mp = Model1Params(A, np.array([2.0, 2.0, 2.0]))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(params_to_json(mp, d=2)))
    return str(path)


def test_verify_pass_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "model1", "--seed", "7",
                 "--samples", "3", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["suite"] == "model1" and rep["pass"]
    assert {"id", "paper_eq", "n_samples", "max_abs_residual", "tol",
            "pass"} == set(rep["checks"][0])
    text = capsys.readouterr().out
    assert "PASS" in text


def test_verify_bogus_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_simulate_auto_and_reproducible(tmp_path, model_file):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["simulate", "--model", model_file, "--x0", "auto",
            "--dt", "1e-3", "--steps", "2000", "--thin", "10",
            "--burn-in", "200", "--seed", "4"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1].startswith("# count:")
    assert lines[2].startswith("# rejections:")
    assert lines[3].split(",")[0] == "Z1_d0"
    count = int(lines[1].split(":")[1])
    assert len(lines) == 4 + count
    # states stay in the matrix simplex: diagonals in (0, 1)
    data = np.loadtxt(str(out1), skiprows=4, delimiter=",", ndmin=2)
    diag = data[:, [0, 1, 4, 5]]
    assert np.all(diag > 0) and np.all(diag < 1)


def test_simulate_x0_file(tmp_path, model_file):
    x0 = tmp_path / "x0.json"
    # barycenter written explicitly: blocks Id/3
    x0.write_text(json.dumps([1 / 3, 1 / 3, 0.0, 0.0,
                              1 / 3, 1 / 3, 0.0, 0.0]))
    out = tmp_path / "path.csv"
    assert main(["simulate", "--model", model_file, "--x0", str(x0),
                 "--dt", "1e-3", "--steps", "500", "--thin", "5",
                 "--seed", "1", "--out", str(out)]) == 0
    # wrong dimension
    x0.write_text(json.dumps([0.5, 0.5]))
    assert main(["simulate", "--model", model_file, "--x0", str(x0),
                 "--dt", "1e-3", "--steps", "500",
                 "--seed", "1", "--out", str(out)]) == 2


def test_simulate_usage_errors(tmp_path, model_file):
    out = str(tmp_path / "x.csv")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", model_file, "--dt", "-1",
              "--steps", "10", "--out", out])
    assert exc.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--model", str(bad), "--dt", "1e-3",
                 "--steps", "10", "--out", out]) == 2


def test_sample_beta_reduction(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sample", "--law", "matrix-dirichlet", "--d", "1",
                 "--dims", "2,2", "--n", "2000", "--seed", "3",
                 "--out", str(out)]) == 0
    vals = np.loadtxt(str(out), skiprows=2, delimiter=",")
    # Beta(2,2): mean 1/2, variance 1/20
    se = np.std(vals) / np.sqrt(vals.size)
    assert abs(np.mean(vals) - 0.5) < 3 * se
    assert abs(np.var(vals) - 0.05) < 0.01
    # reproducibility
    out2 = tmp_path / "s2.csv"
    main(["sample", "--law", "matrix-dirichlet", "--d", "1",
          "--dims", "2,2", "--n", "2000", "--seed", "3",
          "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_sample_matrix_draws_valid(tmp_path):
    from matrix_dirichlet.matrix_simplex import in_matrix_simplex
    out = tmp_path / "m.csv"
    assert main(["sample", "--law", "matrix-dirichlet", "--d", "2",
                 "--dims", "3,3", "--n", "50", "--seed", "9",
                 "--out", str(out)]) == 0
    header = out.read_text().splitlines()[1]
    assert header == "Z1_d0,Z1_d1,Z1_re01,Z1_im01"
    data = np.loadtxt(str(out), skiprows=2, delimiter=",", ndmin=2)
    assert data.shape == (50, 4)
    for row in data:
        assert in_matrix_simplex(row, 1, 2, margin=-1e-10)


def test_sample_invalid_dims_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--law", "matrix-dirichlet", "--d", "2",
              "--dims", "1,3", "--n", "5",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sample", "--law", "matrix-dirichlet", "--d", "2", "--dims", "3,3",
     "--n", "-3"],
    ["sample", "--law", "matrix-dirichlet", "--d", "0", "--dims", "3,3",
     "--n", "5"],
    ["sample", "--law", "matrix-dirichlet", "--d", "2", "--dims", "3,x",
     "--n", "5"],
    ["verify", "--suite", "polar", "--samples", "-1"],
], ids=["sample-n", "sample-d", "sample-dims", "verify-samples"])
def test_non_positive_counts_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    if argv[0] == "sample":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err
    assert not out.exists()


def _exit_code(argv):
    """Exit code of the CLI, whether it returns or exits through argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["simulate", "--dt", "nan", "--steps", "100"],
    ["simulate", "--dt", "inf", "--steps", "100"],
    ["simulate", "--dt", "1e-3", "--steps", "10"],
    ["simulate", "--dt", "1e-3", "--steps", "100", "--seed", "-1"],
    ["sample", "--law", "matrix-dirichlet", "--d", "2", "--dims", "3,3",
     "--n", "5", "--seed", "-1"],
    ["verify", "--suite", "scalar", "--seed", "-1"],
], ids=["dt-nan", "dt-inf", "steps-below-batches", "simulate-seed",
        "sample-seed", "verify-seed"])
def test_bad_input_exits_2_with_message(argv, tmp_path, model_file, capsys):
    out = tmp_path / "out.file"
    if argv[0] == "simulate":
        argv = argv + ["--model", model_file]
    argv = argv + ["--out", str(out)]
    assert _exit_code(argv) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_large_seed_accepted(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sample", "--law", "matrix-dirichlet", "--d", "1",
                 "--dims", "2,2", "--n", "3", "--seed", str(2 ** 70),
                 "--out", str(out)]) == 0

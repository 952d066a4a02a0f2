import contextlib
import csv
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matrix_dirichlet.cli import main
from matrix_dirichlet.linalg import _DRAW_CHUNK
from matrix_dirichlet.matrix_simplex import (
    Model1Params, params_to_json, point_to_real, simplex_layout)
from matrix_dirichlet.wishart import sample_matrix_dirichlet_direct


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


def _write_draws_loop(path, d, dims, count, seed):
    """The sample CSV written one draw and one row at a time."""
    rng = np.random.Generator(np.random.Philox(seed))
    with open(path, "w", newline="") as fh:
        fh.write("# law: matrix-dirichlet d=%d dims=%s seed=%d\n"
                 % (d, ",".join(str(r) for r in dims), seed))
        writer = csv.writer(fh)
        writer.writerow(simplex_layout(len(dims) - 1, d).coordinate_names())
        for _ in range(count):
            row = point_to_real(sample_matrix_dirichlet_direct(d, dims, rng))
            writer.writerow(["%.12g" % v for v in row])


@pytest.mark.parametrize("d,dims,count", [
    (2, [3, 4, 3], _DRAW_CHUNK + 3),
    (1, [2, 2], 2 * _DRAW_CHUNK),
    (3, [4, 4], 7),
])
def test_sample_csv_bytes_equal_to_single_draw_loop(d, dims, count,
                                                    tmp_path):
    out = tmp_path / "s.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sample", "--law", "matrix-dirichlet", "--d", str(d),
                     "--dims", ",".join(map(str, dims)), "--n", str(count),
                     "--seed", "5", "--out", str(out)]) == 0
    ref = tmp_path / "ref.csv"
    _write_draws_loop(ref, d, dims, count, 5)
    data = out.read_bytes()
    assert data == ref.read_bytes()
    assert data.count(b"\r\n") == count + 1  # csv line ends after the header


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


@pytest.mark.parametrize("content", [
    "[1, 2]",
    '{"schema": 1, "model": "I", "n": 2, "d": null, "A": [[0, 1, 1], '
    '[1, 0, 1], [1, 1, 0]], "a": [2, 2, 2]}',
    '{"schema": 1, "model": "I", "n": 2, "d": 0, "A": [[0, 1, 1], '
    '[1, 0, 1], [1, 1, 0]], "a": [2, 2, 2]}',
    '{"schema": 1, "model": "I", "n": 2, "d": -1, "A": [[0, 1, 1], '
    '[1, 0, 1], [1, 1, 0]], "a": [2, 2, 2]}',
    '{"schema": 1, "model": "I", "n": 2, "d": 2, "A": {}, "a": [2, 2, 2]}',
    # json reads NaN and Infinity; the model would leave the domain at once
    '{"schema": 1, "model": "I", "n": 1, "d": 2, "A": [[0, 1], [1, 0]], '
    '"a": [2, Infinity]}',
    '{"schema": 1, "model": "I", "n": 1, "d": 2, "A": [[0, Infinity], '
    '[Infinity, 0]], "a": [2, 2]}',
    '{"schema": 1, "model": "II", "n": 1, "d": 1, "A": [[[NaN, 0]]], '
    '"B": [[[0.4, 0]]], "a": [2, 2]}',
], ids=["list", "d-null", "d-0", "d-negative", "A-object", "a-infinite",
        "A-infinite", "A-nan"])
def test_malformed_model_file_exits_2(content, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(content)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--model", str(path), "--dt", "1e-3",
                 "--steps", "100", "--out", str(out)]) == 2
    assert "error: cannot read model file" in capsys.readouterr().err
    assert not out.exists()


def test_x0_file_of_wrong_type_exits_2(tmp_path, model_file, capsys):
    x0 = tmp_path / "x0.json"
    x0.write_text('{"x": 1}')
    assert main(["simulate", "--model", model_file, "--x0", str(x0),
                 "--dt", "1e-3", "--steps", "100",
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert "error: cannot read x0 file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "simulate", "sample"])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_exits_2_before_any_work(command, where, tmp_path,
                                               model_file, capsys,
                                               monkeypatch):
    import matrix_dirichlet.cli as cli
    out = str(tmp_path / "missing" / "x") if where == "missing-dir" \
        else str(tmp_path)
    argv = {"verify": ["verify", "--suite", "all"],
            "simulate": ["simulate", "--model", model_file, "--dt", "1e-3",
                         "--steps", "100"],
            "sample": ["sample", "--law", "matrix-dirichlet", "--d", "2",
                       "--dims", "3,3", "--n", "5"]}[command]

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")

    for name in ("run_suite", "simulate", "_direct_draws"):
        monkeypatch.setattr(cli, name, no_work)
    assert main(argv + ["--out", out]) == 2
    assert "error: cannot write --out" in capsys.readouterr().err


def test_out_that_fails_at_write_time_exits_2(tmp_path, monkeypatch, capsys):
    # a path that passes the early check but cannot be opened
    import matrix_dirichlet.cli as cli
    monkeypatch.setattr(cli, "_out_problem", lambda path: None)
    out = str(tmp_path / "missing" / "r.json")
    assert main(["verify", "--suite", "polar", "--samples", "1",
                 "--out", out]) == 2
    assert "error: cannot write --out" in capsys.readouterr().err


# -- fuzzed command lines and files -------------------------------------------
# Any argv and any model or x0 file may only end in exit 0, 1 or 2, with a
# message rather than a traceback.  Sizes stay cheap: at most 400 steps,
# d <= 3 in model files, one or two samples per identity.

def _model_obj(model, n, d):
    if model == "I":
        return {"schema": 1, "model": "I", "n": n, "d": d,
                "A": (np.ones((n + 1, n + 1)) - np.eye(n + 1)).tolist(),
                "a": [2.0] * (n + 1)}
    B = 0.4 * np.eye(d * d)
    return {"schema": 1, "model": "II", "n": n, "d": d,
            "A": [[[float(i == j), 0.0] for j in range(d)] for i in range(d)],
            "B": [[[B[i, j], 0.0] for j in range(d * d)]
                  for i in range(d * d)],
            "a": [2.0] * (n + 1)}


_JSON_VALUES = st.sampled_from(
    [None, 0, -1, 1, 2, 3, 2.5, True, "x", [], {}, [[1.0]], [1.0, 2.0],
     float("nan"), float("inf"), 1e300])


@st.composite
def _model_files(draw):
    kind = draw(st.sampled_from(["valid", "valid", "mutated", "other"]))
    if kind == "other":
        return draw(st.sampled_from(
            ["[1, 2]", "3", '"model"', "null", "{not json", "", "{}"]))
    obj = _model_obj(draw(st.sampled_from(["I", "II"])),
                     draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    if kind == "mutated":
        for key in draw(st.lists(st.sampled_from(sorted(obj)), min_size=1,
                                 max_size=2)):
            if draw(st.booleans()):
                obj.pop(key, None)
            else:
                obj[key] = draw(_JSON_VALUES)
    return json.dumps(obj)


_X0_FILES = st.sampled_from(["auto"] * 6 + [
    "[0.2, 0.2, 0.0, 0.0]", "[0.5, 0.5, 0.0, 0.0]", "[0.3]", "[]",
    '{"x": 1}', '"x"', "[[0.2, 0.2]]", "[NaN, 0.2, 0.0, 0.0]", '["a", 0.2]',
    "{bad", "[0.25, 0.25, 0.0, 0.0, 0.25, 0.25, 0.0, 0.0]"])
_OUTS = st.sampled_from(["ok"] * 5 + ["missing-dir", "directory", ""])


_SEEDS = (["0", "7", str(2 ** 70)], ["-1", "x"])
# (flag, valid values, invalid values) of each command
_FLAGS = {
    "verify": [("--suite", ["scalar", "model1", "model2", "sun", "wishart",
                            "polar", "all"], ["bogus"]),
               ("--seed",) + _SEEDS],
    "simulate": [("--dt", ["1e-3", "0.05"], ["0", "-1", "nan", "inf", "1e3",
                                             "x"]),
                 ("--steps", ["100", "400"], ["20", "0", "-5", "x"]),
                 ("--thin", ["1", "5"], ["0", "x"]),
                 ("--burn-in", ["0", "10"], ["-1", "1000", "x"]),
                 ("--seed",) + _SEEDS],
    "sample": [("--law", ["matrix-dirichlet"], ["bogus"]),
               ("--d", ["1", "2"], ["3", "0", "x"]),
               ("--dims", ["3,3", "2,2,2"], ["1,3", "3", "x,3"]),
               ("--n", ["1", "3"], ["0", "x"]),
               ("--seed",) + _SEEDS],
}


@st.composite
def _argvs(draw):
    """A command with valid flags, at most one of them broken: a bad
    value, no value, or left out."""
    command = draw(st.sampled_from(sorted(_FLAGS) * 3 + ["bogus"]))
    flags = _FLAGS.get(command, [])
    broken = draw(st.sampled_from([None] * 3 + [f[0] for f in flags]))
    argv = [command]
    for name, valid, invalid in flags:
        if name == broken:
            argv += draw(st.sampled_from(
                [[name, v] for v in invalid] + [[name], []]))
        else:
            argv += [name, draw(st.sampled_from(valid))]
    if command == "verify":
        # always a sample count: the per-suite defaults are not cheap
        argv += ["--samples",
                 draw(st.sampled_from(["1", "2", "1", "2", "0", "x"]))]
    return argv


def _fuzz_run(argv, model_text, x0_text, out_kind):
    """Exit code and stderr of one CLI run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        if argv[0] == "simulate":
            model = os.path.join(tmp, "model.json")
            with open(model, "w") as fh:
                fh.write(model_text)
            argv += ["--model", model]
            if x0_text != "auto":
                x0 = os.path.join(tmp, "x0.json")
                with open(x0, "w") as fh:
                    fh.write(x0_text)
                argv += ["--x0", x0]
        if argv[0] in ("verify", "simulate", "sample") and out_kind:
            argv += ["--out", {"ok": os.path.join(tmp, "out"),
                               "missing-dir": os.path.join(tmp, "no", "out"),
                               "directory": tmp}[out_kind]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = _exit_code(argv)
    return code, err.getvalue()


_SIMULATE = ["simulate", "--dt", "1e-3", "--steps", "100"]
_MODEL_I = json.dumps(_model_obj("I", 1, 2))


@given(argv=_argvs(), model_text=_model_files(), x0_text=_X0_FILES,
       out_kind=_OUTS)
@example(argv=_SIMULATE, model_text="[1, 2]", x0_text="auto", out_kind="ok")
@example(argv=_SIMULATE, model_text=json.dumps(dict(_model_obj("I", 1, 2),
                                                    d=None)),
         x0_text="auto", out_kind="ok")
@example(argv=_SIMULATE, model_text=_MODEL_I, x0_text="auto",
         out_kind="missing-dir")
@example(argv=["sample", "--law", "matrix-dirichlet", "--d", "1", "--dims",
               "2,2", "--n", "1"], model_text="", x0_text="auto",
         out_kind="directory")
@settings(max_examples=150, deadline=None)
def test_fuzzed_cli_exits_0_1_or_2_without_traceback(argv, model_text,
                                                     x0_text, out_kind):
    code, err = _fuzz_run(argv, model_text, x0_text, out_kind)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert "error" in err, (argv, err)

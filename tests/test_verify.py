import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matrix_dirichlet.calculus import DiffusionModel
from matrix_dirichlet.matrix_simplex import _ginibre_squares
from matrix_dirichlet.realify import CoordStack, RealLayout
from matrix_dirichlet.verify import (
    SUITE_NAMES, _check, _check_table, _reversibility_check, format_report,
    independence_check, moment_test, run_suite)
from matrix_dirichlet.wishart import sample_wishart_family

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_moment_test_basic():
    rep = moment_test([0.5, 0.2], [0.01, 0.01], [0.5, 0.2], [0.01, 0.01])
    assert rep["max_abs_z"] == 0.0 and rep["pass"]
    # means five standard errors apart must fail
    rep = moment_test(0.5, 0.01, 0.5 + 5 * 0.01, 1e-12)
    assert not rep["pass"]
    with pytest.raises(ValueError):
        moment_test(0.0, 0.0, 0.0, 1.0)


def test_independence_check(rng):
    M = 20000
    y = rng.gamma(shape=np.array([2.0, 3.0]), size=(M, 2))
    S = y.sum(axis=1)
    rep = independence_check(S, (y[:, 0] / S)[:, None])
    assert rep["pass"]
    # negative control: deliberately dependent pairs
    u = rng.uniform(size=M)
    rep = independence_check(S, (S * u)[:, None])
    assert not rep["pass"]
    with pytest.raises(ValueError):
        independence_check(S[:100], y[:100, :1])


def test_run_suite_schema_and_determinism():
    rep = run_suite("model1", seed=3)
    assert rep["suite"] == "model1" and rep["seed"] == 3
    for c in rep["checks"]:
        assert set(c) == {"id", "paper_eq", "n_samples",
                          "max_abs_residual", "tol", "pass"}
    assert rep["pass"]
    again = run_suite("model1", seed=3)
    assert again == rep


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_suite("bogus")
    assert "all" in SUITE_NAMES


def test_model1_reducible_reported_as_pass():
    rep = run_suite("model1", seed=0)
    ids = {c["id"]: c for c in rep["checks"]}
    c = ids["model1.ellipticity_reducible_null"]
    assert c["pass"] and c["max_abs_residual"] <= 1e-12


def test_polar_suite_coverage():
    rep = run_suite("polar", seed=11, samples=1)
    assert rep["pass"], format_report(rep)
    assert len(rep["checks"]) >= 16


def test_scalar_suite_and_report_lines():
    rep = run_suite("scalar", seed=5)
    assert rep["pass"], format_report(rep)
    lines = format_report(rep)
    assert len(lines) == len(rep["checks"]) + 1
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].endswith("PASS")


@pytest.mark.parametrize("samples", [-1, 0])
def test_run_suite_rejects_non_positive_samples(samples):
    # a suite run on no sample must not report passing checks
    with pytest.raises(ValueError):
        run_suite("polar", seed=0, samples=samples)


def test_run_suite_one_sample_keeps_every_check():
    default = run_suite("all", seed=0)
    one = run_suite("all", seed=0, samples=1)
    ids = [c["id"] for c in default["checks"]]
    assert len(ids) == 77 and len(set(ids)) == 77
    assert [c["id"] for c in one["checks"]] == ids
    assert all(c["n_samples"] >= 1 for c in one["checks"])


def test_all_suite_check_ids_match_bench_list():
    # the verify benchmark checks every round against this list
    path = Path(SRC).parent / "bench" / "verify_check_ids.json"
    ids = [c["id"] for c in run_suite("all", seed=0)["checks"]]
    assert ids == json.loads(path.read_text())


def test_check_on_no_sample_fails():
    checks = []
    _check(checks, "empty", 0.0, 1.0, 0)
    assert not checks[0]["pass"]


def _ou(drift):
    return DiffusionModel(1, gamma=lambda x: np.array([[1.0]]), drift=drift)


def test_check_table_nan_entry_fails():
    # the NaN entry comes after a finite residual of the same row
    stack = CoordStack([("x", RealLayout(1))])
    table = [("gamma_xx", "raw", "x", "x", ""), ("L_x", "raw", "x", None, "")]
    frames = [(_ou(lambda x: -x), lambda x: x.copy(), stack, np.array([x]),
               {"gamma_xx": np.array([[g]]), "L_x": np.array([-x])})
              for x, g in ((0.3, 1.0 + 1e-9), (-0.4, np.nan))]
    worst, failures = _check_table(frames, table)
    assert np.isnan(worst["gamma_xx"]) and "gamma_xx" in failures
    assert worst["L_x"] < 1e-6 and "L_x" not in failures


def test_reversibility_check_nan_drift_fails():
    # OU is reversible for N(0, 1); its drift turns NaN at the second point
    model = _ou(lambda x: -x if x[0] < 0.0 else x * np.nan)
    checks = []
    _reversibility_check(checks, "ou.reversibility", model, lambda x: -x,
                         [np.array([-0.5]), np.array([0.5])])
    assert np.isnan(checks[0]["max_abs_residual"])
    assert not checks[0]["pass"]


def test_casimir_image_judges_gamma_by_its_own_tolerance(monkeypatch):
    # a closed Gamma off by 1e-5: 10x TOL_GAMMA, yet under TOL_DRIFT
    from matrix_dirichlet import sun
    exact = sun.gamma_model1
    monkeypatch.setattr(sun, "gamma_model1",
                        lambda params, point: exact(params, point) + 1e-5)
    checks = {c["id"]: c for c in run_suite("sun", seed=0)["checks"]}
    n3 = checks["sun.casimir_image.N3"]
    assert 1e-6 < n3["max_abs_residual"] < 1e-4
    assert n3["tol"] == 1e-6
    assert not n3["pass"]


def test_scalar_wishart_pairs_match_sampler_loop():
    M = 50
    rngs = [np.random.Generator(np.random.Philox(4)) for _ in range(2)]
    # the draws of the radial independence check of the wishart suite
    W = _ginibre_squares(1, [2, 2], rngs[0], M)[:, :, 0, 0].real
    loop = np.array([sample_wishart_family(1, [2.0, 2.0], rngs[1]).W[:, 0, 0]
                     for _ in range(M)])
    assert W.shape == (M, 2)
    assert np.array_equal(W, loop.real)
    # both leave the stream at the same place
    assert rngs[0].standard_normal() == rngs[1].standard_normal()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / ("t%s.json" % threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=SRC)
        subprocess.run([sys.executable, "-m", "matrix_dirichlet.cli",
                        "verify", "--suite", "scalar", "--seed", "0",
                        "--out", str(out)],
                       env=env, check=True, capture_output=True,
                       timeout=300)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dpstrf

from matrix_dirichlet.calculus import (
    DiffusionModel, reversibility_residual)
from matrix_dirichlet.errors import NotPsdError, StepRejectedError
from matrix_dirichlet.sde import (
    _CSV_BLOCK, SimConfig, _em_chain, _write_rows, diffusion_factor,
    simulate, write_path_csv)
from matrix_dirichlet.simplex import (
    ScalarModelParams, _closed_form_scalar_model, scalar_model)

from reference_diffusions import (
    jacobi_grad_log, jacobi_model, laguerre_grad_log, laguerre_model,
    ou_grad_log, ou_model)
from test_simplex import (
    _drift_simplex_ref, _gamma_simplex_ref, _in_simplex_ref)


def test_diffusion_factor_basic():
    np.testing.assert_allclose(diffusion_factor(0.5 * np.eye(3)),
                               np.eye(3), atol=1e-14)
    # OU: g = 1 gives sigma = sqrt(2)
    np.testing.assert_allclose(diffusion_factor(np.array([[1.0]])),
                               [[np.sqrt(2.0)]])
    # rank-deficient boundary co-metric
    G = np.array([[1.0, 1.0], [1.0, 1.0]])
    s = diffusion_factor(G)
    np.testing.assert_allclose(s @ s.T, 2.0 * G, atol=1e-12)
    assert np.min(np.abs(np.linalg.svd(s, compute_uv=False))) < 1e-12
    with pytest.raises(NotPsdError):
        diffusion_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_diffusion_factor_random_psd(rng):
    for _ in range(10):
        B = rng.standard_normal((4, 4))
        G = B @ B.T
        s = diffusion_factor(G)
        assert np.max(np.abs(s @ s.T - 2.0 * G)) < 1e-10 * np.max(np.abs(G))


@given(m=st.integers(1, 8), data=st.data(), seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_diffusion_factor_rank_deficient_and_indefinite(m, data, seed):
    gen = np.random.Generator(np.random.Philox(seed))
    rank = data.draw(st.integers(0, m - 1))
    X = gen.standard_normal((m, rank))
    G = X @ X.T
    s = diffusion_factor(G)
    scale = max(np.max(np.abs(G)), 1e-300)
    assert np.max(np.abs(s @ s.T - 2.0 * G)) <= 1e-10 * 2.0 * scale
    # one eigenvalue pushed well below zero
    Q, _ = np.linalg.qr(gen.standard_normal((m, m)))
    lam = gen.uniform(0.1, 1.0, m)
    lam[0] = -0.5
    with pytest.raises(NotPsdError):
        diffusion_factor(Q @ np.diag(lam) @ Q.T)


@pytest.mark.parametrize("G", [
    [[1.0, np.nan], [np.nan, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]],
    [[-np.inf, 0.0], [0.0, 1.0]]],
    ids=["nan-off-diagonal", "nan-diagonal", "inf-diagonal",
         "inf-off-diagonal", "minus-inf-diagonal"])
def test_diffusion_factor_rejects_non_finite(G):
    # a NaN residual compares False with any tolerance, so the factor of
    # such a G came back without an error
    with pytest.raises(NotPsdError, match="not finite"):
        diffusion_factor(np.array(G))


def test_em_step_reports_non_finite_gamma(rng):
    # not eight halvings and "step left the domain"
    model = DiffusionModel(2, gamma=lambda x: np.full((2, 2), np.nan),
                           drift=lambda x: np.zeros(2))
    with pytest.raises(NotPsdError):
        _em_chain(model, np.zeros(2), 1e-3, rng)[0]


def test_em_step_deterministic_limit(rng):
    # zero co-metric: the step is the exact drift increment
    model = DiffusionModel(2, gamma=lambda x: np.zeros((2, 2)),
                           drift=lambda x: np.array([1.0, -2.0]))
    x = _em_chain(model, np.array([0.0, 0.0]), 0.25, rng)[0]
    np.testing.assert_allclose(x, [0.25, -0.5], atol=1e-14)


def test_em_step_rejection(rng):
    # a model whose domain excludes everything but the start point
    model = DiffusionModel(1, gamma=lambda x: np.eye(1),
                           drift=lambda x: np.zeros(1),
                           domain_test=lambda x: abs(x[0]) < 1e-12)
    with pytest.raises(StepRejectedError) as exc:
        _em_chain(model, np.zeros(1), 1.0, rng)[0]
    assert "after 8 halvings" in str(exc.value)
    assert exc.value.position is not None
    assert exc.value.proposal is not None


def test_em_step_fails_when_halving_stalls(rng):
    # two runs of 8 rejections leave h = dt / 2^16, which would need 65536
    # sub-steps to cover dt; the step fails after a bounded number instead
    calls = []

    def domain_test(x):
        calls.append(x)
        return len(calls) == 9 or len(calls) > 17

    model = DiffusionModel(1, gamma=lambda x: np.zeros((1, 1)),
                           drift=lambda x: np.zeros(1),
                           domain_test=domain_test)
    with pytest.raises(StepRejectedError, match="sub-steps"):
        _em_chain(model, np.zeros(1), 1.0, rng)[0]
    assert len(calls) == 4096


def one_step_moments(model, x0, dt, M, rng):
    d = x0.size
    acc = np.zeros(d)
    acc2 = np.zeros(d)
    for _ in range(M):
        dx = _em_chain(model, x0, dt, rng)[0] - x0
        acc += dx
        acc2 += dx * dx
    mean = acc / M
    var = acc2 / M - mean ** 2
    return mean, var


@pytest.mark.parametrize("name", ["ou", "laguerre", "jacobi"])
def test_one_step_moments(name, rng):
    # E[dx] = b dt and Var[dx] = 2 g dt to 5 percent at dt = 1e-4
    dt, M = 1e-4, 100000
    if name == "ou":
        model, x0 = ou_model(), np.array([0.7])
    elif name == "laguerre":
        model, x0 = laguerre_model(2.5), np.array([1.3])
    else:
        model, x0 = jacobi_model(2.0, 3.0), np.array([0.2])
    mean, var = one_step_moments(model, x0, dt, M, rng)
    b = model.drift(x0)[0] * dt
    v = 2.0 * model.gamma(x0)[0, 0] * dt
    # the drift increment is tiny; allow 5 percent of the noise scale
    assert abs(mean[0] - b) < 0.05 * np.sqrt(v)
    assert abs(var[0] - v) < 0.05 * v


def stationary_run(model, x0, seed, n_steps=200000, dt=1e-3):
    config = SimConfig(dt=dt, n_steps=n_steps, thin=10, seed=seed,
                      burn_in=n_steps // 10)
    return simulate(model, x0, config)


def test_stationary_ou():
    s = stationary_run(ou_model(), np.array([0.0]), seed=31)
    assert abs(s.mean[0]) < 3.0 * s.se_mean[0]
    # variance target 1; batch-means SE of the second moment via 3-SE of
    # a conservative bound sqrt(2/ess)
    assert abs(s.cov[0, 0] - 1.0) < 3.0 * np.sqrt(2.0 / s.ess[0])
    assert s.ess[0] > 50


def test_stationary_laguerre():
    a = 2.0
    s = stationary_run(laguerre_model(a), np.array([a]), seed=32)
    assert abs(s.mean[0] - a) < 3.0 * s.se_mean[0]
    assert abs(s.cov[0, 0] - a) < 3.0 * a * np.sqrt(2.0 / s.ess[0])


def test_stationary_jacobi():
    # a = b = 2: symmetric beta on (-1, 1); the mapped coordinate
    # (1 + x)/2 is Beta(2, 2) on (0, 1) with mean 1/2
    s = stationary_run(jacobi_model(2.0, 2.0), np.array([0.0]), seed=33,
                       n_steps=100000)
    assert abs(s.mean[0]) < 3.0 * s.se_mean[0]
    y = 0.5 * (1.0 + s.mean[0])
    assert abs(y - 0.5) < 1.5 * s.se_mean[0]


def test_reference_models_reversible(rng):
    for _ in range(20):
        x = np.array([rng.uniform(0.1, 2.5)])
        assert np.max(np.abs(reversibility_residual(
            ou_model(), ou_grad_log, x))) < 1e-8
        assert np.max(np.abs(reversibility_residual(
            laguerre_model(1.7), lambda y: laguerre_grad_log(1.7, y),
            x))) < 1e-8
        xj = np.array([rng.uniform(-0.9, 0.9)])
        assert np.max(np.abs(reversibility_residual(
            jacobi_model(2.0, 3.0), lambda y: jacobi_grad_log(2.0, 3.0, y),
            xj))) < 1e-8


def test_scalar_dirichlet_path(tmp_path):
    # n = 2 uniform Dirichlet: long-run means 1/3, domain preserved
    params = ScalarModelParams(np.array([[0.0, 1.0, 1.0],
                                         [1.0, 0.0, 1.0],
                                         [1.0, 1.0, 0.0]]),
                               np.array([1.0, 1.0, 1.0]))
    model = scalar_model(params, margin=1e-10)
    config = SimConfig(dt=1e-3, n_steps=100000, thin=10, seed=5,
                       burn_in=10000)
    s = simulate(model, np.array([1 / 3, 1 / 3]), config, record=True)
    for i in range(2):
        assert abs(s.mean[i] - 1 / 3) < 3.0 * s.se_mean[i]
    assert s.rejection_fraction < 0.01
    full = np.hstack([s.states, 1.0 - s.states.sum(axis=1, keepdims=True)])
    assert np.min(full) > 0.0
    out = tmp_path / "path.csv"
    write_path_csv(s, out, names=["x1", "x2"])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[3] == "x1,x2"
    assert len(lines) == 4 + s.count


def test_write_rows_bytes_equal_csv_writer():
    rows = np.random.Generator(np.random.Philox(3)).standard_normal(
        (_CSV_BLOCK + 5, 8))
    rows[0, :4] = [0.0, -0.0, 1e-300, 1.2e14]
    rows[-1, -3:] = [np.inf, -np.inf, np.nan]
    fast, ref = io.StringIO(), io.StringIO()
    _write_rows(fast, rows)
    csv.writer(ref).writerows([["%.12g" % v for v in row] for row in rows])
    assert fast.getvalue() == ref.getvalue()


def test_seed_reproducibility():
    config = SimConfig(dt=1e-3, n_steps=2000, thin=5, seed=77, burn_in=100)
    a = simulate(ou_model(), np.array([0.3]), config)
    b = simulate(ou_model(), np.array([0.3]), config)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.second, b.second)
    assert a.n_rejections == b.n_rejections


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, n_steps=10)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-3, n_steps=10, thin=0)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-3, n_steps=10, burn_in=10)
    # a non-finite dt would run no sub-step (nan) or leave the domain (inf)
    for dt in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(dt=dt, n_steps=100)
    # fewer recorded states than batch-means batches
    with pytest.raises(ValueError, match="batches"):
        SimConfig(dt=1e-3, n_steps=100, thin=10)
    SimConfig(dt=1e-3, n_steps=200, thin=10)


# -- the gather in diffusion_factor and the EM chain, bit for bit -------------

def _diffusion_factor_ref(G):
    """The earlier diffusion_factor, which undid the pivot by a scatter."""
    G = np.asarray(G, dtype=float)
    A = G + G.T
    scale = max(float(np.abs(A).max()), 1e-300)
    c, piv, rank, info = dpstrf(A, lower=1)
    if info < 0:
        raise NotPsdError("pivoted Cholesky failed (info %d)" % info)
    n = A.shape[0]
    c *= np.tri(n)
    if rank < n:
        c[:, rank:] = 0.0
    sigma = np.empty((n, n))
    sigma[piv - 1] = c
    R = sigma @ sigma.T
    R -= A
    resid = float(np.abs(R, out=R).max())
    if resid > 1e-10 * scale:
        raise NotPsdError("matrix is not psd (factor residual %.3e)" % resid)
    return sigma


def _factor_outcome(f, G):
    try:
        s = f(G)
    except NotPsdError:
        return "NotPsdError"
    return s.shape, s.flags.c_contiguous, s.tobytes()


@given(m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["full", "rank-deficient", "indefinite"]))
@settings(max_examples=150, deadline=None)
def test_diffusion_factor_bitwise_equal_to_scatter(m, seed, kind):
    gen = np.random.Generator(np.random.Philox(seed))
    rank = {"full": m, "rank-deficient": int(gen.integers(0, m)),
            "indefinite": m}[kind]
    # rows of very different size, so the pivots leave their order
    X = gen.standard_normal((m, rank)) * 10.0 ** gen.uniform(-3, 3, (m, 1))
    G = X @ X.T
    if kind == "indefinite":
        G[0, 0] = -abs(G[0, 0]) - 1.0
    out = _factor_outcome(diffusion_factor, G)
    assert out == _factor_outcome(_diffusion_factor_ref, G)
    if kind == "indefinite":
        assert out == "NotPsdError"


def test_diffusion_factor_pivots_are_exercised():
    # rank 2 of order 3, largest diagonal last: the pivot order is not 1, 2, 3
    X = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 3.0]])
    G = X @ X.T
    _, piv, rank, _ = dpstrf(G + G.T, lower=1)
    assert rank == 2 and list(piv) != sorted(piv)
    out = _factor_outcome(diffusion_factor, G)
    assert out != "NotPsdError"
    assert out == _factor_outcome(_diffusion_factor_ref, G)


def _scalar_chain_ref(params, x0, dt, n_steps, seed, margin=1e-12):
    """Euler-Maruyama with step-halving written out with the earlier
    closed forms, factor and np.sqrt: every outer step's state."""
    rng = np.random.Generator(np.random.Philox(seed))
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((n_steps, x.size))
    n_rej = 0
    for step in range(n_steps):
        t, h, fails = 0.0, dt, 0
        while t < dt * (1.0 - 1e-12):
            h = min(h, dt - t)
            b = np.asarray(_drift_simplex_ref(params, x))
            sigma = _diffusion_factor_ref(_gamma_simplex_ref(params, x))
            xi = rng.standard_normal(x.size)
            prop = x + b * h + np.sqrt(h) * (sigma @ xi)
            if _in_simplex_ref(prop, margin=margin):
                x, t, fails = prop, t + h, 0
            else:
                n_rej += 1
                fails += 1
                assert fails <= 8
                h *= 0.5
        states[step] = x
    return states, n_rej


@pytest.mark.parametrize("weights", ["unit", "random"])
@pytest.mark.parametrize("seed", [0, 3])
def test_scalar_simulate_bitwise_equal_to_reference_chain(weights, seed):
    if weights == "unit":
        params = ScalarModelParams(np.ones((3, 3)) - np.eye(3), np.ones(3))
    else:
        gen = np.random.Generator(np.random.Philox(11))
        B = gen.uniform(0.2, 2.5, (4, 4))
        A = B + B.T
        np.fill_diagonal(A, 0.0)
        params = ScalarModelParams(A, np.array([1.5, 0.8, 2.2, 1.1]))
    n = params.n
    # a coarse step from near a corner, so that some sub-steps are halved
    x0 = np.full(n, 0.02)
    dt, steps = 0.02, 400
    config = SimConfig(dt=dt, n_steps=steps, seed=seed)
    ref, n_rej = _scalar_chain_ref(params, x0, dt, steps, seed)
    # the closed forms give the reference chain's bits
    s = simulate(_closed_form_scalar_model(params), x0, config, record=True)
    assert s.states.tobytes() == ref.tobytes()
    assert s.n_rejections == n_rej
    # the integrated coefficient form agrees with it to roundoff
    s = simulate(scalar_model(params), x0, config, record=True)
    assert s.n_rejections == n_rej
    assert np.max(np.abs(s.states - ref)) <= 1e-12

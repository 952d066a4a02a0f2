import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import gamma as gamma_dist

from matrix_dirichlet.calculus import (
    jacobian, pushforward_generator, reversibility_residual)
from matrix_dirichlet.errors import DomainError
from matrix_dirichlet.linalg import _DRAW_CHUNK
from matrix_dirichlet.matrix_simplex import (
    _direct_draws, _ginibre_squares, drift_model2_entries,
    gamma_model2_entries)
from matrix_dirichlet.realify import HermLayout, simplex_layout
from matrix_dirichlet.sde import _em_chain
from matrix_dirichlet.verify import check_frame_identities
from matrix_dirichlet.wishart import (
    SMZFrame, WishartFamily, closed_form_smz_system,
    matrix_ou_ambient, sample_matrix_dirichlet_direct, sample_smz_frame,
    sample_wishart_family, sm_operator, theorem_params,
    wishart_ambient, wishart_grad_log, wishart_log_density)


def test_ambient_hand_values():
    d = 2
    model = wishart_ambient(d, [3.0])
    layout = simplex_layout(1, d)
    x = layout.to_real([np.eye(d, dtype=complex)])
    b = model.drift(x)
    expect = layout.drift_to_real((10.0 * np.eye(d)).ravel().astype(complex))
    np.testing.assert_allclose(b, expect, atol=1e-14)


def test_ambient_block_independence(rng):
    d = 2
    model = wishart_ambient(d, [3.0, 4.0])
    layout = simplex_layout(2, d)
    fam = sample_wishart_family(d, [3, 4], rng)
    G = model.gamma(layout.to_real(fam.W))
    T = layout.gamma_to_entries(G, layout)
    np.testing.assert_allclose(T[:d * d, d * d:], 0.0, atol=1e-12)


def test_matrix_ou_pushforward(rng):
    # the Gram map W = YY* carries the matrix OU model onto the Wishart model
    d, m = 2, 3
    amb, proj, ylay = matrix_ou_ambient(d, m)
    wmodel = wishart_ambient(d, [float(m)])
    for _ in range(5):
        Y = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        x = ylay.to_real(Y)
        w = proj(x)
        G, L = pushforward_generator(amb, proj, x)
        np.testing.assert_allclose(G, wmodel.gamma(w), atol=1e-8)
        np.testing.assert_allclose(L, wmodel.drift(w), atol=1e-6)


def test_density_scalar_reduction():
    w = 1.7
    val = wishart_log_density([2.0], [np.array([[w]], dtype=complex)])
    assert np.isclose(val, gamma_dist.logpdf(w, a=2.0, scale=2.0))


def test_density_non_integrable():
    with pytest.raises(DomainError):
        wishart_log_density([1.0], [np.eye(2, dtype=complex)])


def test_reversibility(rng):
    d, dims = 2, [3.0, 3.0]
    model = wishart_ambient(d, dims)
    layout = simplex_layout(2, d)
    for _ in range(10):
        fam = sample_wishart_family(d, dims, rng)
        if min(np.min(np.linalg.eigvalsh(W)) for W in fam.W) < 0.1:
            continue
        res = reversibility_residual(
            model,
            lambda x: wishart_grad_log(dims, layout.from_real(x)),
            layout.to_real(fam.W))
        assert np.max(np.abs(res)) < 1e-8


# dW = sqrt(W) dB + dB* sqrt(W) + (alpha W + beta Id) dt with alpha = -2,
# beta = 12 is the Wishart model with dimension parameter beta / 4
_SDE_MODEL = wishart_ambient(2, [3.0])
_SDE_LAYOUT = simplex_layout(1, 2)


def _wishart_em_step(W, dt, rng):
    """One generic Euler-Maruyama step of the 2 x 2 Wishart SDE from W."""
    x = _em_chain(_SDE_MODEL, _SDE_LAYOUT.to_real([W]), dt, rng)[0]
    return _SDE_LAYOUT.from_real(x)[0]


def test_sde_step_basics(rng):
    W = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.5]])
    same = _wishart_em_step(W, 0.0, rng)
    np.testing.assert_allclose(same, W)
    # deterministic part: mean displacement is (alpha W + beta Id) dt
    dt = 1e-3
    M = 20000
    acc = np.zeros_like(W)
    for _ in range(M):
        acc += _wishart_em_step(W, dt, rng) - W
    mean = acc / M
    expect = (-2.0 * W + 12.0 * np.eye(2)) * dt
    # noise std per entry is about sqrt(8 dt); 3 standard errors
    assert np.max(np.abs(mean - expect)) < 3.0 * np.sqrt(8.0 * dt / M)


def test_sde_one_step_variance(rng):
    # var of W_11 over one step at W=Id is 2 Gamma dt = 8 dt
    dt, M = 1e-4, 20000
    vals = np.empty(M)
    W = np.eye(2, dtype=complex)
    for m in range(M):
        vals[m] = _wishart_em_step(W, dt, rng)[0, 0].real - 1.0
    assert abs(np.var(vals) - 8.0 * dt) < 0.05 * 8.0 * dt


def test_build_smz_examples(rng):
    d = 2
    W = np.array([[2.0, 0.4 - 0.2j], [0.4 + 0.2j, 1.0]])
    fr = SMZFrame(WishartFamily([W, W.copy()], [3, 3]))
    np.testing.assert_allclose(fr.M[0], 0.5 * np.eye(d), atol=1e-12)
    # random family: Z blocks sum to Id
    fam = sample_wishart_family(d, [3, 4, 3], rng)
    fr = SMZFrame(fam)
    total_M = sum(fr.M) + fr.Ninv @ fam.W[-1] @ fr.Ninv
    np.testing.assert_allclose(total_M, np.eye(d), atol=1e-10)
    point = fr.z_point()
    np.testing.assert_allclose(sum(point.all_blocks()), np.eye(d), atol=1e-10)
    # scalar case: Z = W / S
    fam1 = sample_wishart_family(1, [2, 2], rng)
    fr1 = SMZFrame(fam1)
    s = (fam1.W[0] + fam1.W[1])[0, 0].real
    assert abs(fr1.Z[0][0, 0] - fam1.W[0][0, 0] / s) < 1e-12


def test_closed_form_hand_values():
    # frame with lambda = (1, 2)
    fam = WishartFamily([np.diag([1.0, 16.0]).astype(complex)], [4.0])
    fr = SMZFrame(fam)
    np.testing.assert_allclose(fr.lam, [1.0, 4.0])
    fam = WishartFamily([np.diag([1.0, 4.0]).astype(complex)], [4.0])
    fr = SMZFrame(fam)
    sys = closed_form_smz_system(fr)
    np.testing.assert_allclose(sys["gamma_lamlam"], np.eye(2))
    # L(lambda_1) at Ntot=4, d=2, lambda=(1,2): 5 - 1 - 4/3
    assert np.isclose(sys["L_lam"][0], 5.0 - 1.0 - 4.0 / 3.0)
    # dN/dS at d=1, S=4: 1/(2 sqrt(S)) = 0.25
    fam1 = WishartFamily([np.array([[4.0]], dtype=complex)], [2.0])
    sys1 = closed_form_smz_system(SMZFrame(fam1))
    assert np.isclose(sys1["dN_dS"][0, 0].real, 0.25)


def test_theorem_params_hand_values():
    fam = WishartFamily([np.diag([1.0, 4.0]).astype(complex)], [4.0])
    fr = SMZFrame(fam)
    params, radial = theorem_params(fr)
    np.testing.assert_allclose(params.A, np.diag([2.0, 0.5]), atol=1e-12)
    assert np.isclose(params.B[0, 1, 0, 1], 10.0 / 9.0)
    assert np.isclose(params.B[0, 0, 0, 0], 1.0)
    # radial drift at Ntot=6, d=2, lambda=(1,2): 9 - 1 - 4/3
    fam6 = WishartFamily([np.diag([1.0, 4.0]).astype(complex)], [6.0])
    _, radial6 = theorem_params(SMZFrame(fam6))
    assert np.isclose(radial6[0], 9.0 - 1.0 - 4.0 / 3.0)


def test_theorem_params_match_closed_forms(rng):
    # model II with the theorem's (A, B, a) equals the Z closed forms
    for (d, dims) in [(2, [3, 3]), (2, [3, 4, 3]), (3, [4, 4])]:
        _, fr = sample_smz_frame(d, dims, rng)
        params, radial = theorem_params(fr)
        sys = closed_form_smz_system(fr)
        zp = fr.z_point()
        np.testing.assert_allclose(gamma_model2_entries(params, zp),
                                   sys["gamma_ZZ"], atol=1e-10)
        np.testing.assert_allclose(drift_model2_entries(params, zp),
                                   sys["L_Z"], atol=1e-10)
        np.testing.assert_allclose(radial, sys["L_lam"], atol=1e-12)


def test_sm_operator_structure(rng):
    d, dims = 2, [3, 3]
    _, fr = sample_smz_frame(d, dims, rng)
    op = sm_operator(fr)
    mp = fr.m_point()
    np.testing.assert_allclose(gamma_model2_entries(op["params"], mp),
                               op["gamma_MM"], atol=1e-10)
    np.testing.assert_allclose(drift_model2_entries(op["params"], mp),
                               op["L_M"], atol=1e-10)
    # the S-M coupling does not vanish: no warped product structure
    assert np.max(np.abs(op["gamma_MS"])) > 1e-3
    # scalar case: the coupling vanishes identically
    fam1 = sample_wishart_family(1, [2, 2], rng)
    op1 = sm_operator(SMZFrame(fam1))
    np.testing.assert_allclose(op1["gamma_MS"], 0.0, atol=1e-14)


def test_smz_identities_d2_n1(rng):
    worst, failures = check_frame_identities(2, [3, 3], rng, 5)
    assert not failures, "residuals above tolerance: %r" % (failures,)


def test_smz_identities_d2_n2(rng):
    worst, failures = check_frame_identities(2, [3, 4, 3], rng, 4)
    assert not failures, "residuals above tolerance: %r" % (failures,)


def test_smz_identities_d3_n1(rng):
    worst, failures = check_frame_identities(3, [4, 4], rng, 3)
    assert not failures, "residuals above tolerance: %r" % (failures,)


def test_smz_identities_d1(rng):
    # a single eigenvalue has no gap to test
    worst, failures = check_frame_identities(1, [2, 3], rng, 2)
    assert not failures, "residuals above tolerance: %r" % (failures,)


def test_sqrt_derivative_fd(rng):
    # closed-form derivative of the matrix square root vs finite differences
    d = 3
    _, fr = sample_smz_frame(d, [4, 4], rng)
    lay = HermLayout(1, d)
    sys = closed_form_smz_system(fr)
    J_closed = (lay.D @ sys["dN_dS"] @ lay.E).real

    def F(x):
        S = lay.from_real(x)[0]
        w, U = np.linalg.eigh(S)
        root = U @ np.diag(np.sqrt(w)) @ U.conj().T
        return lay.to_real([0.5 * (root + root.conj().T)])

    J_fd = jacobian(F, lay.to_real([fr.S]))
    scale = np.max(np.abs(J_closed))
    assert np.max(np.abs(J_fd - J_closed)) < 1e-6 * scale


def test_direct_sampler_moments(rng):
    # d=1, dims (2,2): Beta(2,2)
    M = 20000
    vals = np.array([sample_matrix_dirichlet_direct(1, [2, 2], rng).Z[0][0, 0].real
                     for _ in range(M)])
    se = np.std(vals) / np.sqrt(M)
    assert abs(np.mean(vals) - 0.5) < 3 * se
    assert abs(np.var(vals) - 0.05) < 0.005
    # d=2, dims (3,3): E[Z] = Id/2 by symmetry
    M2 = 3000
    acc = np.zeros((2, 2), dtype=complex)
    for _ in range(M2):
        p = sample_matrix_dirichlet_direct(2, [3, 3], rng)
        for Z in p.all_blocks():
            assert np.min(np.linalg.eigvalsh(Z)) > -1e-10
        acc += p.Z[0]
    np.testing.assert_allclose(acc / M2, 0.5 * np.eye(2),
                               atol=5.0 / np.sqrt(M2))


def _direct_draw_loop(d, dims, rng):
    """One direct draw as single calls: each block's Ginibre matrix drawn
    on its own, S by Python's sum, the root through a diagonal matrix.
    Returns the Wishart blocks and the free simplex blocks."""
    Ws = np.empty((len(dims), d, d), dtype=complex)
    for p, r in enumerate(dims):
        G = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        Ws[p] = G @ G.conj().T
    S = sum(Ws)
    w, U = np.linalg.eigh(S)
    root = U @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T
    Tis = np.linalg.inv(0.5 * (root + root.conj().T))
    Z = Tis @ Ws[:-1] @ Tis
    return Ws, 0.5 * (Z + Z.conj().swapaxes(1, 2))


@given(d=st.integers(1, 3), extra=st.lists(st.integers(0, 4), min_size=2,
                                           max_size=4, unique=True),
       K=st.sampled_from([1, 2, _DRAW_CHUNK - 1, _DRAW_CHUNK,
                          _DRAW_CHUNK + 1]),
       seed=st.integers(0, 2**31))
@settings(max_examples=12, deadline=None)
def test_batched_draws_bitwise_equal_to_single_call_loop(d, extra, K, seed):
    dims = [d + e for e in extra]  # unequal Wishart degrees, all >= d
    rngs = [np.random.Generator(np.random.Philox(seed)) for _ in range(3)]
    loop = [_direct_draw_loop(d, dims, rngs[0]) for _ in range(K)]
    Ws = _ginibre_squares(d, dims, rngs[1], K)
    assert Ws.shape == (K, len(dims), d, d)
    assert Ws.tobytes() == np.array([w for w, _ in loop]).tobytes()
    Z = _direct_draws(d, dims, rngs[2], K)
    assert Z.shape == (K, len(dims) - 1, d, d)
    assert Z.tobytes() == np.array([z for _, z in loop]).tobytes()
    # the single-draw functions are K = 1 views of the same kernels
    W1, Z1 = loop[0]
    fresh = np.random.Generator(np.random.Philox(seed))
    assert sample_wishart_family(d, dims, fresh).W.tobytes() == W1.tobytes()
    fresh = np.random.Generator(np.random.Philox(seed))
    assert sample_matrix_dirichlet_direct(d, dims, fresh).Z.tobytes() == \
        Z1.tobytes()
    # every batch leaves the stream where the loop left it
    assert len({r.standard_normal() for r in rngs}) == 1


def test_sample_smz_frame_propagates_foreign_errors(rng, monkeypatch):
    from matrix_dirichlet import wishart

    def broken(*args, **kwargs):
        raise TypeError("not a sampling failure")

    monkeypatch.setattr(wishart, "SMZFrame", broken)
    with pytest.raises(TypeError):
        sample_smz_frame(2, [3, 3], rng)

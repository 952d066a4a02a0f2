import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from matrix_dirichlet.calculus import (
    DiffusionModel, grad_log_numeric, reversibility_residual)
from matrix_dirichlet.errors import DomainError
from matrix_dirichlet.matrix_simplex import (
    MatrixSimplexPoint, Model1Params, Model2Params, drift_model1,
    drift_model1_entries, drift_model2, drift_model2_entries,
    ellipticity_model1, gamma_model1, gamma_model1_entries,
    gamma_model2, gamma_model2_entries, in_matrix_simplex, log_gamma_d,
    matrix_dirichlet_grad_log, matrix_dirichlet_log_density, model1, model2,
    params_from_json, params_to_json, point_to_real, real_to_point,
    sample_interior, simplex_layout, sylvester_spectrum)
from matrix_dirichlet.sde import SimConfig, simulate
from matrix_dirichlet.simplex import (
    ScalarModelParams, drift_simplex, gamma_simplex)


def random_A(rng, m, low=0.3, high=2.0):
    A = rng.uniform(low, high, (m, m))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    return A


def model2_fixture(rng, d, b_style="identity"):
    C = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A = C @ C.conj().T / d + 0.2 * np.eye(d)
    if b_style == "identity":
        B = 0.4 * np.eye(d * d).reshape(d, d, d, d)
    else:
        # diagonal coupling indexed by entry pairs, symmetric weights
        y = rng.uniform(0.2, 1.0, (d, d))
        y = 0.5 * (y + y.T)
        B = np.zeros((d, d, d, d))
        for i in range(d):
            for j in range(d):
                B[i, j, i, j] = y[i, j]
    return A, B


# -- points and sampling ------------------------------------------------------

def test_point_validation():
    Id = np.eye(2)
    MatrixSimplexPoint([0.3 * Id, 0.4 * Id])
    with pytest.raises(DomainError):
        MatrixSimplexPoint([0.7 * Id, 0.6 * Id])  # last block not psd
    with pytest.raises(DomainError):
        MatrixSimplexPoint([np.array([[0.2, 0.1j], [0.1j, 0.2]])])


def test_real_roundtrip(rng):
    p = sample_interior(2, 3, rng)
    x = point_to_real(p)
    q = real_to_point(x, 2, 3)
    for Zp, Zq in zip(p.Z, q.Z):
        np.testing.assert_allclose(Zp, Zq, atol=1e-14)
    assert in_matrix_simplex(x, 2, 3)


def test_sample_interior_valid(rng):
    for _ in range(5):
        p = sample_interior(2, 2, rng, margin=1e-3)
        for Z in p.all_blocks():
            assert np.min(np.linalg.eigvalsh(Z)) > 1e-3


@pytest.mark.parametrize("n, margin", [
    (1, 0.6), (1, 0.5), (2, 1.0 / 3.0), (3, 0.25), (1, np.nan)])
def test_sample_interior_rejects_impossible_margin(n, margin, rng):
    # the n + 1 blocks sum to Id, so some block has an eigenvalue at most
    # 1 / (n + 1): no draw is ever inside, and the redraw loop never ends
    with pytest.raises(ValueError, match="blocks"):
        sample_interior(n, 2, rng, margin=margin)


def _min_block_eigenvalue(x, n, d):
    blocks = real_to_point(x, n, d).all_blocks()
    return min(np.linalg.eigvalsh(B).min() for B in blocks)


@given(n=st.integers(1, 3), d=st.integers(1, 4), seed=st.integers(0, 2**31),
       margin=st.sampled_from([0.0, 1e-12, 1e-6, -1e-10]),
       offset=st.floats(-0.05, 0.05))
@settings(max_examples=150, deadline=None)
def test_domain_test_matches_eigenvalues(n, d, seed, margin, offset):
    # B -> c B + (1 - c) Id / (n + 1) maps every block of a simplex point
    # (the last one included) affinely; c puts the smallest block
    # eigenvalue at margin + offset, inside or outside
    gen = np.random.Generator(np.random.Philox(seed))
    x = point_to_real(sample_interior(n, d, gen))
    centre = point_to_real(MatrixSimplexPoint(
        [np.eye(d) / (n + 1)] * n))
    low = _min_block_eigenvalue(x, n, d)
    assume(1.0 / (n + 1) - low > 1e-3)
    c = (1.0 / (n + 1) - (margin + offset)) / (1.0 / (n + 1) - low)
    y = centre + c * (x - centre)
    lam = _min_block_eigenvalue(y, n, d)
    assume(abs(lam - margin) > 1e-9)
    assert in_matrix_simplex(y, n, d, margin=margin) == (lam > margin)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_domain_test_rejects_non_finite(bad):
    # Cholesky does not raise on NaN, so the test must look at x itself
    assert not in_matrix_simplex(np.full(4, bad), 1, 2)
    x = point_to_real(MatrixSimplexPoint([np.eye(2) / 3] * 2))
    for k in range(x.size):
        y = x.copy()
        y[k] = bad
        assert not in_matrix_simplex(y, 2, 2)


@pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf])
def test_domain_test_rejects_non_finite_margin(margin):
    # a NaN margin makes every Cholesky pivot NaN, which passes its test,
    # so the point below, far outside, would read as inside
    with pytest.raises(ValueError, match="margin"):
        in_matrix_simplex(np.array([5.0, 5.0, 0.1, 0.0]), 1, 2, margin=margin)


def _in_matrix_simplex_ref(x, n, d, margin=1e-12):
    """The earlier domain test: a point object, its stacked n + 1 blocks
    and numpy's batched Cholesky, which raises on a block that fails."""
    if not np.isfinite(x).all():
        return False
    S = MatrixSimplexPoint(simplex_layout(n, d).from_real(x),
                           check=False).all_blocks()
    S -= margin * np.eye(d)
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


@given(n=st.integers(1, 3), d=st.integers(1, 3), seed=st.integers(0, 2**31),
       margin=st.sampled_from([0.0, 1e-12, 1e-6, -1e-10]),
       kind=st.sampled_from(["interior", "exterior", "above", "below",
                             "nan", "inf", "-inf"]))
@settings(max_examples=300, deadline=None)
def test_domain_test_matches_stacked_cholesky(n, d, seed, margin, kind):
    gen = np.random.Generator(np.random.Philox(seed))
    x = point_to_real(sample_interior(n, d, gen))
    if kind == "exterior":
        x = x + gen.normal(0.0, 0.3, x.size)
    elif kind in ("above", "below"):
        # the smallest block eigenvalue at margin +- 1e-9, as in
        # test_domain_test_matches_eigenvalues
        centre = point_to_real(MatrixSimplexPoint(
            [np.eye(d) / (n + 1)] * n))
        low = _min_block_eigenvalue(x, n, d)
        assume(1.0 / (n + 1) - low > 1e-3)
        target = margin + (1e-9 if kind == "above" else -1e-9)
        c = (1.0 / (n + 1) - target) / (1.0 / (n + 1) - low)
        x = centre + c * (x - centre)
    elif kind != "interior":
        x[gen.integers(x.size)] = float(kind)
    got = in_matrix_simplex(x, n, d, margin=margin)
    assert got is _in_matrix_simplex_ref(x, n, d, margin=margin)
    if kind in ("above", "below"):
        assert got == (kind == "above")
    if kind in ("nan", "inf", "-inf"):
        assert not got


@pytest.mark.parametrize("kind, n, d, dt", [
    ("I", 1, 2, 8e-3), ("II", 1, 2, 8e-3), ("I", 3, 3, 1e-3)])
def test_paths_match_stacked_cholesky_domain(kind, n, d, dt, rng):
    # dt is large enough that every path leaves the domain and halves
    if kind == "I":
        model = model1(Model1Params(np.ones((n + 1, n + 1)) - np.eye(n + 1),
                                    np.full(n + 1, 2.0)), d)
    else:
        A2, B2 = model2_fixture(rng, d)
        model = model2(Model2Params(A2, B2, np.full(n + 1, 2.0)), n)
    reference = DiffusionModel(
        model.dim, model.gamma, model.drift,
        lambda x: _in_matrix_simplex_ref(x, n, d))
    x0 = point_to_real(MatrixSimplexPoint(
        [np.eye(d, dtype=complex) / (n + 1)] * n))
    for seed in (3, 5):
        cfg = SimConfig(dt=dt, n_steps=1000, seed=seed)
        got = simulate(model, x0, cfg, record=True)
        want = simulate(reference, x0, cfg, record=True)
        assert got.n_rejections == want.n_rejections > 0
        assert got.states.tobytes() == want.states.tobytes()


# -- density ------------------------------------------------------------------

def test_log_density_beta_reduction():
    # d=1, a=(2,2): Beta(2,2) density 6 z (1-z), at z=0.5 equals 1.5
    p = MatrixSimplexPoint([np.array([[0.5]])])
    val = matrix_dirichlet_log_density([2.0, 2.0], p)
    assert np.isclose(val, np.log(1.5))
    # a = (1,1) is the uniform law on (0,1)
    assert np.isclose(matrix_dirichlet_log_density([1.0, 1.0], p), 0.0)


def test_log_gamma_d_values():
    from scipy.special import gammaln
    assert np.isclose(log_gamma_d(2.5, 1), gammaln(2.5))
    # d=2: Gamma_2(a) = pi Gamma(a+1) Gamma(a)
    expect = np.log(np.pi) + gammaln(4.0) + gammaln(3.0)
    assert np.isclose(log_gamma_d(3.0, 2), expect)
    # oracle: a=(1,1) density is constant 1/vol, and vol(Delta_{1,2}) = pi/2
    log_norm = log_gamma_d(2.0, 2) - 2.0 * log_gamma_d(1.0, 2)
    assert np.isclose(log_norm, np.log(2.0 / np.pi))


def test_grad_log_density_matches_numeric(rng):
    n, d = 2, 2
    a = np.array([1.7, 2.3, 1.4])
    p = sample_interior(n, d, rng, margin=5e-3)
    x = point_to_real(p)
    grad = matrix_dirichlet_grad_log(a, p)

    def log_f(y):
        if not in_matrix_simplex(y, n, d, margin=0.0):
            return None
        return matrix_dirichlet_log_density(a, real_to_point(y, n, d))

    num = grad_log_numeric(log_f, x)
    np.testing.assert_allclose(grad, num, atol=1e-5, rtol=1e-5)


@pytest.mark.parametrize("n, d", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)])
def test_grad_log_matches_entry_loop(n, d, rng):
    # reference: one entry at a time, (a_p - 1) Z_p^-T - (a_last - 1) Z_last^-T;
    # a = 1 + e_q gives the face gradient of log det Z^(q)
    layout = simplex_layout(n, d)
    p = sample_interior(n, d, rng, margin=1e-3)
    invs = [np.linalg.inv(Z) for Z in p.all_blocks()]
    exponents = [rng.uniform(0.5, 3.0, n + 1)] + list(1.0 + np.eye(n + 1))
    for a in exponents:
        g = np.zeros((n, d, d), dtype=complex)
        for k in range(n):
            for i in range(d):
                for j in range(d):
                    g[k, i, j] = (
                        (a[k] - 1.0) * invs[k][j, i]
                        - (a[n] - 1.0) * invs[n][j, i])
        np.testing.assert_array_equal(matrix_dirichlet_grad_log(a, p),
                                      layout.grad_to_real(g.ravel()))


# -- model I ------------------------------------------------------------------

def test_model1_d1_reduction(rng):
    # at d=1 the matrix model is exactly twice the scalar simplex model
    n = 2
    A = random_A(rng, n + 1)
    a = np.array([1.5, 2.0, 1.2])
    mp = Model1Params(A, a)
    sp = ScalarModelParams(A, a)
    z = np.array([0.3, 0.45])
    point = MatrixSimplexPoint([np.array([[z[0]]]), np.array([[z[1]]])])
    np.testing.assert_allclose(gamma_model1(mp, point),
                               2.0 * gamma_simplex(sp, z), atol=1e-14)
    np.testing.assert_allclose(drift_model1(mp, point),
                               2.0 * drift_simplex(sp, z), atol=1e-14)


def test_model1_entry_table_symmetries(rng):
    n, d = 2, 2
    mp = Model1Params(random_A(rng, n + 1), np.ones(n + 1))
    point = sample_interior(n, d, rng)
    T = gamma_model1_entries(mp, point)
    # symmetry of the bilinear form
    np.testing.assert_allclose(T, T.T, atol=1e-12)
    # conjugating both entries conjugates the value (Hermitian coordinates)
    T6 = T.reshape(n, d, d, n, d, d)
    for p in range(n):
        for q in range(n):
            for (i, j, k, l) in [(0, 1, 1, 0), (0, 1, 0, 1), (1, 1, 0, 1)]:
                lhs = T6[p, i, j, q, k, l]
                rhs = T6[p, j, i, q, l, k]
                assert abs(lhs - np.conj(rhs)) < 1e-12
    # realified co-metric is symmetric psd in the interior
    G = gamma_model1(mp, point)
    np.testing.assert_allclose(G, G.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(G)) > 0


# Block-by-block loops over the closed forms, kept as the reference for the
# vectorised tables.

def _loop_gamma_model1(params, point):
    n, d, A = point.n, point.d, params.A
    blocks = point.all_blocks()
    dd = d * d
    T = np.zeros((n * dd, n * dd), dtype=complex)
    for p in range(n):
        for q in range(n):
            Zp, Zq = blocks[p], blocks[q]
            blk = -A[p, q] * (np.einsum("il,kj->ijkl", Zq, Zp)
                              + np.einsum("il,kj->ijkl", Zp, Zq))
            if p == q:
                for s in range(n + 1):
                    blk = blk + A[s, p] * (
                        np.einsum("il,kj->ijkl", blocks[s], Zp)
                        + np.einsum("kj,il->ijkl", blocks[s], Zp))
            T[p * dd:(p + 1) * dd, q * dd:(q + 1) * dd] = blk.reshape(dd, dd)
    return T


def _loop_drift_model1(params, point):
    n, d, A, a = point.n, point.d, params.A, params.a
    blocks = point.all_blocks()
    out = []
    for p in range(n):
        acc = np.zeros((d, d), dtype=complex)
        for q in range(n + 1):
            acc += 2.0 * (a[p] + d - 1.0) * A[p, q] * blocks[q]
            acc -= 2.0 * (a[q] + d - 1.0) * A[p, q] * blocks[p]
        out.append(acc.ravel())
    return np.concatenate(out)


def _loop_gamma_model2(params, point):
    n, d, A, B = point.n, point.d, params.A, params.B
    Z = point.Z
    dd = d * d
    T = np.zeros((n * dd, n * dd), dtype=complex)
    for p in range(n):
        for q in range(n):
            Zp, Zq = Z[p], Z[q]
            blk = (-np.einsum("kj,il->ijkl", A, Zp @ Zq)
                   - np.einsum("il,kj->ijkl", A, Zq @ Zp))
            if p == q:
                blk = blk + (np.einsum("il,kj->ijkl", A, Zp)
                             + np.einsum("kj,il->ijkl", A, Zp))
            blk = blk + np.einsum("ialb,aj,kb->ijkl", B, Zp, Zq)
            blk = blk + np.einsum("ajbk,ia,bl->ijkl", B, Zp, Zq)
            blk = blk - np.einsum("ajlb,ia,kb->ijkl", B, Zp, Zq)
            blk = blk - np.einsum("iabk,aj,bl->ijkl", B, Zp, Zq)
            T[p * dd:(p + 1) * dd, q * dd:(q + 1) * dd] = blk.reshape(dd, dd)
    return T


def _loop_drift_model2(params, point):
    n, d, A, B, a = point.n, point.d, params.A, params.B, params.a
    coeff = float(np.sum(a[:n] - 1.0 + d) + (a[n] - 1.0))
    out = []
    for p, Zp in enumerate(point.Z):
        acc = 2.0 * (a[p] - 1.0 + d) * A
        acc = acc - coeff * (A @ Zp + Zp @ A)
        acc = acc - 2.0 * A * np.trace(Zp)
        acc = acc + np.einsum("iajb,ab->ij", B, Zp)
        acc = acc + np.einsum("bjai,ab->ij", B, Zp)
        acc = acc - np.einsum("iaba,bj->ij", B, Zp)
        acc = acc - np.einsum("bjba,ia->ij", B, Zp)
        out.append(acc.ravel())
    return np.concatenate(out)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_forms_match_block_loops(n, d, rng):
    C = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal(
        (d * d, d * d))
    A2 = model2_fixture(rng, d)[0]
    B2 = (C @ C.conj().T / (d * d)).reshape(d, d, d, d)
    for _ in range(3):
        a = rng.uniform(0.5, 3.0, n + 1)
        A1 = random_A(rng, n + 1) + np.diag(rng.uniform(0.0, 1.0, n + 1))
        mp1 = Model1Params(A1, a)
        mp2 = Model2Params(A2, B2, a)
        point = sample_interior(n, d, rng)
        for fast, loop, mp in [
                (gamma_model1_entries, _loop_gamma_model1, mp1),
                (drift_model1_entries, _loop_drift_model1, mp1),
                (gamma_model2_entries, _loop_gamma_model2, mp2),
                (drift_model2_entries, _loop_drift_model2, mp2)]:
            ref = loop(mp, point)
            np.testing.assert_allclose(fast(mp, point), ref,
                                       rtol=0, atol=1e-13 * np.abs(ref).max())


def test_model1_reversibility(rng):
    n, d = 2, 2
    a = np.array([1.6, 2.1, 1.3])
    mp = Model1Params(random_A(rng, n + 1), a)
    model = model1(mp, d)
    for _ in range(5):
        p = sample_interior(n, d, rng, margin=1e-2)
        res = reversibility_residual(
            model, lambda x: matrix_dirichlet_grad_log(
                a, real_to_point(x, n, d)),
            point_to_real(p))
        assert np.max(np.abs(res)) < 1e-8


def test_model1_boundary_closed_form(rng):
    # Gamma(Z^(p)_ij, log det Z^(q)) = delta_pq sum_s 2 A_sp Z^(s)_ij
    #                                  - 2 A_pq Z^(p)_ij
    # and for the last block: -2 A_{n+1,p} Z^(p)_ij
    n, d = 2, 2
    A = random_A(rng, n + 1)
    mp = Model1Params(A, np.ones(n + 1))
    layout = simplex_layout(n, d)
    point = sample_interior(n, d, rng)
    blocks = point.all_blocks()
    G = gamma_model1(mp, point)
    for q in range(n + 1):
        inv = np.linalg.inv(blocks[q])
        g = np.zeros((n, d, d), dtype=complex)
        for p in range(n):
            if p == q:
                for i in range(d):
                    for j in range(d):
                        g[p, i, j] = inv[j, i]
            elif q == n:
                for i in range(d):
                    for j in range(d):
                        g[p, i, j] = -inv[j, i]
        vec = layout.drift_to_entries(G @ layout.grad_to_real(g.ravel()))
        for p in range(n):
            got = vec[p * d * d:(p + 1) * d * d].reshape(d, d)
            if q < n:
                expect = -2.0 * A[p, q] * blocks[p]
                if p == q:
                    expect = expect + sum(
                        2.0 * A[s, p] * blocks[s] for s in range(n + 1))
            else:
                expect = -2.0 * A[n, p] * blocks[p]
            np.testing.assert_allclose(got, expect, atol=1e-10)


def test_ellipticity_model1(rng):
    n, d = 2, 2
    ones = np.ones((n + 1, n + 1)) - np.eye(n + 1)
    mp = Model1Params(ones, np.ones(n + 1))
    sampler = lambda: sample_interior(n, d, rng, margin=1e-3)
    ok, witness = ellipticity_model1(mp, d, sampler, n_samples=5)
    assert ok and witness is None
    # disconnected support: blocks {1,2} never coupled to the last block
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    mp2 = Model1Params(A, np.ones(n + 1))
    ok, witness = ellipticity_model1(mp2, d, sampler, n_samples=5)
    assert not ok and witness is not None
    point = sampler()
    val = witness @ gamma_model1(mp2, point) @ witness
    assert abs(val) < 1e-12
    # a negative weight is rejected structurally
    A3 = np.array([[0.0, 1.0, -0.5], [1.0, 0.0, 1.0], [-0.5, 1.0, 0.0]])
    ok, witness = ellipticity_model1(Model1Params(A3, np.ones(n + 1)),
                                     d, sampler, n_samples=5)
    assert not ok and witness is None


def test_ellipticity_witness_on_every_graph(rng):
    # every 0/1 weight graph on 4 blocks: a witness comes back exactly when
    # some block is not joined to the last one, and it annihilates Gamma
    n, d = 3, 2
    iu, ju = np.triu_indices(n + 1, 1)
    point = sample_interior(n, d, rng, margin=1e-3)
    for bits in itertools.product([0.0, 1.0], repeat=iu.size):
        A = np.zeros((n + 1, n + 1))
        A[iu, ju] = A[ju, iu] = bits
        mp = Model1Params(A, np.ones(n + 1))
        _, labels = connected_components(A, directed=False)
        joined = bool(np.all(labels == labels[n]))
        ok, witness = ellipticity_model1(mp, d, lambda: point, n_samples=1)
        assert (witness is None) == joined
        assert ok == joined
        if witness is not None:
            assert abs(witness @ gamma_model1(mp, point) @ witness) <= 1e-12


# -- model II -----------------------------------------------------------------

def test_model2_d1_reduction():
    # at d=1 the entry coupling cancels and the model is the two-weight
    # scalar model: Gamma = 2 alpha z (1-z), L = 2 alpha (a1 - (a1+a2) z)
    alpha = 1.3
    beta = 0.7
    a = np.array([2.0, 3.0])
    mp = Model2Params(np.array([[alpha]]),
                      beta * np.ones((1, 1, 1, 1)), a)
    for z in [0.2, 0.5, 0.8]:
        point = MatrixSimplexPoint([np.array([[z]])])
        np.testing.assert_allclose(gamma_model2(mp, point),
                                   [[2 * alpha * z * (1 - z)]], atol=1e-14)
        np.testing.assert_allclose(
            drift_model2(mp, point),
            [2 * alpha * (a[0] - (a[0] + a[1]) * z)], atol=1e-13)


def test_model2_entry_table_symmetries(rng):
    n, d = 2, 2
    for style in ("identity", "diag"):
        A, B = model2_fixture(rng, d, b_style=style)
        mp = Model2Params(A, B, np.ones(n + 1))
        point = sample_interior(n, d, rng)
        T = gamma_model2_entries(mp, point)
        np.testing.assert_allclose(T, T.T, atol=1e-12)
        G = gamma_model2(mp, point)
        np.testing.assert_allclose(G, G.T, atol=1e-12)
        T6 = T.reshape(n, d, d, n, d, d)
        for p in range(n):
            for q in range(n):
                for (i, j, k, l) in [(0, 1, 1, 0), (0, 1, 0, 1)]:
                    lhs = T6[p, i, j, q, k, l]
                    rhs = T6[p, j, i, q, l, k]
                    assert abs(lhs - np.conj(rhs)) < 1e-12


def test_model2_reversibility(rng):
    n, d = 2, 2
    a = np.array([1.8, 1.4, 2.2])
    for style in ("identity", "diag"):
        A, B = model2_fixture(rng, d, b_style=style)
        mp = Model2Params(A, B, a)
        model = model2(mp, n)
        for _ in range(3):
            p = sample_interior(n, d, rng, margin=1e-2)
            res = reversibility_residual(
                model, lambda x: matrix_dirichlet_grad_log(
                    a, real_to_point(x, n, d)),
                point_to_real(p))
            assert np.max(np.abs(res)) < 1e-8


def test_model2_boundary_closed_form(rng):
    # Gamma(Z^(p)_ij, log det Z^(q)) = 2 delta_pq A_ij - (A Z^(p) + Z^(p) A)_ij
    # for every block q (the entry coupling B cancels identically)
    n, d = 2, 2
    A, B = model2_fixture(rng, d, b_style="diag")
    mp = Model2Params(A, B, np.ones(n + 1))
    layout = simplex_layout(n, d)
    point = sample_interior(n, d, rng)
    blocks = point.all_blocks()
    G = gamma_model2(mp, point)
    for q in range(n + 1):
        inv = np.linalg.inv(blocks[q])
        g = np.zeros((n, d, d), dtype=complex)
        for p in range(n):
            sgn = 1.0 if p == q else (-1.0 if q == n else 0.0)
            if sgn != 0.0:
                for i in range(d):
                    for j in range(d):
                        g[p, i, j] = sgn * inv[j, i]
        vec = layout.drift_to_entries(G @ layout.grad_to_real(g.ravel()))
        for p in range(n):
            got = vec[p * d * d:(p + 1) * d * d].reshape(d, d)
            expect = -(A @ blocks[p] + blocks[p] @ A)
            if p == q:
                expect = expect + 2.0 * A
            np.testing.assert_allclose(got, expect, atol=1e-10)


# -- spectrum identity --------------------------------------------------------

def test_sylvester_spectrum(rng):
    for (n, d) in [(2, 2), (3, 2), (2, 3)]:
        point = sample_interior(n, d, rng, margin=1e-3)
        got = sylvester_spectrum(point)
        last = np.linalg.eigvalsh(point.last())
        expect = np.sort(np.concatenate([np.ones((n - 1) * d), last]))
        np.testing.assert_allclose(got, expect, atol=1e-8)


# -- parameter files ----------------------------------------------------------

def test_params_json_roundtrip(rng):
    mp = Model1Params(random_A(rng, 3), np.array([1.0, 2.0, 1.5]))
    obj = params_to_json(mp, d=2)
    back, n, d = params_from_json(obj)
    assert n == 2 and d == 2
    np.testing.assert_allclose(back.A, mp.A)
    np.testing.assert_allclose(back.a, mp.a)

    A, B = model2_fixture(rng, 2, b_style="diag")
    mp2 = Model2Params(A, B, np.array([1.0, 2.0, 1.5]))
    obj2 = params_to_json(mp2, n=2)
    back2, n2, d2 = params_from_json(obj2)
    assert n2 == 2 and d2 == 2
    np.testing.assert_allclose(back2.A, mp2.A, atol=1e-15)
    np.testing.assert_allclose(back2.B, mp2.B, atol=1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        Model1Params(np.eye(3) + 0.1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Model2Params(np.array([[1.0, 1.0j], [1.0j, 1.0]]),
                     np.zeros((2, 2, 2, 2)), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        params_from_json({"schema": 2})
    # NaN slips past comparisons (a <= 0, the symmetry and Hermitian
    # checks), and an infinite exponent or weight passes them
    A1 = np.ones((2, 2)) - np.eye(2)
    A1_inf = np.array([[0.0, np.inf], [np.inf, 0.0]])
    for A, a in [(A1, [np.nan, 1.0]), (A1, [np.inf, 1.0]),
                 (A1_inf, [1.0, 1.0]), (-A1_inf, [1.0, 1.0])]:
        with pytest.raises(ValueError, match="finite"):
            Model1Params(A, np.array(a))
    A2, B2 = np.eye(2), 0.4 * np.eye(4).reshape(2, 2, 2, 2)
    B2_inf = B2.copy()
    B2_inf[0, 1, 0, 1] = np.inf
    for A, B, a in [(A2, B2, [np.nan, 1.0]), (A2, B2, [np.inf, 1.0]),
                    (A2 * np.nan, B2, [1.0, 1.0]), (A2, B2_inf, [1.0, 1.0])]:
        with pytest.raises(ValueError, match="finite"):
            Model2Params(A, B, np.array(a))


def _model1_file(**changes):
    obj = {"schema": 1, "model": "I", "n": 2, "d": 2,
           "A": (np.ones((3, 3)) - np.eye(3)).tolist(), "a": [2.0, 2.0, 2.0]}
    obj.update(changes)
    return obj


@pytest.mark.parametrize("obj", [
    [1, 2],
    "model",
    None,
    _model1_file(d=None),
    _model1_file(d=0),
    _model1_file(d=-1),
    _model1_file(d=2.5),
    _model1_file(d=True),
    _model1_file(n=None),
    _model1_file(n=0),
    _model1_file(n=3),
    _model1_file(n="2"),
    _model1_file(a=None),
    _model1_file(A={}),
    _model1_file(A=None),
    _model1_file(model="III"),
    {k: v for k, v in _model1_file().items() if k != "A"},
    {k: v for k, v in _model1_file().items() if k != "d"},
], ids=["list", "string", "null", "d-null", "d-0", "d-negative", "d-float",
        "d-bool", "n-null", "n-0", "n-mismatch", "n-string", "a-null",
        "A-object", "A-null", "model-unknown", "A-missing", "d-missing"])
def test_params_from_json_rejects_malformed_files(obj):
    with pytest.raises(ValueError):
        params_from_json(obj)


def test_params_from_json_rejects_malformed_model2_files(rng):
    A, B = model2_fixture(rng, 2)
    good = params_to_json(Model2Params(A, B, np.full(3, 2.0)), n=2)
    assert params_from_json(good)[1:] == (2, 2)
    for key, value in [("d", 3), ("n", 1), ("A", 1.0), ("A", [[[1.0]]]),
                       ("B", [[1.0]]), ("A", [[[1.0]] * 2] * 2)]:
        with pytest.raises(ValueError):
            params_from_json(dict(good, **{key: value}))


def test_params_to_json_needs_the_block_size():
    with pytest.raises(ValueError, match="d"):
        params_to_json(Model1Params(np.ones((2, 2)) - np.eye(2),
                                    np.full(2, 2.0)))


def _model2_three_exponents(rng):
    A, B = model2_fixture(rng, 2)
    return Model2Params(A, B, np.array([2.0, 2.5, 3.0]))


def test_model2_takes_n_from_its_exponents(rng):
    params = _model2_three_exponents(rng)
    assert params.n == 2
    assert params_from_json(params_to_json(params))[1:] == (2, 2)
    assert params_to_json(params, n=2) == params_to_json(params)
    model = model2(params)
    assert model.dim == simplex_layout(2, 2).real_dim
    x = point_to_real(sample_interior(2, 2, rng))
    given_n = model2(params, 2)
    assert model.gamma(x).tobytes() == given_n.gamma(x).tobytes()
    assert model.drift(x).tobytes() == given_n.drift(x).tobytes()


@pytest.mark.parametrize("form", [
    lambda p, point: model2(p, 1),
    lambda p, point: model2(p, 3),
    lambda p, point: params_to_json(p, n=1),
    lambda p, point: drift_model2(p, point),
    lambda p, point: gamma_model2(p, point),
], ids=["model2-n1", "model2-n3", "json-n1", "drift-1-block",
        "gamma-1-block"])
def test_model2_rejects_another_n(form, rng):
    # three exponents mean two free blocks; a one-block point or a file
    # of another n would pair blocks with the wrong exponents
    params = _model2_three_exponents(rng)
    with pytest.raises(ValueError, match="3 exponents"):
        form(params, sample_interior(1, 2, rng))


@pytest.mark.parametrize("form", [
    lambda p: model2(p),
    lambda p: model2(p, 0),
    lambda p: params_to_json(p),
], ids=["model2", "model2-n0", "json"])
def test_model2_needs_a_free_block(form, rng):
    # one exponent is no free block: the params themselves are allowed,
    # as theorem_params of a one-block frame makes them
    params = Model2Params(*model2_fixture(rng, 2), [2.0])
    assert params.n == 0
    with pytest.raises(ValueError, match="no free block"):
        form(params)


@pytest.mark.parametrize("d", [1, 3])
def test_closed_form_model2_rejects_another_d(d):
    # a 2 x 2 A fixes the block size: d = 3 built a model of dimension 18
    # whose first gamma call failed inside numpy with a reshape error
    import matrix_dirichlet.matrix_simplex as ms
    params = Model2Params(np.eye(2), 0.4 * np.eye(4).reshape(2, 2, 2, 2),
                          [2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="block size 2, not %d" % d):
        ms._closed_form_model(params, d)
    assert ms._closed_form_model(params, 2).dim == 8


@pytest.mark.parametrize("n, d", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_model_closures_bitwise_equal_to_public_forms(n, d, rng):
    # the coefficient form is taken from the closed-form entry tables of
    # stacks of points, with the parameter tables built once; the public
    # forms build them per call and take one point: the same bits
    import matrix_dirichlet.matrix_simplex as ms
    params = Model1Params(random_A(rng, n + 1), rng.uniform(0.5, 3.0, n + 1))
    A2 = model2_fixture(rng, d)[0]
    B2 = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal(
        (d * d, d * d))
    B2 = (B2 @ B2.conj().T).reshape(d, d, d, d) / d ** 2
    params2 = Model2Params(A2, B2, rng.uniform(0.5, 3.0, n + 1))
    points = [sample_interior(n, d, rng) for _ in range(3)]
    Z = np.array([point.Z for point in points])
    for (gamma_table, drift_table), gamma, drift, p in (
            (ms._model1_tables(params, d), gamma_model1_entries,
             drift_model1_entries, params),
            (ms._model2_tables(params2), gamma_model2_entries,
             drift_model2_entries, params2)):
        T, b = gamma_table(Z), drift_table(Z)
        for s, point in enumerate(points):
            assert T[s].tobytes() == gamma(p, point).tobytes()
            assert b[s].tobytes() == drift(p, point).tobytes()
    # the closed-form model that verify's reversibility checks run on
    for p, gamma, drift in ((params, gamma_model1, drift_model1),
                            (params2, gamma_model2, drift_model2)):
        model = ms._closed_form_model(p, d)
        for point in points:
            x = point_to_real(point)
            assert model.gamma(x).tobytes() == gamma(p, point).tobytes()
            assert model.drift(x).tobytes() == drift(p, point).tobytes()


def test_model1_weights_built_once_per_closure(rng, monkeypatch):
    # one parameter-table build per model build and none per call, for
    # the integrated model and for verify's closed-form model alike
    import matrix_dirichlet.matrix_simplex as ms
    calls = []
    build = ms._model1_tables
    monkeypatch.setattr(ms, "_model1_tables",
                        lambda *args: calls.append(args) or build(*args))
    params = Model1Params(random_A(rng, 3), np.full(3, 2.0))
    x = point_to_real(sample_interior(2, 2, rng))
    for make in (model1, ms._closed_form_model):
        calls.clear()
        model = make(params, 2)
        assert len(calls) == 1
        for _ in range(3):
            model.gamma(x)
            model.drift(x)
        assert len(calls) == 1


# -- quadratic coefficient form -----------------------------------------------

def _coefficient_case(kind, n, d, seed, b_style):
    """(params, closed-form Gamma, closed-form drift, model) of model I
    at a random non-unit symmetric A (diagonal included) or of model II."""
    import matrix_dirichlet.matrix_simplex as ms
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 3.0, n + 1)
    if kind == "I":
        A = rng.uniform(0.2, 2.0, (n + 1, n + 1))
        params = Model1Params(0.5 * (A + A.T), a)
        return (params, lambda x: gamma_model1(params, real_to_point(x, n, d)),
                lambda x: drift_model1(params, real_to_point(x, n, d)),
                ms.model1(params, d))
    A, B = model2_fixture(rng, d, b_style)
    params = Model2Params(A, B, a)
    return (params, lambda x: gamma_model2(params, real_to_point(x, n, d)),
            lambda x: drift_model2(params, real_to_point(x, n, d)),
            ms.model2(params, n))


_CASES = st.one_of(
    st.tuples(st.just("I"), st.integers(1, 3), st.integers(1, 3),
              st.just(None)),
    st.tuples(st.just("II"), st.integers(1, 2), st.integers(2, 3),
              st.sampled_from(["identity", "diag"])))


@given(case=_CASES, seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_coefficient_form_matches_closed_forms(case, seed):
    kind, n, d, b_style = case
    _, gamma, drift, model = _coefficient_case(kind, n, d, seed, b_style)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        x = point_to_real(sample_interior(n, d, rng))
        for got, want in ((model.gamma(x), gamma(x)),
                          (model.drift(x), drift(x))):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert model.gamma(x).tobytes() == model.gamma(x).T.tobytes()


@given(case=_CASES, seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_stencil_closures_finite_at_stencil_points(case, seed):
    # the stencil 0, +-e_i, e_i + e_j lies outside the simplex
    import matrix_dirichlet.matrix_simplex as ms
    kind, n, d, b_style = case
    params = _coefficient_case(kind, n, d, seed, b_style)[0]
    gamma_table, drift_table = (ms._model1_tables(params, d) if kind == "I"
                                else ms._model2_tables(params))
    layout = simplex_layout(n, d)
    eye = np.eye(layout.real_dim)
    X = [np.zeros(layout.real_dim)] + [s * e for e in eye for s in (1.0, -1.0)]
    X += [eye[i] + eye[j]
          for i, j in itertools.combinations(range(layout.real_dim), 2)]
    Z = layout.from_real(np.array(X))
    with np.errstate(all="raise"):
        T, b = gamma_table(Z), drift_table(Z)
    assert np.isfinite(T).all() and np.isfinite(b).all()


@pytest.mark.parametrize("kind, n, d, A, b_style", [
    ("I", 1, 2, np.ones((2, 2)) - np.eye(2), None),
    ("I", 1, 2, np.array([[0.3, 1.7], [1.7, 0.9]]), None),
    ("I", 3, 3, np.ones((4, 4)) - np.eye(4), None),
    ("II", 1, 2, None, "identity"),
    ("II", 2, 2, None, "diag"),
])
def test_paths_match_closed_form_reference(kind, n, d, A, b_style, rng):
    # reference: a model of the public closed forms, evaluated per call
    if kind == "I":
        params = Model1Params(A, np.linspace(1.5, 2.5, n + 1))
        model = model1(params, d)
        gamma = lambda x: gamma_model1(params, real_to_point(x, n, d))
        drift = lambda x: drift_model1(params, real_to_point(x, n, d))
    else:
        A2, B2 = model2_fixture(rng, d, b_style)
        params = Model2Params(A2, B2, np.linspace(1.5, 2.5, n + 1))
        model = model2(params, n)
        gamma = lambda x: gamma_model2(params, real_to_point(x, n, d))
        drift = lambda x: drift_model2(params, real_to_point(x, n, d))
    reference = DiffusionModel(model.dim, gamma, drift, model.domain_test)
    x0 = point_to_real(MatrixSimplexPoint(
        [np.eye(d, dtype=complex) / (n + 1)] * n))
    rejections = 0
    for seed in (3, 5):
        cfg = SimConfig(dt=1e-3, n_steps=1000, seed=seed)
        got = simulate(model, x0, cfg, record=True)
        want = simulate(reference, x0, cfg, record=True)
        assert got.n_rejections == want.n_rejections
        assert np.max(np.abs(got.states - want.states)) <= 1e-12
        rejections += got.n_rejections
    assert rejections > 0  # the step-halving branch is compared too

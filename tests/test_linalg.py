import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrix_dirichlet.errors import NotPsdError, SpectralGapError
from matrix_dirichlet.linalg import haar_unitary, hermitian_eigen, sqrtm_psd

from conftest import random_hermitian, random_hermitian_psd


def test_diagonal_input():
    frame = hermitian_eigen(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(frame.lambdas, [1.0, 2.0])
    np.testing.assert_allclose(frame.U, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_degenerate_spectrum_raises():
    with pytest.raises(SpectralGapError):
        hermitian_eigen(np.eye(2), gap_tol=1e-8)


def test_2x2_closed_form():
    frame = hermitian_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(frame.lambdas, [1.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(frame.matrix(), [[2, 1], [1, 2]], atol=1e-12)


@given(d=st.integers(2, 6), seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_hermitian_eigen_conventions(d, seed):
    # the conventions the frames rely on: ascending eigenvalues, a real
    # non-negative diagonal of U, reconstruction, orthonormality, and the
    # gap error once the smallest gap is below gap_tol
    gen = np.random.Generator(np.random.Philox(seed))
    H = random_hermitian(gen, d)
    gap = float(np.min(np.diff(np.linalg.eigvalsh(H))))
    frame = hermitian_eigen(H, gap_tol=0.5 * gap)
    assert np.all(np.diff(frame.lambdas) > 0)
    U = frame.U
    assert np.all(np.diag(U).real >= 0)
    assert np.max(np.abs(np.diag(U).imag)) < 1e-12
    np.testing.assert_allclose(frame.matrix(), H, atol=1e-10)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(d), atol=1e-12)
    with pytest.raises(SpectralGapError):
        hermitian_eigen(H, gap_tol=2.0 * gap)


def test_frame_invariants(rng):
    for d in (2, 3, 5):
        H = random_hermitian(rng, d)
        frame = hermitian_eigen(H, gap_tol=1e-10)
        np.testing.assert_allclose(frame.matrix(), H, atol=1e-10)
        U = frame.U
        np.testing.assert_allclose(U @ U.conj().T, np.eye(d), atol=1e-12)
        assert np.all(np.diag(U).real >= -1e-13)
        assert np.max(np.abs(np.diag(U).imag)) < 1e-12
        Vs = frame.projectors
        np.testing.assert_allclose(sum(Vs), np.eye(d), atol=1e-12)
        for p in range(d):
            for q in range(d):
                expect = Vs[p] if p == q else np.zeros((d, d))
                np.testing.assert_allclose(Vs[p] @ Vs[q], expect, atol=1e-12)


def test_determinism(rng):
    H = random_hermitian(rng, 4)
    f1 = hermitian_eigen(H)
    f2 = hermitian_eigen(H)
    assert np.array_equal(f1.lambdas, f2.lambdas)
    assert np.array_equal(f1.U, f2.U)


def test_sqrt_frame(rng):
    S = random_hermitian_psd(rng, 3)
    frame = hermitian_eigen(S, gap_tol=1e-12).sqrt_frame()
    np.testing.assert_allclose(frame.matrix(), S, atol=1e-9)
    assert frame.power == 2


def test_sqrtm_psd():
    np.testing.assert_allclose(sqrtm_psd(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(sqrtm_psd(np.diag([4.0, 9.0])),
                               np.diag([2.0, 3.0]), atol=1e-13)
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    N = sqrtm_psd(S)
    np.testing.assert_allclose(N @ N, S, atol=1e-10)
    with pytest.raises(NotPsdError):
        sqrtm_psd(np.diag([1.0, -1.0]))


def test_sqrtm_roundtrip(rng):
    for _ in range(5):
        N0 = random_hermitian_psd(rng, 3)
        np.testing.assert_allclose(sqrtm_psd(N0 @ N0), N0, atol=1e-8)


def test_haar_unitary(rng):
    for N in (2, 4):
        u = haar_unitary(N, rng, special=True)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(N), atol=1e-12)
        assert abs(np.linalg.det(u) - 1.0) < 1e-10

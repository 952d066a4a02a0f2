import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from matrix_dirichlet.errors import NotPsdError, SpectralGapError
from matrix_dirichlet.linalg import (
    _chunk_sizes, _draw_frame, _haar_draws, haar_unitary, hermitian_eigen,
    sqrtm_psd)

from conftest import random_hermitian, random_hermitian_psd


def test_diagonal_input():
    frame = hermitian_eigen(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(frame.lambdas, [1.0, 2.0])
    np.testing.assert_allclose(frame.U, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_degenerate_spectrum_raises():
    # the fixed gap bound is 1e-8: a gap of 5e-9 raises, one of 2e-8 passes
    with pytest.raises(SpectralGapError):
        hermitian_eigen(np.eye(2))
    with pytest.raises(SpectralGapError):
        hermitian_eigen(np.diag([1.0, 1.0 + 5e-9]))
    assert hermitian_eigen(np.diag([1.0, 1.0 + 2e-8])).min_gap() > 1e-8


def test_2x2_closed_form():
    frame = hermitian_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(frame.lambdas, [1.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(frame.matrix(), [[2, 1], [1, 2]], atol=1e-12)


@given(d=st.integers(2, 6), seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_hermitian_eigen_conventions(d, seed):
    # the conventions the frames rely on: ascending eigenvalues, a real
    # non-negative diagonal of U, reconstruction, orthonormality, and the
    # gap error once the smallest gap is below the fixed bound 1e-8
    gen = np.random.Generator(np.random.Philox(seed))
    H = random_hermitian(gen, d)
    frame = hermitian_eigen(H)
    assert np.all(np.diff(frame.lambdas) > 0)
    U = frame.U
    assert np.all(np.diag(U).real >= 0)
    assert np.max(np.abs(np.diag(U).imag)) < 1e-12
    np.testing.assert_allclose(frame.matrix(), H, atol=1e-10)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(d), atol=1e-12)
    # the same eigenvectors with the two lowest eigenvalues 5e-9 apart
    # raise; 2e-8 apart they pass
    for gap, raises in ((5e-9, True), (2e-8, False)):
        lam = frame.lambdas.copy()
        lam[1] = lam[0] + gap
        Hg = U @ np.diag(lam) @ U.conj().T
        if raises:
            with pytest.raises(SpectralGapError):
                hermitian_eigen(Hg)
        else:
            assert hermitian_eigen(Hg).min_gap() > 1e-8


def test_frame_invariants(rng):
    for d in (2, 3, 5):
        H = random_hermitian(rng, d)
        frame = hermitian_eigen(H)
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
    frame = hermitian_eigen(S).sqrt_frame()
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


def _sqrtm_psd_single(S):
    """The square root one matrix at a time, through a diagonal matrix."""
    w, U = np.linalg.eigh(S)
    if np.min(w) < -1e-10 * max(np.linalg.norm(S), 1.0):
        raise NotPsdError("not psd")
    root = U @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T
    return 0.5 * (root + root.conj().T)


@given(d=st.integers(1, 6), rank=st.integers(1, 8), K=st.integers(1, 5),
       seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_sqrtm_psd_stack_bitwise_equal_to_single_roots(d, rank, K, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    G = rng.standard_normal((K, d, rank)) + 1j * rng.standard_normal(
        (K, d, rank))
    S = G @ G.conj().swapaxes(1, 2)
    roots = sqrtm_psd(S)
    assert roots.shape == (K, d, d)
    for k in range(K):
        assert roots[k].tobytes() == _sqrtm_psd_single(S[k]).tobytes()
        assert sqrtm_psd(S[k]).tobytes() == roots[k].tobytes()


def test_sqrtm_psd_stack_rejects_any_indefinite_matrix():
    S = np.stack([np.eye(2), np.diag([1.0, -1e-3]), np.eye(2)])
    with pytest.raises(NotPsdError, match="-1.000e-03"):
        sqrtm_psd(S)
    # roundoff below zero is clipped, as for a single matrix
    tiny = np.stack([np.eye(2), np.diag([1.0, -1e-12])])
    np.testing.assert_array_equal(sqrtm_psd(tiny)[1], np.diag([1.0, 0.0]))


def _qr_haar(N, rng, special):
    """The Haar draw through scipy.linalg.qr."""
    z = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    z /= np.sqrt(2.0)
    q, r = scipy.linalg.qr(z)
    diag = np.diag(r)
    q = q * (diag / np.abs(diag))
    if special:
        q = q * np.exp(-1j * np.angle(np.linalg.det(q)) / N)
    return q


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 8, 40, 130])
def test_haar_unitary_bitwise_equal_to_scipy_qr(N, special):
    # N = 40 is above LAPACK's block size (32); N = 130 is above the
    # crossover (128) where zgeqrf and zungqr switch to their blocked
    # code, which they take only with a large enough workspace
    rngs = [np.random.Generator(np.random.Philox(N)) for _ in range(2)]
    for _ in range(20 if N < 40 else 3):
        u = haar_unitary(N, rngs[0], special=special)
        ref = _qr_haar(N, rngs[1], special)
        assert u.shape == ref.shape
        assert np.ascontiguousarray(u).tobytes() == \
            np.ascontiguousarray(ref).tobytes()
    assert rngs[0].standard_normal() == rngs[1].standard_normal()


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_haar_draws_bitwise_equal_to_single_draws(N, special):
    # one stacked call reads the stream as K single draws do and gives the
    # same matrices, bit for bit and in the same Fortran layout, as single
    # draws and as the scipy.linalg.qr reference
    K = 300
    rngs = [np.random.Generator(np.random.Philox(100 + N)) for _ in range(3)]
    U = _haar_draws(N, rngs[0], K, special)
    assert U.shape == (K, N, N)
    for k in range(K):
        single = haar_unitary(N, rngs[1], special)
        ref = _qr_haar(N, rngs[2], special)
        assert U[k].flags.f_contiguous and single.flags.f_contiguous
        assert single.base is None  # a kept draw does not hold its stack
        assert U[k].tobytes(order="F") == single.tobytes(order="F")
        assert U[k].tobytes(order="F") == ref.tobytes(order="F")
    assert len({r.standard_normal() for r in rngs}) == 1


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("N", [1, 4, 6])
def test_haar_draws_chunked_equal_to_one_call(N, special):
    # chunks of any sizes read the stream in draw order: concatenated, they
    # are one call's stack bit for bit
    K = 1100
    one = _haar_draws(N, np.random.Generator(np.random.Philox(N)), K,
                      special)
    for sizes in (_chunk_sizes(K), [1, 6, 500, 1, 592], [1] * K):
        assert sum(sizes) == K
        rng = np.random.Generator(np.random.Philox(N))
        chunks = np.concatenate([_haar_draws(N, rng, k, special)
                                 for k in sizes])
        assert chunks.tobytes() == one.tobytes()


def test_chunk_sizes():
    assert _chunk_sizes(2000) == [512, 512, 512, 464]
    assert _chunk_sizes(512) == [512]
    assert _chunk_sizes(5) == [5]
    assert _chunk_sizes(0) == []


def test_draw_frame_skips_bad_draws_and_gives_up():
    def frame(k):
        if k == 0:
            raise SpectralGapError("a package error")
        if k == 1:
            raise np.linalg.LinAlgError("a linear-algebra error")
        return -k

    draws = iter(range(10))
    # draws 0 and 1 build no frame, draw 2 builds one that is not usable
    assert _draw_frame(lambda: next(draws), frame, lambda fr: fr < -2) \
        == (3, -3)
    assert next(draws) == 4
    # nothing usable: 200 draws, then a RuntimeError
    draws = iter(range(2, 1000))
    with pytest.raises(RuntimeError, match="200"):
        _draw_frame(lambda: next(draws), frame, lambda fr: False)
    assert next(draws) == 202

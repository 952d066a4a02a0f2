"""Hermitian/unitary linear algebra with fixed ordering and phase conventions.

Eigen-decompositions here are deterministic: eigenvalues ascending, each
eigenvector rotated so that its diagonal entry is real and non-negative.
That determinism is what makes finite-difference differentiation of the
eigenvector matrix well defined (away from spectral collisions).
"""

import functools
import math

import numpy as np
from scipy.linalg.lapack import zgeqrf, zungqr

from .errors import MatrixDirichletError, NotPsdError, SpectralGapError

_DRAW_CHUNK = 512  # draws per stacked kernel call
_GAP_TOL = 1e-8  # smallest eigenvalue gap hermitian_eigen accepts


def _hermitize(A):
    """Hermitian part of a matrix or of each matrix in a stack."""
    return 0.5 * (A + A.conj().swapaxes(-1, -2))


def _fix_phases(U):
    """Rotate each column so its diagonal entry is real >= 0."""
    d = U.shape[0]
    for p in range(d):
        pivot = U[p, p]
        if abs(pivot) < 1e-14:
            k = int(np.argmax(np.abs(U[:, p])))
            pivot = U[k, p]
        U[:, p] *= np.conj(pivot) / abs(pivot)
    return U


def _align_phases(U, base_U):
    """Rotate each column of U so that (base_U* U)_rr is real positive."""
    ph = np.diag(base_U.conj().T @ U)
    return U * (ph.conj() / np.abs(ph))[None, :]


class EigenFrame:
    """Eigen-decomposition with deterministic ordering and phases.

    The decomposed matrix is U diag(lambdas**power) U*: power=1 for a plain
    spectral decomposition, power=2 when lambdas hold square roots of the
    eigenvalues (the convention used for S = U D^2 U*).
    """

    def __init__(self, lambdas, U, power=1):
        self.lambdas = np.asarray(lambdas, dtype=float)
        self.U = np.asarray(U, dtype=complex)
        self.power = power
        self.d = len(self.lambdas)

    @property
    def projectors(self):
        """Rank-one spectral projectors V^(p)_ij = U_ip conj(U_jp), as one
        (d, d, d) array indexed [p, i, j]."""
        cols = self.U.T
        return cols[:, :, None] * cols.conj()[:, None, :]

    def matrix(self):
        return _hermitize(self.U @ np.diag(self.lambdas ** self.power)
                          @ self.U.conj().T)

    def sqrt_frame(self):
        """Same U, lambdas replaced by their square roots (power 2)."""
        if np.min(self.lambdas) < 0:
            raise NotPsdError("negative eigenvalue, no real square root")
        return EigenFrame(np.sqrt(self.lambdas), self.U, power=2)

    def min_gap(self):
        if self.d < 2:
            return np.inf
        return float(np.min(np.diff(self.lambdas)))


def hermitian_eigen(H):
    """Deterministic eigen-decomposition of a Hermitian matrix (LAPACK
    through numpy eigh, in its ascending order, then the phase-fixing
    convention; U is Fortran-ordered).

    Raises SpectralGapError when adjacent eigenvalues are closer than
    _GAP_TOL, since the eigenvector matrix is then not smoothly defined.
    """
    w, U = np.linalg.eigh(np.asarray(H, dtype=complex))
    U = _fix_phases(np.asfortranarray(U))
    frame = EigenFrame(w, U, power=1)
    if frame.min_gap() < _GAP_TOL:
        raise SpectralGapError(
            "minimal eigenvalue gap %.3e below tolerance %.3e"
            % (frame.min_gap(), _GAP_TOL))
    return frame


def sqrtm_psd(S):
    """Hermitian square root of a positive semi-definite Hermitian matrix,
    or of each matrix in a stack (..., d, d).

    Raises NotPsdError for the first matrix with an eigenvalue below
    -1e-10 max(|S|_F, 1); eigenvalues above that are clipped at 0.
    """
    S = np.asarray(S, dtype=complex)
    w, U = np.linalg.eigh(S)
    low = w[..., 0]
    for k in np.flatnonzero(low < 0):
        scale = max(np.linalg.norm(S.reshape(-1, *S.shape[-2:])[k]), 1.0)
        if low.flat[k] < -1e-10 * scale:
            raise NotPsdError("matrix is not psd (min eigenvalue %.3e)"
                              % low.flat[k])
    w = np.clip(w, 0.0, None)
    return _hermitize((U * np.sqrt(w)[..., None, :])
                      @ U.conj().swapaxes(-1, -2))


@functools.cache
def _qr_lwork(N):
    """Optimal LAPACK workspace sizes of zgeqrf and zungqr at order N."""
    a = np.zeros((N, N), dtype=complex)
    qr, tau, work, _ = zgeqrf(a, lwork=-1)
    return int(work[0].real), int(zungqr(qr, tau, lwork=-1)[1][0].real)


def _chunk_sizes(K):
    """Sizes of consecutive kernel calls of at most _DRAW_CHUNK draws that
    make up K draws; the cap bounds the stacks' memory, and the calls read
    the stream in draw order."""
    return [min(_DRAW_CHUNK, K - start) for start in range(0, K, _DRAW_CHUNK)]


def _draw_frame(draw, frame, usable):
    """(sample, frame(sample)) for the first of up to 200 draws whose frame
    builds and is usable; only package and LinAlgError failures skip one."""
    for _ in range(200):
        sample = draw()
        try:
            fr = frame(sample)
        except (MatrixDirichletError, np.linalg.LinAlgError):
            continue
        if usable(fr):
            return sample, fr
    raise RuntimeError("no usable frame in 200 draws")


def _haar_draws(N, rng, K, special=False):
    """K Haar unitaries as one (K, N, N) stack of Fortran-ordered matrices,
    with the bits and the Philox stream of K haar_unitary calls.

    One normal draw, one zgeqrf/zungqr pair per draw in place in the stack,
    and the phase fix and determinants on the whole stack. The determinant
    phase is one scalar exp and product per draw: the array exp changes the
    bits of some draws, and so does an in-place product at N = 1."""
    g = rng.standard_normal((K, 2, N, N))
    # (g[:, 0] + i g[:, 1]) / sqrt(2) as one product into a float view
    q = np.empty((K, N, N, 2))
    np.multiply(g.transpose(0, 3, 2, 1), 1.0 / math.sqrt(2.0), out=q)
    q = q.view(complex)[..., 0].transpose(0, 2, 1)
    lwork_qr, lwork_q = _qr_lwork(N)
    diag = np.empty((K, 1, N), dtype=complex)
    for k in range(K):
        # q[k] is Fortran-ordered, so zgeqrf and zungqr overwrite it in
        # place; positional (a, lwork, overwrite_a): f2py parses keywords
        # slowly
        qr, tau = zgeqrf(q[k], lwork_qr, 1)[:2]
        diag[k, 0] = qr.diagonal()
        zungqr(qr, tau, lwork_q, 1)
    q = q * (diag / np.abs(diag))
    if special:
        for k, det in enumerate(np.linalg.det(q)):
            # np.angle(det), without its Python overhead
            q[k] = q[k] * np.exp(-1j * np.arctan2(det.imag, det.real) / N)
    return q


def haar_unitary(N, rng, special=False):
    """Haar-distributed unitary via QR of a Ginibre matrix (Mezzadri,
    Notices AMS 2007): Q with each column rotated by the phase of R's
    diagonal entry, and with special=True also scaled to determinant 1.
    LAPACK zgeqrf/zungqr are called directly with their optimal
    workspace. The one-draw view of _haar_draws, copied so that a kept
    draw does not hold the stack."""
    return _haar_draws(N, rng, 1, special)[0].copy(order="F")

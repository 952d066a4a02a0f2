"""Hermitian/unitary linear algebra with fixed ordering and phase conventions.

Eigen-decompositions here are deterministic: eigenvalues ascending, each
eigenvector rotated so that its diagonal entry is real and non-negative.
That determinism is what makes finite-difference differentiation of the
eigenvector matrix well defined (away from spectral collisions).
"""

import numpy as np
from scipy.linalg import qr

from .errors import NotPsdError, SpectralGapError


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


def hermitian_eigen(H, gap_tol=1e-8):
    """Deterministic eigen-decomposition of a Hermitian matrix (LAPACK
    through numpy eigh, then the sorting and phase-fixing conventions).

    Raises SpectralGapError when adjacent eigenvalues are closer than
    gap_tol, since the eigenvector matrix is then not smoothly defined.
    """
    w, U = np.linalg.eigh(np.asarray(H, dtype=complex))
    order = np.argsort(w)
    w = np.asarray(w)[order]
    U = np.array(U[:, order], dtype=complex)
    U = _fix_phases(U)
    frame = EigenFrame(w, U, power=1)
    if frame.min_gap() < gap_tol:
        raise SpectralGapError(
            "minimal eigenvalue gap %.3e below tolerance %.3e"
            % (frame.min_gap(), gap_tol))
    return frame


def sqrtm_psd(S):
    """Hermitian square root of a positive semi-definite Hermitian matrix."""
    S = np.asarray(S, dtype=complex)
    scale = max(np.linalg.norm(S), 1.0)
    w, U = np.linalg.eigh(S)
    if np.min(w) < -1e-10 * scale:
        raise NotPsdError("matrix is not psd (min eigenvalue %.3e)" % np.min(w))
    w = np.clip(w, 0.0, None)
    return _hermitize(U @ np.diag(np.sqrt(w)) @ U.conj().T)


def haar_unitary(N, rng, special=False):
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    z = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    z /= np.sqrt(2.0)
    q, r = qr(z)
    diag = np.diag(r)
    q = q * (diag / np.abs(diag))
    if special:
        q = q * np.exp(-1j * np.angle(np.linalg.det(q)) / N)
    return q

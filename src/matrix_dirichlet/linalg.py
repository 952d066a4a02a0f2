"""Hermitian/unitary linear algebra with fixed ordering and phase conventions.

Eigen-decompositions here are deterministic: eigenvalues ascending, each
eigenvector rotated so that its diagonal entry is real and non-negative.
That determinism is what makes finite-difference differentiation of the
eigenvector matrix well defined (away from spectral collisions).
"""

import numpy as np
from scipy.linalg import qr, svd

from .errors import NotPsdError, SingularError, SpectralGapError


def _hermitize(A):
    """Hermitian part of a matrix or of each matrix in a stack."""
    return 0.5 * (A + A.conj().swapaxes(-1, -2))


def _jacobi_eigh(H, tol_factor=1e-14, max_sweeps=60):
    """Cyclic complex Jacobi diagonalization of a Hermitian matrix.

    Returns (eigenvalues, U) unsorted, with H = U diag(w) U*.  Convergence
    when the off-diagonal Frobenius norm drops below tol_factor * ||H||.
    """
    A = np.array(H, dtype=complex)
    d = A.shape[0]
    U = np.eye(d, dtype=complex)
    norm = np.linalg.norm(A)
    if norm == 0.0:
        return np.zeros(d), U
    for _ in range(max_sweeps):
        # norm of the off-diagonal part, computed directly: the
        # sqrt(||A||^2 - ||diag||^2) shortcut cancels catastrophically
        # once the off-diagonal entries are small
        off = np.linalg.norm(A - np.diag(np.diag(A)))
        if off < tol_factor * norm:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                h = A[p, q]
                if abs(h) < 1e-300:
                    continue
                theta = np.angle(h)
                g = abs(h)
                a = A[p, p].real
                b = A[q, q].real
                tau = (b - a) / (2.0 * g)
                if abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)
                else:
                    t = np.sign(tau) if tau != 0 else 1.0
                    t /= (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # columns of the plane rotation (after absorbing the phase)
                rp = np.array([c, -s * np.exp(-1j * theta)])
                rq = np.array([s * np.exp(1j * theta), c])
                # A <- R* A R on rows/cols p, q
                cols_p = A[:, p] * rp[0] + A[:, q] * rp[1]
                cols_q = A[:, p] * rq[0] + A[:, q] * rq[1]
                A[:, p] = cols_p
                A[:, q] = cols_q
                rows_p = A[p, :] * np.conj(rp[0]) + A[q, :] * np.conj(rp[1])
                rows_q = A[p, :] * np.conj(rq[0]) + A[q, :] * np.conj(rq[1])
                A[p, :] = rows_p
                A[q, :] = rows_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                up = U[:, p] * rp[0] + U[:, q] * rp[1]
                uq = U[:, p] * rq[0] + U[:, q] * rq[1]
                U[:, p] = up
                U[:, q] = uq
    return np.diag(A).real.copy(), U


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


def hermitian_eigen(H, gap_tol=1e-8, method="jacobi"):
    """Deterministic eigen-decomposition of a Hermitian matrix.

    method: "jacobi" (cyclic Jacobi rotations) or "lapack" (numpy eigh).
    Both share the sorting and phase-fixing conventions and agree to
    roundoff; see tests for the parity check.

    Raises SpectralGapError when adjacent eigenvalues are closer than
    gap_tol, since the eigenvector matrix is then not smoothly defined.
    """
    H = np.asarray(H, dtype=complex)
    if method == "jacobi":
        w, U = _jacobi_eigh(H)
    elif method == "lapack":
        w, U = np.linalg.eigh(H)
    else:
        raise ValueError("unknown method %r" % (method,))
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


def unitary_retract(M, special=False):
    """Unitary polar factor of a square matrix.

    With special=True the determinant phase is divided out so the result
    lies in SU(N).
    """
    M = np.asarray(M, dtype=complex)
    u, s, vh = svd(M)
    if np.min(s) < 1e-12:
        raise SingularError("smallest singular value %.3e" % np.min(s))
    Q = u @ vh
    if special:
        N = Q.shape[0]
        Q = Q * np.exp(-1j * np.angle(np.linalg.det(Q)) / N)
    return Q


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

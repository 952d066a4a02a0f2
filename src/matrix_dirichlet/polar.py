"""Polar decomposition of a complex Brownian matrix.

A d x d matrix m of independent complex Brownian entries factors as
m = V N with V unitary and N = sqrt(m* m) Hermitian positive definite.
Diagonalizing H = m* m = U D^2 U* gives the spectral radii x_i (the
diagonal of D), the eigenvector unitary U, the rotated unitary W = V U,
and the rank-one spectral projectors Z^(k) = U^(k) (U^(k))*.

This module builds the flat ambient model, the frame extraction, the
closed-form co-metric/drift tables of every part of the frame, the
unitary-transport lemma that reduces them to the diagonal point, and the
degenerate rank-one Dirichlet system carried by (D, Z).

Gauge convention: U is determined only up to a diagonal phase.  The
closed-form tables are stated in the gauge transported from the identity
by left multiplication, i.e. the section along which (U* dU)_rr = 0.
`polar_projection(d, base_frame)` realizes that section at the base frame
it requires by phase-aligning each eigenvector column against the base
frame's U, which is what makes finite differences of U (and of the column
mixture W) comparable with the tables.  Quantities invariant under the
diagonal phase (H, N, x, Z) need no alignment.
"""

import functools

import numpy as np

from .calculus import DiffusionModel
from .errors import SingularError
from .linalg import _align_phases, _draw_frame, _hermitize, hermitian_eigen
from .realify import CoordStack, CplxLayout, RealLayout, simplex_layout
from .simplex import ScalarModelParams


class PolarFrame:
    """Polar/spectral parts of a nonsingular complex matrix.

    Holds m, V, N, H = m* m, the spectral radii lam (ascending), the
    phase-fixed eigenvector unitary U, W = V U and the rank-one
    projectors Z, a (d, d, d) array (all d of them; the last is implied by
    the first d-1).
    """

    def __init__(self, m, check=True):
        m = np.asarray(m, dtype=complex)
        d = m.shape[0]
        H = m.conj().T @ m
        eig = hermitian_eigen(H)
        scale = max(float(np.max(eig.lambdas)), 1.0)
        if float(np.min(eig.lambdas)) < 1e-12 * scale:
            raise SingularError(
                "smallest squared radius %.3e" % np.min(eig.lambdas))
        sq = eig.sqrt_frame()
        self.m = m
        self.d = d
        self.H = _hermitize(H)
        self.lam = sq.lambdas
        self.U = sq.U
        self.N = _hermitize(self.U @ np.diag(self.lam) @ self.U.conj().T)
        self.V = m @ self.U @ np.diag(1.0 / self.lam) @ self.U.conj().T
        self.Z = sq.projectors
        if check:
            if np.max(np.abs(self.V @ self.N - m)) > 1e-10 * scale:
                raise SingularError("polar reconstruction failed")
            if np.max(np.abs(self.Z.sum(axis=0) - np.eye(d))) > 1e-10:
                raise SingularError("projectors do not resolve the identity")

    @functools.cached_property
    def W(self):
        return self.V @ self.U


def complex_bm_ambient(d):
    """Flat diffusion of d^2 independent complex Brownian entries.

    Entry tables Gamma(m, m) = 0 and Gamma(m, conj m) = 2 Id realify to
    the identity co-metric on the 2 d^2 real coordinates, zero drift.
    """
    dim = 2 * d * d
    G = np.eye(dim)
    b = np.zeros(dim)
    return DiffusionModel(dim, gamma=lambda x: G, drift=lambda x: b)


def polar_projection(d, base_frame):
    """Realified m-coordinates -> stacked real coordinates of the frame.

    The eigenvector columns (and through W = V U the W columns) are
    phase-aligned against base_frame's U so the finite-difference
    derivative realizes the (U* dU)_rr = 0 gauge of the closed-form
    tables; see the module docstring.
    """
    layout = CplxLayout((d, d))
    stack = CoordStack([
        ("H", simplex_layout(1, d)),
        ("N", simplex_layout(1, d)),
        ("lam", RealLayout(d)),
        ("U", layout),
        ("V", layout),
        ("W", layout),
        ("Z", simplex_layout(d - 1, d)),
    ])

    def F(x):
        fr = PolarFrame(layout.from_real(x), check=False)
        U = _align_phases(fr.U, base_frame.U)
        return stack.pack({
            "H": [fr.H], "N": [fr.N], "lam": fr.lam,
            "U": U, "V": fr.V, "W": fr.V @ U, "Z": fr.Z[:d - 1]})

    return F, stack


def _r_matrix(x):
    """r_ij = 2 (x_i^2 + x_j^2) / (x_i^2 - x_j^2)^2, zero diagonal."""
    X = np.asarray(x, dtype=float) ** 2
    diff = X[:, None] - X[None, :]
    np.fill_diagonal(diff, 1.0)
    r = 2.0 * (X[:, None] + X[None, :]) / diff ** 2
    np.fill_diagonal(r, 0.0)
    return r


def closed_form_polar_system(frame):
    """Co-metric and drift tables of the frame parts at a general point.

    Keys use the entry conventions of the stacked layouts: Hermitian
    blocks index flattened (i, j) entries; unitary blocks come as
    (z, z-bar) pairs, so both the holomorphic table and the mixed table
    are provided.
    """
    d = frame.d
    x = frame.lam
    X = x ** 2
    U, W, H = frame.U, frame.W, frame.H
    dd = d * d
    eye = np.eye(d)
    r = _r_matrix(x)
    s_r = r.sum(axis=1)
    omega = -r.copy()
    np.fill_diagonal(omega, -1.0 / X)

    out = {}
    out["gamma_HH"] = (2.0 * (np.einsum("jk,il->ijkl", eye, H)
                              + np.einsum("il,kj->ijkl", eye, H))
                       ).reshape(dd, dd)
    out["L_H"] = (4.0 * d * eye).ravel().astype(complex)

    psum = x[:, None] + x[None, :]
    coef_nn = 2.0 * (X[:, None] + X[None, :]) / psum ** 2
    out["gamma_NN"] = np.einsum("rs,ir,js,ks,lr->ijkl", coef_nn,
                                U, U.conj(), U, U.conj()).reshape(dd, dd)
    coef_ln = x[None, :] / psum ** 2
    out["L_N"] = (4.0 * np.einsum("rs,ir,jr->ij", coef_ln, U, U.conj())
                  ).ravel()

    out["gamma_lamlam"] = np.eye(d)
    diffX = X[:, None] - X[None, :]
    np.fill_diagonal(diffX, np.inf)
    out["L_lam"] = 1.0 / x + 4.0 * x * np.sum(1.0 / diffX, axis=1)

    out["gamma_UU"] = -np.einsum("lj,il,kj->ijkl", r, U, U).reshape(dd, dd)
    mix = np.einsum("js,is,ks->jik", r, U, U.conj())
    out["gamma_UUbar"] = np.einsum("jik,jl->ijkl", mix, eye).reshape(dd, dd)
    out["L_U"] = (-U * s_r[None, :]).ravel()

    out["gamma_WW"] = np.einsum("jl,il,kj->ijkl", omega, W, W).reshape(dd, dd)
    mixw = np.einsum("js,is,ks->jik", omega, W, W.conj())
    out["gamma_WWbar"] = -np.einsum("jik,jl->ijkl", mixw, eye).reshape(dd, dd)
    # the diagonal omega_jj = -1/x_j^2 does contribute to the drift
    out["L_W"] = (W * omega.sum(axis=0)[None, :]).ravel()

    out["gamma_Ulam"] = np.zeros((dd, d))
    out["gamma_Wlam"] = np.zeros((dd, d))

    # degenerate rank-one Dirichlet system on (Z^(1), ..., Z^(d-1)):
    # Gamma(Z^p_ij, Z^q_kl) = delta_pq sum_s r_sp (Z^s_il Z^p_kj
    # + Z^s_kj Z^p_il) - r_pq (Z^q_il Z^p_kj + Z^p_il Z^q_kj)
    n = d - 1
    Z = frame.Z
    Zf = Z[:n]
    gzz = -(np.einsum("pq,qil,pkj->pijqkl", r[:n, :n], Zf, Zf)
            + np.einsum("pq,pil,qkj->pijqkl", r[:n, :n], Zf, Zf))
    own = np.einsum("sp,sil,pkj->pijkl", r[:, :n], Z, Zf)
    p = np.arange(n)
    gzz[p, :, :, p] += own + own.transpose(0, 3, 4, 1, 2)
    out["gamma_ZZ"] = gzz.reshape(n * dd, n * dd)
    # L(Z^p) = sum_q 2 r_pq (Z^q - Z^p)
    out["L_Z"] = 2.0 * (np.einsum("pq,qij->pij", r[:n], Z)
                        - s_r[:n, None, None] * Zf).ravel()
    out["gamma_Zlam"] = np.zeros((n * dd, d))
    return out


def diagonal_point_forms(x):
    """Couplings that are only stated at the diagonal point m = diag(x)
    (V = U = W = Id): the V system and the U-V, U-W, V-N cross tables."""
    x = np.asarray(x, dtype=float)
    d = x.size
    X = x ** 2
    r = _r_matrix(x)
    psum = x[:, None] + x[None, :]
    diffX = X[:, None] - X[None, :]
    np.fill_diagonal(diffX, np.inf)
    c = 1.0 / psum ** 2
    i, j = np.indices((d, d))

    def table(values, crossed=True):
        """Entry table with T[i, j, j, i] (crossed) or T[i, j, i, j] set."""
        T = np.zeros((d, d, d, d), dtype=complex)
        if crossed:
            T[i, j, j, i] = values
        else:
            T[i, j, i, j] = values
        return T.reshape(d * d, d * d)

    out = {}
    out["gamma_UV"] = table(2.0 * c * (i != j))
    out["gamma_VV"] = table(-4.0 * c)
    out["gamma_VVbar"] = table(4.0 * c, crossed=False)
    out["gamma_UW"] = table(-4.0 * x[:, None] * x[None, :] / diffX ** 2)
    out["gamma_VN"] = table(2.0 * (x[:, None] - x[None, :]) / psum ** 2)
    out["L_V"] = np.diag(-4.0 * np.sum(1.0 / psum ** 2, axis=1)
                         ).ravel().astype(complex)

    # identity-point values of the general U tables, used as transport seeds
    out["gamma_UU"] = table(-r)
    out["gamma_UUbar"] = table(r, crossed=False)
    out["L_U"] = np.diag(-r.sum(axis=1)).ravel().astype(complex)

    out["gamma_NN"] = table(2.0 * (X[:, None] + X[None, :]) / psum ** 2)
    out["L_N"] = np.diag(4.0 * np.sum(x[None, :] / psum ** 2, axis=1)
                         ).ravel().astype(complex)
    return out


def _transport(table, B1, C1, B2, C2):
    """Sandwich transport of an entry table: quantities F = B F0 C obey
    Gamma(F_ij, F'_kl) = sum B1_ip C1_qj B2_kr C2_sl Gamma(F0_pq, F0'_rs)."""
    d = B1.shape[0]
    T = np.asarray(table).reshape(d, d, d, d)
    out = np.einsum("ip,qj,kr,sl,pqrs->ijkl", B1, C1, B2, C2, T)
    return out.reshape(d * d, d * d)


def invariance_transport(base, V, U):
    """Transport identity-point tables to the frame (V, U).

    base is a dict from diagonal_point_forms.  N transports as U . U*,
    the eigenvector unitary by left multiplication with U, and V as
    (V U) . U*; conjugated slots use the conjugated factors.
    """
    V = np.asarray(V, dtype=complex)
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    Ust = U.conj().T
    VU = V @ U
    eye = np.eye(d, dtype=complex)

    out = {}
    out["gamma_NN"] = _transport(base["gamma_NN"], U, Ust, U, Ust)
    out["L_N"] = (U @ base["L_N"].reshape(d, d) @ Ust).ravel()
    out["gamma_UU"] = _transport(base["gamma_UU"], U, eye, U, eye)
    out["gamma_UUbar"] = _transport(base["gamma_UUbar"], U, eye,
                                    U.conj(), eye)
    out["L_U"] = (U @ base["L_U"].reshape(d, d)).ravel()
    out["gamma_VV"] = _transport(base["gamma_VV"], VU, Ust, VU, Ust)
    out["gamma_VVbar"] = _transport(base["gamma_VVbar"], VU, Ust,
                                    VU.conj(), Ust.conj())
    out["L_V"] = (VU @ base["L_V"].reshape(d, d) @ Ust).ravel()
    return out


class DegenerateDirichletParams:
    """Model-I-shaped coefficients of the rank-one system (D, Z).

    The weights are A_pq = r_pq and the common exponent is a_i = 2 - d,
    which is non-positive for d > 1: the formal reversible density
    prod det(Z)^{a-1} is then non-integrable (the process lives on the
    rank-one boundary).  For d = 1 the exponent is 1 (Lebesgue).
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        self.A = _r_matrix(x)
        self.a = np.full(x.size, 2.0 - x.size)
        self.n = x.size - 1
        self.integrable = x.size == 1


def scalar_projection_v(frame):
    """The top-left entries v_k = Z^(k)_11, a point of the simplex."""
    return np.array(frame.Z[:-1, 0, 0].real)


def scalar_projection_params(frame):
    """Scalar simplex model matched by the v-coordinates.

    The complex rank-one system carries twice the real scalar co-metric,
    so the weights are 2 r_pq; the drift then corresponds to exponents
    a_i = 1 (Lebesgue reversible measure on the simplex).
    """
    r = _r_matrix(frame.lam)
    return ScalarModelParams(2.0 * r, np.ones(frame.d))


def sample_polar_frame(d, rng):
    """Ginibre matrix conditioned on spectral radii at least 0.3 and gaps
    at least 0.25 (finite differences of the frame amplify as inverse
    gaps), within 200 tries.  Returns (m, frame)."""
    return _draw_frame(
        lambda: (rng.standard_normal((d, d))
                 + 1j * rng.standard_normal((d, d))),
        lambda m: PolarFrame(m, check=False),
        lambda fr: not (np.min(fr.lam) < 0.3
                        or d > 1 and np.min(np.diff(fr.lam)) < 0.25))

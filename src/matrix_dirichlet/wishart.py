"""Complex Wishart processes and their spectral/simplex projections.

A family of n+1 independent complex Wishart blocks W^(p) (d x d, dimension
parameters d_p) carries the product diffusion

    Gamma(W^(p)_ij, W^(q)_kl) = 2 delta_pq (delta_jk W^(p)_il
                                 + delta_il W^(p)_kj)
    L(W^(p)_ij)               = 4 d_p delta_ij - 2 W^(p)_ij

with reversible density prod det(W^(p))^(d_p - d) exp(-tr(sum W)/2).  From
S = sum W one forms the frame S = U D^2 U* (lambda_i the square roots of the
eigenvalues, phase-fixed U), the matrix square root N = U D U*, the
normalized blocks M^(i) = S^(-1/2) W^(i) S^(-1/2) and their rotations
Z^(i) = U* M^(i) U.  Every co-metric and generator entry of the projected
system (S, lambda, N, N^(-1), M, U, Z) has a closed form in the frame data;
this module evaluates those closed forms and exposes the projection map so
the generic pushforward engine can verify each one.
"""

import functools

import numpy as np

from .calculus import DiffusionModel
from .errors import DomainError, NotPsdError
from .linalg import _align_phases, _draw_frame, _hermitize, hermitian_eigen
from .matrix_simplex import (  # noqa: F401 (the direct sampler is re-exported)
    MatrixSimplexPoint, Model2Params, _ginibre_squares, log_gamma_d,
    sample_matrix_dirichlet_direct, simplex_layout)
from .realify import CoordStack, CplxLayout, RealLayout


class WishartFamily:
    """n+1 Hermitian psd blocks, stacked as W[p] (an (n+1, d, d) array),
    with their dimension parameters."""

    def __init__(self, W_list, dims, check=True):
        self.W = np.asarray(W_list, dtype=complex)
        self.dims = [float(x) for x in dims]
        if len(self.W) != len(self.dims):
            raise ValueError("one dimension parameter per block")
        self.d = self.W.shape[1]
        self.n = len(self.W) - 1
        self.Ntot = float(sum(self.dims))
        if check:
            if np.max(np.abs(self.W - self.W.conj().swapaxes(1, 2))) > 1e-10:
                raise DomainError("block is not Hermitian")
            if np.min(np.linalg.eigvalsh(self.W)) < -1e-10:
                raise DomainError("block is not psd")


def wishart_ambient(d, dims):
    m = len(dims)
    layout = simplex_layout(m, d)
    Id = np.eye(d)
    Im = np.eye(m)
    r = np.asarray(dims, dtype=float)[:, None, None]

    def gamma(x):
        W = layout.from_real(x)
        T = 2.0 * (np.einsum("pq,jk,pil->pijqkl", Im, Id, W)
                   + np.einsum("pq,il,pkj->pijqkl", Im, Id, W))
        return layout.gamma_to_real(T.reshape(m * d * d, m * d * d))

    def drift(x):
        return layout.drift_to_real(
            (4.0 * r * Id - 2.0 * layout.from_real(x)).ravel())

    def domain(x):
        return np.min(np.linalg.eigvalsh(layout.from_real(x))) > -1e-9

    return DiffusionModel(layout.real_dim, gamma, drift, domain_test=domain)


def matrix_ou_ambient(d, m):
    """Complex matrix Ornstein-Uhlenbeck: Gamma(Y, conj Y) = 2 delta delta,
    drift -Y, over d x m complex entries; W = YY* projects onto one Wishart
    block with dimension parameter m."""
    layout = CplxLayout((d, m))

    def gamma(x):
        return np.eye(layout.real_dim)

    def drift(x):
        return -np.asarray(x, dtype=float)

    model = DiffusionModel(layout.real_dim, gamma, drift)

    wlay = simplex_layout(1, d)

    def project(x):
        Y = layout.from_real(x)
        W = Y @ Y.conj().T
        return wlay.to_real([0.5 * (W + W.conj().T)])

    return model, project, layout


def wishart_log_density(dims, W_list):
    """Log of the reversible product density (normalized)."""
    d = W_list[0].shape[0]
    total = 0.0
    for r, W in zip(dims, W_list):
        if r < d:
            raise DomainError("dimension parameter below matrix size: "
                              "density is not integrable")
        sign, logdet = np.linalg.slogdet(W)
        if sign <= 0:
            raise DomainError("block is not positive definite")
        # normalizer of the complex Wishart with this scale:
        # (2^(rd) pi^(d(d-1)/2) Gamma(r) ... Gamma(r-d+1))^(-1)
        log_c = -(r * d * np.log(2.0) + log_gamma_d(r - d + 1.0, d))
        total += log_c + (r - d) * logdet - 0.5 * float(np.trace(W).real)
    return float(total)


def wishart_grad_log(dims, W_list):
    """Realified gradient of the log density over all blocks."""
    W = np.asarray(W_list, dtype=complex)
    m, d = W.shape[:2]
    r = np.asarray(dims, dtype=float)[:, None, None]
    g = (r - d) * np.linalg.inv(W).swapaxes(1, 2) - 0.5 * np.eye(d)
    return simplex_layout(m, d).grad_to_real(g.ravel())


def sample_wishart_family(d, dims, rng):
    """Stationary draw: W^(p) = G G* with standard complex Ginibre columns
    (entry variance 2, matching the exp(-tr W / 2) reversible law)."""
    return WishartFamily(_ginibre_squares(d, dims, rng, 1)[0], dims,
                         check=False)


# -- the (S, lambda, N, M, U, Z) frame ----------------------------------------

class SMZFrame:
    """The frame of a family: S, lam, U, the projectors V, N, N^(-1), and
    the stacked M^(p) and Z^(p) of the n free blocks."""

    def __init__(self, family):
        self.family = family
        self.d = family.d
        self.n = family.n
        self.dims = family.dims
        self.Ntot = family.Ntot
        self.S = S = _hermitize(family.W.sum(axis=0))
        if np.min(np.linalg.eigvalsh(S)) <= 0:
            raise NotPsdError("S = sum W must be positive definite")
        eig = hermitian_eigen(S).sqrt_frame()
        self.lam = eig.lambdas  # the square roots of S's eigenvalues
        self.U = eig.U
        self.V = eig.projectors
        Ustar = self.U.conj().T
        self.Nmat = _hermitize(self.U @ np.diag(self.lam) @ Ustar)
        self.Ninv = _hermitize(self.U @ np.diag(1.0 / self.lam) @ Ustar)
        self.M = _hermitize(self.Ninv @ family.W[:self.n] @ self.Ninv)

    @functools.cached_property
    def Z(self):
        return _hermitize(self.U.conj().T @ self.M @ self.U)

    def m_point(self):
        return MatrixSimplexPoint(self.M, check=False)

    def z_point(self):
        return MatrixSimplexPoint(self.Z, check=False)


def smz_projection(d, dims, base_frame):
    """Realified W-coordinates -> stacked real coordinates of the frame.

    The unitary factor is phase-aligned against base_frame's U: each
    column is rotated so that (U_base* U)_rr is real positive.  At the base
    point this reproduces U_base, and along any perturbation it realizes
    the gauge with no diagonal rotation ((U* dU)_rr = 0), which is the gauge
    in which the closed forms for the U- and Z-coordinates are stated.
    """
    m = len(dims)
    wlay = simplex_layout(m, d)
    stack = CoordStack([
        ("W", wlay),
        ("S", simplex_layout(1, d)),
        ("lam", RealLayout(d)),
        ("N", simplex_layout(1, d)),
        ("Ninv", simplex_layout(1, d)),
        ("M", simplex_layout(m - 1, d)),
        ("U", CplxLayout((d, d))),
        ("Z", simplex_layout(m - 1, d)),
    ])

    def F(x):
        family = WishartFamily(wlay.from_real(x), dims, check=False)
        fr = SMZFrame(family)
        U = _align_phases(fr.U, base_frame.U)
        return stack.pack({
            "W": family.W, "S": [fr.S], "lam": fr.lam, "N": [fr.Nmat],
            "Ninv": [fr.Ninv], "M": fr.M, "U": U, "Z": U.conj().T @ fr.M @ U})

    return F, stack


# -- closed forms -------------------------------------------------------------

def _pair_outer(coef, left, right):
    """sum_rs coef_rs left^r_il right^s_kj as an (ij),(kl) table."""
    d = left.shape[1]
    blk = np.einsum("rs,ril,skj->ijkl", coef, left, right)
    return blk.reshape(d * d, d * d)


def _root_cross(coef, V, W):
    """Gamma of a spectral function of S with coefficients coef against each
    block W^(p): sum_rs coef_rs (V^r_il (W^p V^s)_kj + V^s_kj (V^r W^p)_il),
    as an (ij),(p kl) table."""
    d = V.shape[1]
    WV = W[:, None] @ V[None]    # [p, s] = W^p V^s
    VW = V[None] @ W[:, None]    # [p, r] = V^r W^p
    T = (np.einsum("rs,ril,pskj->ijpkl", coef, V, WV)
         + np.einsum("rs,skj,pril->ijpkl", coef, V, VW))
    return T.reshape(d * d, -1)


def _quadratic_terms(A, Z):
    """2 (A_kj P^pq_il + A_il P^qp_kj) with P^pq = delta_pq Z^p - Z^p Z^q,
    the A-part of a model II co-metric, as a (p ij),(q kl) table."""
    n, d = Z.shape[:2]
    P = -(Z[:, None] @ Z[None])
    P[np.arange(n), np.arange(n)] += Z
    X = 2.0 * np.einsum("kj,pqil->pijqkl", A, P)
    return (X + X.transpose(3, 4, 5, 0, 1, 2)).reshape(n * d * d, n * d * d)


def _conj_swap(T, n, d):
    """Gamma(f_ij, conj g) = conj Gamma(f_ji, g) for Hermitian blocks f:
    the conjugate column block of an (n ij),(kl) table."""
    return np.conj(T.reshape(n, d, d, d * d).swapaxes(1, 2)).reshape(T.shape)


def closed_form_smz_system(frame):
    """All closed-form co-metric blocks and drifts at the frame point.

    Keys: gamma_SS, gamma_SW, L_S, gamma_lamlam, L_lam, dN_dS, gamma_NW,
    gamma_NN, L_N, gamma_NinvN, gamma_NinvW, gamma_NinvNinv, L_Ninv,
    gamma_MM, L_M, gamma_MS, gamma_Mlam, gamma_MU, gamma_MUbar, gamma_ZZ,
    L_Z, gamma_Zlam, gamma_ZU, gamma_ZUbar.  Gamma blocks are entry-space
    tables, drifts are entry vectors.
    """
    d, n = frame.d, frame.n
    lam = frame.lam
    U = frame.U
    Ustar = U.conj().T
    V = frame.V
    S = frame.S
    W = frame.family.W
    Ntot = frame.Ntot
    Id = np.eye(d)
    dd = d * d
    dims = np.asarray(frame.dims[:n])[:, None, None]
    out = {}

    lr = lam[:, None] + lam[None, :]
    l2 = lam ** 2
    # l_i^2 - l_j^2, infinite on the diagonal so that the off-diagonal
    # weights below vanish there
    gap = l2[:, None] - l2[None, :]
    np.fill_diagonal(gap, np.inf)

    # S block: Gamma(S_ij, B^p_kl) = 2 (delta_jk B^p_il + delta_il B^p_kj)
    # for B = S and for each block B = W^(p)
    def s_cross(B):
        return 2.0 * (np.einsum("jk,pil->ijpkl", Id, B)
                      + np.einsum("il,pkj->ijpkl", Id, B)).reshape(dd, -1)

    out["gamma_SS"] = s_cross(S[None])
    out["gamma_SW"] = s_cross(W)
    out["L_S"] = (4.0 * Ntot * Id - 2.0 * S).ravel()

    # radial part
    out["gamma_lamlam"] = np.eye(d)
    out["L_lam"] = ((2.0 * (Ntot - d) + 1.0) / lam - lam
                    + 4.0 * lam * np.sum(1.0 / gap, axis=1))

    # derivative of the matrix square root: dN_ij / dS_kl
    out["dN_dS"] = np.einsum("rs,rik,slj->ijkl", 1.0 / lr, V, V
                             ).reshape(dd, dd)

    # N = sqrt(S) system
    out["gamma_NN"] = _pair_outer(2.0 * (l2[:, None] + l2[None, :]) / lr ** 2,
                                  V, V)
    out["gamma_NW"] = _root_cross(2.0 / lr, V, W)
    c_r = np.sum(lam[None, :] / lr ** 2, axis=1)
    out["L_N"] = (4.0 * np.einsum("r,rij->ij", c_r, V) - frame.Nmat
                  + 2.0 * (Ntot - d) * frame.Ninv).ravel()

    # N^(-1) system
    out["gamma_NinvN"] = _pair_outer(
        -2.0 * (l2[:, None] + l2[None, :])
        / (np.outer(lam, lam) * lr ** 2), V, V)
    out["gamma_NinvW"] = _root_cross(-2.0 / (np.outer(lam, lam) * lr), V, W)
    out["gamma_NinvNinv"] = _pair_outer(
        2.0 * (l2[:, None] + l2[None, :]) / (np.outer(l2, l2) * lr ** 2), V, V)
    c_inv = np.sum(1.0 / (lam[None, :] * lr ** 2), axis=1)
    SinvNinv = U @ np.diag(lam ** -3.0) @ Ustar
    out["L_Ninv"] = (4.0 * np.einsum("r,rij->ij", c_inv, V) + frame.Ninv
                     - 2.0 * (Ntot - d) * SinvNinv).ravel()

    # M system
    Sinv = _hermitize(U @ np.diag(1.0 / l2) @ Ustar)
    h = 4.0 / lr ** 2
    M = frame.M
    VM = V[None] @ M[:, None]      # [p, a] = V^a M^p
    MV = M[:, None] @ V[None]      # [p, a] = M^p V^a
    MVM = MV[:, None] @ M[None, :, None]     # [p, q, b] = M^p V^b M^q
    gMM = (-np.einsum("ab,qail,pbkj->pijqkl", h, VM, VM)
           - np.einsum("ab,pail,qbkj->pijqkl", h, MV, MV)
           + np.einsum("ab,akj,pqbil->pijqkl", h, V, MVM)
           + np.einsum("ab,ail,qpbkj->pijqkl", h, V, MVM))
    out["gamma_MM"] = gMM.reshape(n * dd, n * dd) + _quadratic_terms(Sinv, M)

    g2 = 1.0 / lr ** 2
    ca = np.sum(g2, axis=1)
    trV = np.einsum("rab,pba->pr", V, M).real      # tr(V^r M^p)
    out["L_M"] = (4.0 * dims * Sinv
                  - 2.0 * (Ntot - d) * (Sinv @ M + M @ Sinv)
                  - 4.0 * Sinv * np.trace(M, axis1=1, axis2=2)[:, None, None]
                  - 4.0 * np.einsum("a,paij->pij", ca, VM + MV)
                  + 8.0 * np.einsum("ab,aij,pb->pij", g2, V, trV)).ravel()

    skew = 2.0 * (lam[:, None] - lam[None, :]) / lr
    out["gamma_MS"] = (np.einsum("ab,pail,bkj->pijkl", skew, MV, V)
                       - np.einsum("ab,ail,pbkj->pijkl", skew, V, VM)
                       ).reshape(n * dd, dd)
    out["gamma_Mlam"] = np.zeros((n * dd, d))

    # M-U coupling
    g_off = 2.0 / lr ** 2
    np.fill_diagonal(g_off, 0.0)
    gMU = (np.einsum("al,pil,aj,ka->pijkl", g_off, M @ U, Ustar, U)
           - np.einsum("al,il,paj,ka->pijkl", g_off, U, Ustar @ M, U))
    out["gamma_MU"] = gMU.reshape(n * dd, dd)
    out["gamma_MUbar"] = _conj_swap(out["gamma_MU"], n, d)

    # Z system: y_ij = 2 (l_i^2 + l_j^2) / (l_i^2 - l_j^2)^2 off the
    # diagonal, 1 / l_i^2 on it
    Z = frame.Z
    Dinv2 = np.diag(1.0 / l2)
    y = 2.0 * (l2[:, None] + l2[None, :]) / gap ** 2
    np.fill_diagonal(y, 1.0 / l2)
    gZZ = (np.einsum("ia,paj,qka,il->pijqkl", y, Z, Z, Id)
           + np.einsum("ka,pia,qal,kj->pijqkl", y, Z, Z, Id)
           - np.einsum("ik,pkj,qil->pijqkl", y, Z, Z)
           - np.einsum("jl,pil,qkj->pijqkl", y, Z, Z))
    out["gamma_ZZ"] = gZZ.reshape(n * dd, n * dd) + _quadratic_terms(Dinv2, Z)

    ysum = np.sum(y, axis=1)
    zdiag = np.diagonal(Z, axis1=1, axis2=2).real
    weight = (2.0 * (Ntot - d) * (1.0 / l2[:, None] + 1.0 / l2[None, :])
              + ysum[None, :] + ysum[:, None])
    out["L_Z"] = (4.0 * (dims - np.trace(Z, axis1=1, axis2=2)[:, None, None])
                  * Dinv2 + 2.0 * (zdiag @ y.T)[:, :, None] * Id
                  - weight * Z).ravel()
    out["gamma_Zlam"] = np.zeros((n * dd, d))

    c = 4.0 * np.outer(lam, lam) / gap ** 2
    gZU = (np.einsum("al,ka,paj,il->pijkl", c, U, Z, Id)
           - np.einsum("jl,kj,pil->pijkl", c, U, Z))
    out["gamma_ZU"] = gZU.reshape(n * dd, dd)
    out["gamma_ZUbar"] = _conj_swap(out["gamma_ZU"], n, d)
    return out


def theorem_params(frame):
    """Model II parameters of the autonomous (lambda, Z) system.

    A = 2 diag(lambda^-2); B couples entry pairs diagonally with weights
    2(l_i^2+l_j^2)/(l_i^2-l_j^2)^2 off the diagonal and 1/l_i^2 on it;
    a_p = d_p - d + 1.  Returns (params, radial_drift) with radial_drift the
    drift of each lambda_i (the radial co-metric is the identity):
    (2 (N - d) + 1) / l_i - l_i + sum_(j != i) 4 l_i / (l_i^2 - l_j^2).
    """
    d = frame.d
    lam = frame.lam
    l2 = lam ** 2
    A = np.diag(2.0 / l2)
    gap = l2[:, None] - l2[None, :]
    np.fill_diagonal(gap, np.inf)
    i, j = np.indices((d, d))
    B = np.zeros((d, d, d, d))
    # float_power squares through C pow like a scalar ** (np.square may
    # differ by an ulp), so written parameter files keep their bytes
    B[i, j, i, j] = np.where(i == j, 1.0 / l2[i], 2.0 * (
        l2[:, None] + l2[None, :]) / np.float_power(gap, 2))
    a = np.asarray(frame.dims, dtype=float) - frame.d + 1.0
    radial = ((2.0 * (frame.Ntot - d) + 1.0) / lam - lam
              + 4.0 * lam * np.sum(1.0 / gap, axis=1))
    return Model2Params(A, B, a), radial


def sm_operator(frame):
    """Closed forms of the joint (S, M) operator and its model II shape.

    Returns a dict with the gamma_SS / gamma_MS / gamma_MM blocks, the L_S /
    L_M drifts, and "params": the position-dependent model II parameters
    A = 2 S^(-1), B_{ij,kl} = sum_rs 4/(l_r+l_s)^2 V^(r)_ik V^(s)_lj,
    a_p = d_p - d + 1 whose co-metric/drift reproduce the M blocks.
    """
    system = closed_form_smz_system(frame)
    lam = frame.lam
    lr = lam[:, None] + lam[None, :]
    A = 2.0 * _hermitize(frame.U @ np.diag(1.0 / lam ** 2) @ frame.U.conj().T)
    B = np.einsum("rs,rik,slj->ijkl", 4.0 / lr ** 2, frame.V, frame.V)
    a = np.asarray(frame.dims, dtype=float) - frame.d + 1.0
    return {
        "gamma_SS": system["gamma_SS"],
        "gamma_MS": system["gamma_MS"],
        "gamma_MM": system["gamma_MM"],
        "L_S": system["L_S"],
        "L_M": system["L_M"],
        "params": Model2Params(A, B, a),
    }


def sample_smz_frame(d, dims, rng):
    """Stationary family draw with a well-separated, FD-friendly frame
    (radial gaps >= 0.25, |diag U| >= 0.05), within 200 tries."""
    return _draw_frame(
        lambda: sample_wishart_family(d, dims, rng),
        SMZFrame,
        lambda fr: not (d > 1 and np.min(np.diff(fr.lam)) < 0.25
                        or np.min(np.abs(np.diag(fr.U))) < 0.05))

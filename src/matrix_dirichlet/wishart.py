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

import numpy as np

from .calculus import DiffusionModel, ProjectionMap
from .errors import DomainError, MatrixDirichletError, NotPsdError
from .linalg import hermitian_eigen
from .matrix_simplex import (  # noqa: F401 (the direct sampler is re-exported)
    MatrixSimplexPoint, Model2Params, _ginibre_squares, log_gamma_d,
    sample_matrix_dirichlet_direct, simplex_layout)
from .realify import CoordStack, CplxLayout, HermLayout, RealLayout


class WishartFamily:
    """n+1 Hermitian psd blocks with their dimension parameters."""

    def __init__(self, W_list, dims, check=True):
        self.W = [np.asarray(W, dtype=complex) for W in W_list]
        self.dims = [float(x) for x in dims]
        if len(self.W) != len(self.dims):
            raise ValueError("one dimension parameter per block")
        self.d = self.W[0].shape[0]
        self.n = len(self.W) - 1
        self.Ntot = float(sum(self.dims))
        if check:
            for W in self.W:
                if np.max(np.abs(W - W.conj().T)) > 1e-10:
                    raise DomainError("block is not Hermitian")
                if np.min(np.linalg.eigvalsh(W)) < -1e-10:
                    raise DomainError("block is not psd")


def wishart_layout(n_blocks, d):
    return simplex_layout(n_blocks, d)


def wishart_ambient(d, dims):
    m = len(dims)
    layout = wishart_layout(m, d)
    Id = np.eye(d)

    def gamma(x):
        Ws = layout.from_real(x)
        dd = d * d
        T = np.zeros((m * dd, m * dd), dtype=complex)
        for p, W in enumerate(Ws):
            blk = 2.0 * (np.einsum("jk,il->ijkl", Id, W)
                         + np.einsum("il,kj->ijkl", Id, W))
            T[p * dd:(p + 1) * dd, p * dd:(p + 1) * dd] = blk.reshape(dd, dd)
        return layout.gamma_to_real(T)

    def drift(x):
        Ws = layout.from_real(x)
        out = np.empty(m * d * d, dtype=complex)
        for p, W in enumerate(Ws):
            out[p * d * d:(p + 1) * d * d] = (4.0 * dims[p] * Id
                                              - 2.0 * W).ravel()
        return layout.drift_to_real(out)

    def domain(x):
        return all(np.min(np.linalg.eigvalsh(W)) > -1e-9
                   for W in layout.from_real(x))

    return DiffusionModel(layout.real_dim, gamma, drift, domain_test=domain,
                          name="wishart-family")


def matrix_ou_ambient(d, m):
    """Complex matrix Ornstein-Uhlenbeck: Gamma(Y, conj Y) = 2 delta delta,
    drift -Y, over d x m complex entries; W = YY* projects onto one Wishart
    block with dimension parameter m."""
    layout = CplxLayout(d * m, shape=(d, m))

    def gamma(x):
        return np.eye(layout.real_dim)

    def drift(x):
        return -np.asarray(x, dtype=float)

    model = DiffusionModel(layout.real_dim, gamma, drift, name="matrix-ou")

    wlay = wishart_layout(1, d)

    def project(x):
        Y = layout.from_real(x)
        W = Y @ Y.conj().T
        return wlay.to_real([0.5 * (W + W.conj().T)])

    return model, ProjectionMap(layout.real_dim, wlay.real_dim, project,
                                name="gram-matrix"), layout


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
    d = W_list[0].shape[0]
    m = len(W_list)
    layout = wishart_layout(m, d)
    g = np.empty(m * d * d, dtype=complex)
    for p, (r, W) in enumerate(zip(dims, W_list)):
        inv = np.linalg.inv(W)
        g[p * d * d:(p + 1) * d * d] = ((r - d) * inv.T
                                        - 0.5 * np.eye(d)).ravel()
    return layout.grad_to_real(g)


def sample_wishart_family(d, dims, rng):
    """Stationary draw: W^(p) = G G* with standard complex Ginibre columns
    (entry variance 2, matching the exp(-tr W / 2) reversible law)."""
    return WishartFamily(_ginibre_squares(d, dims, rng), dims, check=False)


# -- the (S, lambda, N, M, U, Z) frame ----------------------------------------

class SMZFrame:
    def __init__(self, family, gap_tol=1e-8, eig_method="lapack"):
        self.family = family
        self.d = family.d
        self.n = family.n
        self.dims = family.dims
        self.Ntot = family.Ntot
        S = sum(family.W)
        S = 0.5 * (S + S.conj().T)
        if np.min(np.linalg.eigvalsh(S)) <= 0:
            raise NotPsdError("S = sum W must be positive definite")
        base = hermitian_eigen(S, gap_tol=gap_tol, method=eig_method)
        self.S = S
        self.eig = base.sqrt_frame()          # lambdas = sqrt eigenvalues
        self.lam = self.eig.lambdas
        self.U = self.eig.U
        self.V = self.eig.projectors
        self.Nmat = 0.5 * (self.U @ np.diag(self.lam) @ self.U.conj().T
                           + (self.U @ np.diag(self.lam)
                              @ self.U.conj().T).conj().T)
        self.Ninv = self.U @ np.diag(1.0 / self.lam) @ self.U.conj().T
        self.Ninv = 0.5 * (self.Ninv + self.Ninv.conj().T)
        self.M = []
        self.Z = []
        for W in family.W[:self.n]:
            M = self.Ninv @ W @ self.Ninv
            M = 0.5 * (M + M.conj().T)
            Z = self.U.conj().T @ M @ self.U
            Z = 0.5 * (Z + Z.conj().T)
            self.M.append(M)
            self.Z.append(Z)

    def m_point(self):
        return MatrixSimplexPoint(self.M, check=False)

    def z_point(self):
        return MatrixSimplexPoint(self.Z, check=False)


def build_smz(family, gap_tol=1e-8):
    return SMZFrame(family, gap_tol=gap_tol)


def smz_stack(n, d):
    """Coordinate stack of every projected quantity (plus the ambient W)."""
    return CoordStack([
        ("W", HermLayout(n + 1, d)),
        ("S", HermLayout(1, d)),
        ("lam", RealLayout(d)),
        ("N", HermLayout(1, d)),
        ("Ninv", HermLayout(1, d)),
        ("M", HermLayout(n, d)),
        ("U", CplxLayout(d * d, shape=(d, d))),
        ("Z", HermLayout(n, d)),
    ])


def smz_projection(d, dims, gap_tol=1e-8, base_frame=None):
    """Realified W-coordinates -> stacked real coordinates of the frame.

    With base_frame given, the unitary factor is phase-aligned against the
    base frame's U: each column is rotated so that (U_base* U)_rr is real
    positive.  At the base point this reproduces U_base, and along any
    perturbation it realizes the gauge with no diagonal rotation
    ((U* dU)_rr = 0), which is the gauge in which the closed forms for the
    U- and Z-coordinates are stated.  Without a base frame the diagonal-real
    phase convention is used (deterministic but carrying an extra diagonal
    phase drift under differentiation).
    """
    m = len(dims)
    n = m - 1
    wlay = wishart_layout(m, d)
    stack = smz_stack(n, d)
    base_U = None if base_frame is None else np.asarray(base_frame.U)

    def F(x):
        family = WishartFamily(wlay.from_real(x), dims, check=False)
        fr = SMZFrame(family, gap_tol=gap_tol)
        U, Z = fr.U, fr.Z
        if base_U is not None:
            ph = np.diag(base_U.conj().T @ U)
            U = U * (ph.conj() / np.abs(ph))[None, :]
            Z = [U.conj().T @ Mp @ U for Mp in fr.M]
        return stack.pack({
            "W": family.W, "S": [fr.S], "lam": fr.lam, "N": [fr.Nmat],
            "Ninv": [fr.Ninv], "M": fr.M, "U": U, "Z": Z})

    return ProjectionMap(wlay.real_dim, stack.real_dim, F,
                         name="smz-frame"), stack


# -- closed forms -------------------------------------------------------------

def _pair_outer(coef, left, right):
    """sum_rs coef_rs left^r_il right^s_kj as an (ij),(kl) table."""
    d = left.shape[1]
    blk = np.einsum("rs,ril,skj->ijkl", coef, left, right)
    return blk.reshape(d * d, d * d)


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
    V = np.array(frame.V)
    S = frame.S
    Ntot = frame.Ntot
    Id = np.eye(d)
    dd = d * d
    out = {}

    lr = lam[:, None] + lam[None, :]
    l2 = lam ** 2

    # S block
    out["gamma_SS"] = 2.0 * (np.einsum("jk,il->ijkl", Id, S)
                             + np.einsum("il,kj->ijkl", Id, S)
                             ).reshape(dd, dd)
    gSW = np.zeros((dd, (n + 1) * dd), dtype=complex)
    for p, W in enumerate(frame.family.W):
        gSW[:, p * dd:(p + 1) * dd] = 2.0 * (
            np.einsum("jk,il->ijkl", Id, W)
            + np.einsum("il,kj->ijkl", Id, W)).reshape(dd, dd)
    out["gamma_SW"] = gSW
    out["L_S"] = (4.0 * Ntot * Id - 2.0 * S).ravel()

    # radial part
    out["gamma_lamlam"] = np.eye(d)
    L_lam = np.empty(d)
    for i in range(d):
        acc = (2.0 * (Ntot - d) + 1.0) / lam[i] - lam[i]
        for j in range(d):
            if j != i:
                acc += 4.0 * lam[i] / (l2[i] - l2[j])
        L_lam[i] = acc
    out["L_lam"] = L_lam

    # derivative of the matrix square root: dN_ij / dS_kl
    out["dN_dS"] = np.einsum("rs,rik,slj->ijkl", 1.0 / lr, V, V
                             ).reshape(dd, dd)

    # N = sqrt(S) system
    out["gamma_NN"] = _pair_outer(2.0 * (l2[:, None] + l2[None, :]) / lr ** 2,
                                  V, V)
    gNW = np.zeros((dd, (n + 1) * dd), dtype=complex)
    for p, W in enumerate(frame.family.W):
        WV = np.einsum("ab,sbc->sac", W, V)    # W V^s
        VW = np.einsum("rab,bc->rac", V, W)    # V^r W
        blk = (np.einsum("rs,ril,skj->ijkl", 2.0 / lr, V, WV)
               + np.einsum("rs,skj,ril->ijkl", 2.0 / lr, V, VW))
        gNW[:, p * dd:(p + 1) * dd] = blk.reshape(dd, dd)
    out["gamma_NW"] = gNW
    c_r = np.sum(lam[None, :] / lr ** 2, axis=1)
    out["L_N"] = (4.0 * np.einsum("r,rij->ij", c_r, V) - frame.Nmat
                  + 2.0 * (Ntot - d) * frame.Ninv).ravel()

    # N^(-1) system
    out["gamma_NinvN"] = _pair_outer(
        -2.0 * (l2[:, None] + l2[None, :])
        / (np.outer(lam, lam) * lr ** 2), V, V)
    gNiW = np.zeros((dd, (n + 1) * dd), dtype=complex)
    coef = -2.0 / (np.outer(lam, lam) * lr)
    for p, W in enumerate(frame.family.W):
        WV = np.einsum("ab,sbc->sac", W, V)
        VW = np.einsum("rab,bc->rac", V, W)
        blk = (np.einsum("rs,ril,skj->ijkl", coef, V, WV)
               + np.einsum("rs,skj,ril->ijkl", coef, V, VW))
        gNiW[:, p * dd:(p + 1) * dd] = blk.reshape(dd, dd)
    out["gamma_NinvW"] = gNiW
    out["gamma_NinvNinv"] = _pair_outer(
        2.0 * (l2[:, None] + l2[None, :]) / (np.outer(l2, l2) * lr ** 2), V, V)
    c_inv = np.sum(1.0 / (lam[None, :] * lr ** 2), axis=1)
    SinvNinv = U @ np.diag(lam ** -3.0) @ Ustar
    out["L_Ninv"] = (4.0 * np.einsum("r,rij->ij", c_inv, V) + frame.Ninv
                     - 2.0 * (Ntot - d) * SinvNinv).ravel()

    # M system
    Sinv = U @ np.diag(1.0 / l2) @ Ustar
    Sinv = 0.5 * (Sinv + Sinv.conj().T)
    h = 4.0 / lr ** 2
    M = frame.M
    VM = [np.einsum("rab,bc->rac", V, Mp) for Mp in M]   # V^a M^p
    MV = [np.einsum("ab,rbc->rac", Mp, V) for Mp in M]   # M^p V^a
    gMM = np.zeros((n * dd, n * dd), dtype=complex)
    for p in range(n):
        for q in range(n):
            blk = (-np.einsum("kj,il->ijkl", Sinv, M[p] @ M[q])
                   - np.einsum("il,kj->ijkl", Sinv, M[q] @ M[p])) * 2.0
            if p == q:
                blk += 2.0 * (np.einsum("il,kj->ijkl", Sinv, M[p])
                              + np.einsum("kj,il->ijkl", Sinv, M[p]))
            blk -= np.einsum("ab,ail,bkj->ijkl", h, VM[q], VM[p])
            blk -= np.einsum("ab,ail,bkj->ijkl", h, MV[p], MV[q])
            MVM_pq = np.einsum("ab,rbc,cd->rad", M[p], V, M[q])  # M^p V^b M^q
            MVM_qp = np.einsum("ab,rbc,cd->rad", M[q], V, M[p])
            blk += np.einsum("ab,akj,bil->ijkl", h, V, MVM_pq)
            blk += np.einsum("ab,ail,bkj->ijkl", h, V, MVM_qp)
            gMM[p * dd:(p + 1) * dd, q * dd:(q + 1) * dd] = blk.reshape(dd, dd)
    out["gamma_MM"] = gMM

    g2 = 1.0 / lr ** 2
    ca = np.sum(g2, axis=1)
    L_M = np.zeros(n * dd, dtype=complex)
    for p in range(n):
        acc = 4.0 * frame.dims[p] * Sinv
        acc -= 2.0 * (Ntot - d) * (Sinv @ M[p] + M[p] @ Sinv)
        acc -= 4.0 * Sinv * np.trace(M[p])
        acc -= 4.0 * np.einsum("a,aij->ij", ca, VM[p])
        acc -= 4.0 * np.einsum("b,bij->ij", ca, MV[p])
        acc += 8.0 * np.einsum("ab,aij,b->ij", g2, V,
                               np.einsum("rab,ba->r", V, M[p]).real)
        L_M[p * dd:(p + 1) * dd] = acc.ravel()
    out["L_M"] = L_M

    gMS = np.zeros((n * dd, dd), dtype=complex)
    skew = 2.0 * (lam[:, None] - lam[None, :]) / lr
    for p in range(n):
        blk = (np.einsum("ab,ail,bkj->ijkl", skew, MV[p], V)
               - np.einsum("ab,ail,bkj->ijkl", skew, V, VM[p]))
        gMS[p * dd:(p + 1) * dd, :] = blk.reshape(dd, dd)
    out["gamma_MS"] = gMS
    out["gamma_Mlam"] = np.zeros((n * dd, d))

    # M-U coupling
    g_off = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if i != j:
                g_off[i, j] = 2.0 / lr[i, j] ** 2
    gMU = np.zeros((n * dd, dd), dtype=complex)
    gMUbar = np.zeros((n * dd, dd), dtype=complex)
    for p in range(n):
        MpU = M[p] @ U
        UsM = Ustar @ M[p]
        t1 = np.einsum("al,il,aj,ka->ijkl", g_off, MpU, Ustar, U)
        t2 = np.einsum("al,il,aj,ka->ijkl", g_off, U, UsM, U)
        gMU[p * dd:(p + 1) * dd, :] = (t1 - t2).reshape(dd, dd)
        t3 = np.einsum("la,ia,ak,lj->ijkl", g_off, MpU, Ustar, Ustar)
        t4 = np.einsum("la,ia,ak,lj->ijkl", g_off, U, Ustar, UsM)
        gMUbar[p * dd:(p + 1) * dd, :] = (-t3 + t4).reshape(dd, dd)
    out["gamma_MU"] = gMU
    out["gamma_MUbar"] = gMUbar

    # Z system
    Z = frame.Z
    y = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            if i == j:
                y[i, j] = 1.0 / l2[i]
            else:
                y[i, j] = 2.0 * (l2[i] + l2[j]) / (l2[i] - l2[j]) ** 2
    Dinv2 = np.diag(1.0 / l2)
    gZZ = np.zeros((n * dd, n * dd), dtype=complex)
    for p in range(n):
        for q in range(n):
            blk = -2.0 * (np.einsum("kj,il->ijkl", Dinv2, Z[p] @ Z[q])
                          + np.einsum("il,kj->ijkl", Dinv2, Z[q] @ Z[p]))
            if p == q:
                blk += 2.0 * (np.einsum("il,kj->ijkl", Dinv2, Z[p])
                              + np.einsum("kj,il->ijkl", Dinv2, Z[p]))
            P = np.einsum("ia,aj,ka->ijk", y, Z[p], Z[q])
            blk += np.einsum("ijk,il->ijkl", P, Id)
            Q = np.einsum("ka,ia,al->kil", y, Z[p], Z[q])
            blk += np.einsum("kil,kj->ijkl", Q, Id)
            blk -= np.einsum("ik,kj,il->ijkl", y, Z[p], Z[q])
            blk -= np.einsum("jl,il,kj->ijkl", y, Z[p], Z[q])
            gZZ[p * dd:(p + 1) * dd, q * dd:(q + 1) * dd] = blk.reshape(dd, dd)
    out["gamma_ZZ"] = gZZ

    L_Z = np.zeros(n * dd, dtype=complex)
    ysum = np.sum(y, axis=1)
    for p in range(n):
        acc = 4.0 * frame.dims[p] * Dinv2 - 4.0 * Dinv2 * np.trace(Z[p])
        acc = acc + 2.0 * np.diag(y @ np.diag(Z[p]).real)
        acc = acc - 2.0 * (Ntot - d) * ((1.0 / l2)[:, None]
                                        + (1.0 / l2)[None, :]) * Z[p]
        acc = acc - (ysum[None, :] + ysum[:, None]) * Z[p]
        L_Z[p * dd:(p + 1) * dd] = acc.ravel()
    out["L_Z"] = L_Z
    out["gamma_Zlam"] = np.zeros((n * dd, d))

    c = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if i != j:
                c[i, j] = 4.0 * lam[i] * lam[j] / (l2[i] - l2[j]) ** 2
    gZU = np.zeros((n * dd, dd), dtype=complex)
    for p in range(n):
        t1 = np.einsum("al,ka,aj,il->ijkl", c, U, Z[p], Id)
        t2 = np.einsum("jl,kj,il->ijkl", c, U, Z[p])
        gZU[p * dd:(p + 1) * dd, :] = (t1 - t2).reshape(dd, dd)
    out["gamma_ZU"] = gZU
    # conjugate column block via Gamma(f, conj g) = conj(Gamma(conj f, g))
    gZUbar = np.zeros((n * dd, dd), dtype=complex)
    for p in range(n):
        blk = gZU[p * dd:(p + 1) * dd, :].reshape(d, d, d, d)
        gZUbar[p * dd:(p + 1) * dd, :] = np.conj(
            blk.transpose(1, 0, 2, 3)).reshape(dd, dd)
    out["gamma_ZUbar"] = gZUbar
    return out


def theorem_params(frame):
    """Model II parameters of the autonomous (lambda, Z) system.

    A = 2 diag(lambda^-2); B couples entry pairs diagonally with weights
    2(l_i^2+l_j^2)/(l_i^2-l_j^2)^2 off the diagonal and 1/l_i^2 on it;
    a_p = d_p - d + 1.  Returns (params, radial_drift) with radial_drift the
    drift of each lambda_i (the radial co-metric is the identity).
    """
    d = frame.d
    lam = frame.lam
    l2 = lam ** 2
    A = np.diag(2.0 / l2)
    B = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            if i == j:
                B[i, j, i, j] = 1.0 / l2[i]
            else:
                B[i, j, i, j] = 2.0 * (l2[i] + l2[j]) / (l2[i] - l2[j]) ** 2
    a = np.asarray(frame.dims, dtype=float) - frame.d + 1.0
    params = Model2Params(A, B, a)
    system = closed_form_smz_system(frame)
    return params, system["L_lam"]


def sm_operator(frame):
    """Closed forms of the joint (S, M) operator and its model II shape.

    Returns a dict with the gamma_SS / gamma_MS / gamma_MM blocks, the L_S /
    L_M drifts, and "params": the position-dependent model II parameters
    A = 2 S^(-1), B_{ij,kl} = sum_rs 4/(l_r+l_s)^2 V^(r)_ik V^(s)_lj,
    a_p = d_p - d + 1 whose co-metric/drift reproduce the M blocks.
    """
    system = closed_form_smz_system(frame)
    d = frame.d
    lam = frame.lam
    V = np.array(frame.V)
    lr = lam[:, None] + lam[None, :]
    Sinv = frame.U @ np.diag(1.0 / lam ** 2) @ frame.U.conj().T
    A = 2.0 * 0.5 * (Sinv + Sinv.conj().T)
    B = np.einsum("rs,rik,slj->ijkl", 4.0 / lr ** 2, V, V)
    a = np.asarray(frame.dims, dtype=float) - d + 1.0
    return {
        "gamma_SS": system["gamma_SS"],
        "gamma_MS": system["gamma_MS"],
        "gamma_MM": system["gamma_MM"],
        "L_S": system["L_S"],
        "L_M": system["L_M"],
        "params": Model2Params(A, B, a),
    }


def sample_smz_frame(d, dims, rng, gap_min=0.25, pivot_min=0.05,
                     max_tries=200):
    """Stationary family draw with a well-separated, FD-friendly frame."""
    for _ in range(max_tries):
        family = sample_wishart_family(d, dims, rng)
        try:
            fr = SMZFrame(family, gap_tol=1e-10)
        except (MatrixDirichletError, np.linalg.LinAlgError):
            continue
        if np.min(np.diff(fr.lam)) < gap_min:
            continue
        if np.min(np.abs(np.diag(fr.U))) < pivot_min:
            continue
        return family, fr
    raise RuntimeError("could not sample a well-separated frame")

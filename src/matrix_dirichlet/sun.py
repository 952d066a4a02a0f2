"""Brownian motion on SU(N) and the block extraction onto the matrix simplex.

The group carries the bi-invariant Laplacian

    Delta = (1/4N) sum_{i<j} (V_R^2 + V_S^2 + (2/N) V_D^2)

whose fields act by right multiplication with the algebra elements

    E_R = E_ji - E_ij,  E_S = i(E_ij + E_ji),  E_D = i(E_ii - E_jj),

i.e. V_E(u) = u E and V_E^2(u) = u E^2.  A field list is one stacked
(F, N, N) tensor of its elements plus (F,) weights; every action is a
stacked product, summed in order over the field axis.

Splitting the N columns into n+1 groups I_1..I_{n+1} and keeping the first
d rows, W^(i) = u[:d, I_i] and Z^(i) = W^(i) W^(i)* define a point of the
matrix simplex; the image of the group Laplacian (and of the weighted pair
operators L^(pq)) under this extraction is the model I diffusion with
A_pq = 1/(2N) (resp. the given weights) and a_i = d_i - d + 1.
"""

import functools
import itertools
import math

import numpy as np
from scipy.linalg.blas import zgemm
from scipy.linalg.lapack import zheevd

from .calculus import DiffusionModel, check_identity
from .errors import OffGroupError
from .linalg import _chunk_sizes, _haar_draws, _hermitize
from .matrix_simplex import (
    MatrixSimplexPoint, Model1Params, drift_model1, gamma_model1,
    simplex_layout)
from .realify import CplxLayout


class SUNState:
    def __init__(self, u, check=True):
        self.u = np.asarray(u, dtype=complex)
        self.N = self.u.shape[0]
        if check:
            err = np.max(np.abs(self.u @ self.u.conj().T - np.eye(self.N)))
            if err > 1e-10:
                raise OffGroupError("|uu* - Id| = %.3e" % err)
            if abs(np.linalg.det(self.u) - 1.0) > 1e-8:
                raise OffGroupError("det(u) != 1")


class Partition:
    """Column groups I_1..I_{n+1} (sizes d_i) and the number of kept rows d."""

    def __init__(self, d, sizes):
        self.d = int(d)
        self.sizes = [int(s) for s in sizes]
        if any(s < 1 for s in self.sizes) or self.d < 1:
            raise ValueError("all group sizes and d must be >= 1")
        self.N = sum(self.sizes)
        if self.d > self.N:
            raise ValueError("d cannot exceed N")
        starts = np.cumsum([0] + self.sizes).tolist()
        self.sets = [list(range(a, a + s)) for a, s in zip(starts, self.sizes)]
        self.n = len(self.sizes) - 1
        # column membership: group index of each column
        self.group_of = np.repeat(np.arange(self.n + 1), self.sizes)


def group_distance(u):
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def sun_ambient(N):
    """Closed-form co-metric and drift of group Brownian motion.

        Gamma(u_ij, u_kl)      = -(1/2N) u_il u_kj + (1/2N^2) u_ij u_kl
        Gamma(u_ij, conj u_kl) =  (1/2N) delta_ik delta_jl
                                  - (1/2N^2) u_ij conj(u_kl)
        L(u_ij)                = -((N^2-1)/2N^2) u_ij

    over the realified entries.  Points farther than 1e-3 from the
    group raise OffGroupError (the tolerance leaves room for the finite
    difference stencils of the pushforward engine).
    """
    layout = CplxLayout((N, N))
    c1 = 1.0 / (2.0 * N)
    c2 = 1.0 / (2.0 * N * N)

    def gamma(x):
        u = layout.from_real(x)
        if group_distance(u) > 1e-3:
            raise OffGroupError("point is not on the group")
        Gzz = (-c1 * np.einsum("il,kj->ijkl", u, u)
               + c2 * np.einsum("ij,kl->ijkl", u, u)).reshape(N * N, N * N)
        Gzw = (c1 * np.eye(N * N, dtype=complex)
               - c2 * np.outer(u.ravel(), u.conj().ravel()))
        return layout.gamma_to_real(layout.assemble_entry_gamma(Gzz, Gzw))

    def drift(x):
        u = layout.from_real(x)
        if group_distance(u) > 1e-3:
            raise OffGroupError("point is not on the group")
        Lz = -((N * N - 1.0) / (2.0 * N * N)) * u.ravel()
        return layout.drift_to_real(layout.assemble_entry_drift(Lz))

    return DiffusionModel(layout.real_dim, gamma, drift,
                          domain_test=lambda x: group_distance(
                              layout.from_real(x)) < 1e-2)


# -- algebra elements and exact field actions ---------------------------------

def algebra_element(kind, i, j, N):
    E = np.zeros((N, N), dtype=complex)
    if kind == "R":
        E[j, i] = 1.0
        E[i, j] = -1.0
    elif kind == "S":
        E[i, j] = 1.0j
        E[j, i] = 1.0j
    elif kind == "D":
        E[i, i] = 1.0j
        E[j, j] = -1.0j
    else:
        raise ValueError("kind must be R, S or D")
    return E


def casimir_field_list(N):
    """(kind, i, j, weight) for Delta = (1/4N) sum (V_R^2+V_S^2+(2/N)V_D^2)."""
    return _pair_fields(itertools.combinations(range(N), 2),
                        1.0 / (4.0 * N), 1.0 / (2.0 * N * N))


def lpq_field_list(partition, A):
    """Fields of (1/2) sum_{p<q} A_pq L^(pq) over column-group pairs."""
    A = np.asarray(A, dtype=float)
    out = []
    for p, q in itertools.combinations(range(len(partition.sizes)), 2):
        if A[p, q] != 0.0:
            pairs = itertools.product(partition.sets[p], partition.sets[q])
            out += _pair_fields(pairs, 0.5 * A[p, q], A[p, q] / partition.N)
    return out


def _pair_fields(pairs, wRS, wD):
    """The R, S and D fields of each column pair (i, j), with their weights."""
    return [(kind, i, j, w) for (i, j) in pairs
            for (kind, w) in (("R", wRS), ("S", wRS), ("D", wD))]


def _field_tensor(fields, N):
    """The elements of a field list stacked as (F, N, N), and its weights."""
    E = np.zeros((len(fields), N, N), dtype=complex)
    for f, (kind, i, j, _) in enumerate(fields):
        E[f] = algebra_element(kind, i, j, N)
    return E, np.array([f[3] for f in fields], dtype=float)


@functools.cache
def _step_basis(N):
    """Read-only Casimir field tensor of SU(N) and the Brownian step's
    standard deviation along each field: 1/sqrt(2N) on R and S, 1/N on D."""
    E, _ = _field_tensor(casimir_field_list(N), N)
    sd = np.tile([1.0 / np.sqrt(2.0 * N), 1.0 / np.sqrt(2.0 * N), 1.0 / N],
                 len(E) // 3)
    E.flags.writeable = sd.flags.writeable = False
    return E, sd


def _weighted_outers(w, a, b):
    """sum_f w_f outer(a_f, b_f), summed in order over the field axis."""
    return (w[:, None, None] * (a[:, :, None] * b[:, None, :])).sum(axis=0)


def _block_actions(partition, u, E):
    """First and second actions of the stacked fields E on all extracted
    blocks, each (F, n+1, d, d): u[E, M_p]u* and u[E, [E, M_p]]u* for the
    diagonal column-group masks M_p."""
    u = np.asarray(u, dtype=complex)
    groups = np.arange(len(partition.sizes))[:, None]
    masks = np.eye(partition.N) * (partition.group_of == groups)[:, None, :]
    E = E[:, None]
    C1 = E @ masks - masks @ E
    C2 = E @ C1 - C1 @ E
    d = partition.d
    return ((u @ C1 @ u.conj().T)[..., :d, :d],
            (u @ C2 @ u.conj().T)[..., :d, :d])


def casimir_fields_apply(N, coords, u, fields=None):
    """Exact first and second actions of the group fields.

    coords = "entries": returns [(kind, i, j, w, Vu, V2u)] with Vu = uE and
    V2u = uE^2 (N x N arrays).  coords = a Partition: the actions on the
    extracted blocks instead, as stacks of shape (n+1, d, d) computed through
    the commutators u[E, M_p]u* and u[E, [E, M_p]]u*.
    """
    u = np.asarray(u, dtype=complex)
    if fields is None:
        fields = casimir_field_list(N)
    E, _ = _field_tensor(fields, N)
    if coords == "entries":
        firsts, seconds = u @ E, u @ E @ E
    else:
        firsts, seconds = _block_actions(coords, u, E)
    return [(*f, V, V2) for f, V, V2 in zip(fields, firsts, seconds)]


def lemma_first_action(kind, i, j, partition, u):
    """Closed-form first actions on all blocks, shape (n+1, d, d).

    V_R_ij Z^(p)_ab = (1_{i in I_p} - 1_{j in I_p})
                      (u_aj conj(u_bi) + u_ai conj(u_bj))
    V_S_ij Z^(p)_ab = i (1_{j in I_p} - 1_{i in I_p})
                      (u_ai conj(u_bj) - u_aj conj(u_bi))
    V_D_ij Z^(p)_ab = 0
    """
    ui, uj = u[:partition.d, i], u[:partition.d, j]
    if kind == "R":
        base = np.outer(uj, ui.conj()) + np.outer(ui, uj.conj())
    elif kind == "S":
        base = 1.0j * (np.outer(uj, ui.conj()) - np.outer(ui, uj.conj()))
    else:
        base = np.zeros((partition.d, partition.d))
    return _scatter_pair(base, i, j, partition)


def lemma_second_action(kind, i, j, partition, u):
    """Closed-form second actions on all blocks, shape (n+1, d, d).

    V_R^2 and V_S^2 both act as (1_{i in I_p} - 1_{j in I_p}) *
    2 (u_.j conj(u_.j) - u_.i conj(u_.i)); V_D^2 acts as zero.
    """
    ui, uj = u[:partition.d, i], u[:partition.d, j]
    if kind == "D":
        base = np.zeros((partition.d, partition.d))
    else:
        base = 2.0 * (np.outer(uj, uj.conj()) - np.outer(ui, ui.conj()))
    return _scatter_pair(base, i, j, partition)


def _scatter_pair(base, i, j, partition):
    """(n+1, d, d) stack: +base on the block of column i, -base on j's."""
    out = np.zeros((len(partition.sizes),) + base.shape, dtype=complex)
    out[partition.group_of[i]] += base
    out[partition.group_of[j]] -= base
    return out


def _extract_blocks(U, partition):
    """Free blocks Z^(p) = W^(p) W^(p)* of a stack of unitaries (K, N, N),
    as one (K, n, d, d) stack; W^(p) = u[:d, I_p] is a slice, since the
    column groups are contiguous."""
    d = partition.d
    Z = np.empty((len(U), partition.n, d, d), dtype=complex)
    for p, cols in enumerate(partition.sets[:-1]):
        W = U[:, :d, cols[0]:cols[-1] + 1]
        np.matmul(W, W.conj().swapaxes(-1, -2), out=Z[:, p])
    return _hermitize(Z)


def extract_Z(state, partition):
    """The free blocks of one unitary as a point; the one-draw view of
    _extract_blocks, copied so that a kept point does not hold the stack."""
    u = state.u if isinstance(state, SUNState) else np.asarray(state)
    return MatrixSimplexPoint(_extract_blocks(u[None], partition)[0].copy(),
                              check=False)


def extraction_map(partition):
    """Realified u-entries -> realified free Z blocks."""
    ulay = CplxLayout((partition.N, partition.N))
    zlay = simplex_layout(partition.n, partition.d)

    def F(x):
        return zlay.to_real(extract_Z(ulay.from_real(x), partition).Z)

    return F


# -- image operators from exact field arithmetic ------------------------------

def fields_image_entries(u, partition, fields):
    """Entry-space Gamma table and drift of the free blocks under the
    weighted sum of squared fields, computed exactly from uE arithmetic."""
    E, w = _field_tensor(fields, partition.N)
    firsts, seconds = _block_actions(partition, u, E)
    n = partition.n
    v = firsts[:, :n].reshape(len(w), -1)
    L = (w[:, None] * seconds[:, :n].reshape(len(w), -1)).sum(axis=0)
    return _weighted_outers(w, v, v), L


def lpq_weighted_model(N, partition, A):
    """DiffusionModel of (1/2) sum_{p<q} A_pq L^(pq) on the realified group
    entries; its image under extraction is model I with the given weights and
    a_i = d_i - d + 1."""
    A = np.asarray(A, dtype=float)
    if not np.allclose(A, A.T) or np.any(A < 0):
        raise ValueError("weights must be symmetric non-negative")
    E, w = _field_tensor(lpq_field_list(partition, A), N)
    layout = CplxLayout((N, N))
    Esq = (w[:, None, None] * (E @ E)).sum(axis=0)

    def gamma(x):
        v = (layout.from_real(x) @ E).reshape(len(w), N * N)
        return layout.gamma_to_real(layout.assemble_entry_gamma(
            _weighted_outers(w, v, v), _weighted_outers(w, v, v.conj())))

    def drift(x):
        Lz = (layout.from_real(x) @ Esq).ravel()
        return layout.drift_to_real(layout.assemble_entry_drift(Lz))

    return DiffusionModel(layout.real_dim, gamma, drift,
                          domain_test=lambda x: group_distance(
                              layout.from_real(x)) < 1e-2)


def image_params(partition, A=None):
    """Model I parameters of the extracted image: given weights (or the group
    Laplacian's 1/(2N)) and a_i = d_i - d + 1."""
    m = len(partition.sizes)
    if A is None:
        A = np.full((m, m), 1.0 / (2.0 * partition.N))
        np.fill_diagonal(A, 0.0)
    a = np.asarray(partition.sizes, dtype=float) - partition.d + 1.0
    if np.any(a <= 0):
        raise ValueError("extraction needs d_i >= d for every group")
    return Model1Params(np.asarray(A, dtype=float), a)


def verify_casimir_image(N, partition, rng, n_samples=50,
                         tol_g=1e-6, tol_l=1e-4):
    """Pushforward of the group Laplacian through extraction vs model I."""
    ambient = sun_ambient(N)
    F = extraction_map(partition)
    params = image_params(partition)
    ulay = CplxLayout((N, N))

    def closed(x):
        point = extract_Z(ulay.from_real(x), partition)
        return gamma_model1(params, point), drift_model1(params, point)

    points = [ulay.to_real(u) for K in _chunk_sizes(n_samples)
              for u in _haar_draws(N, rng, K, special=True)]
    return check_identity(ambient, F, closed, points, tol_g, tol_l,
                          name="sun-extraction")


# -- simulation ---------------------------------------------------------------

def _brownian_path(u, dt, rng, K):
    """The state after K exact-group Euler steps u' = u exp(sqrt(dt) xi)
    from u.

    xi is Gaussian in the traceless skew-Hermitian algebra with per-pair
    standard deviations 1/sqrt(2N) on the R and S directions and 1/N on the
    D direction, which reproduces the one-step entry covariance 2 Gamma dt
    of the group Laplacian (no-1/2 generator convention). The K elements
    come from one normal draw. Each step is u + (u V) diag(e^{iw} - 1) V*
    from one LAPACK zheevd of the Hermitian H = -i sqrt(dt) xi = V diag(w)
    V*, so the rounding of V's unitarity enters scaled by |e^{iw} - 1| and
    the state drifts off the group less than with expm. The products are
    2-D zgemm calls in order (cheaper than numpy's matmul here), so the
    state is that of K single steps, bit for bit. dt = 0 draws nothing and
    returns u; a negative or non-finite dt raises ValueError.
    """
    if not 0.0 <= dt < math.inf:
        raise ValueError("dt must be finite and >= 0, got %r" % (dt,))
    if dt == 0.0:
        return u
    E, sd = _step_basis(u.shape[0])
    # sd[None] and add.reduce for the sum: the cheapest calls at K = 1
    coef = sd[None] * rng.standard_normal((K, len(sd)))
    xi = np.add.reduce(coef[:, :, None, None] * E, axis=1)
    H = xi * (-1j * math.sqrt(dt))
    for k in range(K):  # indexing, not iterating: cheaper at K = 1
        w, V, info = zheevd(H[k])
        if info:
            raise np.linalg.LinAlgError("zheevd failed (info %d)" % info)
        # positional: f2py parses keywords slowly; beta = 1 adds c = u
        u = zgemm(1.0, zgemm(1.0, u, V) * (np.exp(1j * w) - 1.0), V, 1.0,
                  u, 0, 2)
    return u


def sun_brownian_step(state, dt, rng):
    """One exact-group Euler step; the one-step view of _brownian_path."""
    u = state.u if isinstance(state, SUNState) else np.asarray(state)
    return SUNState(_brownian_path(u, dt, rng, 1), check=False)

"""The complex matrix simplex and its two polynomial diffusion families.

Points are n-tuples of Hermitian non-negative d x d matrices Z^(1)..Z^(n)
with Z^(n+1) = Id - sum Z^(k) also non-negative.  Two co-metric families are
implemented over the realified entry coordinates:

* model I, parametrized by a symmetric (n+1) x (n+1) real weight matrix A
  and exponents a:

      Gamma(Z^(p)_ij, Z^(q)_kl) = delta_pq sum_s A_sp (Z^(s)_il Z^(p)_kj
                                   + Z^(s)_kj Z^(p)_il)
                                  - A_pq (Z^(q)_il Z^(p)_kj + Z^(p)_il Z^(q)_kj)

* model II, parametrized by a Hermitian positive-definite d x d matrix A, a
  Hermitian positive semi-definite d^2 x d^2 tensor B (indexed by entry
  pairs) and exponents a.

Both admit the matrix Dirichlet measure with parameter a as reversible law.

Each model has one pair of kernels, the private _model1_tables and
_model2_tables: its closed forms Gamma and drift as entry tables of
stacked free blocks, with the parameter tables built once per pair.  The
public closed forms (gamma_model1, drift_model1, gamma_model2,
drift_model2 and their _entries tables) are their one-point evaluations,
and are what the calculus oracle checks.  Gamma is quadratic and the
drift affine in the real coordinates x, so the models that `model1` and
`model2` hand to the integrator evaluate the coefficient form

    Gamma(x) = C0 + C1 x + C2 (x (x) x),    b(x) = b0 + B1 x,

stored sparse.  Each model build takes it from the same kernels, in real
coordinates, with the builder in `calculus` that the scalar model of
`simplex` also uses: 1 + 2 dim + dim (dim - 1) / 2 evaluations at the
stencil 0, +-e_i, e_i + e_j, about 0.3 ms at state dimension 4 and 17 ms
(model I) or 30 ms (model II) at 27, at one BLAS thread.  The domain test
of both is one LAPACK Cholesky call on the block-diagonal matrix of the
n + 1 blocks, filled from x by cached index maps.
"""

import functools
import math

import numpy as np
from scipy.linalg import block_diag
from scipy.linalg.lapack import zpotrf

from .calculus import DiffusionModel, _coefficient_form
from .errors import DomainError
from .linalg import _hermitize, sqrtm_psd
from .realify import simplex_layout


class MatrixSimplexPoint:
    """n Hermitian psd matrices with Id - sum also psd."""

    def __init__(self, Z_list, check=True):
        try:
            free = np.asarray(Z_list, dtype=complex)
        except ValueError:
            raise DomainError("inconsistent matrix dimensions") from None
        if free.ndim != 3 or free.shape[1] != free.shape[2]:
            raise DomainError("inconsistent matrix dimensions")
        self.n, self.d = free.shape[:2]
        self.Z = free  # (n, d, d): the free blocks
        if check:
            for Z in self.Z:
                if np.max(np.abs(Z - Z.conj().T)) > 1e-10:
                    raise DomainError("matrix is not Hermitian")
                if np.min(np.linalg.eigvalsh(0.5 * (Z + Z.conj().T))) < -1e-12:
                    raise DomainError("matrix is not psd")
            if np.min(np.linalg.eigvalsh(self.last())) < -1e-12:
                raise DomainError("Id - sum Z is not psd")

    def last(self):
        """Id - sum Z; exactly Hermitian when every Z is, as for points
        read from real coordinates."""
        return np.eye(self.d) - self.Z.sum(axis=0)

    def all_blocks(self):
        """All n+1 blocks, the last one included, as an (n+1, d, d) array."""
        out = np.empty((self.n + 1, self.d, self.d), dtype=complex)
        out[:self.n] = self.Z
        out[self.n] = self.last()
        return out


def point_to_real(point):
    return simplex_layout(point.n, point.d).to_real(point.Z)


def real_to_point(x, n, d):
    return MatrixSimplexPoint(simplex_layout(n, d).from_real(x), check=False)


@functools.cache
def _block_diagonal_slots(n, d):
    """Read-only maps of in_matrix_simplex: per real coordinate of the n
    free blocks, then of the last one, its float slot in the upper triangle
    of block-diagonal Fortran-ordered complex ((n+1)d)^2 storage; and Id."""
    layout = simplex_layout(1, d)
    entry, part = np.divmod(layout._take, 2)
    i, j = np.divmod(entry, d)
    k = d * np.arange(n + 1)[:, None]
    slots = 2 * (k + i + (k + j) * (n + 1) * d) + part
    maps = slots[:n].ravel(), slots[n], layout.to_real(np.eye(d))
    for arr in maps:
        arr.flags.writeable = False
    return maps


def in_matrix_simplex(x, n, d, margin=1e-12):
    """Whether every block of x, Id - sum Z included, exceeds margin * Id.

    The test is one LAPACK Cholesky factorisation of the block-diagonal
    diag(Z_1 .. Z_n, Id - sum Z) - margin * Id, filled from x by index
    maps: x is inside when each block has all eigenvalues above margin.
    The entries off the blocks are 0, so each block factors as if alone.
    Points whose smallest block eigenvalue lies within roundoff of margin
    may go either way.  A negative margin admits points that far outside
    the simplex; a NaN or infinite one raises ValueError.  A point with a
    NaN or infinite coordinate is outside (Cholesky does not flag NaN).
    """
    if not abs(margin) < np.inf:  # NaN too, which every pivot would pass
        raise ValueError("margin must be finite, got %r" % (margin,))
    x = np.asarray(x, dtype=float)
    if np.count_nonzero(np.isfinite(x)) < x.size:  # faster than .all()
        return False
    free, last, eye = _block_diagonal_slots(n, d)
    N = (n + 1) * d
    a = np.zeros(2 * N * N)
    a.put(free, x)
    # Id - sum Z, the blocks added in order as Z.sum(axis=0) adds them;
    # a loop of slices costs less than a reduction call at small n
    m = d * d
    s = x[:m]
    for k in range(m, n * m, m):
        s = s + x[k:k + m]
    a.put(last, eye - s)
    a[::2 * N + 2] -= margin  # the real parts of the diagonal
    # upper triangle, no clean-up, in place: passed by position, as f2py
    # takes longer to parse the keywords than to factor the matrix
    return zpotrf(a.view(complex).reshape(N, N).T, 0, 0, 1)[1] == 0


def _ginibre_squares(d, dims, rng, K):
    """G G* for one standard complex Ginibre d x r matrix G per r in dims
    (entry variance 2), for each of K draws: independent complex Wishart
    blocks, stacked as (K, len(dims), d, d).

    All normals come from one (K, 2 d sum(dims)) array.  Row k holds draw
    k's blocks in turn, each as the Re and then the Im part of its d x r
    matrix, so K draws read the stream exactly as K draws of one do.
    """
    dims = [int(r) for r in dims]
    z = rng.standard_normal((K, 2 * d * sum(dims)))
    out = np.empty((K, len(dims), d, d), dtype=complex)
    off = 0
    for p, r in enumerate(dims):
        size = d * r
        G = (z[:, off:off + size].reshape(K, d, r)
             + 1j * z[:, off + size:off + 2 * size].reshape(K, d, r))
        out[:, p] = G @ G.conj().swapaxes(1, 2)
        off += 2 * size
    return out


def _direct_draws(d, dims, rng, K):
    """K exact matrix Dirichlet draws with a_p = d_p - d + 1 via Wishart
    ratios S^(-1/2) W^(p) S^(-1/2), S = sum W: the free blocks as a
    (K, n, d, d) stack.  Draw k has the bits of the k-th of K sequential
    sample_matrix_dirichlet_direct calls on the same rng."""
    Ws = _ginibre_squares(d, dims, rng, K)
    # one add per block, in order, as Python's sum over one draw's blocks
    # does; Ws.sum(axis=1) groups the adds differently and moves the bits
    S = np.zeros((K, d, d), dtype=complex)
    for p in range(len(dims)):
        S += Ws[:, p]
    Tis = np.linalg.inv(sqrtm_psd(S))[:, None]
    return _hermitize(Tis @ Ws[:, :-1] @ Tis)


def sample_matrix_dirichlet_direct(d, dims, rng):
    """Exact matrix Dirichlet draw with a_p = d_p - d + 1 via Wishart ratios."""
    return MatrixSimplexPoint(_direct_draws(d, dims, rng, 1)[0], check=False)


def sample_interior(n, d, rng, margin=1e-6):
    """Random point at least margin inside: a matrix Dirichlet draw with
    every Wishart degree d + 1, redrawn until inside."""
    if not margin < 1.0 / (n + 1):  # the n + 1 blocks sum to Id
        raise ValueError("the %d blocks cannot all exceed %r * Id"
                         % (n + 1, margin))
    dims = [d + 1] * (n + 1)
    while True:
        point = sample_matrix_dirichlet_direct(d, dims, rng)
        if in_matrix_simplex(point_to_real(point), n, d, margin=margin):
            return point


# -- matrix Dirichlet measure -------------------------------------------------

def log_gamma_d(a, d):
    """log of the complex multivariate gamma function."""
    return (0.5 * d * (d - 1) * np.log(np.pi)
            + float(np.sum([math.lgamma(a + d - k) for k in range(1, d + 1)])))


def matrix_dirichlet_log_density(a, point):
    a = np.asarray(a, dtype=float)
    blocks = point.all_blocks()
    d = point.d
    # normalizer: the density integrates prod det^(a_k - 1), whose total mass
    # is prod Gamma_d(a_k) / Gamma_d(sum a), so the log-normalizer is the
    # reciprocal of that product
    log_norm = log_gamma_d(np.sum(a), d) - sum(log_gamma_d(ak, d) for ak in a)
    total = log_norm
    for ak, Z in zip(a, blocks):
        sign, logdet = np.linalg.slogdet(Z)
        if sign <= 0 or logdet < -690.0:
            raise DomainError("determinant vanishes at this point")
        total += (ak - 1.0) * logdet
    return float(total)


def matrix_dirichlet_grad_log(a, point):
    """Gradient of the log density over the realified coordinates."""
    a = np.asarray(a, dtype=float)
    n, d = point.n, point.d
    layout = simplex_layout(n, d)
    blocks = point.all_blocks()
    if np.min(np.linalg.eigvalsh(blocks)) <= 0:
        raise DomainError("gradient needs a strictly interior point")
    # d/dZ^(p)_ij of log det Z^(p) is (Z^(p)^-1)_ji, and the last block
    # depends on Z^(p) with a minus sign
    invs = np.linalg.inv(blocks).swapaxes(1, 2)
    g = (a[:n] - 1.0)[:, None, None] * invs[:n] - (a[n] - 1.0) * invs[n]
    return layout.grad_to_real(g.reshape(-1))


# -- model I ------------------------------------------------------------------

class Model1Params:
    def __init__(self, A, a):
        A = np.asarray(A, dtype=float)
        a = np.asarray(a, dtype=float)
        if not (np.isfinite(A).all() and np.isfinite(a).all()):
            raise ValueError("A and a must be finite")
        if A.shape != (a.size, a.size) or not np.allclose(A, A.T):
            raise ValueError("A must be symmetric (n+1)x(n+1) matching a")
        if np.any(a <= 0):
            raise ValueError("a must be positive")
        self.A = A
        self.a = a
        self.n = a.size - 1


def _model1_tables(params, d):
    """Model I's closed forms at block size d, as kernels (gamma, drift) of
    stacked free blocks Z, (S, n, d, d), with the parameter tables built
    once: K[p, q, s] = delta_pq A_sp - delta_sq A_pq weighs
    Z^(s)_il Z^(p)_kj + Z^(p)_il Z^(s)_kj, over all n+1 blocks, in the
    (p, q) block of the entry table of Gamma, (S, n d^2, n d^2), and the
    entry drift, (S, n d^2), of block p is sum_s w_ps Z^(s)."""
    n, A, a = params.n, params.A, params.a
    diag = np.arange(n)
    K = np.zeros((n, n, n + 1))
    K[diag, diag] = A[:, :n].T
    K[:, diag, diag] -= A[:n, :n]
    # sum_q 2 A_pq ((a_p + d - 1) Z^(q) - (a_q + d - 1) Z^(p))
    c = 2.0 * (a + d - 1.0)
    w = c[:n, None] * A[:n]
    w[diag, diag] -= A[:n] @ c
    m = n * d * d

    def blocks(Z):  # all n+1 blocks of each point, as all_blocks
        return np.concatenate(
            [Z, np.eye(d) - Z.sum(axis=1, keepdims=True)], axis=1)

    def gamma(Z):
        # points on the fastest axis of memory: einsum then runs its inner
        # loops over them, about twice as fast, and its three-operand sums
        # still add term by term in s order, so the bits stay
        Y = np.asfortranarray(blocks(Z))
        T = np.einsum("pqs,...sil,...pkj->...pijqkl", K, Y, Y[:, :n])
        T += np.einsum("pqs,...pil,...skj->...pijqkl", K, Y[:, :n], Y)
        return T.reshape(len(Z), m, m)

    def drift(Z):
        return np.einsum("ps,...sij->...pij", w, blocks(Z)).reshape(len(Z), m)

    return gamma, drift


def gamma_model1_entries(params, point):
    """Entry-space Gamma table of model I (free blocks only)."""
    return _model1_tables(params, point.d)[0](point.Z[None])[0]


def gamma_model1(params, point):
    layout = simplex_layout(point.n, point.d)
    return layout.gamma_to_real(gamma_model1_entries(params, point))


def drift_model1_entries(params, point):
    return _model1_tables(params, point.d)[1](point.Z[None])[0]


def drift_model1(params, point):
    layout = simplex_layout(point.n, point.d)
    return layout.drift_to_real(drift_model1_entries(params, point))


def model1(params, d):
    """Model I over the real coordinates of n = params.n blocks of size d,
    integrated through its quadratic coefficient form."""
    return _coefficient_model(params, d)


def ellipticity_model1(params, d, sampler, n_samples=20):
    """Structural + numerical ellipticity check for model I.

    Returns (is_elliptic, witness): when the weight graph is disconnected the
    witness is a realified null direction of Gamma (supported away from the
    component of the last block); when some weight is negative the witness is
    None (structural failure only).
    """
    A = params.A
    n = params.n
    layout = simplex_layout(n, d)
    if np.any(A < 0):
        return False, None
    # blocks joined to the last one through positive weights
    reach = np.arange(n + 1) == n
    for _ in range(n):
        reach |= (A[reach] > 0).any(axis=0)
    if not reach.all():
        # null direction: test matrices Id on every block not joined to
        # the last one, zero elsewhere
        g = np.zeros((n, d, d), dtype=complex)
        g[~reach[:n]] = np.eye(d)
        witness = layout.grad_to_real(g.reshape(-1))
        return False, witness
    for _ in range(n_samples):
        point = sampler()
        w = np.linalg.eigvalsh(gamma_model1(params, point))
        if w.min() <= 1e-12:
            return False, None
    return True, None


# -- model II -----------------------------------------------------------------

class Model2Params:
    """Hermitian pd A (d x d), Hermitian psd B (d,d,d,d tensor) and
    exponents a, one per block: n = a.size - 1 free blocks.

    B[i, a, l, b] is the coefficient coupling entry pair (i,a) with (l,b);
    Hermitian means B[i,a,l,b] = conj(B[l,b,i,a]).
    """

    def __init__(self, A, B, a):
        A = np.asarray(A, dtype=complex)
        B = np.asarray(B, dtype=complex)
        a = np.asarray(a, dtype=float)
        if not all(np.isfinite(v).all() for v in (A, B, a)):
            raise ValueError("A, B and a must be finite")
        d = A.shape[0]
        if A.shape != (d, d) or np.max(np.abs(A - A.conj().T)) > 1e-12:
            raise ValueError("A must be Hermitian")
        if B.shape != (d, d, d, d):
            raise ValueError("B must be a (d,d,d,d) tensor")
        Bmat = B.reshape(d * d, d * d)
        if np.max(np.abs(Bmat - Bmat.conj().T)) > 1e-12:
            raise ValueError("B must be Hermitian as a d^2 x d^2 matrix")
        if np.any(a <= 0):
            raise ValueError("a must be positive")
        self.A = A
        self.B = B
        self.a = a
        self.d = d
        self.n = a.size - 1


def _model2_tables(params):
    """Model II's closed forms, as kernels (gamma, drift) of stacked free
    blocks Z, (S, n, d, d), with the drift's parameter terms built once:
    the entry table of Gamma, (S, n d^2, n d^2), and the entry drift,
    (S, n d^2).  With P_pq = Z^(p) Z^(q) - delta_pq Z^(p), the A terms of
    Gamma are -A_kj (P_pq)_il - A_il (P_qp)_kj, a table plus its transpose.
    The four B terms are the commutator [Z^(q), W_pij^T]_kl with
    W_pij[x, y] = sum_a B_iaxy Z^(p)_aj - Z^(p)_ia B_ajxy."""
    n, d, A, B, a = params.n, params.d, params.A, params.B, params.a
    # the constant 2 (a_p - 1 + d) A of block p and the coefficient of
    # A Z + Z A in the drift
    base = (2.0 * (a[:n] - 1.0 + d))[:, None, None] * A
    coeff = float(np.sum(a[:n] - 1.0 + d) + (a[n] - 1.0))

    def gamma(Z):
        _model2_n(params, Z.shape[1])
        lead = Z.shape[:1]
        P = Z[..., :, None, :, :] @ Z[..., None, :, :, :]
        P.reshape(lead + (n * n, d, d))[..., ::n + 1, :, :] -= Z
        X = np.einsum("kj,...pqil->...pijqkl", A, P)
        W = np.einsum("iaxy,...paj->...pijxy", B, Z)
        W -= (Z @ B.reshape(d, d ** 3)).reshape(lead + (n, d, d, d, d))
        Wt = W.swapaxes(-2, -1)[..., None, :, :]
        Zq = Z[..., None, None, None, :, :, :]
        T = Zq @ Wt
        T -= Wt @ Zq
        T -= X
        T -= X.transpose(0, 4, 5, 6, 1, 2, 3)
        return T.reshape(lead + (n * d * d, n * d * d))

    def drift(Z):
        _model2_n(params, Z.shape[1])
        out = base - coeff * (A @ Z + Z @ A)
        out -= 2.0 * np.trace(Z, axis1=-2, axis2=-1)[..., None, None] * A
        out += np.einsum("iajb,...pab->...pij", B, Z)
        out += np.einsum("bjai,...pab->...pij", B, Z)
        out -= np.einsum("iaba,...pbj->...pij", B, Z)
        out -= np.einsum("bjba,...pia->...pij", B, Z)
        return out.reshape(len(Z), -1)

    return gamma, drift


def gamma_model2_entries(params, point):
    """Entry-space Gamma table of model II, indexed [p, i, j, q, k, l]."""
    return _model2_tables(params)[0](point.Z[None])[0]


def gamma_model2(params, point):
    layout = simplex_layout(point.n, point.d)
    return layout.gamma_to_real(gamma_model2_entries(params, point))


def drift_model2_entries(params, point):
    return _model2_tables(params)[1](point.Z[None])[0]


def drift_model2(params, point):
    layout = simplex_layout(point.n, point.d)
    return layout.drift_to_real(drift_model2_entries(params, point))


def _model2_n(params, n):
    """params.n, after checking that it is at least 1 and that a given
    number of blocks n agrees."""
    if params.n < 1:
        raise ValueError("model II with one exponent has no free block")
    if n is not None and n != params.n:
        raise ValueError("model II with %d exponents has %d blocks, not %r"
                         % (params.n + 1, params.n, n))
    return params.n


def model2(params, n=None):
    """Model II over the real coordinates of params.n blocks of size
    params.d, integrated through its quadratic coefficient form."""
    _model2_n(params, n)
    return _coefficient_model(params, params.d)


# -- quadratic coefficient form -----------------------------------------------

def _real_kernels(params, d):
    """Model I or II at block size d: the number dim of real coordinates,
    the closed forms as kernels (gamma, drift) of stacks of points
    (S, dim), with the parameter tables built once, and the domain test.
    Model II fixes its block size: d must equal params.d."""
    if isinstance(params, Model1Params):
        gamma_table, drift_table = _model1_tables(params, d)
    elif d != params.d:
        raise ValueError("model II with a %d x %d matrix A has block size "
                         "%d, not %r" % (params.d, params.d, params.d, d))
    else:
        gamma_table, drift_table = _model2_tables(params)
    n = params.n
    layout = simplex_layout(n, d)

    def gamma(X):
        return layout.gamma_to_real(gamma_table(layout.from_real(X)))

    def drift(X):
        return layout.drift_to_real(drift_table(layout.from_real(X)))

    return layout.real_dim, gamma, drift, lambda x: in_matrix_simplex(x, n, d)


def _closed_form_model(params, d):
    """Model I or II at block size d evaluating its closed forms at each
    call, with the bits of gamma_model1, drift_model1 (or gamma_model2,
    drift_model2): what the calculus oracle checks."""
    dim, gamma, drift, domain_test = _real_kernels(params, d)
    return DiffusionModel(dim, lambda x: gamma(np.asarray(x)[None])[0],
                          lambda x: drift(np.asarray(x)[None])[0], domain_test)


def _coefficient_model(params, d):
    """Model I or II at block size d integrated through the coefficient
    form of the same kernels (see calculus._coefficient_form)."""
    dim, gamma, drift, domain_test = _real_kernels(params, d)
    gamma, drift = _coefficient_form(dim, gamma, drift)
    return DiffusionModel(dim, lambda x: gamma(x), lambda x: drift(x),
                          domain_test)


# -- spectrum identity --------------------------------------------------------

def sylvester_spectrum(point):
    """Eigenvalues of Id_nd - (Z^-1/2 Y)(Z^-1/2 Y)*.

    Z is the block diagonal of Z^(1)..Z^(n) and Y their vertical stack; the
    spectrum is {1} with multiplicity (n-1)d together with the spectrum of
    Z^(n+1).  Returns the eigenvalues ascending.
    """
    n, d = point.n, point.d
    if np.min(np.linalg.eigvalsh(point.Z)) <= 0:
        raise DomainError("blocks must be positive definite")
    Zis = np.linalg.inv(sqrtm_psd(block_diag(*point.Z)))
    C = Zis @ point.Z.reshape(n * d, d)
    M = np.eye(n * d) - C @ C.conj().T
    return np.linalg.eigvalsh(M)


# -- parameter files ----------------------------------------------------------

def _complex_to_json(z):
    return [float(np.real(z)), float(np.imag(z))]

def _json_to_complex(v):
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)


def params_to_json(params, n=None, d=None):
    """JSON-ready dict of model parameters; model I needs the block size d.
    Model II takes n from its exponents; a given n must equal params.n."""
    if isinstance(params, Model1Params):
        if d is None:
            raise ValueError("a model I file needs the block size d")
        return {"schema": 1, "model": "I", "n": params.n, "d": int(d),
                "A": params.A.tolist(), "a": params.a.tolist()}
    n = _model2_n(params, n)
    d = params.d
    A = [[_complex_to_json(params.A[i, j]) for j in range(d)]
         for i in range(d)]
    Bmat = params.B.reshape(d * d, d * d)
    B = [[_complex_to_json(Bmat[i, j]) for j in range(d * d)]
         for i in range(d * d)]
    return {"schema": 1, "model": "II", "n": n, "d": d,
            "A": A, "B": B, "a": params.a.tolist()}


def _positive_int_field(obj, key):
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError("%r must be a positive integer, got %r"
                         % (key, value))
    return value


def params_from_json(obj):
    """Returns (params, n, d) from a parsed parameter dict.

    Raises ValueError unless obj is a schema-1 object of model I or II
    with positive integers n and d and n + 1 exponents a.
    """
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object, got %s"
                         % type(obj).__name__)
    if obj.get("schema") != 1:
        raise ValueError("unsupported schema")
    model = obj.get("model")
    if model not in ("I", "II"):
        raise ValueError("unknown model %r" % (model,))
    n = _positive_int_field(obj, "n")
    d = _positive_int_field(obj, "d")
    try:
        a = np.asarray(obj["a"], dtype=float)
        if a.shape != (n + 1,):
            raise ValueError("n = %d needs %d exponents a, got shape %s"
                             % (n, n + 1, a.shape))
        if model == "I":
            return Model1Params(np.asarray(obj["A"], dtype=float), a), n, d
        A = np.array([[_json_to_complex(v) for v in row]
                      for row in obj["A"]])
        Bmat = np.array([[_json_to_complex(v) for v in row]
                         for row in obj["B"]])
        params = Model2Params(A, Bmat.reshape(d, d, d, d), a)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError("malformed parameters (%s: %s)"
                         % (type(exc).__name__, exc)) from None
    if params.d != d:
        raise ValueError("d = %d but A is %d x %d" % (d, params.d, params.d))
    return params, n, d

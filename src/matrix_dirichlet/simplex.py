"""Scalar Dirichlet diffusions on the simplex and their ambient constructions.

The model on the open simplex {x_i > 0, sum x_i < 1} is parametrized by a
symmetric non-negative weight matrix A (size (n+1) x (n+1), zero diagonal)
and a positive vector a, with

    Gamma(x_i, x_j) = -A_ij x_i x_j + delta_ij sum_k A_ik x_k x_i
    L(x_i)          = -x_i sum_j A_ij a_j + a_i sum_j A_ij x_j

where x_{n+1} = 1 - sum x_i.  Its reversible law is the Dirichlet
distribution with parameter a.  Three ambient constructions (rotation fields
on the sphere, independent one-dimensional square-root processes, and a
weighted radial/angular product) project onto it.

The closed forms gamma_simplex and drift_simplex, one-point views of the
kernel pair _scalar_tables, are what the calculus oracle checks.
`scalar_model` integrates through the coefficient form that the builder in
`calculus` takes from the same kernels, as models I and II do.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .calculus import DiffusionModel, _coefficient_form
from .errors import DomainError, OffSphereError
from .poly import MultiPoly


class ScalarModelParams:
    """Weights A and Dirichlet exponents a for the simplex model."""

    def __init__(self, A, a):
        A = np.asarray(A, dtype=float)
        a = np.asarray(a, dtype=float)
        if not (np.isfinite(A).all() and np.isfinite(a).all()):
            raise ValueError("A and a must be finite")
        if A.shape != (a.size, a.size):
            raise ValueError("A must be (n+1)x(n+1) matching a")
        if not np.allclose(A, A.T):
            raise ValueError("A must be symmetric")
        if np.any(A < 0):
            raise ValueError("A must be non-negative")
        if np.any(np.abs(np.diag(A)) > 0):
            raise ValueError("A must have zero diagonal")
        if np.any(a <= 0):
            raise ValueError("a must be positive")
        self.A = A
        self.a = a
        self.n = a.size - 1
        # the closed forms' kernels, with their parameter factors built once
        self._tables = _scalar_tables(self)


def full_coordinates(x):
    """Append the implied last coordinate x_{n+1} = 1 - sum x_i."""
    x = np.asarray(x, dtype=float)
    xf = np.empty(x.size + 1)
    xf[:-1] = x.ravel()
    xf[-1] = 1.0 - x.sum()
    return xf


def in_simplex(x, margin=0.0):
    x = np.asarray(x, dtype=float)
    # NaN fails each >=; with no coordinates only x_{n+1} = 1 is tested
    return bool(x.min(initial=np.inf) >= margin and 1.0 - x.sum() >= margin)


def _scalar_tables(params):
    """The closed forms as unchecked kernels (gamma, drift) of full
    coordinates xf, one point (n + 1,) or a stack (S, n + 1): Gamma
    (..., n, n) and drift (..., n).  A @ xf[..., None] is one
    matrix-vector product per point, so each point of a stack has the
    bits it has alone."""
    n, A, a = params.n, params.A, params.a
    minus_A = -A[:n, :n]
    A_a = A[:n] @ a  # sum_j A_ij a_j for i = 1..n
    a, A = a[:n], A[:n]

    def gamma(xf):
        x = xf[..., :n]
        row_sums = (A @ xf[..., None])[..., 0]  # sum_k A_ik x_k, i = 1..n
        # (-A_ij x_i) x_j, multiplied in that order
        G = minus_A * x[..., None]
        G *= x[..., None, :]
        G.reshape(*G.shape[:-2], n * n)[..., ::n + 1] += row_sums * x
        return G

    def drift(xf):
        return -xf[..., :n] * A_a + a * (A @ xf[..., None])[..., 0]

    return gamma, drift


def _checked_full_coordinates(x):
    xf = full_coordinates(x)
    if not (xf >= -1e-12).all():  # NaN fails each >=
        raise DomainError("point outside the simplex")
    return xf


def gamma_simplex(params, x):
    return params._tables[0](_checked_full_coordinates(x))


def drift_simplex(params, x):
    return params._tables[1](_checked_full_coordinates(x))


def _closed_form_scalar_model(params):
    """The simplex model evaluating gamma_simplex and drift_simplex at
    each call: what the calculus oracle checks."""
    return DiffusionModel(params.n, lambda x: gamma_simplex(params, x),
                          lambda x: drift_simplex(params, x),
                          domain_test=lambda x: in_simplex(x, 1e-12))


def scalar_model(params, margin=1e-12):
    """The simplex model, integrated through the quadratic coefficient
    form of its closed forms (see calculus._coefficient_form), which
    does not check the domain; the domain test admits the points at
    least margin inside.  The form's error is roundoff of |A|, and Gamma
    vanishes at a vertex: margin must be at least 1e-12 (at 1e-16,
    Gamma can come out indefinite).  Raises ValueError for n = 0."""
    if params.n < 1:
        raise ValueError("the scalar model needs n >= 1, got n = 0")
    if not 1e-12 <= margin < np.inf:
        raise ValueError("margin must be finite and at least 1e-12, got %r"
                         % (margin,))
    def full(X):
        return np.concatenate([X, 1.0 - X.sum(axis=1, keepdims=True)], 1)

    gamma, drift = _coefficient_form(
        params.n, lambda X: params._tables[0](full(X)),
        lambda X: params._tables[1](full(X)))
    return DiffusionModel(params.n, lambda x: gamma(x), lambda x: drift(x),
                          domain_test=lambda x: in_simplex(x, margin))


def dirichlet_log_density(a, x):
    a = np.asarray(a, dtype=float)
    xf = full_coordinates(x)
    if np.any(xf <= 0):
        raise DomainError("log density needs a strictly interior point")
    log_norm = math.lgamma(np.sum(a)) - np.sum([math.lgamma(v) for v in a])
    return float(log_norm + np.sum((a - 1.0) * np.log(xf)))


def dirichlet_grad_log(a, x):
    a = np.asarray(a, dtype=float)
    xf = full_coordinates(x)
    if np.any(xf <= 0):
        raise DomainError("gradient needs a strictly interior point")
    n = a.size - 1
    return (a[:n] - 1.0) / xf[:n] - (a[n] - 1.0) / xf[n]


def sample_dirichlet(a, rng, margin=1e-10):
    """Interior Dirichlet sample via normalized gamma draws."""
    a = np.asarray(a, dtype=float)
    while True:
        g = rng.gamma(shape=a)
        s = np.sum(g)
        x = g[:-1] / s
        if in_simplex(x, margin=margin):
            return x


def simplex_gamma_polys(A_rational, n):
    """Exact MultiPoly co-metric table of the simplex model.

    A_rational: (n+1) x (n+1) nested list of Fractions/ints.  Variables are
    x1..xn with x_{n+1} substituted as 1 - x1 - ... - xn.
    """
    variables = tuple("x%d" % (i + 1) for i in range(n))
    xs = [MultiPoly.var(v, variables) for v in variables]
    last = MultiPoly.const(1, variables)
    for xi in xs:
        last = last - xi
    xall = xs + [last]
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            p = (-Fraction(A_rational[i][j])) * (xall[i] * xall[j])
            if i == j:
                acc = MultiPoly(variables)
                for k in range(n + 1):
                    acc = acc + Fraction(A_rational[i][k]) * xall[k]
                p = p + acc * xall[i]
            row.append(p)
        table.append(row)
    return table, variables


def _partition_sets(p_sizes):
    starts = np.cumsum([0] + list(p_sizes)).tolist()
    return [list(range(a, a + p)) for a, p in zip(starts, p_sizes)], starts[-1]


class _RotationFields:
    """Weighted rotation fields y_p d_q - y_q d_p across block pairs, as
    stacked real (F, N, N) matrices R (the field at y is R y) and weights w.
    Gamma = sum w (R y)(R y)^T and drift = sum w R^2 y, each summed in order
    over the field axis."""

    def __init__(self, p_sizes, A):
        self.sets, self.N = _partition_sets(p_sizes)
        fields = []
        # weight 1/4 per unordered block pair makes the image of the generator
        # exactly the simplex model with the given A (the squared-sum map
        # doubles each quadratic field contribution)
        for i, j in itertools.combinations(range(len(p_sizes)), 2):
            w = 0.25 * A[i][j]
            if w != 0.0:
                fields += [(p, q, w) for p, q in
                           itertools.product(self.sets[i], self.sets[j])]
        p, q, self.w = np.array(fields).reshape(-1, 3).T
        p, q, f = p.astype(int), q.astype(int), np.arange(len(fields))
        self.R = np.zeros((len(fields), self.N, self.N))
        self.R[f, q, p] = 1.0
        self.R[f, p, q] = -1.0
        self.R2 = self.R @ self.R

    def gamma(self, y):
        v = self.R @ y
        return (self.w[:, None, None] * (v[:, :, None] * v[:, None, :])).sum(0)

    def drift(self, y):
        return (self.w[:, None] * (self.R2 @ y)).sum(axis=0)


def sphere_ambient(p_sizes, A):
    """Weighted rotation-field diffusion on the sphere and the squared-sum map.

    Returns (model, projection): the model is (1/4) sum_{i<j} A_ij L_ij built
    from the fields y_p d_q - y_q d_p (L_ij the sum of squared rotation
    fields across blocks i and j); the projection sends y to
    x_i = sum_{j in I_i} y_j^2, i = 1..n.  Its image is the simplex model
    with the same A and a_i = p_i / 2.
    """
    rot = _RotationFields(p_sizes, A)
    sets, N = rot.sets, rot.N
    n = len(p_sizes) - 1

    def check(y):
        if abs(np.dot(y, y) - 1.0) > 1e-8:
            raise OffSphereError("|y|^2 = %.6f" % np.dot(y, y))
        return y

    def gamma(y):
        return rot.gamma(check(y))

    def drift(y):
        return rot.drift(check(y))

    model = DiffusionModel(N, gamma, drift)

    def project(y):
        return np.array([np.sum(np.asarray(y)[sets[i]] ** 2)
                         for i in range(n)])

    return model, project


def sample_sphere(N, rng):
    y = rng.standard_normal(N)
    return y / np.linalg.norm(y)


def laguerre_ambient(a):
    """Independent square-root (Laguerre-type) processes and the (S, z) map.

    The ambient model on positive coordinates has Gamma = diag(y) and drift
    a_i - y_i.  The projection returns (S, z_1..z_n) with S = sum y and
    z_i = y_i / S; in those coordinates L(S) = abar - S, Gamma(S,S) = S,
    Gamma(S, z_i) = 0, Gamma(z_i, z_j) = (delta_ij z_i - z_i z_j)/S and
    L(z_i) = (a_i - abar z_i)/S with abar = sum a_i.
    """
    a = np.asarray(a, dtype=float)
    m = a.size
    n = m - 1

    def gamma(y):
        if np.any(np.asarray(y) <= 0):
            raise DomainError("coordinates must be positive")
        return np.diag(np.asarray(y, dtype=float))

    def drift(y):
        if np.any(np.asarray(y) <= 0):
            raise DomainError("coordinates must be positive")
        return a - np.asarray(y, dtype=float)

    model = DiffusionModel(m, gamma, drift,
                           domain_test=lambda y: bool(np.all(np.asarray(y) > 0)))

    def project(y):
        y = np.asarray(y, dtype=float)
        S = np.sum(y)
        return np.concatenate([[S], y[:n] / S])

    return model, project


def ou_warped_ambient(p_sizes, A):
    """Radial Ornstein-Uhlenbeck warped with weighted rotation fields.

    Cartesian model on R^N \\ {0}: the radial part contributes
    Gamma_rad(y_a, y_b) = y_a y_b / r^2 and drift (N-1) y_a / r^2 - y_a;
    the angular part is (1/4r^2) sum_{i<j} A_ij L_ij.  The projection maps to
    (S = r^2, z_1..z_n) with z_i = x_i / S, x_i = sum_{j in I_i} y_j^2.
    """
    rot = _RotationFields(p_sizes, A)
    sets, N = rot.sets, rot.N
    n = len(p_sizes) - 1

    def gamma(y):
        y = np.asarray(y, dtype=float)
        r2 = np.dot(y, y)
        if r2 < 1e-12:
            raise DomainError("origin is outside the domain")
        return np.outer(y, y) / r2 + rot.gamma(y) / r2

    def drift(y):
        y = np.asarray(y, dtype=float)
        r2 = np.dot(y, y)
        if r2 < 1e-12:
            raise DomainError("origin is outside the domain")
        return (N - 1.0) * y / r2 - y + rot.drift(y) / r2

    model = DiffusionModel(
        N, gamma, drift,
        domain_test=lambda y: bool(np.dot(y, y) > 1e-12))

    def project(y):
        y = np.asarray(y, dtype=float)
        S = np.dot(y, y)
        xs = np.array([np.sum(y[sets[i]] ** 2) for i in range(n)])
        return np.concatenate([[S], xs / S])

    return model, project

"""Chain-rule pushforward engine and identity/boundary/reversibility checks.

The generator convention throughout is

    L(f) = sum_ij g^ij d2_ij f + sum_i b^i d_i f        (no 1/2 in front)

so for a smooth projection F the image operators are

    Gamma(F, F) = J G J^T
    L(F)        = J b + sum_ij G_ij d2_ij F

with J the Jacobian of F.  The Hessian contraction is evaluated through the
spectral directions of G (directional second differences with Richardson
extrapolation), which is algebraically identical to the full contraction but
needs O(dim) instead of O(dim^2) evaluations of F.

Every derivative, first and second, comes from one stencil routine: first
differences (the Jacobian J, the numeric gradient of a log-density and the
divergence of the co-metric) step coordinate i by h (1 + |x_i|), second
differences step along an eigenvector of G by h and h/2, and the step is
quartered up to three times while a stencil point leaves the domain.
"""

import numpy as np

from .errors import DerivativeError, RankDeficientFit

_H = 1e-5   # first-derivative step scale (before the 1 + |x_i| factor)
_H2 = 1e-3  # step scale of the generator's directional second differences


class DiffusionModel:
    """A coordinate chart with co-metric and drift callables."""

    def __init__(self, dim, gamma, drift, domain_test=None):
        self.dim = dim
        self.gamma = gamma
        self.drift = drift
        self.domain_test = domain_test if domain_test is not None else (lambda x: True)


_STENCIL_BATCH = 16  # stencil points per batched closed-form evaluation


def _coefficient_form(dim, gamma, drift):
    """Evaluators (gamma, drift) of one point x, (dim,), of the closed
    forms gamma(X), (S, dim, dim), and drift(X), (S, dim), of stacks of
    real coordinates X, (S, dim), through their coefficient form
    Gamma(x) = C0 + C1 x + C2 (x (x) x), b(x) = b0 + B1 x.  Neither
    evaluator checks the domain.

    The coefficients are taken once, here, by differences at the stencil
    0, +-e_i, e_i + e_j (exact up to roundoff for a quadratic Gamma and
    an affine b), _STENCIL_BATCH points at a time; only the non-zero
    coefficients of Gamma's upper triangle are kept.  Monomial
    p (dim + 1) + q is the product of entries p <= q of (1, x); the
    drift's monomial i + 1 indexes (1, x).  Gamma and b then cost one
    gather of monomials and one np.bincount each, which sums in a fixed
    order, so the bits do not depend on the BLAS thread count.  Gamma's
    upper triangle (np.triu_indices order) fills both halves through one
    more gather: it is exactly symmetric.
    """
    m = dim + 1
    n_upper = dim * m // 2
    eye = np.eye(dim)
    iu = np.triu_indices(dim)
    parts = []

    def keep(G, monomial):
        # G's non-zero upper-triangle coefficients, one table per monomial
        coef = G[:, iu[0], iu[1]]
        row, slot = np.nonzero(coef)
        parts.append((slot, monomial[row], coef[row, slot]))

    # 0 and +-e_i: the constant, linear and square terms
    G0 = gamma(np.zeros((1, dim)))
    keep(G0, np.zeros(1, dtype=np.intp))
    unit = np.empty((dim, dim, dim))  # Gamma(e_i) - Gamma(0)
    for start in range(0, dim, _STENCIL_BATCH):
        i = np.arange(start, min(start + _STENCIL_BATCH, dim))
        G = gamma(np.concatenate([eye[i], -eye[i]]))
        Gp, Gm = G[:i.size], G[i.size:]
        keep(0.5 * (Gp - Gm), i + 1)
        keep(0.5 * (Gp + Gm) - G0, (i + 1) * (m + 1))
        unit[i] = Gp - G0
    # e_i + e_j: the cross terms
    pi, pj = np.triu_indices(dim, 1)
    for start in range(0, pi.size, _STENCIL_BATCH):
        batch = slice(start, start + _STENCIL_BATCH)
        p, q = pi[batch], pj[batch]
        G = gamma(eye[p] + eye[q]) - G0
        G -= unit[p]
        G -= unit[q]
        keep(G, (p + 1) * m + q + 1)
    g_slot, g_mono, g_coef = (np.concatenate(col) for col in zip(*parts))
    b = drift(np.concatenate([np.zeros((1, dim)), eye, -eye]))
    b = np.concatenate([b[:1], 0.5 * (b[1:m] - b[m:])])
    b_mono, b_slot = np.nonzero(b)
    b_coef = b[b_mono, b_slot]
    # slots[i, j]: position of (min(i, j), max(i, j)) in np.triu_indices
    slots = np.empty((dim, dim), dtype=np.intp)
    slots[iu] = slots.T[iu] = np.arange(n_upper)

    def form_gamma(x):
        x1 = np.empty(m)
        x1[0] = 1.0
        x1[1:] = x
        terms = np.multiply.outer(x1, x1).ravel()[g_mono]
        terms *= g_coef
        return np.bincount(g_slot, terms, n_upper)[slots]

    def form_drift(x):
        x1 = np.empty(m)
        x1[0] = 1.0
        x1[1:] = x
        terms = x1[b_mono]
        terms *= b_coef
        return np.bincount(b_slot, terms, dim)

    return form_gamma, form_drift


class VerificationReport:
    """Pass/fail record for one identity (or one suite thereof)."""

    def __init__(self, name, n_samples, max_abs_residual, tol,
                 worst_index=None, details=None):
        self.name = name
        self.n_samples = n_samples
        self.max_abs_residual = float(max_abs_residual)
        self.tol = tol
        self.passed = bool(self.max_abs_residual <= tol)
        self.worst_index = worst_index
        self.details = details or {}

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return ("<%s %s: max residual %.3e (tol %.1e, %d samples)>"
                % (self.name, status, self.max_abs_residual, self.tol,
                   self.n_samples))


def _stencil(f, x, v, h, domain_test, scales):
    """f at x + s h v and then x - s h v for each s in scales, in that
    order, and the step h used.  A point outside the domain, or where f
    returns None, stops the stencil; h is then quartered, at most three
    times, before a DerivativeError.  f is never evaluated outside."""
    def values(h):
        out = []
        for s in scales:
            step = (s * h) * v
            for point in (x + step, x - step):
                if domain_test is not None and not domain_test(point):
                    return None
                value = f(point)
                if value is None:
                    return None
                out.append(np.asarray(value))
        return out

    for _ in range(4):
        out = values(h)
        if out is not None:
            return out, h
        h /= 4.0
    raise DerivativeError("stencil along %s leaves the domain" % v)


def _central_difference(f, x, h, domain_test):
    """Central differences of f along each coordinate, stacked on axis 0."""
    x = np.asarray(x, dtype=float)
    out = []
    for xi, e in zip(x.tolist(), np.eye(x.size)):
        (fp, fm), hi = _stencil(f, x, e, h * (1 + abs(xi)), domain_test, (1.0,))
        out.append((fp - fm) / (2.0 * hi))
    return np.array(out)


def jacobian(F, x, h=_H, domain_test=None):
    """Central-difference Jacobian with per-coordinate scaled steps."""
    return np.ascontiguousarray(
        _central_difference(F, x, h, domain_test).reshape(np.size(x), -1).T)


def _directional_second(F, x, v, h, domain_test, f0):
    """Second difference of F along v, extrapolated from steps h and h/2."""
    (p, m, p2, m2), h = _stencil(F, x, v, h, domain_test, (1.0, 0.5))
    coarse = (p - 2.0 * f0 + m) / (h * h)
    fine = (p2 - 2.0 * f0 + m2) / ((0.5 * h) * (0.5 * h))
    return (4.0 * fine - coarse) / 3.0


def pushforward_gamma(ambient, F, x):
    """J Gamma J^T: the co-metric of the image coordinates at F(x)."""
    J = jacobian(F, x, domain_test=ambient.domain_test)
    return J @ ambient.gamma(x) @ J.T


def pushforward_generator(ambient, F, x):
    """The image operator at F(x) from one Jacobian J of F:
    (J G J^T, J b + sum_ij G_ij d2_ij F)."""
    x = np.asarray(x, dtype=float)
    J = jacobian(F, x, domain_test=ambient.domain_test)
    out = J @ np.asarray(ambient.drift(x))
    G = np.asarray(ambient.gamma(x))
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    cutoff = 1e-13 * max(np.max(np.abs(w)), 1.0)
    f0 = np.asarray(F(x))
    step = _H2 * (1.0 + float(np.max(np.abs(x))))
    for m in range(w.size):
        if abs(w[m]) <= cutoff:
            continue
        d2 = _directional_second(F, x, V[:, m], step, ambient.domain_test, f0)
        out = out + w[m] * d2
    return J @ G @ J.T, out


def check_identity(ambient, F, closed, points, tol_g=1e-6, tol_l=1e-4,
                   relative=False, name="identity"):
    """Compare the pushforward (Gamma, L) against closed forms at points.

    closed(x) is called with the ambient point x and returns the expected
    out_dim x out_dim co-metric and out_dim drift in the image coordinates.
    Residuals are |oracle - closed|, divided by 1 + |closed| when relative.
    Each half is judged against its own tolerance; the report carries the
    residual, tolerance and worst point of the half furthest past its own.
    A NaN residual is worse than any number, so it fails.
    """
    details = {key: {"residual": 0.0, "tol": tol, "worst_index": None}
               for key, tol in (("gamma", tol_g), ("drift", tol_l))}
    for s, x in enumerate(points):
        x = np.asarray(x, dtype=float)
        for d, got, want in zip(details.values(),
                                pushforward_generator(ambient, F, x),
                                closed(x)):
            diff = np.abs(got - want)
            if relative:
                diff = diff / (1.0 + np.abs(want))
            r = float(np.max(diff))
            # a NaN replaces any number, and no number replaces it
            if r > d["residual"] or (np.isnan(r)
                                     and not np.isnan(d["residual"])):
                d.update(residual=r, worst_index=s)
    for d in details.values():
        d["pass"] = d["residual"] <= d["tol"]
    # np.argmax, unlike max, picks a NaN ratio
    top = list(details.values())[int(np.argmax(
        [d["residual"] / d["tol"] for d in details.values()]))]
    return VerificationReport(name, len(points), top["residual"], top["tol"],
                              worst_index=top["worst_index"], details=details)


def reversibility_residual(model, grad_log_density, x):
    """b - div(g) - g grad(log rho); zero iff rho is reversible for L."""
    x = np.asarray(x, dtype=float)
    G = np.asarray(model.gamma(x))
    b = np.asarray(model.drift(x))
    # divergence of the co-metric: sum_j d_j Gamma[:, j]
    dG = _central_difference(model.gamma, x, _H, model.domain_test)
    div = sum(dG[j][:, j] for j in range(model.dim))
    return b - div - G @ np.asarray(grad_log_density(x))


def grad_log_numeric(log_f, x, domain_test=None):
    """Central-difference gradient of a scalar log-function."""
    return _central_difference(log_f, x, 1e-6, domain_test)


def check_boundary_affine_numeric(model, P_eval, sampler, n_samples=None,
                                  tol=1e-8, name="boundary"):
    """Affine least-squares fit of Gamma(x_i, log P) over interior samples.

    Returns (report, coeffs) where coeffs has shape (dim + 1, dim): row 0 the
    intercepts, rows 1.. the linear parts, one column per coordinate, so that
    Gamma(x_i, log P)(x) ~= coeffs[0, i] + x . coeffs[1:, i].
    """
    dim = model.dim
    if n_samples is None:
        n_samples = 4 * (dim + 1)
    if n_samples < dim + 2:
        raise RankDeficientFit(
            "%d samples for an affine fit in dimension %d" % (n_samples, dim))
    X = np.empty((n_samples, dim + 1))
    Y = np.empty((n_samples, dim))
    def log_P(x):
        # log |P|: the affine identity is insensitive to the sign of P
        val = abs(P_eval(x))
        if val == 0.0:
            return None
        return np.log(val)

    for s in range(n_samples):
        x = np.asarray(sampler(), dtype=float)
        grad = grad_log_numeric(log_P, x, domain_test=model.domain_test)
        Y[s] = np.asarray(model.gamma(x)) @ grad
        X[s, 0] = 1.0
        X[s, 1:] = x
    coeffs, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    if rank < dim + 1:
        raise RankDeficientFit("design matrix rank %d < %d" % (rank, dim + 1))
    resid = float(np.max(np.abs(Y - X @ coeffs)))
    rep = VerificationReport(name, n_samples, resid, tol)
    return rep, coeffs

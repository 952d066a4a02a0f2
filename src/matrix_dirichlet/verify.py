"""Verification suites: identity checks bundled into machine-readable reports.

Each suite re-runs the closed-form identity checks of one construction
(scalar simplex, the two matrix models, the unitary-group extraction, the
Wishart eigenframe system, the polar-decomposition system) at freshly
sampled points and aggregates per-identity worst residuals into a report

    {suite, seed, checks: [{id, paper_eq, n_samples, max_abs_residual,
                            tol, pass}], pass}

that is a deterministic function of (suite, seed).  Statistical checks
(moment comparisons, independence of radial and angular parts) report the
largest z-score or correlation as their residual, with a 3-standard-error
pass band.
"""

import numpy as np

from .calculus import (
    check_identity, pushforward_generator, reversibility_residual)
from .linalg import _chunk_sizes, _haar_draws
from .matrix_simplex import (
    MatrixSimplexPoint, Model1Params, Model2Params, _closed_form_model,
    _ginibre_squares, drift_model1_entries, drift_model2_entries,
    ellipticity_model1, gamma_model1, gamma_model1_entries, gamma_model2,
    gamma_model2_entries, matrix_dirichlet_grad_log, point_to_real,
    real_to_point, sample_interior, simplex_layout)
from .polar import (
    DegenerateDirichletParams, PolarFrame, closed_form_polar_system,
    complex_bm_ambient, diagonal_point_forms, invariance_transport,
    polar_projection, sample_polar_frame, scalar_projection_params,
    scalar_projection_v)
from .poly import MultiPoly, check_boundary_affine_exact
from .realify import CplxLayout
from .simplex import (
    ScalarModelParams, _closed_form_scalar_model, dirichlet_grad_log,
    drift_simplex, gamma_simplex, laguerre_ambient, ou_warped_ambient,
    sample_dirichlet, sample_sphere, simplex_gamma_polys, sphere_ambient)
from .sun import (
    Partition, _brownian_path, _extract_blocks, extract_Z,
    fields_image_entries, group_distance, image_params, lpq_field_list,
    verify_casimir_image)
from .wishart import (
    closed_form_smz_system, matrix_ou_ambient, sample_smz_frame,
    sample_wishart_family, smz_projection, theorem_params, wishart_ambient,
    wishart_grad_log)


TOL_GAMMA = 1e-6
TOL_DRIFT = 1e-4
TOL_REVERSIBLE = 1e-8


# -- statistical comparisons --------------------------------------------------

def moment_test(sample_mean_a, se_a, sample_mean_b, se_b):
    """Two-sample z-score table; pass iff every |z| < 3."""
    ma = np.atleast_1d(np.asarray(sample_mean_a, dtype=float))
    mb = np.atleast_1d(np.asarray(sample_mean_b, dtype=float))
    sa = np.atleast_1d(np.asarray(se_a, dtype=float))
    sb = np.atleast_1d(np.asarray(se_b, dtype=float))
    if np.any(sa <= 0) or np.any(sb <= 0):
        raise ValueError("standard errors must be positive")
    z = (ma - mb) / np.sqrt(sa ** 2 + sb ** 2)
    return {"z": z, "max_abs_z": float(np.max(np.abs(z))),
            "pass": bool(np.max(np.abs(z)) < 3.0)}


def independence_check(S, x):
    """Sample correlations of a radial part against coordinate columns.

    S is a length-M vector, x an (M, k) array; pass iff every
    |corr(S, x_i)| < 3/sqrt(M).
    """
    S = np.asarray(S, dtype=float)
    x = np.asarray(x, dtype=float)
    M = S.size
    if M < 10000:
        raise ValueError("need at least 1e4 samples, got %d" % M)
    Sc = S - S.mean()
    xc = x - x.mean(axis=0)
    denom = np.sqrt(np.sum(Sc ** 2) * np.sum(xc ** 2, axis=0))
    # einsum, not a BLAS product, so the sum order (and the report's
    # bytes) do not depend on the BLAS thread count
    corr = np.einsum("i,ij->j", Sc, xc) / np.clip(denom, 1e-300, None)
    bound = 3.0 / np.sqrt(M)
    return {"corr": corr, "max_abs_corr": float(np.max(np.abs(corr))),
            "bound": bound, "pass": bool(np.max(np.abs(corr)) < bound)}


# -- identity harnesses shared with the test suite ----------------------------

def _tol(key):
    """Drift keys (L_...) take the drift tolerance, the rest TOL_GAMMA."""
    return TOL_DRIFT if key.startswith("L_") else TOL_GAMMA


# Rows (key, kind, a, b, half) of the frame tables.  The oracle's (a, b)
# co-metric block, or its drift on segment a when b is None, is read as an
# entry-space table ("entries") or in raw real coordinates ("raw") and
# compared with the closed form under key.  A complex segment in rows
# contributes only its entry rows, not their conjugates; half picks the
# entry (":dd") or conjugate ("dd:") columns of a complex segment b.
_SMZ_TABLE = [
    ("gamma_SS", "entries", "S", "S", ""),
    ("gamma_SW", "entries", "S", "W", ""),
    ("gamma_NN", "entries", "N", "N", ""),
    ("gamma_NW", "entries", "N", "W", ""),
    ("gamma_NinvN", "entries", "Ninv", "N", ""),
    ("gamma_NinvW", "entries", "Ninv", "W", ""),
    ("gamma_NinvNinv", "entries", "Ninv", "Ninv", ""),
    ("gamma_MM", "entries", "M", "M", ""),
    ("gamma_MS", "entries", "M", "S", ""),
    ("gamma_ZZ", "entries", "Z", "Z", ""),
    ("gamma_lamlam", "raw", "lam", "lam", ""),
    # zero cross blocks: zero in raw coordinates iff in entry space
    ("gamma_Mlam", "raw", "M", "lam", ""),
    ("gamma_Zlam", "raw", "Z", "lam", ""),
    ("gamma_MU", "entries", "M", "U", ":dd"),
    ("gamma_MUbar", "entries", "M", "U", "dd:"),
    ("gamma_ZU", "entries", "Z", "U", ":dd"),
    ("gamma_ZUbar", "entries", "Z", "U", "dd:"),
    ("L_S", "entries", "S", None, ""),
    ("L_N", "entries", "N", None, ""),
    ("L_Ninv", "entries", "Ninv", None, ""),
    ("L_M", "entries", "M", None, ""),
    ("L_Z", "entries", "Z", None, ""),
    ("L_lam", "raw", "lam", None, ""),
]

_POLAR_TABLE = [
    ("gamma_HH", "entries", "H", "H", ""),
    ("gamma_NN", "entries", "N", "N", ""),
    ("gamma_lamlam", "raw", "lam", "lam", ""),
    ("gamma_UU", "entries", "U", "U", ":dd"),
    ("gamma_UUbar", "entries", "U", "U", "dd:"),
    ("gamma_WW", "entries", "W", "W", ":dd"),
    ("gamma_WWbar", "entries", "W", "W", "dd:"),
    ("gamma_Ulam", "entries", "U", "lam", ""),
    ("gamma_Wlam", "entries", "W", "lam", ""),
    ("gamma_ZZ", "entries", "Z", "Z", ""),
    ("gamma_Zlam", "entries", "Z", "lam", ""),
    ("gamma_VV", "entries", "V", "V", ":dd"),
    ("gamma_VVbar", "entries", "V", "V", "dd:"),
    ("L_V", "entries", "V", None, ""),
    ("L_H", "entries", "H", None, ""),
    ("L_N", "entries", "N", None, ""),
    ("L_lam", "raw", "lam", None, ""),
    ("L_U", "entries", "U", None, ""),
    ("L_W", "entries", "W", None, ""),
    ("L_Z", "entries", "Z", None, ""),
]

# couplings stated at diagonal base points only
_DIAGONAL_TABLE = [
    ("gamma_UV", "entries", "U", "V", ":dd"),
    ("gamma_UW", "entries", "U", "W", ":dd"),
    ("gamma_VV", "entries", "V", "V", ":dd"),
    ("gamma_VVbar", "entries", "V", "V", "dd:"),
    ("gamma_VN", "entries", "V", "N", ""),
    ("L_V", "entries", "V", None, ""),
]


def _check_table(frames, table):
    """Worst |oracle - closed form| per table row over frames.

    frames yields (ambient, F, stack, x, forms): the ambient model, the
    projection and its coordinate stack, the ambient point and the closed
    forms there.  Returns (worst, failures) as check_frame_identities.
    """
    worst = {}
    for ambient, F, stack, x, forms in frames:
        G, L = pushforward_generator(ambient, F, x)
        for key, kind, a, b, half in table:
            if b is None:
                got = (stack.drift_entries(L, a) if kind == "entries"
                       else np.asarray(L)[stack.slices[a]])
            else:
                got = (stack.entries_block(G, a, b) if kind == "entries"
                       else stack.block(G, a, b))
            if isinstance(stack.layouts[a], CplxLayout):
                got = got[:stack.layouts[a].m]
            if half:
                m = stack.layouts[b].m
                got = got[:, :m] if half == ":dd" else got[:, m:]
            # np.maximum, unlike max, keeps a NaN residual
            worst[key] = float(np.maximum(worst.get(key, 0.0),
                                          np.max(np.abs(got - forms[key]))))
    failures = {key: val for key, val in worst.items()
                if not val <= _tol(key)}
    return worst, failures


def check_frame_identities(d, dims, rng, n_frames):
    """Pushforward oracle vs every Wishart eigenframe closed form.

    Returns (worst, failures): per-identity worst residuals over the
    sampled frames, and the subset above tolerance (TOL_DRIFT for the
    drifts, TOL_GAMMA for the rest).
    """
    ambient = wishart_ambient(d, [float(r) for r in dims])
    layout = simplex_layout(len(dims), d)

    def frame():
        fam, fr = sample_smz_frame(d, dims, rng)
        F, stack = smz_projection(d, dims, base_frame=fr)
        return (ambient, F, stack, layout.to_real(fam.W),
                closed_form_smz_system(fr))

    return _check_table((frame() for _ in range(n_frames)), _SMZ_TABLE)


def check_polar_identities(d, rng, n_frames):
    """Pushforward oracle vs every polar-decomposition closed form.

    Same return convention as check_frame_identities.
    """
    lay = CplxLayout((d, d))
    ambient = complex_bm_ambient(d)

    def frame():
        m, fr = sample_polar_frame(d, rng)
        F, stack = polar_projection(d, base_frame=fr)
        # the V system holds at a general frame through the invariance
        # transport; every other key reads the polar closed forms
        forms = {**invariance_transport(diagonal_point_forms(fr.lam),
                                        fr.V, fr.U),
                 **closed_form_polar_system(fr)}
        return ambient, F, stack, lay.to_real(m), forms

    return _check_table((frame() for _ in range(n_frames)), _POLAR_TABLE)


def _boundary_residual(G, point, expect):
    """max |Gamma(Z^(p), log det Z^(q)) - expect(q)[p]| over the free
    blocks p and all n+1 blocks q, with G the model's real co-metric."""
    n, d = point.n, point.d
    layout = simplex_layout(n, d)
    worst = 0.0
    for q in range(n + 1):
        # gradient of log det Z^(q): the log density with a = 1 + e_q
        face = matrix_dirichlet_grad_log(1.0 + np.eye(n + 1)[q], point)
        got = layout.drift_to_entries(G @ face).reshape(n, d, d)
        worst = float(np.maximum(worst, np.max(np.abs(got - expect(q)))))
    return worst


def boundary_residual_model1(params, point):
    """Worst residual of the boundary identity of the first matrix model.

    Gamma(Z^(p)_ij, log det Z^(q)) must equal
    delta_pq sum_s 2 A_sp Z^(s)_ij - 2 A_pq Z^(p)_ij for q <= n, and
    -2 A_{n+1,p} Z^(p)_ij against the last block.
    """
    n, A = params.n, params.A
    blocks = point.all_blocks()

    def expect(q):
        out = -2.0 * A[:n, q, None, None] * blocks[:n]
        if q < n:
            out[q] += (2.0 * A[:, q, None, None] * blocks).sum(axis=0)
        return out

    return _boundary_residual(gamma_model1(params, point), point, expect)


def boundary_residual_model2(params, point):
    """Worst residual of the boundary identity of the second matrix model:
    Gamma(Z^(p)_ij, log det Z^(q)) = 2 delta_pq A - (A Z^(p) + Z^(p) A)
    for every block q (the entry coupling cancels identically)."""
    A = params.A
    Z = point.Z

    def expect(q):
        out = -(A @ Z + Z @ A)
        if q < point.n:
            out[q] += 2.0 * A
        return out

    return _boundary_residual(gamma_model2(params, point), point, expect)


# -- report plumbing ----------------------------------------------------------

def _check(checks, check_id, residual, tol, n_samples):
    """Append one check; a check run on no sample fails."""
    checks.append({"id": check_id, "paper_eq": None,
                   "n_samples": int(n_samples),
                   "max_abs_residual": float(residual), "tol": float(tol),
                   "pass": bool(residual <= tol and n_samples >= 1)})


def _record_worst(checks, prefix, worsts, n_samples):
    """One check per key: its worst residual over the dicts in worsts."""
    for key in sorted(set().union(*worsts)):
        _check(checks, prefix + key,
               float(np.max([w.get(key, 0.0) for w in worsts])),
               _tol(key), n_samples)


def _image_check(checks, name, ambient, F, points, closed, relative=False,
                 tol_g=TOL_GAMMA, tol_l=TOL_DRIFT):
    """Checks name.gamma and name.L: the two halves of one check_identity
    report against closed(F(x)) = (Gamma, L) at each ambient point x."""
    rep = check_identity(ambient, F, lambda x: closed(F(x)), points,
                         tol_g, tol_l, relative, name)
    for key, suffix in (("gamma", ".gamma"), ("drift", ".L")):
        d = rep.details[key]
        _check(checks, name + suffix, d["residual"], d["tol"], rep.n_samples)


def _reversibility_check(checks, check_id, model, grad_log, points):
    """Check check_id: the worst reversibility residual of model against
    the log-density gradient grad_log over points."""
    res = float(np.max([np.max(np.abs(reversibility_residual(
        model, grad_log, x))) for x in points], initial=0.0))
    _check(checks, check_id, res, TOL_REVERSIBLE, len(points))


# -- suites -------------------------------------------------------------------

def _suite_scalar(rng, samples):
    ns = samples or 10
    checks = []
    # sphere construction: block radius-squares of spherical BM
    sizes = (1, 2, 1)
    A = np.array([[0.0, 1.5, 0.7], [1.5, 0.0, 2.0], [0.7, 2.0, 0.0]])
    model, proj = sphere_ambient(sizes, A)
    params = ScalarModelParams(A, np.array(sizes) / 2.0)
    _image_check(checks, "scalar.sphere_image", model, proj,
                 [sample_sphere(sum(sizes), rng) for _ in range(ns)],
                 lambda x: (gamma_simplex(params, x), drift_simplex(params, x)))

    # Laguerre construction: (S, z) coordinates of independent gamma-type
    # processes; residuals on the radial row are scaled by 1 + S
    a = np.array([2.0, 3.0, 1.5])
    abar = np.sum(a)
    model, proj = laguerre_ambient(a)

    def laguerre_image(out):
        S, z = out[0], out[1:]
        eg = np.zeros((a.size, a.size))
        eg[0, 0] = S
        eg[1:, 1:] = (np.diag(z) - np.outer(z, z)) / S
        return eg, np.concatenate([[abar - S], (a[:2] - abar * z) / S])

    _image_check(checks, "scalar.laguerre_image", model, proj,
                 [rng.gamma(shape=a) for _ in range(ns)], laguerre_image,
                 relative=True)

    # warped OU construction
    sizes = (2, 1, 1)
    N = sum(sizes)
    model, proj = ou_warped_ambient(sizes, A)
    params = ScalarModelParams(A, np.array(sizes) / 2.0)

    def ou_warped_image(out):
        S, z = out[0], out[1:]
        eg = np.zeros((len(sizes), len(sizes)))
        eg[0, 0] = 4.0 * S
        eg[1:, 1:] = gamma_simplex(params, z) / S
        return eg, np.concatenate([[2.0 * N - 2.0 * S],
                                   drift_simplex(params, z) / S])

    _image_check(checks, "scalar.ou_warped_image", model, proj,
                 [rng.standard_normal(N) for _ in range(ns)], ou_warped_image,
                 relative=True, tol_g=1e-5, tol_l=1e-3)

    # reversibility of the simplex model against the Dirichlet density
    A2 = np.array([[0.0, 1.3, 0.6], [1.3, 0.0, 2.1], [0.6, 2.1, 0.0]])
    a2 = np.array([1.7, 0.9, 2.4])
    _reversibility_check(
        checks, "scalar.reversibility",
        _closed_form_scalar_model(ScalarModelParams(A2, a2)),
        lambda y: dirichlet_grad_log(a2, y),
        [sample_dirichlet(a2, rng, margin=5e-2) for _ in range(20)])

    # exact boundary test: Gamma(x_i, P) divisible by P with affine quotient
    oks = []
    for (Aint, n) in [([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 2),
                      ([[0, 1, 2, 1], [1, 0, 1, 3],
                        [2, 1, 0, 1], [1, 3, 1, 0]], 3)]:
        table, variables = simplex_gamma_polys(Aint, n)
        faces = [MultiPoly.var(v, variables) for v in variables]
        last = MultiPoly.const(1, variables)
        for v in variables:
            last = last - MultiPoly.var(v, variables)
        faces.append(last)
        oks += [check_boundary_affine_exact(table, P)[1] for P in faces]
    _check(checks, "scalar.boundary_exact", float(oks.count(False)), 0.0,
           len(oks))

    # radial-angular independence of normalized gamma draws
    M = 20000
    y = rng.gamma(shape=np.array([2.0, 3.0]), size=(M, 2))
    S = y.sum(axis=1)
    rep = independence_check(S, y[:, :1] / S[:, None])
    _check(checks, "scalar.radial_independence", rep["max_abs_corr"],
           rep["bound"], M)
    return checks


def _model2_fixture(rng, d, b_style):
    C = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A = C @ C.conj().T / d + 0.2 * np.eye(d)
    if b_style == "identity":
        B = 0.4 * np.eye(d * d).reshape(d, d, d, d)
    else:
        y = rng.uniform(0.2, 1.0, (d, d))
        # B[i, j, i, j] = y_ij: the diagonal of the d^2 x d^2 matrix
        B = np.diag(0.5 * (y + y.T).ravel()).reshape(d, d, d, d)
    return A, B


def _random_A(rng, m):
    A = rng.uniform(0.3, 2.0, (m, m))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    return A


def _suite_model1(rng, samples):
    ns = samples or 5
    checks = []
    n, d = 2, 2
    a = np.array([1.6, 2.1, 1.3])
    mp = Model1Params(_random_A(rng, n + 1), a)
    _reversibility_check(
        checks, "model1.reversibility", _closed_form_model(mp, d),
        lambda x: matrix_dirichlet_grad_log(a, real_to_point(x, n, d)),
        [point_to_real(sample_interior(n, d, rng, margin=1e-2))
         for _ in range(20)])
    res = float(np.max([boundary_residual_model1(
        mp, sample_interior(n, d, rng, margin=1e-3)) for _ in range(ns)]))
    _check(checks, "model1.boundary", res, TOL_REVERSIBLE, ns)

    # ellipticity: irreducible weights give a strictly positive co-metric
    ones = np.ones((n + 1, n + 1)) - np.eye(n + 1)
    mpe = Model1Params(ones, np.ones(n + 1))
    sampler = lambda: sample_interior(n, d, rng, margin=1e-3)
    min_eig = min(float(np.linalg.eigvalsh(gamma_model1(mpe, sampler()))[0])
                  for _ in range(20))
    ok, _w = ellipticity_model1(mpe, d, sampler, n_samples=5)
    elliptic = ok and min_eig > 1e-12
    _check(checks, "model1.ellipticity_irreducible",
           0.0 if elliptic else 1.0, 0.0, 20)

    # reducible weights: the structural null direction really annihilates
    # the co-metric (reported as an expected pass)
    Ared = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    mpr = Model1Params(Ared, np.ones(n + 1))
    ok, witness = ellipticity_model1(mpr, d, sampler, n_samples=5)
    if ok or witness is None:
        _check(checks, "model1.ellipticity_reducible_null", 1.0, 1e-12, 5)
    else:
        val = float(np.max([abs(witness @ gamma_model1(mpr, sampler())
                                @ witness) for _ in range(ns)]))
        _check(checks, "model1.ellipticity_reducible_null", val, 1e-12, ns)
    return checks


def _suite_model2(rng, samples):
    ns = samples or 3
    checks = []
    n, d = 2, 2
    a = np.array([1.8, 1.4, 2.2])
    for style in ("identity", "diag"):
        A, B = _model2_fixture(rng, d, style)
        mp = Model2Params(A, B, a)
        _reversibility_check(
            checks, "model2.reversibility." + style,
            _closed_form_model(mp, d),
            lambda x: matrix_dirichlet_grad_log(a, real_to_point(x, n, d)),
            [point_to_real(sample_interior(n, d, rng, margin=1e-2))
             for _ in range(max(ns, 10))])
        res = float(np.max([boundary_residual_model2(
            mp, sample_interior(n, d, rng, margin=1e-3)) for _ in range(ns)]))
        _check(checks, "model2.boundary." + style, res, TOL_REVERSIBLE, ns)
        # symmetry of the entry table
        T = gamma_model2_entries(mp, sample_interior(n, d, rng))
        _check(checks, "model2.symmetry." + style,
               float(np.max(np.abs(T - T.T))), 1e-12, 1)
    return checks


def _suite_sun(rng, samples):
    ns = samples or 5
    checks = []
    for (N, part) in [(3, Partition(1, [1, 1, 1])),
                      (4, Partition(2, [2, 2]))]:
        rep = verify_casimir_image(N, part, rng, n_samples=ns)
        _check(checks, "sun.casimir_image.N%d" % N, rep.max_abs_residual,
               rep.tol, ns)
    # weighted pair operators: exact field arithmetic vs the closed forms
    part = Partition(1, [2, 2, 1])
    A = np.array([[0.0, 1.3, 0.4], [1.3, 0.0, 0.8], [0.4, 0.8, 0.0]])
    params = image_params(part, A)
    fields = lpq_field_list(part, A)
    res = 0.0
    for K in _chunk_sizes(max(ns, 5)):
        for u in _haar_draws(part.N, rng, K, special=True):
            T, L = fields_image_entries(u, part, fields)
            point = extract_Z(u, part)
            res = float(np.max([
                res, np.max(np.abs(T - gamma_model1_entries(params, point))),
                np.max(np.abs(L - drift_model1_entries(params, point)))]))
    _check(checks, "sun.lpq_exact_image", res, 1e-10, max(ns, 5))
    # the exact group step stays on the group
    u = np.eye(3, dtype=complex)
    n_steps = 2000
    for K in _chunk_sizes(n_steps):
        u = _brownian_path(u, 1e-3, rng, K)
    _check(checks, "sun.brownian_unitarity", group_distance(u), 1e-9, n_steps)
    # first moment of the Haar image: E[Z^(1)] = (d_1/N) Id
    part = Partition(2, [2, 2])
    M = 2000
    vals = np.concatenate([
        _extract_blocks(_haar_draws(4, rng, K, special=True), part)[:, 0, 0, 0]
        for K in _chunk_sizes(M)]).real
    se = np.std(vals) / np.sqrt(M)
    rep = moment_test(np.mean(vals), se, 0.5, 1e-12)
    _check(checks, "sun.haar_first_moment", rep["max_abs_z"], 3.0, M)
    return checks


def _suite_wishart(rng, samples):
    checks = []
    frames = {(2, (3, 3)): 4, (2, (3, 4, 3)): 2, (3, (4, 4)): 2}
    worsts = [check_frame_identities(d, list(dims), rng, samples or nf)[0]
              for (d, dims), nf in frames.items()]
    _record_worst(checks, "wishart.", worsts,
                  sum(samples or nf for nf in frames.values()))

    # reversibility of the ambient Wishart model
    d, dims = 2, [3.0, 3.0]
    layout = simplex_layout(2, d)
    points = []
    while len(points) < 10:
        fam = sample_wishart_family(d, dims, rng)
        if min(np.min(np.linalg.eigvalsh(W)) for W in fam.W) >= 0.1:
            points.append(layout.to_real(fam.W))
    _reversibility_check(
        checks, "wishart.reversibility", wishart_ambient(d, dims),
        lambda x: wishart_grad_log(dims, layout.from_real(x)), points)

    # the Gram map of matrix OU carries its model onto the Wishart model
    d, mcol = 2, 3
    amb, proj, ylay = matrix_ou_ambient(d, mcol)
    wmodel = wishart_ambient(d, [float(mcol)])
    Ys = [rng.standard_normal((d, mcol)) + 1j * rng.standard_normal((d, mcol))
          for _ in range(5)]
    _image_check(checks, "wishart.gram_image", amb, proj,
                 [ylay.to_real(Y) for Y in Ys],
                 lambda w: (wmodel.gamma(w), wmodel.drift(w)))

    # theorem parameters reproduce the closed Z system algebraically
    res = 0.0
    for (d, dims) in [(2, [3, 3]), (3, [4, 4])]:
        _, fr = sample_smz_frame(d, dims, rng)
        params, radial = theorem_params(fr)
        sys = closed_form_smz_system(fr)
        zp = fr.z_point()
        res = float(np.max([
            res, np.max(np.abs(gamma_model2_entries(params, zp)
                               - sys["gamma_ZZ"])),
            np.max(np.abs(drift_model2_entries(params, zp) - sys["L_Z"])),
            np.max(np.abs(radial - sys["L_lam"]))]))
    _check(checks, "wishart.theorem_params_match", res, 1e-10, 2)

    # scalar reduction: total mass independent of the normalized block
    M = 10000
    # the two 1 x 1 blocks of M sample_wishart_family(1, [2, 2], rng) draws
    W = _ginibre_squares(1, [2, 2], rng, M)[:, :, 0, 0].real
    S = W[:, 0] + W[:, 1]
    rep = independence_check(S, W[:, :1] / S[:, None])
    _check(checks, "wishart.radial_independence", rep["max_abs_corr"],
           rep["bound"], M)
    return checks


def _suite_polar(rng, samples):
    checks = []
    frames = {2: 4, 3: 2}
    worsts = [check_polar_identities(d, rng, samples or nf)[0]
              for d, nf in frames.items()]
    _record_worst(checks, "polar.", worsts,
                  sum(samples or nf for nf in frames.values()))

    def diagonal_frames():
        for xs in (np.array([0.9, 1.8]), np.array([0.8, 1.5, 2.4])):
            d = xs.size
            m = np.diag(xs).astype(complex)
            F, stack = polar_projection(d, base_frame=PolarFrame(m))
            yield (complex_bm_ambient(d), F, stack,
                   CplxLayout((d, d)).to_real(m),
                   diagonal_point_forms(xs))

    worst, _ = _check_table(diagonal_frames(), _DIAGONAL_TABLE)
    rl = worst.pop("L_V")
    _check(checks, "polar.diagonal_couplings.gamma",
           float(np.max(list(worst.values()))), TOL_GAMMA, 2)
    _check(checks, "polar.diagonal_couplings.L", rl, TOL_DRIFT, 2)

    # rank-one projector system equals the first matrix model template
    res = 0.0
    for d in (2, 3):
        _, fr = sample_polar_frame(d, rng)
        params = DegenerateDirichletParams(fr.lam)
        point = MatrixSimplexPoint(fr.Z[:d - 1], check=False)
        sys = closed_form_polar_system(fr)
        res = float(np.max([
            res, np.max(np.abs(gamma_model1_entries(params, point)
                               - sys["gamma_ZZ"])),
            np.max(np.abs(drift_model1_entries(params, point)
                          - sys["L_Z"]))]))
    _check(checks, "polar.degenerate_template", res, 1e-10, 2)

    # scalar projection of the projector diagonal is a simplex model
    d = 3
    m, fr = sample_polar_frame(d, rng)
    params = scalar_projection_params(fr)
    lay = CplxLayout((d, d))
    ambient = complex_bm_ambient(d)

    def Fv(x):
        frame = PolarFrame(lay.from_real(x), check=False)
        return scalar_projection_v(frame)

    v = scalar_projection_v(fr)
    # the closed forms are taken at the frame's own v, not at Fv(x)
    _image_check(checks, "polar.scalar_projection", ambient, Fv,
                 [lay.to_real(m)],
                 lambda _: (gamma_simplex(params, v), drift_simplex(params, v)))
    return checks


_SUITES = {"scalar": _suite_scalar, "model1": _suite_model1,
           "model2": _suite_model2, "sun": _suite_sun,
           "wishart": _suite_wishart, "polar": _suite_polar}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(suite, seed=0, samples=None):
    """Run one named suite (or "all") and return the report dict."""
    if suite not in SUITE_NAMES:
        raise ValueError("unknown suite %r (choose from %s)"
                         % (suite, ", ".join(SUITE_NAMES)))
    if samples is not None and samples < 1:
        raise ValueError("samples must be at least 1, got %r" % (samples,))
    names = list(_SUITES) if suite == "all" else [suite]
    checks = []
    for name in names:
        rng = np.random.Generator(np.random.Philox(seed))
        checks.extend(_SUITES[name](rng, samples))
    return {"suite": suite, "seed": int(seed), "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def format_report(report):
    """Human-readable lines, one per check plus a trailing summary."""
    lines = []
    for c in report["checks"]:
        lines.append("%-4s %-42s residual %.3e  tol %.1e  (n=%d)"
                     % ("PASS" if c["pass"] else "FAIL", c["id"],
                        c["max_abs_residual"], c["tol"], c["n_samples"]))
    n_fail = sum(not c["pass"] for c in report["checks"])
    lines.append("suite %s: %d checks, %d failed -> %s"
                 % (report["suite"], len(report["checks"]), n_fail,
                    "PASS" if report["pass"] else "FAIL"))
    return lines

"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -v via the test
outcome, and in captured output on failure).  Tolerances are pinned here
and must not be loosened; the library is expected to meet them as stated.
"""

import numpy as np

from matrix_dirichlet.calculus import reversibility_residual
from matrix_dirichlet.linalg import hermitian_eigen
from matrix_dirichlet.matrix_simplex import (
    MatrixSimplexPoint, Model1Params, Model2Params, _direct_draws,
    ellipticity_model1, gamma_model1, matrix_dirichlet_grad_log, model1,
    model2, point_to_real, real_to_point, sample_interior, simplex_layout,
    sylvester_spectrum)
from matrix_dirichlet.poly import MultiPoly, check_boundary_affine_exact
from matrix_dirichlet.realify import HermLayout
from matrix_dirichlet.sde import SimConfig, simulate
from matrix_dirichlet.simplex import (
    ScalarModelParams, dirichlet_grad_log, sample_dirichlet, scalar_model,
    simplex_gamma_polys)
from matrix_dirichlet.sun import (
    Partition, _brownian_path, _extract_blocks, group_distance,
    lemma_first_action, lemma_second_action, casimir_fields_apply,
    casimir_field_list, verify_casimir_image)
from matrix_dirichlet.verify import (
    boundary_residual_model1, boundary_residual_model2,
    check_frame_identities, check_polar_identities, moment_test, run_suite)
from matrix_dirichlet.wishart import (
    closed_form_smz_system, sample_matrix_dirichlet_direct,
    sample_smz_frame, sample_wishart_family, theorem_params,
    wishart_ambient, wishart_grad_log)
from matrix_dirichlet.linalg import _chunk_sizes, _haar_draws, haar_unitary

from reference_diffusions import (
    jacobi_grad_log, jacobi_model, laguerre_grad_log, laguerre_model,
    ou_grad_log, ou_model)


def _report(num, desc, ok):
    print("ACCEPTANCE %d (%s): %s" % (num, desc, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d failed: %s" % (num, desc)


def _rng(salt):
    return np.random.Generator(np.random.Philox(900000 + salt))


def _direct_rows(M, rng):
    """M direct draws at d = 2, dims (3, 3) as rows of real coordinates,
    from one batched call: the same numbers as M sequential
    sample_matrix_dirichlet_direct calls."""
    return simplex_layout(1, 2).to_real(_direct_draws(2, [3, 3], rng, M))


def _haar_rows(M, rng, part):
    """M Haar SU(6) draws extracted at the partition, as rows of real
    coordinates, from kernel calls of at most 512 draws: the same numbers,
    in the same C-ordered (M, 4) array, as M sequential haar_unitary and
    extract_Z calls."""
    return np.concatenate([
        simplex_layout(1, 2).to_real(
            _extract_blocks(_haar_draws(6, rng, K, special=True), part))
        for K in _chunk_sizes(M)])


# -- 1. chain-rule identity suites --------------------------------------------

def test_criterion_1_chain_rule_identities():
    ok = True
    rng = _rng(1)

    # scalar constructions: 30 points each through the shared suite
    rep = run_suite("scalar", seed=41, samples=30)
    for c in rep["checks"]:
        if "_image." in c["id"]:
            tol = 1e-6 if c["id"].endswith("gamma") else 1e-4
            ok = ok and c["max_abs_residual"] < tol

    # unitary-group extraction, N up to 6 and d up to 3
    for (N, part) in [(3, Partition(1, [1, 1, 1])),
                      (4, Partition(2, [2, 2])),
                      (6, Partition(3, [3, 3]))]:
        r = verify_casimir_image(N, part, rng, n_samples=10,
                                 tol_g=1e-6, tol_l=1e-4)
        ok = ok and r.passed
    # field actions against the closed-form action table
    part = Partition(2, [2, 2, 1])
    for _ in range(5):
        u = haar_unitary(part.N, rng, special=True)
        for (kind, i, j, _, firsts, seconds) in casimir_fields_apply(
                part.N, part, u, fields=casimir_field_list(part.N)):
            ok = ok and np.max(np.abs(
                firsts - lemma_first_action(kind, i, j, part, u))) < 1e-8
            ok = ok and np.max(np.abs(
                seconds - lemma_second_action(kind, i, j, part, u))) < 1e-8

    # Wishart eigenframe system over d in {2,3}, n in {1,2}; 30 frames
    for (d, dims, nf) in [(2, [3, 3], 10), (2, [3, 4, 3], 8),
                          (3, [4, 4], 6), (3, [4, 5, 4], 6)]:
        _, failures = check_frame_identities(d, dims, rng, nf)
        ok = ok and not failures

    # polar-decomposition system over d in {2,3}; 30 frames
    for (d, nf) in [(2, 18), (3, 12)]:
        _, failures = check_polar_identities(d, rng, nf)
        ok = ok and not failures

    _report(1, "chain-rule identities", ok)


# -- 2. reversibility ---------------------------------------------------------

def test_criterion_2_reversibility():
    rng = _rng(2)
    worst = 0.0

    def bump(model, grad_log, x):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(
            reversibility_residual(model, grad_log, x)))))

    A = np.array([[0.0, 1.3, 0.6], [1.3, 0.0, 2.1], [0.6, 2.1, 0.0]])
    a = np.array([1.7, 0.9, 2.4])
    sm = scalar_model(ScalarModelParams(A, a))
    n, d = 2, 2
    am = np.array([1.6, 2.1, 1.3])
    A1 = np.array([[0.0, 0.8, 1.4], [0.8, 0.0, 0.6], [1.4, 0.6, 0.0]])
    m1 = model1(Model1Params(A1, am), d)
    C = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A2 = C @ C.conj().T / d + 0.2 * np.eye(d)
    B2 = 0.4 * np.eye(d * d).reshape(d, d, d, d)
    m2 = model2(Model2Params(A2, B2, am), n)
    dims = [3.0, 3.0]
    wm = wishart_ambient(d, dims)
    wlay = simplex_layout(2, d)
    for _ in range(20):
        bump(sm, lambda y: dirichlet_grad_log(a, y),
             sample_dirichlet(a, rng, margin=5e-2))
        p = sample_interior(n, d, rng, margin=1e-2)
        bump(m1, lambda x: matrix_dirichlet_grad_log(
            am, real_to_point(x, n, d)), point_to_real(p))
        p = sample_interior(n, d, rng, margin=1e-2)
        bump(m2, lambda x: matrix_dirichlet_grad_log(
            am, real_to_point(x, n, d)), point_to_real(p))
        while True:
            fam = sample_wishart_family(d, dims, rng)
            if min(np.min(np.linalg.eigvalsh(W)) for W in fam.W) > 0.1:
                break
        bump(wm, lambda x: wishart_grad_log(dims, wlay.from_real(x)),
             wlay.to_real(fam.W))
        x = np.array([rng.uniform(0.1, 2.5)])
        bump(ou_model(), ou_grad_log, x)
        bump(laguerre_model(1.7), lambda y: laguerre_grad_log(1.7, y), x)
        bump(jacobi_model(2.0, 3.0),
             lambda y: jacobi_grad_log(2.0, 3.0, y),
             np.array([rng.uniform(-0.9, 0.9)]))
    _report(2, "reversibility residual %.2e < 1e-8" % worst, worst < 1e-8)


# -- 3. ellipticity iff -------------------------------------------------------

def test_criterion_3_ellipticity():
    rng = _rng(3)
    n, d = 2, 2
    sampler = lambda: sample_interior(n, d, rng, margin=1e-3)
    ok = True
    # irreducible fixtures: strictly positive co-metric
    for A in (np.ones((3, 3)) - np.eye(3),
              np.array([[0.0, 2.0, 0.3], [2.0, 0.0, 1.1],
                        [0.3, 1.1, 0.0]])):
        mp = Model1Params(A, np.ones(3))
        min_eig = min(float(np.linalg.eigvalsh(
            gamma_model1(mp, sampler()))[0]) for _ in range(20))
        ok = ok and min_eig > 1e-12
        elliptic, _ = ellipticity_model1(mp, d, sampler, n_samples=5)
        ok = ok and elliptic
    # reducible fixture: explicit null direction annihilates the co-metric
    Ared = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    mpr = Model1Params(Ared, np.ones(3))
    elliptic, witness = ellipticity_model1(mpr, d, sampler, n_samples=5)
    ok = ok and not elliptic and witness is not None
    quad = max(abs(float(witness @ gamma_model1(mpr, sampler()) @ witness))
               for _ in range(20))
    ok = ok and quad < 1e-12
    _report(3, "ellipticity iff (null form %.2e)" % quad, ok)


# -- 4. boundary equations ----------------------------------------------------

def test_criterion_4_boundary():
    rng = _rng(4)
    ok = True
    # scalar simplex: exact polynomial division, n up to 3
    for (Aint, n) in [([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 2),
                      ([[0, 1, 2, 1], [1, 0, 1, 3],
                        [2, 1, 0, 1], [1, 3, 1, 0]], 3)]:
        table, variables = simplex_gamma_polys(Aint, n)
        faces = [MultiPoly.var(v, variables) for v in variables]
        last = MultiPoly.const(1, variables)
        for v in variables:
            last = last - MultiPoly.var(v, variables)
        faces.append(last)
        for P in faces:
            _, affine = check_boundary_affine_exact(table, P)
            ok = ok and affine

    # matrix models: Gamma(x, log det Z^(q)) sampled exactly (co-metric
    # times the exact gradient of log det), fitted affine in the free
    # coordinates and compared to the closed-form affine maps
    n, d = 2, 2
    A1 = np.array([[0.0, 0.9, 1.2], [0.9, 0.0, 0.7], [1.2, 0.7, 0.0]])
    mp1 = Model1Params(A1, np.ones(3))
    C = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A2 = C @ C.conj().T / d + 0.2 * np.eye(d)
    B2 = 0.4 * np.eye(d * d).reshape(d, d, d, d)
    mp2 = Model2Params(A2, B2, np.ones(3))
    closed = 0.0
    fit_res = 0.0
    npts = 15
    for residual_fn, params in ((boundary_residual_model1, mp1),
                                (boundary_residual_model2, mp2)):
        mod = (model1(params, d) if isinstance(params, Model1Params)
               else model2(params, n))
        pts = [sample_interior(n, d, rng, margin=1e-2) for _ in range(npts)]
        for p in pts:
            closed = max(closed, residual_fn(params, p))
        # affinity of the sampled values, per face polynomial
        for q in range(n + 1):
            X = np.empty((npts, mod.dim + 1))
            Y = np.empty((npts, mod.dim))
            for s, p in enumerate(pts):
                x = point_to_real(p)
                # gradient of log det Z^(q): the log density with a = 1 + e_q
                face = matrix_dirichlet_grad_log(1.0 + np.eye(n + 1)[q], p)
                X[s] = np.concatenate([[1.0], x])
                Y[s] = np.asarray(mod.gamma(x)) @ face
            coef, _, _, _ = np.linalg.lstsq(X, Y, rcond=None)
            fit_res = max(fit_res, float(np.max(np.abs(X @ coef - Y))))
    ok = ok and closed < 1e-8 and fit_res < 1e-8
    _report(4, "boundary equations (closed %.1e, affine fit %.1e)"
            % (closed, fit_res), ok)


# -- 5. stationarity ----------------------------------------------------------

def test_criterion_5_stationarity():
    ok = True
    # (a) scalar Dirichlet n=2, a=(1,1,1): coordinate means 1/3
    p = ScalarModelParams(np.ones((3, 3)) - np.eye(3), np.ones(3))
    cfg = SimConfig(dt=1e-3, n_steps=1000000, thin=50, seed=51,
                    burn_in=100000)
    s = simulate(scalar_model(p, margin=1e-10), np.array([1 / 3, 1 / 3]),
                 cfg)
    za = np.max(np.abs((s.mean - 1 / 3) / s.se_mean))
    ok = ok and za < 3.0

    # (b) model I, d=2, n=1, a=(2,2): E[Z] = Id/2
    mp = Model1Params(np.array([[0.0, 1.0], [1.0, 0.0]]),
                      np.array([2.0, 2.0]))
    mod = model1(mp, 2)
    x0 = point_to_real(MatrixSimplexPoint([np.eye(2, dtype=complex) / 2]))
    cfg = SimConfig(dt=1e-3, n_steps=400000, thin=20, seed=52,
                    burn_in=40000)
    s = simulate(mod, x0, cfg)
    target = np.array([0.5, 0.5, 0.0, 0.0])
    zb = np.max(np.abs((s.mean - target) / s.se_mean))
    ok = ok and zb < 3.0

    # (c) model II at parameters derived from a Wishart eigenframe (the
    # frozen coefficients keep the same reversible law, exponents (2,2))
    rng = _rng(5)
    _, fr = sample_smz_frame(2, [3, 3], rng)
    params, _ = theorem_params(fr)
    mod2 = model2(params, 1)
    cfg = SimConfig(dt=5e-4, n_steps=300000, thin=15, seed=53,
                    burn_in=30000)
    s = simulate(mod2, x0, cfg, record=True)
    # direct Wishart-ratio sampler moments
    M = 20000
    draws = _direct_rows(M, rng)
    mean_d = draws.mean(axis=0)
    se_d = draws.std(axis=0) / np.sqrt(M)
    zc1 = moment_test(s.mean, s.se_mean, mean_d, se_d)["max_abs_z"]
    ok = ok and zc1 < 3.0
    # second moments via batch means on the recorded path
    sq = s.states ** 2
    nb = 20
    bs = sq.shape[0] // nb
    bm = sq[:nb * bs].reshape(nb, bs, 4).mean(axis=1)
    se_sq = bm.std(axis=0, ddof=1) / np.sqrt(nb)
    d_sq = draws ** 2
    zc2 = moment_test(sq.mean(axis=0), np.clip(se_sq, 1e-12, None),
                      d_sq.mean(axis=0),
                      d_sq.std(axis=0) / np.sqrt(M))["max_abs_z"]
    ok = ok and zc2 < 3.0
    _report(5, "stationarity MC (z: %.2f, %.2f, %.2f, %.2f)"
            % (za, zb, zc1, zc2), ok)


# -- 6. Haar-image law --------------------------------------------------------

def test_criterion_6_haar_image():
    rng = _rng(6)
    part = Partition(2, [3, 3])
    M = 100000
    ext = _haar_rows(M, rng, part)
    direct = _direct_rows(M, rng)
    z1 = moment_test(ext.mean(axis=0), ext.std(axis=0) / np.sqrt(M),
                     direct.mean(axis=0),
                     direct.std(axis=0) / np.sqrt(M))["max_abs_z"]
    e2 = ext[:, :, None] * ext[:, None, :]
    d2 = direct[:, :, None] * direct[:, None, :]
    iu = np.triu_indices(4)
    z2 = moment_test(e2.mean(axis=0)[iu],
                     e2.std(axis=0)[iu] / np.sqrt(M),
                     d2.mean(axis=0)[iu],
                     d2.std(axis=0)[iu] / np.sqrt(M))["max_abs_z"]
    _report(6, "Haar image vs direct sampler (z %.2f, %.2f)" % (z1, z2),
            z1 < 3.0 and z2 < 3.0)


# -- 7. structural invariants -------------------------------------------------

def test_criterion_7_structural():
    rng = _rng(7)
    ok = True
    # direct draws: Hermitian psd blocks summing to Id
    for _ in range(50):
        point = sample_matrix_dirichlet_direct(2, [3, 3], rng)
        blocks = point.all_blocks()
        ok = ok and np.max(np.abs(sum(blocks) - np.eye(2))) < 1e-10
        for Z in blocks:
            ok = ok and np.max(np.abs(Z - Z.conj().T)) < 1e-12
            ok = ok and np.min(np.linalg.eigvalsh(Z)) > -1e-10

    # unitarity after 1e5 exact group steps, in kernel calls of at most 512
    u = np.eye(3, dtype=complex)
    for K in _chunk_sizes(100000):
        u = _brownian_path(u, 1e-3, rng, K)
    drift = group_distance(u)
    ok = ok and drift < 1e-9

    # Sylvester spectrum identity
    for (n, d) in [(2, 2), (3, 2), (2, 3)]:
        point = sample_interior(n, d, rng, margin=1e-3)
        got = sylvester_spectrum(point)
        expect = np.sort(np.concatenate(
            [np.ones((n - 1) * d), np.linalg.eigvalsh(point.last())]))
        ok = ok and np.max(np.abs(got - expect)) < 1e-8

    # eigenframe reconstruction
    for _ in range(10):
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        H = B @ B.conj().T + 0.1 * np.eye(6)
        eig = hermitian_eigen(H)
        ok = ok and np.max(np.abs(eig.matrix() - H)) < 1e-10

    # derivative of the matrix square root vs finite differences
    d = 3
    _, fr = sample_smz_frame(d, [4, 4], rng)
    lay = HermLayout(1, d)
    sys = closed_form_smz_system(fr)
    J_closed = (lay.D @ sys["dN_dS"] @ lay.E).real

    def F(x):
        S = lay.from_real(x)[0]
        w, U = np.linalg.eigh(S)
        root = U @ np.diag(np.sqrt(w)) @ U.conj().T
        return lay.to_real([0.5 * (root + root.conj().T)])

    from matrix_dirichlet.calculus import jacobian
    J_fd = jacobian(F, lay.to_real([fr.S]))
    rel = np.max(np.abs(J_fd - J_closed)) / np.max(np.abs(J_closed))
    ok = ok and rel < 1e-6
    _report(7, "structural invariants (group drift %.1e, sqrt rel %.1e)"
            % (drift, rel), ok)

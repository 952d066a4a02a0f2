import numpy as np
import pytest

from matrix_dirichlet.calculus import pushforward_generator
from matrix_dirichlet.errors import SingularError, SpectralGapError
from matrix_dirichlet.linalg import _fix_phases, haar_unitary
from matrix_dirichlet.matrix_simplex import (
    MatrixSimplexPoint, drift_model1_entries, gamma_model1_entries)
from matrix_dirichlet.polar import (
    DegenerateDirichletParams, PolarFrame, complex_bm_ambient,
    closed_form_polar_system, diagonal_point_forms, invariance_transport,
    polar_projection, sample_polar_frame,
    scalar_projection_params, scalar_projection_v)
from matrix_dirichlet.realify import CplxLayout, HermLayout
from matrix_dirichlet.simplex import drift_simplex, gamma_simplex, in_simplex
from matrix_dirichlet.verify import check_polar_identities


def test_complex_bm_ambient():
    d = 2
    model = complex_bm_ambient(d)
    layout = CplxLayout((d, d))
    x = layout.to_real(np.ones((d, d), dtype=complex))
    np.testing.assert_allclose(model.gamma(x), np.eye(2 * d * d))
    np.testing.assert_allclose(model.drift(x), 0.0)
    # entry table: Gamma(m, m) = 0 and Gamma(m, conj m) = 2 Id
    T = layout.gamma_to_entries(model.gamma(x), layout)
    m = d * d
    np.testing.assert_allclose(T[:m, :m], 0.0, atol=1e-14)
    np.testing.assert_allclose(T[:m, m:], 2.0 * np.eye(m), atol=1e-14)


def test_polar_parts_examples(rng):
    fr = PolarFrame(np.diag([1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(fr.V, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(fr.N, np.diag([1.0, 2.0]), atol=1e-12)
    np.testing.assert_allclose(fr.lam, [1.0, 2.0])
    # unitary m: all spectral radii collide
    with pytest.raises(SpectralGapError):
        PolarFrame(np.eye(3, dtype=complex))
    with pytest.raises(SingularError):
        PolarFrame(np.diag([0.0, 2.0]).astype(complex))
    # random m: reconstruction and projector invariants
    m, fr = sample_polar_frame(3, rng)
    rebuilt = fr.W @ np.diag(fr.lam) @ fr.U.conj().T
    np.testing.assert_allclose(rebuilt, m, atol=1e-10)
    np.testing.assert_allclose(fr.V @ fr.V.conj().T, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(sum(fr.Z), np.eye(3), atol=1e-10)
    for Z in fr.Z:
        w = np.linalg.eigvalsh(Z)
        assert abs(w[-1] - 1.0) < 1e-10
        assert np.max(np.abs(w[:-1])) < 1e-10


def test_closed_form_hand_values():
    fr = PolarFrame(np.diag([1.0, 2.0]).astype(complex))
    sys = closed_form_polar_system(fr)
    np.testing.assert_allclose(sys["gamma_lamlam"], np.eye(2))
    # L(x_1) = 1/1 + 4*1/(1 - 4) = -1/3
    assert abs(sys["L_lam"][0] - (1.0 - 4.0 / 3.0)) < 1e-12
    params = DegenerateDirichletParams(fr.lam)
    assert abs(params.A[0, 1] - 10.0 / 9.0) < 1e-12
    np.testing.assert_allclose(params.a, 0.0)  # 2 - d at d = 2
    assert not params.integrable
    one = PolarFrame(np.array([[1.3 + 0.0j]]))
    assert DegenerateDirichletParams(one.lam).integrable


def test_polar_identities_d2(rng):
    worst, failures = check_polar_identities(2, rng, 6)
    assert not failures, "residuals above tolerance: %r" % (failures,)


def test_polar_identities_d3(rng):
    worst, failures = check_polar_identities(3, rng, 4)
    assert not failures, "residuals above tolerance: %r" % (failures,)


def test_diagonal_point_internals(rng):
    # the U-V, U-W, V-N couplings are stated at m = diag(x) only
    for xs in (np.array([0.9, 1.8]), np.array([0.8, 1.5, 2.4])):
        d = xs.size
        fr0 = PolarFrame(np.diag(xs).astype(complex))
        np.testing.assert_allclose(fr0.U, np.eye(d), atol=1e-14)
        F, stack = polar_projection(d, base_frame=fr0)
        lay = CplxLayout((d, d))
        ambient = complex_bm_ambient(d)
        x = lay.to_real(np.diag(xs).astype(complex))
        G, L = pushforward_generator(ambient, F, x)
        base = diagonal_point_forms(xs)
        dd = d * d
        for pair, key in ((("U", "V"), "gamma_UV"),
                          (("U", "W"), "gamma_UW"),
                          (("V", "V"), "gamma_VV")):
            T = stack.entries_block(G, pair[0], pair[1])
            assert np.max(np.abs(T[:dd, :dd] - base[key])) < 1e-6, key
        TVV = stack.entries_block(G, "V", "V")
        assert np.max(np.abs(TVV[:dd, dd:] - base["gamma_VVbar"])) < 1e-6
        TVN = stack.entries_block(G, "V", "N")
        assert np.max(np.abs(TVN[:dd, :] - base["gamma_VN"])) < 1e-6
        assert np.max(np.abs(stack.drift_entries(L, "V")[:dd]
                             - base["L_V"])) < 1e-4
        assert np.max(np.abs(stack.drift_entries(L, "N")
                             - base["L_N"])) < 1e-4


def test_invariance_transport_algebraic(rng):
    # transported identity-point tables equal the direct closed forms
    d = 3
    xs = np.array([0.7, 1.4, 2.2])
    V = haar_unitary(d, rng)
    U = _fix_phases(haar_unitary(d, rng))
    m = V @ U @ np.diag(xs) @ U.conj().T
    fr = PolarFrame(m)
    np.testing.assert_allclose(fr.U, U, atol=1e-10)
    np.testing.assert_allclose(fr.V, V, atol=1e-10)
    sys = closed_form_polar_system(fr)
    tr = invariance_transport(diagonal_point_forms(xs), fr.V, fr.U)
    for key in ("gamma_NN", "L_N", "gamma_UU", "gamma_UUbar", "L_U"):
        np.testing.assert_allclose(tr[key], sys[key], atol=1e-10)
    # identity transport is a no-op
    base = diagonal_point_forms(xs)
    same = invariance_transport(base, np.eye(d), np.eye(d))
    for key in same:
        if key in base:
            np.testing.assert_allclose(same[key], base[key], atol=1e-14)


def test_degenerate_template_match(rng):
    # the rank-one system is the first matrix model with A = r, a = 2 - d
    for d in (2, 3):
        _, fr = sample_polar_frame(d, rng)
        params = DegenerateDirichletParams(fr.lam)
        point = MatrixSimplexPoint(fr.Z[:d - 1], check=False)
        sys = closed_form_polar_system(fr)
        np.testing.assert_allclose(gamma_model1_entries(params, point),
                                   sys["gamma_ZZ"], atol=1e-10)
        np.testing.assert_allclose(drift_model1_entries(params, point),
                                   sys["L_Z"], atol=1e-10)


def test_scalar_projection(rng):
    # v_k = Z^(k)_11 diffuses as the scalar Dirichlet model with weights
    # 2 r and unit exponents (Lebesgue reversible measure)
    d = 3
    m, fr = sample_polar_frame(d, rng)
    v = scalar_projection_v(fr)
    assert in_simplex(v)
    assert abs(np.sum(v) + fr.Z[d - 1][0, 0].real - 1.0) < 1e-12
    params = scalar_projection_params(fr)
    lay = CplxLayout((d, d))
    ambient = complex_bm_ambient(d)

    def F(x):
        frame = PolarFrame(lay.from_real(x), check=False)
        return scalar_projection_v(frame)

    x = lay.to_real(m)
    G, L = pushforward_generator(ambient, F, x)
    np.testing.assert_allclose(G, gamma_simplex(params, v), atol=1e-6)
    np.testing.assert_allclose(L, drift_simplex(params, v), atol=1e-4)


def test_w_column_projectors(rng):
    # the W-column projectors Y^(k) satisfy the same rank-one template
    d = 3
    m, fr = sample_polar_frame(d, rng)
    params = DegenerateDirichletParams(fr.lam)
    lay = CplxLayout((d, d))
    hlay = HermLayout(d - 1, d)
    ambient = complex_bm_ambient(d)

    def Y_blocks(frame):
        return [np.outer(frame.W[:, k], frame.W[:, k].conj())
                for k in range(d - 1)]

    def F(x):
        frame = PolarFrame(lay.from_real(x), check=False)
        return hlay.to_real(Y_blocks(frame))

    x = lay.to_real(m)
    G, L = pushforward_generator(ambient, F, x)
    point = MatrixSimplexPoint(Y_blocks(fr), check=False)
    expect_G = hlay.gamma_to_real(gamma_model1_entries(params, point))
    expect_L = hlay.drift_to_real(drift_model1_entries(params, point))
    np.testing.assert_allclose(G, expect_G, atol=1e-6)
    np.testing.assert_allclose(L, expect_L, atol=1e-4)


def test_sample_polar_frame_propagates_foreign_errors(rng, monkeypatch):
    from matrix_dirichlet import polar

    def broken(*args, **kwargs):
        raise TypeError("not a sampling failure")

    monkeypatch.setattr(polar, "PolarFrame", broken)
    with pytest.raises(TypeError):
        sample_polar_frame(2, rng)

import numpy as np
import pytest

from matrix_dirichlet.calculus import (
    _H2, _STENCIL_BATCH, DiffusionModel, _coefficient_form,
    _directional_second, check_boundary_affine_numeric, check_identity,
    grad_log_numeric, jacobian, pushforward_gamma, pushforward_generator,
    reversibility_residual)
from matrix_dirichlet.errors import DerivativeError, RankDeficientFit
from matrix_dirichlet.polar import (
    complex_bm_ambient, polar_projection, sample_polar_frame)
from matrix_dirichlet.realify import CplxLayout, simplex_layout
from matrix_dirichlet.simplex import (
    ScalarModelParams, _closed_form_scalar_model, sample_dirichlet,
    sample_sphere, scalar_model, sphere_ambient)
from matrix_dirichlet.wishart import (
    sample_smz_frame, smz_projection, wishart_ambient)

from reference_diffusions import jacobi_grad_log, jacobi_model, ou_model


def test_pushforward_gamma_square():
    F = lambda x: x ** 2
    amb = DiffusionModel(1, lambda x: np.array([[1.0]]), lambda x: np.zeros(1))
    G = pushforward_gamma(amb, F, np.array([3.0]))
    np.testing.assert_allclose(G, [[36.0]], rtol=1e-8)


def test_pushforward_gamma_sum():
    F = lambda x: np.array([x[0] + x[1]])
    amb = DiffusionModel(2, lambda x: np.eye(2), lambda x: np.zeros(2))
    G = pushforward_gamma(amb, F, np.array([0.3, -1.2]))
    np.testing.assert_allclose(G, [[2.0]], rtol=1e-9)


def test_pushforward_generator_ou_square():
    # L(x^2) = 2 - 2x^2 for the 1-D Ornstein-Uhlenbeck generator
    F = lambda x: x ** 2
    G, out = pushforward_generator(ou_model(), F, np.array([1.0]))
    np.testing.assert_allclose(G, [[4.0]], rtol=1e-8)
    np.testing.assert_allclose(out, [0.0], atol=1e-8)
    _, out = pushforward_generator(ou_model(), F, np.array([0.5]))
    np.testing.assert_allclose(out, [1.5], atol=1e-8)


def test_pushforward_generator_identity_map():
    amb = DiffusionModel(3, lambda x: np.diag([1.0, 2.0, 3.0]),
                         lambda x: np.array([1.0, -2.0, 0.5]))
    F = lambda x: x.copy()
    G, out = pushforward_generator(amb, F, np.zeros(3))
    np.testing.assert_allclose(G, np.diag([1.0, 2.0, 3.0]), atol=1e-9)
    np.testing.assert_allclose(out, [1.0, -2.0, 0.5], atol=1e-9)


def _two_call_image(ambient, F, x):
    """(Gamma, L) as two oracle calls computed them: pushforward_gamma,
    then the generator half with a Jacobian and Gamma(x) of its own."""
    G = pushforward_gamma(ambient, F, x)
    x = np.asarray(x, dtype=float)
    J = jacobian(F, x, domain_test=ambient.domain_test)
    out = J @ np.asarray(ambient.drift(x))
    Ga = np.asarray(ambient.gamma(x))
    w, V = np.linalg.eigh(0.5 * (Ga + Ga.T))
    cutoff = 1e-13 * max(np.max(np.abs(w)), 1.0)
    f0 = np.asarray(F(x))
    step = _H2 * (1.0 + float(np.max(np.abs(x))))
    for m in range(w.size):
        if abs(w[m]) <= cutoff:
            continue
        d2 = _directional_second(F, x, V[:, m], step, ambient.domain_test, f0)
        out = out + w[m] * d2
    return G, out


def _sphere_case(rng):
    model, proj = sphere_ambient((1, 2, 1), np.array(
        [[0.0, 1.5, 0.7], [1.5, 0.0, 2.0], [0.7, 2.0, 0.0]]))
    return model, proj, sample_sphere(4, rng)


def _wishart_case(rng):
    d, dims = 2, [3, 4, 3]
    fam, fr = sample_smz_frame(d, dims, rng)
    F, _ = smz_projection(d, dims, base_frame=fr)
    return (wishart_ambient(d, [float(r) for r in dims]), F,
            simplex_layout(len(dims), d).to_real(fam.W))


def _polar_case(rng):
    d = 3
    m, fr = sample_polar_frame(d, rng)
    F, _ = polar_projection(d, base_frame=fr)
    return (complex_bm_ambient(d), F,
            CplxLayout((d, d)).to_real(m))


@pytest.mark.parametrize("case", [_sphere_case, _wishart_case, _polar_case])
def test_pushforward_pair_bitwise_equal_to_two_calls(case, rng):
    ambient, F, x = case(rng)
    G, L = pushforward_generator(ambient, F, x)
    G_ref, L_ref = _two_call_image(ambient, F, x)
    assert np.array_equal(G, G_ref)
    assert np.array_equal(L, L_ref)


def test_jacobian_second_order_convergence():
    F = lambda x: np.sin(3.0 * x)
    x = np.array([0.4])
    exact = 3.0 * np.cos(1.2)
    r1 = abs(jacobian(F, x, h=1e-3)[0, 0] - exact)
    r2 = abs(jacobian(F, x, h=5e-4)[0, 0] - exact)
    assert r2 < r1 / 3.0  # ~4x per halving


def test_check_identity_negative_control(rng):
    params = ScalarModelParams(np.array([[0.0, 1.0], [1.0, 0.0]]), [2.0, 2.0])
    model = _closed_form_scalar_model(params)
    F = lambda x: x.copy()

    points = [sample_dirichlet(params.a, rng, margin=1e-3) for _ in range(5)]
    good = check_identity(model, F,
                          lambda x: (model.gamma(x), model.drift(x)),
                          points, name="self")
    assert good.passed and good.n_samples == 5
    bad = check_identity(model, F,
                         lambda x: (2.0 * model.gamma(x), model.drift(x)),
                         points, name="corrupted")
    assert not bad.passed
    assert bad.max_abs_residual > 0.01


@pytest.mark.parametrize("half", ["gamma", "drift"])
@pytest.mark.parametrize("nan_at", [0, 1])
def test_check_identity_nan_closed_form_fails(half, nan_at):
    # a NaN residual, first or after a finite one, must not read as 0
    model = ou_model()
    points = [np.array([0.3]), np.array([-0.4])]

    def closed(x):
        G, L = np.array([[1.0]]), -np.asarray(x)
        if x[0] == points[nan_at][0]:
            G, L = (G * np.nan, L) if half == "gamma" else (G, L * np.nan)
        return G, L

    rep = check_identity(model, lambda x: x.copy(), closed, points)
    assert not rep.passed
    assert np.isnan(rep.max_abs_residual)
    assert np.isnan(rep.details[half]["residual"])
    assert rep.details[half]["worst_index"] == nan_at
    assert not rep.details[half]["pass"]


def test_reversibility_ou():
    res = reversibility_residual(ou_model(), lambda x: -np.asarray(x),
                                 np.array([0.7]))
    np.testing.assert_allclose(res, [0.0], atol=1e-9)


def test_reversibility_jacobi():
    a, b = 2.0, 2.0
    res = reversibility_residual(jacobi_model(a, b),
                                 lambda x: jacobi_grad_log(a, b, x),
                                 np.array([0.3]))
    assert abs(res[0]) < 1e-8


def test_boundary_affine_numeric_simplex(rng):
    A = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    params = ScalarModelParams(A, [2.0, 2.0, 2.0])
    model = _closed_form_scalar_model(params)

    def sampler():
        return sample_dirichlet(params.a, rng, margin=5e-2)

    rep, coeffs = check_boundary_affine_numeric(
        model, lambda x: x[0], sampler)
    assert rep.passed
    # Gamma(x_i, log x_1): for i=1 the quotient is sum_k A_1k x_k,
    # for i=2 it is -A_21 x_2
    np.testing.assert_allclose(coeffs[0], [A[0, 2], 0.0], atol=1e-6)
    np.testing.assert_allclose(coeffs[1:, 0],
                               [-A[0, 2], A[0, 1] - A[0, 2]], atol=1e-6)
    np.testing.assert_allclose(coeffs[1:, 1], [0.0, -A[1, 0]], atol=1e-6)


def test_boundary_affine_numeric_flat_fails(rng):
    flat = DiffusionModel(2, lambda x: np.eye(2), lambda x: np.zeros(2),
                          domain_test=lambda x: bool(
                              np.all(x > 0) and np.sum(x) < 1))

    def sampler():
        return sample_dirichlet([2.0, 2.0, 2.0], rng, margin=5e-2)

    rep, _ = check_boundary_affine_numeric(flat, lambda x: x[0], sampler)
    assert not rep.passed


def test_boundary_affine_rank_deficient(rng):
    model = scalar_model(
        ScalarModelParams(np.array([[0.0, 1.0], [1.0, 0.0]]), [2.0, 2.0]))
    with pytest.raises(RankDeficientFit):
        check_boundary_affine_numeric(model, lambda x: x[0],
                                      lambda: np.array([0.5]), n_samples=2)


def test_check_identity_worst_index_follows_failing_half():
    # Gamma is exact; the drift closed form is wrong at sample 3 only
    amb = DiffusionModel(2, lambda x: np.diag(1.0 + x ** 2), lambda x: -x)
    F = lambda x: x ** 3
    points = [np.array([0.1 * s + 0.2, 0.5 - 0.05 * s]) for s in range(6)]

    def closed(x):
        exact = -3.0 * x ** 3 + 6.0 * x * (1.0 + x ** 2)
        return (np.diag(9.0 * x ** 4 * (1.0 + x ** 2)),
                exact + (0.5 if np.array_equal(x, points[3]) else 0.0))

    rep = check_identity(amb, F, closed, points)
    assert not rep.passed
    assert rep.details["gamma"]["pass"] and not rep.details["drift"]["pass"]
    assert rep.details["drift"]["worst_index"] == 3
    assert rep.worst_index == 3
    assert rep.tol == 1e-4
    assert rep.max_abs_residual == rep.details["drift"]["residual"]


def test_check_identity_reports_half_furthest_past_its_tolerance():
    # a Gamma error of 1e-5 is under the drift tolerance but 10x its own:
    # the report carries the Gamma half and fails
    amb = DiffusionModel(2, lambda x: np.diag(1.0 + x ** 2), lambda x: -x)
    F = lambda x: x ** 3
    points = [np.array([0.3, 0.4]), np.array([0.5, 0.2])]

    def closed(x):
        return (np.diag(9.0 * x ** 4 * (1.0 + x ** 2)) + 1e-5,
                -3.0 * x ** 3 + 6.0 * x * (1.0 + x ** 2))

    rep = check_identity(amb, F, closed, points)
    assert not rep.passed and not rep.details["gamma"]["pass"]
    assert rep.details["drift"]["pass"]
    assert rep.tol == 1e-6
    assert 1e-6 < rep.max_abs_residual < 1e-4
    assert rep.passed == (rep.max_abs_residual <= rep.tol)


def test_check_identity_relative_residuals():
    # closed forms off by 0.5% of their size: a large absolute residual
    # that relative residuals |got - want| / (1 + |want|) bring under 1e-2
    amb = DiffusionModel(1, lambda x: np.array([[1.0 + x[0] ** 2]]),
                         lambda x: -x)
    F = lambda x: 10.0 * x ** 3
    points = [np.array([s]) for s in (0.5, 2.0, 3.0, 1.0)]

    def closed(x):
        gamma = (30.0 * x ** 2) ** 2 * (1.0 + x ** 2)
        drift = -30.0 * x ** 3 + 60.0 * x * (1.0 + x ** 2)
        return 1.005 * np.diag(gamma), 1.005 * drift

    absolute = check_identity(amb, F, closed, points, tol_g=1e-2, tol_l=1e-2)
    relative = check_identity(amb, F, closed, points, tol_g=1e-2, tol_l=1e-2,
                              relative=True)
    assert not absolute.passed and absolute.max_abs_residual > 1.0
    assert relative.passed
    assert 1e-3 < relative.max_abs_residual < 5e-3
    # the largest image entries, at x = 3, are worst in both halves
    assert relative.worst_index == absolute.worst_index == 2
    for d in relative.details.values():
        assert d["worst_index"] == 2


def _walled_cube():
    """The half-line x < 1 with unit co-metric and no drift, and F(x) = x^3,
    which records every point it is evaluated at."""
    model = DiffusionModel(1, lambda x: np.eye(1), lambda x: np.zeros(1),
                           domain_test=lambda x: x[0] < 1.0)
    points = []

    def F(x):
        points.append(float(x[0]))
        return x ** 3

    return model, F, points


def test_stencil_quarters_the_step_at_a_wall():
    model, F, points = _walled_cube()
    # first difference: the step 1e-5 (1 + |x|) crosses the wall 1e-5 away,
    # a quarter of it does not
    x = np.array([1.0 - 1e-5])
    J = jacobian(F, x, domain_test=model.domain_test)
    np.testing.assert_allclose(J, [[3.0 * x[0] ** 2]], rtol=1e-8)
    h = 1e-5 * (1.0 + x[0]) / 4.0
    np.testing.assert_allclose(points, [x[0] + h, x[0] - h], rtol=1e-15)
    # second difference: the step 1e-3 (1 + |x|) crosses the wall 1e-3
    # away; L(x^3) = 6 x
    points.clear()
    x = np.array([1.0 - 1e-3])
    G, L = pushforward_generator(model, F, x)
    np.testing.assert_allclose(G, [[9.0 * x[0] ** 4]], rtol=1e-8)
    np.testing.assert_allclose(L, [6.0 * x[0]], rtol=1e-6)
    # two Jacobian points, F(x), and the four points of the quartered
    # step: the first point past the wall stopped the full step's stencil
    assert len(points) == 7
    assert max(points) < 1.0


def test_stencil_raises_after_three_quarterings():
    model, F, points = _walled_cube()
    # 1e-5 (1 + |x|) / 64 still crosses a wall 1e-9 away
    with pytest.raises(DerivativeError):
        jacobian(F, np.array([1.0 - 1e-9]), domain_test=model.domain_test)
    # the first difference fits 1e-5 from the wall, the second difference's
    # 1e-3 (1 + |x|) / 64 does not
    with pytest.raises(DerivativeError):
        pushforward_generator(model, F, np.array([1.0 - 1e-5]))
    assert points and max(points) < 1.0


def test_stencil_treats_none_as_outside():
    # a log-function that is None past the wall, as log P where P = 0
    calls = []

    def log_f(x):
        calls.append(float(x[0]))
        return None if x[0] >= 1.0 else x[0] ** 2

    x = np.array([1.0 - 1.5e-6])
    np.testing.assert_allclose(grad_log_numeric(log_f, x), [2.0 * x[0]],
                               rtol=1e-8)
    # the None at x + h stopped the stencil before x - h; a quarter of the
    # step fits
    assert len(calls) == 3 and calls[0] >= 1.0 and max(calls[1:]) < 1.0
    calls.clear()
    with pytest.raises(DerivativeError):
        grad_log_numeric(log_f, np.array([1.0 - 1e-12]))
    assert len(calls) == 4 and min(calls) >= 1.0


@pytest.mark.parametrize("dim", [1, 4, 17, 23])
def test_coefficient_form_of_dense_quadratic_kernels(dim, rng):
    # dense symmetric C0, C1_i and C2_ij and an affine drift, as kernels of
    # stacks of points; at dim 17 and 23 both stencil loops take more than
    # one batch of _STENCIL_BATCH points
    def sym(shape):
        C = rng.standard_normal(shape + (dim, dim))
        return C + C.swapaxes(-1, -2)

    C0, C1, C2 = sym(()), sym((dim,)), sym((dim, dim))
    b0, B1 = rng.standard_normal(dim), rng.standard_normal((dim, dim))
    sizes = []

    def gamma(X):
        sizes.append(len(X))
        return (C0 + np.einsum("si,iab->sab", X, C1)
                + np.einsum("si,sj,ijab->sab", X, X, C2))

    def drift(X):
        return b0 + X @ B1.T

    form_gamma, form_drift = _coefficient_form(dim, gamma, drift)
    assert max(sizes) <= 2 * _STENCIL_BATCH
    for x in rng.uniform(-1.0, 1.0, (5, dim)):
        for got, want in ((form_gamma(x), gamma(x[None])[0]),
                          (form_drift(x), drift(x[None])[0])):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        G = form_gamma(x)
        assert G.tobytes() == G.T.tobytes()

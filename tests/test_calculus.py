import numpy as np
import pytest

from matrix_dirichlet.calculus import (
    DiffusionModel, check_boundary_affine_numeric,
    check_identity, jacobian, pushforward_gamma, pushforward_generator,
    reversibility_residual)
from matrix_dirichlet.errors import RankDeficientFit
from matrix_dirichlet.simplex import (
    ScalarModelParams, sample_dirichlet, scalar_model)


def ou_model():
    return DiffusionModel(1, gamma=lambda x: np.array([[1.0]]),
                          drift=lambda x: -np.asarray(x))


def jacobi_model(a, b):
    # (1-x^2) f'' - (a - b + (a+b) x) f' on (-1, 1)
    return DiffusionModel(
        1,
        gamma=lambda x: np.array([[1.0 - x[0] ** 2]]),
        drift=lambda x: np.array([-(a - b + (a + b) * x[0])]),
        domain_test=lambda x: abs(x[0]) < 1.0)


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
    out = pushforward_generator(ou_model(), F, np.array([1.0]))
    np.testing.assert_allclose(out, [0.0], atol=1e-8)
    out = pushforward_generator(ou_model(), F, np.array([0.5]))
    np.testing.assert_allclose(out, [1.5], atol=1e-8)


def test_pushforward_generator_identity_map():
    amb = DiffusionModel(3, lambda x: np.diag([1.0, 2.0, 3.0]),
                         lambda x: np.array([1.0, -2.0, 0.5]))
    F = lambda x: x.copy()
    out = pushforward_generator(amb, F, np.zeros(3))
    np.testing.assert_allclose(out, [1.0, -2.0, 0.5], atol=1e-9)


def test_jacobian_second_order_convergence():
    F = lambda x: np.sin(3.0 * x)
    x = np.array([0.4])
    exact = 3.0 * np.cos(1.2)
    r1 = abs(jacobian(F, x, h=1e-3)[0, 0] - exact)
    r2 = abs(jacobian(F, x, h=5e-4)[0, 0] - exact)
    assert r2 < r1 / 3.0  # ~4x per halving


def test_check_identity_negative_control(rng):
    params = ScalarModelParams(np.array([[0.0, 1.0], [1.0, 0.0]]), [2.0, 2.0])
    model = scalar_model(params)
    F = lambda x: x.copy()

    def sampler():
        return sample_dirichlet(params.a, rng, margin=1e-3)

    good = check_identity(model, F,
                          lambda x: model.gamma(x), lambda x: model.drift(x),
                          sampler, n_samples=5, name="self")
    assert good.passed
    bad = check_identity(model, F,
                         lambda x: 2.0 * model.gamma(x), None,
                         sampler, n_samples=5, name="corrupted")
    assert not bad.passed
    assert bad.max_abs_residual > 0.01


def test_reversibility_ou():
    res = reversibility_residual(ou_model(), lambda x: -np.asarray(x),
                                 np.array([0.7]))
    np.testing.assert_allclose(res, [0.0], atol=1e-9)


def test_reversibility_jacobi():
    a, b = 2.0, 2.0
    model = jacobi_model(a, b)

    def grad_log(x):
        return np.array([-(a - 1) / (1 - x[0]) + (b - 1) / (1 + x[0])])

    res = reversibility_residual(model, grad_log, np.array([0.3]))
    assert abs(res[0]) < 1e-8


def test_boundary_affine_numeric_simplex(rng):
    A = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    params = ScalarModelParams(A, [2.0, 2.0, 2.0])
    model = scalar_model(params)

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
    draws = iter(points)

    def closed_gamma(x):
        return np.diag(9.0 * x ** 4 * (1.0 + x ** 2))

    def closed_drift(x):
        exact = -3.0 * x ** 3 + 6.0 * x * (1.0 + x ** 2)
        return exact + (0.5 if np.array_equal(x, points[3]) else 0.0)

    rep = check_identity(amb, F, closed_gamma, closed_drift,
                         lambda: next(draws), n_samples=6)
    assert not rep.passed
    assert rep.details["gamma"]["pass"] and not rep.details["drift"]["pass"]
    assert rep.details["drift"]["worst_index"] == 3
    assert rep.worst_index == 3

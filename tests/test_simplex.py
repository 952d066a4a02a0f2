import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matrix_dirichlet.calculus import (
    pushforward_generator, reversibility_residual)
from matrix_dirichlet.errors import DomainError, OffSphereError
from matrix_dirichlet.sde import diffusion_factor
from matrix_dirichlet.simplex import (
    ScalarModelParams, _closed_form_scalar_model, dirichlet_grad_log,
    dirichlet_log_density, drift_simplex, full_coordinates, gamma_simplex,
    in_simplex, laguerre_ambient, ou_warped_ambient, sample_dirichlet,
    sample_sphere, scalar_model, sphere_ambient)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def ones_params(n, a=None):
    A = np.ones((n + 1, n + 1)) - np.eye(n + 1)
    return ScalarModelParams(A, a if a is not None else np.ones(n + 1))


def test_gamma_hand_values():
    p = ones_params(2, [1.0, 1.0, 1.0])
    G = gamma_simplex(p, np.array([0.5, 0.5]))
    np.testing.assert_allclose(G, [[0.25, -0.25], [-0.25, 0.25]])
    # boundary degeneracy
    G0 = gamma_simplex(p, np.array([0.0, 0.5]))
    np.testing.assert_allclose(G0[0], [0.0, 0.0])
    # n=1 beta reduction
    p1 = ones_params(1)
    np.testing.assert_allclose(gamma_simplex(p1, np.array([0.3])), [[0.21]])


def test_drift_hand_values():
    p1 = ones_params(1, [1.0, 1.0])
    np.testing.assert_allclose(drift_simplex(p1, np.array([0.5])), [0.0])
    np.testing.assert_allclose(drift_simplex(p1, np.array([0.0])), [1.0])
    p2 = ones_params(2, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(
        drift_simplex(p2, np.array([1 / 3, 1 / 3])), [-1.0, 0.0], atol=1e-14)


def test_domain_error():
    p = ones_params(1)
    with pytest.raises(DomainError):
        gamma_simplex(p, np.array([1.5]))


def test_density_values():
    assert np.isclose(dirichlet_log_density([1, 1, 1], [0.2, 0.3]), np.log(2.0))
    assert np.isclose(dirichlet_log_density([2, 2], [0.5]), np.log(1.5))
    np.testing.assert_allclose(dirichlet_grad_log([1, 1, 1], [0.2, 0.3]),
                               [0.0, 0.0])


def test_mass_conservation(rng):
    n = 3
    A = rng.uniform(0.2, 2.0, (n + 1, n + 1))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    a = rng.uniform(0.5, 3.0, n + 1)
    p = ScalarModelParams(A, a)
    x = sample_dirichlet(a, rng)
    drift = drift_simplex(p, x)
    xf = np.append(x, 1 - np.sum(x))
    # implied drift of x_{n+1} from the same formula
    last = -xf[n] * (A[n] @ a) + a[n] * (A[n] @ xf)
    assert abs(np.sum(drift) + last) < 1e-12


def test_psd_interior(rng):
    p = ones_params(3, [1.0, 2.0, 0.7, 1.5])
    for _ in range(100):
        x = sample_dirichlet(p.a, rng, margin=1e-6)
        w = np.linalg.eigvalsh(gamma_simplex(p, x))
        assert w.min() > 0


def test_reversibility(rng):
    n = 2
    A = np.array([[0.0, 1.3, 0.6], [1.3, 0.0, 2.1], [0.6, 2.1, 0.0]])
    a = np.array([1.7, 0.9, 2.4])
    model = _closed_form_scalar_model(ScalarModelParams(A, a))
    for _ in range(20):
        x = sample_dirichlet(a, rng, margin=5e-2)
        res = reversibility_residual(model, lambda y: dirichlet_grad_log(a, y), x)
        assert np.max(np.abs(res)) < 1e-8


def test_sphere_ambient_identity(rng):
    sizes = (2, 2)
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    model, proj = sphere_ambient(sizes, A)
    params = ScalarModelParams(A, np.array(sizes) / 2.0)
    for _ in range(10):
        y = sample_sphere(4, rng)
        x = proj(y)
        Gp, Lp = pushforward_generator(model, proj, y)
        np.testing.assert_allclose(Gp, gamma_simplex(params, x), atol=1e-6)
        np.testing.assert_allclose(Lp, drift_simplex(params, x), atol=1e-4)


def test_sphere_ambient_weighted(rng):
    sizes = (1, 2, 1)
    A = np.array([[0.0, 1.5, 0.7], [1.5, 0.0, 2.0], [0.7, 2.0, 0.0]])
    model, proj = sphere_ambient(sizes, A)
    params = ScalarModelParams(A, np.array(sizes) / 2.0)
    for _ in range(10):
        y = sample_sphere(4, rng)
        x = proj(y)
        G, L = pushforward_generator(model, proj, y)
        np.testing.assert_allclose(G, gamma_simplex(params, x), atol=1e-6)
        np.testing.assert_allclose(L, drift_simplex(params, x), atol=1e-4)


def test_sphere_closure(rng):
    # two ambient points with the same image give the same pushforward
    sizes = (2, 2)
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    model, proj = sphere_ambient(sizes, A)
    y1 = sample_sphere(4, rng)
    # rotate within each block: same squared sums
    th1, th2 = 0.7, -1.1
    R = np.eye(4)
    R[:2, :2] = [[np.cos(th1), -np.sin(th1)], [np.sin(th1), np.cos(th1)]]
    R[2:, 2:] = [[np.cos(th2), -np.sin(th2)], [np.sin(th2), np.cos(th2)]]
    y2 = R @ y1
    np.testing.assert_allclose(proj(y1), proj(y2), atol=1e-12)
    G1, L1 = pushforward_generator(model, proj, y1)
    G2, L2 = pushforward_generator(model, proj, y2)
    np.testing.assert_allclose(G1, G2, atol=1e-6)
    np.testing.assert_allclose(L1, L2, atol=1e-4)


def test_off_sphere_error():
    model, _ = sphere_ambient((1, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(OffSphereError):
        model.gamma(np.array([1.0, 1.0]))


def test_laguerre_ambient_identities(rng):
    a = np.array([2.0, 3.0, 1.5])
    abar = np.sum(a)
    model, proj = laguerre_ambient(a)
    for _ in range(10):
        y = rng.gamma(shape=a)
        S = np.sum(y)
        z = y[:2] / S
        out = proj(y)
        np.testing.assert_allclose(out, np.concatenate([[S], z]))
        G, L = pushforward_generator(model, proj, y)
        assert abs(G[0, 0] - S) < 1e-6 * (1 + S)
        np.testing.assert_allclose(G[0, 1:], 0.0, atol=1e-6)
        expect = (np.diag(z) - np.outer(z, z)) / S
        np.testing.assert_allclose(G[1:, 1:], expect, atol=1e-6)
        assert abs(L[0] - (abar - S)) < 1e-4 * (1 + S)
        np.testing.assert_allclose(L[1:], (a[:2] - abar * z) / S, atol=1e-4)


def test_laguerre_symmetric_point():
    a = np.array([1.0, 1.0])
    model, proj = laguerre_ambient(a)
    y = np.array([1.0, 1.0])
    G, L = pushforward_generator(model, proj, y)
    assert abs(G[0, 1]) < 1e-8
    assert abs(L[1]) < 1e-6


def test_ou_warped_ambient(rng):
    sizes = (2, 1, 1)
    N = 4
    A = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.5], [0.5, 1.5, 0.0]])
    model, proj = ou_warped_ambient(sizes, A)
    params = ScalarModelParams(A, np.array(sizes) / 2.0)
    for _ in range(10):
        y = rng.standard_normal(N)
        out = proj(y)
        S, z = out[0], out[1:]
        G, L = pushforward_generator(model, proj, y)
        assert abs(G[0, 0] - 4 * S) < 1e-5 * (1 + S)
        np.testing.assert_allclose(G[0, 1:], 0.0, atol=1e-6)
        np.testing.assert_allclose(G[1:, 1:],
                                   gamma_simplex(params, z) / S, atol=1e-6)
        assert abs(L[0] - (2 * N - 2 * S)) < 1e-3
        np.testing.assert_allclose(L[1:], drift_simplex(params, z) / S,
                                   atol=1e-4)


def test_ou_warped_radius_drift():
    # radial drift of r at r=1, N=3 is (N-1)/r - r = 1
    sizes = (1, 1, 1)
    A = np.ones((3, 3)) - np.eye(3)
    model, _ = ou_warped_ambient(sizes, A)
    radius = lambda y: np.array([np.linalg.norm(y)])
    y = np.array([1.0, 0.0, 0.0])
    _, L = pushforward_generator(model, radius, y)
    np.testing.assert_allclose(L, [1.0], atol=1e-4)


def _pair_loop_fields(p_sizes, A):
    """The rotation fields as the old per-pair loop listed them."""
    sets, start = [], 0
    for p in p_sizes:
        sets.append(list(range(start, start + p)))
        start += p
    pairs = []
    for i in range(len(p_sizes)):
        for j in range(i + 1, len(p_sizes)):
            w = 0.25 * A[i][j]
            if w != 0.0:
                pairs += [(p, q, w) for p in sets[i] for q in sets[j]]
    return pairs, start


def _pair_loop_gamma_drift(y, pairs, N):
    G = np.zeros((N, N))
    b = np.zeros(N)
    for (p, q, w) in pairs:
        v = np.zeros(N)
        v[q] = y[p]
        v[p] = -y[q]
        G += w * np.outer(v, v)
        b[p] -= w * y[p]
        b[q] -= w * y[q]
    return G, b


@pytest.mark.parametrize("sizes", [(2, 2), (1, 2, 1), (3, 1, 2, 2), (1, 1)])
def test_rotation_ambients_match_pair_loop(rng, sizes):
    # the stacked rotation fields give the per-pair loop's Gamma and drift
    # bit for bit, on the sphere and in the warped product
    m, N = len(sizes), sum(sizes)
    A = rng.uniform(0.1, 2.0, (m, m))
    A = A + A.T
    np.fill_diagonal(A, 0.0)
    if m > 2:
        A[0, 2] = A[2, 0] = 0.0  # a pair without fields
    pairs, _ = _pair_loop_fields(sizes, A)
    sphere, _ = sphere_ambient(sizes, A)
    warped, _ = ou_warped_ambient(sizes, A)
    for _ in range(10):
        y = sample_sphere(N, rng)
        G, b = _pair_loop_gamma_drift(y, pairs, N)
        assert sphere.gamma(y).tobytes() == G.tobytes()
        assert sphere.drift(y).tobytes() == b.tobytes()
        y = 1.7 * rng.standard_normal(N)
        G, b = _pair_loop_gamma_drift(y, pairs, N)
        r2 = np.dot(y, y)
        assert warped.gamma(y).tobytes() == (
            np.outer(y, y) / r2 + G / r2).tobytes()
        assert warped.drift(y).tobytes() == (
            (N - 1.0) * y / r2 - y + b / r2).tobytes()


# -- the vectorised closed forms against the loops they replaced --------------
# Each reference below is the earlier implementation, kept verbatim; the
# package's versions must give the same bits and raise where these raise.

def _full_coordinates_ref(x):
    x = np.asarray(x, dtype=float)
    return np.append(x, 1.0 - np.sum(x))


def _in_simplex_ref(x, margin=0.0):
    return bool(np.all(_full_coordinates_ref(x) >= margin))


def _gamma_simplex_ref(params, x):
    xf = _full_coordinates_ref(x)
    if not np.all(xf >= -1e-12):  # NaN fails each >=
        raise DomainError("point outside the simplex")
    n = params.n
    A = params.A
    G = np.empty((n, n))
    row_sums = A[:n] @ xf
    for i in range(n):
        for j in range(n):
            G[i, j] = -A[i, j] * xf[i] * xf[j]
        G[i, i] += row_sums[i] * xf[i]
    return G


def _drift_simplex_ref(params, x):
    xf = _full_coordinates_ref(x)
    if not np.all(xf >= -1e-12):  # NaN fails each >=
        raise DomainError("point outside the simplex")
    n = params.n
    A = params.A
    a = params.a
    return -xf[:n] * (A[:n] @ a) + a[:n] * (A[:n] @ xf)


def _outcome(f, *args):
    """f(*args) as raw bits, or the DomainError it raised."""
    try:
        out = np.asarray(f(*args))
    except DomainError:
        return "DomainError"
    return out.shape, out.dtype, out.tobytes()


def _assert_same_as_reference(params, x):
    assert _outcome(full_coordinates, x) == _outcome(_full_coordinates_ref, x)
    for margin in (0.0, 1e-12, -1e-12):
        assert in_simplex(x, margin) is _in_simplex_ref(x, margin)
    assert (_outcome(gamma_simplex, params, x)
            == _outcome(_gamma_simplex_ref, params, x))
    assert (_outcome(drift_simplex, params, x)
            == _outcome(_drift_simplex_ref, params, x))


def _random_params(gen, n):
    """Non-unit symmetric weights, some of them zero, and random exponents."""
    A = gen.uniform(0.05, 3.0, (n + 1, n + 1))
    A *= gen.uniform(size=A.shape) > 0.2
    A = A + A.T
    np.fill_diagonal(A, 0.0)
    return ScalarModelParams(A, gen.uniform(0.2, 4.0, n + 1))


POINT_KINDS = ["interior", "boundary", "last-boundary", "outside",
               "nan", "inf", "-inf"]


def _point(gen, n, kind):
    x = sample_dirichlet(np.ones(n + 1), gen)
    i = gen.integers(n)
    if kind == "boundary":
        x[i] = 0.0
    elif kind == "last-boundary":
        x[i] = 1.0 - (np.sum(x) - x[i])  # x_{n+1} at roundoff from 0
    elif kind == "outside":
        # just outside: some of these pass the -1e-12 tolerance, some not
        x[i] = -gen.choice([0.5e-12, 1e-12, 2e-12, 1e-9, 1e-3])
    elif kind != "interior":
        x[i] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return x


@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(POINT_KINDS))
@settings(max_examples=300, deadline=None)
def test_closed_forms_bitwise_equal_to_loops(n, seed, kind):
    gen = np.random.Generator(np.random.Philox(seed))
    params = _random_params(gen, n)
    _assert_same_as_reference(params, _point(gen, n, kind))


@given(x=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                  min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
@example(x=[np.inf, np.nan], seed=0)
@example(x=[np.nan, 0.1], seed=0)
def test_closed_forms_bitwise_equal_on_any_floats(x, seed):
    gen = np.random.Generator(np.random.Philox(seed))
    x = np.array(x)
    with np.errstate(all="ignore"):
        _assert_same_as_reference(_random_params(gen, x.size), x)


def test_in_simplex_of_no_coordinates(rng):
    # n = 0: the simplex is the point x_{n+1} = 1
    for margin in (0.0, 1e-12, 0.5, 1.0, 1.5, np.inf, np.nan):
        assert in_simplex(np.array([]), margin) is _in_simplex_ref(
            np.array([]), margin)
    assert sample_dirichlet([2.0], rng).shape == (0,)


def test_full_coordinates_flattens_like_append():
    x = np.array([[0.25], [0.5]])
    assert full_coordinates(x).tobytes() == _full_coordinates_ref(x).tobytes()


# -- quadratic coefficient form -----------------------------------------------

def _coefficient_case(n, weights, rng):
    if weights == "unit":
        A = np.ones((n + 1, n + 1)) - np.eye(n + 1)
    else:
        A = rng.uniform(0.2, 3.0, (n + 1, n + 1))
        A = A + A.T
        np.fill_diagonal(A, 0.0)
    return ScalarModelParams(A, rng.uniform(0.3, 4.0, n + 1))


@pytest.mark.parametrize("weights", ["unit", "random"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scalar_coefficient_form_matches_closed_forms(n, weights, rng):
    params = _coefficient_case(n, weights, rng)
    model = scalar_model(params)
    points = [sample_dirichlet(params.a, rng) for _ in range(20)]
    # relative to each form's largest value over the points: at n = 1 the
    # drift vanishes inside the simplex, where no pointwise ratio is small
    for got, want in (([model.gamma(x) for x in points],
                       [gamma_simplex(params, x) for x in points]),
                      ([model.drift(x) for x in points],
                       [drift_simplex(params, x) for x in points])):
        got, want = np.array(got), np.array(want)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for x in points:
        G = model.gamma(x)
        assert G.tobytes() == G.T.tobytes()
    # the stacked kernels the coefficients are taken from, point by point
    stack = np.array([full_coordinates(x) for x in points])
    for table, form in zip(params._tables, (gamma_simplex, drift_simplex)):
        values = table(stack)
        for s, x in enumerate(points):
            assert values[s].tobytes() == form(params, x).tobytes()


@pytest.mark.parametrize("weights", ["unit", "random"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scalar_coefficient_form_near_the_boundary(n, weights, rng):
    # Gamma vanishes at a vertex, but the coefficient form's error is
    # roundoff of |A|: at the smallest margin it must still factor, and
    # stay within roundoff of the closed forms, near every vertex and
    # every face (x_{n+1} = 0 too)
    params = _coefficient_case(n, weights, rng)
    model = scalar_model(params, margin=1e-12)
    A, a = params.A, params.a
    for v in range(n + 1):
        near = 1e-12 * rng.uniform(1.5, 2.0, n + 1)
        vertex = near.copy()
        vertex[v] = 0.0
        vertex[v] = 1.0 - vertex.sum()
        face = rng.dirichlet(np.ones(n + 1))
        face[v] = 0.0
        face *= (1.0 - near[v]) / face.sum()
        face[v] = near[v]
        for x in (vertex[:n], face[:n]):
            assert model.domain_test(x)
            G = model.gamma(x)
            diffusion_factor(G)
            assert np.max(np.abs(G - gamma_simplex(params, x))) <= (
                1e-15 * A.max())
            assert np.max(np.abs(model.drift(x) - drift_simplex(params, x))
                          ) <= 1e-14 * A.max() * a.max()


@pytest.mark.parametrize("margin", [0.0, 1e-13, -1e-12, -0.5, np.nan, np.inf,
                                    -np.inf])
def test_scalar_model_rejects_bad_margin(margin):
    # the coefficient form does not check the domain, so the domain test
    # alone keeps a path inside the simplex, and at least 1e-12 inside,
    # where its roundoff cannot make Gamma indefinite
    with pytest.raises(ValueError, match="margin"):
        scalar_model(ones_params(2), margin=margin)


@pytest.mark.parametrize("A, a", [
    ([[0, np.inf, 1], [np.inf, 0, 1], [1, 1, 0]], [1.0, 1.0, 1.0]),
    ([[0, np.nan, 1], [np.nan, 0, 1], [1, 1, 0]], [1.0, 1.0, 1.0]),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], [1.0, np.inf, 1.0]),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], [np.nan, 1.0, 1.0])],
    ids=["inf-weight", "nan-weight", "inf-exponent", "nan-exponent"])
def test_scalar_params_reject_non_finite(A, a):
    # an infinite weight made scalar_model's Gamma all NaN, with warnings
    with pytest.raises(ValueError, match="finite"):
        ScalarModelParams(A, a)


def test_scalar_model_needs_a_free_coordinate():
    params = ScalarModelParams(np.zeros((1, 1)), [2.0])
    assert params.n == 0
    with pytest.raises(ValueError, match="n = 0"):
        scalar_model(params)


def test_scalar_modules_load_no_matrix_code():
    # the scalar integration path imports no matrix-model module
    code = ("import sys, matrix_dirichlet.sde, matrix_dirichlet.simplex; "
            "print(*sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC)).stdout
    loaded = {m.split(".", 1)[1] for m in out.split()
              if m.startswith("matrix_dirichlet.")}
    assert "sde" in loaded and "simplex" in loaded
    assert not loaded & {"matrix_simplex", "realify", "linalg"}

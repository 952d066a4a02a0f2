import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.linalg.blas import zgemm
from scipy.linalg.lapack import zheevd

from matrix_dirichlet.calculus import check_identity
from matrix_dirichlet.errors import OffGroupError
from matrix_dirichlet.linalg import _haar_draws, _hermitize, haar_unitary
from matrix_dirichlet.matrix_simplex import (
    drift_model1, drift_model1_entries, gamma_model1, gamma_model1_entries)
from matrix_dirichlet.realify import CplxLayout
from matrix_dirichlet.sun import (
    Partition, SUNState, _brownian_path, _extract_blocks, _step_basis,
    algebra_element, casimir_field_list, casimir_fields_apply, extract_Z,
    extraction_map, fields_image_entries, image_params, lemma_first_action,
    lemma_second_action, lpq_field_list, lpq_weighted_model, sun_ambient,
    sun_brownian_step, verify_casimir_image)


def extract_Z_all(u, partition):
    """All n+1 blocks by direct multiplication, one column group at a time:
    the loop reference of the stacked extraction."""
    d = partition.d
    return [u[:d, cols] @ u[:d, cols].conj().T for cols in partition.sets]


def test_sun_ambient_hand_values():
    N = 2
    layout = CplxLayout((N, N))
    model = sun_ambient(N)
    x = layout.to_real(np.eye(N, dtype=complex))
    G = model.gamma(x)
    T = layout.gamma_to_entries(G, layout)
    m = N * N
    # Gamma(u_11, conj u_11) = 1/4 - 1/8
    assert abs(T[0, m + 0] - 0.125) < 1e-12
    # Gamma(u_11, u_22) = 0 + 1/8
    assert abs(T[0, 3] - 0.125) < 1e-12
    # Gamma(u_11, u_11) = -1/4 + 1/8
    assert abs(T[0, 0] + 0.125) < 1e-12
    b = model.drift(x)
    expect = layout.drift_to_real(
        layout.assemble_entry_drift(-0.375 * np.eye(N).ravel()))
    np.testing.assert_allclose(b, expect, atol=1e-14)


def test_sun_ambient_off_group():
    model = sun_ambient(2)
    layout = CplxLayout((2, 2))
    with pytest.raises(OffGroupError):
        model.gamma(layout.to_real(2.0 * np.eye(2, dtype=complex)))
    with pytest.raises(OffGroupError):
        SUNState(1.1 * np.eye(3))
    with pytest.raises(OffGroupError):
        SUNState(np.diag([1.0, -1.0]))  # unitary but det -1


def test_casimir_assembly_oracle(rng):
    # summing the squared fields with the Casimir weights reconstructs the
    # closed-form co-metric and drift of the group entries
    N = 3
    layout = CplxLayout((N, N))
    model = sun_ambient(N)
    for _ in range(5):
        u = haar_unitary(N, rng, special=True)
        x = layout.to_real(u)
        m = N * N
        Gzz = np.zeros((m, m), dtype=complex)
        Gzw = np.zeros((m, m), dtype=complex)
        Lz = np.zeros(m, dtype=complex)
        for (_, _, _, w, Vu, V2u) in casimir_fields_apply(N, "entries", u):
            v = Vu.ravel()
            Gzz += w * np.outer(v, v)
            Gzw += w * np.outer(v, v.conj())
            Lz += w * V2u.ravel()
        G = layout.gamma_to_real(layout.assemble_entry_gamma(Gzz, Gzw))
        np.testing.assert_allclose(G, model.gamma(x), atol=1e-10)
        b = layout.drift_to_real(layout.assemble_entry_drift(Lz))
        np.testing.assert_allclose(b, model.drift(x), atol=1e-10)


def test_extract_Z_examples(rng):
    part = Partition(2, [2, 2])
    p = extract_Z(np.eye(4, dtype=complex), part)
    np.testing.assert_allclose(p.Z[0], np.eye(2), atol=1e-14)
    np.testing.assert_allclose(p.last(), np.zeros((2, 2)), atol=1e-14)
    # random u: psd blocks summing to Id, implied last block matches direct
    u = haar_unitary(4, rng, special=True)
    p = extract_Z(u, part)
    blocks = extract_Z_all(u, part)
    np.testing.assert_allclose(p.Z[0], blocks[0], atol=1e-13)
    np.testing.assert_allclose(p.last(), blocks[1], atol=1e-12)
    for Z in blocks:
        assert np.min(np.linalg.eigvalsh(Z)) > -1e-12
    # scalar case
    u2 = haar_unitary(2, rng, special=True)
    p2 = extract_Z(u2, Partition(1, [1, 1]))
    assert abs(p2.Z[0][0, 0] - abs(u2[0, 0]) ** 2) < 1e-14


def test_field_actions_match_lemma(rng):
    # commutator arithmetic vs the closed-form action table
    part = Partition(2, [2, 2, 1])
    N = part.N
    fields = casimir_field_list(N)
    for _ in range(10):
        u = haar_unitary(N, rng, special=True)
        acts = casimir_fields_apply(N, part, u, fields=fields)
        for (kind, i, j, _, firsts, seconds) in acts:
            np.testing.assert_allclose(
                firsts, lemma_first_action(kind, i, j, part, u), atol=1e-8)
            np.testing.assert_allclose(
                seconds, lemma_second_action(kind, i, j, part, u), atol=1e-8)
            if kind == "D":
                np.testing.assert_allclose(firsts, 0.0, atol=1e-14)


def test_field_first_at_identity():
    # V_R_12 u_11 at u=Id is u_12 = 0
    acts = casimir_fields_apply(2, "entries", np.eye(2, dtype=complex))
    kind, i, j, _, Vu, _ = acts[0]
    assert (kind, i, j) == ("R", 0, 1)
    assert abs(Vu[0, 0]) < 1e-15


def test_verify_casimir_image_small(rng):
    rep = verify_casimir_image(3, Partition(1, [1, 1, 1]), rng, n_samples=5)
    assert rep.passed, repr(rep)
    rep = verify_casimir_image(4, Partition(2, [2, 2]), rng, n_samples=5)
    assert rep.passed, repr(rep)


def test_verify_casimir_image_negative_control(rng):
    # exponents off by one must fail the drift half
    N, part = 3, Partition(1, [1, 1, 1])
    ambient = sun_ambient(N)
    F = extraction_map(part)
    params = image_params(part)
    bad = image_params(part)
    bad.a = bad.a + 1.0
    layout = CplxLayout((N, N))

    def closed(x):
        point = extract_Z(layout.from_real(x), part)
        return gamma_model1(params, point), drift_model1(bad, point)

    points = [layout.to_real(haar_unitary(N, rng, special=True))
              for _ in range(3)]
    rep = check_identity(ambient, F, closed, points, name="corrupted")
    assert not rep.passed


def test_lpq_image_exact(rng):
    # weighted pair operators: exact field arithmetic vs model I closed forms
    part = Partition(1, [2, 2, 1])
    N = part.N
    A = np.array([[0.0, 1.3, 0.4], [1.3, 0.0, 0.8], [0.4, 0.8, 0.0]])
    params = image_params(part, A)
    fields = lpq_field_list(part, A)
    for _ in range(10):
        u = haar_unitary(N, rng, special=True)
        T, L = fields_image_entries(u, part, fields)
        point = extract_Z(u, part)
        np.testing.assert_allclose(T, gamma_model1_entries(params, point),
                                   atol=1e-10)
        np.testing.assert_allclose(L, drift_model1_entries(params, point),
                                   atol=1e-10)


def test_lpq_single_pair_locality(rng):
    # a single pair (p,q) only moves blocks p and q
    part = Partition(1, [1, 1, 1, 1])
    N = part.N
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 0] = 1.0
    fields = lpq_field_list(part, A)
    u = haar_unitary(N, rng, special=True)
    T, L = fields_image_entries(u, part, fields)
    # block 2 (free index r=2) is untouched
    assert abs(L[2]) < 1e-14
    np.testing.assert_allclose(T[2, :], 0.0, atol=1e-14)
    np.testing.assert_allclose(T[:, 2], 0.0, atol=1e-14)


def test_lpq_matches_casimir_weights(rng):
    # uniform weights 1/(2N) reproduce the group Laplacian's image params
    part = Partition(2, [2, 2])
    N = part.N
    A = np.full((2, 2), 1.0 / (2.0 * N))
    np.fill_diagonal(A, 0.0)
    fields = lpq_field_list(part, A)
    params = image_params(part)
    u = haar_unitary(N, rng, special=True)
    T, L = fields_image_entries(u, part, fields)
    point = extract_Z(u, part)
    np.testing.assert_allclose(T, gamma_model1_entries(params, point),
                               atol=1e-12)
    np.testing.assert_allclose(L, drift_model1_entries(params, point),
                               atol=1e-12)


def test_lpq_weighted_model_pushforward(rng):
    # generic finite-difference route through the realified group model
    part = Partition(1, [2, 1, 1])
    N = part.N
    A = np.array([[0.0, 0.9, 0.5], [0.9, 0.0, 1.2], [0.5, 1.2, 0.0]])
    ambient = lpq_weighted_model(N, part, A)
    F = extraction_map(part)
    params = image_params(part, A)
    layout = CplxLayout((N, N))

    def closed(x):
        point = extract_Z(layout.from_real(x), part)
        return gamma_model1(params, point), drift_model1(params, point)

    points = [layout.to_real(haar_unitary(N, rng, special=True))
              for _ in range(5)]
    rep = check_identity(ambient, F, closed, points, name="lpq-image")
    assert rep.passed, repr(rep)


def test_brownian_step_basics(rng):
    u0 = SUNState(np.eye(3, dtype=complex))
    same = sun_brownian_step(u0, 0.0, rng)
    np.testing.assert_allclose(same.u, u0.u)
    state = u0
    for _ in range(2000):
        state = sun_brownian_step(state, 1e-3, rng)
    err = np.max(np.abs(state.u @ state.u.conj().T - np.eye(3)))
    assert err < 1e-11
    assert abs(np.linalg.det(state.u) - 1.0) < 1e-10


def test_brownian_step_one_step_covariance(rng):
    # empirical covariance of one Euler step at Id matches 2 Gamma dt;
    # includes the degenerate zero-variance direction Re(u_11)
    N, dt, M = 2, 1e-3, 100000
    layout = CplxLayout((N, N))
    model = sun_ambient(N)
    x0 = layout.to_real(np.eye(N, dtype=complex))
    target = 2.0 * model.gamma(x0) * dt
    steps = np.empty((M, layout.real_dim))
    base = SUNState(np.eye(N, dtype=complex))
    for m in range(M):
        steps[m] = layout.to_real(sun_brownian_step(base, dt, rng).u) - x0
    cov = steps.T @ steps / M
    scale = np.max(np.abs(target))
    assert np.max(np.abs(cov - target)) < 0.05 * scale
    # the Re(u_11) direction carries no first-order noise
    assert cov[0, 0] < 0.01 * scale


def test_haar_extraction_first_moment(rng):
    # E[Z^(1)] under the Haar image is (d_1/N) Id
    part = Partition(2, [2, 2])
    M = 2000
    acc = np.zeros((2, 2), dtype=complex)
    for _ in range(M):
        acc += extract_Z(haar_unitary(4, rng, special=True), part).Z[0]
    mean = acc / M
    np.testing.assert_allclose(mean, 0.5 * np.eye(2), atol=4.0 / np.sqrt(M))


def _triple_loop_step(u, dt, rng):
    """The Brownian step as one algebra element per field and draw."""
    N = u.shape[0]
    sRS = 1.0 / np.sqrt(2.0 * N)
    sD = 1.0 / N
    xi = np.zeros((N, N), dtype=complex)
    for i in range(N):
        for j in range(i + 1, N):
            g1, g2, g3 = rng.standard_normal(3)
            xi += sRS * g1 * algebra_element("R", i, j, N)
            xi += sRS * g2 * algebra_element("S", i, j, N)
            xi += sD * g3 * algebra_element("D", i, j, N)
    # u exp(sqrt(dt) xi) = u + (u V) diag(e^{iw} - 1) V* for
    # H = -i sqrt(dt) xi = V diag(w) V*
    w, V, info = zheevd(xi * (-1j * math.sqrt(dt)))
    assert info == 0
    return zgemm(1.0, zgemm(1.0, u, V) * (np.exp(1j * w) - 1.0), V,
                 beta=1.0, c=u, trans_b=2)


@pytest.mark.parametrize("d, sizes", [(1, [2, 2, 1]), (3, [3, 3]),
                                      (2, [3, 1, 4, 2]), (1, [1, 1])])
def test_extract_blocks_bitwise_equal_to_loop(rng, d, sizes):
    # the stacked extraction takes each column group as a slice; it equals
    # the loop over fancy-indexed groups bit for bit, for Haar draws in
    # their Fortran layout, for C-ordered copies, and through extract_Z
    part = Partition(d, sizes)
    U = _haar_draws(part.N, rng, 60, special=True)
    for stack in (U, np.ascontiguousarray(U)):
        Z = _extract_blocks(stack, part)
        assert Z.shape == (60, part.n, d, d)
        for k, u in enumerate(stack):
            ref = _hermitize(np.array(extract_Z_all(u, part)[:-1]))
            assert Z[k].tobytes() == ref.tobytes()
            point = extract_Z(u, part)
            assert point.Z.tobytes() == ref.tobytes()
            assert point.Z.base is None


@pytest.mark.parametrize("N", [2, 3, 4])
def test_brownian_path_bitwise_equal_to_single_steps(rng, N):
    # K steps from one call, or in chunks, end at the state of K single
    # steps and of the triple-loop reference bit for bit, and read the
    # stream as they do; from Id and from a Haar point, which they leave as
    # it was
    for u0 in (np.eye(N, dtype=complex), haar_unitary(N, rng, special=True)):
        before = u0.copy()
        for K in (1, 2, 7, 300):
            seed = int(rng.integers(2**31))
            rngs = [np.random.Generator(np.random.Philox(seed))
                    for _ in range(4)]
            end = _brownian_path(u0, 1e-3, rngs[0], K)
            u = u0
            for k in (K // 3, K - K // 3):
                u = _brownian_path(u, 1e-3, rngs[1], k)
            state, ref = SUNState(u0), u0
            for _ in range(K):
                state = sun_brownian_step(state, 1e-3, rngs[2])
                ref = _triple_loop_step(ref, 1e-3, rngs[3])
            assert end.shape == (N, N)
            assert end.tobytes() == u.tobytes() == state.u.tobytes() == \
                ref.tobytes()
            assert len({r.standard_normal() for r in rngs}) == 1
        assert u0.tobytes() == before.tobytes()


def test_brownian_path_dt_zero_draws_nothing(rng):
    u0 = haar_unitary(3, rng, special=True)
    fresh = np.random.Generator(np.random.Philox(7))
    assert _brownian_path(u0, 0.0, fresh, 5).tobytes() == u0.tobytes()
    assert sun_brownian_step(u0, 0.0, fresh).u.tobytes() == u0.tobytes()
    assert fresh.standard_normal() == \
        np.random.Generator(np.random.Philox(7)).standard_normal()


@pytest.mark.parametrize("dt", [-1e-3, -1e-300, float("nan"),
                                float("inf"), -float("inf")])
def test_brownian_path_rejects_bad_dt(rng, dt):
    u0 = haar_unitary(3, rng, special=True)
    fresh = np.random.Generator(np.random.Philox(7))
    with pytest.raises(ValueError, match="dt"):
        _brownian_path(u0, dt, fresh, 5)
    with pytest.raises(ValueError, match="dt"):
        sun_brownian_step(SUNState(u0), dt, fresh)
    assert fresh.standard_normal() == \
        np.random.Generator(np.random.Philox(7)).standard_normal()


class _FixedNormals:
    """Stands in for a Generator: standard_normal returns the given draws."""

    def __init__(self, g):
        self.g = g

    def standard_normal(self, shape):
        return self.g.reshape(shape)


def test_brownian_path_raises_when_zheevd_fails():
    # non-finite normals make zheevd report failure; the step raises
    # rather than return a state of NaNs
    _, sd = _step_basis(3)
    with pytest.raises(np.linalg.LinAlgError, match="zheevd"):
        _brownian_path(np.eye(3, dtype=complex), 1e-3,
                       _FixedNormals(np.full(len(sd), np.nan)), 1)


def _step_exponentials(N, rng):
    """Traceless skew-Hermitian X: random ones with |X| from 1e-3 to 3, and
    degenerate spectra: X = 0, a repeated eigenvalue i c (N-1 times) and that
    spectrum in a Haar frame."""
    E, sd = _step_basis(N)
    for norm in (1e-3, 1e-2, 0.1, 1.0, 3.0):
        g = rng.standard_normal(len(sd))
        yield g * (norm / np.linalg.norm(np.tensordot(sd * g, E, 1), 2))
    yield np.zeros(len(sd))
    D = 1j * np.diag(np.r_[np.ones(N - 1), 1.0 - N])
    W = haar_unitary(N, rng, special=True)
    basis = np.stack([(s * e).ravel() for s, e in zip(sd, E)], axis=1)
    for X in (0.7 * D, 0.7 * (W @ D @ W.conj().T)):
        flat = X.ravel()
        g = np.linalg.lstsq(np.vstack([basis.real, basis.imag]),
                            np.r_[flat.real, flat.imag], rcond=None)[0]
        yield g


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_step_exponential_matches_expm(rng, N):
    # one step from Id over dt = 1 is exp(X) for the X its normals build;
    # scipy's expm is the independent reference, on spectra with and
    # without repeated eigenvalues
    E, sd = _step_basis(N)
    for g in _step_exponentials(N, rng):
        X = np.tensordot(sd * g, E, 1)
        got = _brownian_path(np.eye(N, dtype=complex), 1.0,
                             _FixedNormals(g), 1)
        tol = 1e-13 * max(1.0, np.linalg.norm(X, 2))
        assert np.max(np.abs(got - expm(X))) < tol
        assert np.max(np.abs(got @ got.conj().T - np.eye(N))) < 1e-13
        assert abs(np.linalg.det(got) - 1.0) < 1e-13
    # a 300-step path stays with the expm path of the same draws
    seed = int(rng.integers(2**31))
    g = np.random.Generator(np.random.Philox(seed)).standard_normal(
        (300, len(sd)))
    ref = np.eye(N, dtype=complex)
    for gk in g:
        ref = ref @ expm(math.sqrt(1e-3) * np.tensordot(sd * gk, E, 1))
    end = _brownian_path(np.eye(N, dtype=complex), 1e-3,
                         np.random.Generator(np.random.Philox(seed)), 300)
    assert np.max(np.abs(end - ref)) < 1e-13


@pytest.mark.parametrize("N", [2, 3, 4])
def test_brownian_step_matches_triple_loop(rng, N):
    # the stacked field basis consumes the same normals and gives the same
    # path bit for bit, from Id and from a Haar point
    for u0 in (np.eye(N, dtype=complex), haar_unitary(N, rng, special=True)):
        seed = int(rng.integers(2**31))
        fast = np.random.Generator(np.random.Philox(seed))
        slow = np.random.Generator(np.random.Philox(seed))
        state, ref = SUNState(u0), u0
        for _ in range(200):
            state = sun_brownian_step(state, 1e-3, fast)
            ref = _triple_loop_step(ref, 1e-3, slow)
        assert state.u.tobytes() == ref.tobytes()
        assert fast.standard_normal() == slow.standard_normal()


def test_step_basis_is_cached_and_read_only():
    E, sd = _step_basis(3)
    assert _step_basis(3)[0] is E
    assert E.shape == (9, 3, 3) and sd.shape == (9,)
    for arr in (E, sd):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("d, sizes", [(2, [3, 1, 4, 2]), (1, [1, 1]),
                                      (3, [5, 3])])
def test_partition_matches_loop(d, sizes):
    part = Partition(d, sizes)
    sets, start = [], 0
    for s in sizes:
        sets.append(list(range(start, start + s)))
        start += s
    group_of = np.empty(start, dtype=int)
    for g, cols in enumerate(sets):
        for c in cols:
            group_of[c] = g
    assert part.sets == sets
    assert part.N == start and part.n == len(sizes) - 1
    assert np.array_equal(part.group_of, group_of)
    assert part.group_of.dtype == group_of.dtype

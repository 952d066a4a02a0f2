import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrix_dirichlet.realify import (
    CoordStack, CplxLayout, HermLayout, RealLayout, simplex_layout)

from conftest import random_hermitian


@given(n=st.integers(1, 3), d=st.integers(1, 4), seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_herm_roundtrip(n, d, seed):
    gen = np.random.Generator(np.random.Philox(seed))
    Zs = [random_hermitian(gen, d) for _ in range(n)]
    layout = HermLayout(n, d)
    x = layout.to_real(Zs)
    back = layout.from_real(x)
    for Z, B in zip(Zs, back):
        np.testing.assert_allclose(B, Z, atol=1e-14)
    # integer lists and float32 arrays read as float64 coordinates
    xi = np.arange(layout.real_dim)
    for xs in (xi.tolist(), xi.astype(np.float32)):
        np.testing.assert_array_equal(layout.from_real(xs),
                                      layout.from_real(xi.astype(float)))
    # a stack of points reads as each point alone, bit for bit
    X = np.array([x, -x, 2.0 * x])
    assert (layout.from_real(X).tobytes()
            == np.array([layout.from_real(y) for y in X]).tobytes())
    assert layout.from_real(X[None]).shape == (1, 3, n, d, d)
    # every coordinate sits where its name says
    named = dict(zip(layout.coordinate_names(), x))
    for k, Z in enumerate(Zs, 1):
        for i in range(d):
            assert named["Z%d_d%d" % (k, i)] == Z[i, i].real
        for (i, j) in layout.pairs:
            assert named["Z%d_re%d%d" % (k, i, j)] == Z[i, j].real
            assert named["Z%d_im%d%d" % (k, i, j)] == Z[i, j].imag
    # the index maps agree with the coefficient matrices they replace
    np.testing.assert_array_equal(
        np.asarray(back).ravel(), layout.E @ x)
    np.testing.assert_array_equal(
        x, (layout.D @ np.asarray(Zs).ravel()).real)


@pytest.mark.parametrize("n, d", [(1, 1), (1, 3), (2, 2), (3, 3)])
def test_herm_to_real_of_a_stack(n, d, rng):
    layout = HermLayout(n, d)
    K = 5
    # not Hermitian: the stack reads only each diagonal and upper triangle
    Z = (rng.standard_normal((K, n, d, d))
         + 1j * rng.standard_normal((K, n, d, d)))
    X = layout.to_real(Z)
    assert X.shape == (K, layout.real_dim)
    assert X.tobytes() == np.array([layout.to_real(z) for z in Z]).tobytes()
    assert layout.to_real(Z[None]).shape == (1, K, layout.real_dim)
    # the Hermitian blocks that the diagonal and upper triangles define
    diag = np.arange(d), np.arange(d)
    H = np.triu(Z, 1)
    H += np.swapaxes(H, -1, -2).conj()
    H[(Ellipsis,) + diag] = Z[(Ellipsis,) + diag].real
    np.testing.assert_array_equal(layout.from_real(X), H)
    assert layout.to_real(H).tobytes() == X.tobytes()


def test_herm_from_real_fills_only_defined_slots():
    layout = HermLayout(1, 2)
    Z = layout.from_real([-1.0, 0.5, 0.2, 0.3])[0]
    # the diagonal is real: its imaginary parts are +0.0, not -0.0
    assert not np.signbit(Z.diagonal().imag).any()
    # a non-finite coordinate reaches only the entries it defines, and
    # without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            Z = HermLayout(2, 2).from_real([bad, 0.5, 0.2, 0.3,
                                            1.0, 2.0, 0.1, -0.4])
            assert np.isfinite(Z.ravel()[1:]).all()
            assert Z[0, 0, 0].imag == 0.0
            np.testing.assert_array_equal(Z[0, 0, 0].real, bad)
            Z = HermLayout(2, 2).from_real([0.4, 0.5, 0.2, bad,
                                            1.0, 2.0, 0.1, -0.4])
            assert np.isfinite(Z[:, [0, 1], [0, 1]]).all()
            assert np.isfinite(Z[0].real).all() and np.isfinite(Z[1]).all()
            np.testing.assert_array_equal(Z[0, [0, 1], [1, 0]].imag,
                                          [bad, -bad])


def test_herm_to_real_rejects_other_shapes():
    layout = HermLayout(2, 2)
    for shape in [(5, 2, 2), (1, 2, 2), (2, 3, 3), (5, 2, 3, 3), (2, 2, 3),
                  (2, 2), (8,)]:
        with pytest.raises(ValueError, match="shape"):
            layout.to_real(np.zeros(shape, dtype=complex))
    # one block: a bare (d, d) block is one point, a (K, d, d) stack needs
    # K = n = 1 or a block axis
    layout = HermLayout(1, 3)
    assert (layout.to_real(np.eye(3)).tobytes()
            == layout.to_real(np.eye(3)[None]).tobytes())
    for shape in [(4, 3, 3), (2, 2), (1, 2, 2), (3,)]:
        with pytest.raises(ValueError, match="shape"):
            layout.to_real(np.zeros(shape, dtype=complex))


def test_simplex_layout_is_shared():
    assert simplex_layout(2, 3) is simplex_layout(2, 3)
    assert simplex_layout(2, 3) is not simplex_layout(3, 2)


def test_shared_layout_is_read_only():
    layout = simplex_layout(1, 2)
    with pytest.raises(ValueError):
        layout.E[0, 0] = 2.0
    with pytest.raises(ValueError):
        layout.D[0, 0] = 2.0
    for arr in (layout._take, layout._fill, layout._put, layout._sign):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_layout_tables_state_the_convention():
    # HermLayout(1, 2): entries z00, z01, z10, z11; coordinates
    # (x_d0, x_d1, x_re01, x_im01)
    layout = HermLayout(1, 2)
    np.testing.assert_array_equal(layout.E, [[1, 0, 0, 0],
                                             [0, 0, 1, 1j],
                                             [0, 0, 1, -1j],
                                             [0, 1, 0, 0]])
    np.testing.assert_array_equal(layout.D, [[1, 0, 0, 0],
                                             [0, 0, 0, 1],
                                             [0, 0.5, 0.5, 0],
                                             [0, -0.5j, 0.5j, 0]])
    # CplxLayout((1,)): entries z, conj z; coordinates (Re z, Im z)
    layout = CplxLayout((1,))
    np.testing.assert_array_equal(layout.E, [[1, 1j], [1, -1j]])
    np.testing.assert_array_equal(layout.D, [[0.5, 0.5], [-0.5j, 0.5j]])


_LAYOUTS = {"herm%d%d" % (n, d): HermLayout(n, d)
            for n in (1, 2, 3) for d in (1, 2, 3)}
_LAYOUTS.update(cplx1=CplxLayout((1,)), cplx23=CplxLayout((2, 3)),
                real3=RealLayout(3))


@pytest.mark.parametrize("layout", _LAYOUTS.values(), ids=_LAYOUTS.keys())
def test_E_D_are_exact_inverses(layout):
    assert layout.E.shape == (layout.n_entries, layout.real_dim)
    assert (layout.D @ layout.E == np.eye(layout.real_dim)).all()
    assert (layout.E @ layout.D == np.eye(layout.n_entries)).all()


def test_coordinate_names_of_two_blocks():
    assert HermLayout(2, 3).coordinate_names() == [
        "Z1_d0", "Z1_d1", "Z1_d2",
        "Z1_re01", "Z1_im01", "Z1_re02", "Z1_im02", "Z1_re12", "Z1_im12",
        "Z2_d0", "Z2_d1", "Z2_d2",
        "Z2_re01", "Z2_im01", "Z2_re02", "Z2_im02", "Z2_re12", "Z2_im12"]


def test_cplx_roundtrip(rng):
    layout = CplxLayout((2, 3))
    z = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    np.testing.assert_allclose(layout.from_real(layout.to_real(z)), z)
    np.testing.assert_allclose(layout.D @ layout.E, np.eye(12), atol=1e-14)


def test_complex_bm_realifies_to_independent_parts():
    # scalar complex Brownian motion: Gamma(z,z)=0, Gamma(z,zbar)=2
    # must convert to unit co-metric on (Re z, Im z)
    layout = CplxLayout((1,))
    T = layout.assemble_entry_gamma([[0.0]], [[2.0]])
    G = layout.gamma_to_real(T)
    np.testing.assert_allclose(G, np.eye(2), atol=1e-14)
    # and back
    T2 = layout.gamma_to_entries(G, layout)
    np.testing.assert_allclose(T2, T, atol=1e-14)


def test_gamma_conversion_roundtrip_herm(rng):
    layout = HermLayout(1, 3)
    G = rng.standard_normal((layout.real_dim, layout.real_dim))
    G = G + G.T
    T = layout.gamma_to_entries(G, layout)
    np.testing.assert_allclose(layout.gamma_to_real(T), G, atol=1e-12)


def test_herm_drift_conversion(rng):
    layout = HermLayout(1, 2)
    # L on entries must be Hermitian-consistent: L(z_ji) = conj(L(z_ij))
    L = np.zeros(4, dtype=complex)
    block = L.reshape(1, 2, 2)
    block[0, 0, 0] = 1.5
    block[0, 1, 1] = -0.5
    block[0, 0, 1] = 2.0 + 1.0j
    block[0, 1, 0] = 2.0 - 1.0j
    l_real = layout.drift_to_real(L)
    assert dict(zip(layout.coordinate_names(), l_real)) == {
        "Z1_d0": 1.5, "Z1_d1": -0.5, "Z1_re01": 2.0, "Z1_im01": 1.0}
    # inverse direction
    np.testing.assert_allclose(layout.drift_to_entries(l_real), L, atol=1e-14)


@pytest.mark.parametrize("layout", [HermLayout(2, 3), CplxLayout((2, 3))],
                         ids=["herm", "cplx"])
def test_drift_to_real_of_a_stack_equals_single_conversions(layout, rng):
    K = 7
    L = (rng.standard_normal((K, layout.n_entries))
         + 1j * rng.standard_normal((K, layout.n_entries)))
    stacked = layout.drift_to_real(L)
    assert stacked.shape == (K, layout.real_dim)
    for k in range(K):
        assert stacked[k].tobytes() == layout.drift_to_real(L[k]).tobytes()


def test_herm_grad_chain(rng):
    # f(Z) = Re trace(C Z) has entry-derivatives df/dZ_ij = C_ji (C Hermitian)
    d = 3
    layout = HermLayout(1, d)
    C = random_hermitian(rng, d)
    g_entries = np.array([C[j, i] for i in range(d) for j in range(d)])
    grad = layout.grad_to_real(g_entries)
    x0 = layout.to_real([random_hermitian(rng, d)])

    def f(x):
        Z = layout.from_real(x)[0]
        return np.trace(C @ Z).real

    h = 1e-6
    fd = np.array([
        (f(x0 + h * e) - f(x0 - h * e)) / (2 * h)
        for e in np.eye(layout.real_dim)])
    np.testing.assert_allclose(grad, fd, atol=1e-8)


def test_coord_stack_blocks(rng):
    stack = CoordStack([("S", HermLayout(1, 2)), ("lam", RealLayout(2)),
                        ("u", CplxLayout((2, 2)))])
    assert stack.real_dim == 4 + 2 + 8
    S = random_hermitian(rng, 2)
    lam = np.array([1.0, 2.0])
    u = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = stack.pack({"S": [S], "lam": lam, "u": u})
    np.testing.assert_allclose(stack.unpack(x, "S")[0], S, atol=1e-14)
    np.testing.assert_allclose(stack.unpack(x, "lam"), lam)
    np.testing.assert_allclose(stack.unpack(x, "u"), u)
    G = rng.standard_normal((stack.real_dim, stack.real_dim))
    G = G + G.T
    blk = stack.block(G, "S", "lam")
    assert blk.shape == (4, 2)
    T = stack.entries_block(G, "S", "u")
    assert T.shape == (4, 8)


@pytest.mark.parametrize("n, d", [(1, 1), (2, 2), (3, 3), (1, 4)])
def test_coordinate_names_follow_layout_indices(n, d):
    # blocks whose every entry is known by its place: Re Z^(k)_ij reads
    # 1000 k + 100 i + 10 j + 1 and Im Z^(k)_ij, i < j, the same plus 1
    layout = HermLayout(n, d)
    k, i, j = np.indices((n, d, d))
    code = 1000 * k + 100 * i + 10 * j + 1.0
    Z = code + 1j * (code + 1)
    x = layout.to_real(Z)  # reads only each diagonal and upper triangle
    names = layout.coordinate_names()
    assert len(set(names)) == len(names) == layout.real_dim
    for name, value in zip(names, x):
        block, part = name.split("_")
        k = int(block[1:]) - 1
        if part[0] == "d":
            i = j = int(part[1])
            imag = False
        else:
            assert part[:2] in ("re", "im"), name
            i, j, imag = int(part[2]), int(part[3]), part[:2] == "im"
        assert value == code[k, i, j] + imag, name

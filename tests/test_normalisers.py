"""The log-gamma normalisers of the Dirichlet, matrix Dirichlet and Wishart
densities against scipy.special.gammaln references, to 1e-12 (1 + |value|).
"""

import numpy as np
import pytest
from scipy.special import gammaln

from matrix_dirichlet.matrix_simplex import (
    MatrixSimplexPoint, log_gamma_d, matrix_dirichlet_log_density)
from matrix_dirichlet.simplex import dirichlet_log_density
from matrix_dirichlet.wishart import wishart_log_density


def _assert_close(got, want):
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (got, want)


def _ref_log_gamma_d(a, d):
    """d(d-1)/2 log pi + sum_k log Gamma(a + d - k), k = 1..d."""
    return (0.5 * d * (d - 1) * np.log(np.pi)
            + sum(gammaln(a + d - k) for k in range(1, d + 1)))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_log_gamma_d_matches_gammaln(d):
    for a in np.geomspace(0.05, 200.0, 41):
        _assert_close(log_gamma_d(a, d), _ref_log_gamma_d(a, d))


@pytest.mark.parametrize("a, x", [
    ([1.0, 1.0, 1.0], [0.2, 0.3]),
    ([0.3, 2.5, 7.0], [0.1, 0.6]),
    ([40.0, 150.0], [0.25]),
    ([0.8, 1.2, 3.3, 9.0, 0.05], [0.1, 0.2, 0.3, 0.15]),
])
def test_dirichlet_log_density_matches_gammaln(a, x):
    a = np.asarray(a)
    xf = np.append(x, 1.0 - np.sum(x))
    want = (gammaln(a.sum()) - gammaln(a).sum()
            + np.sum((a - 1.0) * np.log(xf)))
    _assert_close(dirichlet_log_density(a, x), want)


_BLOCKS_D2 = [np.array([[0.3, 0.05 + 0.02j], [0.05 - 0.02j, 0.25]]),
              np.array([[0.2, -0.03j], [0.03j, 0.35]])]


@pytest.mark.parametrize("a, blocks", [
    ([2.0, 3.0], [np.array([[0.4]])]),
    ([1.5, 2.5, 4.5], _BLOCKS_D2),
    ([40.0, 60.0, 80.0], _BLOCKS_D2),
])
def test_matrix_dirichlet_log_density_matches_gammaln(a, blocks):
    point = MatrixSimplexPoint(blocks)
    d = point.d
    want = (_ref_log_gamma_d(sum(a), d)
            - sum(_ref_log_gamma_d(ak, d) for ak in a)
            + sum((ak - 1.0) * np.linalg.slogdet(Z)[1]
                  for ak, Z in zip(a, point.all_blocks())))
    _assert_close(matrix_dirichlet_log_density(a, point), want)


@pytest.mark.parametrize("dims", [[2.0, 3.5], [7.0, 120.0]])
def test_wishart_log_density_matches_gammaln(dims):
    W = [np.array([[1.7, 0.2 - 0.4j], [0.2 + 0.4j, 2.3]]),
         np.array([[0.9, 0.1j], [-0.1j, 0.6]])]
    d = 2
    want = sum(-(r * d * np.log(2.0) + _ref_log_gamma_d(r - d + 1.0, d))
               + (r - d) * np.linalg.slogdet(Wp)[1] - 0.5 * np.trace(Wp).real
               for r, Wp in zip(dims, W))
    _assert_close(wishart_log_density(dims, W), want)

"""1-D reference diffusions used to calibrate the integrator.

All three are classical orthogonal-polynomial generators; the factor-2 SDE
convention of `matrix_dirichlet.sde` makes their stationary laws N(0,1),
gamma(a), and the (-1,1) beta law respectively.  Each comes with the
gradient of its log stationary density, for reversibility checks.
"""

import numpy as np

from matrix_dirichlet.calculus import DiffusionModel


def ou_model():
    """L = d^2/dx^2 - x d/dx; stationary law N(0, 1)."""
    return DiffusionModel(
        1, gamma=lambda x: np.array([[1.0]]),
        drift=lambda x: -np.asarray(x))


def ou_grad_log(x):
    return -np.asarray(x)


def laguerre_model(a):
    """L = x d^2/dx^2 + (a - x) d/dx on (0, inf); stationary gamma(a)."""
    return DiffusionModel(
        1, gamma=lambda x: np.array([[x[0]]]),
        drift=lambda x: np.array([a - x[0]]),
        domain_test=lambda x: x[0] > 1e-12)


def laguerre_grad_log(a, x):
    return np.array([(a - 1.0) / x[0] - 1.0])


def jacobi_model(a, b):
    """L = (1 - x^2) d^2/dx^2 - (a - b + (a + b) x) d/dx on (-1, 1).

    Stationary density proportional to (1-x)^(a-1) (1+x)^(b-1).
    """
    return DiffusionModel(
        1, gamma=lambda x: np.array([[1.0 - x[0] ** 2]]),
        drift=lambda x: np.array([-(a - b + (a + b) * x[0])]),
        domain_test=lambda x: abs(x[0]) < 1.0 - 1e-12)


def jacobi_grad_log(a, b, x):
    return np.array([-(a - 1.0) / (1.0 - x[0]) + (b - 1.0) / (1.0 + x[0])])

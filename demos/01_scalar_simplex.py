"""Scalar Dirichlet diffusion on the simplex.

Builds the weighted model, checks that the sphere construction pushes
forward onto it, verifies reversibility with respect to the Dirichlet
law, and confirms the stationary mean by simulation.
"""

import numpy as np

from matrix_dirichlet.calculus import (
    check_identity, reversibility_residual)
from matrix_dirichlet.sde import SimConfig, simulate
from matrix_dirichlet.simplex import (
    ScalarModelParams, dirichlet_grad_log, drift_simplex, gamma_simplex,
    sample_dirichlet, sample_sphere, scalar_model, sphere_ambient)

rng = np.random.Generator(np.random.Philox(12))

# weights A (symmetric, zero diagonal) and exponents a on the 2-simplex
A = np.array([[0.0, 1.0, 2.0],
              [1.0, 0.0, 1.5],
              [2.0, 1.5, 0.0]])
a = np.array([2.0, 3.0, 1.5])
params = ScalarModelParams(A, a)
x = np.array([0.3, 0.45])

print("co-metric at", x)
print(gamma_simplex(params, x))
print("drift:", drift_simplex(params, x))

# the sphere construction: rotation fields on S^{N-1} with block sizes
# p_i project onto the simplex model with a_i = p_i / 2
p_sizes = (4, 6, 3)
Asp = np.array([[0.0, 1.0, 0.7],
                [1.0, 0.0, 1.3],
                [0.7, 1.3, 0.0]])
model_sphere, proj = sphere_ambient(p_sizes, Asp)
params_img = ScalarModelParams(Asp, np.array(p_sizes) / 2.0)


def image_forms(y):
    z = proj(y)
    return gamma_simplex(params_img, z), drift_simplex(params_img, z)


report = check_identity(
    model_sphere, proj, image_forms,
    [sample_sphere(sum(p_sizes), rng) for _ in range(10)],
    name="sphere -> simplex")
print("\nsphere pushforward: max residual %.2e (pass=%s)"
      % (report.max_abs_residual, report.passed))

# reversibility: b = div(g) + g grad log rho for the Dirichlet density
model = scalar_model(params)
worst = 0.0
for _ in range(10):
    pt = sample_dirichlet(a, rng, margin=1e-3)
    res = reversibility_residual(
        model, lambda z: dirichlet_grad_log(a, z), pt)
    worst = max(worst, np.max(np.abs(res)))
print("reversibility residual over 10 points: %.2e" % worst)

# stationary mean check: E[x_i] = a_i / sum(a)
config = SimConfig(dt=1e-3, n_steps=200000, thin=20, seed=3, burn_in=20000)
summary = simulate(model, np.array([1 / 3, 1 / 3]), config)
target = a[:2] / np.sum(a)
z = (summary.mean - target) / summary.se_mean
print("simulated mean", summary.mean, "target", target)
print("z-scores:", z, "(all within 3 expected)")

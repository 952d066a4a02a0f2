"""Polar decomposition of a complex Brownian matrix.

Splits m = V N = W D U* into its unitary and radial parts, verifies a
few closed-form identities of the joint system numerically, and shows
that the rank-one column projectors follow the degenerate first-family
template with exponents 2 - d.
"""

import numpy as np

from matrix_dirichlet.calculus import pushforward_generator
from matrix_dirichlet.matrix_simplex import (
    MatrixSimplexPoint, drift_model1_entries, gamma_model1_entries)
from matrix_dirichlet.polar import (
    DegenerateDirichletParams, closed_form_polar_system, complex_bm_ambient,
    polar_projection, sample_polar_frame, scalar_projection_params,
    scalar_projection_v)
from matrix_dirichlet.realify import CplxLayout
from matrix_dirichlet.simplex import drift_simplex, gamma_simplex

rng = np.random.Generator(np.random.Philox(44))
d = 3

m, fr = sample_polar_frame(d, rng)
print("singular values:", np.round(fr.lam, 4))
print("reconstruction |V N - m|: %.2e"
      % np.max(np.abs(fr.V @ fr.N - m)))

# pushforward of flat complex Brownian motion through the polar map
ambient = complex_bm_ambient(d)
F, stack = polar_projection(d, base_frame=fr)
lay = CplxLayout((d, d))
x = lay.to_real(m)
G, L = pushforward_generator(ambient, F, x)
sys = closed_form_polar_system(fr)

T = stack.entries_block(G, "lam", "lam")
print("\nGamma(lambda,lambda) residual: %.2e"
      % np.max(np.abs(T - sys["gamma_lamlam"])))
T = stack.entries_block(G, "Z", "Z")
print("Gamma(Z,Z) residual:           %.2e"
      % np.max(np.abs(T - sys["gamma_ZZ"])))
b = stack.drift_entries(L, "lam")
print("L(lambda) residual:            %.2e"
      % np.max(np.abs(b - sys["L_lam"])))

# the free column projectors Z^(k) follow the first matrix family with
# A_ij from the radial part and a = 2 - d (not integrable for d >= 2)
params = DegenerateDirichletParams(fr.lam)
point = MatrixSimplexPoint(fr.Z[:d - 1], check=False)
res_g = np.max(np.abs(gamma_model1_entries(params, point)
                      - sys["gamma_ZZ"]))
res_l = np.max(np.abs(drift_model1_entries(params, point) - sys["L_Z"]))
print("\ndegenerate template: gamma %.2e, drift %.2e" % (res_g, res_l))
print("exponents a =", params.a, "integrable =", params.integrable)

# scalar shadow: the top-left entries v_k = Z^(k)_11 diffuse as the
# scalar simplex model
v = scalar_projection_v(fr)
sp = scalar_projection_params(fr)
print("\nscalar shadow v =", np.round(v, 4))
print("scalar co-metric at v:")
print(np.round(gamma_simplex(sp, v), 4))
print("scalar drift at v:", np.round(drift_simplex(sp, v), 4))

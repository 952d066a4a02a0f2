"""Wishart family, its eigenframe, and the matrix Dirichlet image.

Pushes independent matrix OU processes through the sum-square-root
construction, verifies a few closed-form co-metric identities of the
(S, M, Z, lambda) system numerically, and checks that the autonomous
(lambda, Z) subsystem carries second-family parameters whose stationary
law matches the direct Wishart-ratio sampler.
"""

import numpy as np

from matrix_dirichlet.calculus import pushforward_generator
from matrix_dirichlet.matrix_simplex import (
    drift_model2_entries, gamma_model2_entries, simplex_layout)
from matrix_dirichlet.wishart import (
    closed_form_smz_system, sample_matrix_dirichlet_direct, sample_smz_frame,
    smz_projection, theorem_params, wishart_ambient)

rng = np.random.Generator(np.random.Philox(33))
d, dims = 2, [3, 3]

family, fr = sample_smz_frame(d, dims, rng)
print("eigenvalues lambda:", np.round(fr.lam, 4))
print("free Z block:")
print(np.round(fr.Z[0], 4))

# pushforward of the Wishart ambient through W -> (S, M, Z, lambda)
# against the closed forms, at this frame
ambient = wishart_ambient(d, dims)
F, stack = smz_projection(d, dims, base_frame=fr)
x = simplex_layout(len(dims), d).to_real(family.W)
G, L = pushforward_generator(ambient, F, x)
sys = closed_form_smz_system(fr)

T = stack.entries_block(G, "S", "S")
print("\nGamma(S,S) residual: %.2e"
      % np.max(np.abs(T - sys["gamma_SS"])))
T = stack.entries_block(G, "Z", "Z")
print("Gamma(Z,Z) residual: %.2e"
      % np.max(np.abs(T - sys["gamma_ZZ"])))
b = stack.drift_entries(L, "lam")
print("L(lambda) residual:  %.2e" % np.max(np.abs(b - sys["L_lam"])))

# the (lambda, Z) system is autonomous: at the frame point the Z part is
# the second matrix family with frame-derived coefficients
params, radial = theorem_params(fr)
res_g = np.max(np.abs(gamma_model2_entries(params, fr.z_point())
                      - sys["gamma_ZZ"]))
res_l = np.max(np.abs(drift_model2_entries(params, fr.z_point())
                      - sys["L_Z"]))
print("\nsecond-family match at the frame: gamma %.2e, drift %.2e"
      % (res_g, res_l))
print("exponents a =", params.a, "(dims %s, d=%d)" % (dims, d))

# direct sampler moments: Z_11 of a (3,3) split at d=2 has mean 1/2
M = 20000
draws = np.array([sample_matrix_dirichlet_direct(d, dims, rng).Z[0][0, 0].real
                  for _ in range(M)])
se = draws.std(ddof=1) / np.sqrt(M)
print("\ndirect sampler: E[Z_11] = %.4f +/- %.4f (expect 0.5)"
      % (draws.mean(), se))

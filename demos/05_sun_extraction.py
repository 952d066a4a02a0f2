"""Extraction of matrix Dirichlet diffusions from SU(N).

The map u -> Z^(i) = u_block u_block* sends Brownian motion on SU(N)
(and the weighted rotation-field variants) onto the first matrix family.
This demo verifies the image numerically, runs the exact-exponential
group integrator, and compares Haar-extracted draws to the direct
Wishart-ratio sampler.
"""

import numpy as np

from matrix_dirichlet.linalg import _chunk_sizes, _haar_draws
from matrix_dirichlet.matrix_simplex import point_to_real, simplex_layout
from matrix_dirichlet.sun import (
    Partition, SUNState, _brownian_path, _extract_blocks, extract_Z,
    group_distance, image_params, sun_brownian_step, verify_casimir_image)
from matrix_dirichlet.wishart import sample_matrix_dirichlet_direct

rng = np.random.Generator(np.random.Philox(55))

# Casimir image: Laplacian on SU(4) projects onto model I for the
# partition (2, 2) at d = 2
part = Partition(2, [2, 2])
report = verify_casimir_image(4, part, rng, n_samples=10)
print("Casimir image (N=4, d=2, sizes 2+2):", report)
print("image exponents a =", image_params(part).a)

# Brownian motion on the group via exact exponential steps: unitarity
# is preserved to machine precision. One step at a time, or K steps from
# one kernel call (the same state, bit for bit)
state = SUNState(np.eye(3, dtype=complex))
for _ in range(1000):
    state = sun_brownian_step(state, 1e-3, rng)
for K in _chunk_sizes(4000):
    state = SUNState(_brownian_path(state.u, 1e-3, rng, K))
print("\ngroup drift after 5000 steps: %.2e" % group_distance(state.u))
print("extracted Z after the walk:")
print(np.round(extract_Z(state, Partition(1, [2, 1])).Z[0], 4))

# Haar-extracted draws match the direct sampler (both are matrix
# Dirichlet with a_i = d_i - d + 1); the Haar unitaries and their blocks
# are drawn and extracted up to 512 at a time
part = Partition(2, [3, 3])
layout = simplex_layout(part.n, part.d)
M = 5000
haar = np.array([layout.to_real(Z) for K in _chunk_sizes(M)
                 for Z in _extract_blocks(_haar_draws(6, rng, K, True), part)])
direct = np.array([point_to_real(sample_matrix_dirichlet_direct(2, [3, 3],
                                                                rng))
                   for _ in range(M)])
se = np.sqrt(haar.var(axis=0, ddof=1) / M + direct.var(axis=0, ddof=1) / M)
z = (haar.mean(axis=0) - direct.mean(axis=0)) / se
print("\nHaar vs direct sampler, %d draws each" % M)
print("mean (Haar):   ", np.round(haar.mean(axis=0), 4))
print("mean (direct): ", np.round(direct.mean(axis=0), 4))
print("z-scores:      ", np.round(z, 2), "(all within 3 expected)")

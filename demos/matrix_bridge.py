"""Finite matrix side: Pauli words, the product state, and the bridge.

The groupoid algebra at horizon n lands in 2^n x 2^n matrices: sigma_1 at
site k goes to the flip unitary V_{e_k}, sigma_3 goes to multiplication by
psi_k.  The product state with weights (lam, 1-lam) per site matches the
canonical weight through that map, which is checked here on random words.
"""

import numpy as np

from flipchain import (
    Bernoulli,
    PauliWord,
    canonical_weight,
    convolve,
    glimm_map,
    gns_deviations,
    max_abs_diff,
    pauli_operator,
    powers_state,
    rng_for,
)

lam = 0.3
n = 4

# site 1 is the first kron factor
z1 = pauli_operator(PauliWord(((1, 3),)), n)
print("sigma_3 at site 1, diagonal head:", np.diag(z1)[:4])

# expectations in the product state
print("<sigma_3(1)> =", powers_state(z1, lam), "(expect", 2 * lam - 1, ")")
x1 = pauli_operator(PauliWord(((1, 1),)), n)
print("<sigma_1(1)> =", powers_state(x1, lam), "(off-diagonal, expect 0)")

w = PauliWord(((1, 3), (3, 3)))
zz = pauli_operator(w, n)
print("<sigma_3(1) sigma_3(3)> =", powers_state(zz, lam),
      "(expect", (2 * lam - 1) ** 2, ")")

# the same word through the groupoid algebra: the canonical weight of its image
mu = Bernoulli(lam)
print("algebra-side expectation:", canonical_weight(glimm_map(w, mu), mu))

# the map is multiplicative word by word
u = PauliWord(((1, 1),))
v = PauliWord(((2, 3),))
lhs = glimm_map(PauliWord(((1, 1), (2, 3))), mu)
rhs = convolve(glimm_map(u, mu), glimm_map(v, mu))
print("multiplicativity deviation:", max_abs_diff(lhs, rhs))

# the randomized cross-check the acceptance gate and `flipchain glimm` run
# at scale, one trial per generator, the algebra side in batches
worst = max(gns_deviations([rng_for(7, i) for i in range(50)], n, mu))
print("random words, max deviation:", worst)

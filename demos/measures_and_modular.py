"""Cylinder measures and their modular functions.

Two measure families live on the bit space: an i.i.d. product measure with
parameter lambda per site, and a Boltzmann weight for nearest-neighbour
coupling J.  Both report the Radon-Nikodym factor Delta of a flip, which is
what the whole modular theory downstream runs on.
"""

from fractions import Fraction

from flipchain import (
    Bernoulli,
    CylinderFunction,
    IsingBoltzmann,
    e,
    integrate,
    translation_covariance_check,
)
from flipchain.groupoid import inverse_masks

lam = Fraction(3, 10)
mu = Bernoulli(lam)
print("exact arithmetic:", mu.exact)

# weight of the cylinder fixing the first two bits to (1, 0); site k is bit
# k-1 of the prefix mask
print("weight of [1 0 * * ...] =", mu.weight_table(2)[0b01])

# flipping site 1 away from a lambda-weighted bit costs (1-lam)/lam; the
# transition (x, w) is a pair of masks
x, w = 0b001, e(1)
delta = mu.delta_table(w, 3)  # Delta at every depth-3 prefix
print("Delta at x1=1, flip {1}:", delta[x])                            # 7/3
print("Delta at the inverse:", delta[inverse_masks(x, w.mask)[0]])      # 3/7

# psi_k is +1 on bit 0, -1 on bit 1; its mean is 2*lam - 1
psi1 = CylinderFunction.psi(1, 3, exact=True)
print("integral of psi_1 =", integrate(mu, psi1), "(expect", 2 * lam - 1, ")")

# the product measure is invariant under every flip after reweighting,
# which is exactly what the covariance report checks
rep = translation_covariance_check(mu, e(2), 4)
print("covariance deviation:", rep["max_rel_deviation"], "exact:", rep["exact_zero"])

# the coupled measure: energy differences S = -log Delta instead of ratios,
# read at the all-zero prefix of depth 5
nu = IsingBoltzmann(1.0)
print("interior flip energy:", nu.energy_table(e(2), 5)[0])   # 4J
print("boundary flip energy:", nu.energy_table(e(1), 5)[0])   # 2J
print("Boltzmann Delta of the interior flip:", nu.delta_table(e(2), 5)[0])

rep = translation_covariance_check(nu, e(3), 6)
print("coupled covariance deviation:", rep["max_rel_deviation"])

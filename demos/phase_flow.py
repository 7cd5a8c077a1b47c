"""Modular phase dynamics on the coupled chain.

The measure's transition energy S(x, w) = -log Delta generates a
one-parameter phase flow F -> e^{itS} F.  Conjugating convolution by that flow is the same as
flowing both factors, precisely because S satisfies the additive chain
identity.  Breaking the identity breaks the equivalence, which is the
negative control at the end.
"""

import math

from flipchain import (
    IsingBoltzmann,
    NonCocyclePerturbation,
    attained_spectrum,
    heisenberg_equivalence_check,
    max_abs_diff,
    modular_spectrum_points,
    tt_evolve,
)
from flipchain.sampling import random_algebra_element, rng_for

J = 1.0
spec = IsingBoltzmann(J)

rng = rng_for(2024, 0)
F = random_algebra_element(rng, 6, horizon=3)
psi = random_algebra_element(rng, 6, horizon=3)

# the flow is isometric and a group in t
print("t=0 is the identity:", max_abs_diff(tt_evolve(F, 0.0, spec), F))
two_step = tt_evolve(tt_evolve(F, 0.4, spec), 0.6, spec)
print("group law deviation:", max_abs_diff(two_step, tt_evolve(F, 1.0, spec)))

# conjugated convolution vs convolution of flowed factors
for t in (0.37, 1.0, math.pi):
    rep = heisenberg_equivalence_check(F, psi, t, spec)
    print(f"t = {t:.4f}  deviation = {rep['max_deviation']:.3e}")

# norms ride along unchanged
rep = heisenberg_equivalence_check(F, psi, 1.0, spec)
print("l2 before/after:", rep["norms_before"]["l2"], rep["norms_after"]["l2"])

# negative control: adulterate the energy so the chain identity fails
broken = NonCocyclePerturbation(spec)
rep = heisenberg_equivalence_check(F, psi, 1.0, spec, energy=broken)
print("broken energy deviation:", round(rep["max_deviation"], 4), "(should be O(1))")

# the log-spectrum of the product-measure modular operator is a lattice
pts = modular_spectrum_points(0.3, 3)
print("spectrum points:", sorted(round(p, 4) for p in pts))
rep = attained_spectrum(0.3, 3)
print("every lattice point attained:", rep["matches_window"])

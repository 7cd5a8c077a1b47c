# The convolution algebra over the flip groupoid, and its modular operators.
#
# An algebra element is a finitely supported map word -> cylinder function.
# Convolution sums over intermediate flips, the involution conjugates and
# reweights by 1/Delta, and the polar pieces J and Delta^{1/2} recover the
# involution exactly.

from flipchain import (
    AlgebraElement,
    Bernoulli,
    CylinderFunction,
    canonical_weight,
    convolve,
    e,
    hahn_norm,
    inner_product,
    involution,
    l2_norm,
    max_abs_diff,
    modular_conjugation,
    modular_operator_pow,
    pukanszky_V,
    unit,
    word_sites,
)

mu = Bernoulli(0.3)
D = 4

F = AlgebraElement({
    e(1): CylinderFunction.constant(2.0, D),
    e(2): CylinderFunction.psi(1, D),
})
G = AlgebraElement({e(1): CylinderFunction.constant(0.5, D)})

FG = convolve(F, G)
print("support of F*G:", [word_sites(w) for w in FG.support])
print("unit really is neutral:", max_abs_diff(convolve(unit(D), F), F))

# involution squares to the identity
Fs = involution(F, mu)
print("F** == F:", max_abs_diff(involution(Fs, mu), F))

# S = J Delta^{1/2}, checked pointwise
polar = modular_conjugation(modular_operator_pow(F, 0.5, mu), mu)
print("polar decomposition deviation:", max_abs_diff(polar, Fs))

# Delta^s Delta^t = Delta^{s+t}
lhs = modular_operator_pow(modular_operator_pow(F, 0.7, mu), 0.3, mu)
print("power law deviation:", max_abs_diff(lhs, modular_operator_pow(F, 1.0, mu)))

# the L2 structure under the measure
print("||F||_2 =", l2_norm(F, mu))
print("<F, G> =", inner_product(F, G, mu))
print("Hahn norm of F:", hahn_norm(F, mu))

# flip unitaries: V_w is self-adjoint and squares to the unit
V = pukanszky_V(e(1), mu)
print("V*V - 1:", max_abs_diff(convolve(V, V), unit(D)))
print("V^dag - V:", max_abs_diff(involution(V, mu), V))

# the canonical weight is the integral of the diagonal entry; at lambda = 1/2
# it is a trace, away from 1/2 the flip unitaries witness the failure
tau_half = Bernoulli(0.5)
print("lambda=0.3 asymmetry:",
      abs(canonical_weight(convolve(V, involution(V, mu)), mu)
          - canonical_weight(convolve(involution(V, mu), V), mu)))
V2 = pukanszky_V(e(1), tau_half)
print("lambda=1/2 asymmetry:",
      abs(canonical_weight(convolve(V2, F), tau_half)
          - canonical_weight(convolve(F, V2), tau_half)))

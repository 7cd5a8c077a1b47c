# Additive transition functionals built site by site, and their cohomology.
#
# A table S(x, w) satisfying S(x, u ^ v) = S(x ^ v, u) + S(x, v) is grown
# from one seed function per site.  The chain identities are re-verified
# exhaustively, the tables embed into a cochain complex with delta^2 = 0,
# and every table produced this way is the coboundary of a single potential.

import numpy as np

from flipchain import (
    CylinderFunction,
    cochain_delta,
    dfs_build,
    dfs_check,
    dfs_to_cochain,
    is_exact,
    word_from_sites,
)

n, D = 3, 5

# integer seeds keep every later value exact
seeds = [
    CylinderFunction(1, np.array([1, -1], dtype=np.int64)),
    CylinderFunction(2, np.array([2, 0, 0, -2], dtype=np.int64)),
    CylinderFunction(3, np.arange(8, dtype=np.int64) - 4),
]
S = dfs_build(n, seeds, D)

rep = dfs_check(S)
print("identities:", rep["checks"], "checks, worst", rep["max_violation"],
      "exact zero:", rep["exact_zero"])

w = word_from_sites([1, 3])
print("table at word {1,3}:", S.entries[w].values[:8], "...")

# inversion antisymmetry: S(x^w, w) = -S(x, w)
T = S.entries[w].values
idx = np.arange(1 << D)
print("antisymmetry worst:", int(np.max(np.abs(T[idx ^ w] + T))))

# cochain complex: the table is a 1-cochain, its delta vanishes
c1 = dfs_to_cochain(S)
print("delta of the table:", int(np.max(np.abs(cochain_delta(c1).values))))

# and it is exact: a potential H with S(x, w) = H(x ^ w) - H(x)
H = is_exact(S)
print("potential found:", H is not None)
reco = H.values[idx ^ w] - H.values
print("reconstruction worst:", int(np.max(np.abs(reco - T))))

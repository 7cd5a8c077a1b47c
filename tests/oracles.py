"""Independent scalar and Kronecker oracles for the package's table kernels.

Each one recomputes a quantity site by site, sharing no table with the
package: the Bernoulli cylinder weight and modular function of one prefix,
and a Pauli word as the Kronecker product of its one-site matrices.
"""

from functools import reduce

import numpy as np

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])
ID2 = np.eye(2)


def bernoulli_weight(lam, p):
    """Weight of the cylinder of prefix p: lam per 0 bit, 1 - lam per 1 bit."""
    out = lam / lam  # exact or float one
    for k in range(1, p.depth + 1):
        out = out * ((1 - lam) if p.bit(k) else lam)
    return out


def bernoulli_delta(lam, g):
    """Modular function of one transition: prod over flipped sites k of
    r**(2 x_k - 1), with r = (1 - lam) / lam."""
    r = (1 - lam) / lam
    out = r / r
    for k in g.flips.sites:
        out = out * (r if g.point.bit(k) else 1 / r)
    return out


def kron_oracle(w, n: int) -> np.ndarray:
    """A Pauli word on n sites as the Kronecker product of its one-site factors."""
    letters = dict(w.letters)
    factor = {1: SIGMA1, 3: SIGMA3}
    return reduce(np.kron, [factor.get(letters.get(k), ID2) for k in range(1, n + 1)],
                  np.eye(1))

"""Independent scalar and Kronecker oracles for the package's table kernels.

Each one recomputes a quantity site by site, sharing no table with the
package.  A transition is a pair (x, w) of Python int masks, as in the
package: the Bernoulli cylinder weight and modular function of one prefix,
the Ising transition energy as the difference of two bond sums read spin by
spin, a Pauli word as the Kronecker product of its one-site matrices, the
inverse modular tables built directly (the package reads them across the
flip), the Bernoulli lattice index and the Ising bond sums summed site by
site (the package counts bits) and the product-state diagonal as a Kronecker
product.  The convolution algebra's kernels get their one-trial,
word-by-word definitions below, and random elements their word-by-word
draw.  `glimm`'s randomized cross-check gets its one-trial form, which runs
those word-by-word kernels on the package's Glimm images.  The groupoid
axioms get a scalar sweep over int pairs that writes the groupoid law out
itself (the package broadcasts its own mask law over arrays).
`ising_dfs_coefficients` is no oracle: it stacks the package's Ising tables
into the exact DFS table that the cocycle checks read.
"""

import math
from fractions import Fraction
from functools import reduce
from time import perf_counter

import numpy as np

from flipchain import (
    EMPTY_WORD,
    AlgebraElement,
    Bernoulli,
    CylinderFunction,
    DfsTable,
    FlipWord,
    PauliWord,
    glimm_map,
    ising_energy_table,
    pauli_operator,
    powers_state,
    random_pauli_word,
    unit,
)

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])
ID2 = np.eye(2)


def _bit(x: int, site: int) -> int:
    """The coordinate of prefix mask x at a 1-based site."""
    return x >> (site - 1) & 1


def bernoulli_weight(lam, x: int, depth: int):
    """Weight of the cylinder of the depth-`depth` prefix x: lam per 0 bit,
    1 - lam per 1 bit."""
    out = lam / lam  # exact or float one
    for k in range(1, depth + 1):
        out = out * ((1 - lam) if _bit(x, k) else lam)
    return out


def bernoulli_delta(lam, x: int, w: int):
    """Modular function of the transition (x, w): prod over flipped sites k
    of r**(2 x_k - 1), with r = (1 - lam) / lam."""
    r = (1 - lam) / lam
    out = r / r
    for k in FlipWord(w).sites:
        out = out * (r if _bit(x, k) else 1 / r)
    return out


def ising_energy(J, x: int, w: int, depth: int) -> float:
    """S(x, w) of the Ising chain: full bond sums of the truncated chains at
    the source and at the target, then subtract.  H = -J * sum, so S = -J *
    (sum at x ^ w - sum at x)."""
    def bond_sum(p):
        spins = [1 - 2 * _bit(p, k) for k in range(1, depth + 1)]
        return sum(a * b for a, b in zip(spins, spins[1:]))

    return -J * (bond_sum(x ^ w) - bond_sum(x))


def ising_dfs_coefficients(n: int, depth: int) -> DfsTable:
    """The S / J tables on all words up to horizon n, in exact integers."""
    return DfsTable.of_rows(np.stack([ising_energy_table(FlipWord(m), depth)
                                      for m in range(1 << n)]))


def bernoulli_delta_inv_table(lam, word, depth: int) -> np.ndarray:
    """The inverse modular table of one word, built directly: a table of ones
    times, per flipped site k in ascending order, 1/r where x_k = 1 and r
    where x_k = 0, with r = (1 - lam) / lam."""
    exact = isinstance(lam, Fraction)
    r = ((Fraction(1) if exact else 1.0) - lam) / lam
    idx = np.arange(1 << depth)
    acc = np.full(1 << depth, r / r, dtype=object if exact else np.float64)
    for k in word.sites:
        acc = acc * np.where((idx >> (k - 1)) & 1 == 1, 1 / r, r)
    return acc


def ising_delta_inv_table(J, word, depth: int) -> np.ndarray:
    """exp(J * E) with E(x) = C(x) - C(x ^ w), C the bond sum of the spins."""
    idx = np.arange(1 << depth)
    spins = [1 - 2 * ((idx >> k) & 1) for k in range(depth)]
    c = sum((a * b for a, b in zip(spins, spins[1:])), np.zeros(1 << depth, dtype=np.int64))
    return np.exp(J * (c - c[idx ^ word.mask]))


def lattice_table(word, depth: int) -> np.ndarray:
    """k = sum over flipped sites j of (2 x_j - 1), one site at a time."""
    idx = np.arange(1 << depth)
    k = np.zeros(1 << depth, dtype=np.int64)
    for j in word.sites:
        k += 2 * ((idx >> (j - 1)) & 1) - 1
    return k


def bond_sums(depth: int) -> np.ndarray:
    """C = sum over bonds k of s_k s_{k+1}, one bond at a time."""
    idx = np.arange(1 << depth)
    c = np.zeros(1 << depth, dtype=np.int64)
    for k in range(1, depth):
        c += (1 - 2 * ((idx >> (k - 1)) & 1)) * (1 - 2 * ((idx >> k) & 1))
    return c


def product_state_diagonal(lam: float, n: int) -> np.ndarray:
    """The diagonal of diag(lam, 1 - lam) tensored n times, site 1 first."""
    return reduce(np.kron, [np.array([lam, 1.0 - lam])] * n, np.array([1.0]))


def kron_oracle(w, n: int) -> np.ndarray:
    """A Pauli word on n sites as the Kronecker product of its one-site factors."""
    letters = dict(w.letters)
    factor = {1: SIGMA1, 3: SIGMA3}
    return reduce(np.kron, [factor.get(letters.get(k), ID2) for k in range(1, n + 1)],
                  np.eye(1))


# The convolution algebra one trial and one word pair at a time, the
# definitions the batched kernels must reproduce bit for bit.  Each takes and
# returns lone elements, reads them through the `terms` view and builds
# results with the dict constructor.

def _max_abs(arr) -> float:
    """Largest absolute entry; NaN if any entry is NaN."""
    if arr.dtype == object:
        return reduce(_worse, (float(abs(v)) for v in arr.flat), 0.0)
    return float(np.max(np.abs(arr)))


def _worse(worst: float, dev: float) -> float:
    return worst if math.isnan(worst) or dev <= worst else dev


def integrate(spec, f):
    weights = spec.weight_table(f.depth)
    if f.values.dtype == object or weights.dtype == object:
        total = 0
        for v, w in zip(f.values.tolist(), weights.tolist()):
            total += v * w
        return total
    prod = f.values * weights
    if np.iscomplexobj(prod):
        return complex(math.fsum(prod.real), math.fsum(prod.imag))
    return math.fsum(prod)


def max_abs_diff(F, G) -> float:
    d = max(F.depth, G.depth)
    F, G = F.lift(d), G.lift(d)
    zeros = np.zeros(1 << d)
    out = 0.0
    for w in sorted(set(F.terms) | set(G.terms)):
        f, g = (X.terms[w].values if w in X.terms else zeros for X in (F, G))
        out = _worse(out, _max_abs(f - g))
    return out


def convolve(F, G):
    d = max(F.depth, G.depth)
    F, G = F.lift(d), G.lift(d)
    idx = np.arange(1 << d)
    acc = {}
    for wf in sorted(F.terms):
        tf = F.terms[wf].values
        for wg in sorted(G.terms):
            contrib = tf * G.terms[wg].values[idx ^ wf.mask]
            w = wf ^ wg
            acc[w] = acc[w] + contrib if w in acc else contrib
    return AlgebraElement({w: CylinderFunction(d, v) for w, v in acc.items()}, d)


def _delta_depth(F, spec) -> int:
    return max([F.depth] + [spec.min_delta_depth(w) for w in F.terms])


def involution(F, spec):
    d = _delta_depth(F, spec)
    F = F.lift(d)
    idx = np.arange(1 << d)
    return AlgebraElement({
        w: CylinderFunction(d, spec.delta_inv_table(w, d) * np.conjugate(f.values[idx ^ w.mask]))
        for w, f in F.terms.items()
    }, d)


def _as_float(table):
    return table.astype(np.float64) if table.dtype == object else table


def modular_conjugation(F, spec):
    d = _delta_depth(F, spec)
    F = F.lift(d)
    idx = np.arange(1 << d)
    return AlgebraElement({
        w: CylinderFunction(d, _as_float(spec.delta_inv_table(w, d) ** 0.5)
                            * np.conjugate(f.values[idx ^ w.mask]))
        for w, f in F.terms.items()
    }, d)


def modular_operator_pow(F, t, spec):
    d = _delta_depth(F, spec)
    F = F.lift(d)
    out = {}
    for w, f in F.terms.items():
        delta = spec.delta_table(w, d)
        if delta.dtype == object:
            power = delta ** t if isinstance(t, int) else delta.astype(float) ** t
        elif isinstance(t, complex):
            power = np.exp(t * np.log(delta))
        else:
            power = delta ** t
        out[w] = CylinderFunction(d, power * f.values)
    return AlgebraElement(out, d)


def inner_product(F, G, spec):
    d = max(F.depth, G.depth)
    F, G = F.lift(d), G.lift(d)
    total = 0
    for w in sorted(set(F.terms) | set(G.terms)):
        if w in F.terms and w in G.terms:
            total += integrate(spec, CylinderFunction(
                d, np.conjugate(F.terms[w].values) * G.terms[w].values))
    return total


def l2_norm(F, spec) -> float:
    """The complex-product route: <F, F> integrated as a complex number, of
    which the norm reads the real part (the package integrates Re conj(F) F)."""
    sq = inner_product(F, F, spec)
    if isinstance(sq, complex):
        sq = sq.real
    return math.sqrt(float(sq))


def hahn_norm(F, spec) -> float:
    d = _delta_depth(F, spec)
    F = F.lift(d)
    idx = np.arange(1 << d)
    branch_t = np.zeros(1 << d)
    branch_s = np.zeros(1 << d)
    for w in sorted(F.terms):
        absv = _as_float(np.abs(F.terms[w].values))
        branch_t = branch_t + absv
        branch_s = branch_s + _as_float(spec.delta_inv_table(w, d)) * absv[idx ^ w.mask]
    if not F.terms:
        return 0.0
    return float(np.maximum(branch_t.max(), branch_s.max()))


def pukanszky_V(w, spec):
    d = max(spec.min_delta_depth(w), w.horizon)
    return AlgebraElement({w: CylinderFunction(d, _as_float(spec.delta_inv_table(w, d) ** 0.5))})


def canonical_weight(F, spec):
    if EMPTY_WORD not in F.terms:
        return 0 if spec.exact else 0.0
    return integrate(spec, F.terms[EMPTY_WORD])


def tt_evolve(F, t, energy):
    d = _delta_depth(F, energy)
    F = F.lift(d)
    out = {}
    for w, f in F.terms.items():
        phase = np.exp(1j * t * np.asarray(energy.energy_table(w, d), dtype=np.float64))
        vals = f.values.astype(np.complex128) if f.values.dtype == object else f.values
        out[w] = CylinderFunction(d, phase * vals)
    return AlgebraElement(out, d)


def random_algebra_element(rng, depth, words=3, horizon=None, complex_values=True):
    """The draw one word at a time: the word masks, then per mask in ascending
    order its real table and its imaginary table, through the dict constructor."""
    h = depth if horizon is None else horizon
    masks = rng.choice(1 << h, size=min(words, 1 << h), replace=False)
    terms = {}
    for m in sorted(int(m) for m in masks):
        vals = rng.standard_normal(1 << depth)
        if complex_values:
            vals = vals + 1j * rng.standard_normal(1 << depth)
        terms[FlipWord(m)] = CylinderFunction(depth, vals)
    return AlgebraElement(terms, depth)


def gns_deviation(rng: np.random.Generator, n: int, spec: Bernoulli) -> float:
    """One randomized comparison of the two state evaluations.

    Draws a complex combination of Pauli-word products (including
    sigma2-style i * sigma1 sigma3 pairs at a random site), evaluates the
    product state on the dense side and the cyclic-vector weight on the
    algebra side, and returns their absolute deviation.
    """
    M = np.zeros((1 << n, 1 << n), dtype=complex)
    F = AlgebraElement({})
    for _ in range(int(rng.integers(1, 4))):
        c = complex(rng.standard_normal(), rng.standard_normal())
        words = [random_pauli_word(rng, n)]
        if int(rng.integers(0, 2)):
            k = int(rng.integers(1, n + 1))
            c *= 1j
            words += [PauliWord(((k, 1),)), PauliWord(((k, 3),))]
        term_m = np.eye(1 << n)
        term_a = unit()
        for word in words:
            term_m = term_m @ pauli_operator(word, n)
            term_a = convolve(term_a, glimm_map(word, spec))
        M = M + c * term_m
        F = F + c * term_a
    return abs(complex(canonical_weight(F, spec)) - powers_state(M, spec.lam))


def axioms_report_scalar(n: int) -> dict:
    """Exhaustively verify the groupoid axioms at horizon n, one instance at a
    time, on transitions (x, w) of Python ints.

    The groupoid law is written out here, not read from the package: (x, w)
    ends at x and starts at x ^ w, (x, u) composes with (y, v) iff y = x ^ u,
    to (x, u ^ v), and (x, w)^-1 = (x ^ w, w).  Checks, for every prefix of
    depth n and all words u, v, w with horizon <= n:

    * composability bookkeeping: source/target of a composition;
    * associativity of composition on composable triples;
    * left/right units;
    * inverses composing to units, and involutivity of the inverse;
    * the abelian-group law on flip words (commutativity, self-inverses);
    * rejection of non-composable pairs.

    Returns a report dict with the number of checks, violations, and elapsed
    seconds.
    """
    t0 = perf_counter()
    masks = range(1 << n)  # the words, and the depth-n prefixes
    checks = 0
    violations = 0

    def ok(cond):
        nonlocal checks, violations
        checks += 1
        if not cond:
            violations += 1

    def source(a):
        return a[0] ^ a[1]

    def compose(a, b):
        """a after b, or None where b does not end where a starts."""
        return (a[0], a[1] ^ b[1]) if source(a) == b[0] else None

    def inverse(a):
        return source(a), a[1]

    # Abelian group law on the flip words.
    for u in masks:
        ok((u ^ u) == 0)
        ok((u ^ 0) == u)
        for v in masks:
            ok((u ^ v) == (v ^ u))

    for x in masks:
        for u in masks:
            a = (x, u)
            ok(a[0] == x)
            ok(source(a) == (x ^ u))
            ainv = inverse(a)
            ok(inverse(ainv) == a)
            ok(compose(a, ainv) == (x, 0))
            ok(compose(ainv, a) == (source(a), 0))
            ok(compose((x, 0), a) == a)
            ok(compose(a, (source(a), 0)) == a)
            for v in masks:
                b = (x ^ u, v)
                ab = compose(a, b)
                ok(ab is not None and ab[0] == a[0] and source(ab) == source(b))
                ok(ab is not None and ab[1] == (u ^ v))
                # Every pair (a, b') with b' based at the wrong point must
                # be rejected.
                if (x ^ u) != x:
                    ok(compose(a, (x, v)) is None)
                for w in masks:
                    c = (x ^ u ^ v, w)
                    bc = compose(b, c)
                    abc = None if None in (ab, bc) else compose(ab, c)
                    ok(abc is not None and abc == compose(a, bc))

    return {
        "horizon": n,
        "checks": checks,
        "violations": violations,
        "elapsed_seconds": perf_counter() - t0,
    }

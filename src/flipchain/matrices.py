"""Finite matrix algebras and the generator correspondence.

The 2**n-dimensional side: Pauli words as dense matrices, the product state
with per-site density diag(lambda, 1 - lambda), and the map sending the
matrix generators into the convolution algebra,

    sigma1 at site k  ->  V at the single-flip word e_k,
    sigma3 at site k  ->  multiplication by the parity function psi_k.

A Pauli word is a pair (x, z) of disjoint site masks, x its sigma1 sites
and z its sigma3 sites, site k at bit k - 1 as everywhere in the package.
The matrix row index is a prefix mask too, so site 1 is the last tensor
factor, the matrix diagonal is a cylinder table, and the product state is
the Bernoulli measure's own integral of it.

A Pauli word is a signed permutation matrix, built from its masks rather
than as a Kronecker product: entry (r, r ^ x) is (-1)**popcount((r ^ x) & z)
and every other entry is zero.  The entries are exact, so products of words
are the same floats in any summation order.

Word images are memoised per measure, each one convolution from the image
of its prefix.  `gns_deviations`, the randomized cross-check that `glimm`
runs, evaluates the dense side trial by trial and the algebra side as
batches of trials, each trial with the bits it has on its own.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .algebra import (
    AlgebraElement,
    canonical_weight,
    convolve,
    pukanszky_L,
    pukanszky_V,
    unit,
)
from .errors import InvalidSpec, SiteOutOfRange
from .groupoid import e, word_sites
from .measures import Bernoulli, CylinderFunction, integrate


def pauli_operator(w: tuple, n: int) -> np.ndarray:
    """The 2**n x 2**n float64 matrix of the Pauli word w = (x, z), rows and
    columns indexed by prefix masks."""
    x, z = w
    if (x | z) >> n:
        raise SiteOutOfRange(f"word uses site {(x | z).bit_length()} but n={n}")
    if x & z:
        raise InvalidSpec(f"sites {word_sites(x & z)} carry both sigma1 and sigma3")
    rows = np.arange(1 << n)
    entries = np.zeros((1 << n, 1 << n))
    entries[rows, rows ^ x] = 1.0 - 2.0 * (np.bitwise_count((rows ^ x) & z) & 1)
    return entries


def powers_state(A: np.ndarray, lam) -> complex:
    """Product-state expectation Tr(rho**tensor n A), rho = diag(lam, 1-lam),
    of a 2**n x 2**n matrix."""
    lam = float(lam)
    if not 0 < lam <= 0.5:
        raise InvalidSpec(f"lambda={lam} outside (0, 1/2]")
    n = len(A).bit_length() - 1
    return complex(integrate(Bernoulli(lam), CylinderFunction(n, np.diagonal(A))))


# Word images per (measure, word); the measure key carries the parameter's
# type, so an exact (Fraction) image is never handed to a float caller.
_IMAGES: dict = {}


def glimm_map(w: tuple, spec) -> AlgebraElement:
    """Image of the Pauli word w = (x, z) in the convolution algebra.

    sigma1 at site k maps to the weighted flip V_{e_k}, sigma3 to
    multiplication by psi_k; the images are star-multiplied site-ascending,
    so a word's image is the image of the word without its top site times
    that site's, built once from the memoised prefix.  Star-homomorphism on
    words holds because distinct-site images commute.
    """
    if not isinstance(spec, Bernoulli):
        raise InvalidSpec("the generator correspondence needs a Bernoulli measure")
    x, z = w
    key = spec._key("glimm", x, z)
    if key not in _IMAGES:
        site = (x | z).bit_length()
        if not site:
            _IMAGES[key] = unit()
        else:
            top = 1 << (site - 1)
            factor = (pukanszky_V(top, spec) if x & top else
                      pukanszky_L(CylinderFunction.psi(site, site, exact=spec.exact)))
            _IMAGES[key] = convolve(glimm_map((x & ~top, z & ~top), spec), factor)
    return _IMAGES[key]


def random_pauli_word(rng: np.random.Generator, n: int) -> tuple:
    """Each site independently blank, sigma1 or sigma3: the (x, z) masks."""
    x = z = 0
    for k in range(n):
        r = int(rng.integers(0, 3))
        x |= (r == 1) << k
        z |= (r == 2) << k
    return x, z


def gns_deviations(rngs, n: int, spec: Bernoulli) -> list:
    """Randomized comparisons of the two state evaluations, one per generator.

    Each trial draws a complex combination of one to three Pauli-word
    products (a word, or a word times a sigma2-style i * sigma1 sigma3 pair
    at a random site), evaluates the product state on the dense side and
    the cyclic-vector weight on the algebra side, and gives their absolute
    deviation.  The dense side runs trial by trial.  The algebra side runs
    one batch per term and factor position, over the trials whose images
    reach the same depth: a trial's weight is integrated at that depth alone,
    so each deviation has the bits of its trial run on its own.
    """
    states, drawn = [], []
    for rng in rngs:
        M = np.zeros((1 << n, 1 << n), dtype=complex)
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            c = complex(rng.standard_normal(), rng.standard_normal())
            words = [random_pauli_word(rng, n)]
            if int(rng.integers(0, 2)):
                k = int(rng.integers(1, n + 1))
                c *= 1j
                words += [(e(k), 0), (0, e(k))]
            # no identity in front: products of 0 and +-1 entries are exact
            M = M + c * reduce(np.matmul, [pauli_operator(w, n) for w in words])
            terms.append((c, [glimm_map(w, spec) for w in words]))
        states.append(powers_state(M, spec.lam))
        drawn.append(terms)
    groups = {}
    for i, terms in enumerate(drawn):
        depth = max(image.depth for _, images in terms for image in images)
        groups.setdefault(depth, []).append(i)
    weights, one, empty = [None] * len(drawn), unit(), AlgebraElement({})
    for group in groups.values():
        F = AlgebraElement.batch([empty] * len(group))
        for t in range(max(len(drawn[i]) for i in group)):
            # a trial without a t-th term holds the empty element there; the
            # unit times a first factor is that factor, bit for bit
            column = [drawn[i][t] if t < len(drawn[i]) else (0j, [empty]) for i in group]
            term = AlgebraElement.batch([images[0] for _, images in column])
            for f in range(1, max(len(images) for _, images in column)):
                term = convolve(term, AlgebraElement.batch(
                    [images[f] if f < len(images) else one for _, images in column]))
            scale = np.array([c for c, _ in column])[term.trial, None]
            F = F + AlgebraElement.of_rows(term.depth, term.trials, scale * term.values,
                                           term.trial, term.word)
        for i, weight in zip(group, canonical_weight(F, spec)):
            weights[i] = weight
    return [abs(complex(weight) - state) for weight, state in zip(weights, states)]

"""Finite matrix algebras and the generator correspondence.

The 2**n-dimensional side: Pauli words as dense matrices, the product state
with per-site density diag(lambda, 1 - lambda), and the map sending the
matrix generators into the convolution algebra,

    sigma1 at site k  ->  V at the single-flip word e_k,
    sigma3 at site k  ->  multiplication by the parity function psi_k.

Site 1 is the first tensor factor, so the matrix row index carries site 1 in
its most significant bit.  Prefixes keep site 1 in the least significant bit.
The product state is the Bernoulli measure's own integral of the matrix
diagonal, its site axes reversed; otherwise the two sides are never
index-matched, and equality of expectations is checked through the state
values themselves.

A Pauli word is a signed permutation matrix, built from its bit masks rather
than as a Kronecker product: with x the letter-1 sites and z the letter-3
sites (site k at bit n - k), entry (r, r ^ x) is (-1)**popcount((r ^ x) & z)
and every other entry is zero.  The entries are exact, so products of words
are the same floats in any summation order.

Word images are memoised per measure, each one convolution from the image
of its prefix.  `gns_deviations`, the randomized cross-check that `glimm`
runs, evaluates the dense side trial by trial and the algebra side as
batches of trials, each trial with the bits it has on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .groupoid import e
from .measures import Bernoulli, CylinderFunction, integrate


@dataclass(frozen=True)
class PauliWord:
    """Product of one-site generators: map site -> letter, letters in {1, 3}.

    Factors at distinct sites commute, so the site-ascending storage order is
    a canonical form, not a choice of operator.
    """

    letters: tuple = ()

    def __post_init__(self):
        seen = set()
        for site, letter in self.letters:
            if not isinstance(site, int) or site < 1:
                raise SiteOutOfRange(f"site {site!r} must be a positive int")
            if site in seen:
                raise InvalidSpec(f"site {site} appears twice in one word")
            if letter not in (1, 3):
                raise InvalidSpec(f"letter {letter!r} not in {{1, 3}}")
            seen.add(site)
        object.__setattr__(
            self, "letters", tuple(sorted(self.letters))
        )

    @property
    def sites(self) -> tuple:
        return tuple(site for site, _ in self.letters)

    @property
    def max_site(self) -> int:
        return max(self.sites, default=0)

    def __repr__(self):
        body = ", ".join(f"{s}:{l}" for s, l in self.letters)
        return f"PauliWord({{{body}}})"


def pauli_operator(w: PauliWord, n: int) -> np.ndarray:
    """The 2**n x 2**n float64 matrix of a Pauli word, site 1 as first factor."""
    if w.max_site > n:
        raise SiteOutOfRange(f"word uses site {w.max_site} but n={n}")
    x = sum(1 << (n - site) for site, letter in w.letters if letter == 1)
    z = sum(1 << (n - site) for site, letter in w.letters if letter == 3)
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
    diagonal = np.diagonal(A).reshape((2,) * n).transpose().ravel()
    return complex(integrate(Bernoulli(lam), CylinderFunction(n, diagonal)))


# Word images per (measure, word); the measure key carries the parameter's
# type, so an exact (Fraction) image is never handed to a float caller.
_IMAGES: dict = {}


def glimm_map(w: PauliWord, spec) -> AlgebraElement:
    """Image of a Pauli word in the convolution algebra.

    Letter 1 at site k maps to the weighted flip V_{e_k}, letter 3 to
    multiplication by psi_k; the images are star-multiplied site-ascending,
    so a word's image is its image without the last letter times that
    letter's, built once from the memoised prefix.  Star-homomorphism on
    words holds because distinct-site images commute.
    """
    if not isinstance(spec, Bernoulli):
        raise InvalidSpec("the generator correspondence needs a Bernoulli measure")
    key = spec._key("glimm", w.letters)
    if key not in _IMAGES:
        if not w.letters:
            _IMAGES[key] = unit()
        else:
            site, letter = w.letters[-1]
            factor = (pukanszky_V(e(site), spec) if letter == 1 else
                      pukanszky_L(CylinderFunction.psi(site, site, exact=spec.exact)))
            _IMAGES[key] = convolve(glimm_map(PauliWord(w.letters[:-1]), spec), factor)
    return _IMAGES[key]


def random_pauli_word(rng: np.random.Generator, n: int) -> PauliWord:
    """Each site independently blank, letter 1, or letter 3."""
    letters = []
    for site in range(1, n + 1):
        r = int(rng.integers(0, 3))
        if r:
            letters.append((site, 1 if r == 1 else 3))
    return PauliWord(tuple(letters))


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
                words += [PauliWord(((k, 1),)), PauliWord(((k, 3),))]
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

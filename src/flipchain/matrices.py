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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    multiplication by psi_k; the images are star-multiplied site-ascending.
    Star-homomorphism on words holds because distinct-site images commute.
    """
    if not isinstance(spec, Bernoulli):
        raise InvalidSpec("the generator correspondence needs a Bernoulli measure")
    key = spec._key("glimm", w.letters)
    if key in _IMAGES:
        return _IMAGES[key]
    out = unit()
    for site, letter in w.letters:
        if letter == 1:
            factor = pukanszky_V(e(site), spec)
        else:
            factor = pukanszky_L(
                CylinderFunction.psi(site, site, exact=spec.exact)
            )
        out = convolve(out, factor)
    _IMAGES[key] = out
    return out


def random_pauli_word(rng: np.random.Generator, n: int) -> PauliWord:
    """Each site independently blank, letter 1, or letter 3."""
    letters = []
    for site in range(1, n + 1):
        r = int(rng.integers(0, 3))
        if r:
            letters.append((site, 1 if r == 1 else 3))
    return PauliWord(tuple(letters))


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

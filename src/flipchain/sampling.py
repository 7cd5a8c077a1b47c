"""Deterministic randomness for property checks.

Every randomized check derives an independent generator per trial from the
master seed through a counting hash.  Reports are then reproducible across
platforms and insensitive to how trials are batched or reordered; trial i
always sees the same stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .algebra import AlgebraElement
from .groupoid import FlipWord
from .measures import CylinderFunction

_TAG = b"flipchain"


def trial_seed(master: int, index: int) -> int:
    """64-bit seed for one trial, hashed from (master, index)."""
    payload = (
        _TAG
        + int(master).to_bytes(8, "big", signed=True)
        + int(index).to_bytes(8, "big", signed=True)
    )
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def rng_for(master: int, index: int) -> np.random.Generator:
    return np.random.default_rng(trial_seed(master, index))


def random_word(rng: np.random.Generator, n: int) -> FlipWord:
    return FlipWord(int(rng.integers(0, 1 << n)))


def random_cylinder(rng: np.random.Generator, depth: int, complex_values: bool = True) -> CylinderFunction:
    size = 1 << depth
    vals = rng.standard_normal(size)
    if complex_values:
        vals = vals + 1j * rng.standard_normal(size)
    return CylinderFunction(depth, vals)


def random_algebra_element(
    rng: np.random.Generator,
    depth: int,
    words: int = 3,
    horizon: int | None = None,
    complex_values: bool = True,
) -> AlgebraElement:
    """Element with `words` distinct random words, tables at the given depth.

    Words are drawn inside `horizon` (default: the full depth).
    """
    h = depth if horizon is None else horizon
    masks = rng.choice(1 << h, size=min(words, 1 << h), replace=False)
    terms = {
        FlipWord(int(m)): random_cylinder(rng, depth, complex_values)
        for m in sorted(int(m) for m in masks)
    }
    return AlgebraElement(terms, depth)

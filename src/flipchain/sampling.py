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
from .groupoid import FlipWord, check_depth
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


def _normal_rows(rng: np.random.Generator, rows: int, depth: int, complex_values: bool):
    """rows tables of 2**depth standard normals in one draw, the numbers of one
    draw per table (its real, then its imaginary part); no rows stay float64."""
    draws = rng.standard_normal((rows, 1 + complex_values, 1 << depth))
    return draws[:, 0] + 1j * draws[:, 1] if complex_values and rows else draws[:, 0]


def random_cylinder(rng: np.random.Generator, depth: int, complex_values: bool = True) -> CylinderFunction:
    return CylinderFunction(depth, _normal_rows(rng, 1, depth, complex_values)[0])


def random_algebra_element(
    rng: np.random.Generator,
    depth: int,
    words: int = 3,
    horizon: int | None = None,
    complex_values: bool = True,
) -> AlgebraElement:
    """Element with `words` distinct random words, tables at the given depth.

    Words are drawn inside `horizon` (default: the full depth), tables in
    ascending word order; the element is lifted to its deepest word.
    """
    check_depth(depth)
    h = depth if horizon is None else horizon
    masks = np.sort(rng.choice(1 << h, size=min(words, 1 << h), replace=False))
    values = _normal_rows(rng, len(masks), depth, complex_values)
    trial = np.zeros(len(masks), dtype=np.int64)
    return AlgebraElement.of_rows(depth, None, values, trial, masks).lift(
        int(masks.max(initial=0)).bit_length())

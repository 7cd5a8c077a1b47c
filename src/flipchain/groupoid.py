"""The bit-flip groupoid over binary sequences: flip words and the law on masks.

The base space is the set of infinite binary sequences, represented by finite
prefixes: every consumer in this package is a cylinder function, so a depth-D
prefix is a faithful stand-in for the full sequence.  Site k is bit k - 1 of
an integer mask (site 1 is the least significant bit), and prefix bit 0 means
"outcome 0", which carries the lambda weight of the Bernoulli measure.

A transition (x, w) is a point mask x and a word mask w of flipped sites: it
ends at x and starts at source(x, w) = x ^ w.  Flip words form an abelian
2-group under symmetric difference; (x, u) composes with (y, v) iff
y = x ^ u, to (x, u ^ v), and (x, w)^-1 = (x ^ w, w).  This law takes Python
ints or integer arrays alike, and it is the one representation of a
transition: `axioms_report` broadcasts it over all prefixes and words at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from time import perf_counter

import numpy as np

from .errors import HorizonOverflow

# Tables hold 2**depth entries; refuse anything larger than this by default.
DEPTH_CAP = 20


def check_depth(depth: int) -> None:
    """Raise HorizonOverflow if a 2**depth table would exceed the cap."""
    if depth > DEPTH_CAP:
        raise HorizonOverflow(f"depth {depth} exceeds cap {DEPTH_CAP}")


@dataclass(frozen=True, order=True)
class FlipWord:
    """A finite set of flipped sites, stored as a bitmask (site k <-> bit k-1)."""

    mask: int = 0

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError("flip-word mask must be nonnegative")

    @classmethod
    def from_sites(cls, sites) -> "FlipWord":
        """Build a word from an iterable of distinct 1-based site indices."""
        mask = 0
        for s in sites:
            if isinstance(s, bool) or not isinstance(s, Integral):
                raise ValueError(f"site indices are integers, got {s!r}")
            if s < 1:
                raise ValueError(f"site indices are 1-based, got {s}")
            bit = 1 << (s - 1)
            if mask & bit:
                raise ValueError(f"duplicate site {s}")
            mask |= bit
        return cls(mask)

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(
            k + 1 for k in range(self.mask.bit_length()) if self.mask >> k & 1
        )

    @property
    def horizon(self) -> int:
        """Largest flipped site, 0 for the empty word."""
        return self.mask.bit_length()

    def __xor__(self, other: "FlipWord") -> "FlipWord":
        """Symmetric difference of two flip words (the group law)."""
        return FlipWord(self.mask ^ other.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __hash__(self) -> int:
        # equal words have equal masks; cheaper than the generated hash((mask,))
        return self.mask

    def __iter__(self):
        return iter(self.sites)

    def __repr__(self):
        return "FlipWord{%s}" % ",".join(map(str, self.sites))


EMPTY_WORD = FlipWord(0)


def e(k: int) -> FlipWord:
    """The single-site word flipping site k."""
    return FlipWord.from_sites([k])


# The law on masks (see the module docstring), for ints and arrays alike.
def source(x, w):
    return x ^ w


def target(x, w):
    return x


def composable(x, u, y):
    return source(x, u) == y


def compose_masks(x, u, v):
    return x, u ^ v


def inverse_masks(x, w):
    return source(x, w), w


def enumerate_gamma(n: int) -> list[FlipWord]:
    """All 2**n flip words with horizon <= n, in ascending-bitmask order."""
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    check_depth(n)
    return [FlipWord(m) for m in range(1 << n)]


# The axiom sweep's chunks along the prefix axis span this many (x, u, v, w).
_SWEEP_ENTRIES = 1 << 18


def _composes_to(a, b, c):
    """Whether transition a composes with b, to c; each a (point, word) pair."""
    x, w = compose_masks(*a, b[1])
    return composable(*a, target(*b)) & (x == c[0]) & (w == c[1])


def axioms_report(n: int) -> dict:
    """Exhaustively verify the groupoid axioms at horizon n.

    Checks, for every prefix x of depth n and all words u, v, w with horizon
    <= n, through the mask law:

    * composability bookkeeping: source/target of a composition;
    * associativity of composition on composable triples;
    * left/right units;
    * inverses composing to units, and involutivity of the inverse;
    * the abelian-group law on flip words (commutativity, self-inverses);
    * rejection of non-composable pairs.

    Each family is one array over its variables, and counts its entries as
    checks; a composition that is not composable fails its entry.  Returns a
    report dict with the number of checks, violations, and elapsed seconds.
    """
    t0 = perf_counter()
    masks = [w.mask for w in enumerate_gamma(n)]
    # at horizon n the words and the depth-n prefixes are the same 2**n masks
    prefixes = words = np.array(masks, np.min_scalar_type(masks[-1]))
    checks = violations = 0

    def tally(operands, *families):
        """Count each family, a truth array over (a broadcast of) the operands."""
        nonlocal checks, violations
        shape = np.broadcast_shapes(*map(np.shape, operands))
        for ok in families:
            ok = np.broadcast_to(ok, shape)
            checks += ok.size
            violations += ok.size - int(np.count_nonzero(ok))

    # Abelian group law on the flip words, as the words of composites.
    u, v = words[:, None], words
    tally((u,), compose_masks(0, u, u)[1] == 0, compose_masks(0, u, 0)[1] == u)
    tally((u, v), compose_masks(0, u, v)[1] == compose_masks(0, v, u)[1])

    u, v, w = words[:, None, None], words[:, None], words
    step = max(1, _SWEEP_ENTRIES >> 3 * n)
    for start in range(0, len(prefixes), step):
        x = prefixes[start:start + step, None, None, None]
        a, s, ainv = (x, u), source(x, u), inverse_masks(x, u)
        aii = inverse_masks(*ainv)
        tally((x, u), target(*a) == x, s == x ^ u, (aii[0] == x) & (aii[1] == u),
              _composes_to(a, ainv, (x, 0)), _composes_to(ainv, a, (s, 0)),  # inverses
              _composes_to((x, 0), a, a), _composes_to(a, (s, 0), a))  # units
        # b = (x + u, v) starts where a ends, c = (x + u + v, w) where b ends
        b, c = (x ^ u, v), (x ^ u ^ v, w)
        ab, bc = compose_masks(*a, v), compose_masks(*b, w)
        ab_ok = composable(*a, target(*b))
        tally((x, u, v), ab_ok & (target(*ab) == x) & (source(*ab) == source(*b)),
              ab_ok & (ab[1] == u ^ v))
        # every pair (a, b') with b' based at the wrong point must be rejected
        tally((x, u[1:], v), np.logical_not(composable(x, u[1:], x)))
        assoc = _composes_to(ab, c, compose_masks(*a, bc[1])) & composable(*a, target(*bc))
        tally((x, u, v, w), ab_ok & composable(*b, target(*c)) & assoc)
    return {"horizon": n, "checks": checks, "violations": violations,
            "elapsed_seconds": perf_counter() - t0}

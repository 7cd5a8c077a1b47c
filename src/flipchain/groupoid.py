"""Core structures of the bit-flip groupoid over binary sequences.

The base space is the set of infinite binary sequences.  A transition is a
pair (point, flips): it starts at the point obtained by flipping the listed
sites and ends at the point itself.  Flip words form an abelian 2-group under
symmetric difference, and two transitions compose exactly when the source of
the first matches the target of the second.

Points are represented by finite prefixes: every consumer in this package is
a cylinder function, so a depth-D prefix is a faithful stand-in for the full
sequence.  Operations raise rather than zero-extend when a prefix is too
shallow, to surface depth bugs.

Bit conventions, used consistently everywhere:

* site k <-> bit (k - 1) of an integer mask, so site 1 is the least
  significant bit;
* prefix bit 0 means "outcome 0" and carries the lambda weight of the
  Bernoulli measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from .errors import DepthMismatch, DepthTooSmall, HorizonOverflow, NotComposable

# Tables hold 2**depth entries; refuse anything larger than this by default.
DEPTH_CAP = 20


def check_depth(depth: int, cap: int = DEPTH_CAP) -> None:
    """Raise HorizonOverflow if a 2**depth table would exceed the cap."""
    if depth > cap:
        raise HorizonOverflow(f"depth {depth} exceeds cap {cap}")


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


def xor(a: FlipWord, b: FlipWord) -> FlipWord:
    """Symmetric difference of two flip words (the group law)."""
    return a ^ b


@dataclass(frozen=True, order=True)
class Prefix:
    """The first `depth` coordinates of a base point, stored as a bitmask."""

    depth: int
    bits: int = 0

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("prefix depth must be nonnegative")
        if not 0 <= self.bits < 1 << self.depth:
            raise ValueError(
                f"bits {self.bits} outside the range of depth {self.depth}"
            )

    @classmethod
    def from_bits(cls, bits) -> "Prefix":
        """Build a prefix from a sequence of 0/1 values in site order."""
        seq = tuple(bits)
        mask = 0
        for k, b in enumerate(seq):
            if b not in (0, 1):
                raise ValueError(f"prefix entries must be 0 or 1, got {b!r}")
            if b:
                mask |= 1 << k
        return cls(len(seq), mask)

    def bit(self, site: int) -> int:
        """Coordinate of the point at a 1-based site."""
        if site < 1:
            raise ValueError(f"site indices are 1-based, got {site}")
        if site > self.depth:
            raise DepthTooSmall(f"site {site} beyond prefix depth {self.depth}")
        return self.bits >> (site - 1) & 1

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.bits >> k & 1 for k in range(self.depth))

    def __xor__(self, word: FlipWord) -> "Prefix":
        if word.horizon > self.depth:
            raise DepthTooSmall(
                f"word with horizon {word.horizon} applied to depth-{self.depth} prefix"
            )
        return Prefix(self.depth, self.bits ^ word.mask)

    def __repr__(self):
        return "Prefix(%s)" % "".join(map(str, self.as_tuple()))


@dataclass(frozen=True)
class GroupoidElement:
    """A transition: target prefix together with the word of flipped sites."""

    point: Prefix
    flips: FlipWord = EMPTY_WORD

    def __post_init__(self):
        if self.flips.horizon > self.point.depth:
            raise DepthTooSmall(
                f"flip horizon {self.flips.horizon} exceeds prefix depth "
                f"{self.point.depth}"
            )

    @property
    def target(self) -> Prefix:
        return self.point

    @property
    def source(self) -> Prefix:
        return self.point ^ self.flips

    def __repr__(self):
        return f"({self.point!r}, {self.flips!r})"


def identity(point: Prefix) -> GroupoidElement:
    """The unit transition at a point."""
    return GroupoidElement(point, EMPTY_WORD)


def compose(a: GroupoidElement, b: GroupoidElement) -> GroupoidElement:
    """Compose two transitions; defined iff source(a) = target(b)."""
    if a.point.depth != b.point.depth:
        raise DepthMismatch(
            f"prefix depths differ: {a.point.depth} vs {b.point.depth}"
        )
    if a.source != b.target:
        raise NotComposable(f"source of {a!r} is not the target of {b!r}")
    return GroupoidElement(a.point, a.flips ^ b.flips)


def inverse(a: GroupoidElement) -> GroupoidElement:
    """The reversed transition: (x, w)^-1 = (x + w, w)."""
    return GroupoidElement(a.point ^ a.flips, a.flips)


def enumerate_gamma(n: int) -> list[FlipWord]:
    """All 2**n flip words with horizon <= n, in ascending-bitmask order."""
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    check_depth(n)
    return [FlipWord(m) for m in range(1 << n)]


def enumerate_prefixes(depth: int) -> list[Prefix]:
    """All 2**depth prefixes in ascending-bitmask order."""
    check_depth(depth)
    return [Prefix(depth, m) for m in range(1 << depth)]


def axioms_report(n: int) -> dict:
    """Exhaustively verify the groupoid axioms at horizon n.

    Checks, for every prefix of depth n and all words u, v, w with horizon
    <= n:

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
    words = enumerate_gamma(n)
    prefixes = enumerate_prefixes(n)
    checks = 0
    violations = 0

    def ok(cond):
        nonlocal checks, violations
        checks += 1
        if not cond:
            violations += 1

    # Abelian group law on the flip words.
    for u in words:
        ok((u ^ u) == EMPTY_WORD)
        ok((u ^ EMPTY_WORD) == u)
        for v in words:
            ok((u ^ v) == (v ^ u))

    for x in prefixes:
        for u in words:
            a = GroupoidElement(x, u)
            ok(a.target == x)
            ok(a.source == (x ^ u))
            ainv = inverse(a)
            ok(inverse(ainv) == a)
            ok(compose(a, ainv) == identity(x))
            ok(compose(ainv, a) == identity(a.source))
            ok(compose(identity(x), a) == a)
            ok(compose(a, identity(a.source)) == a)
            for v in words:
                b = GroupoidElement(x ^ u, v)
                ab = compose(a, b)
                ok(ab.target == a.target and ab.source == b.source)
                ok(ab.flips == (u ^ v))
                # Every pair (a, b') with b' based at the wrong point must
                # be rejected.
                if (x ^ u) != x:
                    try:
                        compose(a, GroupoidElement(x, v))
                        ok(False)
                    except NotComposable:
                        ok(True)
                for w in words:
                    c = GroupoidElement(x ^ u ^ v, w)
                    ok(compose(ab, c) == compose(a, compose(b, c)))

    return {
        "horizon": n,
        "checks": checks,
        "violations": violations,
        "elapsed_seconds": perf_counter() - t0,
    }

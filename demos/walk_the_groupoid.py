"""
Walking the flip groupoid
=========================

A transition is a pair (point, word): an infinite bit string seen through a
depth-D window, plus a finite set of sites to flip.  Composition chains two
transitions when the middle points line up.
"""

from flipchain import (
    EMPTY_WORD,
    FlipWord,
    GroupoidElement,
    Prefix,
    axioms_report,
    compose,
    e,
    enumerate_gamma,
    identity,
    inverse,
)

# a word is just a bitmask over sites 1, 2, 3, ...
w = FlipWord.from_sites([1, 3])
print("word", w, "mask", bin(w.mask), "sites", w.sites, "horizon", w.horizon)

# prefixes are depth-D windows; site k reads bit k-1
p = Prefix(4, 0b0101)
print("prefix bits", [p.bit(k) for k in (1, 2, 3, 4)])

# acting by w flips the named sites
print("p ^ w =", [(p ^ w).bit(k) for k in (1, 2, 3, 4)])

g = GroupoidElement(p, w)
print("source", g.source.bits, "-> target", g.target.bits)

# compose: h acts after g, so h must start where g lands
h = GroupoidElement(p ^ e(2), e(2))
hg = compose(h, g)
print("composed word", hg.flips.sites)

# inverses swap the endpoints; the word is its own inverse under xor
gi = inverse(g)
print("inverse source", gi.source.bits)
print("g^-1 after g is the unit:", compose(gi, g) == identity(p ^ w))

# the finite slice at horizon n has 2^n words
print("words at horizon 3:", [u.mask for u in enumerate_gamma(3)])
print("empty word is the unit:", e(1) ^ e(1) == EMPTY_WORD)

# exhaustive associativity / identity / inverse sweep at a small horizon
rep = axioms_report(3)
print("axioms at horizon 3:", rep["checks"], "checks,",
      rep["violations"], "violations,",
      round(rep["elapsed_seconds"], 4), "s")

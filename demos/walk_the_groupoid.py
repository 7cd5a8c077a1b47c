"""
Walking the flip groupoid
=========================

A transition is a pair (x, w) of integer masks: a point x, an infinite bit
string seen through a depth-D window, and a word w, the finite set of sites
to flip.  Composition chains two transitions when the middle points line up.
The package runs exactly this law on masks, for ints and arrays alike.
"""

from flipchain import axioms_report, e, word_from_sites, word_sites
from flipchain.groupoid import composable, compose_masks, inverse_masks, source, target

# a word is just a bitmask over sites 1, 2, 3, ...: site k is bit k-1
w = word_from_sites([1, 3])
print("word mask", bin(w), "sites", word_sites(w), "horizon", w.bit_length())

# points are depth-D windows, masks too; site k reads bit k-1
x = 0b0101
print("point bits", [x >> (k - 1) & 1 for k in (1, 2, 3, 4)])

# acting by w flips the named sites
print("x ^ w =", [(x ^ w) >> (k - 1) & 1 for k in (1, 2, 3, 4)])

g = (x, w)
print("source", source(*g), "-> target", target(*g))

# compose: h acts after g, so h must start where g lands
h = (x ^ e(2), e(2))
print("h after g is defined:", composable(*h, target(*g)))
hg = compose_masks(*h, g[1])
print("composed word", word_sites(hg[1]))

# inverses swap the endpoints; the word is its own inverse under xor
gi = inverse_masks(*g)
print("inverse source", source(*gi))
print("g^-1 after g is the unit:",
      composable(*gi, target(*g)) and compose_masks(*gi, g[1]) == (source(*g), 0))

# the finite slice at horizon n has 2^n words
print("words at horizon 3:", list(range(1 << 3)))
print("the empty word 0 is the unit:", e(1) ^ e(1) == 0)

# exhaustive associativity / identity / inverse sweep at a small horizon
rep = axioms_report(3)
print("axioms at horizon 3:", rep["checks"], "checks,",
      rep["violations"], "violations,",
      round(rep["elapsed_seconds"], 4), "s")

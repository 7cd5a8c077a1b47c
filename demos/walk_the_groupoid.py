"""
Walking the flip groupoid
=========================

A transition is a pair (x, w) of integer masks: a point x, an infinite bit
string seen through a depth-D window, and a word w, the finite set of sites
to flip.  Composition chains two transitions when the middle points line up.
The package runs exactly this law on masks, for ints and arrays alike.
"""

from flipchain import EMPTY_WORD, FlipWord, axioms_report, e, enumerate_gamma
from flipchain.groupoid import composable, compose_masks, inverse_masks, source, target

# a word is just a bitmask over sites 1, 2, 3, ...
w = FlipWord.from_sites([1, 3])
print("word", w, "mask", bin(w.mask), "sites", w.sites, "horizon", w.horizon)

# points are depth-D windows, masks too; site k reads bit k-1
x = 0b0101
print("point bits", [x >> (k - 1) & 1 for k in (1, 2, 3, 4)])

# acting by w flips the named sites
print("x ^ w =", [(x ^ w.mask) >> (k - 1) & 1 for k in (1, 2, 3, 4)])

g = (x, w.mask)
print("source", source(*g), "-> target", target(*g))

# compose: h acts after g, so h must start where g lands
h = (x ^ e(2).mask, e(2).mask)
print("h after g is defined:", composable(*h, target(*g)))
hg = compose_masks(*h, g[1])
print("composed word", FlipWord(hg[1]).sites)

# inverses swap the endpoints; the word is its own inverse under xor
gi = inverse_masks(*g)
print("inverse source", source(*gi))
print("g^-1 after g is the unit:",
      composable(*gi, target(*g)) and compose_masks(*gi, g[1]) == (source(*g), 0))

# the finite slice at horizon n has 2^n words
print("words at horizon 3:", [u.mask for u in enumerate_gamma(3)])
print("empty word is the unit:", e(1) ^ e(1) == EMPTY_WORD)

# exhaustive associativity / identity / inverse sweep at a small horizon
rep = axioms_report(3)
print("axioms at horizon 3:", rep["checks"], "checks,",
      rep["violations"], "violations,",
      round(rep["elapsed_seconds"], 4), "s")

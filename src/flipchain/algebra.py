"""The convolution algebra of the bit-flip groupoid.

An algebra element is a finitely-supported map from flip words to cylinder
functions; the pair (word, function-of-the-target-point) is the computational
form of a kernel F(x, w) on the groupoid.  Convolution is

    (F * G)(x, w) = sum_y F(x, y) G(x ^ y, w ^ y)

and the involution twists by the modular function of the chosen measure:

    F+(x, w) = delta((x, w))**-1 * conj(F(x ^ w, w)).

The modular conjugation J, the powers of the modular operator, and the
canonical weight (the vector state of the unit) are all pointwise in this
representation, which is what makes every identity checkable by table
comparison.

Binary operations lift both operands to a common depth first; padding
invariance of cylinder tables guarantees this changes nothing.  All values
are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .groupoid import EMPTY_WORD, FlipWord, check_depth
from .measures import (
    CylinderFunction,
    MeasureSpec,
    _index,
    _max_abs,
    _worse,
    integrate,
)


class AlgebraElement:
    """Finitely-supported map from flip words to cylinder functions.

    All stored tables share one depth, at least the largest word horizon;
    identically-zero tables are dropped (canonical form).
    """

    __slots__ = ("depth", "terms")

    def __init__(self, terms: dict, depth: int | None = None):
        d = depth or 0
        for w, f in terms.items():
            d = max(d, w.horizon, f.depth)
        check_depth(d)
        kept = {}
        for w, f in terms.items():
            g = f.lift(d)
            if g.values.any():
                kept[w] = g
        self.depth = d
        self.terms = kept

    @property
    def support(self) -> list[FlipWord]:
        return sorted(self.terms)

    def term(self, w: FlipWord) -> CylinderFunction:
        """The cylinder function at a word; zeros when the word is absent."""
        if w in self.terms:
            return self.terms[w]
        return CylinderFunction.zero(self.depth)

    def lift(self, depth: int) -> "AlgebraElement":
        if depth <= self.depth:
            return self
        return AlgebraElement(
            {w: f.lift(depth) for w, f in self.terms.items()}, depth
        )

    def _merge(self, other, sign):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        d = max(self.depth, other.depth)
        out = {w: f.lift(d) for w, f in self.terms.items()}
        for w, f in other.terms.items():
            out[w] = out[w] + sign * f if w in out else sign * f
        return AlgebraElement(out, d)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __mul__(self, scalar):
        return AlgebraElement(
            {w: scalar * f for w, f in self.terms.items()}, self.depth
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __repr__(self):
        words = ", ".join(repr(w) for w in self.support)
        return f"AlgebraElement(depth={self.depth}, support=[{words}])"


def unit(depth: int = 0) -> AlgebraElement:
    """The convolution unit: value 1 on the empty word."""
    return AlgebraElement({EMPTY_WORD: CylinderFunction.constant(1.0, depth)})


def max_abs_diff(F: AlgebraElement, G: AlgebraElement) -> float:
    """Largest pointwise deviation |F - G| over all words and prefixes; NaN if any is."""
    d = max(F.depth, G.depth)
    F, G = F.lift(d), G.lift(d)
    out = 0.0
    for w in sorted(set(F.terms) | set(G.terms)):
        out = _worse(out, _max_abs(F.term(w).values - G.term(w).values))
    return out


def convolve(F: AlgebraElement, G: AlgebraElement) -> AlgebraElement:
    """Groupoid convolution of two elements.

    The support of the result is contained in the pairwise XOR of the operand
    supports.  Accumulation order is fixed (ascending word masks) so results
    are bit-for-bit reproducible.
    """
    d = max(F.depth, G.depth)
    F, G = F.lift(d), G.lift(d)
    idx = _index(d)
    acc: dict[FlipWord, np.ndarray] = {}
    for wf in sorted(F.terms):
        tf = F.terms[wf].values
        for wg in sorted(G.terms):
            contrib = tf * G.terms[wg].values[idx ^ wf.mask]
            w = wf ^ wg
            acc[w] = acc[w] + contrib if w in acc else contrib
    return AlgebraElement(
        {w: CylinderFunction(d, v) for w, v in acc.items()}, d
    )


def _delta_depth(F: AlgebraElement, spec: MeasureSpec) -> int:
    d = F.depth
    for w in F.terms:
        d = max(d, spec.min_delta_depth(w))
    return d


def involution(F: AlgebraElement, spec: MeasureSpec) -> AlgebraElement:
    """The adjoint F+(x, w) = delta((x, w))**-1 conj(F(x ^ w, w))."""
    d = _delta_depth(F, spec)
    F = F.lift(d)
    idx = _index(d)
    out = {}
    for w, f in F.terms.items():
        dinv = spec.delta_inv_table(w, d)
        out[w] = CylinderFunction(d, dinv * np.conjugate(f.values[idx ^ w.mask]))
    return AlgebraElement(out, d)


def modular_conjugation(F: AlgebraElement, spec: MeasureSpec) -> AlgebraElement:
    """Antilinear J: (JF)(x, w) = delta((x, w))**-1/2 conj(F(x ^ w, w)).

    J is an involution, and composing it with the square root of the modular
    operator reproduces the adjoint (the polar decomposition of +).
    """
    d = _delta_depth(F, spec)
    F = F.lift(d)
    idx = _index(d)
    out = {}
    for w, f in F.terms.items():
        droot = spec.delta_inv_table(w, d) ** 0.5
        if droot.dtype == object:
            droot = droot.astype(np.float64)
        out[w] = CylinderFunction(d, droot * np.conjugate(f.values[idx ^ w.mask]))
    return AlgebraElement(out, d)


def modular_operator_pow(F: AlgebraElement, t, spec: MeasureSpec) -> AlgebraElement:
    """Pointwise power of the modular operator: F -> delta**t * F.

    Real t gives the scaled element; purely imaginary t = i s is the modular
    flow, a pointwise phase.  Exact measures with integer t stay exact.
    """
    d = _delta_depth(F, spec)
    F = F.lift(d)
    out = {}
    for w, f in F.terms.items():
        delta = spec.delta_table(w, d)
        if delta.dtype == object:
            power = delta ** t if isinstance(t, int) else delta.astype(float) ** t
        elif isinstance(t, complex):
            power = np.exp(t * np.log(delta))
        else:
            power = delta ** t
        out[w] = CylinderFunction(d, power * f.values)
    return AlgebraElement(out, d)


def inner_product(F: AlgebraElement, G: AlgebraElement, spec: MeasureSpec):
    """<F, G> = sum_w integral of conj(F_w) G_w, conjugate-linear in F."""
    d = max(F.depth, G.depth)
    F, G = F.lift(d), G.lift(d)
    total = 0
    for w in sorted(set(F.terms) | set(G.terms)):
        if w in F.terms and w in G.terms:
            total += integrate(spec, F.terms[w].conj() * G.terms[w])
    return total


def l2_norm(F: AlgebraElement, spec: MeasureSpec) -> float:
    """Hilbert-space norm: sqrt(sum_w integral |F_w|**2)."""
    sq = inner_product(F, F, spec)
    if isinstance(sq, complex):
        sq = sq.real
    return math.sqrt(float(sq))


def hahn_norm(F: AlgebraElement, spec: MeasureSpec) -> float:
    """Max of the target-fibre and source-fibre L1 sums.

    Branch (a) is sup_x sum_w |F(x, w)|; branch (b) weights the inverse
    element by delta**-1: sup_x sum_w delta((x, w))**-1 |F(x ^ w, w)|.
    """
    d = _delta_depth(F, spec)
    F = F.lift(d)
    idx = _index(d)
    size = 1 << d
    branch_t = np.zeros(size)
    branch_s = np.zeros(size)
    for w in sorted(F.terms):
        vals = F.terms[w].values
        absv = np.abs(vals)
        if absv.dtype == object:
            absv = absv.astype(np.float64)
        branch_t = branch_t + absv
        dinv = spec.delta_inv_table(w, d)
        if dinv.dtype == object:
            dinv = dinv.astype(np.float64)
        branch_s = branch_s + dinv * absv[idx ^ w.mask]
    if not F.terms:
        return 0.0
    return float(np.maximum(branch_t.max(), branch_s.max()))


def pukanszky_V(w: FlipWord, spec: MeasureSpec) -> AlgebraElement:
    """The measure-weighted flip unitary: value delta((x, w))**-1/2 at word w.

    Self-adjoint and unitary: V+ = V and V * V = unit.  The square root is
    irrational in general, so the table is floating point even for exact
    measures.
    """
    d = max(spec.min_delta_depth(w), w.horizon)
    droot = spec.delta_inv_table(w, d) ** 0.5
    if droot.dtype == object:
        droot = droot.astype(np.float64)
    return AlgebraElement({w: CylinderFunction(d, droot)})


def pukanszky_L(phi: CylinderFunction) -> AlgebraElement:
    """The multiplication operator: phi on the empty word.

    Applying it multiplies any vector pointwise in the target variable, and
    L_phi * L_chi = L_{phi chi} (an abelian subalgebra).
    """
    return AlgebraElement({EMPTY_WORD: phi})


def canonical_weight(F: AlgebraElement, spec: MeasureSpec):
    """The weight tau(F) = integral of F(., empty word).

    Equals the vector state <unit, F * unit> of the cyclic vector; it is a
    trace exactly when the measure is flip-invariant (Bernoulli lambda = 1/2).
    """
    if EMPTY_WORD not in F.terms:
        return 0 if spec.exact else 0.0
    return integrate(spec, F.terms[EMPTY_WORD])

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

In memory an element is a ragged batch of independent trials: rows of
(trial, word mask, table), sorted by (trial, word), every table at the one
depth of the batch.  A lone element (built from a dict, as most callers do)
is a batch of one trial whose scalar results come back as scalars; a batch
stacked with ``AlgebraElement.batch`` gets a list with one result per trial.
Every kernel combines rows of the same trial only, with the operations, and
in the order, of the one-trial definition, so a trial gives the same bits
alone or in any batch.

Binary operations lift both operands to a common depth first; padding
invariance of cylinder tables guarantees this changes nothing.  All values
are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from numbers import Integral
from types import MappingProxyType

import numpy as np

from .groupoid import DEPTH_CAP, check_depth
from .measures import CylinderFunction, MeasureSpec, _index, _integrate_rows, _max_abs_rows

# Convolutions whose operands hold at most this many rows between them (the
# product of the row counts) loop over the row pairs; larger ones gather all
# pairs of a rank at once.  The loop wins for the one- to few-word lone
# elements of the matrix bridge and the phase flow, the gather for batches.
LOOP_PAIRS = 32

# Row keys are trial << DEPTH_CAP | word mask: no word reaches past the cap.
_WORD_BITS = (1 << DEPTH_CAP) - 1

_NO_ROWS = np.zeros(0, dtype=np.int64)
_NO_ROWS.flags.writeable = False


class AlgebraElement:
    """Rows (trial, word, table) of one or more trials, sorted by (trial, word).

    All tables share one depth, at least the largest word horizon;
    identically-zero tables are dropped (canonical form).  ``trials`` is the
    batch size, or None for a lone element.
    """

    __slots__ = ("depth", "trials", "trial", "word", "values", "_terms")

    def __init__(self, terms: dict, depth: int | None = None):
        d = depth or 0
        for w, f in terms.items():
            d = max(d, w.bit_length(), f.depth)
        check_depth(d)
        rows = {(0, w): f.lift(d).values for w, f in terms.items()}
        self._set(d, None, *_sorted_rows(rows, d))

    def _set(self, depth, trials, values, trial, word, nonzero=False) -> "AlgebraElement":
        """Store sorted rows, dropping the all-zero tables unless they are
        known to be nonzero; NaN counts as nonzero.  Returns self."""
        # most tables have no zero entry at all, which is the cheaper test
        if not nonzero and np.count_nonzero(values) < values.size:
            keep = values.any(axis=1)
            trial, word, values = trial[keep], word[keep], values[keep]
        self.depth = depth
        self.trials = trials
        self.trial = trial
        self.word = word
        self.values = values
        self._terms = None
        return self

    @classmethod
    def of_rows(cls, depth, trials, values, trial, word, nonzero=False) -> "AlgebraElement":
        """The element of rows already sorted by (trial, word), at one depth
        at least their largest word horizon; trials=None for a lone element."""
        return object.__new__(cls)._set(depth, trials, values, trial, word, nonzero)

    def _with(self, depth, values, trial=None, word=None, nonzero=False):
        """An element of this one's batch size: the same rows, or the given
        sorted ones, holding new tables."""
        return self.of_rows(depth, self.trials, values, self.trial if trial is None else trial,
                            self.word if word is None else word, nonzero)

    @classmethod
    def batch(cls, elements) -> "AlgebraElement":
        """The batch whose trial i is the lone element elements[i]."""
        d = max(F.depth for F in elements)
        lifted = [F.lift(d) for F in elements]
        return cls.of_rows(
            d, len(lifted),
            np.concatenate([F.values for F in lifted]),
            np.repeat(np.arange(len(lifted)), [len(F.word) for F in lifted]),
            np.concatenate([F.word for F in lifted]),
            nonzero=True,
        )

    @property
    def _count(self) -> int:
        return self.trials or 1

    def _per_trial(self, results: list):
        """One result per trial for a batch; the only one for a lone element."""
        return results if self.trials is not None else results[0]

    def _keys(self) -> list:
        """(trial, word mask) of every row, in row order."""
        return list(zip(self.trial.tolist(), self.word.tolist()))

    @property
    def terms(self) -> MappingProxyType:
        """Read-only view of the rows: word mask -> table for a lone element,
        (trial, word mask) -> table for a batch."""
        if self._terms is None:
            keys = self.word.tolist() if self.trials is None else self._keys()
            self._terms = MappingProxyType({
                key: CylinderFunction(self.depth, row)
                for key, row in zip(keys, self.values)
            })
        return self._terms

    @property
    def support(self) -> list:
        return list(self.terms)

    def lift(self, depth: int) -> "AlgebraElement":
        if depth <= self.depth:
            return self
        check_depth(depth)
        return self._with(depth, np.tile(self.values, (1, 1 << (depth - self.depth))),
                          nonzero=True)

    def _merge(self, other, sign):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _same_batch(self, other)
        d = max(self.depth, other.depth)
        F, G = self.lift(d), other.lift(d)
        rows = dict(zip(F._keys(), F.values))
        for key, g in zip(G._keys(), sign * G.values):
            rows[key] = rows[key] + g if key in rows else g
        return self._with(d, *_sorted_rows(rows, d))

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __mul__(self, scalar):
        return self._with(self.depth, scalar * self.values)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __repr__(self):
        if self.trials is not None:
            return (f"AlgebraElement(depth={self.depth}, trials={self.trials}, "
                    f"rows={len(self.word)})")
        words = ", ".join(repr(w) for w in self.support)
        return f"AlgebraElement(depth={self.depth}, support=[{words}])"


def _same_batch(F: AlgebraElement, G: AlgebraElement) -> None:
    if F.trials != G.trials:
        raise ValueError(f"operands hold {F.trials} and {G.trials} trials")


def _sorted_rows(rows: dict, depth: int):
    """(tables, trials, words) of a {(trial, word): table} dict, in key order."""
    keys = sorted(rows)
    return (np.array([rows[k] for k in keys]).reshape(len(keys), 1 << depth),
            np.array([t for t, _ in keys], dtype=np.int64),
            np.array([w for _, w in keys], dtype=np.int64))


def _match(F: AlgebraElement, G: AlgebraElement):
    """Row indices of the keys both hold (in F's and in G's rows, in key
    order), then of the keys only F holds and only G holds."""
    only_g = {key: j for j, key in enumerate(G._keys())}
    both_f, both_g, only_f = [], [], []
    for i, key in enumerate(F._keys()):
        j = only_g.pop(key, None)
        if j is None:
            only_f.append(i)
        else:
            both_f.append(i)
            both_g.append(j)
    return both_f, both_g, only_f, list(only_g.values())


def _take(F: AlgebraElement, rows: list) -> np.ndarray:
    """The tables of the ascending row indices rows; a view when they are all of F's."""
    return F.values if len(rows) == len(F.word) else F.values[rows]


def _flipped(F: AlgebraElement) -> np.ndarray:
    """F's tables, row r read at x ^ (word of row r): F(x ^ w, w)."""
    size = 1 << F.depth
    flat = (np.arange(len(F.word)) * size)[:, None] + (_index(F.depth) ^ F.word[:, None])
    return F.values.ravel().take(flat)


def _per_word(F: AlgebraElement, spec: MeasureSpec, table):
    """F lifted to the depth d that spec's modular function needs on its
    words, and the tables table(word, d) of its rows, one build per word."""
    rows = F.word.tolist()
    words = dict.fromkeys(rows)
    d = max([F.depth] + [spec.min_delta_depth(w) for w in words])
    F = F.lift(d)
    built = {w: table(w, d) for w in words}
    return F, np.array([built[w] for w in rows]).reshape(len(rows), 1 << d)


def unit(depth: int = 0) -> AlgebraElement:
    """The convolution unit: value 1 on the empty word."""
    check_depth(depth)
    return AlgebraElement.of_rows(depth, None, np.ones((1, 1 << depth)),
                                  np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
                                  nonzero=True)


def max_abs_diff(F: AlgebraElement, G: AlgebraElement):
    """Largest pointwise deviation |F - G| over all words and prefixes; NaN if any is."""
    _same_batch(F, G)
    d = max(F.depth, G.depth)
    F, G = F.lift(d), G.lift(d)
    both_f, both_g, only_f, only_g = _match(F, G)
    worst = np.zeros(F._count)
    with np.errstate(invalid="ignore"):  # NaN is a result, not an error
        # |x - 0| = |x|: a word in one operand only deviates by its own table
        for trial, rows in ((F.trial[both_f], _take(F, both_f) - _take(G, both_g)),
                            (F.trial[only_f], _take(F, only_f)),
                            (G.trial[only_g], _take(G, only_g))):
            np.maximum.at(worst, trial, _max_abs_rows(rows))
    return F._per_trial(worst.tolist())


def _pairs(F: AlgebraElement, G: AlgebraElement):
    """Row indices (i, j) of every F row and G row of one trial, ordered by
    trial, then F word, then G word."""
    starts = np.searchsorted(G.trial, np.arange(G._count + 1))
    counts = np.diff(starts)[F.trial]
    first = np.repeat(np.cumsum(counts) - counts, counts)
    i = np.repeat(np.arange(len(F.word)), counts)
    j = np.arange(len(i)) - first + np.repeat(starts[F.trial], counts)
    return i, j


def convolve(F: AlgebraElement, G: AlgebraElement) -> AlgebraElement:
    """Groupoid convolution of two elements, trial by trial.

    The support of the result is contained in the pairwise XOR of the operand
    supports.  Each output table is the product of its pair with the least F
    word, plus the further products in ascending F-word order, so results
    are bit-for-bit reproducible.
    """
    _same_batch(F, G)
    d = max(F.depth, G.depth)
    F, G = F.lift(d), G.lift(d)
    if len(F.word) * len(G.word) <= LOOP_PAIRS:
        return _convolve_pairs(F, G, d)
    i, j = _pairs(F, G)
    if not len(i):  # no trial has rows in both
        return F._with(d, np.zeros((0, 1 << d)), _NO_ROWS, _NO_ROWS)
    key = F.trial[i] << DEPTH_CAP | (F.word[i] ^ G.word[j])
    order = np.argsort(key, kind="stable")  # keeps ascending F words per output
    i, j, key = i[order], j[order], key[order]
    starts = np.empty(len(key), dtype=bool)
    starts[0] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    head = np.flatnonzero(starts)
    group = np.cumsum(starts) - 1
    rank = np.arange(len(key)) - head[group]
    # rank by rank: the product of every output's rank-r pair
    size, idx, flat_g = 1 << d, _index(d), G.values.ravel()
    for r in range(int(rank.max()) + 1):
        at = np.flatnonzero(rank == r)
        fi, gj = i[at], j[at]
        product = F.values[fi] * flat_g.take((gj * size)[:, None] + (idx ^ F.word[fi][:, None]))
        if r == 0:  # the heads, which are the outputs in order
            out = product
        else:
            out[group[at]] += product
    key = key[head]
    return F._with(d, out, key >> DEPTH_CAP, key & _WORD_BITS)


def _convolve_pairs(F: AlgebraElement, G: AlgebraElement, d: int) -> AlgebraElement:
    """convolve for few rows: one loop over the row pairs of each trial."""
    idx = _index(d)
    acc = {}
    g_rows = list(zip(G._keys(), G.values))
    for (t, wf), tf in zip(F._keys(), F.values):
        for (s, wg), tg in g_rows:
            if s == t:
                contrib = tf * tg[idx ^ wf]
                key = (t, wf ^ wg)
                if key in acc:
                    acc[key] += contrib
                else:
                    acc[key] = contrib
    return F._with(d, *_sorted_rows(acc, d))


def _as_float(table: np.ndarray) -> np.ndarray:
    return table.astype(np.float64) if table.dtype == object else table


def _inverse_root(spec: MeasureSpec):
    """The builder of delta**-1/2 tables, in floating point even for exact measures."""
    return lambda w, d: _as_float(spec.delta_inv_table(w, d) ** 0.5)


def involution(F: AlgebraElement, spec: MeasureSpec) -> AlgebraElement:
    """The adjoint F+(x, w) = delta((x, w))**-1 conj(F(x ^ w, w))."""
    F, dinv = _per_word(F, spec, spec.delta_inv_table)
    return F._with(F.depth, dinv * np.conjugate(_flipped(F)))


def modular_conjugation(F: AlgebraElement, spec: MeasureSpec) -> AlgebraElement:
    """Antilinear J: (JF)(x, w) = delta((x, w))**-1/2 conj(F(x ^ w, w)).

    J is an involution, and composing it with the square root of the modular
    operator reproduces the adjoint (the polar decomposition of +).
    """
    F, droot = _per_word(F, spec, _inverse_root(spec))
    return F._with(F.depth, droot * np.conjugate(_flipped(F)))


def modular_operator_pow(F: AlgebraElement, t, spec: MeasureSpec) -> AlgebraElement:
    """Pointwise power of the modular operator: F -> delta**t * F.

    Real t gives the scaled element; purely imaginary t = i s is the modular
    flow, a pointwise phase.  Exact measures with integer t stay exact.
    """
    def power(w, d):
        delta = spec.delta_table(w, d)
        if delta.dtype == object:
            return delta ** t if isinstance(t, int) else delta.astype(float) ** t
        if isinstance(t, complex):
            return np.exp(t * np.log(delta))
        return delta ** t

    F, powers = _per_word(F, spec, power)
    return F._with(F.depth, powers * F.values)


def _trial_totals(F: AlgebraElement, trial: list, values, zero=0) -> list:
    """Per-trial sums of row values (numbers or tables), added in row order onto zero."""
    totals = [zero] * F._count
    for t, value in zip(trial, values):
        totals[t] = totals[t] + value  # not +=: every trial shares the zero
    return totals


def inner_product(F: AlgebraElement, G: AlgebraElement, spec: MeasureSpec):
    """<F, G> = sum_w integral of conj(F_w) G_w, conjugate-linear in F."""
    _same_batch(F, G)
    d = max(F.depth, G.depth)
    F, G = F.lift(d), G.lift(d)
    both_f, both_g, _, _ = _match(F, G)
    integrals = _integrate_rows(spec, d, np.conjugate(_take(F, both_f)) * _take(G, both_g))
    return F._per_trial(_trial_totals(F, F.trial[both_f].tolist(), integrals))


def l2_norm(F: AlgebraElement, spec: MeasureSpec):
    """Hilbert-space norm: sqrt(sum_w integral |F_w|**2)."""
    squares = _integrate_rows(spec, F.depth, (np.conjugate(F.values) * F.values).real)
    return F._per_trial([
        math.sqrt(float(sq.real if isinstance(sq, complex) else sq))
        for sq in _trial_totals(F, F.trial.tolist(), squares)
    ])


def hahn_norm(F: AlgebraElement, spec: MeasureSpec):
    """Max of the target-fibre and source-fibre L1 sums.

    Branch (a) is sup_x sum_w |F(x, w)|; branch (b) weights the inverse
    element by delta**-1: sup_x sum_w delta((x, w))**-1 |F(x ^ w, w)|.
    """
    F, dinv = _per_word(F, spec, lambda w, d: _as_float(spec.delta_inv_table(w, d)))
    trial, zero = F.trial.tolist(), np.zeros(1 << F.depth)
    branch_t = _trial_totals(F, trial, _as_float(np.abs(F.values)), zero)
    branch_s = _trial_totals(F, trial, dinv * _as_float(np.abs(_flipped(F))), zero)
    # a trial without rows sums to zeros, whose max is the 0.0 it is owed
    return F._per_trial(np.maximum(np.max(branch_t, axis=1),
                                   np.max(branch_s, axis=1)).tolist())


def pukanszky_V(w, spec: MeasureSpec) -> AlgebraElement:
    """The measure-weighted flip unitary: value delta((x, w))**-1/2 at word w.

    Self-adjoint and unitary: V+ = V and V * V = unit.  The square root is
    irrational in general, so the table is floating point even for exact
    measures.  A sequence of word masks gives the batch with one unitary per
    trial.
    """
    lone = isinstance(w, Integral)
    words = [w] if lone else list(w)
    # the bare flips, one row per trial, at depth 0 until _per_word lifts them
    flips = AlgebraElement.of_rows(
        0, None if lone else len(words), np.ones((len(words), 1)),
        np.arange(len(words)), np.array(words, dtype=np.int64),
        nonzero=True)
    flips, roots = _per_word(flips, spec, _inverse_root(spec))
    return flips._with(flips.depth, roots)


def pukanszky_L(phi: CylinderFunction) -> AlgebraElement:
    """The multiplication operator: phi on the empty word.

    Applying it multiplies any vector pointwise in the target variable, and
    L_phi * L_chi = L_{phi chi} (an abelian subalgebra).
    """
    return AlgebraElement({0: phi})


def canonical_weight(F: AlgebraElement, spec: MeasureSpec):
    """The weight tau(F) = integral of F(., empty word).

    Equals the vector state <unit, F * unit> of the cyclic vector; it is a
    trace exactly when the measure is flip-invariant (Bernoulli lambda = 1/2).
    """
    weights = [0 if spec.exact else 0.0] * F._count
    rows = [i for i, w in enumerate(F.word.tolist()) if w == 0]
    if rows:  # without an empty-word row no weight table is read
        for t, weight in zip(F.trial[rows].tolist(),
                             _integrate_rows(spec, F.depth, F.values[rows])):
            weights[t] = weight
    return F._per_trial(weights)

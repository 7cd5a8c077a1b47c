"""Additive transition functionals and their cohomology.

A DFS table holds a real function S(x, w) of a prefix and a flip word with
the defining properties

    S(x, {}) = 0,
    S(x ^ w, w) = -S(x, w),
    S(x, u ^ v) = S(x ^ v, u) + S(x, v)          (both chainings),

i.e. an additive cocycle for the flip-group action on prefixes.  The module
builds such tables inductively from freely chosen seed functions (one new
seed per site), verifies the identities exhaustively, and exposes the
cochain complex view: 0-cochains are cylinder functions, the differential of
order zero is the coboundary H(x ^ w) - H(x), and DFS tables are exactly the
1-cocycles.

One class, `Cochain`, holds a cochain of every order as one read-only
array of one dtype; a DFS table is the order-1 `Cochain`, row m the table
of the word with mask m, and `DfsTable` only adds its two constructors.
Every check is a row expression.  Tables with integer or Fraction entries
are checked in exact arithmetic; the reports carry an exact_zero flag
alongside the float violation.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DepthTooSmall, InvalidSpec, InvariantViolation, OrderUnsupported
from .groupoid import check_depth, word_from_sites, word_sites
from .measures import CylinderFunction, _max_abs, _read_only, _worse


class Cochain:
    """Order-k cochain: a table over k word arguments of cylinder functions.

    Stored dense and read-only: shape (2**n,) * order + (2**depth,), the final
    axis being the prefix.  Order zero is a single cylinder function; order
    one is a table of S, row m the table of the word with mask m.
    """

    __slots__ = ("order", "n", "depth", "values")

    def __init__(self, order: int, n: int, depth: int, values):
        values = np.asarray(values)
        expected = (1 << n,) * order + (1 << depth,)
        if values.shape != expected:
            raise InvariantViolation(
                f"order-{order} cochain needs shape {expected}, got {values.shape}"
            )
        if depth < n:
            raise DepthTooSmall(f"horizon {n} needs depth >= {n}, got {depth}")
        check_depth(depth)
        self.order, self.n, self.depth = order, n, depth
        self.values = _read_only(values.view())

    @property
    def exact(self) -> bool:
        dtype = self.values.dtype
        return dtype == object or np.issubdtype(dtype, np.integer)

    @property
    def entries(self) -> dict:
        """Order 1: the rows as a word mask -> CylinderFunction map (views, not copies)."""
        return {w: CylinderFunction(self.depth, row) for w, row in enumerate(self.values)}

    def max_abs(self) -> float:
        return _max_abs(self.values)

    def lift(self, depth: int) -> "Cochain":
        """The same cochain read at a greater depth: every table tiled."""
        if depth == self.depth:
            return self
        if depth < self.depth:
            raise DepthTooSmall(f"cannot lower depth {self.depth} to {depth}")
        check_depth(depth)
        reps = (1,) * self.order + (1 << (depth - self.depth),)
        return Cochain(self.order, self.n, depth, np.tile(self.values, reps))

    def _combine(self, other: "Cochain", op) -> "Cochain":
        if (self.order, self.n) != (other.order, other.n):
            raise InvariantViolation("cochain order or horizon mismatch")
        d = max(self.depth, other.depth)
        return Cochain(self.order, self.n, d, op(self.lift(d).values, other.lift(d).values))

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._combine(other, np.add)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._combine(other, np.subtract)

    def __repr__(self):
        return f"Cochain(order={self.order}, n={self.n}, depth={self.depth})"


class DfsTable(Cochain):
    """The order-1 cochain of S from its word tables; missing words get zero rows."""

    def __init__(self, n: int, entries: dict, depth: int | None = None):
        d = depth if depth is not None else n
        for w, f in entries.items():
            if w >> n:
                raise InvariantViolation(f"word {word_sites(w)} exceeds horizon {n}")
            d = max(d, f.depth)
        check_depth(d)  # before the rows are allocated
        # object if any one table holds objects
        dtype = np.result_type(*[f.values.dtype for f in entries.values()] or [np.float64])
        rows = np.zeros((1 << n, 1 << d), dtype=dtype)
        for w, f in entries.items():
            rows[w] = f.lift(d).values
        super().__init__(1, n, d, rows)

    @classmethod
    def of_rows(cls, values: np.ndarray) -> "DfsTable":
        """Wrap a (2**n, 2**depth) row array without copying it."""
        n, d = (s.bit_length() - 1 for s in values.shape)
        S = cls.__new__(cls)
        Cochain.__init__(S, 1, n, d, values)
        return S


def dfs_check(S: Cochain, tol: float = 1e-12) -> dict:
    """Exhaustive verification of all three defining identities.

    Returns the worst absolute violation over every (word pair, prefix)
    triple, the number of scalar checks, and whether exact arithmetic gave
    an identically zero violation.  The chain identity runs over blocks of v
    rows (each gathered once, sized to keep temporaries near 2**15 entries),
    faster than both one pair at a time and whole-table temporaries.

    One chaining suffices: the second, S(x, u ^ v) - (S(x, u) + S(x ^ u, v))
    at (u, v), is the first at (v, u) with its two addends swapped, and
    addition commutes exactly (NaN included), so both have the same worst.
    `checks` counts identity instances, both chainings included, since every
    instance is decided.
    """
    n, d, V = S.n, S.depth, S.values
    idx = np.arange(1 << d)
    words = np.arange(1 << n)
    worst = _worse(_max_abs(V[0]), _max_abs(V[words[:, None], idx ^ words[:, None]] + V))

    step = max(1, (1 << 15) >> d)
    for start in range(0, 1 << n, step):
        mv = words[start:start + step]
        Tv, shifted = V[mv], idx ^ mv[:, None]
        for mu in words:
            worst = _worse(worst, _max_abs(V[mu ^ mv] - (V[mu][shifted] + Tv)))

    return {
        "n": n,
        "depth": d,
        # the zero word, antisymmetry per word, two chainings per word pair
        "checks": (1 + (1 << n) + (2 << 2 * n)) << d,
        "max_violation": worst,
        "exact_zero": bool(S.exact and worst == 0),
        "passed": bool(worst <= tol),
    }


def dfs_seed_extend(S: Cochain, seed: CylinderFunction) -> DfsTable:
    """Extend a horizon-n table to horizon n+1 from a seed on the new site.

    The seed is read only where bits 1..n+1 vanish; step (1) copies it to
    the new single-flip word, step (2) extends by odd reflection in the new
    bit, and step (3) fills every remaining word w ^ e_{n+1} through

        S(z, w ^ e_{n+1}) = S(zbar ^ e_{n+1}, z0 ^ w) - S(zbar, z0)
                            + S(zbar, e_{n+1}),

    where z = zbar ^ z0 splits a prefix at position n.  The input is
    checked exhaustively, as it may come from outside; the output is not.
    """
    report = dfs_check(S)
    if not report["passed"]:
        raise InvariantViolation(
            f"input table violates its identities (max {report['max_violation']:.3e})"
        )
    n = S.n
    bit = 1 << n
    d = max(S.depth, seed.depth, n + 1)
    seedv = seed.lift(d).values
    idx = np.arange(1 << d)

    # S(., e_{n+1}) on prefixes whose bits 1..n vanish; valid only there.
    new_single = np.where(idx & bit, -seedv[idx ^ bit], seedv)

    old = S.lift(d).values
    z0 = idx & (bit - 1)
    zbar = idx ^ z0
    words = np.arange(1 << n)
    new = old[z0 ^ words[:, None], zbar ^ bit] - old[z0, zbar] + new_single[zbar]
    # the rows share one dtype: an int table with float seeds turns float,
    # as int output would truncate
    return DfsTable.of_rows(np.concatenate([old, new]))


def dfs_build(n: int, seeds: list, D: int) -> Cochain:
    """Iterate the seed extension up to horizon n, then lift to depth D."""
    if len(seeds) != n:
        raise InvariantViolation(f"need {n} seeds, got {len(seeds)}")
    if D < n:
        raise DepthTooSmall(f"horizon {n} needs depth >= {n}, got {D}")
    # int64 zeros promote to whatever the seeds carry; float zeros would
    # silently de-rationalize exact seeds
    S = DfsTable.of_rows(np.zeros((1, 1), np.int64))
    for seed in seeds:
        S = dfs_seed_extend(S, seed)
    return S.lift(max(S.depth, D))


def cochain_delta(c: Cochain) -> Cochain:
    """The differential: alternating sum over merged and shifted arguments.

    (delta c)(u_0, .., u_k)[x] = c(u_1, .., u_k)[x ^ u_0]
        + sum_i (-1)**(i+1) c(.., u_i ^ u_{i+1}, ..)[x]
        + (-1)**(k+1) c(u_0, .., u_{k-1})[x].

    Supports orders 0 through 2.  One expression per u_0 covers the rows of
    every (u_1, .., u_k), with the terms added in the order above.
    """
    if c.order > 2:
        raise OrderUnsupported(f"order {c.order} differentials are out of scope")
    k, V = c.order, c.values
    idx = np.arange(1 << c.depth)
    rest = np.ix_(*[np.arange(1 << c.n)] * k)  # (u_1, .., u_k) as open grids
    out = np.zeros((1 << c.n,) * (k + 1) + (1 << c.depth,), dtype=V.dtype)
    for u0, term in enumerate(out):  # summed in place in out[u0]: fewer block temporaries
        u = (u0,) + rest
        term[...] = V[..., idx ^ u0]
        for i in range(1, k + 1):
            term += (-1) ** i * V[u[:i - 1] + (u[i - 1] ^ u[i],) + u[i + 1:]]
        term += (-1) ** (k + 1) * V[u[:k]]
    return Cochain(k + 1, c.n, c.depth, out)


def coboundary(H: Cochain) -> Cochain:
    """delta of an order-0 cochain: (x, w) -> H(x ^ w) - H(x)."""
    if H.order != 0:
        raise OrderUnsupported(f"coboundary takes order 0, got {H.order}")
    return cochain_delta(H)


def dfs_to_cochain(S: DfsTable) -> Cochain:
    """A DFS table already is its order-1 cochain."""
    return S


def is_exact(S: Cochain, tol: float = 1e-12) -> Cochain | None:
    """Solve S = coboundary(H) if possible; None if no cylinder H works.

    H is reconstructed by reading S along zero-tail paths: the low n bits of
    a prefix form a word w, the rest a representative zbar, and
    H(zbar ^ w) := S(zbar, w).  The gauge is H = 0 on every representative
    (in particular on the all-zeros prefix).  The candidate is then verified
    against S; reconstruction failing the check means S is not exact at this
    truncation.
    """
    idx = np.arange(1 << S.depth)
    low = idx & ((1 << S.n) - 1)
    H = Cochain(0, S.n, S.depth, S.values[low, idx ^ low])
    dev = (S - coboundary(H)).max_abs()
    if dev != 0 if S.exact else not dev <= tol:
        return None
    return H


def dfs_to_json(S: DfsTable) -> dict:
    """{"n", "entries"}, one {"flips", "depth", "values"} record per word in
    word order; floats survive the round trip bit-exactly, and an exact
    table stores its values as strings."""
    scalar = str if S.values.dtype == object else float
    return {"n": S.n, "entries": [
        {"flips": word_sites(w), "depth": f.depth,
         "values": [scalar(v) for v in f.values.tolist()]}
        for w, f in S.entries.items()]}


def dfs_from_json(doc: dict) -> DfsTable:
    """Read a dfs_to_json document; InvalidSpec if it is malformed, found
    before any table is allocated."""
    if not (isinstance(doc, dict) and {"n", "entries"} <= doc.keys()):
        raise InvalidSpec("a DFS table document needs 'n' and a list of 'entries'")
    n, records = doc["n"], doc["entries"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InvalidSpec(f"table horizon must be a nonnegative integer, got {n!r}")
    check_depth(n)
    if not isinstance(records, list):
        raise InvalidSpec(f"table records must form a list, got {records!r}")
    entries, table_depth = {}, 0
    for i, rec in enumerate(records):
        if not (isinstance(rec, dict) and {"flips", "depth", "values"} <= rec.keys()):
            raise InvalidSpec(f"table entry {i} needs 'flips', 'depth' and 'values'")
        depth = rec["depth"]
        if isinstance(depth, bool) or not isinstance(depth, int):
            raise InvalidSpec(f"table entry {i}: depth must be an integer, got {depth!r}")
        try:
            sites = list(rec["flips"])
            # refused before word_from_sites forms the bit 1 << (site - 1)
            if any(isinstance(s, int) and s > n for s in sites):
                raise InvalidSpec(f"table entry {i}: a site of {sites!r} exceeds horizon {n}")
            w = word_from_sites(sites)
            # a repeat would replace the record before it unchecked
            if w in entries:
                raise InvalidSpec(f"table entry {i}: repeated word {sites!r}")
            raw = rec["values"]
            if raw and isinstance(raw[0], str):
                values = np.array([Fraction(v) for v in raw], dtype=object)
            else:
                values = np.array([float(v) for v in raw])
            # CylinderFunction rejects a value count other than 2**depth
            entries[w] = CylinderFunction(depth, values)
        except (TypeError, ValueError, LookupError, ArithmeticError) as err:
            raise InvalidSpec(f"table entry {i}: {err}") from err
        table_depth = max(table_depth, depth)
    if table_depth < n:
        raise InvalidSpec(f"horizon {n} needs depth >= {n}, got {table_depth}")
    return DfsTable(n, entries, table_depth)

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

A table is stored as that 1-cochain's values: one read-only (2**n, 2**depth)
array of one dtype, row m the table of the word with mask m, so the two
views share memory and every check is a row expression.  Tables with integer
or Fraction entries are checked in exact arithmetic; the reports carry an
exact_zero flag alongside the float violation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from .errors import DepthTooSmall, InvalidSpec, InvariantViolation, OrderUnsupported
from .groupoid import FlipWord, check_depth
from .measures import (
    CylinderFunction,
    _max_abs,
    _read_only,
    _worse,
    tables_from_json,
    tables_to_json,
)


def _common_dtype(dtypes):
    """The dtype that holds every table: object if any one holds objects."""
    return object if any(t == object for t in dtypes) else np.result_type(*dtypes)


class DfsTable:
    """Values of S on all words up to horizon n, tables at a common depth.

    Stored as one read-only (2**n, 2**depth) array of one dtype: row m is
    the table of the word with mask m.  Words missing from `entries` get
    zero rows.
    """

    __slots__ = ("n", "depth", "values")

    def __init__(self, n: int, entries: dict, depth: int | None = None):
        d = depth if depth is not None else n
        for w, f in entries.items():
            if w.mask >> n:
                raise InvariantViolation(
                    f"word {w!r} exceeds horizon {n}"
                )
            d = max(d, f.depth)
        if d < n:
            raise DepthTooSmall(f"horizon {n} needs depth >= {n}, got {d}")
        check_depth(d)
        dtype = _common_dtype([f.values.dtype for f in entries.values()] or [np.float64])
        rows = np.zeros((1 << n, 1 << d), dtype=dtype)
        for w, f in entries.items():
            rows[w.mask] = f.lift(d).values
        self.n, self.depth, self.values = n, d, _read_only(rows)

    @classmethod
    def of_rows(cls, values: np.ndarray) -> "DfsTable":
        """Wrap a (2**n, 2**depth) row array without copying it."""
        n, d = (s.bit_length() - 1 for s in values.shape)
        if d < n:
            raise DepthTooSmall(f"horizon {n} needs depth >= {n}, got {d}")
        check_depth(d)
        S = cls.__new__(cls)
        S.n, S.depth, S.values = n, d, _read_only(values.view())
        return S

    @property
    def entries(self) -> dict:
        """The rows as a word -> CylinderFunction map (views, not copies)."""
        return {FlipWord(m): CylinderFunction(self.depth, row)
                for m, row in enumerate(self.values)}

    def value(self, g) -> float:
        """S at a single transition (point, word)."""
        return CylinderFunction(self.depth, self.values[g.flips.mask])(g.point)

    @property
    def exact(self) -> bool:
        dtype = self.values.dtype
        return dtype == object or np.issubdtype(dtype, np.integer)

    def lift(self, depth: int) -> "DfsTable":
        """The same table read at a greater depth: every row tiled."""
        if depth == self.depth:
            return self
        if depth < self.depth:
            raise DepthTooSmall(f"cannot lower depth {self.depth} to {depth}")
        return DfsTable.of_rows(np.tile(self.values, (1, 1 << (depth - self.depth))))

    def scale(self, c) -> "DfsTable":
        return DfsTable.of_rows(c * self.values)

    def __add__(self, other: "DfsTable") -> "DfsTable":
        if self.n != other.n:
            raise InvariantViolation("horizon mismatch in table sum")
        d = max(self.depth, other.depth)
        return DfsTable.of_rows(self.lift(d).values + other.lift(d).values)

    def __repr__(self):
        return f"DfsTable(n={self.n}, depth={self.depth})"


def dfs_check(S: DfsTable, tol: float = 1e-12) -> dict:
    """Exhaustive verification of all three defining identities.

    Returns the worst absolute violation over every (word pair, prefix)
    triple, the number of scalar checks, and whether exact arithmetic gave
    an identically zero violation.  The chain identities run over blocks of
    rows sized to keep each temporary near 2**15 entries, which is faster
    than both one pair at a time and whole-table temporaries.
    """
    n, d, V = S.n, S.depth, S.values
    idx = np.arange(1 << d)
    words = np.arange(1 << n)
    worst = _worse(_max_abs(V[0]), _max_abs(V[words[:, None], idx ^ words[:, None]] + V))

    step = max(1, (1 << 15) >> d)
    for mu in words:
        Tu = V[mu]
        for start in range(0, 1 << n, step):
            mv = words[start:start + step]
            Tv = V[mv]
            lhs = V[mu ^ mv]
            worst = _worse(worst, _max_abs(lhs - (Tu[idx ^ mv[:, None]] + Tv)))
            worst = _worse(worst, _max_abs(lhs - (Tu + Tv[:, idx ^ mu])))

    return {
        "n": n,
        "depth": d,
        # the zero word, antisymmetry per word, two chainings per word pair
        "checks": (1 + (1 << n) + (2 << 2 * n)) << d,
        "max_violation": worst,
        "exact_zero": bool(S.exact and worst == 0),
        "passed": bool(worst <= tol),
    }


def dfs_seed_extend(S: DfsTable, seed: CylinderFunction) -> DfsTable:
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


def dfs_build(n: int, seeds: list, D: int) -> DfsTable:
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


class Cochain:
    """Order-k cochain: a table over k word arguments of cylinder functions.

    Stored dense: shape (2**n,) * order + (2**depth,), the final axis being
    the prefix.  Order zero is a single cylinder function.
    """

    __slots__ = ("order", "n", "depth", "values")

    def __init__(self, order: int, n: int, depth: int, values):
        values = np.asarray(values)
        expected = (1 << n,) * order + (1 << depth,)
        if values.shape != expected:
            raise InvariantViolation(
                f"order-{order} cochain needs shape {expected}, got {values.shape}"
            )
        self.order = order
        self.n = n
        self.depth = depth
        self.values = values

    @classmethod
    def from_cylinder(cls, f: CylinderFunction, n: int) -> "Cochain":
        return cls(0, n, f.depth, f.values)

    def max_abs(self) -> float:
        return _max_abs(self.values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        if (self.order, self.n, self.depth) != (other.order, other.n, other.depth):
            raise InvariantViolation("cochain shape mismatch")
        return Cochain(self.order, self.n, self.depth, self.values - other.values)

    def __repr__(self):
        return f"Cochain(order={self.order}, n={self.n}, depth={self.depth})"


def cochain_delta(c: Cochain) -> Cochain:
    """The differential: alternating sum over merged and shifted arguments.

    (delta c)(u_0, .., u_k)[x] = c(u_1, .., u_k)[x ^ u_0]
        + sum_i (-1)**(i+1) c(.., u_i ^ u_{i+1}, ..)[x]
        + (-1)**(k+1) c(u_0, .., u_{k-1})[x].

    Supports orders 0 through 2.
    """
    if c.order > 2:
        raise OrderUnsupported(f"order {c.order} differentials are out of scope")
    k = c.order
    gn = 1 << c.n
    idx = np.arange(1 << c.depth)
    out = np.zeros((gn,) * (k + 1) + (1 << c.depth,), dtype=c.values.dtype)
    for u in product(range(gn), repeat=k + 1):
        term = c.values[u[1:]][idx ^ u[0]]
        for i in range(1, k + 1):
            merged = u[:i - 1] + (u[i - 1] ^ u[i],) + u[i + 1:]
            term = term + (-1) ** i * c.values[merged[:k]]
        term = term + (-1) ** (k + 1) * c.values[u[:k]]
        out[u] = term
    return Cochain(k + 1, c.n, c.depth, out)


def coboundary(H: Cochain) -> Cochain:
    """delta of an order-0 cochain: (x, w) -> H(x ^ w) - H(x)."""
    if H.order != 0:
        raise OrderUnsupported(f"coboundary takes order 0, got {H.order}")
    return cochain_delta(H)


def dfs_to_cochain(S: DfsTable) -> Cochain:
    """The table as an order-1 cochain over the same rows (no copy)."""
    return Cochain(1, S.n, S.depth, S.values)


def cochain_to_dfs(c: Cochain) -> DfsTable:
    if c.order != 1:
        raise OrderUnsupported(f"a DFS table is an order-1 cochain, got {c.order}")
    return DfsTable.of_rows(c.values)


def is_exact(S: DfsTable, tol: float = 1e-12) -> Cochain | None:
    """Solve S = coboundary(H) if possible; None if no cylinder H works.

    H is reconstructed by reading S along zero-tail paths: the low n bits of
    a prefix form a word w, the rest a representative zbar, and
    H(zbar ^ w) := S(zbar, w).  The gauge is H = 0 on every representative
    (in particular on the all-zeros prefix).  The candidate is then verified
    against S; reconstruction failing the check means S is not exact at this
    truncation.
    """
    idx = np.arange(1 << S.depth)
    words = np.arange(1 << S.n)
    low = idx & (len(words) - 1)
    H = S.values[low, idx ^ low]
    dev = _max_abs(S.values - (H[idx ^ words[:, None]] - H))
    if dev != 0 if S.exact else not dev <= tol:
        return None
    return Cochain(0, S.n, S.depth, H)


def _scalars_to_json(vals: np.ndarray) -> list:
    if vals.dtype == object:
        return [str(v) for v in vals.tolist()]
    return [float(v) for v in vals.tolist()]


def _scalars_from_json(raw) -> np.ndarray:
    if raw and isinstance(raw[0], str):
        return np.array([Fraction(v) for v in raw], dtype=object)
    return np.array([float(v) for v in raw])


def dfs_to_json(S: DfsTable) -> dict:
    return {"n": S.n, "entries": tables_to_json(S.entries, _scalars_to_json)}


def dfs_from_json(doc: dict) -> DfsTable:
    """Read a dfs_to_json document; InvalidSpec if it is malformed."""
    if not (isinstance(doc, dict) and {"n", "entries"} <= doc.keys()):
        raise InvalidSpec("a DFS table document needs 'n' and a list of 'entries'")
    entries, depth = tables_from_json(doc["entries"], _scalars_from_json)
    n = doc["n"]
    if not isinstance(n, int) or n < 0:
        raise InvalidSpec(f"table horizon must be a nonnegative integer, got {n!r}")
    return DfsTable(n, entries, depth)

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

Tables with integer or Fraction entries are checked in exact arithmetic; the
reports carry an exact_zero flag alongside the float violation.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import product

import numpy as np

from .errors import DepthTooSmall, InvalidSpec, InvariantViolation, OrderUnsupported
from .groupoid import EMPTY_WORD, FlipWord, check_depth
from .measures import CylinderFunction


def _is_exact_dtype(dtype) -> bool:
    return dtype == object or np.issubdtype(dtype, np.integer)


def _worse(worst: float, dev: float) -> float:
    """The larger deviation, where NaN beats everything (max() would drop it)."""
    return worst if math.isnan(worst) or dev <= worst else dev


def _max_abs(arr) -> float:
    """Largest absolute entry; NaN if any entry is NaN."""
    if arr.size == 0:
        return 0.0
    if arr.dtype == object:
        return reduce(_worse, (float(abs(v)) for v in arr.flat), 0.0)
    return float(np.max(np.abs(arr)))


class DfsTable:
    """Values of S on all words up to horizon n, tables at a common depth.

    Missing words are filled with zero tables, so `entries` always covers
    the full word group of the horizon.
    """

    __slots__ = ("n", "depth", "entries")

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
        sample = next(iter(entries.values())).values if entries else None
        dtype = sample.dtype if sample is not None else np.float64
        full = {}
        for mask in range(1 << n):
            w = FlipWord(mask)
            if w in entries:
                full[w] = entries[w].lift(d)
            elif dtype == object:
                full[w] = CylinderFunction(d, np.zeros(1 << d, dtype=object) + 0)
            else:
                full[w] = CylinderFunction(d, np.zeros(1 << d, dtype=dtype))
        self.n = n
        self.depth = d
        self.entries = full

    def entry(self, w: FlipWord) -> CylinderFunction:
        return self.entries[w]

    def value(self, g) -> float:
        """S at a single transition (point, word)."""
        return self.entries[g.flips](g.point)

    @property
    def exact(self) -> bool:
        return all(_is_exact_dtype(f.values.dtype) for f in self.entries.values())

    def astype(self, dtype) -> "DfsTable":
        return DfsTable(
            self.n,
            {w: CylinderFunction(self.depth, f.values.astype(dtype))
             for w, f in self.entries.items()},
            self.depth,
        )

    def scale(self, c) -> "DfsTable":
        return DfsTable(
            self.n,
            {w: c * f for w, f in self.entries.items()},
            self.depth,
        )

    def __add__(self, other: "DfsTable") -> "DfsTable":
        if self.n != other.n:
            raise InvariantViolation("horizon mismatch in table sum")
        d = max(self.depth, other.depth)
        return DfsTable(
            self.n,
            {w: self.entries[w].lift(d) + other.entries[w].lift(d)
             for w in self.entries},
            d,
        )

    def __repr__(self):
        return f"DfsTable(n={self.n}, depth={self.depth})"


def dfs_check(S: DfsTable, tol: float = 1e-12) -> dict:
    """Exhaustive verification of all three defining identities.

    Returns the worst absolute violation over every (word pair, prefix)
    triple, the number of scalar checks, and whether exact arithmetic gave
    an identically zero violation.
    """
    d = S.depth
    idx = np.arange(1 << d)
    worst = 0.0
    checks = 0

    worst = _worse(worst, _max_abs(S.entry(EMPTY_WORD).values))
    checks += 1 << d

    for mask in range(1 << S.n):
        w = FlipWord(mask)
        T = S.entry(w).values
        worst = _worse(worst, _max_abs(T[idx ^ mask] + T))
        checks += 1 << d

    for mu in range(1 << S.n):
        Tu = S.entry(FlipWord(mu)).values
        for mv in range(1 << S.n):
            Tv = S.entry(FlipWord(mv)).values
            lhs = S.entry(FlipWord(mu ^ mv)).values
            chain_a = Tu[idx ^ mv] + Tv
            chain_b = Tu + Tv[idx ^ mu]
            worst = _worse(worst, _max_abs(lhs - chain_a))
            worst = _worse(worst, _max_abs(lhs - chain_b))
            checks += 2 << d

    return {
        "n": S.n,
        "depth": d,
        "checks": checks,
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

    where z = zbar ^ z0 splits a prefix at position n.  The output is
    re-checked exhaustively; so is the input.
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

    zbars = np.arange(1 << (d - n)) << n
    old = {w: f.lift(d).values for w, f in S.entries.items()}
    # promote over every old entry, not just the empty word: tables may mix
    # int64 (the zero entry) with float entries, and int output would truncate
    dtypes = [v.dtype for v in old.values()] + [seedv.dtype]
    if any(t == object for t in dtypes):
        out_dtype = object
    else:
        out_dtype = np.result_type(*dtypes)

    entries = dict(S.entries)
    for mw in range(1 << n):
        vals = np.empty(1 << d, dtype=out_dtype)
        for z0 in range(1 << n):
            low_vals = (
                old[FlipWord(z0 ^ mw)][zbars ^ bit]
                - old[FlipWord(z0)][zbars]
                + new_single[zbars]
            )
            vals[zbars + z0] = low_vals
        entries[FlipWord(mw | bit)] = CylinderFunction(d, vals)
    return DfsTable(n + 1, entries, d)


def dfs_build(n: int, seeds: list, D: int) -> DfsTable:
    """Iterate the seed extension from the empty table up to horizon n."""
    if len(seeds) != n:
        raise InvariantViolation(f"need {n} seeds, got {len(seeds)}")
    if D < n:
        raise DepthTooSmall(f"horizon {n} needs depth >= {n}, got {D}")
    # int64 zeros promote to whatever the seeds carry; float zeros would
    # silently de-rationalize exact seeds
    S = DfsTable(0, {EMPTY_WORD: CylinderFunction(0, np.zeros(1, np.int64))}, 0)
    for seed in seeds:
        S = dfs_seed_extend(S, seed)
    if S.depth < D:
        S = DfsTable(S.n, {w: f.lift(D) for w, f in S.entries.items()}, D)
    report = dfs_check(S)
    if not report["passed"]:
        raise InvariantViolation(
            f"constructed table fails its identities (max {report['max_violation']:.3e})"
        )
    return S


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
    vals = np.stack(
        [S.entry(FlipWord(m)).values for m in range(1 << S.n)]
    )
    return Cochain(1, S.n, S.depth, vals)


def cochain_to_dfs(c: Cochain) -> DfsTable:
    if c.order != 1:
        raise OrderUnsupported(f"a DFS table is an order-1 cochain, got {c.order}")
    entries = {
        FlipWord(m): CylinderFunction(c.depth, c.values[m])
        for m in range(1 << c.n)
    }
    return DfsTable(c.n, entries, c.depth)


def is_exact(S: DfsTable, tol: float = 1e-12) -> Cochain | None:
    """Solve S = coboundary(H) if possible; None if no cylinder H works.

    H is reconstructed by reading S along zero-tail paths: the low n bits of
    a prefix form a word w, the rest a representative zbar, and
    H(zbar ^ w) := S(zbar, w).  The gauge is H = 0 on every representative
    (in particular on the all-zeros prefix).  The candidate is then verified
    against S; reconstruction failing the check means S is not exact at this
    truncation.
    """
    d = S.depth
    idx = np.arange(1 << d)
    zbars = np.arange(1 << (d - S.n)) << S.n
    dtypes = [S.entry(FlipWord(m)).values.dtype for m in range(1 << S.n)]
    if any(t == object for t in dtypes):
        gauge_dtype = object
    else:
        gauge_dtype = np.result_type(*dtypes)
    H = np.empty(1 << d, dtype=gauge_dtype)
    for m in range(1 << S.n):
        H[zbars + m] = S.entry(FlipWord(m)).values[zbars]
    exact_mode = S.exact
    for m in range(1 << S.n):
        dev = S.entry(FlipWord(m)).values - (H[idx ^ m] - H)
        bad = _max_abs(dev) != 0 if exact_mode else not _max_abs(dev) <= tol
        if bad:
            return None
    return Cochain(0, S.n, d, H)


def dfs_to_json(S: DfsTable) -> dict:
    entries = []
    for m in range(1 << S.n):
        w = FlipWord(m)
        vals = S.entry(w).values
        if vals.dtype == object:
            values = [str(v) for v in vals.tolist()]
        else:
            values = [float(v) for v in vals.tolist()]
        entries.append(
            {"flips": list(w.sites), "depth": S.depth, "values": values}
        )
    return {"n": S.n, "entries": entries}


def dfs_from_json(doc: dict) -> DfsTable:
    """Read a dfs_to_json document; InvalidSpec if it is malformed."""
    if not (isinstance(doc, dict) and {"n", "entries"} <= doc.keys()
            and isinstance(doc["entries"], list)):
        raise InvalidSpec("a DFS table document needs 'n' and a list of 'entries'")
    entries = {}
    depth = 0
    for i, rec in enumerate(doc["entries"]):
        if not (isinstance(rec, dict) and {"flips", "depth", "values"} <= rec.keys()):
            raise InvalidSpec(f"table entry {i} needs 'flips', 'depth' and 'values'")
        try:
            w, f = _entry_from_json(rec)
        except (TypeError, ValueError) as err:
            raise InvalidSpec(f"table entry {i}: {err}") from err
        entries[w] = f
        depth = max(depth, f.depth)
    n = doc["n"]
    if not isinstance(n, int) or n < 0:
        raise InvalidSpec(f"table horizon must be a nonnegative integer, got {n!r}")
    return DfsTable(n, entries, depth)


def _entry_from_json(rec: dict):
    from fractions import Fraction

    raw = rec["values"]
    if raw and isinstance(raw[0], str):
        vals = np.array([Fraction(v) for v in raw], dtype=object)
    else:
        vals = np.array([float(v) for v in raw])
    # CylinderFunction rejects a value count other than 2**depth
    return FlipWord.from_sites(rec["flips"]), CylinderFunction(int(rec["depth"]), vals)
